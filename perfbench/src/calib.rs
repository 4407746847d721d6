//! The host-speed calibration kernel.
//!
//! A 2-vCPU VM on a shared host does not run at one speed. Other tenants
//! slow it down in bursts of a second or two and in phases that last
//! minutes, by up to half again, and the simulator's branchy code feels it
//! more than plain arithmetic does. The kernel here is fixed code of the
//! same kind: it formats CSV rows of integers and floats and parses a
//! float back out of each, which is what the harness does around every
//! sweep point. On such a VM its time tracks the simulator's to within a
//! few percent as the host's speed moves by a third, so a run divides its
//! timings by the kernel's time measured in the same run, and scales them
//! to [`UNIT_REF_S`].
//!
//! The kernel depends only on the standard library, never on the
//! program, so a change to the program does not change it.

use crate::util::secs;
use std::fmt::Write;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host seconds of one [`unit`] that timings are scaled to: about its time
/// on a quiet 2 GHz Xeon VM.
pub const UNIT_REF_S: f64 = 0.010;

/// Rows formatted and parsed by one unit.
const ROWS: u64 = 16_000;

/// One calibration unit.
pub fn unit() -> usize {
    let mut total = 0;
    let mut x = 0x1234_5678_u64;
    let mut row = String::new();
    for i in 0..ROWS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let f = (x >> 11) as f64 / (1u64 << 53) as f64 * 1000.0;
        row.clear();
        write!(row, "{i},{},{f:.4},{}", x % 997, x >> 40).expect("write to a String");
        let back: f64 = row
            .split(',')
            .nth(2)
            .and_then(|c| c.parse().ok())
            .unwrap_or(0.0);
        total += row.len() + back as usize;
    }
    total
}

/// Calibration samples spread over a run: a unit every `every` while a
/// pass runs, and a few between passes.
pub struct Calibrator {
    every: Option<Duration>,
    last: Instant,
    pub samples: Vec<f64>,
}

impl Calibrator {
    /// Sample every quarter second of a pass.
    pub fn new() -> Calibrator {
        Calibrator {
            every: Some(Duration::from_millis(250)),
            last: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Never sample (traced runs).
    pub fn off() -> Calibrator {
        Calibrator {
            every: None,
            ..Calibrator::new()
        }
    }

    /// Run one unit now.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(unit());
        self.samples.push(secs(t));
        self.last = Instant::now();
    }

    /// Called between two calls into the program: run a unit if the last
    /// one is older than the sampling interval.
    pub fn tick(&mut self) {
        if self.every.is_some_and(|every| self.last.elapsed() >= every) {
            self.sample();
        }
    }
}
