//! Clock-domain helpers: cycles ↔ picoseconds.
//!
//! The modeled system has several clock domains — a 2 GHz host core, a
//! 500 MHz NIC core, and an ALPU whose clock depends on its configuration —
//! and every hardware model internally counts cycles. `Clock` converts
//! between a domain's cycle counts and kernel [`Time`].

use crate::time::Time;

/// A fixed-frequency clock domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Clock {
    period_ps: u64,
}

impl Clock {
    /// From frequency in hertz. Rounds the period to whole picoseconds
    /// (exact for every frequency used in the paper's configuration).
    pub fn from_hz(hz: u64) -> Clock {
        assert!(hz > 0, "zero-frequency clock");
        Clock {
            period_ps: 1_000_000_000_000 / hz,
        }
    }

    /// From frequency in megahertz.
    pub fn from_mhz(mhz: u64) -> Clock {
        Clock::from_hz(mhz * 1_000_000)
    }

    /// The clock period.
    pub fn period(&self) -> Time {
        Time::from_ps(self.period_ps)
    }

    /// Frequency in MHz (possibly fractional).
    pub fn mhz(&self) -> f64 {
        1e6 / self.period_ps as f64
    }

    /// Duration of `n` cycles.
    pub fn cycles(&self, n: u64) -> Time {
        Time::from_ps(self.period_ps * n)
    }

    /// How many *complete* cycles fit in `t`.
    pub fn cycles_in(&self, t: Time) -> u64 {
        t.ps() / self.period_ps
    }

    /// The first cycle boundary at or after `t` (for aligning work to clock
    /// edges when a request arrives mid-cycle).
    pub fn next_edge(&self, t: Time) -> Time {
        let ps = t.ps();
        let rem = ps % self.period_ps;
        if rem == 0 {
            t
        } else {
            Time::from_ps(ps + (self.period_ps - rem))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_clock_domains_are_exact() {
        assert_eq!(Clock::from_hz(2_000_000_000).period(), Time::from_ps(500));
        assert_eq!(Clock::from_mhz(500).period(), Time::from_ps(2_000));
    }

    #[test]
    fn cycle_conversions() {
        let c = Clock::from_mhz(500);
        assert_eq!(c.cycles(7), Time::from_ns(14));
        assert_eq!(c.cycles_in(Time::from_ns(15)), 7); // 7.5 truncates
    }

    #[test]
    fn edge_alignment() {
        let c = Clock::from_mhz(500); // 2 ns period
        assert_eq!(c.next_edge(Time::from_ns(4)), Time::from_ns(4));
        assert_eq!(c.next_edge(Time::from_ns(5)), Time::from_ns(6));
        assert_eq!(c.next_edge(Time::ZERO), Time::ZERO);
    }

    #[test]
    fn mhz_reporting() {
        assert!((Clock::from_mhz(500).mhz() - 500.0).abs() < 1e-9);
    }
}
