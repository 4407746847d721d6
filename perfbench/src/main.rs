//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload paper-figs|incast|collectives|service-mix --seed N
//!           --seconds S --trace 0|1 [--tiny] [--trace-dir DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: it sets the workload up
//! several times, then runs whole passes of it until `--seconds` have
//! passed, checking every pass against the reference. `--trace 1` gives
//! the per-layer metrics instead: one untraced pass, one pass with spans
//! (their difference is the tracing overhead), a layer pass through
//! `Cluster::new`/`run`, and unit-cost probes of single layers; the spans
//! are written to `DIR/trace-<workload>-<seed>.json` as a Chrome trace.
//!
//! stdout carries a stamp line and, last, one JSON result line. A pass
//! whose output differs from the reference makes the exit code 1.

mod calib;
mod layers;
mod reference;
mod spans;
mod util;
mod workloads;

use calib::Calibrator;
use mpiq_bench::report::json_str;
use spans::{Tracer, LAYERS};
use std::time::Instant;
use util::{median, nproc, peak_rss_mb, percentile, reset_peak_rss, secs};
use workloads::{model_error_pct, setup_samples, Kind, Workload};

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("model_err_pct", "%"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dessim.events", "count"),
    ("dessim.ns_per_event", "ns"),
    ("dessim.round_us.hub", "us"),
    ("dessim.round_us.fattree", "us"),
    ("dessim.par_speedup", "ratio"),
    ("memsim.l1_accesses", "count"),
    ("memsim.l1_miss_ratio", "ratio"),
    ("memsim.ns_per_access.hit", "ns"),
    ("memsim.ns_per_access.miss", "ns"),
    ("cpusim.ns_per_uop", "ns"),
    ("cpusim.ns_per_trace_build", "ns"),
    ("alpu.ns_per_match", "ns"),
    ("alpu.ns_per_insert", "ns"),
    ("alpu.hits", "count"),
    ("nic.posted_traversed", "count"),
    ("nic.unexpected_traversed", "count"),
    ("nic.retransmits", "count"),
    ("net.topology_build_ms", "ms"),
    ("mpi.cluster_new_us", "us"),
    ("mpi.run_us_per_event", "us"),
    ("service.hit_us", "us"),
    ("service.miss_overhead_us", "us"),
    ("service.hit_ratio", "ratio"),
    ("trace.overhead_s", "s"),
    ("host.cal_ms", "ms"),
    ("self_s.bench", "s"),
    ("self_s.service", "s"),
    ("self_s.mpi", "s"),
    ("self_s.dessim", "s"),
    ("self_s.memsim", "s"),
    ("self_s.cpusim", "s"),
    ("self_s.alpu", "s"),
    ("self_s.net", "s"),
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    trace_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut tiny = false;
    let mut trace_dir = "perfbench/out".to_string();
    while let Some(flag) = argv.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--trace-dir" => trace_dir = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")? as f64,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        trace_dir,
    })
}

/// The result line's contents.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    fn add(&mut self, out: &workloads::PassOut) {
        self.attempted += out.ops;
        self.failed += out.failed;
        self.errors.extend(out.errors.iter().cloned());
    }

    fn set(&mut self, table: &[(&'static str, &'static str)], name: &str, value: f64) {
        let &(name, unit) = table
            .iter()
            .find(|(n, _)| *n == name)
            .expect("declared metric");
        self.metrics.push((name, unit, value));
    }
}

/// `--trace 0`: timed passes until `seconds`, each after a few set-up
/// samples. One warm-up set-up first pays the process's first-touch costs.
///
/// The host's speed moves in bursts of a second or two and in phases that
/// outlast a run, so every timing is scaled by the calibration kernel's
/// speed over the same stretch of time (see [`calib`]). Units run every
/// quarter second between two calls into the program and three times on
/// each side of a pass; a pass's times are multiplied by `UNIT_REF_S`
/// over the median of those units. Every pass makes the same calls in the
/// same order, so each call has one scaled sample per pass: its time is
/// the median of them. `wall_s` is the sum of those per-call times, and
/// the request percentiles are taken over them. Set-up samples are scaled
/// like the pass they precede. Memory is the median over passes of each
/// pass's peak resident set.
fn end_to_end(w: &Workload, seconds: f64) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    w.setup_once()?;
    let mut tr = Tracer::new(false);
    let mut cal = Calibrator::new();
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let (mut calls, mut raw_walls) = (Vec::<Vec<f64>>::new(), Vec::new());
    let mut rss = Vec::new();
    let start = Instant::now();
    for pass in 1.. {
        let setup = setup_samples(w)?;
        let first_unit = cal.samples.len();
        for _ in 0..3 {
            cal.sample();
        }
        reset_peak_rss();
        let t = Instant::now();
        let out = w.pass(&mut tr, &mut cal)?;
        let wall = secs(t);
        rss.push(peak_rss_mb());
        for _ in 0..3 {
            cal.sample();
        }
        let unit = median(&cal.samples[first_unit..]);
        let scale = calib::UNIT_REF_S / unit;
        if calls.first().is_some_and(|c| c.len() != out.req_ms.len()) {
            return Err(format!(
                "pass {pass} made {} calls, the first made {}",
                out.req_ms.len(),
                calls[0].len()
            ));
        }
        calls.push(out.req_ms.iter().map(|ms| ms * scale).collect());
        raw_walls.push(out.req_ms.iter().sum::<f64>() / 1e3);
        setups.extend(setup.iter().map(|s| s * scale));
        raw_setups.extend(setup);
        o.add(&out);
        eprintln!(
            "perfbench: pass {pass} took {wall:.3} s over {} calls; median unit {:.3} ms",
            out.req_ms.len(),
            unit * 1e3
        );
        if secs(start) >= seconds {
            break;
        }
    }
    let model = model_error_pct();
    let per_call: Vec<f64> = (0..calls[0].len())
        .map(|i| median(&calls.iter().map(|c| c[i]).collect::<Vec<_>>()))
        .collect();
    eprintln!(
        "perfbench: {} calibration units, median {:.3} ms; unscaled median wall {:.4} s, \
         set-up {:.6} s",
        cal.samples.len(),
        median(&cal.samples) * 1e3,
        median(&raw_walls),
        median(&raw_setups)
    );
    let t = END_TO_END;
    o.set(t, "wall_s", per_call.iter().sum::<f64>() / 1e3);
    o.set(t, "setup_s", median(&setups));
    o.set(t, "peak_rss_mb", median(&rss));
    o.set(t, "req_p50_ms", percentile(&per_call, 0.50));
    o.set(t, "req_p99_ms", percentile(&per_call, 0.99));
    o.set(t, "model_err_pct", model);
    Ok(o)
}

/// `--trace 1`: the per-layer metrics.
fn per_layer(w: &Workload, trace_dir: &str) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut tr = Tracer::new(false);
    let mut cal = Calibrator::off();
    for _ in 0..20 {
        cal.sample();
    }
    let t = Instant::now();
    o.add(&w.pass(&mut tr, &mut cal)?);
    let wall_untraced = secs(t);

    tr.set_on(true);
    let t = Instant::now();
    let traced = w.pass(&mut tr, &mut cal)?;
    let wall_traced = secs(t);
    o.add(&traced);

    let (c, rounds) = layers::layer_pass(w, &mut tr)?;
    o.attempted += c.ops;
    o.failed += c.failed;
    o.errors.extend(c.errors.iter().cloned());

    let depth = c.max_depth.clamp(8, 4096);
    let ns_per_event = tr.span("dessim", "kernel ring", || {
        layers::kernel_ns_per_event(w.kind)
    });
    let hit = tr.span("memsim", "walk 256 entries", || {
        layers::memsim_ns_per_access(256)
    });
    let miss = tr.span("memsim", "walk 1024 entries", || {
        layers::memsim_ns_per_access(1024)
    });
    let (per_uop, per_build) = tr.span("cpusim", "list walk", || layers::cpusim_costs(depth));
    let (per_match, per_insert) = tr.span("alpu", "fill and match", || layers::alpu_costs(depth));
    let topo_ms = tr.span("net", "Topology::plan", || layers::topology_build_ms(w));
    let (hit_us, miss_overhead_us, hit_ratio) = if w.kind == Kind::ServiceMix {
        layers::service_numbers(w, &traced.requests)
    } else {
        // No service on this workload's path: a small probe stream gives
        // the service layer's unit costs.
        let probe = Workload::new(Kind::ServiceMix, w.seed, true)?;
        let out = probe.pass(&mut tr, &mut cal)?;
        o.add(&out);
        layers::service_numbers(&probe, &out.requests)
    };

    let t = PER_LAYER;
    let l1 = c.l1_hits + c.l1_misses;
    o.set(t, "dessim.events", c.events as f64);
    o.set(t, "dessim.ns_per_event", ns_per_event);
    o.set(t, "dessim.round_us.hub", rounds.round_us_hub);
    o.set(t, "dessim.round_us.fattree", rounds.round_us_fattree);
    o.set(t, "dessim.par_speedup", rounds.par_speedup);
    o.set(t, "memsim.l1_accesses", l1 as f64);
    o.set(
        t,
        "memsim.l1_miss_ratio",
        c.l1_misses as f64 / l1.max(1) as f64,
    );
    o.set(t, "memsim.ns_per_access.hit", hit);
    o.set(t, "memsim.ns_per_access.miss", miss);
    o.set(t, "cpusim.ns_per_uop", per_uop);
    o.set(t, "cpusim.ns_per_trace_build", per_build);
    o.set(t, "alpu.ns_per_match", per_match);
    o.set(t, "alpu.ns_per_insert", per_insert);
    o.set(t, "alpu.hits", c.alpu_hits as f64);
    o.set(t, "nic.posted_traversed", c.posted_traversed as f64);
    o.set(t, "nic.unexpected_traversed", c.unexpected_traversed as f64);
    o.set(t, "nic.retransmits", c.retransmits as f64);
    o.set(t, "net.topology_build_ms", topo_ms);
    o.set(
        t,
        "mpi.cluster_new_us",
        c.new_ns as f64 / 1e3 / c.clusters.max(1) as f64,
    );
    o.set(
        t,
        "mpi.run_us_per_event",
        c.run_ns as f64 / 1e3 / c.events.max(1) as f64,
    );
    o.set(t, "service.hit_us", hit_us);
    o.set(t, "service.miss_overhead_us", miss_overhead_us);
    o.set(t, "service.hit_ratio", hit_ratio);
    o.set(t, "trace.overhead_s", wall_traced - wall_untraced);
    o.set(t, "host.cal_ms", median(&cal.samples) * 1e3);
    for (layer, s) in tr.self_seconds() {
        if LAYERS.contains(&layer) {
            o.set(t, &format!("self_s.{layer}"), s);
        }
    }

    let json = tr.chrome_json();
    mpiq_bench::jsonlint::validate(&json).map_err(|e| format!("span trace is not JSON: {e}"))?;
    std::fs::create_dir_all(trace_dir).map_err(|e| format!("{trace_dir}: {e}"))?;
    let path = format!("{trace_dir}/trace-{}-{}.json", w.kind.name(), w.seed);
    std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("perfbench: wrote host-time spans to {path}");
    Ok(o)
}

fn stamp(args: &Args) -> String {
    let threads = args.kind.threads();
    let cores = nproc();
    if threads > cores {
        eprintln!(
            "perfbench: WARNING: {} uses {threads} threads on {cores} core(s)",
            args.kind.name()
        );
    }
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"stamp\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"tiny\":{},\
         \"nproc\":{cores},\"threads\":{threads},\"oversubscribed\":{},\"git_rev\":{},\
         \"rustc\":{},\"profile\":{}}}}}",
        json_str(args.kind.name()),
        args.seed,
        args.seconds,
        args.trace as u8,
        args.tiny,
        threads > cores,
        json_str(&env("MPIQ_PERFBENCH_GIT_REV")),
        json_str(&env("MPIQ_PERFBENCH_RUSTC")),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
    )
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    println!("{}", stamp(&args));
    let run = Workload::new(args.kind, args.seed, args.tiny).and_then(|w| {
        if args.trace {
            per_layer(&w, &args.trace_dir)
        } else {
            end_to_end(&w, args.seconds)
        }
    });
    let o = run.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    for e in o.errors.iter().take(20) {
        eprintln!("perfbench: MISMATCH {e}");
    }
    let correct = o.failed == 0 && o.errors.is_empty();
    let mut metrics = Vec::new();
    for (name, unit, value) in &o.metrics {
        eprintln!("  {name:<28} {value:>16.6} {unit}");
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            mpiq_bench::report::json_f64(*value),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.attempted.max(1),
        o.failed,
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
