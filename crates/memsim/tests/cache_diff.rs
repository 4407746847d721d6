//! Differential test: the flat structure-of-arrays [`Cache`] against a
//! straightforward reference model — one `Vec<Line>` per set, linear tag
//! scan, victim = `min_by_key((valid, stamp))` — over random read, write
//! and flush sequences. Every outcome, every counter and residency of
//! every probed line must agree on every geometry, including one whose
//! set count and line size are not powers of two.

use mpiq_memsim::{Cache, CacheConfig, CacheOutcome};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotone use stamp; smallest = least recently used.
    stamp: u64,
}

/// The reference model: sets as `Vec<Vec<Line>>`, true LRU by stamp.
struct RefCache {
    line_bytes: u64,
    sets: Vec<Vec<Line>>,
    tick: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> RefCache {
        RefCache {
            line_bytes: cfg.line_bytes,
            sets: vec![vec![Line::default(); cfg.assoc as usize]; cfg.sets() as usize],
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_bytes;
        let n = self.sets.len() as u64;
        ((line % n) as usize, line / n)
    }

    fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        self.tick += 1;
        let (set_idx, tag) = self.index(addr);
        let num_sets = self.sets.len() as u64;
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.stamp = self.tick;
            line.dirty |= is_write;
            self.hits += 1;
            return CacheOutcome {
                hit: true,
                writeback: None,
            };
        }
        self.misses += 1;
        let victim = set
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| (l.valid, l.stamp))
            .map(|(i, _)| i)
            .expect("associativity >= 1");
        let old = set[victim];
        let writeback = (old.valid && old.dirty).then(|| {
            self.writebacks += 1;
            (old.tag * num_sets + set_idx as u64) * self.line_bytes
        });
        set[victim] = Line {
            tag,
            valid: true,
            dirty: is_write,
            stamp: self.tick,
        };
        CacheOutcome {
            hit: false,
            writeback,
        }
    }

    fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index(addr);
        self.sets[set_idx].iter().any(|l| l.valid && l.tag == tag)
    }

    fn flush(&mut self) {
        for set in &mut self.sets {
            set.fill(Line::default());
        }
    }
}

/// `(name, geometry)` for every configuration under test.
fn geometries() -> [(&'static str, CacheConfig); 5] {
    let tiny = CacheConfig {
        size_bytes: 128,
        line_bytes: 16,
        assoc: 2,
        hit_cycles: 1,
    };
    // 6 sets of 3 ways over 48-byte lines: neither count is a power of two.
    let odd = CacheConfig {
        size_bytes: 6 * 3 * 48,
        line_bytes: 48,
        assoc: 3,
        hit_cycles: 1,
    };
    [
        ("nic_l1", CacheConfig::nic_l1()),
        ("host_l1", CacheConfig::host_l1()),
        ("host_l2", CacheConfig::host_l2()),
        ("tiny", tiny),
        ("odd", odd),
    ]
}

/// One step of a random sequence.
#[derive(Clone, Copy, Debug)]
enum Op {
    Read(u64),
    Write(u64),
    Flush,
}

/// Drive both models through `ops` and compare everything after each step.
/// Addresses are line indices scaled into the geometry's footprint, so the
/// working set spans about three times the capacity (conflicts, capacity
/// evictions and re-references all occur), offset within the line.
fn run_both(cfg: CacheConfig, ops: &[Op], probes: &[u64]) -> Result<(), String> {
    let lines = cfg.size_bytes / cfg.line_bytes;
    let addr = |x: u64| (x % (3 * lines)) * cfg.line_bytes + x % cfg.line_bytes;
    let mut fast = Cache::new(cfg);
    let mut reference = RefCache::new(cfg);
    for (step, &op) in ops.iter().enumerate() {
        let (got, want) = match op {
            Op::Read(x) => (
                fast.access(addr(x), false),
                reference.access(addr(x), false),
            ),
            Op::Write(x) => (fast.access(addr(x), true), reference.access(addr(x), true)),
            Op::Flush => {
                fast.flush();
                reference.flush();
                continue;
            }
        };
        if got != want {
            return Err(format!("step {step} ({op:?}): got {got:?}, want {want:?}"));
        }
        let counters = (fast.hits(), fast.misses(), fast.writebacks());
        let want_counters = (reference.hits, reference.misses, reference.writebacks);
        if counters != want_counters {
            return Err(format!(
                "step {step}: counters {counters:?} vs {want_counters:?}"
            ));
        }
        for &p in probes {
            if fast.contains(addr(p)) != reference.contains(addr(p)) {
                return Err(format!("step {step}: contains({:#x}) disagrees", addr(p)));
            }
        }
    }
    Ok(())
}

/// `kind` in `0..21`: one flush in 21 steps, a third of steps write.
fn to_op(kind: u8, x: u64) -> Op {
    match kind {
        0 => Op::Flush,
        1..=13 => Op::Read(x),
        _ => Op::Write(x),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random read/write/flush sequences agree step for step on every
    /// geometry.
    #[test]
    fn matches_reference_model(
        steps in prop::collection::vec((0u8..21, any::<u64>()), 1..400),
        probes in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        let ops: Vec<Op> = steps.into_iter().map(|(k, x)| to_op(k, x)).collect();
        for (name, cfg) in geometries() {
            if let Err(e) = run_both(cfg, &ops, &probes) {
                prop_assert!(false, "{name}: {e}");
            }
        }
    }
}

/// A long deterministic stream per geometry (a queue-walk-like mix of
/// strided sweeps and random touches) — the LRU state deep into a run,
/// not just the first few hundred steps.
#[test]
fn long_mixed_stream_matches_reference_model() {
    for (name, cfg) in geometries() {
        let lines = cfg.size_bytes / cfg.line_bytes;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut ops = Vec::new();
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let target = if x.is_multiple_of(4) {
                x >> 8
            } else {
                i % (lines + lines / 4 + 1)
            };
            ops.push(match x % 1000 {
                0 => Op::Flush,
                1..=300 => Op::Write(target),
                _ => Op::Read(target),
            });
        }
        let probes: Vec<u64> = (0..16).map(|i| i * (lines / 8 + 1)).collect();
        run_both(cfg, &ops, &probes).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}
