//! A set-associative, write-back, write-allocate cache with true-LRU
//! replacement.
//!
//! The model is tag-only: it answers "hit or miss, and did we evict a dirty
//! line" and keeps hit/miss statistics. Latency numbers live in the
//! processor model (`mpiq-cpusim`'s load-to-use) and in
//! [`crate::hierarchy::MemSystem`], which charges DRAM time on misses.

/// Geometry and identity of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line (block) size in bytes.
    pub line_bytes: u64,
    /// Associativity (ways per set). Use `size/line` for fully associative.
    pub assoc: u64,
    /// Load-to-use latency in core cycles on a hit.
    pub hit_cycles: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines.is_multiple_of(self.assoc),
            "cache lines ({lines}) not divisible by associativity ({})",
            self.assoc
        );
        lines / self.assoc
    }

    /// NIC processor L1 from Table III: 32 KB, 64-way, 64 B lines.
    ///
    /// The unusual 64-way associativity is straight from the paper; it makes
    /// the L1 behave nearly fully-associatively so the queue-traversal knee
    /// tracks *capacity*, not conflicts.
    pub fn nic_l1() -> CacheConfig {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            assoc: 64,
            hit_cycles: 2,
        }
    }

    /// Host CPU L1 from Table III: 64 KB, 2-way, 64 B lines.
    pub fn host_l1() -> CacheConfig {
        CacheConfig {
            size_bytes: 64 * 1024,
            line_bytes: 64,
            assoc: 2,
            hit_cycles: 2,
        }
    }

    /// Host CPU L2 from Table III: 512 KB (8-way, 64 B lines assumed).
    pub fn host_l2() -> CacheConfig {
        CacheConfig {
            size_bytes: 512 * 1024,
            line_bytes: 64,
            assoc: 8,
            hit_cycles: 10,
        }
    }
}

/// Result of one cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// Base address of a dirty line written back to make room, if any.
    pub writeback: Option<u64>,
}

/// One cache level, stored as flat structure-of-arrays: way `w` of set
/// `s` lives at index `s * assoc + w` of `keys`, `stamps` and `dirty`, so
/// a set's tags are one contiguous run.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    assoc: usize,
    sets: u64,
    /// `(log2 line_bytes, log2 sets)` when both are powers of two, so
    /// indexing is a shift and a mask instead of two divisions.
    shifts: Option<(u32, u32)>,
    /// Per-way tag key: `tag + 1` for a valid line, `0` for an invalid one.
    keys: Vec<u64>,
    /// Per-way use stamp: the access tick of the last touch, `0` for an
    /// invalid line. Valid stamps are unique and `>= 1`, so the first
    /// minimum in a set is its first invalid way, else its true-LRU way.
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    tick: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Cache {
    /// Build an empty (all-invalid) cache.
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets();
        assert!(
            cfg.line_bytes * sets > 1,
            "a one-set cache of 1-byte lines cannot encode every tag"
        );
        let shifts = (cfg.line_bytes.is_power_of_two() && sets.is_power_of_two())
            .then(|| (cfg.line_bytes.trailing_zeros(), sets.trailing_zeros()));
        let ways = (sets * cfg.assoc) as usize;
        Cache {
            cfg,
            assoc: cfg.assoc as usize,
            sets,
            shifts,
            keys: vec![0; ways],
            stamps: vec![0; ways],
            dirty: vec![false; ways],
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// `(first way index of the set, tag key)` for `addr`.
    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        let (set, tag) = match self.shifts {
            Some((line_shift, set_shift)) => {
                let line = addr >> line_shift;
                (line & (self.sets - 1), line >> set_shift)
            }
            None => {
                let line = addr / self.cfg.line_bytes;
                (line % self.sets, line / self.sets)
            }
        };
        (set as usize * self.assoc, tag + 1)
    }

    /// Access one address. Write accesses mark the line dirty
    /// (write-allocate: a write miss fetches the line first).
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        self.tick += 1;
        let (base, key) = self.index(addr);
        let ways = base..base + self.assoc;

        // One pass finds the line or, failing that, the victim: the first
        // minimum stamp — an invalid way if one exists, else true LRU.
        let mut i = base;
        let mut oldest = u64::MAX;
        for (w, (&k, &stamp)) in self.keys[ways.clone()]
            .iter()
            .zip(&self.stamps[ways])
            .enumerate()
        {
            if k == key {
                self.stamps[base + w] = self.tick;
                self.dirty[base + w] |= is_write;
                self.hits += 1;
                return CacheOutcome {
                    hit: true,
                    writeback: None,
                };
            }
            if stamp < oldest {
                oldest = stamp;
                i = base + w;
            }
        }

        self.misses += 1;
        let old = self.keys[i];
        let writeback = if old != 0 && self.dirty[i] {
            self.writebacks += 1;
            // Reconstruct the victim's base address from tag + set index.
            let set = (base / self.assoc) as u64;
            Some(((old - 1) * self.sets + set) * self.cfg.line_bytes)
        } else {
            None
        };
        self.keys[i] = key;
        self.stamps[i] = self.tick;
        self.dirty[i] = is_write;
        CacheOutcome {
            hit: false,
            writeback,
        }
    }

    /// Probe without touching replacement state or statistics.
    pub fn contains(&self, addr: u64) -> bool {
        let (base, key) = self.index(addr);
        self.keys[base..base + self.assoc].contains(&key)
    }

    /// Invalidate everything (e.g. between measurement phases, or on RESET).
    pub fn flush(&mut self) {
        self.keys.fill(0);
        self.stamps.fill(0);
        self.dirty.fill(false);
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Reset statistics but keep cache contents (warm-cache measurement).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 16B lines = 128 B.
        Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 16,
            assoc: 2,
            hit_cycles: 1,
        })
    }

    #[test]
    fn geometry() {
        assert_eq!(tiny().config().sets(), 4);
        assert_eq!(CacheConfig::nic_l1().sets(), 8);
        assert_eq!(CacheConfig::host_l1().sets(), 512);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x40, false).hit);
        assert!(c.access(0x40, false).hit);
        assert!(c.access(0x4F, false).hit, "same line, different offset");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds lines with addr % (4*16) == 0: 0x000, 0x040, 0x080...
        c.access(0x000, false);
        c.access(0x040, false);
        c.access(0x000, false); // touch 0x000 so 0x040 is LRU
        c.access(0x080, false); // evicts 0x040
        assert!(c.contains(0x000));
        assert!(!c.contains(0x040));
        assert!(c.contains(0x080));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = tiny();
        c.access(0x000, true); // dirty
        c.access(0x040, false);
        let out = c.access(0x080, false); // evicts dirty 0x000
        assert_eq!(out.writeback, Some(0x000));
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x040, false);
        let out = c.access(0x080, false);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x000, true); // now dirty via write hit
        c.access(0x040, false);
        let out = c.access(0x080, false);
        assert_eq!(out.writeback, Some(0x000));
    }

    #[test]
    fn working_set_within_capacity_never_misses_after_warmup() {
        let mut c = Cache::new(CacheConfig::nic_l1());
        let lines = 32 * 1024 / 64;
        for i in 0..lines {
            c.access(i * 64, false);
        }
        c.reset_stats();
        for _ in 0..3 {
            for i in 0..lines {
                assert!(c.access(i * 64, false).hit);
            }
        }
        assert_eq!(c.misses(), 0);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_with_lru_streaming() {
        // Classic LRU pathology: streaming over capacity+1 lines in a
        // fully-associative LRU cache misses every time.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 1024,
            line_bytes: 64,
            assoc: 16, // fully associative: 16 lines, 1 set
            hit_cycles: 1,
        });
        let lines = 17;
        for round in 0..4 {
            for i in 0..lines {
                let out = c.access(i * 64, false);
                if round > 0 {
                    assert!(!out.hit, "streaming over capacity must thrash LRU");
                }
            }
        }
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0x0, true);
        c.flush();
        assert!(!c.contains(0x0));
        assert!(!c.access(0x0, false).hit);
        // Flushed dirty lines do not write back on next eviction.
        assert_eq!(c.writebacks(), 0);
    }
}
