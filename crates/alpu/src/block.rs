//! Cell blocks and the chained cell array (§III-B, Fig. 2c).
//!
//! Physical picture: cells form one long shift chain. New entries are
//! inserted at cell 0 (the paper's "left") and data progresses toward
//! higher indices (the paper's "right"); the highest-index matching cell is
//! therefore the *oldest* posted entry and wins prioritization, which is
//! exactly MPI's first-match rule.
//!
//! The chain is partitioned into power-of-two blocks. Each block selects
//! its local winner through a binary tree of 2-to-1 muxes (modeled
//! literally in [`priority_select`]), then the same tree shape runs across
//! block winners. The tree depth sets the pipeline latency (see
//! [`crate::timing`]).
//!
//! Holes left by unevenly timed inserts migrate up one cell per cycle.
//! The paper lets a transfer cross a block boundary only into the lowest
//! cell of the next block ("space available"), but a one-cell move across
//! a boundary always lands in that lowest cell, so the rule never blocks
//! a move and blocks play no part in compaction. What is left is the
//! rule-184 automaton: an entry moves up one cell iff the cell above it
//! was empty before the clock. That has a closed form (see
//! [`CellArray::compact_steps`]), so k cycles cost one pass over the
//! entries still below the packed top run, whatever k and the capacity.
//! Deletion is different: the match location is broadcast to all blocks
//! and every cell at or below it shifts up in a single cycle, so deletes
//! never create holes.

use crate::cell::{cell_matches, Cell};
use crate::engine::AlpuKind;
use crate::match_types::{Entry, MatchWord, Probe, Tag, MATCH_WIDTH};

/// A binary 2-to-1 priority-mux tree over `matched` flags, returning the
/// highest matching index and its tag — the hardware structure of
/// Fig. 2(c), where "the highest order cell (furthest to the right) is the
/// highest priority" and the match bits get encoded, level by level, into
/// the match location.
///
/// `matched.len()` must be a power of two (hardware pads blocks).
pub fn priority_select(matched: &[bool], tags: &[Tag]) -> Option<(usize, Tag)> {
    assert_eq!(matched.len(), tags.len());
    assert!(matched.len().is_power_of_two(), "mux tree needs 2^N inputs");
    // Each tree node carries (any_match, encoded_location, tag).
    let mut level: Vec<(bool, usize, Tag)> = matched
        .iter()
        .zip(tags)
        .map(|(&m, &t)| (m, 0usize, t))
        .collect();
    let mut bit = 0usize;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len() / 2);
        for pair in level.chunks_exact(2) {
            let (lo, hi) = (pair[0], pair[1]);
            // The higher-order input wins; its presence is encoded into
            // this level's bit of the match location.
            let sel_hi = hi.0;
            let m = lo.0 || hi.0;
            let (loc, tag) = if sel_hi {
                (hi.1 | (1 << bit), hi.2)
            } else {
                (lo.1, lo.2)
            };
            next.push((m, loc, tag));
        }
        level = next;
        bit += 1;
    }
    let (m, loc, tag) = level[0];
    m.then_some((loc, tag))
}

/// The chained cell array of one ALPU: `total` cells in blocks of
/// `block_size`.
#[derive(Clone, Debug)]
pub struct CellArray {
    cells: Vec<Cell>,
    block_size: usize,
    kind: AlpuKind,
    /// Length of the packed run at the top of the chain: entries
    /// `0..packed` (0 = topmost) sit in cells `n-1` down to `n-packed`
    /// and can never move again.
    packed: usize,
    /// Cell indices of the entries below the packed run, topmost first
    /// (strictly decreasing). The array is compact iff this is empty.
    /// Every mutation keeps it exact (checked against the cells in debug
    /// builds).
    mobile: Vec<usize>,
    /// Scratch for [`CellArray::compact_steps`]: the sliding-window
    /// minimum as `(entry index, key)` pairs, reused across calls.
    window: Vec<(usize, usize)>,
}

impl CellArray {
    /// Build an empty array. `total` and `block_size` must be powers of
    /// two with `block_size <= total`.
    pub fn new(total: usize, block_size: usize, kind: AlpuKind) -> CellArray {
        assert!(total.is_power_of_two(), "total cells must be a power of 2");
        assert!(
            block_size.is_power_of_two(),
            "block size must be a power of 2 (§III-B)"
        );
        assert!(block_size <= total, "block larger than array");
        CellArray {
            cells: vec![None; total],
            block_size,
            kind,
            packed: 0,
            mobile: Vec::new(),
            window: Vec::new(),
        }
    }

    /// Total number of cells.
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Cells per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of blocks in the chain.
    pub fn num_blocks(&self) -> usize {
        self.cells.len() / self.block_size
    }

    /// Number of valid entries (O(1): packed run plus mobile entries).
    pub fn occupied(&self) -> usize {
        self.packed + self.mobile.len()
    }

    /// Number of free cells.
    pub fn free(&self) -> usize {
        self.capacity() - self.occupied()
    }

    /// Kind (posted-receive or unexpected variant).
    pub fn kind(&self) -> AlpuKind {
        self.kind
    }

    /// Combinational match: returns `(cell index, tag)` of the oldest
    /// (highest-index) matching valid cell.
    ///
    /// The hardware computes this through per-block priority-mux trees
    /// followed by an inter-block tree — modeled literally in
    /// [`CellArray::match_probe_mux`]. Because each tree level always
    /// selects its higher-order input, the composed trees reduce to
    /// "highest matching index wins", which this hot path computes with
    /// a single allocation-free descending scan. The two paths are
    /// asserted identical in debug builds and in the unit tests.
    pub fn match_probe(&self, probe: Probe) -> Option<(usize, Tag)> {
        let result = if self.occupied() == 0 {
            None
        } else {
            self.cells.iter().enumerate().rev().find_map(|(i, c)| {
                c.as_ref()
                    .filter(|e| cell_matches(self.kind, e, probe))
                    .map(|e| (i, e.tag))
            })
        };
        debug_assert_eq!(
            result,
            self.match_probe_mux(probe),
            "scan shortcut diverged from the mux-tree model"
        );
        result
    }

    /// The hardware-literal match path: per-block priority trees, then
    /// the inter-block tree (Fig. 2c). Allocates per level; used as the
    /// reference model for [`CellArray::match_probe`].
    pub fn match_probe_mux(&self, probe: Probe) -> Option<(usize, Tag)> {
        let bs = self.block_size;
        let nblocks = self.num_blocks();
        // Per-block winners.
        let mut block_match = vec![false; nblocks];
        let mut block_loc = vec![0usize; nblocks];
        let mut block_tag = vec![0 as Tag; nblocks];
        for b in 0..nblocks {
            let base = b * bs;
            let matched: Vec<bool> = (0..bs)
                .map(|i| {
                    self.cells[base + i]
                        .as_ref()
                        .is_some_and(|e| cell_matches(self.kind, e, probe))
                })
                .collect();
            let tags: Vec<Tag> = (0..bs)
                .map(|i| self.cells[base + i].map(|e| e.tag).unwrap_or(0))
                .collect();
            if let Some((loc, tag)) = priority_select(&matched, &tags) {
                block_match[b] = true;
                block_loc[b] = loc;
                block_tag[b] = tag;
            }
        }
        // Inter-block tree (block counts are powers of two by construction).
        let (winner_block, tag) = priority_select(&block_match, &block_tag)?;
        Some((winner_block * bs + block_loc[winner_block], tag))
    }

    /// Single-cycle delete-with-shift: the match location is broadcast to
    /// all blocks; cells at and below `loc` shift up one position, and
    /// cell 0 becomes empty. Order among survivors is preserved and no
    /// hole is created, so no entry joins or leaves the packed run except
    /// the deleted one (which may be the last mobile entry).
    pub fn delete_shift(&mut self, loc: usize) {
        assert!(loc < self.cells.len());
        assert!(self.cells[loc].is_some(), "deleting an invalid cell");
        for i in (1..=loc).rev() {
            self.cells[i] = self.cells[i - 1];
        }
        self.cells[0] = None;
        let below = self.mobile.partition_point(|&x| x > loc);
        if self.mobile.get(below) == Some(&loc) {
            self.mobile.remove(below);
        } else {
            self.packed -= 1;
        }
        for x in &mut self.mobile[below..] {
            *x += 1;
        }
        self.debug_check_layout();
    }

    /// Insert a new entry at cell 0. Fails if cell 0 is still occupied
    /// (compaction hasn't caught up) — the engine's flow control prevents
    /// this in normal operation by honoring the advertised free count.
    pub fn insert(&mut self, e: Entry) -> bool {
        if self.cells[0].is_some() {
            return false;
        }
        self.cells[0] = Some(e);
        // The new entry is packed only if it completes a full array.
        if self.mobile.is_empty() && self.packed + 1 == self.cells.len() {
            self.packed += 1;
        } else {
            self.mobile.push(0);
        }
        self.debug_check_layout();
        true
    }

    /// `k` clocks of hole compaction in one step, identical to `k`
    /// single cycles. Returns whether any data moved, which is whenever
    /// `k > 0` and the array is not compact: the topmost mobile entry
    /// always has an empty cell above it.
    ///
    /// Each clock, every entry whose upper neighbor cell was empty before
    /// the clock moves up one cell. With entries numbered from the top
    /// (`j = 0` topmost) at cells `x_j`, entry `j` moves iff
    /// `x_{j-1} > x_j + 1`, so `x_j' = min(x_j + 1, x_{j-1} - 1)`, and the
    /// top cell `n-1` acts as a fixed entry at `n`. Unrolling that
    /// min-plus recurrence over `k` clocks gives
    ///
    /// `x_j(k) = min(n-1-j, k - 2j + min{x_m + 2m : j-k <= m <= j})`.
    ///
    /// Packed entries (`x_m = n-1-m`) never beat the `n-1-j` term inside
    /// that window, so only mobile entries enter the minimum: one pass
    /// over them with a monotonic sliding-window minimum, moving each
    /// entry top first into a cell its upper neighbor has already left.
    /// The cost is O(mobile entries), whatever `k` and the capacity.
    pub fn compact_steps(&mut self, k: u64) -> bool {
        if k == 0 || self.mobile.is_empty() {
            return false;
        }
        let n = self.cells.len();
        // After n clocks every entry is packed (the window then holds
        // m = 0..=j, and x_m + 2m >= j + m), so larger k change nothing.
        let k = k.min(n as u64) as usize;
        self.window.clear();
        let mut head = 0;
        let mut joined = 0;
        for (i, x) in self.mobile.iter_mut().enumerate() {
            let j = self.packed + i;
            let key = *x + 2 * j;
            while self.window.len() > head && self.window[self.window.len() - 1].1 >= key {
                self.window.pop();
            }
            self.window.push((j, key));
            while self.window[head].0 + k < j {
                head += 1;
            }
            let to = (k + self.window[head].1 - 2 * j).min(n - 1 - j);
            if to != *x {
                self.cells[to] = self.cells[*x].take();
                *x = to;
            }
            if joined == i && to == n - 1 - j {
                joined += 1;
            }
        }
        self.packed += joined;
        self.mobile.drain(..joined);
        self.debug_check_layout();
        true
    }

    /// True when no hole separates occupied cells (all data packed at the
    /// top of the chain). O(1): no entry lies below the packed run.
    pub fn is_compact(&self) -> bool {
        self.mobile.is_empty()
    }

    /// Debug builds: the packed run and the mobile list describe exactly
    /// the valid bits of the cells.
    fn debug_check_layout(&self) {
        if cfg!(debug_assertions) {
            let n = self.cells.len();
            let valid: Vec<usize> = (0..n).rev().filter(|&i| self.cells[i].is_some()).collect();
            let packed = valid
                .iter()
                .enumerate()
                .take_while(|&(j, &x)| x == n - 1 - j)
                .count();
            assert_eq!(packed, self.packed, "packed run out of sync with the cells");
            assert_eq!(
                &valid[packed..],
                &self.mobile[..],
                "mobile list out of sync with the cells"
            );
        }
    }

    /// Clear all valid bits (RESET).
    pub fn reset(&mut self) {
        for c in &mut self.cells {
            *c = None;
        }
        self.packed = 0;
        self.mobile.clear();
    }

    /// Fault injection: flip one bit of a stored match word. `sel` picks
    /// among the occupied cells (reduced modulo occupancy, oldest first)
    /// and `bit` picks the bit (reduced modulo the match width). Only the
    /// match *value* is disturbed — validity bits are untouched, so the
    /// occupancy and compactness invariants still hold; what breaks is the
    /// match outcome, which is exactly what a parity check over the cell
    /// state exists to catch. Returns `false` on an empty array (nothing
    /// to corrupt).
    pub fn flip_word_bit(&mut self, sel: u64, bit: u32) -> bool {
        let len = self.occupied();
        if len == 0 {
            return false;
        }
        let nth = (sel % len as u64) as usize;
        let idx = self
            .cells
            .iter()
            .enumerate()
            .rev()
            .filter(|(_, c)| c.is_some())
            .nth(nth)
            .map(|(i, _)| i)
            .expect("nth < len occupied cells");
        let e = self.cells[idx].as_mut().expect("selected an occupied cell");
        e.word = MatchWord(e.word.0 ^ (1u64 << (bit % MATCH_WIDTH)));
        true
    }

    /// Entries in priority order (oldest first) — for equivalence checks
    /// against [`crate::golden::GoldenList`].
    pub fn entries_oldest_first(&self) -> Vec<Entry> {
        self.cells.iter().rev().filter_map(|c| *c).collect()
    }

    /// Raw view of a cell (diagnostics, examples).
    pub fn cell(&self, i: usize) -> &Cell {
        &self.cells[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::match_types::MatchWord;

    fn arr(total: usize, block: usize) -> CellArray {
        CellArray::new(total, block, AlpuKind::PostedReceive)
    }

    fn recv(tagv: u16, cookie: Tag) -> Entry {
        Entry::mpi_recv(1, Some(0), Some(tagv), cookie)
    }

    fn probe(tagv: u16) -> Probe {
        Probe::exact(MatchWord::mpi(1, 0, tagv))
    }

    /// Fill the array compactly with `n` entries, oldest = cookie 0.
    fn fill(a: &mut CellArray, n: usize) {
        for i in 0..n {
            assert!(a.insert(recv(i as u16, i as Tag)));
            while a.compact_steps(1) {}
        }
    }

    #[test]
    fn priority_select_matches_linear_scan() {
        // Exhaustive over all 2^6 match patterns of a 6-cell... sizes must
        // be powers of two; use 8 cells and all 256 patterns.
        for pat in 0u32..256 {
            let matched: Vec<bool> = (0..8).map(|i| pat & (1 << i) != 0).collect();
            let tags: Vec<Tag> = (0..8).map(|i| 100 + i as Tag).collect();
            let want = (0..8).rev().find(|&i| matched[i]).map(|i| (i, tags[i]));
            assert_eq!(priority_select(&matched, &tags), want, "pattern {pat:08b}");
        }
    }

    #[test]
    fn oldest_entry_wins_across_blocks() {
        let mut a = arr(16, 4);
        fill(&mut a, 10);
        // Every entry has a distinct tag value; probe for two of them.
        assert_eq!(a.match_probe(probe(0)).map(|(_, t)| t), Some(0));
        assert_eq!(a.match_probe(probe(7)).map(|(_, t)| t), Some(7));
        assert_eq!(a.match_probe(probe(12)), None);
    }

    #[test]
    fn duplicate_matches_resolve_to_oldest() {
        let mut a = arr(16, 4);
        // Three identical receives, cookies 0,1,2 in post order.
        for c in 0..3 {
            assert!(a.insert(recv(5, c)));
            while a.compact_steps(1) {}
        }
        let (loc, tag) = a.match_probe(probe(5)).unwrap();
        assert_eq!(tag, 0, "oldest must win");
        a.delete_shift(loc);
        assert_eq!(a.match_probe(probe(5)).map(|(_, t)| t), Some(1));
    }

    #[test]
    fn delete_shift_preserves_order_and_creates_no_hole() {
        let mut a = arr(16, 4);
        fill(&mut a, 8);
        let (loc, _) = a.match_probe(probe(3)).unwrap();
        a.delete_shift(loc);
        assert!(a.is_compact());
        let tags: Vec<Tag> = a.entries_oldest_first().iter().map(|e| e.tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 4, 5, 6, 7]);
    }

    #[test]
    fn insert_requires_cell_zero_free() {
        let mut a = arr(4, 2);
        assert!(a.insert(recv(0, 0)));
        // No compaction step yet: cell 0 still occupied.
        assert!(!a.insert(recv(1, 1)));
        a.compact_steps(1);
        assert!(a.insert(recv(1, 1)));
    }

    #[test]
    fn hole_migrates_one_cell_per_cycle_within_block() {
        let mut a = arr(8, 8);
        fill(&mut a, 3); // occupy cells 7,6,5
        // Delete the middle one... via match+delete of cookie 1 (cell 6).
        let (loc, _) = a.match_probe(probe(1)).unwrap();
        a.delete_shift(loc); // survivors shift; still compact
        assert!(a.is_compact());
        // Now insert without compaction catching up: hole between data.
        assert!(a.insert(recv(9, 9)));
        // cells: [9, _, _, _, _, _, 2?, 0?] — entry 9 at bottom, others top.
        let mut steps = 0;
        while !a.is_compact() {
            assert!(a.compact_steps(1));
            steps += 1;
            assert!(steps < 16, "compaction did not converge");
        }
        // Entry 9 had to travel from cell 0 to cell 5: 5 steps.
        assert_eq!(steps, 5);
        let tags: Vec<Tag> = a.entries_oldest_first().iter().map(|e| e.tag).collect();
        assert_eq!(tags, vec![0, 2, 9]);
    }

    #[test]
    fn compaction_crosses_block_boundary_via_lowest_cell() {
        let mut a = arr(8, 4); // blocks: cells 0-3, 4-7
        fill(&mut a, 2); // cells 7, 6 occupied
        a.insert(recv(1, 1));
        // Entry must migrate from cell 0 (block 0) into block 1.
        let mut steps = 0;
        while !a.is_compact() {
            a.compact_steps(1);
            steps += 1;
            assert!(steps < 16);
        }
        assert_eq!(a.entries_oldest_first().len(), 3);
        // It traveled 0 -> 5 (5 steps), crossing the boundary at cell 4.
        assert_eq!(steps, 5);
    }

    #[test]
    fn reset_clears_everything() {
        let mut a = arr(8, 4);
        fill(&mut a, 5);
        a.reset();
        assert_eq!(a.occupied(), 0);
        assert!(a.is_compact());
        assert_eq!(a.match_probe(probe(0)), None);
    }

    #[test]
    fn wildcard_entries_match_any_source() {
        let mut a = CellArray::new(8, 4, AlpuKind::PostedReceive);
        a.insert(Entry::mpi_recv(2, None, Some(3), 42));
        while a.compact_steps(1) {}
        let p = Probe::exact(MatchWord::mpi(2, 777, 3));
        assert_eq!(a.match_probe(p).map(|(_, t)| t), Some(42));
    }

    #[test]
    fn unexpected_array_reverse_lookup() {
        let mut a = CellArray::new(8, 4, AlpuKind::Unexpected);
        a.insert(Entry::mpi_header(2, 10, 3, 7));
        while a.compact_steps(1) {}
        assert_eq!(
            a.match_probe(Probe::recv(2, None, Some(3))).map(|(_, t)| t),
            Some(7)
        );
        assert_eq!(a.match_probe(Probe::recv(2, Some(11), Some(3))), None);
    }

    #[test]
    #[should_panic(expected = "power of 2")]
    fn non_power_of_two_block_rejected() {
        CellArray::new(16, 3, AlpuKind::PostedReceive);
    }
}
