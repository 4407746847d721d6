//! Differential test: the closed-form [`CellArray::compact_steps`] against
//! the literal per-cycle compaction rule of §III-B — a top-down scan in
//! which an empty cell absorbs the entry below it when the transfer stays
//! within a block or lands in the lowest cell of the next block ("space
//! available") — over random insert, match-and-delete and k-cycle
//! compaction sequences. Every cell and the compactness verdict must
//! agree after every step, on small geometries and on the fig5 ones.

use mpiq_alpu::{AlpuKind, Cell, CellArray, Entry, MatchWord, Probe};
use proptest::prelude::*;

/// The reference model: the cells as a plain vector, compacted one clock
/// at a time by scanning every cell.
struct RefArray {
    cells: Vec<Cell>,
    block_size: usize,
}

impl RefArray {
    fn new(total: usize, block_size: usize) -> RefArray {
        RefArray {
            cells: vec![None; total],
            block_size,
        }
    }

    fn insert(&mut self, e: Entry) -> bool {
        if self.cells[0].is_some() {
            return false;
        }
        self.cells[0] = Some(e);
        true
    }

    /// Highest-index cell holding an entry with the probe's match word.
    fn find(&self, probe: Probe) -> Option<usize> {
        (0..self.cells.len())
            .rev()
            .find(|&i| self.cells[i].is_some_and(|e| e.word == probe.word))
    }

    fn delete_shift(&mut self, loc: usize) {
        for i in (1..=loc).rev() {
            self.cells[i] = self.cells[i - 1];
        }
        self.cells[0] = None;
    }

    /// One clock: moves are decided against the pre-cycle state, so a
    /// cell that just received an entry is skipped as a source.
    fn step(&mut self) -> bool {
        let mut moved = false;
        let mut i = self.cells.len() - 1;
        while i >= 1 {
            if self.cells[i].is_none() && self.cells[i - 1].is_some() {
                let same_block = i / self.block_size == (i - 1) / self.block_size;
                let block_lowest = i.is_multiple_of(self.block_size);
                if same_block || block_lowest {
                    self.cells[i] = self.cells[i - 1].take();
                    moved = true;
                    i -= 1;
                }
            }
            if i == 0 {
                break;
            }
            i -= 1;
        }
        moved
    }

    /// `k` clocks; stops early at the fixed point, where a clock moves
    /// nothing.
    fn steps(&mut self, k: u64) -> bool {
        let mut moved = false;
        for _ in 0..k {
            if !self.step() {
                break;
            }
            moved = true;
        }
        moved
    }

    fn is_compact(&self) -> bool {
        !(1..self.cells.len()).any(|i| self.cells[i].is_none() && self.cells[i - 1].is_some())
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Insert at cell 0 (skipped by both sides when cell 0 is occupied).
    Insert(u16),
    /// Probe for a tag and delete the winner.
    MatchDelete(u16),
    /// `k` compaction clocks, as a fraction of `2 × capacity` in 1/1024
    /// steps for long stretches, or a short literal count.
    Compact { short: u8, long: u16 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0u16..8).prop_map(Op::Insert),
        2 => (0u16..8).prop_map(Op::MatchDelete),
        4 => (0u8..6, Just(0u16)).prop_map(|(short, long)| Op::Compact { short, long }),
        1 => (Just(0u8), 0u16..=1024).prop_map(|(short, long)| Op::Compact { short, long }),
    ]
}

fn run(total: usize, block: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut fast = CellArray::new(total, block, AlpuKind::PostedReceive);
    let mut reference = RefArray::new(total, block);
    let mut cookie = 0u32;
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Insert(t) => {
                let e = Entry::mpi_recv(1, Some(0), Some(t), cookie);
                cookie += 1;
                prop_assert_eq!(
                    fast.insert(e),
                    reference.insert(e),
                    "insert at step {}",
                    step
                );
            }
            Op::MatchDelete(t) => {
                let probe = Probe::exact(MatchWord::mpi(1, 0, t));
                let loc = fast.match_probe(probe).map(|(loc, _)| loc);
                prop_assert_eq!(loc, reference.find(probe), "match at step {}", step);
                if let Some(loc) = loc {
                    fast.delete_shift(loc);
                    reference.delete_shift(loc);
                }
            }
            Op::Compact { short, long } => {
                let k = u64::from(short) + (2 * total as u64 * u64::from(long)) / 1024;
                prop_assert_eq!(
                    fast.compact_steps(k),
                    reference.steps(k),
                    "moved flag after {} clocks at step {}",
                    k,
                    step
                );
            }
        }
        for i in 0..total {
            prop_assert_eq!(
                fast.cell(i),
                &reference.cells[i],
                "cell {} at step {}",
                i,
                step
            );
        }
        prop_assert_eq!(
            fast.is_compact(),
            reference.is_compact(),
            "compactness at step {}",
            step
        );
        prop_assert_eq!(fast.occupied(), reference.cells.iter().flatten().count());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sixteen_cells_four_per_block(ops in prop::collection::vec(op(), 1..80)) {
        run(16, 4, &ops)?;
    }

    #[test]
    fn sixteen_cells_two_per_block(ops in prop::collection::vec(op(), 1..80)) {
        run(16, 2, &ops)?;
    }

    #[test]
    fn single_block(ops in prop::collection::vec(op(), 1..60)) {
        run(8, 8, &ops)?;
    }
}

proptest! {
    // The fig5 geometries. Longer scripts fill a sparse array with many
    // entries in flight; fewer cases keep the debug run short.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fig5_128_cells(ops in prop::collection::vec(op(), 1..300)) {
        run(128, 16, &ops)?;
    }

    #[test]
    fn fig5_256_cells(ops in prop::collection::vec(op(), 1..400)) {
        run(256, 16, &ops)?;
    }
}
