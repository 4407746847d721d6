//! Property tests on the cell array itself: under arbitrary interleavings
//! of inserts, compaction cycles, and match-deletes, the physical shift
//! chain must behave exactly like an ordered list — no lost entries, no
//! duplicates, no reordering — and compaction must converge.

use mpiq_alpu::{AlpuKind, CellArray, Entry, MatchWord, Probe};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum ArrayOp {
    /// Try to insert (skipped when cell 0 is occupied, like hardware flow
    /// control would).
    Insert { tag_field: u16 },
    /// Run `n` compaction cycles.
    Compact { n: u8 },
    /// Probe-and-delete.
    MatchDelete { tag_field: u16 },
}

fn op() -> impl Strategy<Value = ArrayOp> {
    prop_oneof![
        4 => (0u16..6).prop_map(|tag_field| ArrayOp::Insert { tag_field }),
        3 => (0u8..8).prop_map(|n| ArrayOp::Compact { n }),
        3 => (0u16..6).prop_map(|tag_field| ArrayOp::MatchDelete { tag_field }),
    ]
}

fn run(total: usize, block: usize, ops: Vec<ArrayOp>) -> Result<(), TestCaseError> {
    let mut arr = CellArray::new(total, block, AlpuKind::PostedReceive);
    // Reference: ordered list, oldest first.
    let mut model: Vec<Entry> = Vec::new();
    let mut cookie = 0u32;

    for op in ops {
        match op {
            ArrayOp::Insert { tag_field } => {
                let e = Entry::mpi_recv(1, Some(0), Some(tag_field), cookie);
                if model.len() < total && arr.insert(e) {
                    model.push(e);
                    cookie += 1;
                }
            }
            ArrayOp::Compact { n } => {
                for _ in 0..n {
                    arr.compact_steps(1);
                }
            }
            ArrayOp::MatchDelete { tag_field } => {
                let probe = Probe::exact(MatchWord::mpi(1, 0, tag_field));
                let hw = arr.match_probe(probe);
                let sw = model
                    .iter()
                    .position(|e| e.word == probe.word)
                    .map(|i| model[i].tag);
                prop_assert_eq!(hw.map(|(_, t)| t), sw, "winners diverge");
                if let Some((loc, _)) = hw {
                    arr.delete_shift(loc);
                    let i = model
                        .iter()
                        .position(|e| e.word == probe.word)
                        .expect("sw matched");
                    model.remove(i);
                }
            }
        }
        // Invariants after every op.
        prop_assert_eq!(arr.occupied(), model.len(), "occupancy diverged");
        let entries = arr.entries_oldest_first();
        prop_assert_eq!(entries.as_slice(), model.as_slice(), "order diverged");
    }

    // Compaction converges and is idempotent at the fixed point.
    let mut guard = 0;
    while arr.compact_steps(1) {
        guard += 1;
        prop_assert!(guard <= total * total, "compaction did not converge");
    }
    prop_assert!(arr.is_compact());
    prop_assert!(!arr.compact_steps(1), "fixed point must be stable");
    let entries = arr.entries_oldest_first();
    prop_assert_eq!(entries.as_slice(), model.as_slice());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn shift_chain_behaves_like_ordered_list(ops in prop::collection::vec(op(), 1..80)) {
        run(16, 4, ops)?;
    }

    #[test]
    fn single_block_geometry(ops in prop::collection::vec(op(), 1..60)) {
        run(8, 8, ops)?;
    }

    #[test]
    fn two_cell_blocks(ops in prop::collection::vec(op(), 1..60)) {
        run(16, 2, ops)?;
    }
}
