//! The two-speed core's contract: `Alpu::advance(n)` must be
//! *bit-identical* to calling `tick()` n times — same responses, same
//! surviving entries, same statistics (including cycle and busy-cycle
//! counts) — across arbitrary interleavings of headers, insert sessions
//! (with held-probe retries), resets, response draining, and advances
//! short enough to land mid-compaction or mid-operation. The cell array is
//! compared cell by cell, so an entry in the wrong physical position shows
//! at once rather than when it later delays an insert.

use mpiq_alpu::{Alpu, AlpuConfig, AlpuKind, Command, Entry, MatchWord, Probe};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Step {
    /// An incoming header (tag field selects among a small match space).
    Header(u16),
    /// Processor opens an insert session.
    StartInsert,
    /// Processor inserts an entry.
    Insert(u16),
    /// Processor closes the session (triggers the held-probe final retry).
    StopInsert,
    /// Processor clears the unit.
    Reset,
    /// Processor drains one response (releases result-FIFO backpressure).
    Pop,
    /// Let `n` cycles elapse — small values land mid-op / mid-compaction,
    /// large ones exercise the fast-forward paths.
    Advance(u16),
}

/// `max_advance` bounds one `Advance`; on the fig5 geometries it must
/// exceed a whole migration up the chain.
fn step(max_advance: u16) -> impl Strategy<Value = Step> {
    prop_oneof![
        5 => (0u16..6).prop_map(Step::Header),
        2 => Just(Step::StartInsert),
        4 => (0u16..6).prop_map(Step::Insert),
        2 => Just(Step::StopInsert),
        1 => Just(Step::Reset),
        3 => Just(Step::Pop),
        6 => (0u16..max_advance).prop_map(Step::Advance),
    ]
}

/// Compare every externally observable piece of state, plus the full
/// statistics block (so elided cycles must be accounted identically).
fn assert_same(fast: &Alpu, slow: &Alpu, step: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.state(), slow.state(), "state diverged at step {}", step);
    prop_assert_eq!(
        fast.occupied(),
        slow.occupied(),
        "occupancy diverged at step {}",
        step
    );
    prop_assert_eq!(fast.free(), slow.free(), "free diverged at step {}", step);
    prop_assert_eq!(
        fast.responses_pending(),
        slow.responses_pending(),
        "response queue diverged at step {}",
        step
    );
    prop_assert_eq!(
        fast.headers_pending(),
        slow.headers_pending(),
        "header queue diverged at step {}",
        step
    );
    prop_assert_eq!(
        fast.commands_pending(),
        slow.commands_pending(),
        "command queue diverged at step {}",
        step
    );
    prop_assert_eq!(fast.stats(), slow.stats(), "stats diverged at step {}", step);
    let (fa, sa) = (fast.array(), slow.array());
    for i in 0..fa.capacity() {
        prop_assert_eq!(
            fa.cell(i),
            sa.cell(i),
            "cell {} diverged at step {}",
            i,
            step
        );
    }
    prop_assert_eq!(
        fa.is_compact(),
        sa.is_compact(),
        "compactness diverged at step {}",
        step
    );
    Ok(())
}

fn run(total: usize, block: usize, result_depth: usize, script: Vec<Step>) -> Result<(), TestCaseError> {
    let mut cfg = AlpuConfig::new(total, block, AlpuKind::PostedReceive);
    // A shallow result FIFO makes flow-control freezes reachable.
    cfg.result_fifo_depth = result_depth;
    let mut fast = Alpu::new(cfg);
    let mut slow = fast.clone();
    let mut cookie = 0u32;

    for (i, s) in script.into_iter().enumerate() {
        match s {
            Step::Header(t) => {
                let p = Probe::exact(MatchWord::mpi(1, 0, t));
                prop_assert_eq!(fast.push_header(p), slow.push_header(p));
            }
            Step::StartInsert => {
                prop_assert_eq!(
                    fast.push_command(Command::StartInsert),
                    slow.push_command(Command::StartInsert)
                );
            }
            Step::Insert(t) => {
                let e = Entry::mpi_recv(1, Some(0), Some(t), cookie);
                cookie += 1;
                prop_assert_eq!(
                    fast.push_command(Command::Insert(e)),
                    slow.push_command(Command::Insert(e))
                );
            }
            Step::StopInsert => {
                prop_assert_eq!(
                    fast.push_command(Command::StopInsert),
                    slow.push_command(Command::StopInsert)
                );
            }
            Step::Reset => {
                prop_assert_eq!(
                    fast.push_command(Command::Reset),
                    slow.push_command(Command::Reset)
                );
            }
            Step::Pop => {
                prop_assert_eq!(fast.pop_response(), slow.pop_response());
            }
            Step::Advance(n) => {
                fast.advance(n as u64);
                for _ in 0..n {
                    slow.tick();
                }
            }
        }
        assert_same(&fast, &slow, i)?;
    }

    // Long tail: fast-forward a large quiescent-ish stretch both ways.
    fast.advance(10_000);
    for _ in 0..10_000 {
        slow.tick();
    }
    assert_same(&fast, &slow, usize::MAX)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn advance_equals_ticks(script in prop::collection::vec(step(96), 1..60)) {
        run(16, 4, 4096, script)?;
    }

    /// Shallow result FIFO: backpressure freezes are common, so the
    /// frozen fast-forward path must stay tick-identical.
    #[test]
    fn advance_equals_ticks_under_backpressure(script in prop::collection::vec(step(96), 1..60)) {
        run(16, 4, 2, script)?;
    }

    /// Single-block geometry (deepest per-block mux tree).
    #[test]
    fn advance_equals_ticks_single_block(script in prop::collection::vec(step(96), 1..50)) {
        run(8, 8, 4096, script)?;
    }

    /// Two-cell blocks: compaction crosses many block boundaries, keeping
    /// holes in flight longer.
    #[test]
    fn advance_equals_ticks_tiny_blocks(script in prop::collection::vec(step(96), 1..50)) {
        run(16, 2, 3, script)?;
    }
}

proptest! {
    // The fig5 geometries: advances up to twice the chain length span
    // whole hole migrations inside one fast-forward.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn advance_equals_ticks_fig5_128(script in prop::collection::vec(step(256), 1..80)) {
        run(128, 16, 4096, script)?;
    }

    #[test]
    fn advance_equals_ticks_fig5_256(script in prop::collection::vec(step(512), 1..80)) {
        run(256, 16, 4, script)?;
    }
}
