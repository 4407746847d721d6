//! A minimal reusable scoped worker pool.
//!
//! The partitioned DES executor advances simulation time in short global
//! windows — often microseconds of wall-clock work each — so spawning a
//! thread per window would drown the speedup in `clone(2)` calls. This
//! pool spawns its workers **once** per run inside a
//! [`std::thread::scope`] (so borrowed, non-`'static` work closures are
//! fine) and then broadcasts one `u64` work plan per round through a
//! [`Barrier`]-synchronized [`AtomicU64`].
//!
//! Protocol per round, driven by the caller's `drive` closure:
//!
//! 1. the driver stores the plan and hits the start barrier (releasing
//!    the workers),
//! 2. every worker (and the driver itself, which doubles as worker 0)
//!    executes `work(worker_index, plan)`,
//! 3. everyone meets at the end barrier; the driver now owns the results
//!    exclusively and can plan the next round.
//!
//! A plan of [`SHUTDOWN`] ends the workers' loops; [`Broadcast::step`]
//! issues it automatically when `drive` returns.
//!
//! Caveat: like any barrier protocol, a panic inside `work` on one
//! thread leaves the others parked at the barrier. The executor treats
//! worker panics as fatal (they indicate a simulation bug), so the
//! process aborts via the propagated panic once the scope unwinds — do
//! not rely on catching panics across a `step`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

/// Plan value that tells workers to exit their loop.
pub const SHUTDOWN: u64 = u64::MAX;

/// The broadcast channel between the driver and the workers.
pub struct Broadcast {
    /// The start and end barriers of a round; `None` when the driver is
    /// the only party, so a lone driver never pays for a barrier wait.
    barriers: Option<(Barrier, Barrier)>,
    plan: AtomicU64,
}

impl Broadcast {
    fn new(parties: usize) -> Broadcast {
        Broadcast {
            barriers: (parties > 1).then(|| (Barrier::new(parties), Barrier::new(parties))),
            plan: AtomicU64::new(SHUTDOWN),
        }
    }

    /// Run one round: broadcast `plan` to all workers, run `local` as
    /// this thread's share of the round (the driver doubles as worker 0),
    /// and return once every worker has finished the round.
    pub fn step(&self, plan: u64, local: impl FnOnce()) {
        assert_ne!(plan, SHUTDOWN, "u64::MAX is reserved as the shutdown plan");
        let Some((start, done)) = &self.barriers else {
            local();
            return;
        };
        self.plan.store(plan, Ordering::Relaxed);
        start.wait();
        local();
        done.wait();
    }

    fn shutdown(&self) {
        if let Some((start, _)) = &self.barriers {
            self.plan.store(SHUTDOWN, Ordering::Relaxed);
            start.wait();
        }
    }
}

/// Spawn `extra_workers` threads that each loop running
/// `work(worker_index, plan)` per broadcast round (worker indices
/// `1..=extra_workers`; the driver thread is worker 0 and runs its share
/// inside [`Broadcast::step`]). `drive` orchestrates rounds and its
/// return value is passed through.
///
/// With `extra_workers == 0` no threads spawn, no barriers are built, and
/// `step` degenerates to calling `local` inline — single-threaded
/// callers pay no synchronization at all.
pub fn run<R>(
    extra_workers: usize,
    work: impl Fn(usize, u64) + Sync,
    drive: impl FnOnce(&Broadcast) -> R,
) -> R {
    let bc = Broadcast::new(extra_workers + 1);
    if extra_workers == 0 {
        return drive(&bc);
    }
    let work = &work;
    std::thread::scope(|scope| {
        let (start, done) = bc.barriers.as_ref().expect("two or more parties");
        for w in 1..=extra_workers {
            let plan = &bc.plan;
            scope.spawn(move || loop {
                start.wait();
                let plan = plan.load(Ordering::Relaxed);
                if plan == SHUTDOWN {
                    break;
                }
                work(w, plan);
                done.wait();
            });
        }
        let r = drive(&bc);
        bc.shutdown();
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn all_workers_run_every_round() {
        let hits = AtomicUsize::new(0);
        let rounds = 5usize;
        let workers = 3usize; // worker 0 (driver) + 3 spawned
        run(
            workers,
            |_w, plan| {
                assert!(plan < rounds as u64);
                hits.fetch_add(1, Ordering::Relaxed);
            },
            |bc| {
                for r in 0..rounds {
                    bc.step(r as u64, || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            },
        );
        assert_eq!(hits.load(Ordering::Relaxed), rounds * (workers + 1));
    }

    #[test]
    fn zero_extra_workers_runs_inline() {
        let mut n = 0u64;
        run(0, |_, _| unreachable!("no workers spawned"), |bc| {
            bc.step(7, || n += 42);
        });
        assert_eq!(n, 42);
    }

    #[test]
    fn zero_extra_workers_build_no_barriers() {
        let barriers = run(0, |_, _| {}, |bc| bc.barriers.is_some());
        assert!(!barriers, "a lone driver must never wait on a barrier");
        assert!(run(1, |_, _| {}, |bc| bc.barriers.is_some()));
    }

    #[test]
    fn rounds_are_sequentially_consistent() {
        // Each round appends to a per-worker lane; after the run the lanes
        // must hold the exact plan sequence (no round skipped or doubled).
        let lanes: Vec<std::sync::Mutex<Vec<u64>>> =
            (0..4).map(|_| std::sync::Mutex::new(Vec::new())).collect();
        run(
            3,
            |w, plan| lanes[w].lock().unwrap().push(plan),
            |bc| {
                for plan in 10..20u64 {
                    bc.step(plan, || lanes[0].lock().unwrap().push(plan));
                }
            },
        );
        let want: Vec<u64> = (10..20).collect();
        for lane in &lanes {
            assert_eq!(*lane.lock().unwrap(), want);
        }
    }

    #[test]
    fn drive_result_passes_through() {
        let out = run(2, |_, _| {}, |bc| {
            bc.step(1, || {});
            "done"
        });
        assert_eq!(out, "done");
    }
}
