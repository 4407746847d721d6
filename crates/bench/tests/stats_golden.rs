//! Byte-identical pins on whole statistics dumps.
//!
//! The NIC counters are rendered into the registry when stats are read,
//! not pushed on every event, so these goldens guard the rendering
//! contract: a NIC's keys appear only once it has published (run an
//! event), gauges read their final values, and the queue-length
//! high-water marks survive a node restart. Each soak scenario is pinned
//! on both engines, plus chaos with a restart, a restart that wipes a
//! deep posted queue, a node that dies before its first event, and one
//! Fig. 5 ALPU point. Regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p mpiq-bench --test stats_golden
//! ```

use mpiq_bench::{preposted_cluster, run_soak, NicVariant, PrepostedPoint, Scenario, SoakConfig};
use mpiq_dessim::{FaultEvent, FaultSchedule, Time};
use mpiq_mpi::script::mark_log;
use mpiq_mpi::{AppProgram, Cluster, ClusterConfig, Script};
use mpiq_nic::NicConfig;

fn check(name: &str, got: &str) {
    let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(
        want == got,
        "{name}: stats dump drifted from {path}\n got: {got}"
    );
}

fn soak_stats(cfg: &SoakConfig) -> String {
    run_soak(cfg).expect("soak run completes").stats_json
}

#[test]
fn soak_scenarios_match_golden_on_both_engines() {
    for scenario in Scenario::ALL {
        for parallelism in [0, 1] {
            let mut cfg = SoakConfig::new(scenario, 1);
            cfg.parallelism = parallelism;
            check(
                &format!("stats_{}_t{parallelism}", scenario.name()),
                &soak_stats(&cfg),
            );
        }
    }
}

#[test]
fn chaos_with_restart_matches_golden() {
    let mut cfg = SoakConfig::new(Scenario::Chaos, 1);
    cfg.node_mttr = Some(Time::from_us(400));
    check("stats_chaos_restart", &soak_stats(&cfg));
}

#[test]
fn fig5_alpu_point_matches_golden() {
    let point = PrepostedPoint {
        queue_len: 100,
        fraction: 1.0,
        msg_size: 0,
    };
    let (mut cluster, _marks) = preposted_cluster(NicVariant::Alpu128.config(), point, 0);
    cluster.run();
    check("stats_fig5_alpu128_q100", &cluster.stats().to_json());
}

/// Three ranks: 0 sends one message to 1, and rank 2 runs `doomed`
/// under `sched`.
fn three_ranks(sched: FaultSchedule, doomed: Script) -> Cluster {
    let cfg = ClusterConfig::builder(NicConfig::baseline())
        .fault_schedule(sched)
        .build();
    let mut sender = Script::builder();
    sender.send(1, 1, 64);
    let mut receiver = Script::builder();
    receiver.recv(Some(0), Some(1), 64);
    let programs: Vec<Box<dyn AppProgram>> = vec![
        Box::new(sender.build(mark_log())),
        Box::new(receiver.build(mark_log())),
        Box::new(doomed),
    ];
    Cluster::with_recovery(cfg, programs, vec![None, None, None])
}

/// Rank 2 posts 40 receives nobody will ever match, crash-stops, and
/// restarts with nothing to run: its reborn NIC's queues are empty, but
/// the high-water mark is a property of the node, not the incarnation.
#[test]
fn len_max_survives_a_restart() {
    const DEEP: u16 = 40;
    let mut sched = FaultSchedule::new();
    sched.push(Time::from_us(20), FaultEvent::NodeCrash { host: 2 });
    sched.push(Time::from_us(500), FaultEvent::NodeRestart { host: 2 });
    let mut doomed = Script::builder();
    let slots = (0..DEEP)
        .map(|t| doomed.irecv(Some(0), Some(100 + t), 64))
        .collect();
    doomed.wait_all(slots);
    let mut cluster = three_ranks(sched, doomed.build(mark_log()));
    cluster.run();
    let stats = cluster.stats();
    assert_eq!(stats.get("nic2.fault.incarnation"), 1, "the restart landed");
    assert_eq!(
        cluster.nic(2).firmware().posted_len(),
        0,
        "the reborn queue is empty"
    );
    assert_eq!(stats.get("nic2.posted.len_max"), DEEP as u64);
    check("stats_restart_len_max", &stats.to_json());
}

/// Rank 2's node dies at time zero, before its NIC handles a single
/// event: the dump carries its crash and none of its counters.
#[test]
fn a_nic_that_never_ran_renders_no_counters() {
    let mut sched = FaultSchedule::new();
    sched.push(Time::ZERO, FaultEvent::NodeCrash { host: 2 });
    let mut doomed = Script::builder();
    doomed.send(0, 9, 64);
    let mut cluster = three_ranks(sched, doomed.build(mark_log()));
    cluster.run();
    let stats = cluster.stats();
    assert_eq!(stats.get("nic2.fault.crashed"), 1);
    let nic2: Vec<&str> = stats
        .iter()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("nic2."))
        .collect();
    assert_eq!(nic2, ["nic2.fault.crashed"]);
    check("stats_crashed_at_zero", &stats.to_json());
}
