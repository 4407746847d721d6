//! The traced run's per-layer numbers.
//!
//! Two sources, both driven from outside the program through public
//! functions:
//!
//! * a *layer pass* that re-drives the workload one level down, through
//!   `Cluster::new` and `Cluster::run`, so each simulated system's build
//!   and run get their own spans and its counters (events, NIC L1, queue
//!   traversal, ALPU hits, retransmits) can be read. Its outputs are
//!   checked against the same reference as the timed passes;
//! * unit-cost probes of single layers (`Simulation`/`ShardedSim`,
//!   `MemSystem::access`, `Core::run`, `TraceBuilder::build`, the ALPU
//!   command interface, `Topology::plan`), shaped like the workload.

use crate::reference;
use crate::spans::Tracer;
use crate::util::{median, secs};
use crate::workloads::{
    incast_cluster_config, incast_config, Cell, Kind, Point, Workload, COLL_THREADS,
};
use mpiq_alpu::{Alpu, AlpuConfig, AlpuKind, Command, Entry, MatchWord, Probe};
use mpiq_cpusim::{Core, CoreConfig, Trace, TraceBuilder};
use mpiq_dessim::prelude::*;
use mpiq_dessim::{ShardId, ShardedSim};
use mpiq_memsim::{Access, MemSystem, MemSystemConfig};
use mpiq_mpi::script::{mark_log, MarkLog};
use mpiq_mpi::{AppProgram, Cluster, ClusterConfig, Script};
use mpiq_net::NetConfig;
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Counters and host times summed over the layer pass.
#[derive(Default, Debug)]
pub struct Counts {
    pub clusters: u64,
    pub events: u64,
    pub new_ns: u64,
    pub run_ns: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub posted_traversed: u64,
    pub unexpected_traversed: u64,
    pub alpu_hits: u64,
    pub retransmits: u64,
    /// Deepest posted or unexpected queue any NIC held.
    pub max_depth: u64,
    /// Oracle mismatches of the layer pass.
    pub failed: u64,
    pub ops: u64,
    pub errors: Vec<String>,
}

/// Build and run one simulated system with a span around each call,
/// then add its counters to `counts`.
fn build_and_run(
    tr: &mut Tracer,
    counts: &mut Counts,
    cfg: ClusterConfig,
    programs: Vec<Box<dyn AppProgram>>,
    deadline: Time,
) -> Result<(Cluster, u64), String> {
    let s = tr.begin("mpi", "Cluster::new");
    let t = Instant::now();
    let mut cluster = Cluster::new(cfg, programs);
    let new_ns = t.elapsed().as_nanos() as u64;
    tr.end(s);
    let s = tr.begin("mpi", "Cluster::run");
    let t = Instant::now();
    let events = cluster
        .run_watched(deadline)
        .map_err(|d| format!("run stalled:\n{d}"))?;
    let run_ns = t.elapsed().as_nanos() as u64;
    let mut nodes = HashSet::new();
    let (mut l1_hits, mut l1_misses, mut posted, mut unexpected, mut alpu_hits) = (0, 0, 0, 0, 0);
    for rank in 0..cluster.size() {
        let nic = cluster.nic(rank);
        if !nodes.insert(nic.node()) {
            continue;
        }
        let l1 = nic.core().mem().l1();
        l1_hits += l1.hits();
        l1_misses += l1.misses();
        let fw = nic.firmware().stats();
        posted += fw.posted_entries_traversed;
        unexpected += fw.unexpected_entries_traversed;
        alpu_hits += fw.posted_alpu_hits + fw.unexpected_alpu_hits;
    }
    let stats = cluster.stats();
    let retransmits: u64 = stats
        .iter()
        .filter(|(k, _)| k.ends_with(".link.retransmits"))
        .map(|(_, v)| v)
        .sum();
    let depth = stats
        .iter()
        .filter(|(k, _)| k.ends_with(".posted.len_max") || k.ends_with(".unexpected.len_max"))
        .map(|(_, v)| v)
        .max()
        .unwrap_or(0);
    tr.end_with(
        s,
        &[
            ("events", events),
            ("l1_hits", l1_hits),
            ("l1_misses", l1_misses),
            ("posted_traversed", posted),
            ("unexpected_traversed", unexpected),
        ],
    );
    counts.clusters += 1;
    counts.events += events;
    counts.new_ns += new_ns;
    counts.run_ns += run_ns;
    counts.l1_hits += l1_hits;
    counts.l1_misses += l1_misses;
    counts.posted_traversed += posted;
    counts.unexpected_traversed += unexpected;
    counts.alpu_hits += alpu_hits;
    counts.retransmits += retransmits;
    counts.max_depth = counts.max_depth.max(depth);
    Ok((cluster, run_ns))
}

const PING_TAG: u16 = 7;
const PONG_TAG: u16 = 8;
const FILLER_TAG: u16 = 10_000;
const UNX_ITERS: u32 = 8;
const UNX_WARMUP: u32 = 2;

/// One fig5/fig6 point built from the same scripts the `preposted` and
/// `unexpected` harnesses use; returns its CSV row for the oracle.
fn replica_point(p: &Point, tr: &mut Tracer, counts: &mut Counts) -> Result<String, String> {
    let marks = mark_log();
    let deadline = Time::from_ms(2000);
    match *p {
        Point::Pre(v, pt) => {
            let depth = (((pt.queue_len as f64) * pt.fraction).floor() as usize).min(pt.queue_len);
            let post_queue = |b: &mut mpiq_mpi::script::ScriptBuilder, peer: u16, tag: u16| {
                for i in 0..depth {
                    b.irecv(Some(peer), Some(FILLER_TAG + (i % 30_000) as u16), 0);
                }
                let matching = b.irecv(Some(peer), Some(tag), pt.msg_size);
                for i in depth..pt.queue_len {
                    b.irecv(Some(peer), Some(FILLER_TAG + (i % 30_000) as u16), 0);
                }
                matching
            };
            let mut b0 = Script::builder();
            let pong = post_queue(&mut b0, 1, PONG_TAG);
            b0.barrier();
            b0.sleep(Time::from_us(400));
            b0.mark(0);
            b0.send(1, PING_TAG, pt.msg_size);
            b0.wait(pong);
            b0.mark(1);
            let mut b1 = Script::builder();
            let matching = post_queue(&mut b1, 0, PING_TAG);
            b1.barrier();
            b1.sleep(Time::from_us(400));
            b1.wait(matching);
            b1.send(0, PONG_TAG, pt.msg_size);
            let programs: Vec<Box<dyn AppProgram>> = vec![
                Box::new(b0.build(marks.clone())),
                Box::new(b1.build(mark_log())),
            ];
            let cfg = ClusterConfig::builder(v.config()).build();
            let (c, _) = build_and_run(tr, counts, cfg, programs, deadline)?;
            let m = marks.borrow();
            let latency = (m[1].1 - m[0].1) / 2;
            let nic = c.nic(1);
            Ok(p.row(
                latency.as_us_f64(),
                nic.firmware().stats().posted_entries_traversed,
                nic.core().mem().l1().misses(),
            ))
        }
        Point::Unx(v, pt) => {
            let mut b0 = Script::builder();
            let fillers: Vec<usize> = (0..pt.queue_len)
                .map(|i| b0.isend(1, FILLER_TAG + (i % 30_000) as u16, pt.msg_size))
                .collect();
            b0.wait_all(fillers);
            b0.barrier();
            b0.sleep(Time::from_us(500));
            for i in 0..UNX_ITERS {
                b0.send(1, PING_TAG.wrapping_add((i as u16) << 5), pt.msg_size);
                b0.recv(Some(1), Some(PONG_TAG), 0);
            }
            let mut b1 = Script::builder();
            b1.barrier();
            b1.sleep(Time::from_us(500));
            for i in 0..UNX_ITERS {
                b1.mark(2 * i);
                b1.recv(
                    Some(0),
                    Some(PING_TAG.wrapping_add((i as u16) << 5)),
                    pt.msg_size,
                );
                b1.mark(2 * i + 1);
                b1.send(0, PONG_TAG, 0);
            }
            let programs: Vec<Box<dyn AppProgram>> = vec![
                Box::new(b0.build(mark_log())),
                Box::new(b1.build(marks.clone())),
            ];
            let cfg = ClusterConfig::builder(v.config()).build();
            let (c, _) = build_and_run(tr, counts, cfg, programs, deadline)?;
            let m = marks.borrow();
            let total = (UNX_WARMUP..UNX_ITERS).fold(Time::ZERO, |acc, i| {
                acc + (m[(2 * i + 1) as usize].1 - m[(2 * i) as usize].1)
            });
            let latency = total / (UNX_ITERS - UNX_WARMUP) as u64;
            Ok(p.row(
                latency.as_us_f64(),
                c.nic(1).firmware().stats().unexpected_entries_traversed,
                0,
            ))
        }
    }
}

/// The incast built from the `soak` harness's programs and config;
/// returns `(events, delivered)`.
fn replica_incast(
    w: &Workload,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<(u64, u64), String> {
    let cfg = incast_config(w.tiny, w.seed);
    let mut b0 = Script::builder();
    b0.barrier();
    b0.sleep(Time::from_us(50));
    let mut pending = Vec::new();
    for src in 1..=cfg.senders {
        for i in 0..cfg.msgs {
            pending.push(b0.irecv(Some(src as u16), Some(i as u16), cfg.msg_size));
        }
    }
    b0.wait_all(pending);
    let mut programs: Vec<Box<dyn AppProgram>> = vec![Box::new(b0.build(mark_log()))];
    for _ in 1..=cfg.senders {
        let mut b = Script::builder();
        b.barrier();
        let slots: Vec<usize> = (0..cfg.msgs)
            .map(|i| b.isend(0, i as u16, cfg.msg_size))
            .collect();
        b.wait_all(slots);
        programs.push(Box::new(b.build(mark_log())));
    }
    let before = counts.events;
    build_and_run(
        tr,
        counts,
        incast_cluster_config(&cfg),
        programs,
        cfg.deadline,
    )?;
    Ok((counts.events - before, (cfg.senders * cfg.msgs) as u64))
}

/// What a collectives cell measured: its CSV cells
/// `sim_ns_per_op,host_completions,events`, simulated ns, and run wall ns.
struct CellRun {
    csv: String,
    sim_ns: f64,
    run_ns: u64,
}

fn replica_cell(
    c: &Cell,
    threads: usize,
    seed: u64,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<CellRun, String> {
    let op = c.coll_op();
    let mut marks: Vec<MarkLog> = Vec::new();
    let programs: Vec<Box<dyn AppProgram>> = (0..c.ranks)
        .map(|_| {
            let mark = mark_log();
            let mut b = Script::builder();
            b.mark(0);
            for _ in 0..c.iters {
                b.coll(op, 0, crate::workloads::COLL_LEN, None);
            }
            b.mark(1);
            marks.push(mark.clone());
            Box::new(b.build(mark)) as Box<dyn AppProgram>
        })
        .collect();
    let cfg = ClusterConfig::builder(c.nic())
        .seed(seed)
        .topology(c.topology())
        .parallelism(threads)
        .build();
    let before = counts.events;
    let (cluster, run_ns) = build_and_run(tr, counts, cfg, programs, Time::from_ms(2000))?;
    let first = |id: u32| {
        marks
            .iter()
            .filter_map(move |m| m.borrow().iter().find(|(i, _)| *i == id).map(|&(_, t)| t))
    };
    let t0 = first(0).min().ok_or("no start mark")?;
    let t1 = first(1).max().ok_or("no end mark")?;
    let sim_ns_per_op = (t1 - t0).as_ns_f64() / c.iters as f64;
    let completions: u64 = (0..c.ranks)
        .map(|r| cluster.host(r).completions() as u64)
        .sum();
    Ok(CellRun {
        csv: format!(
            "{sim_ns_per_op:.0},{completions},{}",
            counts.events - before
        ),
        sim_ns: cluster.now().as_ns_f64(),
        run_ns,
    })
}

/// Sync-window cost and parallel speed-up measured on collectives cells.
#[derive(Default)]
pub struct Rounds {
    pub round_us_hub: f64,
    pub round_us_fattree: f64,
    pub par_speedup: f64,
}

/// Run `cells` at [`COLL_THREADS`] and at 1 thread. A round is one
/// lookahead window of simulated time (the wire latency): the host time
/// of the multi-thread run divided by the windows it simulated.
fn rounds(
    cells: &[Cell],
    seed: u64,
    check: bool,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<Rounds, String> {
    let window_ns = NetConfig::default().wire_latency.as_ns_f64();
    let (mut par, mut seq) = (0u64, 0u64);
    let mut per_fabric: BTreeMap<bool, (f64, f64)> = BTreeMap::new();
    let mut scratch = Counts::default();
    for c in cells {
        let multi = replica_cell(c, COLL_THREADS, seed, tr, counts)?;
        let single = replica_cell(c, 1, seed, tr, &mut scratch)?;
        par += multi.run_ns;
        seq += single.run_ns;
        let e = per_fabric.entry(c.hub).or_default();
        e.0 += multi.run_ns as f64 / 1e3;
        e.1 += (multi.sim_ns / window_ns).max(1.0);
        if check {
            counts.ops += 2;
            let want = reference::collectives(&c.key());
            for (threads, got) in [(COLL_THREADS, &multi.csv), (1, &single.csv)] {
                if *got != want {
                    counts.failed += 1;
                    counts.errors.push(format!(
                        "layer pass {} at {threads} thread(s): `{got}`, reference `{want}`",
                        c.key()
                    ));
                }
            }
        }
    }
    let per = |hub: bool| per_fabric.get(&hub).map_or(0.0, |(us, w)| us / w);
    Ok(Rounds {
        round_us_hub: per(true),
        round_us_fattree: per(false),
        par_speedup: seq as f64 / par.max(1) as f64,
    })
}

/// The layer pass: re-drive the workload through `Cluster::new`/`run`.
pub fn layer_pass(w: &Workload, tr: &mut Tracer) -> Result<(Counts, Rounds), String> {
    let mut counts = Counts::default();
    let root = tr.begin("perfbench", &format!("layer pass {}", w.kind.name()));
    let check_point = |p: &Point, tr: &mut Tracer, counts: &mut Counts| -> Result<(), String> {
        let row = replica_point(p, tr, counts)?;
        counts.ops += 1;
        if w.golden(p) != Some(row.as_str()) {
            counts.failed += 1;
            counts.errors.push(format!(
                "layer pass {}: `{row}` differs from the reference",
                p.key()
            ));
        }
        Ok(())
    };
    // Probe cells for the window and speed-up numbers on workloads that
    // have no collectives of their own: one barrier per fabric, at the
    // workload's rank count.
    let probe = |ranks: u32| -> Vec<Cell> {
        [true, false]
            .map(|hub| Cell {
                ranks,
                op: "barrier",
                hub,
                offload: true,
                iters: 4,
            })
            .to_vec()
    };
    let rounds_out = match w.kind {
        Kind::PaperFigs => {
            for p in &w.points {
                check_point(p, tr, &mut counts)?;
            }
            rounds(&probe(2), w.seed, false, tr, &mut Counts::default())?
        }
        Kind::ServiceMix => {
            for s in &w.pool {
                for p in &s.points {
                    check_point(p, tr, &mut counts)?;
                }
            }
            rounds(&probe(2), w.seed, false, tr, &mut Counts::default())?
        }
        Kind::Incast => {
            let got = replica_incast(w, tr, &mut counts)?;
            let want = reference::incast(incast_config(w.tiny, w.seed).msgs);
            counts.ops += got.1;
            if got != want {
                counts.failed += got.1;
                counts
                    .errors
                    .push(format!("layer pass incast: {got:?}, reference {want:?}"));
            }
            rounds(&probe(17), w.seed, false, tr, &mut Counts::default())?
        }
        Kind::Collectives => rounds(&w.cells, w.seed, true, tr, &mut counts)?,
    };
    tr.end_with(
        root,
        &[("events", counts.events), ("clusters", counts.clusters)],
    );
    Ok((counts, rounds_out))
}

struct Relay {
    left: u64,
}

impl Component for Relay {
    fn on_event(&mut self, _ev: Event, ctx: &mut Ctx<'_>) {
        if self.left > 0 {
            self.left -= 1;
            ctx.emit(OutPort(0), Payload::new(()));
        }
    }
}

/// Host ns per event of the DES kernel alone, on null components in a
/// ring shaped like the workload's system: the hub engine with 5
/// components for the two-rank points, the sharded engine with one shard
/// per node (incast) or per edge switch (collectives), at 1 thread.
pub fn kernel_ns_per_event(kind: Kind) -> f64 {
    const EVENTS: u64 = 400_000;
    let latency = Time::from_ns(200);
    let (sharded, n) = match kind {
        Kind::PaperFigs | Kind::ServiceMix => (false, 5u64),
        Kind::Incast => (true, 17),
        Kind::Collectives => (true, 64),
    };
    let relay = || Relay { left: EVENTS / n };
    let t = Instant::now();
    let events = if sharded {
        let mut sim = ShardedSim::new(1, n as usize);
        sim.set_threads(1);
        let ids: Vec<ComponentId> = (0..n)
            .map(|i| sim.add_component(ShardId(i as u32), &format!("r{i}"), relay()))
            .collect();
        for i in 0..ids.len() {
            sim.connect(
                ids[i],
                OutPort(0),
                ids[(i + 1) % ids.len()],
                InPort(0),
                latency,
            );
            sim.post(ids[i], InPort(0), Payload::new(()), Time::ZERO);
        }
        sim.run()
    } else {
        let mut sim = Simulation::new(1);
        let ids: Vec<ComponentId> = (0..n)
            .map(|i| sim.add_component(&format!("r{i}"), relay()))
            .collect();
        for i in 0..ids.len() {
            sim.connect(
                ids[i],
                OutPort(0),
                ids[(i + 1) % ids.len()],
                InPort(0),
                latency,
            );
            sim.post(ids[i], InPort(0), Payload::new(()), Time::ZERO);
        }
        sim.run()
    };
    secs(t) * 1e9 / events.max(1) as f64
}

/// Base address and stride of the firmware's posted queue entries.
const QUEUE_BASE: u64 = 0x10_0000;
const ENTRY_BYTES: u64 = 80;

/// Host ns per `MemSystem::access` replaying a cyclic queue walk of
/// `entries` entries on the NIC memory system (32 KB L1 = 409 entries).
pub fn memsim_ns_per_access(entries: u64) -> f64 {
    const ACCESSES: u64 = 400_000;
    let mut m = MemSystem::new(MemSystemConfig::nic());
    let mut now = Time::ZERO;
    let t = Instant::now();
    for i in 0..ACCESSES {
        let addr = QUEUE_BASE + (i % entries) * ENTRY_BYTES;
        now += m.access(black_box(addr), Access::Read, now).latency;
    }
    black_box(now);
    secs(t) * 1e9 / ACCESSES as f64
}

fn walk_trace(depth: u64) -> Trace {
    let mut tb = TraceBuilder::new();
    for i in 0..depth {
        tb = tb.load_chain(QUEUE_BASE + i * ENTRY_BYTES).int(12);
    }
    tb.build()
}

/// `(ns per uop of Core::run, ns per TraceBuilder::build)` on list-walk
/// traces `depth` entries long.
pub fn cpusim_costs(depth: u64) -> (f64, f64) {
    const UOPS: u64 = 400_000;
    let trace = walk_trace(depth);
    let mut core = Core::new(CoreConfig::nic_ppc440());
    let mut now = Time::ZERO;
    let mut uops = 0;
    let t = Instant::now();
    while uops < UOPS {
        let r = core.run(black_box(&trace), now);
        now += r.elapsed;
        uops += r.uops;
    }
    let per_uop = secs(t) * 1e9 / uops as f64;
    let builds = (UOPS / (2 * depth)).max(16);
    let t = Instant::now();
    for _ in 0..builds {
        black_box(walk_trace(black_box(depth)));
    }
    (per_uop, secs(t) * 1e9 / builds as f64)
}

/// `(ns per match, ns per insert)` on 128- and 256-cell posted-receive
/// ALPUs filled to `depth` entries (capped at the unit's size), averaged
/// over the two sizes. Matches use a probe that hits nothing, so each one
/// searches every filled cell.
pub fn alpu_costs(depth: u64) -> (f64, f64) {
    let fill = |cells: usize, n: usize| {
        let mut a = Alpu::new(AlpuConfig::new(cells, 16, AlpuKind::PostedReceive));
        a.push_command(Command::StartInsert)
            .expect("empty command FIFO");
        a.advance(4);
        a.pop_response();
        for i in 0..n as u32 {
            let e = Entry::mpi_recv(1, Some((i % 512) as u16), Some((i % 1024) as u16), i);
            a.push_command(Command::Insert(e))
                .expect("command FIFO drains between inserts");
            a.advance(2);
        }
        a.push_command(Command::StopInsert)
            .expect("command FIFO drains between inserts");
        a.run_to_idle(100_000);
        a
    };
    let (mut match_ns, mut insert_ns) = (Vec::new(), Vec::new());
    for cells in [128usize, 256] {
        let n = (depth as usize).clamp(1, cells);
        let fills = (50_000 / n).max(4);
        let t = Instant::now();
        for _ in 0..fills {
            black_box(fill(cells, n).occupied());
        }
        insert_ns.push(secs(t) * 1e9 / (fills * n) as f64);
        let mut a = fill(cells, n);
        let probe = Probe::exact(MatchWord::mpi(2, 0, 0));
        const MATCHES: u32 = 20_000;
        let t = Instant::now();
        for _ in 0..MATCHES {
            a.push_header(black_box(probe))
                .expect("header FIFO drained");
            a.run_to_idle(1_000);
            black_box(a.pop_response());
        }
        match_ns.push(secs(t) * 1e9 / MATCHES as f64);
    }
    (median(&match_ns), median(&insert_ns))
}

/// Host ms to plan every fabric one pass builds (`Topology::plan`).
pub fn topology_build_ms(w: &Workload) -> f64 {
    let fabrics: Vec<(mpiq_net::Topology, u32)> = match w.kind {
        Kind::PaperFigs => w
            .points
            .iter()
            .map(|_| (mpiq_net::Topology::Hub, 2))
            .collect(),
        Kind::ServiceMix => w
            .pool
            .iter()
            .flat_map(|s| s.points.iter().map(|_| (mpiq_net::Topology::Hub, 2)))
            .collect(),
        Kind::Incast => vec![(mpiq_net::Topology::Hub, 17)],
        Kind::Collectives => w.cells.iter().map(|c| (c.topology(), c.ranks)).collect(),
    };
    let t = Instant::now();
    for (topo, nodes) in fabrics {
        black_box(topo.plan(nodes));
    }
    secs(t) * 1e3
}

/// `(hit us, miss overhead us, hit ratio)` of service requests:
/// the median round trip of cache hits, and the median of a miss's
/// round trip minus a local `exec::execute` of the same spec.
pub fn service_numbers(w: &Workload, requests: &[(bool, f64, usize)]) -> (f64, f64, f64) {
    let hits: Vec<f64> = requests.iter().filter(|r| r.0).map(|r| r.1).collect();
    let overhead: Vec<f64> = requests
        .iter()
        .filter(|r| !r.0)
        .map(|r| r.1 - w.local[r.2].1)
        .collect();
    let m = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) };
    (
        m(&hits),
        m(&overhead),
        hits.len() as f64 / requests.len().max(1) as f64,
    )
}
