//! Cluster assembly: hosts + NICs + fabric, ready to run.
//!
//! Two execution engines build from the same [`ClusterConfig`]:
//!
//! * **Single** (`parallelism == 0`, the default): the historical layout —
//!   one [`Simulation`], a hub [`Fabric`] crossbar, every component on the
//!   calling thread. Golden outputs from earlier revisions are preserved
//!   bit for bit.
//! * **Sharded** (`parallelism >= 1`): one shard per *node* holding that
//!   node's [`FabricPort`], NIC, and hosts, run by the partitioned
//!   executor with `parallelism` worker threads. The fabric wires are the
//!   only cross-shard edges; their (possibly heterogeneous) latencies
//!   feed the window planner's per-edge lookahead. Results are
//!   bit-identical for any `parallelism >= 1`
//!   (that is what `tests/parallel_determinism.rs` pins), but are *not*
//!   a replay of the hub engine: the distributed fabric breaks
//!   same-picosecond ties per receiver, the hub globally.

use crate::app::{AppProgram, PORT_COMPLETION};
use crate::host::Host;
use mpiq_dessim::prelude::*;
use mpiq_dessim::watchdog::{Diagnosis, StallKind};
use mpiq_dessim::{FaultConfig, FaultSchedule, Metrics, ShardId, ShardedSim, Stats, WindowPolicy};
use mpiq_net::{
    Fabric, FabricPort, NetConfig, Switch, TopoPlan, Topology, PORT_FP_INJECT, PORT_FP_WIRE,
    PORT_FROM_NIC, PORT_SW_IN,
};
use mpiq_nic::{host_comp_port, Nic, NicConfig, PORT_HOST_REQ, PORT_NET_RX, PORT_NET_TX};
use std::sync::Arc;

/// Per-NIC flow-control bounds, set as one unit via
/// [`ClusterConfigBuilder::flow_control`]. The zero value (the default)
/// disables every bound — the historical unbounded behavior.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowControl {
    /// Eager credits granted to each peer; `0` = no credit flow control.
    pub eager_credits: u32,
    /// Unexpected-queue cap; arrivals beyond it are refused at the wire.
    /// `0` = unbounded.
    pub max_unexpected: u32,
    /// Eager staging pool in bytes; exhausted = header-only admits.
    /// `0` = unbounded.
    pub eager_buffer_bytes: u64,
}

/// Everything needed to build a simulated cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// NIC configuration (same on every node).
    pub nic: NicConfig,
    /// Network parameters.
    pub net: NetConfig,
    /// RNG seed (determinism).
    pub seed: u64,
    /// Host CPU cost per dispatched request.
    pub host_dispatch: Time,
    /// Trace-ring capacity; 0 (the default) leaves tracing disabled so
    /// instrumented code paths stay no-ops.
    pub trace_capacity: usize,
    /// Enable the latency-histogram / counter registry.
    pub metrics: bool,
    /// Execution engine: `0` runs the hub-fabric engine on the calling
    /// thread; `n >= 1` runs the sharded engine (one shard per node) on
    /// `n` worker threads. Any `n >= 1` produces identical output.
    pub parallelism: usize,
    /// Window planning on the sharded engine (ignored by the hub
    /// engine): adaptive per-edge lookahead by default, or the global
    /// conservative window as a baseline. For a fixed policy, results
    /// are identical at every `parallelism >= 1`.
    pub window_policy: WindowPolicy,
    /// Component-level fault timeline (node crashes, link flaps,
    /// partitions, ALPU deaths), shared by every component that consults
    /// it. `None` (the default) keeps every fault-domain code path a
    /// single flag check. Set via
    /// [`ClusterConfigBuilder::fault_schedule`].
    pub fault_schedule: Option<Arc<FaultSchedule>>,
    /// Fabric shape. [`Topology::Hub`] (the default) is the historical
    /// single crossbar. Any switched topology (fat tree, dragonfly,
    /// torus) always runs on the sharded engine — one shard per edge
    /// switch, trunks the only cross-shard edges — with
    /// `max(1, parallelism)` worker threads.
    pub topology: Topology,
}

impl ClusterConfig {
    /// Defaults around a given NIC configuration.
    pub fn new(nic: NicConfig) -> ClusterConfig {
        ClusterConfig {
            nic,
            net: NetConfig::default(),
            seed: 42,
            host_dispatch: Time::from_ns(40),
            trace_capacity: 0,
            metrics: false,
            parallelism: 0,
            window_policy: WindowPolicy::default(),
            fault_schedule: None,
            topology: Topology::Hub,
        }
    }

    /// Start a typed builder around a NIC configuration — the one place
    /// to dial faults, observability, flow control, and parallelism.
    pub fn builder(nic: NicConfig) -> ClusterConfigBuilder {
        ClusterConfigBuilder {
            cfg: ClusterConfig::new(nic),
        }
    }

}

/// Builder for [`ClusterConfig`]. Every method is optional; `build`
/// returns the config with whatever was dialed in.
///
/// ```
/// # use mpiq_mpi::cluster::{ClusterConfig, FlowControl};
/// # use mpiq_nic::NicConfig;
/// let cfg = ClusterConfig::builder(NicConfig::baseline())
///     .seed(7)
///     .observability(4096)
///     .flow_control(FlowControl {
///         eager_credits: 4,
///         max_unexpected: 32,
///         eager_buffer_bytes: 16 << 10,
///     })
///     .parallelism(4)
///     .build();
/// assert_eq!(cfg.parallelism, 4);
/// assert!(cfg.metrics);
/// ```
#[derive(Clone, Debug)]
pub struct ClusterConfigBuilder {
    cfg: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Network parameters (wire latency, bandwidth).
    pub fn net(mut self, net: NetConfig) -> Self {
        self.cfg.net = net;
        self
    }

    /// RNG seed for the whole cluster.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Host CPU cost per dispatched request.
    pub fn host_dispatch(mut self, cost: Time) -> Self {
        self.cfg.host_dispatch = cost;
        self
    }

    /// Arm deterministic fault injection (fabric drops/duplicates/
    /// corruption, ALPU bit flips and stalls). Network-side faults force
    /// the link reliability layer on.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.cfg.nic = self.cfg.nic.with_faults(faults);
        self
    }

    /// Turn on structured tracing (ring of `capacity` records per
    /// engine shard) and the metrics registry.
    pub fn observability(mut self, trace_capacity: usize) -> Self {
        self.cfg.trace_capacity = trace_capacity;
        self.cfg.metrics = true;
        self
    }

    /// Set all three per-NIC overload bounds at once.
    pub fn flow_control(mut self, fc: FlowControl) -> Self {
        self.cfg.nic.eager_credits = fc.eager_credits;
        self.cfg.nic.max_unexpected = fc.max_unexpected;
        self.cfg.nic.eager_buffer_bytes = fc.eager_buffer_bytes;
        self
    }

    /// Select the execution engine: `0` = hub fabric on the calling
    /// thread (default); `n >= 1` = sharded engine on `n` worker
    /// threads (same results for every `n`).
    pub fn parallelism(mut self, threads: usize) -> Self {
        self.cfg.parallelism = threads;
        self
    }

    /// Window planning policy for the sharded engine (no effect on the
    /// hub engine). Defaults to adaptive per-edge lookahead; the global
    /// window remains available as a perf baseline.
    pub fn window_policy(mut self, policy: WindowPolicy) -> Self {
        self.cfg.window_policy = policy;
        self
    }

    /// Select the fabric shape. The default [`Topology::Hub`] keeps the
    /// historical crossbar; a switched topology routes every frame
    /// through [`Switch`] components (per-hop serialization, output
    /// queueing, link contention) and always runs on the sharded engine.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.cfg.topology = topology;
        self
    }

    /// Tune the NIC failure detector: how long a peer may stay silent
    /// before keepalive probing starts (`keepalive`), and how many
    /// unanswered retransmits declare it dead (`retry_budget`). The
    /// defaults are aggressive so tests converge quickly; deployments
    /// facing long-but-survivable link outages want a *lenient* detector
    /// (longer keepalive, bigger budget) so a slow-but-alive peer is not
    /// falsely declared dead — see `tests/recovery.rs`.
    pub fn failure_detector(mut self, keepalive: Time, retry_budget: u32) -> Self {
        self.cfg.nic = self.cfg.nic.with_failure_detector(keepalive, retry_budget);
        self
    }

    /// Arm the component-level fault timeline: scheduled node crashes,
    /// link flaps, network partitions, and ALPU deaths. An empty
    /// schedule is the same as never calling this. A non-empty schedule
    /// forces the link reliability layer on — flapping links drop frames,
    /// and peer-death detection rides the keepalive machinery.
    pub fn fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        if !schedule.is_empty() {
            self.cfg.nic.reliability = true;
            self.cfg.fault_schedule = Some(Arc::new(schedule));
        }
        self
    }

    /// Finish.
    pub fn build(self) -> ClusterConfig {
        self.cfg
    }
}

/// The execution engine carrying a built cluster.
enum Engine {
    Single(Simulation),
    Sharded(ShardedSim),
}

/// A built cluster: run it, then inspect NICs and statistics.
pub struct Cluster {
    engine: Engine,
    nics: Vec<ComponentId>,
    hosts: Vec<ComponentId>,
    /// Node count (not rank count) — the fault schedule and partition
    /// diagnosis are node-granular.
    nodes: u32,
    /// The armed fault timeline, if any; consulted by the watchdog to
    /// tell partition-induced quiescence from a leak deadlock.
    schedule: Option<Arc<FaultSchedule>>,
}

impl Cluster {
    /// Build a cluster with one program per rank. When the NIC config
    /// sets `ranks_per_node > 1`, consecutive ranks share a node's NIC
    /// (block distribution), exercising the paper's footnote-1
    /// multi-process extension. `cfg.parallelism` selects the engine —
    /// see the module docs.
    pub fn new(cfg: ClusterConfig, programs: Vec<Box<dyn AppProgram>>) -> Cluster {
        let recovery = programs.iter().map(|_| None).collect();
        Cluster::with_recovery(cfg, programs, recovery)
    }

    /// Like [`Cluster::new`], but with a recovery program staged per
    /// rank (`None` = nothing to run after a restart). When the fault
    /// schedule restarts a rank's node, its host boots the staged
    /// program from scratch — pre-crash program state is gone, matching
    /// the crash-stop model. Ranks whose nodes never restart never
    /// consume their entry.
    pub fn with_recovery(
        cfg: ClusterConfig,
        programs: Vec<Box<dyn AppProgram>>,
        recovery: Vec<Option<Box<dyn AppProgram>>>,
    ) -> Cluster {
        let n = programs.len() as u32;
        assert!(n > 0, "cluster needs at least one rank");
        assert_eq!(
            programs.len(),
            recovery.len(),
            "one recovery slot (possibly None) per rank"
        );
        let k = cfg.nic.ranks_per_node.max(1);
        let nodes = n.div_ceil(k);
        if let Some(plan) = cfg.topology.plan(nodes) {
            Cluster::new_sharded_topo(cfg, programs, recovery, n, k, nodes, plan)
        } else if cfg.parallelism == 0 {
            Cluster::new_single(cfg, programs, recovery, n, k, nodes)
        } else {
            Cluster::new_sharded(cfg, programs, recovery, n, k, nodes)
        }
    }

    /// Build one rank's host with its fault timeline applied: every
    /// scheduled crash of its node, plus restarts (booting the staged
    /// recovery program at the first one).
    fn faulted_host(
        cfg: &ClusterConfig,
        rank: u32,
        n: u32,
        nic: ComponentId,
        program: Box<dyn AppProgram>,
        recovery: Option<Box<dyn AppProgram>>,
        node: u32,
    ) -> Host {
        let mut host = Host::new(rank, n, nic, cfg.host_dispatch, cfg.nic.bus_latency, program);
        if let Some(s) = cfg.fault_schedule.as_ref() {
            for t in s.crash_times(node) {
                host = host.with_crash_at(t);
            }
            let restarts = s.restart_times(node);
            if !restarts.is_empty() {
                host = host.with_restarts(restarts, recovery);
            }
        }
        host
    }

    fn new_single(
        cfg: ClusterConfig,
        programs: Vec<Box<dyn AppProgram>>,
        recovery: Vec<Option<Box<dyn AppProgram>>>,
        n: u32,
        k: u32,
        nodes: u32,
    ) -> Cluster {
        let mut sim = Simulation::new(cfg.seed);
        if cfg.trace_capacity > 0 {
            sim.enable_tracing(cfg.trace_capacity);
        }
        if cfg.metrics {
            sim.enable_metrics();
        }
        let fabric = sim.add_component(
            "net",
            Fabric::with_faults(cfg.net, nodes, cfg.nic.faults)
                .with_schedule(cfg.fault_schedule.clone()),
        );
        let mut node_nics = Vec::new();
        for node in 0..nodes {
            let nic = sim.add_component(
                &format!("nic{node}"),
                Nic::new(node, cfg.nic).with_schedule(cfg.fault_schedule.clone()),
            );
            sim.connect(nic, PORT_NET_TX, fabric, PORT_FROM_NIC, Time::ZERO);
            sim.connect(fabric, Fabric::out_port(node), nic, PORT_NET_RX, Time::ZERO);
            node_nics.push(nic);
        }
        let mut nics = Vec::new();
        let mut hosts = Vec::new();
        for (rank, (program, recovery)) in programs.into_iter().zip(recovery).enumerate() {
            let rank = rank as u32;
            let node = rank / k;
            let nic = node_nics[node as usize];
            let host = Cluster::faulted_host(&cfg, rank, n, nic, program, recovery, node);
            let host = sim.add_component(&format!("host{rank}"), host);
            // Completion path: one bus transaction back to this process's
            // host, on its per-process port.
            sim.connect(
                nic,
                host_comp_port(rank % k),
                host,
                PORT_COMPLETION,
                cfg.nic.bus_latency,
            );
            // (Requests travel via direct sends from the host; the port
            // constant is referenced here to document the pairing.)
            let _ = PORT_HOST_REQ;
            nics.push(nic);
            hosts.push(host);
        }
        Cluster {
            engine: Engine::Single(sim),
            nics,
            hosts,
            nodes,
            schedule: cfg.fault_schedule,
        }
    }

    /// One shard per node: `{FabricPort, Nic, that node's Hosts}`. The
    /// host→NIC request path (direct sends) and NIC→host completion
    /// links are intra-shard; only the port-to-port fabric wires cross
    /// shards, at the per-pair latency from `cfg.net` — the edges the
    /// window planner derives its lookahead from.
    fn new_sharded(
        cfg: ClusterConfig,
        programs: Vec<Box<dyn AppProgram>>,
        recovery: Vec<Option<Box<dyn AppProgram>>>,
        n: u32,
        k: u32,
        nodes: u32,
    ) -> Cluster {
        let mut sim = ShardedSim::new(cfg.seed, nodes as usize);
        sim.set_threads(cfg.parallelism);
        sim.set_window_policy(cfg.window_policy);
        if cfg.trace_capacity > 0 {
            sim.enable_tracing(cfg.trace_capacity);
        }
        if cfg.metrics {
            sim.enable_metrics();
        }
        let mut programs = programs.into_iter().zip(recovery);
        let mut node_nics = Vec::new();
        let mut ports = Vec::new();
        let mut nics = Vec::new();
        let mut hosts = Vec::new();
        for node in 0..nodes {
            let shard = ShardId(node);
            let nic = sim.add_component(
                shard,
                &format!("nic{node}"),
                Nic::new(node, cfg.nic).with_schedule(cfg.fault_schedule.clone()),
            );
            let port = sim.add_component(
                shard,
                &format!("net{node}"),
                FabricPort::with_faults(cfg.net, nodes, node, nic, PORT_NET_RX, cfg.nic.faults)
                    .with_schedule(cfg.fault_schedule.clone()),
            );
            sim.connect(nic, PORT_NET_TX, port, PORT_FP_INJECT, Time::ZERO);
            node_nics.push(nic);
            ports.push(port);
            for local in 0..k {
                let rank = node * k + local;
                if rank >= n {
                    break;
                }
                let (program, recovery) = programs.next().expect("one program per rank");
                let host = Cluster::faulted_host(&cfg, rank, n, nic, program, recovery, node);
                let host = sim.add_component(shard, &format!("host{rank}"), host);
                sim.connect(
                    nic,
                    host_comp_port(rank % k),
                    host,
                    PORT_COMPLETION,
                    cfg.nic.bus_latency,
                );
                nics.push(nic);
                hosts.push(host);
            }
        }
        mpiq_net::wire_ports(&mut sim, &ports, &cfg.net);
        Cluster {
            engine: Engine::Sharded(sim),
            nics,
            hosts,
            nodes,
            schedule: cfg.fault_schedule,
        }
    }

    /// The switched-fabric engine: [`Switch`] components routed by a
    /// [`TopoPlan`], one shard per *edge switch* (its attached nodes —
    /// `FabricPort`, NIC, hosts — live with it; core switches are
    /// round-robined). Ports run in uplink mode, so wiring is
    /// O(nodes + trunks) instead of the all-to-all O(nodes²):
    ///
    /// * node uplink → edge switch [`PORT_SW_IN`], at wire latency;
    /// * trunk `i` of each switch → neighbor's [`PORT_SW_IN`], at wire
    ///   latency (each direction its own link) — the only cross-shard
    ///   edges, feeding the window planner's per-edge lookahead;
    /// * switch node port → node's [`PORT_FP_WIRE`], at wire latency
    ///   (the receiving port charges downlink serialization).
    ///
    /// Scheduled (src, dst) link faults keep hub semantics: the *source*
    /// port refuses the frame, blackholing the pair end-to-end no matter
    /// how many switches sit between.
    fn new_sharded_topo(
        cfg: ClusterConfig,
        programs: Vec<Box<dyn AppProgram>>,
        recovery: Vec<Option<Box<dyn AppProgram>>>,
        n: u32,
        k: u32,
        nodes: u32,
        plan: TopoPlan,
    ) -> Cluster {
        let plan = Arc::new(plan);
        let mut sim = ShardedSim::new(cfg.seed, plan.shards as usize);
        sim.set_threads(cfg.parallelism.max(1));
        sim.set_window_policy(cfg.window_policy);
        if cfg.trace_capacity > 0 {
            sim.enable_tracing(cfg.trace_capacity);
        }
        if cfg.metrics {
            sim.enable_metrics();
        }
        let sw: Vec<ComponentId> = (0..plan.switches())
            .map(|s| {
                sim.add_component(
                    ShardId(plan.shard_of_switch[s]),
                    &format!("sw{s}"),
                    Switch::new(s, plan.clone(), cfg.net),
                )
            })
            .collect();
        let mut programs = programs.into_iter().zip(recovery);
        let mut nics = Vec::new();
        let mut hosts = Vec::new();
        let mut ports = Vec::new();
        for node in 0..nodes {
            let edge = plan.attach[node as usize];
            let shard = ShardId(plan.shard_of_switch[edge]);
            let nic = sim.add_component(
                shard,
                &format!("nic{node}"),
                Nic::new(node, cfg.nic).with_schedule(cfg.fault_schedule.clone()),
            );
            let port = sim.add_component(
                shard,
                &format!("net{node}"),
                FabricPort::with_faults(cfg.net, nodes, node, nic, PORT_NET_RX, cfg.nic.faults)
                    .with_schedule(cfg.fault_schedule.clone())
                    .with_uplink(),
            );
            sim.connect(nic, PORT_NET_TX, port, PORT_FP_INJECT, Time::ZERO);
            sim.connect(
                port,
                FabricPort::uplink_port(),
                sw[edge],
                PORT_SW_IN,
                cfg.net.wire_latency,
            );
            ports.push(port);
            for local in 0..k {
                let rank = node * k + local;
                if rank >= n {
                    break;
                }
                let (program, recovery) = programs.next().expect("one program per rank");
                let host = Cluster::faulted_host(&cfg, rank, n, nic, program, recovery, node);
                let host = sim.add_component(shard, &format!("host{rank}"), host);
                sim.connect(
                    nic,
                    host_comp_port(rank % k),
                    host,
                    PORT_COMPLETION,
                    cfg.nic.bus_latency,
                );
                nics.push(nic);
                hosts.push(host);
            }
        }
        for (a, ns) in plan.neighbors.iter().enumerate() {
            for (i, &b) in ns.iter().enumerate() {
                sim.connect(
                    sw[a],
                    Switch::trunk_port(&plan, a, i),
                    sw[b],
                    PORT_SW_IN,
                    cfg.net.wire_latency,
                );
            }
        }
        for (s, att) in plan.attached.iter().enumerate() {
            for (j, &v) in att.iter().enumerate() {
                sim.connect(
                    sw[s],
                    Switch::node_port(&plan, s, j),
                    ports[v as usize],
                    PORT_FP_WIRE,
                    cfg.net.wire_latency,
                );
            }
        }
        Cluster {
            engine: Engine::Sharded(sim),
            nics,
            hosts,
            nodes,
            schedule: cfg.fault_schedule,
        }
    }

    /// Is this cluster on the sharded (partitioned-executor) engine?
    pub fn is_sharded(&self) -> bool {
        matches!(self.engine, Engine::Sharded(_))
    }

    /// The underlying single-threaded [`Simulation`], for advanced
    /// drivers that poke at engine internals. `None` on the sharded
    /// engine — use the engine-neutral accessors instead.
    pub fn sim(&self) -> Option<&Simulation> {
        match &self.engine {
            Engine::Single(sim) => Some(sim),
            Engine::Sharded(_) => None,
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> u32 {
        self.nics.len() as u32
    }

    /// Run to completion; returns the number of events processed. Ranks
    /// the fault schedule crash-stops are exempt from the finish check —
    /// a crashed rank *can't* finish, and that is not a deadlock.
    pub fn run(&mut self) -> u64 {
        let n = match &mut self.engine {
            Engine::Single(sim) => sim.run(),
            Engine::Sharded(sim) => sim.run(),
        };
        // Sanity: every surviving program should have finished (deadlock
        // detector).
        for (rank, &h) in self.hosts.iter().enumerate() {
            let (done, crashed, now) = match &self.engine {
                Engine::Single(sim) => {
                    let host = sim.component::<Host>(h).expect("host downcast");
                    (host.done(), host.crashed(), sim.now())
                }
                Engine::Sharded(sim) => {
                    let host = sim.component::<Host>(h).expect("host downcast");
                    (host.done(), host.crashed(), sim.now())
                }
            };
            assert!(
                done || crashed,
                "rank {rank} did not finish: deadlock or missing completion \
                 (events processed: {n}, time: {now})",
            );
        }
        n
    }

    /// Have all programs called `finish` (or crash-stopped — a crashed
    /// rank never finishes and is not waited on)?
    pub fn all_done(&self) -> bool {
        self.hosts.iter().all(|&h| {
            let host: &Host = match &self.engine {
                Engine::Single(sim) => sim.component(h).expect("host downcast"),
                Engine::Sharded(sim) => sim.component(h).expect("host downcast"),
            };
            host.done() || host.crashed()
        })
    }

    /// Run under a watchdog: like [`Cluster::run`], but a stall produces
    /// a typed [`Diagnosis`] instead of a hang or a bare assertion.
    ///
    /// Two stall modes are distinguished:
    ///
    /// * The simulation *quiesces* (event heap drains) before every rank
    ///   finishes — a true deadlock: some progress obligation (a credit
    ///   grant, a clear-to-send, a frame past its retry budget) is gone
    ///   for good. → [`StallKind::QuiescentDeadlock`].
    /// * Virtual time reaches `deadline` with events still pending — the
    ///   run is alive but not converging. → [`StallKind::DeadlineExceeded`].
    ///
    /// The diagnosis carries every component's self-reported health:
    /// queue depths, parked sends, outstanding rendezvous, in-flight
    /// retransmit windows, dead peers, unfinished ranks.
    pub fn run_watched(&mut self, deadline: Time) -> Result<u64, Box<Diagnosis>> {
        let n = match &mut self.engine {
            Engine::Single(sim) => sim.run_until(deadline),
            Engine::Sharded(sim) => sim.run_until(deadline),
        };
        if self.all_done() {
            return Ok(n);
        }
        let idle = match &self.engine {
            Engine::Single(sim) => sim.is_idle(),
            Engine::Sharded(sim) => sim.is_idle(),
        };
        // A stall while the schedule holds the fabric in more than one
        // connected group is a partition symptom, not a leak: name the
        // groups so the operator knows which side each rank is on.
        let now = self.now();
        let partition = self.schedule.as_ref().and_then(|s| {
            let groups = s.groups_at(self.nodes, now);
            (groups.len() > 1).then_some(groups)
        });
        let kind = match partition {
            Some(groups) => StallKind::Partitioned { groups },
            None if idle => StallKind::QuiescentDeadlock,
            None => StallKind::DeadlineExceeded,
        };
        let diagnosis = match &self.engine {
            Engine::Single(sim) => sim.diagnose(kind),
            Engine::Sharded(sim) => sim.diagnose(kind),
        };
        Err(Box::new(diagnosis))
    }

    /// Inspect a rank's host, after (or between) runs — e.g.
    /// [`Host::completions`], the host-round-trip count NIC collective
    /// offload exists to shrink.
    pub fn host(&self, rank: u32) -> &Host {
        let id = self.hosts[rank as usize];
        match &self.engine {
            Engine::Single(sim) => sim.component(id).expect("host downcast"),
            Engine::Sharded(sim) => sim.component(id).expect("host downcast"),
        }
    }

    /// Inspect the NIC serving a rank, after (or between) runs.
    pub fn nic(&self, rank: u32) -> &Nic {
        let id = self.nics[rank as usize];
        match &self.engine {
            Engine::Single(sim) => sim.component(id).expect("nic downcast"),
            Engine::Sharded(sim) => sim.component(id).expect("nic downcast"),
        }
    }

    /// Final simulated time.
    pub fn now(&self) -> Time {
        match &self.engine {
            Engine::Single(sim) => sim.now(),
            Engine::Sharded(sim) => sim.now(),
        }
    }

    /// The cluster's statistics, merged across engine shards in shard
    /// order (single-engine clusters have exactly one "shard"), with each
    /// NIC's counters rendered into it. Owned: it is assembled on demand.
    pub fn stats(&self) -> Stats {
        let mut stats = match &self.engine {
            Engine::Single(sim) => sim.stats().clone(),
            Engine::Sharded(sim) => sim.stats_merged(),
        };
        // Ranks on one node share its NIC (block distribution), so the
        // distinct NICs are the runs of equal ids.
        let mut nics = self.nics.clone();
        nics.dedup();
        for id in nics {
            let nic: &Nic = match &self.engine {
                Engine::Single(sim) => sim.component(id).expect("nic downcast"),
                Engine::Sharded(sim) => sim.component(id).expect("nic downcast"),
            };
            nic.render_stats(&mut stats);
        }
        stats
    }

    /// The metrics registry, merged across engine shards.
    pub fn metrics(&self) -> Metrics {
        match &self.engine {
            Engine::Single(sim) => sim.metrics().clone(),
            Engine::Sharded(sim) => sim.metrics_merged(),
        }
    }

    /// Chrome-trace JSON for the whole run (canonical record order on
    /// either engine).
    pub fn chrome_trace(&self) -> String {
        match &self.engine {
            Engine::Single(sim) => mpiq_dessim::chrome_trace(sim),
            Engine::Sharded(sim) => mpiq_dessim::chrome_trace_sharded(sim),
        }
    }

    /// Trace records currently retained.
    pub fn trace_record_count(&self) -> usize {
        match &self.engine {
            Engine::Single(sim) => sim.trace().records().count(),
            Engine::Sharded(sim) => sim.trace_record_count(),
        }
    }

    /// Trace records evicted by ring capacity.
    pub fn trace_dropped(&self) -> u64 {
        match &self.engine {
            Engine::Single(sim) => sim.trace().dropped(),
            Engine::Sharded(sim) => sim.trace_dropped(),
        }
    }
}
