//! The fabric: one [`FabricPort`] per node.
//!
//! A single crossbar component would be a single *shard* under the
//! sharded engine — every message in the cluster would serialize
//! through one island and the worker threads would have nothing to
//! parallelize. The crossbar is therefore split into per-node ports:
//! each node's port lives in that node's shard, and the only
//! cross-shard edges are the port-to-port wires, whose 200 ns latency
//! becomes the conservative lookahead window.
//!
//! Timing is receiver-side. The source port forwards at `t`, the frame
//! crosses the wire (`t + wire`), and the *destination* port serializes:
//! `deliver = max(t + wire, busy) + ser`, advancing its ingress busy
//! window to `deliver`. That is a crossbar whose per-destination link
//! serializes before the wire (`max(t, busy) + ser + wire`), shifted
//! whole onto the receiver, so bandwidth contention, FIFO ordering per
//! destination, and per-(src, dst) order are all preserved. Two sources
//! tying at one destination in the same picosecond are ordered by
//! (source shard, emission) — the same at every thread count.
//!
//! Faults roll at the *source* port from a per-node deterministic
//! stream, so a node's fault verdicts never depend on other nodes'
//! traffic — which is what keeps fault campaigns identical across thread
//! counts too.

use crate::fabric::NetConfig;
use crate::message::{Message, NodeId};
use mpiq_dessim::fault::{FaultConfig, FaultPlan, FaultSchedule};
use mpiq_dessim::prelude::*;
use mpiq_dessim::trace::{ComponentFaultKind, TraceEvent};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Input port where the node's own NIC injects outbound messages.
pub const PORT_FP_INJECT: InPort = InPort(0);

/// Input port where frames arrive from peer ports over the wire.
pub const PORT_FP_WIRE: InPort = InPort(1);

/// Fault-plan site id for node `n`'s fabric port (offset keeps the
/// per-node streams clear of the NIC firmware's lane sites).
fn port_fault_site(node: NodeId) -> u64 {
    0x4000_0000 + node as u64
}

/// One node's attachment to the distributed fabric.
///
/// Wiring contract (the cluster builder owns this):
/// * NIC `PORT_NET_TX` -> this port's [`PORT_FP_INJECT`], zero latency
///   (intra-shard).
/// * This port's `OutPort(d)` -> node `d`'s port [`PORT_FP_WIRE`], at
///   [`NetConfig::wire_latency`] — including `d == node` (self-sends
///   take a wire trip too).
/// * Arrivals are handed to the local NIC by direct send to the
///   component id and input port given at construction, so `mpiq-net`
///   needs no dependency on the NIC crate.
///
/// In **uplink mode** ([`FabricPort::with_uplink`], used by the switched
/// topologies) the per-destination out ports collapse into the single
/// [`uplink_port`](FabricPort::uplink_port), which the builder wires to
/// the node's edge switch; routing to the destination happens in the
/// switch graph. Source-side fault semantics (the scheduled (src, dst)
/// edge check and the wire-fault rolls) are unchanged, so a downed edge
/// blackholes the pair end-to-end regardless of the path between them.
pub struct FabricPort {
    cfg: NetConfig,
    nodes: u32,
    /// Emit everything on the single uplink port instead of per-dst ports.
    uplink: bool,
    /// The local NIC and its receive port, for delivery after
    /// serialization.
    nic: ComponentId,
    nic_rx: InPort,
    /// This node's ingress link occupancy (receiver-side serialization).
    busy_until: Time,
    faults: Option<FaultPlan>,
    /// Component-level fault timeline; `None` keeps the scheduled path
    /// out of the hot loop entirely. Checked at the *source* port (like
    /// the message-level fault rolls), so the verdict is a function of
    /// local state only and identical at any thread count.
    schedule: Option<Arc<FaultSchedule>>,
    /// Last observed up/down state per undirected edge (transition
    /// telemetry; see `scheduled_edge_refuses`).
    edge_seen_down: BTreeMap<(u32, u32), bool>,
}

impl FabricPort {
    /// A fault-free port for `node` in a fabric of `nodes`.
    pub fn new(cfg: NetConfig, nodes: u32, node: NodeId, nic: ComponentId, nic_rx: InPort) -> FabricPort {
        FabricPort::with_faults(cfg, nodes, node, nic, nic_rx, FaultConfig::none())
    }

    /// A port with a (possibly empty) fault campaign; verdicts come from
    /// a stream private to `node`.
    pub fn with_faults(
        cfg: NetConfig,
        nodes: u32,
        node: NodeId,
        nic: ComponentId,
        nic_rx: InPort,
        faults: FaultConfig,
    ) -> FabricPort {
        FabricPort {
            cfg,
            nodes,
            uplink: false,
            nic,
            nic_rx,
            busy_until: Time::ZERO,
            faults: faults
                .net_active()
                .then(|| FaultPlan::new(faults, port_fault_site(node))),
            schedule: None,
            edge_seen_down: BTreeMap::new(),
        }
    }

    /// Arm a component-level fault timeline: edges the schedule marks
    /// down refuse (silently drop) every frame until they heal.
    pub fn with_schedule(mut self, schedule: Option<Arc<FaultSchedule>>) -> FabricPort {
        self.schedule = schedule.filter(|s| !s.is_empty());
        self
    }

    /// Switch to uplink mode: every surviving frame leaves on
    /// [`uplink_port`](FabricPort::uplink_port) toward the edge switch.
    pub fn with_uplink(mut self) -> FabricPort {
        self.uplink = true;
        self
    }

    /// Output port carrying frames to node `dst`'s [`PORT_FP_WIRE`].
    pub fn out_port(dst: NodeId) -> OutPort {
        OutPort(dst as u16)
    }

    /// The single out port used in uplink mode.
    pub fn uplink_port() -> OutPort {
        OutPort(0)
    }

    /// Source side: roll faults and put surviving copies on the wire.
    /// Frames travel in the box the NIC put them in: the port forwards
    /// it without copying the message.
    fn inject(&mut self, mut msg: Box<Message>, ctx: &mut Ctx<'_>) {
        let dst = msg.header.dst_node;
        assert!(
            dst < self.nodes,
            "message to unknown node {dst} (fabric has {} nodes): \
             {:?} seq={} from node {} at t={}",
            self.nodes,
            msg.header.kind,
            msg.header.seq,
            msg.header.src_node,
            ctx.now()
        );
        // Component-level faults outrank message-level ones: a frame on a
        // downed edge never reaches the wire-fault lottery at all.
        if let Some(sched) = self.schedule.clone() {
            if scheduled_edge_refuses(
                &sched,
                &mut self.edge_seen_down,
                msg.header.src_node,
                dst,
                ctx,
            ) {
                return;
            }
        }
        let mut duplicate = false;
        if let Some(plan) = &mut self.faults {
            let verdict = plan.roll_wire();
            if verdict.drop {
                ctx.stats().incr("net.faults.dropped");
                return;
            }
            if verdict.corrupt {
                ctx.stats().incr("net.faults.corrupted");
                msg.link.crc_ok = false;
            }
            duplicate = verdict.duplicate;
        }
        if duplicate {
            ctx.stats().incr("net.faults.duplicated");
            self.put_on_wire(msg.clone(), ctx);
        }
        self.put_on_wire(msg, ctx);
    }

    fn put_on_wire(&mut self, msg: Box<Message>, ctx: &mut Ctx<'_>) {
        ctx.stats().incr("net.messages");
        ctx.stats().add("net.bytes", msg.wire_bytes());
        let port = if self.uplink {
            Self::uplink_port()
        } else {
            Self::out_port(msg.header.dst_node)
        };
        ctx.emit(port, Payload::from_box(msg));
    }

    /// Receiver side: occupy the ingress link, then hand the frame to
    /// the local NIC.
    fn receive(&mut self, msg: Box<Message>, ctx: &mut Ctx<'_>) {
        let ser = self.cfg.serialize(msg.wire_bytes());
        let start = ctx.now().max(self.busy_until);
        self.busy_until = start + ser;
        let delay = (start + ser) - ctx.now();
        ctx.send_to(self.nic, self.nic_rx, Payload::from_box(msg), delay);
    }
}

impl Component for FabricPort {
    fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        let msg = ev.payload.downcast::<Message>().unwrap_or_else(|p| {
            panic!(
                "fabric port accepts Message payloads only; got {p:?} on port {:?} at t={}",
                ev.port, ev.time
            )
        });
        match ev.port {
            PORT_FP_INJECT => self.inject(msg, ctx),
            PORT_FP_WIRE => self.receive(msg, ctx),
            other => panic!("fabric port has no input port {other:?}"),
        }
    }
}

/// Scheduled-edge check at a source port: look up the edge's state at
/// `now`, count/trace the transition if it differs from the last
/// *observed* state (edge-triggered on traffic — both telemetry sinks are no-ops
/// unless the harness enabled them), and say whether the frame must be
/// refused. Pure function of `(schedule, edge, now)` plus locally
/// observed traffic, so it is deterministic at any thread count.
fn scheduled_edge_refuses(
    schedule: &Arc<FaultSchedule>,
    edge_seen_down: &mut BTreeMap<(u32, u32), bool>,
    src: u32,
    dst: u32,
    ctx: &mut Ctx<'_>,
) -> bool {
    let down = schedule.edge_down(src, dst, ctx.now());
    let key = (src.min(dst), src.max(dst));
    let seen = edge_seen_down.entry(key).or_insert(false);
    if *seen != down {
        *seen = down;
        ctx.metrics().add("fault.flap_transitions", 1);
        ctx.trace(TraceEvent::ComponentFault {
            kind: if down {
                ComponentFaultKind::LinkDown
            } else {
                ComponentFaultKind::LinkUp
            },
            node: key.0,
            peer: key.1,
        });
    }
    if down {
        ctx.stats().incr("net.sched.edge_drops");
    }
    down
}

/// Wire every pair of ports together (including each port to itself) at
/// the per-pair wire latency from [`NetConfig::latency_between`].
/// `ports[n]` must be node `n`'s [`FabricPort`]. In a sharded build this
/// registers the cross-shard edges the window planner derives per-edge
/// lookahead from — a heterogeneous [`WireProfile`] here is exactly what
/// lets shards joined by long wires stop synchronizing at a short wire's
/// cadence.
///
/// [`WireProfile`]: crate::fabric::WireProfile
pub fn wire_ports(sim: &mut mpiq_dessim::ShardedSim, ports: &[ComponentId], cfg: &NetConfig) {
    for (s, &src) in ports.iter().enumerate() {
        for (d, &dst) in ports.iter().enumerate() {
            sim.connect(
                src,
                FabricPort::out_port(d as NodeId),
                dst,
                PORT_FP_WIRE,
                cfg.latency_between(s as NodeId, d as NodeId),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::tests::{msg, Rig};

    fn rig(nodes: u32, threads: usize, faults: FaultConfig) -> Rig {
        let mut r = Rig::new(nodes, NetConfig::default(), faults);
        r.sim.set_threads(threads);
        r
    }

    #[test]
    fn delivery_time_matches_hub_model() {
        let mut r = rig(2, 1, FaultConfig::none());
        r.send(msg(0, 1, 0, 1), Time::ZERO);
        let (t, seq, crc) = r.run()[1][0];
        assert_eq!(seq, 1);
        assert!(crc);
        // 200 ns wire + 32 header bytes at 2 B/ns = 16 ns — a crossbar's
        // total, with serialization on the receive side of the wire.
        assert_eq!(t, Time::from_ns(216));
    }

    #[test]
    fn receiver_link_serializes_and_preserves_order() {
        let mut r = rig(2, 1, FaultConfig::none());
        for seq in 0..4 {
            r.send(msg(0, 1, 1000, seq), Time::ZERO);
        }
        let got = r.run().swap_remove(1);
        let seqs: Vec<u64> = got.iter().map(|&(_, s, _)| s).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3], "per-(src,dst) order violated");
        // 1032 wire bytes serialize for 516 ns behind the 200 ns wire.
        assert_eq!(got[0].0, Time::from_ns(716));
        assert_eq!(got[1].0, Time::from_ns(716 + 516));
    }

    #[test]
    fn self_send_takes_the_wire() {
        let mut r = rig(2, 1, FaultConfig::none());
        r.send(msg(0, 0, 0, 5), Time::ZERO);
        assert_eq!(r.run()[0][0].0, Time::from_ns(216));
    }

    #[test]
    fn thread_count_does_not_change_deliveries_or_stats() {
        let faults: FaultConfig = "seed=3,drop=0.1,corrupt=0.05".parse().unwrap();
        let run = |threads: usize| {
            let mut r = rig(4, threads, faults);
            let mut seq = 0;
            for src in 0..4u32 {
                for dst in 0..4u32 {
                    for k in 0..8u64 {
                        r.send(msg(src, dst, 256, seq), Time::from_ns(k * 100));
                        seq += 1;
                    }
                }
            }
            let mut deliveries: Vec<(usize, Time, u64, bool)> = Vec::new();
            for (n, log) in r.run().into_iter().enumerate() {
                deliveries.extend(log.into_iter().map(|(t, s, c)| (n, t, s, c)));
            }
            deliveries.sort();
            (deliveries, r.sim.stats_merged().to_json())
        };
        let base = run(1);
        for t in [2, 4] {
            assert_eq!(run(t), base, "fabric diverged at {t} threads");
        }
    }

    #[test]
    fn short_pair_profile_shortens_exactly_that_wire() {
        use crate::fabric::WireProfile;
        let cfg = NetConfig {
            wire_latency: Time::from_us(1),
            profile: WireProfile::ShortPair {
                a: 0,
                b: 1,
                short: Time::from_ns(10),
            },
            ..NetConfig::default()
        };
        let mut r = Rig::new(3, cfg, FaultConfig::none());
        // The short pair's wire latency is the engine's tightest edge.
        assert_eq!(r.sim.lookahead(), Time::from_ns(10));
        r.send(msg(0, 1, 0, 1), Time::ZERO);
        r.send(msg(0, 2, 0, 2), Time::ZERO);
        let got = r.run();
        // 0 -> 1 rides the 10 ns wire; 0 -> 2 the 1 us wire; both then
        // serialize 32 header bytes at 2 B/ns = 16 ns on arrival.
        assert_eq!(got[1][0].0, Time::from_ns(10 + 16));
        assert_eq!(got[2][0].0, Time::from_ns(1000 + 16));
    }

    #[test]
    fn fault_verdicts_are_per_source_deterministic() {
        let faults: FaultConfig = "seed=9,drop=0.3".parse().unwrap();
        let run = || {
            let mut r = rig(2, 1, faults);
            for seq in 0..100 {
                r.send(msg(0, 1, 64, seq), Time::from_ns(seq * 1000));
            }
            r.run();
            r.stat("net.faults.dropped")
        };
        let a = run();
        assert_eq!(a, run(), "same seed must drop the same messages");
        assert!(a > 10 && a < 60, "dropped {a} of 100");
    }
}
