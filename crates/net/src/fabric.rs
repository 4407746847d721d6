//! The fabric's wire model, shared by every [`FabricPort`] and
//! [`Switch`]: network parameters, per-pair latency profiles, and the
//! serialization charge.
//!
//! [`FabricPort`]: crate::port::FabricPort
//! [`Switch`]: crate::switch::Switch

use crate::message::NodeId;
use mpiq_dessim::prelude::*;

/// Per-pair wire-latency shape overlaid on [`NetConfig::wire_latency`].
///
/// The sharded engine derives its conservative lookahead from link
/// latencies, so heterogeneous wires are first-class here: a single
/// short link in an otherwise long-haul topology is exactly the shape
/// that separates per-edge window planning from a global window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WireProfile {
    /// Every pair uses [`NetConfig::wire_latency`].
    #[default]
    Uniform,
    /// Nodes `a` and `b` are joined by a `short` wire (both directions);
    /// every other pair uses [`NetConfig::wire_latency`].
    ShortPair { a: NodeId, b: NodeId, short: Time },
}

/// Network parameters (Table III: 200 ns wire latency).
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Propagation latency for any message (see [`NetConfig::profile`]
    /// for per-pair overrides).
    pub wire_latency: Time,
    /// Link bandwidth in bytes per nanosecond (serialization).
    pub bytes_per_ns: u64,
    /// Per-pair latency overrides.
    pub profile: WireProfile,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            wire_latency: Time::from_ns(200),
            // Red Storm-class injection bandwidth, ~2 GB/s.
            bytes_per_ns: 2,
            profile: WireProfile::Uniform,
        }
    }
}

impl NetConfig {
    /// Wire latency between two nodes under the configured profile
    /// (symmetric; the diagonal also answers `wire_latency`).
    pub fn latency_between(&self, src: NodeId, dst: NodeId) -> Time {
        match self.profile {
            WireProfile::Uniform => self.wire_latency,
            WireProfile::ShortPair { a, b, short } => {
                if (src == a && dst == b) || (src == b && dst == a) {
                    short
                } else {
                    self.wire_latency
                }
            }
        }
    }

    /// Serialization time for a frame of `bytes`, rounded up to the next
    /// picosecond so short frames are never undercharged to zero.
    pub fn serialize(&self, bytes: u64) -> Time {
        Time::from_ps((bytes * 1000).div_ceil(self.bytes_per_ns))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::message::{Message, MsgHeader, MsgKind};
    use crate::port::{wire_ports, FabricPort, PORT_FP_INJECT};
    use mpiq_dessim::{FaultConfig, ShardId, ShardedSim};
    use std::sync::{Arc, Mutex};

    pub(crate) fn msg(src: NodeId, dst: NodeId, len: u32, seq: u64) -> Message {
        Message::new(
            MsgHeader {
                src_node: src,
                dst_node: dst,
                dst_rank: dst,
                context: 0,
                src_rank: src as u16,
                tag: 0,
                payload_len: len,
                kind: MsgKind::Eager,
                seq,
            },
            Message::test_payload(len as usize, 0),
        )
    }

    type DeliveryLog = Arc<Mutex<Vec<(Time, u64, bool)>>>;

    struct Sink {
        got: DeliveryLog,
    }
    impl Component for Sink {
        fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            let m = ev.payload.downcast::<Message>().unwrap();
            self.got.lock().unwrap().push((ctx.now(), m.header.seq, m.link.crc_ok));
        }
    }

    /// A fabric of `nodes` ports, one shard per node, each delivering
    /// into a sink that logs (arrival time, seq, CRC ok). Shared with the
    /// port tests.
    pub(crate) struct Rig {
        pub(crate) sim: ShardedSim,
        ports: Vec<ComponentId>,
        logs: Vec<DeliveryLog>,
    }

    impl Rig {
        pub(crate) fn new(nodes: u32, cfg: NetConfig, faults: FaultConfig) -> Rig {
            let mut sim = ShardedSim::new(7, nodes as usize);
            let mut ports = Vec::new();
            let mut logs = Vec::new();
            for n in 0..nodes {
                let log: DeliveryLog = Arc::new(Mutex::new(Vec::new()));
                let sink = sim.add_component(ShardId(n), "sink", Sink { got: log.clone() });
                let port = FabricPort::with_faults(cfg, nodes, n, sink, InPort(0), faults);
                ports.push(sim.add_component(ShardId(n), "net", port));
                logs.push(log);
            }
            wire_ports(&mut sim, &ports, &cfg);
            Rig { sim, ports, logs }
        }

        pub(crate) fn send(&mut self, m: Message, at: Time) {
            let src = m.header.src_node as usize;
            self.sim.post(self.ports[src], PORT_FP_INJECT, Payload::new(m), at);
        }

        pub(crate) fn run(&mut self) -> Vec<Vec<(Time, u64, bool)>> {
            self.sim.run();
            self.logs.iter().map(|l| l.lock().unwrap().clone()).collect()
        }

        pub(crate) fn stat(&self, key: &str) -> u64 {
            self.sim.stats_merged().get(key)
        }
    }

    fn rig(nodes: u32) -> Rig {
        Rig::new(nodes, NetConfig::default(), FaultConfig::none())
    }

    #[test]
    fn zero_payload_message_takes_wire_latency_plus_header_time() {
        let mut r = rig(2);
        r.send(msg(0, 1, 0, 1), Time::ZERO);
        let (t, seq, _) = r.run()[1][0];
        assert_eq!(seq, 1);
        // 32 header bytes at 2 B/ns = 16 ns, + 200 ns wire.
        assert_eq!(t, Time::from_ns(216));
    }

    #[test]
    fn bandwidth_scales_with_length() {
        let mut r = rig(2);
        r.send(msg(0, 1, 4096, 1), Time::ZERO);
        assert_eq!(r.run()[1][0].0, Time::from_ns(200 + (4096 + 32) / 2));
    }

    #[test]
    fn serialization_rounds_up_not_down() {
        // 7 B/ns does not divide the 32-byte header: 32000/7 ps = 4571.43,
        // which must round *up* to 4572 ps, not truncate to 4571.
        let cfg = NetConfig {
            wire_latency: Time::from_ns(200),
            bytes_per_ns: 7,
            ..NetConfig::default()
        };
        let mut r = Rig::new(2, cfg, FaultConfig::none());
        r.send(msg(0, 1, 0, 0), Time::ZERO);
        assert_eq!(r.run()[1][0].0, Time::from_ns(200) + Time::from_ps(4572));
    }

    #[test]
    fn sub_bandwidth_frame_still_charged_nonzero() {
        // A 1-byte frame on a 64 B/ns link is 15.625 ps of serialization;
        // a truncating division would charge 15 ps here but 0 ps for any
        // fabric fast enough to move the frame in under a picosecond.
        let at = |bytes_per_ns| NetConfig {
            wire_latency: Time::ZERO,
            bytes_per_ns,
            ..NetConfig::default()
        };
        assert_eq!(at(64).serialize(1), Time::from_ps(16));
        assert!(at(2048).serialize(1) > Time::ZERO, "sub-ps frame charged zero");
    }

    #[test]
    fn same_destination_serializes_and_preserves_order() {
        // Two sources into one receiver share its ingress link: frames
        // queue FIFO behind each other, each source's order intact.
        let mut r = rig(3);
        for seq in 0..2 {
            r.send(msg(0, 2, 1000, seq), Time::ZERO);
            r.send(msg(1, 2, 1000, 10 + seq), Time::ZERO);
        }
        let got = r.run().swap_remove(2);
        let from0: Vec<u64> = got.iter().map(|&(_, s, _)| s).filter(|&s| s < 10).collect();
        let from1: Vec<u64> = got.iter().map(|&(_, s, _)| s).filter(|&s| s >= 10).collect();
        assert_eq!((from0, from1), (vec![0, 1], vec![10, 11]), "ordering violated");
        // Each 1032-byte message serializes for 516 ns on the shared link.
        let times: Vec<Time> = got.iter().map(|&(t, _, _)| t).collect();
        let want: Vec<Time> = (0..4).map(|k| Time::from_ns(716 + 516 * k)).collect();
        assert_eq!(times, want);
    }

    #[test]
    fn different_destinations_do_not_contend() {
        let mut r = rig(3);
        r.send(msg(0, 1, 1000, 0), Time::ZERO);
        r.send(msg(0, 2, 1000, 1), Time::ZERO);
        let got = r.run();
        assert_eq!(got[1][0].0, Time::from_ns(716));
        assert_eq!(got[2][0].0, Time::from_ns(716));
    }

    #[test]
    fn drops_are_counted_and_deterministic() {
        let faults: FaultConfig = "seed=3,drop=0.2".parse().unwrap();
        let run = || {
            let mut r = Rig::new(2, NetConfig::default(), faults);
            for seq in 0..200 {
                r.send(msg(0, 1, 64, seq), Time::from_ns(seq * 1000));
            }
            let delivered: Vec<u64> = r.run()[1].iter().map(|&(_, s, _)| s).collect();
            (delivered, r.stat("net.faults.dropped"))
        };
        let (d1, dropped1) = run();
        let (d2, dropped2) = run();
        assert_eq!(d1, d2, "same seed must drop the same messages");
        assert_eq!(dropped1, dropped2);
        assert!(dropped1 > 10 && dropped1 < 80, "dropped {dropped1} of 200");
        assert_eq!(d1.len() as u64 + dropped1, 200);
    }

    #[test]
    fn duplicates_deliver_twice_in_order() {
        let faults: FaultConfig = "seed=3,dup=1.0".parse().unwrap();
        let mut r = Rig::new(2, NetConfig::default(), faults);
        r.send(msg(0, 1, 0, 9), Time::ZERO);
        let got = r.run().swap_remove(1);
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].1, got[1].1), (9, 9));
        // Second copy queues behind the first on the destination link.
        assert!(got[1].0 > got[0].0);
        assert_eq!(r.stat("net.faults.duplicated"), 1);
    }

    #[test]
    fn corruption_clears_crc_flag() {
        let faults: FaultConfig = "seed=3,corrupt=1.0".parse().unwrap();
        let mut r = Rig::new(2, NetConfig::default(), faults);
        r.send(msg(0, 1, 0, 1), Time::ZERO);
        let got = r.run().swap_remove(1);
        assert_eq!(got.len(), 1);
        assert!(!got[0].2, "frame should arrive with failed CRC");
        assert_eq!(r.stat("net.faults.corrupted"), 1);
    }

    /// `latency_between` is symmetric for every profile — both directions
    /// of a `ShortPair` answer the short latency, and every other pair
    /// (including pairs sharing one endpoint with the short pair) answers
    /// `wire_latency` in both directions. The switched topologies reuse
    /// `wire_latency` per hop, so this is the invariant that keeps
    /// multi-hop paths symmetric too.
    #[test]
    fn latency_between_is_symmetric_for_all_profiles() {
        let uniform = NetConfig::default();
        let short = NetConfig {
            profile: WireProfile::ShortPair {
                a: 1,
                b: 3,
                short: Time::from_ns(10),
            },
            ..NetConfig::default()
        };
        for cfg in [uniform, short] {
            for s in 0..5u32 {
                for d in 0..5u32 {
                    assert_eq!(
                        cfg.latency_between(s, d),
                        cfg.latency_between(d, s),
                        "asymmetric wire {s}<->{d}"
                    );
                }
            }
        }
        assert_eq!(short.latency_between(3, 1), Time::from_ns(10));
        assert_eq!(short.latency_between(1, 3), Time::from_ns(10));
        // Sharing an endpoint with the short pair does not shorten a wire.
        assert_eq!(short.latency_between(1, 2), short.wire_latency);
        assert_eq!(short.latency_between(2, 1), short.wire_latency);
    }

    #[test]
    fn empty_fault_config_changes_nothing() {
        let mut r = Rig::new(2, NetConfig::default(), FaultConfig::none());
        r.send(msg(0, 1, 0, 1), Time::ZERO);
        assert_eq!(r.run()[1][0].0, Time::from_ns(216));
        assert_eq!(r.stat("net.faults.dropped"), 0);
    }
}
