//! The single-threaded simulation driver.

use crate::component::{Component, ComponentId};
use crate::event::{InPort, OutPort, Payload};
use crate::rng::SimRng;
use crate::shard::{Shard, Topology};
use crate::stats::Stats;
use crate::time::Time;
use crate::trace::TraceRing;

/// A one-shard simulation run on the calling thread: owns components,
/// wiring, the event heap, virtual time, the RNG, and the statistics
/// registry. Unit tests and kernel-cost probes drive it directly;
/// clusters run on [`ShardedSim`](crate::ShardedSim). It executes events
/// with the same shard core, but honors a component's stop request
/// right after that event instead of at the next window barrier.
pub struct Simulation {
    topo: Topology,
    shard: Shard,
    started: bool,
}

impl Simulation {
    /// Create an empty simulation with a deterministic RNG seed.
    pub fn new(seed: u64) -> Simulation {
        Simulation {
            topo: Topology::default(),
            shard: Shard::new(0, SimRng::new(seed)),
            started: false,
        }
    }

    /// Register a component; the returned id addresses it in wiring and
    /// direct sends.
    pub fn add_component<C: Component>(&mut self, name: impl Into<String>, c: C) -> ComponentId {
        let local = self.shard.components.len() as u32;
        self.shard.components.push(Box::new(c));
        self.topo.add(0, local, name.into())
    }

    /// Wire `src.out_port` to `dst.in_port` with the given link latency.
    /// Re-connecting an already wired output port replaces the link.
    pub fn connect(
        &mut self,
        src: ComponentId,
        out_port: OutPort,
        dst: ComponentId,
        in_port: InPort,
        latency: Time,
    ) {
        self.topo.connect(src, out_port, dst, in_port, latency);
    }

    /// Schedule an event for delivery `delay` after the current time.
    pub fn post(&mut self, dst: ComponentId, port: InPort, payload: Payload, delay: Time) {
        let time = self.shard.now + delay;
        self.shard.push_local(time, dst, port, payload);
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.shard.now
    }

    /// Number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.shard.events_processed
    }

    /// Immutable view of the statistics registry.
    pub fn stats(&self) -> &Stats {
        &self.shard.stats
    }

    /// Keep the last `capacity` [`Ctx::trace`](crate::Ctx::trace) records
    /// for debugging.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.shard.trace = TraceRing::with_capacity(capacity);
    }

    /// The trace ring (render with
    /// [`TraceRing::render`](crate::trace::TraceRing::render)).
    pub fn trace(&self) -> &TraceRing {
        &self.shard.trace
    }

    /// Render the retained trace with component names resolved. Takes
    /// `&mut self` because rendering consumes the dropped-records notice
    /// (see [`TraceRing::render`]).
    pub fn render_trace(&mut self) -> String {
        let topo = &self.topo;
        self.shard.trace.render(|id| topo.name(id).to_string())
    }

    /// Downcast a component to its concrete type, if it opted in via
    /// [`Component::as_any`]. For harness inspection between runs.
    pub fn component<C: Component>(&self, id: ComponentId) -> Option<&C> {
        let (_, local) = self.topo.owner(id);
        self.shard.components[local as usize].as_any()?.downcast_ref()
    }

    /// Run until the heap is empty or a component requested a stop.
    /// Returns the number of events processed by this call.
    pub fn run(&mut self) -> u64 {
        self.run_until(Time::MAX)
    }

    /// Run events with `time <= horizon`; time advances to the last
    /// delivered event (not to the horizon itself if the heap runs dry).
    /// Start hooks run once, before the first event; a stop they request
    /// is ignored, and a stop requested by an event ends only this call.
    pub fn run_until(&mut self, horizon: Time) -> u64 {
        if !self.started {
            self.started = true;
            for global in 0..self.topo.len() {
                let id = ComponentId(global as u32);
                let (_, local) = self.topo.owner(id);
                self.shard.start_component(&self.topo, local, id);
            }
        }
        self.shard.stop = false;
        self.shard.run_until_stop(&self.topo, horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Ctx;
    use crate::event::Event;

    /// Counts events and forwards `n-1` copies of itself.
    struct Counter {
        seen: Vec<(Time, u64)>,
    }
    impl Component for Counter {
        fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            let n = *ev.payload.downcast::<u64>().unwrap();
            self.seen.push((ctx.now(), n));
            if n > 0 {
                ctx.wake_me(InPort(0), Payload::new(n - 1), Time::from_ns(5));
            }
        }
    }

    #[test]
    fn self_wakeups_advance_time() {
        let mut sim = Simulation::new(1);
        let c = sim.add_component("ctr", Counter { seen: vec![] });
        sim.post(c, InPort(0), Payload::new(3u64), Time::from_ns(2));
        sim.run();
        assert_eq!(sim.now(), Time::from_ns(2 + 3 * 5));
        assert_eq!(sim.events_processed(), 4);
    }

    struct Recorder {
        log: std::sync::Arc<std::sync::Mutex<Vec<(Time, u32)>>>,
        tag: u32,
    }
    impl Component for Recorder {
        fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            let _ = ev;
            self.log.lock().unwrap().push((ctx.now(), self.tag));
        }
    }

    #[test]
    fn ties_break_in_post_order() {
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut sim = Simulation::new(1);
        let a = sim.add_component(
            "a",
            Recorder {
                log: log.clone(),
                tag: 1,
            },
        );
        let b = sim.add_component(
            "b",
            Recorder {
                log: log.clone(),
                tag: 2,
            },
        );
        // Post b first, then a, at the same timestamp: delivery order must
        // match post order regardless of component ids.
        sim.post(b, InPort(0), Payload::empty(), Time::from_ns(10));
        sim.post(a, InPort(0), Payload::empty(), Time::from_ns(10));
        sim.run();
        let got: Vec<u32> = log.lock().unwrap().iter().map(|&(_, t)| t).collect();
        assert_eq!(got, vec![2, 1]);
    }

    #[test]
    fn wiring_routes_with_latency() {
        struct Fwd;
        impl Component for Fwd {
            fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
                let n = *ev.payload.downcast::<u64>().unwrap();
                if n > 0 {
                    ctx.emit(OutPort(0), Payload::new(n - 1));
                }
            }
        }
        let mut sim = Simulation::new(0);
        let a = sim.add_component("a", Fwd);
        let b = sim.add_component("b", Fwd);
        sim.connect(a, OutPort(0), b, InPort(0), Time::from_ns(100));
        sim.connect(b, OutPort(0), a, InPort(0), Time::from_ns(100));
        sim.post(a, InPort(0), Payload::new(4u64), Time::ZERO);
        sim.run();
        // 4 hops of 100 ns each.
        assert_eq!(sim.now(), Time::from_ns(400));
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = Simulation::new(0);
        let c = sim.add_component("ctr", Counter { seen: vec![] });
        sim.post(c, InPort(0), Payload::new(100u64), Time::ZERO);
        let n = sim.run_until(Time::from_ns(12));
        // events at t=0,5,10 are <= 12ns; t=15 is not.
        assert_eq!(n, 3);
        assert_eq!(sim.now(), Time::from_ns(10));
        // Remaining events still run afterwards.
        sim.run();
        assert_eq!(sim.events_processed(), 101);
    }

    #[test]
    fn stop_request_halts_run() {
        struct Stopper {
            after: u64,
        }
        impl Component for Stopper {
            fn on_event(&mut self, _ev: Event, ctx: &mut Ctx<'_>) {
                if self.after == 0 {
                    ctx.stop();
                } else {
                    self.after -= 1;
                    ctx.wake_me(InPort(0), Payload::empty(), Time::NS);
                }
            }
        }
        let mut sim = Simulation::new(0);
        let c = sim.add_component("s", Stopper { after: 5 });
        sim.post(c, InPort(0), Payload::empty(), Time::ZERO);
        let n = sim.run();
        assert_eq!(n, 6);
    }

    #[test]
    fn on_start_runs_once_before_events() {
        struct Starter {
            started: u32,
        }
        impl Component for Starter {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.started += 1;
                ctx.wake_me(InPort(0), Payload::empty(), Time::NS);
            }
            fn on_event(&mut self, _ev: Event, ctx: &mut Ctx<'_>) {
                ctx.stats().add("starter.events", 1);
            }
        }
        let mut sim = Simulation::new(0);
        let _ = sim.add_component("s", Starter { started: 0 });
        sim.run();
        assert_eq!(sim.stats().get("starter.events"), 1);
        sim.run(); // idempotent: start hooks don't fire again
        assert_eq!(sim.stats().get("starter.events"), 1);
    }

    #[test]
    fn tracing_records_component_activity() {
        struct Chatty;
        impl Component for Chatty {
            fn on_event(&mut self, _ev: Event, ctx: &mut Ctx<'_>) {
                ctx.trace("handled an event");
            }
        }
        let mut sim = Simulation::new(0);
        let c = sim.add_component("chatty", Chatty);
        sim.enable_tracing(8);
        sim.post(c, InPort(0), Payload::empty(), Time::from_ns(3));
        sim.run();
        let rendered = sim.render_trace();
        assert!(rendered.contains("chatty"));
        assert!(rendered.contains("handled an event"));
        assert!(rendered.contains("3ns"));
    }

    #[test]
    fn tracing_disabled_by_default() {
        struct Chatty;
        impl Component for Chatty {
            fn on_event(&mut self, _ev: Event, ctx: &mut Ctx<'_>) {
                ctx.trace("never retained");
            }
        }
        let mut sim = Simulation::new(0);
        let c = sim.add_component("chatty", Chatty);
        sim.post(c, InPort(0), Payload::empty(), Time::ZERO);
        sim.run();
        assert_eq!(sim.trace().records().count(), 0);
    }

    #[test]
    #[should_panic(expected = "unwired output port")]
    fn unwired_emit_panics_with_component_name() {
        struct Bad;
        impl Component for Bad {
            fn on_event(&mut self, _ev: Event, ctx: &mut Ctx<'_>) {
                ctx.emit(OutPort(7), Payload::empty());
            }
        }
        let mut sim = Simulation::new(0);
        let c = sim.add_component("bad", Bad);
        sim.post(c, InPort(0), Payload::empty(), Time::ZERO);
        sim.run();
    }
}
