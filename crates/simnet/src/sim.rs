//! The event scheduler and simulation driver.

use crate::link::{Link, LinkConfig, LinkId, TxOutcome};
use crate::node::{Action, Context, Message, Node, NodeFault, NodeId, TimerKey};
use crate::rng::Rng;
use crate::stats::{LinkStats, SimStats};
use crate::time::SimTime;
use crate::trace::{DropReason, TraceEvent, TraceSink, Violation};
use crate::wheel::WheelQueue;

/// Records `event` into an optional sink.
#[inline]
fn emit(sink: &mut Option<TraceSink>, at: SimTime, node: NodeId, event: TraceEvent) {
    if let Some(s) = sink {
        s.record(at, node, event);
    }
}

/// Clamps a wire size into the `u32` carried by packet trace events.
#[inline]
fn wire32(wire: usize) -> u32 {
    u32::try_from(wire).unwrap_or(u32::MAX)
}

/// What happens when a scheduled event fires.
#[derive(Debug)]
enum EventKind<M> {
    /// A packet arrives at node `node` via link `link` (their indices:
    /// `add_node` and `add_link` mint none past `u32::MAX`); `epoch`, the
    /// link's [`Link::epoch`] at sending, guards against delivery across a
    /// link-down transition.
    Arrival {
        node: u32,
        link: u32,
        epoch: u32,
        msg: M,
    },
    /// A node timer expires.
    Timer { node: NodeId, key: TimerKey },
    /// An externally scripted link state change.
    LinkState { link: LinkId, up: bool },
    /// A scheduled link-quality override (burst loss / corruption window);
    /// `None` leaves that parameter unchanged.
    LinkQuality {
        link: LinkId,
        loss: Option<f64>,
        corrupt: Option<f64>,
    },
    /// A scheduled node fault (crash / restart / cache wipe).
    NodeFault { node: NodeId, fault: NodeFault },
}

/// A deterministic discrete-event network simulator.
///
/// See the [crate documentation](crate) for an end-to-end example.
pub struct Simulator<M: Message> {
    time: SimTime,
    queue: WheelQueue<EventKind<M>>,
    nodes: Vec<Option<Box<dyn Node<M>>>>,
    links: Vec<Link>,
    rng: Rng,
    stats: SimStats,
    started: bool,
    /// Hard cap on dispatched events, to catch runaway protocols.
    event_limit: u64,
    /// Flight recorder; `None` (the default) records nothing and keeps
    /// every hot path a single branch.
    sink: Option<TraceSink>,
    /// Recycled action buffer handed to each node callback's [`Context`],
    /// so steady-state dispatch does not allocate per event.
    spare_actions: Vec<Action<M>>,
}

impl<M: Message> Simulator<M> {
    /// Bytes the wheel hands back per event: its time and what fires.
    /// Every event is moved at least twice, and a move of up to 128 bytes
    /// is inlined rather than a `memcpy` call, so message types assert
    /// this against 128.
    pub const EVENT_BYTES: usize = std::mem::size_of::<Option<(SimTime, EventKind<M>)>>();

    /// Creates a simulator whose randomness derives entirely from `seed`.
    pub fn new(seed: u64) -> Self {
        Simulator {
            time: SimTime::ZERO,
            queue: WheelQueue::new(),
            nodes: Vec::new(),
            links: Vec::new(),
            rng: Rng::seed_from_u64(seed),
            stats: SimStats::default(),
            started: false,
            event_limit: u64::MAX,
            sink: None,
            spare_actions: Vec::new(),
        }
    }

    /// Attaches (or replaces) a flight recorder holding at most
    /// `capacity` records.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.sink = Some(TraceSink::new(capacity));
    }

    /// Read access to the flight record, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.sink.as_ref()
    }

    /// The streaming audit's verdict on every event recorded so far,
    /// including the per-link cross-check against [`Simulator::stats`] —
    /// independent of the recorder's capacity. Empty when tracing is off.
    pub fn audit_trace(&self) -> Vec<Violation> {
        self.sink
            .as_ref()
            .map_or_else(Vec::new, |sink| sink.audit().violations(Some(&self.stats)))
    }

    /// Caps the number of dispatched events; [`Simulator::run`] panics when
    /// exceeded. Useful in tests to catch protocol livelock.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Adds a node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the simulator already has `u32::MAX + 1` nodes: an event
    /// names its node in 32 bits.
    pub fn add_node(&mut self, node: Box<dyn Node<M>>) -> NodeId {
        let id = NodeId(self.nodes.len());
        assert!(u32::try_from(id.0).is_ok(), "node ids end at u32::MAX");
        self.nodes.push(Some(node));
        id
    }

    /// Adds a link between `a` and `b` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`, either node does not exist, or the simulator
    /// already has `u32::MAX + 1` links: an event names its link in 32
    /// bits.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, config: LinkConfig) -> LinkId {
        assert_ne!(a, b, "self-links are not allowed");
        assert!(a.0 < self.nodes.len() && b.0 < self.nodes.len());
        let id = LinkId(self.links.len());
        assert!(u32::try_from(id.0).is_ok(), "link ids end at u32::MAX");
        self.links.push(Link::new(a, b, config));
        self.stats.links.push(LinkStats::default());
        id
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Read access to a link.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Simulator::add_link`].
    #[expect(
        clippy::indexing_slicing,
        reason = "documented contract: LinkIds are minted by add_link"
    )]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Downcasts node `id` to its concrete type.
    pub fn node<T: Node<M>>(&self, id: NodeId) -> Option<&T> {
        let node = self.nodes.get(id.0)?.as_deref()?;
        (node as &dyn std::any::Any).downcast_ref::<T>()
    }

    /// Mutable downcast of node `id` to its concrete type.
    pub fn node_mut<T: Node<M>>(&mut self, id: NodeId) -> Option<&mut T> {
        let node = self.nodes.get_mut(id.0)?.as_deref_mut()?;
        (node as &mut dyn std::any::Any).downcast_mut::<T>()
    }

    /// Schedules a scripted link-state change at absolute time `at`.
    ///
    /// This is how mobility schedules (coverage gaps, encounters) are laid
    /// onto the topology before the run starts.
    pub fn schedule_link_state(&mut self, at: SimTime, link: LinkId, up: bool) {
        self.push(at, EventKind::LinkState { link, up });
    }

    /// Schedules a link-quality override at absolute time `at`: `loss`
    /// and/or `corrupt` replace the link's current probabilities (`None`
    /// leaves a parameter unchanged). Schedule a second event with the
    /// original values to close a burst window — [`crate::fault::FaultPlan`]
    /// does both ends for you.
    pub(crate) fn schedule_link_quality(
        &mut self,
        at: SimTime,
        link: LinkId,
        loss: Option<f64>,
        corrupt: Option<f64>,
    ) {
        self.push(
            at,
            EventKind::LinkQuality {
                link,
                loss,
                corrupt,
            },
        );
    }

    /// Schedules a node fault at absolute time `at`. The node's
    /// [`Node::on_fault`] decides what state is lost.
    pub(crate) fn schedule_node_fault(&mut self, at: SimTime, node: NodeId, fault: NodeFault) {
        self.push(at, EventKind::NodeFault { node, fault });
    }

    fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        self.queue.push(at, kind);
    }

    /// Delivers `on_start` to every node (once).
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            self.with_node(NodeId(i), |node, ctx| node.on_start(ctx));
        }
    }

    /// Runs `f` on a node with a fresh context, then applies its actions.
    #[expect(
        clippy::panic,
        reason = "reentrant dispatch is a scheduler bug; continuing would corrupt the event order the traces attest to"
    )]
    fn with_node(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node<M>, &mut Context<'_, M>)) {
        let mut node = self
            .nodes
            .get_mut(id.0)
            .and_then(Option::take)
            .unwrap_or_else(|| {
                panic!("reentrant dispatch on node {id}");
            });
        let mut ctx = Context {
            now: self.time,
            node: id,
            links: &self.links,
            // Recycled scratch buffer: empty here, emptied again below.
            actions: std::mem::take(&mut self.spare_actions),
            trace: self.sink.as_mut(),
        };
        f(node.as_mut(), &mut ctx);
        let mut actions = ctx.actions;
        if let Some(slot) = self.nodes.get_mut(id.0) {
            *slot = Some(node);
        }
        for action in actions.drain(..) {
            self.apply(id, action);
        }
        // apply() never re-enters with_node, so the drained buffer can be
        // parked for the next callback without racing a nested borrow.
        self.spare_actions = actions;
    }

    fn apply(&mut self, from: NodeId, action: Action<M>) {
        match action {
            Action::Send { link, msg } => self.transmit(from, link, msg),
            Action::Timer { delay, key } => {
                let at = self.time + delay;
                self.push(at, EventKind::Timer { node: from, key });
            }
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "LinkIds are minted by add_link, which grows links and their stats together; a node sending on a foreign id is a wiring bug that must stop the run"
    )]
    fn transmit(&mut self, from: NodeId, link_id: LinkId, msg: M) {
        let wire = msg.wire_size();
        let bytes = wire32(wire);
        let now = self.time;
        let stats = &mut self.stats.links[link_id.0];
        stats.offered += 1;
        let link = &mut self.links[link_id.0];
        let to = link.peer_of(from);
        let rng = &mut self.rng;
        let outcome = link.transmit(from, wire, now, || rng.next_f64());
        let epoch = link.epoch;
        emit(
            &mut self.sink,
            now,
            from,
            TraceEvent::PacketEnqueue {
                link: link_id,
                bytes,
            },
        );
        match outcome {
            TxOutcome::Deliver {
                at,
                attempts,
                corrupted,
            } => {
                stats.attempts += u64::from(attempts);
                if corrupted {
                    // The frame arrived with flipped bits. Dropping it here,
                    // before delivery, stands in for a link checksum: from
                    // the node's perspective the packet never existed.
                    stats.corrupted += 1;
                    emit(
                        &mut self.sink,
                        now,
                        from,
                        TraceEvent::PacketDrop {
                            link: link_id,
                            bytes,
                            reason: DropReason::Corrupt,
                        },
                    );
                    return;
                }
                stats.delivered += 1;
                stats.bytes_delivered += wire as u64;
                emit(
                    &mut self.sink,
                    now,
                    from,
                    TraceEvent::PacketTx {
                        link: link_id,
                        bytes,
                        attempts,
                    },
                );
                // Both ids indexed this simulator's tables above, so both
                // are below its counts, which stop at `u32::MAX + 1`.
                self.push(
                    at,
                    EventKind::Arrival {
                        node: to.0 as u32,
                        link: link_id.0 as u32,
                        epoch,
                        msg,
                    },
                );
            }
            TxOutcome::DropLoss { attempts } => {
                stats.attempts += u64::from(attempts);
                stats.lost += 1;
                emit(
                    &mut self.sink,
                    now,
                    from,
                    TraceEvent::PacketDrop {
                        link: link_id,
                        bytes,
                        reason: DropReason::Loss,
                    },
                );
            }
            TxOutcome::DropQueue => {
                stats.dropped_queue += 1;
                emit(
                    &mut self.sink,
                    now,
                    from,
                    TraceEvent::PacketDrop {
                        link: link_id,
                        bytes,
                        reason: DropReason::Queue,
                    },
                );
            }
            TxOutcome::DropDown => {
                stats.dropped_down += 1;
                emit(
                    &mut self.sink,
                    now,
                    from,
                    TraceEvent::PacketDrop {
                        link: link_id,
                        bytes,
                        reason: DropReason::Down,
                    },
                );
            }
        }
    }

    fn apply_link_state(&mut self, link_id: LinkId, up: bool) {
        let Some(link) = self.links.get_mut(link_id.0) else {
            return;
        };
        if !link.set_up(up) {
            return;
        }
        let (a, b) = link.endpoints();
        // Link-wide events are attributed to endpoint `a` by convention.
        let ev = if up {
            TraceEvent::LinkUp { link: link_id }
        } else {
            TraceEvent::LinkDown { link: link_id }
        };
        emit(&mut self.sink, self.time, a, ev);
        self.with_node(a, |node, ctx| node.on_link_event(ctx, link_id, up));
        self.with_node(b, |node, ctx| node.on_link_event(ctx, link_id, up));
    }

    /// Dispatches the next event, if any. Returns `false` when the queue is
    /// empty. This is the per-event path `alloc_regression` budgets at 0
    /// heap operations per event, traced or not.
    pub(crate) fn step(&mut self) -> bool {
        self.ensure_started();
        let Some((at, kind)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.time, "time must be monotonic");
        self.time = at;
        self.stats.events += 1;
        assert!(
            self.stats.events <= self.event_limit,
            "event limit exceeded at {} (possible protocol livelock)",
            self.time
        );
        match kind {
            EventKind::Arrival {
                node,
                link,
                epoch,
                msg,
            } => {
                let (node, link) = (NodeId(node as usize), LinkId(link as usize));
                // Only the recorder reads the size, and sizing a message
                // can walk its addresses.
                let bytes = if self.sink.is_some() {
                    wire32(msg.wire_size())
                } else {
                    0
                };
                let alive = self
                    .links
                    .get(link.0)
                    .is_some_and(|l| l.epoch == epoch && l.up);
                if !alive {
                    // Lost to a down transition while in flight.
                    if let Some(ls) = self.stats.links.get_mut(link.0) {
                        ls.dropped_in_flight += 1;
                    }
                    emit(
                        &mut self.sink,
                        self.time,
                        node,
                        TraceEvent::PacketDrop {
                            link,
                            bytes,
                            reason: DropReason::InFlight,
                        },
                    );
                    return true;
                }
                self.stats.packets += 1;
                emit(
                    &mut self.sink,
                    self.time,
                    node,
                    TraceEvent::PacketDeliver { link, bytes },
                );
                self.with_node(node, |n, ctx| n.on_packet(ctx, link, msg));
            }
            EventKind::Timer { node, key } => {
                self.stats.timers += 1;
                self.with_node(node, |n, ctx| n.on_timer(ctx, key));
            }
            EventKind::LinkState { link, up } => self.apply_link_state(link, up),
            EventKind::LinkQuality {
                link,
                loss,
                corrupt,
            } => {
                if let Some(l) = self.links.get_mut(link.0) {
                    l.set_quality(loss, corrupt);
                    let (a, _) = l.endpoints();
                    // At-baseline quality means the fault window closed.
                    let at_baseline =
                        l.current_loss() == l.config().loss && l.current_corruption() == 0.0;
                    let ev = if at_baseline {
                        TraceEvent::FaultClear { link }
                    } else {
                        TraceEvent::FaultOnset {
                            link,
                            loss: l.current_loss(),
                            corrupt: l.current_corruption(),
                        }
                    };
                    emit(&mut self.sink, self.time, a, ev);
                }
            }
            EventKind::NodeFault { node, fault } => {
                self.stats.faults += 1;
                let ev = match fault {
                    NodeFault::Crash => TraceEvent::NodeCrash,
                    NodeFault::Restart => TraceEvent::NodeRestart,
                    NodeFault::CacheWipe => TraceEvent::CacheWipe,
                    NodeFault::CacheResize { capacity } => TraceEvent::CacheResize {
                        capacity: capacity as u64,
                    },
                    NodeFault::SlowService { delay_us } => TraceEvent::ServiceDegrade { delay_us },
                };
                emit(&mut self.sink, self.time, node, ev);
                self.with_node(node, |n, ctx| n.on_fault(ctx, fault));
            }
        }
        true
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the queue drains or simulated time reaches `deadline`
    /// (events at exactly `deadline` are processed).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_started();
        loop {
            match self.queue.next_at() {
                Some(at) if at <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.time < deadline {
            self.time = deadline;
        }
    }

    /// Runs while `predicate` returns false, up to `deadline`. Returns true
    /// if the predicate became true.
    ///
    /// Like [`Simulator::run_until`], a run that exhausts its budget
    /// leaves the clock *at* `deadline`: when the predicate never becomes
    /// true, `now()` afterwards reads `deadline`, not the time of the
    /// last processed event.
    pub fn run_while(
        &mut self,
        deadline: SimTime,
        mut predicate: impl FnMut(&Simulator<M>) -> bool,
    ) -> bool {
        self.ensure_started();
        loop {
            if predicate(self) {
                return true;
            }
            match self.queue.next_at() {
                Some(at) if at <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if predicate(self) {
            return true;
        }
        if self.time < deadline {
            self.time = deadline;
        }
        false
    }
}

impl<M: Message> std::fmt::Debug for Simulator<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("time", &self.time)
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Clone, Debug, PartialEq)]
    struct Num(u64);
    impl Message for Num {
        fn wire_size(&self) -> usize {
            1000
        }
    }

    /// Echoes every received number back, incremented, up to a bound.
    struct Echo {
        limit: u64,
        log: Vec<(SimTime, u64)>,
        kick: bool,
        link: Option<LinkId>,
    }

    impl Node<Num> for Echo {
        fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
            if self.kick {
                if let Some(l) = self.link {
                    ctx.send(l, Num(0));
                }
            }
        }
        fn on_packet(&mut self, ctx: &mut Context<'_, Num>, link: LinkId, msg: Num) {
            self.log.push((ctx.now(), msg.0));
            if msg.0 < self.limit {
                ctx.send(link, Num(msg.0 + 1));
            }
        }
    }

    fn echo(kick: bool) -> Echo {
        Echo {
            limit: 4,
            log: vec![],
            kick,
            link: None,
        }
    }

    fn build() -> (Simulator<Num>, NodeId, NodeId, LinkId) {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(echo(true)));
        let b = sim.add_node(Box::new(echo(false)));
        let l = sim.add_link(
            a,
            b,
            LinkConfig::wired(8_000_000, SimDuration::from_millis(10)),
        );
        sim.node_mut::<Echo>(a).unwrap().link = Some(l);
        sim.node_mut::<Echo>(b).unwrap().link = Some(l);
        (sim, a, b, l)
    }

    #[test]
    fn ping_pong_alternates_and_times_accumulate() {
        let (mut sim, a, b, _) = build();
        sim.run();
        let log_b = &sim.node::<Echo>(b).unwrap().log;
        let log_a = &sim.node::<Echo>(a).unwrap().log;
        assert_eq!(
            log_b.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![0, 2, 4]
        );
        assert_eq!(
            log_a.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![1, 3]
        );
        // Each hop = 1 ms serialization + 10 ms propagation = 11 ms.
        assert_eq!(log_b[0].0, SimTime::from_micros(11_000));
        assert_eq!(log_a[0].0, SimTime::from_micros(22_000));
        assert_eq!(sim.stats().packets, 5);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed| {
            let mut sim = Simulator::new(seed);
            let a = sim.add_node(Box::new(echo(true)));
            let b = sim.add_node(Box::new(echo(false)));
            let l = sim.add_link(
                a,
                b,
                LinkConfig::wired(8_000_000, SimDuration::from_millis(1)).with_loss(0.3),
            );
            sim.node_mut::<Echo>(a).unwrap().link = Some(l);
            sim.node_mut::<Echo>(b).unwrap().link = Some(l);
            sim.run();
            (
                sim.node::<Echo>(a).unwrap().log.clone(),
                sim.node::<Echo>(b).unwrap().log.clone(),
            )
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut sim, _, b, _) = build();
        sim.run_until(SimTime::from_micros(11_000));
        assert_eq!(sim.node::<Echo>(b).unwrap().log.len(), 1);
        assert_eq!(sim.now(), SimTime::from_micros(11_000));
        sim.run();
        assert_eq!(sim.node::<Echo>(b).unwrap().log.len(), 3);
    }

    #[test]
    fn run_while_exhaustion_advances_to_deadline() {
        // Predicate never becomes true: like run_until, the full budget is
        // consumed and now() reads the deadline, not the last event time.
        let (mut sim, _, _, _) = build();
        let deadline = SimTime::from_micros(1_000_000);
        let done = sim.run_while(deadline, |_| false);
        assert!(!done);
        assert_eq!(sim.now(), deadline, "clock must land on the deadline");
        // And the early-return path still stops at the triggering event.
        let (mut sim, _, b, _) = build();
        let done = sim.run_while(deadline, |s| !s.node::<Echo>(b).unwrap().log.is_empty());
        assert!(done);
        assert_eq!(sim.now(), SimTime::from_micros(11_000));
    }

    #[test]
    fn queue_drop_counted_at_exact_capacity() {
        // A 2000 B queue at 8 kbps drains in 2 s; each 1000 B packet
        // serializes in 1 s. A burst of four admits exactly two (backlog
        // including the packet's own serialization must fit) and
        // tail-drops the other two.
        struct Burst {
            link: Option<LinkId>,
        }
        impl Node<Num> for Burst {
            fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
                if let Some(l) = self.link {
                    for i in 0..4 {
                        ctx.send(l, Num(i));
                    }
                }
            }
            fn on_packet(&mut self, _: &mut Context<'_, Num>, _: LinkId, _: Num) {}
        }
        let mut sim: Simulator<Num> = Simulator::new(0);
        let a = sim.add_node(Box::new(Burst { link: None }));
        let b = sim.add_node(Box::new(Burst { link: None }));
        let l = sim.add_link(
            a,
            b,
            LinkConfig::wired(8_000, SimDuration::ZERO).with_queue_bytes(2000),
        );
        sim.node_mut::<Burst>(a).unwrap().link = Some(l);
        sim.run();
        let stats = &sim.stats().links[l.index()];
        assert_eq!(stats.dropped_queue, 2, "two of four tail-dropped");
        assert_eq!(stats.delivered, 2, "exactly the queue's worth admitted");
    }

    #[test]
    fn scripted_link_down_drops_in_flight() {
        let (mut sim, _, b, l) = build();
        // First packet arrives at 11 ms; kill the link at 5 ms.
        sim.schedule_link_state(SimTime::from_micros(5_000), l, false);
        sim.run();
        assert!(sim.node::<Echo>(b).unwrap().log.is_empty());
        assert_eq!(sim.stats().links[l.index()].dropped_in_flight, 1);
    }

    #[test]
    fn a_down_transition_at_the_top_epoch_still_drops_in_flight() {
        let (mut sim, _, b, l) = build();
        sim.enable_trace(64);
        // The link went down u32::MAX times already: the next down wraps
        // its epoch to 0. It is back up before the first packet lands at
        // 11 ms, so the epoch alone must drop it.
        sim.links[l.0].epoch = u32::MAX;
        sim.schedule_link_state(SimTime::from_micros(5_000), l, false);
        sim.schedule_link_state(SimTime::from_micros(6_000), l, true);
        sim.run();
        assert_eq!(sim.links[l.0].epoch, 0);
        assert!(sim.node::<Echo>(b).unwrap().log.is_empty());
        assert_eq!(sim.stats().links[l.index()].dropped_in_flight, 1);
        let drops: Vec<_> = sim
            .trace()
            .unwrap()
            .records()
            .filter_map(|r| match r.event {
                TraceEvent::PacketDrop { reason, .. } => Some((r.at, reason)),
                _ => None,
            })
            .collect();
        assert_eq!(
            drops,
            vec![(SimTime::from_micros(11_000), DropReason::InFlight)]
        );
    }

    #[test]
    fn link_events_reach_both_endpoints() {
        struct Watcher {
            events: Vec<(LinkId, bool)>,
        }
        impl Node<Num> for Watcher {
            fn on_packet(&mut self, _: &mut Context<'_, Num>, _: LinkId, _: Num) {}
            fn on_link_event(&mut self, _: &mut Context<'_, Num>, link: LinkId, up: bool) {
                self.events.push((link, up));
            }
        }
        let mut sim: Simulator<Num> = Simulator::new(3);
        let a = sim.add_node(Box::new(Watcher { events: vec![] }));
        let b = sim.add_node(Box::new(Watcher { events: vec![] }));
        let l = sim.add_link(a, b, LinkConfig::wired(1_000, SimDuration::ZERO));
        sim.schedule_link_state(SimTime::from_micros(10), l, false);
        sim.schedule_link_state(SimTime::from_micros(20), l, true);
        // Duplicate transition must not re-notify.
        sim.schedule_link_state(SimTime::from_micros(30), l, true);
        sim.run();
        for id in [a, b] {
            assert_eq!(
                sim.node::<Watcher>(id).unwrap().events,
                vec![(l, false), (l, true)]
            );
        }
    }

    #[test]
    fn timers_fire_in_order_with_fifo_ties() {
        struct T {
            fired: Vec<TimerKey>,
        }
        impl Node<Num> for T {
            fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
                ctx.set_timer(SimDuration::from_micros(5), 2);
                ctx.set_timer(SimDuration::from_micros(5), 3);
                ctx.set_timer(SimDuration::from_micros(1), 1);
            }
            fn on_packet(&mut self, _: &mut Context<'_, Num>, _: LinkId, _: Num) {}
            fn on_timer(&mut self, _: &mut Context<'_, Num>, key: TimerKey) {
                self.fired.push(key);
            }
        }
        let mut sim: Simulator<Num> = Simulator::new(0);
        let n = sim.add_node(Box::new(T { fired: vec![] }));
        sim.run();
        assert_eq!(sim.node::<T>(n).unwrap().fired, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn event_limit_catches_livelock() {
        struct Loop;
        impl Node<Num> for Loop {
            fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
                ctx.set_timer(SimDuration::from_micros(1), 0);
            }
            fn on_packet(&mut self, _: &mut Context<'_, Num>, _: LinkId, _: Num) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Num>, _: TimerKey) {
                ctx.set_timer(SimDuration::from_micros(1), 0);
            }
        }
        let mut sim: Simulator<Num> = Simulator::new(0);
        sim.add_node(Box::new(Loop));
        sim.set_event_limit(100);
        sim.run();
    }

    #[test]
    fn run_while_predicate() {
        let (mut sim, _, b, _) = build();
        let done = sim.run_while(SimTime::MAX, |s| {
            s.node::<Echo>(b).map_or(false, |e| e.log.len() >= 2)
        });
        assert!(done);
        assert_eq!(sim.node::<Echo>(b).unwrap().log.len(), 2);
    }

    #[test]
    fn wireless_loss_is_recovered_by_arq() {
        let (mut sim, a, b) = {
            let mut sim = Simulator::new(5);
            let a = sim.add_node(Box::new(echo(true)));
            let b = sim.add_node(Box::new(echo(false)));
            let l = sim.add_link(
                a,
                b,
                LinkConfig::wireless(8_000_000, SimDuration::from_millis(1), 0.3),
            );
            sim.node_mut::<Echo>(a).unwrap().link = Some(l);
            sim.node_mut::<Echo>(b).unwrap().link = Some(l);
            (sim, a, b)
        };
        sim.run();
        // With ARQ (7 retries at 30 % loss) effectively nothing is lost.
        assert_eq!(sim.node::<Echo>(b).unwrap().log.len(), 3);
        assert_eq!(sim.node::<Echo>(a).unwrap().log.len(), 2);
    }
}
