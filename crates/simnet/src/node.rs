//! The node trait and the per-callback context handed to nodes.

use std::any::Any;
use std::fmt;

use crate::link::LinkId;
use crate::sim::Core;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceEvent;

/// Identifier of a node in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index of this node.
    pub(crate) fn index(self) -> usize {
        self.0
    }

    /// Rebuilds an id from a raw index — for trace tooling that
    /// reconstructs or synthesizes [`crate::TraceRecord`]s outside the
    /// simulator.
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Node-chosen identifier delivered back with a timer expiry.
pub type TimerKey = u64;

/// A message that can traverse simulated links.
///
/// `wire_size` is the on-the-wire size in bytes, used for serialization
/// delay and queue accounting; it should include protocol headers.
pub trait Message: Clone + fmt::Debug + 'static {
    /// On-the-wire size of the message in bytes.
    fn wire_size(&self) -> usize;
}

/// An event-driven state machine attached to the simulator.
///
/// All interaction with the world goes through the [`Context`] passed to
/// each callback: sending packets, arming timers, toggling link state, and
/// drawing deterministic randomness.
pub trait Node<M: Message>: Any {
    /// Called once when the simulation starts (time zero), in node-id order.
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called when a packet arrives on `link`.
    fn on_packet(&mut self, ctx: &mut Context<'_, M>, link: LinkId, msg: M);

    /// Called when a timer armed with [`Context::set_timer`] expires.
    fn on_timer(&mut self, _ctx: &mut Context<'_, M>, _key: TimerKey) {}

    /// Called when an attached link changes state (up/down).
    fn on_link_event(&mut self, _ctx: &mut Context<'_, M>, _link: LinkId, _up: bool) {}

    /// Called when a scheduled fault (see [`crate::fault`]) hits this node.
    ///
    /// The default is a no-op: nodes that model no internal failure state
    /// simply shrug faults off. Stateful nodes (hosts, routers, caches)
    /// override this to drop volatile state on [`NodeFault::Crash`],
    /// re-initialize on [`NodeFault::Restart`], and clear their content
    /// store on [`NodeFault::CacheWipe`].
    fn on_fault(&mut self, _ctx: &mut Context<'_, M>, _fault: NodeFault) {}
}

/// A fault injected into a node by the simulator's fault scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeFault {
    /// The node's software crashes: volatile state (connections, timers,
    /// application progress) is lost and the node stops responding until a
    /// [`NodeFault::Restart`].
    Crash,
    /// The node's software restarts after a crash and re-initializes.
    Restart,
    /// The node's content cache is wiped (e.g. an operator flush or disk
    /// failure) but the node keeps running.
    CacheWipe,
    /// The node's content cache is resized in place (e.g. a co-tenant
    /// claiming edge resources); unpinned chunks are evicted until the
    /// new capacity fits.
    CacheResize {
        /// New capacity in bytes.
        capacity: usize,
    },
    /// The node's service rate degrades: applications should delay their
    /// replies by `delay_us` (0 restores full speed).
    SlowService {
        /// Added per-reply service delay, µs.
        delay_us: u64,
    },
}

/// The window through which a [`Node`] observes and affects the simulation.
///
/// It borrows the simulator's core (clock, event queue, links, RNG,
/// counters, recorder) but not its nodes, so what a callback asks for
/// happens at the call: [`Context::send`] runs the link model and files the
/// arrival, [`Context::set_timer`] files the expiry. Pushes, RNG draws and
/// packet records so keep the callback's own order.
pub struct Context<'a, M: Message> {
    pub(crate) core: &'a mut Core<M>,
    pub(crate) node: NodeId,
}

impl<'a, M: Message> Context<'a, M> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.time
    }

    /// Sends `msg` out on `link`. Delivery (or loss) is decided by the link
    /// model; sending on a downed link silently drops the packet, exactly
    /// like transmitting into a coverage gap.
    pub fn send(&mut self, link: LinkId, msg: M) {
        self.core.transmit(self.node, link, msg);
    }

    /// Arms a timer that fires [`Node::on_timer`] with `key` after `delay`.
    ///
    /// Timers cannot be cancelled. Keep the deadline in the node's state
    /// and check it when the timer fires: a stale one finds its deadline
    /// moved or gone and re-arms for it or does nothing.
    pub fn set_timer(&mut self, delay: SimDuration, key: TimerKey) {
        self.core.set_timer(self.node, delay, key);
    }

    /// The node at the far end of `link` from this node.
    ///
    /// # Panics
    ///
    /// Panics if this node is not an endpoint of `link`.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented contract: the panic is the point"
    )]
    pub fn peer(&self, link: LinkId) -> NodeId {
        self.core.links[link.index()].peer_of(self.node)
    }

    /// Whether a flight-recorder sink is attached. Check before building
    /// event payloads that are not free to build.
    pub fn tracing(&self) -> bool {
        self.core.sink.is_some()
    }

    /// Records `event` against this node at the current time; a no-op
    /// when no sink is attached.
    pub fn trace(&mut self, event: TraceEvent) {
        self.core.emit(self.node, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::sim::Simulator;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Sizeless, so a zero-latency link delivers it in the µs it is sent.
    #[derive(Clone, Debug)]
    struct Msg(u64);
    impl Message for Msg {
        fn wire_size(&self) -> usize {
            0
        }
    }

    type Log = Rc<RefCell<Vec<u64>>>;

    /// Interleaves sends and zero-delay timers in one callback; logs
    /// every timer it hears.
    struct Caller {
        link: Option<LinkId>,
        log: Log,
    }
    impl Node<Msg> for Caller {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            let Some(link) = self.link else { return };
            for i in (0..6).step_by(2) {
                ctx.send(link, Msg(i));
                ctx.set_timer(SimDuration::ZERO, i + 1);
            }
        }
        fn on_packet(&mut self, _: &mut Context<'_, Msg>, _: LinkId, _: Msg) {}
        fn on_timer(&mut self, _: &mut Context<'_, Msg>, key: TimerKey) {
            self.log.borrow_mut().push(key);
        }
    }

    /// Logs every packet it hears.
    struct Hearer {
        log: Log,
    }
    impl Node<Msg> for Hearer {
        fn on_packet(&mut self, _: &mut Context<'_, Msg>, _: LinkId, msg: Msg) {
            self.log.borrow_mut().push(msg.0);
        }
    }

    #[test]
    fn sends_and_timers_dispatch_in_call_order() {
        // Everything one callback asks for is due at t = 0; each call
        // files its event as it is made, so dispatch follows call order
        // across packets and timers.
        let log = Log::default();
        let mut sim: Simulator<Msg> = Simulator::new(0);
        let a = sim.add_node(Box::new(Caller {
            link: None,
            log: log.clone(),
        }));
        let b = sim.add_node(Box::new(Hearer { log: log.clone() }));
        let link = sim.add_link(a, b, LinkConfig::wired(1_000, SimDuration::ZERO));
        if let Some(caller) = sim.node_mut::<Caller>(a) {
            caller.link = Some(link);
        }
        sim.run();
        assert_eq!(*log.borrow(), [0, 1, 2, 3, 4, 5]);
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!((sim.stats().packets, sim.stats().timers), (3, 3));
    }
}
