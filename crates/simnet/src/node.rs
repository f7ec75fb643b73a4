//! The node trait and the per-callback context handed to nodes.

use std::any::Any;
use std::fmt;

use crate::link::{Link, LinkId};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceSink};

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

/// An action requested by a node during a callback, applied by the
/// simulator immediately after the callback returns (in order).
#[derive(Debug)]
pub(crate) enum Action<M> {
    Send { link: LinkId, msg: M },
    Timer { delay: SimDuration, key: TimerKey },
}

/// The window through which a [`Node`] observes and affects the simulation.
pub struct Context<'a, M: Message> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) links: &'a [Link],
    pub(crate) actions: Vec<Action<M>>,
    pub(crate) trace: Option<&'a mut TraceSink>,
}

impl<'a, M: Message> Context<'a, M> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` out on `link`. Delivery (or loss) is decided by the link
    /// model; sending on a downed link silently drops the packet, exactly
    /// like transmitting into a coverage gap.
    pub fn send(&mut self, link: LinkId, msg: M) {
        self.actions.push(Action::Send { link, msg });
    }

    /// Arms a timer that fires [`Node::on_timer`] with `key` after `delay`.
    ///
    /// Timers cannot be cancelled; nodes should carry a generation counter
    /// in `key` (or in their own state) to ignore stale expirations.
    pub fn set_timer(&mut self, delay: SimDuration, key: TimerKey) {
        self.actions.push(Action::Timer { delay, key });
    }

    /// The node at the far end of `link` from this node.
    ///
    /// # Panics
    ///
    /// Panics if this node is not an endpoint of `link`.
    pub fn peer(&self, link: LinkId) -> NodeId {
        // sslint: allow(panic) — documented contract: the panic is the point
        self.links[link.index()].peer_of(self.node)
    }

    /// Whether a flight-recorder sink is attached. Check before building
    /// event payloads that are not free to build.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Records `event` against this node at the current time; a no-op
    /// when no sink is attached.
    pub fn trace(&mut self, event: TraceEvent) {
        if let Some(sink) = self.trace.as_deref_mut() {
            sink.record(self.now, self.node, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Msg;
    impl Message for Msg {
        fn wire_size(&self) -> usize {
            1
        }
    }

    #[test]
    fn context_accumulates_actions_in_order() {
        let links = vec![];
        let mut ctx: Context<'_, Msg> = Context {
            now: SimTime::ZERO,
            node: NodeId(0),
            links: &links,
            actions: vec![],
            trace: None,
        };
        ctx.set_timer(SimDuration::from_micros(5), 42);
        ctx.send(LinkId(0), Msg);
        assert_eq!(ctx.actions.len(), 2);
        assert!(matches!(ctx.actions[0], Action::Timer { key: 42, .. }));
        assert!(matches!(ctx.actions[1], Action::Send { .. }));
    }
}
