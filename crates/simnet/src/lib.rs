//! A deterministic, packet-level discrete-event network simulator.
//!
//! `simnet` stands in for the physical testbed of the SoftStage paper
//! (ICDCS 2019): commodity WiFi access points, wired Ethernet "Internet"
//! segments, and mobile clients. It simulates:
//!
//! - point-to-point [`Link`](link)s with bandwidth, propagation delay,
//!   bounded queues (tail drop), Bernoulli channel loss, and optional
//!   802.11-style link-layer retransmission (ARQ),
//! - link up/down dynamics (vehicular coverage gaps, handoffs),
//! - deterministic [`fault`] injection: link flaps, burst loss windows,
//!   packet corruption (dropped before delivery, as a link checksum
//!   would), node crash/restart and cache wipes — all scheduled on the
//!   sim clock,
//! - [`Node`]s as event-driven state machines receiving packets, timers and
//!   link events through a [`Context`],
//! - a seeded, deterministic random number generator: every simulation is a
//!   pure function of (topology, parameters, seed),
//! - an optional [`trace`] flight recorder: typed per-event records handed
//!   to one consumer as they are recorded, a JSON-lines writer, and a
//!   streaming [`TraceAudit`] that checks protocol invariants as records
//!   arrive.
//!
//! Time is integer microseconds ([`SimTime`]); ties are broken by insertion
//! order, so runs are exactly reproducible.
//!
//! # Examples
//!
//! ```
//! use simnet::{Context, LinkConfig, LinkId, Message, Node, SimDuration, Simulator};
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl Message for Ping {
//!     fn wire_size(&self) -> usize { 100 }
//! }
//!
//! struct Sender { link: Option<LinkId> }
//! impl Node<Ping> for Sender {
//!     fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
//!         if let Some(l) = self.link { ctx.send(l, Ping(1)); }
//!     }
//!     fn on_packet(&mut self, _: &mut Context<'_, Ping>, _: LinkId, _: Ping) {}
//! }
//!
//! struct Receiver { got: u32 }
//! impl Node<Ping> for Receiver {
//!     fn on_packet(&mut self, _: &mut Context<'_, Ping>, _: LinkId, p: Ping) {
//!         self.got += p.0;
//!     }
//! }
//!
//! let mut sim = Simulator::new(7);
//! let a = sim.add_node(Box::new(Sender { link: None }));
//! let b = sim.add_node(Box::new(Receiver { got: 0 }));
//! let link = sim.add_link(a, b, LinkConfig::wired(1_000_000, SimDuration::from_millis(1)));
//! sim.node_mut::<Sender>(a).unwrap().link = Some(link);
//! sim.run();
//! assert_eq!(sim.node::<Receiver>(b).unwrap().got, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod link;
pub mod node;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;
pub mod trace;
pub mod wheel;

pub use fault::{Fault, FaultPlan};
pub use link::{LinkConfig, LinkId};
pub use node::{Context, Message, Node, NodeFault, NodeId, TimerKey};
pub use rng::Rng;
pub use sim::Simulator;
pub use stats::{LinkStats, SimStats};
pub use time::{SimDuration, SimTime};
pub use trace::{
    BreakerState, ClientMode, DropReason, FetchSource, InvariantKind, RejectReason, Tag,
    TraceAudit, TraceEvent, TraceRecord, Violation,
};
pub use wheel::WheelQueue;
