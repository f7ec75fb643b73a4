//! The application trait hosted by a [`crate::Host`] stack.

use std::any::Any;

use simnet::{LinkId, NodeFault};
use util::bytes::Bytes;
use xia_addr::{Dag, Xid};
use xia_wire::Beacon;

use crate::ctx::HostCtx;

/// Result of an [`HostCtx::xfetch_chunk`] delegation.
#[derive(Debug, Clone, PartialEq)]
pub enum FetchResult {
    /// The chunk arrived and verified against its CID.
    Complete(Bytes),
    /// The responder does not hold the chunk.
    NotFound,
    /// The transfer failed (reset, timeout, truncation, corruption).
    Failed,
}

/// An application (or network function) running on a host stack.
///
/// Applications receive upcalls from the host: completions for chunk
/// fetches they issued, control datagrams, beacons heard on any
/// interface, link state changes and their own timers. All interaction
/// with the world goes through the [`HostCtx`] passed to each callback,
/// which records what the app asks for; the host carries it out, in
/// order, when the callback returns and before any other app runs.
/// Apps never hold a transport connection: on a host a connection is a
/// fetch one of them delegated or a serve the chunk server accepted.
#[allow(unused_variables)]
pub trait App: Any {
    /// Called once when the simulation starts.
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {}

    /// A chunk fetch issued with [`HostCtx::xfetch_chunk`] finished.
    fn on_fetch_complete(
        &mut self,
        ctx: &mut HostCtx<'_>,
        handle: u64,
        cid: Xid,
        result: FetchResult,
    ) {
    }

    /// A control datagram arrived (staging signaling and similar).
    fn on_control(
        &mut self,
        ctx: &mut HostCtx<'_>,
        from: Dag,
        service: Xid,
        token: u64,
        body: &Bytes,
    ) {
    }

    /// A network beacon was heard on `link` (the sensor interface).
    fn on_beacon(&mut self, ctx: &mut HostCtx<'_>, link: LinkId, beacon: &Beacon) {}

    /// An attached link changed state.
    fn on_link_event(&mut self, ctx: &mut HostCtx<'_>, link: LinkId, up: bool) {}

    /// A timer armed with [`HostCtx::set_app_timer`] expired.
    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, key: u8) {}

    /// A node-level fault hit the hosting stack (fault injection). On
    /// [`NodeFault::Crash`] apps should drop volatile bookkeeping; the
    /// host re-runs [`App::on_start`] after the matching
    /// [`NodeFault::Restart`], so timers and service registrations come
    /// back by the normal path.
    fn on_fault(&mut self, ctx: &mut HostCtx<'_>, fault: NodeFault) {}
}
