//! The host context: the "OS API" applications program against.
//!
//! A callback sees a snapshot of its host (a [`HostView`]), the host's
//! chunk store, and a log it appends [`Effect`]s to. Nothing here reaches
//! the simulator or the transport: the host applies the log after the
//! callback returns, in the order asked. (One layer down there is no such
//! log: a node's `simnet::Context` sends and arms timers at the call.) So
//! an app is a function of its callbacks, and anything that keeps a
//! `HostView` and a `ChunkStore` between calls can drive one.

use simnet::{LinkId, SimDuration, SimTime, TraceEvent};
use util::bytes::Bytes;
use xcache::ChunkStore;
use xia_addr::{Dag, Xid};
use xia_wire::XiaPacket;

/// What a callback can read of its host: a plain snapshot, taken when the
/// callback starts and kept current with what the callback itself asks
/// for (a new attachment, a fetch handle or control token handed out).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostView {
    /// Current simulated time.
    pub now: SimTime,
    /// The host's identifier.
    pub hid: Xid,
    /// The network the host is attached to, if any.
    pub nid: Option<Xid>,
    /// The primary (data) interface, if attached.
    pub primary_link: Option<LinkId>,
    /// Live transport connections, counting fetches asked for so far.
    pub connections: usize,
    /// Whether the flight recorder is attached.
    pub tracing: bool,
    /// The handle the next [`HostCtx::xfetch_chunk`] returns (host-global).
    pub next_fetch_handle: u64,
    /// The token the next [`HostCtx::send_control`] returns (host-global).
    pub next_token: u64,
}

impl HostView {
    /// An unattached, idle host at time zero, handles and tokens from 1.
    pub fn new(hid: Xid) -> Self {
        HostView {
            now: SimTime::ZERO,
            hid,
            nid: None,
            primary_link: None,
            connections: 0,
            tracing: false,
            next_fetch_handle: 1,
            next_token: 1,
        }
    }
}

/// One thing a callback asked its host to do, one variant per
/// [`HostCtx`] method. The host carries them out in the order recorded.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Fetch the chunk addressed by `dag`; the result returns through
    /// [`crate::App::on_fetch_complete`] under `handle`.
    Fetch {
        /// The handle the callback was given.
        handle: u64,
        /// Where to fetch from (typically `CID | NID : HID`).
        dag: Dag,
    },
    /// Send a best-effort control datagram, sourced from the host's
    /// address at the time the effect is applied.
    Control {
        /// Destination address.
        dst: Dag,
        /// Service the datagram is for.
        service: Xid,
        /// Correlation token.
        token: u64,
        /// Payload.
        body: Bytes,
    },
    /// Arm an application timer.
    Timer {
        /// Time until it fires.
        delay: SimDuration,
        /// Key handed back to [`crate::App::on_timer`].
        key: u8,
    },
    /// Move the data plane to `link` inside network `nid`.
    Attach {
        /// The network joined, or `None` to detach.
        nid: Option<Xid>,
        /// The new primary link.
        link: Option<LinkId>,
    },
    /// Migrate every live connection to the host's current address.
    Migrate {
        /// The active-session-migration pause.
        pause: SimDuration,
    },
    /// Deliver control datagrams addressed to `sid` to this host.
    Register {
        /// The service identifier.
        sid: Xid,
    },
    /// Send a raw packet on a specific link.
    SendOnLink {
        /// The egress link.
        link: LinkId,
        /// The packet.
        pkt: XiaPacket,
    },
    /// Record an event in the flight recorder.
    Trace(TraceEvent),
}

/// The window through which an [`crate::App`] uses its host: chunk
/// fetching, control datagrams, timers, attachment management, the local
/// chunk store and the flight recorder. The store is borrowed, not
/// logged: it is data, and a caller of `insert` needs its verdict now.
#[derive(Debug)]
pub struct HostCtx<'a> {
    view: HostView,
    store: &'a mut ChunkStore,
    effects: Vec<Effect>,
}

impl<'a> HostCtx<'a> {
    /// A context over `view` and `store` that appends to `effects`
    /// (normally empty; passing one back in reuses its allocation).
    pub fn new(view: HostView, store: &'a mut ChunkStore, effects: Vec<Effect>) -> Self {
        HostCtx {
            view,
            store,
            effects,
        }
    }

    /// Ends the callback: the view as the callback left it and everything
    /// it asked for, in order.
    pub fn finish(self) -> (HostView, Vec<Effect>) {
        (self.view, self.effects)
    }

    /// The effects recorded so far.
    pub fn effects(&self) -> &[Effect] {
        &self.effects
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.view.now
    }

    /// This host's identifier.
    pub fn hid(&self) -> Xid {
        self.view.hid
    }

    /// The network the host is currently attached to, if any.
    pub fn nid(&self) -> Option<Xid> {
        self.view.nid
    }

    /// The current primary (data) interface.
    pub fn primary_link(&self) -> Option<LinkId> {
        self.view.primary_link
    }

    /// Attaches the data plane to `link` inside network `nid` (an
    /// association). Does not migrate live connections; see
    /// [`HostCtx::migrate_connections`].
    pub fn set_attachment(&mut self, nid: Option<Xid>, link: Option<LinkId>) {
        self.view.nid = nid;
        self.view.primary_link = link;
        self.effects.push(Effect::Attach { nid, link });
    }

    /// Migrates all live connections to the current local address after an
    /// active-session-migration pause (the layer-3 handoff cost).
    pub fn migrate_connections(&mut self, pause: SimDuration) {
        self.effects.push(Effect::Migrate { pause });
    }

    /// The local chunk store (XCache).
    pub fn store(&mut self) -> &mut ChunkStore {
        self.store
    }

    /// Registers a service SID so control datagrams addressed to it are
    /// delivered to this host.
    pub fn register_service(&mut self, sid: Xid) {
        self.effects.push(Effect::Register { sid });
    }

    /// Number of live transport connections on this host.
    pub fn active_connection_count(&self) -> usize {
        self.view.connections
    }

    /// The native `XfetchChunk`: fetches the chunk addressed by `dag`
    /// (typically `CID | NID : HID`). Returns a handle; completion arrives
    /// at [`crate::App::on_fetch_complete`].
    pub fn xfetch_chunk(&mut self, dag: Dag) -> u64 {
        let handle = self.view.next_fetch_handle;
        self.view.next_fetch_handle += 1;
        self.view.connections += 1;
        self.effects.push(Effect::Fetch { handle, dag });
        handle
    }

    /// Sends a best-effort control datagram to `dst` for `service`.
    /// Returns the correlation token (echoed by well-behaved responders).
    pub fn send_control(&mut self, dst: Dag, service: Xid, body: Bytes) -> u64 {
        let token = self.view.next_token;
        self.view.next_token += 1;
        self.send_control_with_token(dst, service, token, body);
        token
    }

    /// Sends a control datagram echoing an existing `token` (replies).
    pub fn send_control_with_token(&mut self, dst: Dag, service: Xid, token: u64, body: Bytes) {
        self.effects.push(Effect::Control {
            dst,
            service,
            token,
            body,
        });
    }

    /// Sends a raw packet on a specific link (used by infrastructure apps,
    /// e.g. beacon transmitters on AP radios).
    pub fn send_on_link(&mut self, link: LinkId, pkt: XiaPacket) {
        self.effects.push(Effect::SendOnLink { link, pkt });
    }

    /// Arms an application timer; `key` returns via
    /// [`crate::App::on_timer`].
    pub fn set_app_timer(&mut self, delay: SimDuration, key: u8) {
        self.effects.push(Effect::Timer { delay, key });
    }

    /// Records `event` against this host's node at the current sim time;
    /// a no-op, and the event dropped, when tracing is off.
    pub fn trace(&mut self, event: TraceEvent) {
        if self.view.tracing {
            self.effects.push(Effect::Trace(event));
        }
    }
}
