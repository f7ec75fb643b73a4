//! The host context: the "OS API" applications program against.

use std::collections::{BTreeMap, VecDeque};

use simnet::{Context as SimContext, LinkId, SimDuration, SimTime};
use util::bytes::Bytes;
use xcache::{ChunkFetcher, ChunkStore};
use xia_addr::{Dag, Xid};
use xia_transport::{TransportEvent, TransportMux};
use xia_wire::{ConnId, XiaPacket, L4};

/// Tag marking a host timer key as belonging to an application. Below it
/// the key is `boot epoch << 40 | app index << 32 | the app's own key`.
pub(crate) const APP_TIMER_TAG: u64 = 0x4150 << 48;

/// State of one in-flight chunk fetch. A connection with a `FetchState`
/// is a fetch; any other connection the mux knows is one the chunk server
/// accepted.
#[derive(Debug)]
pub(crate) struct FetchState {
    /// The application that issued the fetch.
    pub(crate) app_idx: usize,
    pub(crate) handle: u64,
    pub(crate) fetcher: ChunkFetcher,
    /// Terminal result already reported to the app.
    pub(crate) done: bool,
}

/// Host identity and attachment state shared with applications.
#[derive(Debug)]
pub(crate) struct HostMeta {
    pub(crate) hid: Xid,
    nid: Option<Xid>,
    /// The locator address for `nid`, rebuilt only when `nid` changes so
    /// the per-packet paths clone an `Arc` instead of assembling a DAG.
    local: Dag,
    pub(crate) primary_link: Option<LinkId>,
    pub(crate) cache_fetched: bool,
    pub(crate) services: Vec<Xid>,
    pub(crate) next_fetch_handle: u64,
    pub(crate) next_token: u64,
    /// Bumped at every restart, so a timer armed before a crash is
    /// recognised, and dropped, when it matures after the reboot.
    pub(crate) boot_epoch: u8,
}

impl HostMeta {
    /// Identity of an unattached host.
    pub(crate) fn new(hid: Xid, cache_fetched: bool) -> Self {
        HostMeta {
            hid,
            nid: None,
            local: Dag::direct(hid),
            primary_link: None,
            cache_fetched,
            services: Vec::new(),
            next_fetch_handle: 1,
            next_token: 1,
            boot_epoch: 0,
        }
    }

    /// The network the host is attached to, if any.
    pub(crate) fn nid(&self) -> Option<Xid> {
        self.nid
    }

    /// Moves the data plane to `link` inside network `nid`.
    pub(crate) fn set_attachment(&mut self, nid: Option<Xid>, link: Option<LinkId>) {
        if nid != self.nid {
            self.nid = nid;
            self.local = match nid {
                Some(nid) => Dag::host(nid, self.hid),
                None => Dag::direct(self.hid),
            };
        }
        self.primary_link = link;
    }

    /// The host's current locator address (`NID : HID`), or a bare `HID`
    /// DAG while unattached.
    pub(crate) fn local_dag(&self) -> Dag {
        self.local.clone()
    }
}

/// Bridges the transport's environment to the simulator context. All
/// packet emissions go to the host's outbox; the wrapping node (end host
/// or router) decides the egress link — a router routes them through its
/// own forwarding engine.
pub(crate) struct HostEnv<'a, 'b> {
    pub(crate) sim: &'a mut SimContext<'b, XiaPacket>,
    pub(crate) outbox: &'a mut Vec<XiaPacket>,
    pub(crate) pending: &'a mut VecDeque<TransportEvent>,
}

impl xia_transport::TransportEnv for HostEnv<'_, '_> {
    fn now(&self) -> SimTime {
        self.sim.now()
    }
    fn emit(&mut self, pkt: XiaPacket) {
        self.outbox.push(pkt);
    }
    fn set_timer(&mut self, delay: SimDuration, key: u64) {
        self.sim.set_timer(delay, key);
    }
    fn deliver(&mut self, event: TransportEvent) {
        self.pending.push_back(event);
    }
}

/// The window through which an [`crate::App`] uses its host: chunk
/// fetching, control datagrams, timers, attachment management, the local
/// chunk store and the flight recorder.
pub struct HostCtx<'a, 'b> {
    pub(crate) sim: &'a mut SimContext<'b, XiaPacket>,
    pub(crate) mux: &'a mut TransportMux,
    pub(crate) store: &'a mut ChunkStore,
    pub(crate) meta: &'a mut HostMeta,
    pub(crate) fetchers: &'a mut BTreeMap<ConnId, FetchState>,
    pub(crate) pending: &'a mut VecDeque<TransportEvent>,
    pub(crate) outbox: &'a mut Vec<XiaPacket>,
    pub(crate) app_idx: usize,
}

impl<'a, 'b> HostCtx<'a, 'b> {
    fn env<'c>(&'c mut self) -> (&'c mut TransportMux, HostEnv<'c, 'b>) {
        (
            self.mux,
            HostEnv {
                sim: self.sim,
                outbox: self.outbox,
                pending: self.pending,
            },
        )
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// This host's identifier.
    pub fn hid(&self) -> Xid {
        self.meta.hid
    }

    /// The network the host is currently attached to, if any.
    pub fn nid(&self) -> Option<Xid> {
        self.meta.nid()
    }

    /// The current primary (data) interface.
    pub fn primary_link(&self) -> Option<LinkId> {
        self.meta.primary_link
    }

    /// Attaches the data plane to `link` inside network `nid` (an
    /// association). Does not migrate live connections; see
    /// [`HostCtx::migrate_connections`].
    pub fn set_attachment(&mut self, nid: Option<Xid>, link: Option<LinkId>) {
        self.meta.set_attachment(nid, link);
    }

    /// Migrates all live connections to the current local address after an
    /// active-session-migration pause (the layer-3 handoff cost).
    pub fn migrate_connections(&mut self, pause: SimDuration) {
        let new_src = self.meta.local_dag();
        let (mux, mut env) = self.env();
        mux.migrate_all(&mut env, new_src, pause);
    }

    /// The local chunk store (XCache).
    pub fn store(&mut self) -> &mut ChunkStore {
        self.store
    }

    /// Registers a service SID so control datagrams addressed to it are
    /// delivered to this host.
    pub fn register_service(&mut self, sid: Xid) {
        if !self.meta.services.contains(&sid) {
            self.meta.services.push(sid);
        }
    }

    /// Number of live transport connections on this host.
    pub fn active_connection_count(&self) -> usize {
        self.mux.active_connections()
    }

    /// The native `XfetchChunk`: fetches the chunk addressed by `dag`
    /// (typically `CID | NID : HID`). Returns a handle; completion arrives
    /// at [`crate::App::on_fetch_complete`].
    pub fn xfetch_chunk(&mut self, dag: Dag) -> u64 {
        let cid = dag.intent();
        let handle = self.meta.next_fetch_handle;
        self.meta.next_fetch_handle += 1;
        let src = self.meta.local_dag();
        let app_idx = self.app_idx;
        let (mux, mut env) = self.env();
        let conn = mux.connect(&mut env, dag, src);
        self.fetchers.insert(
            conn,
            FetchState {
                app_idx,
                handle,
                fetcher: ChunkFetcher::new(cid),
                done: false,
            },
        );
        handle
    }

    /// Sends a best-effort control datagram to `dst` for `service`.
    /// Returns the correlation token (echoed by well-behaved responders).
    pub fn send_control(&mut self, dst: Dag, service: Xid, body: Bytes) -> u64 {
        let token = self.meta.next_token;
        self.meta.next_token += 1;
        self.send_control_with_token(dst, service, token, body);
        token
    }

    /// Sends a control datagram echoing an existing `token` (replies).
    pub fn send_control_with_token(&mut self, dst: Dag, service: Xid, token: u64, body: Bytes) {
        let src = self.meta.local_dag();
        let pkt = XiaPacket::new(
            dst,
            src,
            L4::Control {
                service,
                token,
                body,
            },
        );
        self.outbox.push(pkt);
    }

    /// Sends a raw packet on a specific link (used by infrastructure apps,
    /// e.g. beacon transmitters on AP radios).
    pub fn send_on_link(&mut self, link: LinkId, pkt: XiaPacket) {
        self.sim.send(link, pkt);
    }

    /// Arms an application timer; `key` (low 32 bits) returns via
    /// [`crate::App::on_timer`].
    pub fn set_app_timer(&mut self, delay: SimDuration, key: u32) {
        let packed = APP_TIMER_TAG
            | (u64::from(self.meta.boot_epoch) << 40)
            | ((self.app_idx as u64 & 0xFF) << 32)
            | u64::from(key);
        self.sim.set_timer(delay, packed);
    }

    /// Whether the simulation's flight recorder is attached. Check before
    /// building event payloads by hand — `util::trace_event!` does it for
    /// you.
    pub fn tracing(&self) -> bool {
        self.sim.tracing()
    }

    /// Records `event` against this host's node at the current sim time;
    /// a no-op when tracing is off.
    pub fn trace(&mut self, event: simnet::TraceEvent) {
        self.sim.trace(event);
    }
}
