//! The host context: the "OS API" applications program against.

use std::collections::{BTreeMap, VecDeque};

use simnet::{Context as SimContext, LinkId, SimDuration, SimTime};
use util::bytes::Bytes;
use xcache::{ChunkFetcher, ChunkStore};
use xia_addr::{Dag, Xid};
use xia_transport::{TransportError, TransportEvent, TransportMux};
use xia_wire::{ConnId, XiaPacket, L4};

/// Tag marking a host timer key as belonging to an application.
pub(crate) const APP_TIMER_TAG: u64 = 0x4150 << 48;

/// Who owns a transport connection on this host.
#[derive(Debug)]
pub(crate) enum Owner {
    /// The built-in chunk server.
    Server,
    /// Application `idx` (raw connection API).
    App(usize),
    /// A chunk fetch delegation issued by application `idx`.
    Fetch(usize),
}

/// State of one in-flight chunk fetch.
#[derive(Debug)]
pub(crate) struct FetchState {
    pub(crate) handle: u64,
    pub(crate) fetcher: ChunkFetcher,
    /// Terminal result already reported to the app.
    pub(crate) done: bool,
}

/// Host identity and attachment state shared with applications.
#[derive(Debug)]
pub struct HostMeta {
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

/// The window through which an [`crate::App`] uses its host: transport,
/// chunk fetching, control datagrams, timers, attachment management and
/// the local chunk store.
pub struct HostCtx<'a, 'b> {
    pub(crate) sim: &'a mut SimContext<'b, XiaPacket>,
    pub(crate) mux: &'a mut TransportMux,
    pub(crate) store: &'a mut ChunkStore,
    pub(crate) meta: &'a mut HostMeta,
    pub(crate) owners: &'a mut BTreeMap<ConnId, Owner>,
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

    /// Whether `link` is currently up.
    pub fn link_up(&self, link: LinkId) -> bool {
        self.sim.link_up(link)
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

    /// Opens a transport connection to `dst`; events arrive via
    /// [`crate::App::on_transport_event`].
    pub fn connect(&mut self, dst: Dag) -> ConnId {
        let src = self.meta.local_dag();
        let app_idx = self.app_idx;
        let (mux, mut env) = self.env();
        let id = mux.connect(&mut env, dst, src);
        self.owners.insert(id, Owner::App(app_idx));
        id
    }

    /// Sends bytes on an app-owned connection.
    ///
    /// # Errors
    ///
    /// Propagates transport errors (unknown/closing connection).
    pub fn send(&mut self, conn: ConnId, data: Bytes) -> Result<(), TransportError> {
        let (mux, mut env) = self.env();
        mux.send(&mut env, conn, data)
    }

    /// Closes the send direction of an app-owned connection.
    ///
    /// # Errors
    ///
    /// Propagates transport errors (unknown connection).
    pub fn close(&mut self, conn: ConnId) -> Result<(), TransportError> {
        let (mux, mut env) = self.env();
        mux.close(&mut env, conn)
    }

    /// Aborts a connection.
    pub fn abort(&mut self, conn: ConnId) {
        let (mux, mut env) = self.env();
        mux.abort(&mut env, conn);
    }

    /// Smoothed RTT of a live connection, if measured.
    pub fn srtt(&self, conn: ConnId) -> Option<SimDuration> {
        self.mux.srtt(conn)
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
        self.owners.insert(conn, Owner::Fetch(app_idx));
        self.fetchers.insert(
            conn,
            FetchState {
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
        let packed = APP_TIMER_TAG | ((self.app_idx as u64 & 0xFFFF) << 32) | u64::from(key);
        self.sim.set_timer(delay, packed);
    }

    /// Uniform random value in `[0, 1)` from the simulation's seeded RNG.
    pub fn random_f64(&mut self) -> f64 {
        self.sim.random_f64()
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
