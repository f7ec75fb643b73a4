//! The host stack and its simulator node wrapper.

use std::collections::{BTreeMap, VecDeque};

use simnet::{
    Context as SimContext, LinkId, Node, NodeFault, SimDuration, SimTime, Tag, TimerKey, TraceEvent,
};
use util::bytes::Bytes;
use xcache::{
    chunk_content, ChunkFetcher, ChunkServer, ChunkStore, EvictionPolicy, FetchProgress, Manifest,
    ServerAction,
};
use xia_addr::{Dag, Principal, Xid};
use xia_transport::{Owner, TransportConfig, TransportEvent, TransportMux};
use xia_wire::{ConnId, XiaPacket, L4};

use crate::app::{App, FetchResult};
use crate::ctx::{Effect, HostCtx, HostView};

/// Whose a host timer is: the transport's, or app `idx`'s `key` armed in
/// boot `epoch`. The simulator carries it as [`HostTimer::key`]: bit 63
/// set is an app's `epoch << 24 | idx << 8 | key`, clear is the
/// transport's own key, the mux slot of the connection that armed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HostTimer {
    Transport(u64),
    App { idx: u16, epoch: u32, key: u8 },
}

impl HostTimer {
    const APP: TimerKey = 1 << 63;

    fn key(self) -> TimerKey {
        match self {
            HostTimer::Transport(key) => key,
            HostTimer::App { idx, epoch, key } => {
                Self::APP | u64::from(epoch) << 24 | u64::from(idx) << 8 | u64::from(key)
            }
        }
    }

    fn from_key(key: TimerKey) -> Self {
        if key & Self::APP == 0 {
            return HostTimer::Transport(key);
        }
        let (epoch, idx, key) = ((key >> 24) as u32, (key >> 8) as u16, key as u8);
        HostTimer::App { idx, epoch, key }
    }
}

/// State of one in-flight chunk fetch. A connection with a `FetchState`
/// is a fetch; any other connection the mux knows is one the chunk server
/// accepted.
#[derive(Debug)]
struct FetchState {
    /// The application that issued the fetch.
    app_idx: usize,
    handle: u64,
    fetcher: ChunkFetcher,
    /// Terminal result already reported to the app.
    done: bool,
}

/// Host identity and attachment state.
#[derive(Debug)]
struct HostMeta {
    hid: Xid,
    nid: Option<Xid>,
    /// The locator address for `nid`, rebuilt only when `nid` changes so
    /// the per-packet paths clone an `Rc` instead of assembling a DAG.
    local: Dag,
    primary_link: Option<LinkId>,
    services: Vec<Xid>,
    next_fetch_handle: u64,
    next_token: u64,
    /// Bumped at every restart, so a timer armed before a crash is
    /// recognised, and dropped, when it matures after the reboot.
    boot_epoch: u32,
}

impl HostMeta {
    /// Identity of an unattached host.
    fn new(hid: Xid) -> Self {
        HostMeta {
            hid,
            nid: None,
            local: Dag::direct(hid),
            primary_link: None,
            services: Vec::new(),
            next_fetch_handle: 1,
            next_token: 1,
            boot_epoch: 0,
        }
    }

    /// Moves the data plane to `link` inside network `nid`.
    fn set_attachment(&mut self, nid: Option<Xid>, link: Option<LinkId>) {
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
    fn local_dag(&self) -> Dag {
        self.local.clone()
    }
}

/// Bridges the transport's environment to the simulator context. All
/// packet emissions go to the host's outbox; the wrapping node (end host
/// or router) decides the egress link — a router routes them through its
/// own forwarding engine.
struct HostEnv<'a, 'b> {
    sim: &'a mut SimContext<'b, XiaPacket>,
    outbox: &'a mut Vec<XiaPacket>,
    pending: &'a mut VecDeque<TransportEvent>,
}

impl xia_transport::TransportEnv for HostEnv<'_, '_> {
    fn now(&self) -> SimTime {
        self.sim.now()
    }
    fn emit(&mut self, pkt: XiaPacket) {
        self.outbox.push(pkt);
    }
    fn set_timer(&mut self, delay: SimDuration, key: u64) {
        self.sim.set_timer(delay, HostTimer::Transport(key).key());
    }
    fn deliver(&mut self, event: TransportEvent) {
        self.pending.push_back(event);
    }
}

/// Configuration of a host stack.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Host identifier.
    pub hid: Xid,
    /// Transport tuning (XIA prototype model by default).
    pub transport: TransportConfig,
    /// Local XCache capacity in bytes.
    pub cache_capacity: usize,
}

impl HostConfig {
    /// A host with defaults suitable for most roles: XIA transport model
    /// and a 256 MiB LRU cache. A host does not cache the chunks it
    /// fetches.
    pub fn new(hid: Xid) -> Self {
        HostConfig {
            hid,
            transport: TransportConfig::xia(),
            cache_capacity: 256 * 1024 * 1024,
        }
    }
}

/// A full XIA host stack: transport mux, local XCache with its chunk
/// server, and a set of [`App`]s.
///
/// `Host` is deliberately not a [`Node`] itself: end hosts wrap it in
/// [`EndHost`], and routers (`xia-router`) embed it next to a forwarding
/// engine so a router's XCache can serve intercepted CID requests.
pub struct Host {
    meta: HostMeta,
    mux: TransportMux,
    store: ChunkStore,
    server: ChunkServer,
    apps: Vec<Box<dyn App>>,
    fetchers: BTreeMap<ConnId, FetchState>,
    pending: VecDeque<TransportEvent>,
    outbox: Vec<XiaPacket>,
    /// The drained effect log of the last callback, lent to the next one
    /// so a dispatch in steady state does not allocate.
    spare_effects: Vec<Effect>,
    /// Crashed and not yet restarted: the stack drops all traffic, timers
    /// and link events until a [`NodeFault::Restart`] arrives.
    down: bool,
}

impl Host {
    /// Builds a host from its configuration.
    pub fn new(config: HostConfig) -> Self {
        Host {
            meta: HostMeta::new(config.hid),
            mux: TransportMux::new(config.transport, config.hid),
            store: ChunkStore::new(config.cache_capacity, EvictionPolicy::Lru),
            server: ChunkServer::new(),
            apps: Vec::new(),
            fetchers: BTreeMap::new(),
            pending: VecDeque::new(),
            outbox: Vec::new(),
            spare_effects: Vec::new(),
            down: false,
        }
    }

    /// Adds an application; returns its index.
    ///
    /// # Panics
    ///
    /// If the host already runs 65,536 apps, the most a timer key can name.
    pub fn add_app(&mut self, app: Box<dyn App>) -> usize {
        assert!(
            self.apps.len() <= usize::from(u16::MAX),
            "a host runs at most 65536 apps"
        );
        self.apps.push(app);
        self.apps.len() - 1
    }

    /// Downcast access to an application.
    pub fn app<T: App>(&self, idx: usize) -> Option<&T> {
        let app = self.apps.get(idx)?.as_ref();
        (app as &dyn std::any::Any).downcast_ref::<T>()
    }

    /// Mutable downcast access to an application.
    pub fn app_mut<T: App>(&mut self, idx: usize) -> Option<&mut T> {
        let app = self.apps.get_mut(idx)?.as_mut();
        (app as &mut dyn std::any::Any).downcast_mut::<T>()
    }

    /// This host's identifier.
    pub fn hid(&self) -> Xid {
        self.meta.hid
    }

    /// Sets the data-plane attachment before or during a run.
    pub fn set_attachment(&mut self, nid: Option<Xid>, link: Option<LinkId>) {
        self.meta.set_attachment(nid, link);
    }

    /// The local chunk store.
    pub fn store(&self) -> &ChunkStore {
        &self.store
    }

    /// Mutable access to the local chunk store.
    pub fn store_mut(&mut self) -> &mut ChunkStore {
        &mut self.store
    }

    /// The built-in chunk server's counters.
    pub fn server(&self) -> &ChunkServer {
        &self.server
    }

    /// Live transport connections.
    pub fn active_connections(&self) -> usize {
        self.mux.active_connections()
    }

    /// The current primary (data) link, if attached.
    pub fn primary_link(&self) -> Option<LinkId> {
        self.meta.primary_link
    }

    /// Swaps the packets emitted by the stack since the last call into
    /// `spare`, which must be empty and whose allocation the stack's next
    /// emissions reuse — so two buffers ping-pong and a dispatch in steady
    /// state allocates neither. The wrapping node decides the packets'
    /// egress: an [`EndHost`] sends them on its primary link; a router
    /// routes them through its forwarding engine.
    pub fn swap_outbox(&mut self, spare: &mut Vec<XiaPacket>) {
        debug_assert!(spare.is_empty(), "outbox spare must be drained");
        std::mem::swap(&mut self.outbox, spare);
    }

    /// Publishes `content` as pinned chunks of `chunk_size` bytes and
    /// returns the manifest clients fetch from.
    pub fn publish_content(&mut self, content: &Bytes, chunk_size: usize) -> Manifest {
        let (manifest, chunks) = chunk_content(content, chunk_size);
        for (cid, data) in chunks {
            self.store.publish(cid, data);
        }
        manifest
    }

    /// Whether this stack should consume `pkt` (local delivery), judged
    /// by address only: a segment of a live connection is claimed first,
    /// by [`Host::owner`].
    pub fn wants_packet(&self, pkt: &XiaPacket) -> bool {
        match &pkt.l4 {
            L4::Beacon(_) => true,
            L4::Control { .. } => {
                // Delivery is by address: the datagram is ours if its
                // intent is a service we host or our own HID. The payload's
                // service field only demultiplexes between local apps.
                let intent = pkt.dst.intent();
                self.meta.services.contains(&intent) || intent == self.meta.hid
            }
            L4::Segment(_) => {
                let intent = pkt.dst.intent();
                if intent == self.meta.hid {
                    return true;
                }
                if intent.principal() == Principal::Cid {
                    return self.store.contains(&intent)
                        || pkt.dst.fallback_host() == Some(self.meta.hid);
                }
                false
            }
        }
    }

    /// The live connection of this stack `pkt` is a segment of, if any,
    /// wherever the packet was addressed; `None` while the stack is down.
    /// One probe, judged by reference: a packet this stack does not own
    /// stays with the caller, for [`Host::wants_packet`] or the router's
    /// DAG walk to judge.
    pub fn owner(&self, pkt: &XiaPacket) -> Option<Owner> {
        if self.down {
            return None;
        }
        self.mux.owner(pkt)
    }

    /// Feeds `pkt` to `owner`, the connection [`Host::owner`] found it is
    /// a segment of, and processes what that raised.
    pub fn deliver_known(
        &mut self,
        ctx: &mut SimContext<'_, XiaPacket>,
        owner: Owner,
        pkt: XiaPacket,
    ) {
        let (mux, mut env) = self.env(ctx);
        mux.deliver_known(&mut env, owner, pkt);
        self.drain(ctx);
    }

    /// Delivers the simulation start to all apps.
    pub fn start(&mut self, ctx: &mut SimContext<'_, XiaPacket>) {
        self.each_app(ctx, |app, hctx| app.on_start(hctx));
        self.drain(ctx);
    }

    /// Whether the stack is crashed and awaiting a restart.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Applies a node-level fault to this stack.
    ///
    /// - [`NodeFault::CacheWipe`]: cached (unpinned) chunks vanish;
    ///   published content and everything else survive.
    /// - [`NodeFault::Crash`]: all volatile state is lost — transport
    ///   connections, fetch bookkeeping, queued packets, service
    ///   registrations, cached chunks — and the stack goes down, dropping
    ///   every upcall until it restarts.
    /// - [`NodeFault::Restart`]: the stack comes back empty-handed and
    ///   re-runs every app's [`App::on_start`] (re-arming timers and
    ///   re-registering services), exactly like a fresh boot.
    pub fn handle_fault(&mut self, ctx: &mut SimContext<'_, XiaPacket>, fault: NodeFault) {
        match fault {
            NodeFault::CacheWipe => {
                self.store.wipe();
            }
            NodeFault::CacheResize { capacity } => {
                self.store.resize(capacity);
            }
            // Host state is untouched; apps model the degraded rate.
            NodeFault::SlowService { .. } => {}
            NodeFault::Crash => {
                self.down = true;
                self.mux.reset();
                self.fetchers.clear();
                self.pending.clear();
                self.outbox.clear();
                self.meta.services.clear();
                self.store.wipe();
            }
            NodeFault::Restart if !self.down => return,
            NodeFault::Restart => {
                self.down = false;
                self.meta.boot_epoch = self.meta.boot_epoch.wrapping_add(1);
            }
        }
        self.each_app(ctx, |app, hctx| app.on_fault(hctx, fault));
        match fault {
            NodeFault::Crash => {
                // No drain: anything apps tried to emit died with the
                // node, and so did the cache's evicted log.
                self.pending.clear();
                self.outbox.clear();
                let _ = self.store.take_evicted();
            }
            NodeFault::Restart => self.start(ctx),
            // Draining flushes a squeeze's evictions into the trace.
            _ => self.drain(ctx),
        }
    }

    /// Handles a packet destined to this stack.
    pub fn handle_packet(
        &mut self,
        ctx: &mut SimContext<'_, XiaPacket>,
        link: LinkId,
        pkt: XiaPacket,
    ) {
        if self.down {
            return;
        }
        match &pkt.l4 {
            L4::Beacon(beacon) => {
                let beacon = beacon.clone();
                self.each_app(ctx, |app, hctx| app.on_beacon(hctx, link, &beacon));
            }
            L4::Control {
                service,
                token,
                body,
            } => {
                let (service, token, body) = (*service, *token, body.clone());
                let from = pkt.src.clone();
                self.each_app(ctx, |app, hctx| {
                    app.on_control(hctx, from.clone(), service, token, &body)
                });
            }
            L4::Segment(_) => {
                let local = self.meta.local_dag();
                let (mux, mut env) = self.env(ctx);
                mux.on_packet(&mut env, pkt, local);
            }
        }
        self.drain(ctx);
    }

    /// Handles a timer this stack armed.
    pub fn handle_timer(&mut self, ctx: &mut SimContext<'_, XiaPacket>, key: TimerKey) {
        if self.down {
            // A crashed node's timers die with it; on_start re-arms app
            // timers after the restart.
            return;
        }
        match HostTimer::from_key(key) {
            HostTimer::Transport(key) => {
                let (mux, mut env) = self.env(ctx);
                mux.on_timer(&mut env, key);
            }
            // A timer armed before the last crash died with the node,
            // even when it matures after the restart.
            HostTimer::App { idx, epoch, key } if epoch == self.meta.boot_epoch => {
                self.with_app(ctx, usize::from(idx), |app, hctx| app.on_timer(hctx, key));
            }
            HostTimer::App { .. } => return,
        }
        self.drain(ctx);
    }

    /// Forwards a link state change to all apps.
    pub fn handle_link_event(
        &mut self,
        ctx: &mut SimContext<'_, XiaPacket>,
        link: LinkId,
        up: bool,
    ) {
        if self.down {
            return;
        }
        self.each_app(ctx, |app, hctx| app.on_link_event(hctx, link, up));
        self.drain(ctx);
    }

    /// Runs `f` on app `idx` against a snapshot of the host, then carries
    /// out what it asked for, in order. Does not drain events.
    fn with_app(
        &mut self,
        ctx: &mut SimContext<'_, XiaPacket>,
        idx: usize,
        f: impl FnOnce(&mut dyn App, &mut HostCtx<'_>),
    ) {
        let Some(app) = self.apps.get_mut(idx) else {
            return;
        };
        let view = HostView {
            now: ctx.now(),
            hid: self.meta.hid,
            nid: self.meta.nid,
            primary_link: self.meta.primary_link,
            connections: self.mux.active_connections(),
            tracing: ctx.tracing(),
            next_fetch_handle: self.meta.next_fetch_handle,
            next_token: self.meta.next_token,
        };
        let spare = std::mem::take(&mut self.spare_effects);
        let mut hctx = HostCtx::new(view, &mut self.store, spare);
        f(app.as_mut(), &mut hctx);
        let (view, mut effects) = hctx.finish();
        self.meta.next_fetch_handle = view.next_fetch_handle;
        self.meta.next_token = view.next_token;
        for effect in effects.drain(..) {
            self.apply(ctx, idx, effect);
        }
        self.spare_effects = effects;
    }

    /// Carries out one effect asked for by app `app_idx`.
    fn apply(&mut self, ctx: &mut SimContext<'_, XiaPacket>, app_idx: usize, effect: Effect) {
        match effect {
            Effect::Fetch { handle, dag } => {
                let cid = dag.intent();
                let src = self.meta.local_dag();
                let (mux, mut env) = self.env(ctx);
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
            }
            Effect::Control {
                dst,
                service,
                token,
                body,
            } => {
                let l4 = L4::Control {
                    service,
                    token,
                    body,
                };
                self.outbox
                    .push(XiaPacket::new(dst, self.meta.local_dag(), l4));
            }
            Effect::Timer { delay, key } => {
                let (idx, epoch) = (app_idx as u16, self.meta.boot_epoch);
                ctx.set_timer(delay, HostTimer::App { idx, epoch, key }.key());
            }
            Effect::Attach { nid, link } => self.meta.set_attachment(nid, link),
            Effect::Migrate { pause } => {
                let new_src = self.meta.local_dag();
                let (mux, mut env) = self.env(ctx);
                mux.migrate_all(&mut env, new_src, pause);
            }
            Effect::Register { sid } => {
                if !self.meta.services.contains(&sid) {
                    self.meta.services.push(sid);
                }
            }
            Effect::SendOnLink { link, pkt } => ctx.send(link, pkt),
            Effect::Trace(event) => ctx.trace(event),
        }
    }

    /// Runs `f` on every app in index order. Does not drain events.
    fn each_app(
        &mut self,
        ctx: &mut SimContext<'_, XiaPacket>,
        mut f: impl FnMut(&mut dyn App, &mut HostCtx<'_>),
    ) {
        for idx in 0..self.apps.len() {
            self.with_app(ctx, idx, &mut f);
        }
    }

    /// The mux and the environment its calls run against.
    fn env<'a, 'b>(
        &'a mut self,
        ctx: &'a mut SimContext<'b, XiaPacket>,
    ) -> (&'a mut TransportMux, HostEnv<'a, 'b>) {
        let env = HostEnv {
            sim: ctx,
            outbox: &mut self.outbox,
            pending: &mut self.pending,
        };
        (&mut self.mux, env)
    }

    fn apply_server_actions(
        &mut self,
        ctx: &mut SimContext<'_, XiaPacket>,
        actions: Vec<ServerAction>,
    ) {
        let (mux, mut env) = self.env(ctx);
        for action in actions {
            match action {
                ServerAction::Served(cid, bytes) => {
                    let chunk = Tag::of(cid.id());
                    env.sim.trace(TraceEvent::ChunkServed { chunk, bytes });
                }
                ServerAction::Send(conn, data) => {
                    let _ = mux.send(&mut env, conn, data);
                }
                ServerAction::Close(conn) => {
                    let _ = mux.close(&mut env, conn);
                }
                ServerAction::Abort(conn) => mux.abort(&mut env, conn),
            }
        }
    }

    /// Processes queued transport events until none remain.
    fn drain(&mut self, ctx: &mut SimContext<'_, XiaPacket>) {
        while let Some(event) = self.pending.pop_front() {
            self.route_event(ctx, event);
        }
        self.flush_trace(ctx);
    }

    /// Flushes the store's evicted log into the flight recorder. The
    /// take-calls are cheap no-ops when the log is empty (the common case)
    /// and keep it bounded even when tracing is off.
    fn flush_trace(&mut self, ctx: &mut SimContext<'_, XiaPacket>) {
        let evicted = self.store.take_evicted();
        let evicted_dropped = self.store.take_evicted_dropped();
        if !ctx.tracing() {
            return;
        }
        for cid in evicted {
            ctx.trace(TraceEvent::ChunkEvicted {
                chunk: Tag::of(cid.id()),
            });
        }
        if evicted_dropped > 0 {
            // Fleet-scale churn can evict faster than the bounded log can
            // be drained; surface the shortfall instead of losing it.
            ctx.trace(TraceEvent::EvictOverflow {
                dropped: evicted_dropped,
            });
        }
    }

    /// A connection with a [`FetchState`] is a fetch; any other is one the
    /// chunk server accepted.
    fn route_event(&mut self, ctx: &mut SimContext<'_, XiaPacket>, event: TransportEvent) {
        match event {
            TransportEvent::Incoming { conn, .. } => self.server.on_incoming(conn),
            TransportEvent::Connected { conn, .. } => {
                if let Some(st) = self.fetchers.get(&conn) {
                    let req = st.fetcher.request_bytes();
                    let (mux, mut env) = self.env(ctx);
                    let _ = mux.send(&mut env, conn, req);
                }
            }
            TransportEvent::Data { conn, data } => {
                if let Some(st) = self.fetchers.get_mut(&conn) {
                    if st.done {
                        return;
                    }
                    match st.fetcher.on_data(&data) {
                        FetchProgress::InProgress => {}
                        FetchProgress::Complete(bytes) => {
                            self.finish_fetch(ctx, conn, FetchResult::Complete(bytes), false);
                        }
                        FetchProgress::NotFound => {
                            self.finish_fetch(ctx, conn, FetchResult::NotFound, false);
                        }
                        FetchProgress::Corrupt => {
                            self.finish_fetch(ctx, conn, FetchResult::Failed, true);
                        }
                    }
                } else {
                    let actions = self.server.on_data(conn, &data, &mut self.store);
                    self.apply_server_actions(ctx, actions);
                }
            }
            // Before a full body this is a truncated response: the
            // responder closed early.
            TransportEvent::PeerClosed { conn } => {
                self.finish_fetch(ctx, conn, FetchResult::Failed, false);
            }
            TransportEvent::Closed { conn } | TransportEvent::Failed { conn, .. } => {
                if self.fetchers.contains_key(&conn) {
                    // A failure and a clean close without a complete
                    // body both fail the fetch.
                    self.finish_fetch(ctx, conn, FetchResult::Failed, false);
                    self.fetchers.remove(&conn);
                } else {
                    self.server.on_gone(conn);
                }
            }
        }
    }

    /// Ends the fetch on `conn`, if it is one that has not ended yet:
    /// closes (or, on a corrupt body, aborts) the connection — a no-op
    /// once the transport has let go of it — and reports `result` to the
    /// issuing app, once.
    fn finish_fetch(
        &mut self,
        ctx: &mut SimContext<'_, XiaPacket>,
        conn: ConnId,
        result: FetchResult,
        abort: bool,
    ) {
        let Some(st) = self.fetchers.get_mut(&conn) else {
            return;
        };
        if std::mem::replace(&mut st.done, true) {
            return;
        }
        let (app_idx, handle, cid) = (st.app_idx, st.handle, st.fetcher.cid());
        let (mux, mut env) = self.env(ctx);
        if abort {
            mux.abort(&mut env, conn);
        } else {
            let _ = mux.close(&mut env, conn);
        }
        self.with_app(ctx, app_idx, |app, hctx| {
            app.on_fetch_complete(hctx, handle, cid, result)
        });
    }
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("hid", &self.meta.hid)
            .field("nid", &self.meta.nid)
            .field("apps", &self.apps.len())
            .field("connections", &self.mux.active_connections())
            .finish()
    }
}

/// A stub end host: consumes packets its stack wants, drops the rest,
/// and sends everything its stack emits out the primary link.
#[derive(Debug)]
pub struct EndHost {
    host: Host,
    /// Drained outbox buffer, swapped back into the stack at each flush.
    spare_outbox: Vec<XiaPacket>,
}

impl EndHost {
    /// Wraps a host stack as a simulator node.
    pub fn new(host: Host) -> Self {
        EndHost {
            host,
            spare_outbox: Vec::new(),
        }
    }

    /// The inner host stack.
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// Mutable access to the inner host stack.
    pub fn host_mut(&mut self) -> &mut Host {
        &mut self.host
    }

    /// Sends queued stack emissions out the primary link; with none
    /// attached they are lost (transmitting into a coverage gap).
    fn flush(&mut self, ctx: &mut SimContext<'_, XiaPacket>) {
        self.host.swap_outbox(&mut self.spare_outbox);
        let link = self.host.primary_link();
        for pkt in self.spare_outbox.drain(..) {
            if let Some(link) = link {
                ctx.send(link, pkt);
            }
        }
    }
}

impl Node<XiaPacket> for EndHost {
    fn on_start(&mut self, ctx: &mut SimContext<'_, XiaPacket>) {
        self.host.start(ctx);
        self.flush(ctx);
    }

    fn on_packet(&mut self, ctx: &mut SimContext<'_, XiaPacket>, link: LinkId, pkt: XiaPacket) {
        if let Some(owner) = self.host.owner(&pkt) {
            self.host.deliver_known(ctx, owner, pkt);
            return self.flush(ctx);
        }
        // Anything else was not for this host.
        if self.host.wants_packet(&pkt) {
            self.host.handle_packet(ctx, link, pkt);
            self.flush(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut SimContext<'_, XiaPacket>, key: TimerKey) {
        self.host.handle_timer(ctx, key);
        self.flush(ctx);
    }

    fn on_link_event(&mut self, ctx: &mut SimContext<'_, XiaPacket>, link: LinkId, up: bool) {
        self.host.handle_link_event(ctx, link, up);
        self.flush(ctx);
    }

    fn on_fault(&mut self, ctx: &mut SimContext<'_, XiaPacket>, fault: NodeFault) {
        self.host.handle_fault(ctx, fault);
        self.flush(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::HostTimer;
    use util::check::check;

    #[test]
    fn a_host_timer_decodes_to_what_was_encoded() {
        check("host_timer_round_trips", 1024, |g| {
            // All bits clear, all set, or drawn: every field meets its edges.
            let drawn = g.u64();
            let v = *g.choose(&[0, u64::MAX, drawn]);
            let timer = if g.bool() {
                HostTimer::Transport(v >> 1)
            } else {
                let (idx, epoch, key) = (v as u16, (v >> 16) as u32, (v >> 48) as u8);
                HostTimer::App { idx, epoch, key }
            };
            assert_eq!(HostTimer::from_key(timer.key()), timer);
        });
    }
}
