//! The whole client, every interleaving, no world.
//!
//! A [`SoftStageClient`] is a function of its callbacks: each one reads a
//! [`HostView`] and returns [`Effect`]s. So a forty-line stand-in host —
//! the view, the armed timers, the outstanding fetches and staging
//! requests, kept between callbacks — can put a default-config client
//! with three chunks through *every* sequence of a nine-event alphabet
//! with `util::check::walk`, the way `tests/overload.rs` walks the
//! breaker. After every step: at most one fetch in flight, no fetch
//! asked for while unattached, no handle reused, `is_done()` exactly when
//! three chunks are fetched, no chunk outstanding at any VNF but the
//! attached edge's right after an association; and every traced event (plus a `staged`
//! record for each positive ack, as the VNF would have written) goes
//! through `simnet::TraceAudit`, so the oracle's invariants hold on every
//! interleaving rather than on two golden runs.
//!
//! The wait for a stage is checked the same way. After every step, an
//! associated client with no fetch out and no origin retry pending must
//! be waiting on its cursor chunk's outstanding staging request. At every
//! leaf, such a client is left on a quiet network with its timers firing.
//! Each request it waits on must leave `Pending` within
//! `softstage::stage_wait_bound` (the request's back-off plus the tick
//! that finds it stale); a stale chunk is asked for again and the fetch
//! waits on the new request, but a fetch must start before the chunk has
//! been asked for more than `BreakerConfig::threshold` times, since each
//! unanswered request trips the breaker once. An idle client's "complete
//! a fetch" is a no-op, so every prefix that ends waiting is also a leaf
//! state, and the leaves cover every prefix.
//!
//! The walk cannot pass vacuously: it asserts its leaf count, how many
//! sequences fetch one chunk, how many wait, how many of those waits
//! outlive their first request and the most requests one wait spans. A
//! chunk costs at least an answer and a completion, so no depth-5
//! sequence fetches a second chunk; depth 7 does, and a fixed sequence
//! delivers all three. Three more pin the retry budget's accounting: a
//! coverage gap spends none of it, and re-association re-asks at once;
//! an edge that never answers spends it all, then the client degrades.
//! Mutations that make the depth-5 walk fail (checked by hand): in
//! `client.rs::handle_handoff_opportunity`, let the `ChunkAware` arm call
//! `commit_handoff` while `in_flight.is_some()` — beacon A, association
//! timer, positive answer, stronger beacon B is then reported as
//! `HandoffMidChunk`; in `client.rs::on_control`, drop the
//! `wake_if_cursor` call after a `Staged` answer — beacon A, association
//! timer, a positive answer then leaves the client idle on a `Ready`
//! chunk; and in the TICK handler, drop `note_breaker_failure` for a
//! stale request — the breaker never opens on a quiet network and the
//! cursor chunk is asked for a sixth time with no fetch started; and in
//! `client.rs::on_associated`, re-ask outstanding chunks only after a
//! coverage gap — beacon A, association timer, stronger beacon B,
//! association timer leaves chunk 0 outstanding at A's VNF.

use std::cell::Cell;
use std::collections::{BTreeSet, VecDeque};

use simnet::{
    ClientMode, LinkId, NodeId, RejectReason, SimStats, SimTime, Tag, TraceAudit, TraceEvent,
    TraceRecord,
};
use softstage::{
    stage_wait_bound, BreakerConfig, SoftStageClient, SoftStageConfig, StagingMsg, StagingState,
};
use util::bytes::Bytes;
use vehicular::RoamState;
use xcache::{ChunkStore, EvictionPolicy};
use xia_addr::{Dag, Principal, Xid};
use xia_host::{App, Effect, FetchResult, HostCtx, HostView};
use xia_wire::Beacon;

const CHUNKS: usize = 3;
const EVENTS: usize = 9;

/// An edge network as the client hears it: identity, radio and VNF.
struct Edge {
    beacon: Beacon,
    link: LinkId,
}

fn edge(seed: u64, rss_dbm: f64) -> Edge {
    let nid = Xid::new_random(Principal::Nid, seed);
    let hid = Xid::new_random(Principal::Hid, seed);
    let sid = Xid::new_random(Principal::Sid, seed);
    Edge {
        beacon: Beacon {
            nid,
            hid,
            rss_dbm,
            staging_vnf: Some(Dag::service_with_fallback(sid, nid, hid)),
        },
        link: LinkId::from_index(seed as usize),
    }
}

/// One chunk of one staging request, waiting for the edge's answer.
struct Asked {
    token: u64,
    cid: Xid,
    /// The VNF asked: replies come from, and name, its edge.
    vnf: Dag,
}

/// What a host keeps between callbacks, and nothing else.
struct StandIn {
    view: HostView,
    store: ChunkStore,
    client: SoftStageClient,
    /// `(due, key)` in arming order.
    timers: Vec<(SimTime, u8)>,
    /// `(handle, cid)` of fetches asked for and not yet answered.
    fetches: VecDeque<(u64, Xid)>,
    asked: VecDeque<Asked>,
    handles: BTreeSet<u64>,
    /// `(network, its VNF's service)` of every edge heard.
    vnfs: Vec<(Xid, Xid)>,
    /// An origin fetch failed and no fetch has started since: the client
    /// is in its retry back-off.
    retrying: bool,
    audit: TraceAudit,
    seq: u64,
}

impl StandIn {
    fn new() -> Self {
        let origin = Xid::new_random(Principal::Hid, 90);
        let origin_net = Xid::new_random(Principal::Nid, 90);
        let chunks = (0..CHUNKS as u8)
            .map(|i| {
                let cid = Xid::for_content(&[i]);
                (cid, Dag::cid_with_fallback(cid, origin_net, origin))
            })
            .collect();
        let mut view = HostView::new(Xid::new_random(Principal::Hid, 91));
        view.tracing = true;
        let mut host = StandIn {
            view,
            store: ChunkStore::new(0, EvictionPolicy::Lru),
            client: SoftStageClient::new(chunks, 1, SoftStageConfig::default()),
            timers: Vec::new(),
            fetches: VecDeque::new(),
            asked: VecDeque::new(),
            handles: BTreeSet::new(),
            vnfs: Vec::new(),
            retrying: false,
            audit: TraceAudit::default(),
            seq: 0,
        };
        host.call(|app, ctx| app.on_start(ctx));
        host
    }

    fn record(&mut self, event: TraceEvent) {
        self.audit.observe(&TraceRecord {
            seq: self.seq,
            at: self.view.now,
            node: NodeId::from_index(0),
            event,
        });
        self.seq += 1;
    }

    /// Runs one callback, then does what a host does with its effects —
    /// and checks the client asked for nothing a host could not honour.
    fn call(&mut self, f: impl FnOnce(&mut SoftStageClient, &mut HostCtx<'_>)) {
        let mut ctx = HostCtx::new(self.view, &mut self.store, Vec::new());
        f(&mut self.client, &mut ctx);
        let (view, effects) = ctx.finish();
        let mut attached = self.view.nid.is_some();
        let mut joined = None;
        self.view = view;
        for effect in effects {
            match effect {
                Effect::Fetch { handle, dag } => {
                    assert!(attached, "fetch {handle} asked for while unattached");
                    assert!(self.handles.insert(handle), "handle {handle} reused");
                    self.fetches.push_back((handle, dag.intent()));
                    self.retrying = false;
                }
                Effect::Control {
                    dst, token, body, ..
                } => {
                    if let Some(StagingMsg::Request { chunks, .. }) = StagingMsg::decode(&body) {
                        for (cid, _) in chunks {
                            let vnf = dst.clone();
                            self.asked.push_back(Asked { token, cid, vnf });
                        }
                    }
                }
                Effect::Timer { delay, key } => self.timers.push((self.view.now + delay, key)),
                Effect::Attach { nid, .. } => {
                    attached = nid.is_some();
                    joined = nid;
                }
                Effect::Trace(event) => self.record(event),
                Effect::Migrate { .. } => assert!(attached, "migration while unattached"),
                Effect::Register { .. } | Effect::SendOnLink { .. } => {
                    panic!("a client neither registers services nor owns radios")
                }
            }
        }
        assert!(self.fetches.len() <= 1, "two fetches in flight");
        assert_eq!(
            self.client.is_done(),
            self.client.fetched_chunks() == CHUNKS
        );
        if let Some(nid) = joined {
            self.asks_only_here(nid);
        }
        if let Some(cursor) = self.idle() {
            let state = self.staging_state(cursor);
            assert!(
                matches!(state, StagingState::Pending { .. }),
                "idle on chunk {cursor}, staging state {state:?}"
            );
        }
    }

    /// The fetch cursor, when the client could fetch and is not: it is
    /// associated, unfinished, has no fetch out and no origin retry
    /// pending.
    fn idle(&self) -> Option<usize> {
        let associated = matches!(self.client.roamer.state(), RoamState::Associated { .. });
        let busy = self.client.is_done() || !self.fetches.is_empty() || self.retrying;
        (associated && !busy).then(|| self.client.fetched_chunks())
    }

    /// Right after an association with `nid`, nothing is outstanding at
    /// any other edge's VNF: answers from there would go to a locator the
    /// client has left.
    fn asks_only_here(&self, nid: Xid) {
        let here = self
            .vnfs
            .iter()
            .find(|&&(heard, _)| heard == nid)
            .map(|&(_, vnf)| vnf);
        for idx in 0..CHUNKS {
            if let StagingState::Pending { vnf, .. } = self.staging_state(idx) {
                assert_eq!(
                    Some(vnf),
                    here,
                    "chunk {idx} outstanding elsewhere on joining {nid:?}"
                );
            }
        }
    }

    fn staging_state(&self, idx: usize) -> StagingState {
        let profile = self.client.profile();
        profile
            .get(idx)
            .expect("cursor in range")
            .staging_state
            .clone()
    }

    /// Leaves a client waiting on a stage on a quiet network: only its
    /// timers fire, and no edge answers. Each request the fetch waits on
    /// must leave `Pending` within `stage_wait_bound` of going out; a cut
    /// chunk may be asked for again, but the breaker opens after at most
    /// `threshold` unanswered requests, so a fetch must start before the
    /// cursor chunk has been asked for more often than that. Returns how
    /// many requests the fetch waited on.
    fn wait_ends_in_time(&mut self) -> u32 {
        let Some(cursor) = self.idle() else {
            return 0;
        };
        let threshold = BreakerConfig::default().threshold;
        let mut awaited: Option<SimTime> = None;
        let mut requests = 0u32;
        let mut bound = SimTime::ZERO;
        while self.fetches.is_empty() {
            // `call` checks that an idle client waits on a `Pending` chunk.
            let StagingState::Pending { since, .. } = self.staging_state(cursor) else {
                return requests;
            };
            if awaited != Some(since) {
                awaited = Some(since);
                requests += 1;
                assert!(
                    requests <= threshold,
                    "chunk {cursor} asked for {requests} times with no fetch started"
                );
                let record = self.client.profile().get(cursor).expect("cursor in range");
                bound = since + stage_wait_bound(record);
            }
            assert!(
                self.view.now <= bound,
                "chunk {cursor} waited on the request of {since:?} until {:?}, past {bound:?}",
                self.view.now
            );
            assert!(!self.timers.is_empty(), "a waiting client arms no timer");
            self.fire_timer();
        }
        requests
    }

    fn beacon(&mut self, edge: &Edge) {
        let (nid, vnf) = (edge.beacon.nid, edge.beacon.staging_vnf.as_ref());
        if let Some(sid) = vnf.map(Dag::intent) {
            if !self.vnfs.contains(&(nid, sid)) {
                self.vnfs.push((nid, sid));
            }
        }
        self.call(|app, ctx| app.on_beacon(ctx, edge.link, &edge.beacon));
    }

    /// Fires the earliest armed timer, moving the clock to it.
    fn fire_timer(&mut self) {
        let Some(first) = (0..self.timers.len()).min_by_key(|&i| self.timers[i].0) else {
            return;
        };
        let (due, key) = self.timers.remove(first);
        self.view.now = self.view.now.max(due);
        self.call(|app, ctx| app.on_timer(ctx, key));
    }

    /// The asked VNF answers the oldest outstanding chunk.
    fn answer(&mut self, reply: impl FnOnce(Xid, Xid, Xid) -> StagingMsg) {
        let Some(Asked { token, cid, vnf }) = self.asked.pop_front() else {
            return;
        };
        let (Some(nid), Some(hid)) = (vnf.network(), vnf.fallback_host()) else {
            panic!("a VNF address names its edge");
        };
        let msg = reply(cid, nid, hid);
        if matches!(msg, StagingMsg::Staged { ok: true, .. }) {
            let chunk = Tag::of(cid.id());
            self.record(TraceEvent::Staged { chunk, bytes: 1 });
        }
        let (service, body) = (vnf.intent(), msg.encode());
        self.call(|app, ctx| app.on_control(ctx, vnf, service, token, &body));
    }

    fn finish_fetch(&mut self, result: FetchResult) {
        let Some((handle, cid)) = self.fetches.pop_front() else {
            return;
        };
        self.view.connections -= 1;
        self.retrying = matches!(result, FetchResult::Failed);
        self.call(|app, ctx| app.on_fetch_complete(ctx, handle, cid, result));
    }

    fn link_down(&mut self) {
        if let Some(link) = self.view.primary_link {
            self.call(|app, ctx| app.on_link_event(ctx, link, false));
        }
    }
}

/// What the leaves of a walk reached.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Leaves {
    /// Leaves by chunks fetched: `fetched[k]` fetched exactly `k`.
    fetched: [u64; CHUNKS + 1],
    /// Leaves whose client waits on its cursor chunk's stage.
    waiting: u64,
    /// Waiting leaves whose fetch waited on more than one request: the
    /// first was cut as stale and the chunk asked for again.
    rewaited: u64,
    /// The most requests one leaf's fetch waited on.
    most_requests: u32,
}

/// Walks every event sequence of length `depth`, then lets each leaf's
/// wait for a stage run out on a quiet network.
fn walk(depth: usize) -> Leaves {
    let (a, b) = (edge(1, -60.0), edge(2, -50.0));
    let reached = Cell::new(Leaves::default());
    let stats = SimStats::default();
    let leaves = util::check::walk(|w| {
        let mut host = StandIn::new();
        for _ in 0..depth {
            match w.choice(EVENTS) {
                0 => host.beacon(&a),
                1 => host.beacon(&b),
                2 => host.fire_timer(),
                3 => host.answer(|cid, nid, hid| StagingMsg::Staged {
                    cid,
                    ok: true,
                    staging_latency_us: 40_000,
                    nid,
                    hid,
                }),
                4 => host.answer(|cid, nid, hid| StagingMsg::Staged {
                    cid,
                    ok: false,
                    staging_latency_us: 40_000,
                    nid,
                    hid,
                }),
                5 => host.answer(|cid, _, _| StagingMsg::Reject {
                    cid,
                    reason: RejectReason::QueueDepth,
                    retry_after_us: 1_000_000,
                }),
                6 => host.finish_fetch(FetchResult::Complete(Bytes::from_static(b"x"))),
                7 => host.finish_fetch(FetchResult::Failed),
                _ => host.link_down(),
            }
        }
        let mut leaf = reached.get();
        leaf.fetched[host.client.fetched_chunks()] += 1;
        leaf.waiting += u64::from(host.idle().is_some());
        let requests = host.wait_ends_in_time();
        leaf.rewaited += u64::from(requests > 1);
        leaf.most_requests = leaf.most_requests.max(requests);
        reached.set(leaf);
        let found = host.audit.violations(Some(&stats));
        assert!(found.is_empty(), "{found:?}");
    });
    assert_eq!(leaves, (EVENTS as u64).pow(depth as u32));
    reached.get()
}

#[test]
fn every_depth_5_interleaving_keeps_the_client_invariants() {
    // A beacon, the association timer, an answer and a completion fetch
    // one chunk; two answers put the second in flight. A client that
    // heard its edge and nothing else waits. So does one that joined A,
    // then handed off to the stronger B: B is asked again for chunk 0 on
    // association, where an answer from A would go to the locator left.
    let leaves = walk(5);
    assert_eq!(leaves.fetched[1..], [215, 0, 0], "{leaves:?}");
    assert_eq!(leaves.waiting, 5856, "{leaves:?}");
    // No edge answers a waiting leaf, so every wait outlives its first
    // request; the breaker opens before the fifth.
    assert_eq!(leaves.rewaited, 5856, "{leaves:?}");
    assert_eq!(leaves.most_requests, 4, "{leaves:?}");
}

#[test]
#[ignore = "4.8 M sequences, ~90 s in release: scripts/verify.sh runs it"]
fn every_depth_7_interleaving_keeps_the_client_invariants() {
    let leaves = walk(7);
    assert!(leaves.fetched[2] > 0, "{leaves:?}");
}

#[test]
fn a_client_whose_stages_all_land_waits_for_each_and_finishes() {
    let (mut host, _) = associated();
    let mut steps = 0;
    while !host.client.is_done() {
        steps += 1;
        assert!(steps < 20, "stuck: {:?}", host.client.stats());
        if host.fetches.is_empty() {
            assert!(host.idle().is_some(), "neither fetching nor waiting");
            host.answer(|cid, nid, hid| StagingMsg::Staged {
                cid,
                ok: true,
                staging_latency_us: 40_000,
                nid,
                hid,
            });
        } else {
            host.finish_fetch(FetchResult::Complete(Bytes::from_static(b"x")));
        }
    }
    let stats = host.client.stats();
    // Every chunk waited for its stage and came from the edge: no fetch
    // raced its own stage.
    assert_eq!((stats.from_staged, stats.pending_fetches), (3, 0));
    let found = host.audit.violations(None);
    assert!(found.is_empty(), "{found:?}");
}

/// Fires armed timers until `done` holds, at most `limit` of them.
fn fire_until(host: &mut StandIn, limit: usize, done: impl Fn(&StandIn) -> bool) {
    for _ in 0..limit {
        if done(host) {
            return;
        }
        host.fire_timer();
    }
}

/// Hears edge A and lets the association timer fire: the client is
/// associated, has asked A's VNF to stage ahead, and waits for chunk 0.
fn associated() -> (StandIn, Edge) {
    let a = edge(1, -60.0);
    let mut host = StandIn::new();
    host.beacon(&a);
    host.fire_timer();
    assert!(host.view.nid.is_some(), "associated");
    assert!(!host.asked.is_empty(), "staging asked for on association");
    assert_eq!(host.idle(), Some(0), "waiting for chunk 0's stage");
    (host, a)
}

#[test]
fn a_detached_client_sends_no_staging_and_spends_no_retries() {
    let (mut host, _) = associated();
    let asked = host.asked.len();
    host.link_down();
    for _ in 0..10 {
        host.fire_timer();
    }
    assert_eq!(host.asked.len(), asked, "staging asked for while detached");
    assert_eq!(host.client.stats().stage_retries, 0);
}

#[test]
fn re_association_re_asks_what_the_gap_ate_without_waiting() {
    let (mut host, a) = associated();
    let asked = host.asked.len();
    // The chunk being fetched is not staged again; every other one is.
    let fetching: Vec<Xid> = host.fetches.iter().map(|&(_, cid)| cid).collect();
    let mut lost: Vec<Xid> = host.asked.iter().map(|q| q.cid).collect();
    lost.retain(|cid| !fetching.contains(cid));
    assert!(!lost.is_empty());
    host.link_down();
    host.beacon(&a);
    let before = host.view.now;
    fire_until(&mut host, 4, |h| h.view.nid.is_some());
    // Well inside the first staging back-off (2 s, less a quarter).
    assert!(host.view.now - before < simnet::SimDuration::from_millis(500));
    let again: Vec<Xid> = host.asked.iter().skip(asked).map(|q| q.cid).collect();
    assert!(
        lost.iter().all(|cid| again.contains(cid)),
        "the gap's requests {lost:?} asked for again: {again:?}"
    );
    assert_eq!(host.client.stats().stage_retries, 0, "and not charged");
}

#[test]
fn an_edge_that_never_answers_spends_the_whole_budget_then_degrades() {
    let (mut host, _) = associated();
    fire_until(&mut host, 100_000, |h| {
        h.client.mode() == ClientMode::Degraded
    });
    assert_eq!(host.client.mode(), ClientMode::Degraded);
    let stats = host.client.stats();
    // `STAGE_RETRY_BUDGET`: each one a timeout of the associated edge.
    assert_eq!((stats.stage_retries, stats.stage_timeouts), (64, 64));
    let found = host.audit.violations(None);
    assert!(found.is_empty(), "{found:?}");
}
