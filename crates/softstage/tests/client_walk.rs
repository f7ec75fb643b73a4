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
//! three chunks are fetched; and every traced event (plus a `staged`
//! record for each positive ack, as the VNF would have written) goes
//! through `simnet::TraceAudit`, so the oracle's invariants hold on every
//! interleaving rather than on two golden runs.
//!
//! The walk cannot pass vacuously: it asserts its leaf count and that
//! some sequence delivers all three chunks. Three fixed sequences pin the
//! retry budget's accounting: a coverage gap spends none of it, and
//! re-association re-asks at once; an edge that never answers spends it
//! all, then the client degrades. Mutation that makes it fail
//! (checked by hand): in `client.rs::handle_handoff_opportunity`, let the
//! `ChunkAware` arm call `commit_handoff` while `in_flight.is_some()` —
//! beacon A, association timer, stronger beacon B is then reported as
//! `HandoffMidChunk` within the first few hundred sequences.

use std::cell::Cell;
use std::collections::{BTreeSet, VecDeque};

use simnet::{
    ClientMode, LinkId, NodeId, RejectReason, SimStats, SimTime, Tag, TraceAudit, TraceEvent,
    TraceRecord,
};
use softstage::{SoftStageClient, SoftStageConfig, StagingMsg};
use util::bytes::Bytes;
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
        self.view = view;
        for effect in effects {
            match effect {
                Effect::Fetch { handle, dag } => {
                    assert!(attached, "fetch {handle} asked for while unattached");
                    assert!(self.handles.insert(handle), "handle {handle} reused");
                    self.fetches.push_back((handle, dag.intent()));
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
                Effect::Attach { nid, .. } => attached = nid.is_some(),
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
    }

    fn beacon(&mut self, edge: &Edge) {
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
        self.call(|app, ctx| app.on_fetch_complete(ctx, handle, cid, result));
    }

    fn link_down(&mut self) {
        if let Some(link) = self.view.primary_link {
            self.call(|app, ctx| app.on_link_event(ctx, link, false));
        }
    }
}

/// Walks every event sequence of length `depth`; returns how many
/// delivered all the chunks.
fn walk(depth: usize) -> u64 {
    let (a, b) = (edge(1, -60.0), edge(2, -50.0));
    let delivered = Cell::new(0u64);
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
        let found = host.audit.violations(Some(&stats));
        assert!(found.is_empty(), "{found:?}");
        delivered.set(delivered.get() + u64::from(host.client.is_done()));
    });
    assert_eq!(leaves, (EVENTS as u64).pow(depth as u32));
    delivered.get()
}

#[test]
fn every_depth_5_interleaving_keeps_the_client_invariants() {
    // A beacon from either edge, the association timer, three completions.
    assert_eq!(walk(5), 2);
}

#[test]
#[ignore = "4.8 M sequences, ~30 s in release: scripts/verify.sh runs it"]
fn every_depth_7_interleaving_keeps_the_client_invariants() {
    assert!(walk(7) > 2);
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
/// associated, fetching chunk 0, and has asked A's VNF to stage ahead.
fn associated() -> (StandIn, Edge) {
    let a = edge(1, -60.0);
    let mut host = StandIn::new();
    host.beacon(&a);
    host.fire_timer();
    assert!(host.view.nid.is_some(), "associated");
    assert!(!host.asked.is_empty(), "staging asked for on association");
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
