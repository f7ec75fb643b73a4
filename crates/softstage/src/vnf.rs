//! The Staging VNF: the stateless edge-side executor.
//!
//! "A very lightweight virtual network function embedded inside XCache
//! that is application-agnostic": on a Staging Manager's request it
//! prefetches the named chunks from their origin into the local XCache and
//! reports each chunk's new location and staging latency back. It keeps no
//! per-client session state — only the transient fetch bookkeeping — so
//! edge networks scale to many clients.
//!
//! The staging queue is bounded. First, the chunks in flight plus the new
//! one must fit in the edge cache, or the staged copies evict each other
//! before their clients read them: a chunk that does not fit is declined
//! with `Staged { ok: false }`, and its client fetches it from the origin.
//! Then a configurable depth cap plus an [`AdmissionPolicy`] decide
//! whether one more origin fetch starts. Work they do not admit is
//! answered with an explicit [`StagingMsg::Reject`] (never silently
//! queued), and a `SlowEdge` fault degrades the service rate by delaying
//! every reply.
//!
//! Deadline-aware admission is RICH's signal (arXiv 1908.07228): a chunk
//! that cannot stage before the client's usefulness deadline is shed, not
//! staged for a vehicle that will have fetched it from the origin (or
//! driven past) by then.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

use simnet::{RejectReason, SimDuration, SimTime, Tag, TraceEvent};
use util::bytes::Bytes;
use xia_addr::{Dag, Xid};
use xia_host::{App, FetchResult, HostCtx};

use crate::coordinator::Ewma;
use crate::messages::StagingMsg;

/// Timer key for flushing service-delayed replies.
const REPLY_TIMER: u8 = 1;

/// Decides whether the VNF takes on one more staging job. Policies run
/// only below the depth cap, so they refine — never replace —
/// backpressure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Admits everything below the depth cap.
    #[default]
    AlwaysAdmit,
    /// Sheds requests that cannot stage before the client's deadline.
    ///
    /// The wait for a free slot is approximated as one smoothed staging
    /// latency per queued job ahead of this one, plus the job's own
    /// fetch. A VNF without a latency estimate yet always admits — the
    /// policy only sheds on evidence.
    DeadlineAware,
}

/// Bounds and admission configuration of a [`StagingVnf`].
#[derive(Debug, Clone)]
pub struct VnfConfig {
    /// Maximum concurrent staging jobs (in-flight origin fetches).
    pub max_depth: usize,
    /// Advisory back-off sent with every reject.
    pub retry_after: SimDuration,
    /// Admission policy applied below the depth cap.
    pub admission: AdmissionPolicy,
}

impl Default for VnfConfig {
    fn default() -> Self {
        VnfConfig {
            // Generous enough that a single well-behaved client (depth
            // coordinator caps at 32) never sees backpressure.
            max_depth: 64,
            retry_after: SimDuration::from_secs(1),
            admission: AdmissionPolicy::AlwaysAdmit,
        }
    }
}

/// A client waiting for one chunk's staging outcome.
#[derive(Debug, Clone)]
struct Waiter {
    requester: Dag,
    token: u64,
}

/// One staging job: the in-flight origin fetch of one chunk and every
/// client waiting for its outcome.
#[derive(Debug)]
struct Job {
    /// The origin fetch; a completion under any other handle is stale.
    handle: u64,
    started: SimTime,
    /// Cache bytes the chunk will take, as its requester declared them.
    bytes: u64,
    waiters: Vec<Waiter>,
}

/// Counters exposed to experiments. What a VNF record can express is
/// counted by [`VnfStats::count`] alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VnfStats {
    /// Chunks staged from an origin.
    pub staged: u64,
    /// Chunks answered from cache without an origin fetch.
    pub already_cached: u64,
    /// Staging attempts that failed.
    pub failed: u64,
    /// Bytes brought in from origins.
    pub bytes_staged: u64,
    /// Chunks shed with a [`StagingMsg::Reject`] by backpressure or
    /// admission control.
    pub rejected: u64,
    /// Chunks declined because the cache cannot hold them beside the jobs
    /// in flight: answered `Staged { ok: false }` with no origin fetch.
    pub declined: u64,
    /// Highest concurrent staging-job count ever reached.
    pub peak_depth: u64,
}

impl VnfStats {
    /// Folds one of the VNF's own records into the counters. A `staged`
    /// of 0 bytes was answered from cache; any other landed. No publisher
    /// makes an empty chunk (`chunk_content` and `publish_catalog` loop
    /// only while bytes remain). `declined` and `failed` are both recorded
    /// as `stage_failed`, so the VNF counts those, and `peak_depth`, itself.
    pub(crate) fn count(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::StageReject { .. } => self.rejected += 1,
            TraceEvent::Staged { bytes: 0, .. } => self.already_cached += 1,
            TraceEvent::Staged { bytes, .. } => {
                self.staged += 1;
                self.bytes_staged += bytes;
            }
            _ => {}
        }
    }
}

/// The Staging VNF application, deployed on an edge router's host stack.
#[derive(Debug)]
pub struct StagingVnf {
    sid: Xid,
    config: VnfConfig,
    /// Staging jobs by chunk.
    jobs: BTreeMap<Xid, Job>,
    /// Smoothed staging latency, feeding deadline-aware admission.
    latency: Ewma,
    /// Added per-reply delay while a `SlowEdge` fault is active.
    service_delay: SimDuration,
    /// Replies held back by the service delay, in send order (dues are
    /// non-decreasing: sim time is monotone and the delay only drops at
    /// a restore, which flushes the queue).
    delayed: VecDeque<(SimTime, Dag, u64, Bytes)>,
    stats: VnfStats,
}

impl StagingVnf {
    /// Creates a VNF answering on service `sid` with default bounds.
    pub fn new(sid: Xid) -> Self {
        StagingVnf::with_config(sid, VnfConfig::default())
    }

    /// Creates a VNF with explicit queue bounds and admission policy.
    pub fn with_config(sid: Xid, config: VnfConfig) -> Self {
        StagingVnf {
            sid,
            config,
            jobs: BTreeMap::new(),
            latency: Ewma::default(),
            service_delay: SimDuration::ZERO,
            delayed: VecDeque::new(),
            stats: VnfStats::default(),
        }
    }

    /// The VNF's service identifier.
    pub fn sid(&self) -> Xid {
        self.sid
    }

    /// Counters.
    pub fn stats(&self) -> VnfStats {
        self.stats
    }

    /// Staging jobs currently in flight.
    pub fn queue_depth(&self) -> usize {
        self.jobs.len()
    }

    /// The service address to advertise in beacons, given the edge
    /// network's locator.
    pub fn service_dag(&self, nid: Xid, hid: Xid) -> Dag {
        Dag::service_with_fallback(self.sid, nid, hid)
    }

    /// Emits a record: counts it, then traces it (a no-op untraced).
    fn note(&mut self, ctx: &mut HostCtx<'_>, event: TraceEvent) {
        self.stats.count(&event);
        ctx.trace(event);
    }

    /// Sends (or, under a `SlowEdge` fault, schedules) one reply.
    fn send_msg(&mut self, ctx: &mut HostCtx<'_>, to: &Dag, token: u64, msg: &StagingMsg) {
        let body = msg.encode();
        if self.service_delay == SimDuration::ZERO {
            ctx.send_control_with_token(to.clone(), self.sid, token, body);
        } else {
            let due = ctx.now() + self.service_delay;
            self.delayed.push_back((due, to.clone(), token, body));
            ctx.set_app_timer(self.service_delay, REPLY_TIMER);
        }
    }

    fn reply(
        &mut self,
        ctx: &mut HostCtx<'_>,
        to: &Dag,
        token: u64,
        cid: Xid,
        ok: bool,
        staging_latency_us: u64,
    ) {
        let Some(nid) = ctx.nid() else {
            // A reply from a stack without an attached edge router cannot
            // name its staging point; drop it rather than fabricate one.
            return;
        };
        let hid = ctx.hid();
        let msg = StagingMsg::Staged {
            cid,
            ok,
            staging_latency_us,
            nid,
            hid,
        };
        self.send_msg(ctx, to, token, &msg);
    }

    fn reject(
        &mut self,
        ctx: &mut HostCtx<'_>,
        to: &Dag,
        token: u64,
        cid: Xid,
        reason: RejectReason,
    ) {
        let retry_after_us = self.config.retry_after.as_micros();
        let record = TraceEvent::StageReject {
            chunk: Tag::of(cid.id()),
            reason,
            retry_after_us,
        };
        self.note(ctx, record);
        let msg = StagingMsg::Reject {
            cid,
            reason,
            retry_after_us,
        };
        self.send_msg(ctx, to, token, &msg);
    }

    /// The depth cap, then the policy: `None` admits one more job,
    /// `Some(reason)` sheds it with a typed reject.
    fn admission_verdict(&self, now: SimTime, deadline: SimTime) -> Option<RejectReason> {
        let depth = self.jobs.len();
        if depth >= self.config.max_depth {
            return Some(RejectReason::QueueDepth);
        }
        match (self.config.admission, self.latency.value()) {
            (AdmissionPolicy::DeadlineAware, Some(est)) => {
                let landing = now + est * (depth as u64 + 1);
                (landing > deadline).then_some(RejectReason::Deadline)
            }
            _ => None,
        }
    }

    /// Flushes every delayed reply due at or before `now`.
    fn flush_delayed(&mut self, ctx: &mut HostCtx<'_>, now: SimTime) {
        while let Some((due, _, _, _)) = self.delayed.front() {
            if *due > now {
                break;
            }
            if let Some((_, to, token, body)) = self.delayed.pop_front() {
                ctx.send_control_with_token(to, self.sid, token, body);
            }
        }
    }
}

impl App for StagingVnf {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.register_service(self.sid);
    }

    fn on_fault(&mut self, ctx: &mut HostCtx<'_>, fault: simnet::NodeFault) {
        match fault {
            simnet::NodeFault::Crash => {
                // Volatile fetch bookkeeping dies with the process; clients
                // whose requests were in flight re-request after their
                // staging timeout. The restart re-registers the SID via
                // `on_start`.
                self.jobs.clear();
                self.delayed.clear();
                self.service_delay = SimDuration::ZERO;
            }
            simnet::NodeFault::SlowService { delay_us } => {
                self.service_delay = SimDuration::from_micros(delay_us);
                if delay_us == 0 {
                    // Restored: held replies go out immediately.
                    self.flush_delayed(ctx, SimTime::MAX);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, key: u8) {
        if key == REPLY_TIMER {
            let now = ctx.now();
            self.flush_delayed(ctx, now);
        }
    }

    fn on_control(
        &mut self,
        ctx: &mut HostCtx<'_>,
        from: Dag,
        service: Xid,
        token: u64,
        body: &util::bytes::Bytes,
    ) {
        if service != self.sid {
            return;
        }
        let Some(StagingMsg::Request {
            chunks,
            deadline_us,
            chunk_bytes,
        }) = StagingMsg::decode(body)
        else {
            return;
        };
        let deadline = SimTime::from_micros(deadline_us);
        for (cid, origin) in chunks {
            let chunk = Tag::of(cid.id());
            if ctx.store().contains(&cid) {
                // Idempotent: already staged (or being served) here. Still
                // recorded as `Staged { bytes: 0 }` so the trace oracle
                // knows this cache legitimately holds the chunk.
                self.note(ctx, TraceEvent::Staged { chunk, bytes: 0 });
                self.reply(ctx, &from, token, cid, true, 0);
                continue;
            }
            let waiter = Waiter {
                requester: from.clone(),
                token,
            };
            if let Some(job) = self.jobs.get_mut(&cid) {
                // One origin fetch serves all requesters; joining an
                // in-flight job adds no load, so it bypasses admission.
                job.waiters.push(waiter);
                continue;
            }
            // The chunk must fit beside every job in flight, or the copies
            // evict each other before their clients read them. A decline
            // is an answer, not a health signal: the client fetches the
            // chunk from the origin, with no retry and no breaker trip.
            let in_flight: u64 = self.jobs.values().map(|job| job.bytes).sum();
            if in_flight.saturating_add(chunk_bytes) > ctx.store().capacity_bytes() as u64 {
                self.stats.declined += 1;
                self.note(ctx, TraceEvent::StageFailed { chunk });
                self.reply(ctx, &from, token, cid, false, 0);
                continue;
            }
            if let Some(reason) = self.admission_verdict(ctx.now(), deadline) {
                self.reject(ctx, &from, token, cid, reason);
                continue;
            }
            let handle = ctx.xfetch_chunk(origin);
            self.note(ctx, TraceEvent::StageStart { chunk });
            self.jobs.insert(
                cid,
                Job {
                    handle,
                    started: ctx.now(),
                    bytes: chunk_bytes,
                    waiters: vec![waiter],
                },
            );
            self.stats.peak_depth = self.stats.peak_depth.max(self.jobs.len() as u64);
        }
    }

    fn on_fetch_complete(
        &mut self,
        ctx: &mut HostCtx<'_>,
        handle: u64,
        cid: Xid,
        result: FetchResult,
    ) {
        // A completion from before a crash, or for a job since replaced,
        // reaches nobody.
        let Entry::Occupied(job) = self.jobs.entry(cid) else {
            return;
        };
        if job.get().handle != handle {
            return;
        }
        let Job {
            started, waiters, ..
        } = job.remove();
        let latency = ctx.now() - started;
        // A store squeezed below the chunk size refuses the insert: the
        // origin fetch succeeded but nothing is staged, so the waiters
        // must hear `ok: false` and fall back rather than chase a chunk
        // this edge does not hold.
        let staged_bytes = match result {
            FetchResult::Complete(bytes) => {
                let len = bytes.len() as u64;
                ctx.store().insert(cid, bytes).then_some(len)
            }
            FetchResult::NotFound | FetchResult::Failed => None,
        };
        let chunk = Tag::of(cid.id());
        match staged_bytes {
            Some(bytes) => {
                self.latency.observe(latency);
                self.note(ctx, TraceEvent::Staged { chunk, bytes });
            }
            None => {
                self.stats.failed += 1;
                self.note(ctx, TraceEvent::StageFailed { chunk });
            }
        }
        let ok = staged_bytes.is_some();
        for w in waiters {
            self.reply(ctx, &w.requester, w.token, cid, ok, latency.as_micros());
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use simnet::NodeFault;
    use xcache::{ChunkStore, EvictionPolicy};
    use xia_addr::Principal;
    use xia_host::{Effect, HostView};

    /// An edge's host, as much of one as the VNF can tell: a view, a
    /// store, and whatever the last callback asked for.
    struct Edge {
        view: HostView,
        store: ChunkStore,
        vnf: StagingVnf,
        /// The chunk size the next requests declare.
        chunk_bytes: u64,
    }

    impl Edge {
        fn new(cache_bytes: usize, config: VnfConfig) -> Self {
            let mut view = HostView::new(Xid::new_random(Principal::Hid, 1));
            view.nid = Some(Xid::new_random(Principal::Nid, 1));
            Edge {
                view,
                store: ChunkStore::new(cache_bytes, EvictionPolicy::Lru),
                vnf: StagingVnf::with_config(Xid::new_random(Principal::Sid, 1), config),
                chunk_bytes: 64,
            }
        }

        fn call(&mut self, f: impl FnOnce(&mut StagingVnf, &mut HostCtx<'_>)) -> Vec<Effect> {
            let mut ctx = HostCtx::new(self.view, &mut self.store, Vec::new());
            f(&mut self.vnf, &mut ctx);
            let (view, effects) = ctx.finish();
            self.view = view;
            effects
        }

        /// `client` asks for `cid` under `token`, needing it within the hour.
        fn request(&mut self, client: u64, token: u64, cid: Xid) -> Vec<Effect> {
            let by = self.view.now + SimDuration::from_secs(3600);
            self.request_by(client, token, cid, by)
        }

        /// `client` asks for `cid` under `token`, needing it by `by`.
        fn request_by(&mut self, client: u64, token: u64, cid: Xid, by: SimTime) -> Vec<Effect> {
            let origin = Dag::cid_with_fallback(
                cid,
                Xid::new_random(Principal::Nid, 9),
                Xid::new_random(Principal::Hid, 9),
            );
            let body = StagingMsg::Request {
                chunks: vec![(cid, origin)],
                deadline_us: by.as_micros(),
                chunk_bytes: self.chunk_bytes,
            }
            .encode();
            let from = requester(client);
            let sid = self.vnf.sid();
            self.call(|vnf, ctx| vnf.on_control(ctx, from, sid, token, &body))
        }

        fn complete(&mut self, handle: u64, cid: Xid, result: FetchResult) -> Vec<Effect> {
            self.call(|vnf, ctx| vnf.on_fetch_complete(ctx, handle, cid, result))
        }
    }

    fn requester(client: u64) -> Dag {
        Dag::host(
            Xid::new_random(Principal::Nid, 1),
            Xid::new_random(Principal::Hid, 100 + client),
        )
    }

    fn fetch_handles(effects: &[Effect]) -> Vec<u64> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Fetch { handle, .. } => Some(*handle),
                _ => None,
            })
            .collect()
    }

    /// `(destination, token, decoded message)` of every reply sent.
    fn replies(effects: &[Effect]) -> Vec<(Dag, u64, StagingMsg)> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Control {
                    dst, token, body, ..
                } => StagingMsg::decode(body).map(|m| (dst.clone(), *token, m)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn each_record_feeds_exactly_its_counters() {
        let chunk = Tag(7);
        let staged = |bytes| TraceEvent::Staged { chunk, bytes };
        let reject = TraceEvent::StageReject {
            chunk,
            reason: RejectReason::Deadline,
            retry_after_us: 0,
        };
        // (record, the fields it moves), fed in order to one fold; every
        // field is compared after each record.
        let script: [(TraceEvent, fn(&mut VnfStats)); 4] = [
            (reject, |s| s.rejected = 1),
            (staged(0), |s| s.already_cached = 1),
            (staged(4096), |s| {
                s.staged = 1;
                s.bytes_staged = 4096;
            }),
            (staged(0), |s| s.already_cached = 2),
        ];
        let mut stats = VnfStats::default();
        let mut want = VnfStats::default();
        for (record, moves) in script {
            stats.count(&record);
            moves(&mut want);
            assert_eq!(stats, want, "after {record:?}");
        }
        // Every other kind counts nothing: `stage_failed` is both a
        // decline and a failure, so neither is the fold's to count.
        for record in crate::client::tests::every_kind_but(&["stage_reject", "staged"]) {
            stats.count(&record);
            assert_eq!(stats, want, "after {record:?}");
        }
    }

    #[test]
    fn the_waiter_hears_what_the_store_said() {
        let data = Bytes::from_static(&[7; 64]);
        let cid = Xid::for_content(&data);
        // (store capacity at landing, ok, staged, failed): a store
        // squeezed below the chunk while it was in flight refuses the
        // insert, and the reply must say so.
        for (capacity, ok, staged, failed) in [(1024, true, 1, 0), (16, false, 0, 1)] {
            let mut edge = Edge::new(1024, VnfConfig::default());
            let handles = fetch_handles(&edge.request(0, 41, cid));
            assert_eq!(handles, [1]);
            edge.store.resize(capacity);
            let effects = edge.complete(1, cid, FetchResult::Complete(data.clone()));
            let sent = replies(&effects);
            assert_eq!(sent.len(), 1);
            assert_eq!((&sent[0].0, sent[0].1), (&requester(0), 41));
            assert!(matches!(sent[0].2, StagingMsg::Staged { ok: said, .. } if said == ok));
            assert_eq!(edge.store.contains(&cid), ok);
            let stats = edge.vnf.stats();
            assert_eq!((stats.staged, stats.failed), (staged, failed));
            assert_eq!(edge.vnf.queue_depth(), 0);
        }
    }

    #[test]
    fn two_requesters_share_one_origin_fetch() {
        let cid = Xid::for_content(b"shared");
        let mut edge = Edge::new(1024, VnfConfig::default());
        assert_eq!(fetch_handles(&edge.request(0, 5, cid)), [1]);
        assert!(
            edge.request(1, 9, cid).is_empty(),
            "joins the job in flight"
        );
        let data = Bytes::from_static(b"shared");
        let sent = replies(&edge.complete(1, cid, FetchResult::Complete(data)));
        let to: Vec<_> = sent.iter().map(|(dst, token, _)| (dst, *token)).collect();
        assert_eq!(to, [(&requester(0), 5), (&requester(1), 9)]);
    }

    #[test]
    fn a_rejected_chunk_starts_no_fetch() {
        let config = VnfConfig {
            max_depth: 1,
            ..VnfConfig::default()
        };
        let mut edge = Edge::new(1024, config);
        assert_eq!(
            fetch_handles(&edge.request(0, 1, Xid::for_content(b"a"))),
            [1]
        );
        let effects = edge.request(0, 2, Xid::for_content(b"b"));
        assert!(fetch_handles(&effects).is_empty());
        let sent = replies(&effects);
        assert!(matches!(
            sent[..],
            [(
                _,
                2,
                StagingMsg::Reject {
                    reason: RejectReason::QueueDepth,
                    ..
                }
            )]
        ));
        assert_eq!((edge.vnf.stats().rejected, edge.vnf.queue_depth()), (1, 1));
    }

    #[test]
    fn a_crash_forgets_the_waiters() {
        let cid = Xid::for_content(b"lost");
        let data = Bytes::from_static(b"lost");
        let mut edge = Edge::new(1024, VnfConfig::default());
        edge.request(0, 1, cid);
        assert!(edge
            .call(|vnf, ctx| vnf.on_fault(ctx, NodeFault::Crash))
            .is_empty());
        assert_eq!(edge.vnf.queue_depth(), 0);
        // The answer to a fetch from before the crash reaches nobody, even
        // once the chunk is asked for again under a new handle...
        assert_eq!(fetch_handles(&edge.request(1, 2, cid)), [2]);
        assert!(edge
            .complete(1, cid, FetchResult::Complete(data.clone()))
            .is_empty());
        assert_eq!(edge.vnf.queue_depth(), 1, "the new job survives");
        // ...whose own answer reaches only the new requester.
        let sent = replies(&edge.complete(2, cid, FetchResult::Complete(data)));
        assert!(matches!(
            &sent[..],
            [(to, 2, StagingMsg::Staged { ok: true, .. })] if *to == requester(1)
        ));
    }

    /// What `on_control` answers a request due in `due` µs, from a VNF
    /// under `admission` that measured `est` µs of staging latency and has
    /// `backlog` jobs in flight: `None` when it starts the fetch.
    pub(crate) fn verdict(
        admission: AdmissionPolicy,
        (est, backlog, due): (Option<u64>, u64, u64),
    ) -> Option<RejectReason> {
        let config = VnfConfig {
            admission,
            ..VnfConfig::default()
        };
        let mut edge = Edge::new(1024, config);
        if let Some(est) = est {
            let warm = Xid::for_content(b"warm");
            edge.request(0, 0, warm);
            edge.view.now += SimDuration::from_micros(est);
            edge.complete(1, warm, FetchResult::Complete(Bytes::from_static(b"warm")));
        }
        for i in 0..backlog {
            edge.request(0, 0, Xid::new_random(Principal::Cid, i));
        }
        let by = edge.view.now + SimDuration::from_micros(due);
        let effects = edge.request_by(9, 99, Xid::for_content(b"probe"), by);
        let got = match replies(&effects)[..] {
            [(_, 99, StagingMsg::Reject { reason, .. })] => Some(reason),
            _ => None,
        };
        assert_eq!(fetch_handles(&effects).len(), usize::from(got.is_none()));
        got
    }

    /// Where the probed chunk already is when its request arrives.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Already {
        /// Neither in flight nor cached.
        Nowhere,
        /// A job is fetching it (the first job in flight).
        InFlight,
        /// The cache holds it.
        Cached,
    }

    /// What the VNF did with a request.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Answer {
        /// Started an origin fetch.
        Fetch,
        /// Answered `Staged { ok }` at once, with no fetch.
        Staged(bool),
        /// Sent nothing yet: the request joined the job in flight.
        Joined,
    }

    /// How a VNF caching `capacity` bytes, with jobs of `in_flight` bytes
    /// running, answers a request for a chunk of `bytes` that is
    /// `already` somewhere. A decline — and only a decline — counts in
    /// `declined` and is traced as `stage_failed`; nothing is `rejected`.
    pub(crate) fn answer(
        capacity: usize,
        in_flight: &[u64],
        bytes: u64,
        already: Already,
    ) -> Answer {
        let mut edge = Edge::new(capacity, VnfConfig::default());
        edge.view.tracing = true;
        let probe = Xid::for_content(b"probe");
        let mut jobs = Vec::new();
        if already == Already::InFlight {
            jobs.push((probe, bytes));
        }
        let others = in_flight.iter().enumerate();
        jobs.extend(others.map(|(i, &b)| (Xid::new_random(Principal::Cid, i as u64), b)));
        for (cid, b) in jobs {
            edge.chunk_bytes = b;
            assert_eq!(
                fetch_handles(&edge.request(0, 0, cid)).len(),
                1,
                "a job in flight"
            );
        }
        if already == Already::Cached {
            edge.store.insert(probe, Bytes::from_static(b"probe"));
        }
        edge.chunk_bytes = bytes;
        let effects = edge.request(9, 99, probe);
        let got = match (&fetch_handles(&effects)[..], &replies(&effects)[..]) {
            ([_], []) => Answer::Fetch,
            ([], [(_, 99, StagingMsg::Staged { ok, .. })]) => Answer::Staged(*ok),
            ([], []) => Answer::Joined,
            other => panic!("unexpected answer {other:?}"),
        };
        let declined = got == Answer::Staged(false);
        let stats = edge.vnf.stats();
        assert_eq!((stats.declined, stats.rejected), (u64::from(declined), 0));
        let failed = effects
            .iter()
            .any(|e| matches!(e, Effect::Trace(TraceEvent::StageFailed { .. })));
        assert_eq!(failed, declined);
        got
    }

    #[test]
    fn a_slow_edge_replies_when_its_timer_fires() {
        let cid = Xid::for_content(b"slow");
        let mut edge = Edge::new(1024, VnfConfig::default());
        edge.store.insert(cid, Bytes::from_static(b"slow"));
        edge.call(|vnf, ctx| vnf.on_fault(ctx, NodeFault::SlowService { delay_us: 30_000 }));
        // Already cached: the reply is immediate but for the service delay.
        let delay = SimDuration::from_micros(30_000);
        let held = edge.request(0, 3, cid);
        assert_eq!(
            held,
            [Effect::Timer {
                delay,
                key: REPLY_TIMER
            }]
        );
        edge.view.now += delay;
        let sent = replies(&edge.call(|vnf, ctx| vnf.on_timer(ctx, REPLY_TIMER)));
        assert!(matches!(
            sent[..],
            [(_, 3, StagingMsg::Staged { ok: true, .. })]
        ));
    }
}
