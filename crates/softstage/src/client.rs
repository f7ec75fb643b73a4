//! The client side of SoftStage: Staging Manager, Chunk Manager and
//! Handoff Manager in one host application.
//!
//! The application-facing behaviour is the paper's `XfetchChunk*`
//! delegation: the client registers the chunks of a content object and the
//! manager fetches them sequentially, transparently redirecting each fetch
//! to a staged edge copy when one exists and falling back to the origin
//! otherwise. Around that data path it runs:
//!
//! - the **Staging Coordinator** (reactive depth rule, §III-D) deciding
//!   how many chunks to stage ahead,
//! - the **Staging Tracker** (request/response bookkeeping against the
//!   [`crate::StagingVnf`]),
//! - the **Network Sensor** and **Handoff Manager** (via
//!   [`vehicular::Roamer`]), including the *chunk-aware* handoff policy
//!   that defers switching to a chunk boundary and pre-stages into the
//!   handoff target through the current network (step ④ of Fig. 1),
//! - **fault tolerance**: with no VNF in the edge network, fetches simply
//!   use the original DAG.
//!
//! Disabling staging (`SoftStageConfig::baseline()`) yields exactly the
//! paper's Xftp baseline: same transport, same roaming, no staging.

use std::collections::BTreeMap;

use simnet::{
    BreakerState, ClientMode, FetchSource, LinkId, SimDuration, SimTime, Tag, TraceEvent,
};
use vehicular::{RoamEvent, RoamState, Roamer, ROAM_ASSOC_TIMER};
use xia_addr::{Dag, Xid};
use xia_host::{App, FetchResult, HostCtx};
use xia_wire::Beacon;

use crate::breaker::{Breaker, BreakerConfig};
use crate::coordinator::{CoordinatorConfig, StagingCoordinator};
use crate::messages::StagingMsg;
use crate::profile::{ChunkProfile, ChunkRecord, StagingState};

/// When to hand off to a stronger network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HandoffPolicy {
    /// Switch as soon as a stronger network appears (the legacy
    /// RSS-driven policy), paying active session migration mid-chunk.
    Default,
    /// Defer the switch until the in-flight chunk completes, and pre-stage
    /// upcoming chunks into the target network before switching.
    #[default]
    ChunkAware,
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct SoftStageConfig {
    /// Handoff policy.
    pub policy: HandoffPolicy,
    /// Staging-depth rule parameters.
    pub coordinator: CoordinatorConfig,
    /// Staging on/off; off gives the Xftp baseline.
    pub staging_enabled: bool,
    /// Chunks pre-staged into a handoff target (step ④).
    pub prestage_depth: usize,
    /// Identifier stamped into this client's [`ClientStats`]. A
    /// single-client testbed leaves it 0; fleet worlds assign each client
    /// its index so per-client metrics stay attributable after
    /// aggregation.
    pub client_id: u32,
}

impl Default for SoftStageConfig {
    fn default() -> Self {
        SoftStageConfig {
            policy: HandoffPolicy::ChunkAware,
            coordinator: CoordinatorConfig::default(),
            staging_enabled: true,
            prestage_depth: 4,
            client_id: 0,
        }
    }
}

/// Flight-recorder tag for an XID.
fn tag(x: &Xid) -> Tag {
    Tag::of(x.id())
}

/// Flight-recorder source of a fetch.
fn source(staged: bool) -> FetchSource {
    if staged {
        FetchSource::EdgeCache
    } else {
        FetchSource::Origin
    }
}

/// Base staging re-request back-off (the first retry waits this long).
const STAGE_RETRY: SimDuration = SimDuration::from_secs(2);
/// Upper clamp of the staging back-off schedule.
const STAGE_RETRY_CAP: SimDuration = SimDuration::from_secs(16);
/// Staging re-requests per session before degrading to plain Xftp.
const STAGE_RETRY_BUDGET: u32 = 64;
/// Base origin-fetch retry back-off.
const FETCH_RETRY: SimDuration = SimDuration::from_millis(500);
/// Upper clamp of the origin-fetch back-off schedule.
const FETCH_RETRY_CAP: SimDuration = SimDuration::from_secs(8);
/// Housekeeping tick period: stale staging requests are re-issued on it.
const TICK: SimDuration = SimDuration::from_millis(500);

/// Capped exponential back-off with deterministic jitter.
///
/// `base · 2^attempt`, clamped to `cap`, then jittered by ±25 % using an
/// FNV-1a hash of `(salt, attempt)` — reruns of the same seed produce the
/// same schedule, but distinct chunks don't retry in lock-step.
fn backoff(base: SimDuration, cap: SimDuration, attempt: u32, salt: u64) -> SimDuration {
    let exp = attempt.min(16);
    let us = base
        .as_micros()
        .saturating_mul(1u64 << exp)
        .min(cap.as_micros());
    let mut key = [0u8; 12];
    key[..8].copy_from_slice(&salt.to_be_bytes());
    key[8..].copy_from_slice(&attempt.to_be_bytes());
    // Map the hash to [-250, 250] per-mille.
    let jitter_pm = (util::seed::fnv1a(&key) % 501) as i64 - 250;
    let jittered = us as i64 + (us as i64 / 1000) * jitter_pm;
    SimDuration::from_micros(jittered.max(1) as u64)
}

/// A chunk's staging re-request back-off, salted by its CID so distinct
/// chunks keep distinct schedules.
fn stage_backoff(r: &ChunkRecord) -> SimDuration {
    let salt = r
        .cid
        .id()
        .iter()
        .take(8)
        .fold(0u64, |acc, &b| (acc << 8) | u64::from(b));
    backoff(
        STAGE_RETRY,
        STAGE_RETRY_CAP,
        r.stage_attempts.saturating_sub(1),
        salt,
    )
}

/// The longest a fetch can wait on `r`'s outstanding staging request
/// before TICK finds it stale: the request's back-off, plus the tick that
/// notices.
pub fn stage_wait_bound(r: &ChunkRecord) -> SimDuration {
    stage_backoff(r) + TICK
}

impl SoftStageConfig {
    /// The Xftp baseline: identical stack and roaming, no staging, legacy
    /// handoff policy.
    pub fn baseline() -> Self {
        SoftStageConfig {
            staging_enabled: false,
            policy: HandoffPolicy::Default,
            ..SoftStageConfig::default()
        }
    }
}

/// Download progress and diagnostics. What a client record can express is
/// counted by [`ClientStats::count`] alone.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClientStats {
    /// The owning client's [`SoftStageConfig::client_id`].
    pub client_id: u32,
    /// When every chunk had been fetched.
    pub finished: Option<SimTime>,
    /// `(completion time, chunk index, was fetched from a staged copy)`.
    pub chunk_completions: Vec<(SimTime, usize, bool)>,
    /// Chunks fetched from edge caches.
    pub from_staged: u64,
    /// Chunks fetched from the origin.
    pub from_origin: u64,
    /// Staged fetches that fell back to the origin after failing.
    pub fallback_refetches: u64,
    /// Staging request messages sent.
    pub stage_requests: u64,
    /// Staging requests re-issued after a timeout (back-off retries),
    /// bounded by the session's retry budget.
    pub stage_retries: u64,
    /// Origin fetches retried after a failure (back-off retries).
    pub fetch_retries: u64,
    /// Transitions into [`ClientMode::OriginFallback`] (no reachable VNF).
    pub origin_fallbacks: u64,
    /// Staging requests the VNF explicitly rejected (backpressure or
    /// admission control).
    pub stage_rejects: u64,
    /// Staging requests that went unanswered past their back-off while
    /// the edge was reachable.
    pub stage_timeouts: u64,
    /// Times the circuit breaker opened against the active edge.
    pub breaker_opens: u64,
    /// Time spent with the staging path in [`ClientMode::Active`], in µs.
    pub dwell_active_us: u64,
    /// Time spent in [`ClientMode::OriginFallback`], in µs.
    pub dwell_fallback_us: u64,
    /// Time spent in [`ClientMode::Degraded`], in µs.
    pub dwell_degraded_us: u64,
    /// Payload bytes downloaded.
    pub bytes_fetched: u64,
    /// Fetches started while the chunk's staging answer was outstanding
    /// at a VNF other than the attached edge's (pre-staged into a handoff
    /// target whose deferred commit the roamer refused): each fetches
    /// from the origin what that VNF may be fetching too.
    pub pending_fetches: u64,
    /// Time fetches waited for a staging answer before they started, in
    /// µs.
    pub stage_wait_us: u64,
    /// The staging mode the last `mode` record entered.
    mode: ClientMode,
    /// The instant dwell time has been charged up to.
    charged_until: SimTime,
}

impl ClientStats {
    /// Folds one of the client's own records into the counters. `mode`
    /// charges dwell to the mode left; a `fetch_start` counts a race with
    /// its own stage and the time it waited for one; a delivered
    /// `fetch_complete` counts by its source. A `breaker` record counts an
    /// `Open`: only `Breaker::on_failure` returns one, and only once
    /// `on_associated` has named the breaker's edge, so every trip is
    /// recorded. No record
    /// expresses `stage_requests`, `stage_retries`, `fetch_retries`,
    /// `fallback_refetches`, `chunk_completions`, `finished` or the dwell
    /// charged at the last chunk: the client writes those where it acts.
    pub(crate) fn count(&mut self, at: SimTime, event: &TraceEvent) {
        match *event {
            TraceEvent::ModeTransition { mode } => {
                self.charge_dwell(at);
                self.mode = mode;
                if mode == ClientMode::OriginFallback {
                    self.origin_fallbacks += 1;
                }
            }
            TraceEvent::BreakerTransition {
                state: BreakerState::Open,
                ..
            } => self.breaker_opens += 1,
            TraceEvent::StageTimeout { .. } => self.stage_timeouts += 1,
            TraceEvent::StageReject { .. } => self.stage_rejects += 1,
            TraceEvent::FetchStart {
                pending, waited_us, ..
            } => {
                self.pending_fetches += u64::from(pending);
                self.stage_wait_us += waited_us;
            }
            TraceEvent::FetchComplete {
                ok: true,
                source,
                bytes,
                ..
            } => {
                match source {
                    FetchSource::EdgeCache => self.from_staged += 1,
                    FetchSource::Origin => self.from_origin += 1,
                }
                self.bytes_fetched += bytes;
            }
            _ => {}
        }
    }

    /// Charges the time since the last charge to the current mode.
    fn charge_dwell(&mut self, at: SimTime) {
        let dwell = match self.mode {
            ClientMode::Active => &mut self.dwell_active_us,
            ClientMode::OriginFallback => &mut self.dwell_fallback_us,
            ClientMode::Degraded => &mut self.dwell_degraded_us,
        };
        *dwell += (at - self.charged_until).as_micros();
        self.charged_until = at;
    }
}

/// Timer keys (app-local).
const TICK_TIMER: u8 = 1;
const FETCH_RETRY_TIMER: u8 = 2;

#[derive(Debug)]
struct InFlightFetch {
    handle: u64,
    started: SimTime,
    staged: bool,
}

/// The SoftStage client application.
#[derive(Debug)]
pub struct SoftStageClient {
    config: SoftStageConfig,
    profile: ChunkProfile,
    /// Cache bytes one chunk can take (the manifest's nominal chunk
    /// size), declared in every staging request.
    chunk_bytes: u64,
    coordinator: StagingCoordinator,
    /// Roaming (sensor + handoff mechanics).
    pub roamer: Roamer,
    /// The fetch cursor, and Table I's fetch state: chunks are fetched in
    /// order, so chunk `i` is `DONE` exactly when `i < next_fetch`.
    next_fetch: usize,
    in_flight: Option<InFlightFetch>,
    pending_handoff: Option<Xid>,
    current_vnf: Option<Dag>,
    /// Health of the active edge's staging path.
    breaker: Breaker,
    /// The edge the breaker's signals belong to; switching edges resets it.
    breaker_edge: Option<Xid>,
    /// Last coordinator depth recorded into the trace (dedup).
    last_depth: usize,
    /// Consecutive failures of the current origin fetch (back-off input).
    fetch_attempts: u32,
    /// Since when the fetch cursor has waited for its chunk's staging
    /// answer instead of fetching it from the origin.
    waiting_since: Option<SimTime>,
    /// Outstanding staging-request send times by token (RTT measurement).
    sent_tokens: BTreeMap<u64, SimTime>,
    /// When coverage was last lost; the next association measures the
    /// gap from it.
    detached_at: Option<SimTime>,
    stats: ClientStats,
    content_hash: xcache::ContentDigest,
}

impl SoftStageClient {
    /// Creates a client session downloading `chunks` (in order), each
    /// given as `(cid, origin DAG)` and at most `chunk_bytes` long.
    pub fn new(chunks: Vec<(Xid, Dag)>, chunk_bytes: usize, config: SoftStageConfig) -> Self {
        let mut profile = ChunkProfile::new();
        for (cid, dag) in chunks {
            profile.register(cid, dag);
        }
        SoftStageClient {
            coordinator: StagingCoordinator::new(config.coordinator),
            roamer: Roamer::default(),
            breaker: Breaker::new(BreakerConfig::default()),
            stats: ClientStats {
                client_id: config.client_id,
                ..ClientStats::default()
            },
            config,
            profile,
            chunk_bytes: chunk_bytes as u64,
            next_fetch: 0,
            in_flight: None,
            pending_handoff: None,
            current_vnf: None,
            breaker_edge: None,
            last_depth: 0,
            fetch_attempts: 0,
            waiting_since: None,
            sent_tokens: BTreeMap::new(),
            detached_at: None,
            content_hash: xcache::ContentDigest::new(),
        }
    }

    /// Download statistics.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Whether the whole session has completed.
    pub fn is_done(&self) -> bool {
        self.stats.finished.is_some()
    }

    /// Chunks fetched so far.
    pub fn fetched_chunks(&self) -> usize {
        self.next_fetch
    }

    /// The Chunk Profile (inspection).
    pub fn profile(&self) -> &ChunkProfile {
        &self.profile
    }

    /// The staging coordinator (inspection).
    pub fn coordinator(&self) -> &StagingCoordinator {
        &self.coordinator
    }

    /// [`xcache::ContentDigest`] of the verified chunks delivered, in order.
    pub fn content_digest(&self) -> [u8; 20] {
        self.content_hash.finish()
    }

    /// Current staging-path state.
    pub fn mode(&self) -> ClientMode {
        self.stats.mode
    }

    /// The circuit breaker's current state (inspection).
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Emits a record: counts it, then traces it (a no-op untraced).
    fn note(&mut self, ctx: &mut HostCtx<'_>, event: TraceEvent) {
        self.stats.count(ctx.now(), &event);
        ctx.trace(event);
    }

    /// Enters staging mode `mode`; the fold charges the dwell of the mode
    /// left and counts the transition.
    fn enter_mode(&mut self, ctx: &mut HostCtx<'_>, mode: ClientMode) {
        debug_assert_ne!(self.mode(), mode, "a transition changes the mode");
        self.note(ctx, TraceEvent::ModeTransition { mode });
    }

    /// Records a breaker state change, if there was one.
    fn emit_breaker(&mut self, ctx: &mut HostCtx<'_>, state: Option<BreakerState>) {
        if let (Some(edge), Some(state)) = (self.breaker_edge.as_ref().map(tag), state) {
            self.note(ctx, TraceEvent::BreakerTransition { edge, state });
        }
    }

    /// Feeds one failure signal (reject or timeout) to the breaker,
    /// recording the trip if this one opened it.
    fn note_breaker_failure(&mut self, ctx: &mut HostCtx<'_>) {
        let state = self.breaker.on_failure(ctx.now());
        self.emit_breaker(ctx, state);
    }

    /// Staging is off for this session: either configured off (Xftp
    /// baseline) or degraded after exhausting the retry budget.
    fn staging_off(&self) -> bool {
        !self.config.staging_enabled || self.mode() == ClientMode::Degraded
    }

    /// Whether the client is attached to a network and can be answered.
    fn associated(&self) -> bool {
        matches!(self.roamer.state(), RoamState::Associated { .. })
    }

    /// Whether the fetch of `rec` waits for its stage rather than race it
    /// over the same origin path: its staging answer is outstanding at the
    /// attached edge's VNF. The wait ends at the chunk's answer or reject,
    /// or when TICK finds the request stale.
    fn waits_for_stage(&self, rec: &ChunkRecord) -> bool {
        let StagingState::Pending { vnf, .. } = rec.staging_state else {
            return false;
        };
        self.current_vnf.as_ref().map(Dag::intent) == Some(vnf)
    }

    fn start_next_fetch(&mut self, ctx: &mut HostCtx<'_>) {
        if self.is_done() || self.in_flight.is_some() || !self.associated() {
            return;
        }
        let Some(rec) = self.profile.get(self.next_fetch) else {
            return;
        };
        let now = ctx.now();
        if self.waits_for_stage(rec) {
            self.waiting_since.get_or_insert(now);
            return;
        }
        let staged = rec.uses_staged();
        let pending = matches!(rec.staging_state, StagingState::Pending { .. });
        let cid = rec.cid;
        let dag = rec.best_dag().clone();
        let handle = ctx.xfetch_chunk(dag);
        let (chunk, source) = (tag(&cid), source(staged));
        let waited_us = self
            .waiting_since
            .take()
            .map_or(0, |since| (now - since).as_micros());
        let start = TraceEvent::FetchStart {
            chunk,
            source,
            pending,
            waited_us,
        };
        self.note(ctx, start);
        self.in_flight = Some(InFlightFetch {
            handle,
            started: now,
            staged,
        });
        self.maybe_stage(ctx);
    }

    /// The Staging Coordinator: keep the staged-ahead depth at target.
    /// Nothing goes out while detached: no link would carry it.
    fn maybe_stage(&mut self, ctx: &mut HostCtx<'_>) {
        if self.staging_off() || self.is_done() || !self.associated() {
            return;
        }
        let Some(vnf) = self.current_vnf.clone() else {
            // Fault tolerance: no Staging VNF reachable here. Enter the
            // explicit origin-fallback state; fetches use raw DAGs until a
            // beacon re-advertises a VNF.
            if self.mode() == ClientMode::Active {
                self.enter_mode(ctx, ClientMode::OriginFallback);
            }
            return;
        };
        if self.mode() == ClientMode::OriginFallback {
            // A VNF came (back) into reach — e.g. it restarted, or a
            // handoff brought us into a provisioned network.
            self.enter_mode(ctx, ClientMode::Active);
        }
        // Health-aware failover: an open breaker keeps staging traffic off
        // the sick edge; fetches keep flowing on origin DAGs meanwhile.
        let state = self.breaker.poll(ctx.now());
        self.emit_breaker(ctx, state);
        if !self.breaker.can_request() {
            return;
        }
        let depth = self.coordinator.target_depth();
        if depth != self.last_depth {
            self.last_depth = depth;
            let depth = u32::try_from(depth).unwrap_or(u32::MAX);
            self.note(ctx, TraceEvent::StageDepth { depth });
        }
        let ahead = self.profile.staged_ahead(self.next_fetch);
        let deficit = self.coordinator.deficit(ahead);
        if deficit == 0 {
            return;
        }
        let from = self.next_fetch + usize::from(self.in_flight.is_some());
        let mut idxs = self.profile.staging_candidates(from, deficit, ctx.now());
        let probe = self.breaker.is_probe();
        if probe {
            // The half-open probe risks a single chunk, not a batch.
            idxs.truncate(1);
        }
        if idxs.is_empty() {
            return;
        }
        self.stage_chunks(ctx, &vnf, &idxs);
        if probe {
            self.breaker.note_probe_sent();
        }
    }

    /// The Staging Tracker: sends one staging request for `idxs`.
    fn stage_chunks(&mut self, ctx: &mut HostCtx<'_>, vnf: &Dag, idxs: &[usize]) {
        if idxs.is_empty() {
            return;
        }
        let chunks: Vec<(Xid, Dag)> = idxs
            .iter()
            .filter_map(|&i| self.profile.get(i))
            .map(|r| (r.cid, r.raw_dag.clone()))
            .collect();
        for (cid, _) in &chunks {
            self.note(ctx, TraceEvent::StageRequest { chunk: tag(cid) });
        }
        // RICH-style usefulness deadline: the chunk `k` positions ahead is
        // needed in about `k · L_fetch`. Before a fetch estimate exists the
        // coordinator substitutes its cold-start horizon, so fresh clients
        // still carry a deadline a backlogged deadline-aware VNF can shed
        // against instead of admitting a whole cold fleet up to the caps.
        let ahead = idxs
            .first()
            .map_or(0, |&i| i.saturating_sub(self.next_fetch) as u64)
            + idxs.len() as u64;
        let deadline_us = self.coordinator.deadline_us_for(ctx.now(), ahead);
        let msg = StagingMsg::Request {
            chunks,
            deadline_us,
            chunk_bytes: self.chunk_bytes,
        };
        let token = ctx.send_control(vnf.clone(), vnf.intent(), msg.encode());
        self.sent_tokens.insert(token, ctx.now());
        let now = ctx.now();
        for &i in idxs {
            self.profile.mark_pending(i, now, vnf.intent());
        }
        self.stats.stage_requests += 1;
    }

    /// An answer for the chunk at the fetch cursor ends any wait for it:
    /// the fetch starts from wherever the chunk now is.
    fn wake_if_cursor(&mut self, ctx: &mut HostCtx<'_>, cid: &Xid) {
        if self
            .profile
            .by_cid(cid)
            .is_some_and(|(idx, _)| idx == self.next_fetch)
        {
            self.start_next_fetch(ctx);
        }
    }

    /// Step ④: pre-stage upcoming chunks into the handoff target's VNF,
    /// signalled through the *current* network.
    fn prestage_into(&mut self, ctx: &mut HostCtx<'_>, vnf: &Dag) {
        let from = self.next_fetch + usize::from(self.in_flight.is_some());
        let idxs = self
            .profile
            .staging_candidates(from, self.config.prestage_depth, ctx.now());
        self.stage_chunks(ctx, vnf, &idxs);
    }

    /// Starts the handoff to `target`; `false` when the roamer refuses.
    fn commit_handoff(&mut self, ctx: &mut HostCtx<'_>, target: Xid) -> bool {
        let event = self.roamer.begin_handoff(ctx, target);
        let started = event != RoamEvent::None;
        if started {
            let target = tag(&target);
            self.note(ctx, TraceEvent::HandoffCommit { target });
        }
        self.on_roam(ctx, event);
        started
    }

    fn handle_handoff_opportunity(&mut self, ctx: &mut HostCtx<'_>) {
        let Some((target, target_vnf)) = self
            .roamer
            .candidate(ctx.now())
            .map(|c| (c.nid, c.staging_vnf.clone()))
        else {
            return;
        };
        match self.config.policy {
            HandoffPolicy::Default => {
                // Legacy: switch immediately, even mid-chunk.
                self.commit_handoff(ctx, target);
            }
            HandoffPolicy::ChunkAware => {
                if self.in_flight.is_some() {
                    if self.pending_handoff != Some(target) {
                        self.pending_handoff = Some(target);
                        let target = tag(&target);
                        self.note(ctx, TraceEvent::HandoffDefer { target });
                        if self.config.staging_enabled {
                            if let Some(vnf) = target_vnf {
                                self.prestage_into(ctx, &vnf);
                            }
                        }
                    }
                } else {
                    self.commit_handoff(ctx, target);
                }
            }
        }
    }

    /// Every result of the roamer lands here. Losing coverage, a lost
    /// link or a target that vanished while associating, starts a gap: a
    /// wait for a stage ends, since the gap is a wait for coverage, and
    /// an in-flight fetch stalls on transport recovery until the next
    /// association migrates it. An association ends the gap.
    fn on_roam(&mut self, ctx: &mut HostCtx<'_>, event: RoamEvent) {
        match event {
            RoamEvent::None | RoamEvent::Associating(_) => {}
            RoamEvent::Associated(nid) => self.on_associated(ctx, nid),
            RoamEvent::Detached => {
                self.detached_at = Some(ctx.now());
                self.waiting_since = None;
            }
        }
    }

    fn on_associated(&mut self, ctx: &mut HostCtx<'_>, nid: Xid) {
        if let Some(detached) = self.detached_at.take() {
            // Reactive content-mobility management: learn how long gaps
            // last and keep the VNF provisioned across them.
            self.coordinator.observe_gap(ctx.now() - detached);
        }
        // The answers still outstanding are addressed to the locator the
        // client had when it asked, which a gap or a handoff has just
        // replaced: ask again at once from here, uncharged, and free the
        // probe slot for the same reason.
        self.profile.replace_pending(StagingState::Blank);
        self.breaker.abort_probe();
        self.current_vnf = self.roamer.sensor.vnf_of(&nid, ctx.now()).cloned();
        if self.breaker_edge != Some(nid) {
            // A different edge: its health record starts clean. The breaker
            // tracks one edge at a time — the active one.
            self.breaker_edge = Some(nid);
            let state = self.breaker.reset();
            self.emit_breaker(ctx, state);
        }
        if self.pending_handoff == Some(nid) {
            self.pending_handoff = None;
        }
        self.maybe_stage(ctx);
        self.start_next_fetch(ctx);
    }
}

impl App for SoftStageClient {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_app_timer(TICK, TICK_TIMER);
    }

    fn on_beacon(&mut self, ctx: &mut HostCtx<'_>, link: LinkId, beacon: &Beacon) {
        let event = self.roamer.on_beacon(ctx, link, beacon);
        self.on_roam(ctx, event);
        // VNF re-discovery: while associated but without a known VNF (it
        // crashed, or never advertised), pick up a newly advertised one
        // from the sensor and resume staging.
        if self.current_vnf.is_none() && !self.staging_off() {
            if let RoamState::Associated { nid } = self.roamer.state() {
                self.current_vnf = self.roamer.sensor.vnf_of(&nid, ctx.now()).cloned();
                if self.current_vnf.is_some() {
                    self.maybe_stage(ctx);
                }
            }
        }
        self.handle_handoff_opportunity(ctx);
    }

    fn on_link_event(&mut self, ctx: &mut HostCtx<'_>, link: LinkId, up: bool) {
        let event = self.roamer.on_link_event(ctx, link, up);
        self.on_roam(ctx, event);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, key: u8) {
        match key {
            ROAM_ASSOC_TIMER => {
                let event = self.roamer.on_timer(ctx, key);
                self.on_roam(ctx, event);
            }
            TICK_TIMER => {
                // Re-issue staging for requests lost in the air, each
                // chunk on its own capped-exponential back-off schedule.
                // Only while associated: a detached client cannot be
                // answered, and every association re-asks what is
                // outstanding.
                if self.associated() && !self.staging_off() {
                    let stale = self.profile.stale_pending_with(ctx.now(), stage_backoff);
                    let budget = u64::from(STAGE_RETRY_BUDGET);
                    for idx in stale {
                        if self.stats.stage_retries >= budget {
                            // Retry budget exhausted: stop staging for
                            // good and finish the download as plain Xftp,
                            // every unfetched chunk on its origin DAG.
                            self.enter_mode(ctx, ClientMode::Degraded);
                            self.profile.replace_pending(StagingState::Fallback);
                            break;
                        }
                        self.stats.stage_retries += 1;
                        // An unanswered request to a reachable edge is a
                        // health signal. The chunk is asked for again below
                        // unless the breaker has opened, and a fetch waiting
                        // on it waits on the new request. Each wait is
                        // bounded by `stage_wait_bound`; at an edge that
                        // answers nothing the breaker opens within
                        // `BreakerConfig::threshold` cuts and the fetch
                        // starts, and the retry budget bounds the rest.
                        if let Some(r) = self.profile.get_mut(idx) {
                            r.staging_state = StagingState::Blank;
                            let chunk = tag(&r.cid);
                            self.note(ctx, TraceEvent::StageTimeout { chunk });
                            self.note_breaker_failure(ctx);
                        }
                    }
                }
                self.maybe_stage(ctx);
                self.start_next_fetch(ctx);
                if !self.is_done() {
                    ctx.set_app_timer(TICK, TICK_TIMER);
                }
            }
            FETCH_RETRY_TIMER => {
                self.start_next_fetch(ctx);
            }
            _ => {}
        }
    }

    fn on_control(
        &mut self,
        ctx: &mut HostCtx<'_>,
        _from: Dag,
        _service: Xid,
        token: u64,
        body: &util::bytes::Bytes,
    ) {
        match StagingMsg::decode(body) {
            Some(StagingMsg::Staged {
                cid,
                ok,
                staging_latency_us,
                nid,
                hid,
            }) => {
                let chunk = tag(&cid);
                self.note(ctx, TraceEvent::StageAck { chunk, ok });
                // Any staged reply — success or failure — means the edge
                // is alive and answering: the breaker heals.
                let state = self.breaker.on_success();
                self.emit_breaker(ctx, state);
                if ok {
                    let latency = SimDuration::from_micros(staging_latency_us);
                    if self.profile.mark_ready(&cid, nid, hid) {
                        if staging_latency_us > 0 {
                            self.coordinator.observe_stage(latency);
                        }
                        if let Some(&sent) = self.sent_tokens.get(&token) {
                            let rtt = (ctx.now() - sent).saturating_sub(latency);
                            self.coordinator.observe_rtt(rtt);
                        }
                    }
                } else if let Some((idx, _)) = self.profile.by_cid(&cid) {
                    self.profile.mark_fallback(idx);
                }
                self.wake_if_cursor(ctx, &cid);
                self.maybe_stage(ctx);
            }
            Some(StagingMsg::Reject {
                cid,
                reason,
                retry_after_us,
            }) => {
                // Backpressure: the VNF shed this chunk. The fetch path is
                // untouched (origin DAG still serves it); the chunk just
                // re-enters the staging candidate pool later.
                let reject = TraceEvent::StageReject {
                    chunk: tag(&cid),
                    reason,
                    retry_after_us,
                };
                self.note(ctx, reject);
                if let Some((idx, r)) = self.profile.by_cid(&cid) {
                    // Honor the VNF's advisory, but never come back sooner
                    // than this chunk's own back-off schedule would.
                    let own = stage_backoff(r);
                    let wait = own.max(SimDuration::from_micros(retry_after_us));
                    self.profile.mark_rejected(idx, ctx.now() + wait);
                }
                // An explicit reject is a health signal: the edge is up
                // but shedding load — back off from it.
                self.note_breaker_failure(ctx);
                self.wake_if_cursor(ctx, &cid);
            }
            _ => {}
        }
    }

    fn on_fetch_complete(
        &mut self,
        ctx: &mut HostCtx<'_>,
        handle: u64,
        cid: Xid,
        result: FetchResult,
    ) {
        let Some(fetch) = self.in_flight.take() else {
            return;
        };
        if fetch.handle != handle {
            self.in_flight = Some(fetch);
            return;
        }
        let len = match result {
            FetchResult::Complete(bytes) => Some(bytes.len() as u64),
            FetchResult::NotFound | FetchResult::Failed => None,
        };
        let complete = TraceEvent::FetchComplete {
            chunk: tag(&cid),
            bytes: len.unwrap_or(0),
            source: source(fetch.staged),
            ok: len.is_some(),
        };
        self.note(ctx, complete);
        match len {
            Some(_) => {
                self.fetch_attempts = 0;
                if fetch.staged {
                    self.coordinator.observe_fetch(ctx.now() - fetch.started);
                }
                self.content_hash.push(&cid);
                self.stats
                    .chunk_completions
                    .push((ctx.now(), self.next_fetch, fetch.staged));
                self.next_fetch += 1;
                if self.next_fetch >= self.profile.len() {
                    self.stats.charge_dwell(ctx.now());
                    self.stats.finished = Some(ctx.now());
                    return;
                }
                // Chunk-aware handoff: the deferred switch happens now, at
                // the chunk boundary, with no connection to migrate.
                if let Some(target) = self.pending_handoff.take() {
                    if self.commit_handoff(ctx, target) {
                        self.maybe_stage(ctx);
                        return; // Fetch resumes once associated.
                    }
                }
                self.start_next_fetch(ctx);
                self.maybe_stage(ctx);
            }
            None => {
                if fetch.staged {
                    // Fault tolerance: the staged copy is gone (evicted,
                    // cache restarted). Fall back to the origin DAG.
                    self.profile.mark_fallback(self.next_fetch);
                    self.stats.fallback_refetches += 1;
                    self.start_next_fetch(ctx);
                } else {
                    // Origin fetch failed: retry with capped exponential
                    // back-off so a down origin isn't hammered.
                    let delay = backoff(
                        FETCH_RETRY,
                        FETCH_RETRY_CAP,
                        self.fetch_attempts,
                        self.next_fetch as u64,
                    );
                    self.fetch_attempts = self.fetch_attempts.saturating_add(1);
                    self.stats.fetch_retries += 1;
                    ctx.set_app_timer(delay, FETCH_RETRY_TIMER);
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use simnet::{DropReason, RejectReason};
    use xia_addr::Principal;
    use xia_host::HostView;

    /// One record of every kind except the `counted` ones. Where a fold
    /// counts some records of a kind and not others, the sample is one it
    /// does not count: a half-open breaker, a failed fetch.
    pub(crate) fn every_kind_but(counted: &[&str]) -> Vec<TraceEvent> {
        let (link, chunk, target) = (LinkId::from_index(0), Tag(7), Tag(9));
        let all = [
            TraceEvent::PacketEnqueue { link, bytes: 1500 },
            TraceEvent::PacketTx {
                link,
                bytes: 1500,
                attempts: 2,
            },
            TraceEvent::PacketDeliver { link, bytes: 1500 },
            TraceEvent::PacketDrop {
                link,
                bytes: 1500,
                reason: DropReason::Loss,
            },
            TraceEvent::LinkUp { link },
            TraceEvent::LinkDown { link },
            TraceEvent::FaultOnset {
                link,
                loss: 0.5,
                corrupt: 0.0,
            },
            TraceEvent::FaultClear { link },
            TraceEvent::NodeCrash,
            TraceEvent::NodeRestart,
            TraceEvent::CacheWipe,
            TraceEvent::StageRequest { chunk },
            TraceEvent::StageAck { chunk, ok: true },
            TraceEvent::StageStart { chunk },
            TraceEvent::Staged { chunk, bytes: 4096 },
            TraceEvent::StageFailed { chunk },
            TraceEvent::ChunkEvicted { chunk },
            TraceEvent::EvictOverflow { dropped: 3 },
            TraceEvent::ChunkServed { chunk, bytes: 4096 },
            TraceEvent::FetchStart {
                chunk,
                source: FetchSource::EdgeCache,
                pending: false,
                waited_us: 0,
            },
            TraceEvent::FetchComplete {
                chunk,
                bytes: 0,
                source: FetchSource::Origin,
                ok: false,
            },
            TraceEvent::HandoffDefer { target },
            TraceEvent::HandoffCommit { target },
            TraceEvent::ModeTransition {
                mode: ClientMode::OriginFallback,
            },
            TraceEvent::StageDepth { depth: 4 },
            TraceEvent::StageReject {
                chunk,
                reason: RejectReason::QueueDepth,
                retry_after_us: 1_000_000,
            },
            TraceEvent::StageTimeout { chunk },
            TraceEvent::BreakerTransition {
                edge: target,
                state: BreakerState::HalfOpen,
            },
            TraceEvent::CacheResize { capacity: 1 << 20 },
            TraceEvent::ServiceDegrade { delay_us: 30_000 },
        ];
        let kinds: std::collections::BTreeSet<_> = all.iter().map(TraceEvent::name).collect();
        // simnet's `trace_events!` declares 30 kinds.
        assert_eq!(
            (kinds.len(), all.len()),
            (30, 30),
            "one record of each kind"
        );
        all.into_iter()
            .filter(|e| !counted.contains(&e.name()))
            .collect()
    }

    #[test]
    fn each_record_feeds_exactly_its_counters() {
        let at = |secs| SimTime::ZERO + SimDuration::from_secs(secs);
        let chunk = Tag(7);
        let fetched = |source, bytes| TraceEvent::FetchComplete {
            chunk,
            bytes,
            source,
            ok: true,
        };
        let mode = |mode| TraceEvent::ModeTransition { mode };
        let breaker = |state| TraceEvent::BreakerTransition {
            edge: Tag(9),
            state,
        };
        let reject = TraceEvent::StageReject {
            chunk,
            reason: RejectReason::Deadline,
            retry_after_us: 0,
        };
        // (seconds, record, the fields it moves), fed in order to one
        // fold; every field is compared after each record.
        let started = |pending, waited_us| TraceEvent::FetchStart {
            chunk,
            source: FetchSource::Origin,
            pending,
            waited_us,
        };
        let script: [(u64, TraceEvent, fn(&mut ClientStats)); 11] = [
            (1, TraceEvent::StageTimeout { chunk }, |s| {
                s.stage_timeouts = 1;
            }),
            (1, reject, |s| s.stage_rejects = 1),
            (1, breaker(BreakerState::Open), |s| s.breaker_opens = 1),
            (1, breaker(BreakerState::Closed), |_| {}),
            (2, started(true, 0), |s| s.pending_fetches = 1),
            (2, started(false, 700_000), |s| s.stage_wait_us = 700_000),
            (2, fetched(FetchSource::EdgeCache, 300), |s| {
                s.from_staged = 1;
                s.bytes_fetched = 300;
            }),
            (2, fetched(FetchSource::Origin, 200), |s| {
                s.from_origin = 1;
                s.bytes_fetched = 500;
            }),
            // Dwell across Active → OriginFallback → Active → Degraded:
            // each transition charges the mode it leaves.
            (3, mode(ClientMode::OriginFallback), |s| {
                s.dwell_active_us = 3_000_000;
                s.origin_fallbacks = 1;
                s.mode = ClientMode::OriginFallback;
                s.charged_until = SimTime::from_micros(3_000_000);
            }),
            (7, mode(ClientMode::Active), |s| {
                s.dwell_fallback_us = 4_000_000;
                s.mode = ClientMode::Active;
                s.charged_until = SimTime::from_micros(7_000_000);
            }),
            (12, mode(ClientMode::Degraded), |s| {
                s.dwell_active_us = 8_000_000;
                s.mode = ClientMode::Degraded;
                s.charged_until = SimTime::from_micros(12_000_000);
            }),
        ];
        let mut stats = ClientStats::default();
        let mut want = ClientStats::default();
        for (secs, record, moves) in script {
            stats.count(at(secs), &record);
            moves(&mut want);
            assert_eq!(stats, want, "after {record:?}");
        }
        // Every other kind, and the near misses above, count nothing.
        for record in every_kind_but(&["mode", "stage_reject", "stage_timeout"]) {
            stats.count(at(15), &record);
            assert_eq!(stats, want, "after {record:?}");
        }
        // The last chunk charges the final mode.
        stats.charge_dwell(at(20));
        want.dwell_degraded_us = 8_000_000;
        want.charged_until = at(20);
        assert_eq!(stats, want);
    }

    /// The staging re-request delays of a chunk named `cid`, for attempts
    /// 0..=20.
    fn stage_schedule(cid: Xid) -> Vec<SimDuration> {
        let mut profile = ChunkProfile::new();
        profile.register(cid, Dag::direct(cid));
        (0..=20)
            .map(|attempt| {
                let r = profile.get_mut(0).expect("registered");
                r.stage_attempts = attempt + 1;
                stage_backoff(r)
            })
            .collect()
    }

    #[test]
    fn retry_schedules_are_capped_exponential_with_quarter_jitter() {
        let cid = Xid::new_random(Principal::Cid, 1);
        let other = Xid::new_random(Principal::Cid, 2);
        assert_ne!(cid.id()[..8], other.id()[..8]);
        let stage = stage_schedule(cid);
        let fetch = |attempt| backoff(FETCH_RETRY, FETCH_RETRY_CAP, attempt, 7);
        for attempt in 0..=20u32 {
            // (delay, base, cap): the nominal delay is min(base · 2^attempt, cap).
            let table = [
                (stage[attempt as usize], SimDuration::from_secs(2), 16),
                (fetch(attempt), SimDuration::from_millis(500), 8),
            ];
            for (delay, base, cap_s) in table {
                let nominal = (base.as_micros() << attempt).min(cap_s * 1_000_000);
                let d = delay.as_micros();
                assert!(
                    d >= 1 && 4 * d >= 3 * nominal && 4 * d <= 5 * nominal,
                    "attempt {attempt}: {d} µs against a nominal {nominal} µs"
                );
            }
            assert_eq!(fetch(attempt), fetch(attempt), "attempt {attempt}");
        }
        assert_eq!(stage_schedule(cid), stage);
        assert_ne!(stage_schedule(other), stage, "two chunks share a schedule");
    }

    #[test]
    fn a_target_that_vanishes_while_associating_starts_a_gap_at_that_instant() {
        let beacon = Beacon {
            nid: Xid::new_random(Principal::Nid, 1),
            hid: Xid::new_random(Principal::Hid, 1),
            rss_dbm: -60.0,
            staging_vnf: None,
        };
        let cid = Xid::for_content(b"chunk");
        let chunks = vec![(cid, Dag::direct(cid))];
        let mut client = SoftStageClient::new(chunks, 1, SoftStageConfig::default());
        let mut store = xcache::ChunkStore::new(0, xcache::EvictionPolicy::Lru);
        let view = HostView::new(Xid::new_random(Principal::Hid, 2));

        let mut ctx = HostCtx::new(view, &mut store, Vec::new());
        client.on_beacon(&mut ctx, LinkId::from_index(1), &beacon);
        let (mut view, _) = ctx.finish();
        let target = beacon.nid;
        assert_eq!(client.roamer.state(), RoamState::Associating { target });

        // The beacon has gone stale by the time the association timer
        // fires: the client is detached, and its gap starts now.
        view.now += SimDuration::from_secs(1);
        let mut ctx = HostCtx::new(view, &mut store, Vec::new());
        client.on_timer(&mut ctx, ROAM_ASSOC_TIMER);
        assert_eq!(client.roamer.state(), RoamState::Detached);
        assert_eq!(client.detached_at, Some(view.now));
    }
}
