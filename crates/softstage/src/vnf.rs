//! The Staging VNF: the stateless edge-side executor.
//!
//! "A very lightweight virtual network function embedded inside XCache
//! that is application-agnostic": on a Staging Manager's request it
//! prefetches the named chunks from their origin into the local XCache and
//! reports each chunk's new location and staging latency back. It keeps no
//! per-client session state — only the transient fetch bookkeeping — so
//! edge networks scale to many clients.
//!
//! The staging queue is bounded: a configurable depth/byte cap plus an
//! [`AdmissionPolicy`] decide whether one more origin fetch starts. Work
//! that is not admitted is answered with an explicit
//! [`StagingMsg::Reject`] (never silently queued), and a `SlowEdge`
//! fault degrades the service rate by delaying every reply.

use std::collections::{BTreeMap, VecDeque};

use simnet::{RejectReason, SimDuration, SimTime, Tag, TraceEvent};
use util::bytes::Bytes;
use xia_addr::{Dag, Xid};
use xia_host::{App, FetchResult, HostCtx};

use crate::admission::{AdmissionPolicy, AdmissionSnapshot};
use crate::coordinator::Ewma;
use crate::messages::StagingMsg;

/// Timer key for flushing service-delayed replies.
const REPLY_TIMER: u32 = 1;

/// Bounds and admission configuration of a [`StagingVnf`].
#[derive(Debug, Clone)]
pub struct VnfConfig {
    /// Maximum concurrent staging jobs (in-flight origin fetches).
    pub max_depth: usize,
    /// Maximum estimated bytes in flight from origins.
    pub max_bytes: u64,
    /// Per-job byte estimate used against `max_bytes` (chunk sizes are
    /// unknown until the origin answers).
    pub chunk_bytes_hint: u64,
    /// Advisory back-off sent with every reject.
    pub retry_after: SimDuration,
    /// Admission policy applied below the hard caps.
    pub admission: AdmissionPolicy,
}

impl Default for VnfConfig {
    fn default() -> Self {
        VnfConfig {
            // Generous enough that a single well-behaved client (depth
            // coordinator caps at 32) never sees backpressure.
            max_depth: 64,
            max_bytes: 512 * 1024 * 1024,
            chunk_bytes_hint: 2 * 1024 * 1024,
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

/// Bookkeeping for one in-flight origin fetch.
#[derive(Debug)]
struct InFlight {
    cid: Xid,
    started: SimTime,
}

/// Counters exposed to experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VnfStats {
    /// Staging requests received (messages, not chunks).
    pub requests: u64,
    /// Chunks staged from an origin.
    pub staged: u64,
    /// Chunks answered from cache without an origin fetch.
    pub already_cached: u64,
    /// Staging attempts that failed.
    pub failed: u64,
    /// Bytes brought in from origins.
    pub bytes_staged: u64,
    /// Chunks shed by backpressure or admission control.
    pub rejected: u64,
    /// Highest concurrent staging-job count ever reached.
    pub peak_depth: u64,
}

/// The Staging VNF application, deployed on an edge router's host stack.
#[derive(Debug)]
pub struct StagingVnf {
    sid: Xid,
    config: VnfConfig,
    fetches: BTreeMap<u64, InFlight>,
    waiters: BTreeMap<Xid, Vec<Waiter>>,
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
            fetches: BTreeMap::new(),
            waiters: BTreeMap::new(),
            latency: Ewma::new(0.3),
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
        self.fetches.len()
    }

    /// The service address to advertise in beacons, given the edge
    /// network's locator.
    pub fn service_dag(&self, nid: Xid, hid: Xid) -> Dag {
        Dag::service_with_fallback(self.sid, nid, hid)
    }

    /// Sends (or, under a `SlowEdge` fault, schedules) one reply.
    fn send_msg(&mut self, ctx: &mut HostCtx<'_, '_>, to: &Dag, token: u64, msg: &StagingMsg) {
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
        ctx: &mut HostCtx<'_, '_>,
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
        ctx: &mut HostCtx<'_, '_>,
        to: &Dag,
        token: u64,
        cid: Xid,
        reason: RejectReason,
    ) {
        self.stats.rejected += 1;
        let retry_after_us = self.config.retry_after.as_micros();
        util::trace_event!(
            ctx,
            TraceEvent::StageReject {
                chunk: Tag::of(cid.id()),
                reason,
                retry_after_us,
            }
        );
        let msg = StagingMsg::Reject {
            cid,
            reason,
            retry_after_us,
        };
        self.send_msg(ctx, to, token, &msg);
    }

    /// The hard caps, then the policy. `None` admits.
    fn admission_verdict(&self, now: SimTime, deadline_us: u64) -> Option<RejectReason> {
        let depth = self.fetches.len();
        if depth >= self.config.max_depth {
            return Some(RejectReason::QueueDepth);
        }
        let bytes = depth as u64 * self.config.chunk_bytes_hint;
        if bytes + self.config.chunk_bytes_hint > self.config.max_bytes {
            return Some(RejectReason::QueueBytes);
        }
        let snapshot = AdmissionSnapshot {
            depth,
            now,
            deadline: (deadline_us > 0).then(|| SimTime::from_micros(deadline_us)),
            est_stage: self.latency.value(),
        };
        self.config.admission.admit(&snapshot)
    }

    /// Flushes every delayed reply due at or before `now`.
    fn flush_delayed(&mut self, ctx: &mut HostCtx<'_, '_>, now: SimTime) {
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
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        ctx.register_service(self.sid);
    }

    fn on_fault(&mut self, ctx: &mut HostCtx<'_, '_>, fault: simnet::NodeFault) {
        match fault {
            simnet::NodeFault::Crash => {
                // Volatile fetch bookkeeping dies with the process; clients
                // whose requests were in flight re-request after their
                // staging timeout. The restart re-registers the SID via
                // `on_start`.
                self.fetches.clear();
                self.waiters.clear();
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

    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, key: u64) {
        if key == u64::from(REPLY_TIMER) {
            let now = ctx.now();
            self.flush_delayed(ctx, now);
        }
    }

    fn on_control(
        &mut self,
        ctx: &mut HostCtx<'_, '_>,
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
        }) = StagingMsg::decode(body)
        else {
            return;
        };
        self.stats.requests += 1;
        for (cid, origin) in chunks {
            if ctx.store().contains(&cid) {
                // Idempotent: already staged (or being served) here. Still
                // recorded as `Staged { bytes: 0 }` so the trace oracle
                // knows this cache legitimately holds the chunk.
                self.stats.already_cached += 1;
                util::trace_event!(
                    ctx,
                    TraceEvent::Staged {
                        chunk: Tag::of(cid.id()),
                        bytes: 0,
                    }
                );
                self.reply(ctx, &from, token, cid, true, 0);
                continue;
            }
            if self.waiters.get(&cid).is_some_and(|w| !w.is_empty()) {
                // One origin fetch serves all requesters; joining an
                // in-flight job adds no load, so it bypasses admission.
                self.waiters.entry(cid).or_default().push(Waiter {
                    requester: from.clone(),
                    token,
                });
                continue;
            }
            if let Some(reason) = self.admission_verdict(ctx.now(), deadline_us) {
                self.reject(ctx, &from, token, cid, reason);
                continue;
            }
            self.waiters.entry(cid).or_default().push(Waiter {
                requester: from.clone(),
                token,
            });
            let handle = ctx.xfetch_chunk(origin);
            util::trace_event!(
                ctx,
                TraceEvent::StageStart {
                    chunk: Tag::of(cid.id()),
                }
            );
            self.fetches.insert(
                handle,
                InFlight {
                    cid,
                    started: ctx.now(),
                },
            );
            self.stats.peak_depth = self.stats.peak_depth.max(self.fetches.len() as u64);
        }
    }

    fn on_fetch_complete(
        &mut self,
        ctx: &mut HostCtx<'_, '_>,
        handle: u64,
        cid: Xid,
        result: FetchResult,
    ) {
        let Some(inflight) = self.fetches.remove(&handle) else {
            return;
        };
        debug_assert_eq!(inflight.cid, cid);
        let latency = ctx.now() - inflight.started;
        let waiters = self.waiters.remove(&cid).unwrap_or_default();
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
        match staged_bytes {
            Some(bytes) => {
                self.stats.staged += 1;
                self.stats.bytes_staged += bytes;
                self.latency.observe(latency);
                util::trace_event!(
                    ctx,
                    TraceEvent::Staged {
                        chunk: Tag::of(cid.id()),
                        bytes,
                    }
                );
                for w in waiters {
                    self.reply(ctx, &w.requester, w.token, cid, true, latency.as_micros());
                }
            }
            None => {
                self.stats.failed += 1;
                util::trace_event!(
                    ctx,
                    TraceEvent::StageFailed {
                        chunk: Tag::of(cid.id()),
                    }
                );
                for w in waiters {
                    self.reply(ctx, &w.requester, w.token, cid, false, latency.as_micros());
                }
            }
        }
    }
}
