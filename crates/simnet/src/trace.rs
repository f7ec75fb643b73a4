//! Deterministic flight recorder and trace-invariant oracle.
//!
//! Every layer of the stack can emit typed [`TraceEvent`]s into the
//! simulator's recorder, which numbers each [`TraceRecord`] and hands it,
//! as it is recorded, to the one consumer
//! [`Simulator::enable_trace`](crate::Simulator::enable_trace) was given;
//! nothing is kept. A record is a `Copy` struct — recording never
//! formats. [`TraceRecord::write_line`] appends a record's JSON line (one
//! object, fixed key order), so a consumer that writes each line as it
//! comes dumps the whole run, and two runs of the same seeded
//! configuration produce **byte-identical** trace files. The schema is
//! declared once, in the `trace_events!` table below; the enum and its
//! line writer are generated from it.
//!
//! [`TraceAudit`] checks each record just before the consumer sees it
//! against protocol invariants that aggregate counters cannot express
//! (a recorded slice collected into a `TraceAudit` meets the same rules):
//!
//! - sequence numbers strictly increase and timestamps never go backwards
//!   (globally, hence also per node),
//! - every delivery has a matching transmission on the same link
//!   (no orphan deliveries),
//! - no fetch completes from an edge cache that never staged the chunk,
//! - no chunk transfer spans a committed handoff (a caller running the
//!   legacy handoff policy, which commits at once, drops these findings),
//! - no staging request leaves a node whose circuit breaker is open, and
//!   a breaker never opens without a preceding reject or timeout,
//! - per-link event counts and byte totals match [`LinkStats`] exactly.
//!
//! Identifiers larger than a machine word (XIA CIDs/NIDs) are folded into
//! a 63-bit [`Tag`] so every field of a record serializes as an exact,
//! non-negative JSON integer.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};

use util::json::JsonError;

use crate::link::LinkId;
use crate::node::NodeId;
use crate::stats::{LinkStats, SimStats};
use crate::time::SimTime;

/// A compact 63-bit identity tag for content (CIDs) and networks (NIDs).
///
/// Folds the first eight bytes of an identifier big-endian and masks the
/// sign bit away, so the tag always exports as an exact JSON integer (a
/// `u64` above `i64::MAX` is written as a float). Collisions are
/// astronomically unlikely within one run and would only blur a trace,
/// never corrupt the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u64);

impl Tag {
    /// Folds an identifier's leading bytes into a tag.
    pub fn of(id: &[u8]) -> Tag {
        let mut v: u64 = 0;
        for &b in id.iter().take(8) {
            v = (v << 8) | u64::from(b);
        }
        Tag(v & i64::MAX as u64)
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A field value as a trace line writes it.
trait LineValue {
    fn write(self, line: &mut String);
}

/// The line format's value rules, one row per field type (`type =>
/// |value, w| body` writes `value` to the line `w`), written once:
/// integers in decimal, a `u64` above `i64::MAX` as a float (as
/// `util::json` writes one), floats as `{:?}` and non-finite ones as
/// `null`, wire names quoted (plain identifiers: nothing to escape).
macro_rules! line_values {
    ($($t:ty => |$v:ident, $w:ident| $body:expr,)+) => {$(
        impl LineValue for $t {
            fn write(self, $w: &mut String) {
                let $v = self;
                $body;
            }
        }
    )+};
}

line_values! {
    u64 => |n, w| if n > i64::MAX as u64 { (n as f64).write(w) } else { let _ = write!(w, "{n}"); },
    f64 => |x, w| if x.is_finite() { let _ = write!(w, "{x:?}"); } else { w.push_str("null") },
    bool => |b, w| w.push_str(if b { "true" } else { "false" }),
    &str => |name, w| { let _ = write!(w, "\"{name}\""); },
    u32 => |n, w| u64::from(n).write(w),
    Tag => |t, w| t.0.write(w),
    LinkId => |l, w| (l.index() as u64).write(w),
}

/// Appends `,"key":value` to a line.
fn write_field(line: &mut String, key: &str, value: impl LineValue) {
    line.push_str(",\"");
    line.push_str(key);
    line.push_str("\":");
    value.write(line);
}

/// Declares a field enum that travels as a string: each variant is written
/// once, next to its wire name, and `name` and [`LineValue`] are
/// generated from that one list. `, pub parse` after the name also
/// generates `parse`, for a wire name some other format reads back.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident, pub parse {
            $( $(#[$vmeta:meta])* $variant:ident = $wire:literal, )+
        }
    ) => {
        wire_enum! {
            $(#[$meta])*
            pub enum $name {
                $( $(#[$vmeta])* $variant = $wire, )+
            }
        }

        impl $name {
            /// Parses a wire name back into the variant.
            pub fn parse(s: &str) -> Result<Self, JsonError> {
                match s {
                    $( $wire => Ok($name::$variant), )+
                    other => Err(JsonError::new(format!(
                        "unknown {} {other:?}", stringify!($name)
                    ))),
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $wire:literal, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $( $(#[$vmeta])* $variant, )+
        }

        impl $name {
            /// The variant's wire name.
            pub fn name(self) -> &'static str {
                match self {
                    $( $name::$variant => $wire, )+
                }
            }
        }

        line_values! {
            $name => |v, w| v.name().write(w),
        }
    };
}

wire_enum! {
    /// Why a packet never reached the far end.
    pub enum DropReason {
        /// Channel loss exhausted ARQ retries (or no ARQ).
        Loss = "loss",
        /// Tail drop at a full transmit queue.
        Queue = "queue",
        /// The link was administratively down at transmit time.
        Down = "down",
        /// Discarded in flight by a down transition.
        InFlight = "in_flight",
        /// Delivered with flipped bits; the wire checksum rejected it.
        Corrupt = "corrupt",
    }
}

wire_enum! {
    /// Where a client fetch was directed.
    pub enum FetchSource {
        /// The in-network staging cache (VNF-fronted edge router).
        EdgeCache = "edge",
        /// The origin server over the wired path.
        Origin = "origin",
    }
}

wire_enum! {
    /// Staging-path state of a SoftStage client (fault model, §recovery).
    ///
    /// The paper's prototype falls back to the origin DAG silently when no
    /// Staging VNF answers; here the fallback is an explicit, observable
    /// state so experiments can count how often the recovery paths run.
    #[derive(Default)]
    pub enum ClientMode {
        /// A Staging VNF is known and staging requests flow normally; every
        /// session starts here.
        #[default]
        Active = "active",
        /// No reachable Staging VNF: fetches use origin DAGs until beacons
        /// re-advertise a VNF (e.g. after a VNF restart).
        OriginFallback = "origin_fallback",
        /// The session's staging retry budget is exhausted: staging is off
        /// for good and the client behaves exactly like plain Xftp.
        Degraded = "degraded",
    }
}

wire_enum! {
    /// Why a staging VNF refused to take on a request.
    ///
    /// The wire names are shared with `softstage`'s reject message, which
    /// reads them back with `parse`.
    pub enum RejectReason, pub parse {
        /// The staging queue reached its configured depth cap.
        QueueDepth = "queue_depth",
        /// Admission control predicted the chunk cannot stage in time.
        Deadline = "deadline",
    }
}

wire_enum! {
    /// State of the client's per-edge circuit breaker.
    pub enum BreakerState {
        /// Healthy: staging requests flow normally.
        Closed = "closed",
        /// Tripped: no staging requests until the open window elapses.
        Open = "open",
        /// Probing: exactly one trial request decides close vs. re-open.
        HalfOpen = "half_open",
    }
}

/// Declares [`TraceEvent`] from one table: each entry is a variant, its
/// wire name (the `"ev"` value) and its typed fields. A field's JSON key
/// is its identifier and fields are written in declaration order, so the
/// enum, `name()` and the line writer cannot disagree — adding an event
/// kind is one entry here.
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $wire:literal
                $({ $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )+ })?,
            )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum TraceEvent {
            $(
                $(#[$vmeta])*
                $variant $({ $( $(#[$fmeta])* $field: $ty, )+ })?,
            )+
        }

        impl TraceEvent {
            /// The event's wire name (the `"ev"` field in JSON lines).
            pub fn name(&self) -> &'static str {
                match self {
                    $( TraceEvent::$variant { .. } => $wire, )+
                }
            }

            /// Appends the payload fields to a line, `,"key":value` each.
            fn write_fields(self, line: &mut String) {
                match self {
                    $(
                        TraceEvent::$variant $({ $($field,)+ })? => {
                            $($( write_field(line, stringify!($field), $field); )+)?
                        }
                    )+
                }
            }
        }
    };
}

trace_events! {
    /// One typed event in the flight record. All variants are `Copy`.
    ///
    /// Packet events are attributed to the node acting at that instant:
    /// enqueue/tx/drop-at-tx to the sender, deliver/in-flight-drop to the
    /// receiver. Link and fault events are attributed to the affected
    /// node (endpoint `a` for link-wide events).
    pub enum TraceEvent {
        /// A node offered a packet to a link.
        PacketEnqueue = "pkt_enqueue" {
            /// Link the packet was offered to.
            link: LinkId,
            /// Wire size in bytes.
            bytes: u32,
        },
        /// The link accepted the packet and will deliver it.
        PacketTx = "pkt_tx" {
            /// Link carrying the packet.
            link: LinkId,
            /// Wire size in bytes.
            bytes: u32,
            /// Link-layer attempts (1 = no ARQ retries).
            attempts: u32,
        },
        /// The packet arrived intact and was dispatched to the receiver.
        PacketDeliver = "pkt_deliver" {
            /// Link that carried the packet.
            link: LinkId,
            /// Wire size in bytes.
            bytes: u32,
        },
        /// The packet was lost; `reason` says where.
        PacketDrop = "pkt_drop" {
            /// Link involved.
            link: LinkId,
            /// Wire size in bytes.
            bytes: u32,
            /// Which mechanism dropped it.
            reason: DropReason,
        },
        /// A link came up.
        LinkUp = "link_up" {
            /// The link.
            link: LinkId,
        },
        /// A link went down (in-flight packets will be discarded).
        LinkDown = "link_down" {
            /// The link.
            link: LinkId,
        },
        /// Fault injection degraded a link's channel quality.
        FaultOnset = "fault_onset" {
            /// The link.
            link: LinkId,
            /// Per-attempt loss probability now in effect.
            loss: f64,
            /// Corruption probability now in effect.
            corrupt: f64,
        },
        /// Channel quality returned to its configured baseline.
        FaultClear = "fault_clear" {
            /// The link.
            link: LinkId,
        },
        /// The node crashed: volatile state and cache are gone.
        NodeCrash = "node_crash",
        /// The node restarted after a crash.
        NodeRestart = "node_restart",
        /// The node's content cache was wiped in place.
        CacheWipe = "cache_wipe",
        /// Client asked a VNF to stage a chunk.
        StageRequest = "stage_request" {
            /// Content tag.
            chunk: Tag,
        },
        /// VNF acknowledged a staging request.
        StageAck = "stage_ack" {
            /// Content tag.
            chunk: Tag,
            /// Whether the VNF accepted the request.
            ok: bool,
        },
        /// VNF began pulling a chunk from the origin.
        StageStart = "stage_start" {
            /// Content tag.
            chunk: Tag,
        },
        /// A chunk is now resident in the edge cache. `bytes == 0` means the
        /// chunk was already cached when requested (no backhaul transfer).
        Staged = "staged" {
            /// Content tag.
            chunk: Tag,
            /// Bytes pulled over the backhaul (0 if already cached).
            bytes: u64,
        },
        /// VNF failed to pull a chunk from the origin.
        StageFailed = "stage_failed" {
            /// Content tag.
            chunk: Tag,
        },
        /// The cache evicted a chunk to make room (or a wipe removed it).
        ChunkEvicted = "chunk_evicted" {
            /// Content tag.
            chunk: Tag,
        },
        /// The node's bounded evicted-CID log overflowed between flushes:
        /// `dropped` evictions happened whose `ChunkEvicted` records were
        /// lost, so from this record on the trace's `chunk_evicted` lines
        /// undercount the node's evictions.
        EvictOverflow = "evict_overflow" {
            /// Evictions whose individual records were dropped.
            dropped: u64,
        },
        /// The content service answered a chunk request from its cache.
        ChunkServed = "chunk_served" {
            /// Content tag.
            chunk: Tag,
            /// Chunk payload size in bytes.
            bytes: u64,
        },
        /// Client began fetching a chunk.
        FetchStart = "fetch_start" {
            /// Content tag.
            chunk: Tag,
            /// Where the fetch is directed.
            source: FetchSource,
            /// Whether the chunk's staging answer was still outstanding
            /// (at a VNF other than the attached edge's): the fetch races
            /// that stage.
            pending: bool,
            /// How long the fetch waited for a staging answer before it
            /// started, µs (0 if it did not wait).
            waited_us: u64,
        },
        /// Client finished (or abandoned) fetching a chunk.
        FetchComplete = "fetch_complete" {
            /// Content tag.
            chunk: Tag,
            /// Bytes received (0 on failure).
            bytes: u64,
            /// Where the fetch was directed.
            source: FetchSource,
            /// Whether the chunk arrived intact.
            ok: bool,
        },
        /// Chunk-aware policy deferred a handoff until the chunk boundary.
        HandoffDefer = "handoff_defer" {
            /// Target network tag.
            target: Tag,
        },
        /// The client committed a handoff to a new network.
        HandoffCommit = "handoff_commit" {
            /// Target network tag.
            target: Tag,
        },
        /// The client's staging mode changed.
        ModeTransition = "mode" {
            /// The mode entered.
            mode: ClientMode,
        },
        /// The staging coordinator's target pipeline depth changed.
        StageDepth = "stage_depth" {
            /// New target depth in chunks.
            depth: u32,
        },
        /// A VNF refused a staging request (emitted by the VNF at the
        /// decision and by the client on receipt; the node tells them apart).
        StageReject = "stage_reject" {
            /// Content tag.
            chunk: Tag,
            /// Why the request was shed.
            reason: RejectReason,
            /// Advisory back-off before retrying, µs.
            retry_after_us: u64,
        },
        /// A staging request outlived its back-off without any answer; the
        /// client re-issues it and counts the silence against edge health.
        StageTimeout = "stage_timeout" {
            /// Content tag.
            chunk: Tag,
        },
        /// The client's circuit breaker for its active edge changed state.
        BreakerTransition = "breaker" {
            /// Network tag of the edge the breaker guards (0 if unknown).
            edge: Tag,
            /// The state entered.
            state: BreakerState,
        },
        /// Fault injection resized the node's content cache in place.
        CacheResize = "cache_resize" {
            /// New capacity in bytes.
            capacity: u64,
        },
        /// Fault injection changed the node's service delay (0 = restored).
        ServiceDegrade = "service_degrade" {
            /// Added per-reply service delay, µs.
            delay_us: u64,
        },
    }
}

/// One recorded event: sequence number, sim time, acting node, payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Record number: 0, 1, 2, … in recording order.
    pub seq: u64,
    /// Simulation time of the event.
    pub at: SimTime,
    /// The node the event is attributed to.
    pub node: NodeId,
    /// The typed payload.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Appends the record's JSON line, newline included, to `line`: the
    /// header `seq`, `t` (µs), `node` and `ev`, then the event's fields in
    /// declaration order.
    pub fn write_line(&self, line: &mut String) {
        line.push_str("{\"seq\":");
        self.seq.write(line);
        write_field(line, "t", self.at.as_micros());
        write_field(line, "node", self.node.index() as u64);
        write_field(line, "ev", self.event.name());
        self.event.write_fields(line);
        line.push_str("}\n");
    }
}

/// The flight recorder: numbers each record, checks it with the
/// streaming [`TraceAudit`], then hands it to its one consumer. Nothing
/// is kept, so a recorder costs no memory beyond the audit's state
/// however long the run, and the consumer sees every record of it, in
/// `seq` order.
pub(crate) struct TraceSink {
    next_seq: u64,
    audit: TraceAudit,
    consumer: Box<dyn FnMut(&TraceRecord)>,
}

impl TraceSink {
    /// Creates a recorder that hands every record to `consumer`.
    pub(crate) fn new(consumer: impl FnMut(&TraceRecord) + 'static) -> Self {
        TraceSink {
            next_seq: 0,
            audit: TraceAudit::default(),
            consumer: Box::new(consumer),
        }
    }

    /// Numbers a record, feeds it to the streaming audit and then to the
    /// consumer.
    #[inline]
    pub(crate) fn record(&mut self, at: SimTime, node: NodeId, event: TraceEvent) {
        let record = TraceRecord {
            seq: self.next_seq,
            at,
            node,
            event,
        };
        self.next_seq += 1;
        self.audit.observe(&record);
        (self.consumer)(&record);
    }

    /// The audit of every record written so far.
    pub(crate) fn audit(&self) -> &TraceAudit {
        &self.audit
    }
}

/// Which protocol invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// Sequence numbers must strictly increase.
    MonotoneSeq,
    /// Timestamps must never go backwards (globally, hence per node).
    MonotoneTime,
    /// A delivery (or in-flight drop) with no matching transmission.
    OrphanDelivery,
    /// A successful edge-cache fetch of a chunk that was never staged.
    UnstagedEdgeFetch,
    /// A handoff committed while a chunk transfer was in flight. Sound
    /// for the chunk-aware handoff policy only: the legacy policy commits
    /// at once and legitimately breaks it.
    HandoffMidChunk,
    /// Trace counts disagree with the simulator's [`SimStats`].
    StatsMismatch,
    /// A staging request sent while the node's breaker was open.
    StageWhileBreakerOpen,
    /// A breaker opened with no reject or timeout since its last
    /// transition.
    BreakerOpenNoSignal,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InvariantKind::MonotoneSeq => "monotone-seq",
            InvariantKind::MonotoneTime => "monotone-time",
            InvariantKind::OrphanDelivery => "orphan-delivery",
            InvariantKind::UnstagedEdgeFetch => "unstaged-edge-fetch",
            InvariantKind::HandoffMidChunk => "handoff-mid-chunk",
            InvariantKind::StatsMismatch => "stats-mismatch",
            InvariantKind::StageWhileBreakerOpen => "stage-while-breaker-open",
            InvariantKind::BreakerOpenNoSignal => "breaker-open-no-signal",
        };
        f.write_str(s)
    }
}

/// One invariant violation found by the oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The invariant broken.
    pub kind: InvariantKind,
    /// Sequence number of the offending record (or the last record seen
    /// for whole-trace accounting violations).
    pub seq: u64,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] seq {}: {}", self.kind, self.seq, self.detail)
    }
}

/// One link's counters as rebuilt from its packet records.
#[derive(Debug, Clone, Copy, Default)]
struct LinkTally {
    /// What the simulator's own [`LinkStats`] must read if the recorder
    /// and the accountant agree (`attempts` is not traced).
    stats: LinkStats,
    /// Deliveries plus in-flight drops: packets that left the wire.
    arrivals: u64,
}

/// The invariant oracle as a streaming fold: [`TraceAudit::observe`]
/// checks each record as it arrives against O(nodes + links + staged
/// chunks) of state, and [`TraceAudit::violations`] reads the verdict
/// out. The simulator's recorder feeds one, so a simulator's audit never
/// depends on what its consumer keeps; a recorded slice is audited by
/// collecting it into one. The slice must be a whole trace:
/// one that starts mid-run can make a delivery look orphaned because its
/// transmission precedes the slice.
#[derive(Debug, Clone, Default)]
pub struct TraceAudit {
    prev_seq: Option<u64>,
    prev_time: SimTime,
    links: BTreeMap<usize, LinkTally>,
    staged: BTreeSet<u64>,
    in_flight: BTreeMap<usize, Tag>,
    breaker: BTreeMap<usize, BreakerState>,
    health_signals: BTreeMap<usize, u64>,
    /// Every violation so far, in record order. Only a broken run formats
    /// one, so a clean run's recording path never allocates here.
    found: Vec<Violation>,
}

impl TraceAudit {
    /// Checks one record against everything observed before it.
    pub fn observe(&mut self, r: &TraceRecord) {
        let node = r.node.index();
        let seq = r.seq;
        let mut found = |kind, detail| self.found.push(Violation { kind, seq, detail });
        if let Some(prev) = self.prev_seq.filter(|&prev| r.seq <= prev) {
            found(
                InvariantKind::MonotoneSeq,
                format!("sequence {seq} follows {prev}"),
            );
        }
        self.prev_seq = Some(r.seq);
        // One global clock: a per-node reversal is a global one too.
        if r.at < self.prev_time {
            let (at, prev) = (r.at.as_micros(), self.prev_time.as_micros());
            let detail = format!("time went backwards: {at} µs after {prev} µs");
            found(InvariantKind::MonotoneTime, detail);
        }
        self.prev_time = self.prev_time.max(r.at);
        match r.event {
            TraceEvent::PacketEnqueue { link, .. }
            | TraceEvent::PacketTx { link, .. }
            | TraceEvent::PacketDeliver { link, .. }
            | TraceEvent::PacketDrop { link, .. } => {
                let t = self.links.entry(link.index()).or_default();
                t.stats.count(&r.event);
                let arrived = matches!(
                    r.event,
                    TraceEvent::PacketDeliver { .. }
                        | TraceEvent::PacketDrop {
                            reason: DropReason::InFlight,
                            ..
                        }
                );
                if arrived {
                    t.arrivals += 1;
                    let (arrivals, tx) = (t.arrivals, t.stats.delivered);
                    if arrivals > tx {
                        let link = link.index();
                        let detail =
                            format!("link {link}: arrival #{arrivals} exceeds {tx} transmissions");
                        found(InvariantKind::OrphanDelivery, detail);
                    }
                }
            }
            TraceEvent::Staged { chunk, .. } => {
                self.staged.insert(chunk.0);
            }
            TraceEvent::FetchStart { chunk, .. } => {
                self.in_flight.insert(node, chunk);
            }
            TraceEvent::FetchComplete {
                chunk, source, ok, ..
            } => {
                self.in_flight.remove(&node);
                if ok && source == FetchSource::EdgeCache && !self.staged.contains(&chunk.0) {
                    let detail =
                        format!("chunk {chunk} completed from the edge cache but was never staged");
                    found(InvariantKind::UnstagedEdgeFetch, detail);
                }
            }
            TraceEvent::HandoffCommit { target } => {
                if let Some(&chunk) = self.in_flight.get(&node) {
                    let detail =
                        format!("handoff to {target} committed while chunk {chunk} in flight");
                    found(InvariantKind::HandoffMidChunk, detail);
                }
            }
            TraceEvent::StageRequest { chunk }
                if self.breaker.get(&node) == Some(&BreakerState::Open) =>
            {
                let detail =
                    format!("node {node} requested staging of chunk {chunk} with its breaker open");
                found(InvariantKind::StageWhileBreakerOpen, detail);
            }
            TraceEvent::StageReject { .. } | TraceEvent::StageTimeout { .. } => {
                *self.health_signals.entry(node).or_insert(0) += 1;
            }
            TraceEvent::BreakerTransition { state, .. } => {
                if state == BreakerState::Open
                    && self.health_signals.get(&node).copied().unwrap_or(0) == 0
                {
                    let detail = format!(
                        "node {node} opened its breaker without a reject or timeout before it"
                    );
                    found(InvariantKind::BreakerOpenNoSignal, detail);
                }
                self.breaker.insert(node, state);
                self.health_signals.insert(node, 0);
            }
            _ => {}
        }
    }

    /// The violations found so far, in record order. With `stats`, the
    /// per-link event counts and byte totals seen so far are also checked
    /// against the simulator's counters (meaningful once the run has
    /// finished; packets still in flight at the deadline are tolerated).
    pub fn violations(&self, stats: Option<&SimStats>) -> Vec<Violation> {
        let mut v = self.found.clone();
        let Some(stats) = stats else {
            return v;
        };
        let last_seq = self.prev_seq.unwrap_or(0);
        let mut mismatch = |detail: String| {
            v.push(Violation {
                kind: InvariantKind::StatsMismatch,
                seq: last_seq,
                detail,
            });
        };
        for (idx, ls) in stats.links.iter().enumerate() {
            let t = self.links.get(&idx).copied().unwrap_or_default().stats;
            let pairs: [(&str, u64, u64); 8] = [
                ("offered", t.offered, ls.offered),
                ("delivered(tx)", t.delivered, ls.delivered),
                ("bytes_delivered", t.bytes_delivered, ls.bytes_delivered),
                ("lost", t.lost, ls.lost),
                ("dropped_queue", t.dropped_queue, ls.dropped_queue),
                ("dropped_down", t.dropped_down, ls.dropped_down),
                (
                    "dropped_in_flight",
                    t.dropped_in_flight,
                    ls.dropped_in_flight,
                ),
                ("corrupted", t.corrupted, ls.corrupted),
            ];
            for (name, traced, counted) in pairs {
                if traced != counted {
                    mismatch(format!(
                        "link {idx}: trace {name} = {traced}, LinkStats says {counted}"
                    ));
                }
            }
        }
        for idx in self.links.keys() {
            if *idx >= stats.links.len() {
                mismatch(format!("trace mentions link {idx} unknown to SimStats"));
            }
        }
        v
    }
}

impl<'a> FromIterator<&'a TraceRecord> for TraceAudit {
    fn from_iter<I: IntoIterator<Item = &'a TraceRecord>>(records: I) -> Self {
        let mut audit = TraceAudit::default();
        for r in records {
            audit.observe(r);
        }
        audit
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;

    fn rec(seq: u64, t: u64, node: usize, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            seq,
            at: SimTime::from_micros(t),
            node: NodeId(node),
            event,
        }
    }

    fn audit(records: &[TraceRecord]) -> Vec<Violation> {
        records.iter().collect::<TraceAudit>().violations(None)
    }

    #[test]
    fn tag_folds_and_masks() {
        let t = Tag::of(&[0xff; 20]);
        assert_eq!(t.0, u64::MAX >> 1);
        assert_eq!(Tag::of(&[0, 0, 0, 0, 0, 0, 0, 7]).0, 7);
        assert_eq!(Tag::of(&[1]).0, 1);
    }

    #[test]
    fn sink_numbers_records_for_its_consumer_in_order() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let out = Rc::clone(&seen);
        let mut s = TraceSink::new(move |r| out.borrow_mut().push(r.seq));
        for i in 0..5 {
            s.record(SimTime::from_micros(i), NodeId(0), TraceEvent::NodeCrash);
        }
        assert_eq!(*seen.borrow(), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_consumer_that_keeps_nothing_hides_no_violations() {
        let (bytes, attempts) = (64, 1);
        let mut s = TraceSink::new(|_| {});
        for i in 0..300 {
            let link = LinkId(0);
            let tx = TraceEvent::PacketTx {
                link,
                bytes,
                attempts,
            };
            s.record(SimTime::from_micros(2 * i), NodeId(0), tx);
            // One arrival nobody sent, long forgotten by the end.
            let link = LinkId(usize::from(i == 150));
            let deliver = TraceEvent::PacketDeliver { link, bytes };
            s.record(SimTime::from_micros(2 * i + 1), NodeId(1), deliver);
        }
        let v = s.audit().violations(None);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert_eq!((v[0].kind, v[0].seq), (InvariantKind::OrphanDelivery, 301));
    }

    #[test]
    fn oracle_rejects_stage_request_while_breaker_open() {
        let records = vec![
            rec(0, 0, 2, TraceEvent::StageTimeout { chunk: Tag(1) }),
            rec(
                1,
                1,
                2,
                TraceEvent::BreakerTransition {
                    edge: Tag(9),
                    state: BreakerState::Open,
                },
            ),
            rec(2, 2, 2, TraceEvent::StageRequest { chunk: Tag(1) }),
        ];
        let v = audit(&records);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, InvariantKind::StageWhileBreakerOpen);
        // A half-open probe is legal: the transition precedes the request.
        let records = vec![
            rec(0, 0, 2, TraceEvent::StageTimeout { chunk: Tag(1) }),
            rec(
                1,
                1,
                2,
                TraceEvent::BreakerTransition {
                    edge: Tag(9),
                    state: BreakerState::Open,
                },
            ),
            rec(
                2,
                2,
                2,
                TraceEvent::BreakerTransition {
                    edge: Tag(9),
                    state: BreakerState::HalfOpen,
                },
            ),
            rec(3, 3, 2, TraceEvent::StageRequest { chunk: Tag(1) }),
        ];
        assert!(audit(&records).is_empty());
    }

    #[test]
    fn oracle_rejects_breaker_open_without_signal() {
        let records = vec![rec(
            0,
            0,
            2,
            TraceEvent::BreakerTransition {
                edge: Tag(9),
                state: BreakerState::Open,
            },
        )];
        let v = audit(&records);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, InvariantKind::BreakerOpenNoSignal);
        // A reject earlier in the run justifies the open; the signal is
        // spent by the transition, so re-opening after a half-open probe
        // needs a fresh reject or timeout.
        let records = vec![
            rec(
                0,
                0,
                2,
                TraceEvent::StageReject {
                    chunk: Tag(1),
                    reason: RejectReason::QueueDepth,
                    retry_after_us: 0,
                },
            ),
            rec(
                1,
                1,
                2,
                TraceEvent::BreakerTransition {
                    edge: Tag(9),
                    state: BreakerState::Open,
                },
            ),
            rec(
                2,
                2,
                2,
                TraceEvent::BreakerTransition {
                    edge: Tag(9),
                    state: BreakerState::HalfOpen,
                },
            ),
            rec(
                3,
                3,
                2,
                TraceEvent::BreakerTransition {
                    edge: Tag(9),
                    state: BreakerState::Open,
                },
            ),
        ];
        let v = audit(&records);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert_eq!(v[0].kind, InvariantKind::BreakerOpenNoSignal);
        assert_eq!(v[0].seq, 3, "only the unsignalled re-open is flagged");
    }

    #[test]
    fn oracle_accepts_consistent_trace() {
        let l = LinkId(0);
        let records = vec![
            rec(
                0,
                0,
                0,
                TraceEvent::PacketEnqueue {
                    link: l,
                    bytes: 100,
                },
            ),
            rec(
                1,
                0,
                0,
                TraceEvent::PacketTx {
                    link: l,
                    bytes: 100,
                    attempts: 1,
                },
            ),
            rec(
                2,
                10,
                1,
                TraceEvent::PacketDeliver {
                    link: l,
                    bytes: 100,
                },
            ),
            rec(
                3,
                12,
                1,
                TraceEvent::Staged {
                    chunk: Tag(7),
                    bytes: 50,
                },
            ),
            rec(
                4,
                15,
                2,
                TraceEvent::FetchStart {
                    chunk: Tag(7),
                    source: FetchSource::EdgeCache,
                    pending: false,
                    waited_us: 0,
                },
            ),
            rec(
                5,
                20,
                2,
                TraceEvent::FetchComplete {
                    chunk: Tag(7),
                    bytes: 50,
                    source: FetchSource::EdgeCache,
                    ok: true,
                },
            ),
        ];
        assert!(audit(&records).is_empty());
    }

    #[test]
    fn oracle_rejects_orphan_delivery() {
        let records = vec![rec(
            0,
            0,
            1,
            TraceEvent::PacketDeliver {
                link: LinkId(3),
                bytes: 64,
            },
        )];
        let v = audit(&records);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, InvariantKind::OrphanDelivery);
    }

    #[test]
    fn oracle_rejects_time_reversal_and_bad_seq() {
        let records = vec![
            rec(5, 100, 0, TraceEvent::NodeCrash),
            rec(5, 90, 0, TraceEvent::NodeRestart),
        ];
        let v = audit(&records);
        assert!(v.iter().any(|x| x.kind == InvariantKind::MonotoneSeq));
        assert!(v.iter().any(|x| x.kind == InvariantKind::MonotoneTime));
    }

    #[test]
    fn oracle_rejects_unstaged_edge_fetch() {
        let records = vec![rec(
            0,
            0,
            2,
            TraceEvent::FetchComplete {
                chunk: Tag(9),
                bytes: 10,
                source: FetchSource::EdgeCache,
                ok: true,
            },
        )];
        let v = audit(&records);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, InvariantKind::UnstagedEdgeFetch);
        // The same completion from the origin is fine.
        let records = vec![rec(
            0,
            0,
            2,
            TraceEvent::FetchComplete {
                chunk: Tag(9),
                bytes: 10,
                source: FetchSource::Origin,
                ok: true,
            },
        )];
        assert!(audit(&records).is_empty());
    }

    #[test]
    fn oracle_rejects_handoff_mid_chunk_when_enabled() {
        let records = vec![
            rec(
                0,
                0,
                2,
                TraceEvent::FetchStart {
                    chunk: Tag(1),
                    source: FetchSource::Origin,
                    pending: false,
                    waited_us: 0,
                },
            ),
            rec(1, 5, 2, TraceEvent::HandoffCommit { target: Tag(8) }),
        ];
        let v = audit(&records);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, InvariantKind::HandoffMidChunk);
    }

    #[test]
    fn stats_audit_flags_mismatch() {
        let l = LinkId(0);
        let records = vec![
            rec(0, 0, 0, TraceEvent::PacketEnqueue { link: l, bytes: 10 }),
            rec(
                1,
                0,
                0,
                TraceEvent::PacketTx {
                    link: l,
                    bytes: 10,
                    attempts: 1,
                },
            ),
            rec(2, 3, 1, TraceEvent::PacketDeliver { link: l, bytes: 10 }),
        ];
        let mut stats = SimStats::default();
        stats.links.push(crate::stats::LinkStats {
            offered: 1,
            delivered: 1,
            bytes_delivered: 10,
            ..Default::default()
        });
        let audit: TraceAudit = records.iter().collect();
        assert!(audit.violations(Some(&stats)).is_empty());
        stats.links[0].bytes_delivered = 11;
        let v = audit.violations(Some(&stats));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, InvariantKind::StatsMismatch);
    }
}
