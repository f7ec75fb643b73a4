//! The flight recorder's export and oracle: one record of every event
//! kind exports exactly its pinned JSON line, a random record of any kind
//! writes the line its reference `Json` tree renders to (integers beyond
//! `i64::MAX` and non-finite floats included), and that line reads back
//! to itself; and the invariant
//! oracle has real detection power — forged traces (orphan deliveries, time and
//! sequence reversals, fetches from caches that never staged) are
//! rejected no matter where the forgery lands.

use std::collections::BTreeSet;

use simnet::{
    BreakerState, ClientMode, DropReason, FetchSource, InvariantKind, LinkId, NodeId, RejectReason,
    SimTime, Tag, TraceAudit, TraceEvent, TraceRecord, Violation,
};
use util::check::{check, Gen};
use util::json::{Json, ToJson};

/// Number of `TraceEvent` kinds.
const KINDS: usize = 30;

/// One event of every kind, in table order. A new kind does not compile
/// until `pinned` has its line; it then needs a sample here, and `KINDS`
/// one more, for `every_event_kind_exports_its_pinned_line` to pass.
fn one_of_each() -> [TraceEvent; KINDS] {
    let link = LinkId::from_index(3);
    let chunk = Tag::of(&[0xff; 20]);
    let target = Tag(42);
    [
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
            reason: DropReason::InFlight,
        },
        TraceEvent::LinkUp { link },
        TraceEvent::LinkDown { link },
        TraceEvent::FaultOnset {
            link,
            loss: 0.25,
            corrupt: 0.001,
        },
        TraceEvent::FaultClear { link },
        TraceEvent::NodeCrash,
        TraceEvent::NodeRestart,
        TraceEvent::CacheWipe,
        TraceEvent::StageRequest { chunk },
        TraceEvent::StageAck { chunk, ok: true },
        TraceEvent::StageStart { chunk },
        TraceEvent::Staged {
            chunk,
            bytes: 1 << 20,
        },
        TraceEvent::StageFailed { chunk },
        TraceEvent::ChunkEvicted { chunk },
        TraceEvent::EvictOverflow { dropped: 7 },
        TraceEvent::ChunkServed {
            chunk,
            bytes: 1 << 20,
        },
        TraceEvent::FetchStart {
            chunk,
            source: FetchSource::EdgeCache,
            pending: true,
            waited_us: 250_000,
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
            retry_after_us: 250_000,
        },
        TraceEvent::StageTimeout { chunk },
        TraceEvent::BreakerTransition {
            edge: target,
            state: BreakerState::HalfOpen,
        },
        TraceEvent::CacheResize { capacity: 64 << 20 },
        TraceEvent::ServiceDegrade { delay_us: 20_000 },
    ]
}

/// The start of every pinned line: the record header the test stamps.
const HEADER: &str = r#"{"seq":1099511627776,"t":3600000001,"node":12,"#;

/// The rest of the line each kind's sample exports. No wildcard, so a new
/// kind needs a line here before anything compiles.
fn pinned(e: &TraceEvent) -> &'static str {
    match e {
        TraceEvent::PacketEnqueue { .. } => r#""ev":"pkt_enqueue","link":3,"bytes":1500}"#,
        TraceEvent::PacketTx { .. } => r#""ev":"pkt_tx","link":3,"bytes":1500,"attempts":2}"#,
        TraceEvent::PacketDeliver { .. } => r#""ev":"pkt_deliver","link":3,"bytes":1500}"#,
        TraceEvent::PacketDrop { .. } => {
            r#""ev":"pkt_drop","link":3,"bytes":1500,"reason":"in_flight"}"#
        }
        TraceEvent::LinkUp { .. } => r#""ev":"link_up","link":3}"#,
        TraceEvent::LinkDown { .. } => r#""ev":"link_down","link":3}"#,
        TraceEvent::FaultOnset { .. } => {
            r#""ev":"fault_onset","link":3,"loss":0.25,"corrupt":0.001}"#
        }
        TraceEvent::FaultClear { .. } => r#""ev":"fault_clear","link":3}"#,
        TraceEvent::NodeCrash => r#""ev":"node_crash"}"#,
        TraceEvent::NodeRestart => r#""ev":"node_restart"}"#,
        TraceEvent::CacheWipe => r#""ev":"cache_wipe"}"#,
        TraceEvent::StageRequest { .. } => r#""ev":"stage_request","chunk":9223372036854775807}"#,
        TraceEvent::StageAck { .. } => r#""ev":"stage_ack","chunk":9223372036854775807,"ok":true}"#,
        TraceEvent::StageStart { .. } => r#""ev":"stage_start","chunk":9223372036854775807}"#,
        TraceEvent::Staged { .. } => {
            r#""ev":"staged","chunk":9223372036854775807,"bytes":1048576}"#
        }
        TraceEvent::StageFailed { .. } => r#""ev":"stage_failed","chunk":9223372036854775807}"#,
        TraceEvent::ChunkEvicted { .. } => r#""ev":"chunk_evicted","chunk":9223372036854775807}"#,
        TraceEvent::EvictOverflow { .. } => r#""ev":"evict_overflow","dropped":7}"#,
        TraceEvent::ChunkServed { .. } => {
            r#""ev":"chunk_served","chunk":9223372036854775807,"bytes":1048576}"#
        }
        TraceEvent::FetchStart { .. } => {
            r#""ev":"fetch_start","chunk":9223372036854775807,"source":"edge","pending":true,"waited_us":250000}"#
        }
        TraceEvent::FetchComplete { .. } => {
            r#""ev":"fetch_complete","chunk":9223372036854775807,"bytes":0,"source":"origin","ok":false}"#
        }
        TraceEvent::HandoffDefer { .. } => r#""ev":"handoff_defer","target":42}"#,
        TraceEvent::HandoffCommit { .. } => r#""ev":"handoff_commit","target":42}"#,
        TraceEvent::ModeTransition { .. } => r#""ev":"mode","mode":"origin_fallback"}"#,
        TraceEvent::StageDepth { .. } => r#""ev":"stage_depth","depth":4}"#,
        TraceEvent::StageReject { .. } => {
            r#""ev":"stage_reject","chunk":9223372036854775807,"reason":"queue_depth","retry_after_us":250000}"#
        }
        TraceEvent::StageTimeout { .. } => r#""ev":"stage_timeout","chunk":9223372036854775807}"#,
        TraceEvent::BreakerTransition { .. } => r#""ev":"breaker","edge":42,"state":"half_open"}"#,
        TraceEvent::CacheResize { .. } => r#""ev":"cache_resize","capacity":67108864}"#,
        TraceEvent::ServiceDegrade { .. } => r#""ev":"service_degrade","delay_us":20000}"#,
    }
}

#[test]
fn every_event_kind_exports_its_pinned_line() {
    let events = one_of_each();
    let kinds: BTreeSet<&str> = events.iter().map(TraceEvent::name).collect();
    assert_eq!(kinds.len(), KINDS, "one sample of each kind");
    for event in events {
        let record = TraceRecord {
            seq: 1 << 40,
            at: SimTime::from_micros(3_600_000_001),
            node: NodeId::from_index(12),
            event,
        };
        let mut line = String::new();
        record.write_line(&mut line);
        assert_eq!(line, format!("{HEADER}{}\n", pinned(&event)), "{event:?}");
    }
}

/// A float the export must write exactly as `Json::Float` renders it:
/// a fraction, an integral value (`1.0`, not `1`), an exponent form, or
/// a non-finite value (`null`).
fn arb_f64(g: &mut Gen) -> f64 {
    let unit = (g.u64() >> 11) as f64 / (1u64 << 53) as f64;
    let special = [0.0, 1.0, 1e-7, 1e300, f64::NAN, f64::INFINITY];
    if g.bool() {
        unit
    } else {
        *g.choose(&special)
    }
}

/// A random kind's sample from `one_of_each`, with its payload redrawn.
/// Half the 64-bit draws lie above `i64::MAX`.
fn arb_event(g: &mut Gen) -> TraceEvent {
    let link = LinkId::from_index(g.usize_in(0, 7));
    let tag = Tag(g.u64());
    let n32 = g.u64_in(0, u64::from(u32::MAX)) as u32;
    let n64 = g.u64();
    let mut event = one_of_each()[g.usize_in(0, KINDS - 1)];
    match &mut event {
        TraceEvent::PacketEnqueue { link: l, bytes }
        | TraceEvent::PacketTx { link: l, bytes, .. }
        | TraceEvent::PacketDeliver { link: l, bytes } => (*l, *bytes) = (link, n32),
        TraceEvent::PacketDrop {
            link: l,
            bytes,
            reason,
        } => {
            (*l, *bytes) = (link, n32);
            *reason = *g.choose(&[
                DropReason::Loss,
                DropReason::Queue,
                DropReason::Down,
                DropReason::InFlight,
                DropReason::Corrupt,
            ]);
        }
        TraceEvent::LinkUp { link: l }
        | TraceEvent::LinkDown { link: l }
        | TraceEvent::FaultClear { link: l } => *l = link,
        TraceEvent::FaultOnset {
            link: l,
            loss,
            corrupt,
        } => {
            *l = link;
            (*loss, *corrupt) = (arb_f64(g), arb_f64(g));
        }
        TraceEvent::NodeCrash | TraceEvent::NodeRestart | TraceEvent::CacheWipe => {}
        TraceEvent::StageRequest { chunk }
        | TraceEvent::StageStart { chunk }
        | TraceEvent::StageFailed { chunk }
        | TraceEvent::ChunkEvicted { chunk }
        | TraceEvent::StageTimeout { chunk }
        | TraceEvent::HandoffDefer { target: chunk }
        | TraceEvent::HandoffCommit { target: chunk } => *chunk = tag,
        TraceEvent::StageAck { chunk, ok } => (*chunk, *ok) = (tag, g.bool()),
        TraceEvent::Staged { chunk, bytes } | TraceEvent::ChunkServed { chunk, bytes } => {
            (*chunk, *bytes) = (tag, n64)
        }
        TraceEvent::FetchStart {
            chunk,
            source,
            pending,
            waited_us,
        } => {
            (*chunk, *pending, *waited_us) = (tag, g.bool(), n64);
            *source = *g.choose(&[FetchSource::EdgeCache, FetchSource::Origin]);
        }
        TraceEvent::FetchComplete {
            chunk,
            bytes,
            source,
            ok,
        } => {
            (*chunk, *bytes, *ok) = (tag, n64, g.bool());
            *source = *g.choose(&[FetchSource::EdgeCache, FetchSource::Origin]);
        }
        TraceEvent::ModeTransition { mode } => {
            *mode = *g.choose(&[
                ClientMode::Active,
                ClientMode::OriginFallback,
                ClientMode::Degraded,
            ]);
        }
        TraceEvent::StageDepth { depth } => *depth = n32,
        TraceEvent::StageReject {
            chunk,
            reason,
            retry_after_us,
        } => {
            (*chunk, *retry_after_us) = (tag, n64);
            *reason = *g.choose(&[RejectReason::QueueDepth, RejectReason::Deadline]);
        }
        TraceEvent::BreakerTransition { edge, state } => {
            *edge = tag;
            *state = *g.choose(&[
                BreakerState::Closed,
                BreakerState::Open,
                BreakerState::HalfOpen,
            ]);
        }
        TraceEvent::EvictOverflow { dropped: n }
        | TraceEvent::CacheResize { capacity: n }
        | TraceEvent::ServiceDegrade { delay_us: n } => *n = n64,
    }
    event
}

#[test]
fn generator_covers_every_kind() {
    check("trace_generator_coverage", 4, |g| {
        let mut seen = BTreeSet::new();
        for _ in 0..1024 {
            seen.insert(arb_event(g).name());
        }
        assert_eq!(seen.len(), KINDS, "arb_event never drew some kind");
    });
}

/// The index a test id was made from: `index()` is crate-private, and
/// the tests draw ids below 16.
fn index_of<T: PartialEq>(id: T, from_index: fn(usize) -> T) -> usize {
    (0..16)
        .find(|&i| from_index(i) == id)
        .expect("a test id is below 16")
}

/// The record as a `Json` tree, key by key, rendered by `util::json`:
/// the reference every written line must match byte for byte.
fn reference(r: &TraceRecord) -> String {
    let link = |l: LinkId| index_of(l, LinkId::from_index).to_json();
    let tag = |t: Tag| t.0.to_json();
    let name = |s: &str| Json::Str(s.to_string());
    let fields = match r.event {
        TraceEvent::PacketEnqueue { link: l, bytes }
        | TraceEvent::PacketDeliver { link: l, bytes } => {
            vec![("link", link(l)), ("bytes", bytes.to_json())]
        }
        TraceEvent::PacketTx {
            link: l,
            bytes,
            attempts,
        } => vec![
            ("link", link(l)),
            ("bytes", bytes.to_json()),
            ("attempts", attempts.to_json()),
        ],
        TraceEvent::PacketDrop {
            link: l,
            bytes,
            reason,
        } => vec![
            ("link", link(l)),
            ("bytes", bytes.to_json()),
            ("reason", name(reason.name())),
        ],
        TraceEvent::LinkUp { link: l }
        | TraceEvent::LinkDown { link: l }
        | TraceEvent::FaultClear { link: l } => vec![("link", link(l))],
        TraceEvent::FaultOnset {
            link: l,
            loss,
            corrupt,
        } => vec![
            ("link", link(l)),
            ("loss", loss.to_json()),
            ("corrupt", corrupt.to_json()),
        ],
        TraceEvent::NodeCrash | TraceEvent::NodeRestart | TraceEvent::CacheWipe => vec![],
        TraceEvent::StageRequest { chunk }
        | TraceEvent::StageStart { chunk }
        | TraceEvent::StageFailed { chunk }
        | TraceEvent::ChunkEvicted { chunk }
        | TraceEvent::StageTimeout { chunk } => vec![("chunk", tag(chunk))],
        TraceEvent::StageAck { chunk, ok } => vec![("chunk", tag(chunk)), ("ok", ok.to_json())],
        TraceEvent::Staged { chunk, bytes } | TraceEvent::ChunkServed { chunk, bytes } => {
            vec![("chunk", tag(chunk)), ("bytes", bytes.to_json())]
        }
        TraceEvent::EvictOverflow { dropped } => vec![("dropped", dropped.to_json())],
        TraceEvent::FetchStart {
            chunk,
            source,
            pending,
            waited_us,
        } => vec![
            ("chunk", tag(chunk)),
            ("source", name(source.name())),
            ("pending", pending.to_json()),
            ("waited_us", waited_us.to_json()),
        ],
        TraceEvent::FetchComplete {
            chunk,
            bytes,
            source,
            ok,
        } => vec![
            ("chunk", tag(chunk)),
            ("bytes", bytes.to_json()),
            ("source", name(source.name())),
            ("ok", ok.to_json()),
        ],
        TraceEvent::HandoffDefer { target } | TraceEvent::HandoffCommit { target } => {
            vec![("target", tag(target))]
        }
        TraceEvent::ModeTransition { mode } => vec![("mode", name(mode.name()))],
        TraceEvent::StageDepth { depth } => vec![("depth", depth.to_json())],
        TraceEvent::StageReject {
            chunk,
            reason,
            retry_after_us,
        } => vec![
            ("chunk", tag(chunk)),
            ("reason", name(reason.name())),
            ("retry_after_us", retry_after_us.to_json()),
        ],
        TraceEvent::BreakerTransition { edge, state } => {
            vec![("edge", tag(edge)), ("state", name(state.name()))]
        }
        TraceEvent::CacheResize { capacity } => vec![("capacity", capacity.to_json())],
        TraceEvent::ServiceDegrade { delay_us } => vec![("delay_us", delay_us.to_json())],
    };
    let header = [
        ("seq", r.seq.to_json()),
        ("t", r.at.as_micros().to_json()),
        ("node", index_of(r.node, NodeId::from_index).to_json()),
        ("ev", name(r.event.name())),
    ];
    let pairs = header.into_iter().chain(fields);
    Json::Obj(pairs.map(|(k, v)| (k.to_string(), v)).collect()).to_string_compact()
}

/// Every written line is its record's reference rendering plus a
/// newline, and a JSON document that re-renders to the same bytes,
/// whatever the payload.
#[test]
fn serialization_round_trips_every_event_shape() {
    check("trace_jsonl_round_trip", 128, |g| {
        let mut line = String::new();
        for _ in 0..g.usize_in(1, 40) {
            let record = TraceRecord {
                seq: g.u64(),
                at: SimTime::from_micros(g.u64()),
                node: NodeId::from_index(g.usize_in(0, 9)),
                event: arb_event(g),
            };
            line.clear();
            record.write_line(&mut line);
            assert_eq!(line, format!("{}\n", reference(&record)));
            let parsed = Json::parse(&line).expect("exported line is JSON");
            assert_eq!(format!("{}\n", parsed.to_string_compact()), line);
        }
    });
}

/// A synthetic but internally consistent trace: balanced
/// enqueue→tx→deliver packet triples on one link, then a staged chunk
/// fetched from the edge.
fn consistent_trace(g: &mut Gen) -> Vec<TraceRecord> {
    let sender = NodeId::from_index(0);
    let receiver = NodeId::from_index(1);
    let link = LinkId::from_index(0);
    let mut records = Vec::new();
    let mut seq = 0u64;
    let mut t = 0u64;
    let mut push = |records: &mut Vec<TraceRecord>, t: u64, node, event| {
        records.push(TraceRecord {
            seq,
            at: SimTime::from_micros(t),
            node,
            event,
        });
        seq += 1;
    };
    for _ in 0..g.usize_in(1, 20) {
        let bytes = g.u64_in(1, 100_000) as u32;
        t += g.u64_in(0, 500);
        push(
            &mut records,
            t,
            sender,
            TraceEvent::PacketEnqueue { link, bytes },
        );
        push(
            &mut records,
            t,
            sender,
            TraceEvent::PacketTx {
                link,
                bytes,
                attempts: g.u64_in(1, 4) as u32,
            },
        );
        t += g.u64_in(1, 1_000);
        push(
            &mut records,
            t,
            receiver,
            TraceEvent::PacketDeliver { link, bytes },
        );
    }
    let chunk = Tag(g.u64_in(0, i64::MAX as u64));
    let bytes = g.u64_in(0, 1 << 30);
    t += 1;
    push(
        &mut records,
        t,
        receiver,
        TraceEvent::Staged { chunk, bytes },
    );
    t += 1;
    push(
        &mut records,
        t,
        sender,
        TraceEvent::FetchComplete {
            chunk,
            bytes,
            source: FetchSource::EdgeCache,
            ok: true,
        },
    );
    records
}

/// The structural verdict on a recorded slice.
fn audit(records: &[TraceRecord]) -> Vec<Violation> {
    records.iter().collect::<TraceAudit>().violations(None)
}

fn kinds(violations: &[Violation]) -> Vec<InvariantKind> {
    violations.iter().map(|v| v.kind).collect()
}

#[test]
fn oracle_accepts_consistent_traces() {
    check("oracle_accepts_consistent", 64, |g| {
        let records = consistent_trace(g);
        let violations = audit(&records);
        assert!(violations.is_empty(), "false positive: {violations:#?}");
    });
}

#[test]
fn oracle_rejects_forged_orphan_delivery() {
    check("oracle_rejects_orphan", 64, |g| {
        let mut records = consistent_trace(g);
        // One more arrival than the link ever transmitted.
        let donor = *records
            .iter()
            .find(|r| matches!(r.event, TraceEvent::PacketDeliver { .. }))
            .expect("generator always delivers");
        let last = *records.last().expect("non-empty");
        records.push(TraceRecord {
            seq: last.seq + 1,
            at: last.at,
            node: donor.node,
            event: donor.event,
        });
        let found = kinds(&audit(&records));
        assert!(
            found.contains(&InvariantKind::OrphanDelivery),
            "missed orphan delivery: {found:?}"
        );
    });
}

#[test]
fn oracle_rejects_time_and_sequence_reversals() {
    check("oracle_rejects_reversals", 64, |g| {
        let records = consistent_trace(g);

        // Timestamp forgery: the final record pretends to predate the run.
        let mut reversed = records.clone();
        let last = reversed.len() - 1;
        reversed[last].at = SimTime::ZERO;
        let found = kinds(&audit(&reversed));
        assert!(
            found.contains(&InvariantKind::MonotoneTime),
            "missed time reversal: {found:?}"
        );

        // Sequence forgery: a duplicated sequence number anywhere.
        let mut reseq = records;
        let mid = g.usize_in(1, reseq.len() - 1);
        reseq[mid].seq = reseq[mid - 1].seq;
        let found = kinds(&audit(&reseq));
        assert!(
            found.contains(&InvariantKind::MonotoneSeq),
            "missed duplicate seq at {mid}: {found:?}"
        );
    });
}

#[test]
fn oracle_rejects_edge_fetch_that_was_never_staged() {
    check("oracle_rejects_unstaged_fetch", 64, |g| {
        let mut records = consistent_trace(g);
        // Retag the staging event so the edge fetch becomes unexplained.
        for r in &mut records {
            if let TraceEvent::Staged { chunk, .. } = &mut r.event {
                *chunk = Tag(chunk.0 ^ 1);
            }
        }
        let found = kinds(&audit(&records));
        assert!(
            found.contains(&InvariantKind::UnstagedEdgeFetch),
            "missed unstaged edge fetch: {found:?}"
        );
    });
}
