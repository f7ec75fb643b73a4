//! Property tests for the flight recorder: JSON-lines serialization
//! round-trips every event shape exactly, and the invariant oracle has
//! real detection power — forged traces (orphan deliveries, time and
//! sequence reversals, fetches from caches that never staged) are
//! rejected no matter where the forgery lands.

use simnet::trace::parse_jsonl;
use simnet::{
    BreakerState, ClientMode, DropReason, FetchSource, InvariantKind, LinkId, NodeId, RejectReason,
    SimTime, Tag, TraceEvent, TraceOracle, TraceRecord,
};
use util::check::{check, Gen};
use util::json::ToJson;

/// Payload integers ride in JSON `Int(i64)` fields, so the wire contract
/// caps them at `i64::MAX`.
fn arb_u63(g: &mut Gen) -> u64 {
    g.u64() & i64::MAX as u64
}

fn arb_tag(g: &mut Gen) -> Tag {
    Tag(arb_u63(g))
}

const REJECT_REASONS: [RejectReason; 2] = [RejectReason::QueueDepth, RejectReason::Deadline];

const BREAKER_STATES: [BreakerState; 3] = [
    BreakerState::Closed,
    BreakerState::Open,
    BreakerState::HalfOpen,
];

/// Number of event kinds `arb_event` draws from. `kind_index` below is a
/// no-wildcard match, so a new `TraceEvent` variant fails to compile here
/// until it gets an index — and `generator_covers_every_kind` fails until
/// `arb_event` generates it.
const KINDS: usize = 30;

fn kind_index(e: &TraceEvent) -> usize {
    match e {
        TraceEvent::PacketEnqueue { .. } => 0,
        TraceEvent::PacketTx { .. } => 1,
        TraceEvent::PacketDeliver { .. } => 2,
        TraceEvent::PacketDrop { .. } => 3,
        TraceEvent::LinkUp { .. } => 4,
        TraceEvent::LinkDown { .. } => 5,
        TraceEvent::FaultOnset { .. } => 6,
        TraceEvent::FaultClear { .. } => 7,
        TraceEvent::NodeCrash => 8,
        TraceEvent::NodeRestart => 9,
        TraceEvent::CacheWipe => 10,
        TraceEvent::StageRequest { .. } => 11,
        TraceEvent::StageAck { .. } => 12,
        TraceEvent::StageStart { .. } => 13,
        TraceEvent::Staged { .. } => 14,
        TraceEvent::StageFailed { .. } => 15,
        TraceEvent::ChunkEvicted { .. } => 16,
        TraceEvent::EvictOverflow { .. } => 17,
        TraceEvent::ChunkServed { .. } => 18,
        TraceEvent::FetchStart { .. } => 19,
        TraceEvent::FetchComplete { .. } => 20,
        TraceEvent::HandoffDefer { .. } => 21,
        TraceEvent::HandoffCommit { .. } => 22,
        TraceEvent::ModeTransition { .. } => 23,
        TraceEvent::StageDepth { .. } => 24,
        TraceEvent::StageReject { .. } => 25,
        TraceEvent::StageTimeout { .. } => 26,
        TraceEvent::BreakerTransition { .. } => 27,
        TraceEvent::CacheResize { .. } => 28,
        TraceEvent::ServiceDegrade { .. } => 29,
    }
}

fn arb_event(g: &mut Gen) -> TraceEvent {
    let link = LinkId::from_index(g.usize_in(0, 7));
    let chunk = arb_tag(g);
    let bytes32 = g.u64_in(0, u64::from(u32::MAX)) as u32;
    let bytes64 = arb_u63(g);
    match g.usize_in(0, KINDS - 1) {
        0 => TraceEvent::PacketEnqueue {
            link,
            bytes: bytes32,
        },
        1 => TraceEvent::PacketTx {
            link,
            bytes: bytes32,
            attempts: g.u64_in(1, 16) as u32,
        },
        2 => TraceEvent::PacketDeliver {
            link,
            bytes: bytes32,
        },
        3 => TraceEvent::PacketDrop {
            link,
            bytes: bytes32,
            reason: *g.choose(&[
                DropReason::Loss,
                DropReason::Queue,
                DropReason::Down,
                DropReason::InFlight,
                DropReason::Corrupt,
            ]),
        },
        4 => TraceEvent::LinkUp { link },
        5 => TraceEvent::LinkDown { link },
        6 => TraceEvent::FaultOnset {
            link,
            loss: g.f64_unit(),
            corrupt: g.f64_unit(),
        },
        7 => TraceEvent::FaultClear { link },
        8 => TraceEvent::NodeCrash,
        9 => TraceEvent::NodeRestart,
        10 => TraceEvent::CacheWipe,
        11 => TraceEvent::StageRequest { chunk },
        12 => TraceEvent::StageAck {
            chunk,
            ok: g.bool(),
        },
        13 => TraceEvent::StageStart { chunk },
        14 => TraceEvent::Staged {
            chunk,
            bytes: bytes64,
        },
        15 => TraceEvent::StageFailed { chunk },
        16 => TraceEvent::ChunkEvicted { chunk },
        17 => TraceEvent::EvictOverflow { dropped: bytes64 },
        18 => TraceEvent::ChunkServed {
            chunk,
            bytes: bytes64,
        },
        19 => TraceEvent::FetchStart {
            chunk,
            source: *g.choose(&[FetchSource::EdgeCache, FetchSource::Origin]),
        },
        20 => TraceEvent::FetchComplete {
            chunk,
            bytes: bytes64,
            source: *g.choose(&[FetchSource::EdgeCache, FetchSource::Origin]),
            ok: g.bool(),
        },
        21 => TraceEvent::HandoffDefer { target: chunk },
        22 => TraceEvent::HandoffCommit { target: chunk },
        23 => TraceEvent::ModeTransition {
            mode: *g.choose(&[
                ClientMode::Active,
                ClientMode::OriginFallback,
                ClientMode::Degraded,
            ]),
        },
        24 => TraceEvent::StageDepth {
            depth: g.u64_in(0, u64::from(u32::MAX)) as u32,
        },
        25 => TraceEvent::StageReject {
            chunk,
            reason: *g.choose(&REJECT_REASONS),
            retry_after_us: bytes64,
        },
        26 => TraceEvent::StageTimeout { chunk },
        27 => TraceEvent::BreakerTransition {
            edge: chunk,
            state: *g.choose(&BREAKER_STATES),
        },
        28 => TraceEvent::CacheResize { capacity: bytes64 },
        _ => TraceEvent::ServiceDegrade { delay_us: bytes64 },
    }
}

#[test]
fn generator_covers_every_kind() {
    check("trace_generator_coverage", 4, |g| {
        let mut seen = [false; KINDS];
        for _ in 0..1024 {
            seen[kind_index(&arb_event(g))] = true;
        }
        assert_eq!(seen, [true; KINDS], "arb_event never drew some kind");
    });
}

#[test]
fn serialization_round_trips_every_event_shape() {
    check("trace_jsonl_round_trip", 128, |g| {
        let mut seq = 0u64;
        let mut t = 0u64;
        let records = g.vec_of(1, 40, |g| {
            seq += g.u64_in(1, 3);
            t += g.u64_in(0, 1_000_000);
            TraceRecord {
                seq,
                at: SimTime::from_micros(t),
                node: NodeId::from_index(g.usize_in(0, 9)),
                event: arb_event(g),
            }
        });
        let jsonl: String = records
            .iter()
            .map(|r| r.to_json().to_string_compact() + "\n")
            .collect();
        let parsed = parse_jsonl(&jsonl).expect("serialized trace parses");
        assert_eq!(parsed, records, "round-trip must be exact");
        // The wire names `softstage`'s reject message shares.
        let reason = *g.choose(&REJECT_REASONS);
        assert_eq!(RejectReason::parse(reason.name()).expect("parse"), reason);
        let state = *g.choose(&BREAKER_STATES);
        assert_eq!(BreakerState::parse(state.name()).expect("parse"), state);
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
    let chunk = arb_tag(g);
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

fn kinds(violations: &[simnet::Violation]) -> Vec<InvariantKind> {
    violations.iter().map(|v| v.kind).collect()
}

#[test]
fn oracle_accepts_consistent_traces() {
    check("oracle_accepts_consistent", 64, |g| {
        let records = consistent_trace(g);
        let violations = TraceOracle::new().audit(&records);
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
        let found = kinds(&TraceOracle::new().audit(&records));
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
        let found = kinds(&TraceOracle::new().audit(&reversed));
        assert!(
            found.contains(&InvariantKind::MonotoneTime),
            "missed time reversal: {found:?}"
        );

        // Sequence forgery: a duplicated sequence number anywhere.
        let mut reseq = records;
        let mid = g.usize_in(1, reseq.len() - 1);
        reseq[mid].seq = reseq[mid - 1].seq;
        let found = kinds(&TraceOracle::new().audit(&reseq));
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
        let found = kinds(&TraceOracle::new().audit(&records));
        assert!(
            found.contains(&InvariantKind::UnstagedEdgeFetch),
            "missed unstaged edge fetch: {found:?}"
        );
    });
}
