//! Golden-trace regression: the flight recorder's JSON-lines export is a
//! pure function of `(topology, params, seed)` — two runs of the same
//! seeded scenario must serialize byte-identical traces, every recorded
//! trace must satisfy the invariant oracle, and a deliberately corrupted
//! trace must be rejected with the specific invariant it breaks.

mod common;

use softstage_suite::experiments::Testbed;
use softstage_suite::simnet::{
    DropReason, FetchSource, InvariantKind, SimDuration, TraceAudit, TraceEvent, TraceRecord,
    Violation,
};
use softstage_suite::softstage::SoftStageConfig;
use softstage_suite::vehicular::CoverageSchedule;

use common::{deadline, small, Recorded};

/// One seeded fig5-style staging run (alternating coverage) with the
/// recorder attached.
fn staging_run(seed: u64) -> (Testbed, Recorded) {
    let p = small(seed);
    let mut tb = common::testbed(&p);
    let trace = common::record(&mut tb.sim);
    let result = tb.run(deadline());
    assert!(result.content_ok, "staging run must complete: {result:?}");
    (tb, trace.take())
}

/// One seeded handoff run: overlapping coverage, so the chunk-aware
/// policy defers switches to chunk boundaries. The encounters are
/// shortened (and the file enlarged) so the download is still in flight
/// when the RSS crossover inside an overlap makes the next network the
/// stronger candidate — otherwise the run ends before any real switch
/// decision.
fn handoff_run(seed: u64) -> (Testbed, Recorded) {
    let mut p = small(seed);
    p.file_size = 16 * softstage_suite::experiments::MB;
    p.encounter = SimDuration::from_secs(5);
    let schedule = CoverageSchedule::overlapping(
        p.encounter,
        SimDuration::from_secs(2),
        p.edge_networks.max(2),
        SimDuration::from_secs(2000),
    );
    let mut tb = softstage_suite::experiments::build(&p, &schedule, SoftStageConfig::default());
    let trace = common::record(&mut tb.sim);
    let result = tb.run(deadline());
    assert!(result.content_ok, "handoff run must complete: {result:?}");
    assert!(
        result.handoffs > 0,
        "overlap must produce handoffs: {result:?}"
    );
    (tb, trace.take())
}

/// Checks one recorded run — oracle clean, something recorded, and the
/// batch and streaming audits agreeing — and hands back its trace.
fn golden((tb, trace): (Testbed, Recorded), scenario: &str) -> Recorded {
    common::assert_trace_clean(&tb, scenario);
    assert!(
        !trace.records.is_empty(),
        "{scenario}: trace must not be empty"
    );
    // A batch fold over the kept records and the streaming audit are the
    // same rules: same verdict on a real trace, stats cross-check
    // included.
    assert_eq!(
        trace
            .records
            .iter()
            .collect::<TraceAudit>()
            .violations(Some(tb.sim.stats())),
        tb.sim.audit_trace(),
        "{scenario}: batch vs streaming audit"
    );
    trace
}

#[test]
fn staging_golden_trace_is_byte_identical_and_oracle_clean() {
    let a = golden(staging_run(42), "staging run A");
    let b = golden(staging_run(42), "staging run B");
    assert_eq!(
        a.digest(),
        b.digest(),
        "same-seed staging traces must serialize byte-identically"
    );
    // The golden trace actually exercises the staging path.
    let staged = a
        .records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::Staged { .. }))
        .count();
    let edge_fetches = a
        .records
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                TraceEvent::FetchComplete {
                    source: FetchSource::EdgeCache,
                    ok: true,
                    ..
                }
            )
        })
        .count();
    assert!(staged > 0, "staging run must stage chunks");
    assert!(edge_fetches > 0, "staging run must fetch from edge caches");
}

#[test]
fn handoff_golden_trace_is_byte_identical_and_oracle_clean() {
    let a = golden(handoff_run(42), "handoff run A");
    let b = golden(handoff_run(42), "handoff run B");
    assert_eq!(
        a.digest(),
        b.digest(),
        "same-seed handoff traces must serialize byte-identically"
    );
    let commits = a
        .records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::HandoffCommit { .. }))
        .count();
    assert!(commits > 0, "handoff run must record committed handoffs");
}

/// The structural verdict on a (possibly doctored) recorded slice.
fn audit(records: &[TraceRecord]) -> Vec<Violation> {
    records.iter().collect::<TraceAudit>().violations(None)
}

#[test]
fn corrupted_golden_trace_is_rejected_with_specific_invariants() {
    let (_, trace) = staging_run(42);
    let clean = trace.records;
    assert!(audit(&clean).is_empty(), "golden trace is clean");

    // Forgery 1: orphan deliveries — more arrivals on a link than it ever
    // transmitted. A live trace legitimately ends with packets still in
    // flight (tx > deliver), so the forgery must spend that slack first.
    let mut orphaned = clean.clone();
    let donor = *orphaned
        .iter()
        .find(|r| matches!(r.event, TraceEvent::PacketDeliver { .. }))
        .expect("golden trace has deliveries");
    let TraceEvent::PacketDeliver { link, .. } = donor.event else {
        unreachable!()
    };
    let slack: i64 = orphaned
        .iter()
        .map(|r| match r.event {
            TraceEvent::PacketTx { link: l, .. } if l == link => 1,
            TraceEvent::PacketDeliver { link: l, .. } if l == link => -1,
            TraceEvent::PacketDrop {
                link: l,
                reason: DropReason::InFlight,
                ..
            } if l == link => -1,
            _ => 0,
        })
        .sum();
    let last = *orphaned.last().expect("non-empty");
    for i in 0..=slack.max(0) as u64 {
        orphaned.push(TraceRecord {
            seq: last.seq + 1 + i,
            at: last.at,
            node: donor.node,
            event: donor.event,
        });
    }
    let violations = audit(&orphaned);
    assert!(
        violations
            .iter()
            .any(|v| v.kind == InvariantKind::OrphanDelivery),
        "forged delivery must be flagged as an orphan: {violations:#?}"
    );

    // Forgery 2: time flows backwards at one record.
    let mut reversed = clean.clone();
    let mid = reversed.len() / 2;
    assert!(reversed[mid].at.as_micros() > 0, "mid-run event after t=0");
    reversed[mid].at = softstage_suite::simnet::SimTime::ZERO;
    let violations = audit(&reversed);
    assert!(
        violations
            .iter()
            .any(|v| v.kind == InvariantKind::MonotoneTime),
        "time reversal must be flagged: {violations:#?}"
    );

    // Forgery 3: a duplicated sequence number.
    let mut reseq = clean.clone();
    reseq[mid].seq = reseq[mid - 1].seq;
    let violations = audit(&reseq);
    assert!(
        violations
            .iter()
            .any(|v| v.kind == InvariantKind::MonotoneSeq),
        "duplicate sequence number must be flagged: {violations:#?}"
    );

    // Forgery 4: an edge-cache fetch success for a chunk no cache staged.
    let mut unstaged = clean.clone();
    for r in &mut unstaged {
        if let TraceEvent::Staged { .. } = r.event {
            // Rewrite every staging event into an unrelated one, so the
            // edge fetches that relied on them become unexplained.
            r.event = TraceEvent::CacheWipe;
        }
    }
    let violations = audit(&unstaged);
    assert!(
        violations
            .iter()
            .any(|v| v.kind == InvariantKind::UnstagedEdgeFetch),
        "edge fetch without staging must be flagged: {violations:#?}"
    );
}
