//! Helpers shared across the workspace integration suites. Each test
//! binary compiles its own copy, so not every binary uses every helper.
#![allow(dead_code)]

use std::fmt::Write as _;

use softstage_suite::experiments::world::World;
use softstage_suite::experiments::{build, ExperimentParams, RunResult, Testbed, MB};
use softstage_suite::simnet::{SimDuration, SimTime};
use softstage_suite::softstage::SoftStageConfig;
use softstage_suite::xia_addr::sha1;

/// Flight-recorder capacity ample for every scenario in these suites:
/// the golden-trace and digest comparisons cover the JSON-lines export,
/// which holds only what the ring retained (the audit does not care).
pub const TRACE_CAPACITY: usize = 1 << 20;

/// Generous deadline for the small downloads used across the suites.
pub fn deadline() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(2000)
}

/// The small 6-chunk download shared by the chaos and determinism suites.
pub fn small(seed: u64) -> ExperimentParams {
    ExperimentParams {
        file_size: 6 * MB,
        chunk_size: MB,
        seed,
        ..ExperimentParams::default()
    }
}

/// A testbed over `params` with the default (staging-on, chunk-aware)
/// client and the alternating coverage schedule.
pub fn testbed(params: &ExperimentParams) -> Testbed {
    let schedule = params.alternating_schedule(SimDuration::from_secs(2000));
    build(params, &schedule, SoftStageConfig::default())
}

/// Asserts that every event the run recorded satisfies every oracle
/// invariant.
pub fn assert_trace_clean(tb: &Testbed, scenario: &str) {
    let violations = tb.audit_trace();
    assert!(
        violations.is_empty(),
        "{scenario}: trace invariant violations: {violations:#?}"
    );
}

/// Folds every observable statistic — the run result, client stats, the
/// content hash, simulator counters and (when the flight recorder is
/// attached) the full event sequence — into one digest.
pub fn digest_of(tb: &Testbed, label: &str, result: &RunResult) -> [u8; 20] {
    let mut s = String::new();
    let _ = write!(s, "{label} {result:?}");
    let app = tb.client_app();
    let _ = write!(s, " stats={:?} mode={:?}", app.stats(), app.mode());
    let _ = write!(s, " digest={:02x?}", app.content_digest());
    let _ = write!(s, " sim={:?}", tb.sim.stats());
    let _ = write!(s, " trace={}", sha1::to_hex(&trace_digest(tb)));
    sha1::sha1(s.as_bytes())
}

/// SHA-1 over the recorded trace's JSON-lines export (the all-zero digest
/// of the empty string when tracing is off).
pub fn trace_digest(tb: &Testbed) -> [u8; 20] {
    sha1::sha1(&jsonl(tb))
}

/// The JSON lines the world's flight recorder streams from its ring
/// (none when tracing is off).
pub fn jsonl(world: &World) -> Vec<u8> {
    let mut out = Vec::new();
    if let Some(sink) = world.sim.trace() {
        sink.write_jsonl(&mut out).expect("a Vec takes every byte");
    }
    out
}
