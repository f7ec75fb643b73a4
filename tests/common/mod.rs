//! Helpers shared across the workspace integration suites. Each test
//! binary compiles its own copy, so not every binary uses every helper.
#![allow(dead_code)]

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use softstage_suite::experiments::{build, ExperimentParams, RunResult, Testbed, MB};
use softstage_suite::simnet::{Message, SimDuration, SimTime, Simulator, TraceRecord};
use softstage_suite::softstage::SoftStageConfig;
use softstage_suite::xia_addr::sha1;

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

/// What a flight recorder attached by [`record`] saw, read after the run.
#[derive(Default)]
pub struct Recorded {
    /// Every record, in `seq` order.
    pub records: Vec<TraceRecord>,
    /// SHA-1 over the JSON lines, fed as each record wrote its line.
    jsonl: sha1::Sha1,
}

impl Recorded {
    /// SHA-1 of the run's JSON-lines dump.
    pub fn digest(&self) -> [u8; 20] {
        self.jsonl.clone().finalize()
    }
}

/// Attaches a flight recorder to `sim` that keeps every record and hashes
/// its JSON line as it is written.
pub fn record<M: Message>(sim: &mut Simulator<M>) -> Rc<RefCell<Recorded>> {
    let recorded = Rc::new(RefCell::new(Recorded::default()));
    let out = Rc::clone(&recorded);
    let mut line = String::new();
    sim.enable_trace(move |r| {
        line.clear();
        r.write_line(&mut line);
        let mut out = out.borrow_mut();
        out.jsonl.update(line.as_bytes());
        out.records.push(*r);
    });
    recorded
}

/// Folds every observable statistic — the run result, client stats, the
/// content hash, simulator counters and the recorded trace's JSON lines —
/// into one digest.
pub fn digest_of(tb: &Testbed, label: &str, result: &RunResult, trace: &Recorded) -> [u8; 20] {
    let mut s = String::new();
    let _ = write!(s, "{label} {result:?}");
    let app = tb.client_app();
    let _ = write!(s, " stats={:?} mode={:?}", app.stats(), app.mode());
    let _ = write!(s, " digest={:02x?}", app.content_digest());
    let _ = write!(s, " sim={:?}", tb.sim.stats());
    let _ = write!(s, " trace={}", sha1::to_hex(&trace.digest()));
    sha1::sha1(s.as_bytes())
}
