//! Overload cell: graceful degradation under staging backpressure.
//!
//! An aggressive client (deep staging window) drives a VNF whose queue is
//! progressively pinched (`max_depth` 64 → 4 → 2). The claim under test
//! is the overload-protection design's: tightening the staging queue
//! *sheds staging work, never downloads* — completion time degrades
//! gracefully toward the origin-fetch baseline while explicit rejects
//! replace silent queueing. The derived rows report the degradation
//! factor of each pinch relative to the unpinched run and the reject
//! count observed at the tightest cap.

use simnet::{SimDuration, SimTime};
use softstage::{CoordinatorConfig, SoftStageConfig, VnfConfig};

use crate::exec::{Cell, DerivedRow, TableSpec};
use crate::params::{ExperimentParams, MB};
use crate::testbed;

/// Storm parameters: 12 MB in 1 MB chunks, with a staging window deep
/// enough (initial depth 16) that a pinched VNF queue must reject.
pub fn storm_params(seed: u64) -> ExperimentParams {
    ExperimentParams {
        file_size: 12 * MB,
        chunk_size: MB,
        ..ExperimentParams::default()
    }
    .with_seed(seed)
}

/// The aggressive client: opens with a deep staged-ahead window so the
/// request storm hits the VNF immediately instead of ramping up.
pub fn storm_client() -> SoftStageConfig {
    SoftStageConfig {
        coordinator: CoordinatorConfig {
            initial_depth: 16,
            ..CoordinatorConfig::default()
        },
        ..SoftStageConfig::default()
    }
}

/// A VNF pinched to `max_depth` concurrent staging jobs.
pub fn pinched_vnf(max_depth: usize) -> VnfConfig {
    VnfConfig {
        max_depth,
        retry_after: SimDuration::from_millis(750),
        ..VnfConfig::default()
    }
}

/// One storm run against VNFs capped at `max_depth`; returns the result
/// after asserting the run completed with intact content (overload must
/// never lose the download).
fn storm_run(seed: u64, max_depth: usize) -> testbed::RunResult {
    let params = storm_params(seed);
    let horizon = SimDuration::from_secs(600);
    let schedule = params.alternating_schedule(horizon);
    let mut tb = testbed::build_with_vnf(&params, &schedule, storm_client(), |_| {
        pinched_vnf(max_depth)
    });
    let result = tb.run(SimTime::ZERO + horizon);
    assert!(
        result.content_ok,
        "overload run must complete intact (cap {max_depth}): {result:?}"
    );
    result
}

/// What one storm run publishes: completion time in seconds, then its
/// stage-reject count. `content_ok` (asserted by [`storm_run`]) implies
/// completion, so the no-completion arm is unreachable; infinity keeps
/// it honest without a panic path.
fn storm_cell(seed: u64, max_depth: usize) -> [f64; 2] {
    let result = storm_run(seed, max_depth);
    [
        result.completion.map_or(f64::INFINITY, |t| t.as_secs_f64()),
        result.stats.stage_rejects as f64,
    ]
}

/// The overload table: completion time per queue cap, reject volume at
/// the tightest cap, and derived degradation factors.
pub fn spec() -> TableSpec {
    let mut spec = TableSpec::new(
        "overload",
        "Overload: completion under staging-queue caps (graceful degradation)",
        "s / count / x",
    );
    for cap in [64usize, 4, 2] {
        spec = spec.cell(
            Cell::new(
                format!("cap-{cap}"),
                format!("completion, queue cap {cap} (s)"),
                None,
                move |seed| storm_cell(seed, cap),
            )
            .with_seed_key("overload/storm"),
        );
    }
    // Cells: [0] cap-64, [1] cap-4, [2] cap-2; each (completion, rejects).
    spec.derived(DerivedRow::new(
        "stage rejects at queue cap 2 (count)",
        None,
        |v| v.at(2, 1),
    ))
    .derived(DerivedRow::new("degradation cap-4 (x)", None, |v| {
        v[1] / v[0]
    }))
    .derived(DerivedRow::new("degradation cap-2 (x)", None, |v| {
        v[2] / v[0]
    }))
}
