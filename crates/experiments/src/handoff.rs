//! §IV-D: handoff policy comparison.
//!
//! Unlike the hard-handoff micro-benchmarks, networks here *overlap* by
//! 3 s (12 s encounters), so the client sees two APs at once and the
//! timing of the switch matters. The paper reports the content-aware
//! policy cutting download time by 21.7 % versus the default (blind
//! RSS-driven) policy.
//!
//! The two policies are independent cells that share a seed key — both
//! simulate the same world at every replicate, so the derived reduction
//! row is a paired comparison throughout.

use simnet::{SimDuration, SimTime};
use softstage::{HandoffPolicy, SoftStageConfig};
use vehicular::CoverageSchedule;

use crate::exec::{Cell, DerivedRow, TableSpec};
use crate::params::ExperimentParams;
use crate::testbed;

/// Download time over the overlapping-coverage drive under `policy`.
fn run_policy(params: &ExperimentParams, policy: HandoffPolicy) -> f64 {
    let horizon = SimDuration::from_secs(4_000);
    let schedule = CoverageSchedule::overlapping(
        params.encounter,
        SimDuration::from_secs(3),
        params.edge_networks.max(2),
        horizon,
    );
    let config = SoftStageConfig {
        policy,
        ..SoftStageConfig::default()
    };
    testbed::download_secs(params, &schedule, config, SimTime::ZERO + horizon)
}

/// The §IV-D table: one cell per policy (paired worlds), reduction
/// derived per replicate.
pub fn spec() -> TableSpec {
    let policy_cell = |id: &str, label: &str, policy| {
        Cell::new(id, label, None, move |seed| {
            run_policy(&ExperimentParams::default().with_seed(seed), policy)
        })
        .with_seed_key("handoff/world")
    };
    TableSpec::new(
        "handoff",
        "Handoff policy: download time with 3 s coverage overlap",
        "s / %",
    )
    .cell(policy_cell(
        "default",
        "default policy (s)",
        HandoffPolicy::Default,
    ))
    .cell(policy_cell(
        "chunk-aware",
        "chunk-aware policy (s)",
        HandoffPolicy::ChunkAware,
    ))
    .derived(DerivedRow::new("reduction (%)", Some(21.7), |v| {
        (1.0 - v[1] / v[0]) * 100.0
    }))
}
