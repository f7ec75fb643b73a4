//! Ablations of SoftStage's design choices (DESIGN.md §5).
//!
//! Each ablation disables one mechanism and measures the 64 MB default
//! download, quantifying what that mechanism buys:
//!
//! - **gap-aware staging depth** — without the reactive gap term the VNF
//!   idles through disconnections,
//! - **pre-staging into handoff targets** (step ④),
//! - **chunk-aware handoff** (vs the legacy policy),
//! - **staging itself** (the Xftp baseline).

use simnet::{SimDuration, SimTime};
use softstage::{CoordinatorConfig, HandoffPolicy, SoftStageConfig};

use crate::exec::{Cell, TableSpec};
use crate::params::ExperimentParams;
use crate::testbed;

fn deadline() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(4_000)
}

/// Runs the 64 MB alternating (hard-handoff) scenario; returns seconds.
fn run_with(params: &ExperimentParams, config: SoftStageConfig) -> f64 {
    let schedule = params.alternating_schedule(SimDuration::from_secs(4_000));
    testbed::download_secs(params, &schedule, config, deadline())
}

/// Runs the 64 MB overlapping-coverage scenario (soft handoffs every 9 s).
fn run_overlap(params: &ExperimentParams, config: SoftStageConfig) -> f64 {
    let schedule = vehicular::CoverageSchedule::overlapping(
        params.encounter,
        SimDuration::from_secs(3),
        2,
        SimDuration::from_secs(4_000),
    );
    testbed::download_secs(params, &schedule, config, deadline())
}

/// The depth-capped coordinator (gap-aware term ablated).
fn shallow() -> SoftStageConfig {
    SoftStageConfig {
        coordinator: CoordinatorConfig {
            initial_depth: 2,
            max_depth: 3,
        },
        ..SoftStageConfig::default()
    }
}

/// The full ablation table as cells. Each mechanism is ablated in a
/// scenario that actually exercises it: the gap-aware staging depth
/// under a slow Internet with hard handoffs, and the handoff mechanisms
/// under overlapping coverage. Cells within a scenario share a seed key,
/// so every replicate compares variants on the same world.
pub fn spec() -> TableSpec {
    let mut spec = TableSpec::new("ablation", "Design ablations: 64 MB download time", "s");

    // --- staging depth, under a 15 Mbps Internet with 8 s gaps ---
    let slow_cell = |id: &str, label: &str, config_for: fn() -> SoftStageConfig| {
        Cell::new(id, label, None, move |seed| {
            let params = ExperimentParams {
                internet_bw_bps: 15 * crate::params::MBPS,
                ..ExperimentParams::default()
            }
            .with_seed(seed);
            run_with(&params, config_for())
        })
        .with_seed_key("ablation/15mbps")
    };
    spec = spec
        .cell(slow_cell(
            "slow-full",
            "15Mbps: full softstage",
            SoftStageConfig::default,
        ))
        .cell(slow_cell(
            "slow-shallow",
            "15Mbps: no gap-aware depth (<=3)",
            shallow,
        ))
        .cell(slow_cell(
            "slow-xftp",
            "15Mbps: no staging (xftp)",
            SoftStageConfig::baseline,
        ));

    // --- handoff mechanisms, under 3 s coverage overlap ---
    let overlap_cell = |id: &str, label: &str, config_for: fn() -> SoftStageConfig| {
        Cell::new(id, label, None, move |seed| {
            let params = ExperimentParams::default().with_seed(seed);
            run_overlap(&params, config_for())
        })
        .with_seed_key("ablation/overlap")
    };
    spec = spec
        .cell(overlap_cell(
            "overlap-full",
            "overlap: full softstage",
            SoftStageConfig::default,
        ))
        .cell(overlap_cell(
            "overlap-no-prestage",
            "overlap: no handoff pre-staging",
            || SoftStageConfig {
                prestage_depth: 0,
                ..SoftStageConfig::default()
            },
        ))
        .cell(overlap_cell(
            "overlap-legacy-policy",
            "overlap: legacy handoff policy",
            || SoftStageConfig {
                policy: HandoffPolicy::Default,
                ..SoftStageConfig::default()
            },
        ))
        .cell(overlap_cell(
            "overlap-xftp",
            "overlap: no staging (xftp)",
            SoftStageConfig::baseline,
        ));

    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MB;

    /// The ablation ordering must hold at reduced scale: full SoftStage is
    /// at least as fast as the depth-capped variant, which beats no
    /// staging at all.
    #[test]
    fn ablation_ordering_small_scale() {
        let params = ExperimentParams {
            file_size: 12 * MB,
            chunk_size: MB,
            ..ExperimentParams::default()
        };
        let full = run_with(&params, SoftStageConfig::default());
        let shallow = run_with(
            &params,
            SoftStageConfig {
                coordinator: CoordinatorConfig {
                    initial_depth: 2,
                    max_depth: 3,
                },
                ..SoftStageConfig::default()
            },
        );
        let none = run_with(&params, SoftStageConfig::baseline());
        assert!(
            full <= shallow * 1.05,
            "gap-aware depth helps: {full} vs {shallow}"
        );
        assert!(
            shallow < none,
            "even shallow staging beats none: {shallow} vs {none}"
        );
    }
}
