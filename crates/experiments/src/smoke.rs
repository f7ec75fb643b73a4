//! A deliberately small reproduction target for CI and tests.
//!
//! `reproduce smoke` exercises the full executor pipeline — independent
//! cells, paired seed keys, derived rows, replication — on 8 MB
//! downloads that finish in seconds, so determinism checks
//! (`--jobs 1` vs `--jobs N` byte-diffs) and wall-clock trend
//! recordings stay cheap enough to run on every verify.

use simnet::{SimDuration, SimTime};
use softstage::SoftStageConfig;

use crate::exec::{Cell, DerivedRow, TableSpec};
use crate::params::{ExperimentParams, MB};
use crate::testbed;

/// The reduced-scale parameter set: 8 MB file, 1 MB chunks.
fn small_params(seed: u64) -> ExperimentParams {
    ExperimentParams {
        file_size: 8 * MB,
        chunk_size: MB,
        ..ExperimentParams::default()
    }
    .with_seed(seed)
}

/// Download time at reduced scale under `config`, with the encounter
/// time overridden when `encounter_s` is set.
fn small_download(seed: u64, encounter_s: Option<u64>, config: SoftStageConfig) -> f64 {
    let mut params = small_params(seed);
    if let Some(secs) = encounter_s {
        params.encounter = SimDuration::from_secs(secs);
    }
    let horizon = SimDuration::from_secs(600);
    let schedule = params.alternating_schedule(horizon);
    testbed::download_secs(&params, &schedule, config, SimTime::ZERO + horizon)
}

/// The smoke table: two scenarios (default and short encounters), each
/// a paired SoftStage/Xftp comparison with a derived gain row.
pub fn spec() -> TableSpec {
    let mut spec = TableSpec::new(
        "smoke",
        "Smoke target: 8 MB download at reduced scale",
        "s / x",
    );
    for (scenario, encounter_s) in [("default", None), ("enc-3s", Some(3u64))] {
        let client_cell = |suffix: &str, config_for: fn() -> SoftStageConfig| {
            Cell::new(
                format!("{scenario}-{suffix}"),
                format!("{scenario} {suffix} (s)"),
                None,
                move |seed| small_download(seed, encounter_s, config_for()),
            )
            .with_seed_key(format!("smoke/{scenario}"))
        };
        spec = spec
            .cell(client_cell("softstage", SoftStageConfig::default))
            .cell(client_cell("xftp", SoftStageConfig::baseline));
    }
    // Cells: [0] default/soft, [1] default/xftp, [2] enc-3s/soft,
    // [3] enc-3s/xftp.
    spec = spec
        .derived(DerivedRow::new("default gain (x)", None, |v| v[1] / v[0]))
        .derived(DerivedRow::new("enc-3s gain (x)", None, |v| v[3] / v[2]));
    spec
}
