//! Fig. 6: SoftStage vs Xftp gain across the Table III parameter sweeps.
//!
//! Every panel downloads a 64 MB file while the client alternates between
//! two edge networks (encounter / disconnection pattern) and reports the
//! *gain*: Xftp download time divided by SoftStage download time.
//!
//! Each sweep point is one independent [`Cell`]: both clients run inside
//! a single cell (paired on the same world seed), so the gain ratio is
//! meaningful at every replicate and the cells can fan out across the
//! executor's worker pool.

use simnet::{SimDuration, SimTime};
use softstage::SoftStageConfig;

use crate::exec::{Cell, TableSpec};
use crate::params::{ExperimentParams, MB, MBPS};
use crate::testbed;

/// Simulated-time budget for one download, and the coverage horizon.
const HORIZON: SimDuration = SimDuration::from_secs(4_000);

/// One sweep-point cell: perturbs the Table III defaults via
/// `params_for`, then runs both clients on identical worlds at the cell's
/// seed and reports the gain, Xftp time over SoftStage time.
fn gain_cell(
    id: impl Into<String>,
    label: impl Into<String>,
    paper: Option<f64>,
    params_for: impl Fn() -> ExperimentParams + Send + Sync + 'static,
) -> Cell {
    Cell::new(id, label, paper, move |seed| {
        let params = params_for().with_seed(seed);
        let schedule = params.alternating_schedule(HORIZON);
        let secs =
            |config| testbed::download_secs(&params, &schedule, config, SimTime::ZERO + HORIZON);
        let softstage = secs(SoftStageConfig::default());
        secs(SoftStageConfig::baseline()) / softstage
    })
}

/// Fig. 6(a): chunk size sweep.
pub fn chunk_size_spec() -> TableSpec {
    let mut spec = TableSpec::new("fig6a", "Gain vs chunk size (64 MB file)", "x");
    // Paper: 1.59x..1.96x rising with chunk size.
    let cases: [(usize, Option<f64>); 6] = [
        (MB / 4, Some(1.59)),
        (MB * 5 / 8, None),
        (MB * 5 / 4, None),
        (2 * MB, Some(1.77)),
        (4 * MB, None),
        (10 * MB, Some(1.96)),
    ];
    for (size, paper) in cases {
        let mbs = size as f64 / MB as f64;
        spec = spec.cell(gain_cell(
            format!("chunk-{mbs:.3}"),
            format!("chunk {mbs:.3} MB"),
            paper,
            move || ExperimentParams {
                chunk_size: size,
                ..ExperimentParams::default()
            },
        ));
    }
    spec
}

/// Fig. 6(b): encounter time sweep.
pub fn encounter_spec() -> TableSpec {
    let mut spec = TableSpec::new("fig6b", "Gain vs encounter time", "x");
    for (secs, paper) in [(3u64, Some(1.55)), (4, None), (12, Some(1.77))] {
        spec = spec.cell(gain_cell(
            format!("encounter-{secs}"),
            format!("encounter {secs} s"),
            paper,
            move || ExperimentParams {
                encounter: SimDuration::from_secs(secs),
                ..ExperimentParams::default()
            },
        ));
    }
    spec
}

/// Fig. 6(c): disconnection time sweep.
pub fn disconnection_spec() -> TableSpec {
    let mut spec = TableSpec::new("fig6c", "Gain vs disconnection time", "x");
    for (secs, paper) in [(8u64, Some(1.7)), (32, Some(1.7)), (100, Some(1.7))] {
        spec = spec.cell(gain_cell(
            format!("disconnection-{secs}"),
            format!("disconnection {secs} s"),
            paper,
            move || ExperimentParams {
                disconnection: SimDuration::from_secs(secs),
                ..ExperimentParams::default()
            },
        ));
    }
    spec
}

/// Fig. 6(d): wireless packet loss sweep.
pub fn loss_spec() -> TableSpec {
    let mut spec = TableSpec::new("fig6d", "Gain vs wireless packet loss", "x");
    for (pct, paper) in [(22u32, Some(1.37)), (27, Some(1.7)), (37, Some(1.77))] {
        spec = spec.cell(gain_cell(
            format!("loss-{pct}"),
            format!("loss {pct} %"),
            paper,
            move || ExperimentParams {
                wireless_loss: f64::from(pct) / 100.0,
                ..ExperimentParams::default()
            },
        ));
    }
    spec
}

/// Fig. 6(e): Internet bottleneck bandwidth sweep.
pub fn bandwidth_spec() -> TableSpec {
    let mut spec = TableSpec::new("fig6e", "Gain vs Internet bottleneck bandwidth", "x");
    for (mbps, paper) in [(60u64, Some(1.77)), (30, None), (15, Some(9.94))] {
        spec = spec.cell(gain_cell(
            format!("internet-{mbps}"),
            format!("internet {mbps} Mbps"),
            paper,
            move || ExperimentParams {
                internet_bw_bps: mbps * MBPS,
                ..ExperimentParams::default()
            },
        ));
    }
    spec
}

/// Fig. 6(f): Internet latency sweep.
pub fn latency_spec() -> TableSpec {
    let mut spec = TableSpec::new("fig6f", "Gain vs Internet RTT", "x");
    for (ms, paper) in [
        (5u64, Some(1.38)),
        (10, None),
        (20, Some(1.77)),
        (50, None),
        (100, Some(2.3)),
    ] {
        spec = spec.cell(gain_cell(
            format!("rtt-{ms}"),
            format!("rtt {ms} ms"),
            paper,
            move || ExperimentParams {
                internet_rtt: SimDuration::from_millis(ms),
                ..ExperimentParams::default()
            },
        ));
    }
    spec
}

/// All six panels as cell specs, in figure order.
pub fn specs() -> Vec<TableSpec> {
    vec![
        chunk_size_spec(),
        encounter_spec(),
        disconnection_spec(),
        loss_spec(),
        bandwidth_spec(),
        latency_spec(),
    ]
}
