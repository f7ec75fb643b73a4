//! Fig. 7: trace-driven mobile experiments.
//!
//! Replays wardriving-style connectivity traces (synthesized with the
//! Beijing traces' qualitative structure: operator-AP coverage above 80 %)
//! and counts how many content objects each client downloads in the same
//! trace window. The paper reports SoftStage downloading "almost twice the
//! content objects".
//!
//! Each (trace, client) pair is one executor cell; the two clients of a
//! trace share a seed key so every replicate replays the *same*
//! synthesized trace with both stacks before deriving the factor row.

use simnet::SimTime;
use softstage::SoftStageConfig;
use vehicular::{synthesize_wardriving, ConnectivityTrace, WardrivingParams};

use crate::exec::{Cell, DerivedRow, TableSpec};
use crate::params::{ExperimentParams, MB};
use crate::testbed;

/// Outcome of replaying one trace with both clients.
#[derive(Debug, Clone, Copy)]
pub struct TraceResult {
    /// Chunks Xftp completed within the trace window.
    pub xftp_chunks: usize,
    /// Chunks SoftStage completed within the trace window.
    pub softstage_chunks: usize,
    /// Fraction of trace time with coverage.
    pub coverage: f64,
}

impl TraceResult {
    /// SoftStage objects over Xftp objects.
    pub fn factor(&self) -> f64 {
        self.softstage_chunks as f64 / (self.xftp_chunks.max(1)) as f64
    }
}

/// The large-object-stream parameters every Fig. 7 replay uses: enough
/// 2 MB objects that neither client can ever finish early.
fn replay_params(seed: u64) -> ExperimentParams {
    ExperimentParams {
        file_size: 400 * MB,
        chunk_size: 2 * MB,
        seed,
        ..ExperimentParams::default()
    }
}

/// Replays `trace` with one client configuration; returns chunks
/// completed within the trace window.
pub(crate) fn replay_one(trace: &ConnectivityTrace, seed: u64, config: SoftStageConfig) -> usize {
    let params = replay_params(seed);
    let schedule = trace.to_schedule(params.edge_networks);
    let deadline = SimTime::ZERO + trace.duration();
    testbed::build(&params, &schedule, config)
        .run(deadline)
        .chunks_fetched
}

/// Replays `trace`, downloading a large object stream for its duration
/// with both clients.
pub fn replay(trace: &ConnectivityTrace, seed: u64) -> TraceResult {
    TraceResult {
        xftp_chunks: replay_one(trace, seed, SoftStageConfig::baseline()),
        softstage_chunks: replay_one(trace, seed, SoftStageConfig::default()),
        coverage: trace.coverage_fraction(),
    }
}

/// The wardriving parameter sets of the two Beijing-like traces.
fn trace_params() -> [(&'static str, WardrivingParams, u64); 2] {
    [
        (
            "beijing-like-trace-1",
            WardrivingParams {
                coverage: 0.85,
                mean_burst_s: 40.0,
                total_s: 120.0,
            },
            0,
        ),
        (
            "beijing-like-trace-2",
            WardrivingParams {
                coverage: 0.82,
                mean_burst_s: 15.0,
                total_s: 120.0,
            },
            1,
        ),
    ]
}

/// Fig. 7(b) as cells: per trace, one cell per client (paired on the
/// trace's world seed) plus the derived factor row.
pub fn spec() -> TableSpec {
    let mut spec = TableSpec::new(
        "fig7",
        "Trace-driven replay: chunks downloaded in the trace window",
        "chunks / x",
    );
    for (i, (name, wp, offset)) in trace_params().into_iter().enumerate() {
        let client_cell = |suffix: &str, config_for: fn() -> SoftStageConfig| {
            Cell::new(
                format!("trace{}-{suffix}", i + 1),
                format!("{name} {suffix}"),
                None,
                move |seed| {
                    let trace = synthesize_wardriving(name, wp, seed.wrapping_add(offset));
                    replay_one(&trace, seed, config_for()) as f64
                },
            )
            .with_seed_key(format!("fig7/{name}"))
        };
        spec = spec
            .cell(client_cell("xftp", SoftStageConfig::baseline))
            .cell(client_cell("softstage", SoftStageConfig::default));
        let (xi, si) = (2 * i, 2 * i + 1);
        spec = spec.derived(DerivedRow::new(
            format!("{name} factor"),
            Some(2.0),
            move |v| v[si] / v[xi].max(1.0),
        ));
    }
    spec
}
