//! The four workloads. Each is a fixed list of *paired worlds* — a
//! SoftStage arm and an Xftp baseline arm built from the same derived
//! seed — so every simulated metric is a ratio or a median over a known
//! population, and every host-time metric is work completed at a stated
//! input size. The simulator only ever sees the generated parameters.
//!
//! Why these four (details in `benchmark/README.md`):
//!
//! - `fleet_skewed` / `fleet_uniform` are the same 1000-client world with
//!   the popularity skew at the two ends of the sweep: the edge caches
//!   *hit* on one and *thrash* on the other, so a change that buys the hit
//!   path at the cost of the evict path shows on one and costs on the other.
//! - `drive_bulk` is Table III's single-client drive: transport loss
//!   recovery, link ARQ and per-chunk SHA-1 carry it, the fleet layers idle.
//! - `wardrive_replay` replays irregular coverage over a 192 MB catalog:
//!   roaming/handoff and retry paths, and the set-up- and memory-heavy one.

use simnet::{SimDuration, SimTime};
use softstage::SoftStageConfig;
use softstage_experiments::fleet::FleetParams;
use softstage_experiments::{ExperimentParams, MB};
use vehicular::{synthesize_wardriving, CoverageSchedule, WardrivingParams};

/// Workload names, in the round-robin order reps are interleaved in.
pub const NAMES: [&str; 4] = [
    "fleet_skewed",
    "fleet_uniform",
    "drive_bulk",
    "wardrive_replay",
];

/// Which side of a pair a world is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// SoftStage client, Staging VNFs deployed.
    Staged,
    /// Xftp baseline: same world, no staging.
    Baseline,
}

impl Arm {
    /// Both arms, SoftStage first.
    pub const BOTH: [Arm; 2] = [Arm::Staged, Arm::Baseline];

    /// Index into per-arm arrays.
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Lower-case label used in span names and per-arm metric suffixes.
    pub fn label(self) -> &'static str {
        match self {
            Arm::Staged => "staged",
            Arm::Baseline => "baseline",
        }
    }
}

/// Everything needed to build and run one world.
pub enum WorldSpec {
    /// A fleet world (`fleet::build` / `FleetWorld::run`).
    Fleet(FleetParams),
    /// A single-client testbed (`testbed::build` / `Testbed::run`).
    Drive {
        /// Table III parameters, seeded.
        params: ExperimentParams,
        /// Coverage the client's radios follow.
        schedule: CoverageSchedule,
        /// SoftStage or baseline client.
        config: SoftStageConfig,
        /// Horizon: unfinished downloads are censored (and fail) here.
        deadline: SimTime,
    },
}

impl WorldSpec {
    /// Chunk size of the world's content, which sizes the kernels.
    pub fn chunk_size(&self) -> usize {
        match self {
            WorldSpec::Fleet(p) => p.chunk_size,
            WorldSpec::Drive { params, .. } => params.chunk_size,
        }
    }

    /// When the world stops: unfinished downloads are censored here.
    pub fn horizon(&self) -> SimTime {
        match self {
            WorldSpec::Fleet(p) => SimTime::ZERO + p.horizon,
            WorldSpec::Drive { deadline, .. } => *deadline,
        }
    }

    /// Bytes of content published at set-up.
    pub fn published_bytes(&self) -> usize {
        match self {
            WorldSpec::Fleet(p) => p.catalog_objects * p.chunks_per_object * p.chunk_size,
            WorldSpec::Drive { params, .. } => params.file_size,
        }
    }
}

fn client_config(arm: Arm) -> SoftStageConfig {
    match arm {
        Arm::Staged => SoftStageConfig::default(),
        Arm::Baseline => SoftStageConfig::baseline(),
    }
}

/// Seed of pair `index` of `workload`. Replicate 1, because
/// `util::seed::derive` passes the base seed through at replicate 0 and
/// every pair must get a stream of its own.
fn pair_seed(seed: u64, workload: &str, index: usize) -> u64 {
    util::seed::derive(seed, &format!("{workload}/{index}"), 1)
}

fn fleet(workload: &str, seed: u64, zipf_skew: f64, quick: bool) -> Vec<(Arm, WorldSpec)> {
    let seed = pair_seed(seed, workload, 0);
    Arm::BOTH
        .into_iter()
        .map(|arm| {
            let mut p = FleetParams {
                clients: 1000,
                zipf_skew,
                verify_content: true,
                staging: arm == Arm::Staged,
                seed,
                ..FleetParams::default()
            };
            if quick {
                p.clients = 60;
                p.catalog_objects = 8;
            }
            (arm, WorldSpec::Fleet(p))
        })
        .collect()
}

fn drive_pair(
    params: ExperimentParams,
    schedule: CoverageSchedule,
    deadline: SimDuration,
) -> Vec<(Arm, WorldSpec)> {
    Arm::BOTH
        .into_iter()
        .map(|arm| {
            let spec = WorldSpec::Drive {
                params: params.clone(),
                schedule: schedule.clone(),
                config: client_config(arm),
                deadline: SimTime::ZERO + deadline,
            };
            (arm, spec)
        })
        .collect()
}

fn drive_bulk(seed: u64, quick: bool) -> Vec<(Arm, WorldSpec)> {
    let deadline = SimDuration::from_secs(4000);
    let (pairs, file_size) = if quick { (1, 8 * MB) } else { (8, 64 * MB) };
    (0..pairs)
        .flat_map(|i| {
            let params = ExperimentParams {
                file_size,
                seed: pair_seed(seed, "drive_bulk", i),
                ..ExperimentParams::default()
            };
            let schedule = params.alternating_schedule(deadline);
            drive_pair(params, schedule, deadline)
        })
        .collect()
}

/// The two Fig. 7 trace shapes: long bursts, and short bursts at slightly
/// lower coverage.
const WARDRIVE_SHAPES: [(f64, f64); 2] = [(0.85, 40.0), (0.82, 15.0)];

fn wardrive_replay(seed: u64, quick: bool) -> Vec<(Arm, WorldSpec)> {
    let (shapes, per_shape, file_size) = if quick {
        (&WARDRIVE_SHAPES[..1], 1, 16 * MB)
    } else {
        (&WARDRIVE_SHAPES[..], 2, 192 * MB)
    };
    let mut worlds = Vec::new();
    for (s, &(coverage, mean_burst_s)) in shapes.iter().enumerate() {
        for i in 0..per_shape {
            let world_seed = pair_seed(seed, "wardrive_replay", s * per_shape + i);
            let trace = synthesize_wardriving(
                "wardrive_replay",
                WardrivingParams {
                    coverage,
                    mean_burst_s,
                    total_s: 600.0,
                },
                world_seed,
            );
            let params = ExperimentParams {
                file_size,
                seed: world_seed,
                ..ExperimentParams::default()
            };
            let schedule = trace.to_schedule(params.edge_networks);
            worlds.extend(drive_pair(params, schedule, trace.duration()));
        }
    }
    worlds
}

/// The worlds of `workload` at `seed`, pairs adjacent, SoftStage arm first.
/// `quick` shrinks every workload to a smoke-test size (not a measurement).
///
/// # Errors
///
/// Returns the list of valid names when `workload` is not one of them.
pub fn worlds(workload: &str, seed: u64, quick: bool) -> Result<Vec<(Arm, WorldSpec)>, String> {
    match workload {
        "fleet_skewed" => Ok(fleet(workload, seed, 1.2, quick)),
        "fleet_uniform" => Ok(fleet(workload, seed, 0.0, quick)),
        "drive_bulk" => Ok(drive_bulk(seed, quick)),
        "wardrive_replay" => Ok(wardrive_replay(seed, quick)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            NAMES.join(", ")
        )),
    }
}
