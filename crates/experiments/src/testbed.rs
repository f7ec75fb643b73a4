//! The emulated testbed of the paper's controlled experiments: the
//! Fig. 4 world ([`crate::world`]) with one client that hears every edge
//! network along a [`CoverageSchedule`] (encounters / disconnections /
//! overlaps). The wired "Internet" segment carries the emulated
//! bottleneck (loss-throttled, as in the paper).

use std::ops::{Deref, DerefMut};

use simnet::{LinkConfig, NodeId, SimDuration, SimTime};
use softstage::{ClientStats, SoftStageClient, SoftStageConfig, VnfConfig};
use vehicular::{CoverageSchedule, NetworkSensor};

use crate::params::{ExperimentParams, MB};
use crate::world::{self, client_on, ClientSpec, EdgeSpec, World, WorldSpec};

/// A built testbed, ready to run: the [`World`] (whose fields and readers
/// it derefs to) and its one client.
pub struct Testbed {
    world: World,
    /// The mobile client node.
    pub client: NodeId,
    /// The origin server node.
    pub server: NodeId,
}

impl Deref for Testbed {
    type Target = World;

    fn deref(&self) -> &World {
        &self.world
    }
}

impl DerefMut for Testbed {
    fn deref_mut(&mut self) -> &mut World {
        &mut self.world
    }
}

/// Outcome of one client run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Download completion time, if the client finished before the
    /// deadline.
    pub completion: Option<SimTime>,
    /// Chunks fetched.
    pub chunks_fetched: usize,
    /// Handoffs performed.
    pub handoffs: u64,
    /// Active session migrations paid.
    pub migrations: u64,
    /// The client's counters at the end of the run.
    pub stats: ClientStats,
    /// Whether the delivered content digest matches the manifest's.
    pub content_ok: bool,
}

/// Builds the testbed for `params` with the given coverage `schedule`,
/// running a client configured by `client_config`. Every VNF gets the
/// default (generous) queue bounds; use [`build_with_vnf`] to shape them.
pub fn build(
    params: &ExperimentParams,
    schedule: &CoverageSchedule,
    client_config: SoftStageConfig,
) -> Testbed {
    build_with_vnf(params, schedule, client_config, |_| VnfConfig::default())
}

/// Builds the testbed with per-edge VNF queue bounds and admission
/// policies: `make_vnf(i)` configures the VNF on edge network `i`
/// (overload experiments pinch selected edges this way).
#[expect(
    clippy::indexing_slicing,
    reason = "spec() declares exactly one client, and world::build builds every declared client"
)]
pub fn build_with_vnf(
    params: &ExperimentParams,
    schedule: &CoverageSchedule,
    client_config: SoftStageConfig,
    make_vnf: impl Fn(usize) -> VnfConfig,
) -> Testbed {
    let world = world::build(spec(params, schedule, client_config, make_vnf));
    Testbed {
        client: world.clients[0],
        server: world.origin,
        world,
    }
}

/// The testbed as [`WorldSpec`] data: one client with a radio to every
/// edge network, driven by `schedule`'s transitions. Multi-client worlds
/// that move start from this and add client records.
pub fn spec(
    params: &ExperimentParams,
    schedule: &CoverageSchedule,
    client_config: SoftStageConfig,
    make_vnf: impl Fn(usize) -> VnfConfig,
) -> WorldSpec {
    let nets = params.edge_networks.max(schedule.networks).max(1);
    WorldSpec {
        seed: params.seed,
        contents: vec![(params.file_size, params.seed)],
        chunk_size: params.chunk_size,
        edges: (0..nets)
            .map(|i| EdgeSpec {
                cache_bytes: 256 * MB,
                vnf: params.vnf_deployed.then(|| make_vnf(i)),
                beacon_interval: SimDuration::from_millis(100),
                rss_model: Some((schedule.clone(), i)),
            })
            .collect(),
        clients: vec![ClientSpec {
            hid_seed: 3_000,
            objects: vec![0],
            config: client_config,
            beacon_timeout: NetworkSensor::default().beacon_timeout,
            radios: (0..nets).collect(),
            transitions: schedule.link_transitions(),
        }],
        // High-rate wired pipe; the bottleneck bandwidth is emulated with
        // a loss rate, exactly as in the paper's testbed.
        internet: LinkConfig::wired(100_000_000, params.internet_rtt / 2)
            .with_loss(params.internet_loss()),
        backhaul: LinkConfig::wired(1_000_000_000, SimDuration::from_millis(1)),
        radio: LinkConfig::wireless(
            params.wireless_bw_bps,
            SimDuration::from_millis(2),
            params.wireless_loss,
        ),
    }
}

/// Builds the testbed, runs one complete download and returns its
/// completion time in seconds — the kernel of every Fig. 6 / handoff /
/// ablation cell.
///
/// # Panics
///
/// Panics when the download does not finish and verify before
/// `deadline`: figure drivers abort on invalid runs rather than report
/// numbers from bad data.
pub(crate) fn download_secs(
    params: &ExperimentParams,
    schedule: &CoverageSchedule,
    config: SoftStageConfig,
    deadline: SimTime,
) -> f64 {
    let result = build(params, schedule, config).run(deadline);
    assert!(
        result.content_ok,
        "download must finish and verify (completion {:?}, chunks {})",
        result.completion, result.chunks_fetched
    );
    // `content_ok` implies completion; infinity keeps the unreachable arm
    // honest without a panic path.
    result.completion.map_or(f64::INFINITY, |t| t.as_secs_f64())
}

impl Testbed {
    /// Runs until the client finishes or `deadline` passes; returns the
    /// outcome.
    pub fn run(&mut self, deadline: SimTime) -> RunResult {
        let client = self.client;
        self.world.sim.run_while(deadline, |sim| {
            client_on(sim, client).is_some_and(SoftStageClient::is_done)
        });
        let app = self.client_app();
        RunResult {
            completion: app.stats().finished,
            chunks_fetched: app.fetched_chunks(),
            handoffs: app.roamer.handoffs,
            migrations: app.roamer.migrations,
            stats: app.stats().clone(),
            content_ok: self.content_ok(0),
        }
    }
}
