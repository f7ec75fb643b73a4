//! The emulated testbed (Fig. 4 of the paper).
//!
//! Topology:
//!
//! ```text
//!                          ┌── edge router A ──)))  radio A ──┐
//! server ── Internet ── core                                client
//!                          └── edge router B ──)))  radio B ──┘
//! ```
//!
//! Each edge router runs a Staging VNF inside its XCache and advertises it
//! in Network-Joining-Protocol beacons on its radio. The client's radio
//! links follow a [`CoverageSchedule`] (encounters / disconnections /
//! overlaps); the wired "Internet" segment carries the emulated bottleneck
//! (loss-throttled, as in the paper).

use simnet::{LinkConfig, LinkId, NodeId, SimDuration, SimTime, Simulator};
use softstage::{HandoffPolicy, SoftStageClient, SoftStageConfig, StagingVnf, VnfConfig, VnfStats};
use softstage_apps::build_origin;
use util::bytes::Bytes;
use vehicular::{BeaconApp, CoverageSchedule};
use xcache::Manifest;
use xia_addr::{Dag, Principal, Xid};
use xia_host::{EndHost, Host, HostConfig};
use xia_router::RouterNode;
use xia_wire::XiaPacket;

use crate::params::ExperimentParams;

/// A built testbed, ready to run.
pub struct Testbed {
    /// The simulator.
    pub sim: Simulator<XiaPacket>,
    /// The mobile client node.
    pub client: NodeId,
    /// The origin server node.
    pub server: NodeId,
    /// The core router node.
    pub core: NodeId,
    /// Edge router nodes, indexed like the schedule's networks.
    pub edges: Vec<NodeId>,
    /// Client radio links, one per edge network.
    pub radio_links: Vec<LinkId>,
    /// Manifest of the published file.
    pub manifest: Manifest,
    /// `(cid, origin DAG)` per chunk, in order.
    pub chunk_dags: Vec<(Xid, Dag)>,
    /// Whether the client runs the chunk-aware handoff policy (decides
    /// whether the trace oracle enforces handoff atomicity).
    pub chunk_aware: bool,
}

/// Outcome of one client run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Download completion time, if the client finished before the
    /// deadline.
    pub completion: Option<SimTime>,
    /// Chunks fetched.
    pub chunks_fetched: usize,
    /// Chunks fetched from staged edge copies.
    pub from_staged: u64,
    /// Chunks fetched from the origin.
    pub from_origin: u64,
    /// Handoffs performed.
    pub handoffs: u64,
    /// Active session migrations paid.
    pub migrations: u64,
    /// `(time, chunk index, from_staged)` completions.
    pub chunk_completions: Vec<(SimTime, usize, bool)>,
    /// Staging requests the VNFs rejected, as observed by the client.
    pub stage_rejects: u64,
    /// Times the client's circuit breaker opened against an edge.
    pub breaker_opens: u64,
    /// Time the staging path spent in each mode, in µs:
    /// `(Active, OriginFallback, Degraded)`.
    pub mode_dwell_us: (u64, u64, u64),
    /// Whether the delivered content digest matches the manifest's.
    pub content_ok: bool,
}

/// Deterministic pseudo-random content of `len` bytes.
pub(crate) fn generate_content(len: usize, seed: u64) -> Bytes {
    let mut rng = simnet::Rng::seed_from_u64(seed ^ 0xC0FFEE);
    let mut data = vec![0u8; len];
    rng.fill_bytes(&mut data);
    Bytes::from(data)
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
pub fn build_with_vnf(
    params: &ExperimentParams,
    schedule: &CoverageSchedule,
    client_config: SoftStageConfig,
    make_vnf: impl Fn(usize) -> VnfConfig,
) -> Testbed {
    let nets = params.edge_networks.max(schedule.networks).max(1);
    let mut sim = Simulator::new(params.seed);

    // --- identities ---
    let hid_server = Xid::new_random(Principal::Hid, 1_000);
    let nid_server = Xid::new_random(Principal::Nid, 1_000);
    let hid_core = Xid::new_random(Principal::Hid, 2_000);
    let nid_core = Xid::new_random(Principal::Nid, 2_000);
    let hid_client = Xid::new_random(Principal::Hid, 3_000);

    // --- origin server ---
    let content = generate_content(params.file_size, params.seed);
    let (server_host, manifest, chunk_dags) = build_origin(
        hid_server,
        nid_server,
        &content,
        params.chunk_size,
        xia_transport::TransportConfig::xia(),
    );
    drop(content);
    let server = sim.add_node(Box::new(EndHost::new(server_host)));

    // --- core router ---
    let core_host = Host::new(HostConfig::new(hid_core));
    let core = sim.add_node(Box::new(RouterNode::new(nid_core, core_host)));

    // --- edge routers with VNF + beacons ---
    let mut edges = Vec::new();
    let mut edge_ids = Vec::new();
    for i in 0..nets {
        let hid = Xid::new_random(Principal::Hid, 4_000 + i as u64);
        let nid = Xid::new_random(Principal::Nid, 4_000 + i as u64);
        let sid = Xid::new_random(Principal::Sid, 4_000 + i as u64);
        let mut host = Host::new(HostConfig::new(hid));
        let vnf_dag = if params.vnf_deployed {
            let vnf = StagingVnf::with_config(sid, make_vnf(i));
            let dag = vnf.service_dag(nid, hid);
            host.add_app(Box::new(vnf));
            Some(dag)
        } else {
            None
        };
        let mut beacon = BeaconApp::new(nid, hid, SimDuration::from_millis(100));
        beacon.staging_vnf = vnf_dag;
        beacon.rss_model = Some((schedule.clone(), i));
        host.add_app(Box::new(beacon));
        let node = sim.add_node(Box::new(RouterNode::new(nid, host)));
        edges.push(node);
        edge_ids.push((nid, hid));
    }

    // --- client ---
    let chunk_aware = client_config.policy == HandoffPolicy::ChunkAware;
    let client_app = SoftStageClient::new(chunk_dags.clone(), client_config);
    let mut client_host = Host::new(HostConfig::new(hid_client));
    client_host.add_app(Box::new(client_app));
    let client = sim.add_node(Box::new(EndHost::new(client_host)));

    // --- links ---
    // Internet segment: high-rate wired pipe; the bottleneck bandwidth is
    // emulated with a loss rate, exactly as in the paper's testbed.
    let l_server = sim.add_link(
        server,
        core,
        LinkConfig::wired(100_000_000, params.internet_rtt / 2).with_loss(params.internet_loss()),
    );
    sim.node_mut::<EndHost>(server)
        .unwrap()
        .host_mut()
        .set_attachment(Some(nid_server), Some(l_server));

    let mut radio_links = Vec::new();
    for (i, &edge) in edges.iter().enumerate() {
        let l_backhaul = sim.add_link(
            edges[i],
            core,
            LinkConfig::wired(1_000_000_000, SimDuration::from_millis(1)),
        );
        let l_radio = sim.add_link(
            client,
            edge,
            LinkConfig::wireless(
                params.wireless_bw_bps,
                SimDuration::from_millis(2),
                params.wireless_loss,
            )
            .starting_down(),
        );
        radio_links.push(l_radio);
        // Edge routing: everything unknown goes to the core.
        let (nid_i, _) = edge_ids[i];
        let router = sim.node_mut::<RouterNode>(edge).unwrap();
        router.routes_mut().set_default(l_backhaul);
        // Beacon app transmits on the radio.
        router
            .host_mut()
            .app_mut::<BeaconApp>(if params.vnf_deployed { 1 } else { 0 })
            .expect("beacon app present")
            .radio_links
            .push(l_radio);
        // Core routing towards this edge.
        let core_router = sim.node_mut::<RouterNode>(core).unwrap();
        core_router.routes_mut().add_route(nid_i, l_backhaul);
        core_router
            .routes_mut()
            .add_route(edge_ids[i].1, l_backhaul);
    }
    {
        let core_router = sim.node_mut::<RouterNode>(core).unwrap();
        core_router.routes_mut().add_route(nid_server, l_server);
        core_router.routes_mut().add_route(hid_server, l_server);
    }

    // --- coverage schedule drives radio link state ---
    for (t, net, up) in schedule.link_transitions() {
        if net < radio_links.len() {
            sim.schedule_link_state(t, radio_links[net], up);
        }
    }

    Testbed {
        sim,
        client,
        server,
        core,
        edges,
        radio_links,
        manifest,
        chunk_dags,
        chunk_aware,
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
    result.completion.expect("checked").as_secs_f64()
}

impl Testbed {
    /// Attaches the simulator's flight recorder with room for `capacity`
    /// records. Call before [`Testbed::run`].
    pub fn enable_trace(&mut self, capacity: usize) {
        self.sim.enable_trace(capacity);
    }

    /// The recorded trace as JSON lines (empty when tracing is off).
    pub fn trace_jsonl(&self) -> String {
        self.sim
            .trace()
            .map(simnet::TraceSink::to_jsonl)
            .unwrap_or_default()
    }

    /// Audits every event the run recorded against the invariant oracle,
    /// including the per-link stats cross-check (no violations when
    /// tracing is off). The handoff-atomicity rule applies only under the
    /// chunk-aware policy — the legacy policy legitimately switches
    /// networks mid-chunk.
    pub fn audit_trace(&self) -> Vec<simnet::Violation> {
        let mut oracle = simnet::TraceOracle::new();
        if !self.chunk_aware {
            oracle = oracle.without_handoff_atomicity();
        }
        self.sim.audit_trace(&oracle)
    }

    /// Counters of every deployed Staging VNF, in edge order (empty when
    /// `vnf_deployed` is off).
    pub fn vnf_stats(&self) -> Vec<VnfStats> {
        self.edges
            .iter()
            .filter_map(|&edge| {
                self.sim
                    .node::<RouterNode>(edge)
                    .and_then(|r| r.host().app::<StagingVnf>(0))
                    .map(StagingVnf::stats)
            })
            .collect()
    }

    /// In-flight staging-job count of every deployed VNF, in edge order.
    /// A drained testbed (download finished, no faults pending) reports
    /// all zeros — overload tests assert the queues empty out.
    pub fn vnf_queue_depths(&self) -> Vec<usize> {
        self.edges
            .iter()
            .filter_map(|&edge| {
                self.sim
                    .node::<RouterNode>(edge)
                    .and_then(|r| r.host().app::<StagingVnf>(0))
                    .map(StagingVnf::queue_depth)
            })
            .collect()
    }

    /// Current XCache capacity of every edge router, in edge order.
    /// `CacheSqueeze` faults show up here as the shrunken limit.
    pub fn edge_cache_capacities(&self) -> Vec<usize> {
        self.edges
            .iter()
            .filter_map(|&edge| {
                self.sim
                    .node::<RouterNode>(edge)
                    .map(|r| r.host().store().capacity_bytes())
            })
            .collect()
    }

    /// The client's SoftStage application.
    pub fn client_app(&self) -> &SoftStageClient {
        self.sim
            .node::<EndHost>(self.client)
            .expect("client node")
            .host()
            .app::<SoftStageClient>(0)
            .expect("client app")
    }

    /// Runs until the client finishes or `deadline` passes; returns the
    /// outcome.
    pub fn run(&mut self, deadline: SimTime) -> RunResult {
        let client = self.client;
        self.sim.run_while(deadline, |sim| {
            sim.node::<EndHost>(client)
                .and_then(|h| h.host().app::<SoftStageClient>(0))
                .is_some_and(|app| app.is_done())
        });
        let app = self.client_app();
        let stats = app.stats().clone();
        RunResult {
            completion: stats.finished,
            chunks_fetched: app.fetched_chunks(),
            from_staged: stats.from_staged,
            from_origin: stats.from_origin,
            handoffs: app.roamer.handoffs,
            migrations: app.roamer.migrations,
            chunk_completions: stats.chunk_completions.clone(),
            stage_rejects: stats.stage_rejects,
            breaker_opens: stats.breaker_opens,
            mode_dwell_us: (
                stats.dwell_active_us,
                stats.dwell_fallback_us,
                stats.dwell_degraded_us,
            ),
            content_ok: app.is_done() && app.content_digest() == self.manifest.digest(),
        }
    }
}
