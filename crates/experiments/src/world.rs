//! The one builder of the paper's Fig. 4 topology.
//!
//! ```text
//!                          ┌── edge router A ──)))  radio ──┐
//! origin ── Internet ── core                              clients
//!                          └── edge router B ──)))  radio ──┘
//! ```
//!
//! Each edge router holds one bounded XCache, optionally runs a Staging
//! VNF inside it, and advertises itself (and the VNF) in
//! Network-Joining-Protocol beacons on its radios. A client owns one radio
//! link per edge it can ever hear; the links start down and follow the
//! client's transitions. What differs between worlds is [`WorldSpec`]
//! data, and [`build`] has one code path: [`crate::testbed`] (one client
//! hearing every edge along a coverage schedule) and [`crate::fleet`] (N
//! parked clients, one edge each) are parameterisations of it that add
//! only their stop rule and result type.
#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "experiment-topology wiring errors are programmer errors; a mis-built world must abort, not simulate garbage"
)]

use simnet::{LinkConfig, LinkId, NodeId, SimDuration, SimTime, Simulator};
use softstage::{HandoffPolicy, SoftStageClient, SoftStageConfig, StagingVnf, VnfConfig, VnfStats};
use softstage_apps::{origin_host, publish};
use util::bytes::Bytes;
use vehicular::{BeaconApp, CoverageSchedule};
use xcache::{ContentDigest, Manifest};
use xia_addr::{Dag, Principal, Xid};
use xia_host::{EndHost, Host, HostConfig};
use xia_router::RouterNode;
use xia_transport::TransportConfig;
use xia_wire::XiaPacket;

/// One edge router.
pub struct EdgeSpec {
    /// XCache capacity in bytes.
    pub cache_bytes: usize,
    /// The Staging VNF this edge deploys and advertises, if any.
    pub vnf: Option<VnfConfig>,
    /// Beacon period.
    pub beacon_interval: SimDuration,
    /// The signal strength its beacons report over time, as `(schedule,
    /// network index)`; `None` is a flat default.
    pub rss_model: Option<(CoverageSchedule, usize)>,
}

/// One mobile client.
#[derive(Clone)]
pub struct ClientSpec {
    /// Seed of the client's HID.
    pub hid_seed: u64,
    /// The objects it downloads, in order, as [`WorldSpec::contents`]
    /// indices.
    pub objects: Vec<usize>,
    /// Client configuration.
    pub config: SoftStageConfig,
    /// How long its sensor keeps a network alive between beacons.
    pub beacon_timeout: SimDuration,
    /// The edges it has a radio link to, by index.
    pub radios: Vec<usize>,
    /// `(time, index into radios, up)` link-state transitions, in the
    /// order they are scheduled. Every radio link starts down.
    pub transitions: Vec<(SimTime, usize, bool)>,
}

/// Everything [`build`] wires a world from.
pub struct WorldSpec {
    /// Simulator seed.
    pub seed: u64,
    /// The objects the origin publishes, as `(bytes, content seed)`: each
    /// is generated, published and dropped in turn.
    pub contents: Vec<(usize, u64)>,
    /// Bytes per chunk, for every object.
    pub chunk_size: usize,
    /// The edge routers.
    pub edges: Vec<EdgeSpec>,
    /// The clients.
    pub clients: Vec<ClientSpec>,
    /// The origin–core segment.
    pub internet: LinkConfig,
    /// Every edge–core segment.
    pub backhaul: LinkConfig,
    /// Every client–edge radio link.
    pub radio: LinkConfig,
}

/// A built world, ready to run.
pub struct World {
    /// The simulator.
    pub sim: Simulator<XiaPacket>,
    /// The origin server node.
    pub origin: NodeId,
    /// The core router node.
    pub core: NodeId,
    /// Edge router nodes, in [`WorldSpec::edges`] order.
    pub edges: Vec<NodeId>,
    /// Client nodes, in [`WorldSpec::clients`] order.
    pub clients: Vec<NodeId>,
    /// Radio links, client by client in [`ClientSpec::radios`] order.
    pub radio_links: Vec<LinkId>,
    /// What the origin published, object by object: the manifest and the
    /// ready-to-fetch chunk DAGs.
    pub catalog: Vec<(Manifest, Vec<(Xid, Dag)>)>,
    /// Per client, the [`ContentDigest`] a complete in-order download of
    /// its objects must reproduce.
    pub(crate) expected: Vec<[u8; 20]>,
    /// Per edge, its Staging VNF's app index as `Host::add_app` returned it.
    vnf_apps: Vec<Option<usize>>,
    /// Whether every client defers handoffs to chunk boundaries.
    chunk_aware: bool,
}

/// Deterministic pseudo-random content of `len` bytes.
pub(crate) fn generate_content(len: usize, seed: u64) -> Bytes {
    let mut rng = simnet::Rng::seed_from_u64(seed ^ 0xC0FFEE);
    let mut data = vec![0u8; len];
    rng.fill_bytes(&mut data);
    Bytes::from(data)
}

/// The SoftStage application on client node `node`, if it is one.
pub fn client_on(sim: &Simulator<XiaPacket>, node: NodeId) -> Option<&SoftStageClient> {
    sim.node::<EndHost>(node)?.host().app::<SoftStageClient>(0)
}

/// Builds the world `spec` describes. Nodes are added origin, core,
/// edges, clients; links origin, backhauls, then radios client by client.
///
/// # Panics
///
/// Panics on an object, edge or radio index out of range.
pub fn build(spec: WorldSpec) -> World {
    let mut sim = Simulator::new(spec.seed);

    // --- origin (every object published, pinned) and core router ---
    let hid_origin = Xid::new_random(Principal::Hid, 1_000);
    let nid_origin = Xid::new_random(Principal::Nid, 1_000);
    let mut origin_host = origin_host(hid_origin, nid_origin, TransportConfig::xia());
    let catalog: Vec<_> = spec
        .contents
        .iter()
        .map(|&(len, seed)| {
            let content = generate_content(len, seed);
            publish(&mut origin_host, nid_origin, &content, spec.chunk_size)
        })
        .collect();
    let origin = sim.add_node(Box::new(EndHost::new(origin_host)));
    let hid_core = Xid::new_random(Principal::Hid, 2_000);
    let nid_core = Xid::new_random(Principal::Nid, 2_000);
    let core_host = Host::new(HostConfig::new(hid_core));
    let core = sim.add_node(Box::new(RouterNode::new(nid_core, core_host)));
    let route_from_core = |sim: &mut Simulator<XiaPacket>, nid, hid, link| {
        let core = sim.node_mut::<RouterNode>(core).expect("core node");
        core.routes_mut().add_route(nid, link);
        core.routes_mut().add_route(hid, link);
    };
    let l_origin = sim.add_link(origin, core, spec.internet);
    sim.node_mut::<EndHost>(origin)
        .expect("origin node")
        .host_mut()
        .set_attachment(Some(nid_origin), Some(l_origin));
    route_from_core(&mut sim, nid_origin, hid_origin, l_origin);

    // --- edge routers: bounded cache, VNF, beacons, backhaul ---
    let mut edges = Vec::with_capacity(spec.edges.len());
    let mut vnf_apps = Vec::with_capacity(spec.edges.len());
    let mut beacon_apps = Vec::with_capacity(spec.edges.len());
    for (e, edge) in spec.edges.into_iter().enumerate() {
        let id_seed = 4_000 + e as u64;
        let hid = Xid::new_random(Principal::Hid, id_seed);
        let nid = Xid::new_random(Principal::Nid, id_seed);
        let mut config = HostConfig::new(hid);
        config.cache_capacity = edge.cache_bytes;
        let mut host = Host::new(config);
        let mut beacon = BeaconApp::new(nid, hid, edge.beacon_interval);
        beacon.rss_model = edge.rss_model;
        vnf_apps.push(edge.vnf.map(|config| {
            let vnf = StagingVnf::with_config(Xid::new_random(Principal::Sid, id_seed), config);
            beacon.staging_vnf = Some(vnf.service_dag(nid, hid));
            host.add_app(Box::new(vnf))
        }));
        beacon_apps.push(host.add_app(Box::new(beacon)));
        let node = sim.add_node(Box::new(RouterNode::new(nid, host)));
        let l_backhaul = sim.add_link(node, core, spec.backhaul);
        // Edge routing: everything unknown goes to the core.
        let router = sim.node_mut::<RouterNode>(node).expect("edge node");
        router.routes_mut().set_default(l_backhaul);
        route_from_core(&mut sim, nid, hid, l_backhaul);
        edges.push(node);
    }

    // --- clients, their radios and the transitions that drive them ---
    let mut chunk_aware = true;
    let mut clients = Vec::with_capacity(spec.clients.len());
    let mut expected = Vec::with_capacity(spec.clients.len());
    let mut radio_links = Vec::new();
    for client in spec.clients {
        chunk_aware &= client.config.policy == HandoffPolicy::ChunkAware;
        let chunk_dags: Vec<(Xid, Dag)> = client
            .objects
            .iter()
            .flat_map(|&o| catalog[o].1.iter().cloned())
            .collect();
        let mut digest = ContentDigest::new();
        for (cid, _) in &chunk_dags {
            digest.push(cid);
        }
        expected.push(digest.finish());
        let chunk_bytes = client.objects.iter().map(|&o| catalog[o].0.chunk_size);
        let chunk_bytes = chunk_bytes.max().unwrap_or(0);
        let mut app = SoftStageClient::new(chunk_dags, chunk_bytes, client.config);
        app.roamer.sensor.beacon_timeout = client.beacon_timeout;
        let hid = Xid::new_random(Principal::Hid, client.hid_seed);
        let mut host = Host::new(HostConfig::new(hid));
        host.add_app(Box::new(app));
        let node = sim.add_node(Box::new(EndHost::new(host)));
        clients.push(node);

        let first_radio = radio_links.len();
        for &e in &client.radios {
            let l_radio = sim.add_link(node, edges[e], spec.radio.starting_down());
            // The edge's beacons go out on every radio it serves.
            let router = sim.node_mut::<RouterNode>(edges[e]).expect("edge node");
            let beacon = router.host_mut().app_mut::<BeaconApp>(beacon_apps[e]);
            beacon.expect("beacon app").radio_links.push(l_radio);
            radio_links.push(l_radio);
        }
        for (at, radio, up) in client.transitions {
            sim.schedule_link_state(at, radio_links[first_radio + radio], up);
        }
    }

    World {
        sim,
        origin,
        core,
        edges,
        clients,
        radio_links,
        catalog,
        expected,
        vnf_apps,
        chunk_aware,
    }
}

impl World {
    /// Every client's SoftStage application, in client order.
    pub fn client_apps(&self) -> impl Iterator<Item = &SoftStageClient> {
        self.clients
            .iter()
            .map(|&node| client_on(&self.sim, node).expect("client app"))
    }

    /// The first client's application — *the* client of a one-client
    /// world.
    pub fn client_app(&self) -> &SoftStageClient {
        self.client_apps().next().expect("a world has a client")
    }

    /// Whether client `i` finished and delivered, chunk for chunk and in
    /// order, what the origin published.
    pub fn content_ok(&self, i: usize) -> bool {
        let app = client_on(&self.sim, self.clients[i]).expect("client app");
        app.is_done() && app.content_digest() == self.expected[i]
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
    /// tracing is off). `HandoffMidChunk` findings count only when every
    /// client runs the chunk-aware policy — the legacy policy
    /// legitimately switches networks mid-chunk.
    pub fn audit_trace(&self) -> Vec<simnet::Violation> {
        let mut violations = self.sim.audit_trace();
        if !self.chunk_aware {
            violations.retain(|v| v.kind != simnet::InvariantKind::HandoffMidChunk);
        }
        violations
    }

    /// Every edge router's host stack (XCache and apps), in edge order.
    pub(crate) fn edge_hosts(&self) -> impl Iterator<Item = &Host> {
        self.edges
            .iter()
            .map(|&edge| self.sim.node::<RouterNode>(edge).expect("edge node").host())
    }

    fn vnfs(&self) -> impl Iterator<Item = &StagingVnf> {
        self.edge_hosts()
            .zip(&self.vnf_apps)
            .filter_map(|(host, &app)| host.app::<StagingVnf>(app?))
    }

    /// Counters of every deployed Staging VNF, in edge order (empty when
    /// no edge deploys one).
    pub fn vnf_stats(&self) -> Vec<VnfStats> {
        self.vnfs().map(StagingVnf::stats).collect()
    }

    /// In-flight staging-job count of every deployed VNF, in edge order.
    /// A drained world (downloads finished, no faults pending) reports
    /// all zeros — overload tests assert the queues empty out.
    pub fn vnf_queue_depths(&self) -> Vec<usize> {
        self.vnfs().map(StagingVnf::queue_depth).collect()
    }

    /// Current XCache capacity of every edge router, in edge order.
    /// `CacheSqueeze` faults show up here as the shrunken limit.
    pub fn edge_cache_capacities(&self) -> Vec<usize> {
        self.edge_hosts()
            .map(|host| host.store().capacity_bytes())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use xia_addr::sha1;

    /// Content is a pure function of its seed: the hash pins the bytes
    /// earlier builds generated, so how `Rng::fill_bytes` writes them
    /// must not move it. The odd length ends in a partial word.
    #[test]
    fn generated_content_is_pinned() {
        let content = super::generate_content((1 << 20) + 5, 42);
        assert_eq!(
            sha1::to_hex(&sha1::sha1(&content)),
            "70129d90f9b1fd090fa0df5a02d4d8806b97677d"
        );
    }
}
