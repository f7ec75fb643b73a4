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
use softstage_apps::origin_host;
use util::bytes::Bytes;
use util::sync::pipelined_map;
use vehicular::{BeaconApp, CoverageSchedule};
use xcache::{ContentDigest, Manifest};
use xia_addr::{sha1, Dag, Principal, Xid};
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
    /// The objects the origin publishes, as `(bytes, content seed)`.
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

/// One object's deterministic pseudo-random bytes, handed out in pieces:
/// the pieces joined are one `Rng::fill_bytes` over the whole object.
struct ContentStream {
    rng: simnet::Rng,
    /// The word a piece ended inside of; its last `spare` bytes start the
    /// next piece.
    word: [u8; 8],
    spare: usize,
}

impl ContentStream {
    fn new(seed: u64) -> Self {
        ContentStream {
            rng: simnet::Rng::seed_from_u64(seed ^ 0xC0FFEE),
            word: [0; 8],
            spare: 0,
        }
    }

    /// The stream's next `len` bytes, in a buffer of their own.
    fn take(&mut self, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        let carried = len.min(self.spare);
        let from = 8 - self.spare;
        buf[..carried].copy_from_slice(&self.word[from..from + carried]);
        self.spare -= carried;
        let rest = &mut buf[carried..];
        let (words, tail) = rest.split_at_mut(rest.len() & !7);
        self.rng.fill_bytes(words);
        if !tail.is_empty() {
            self.rng.fill_bytes(&mut self.word);
            tail.copy_from_slice(&self.word[..tail.len()]);
            self.spare = 8 - tail.len();
        }
        buf
    }
}

/// Generates the objects `contents` names, as `(bytes, content seed)`,
/// and publishes each on `host`, the origin of network `nid`, as
/// `chunk_size` chunks. Returns each object's manifest and ready-to-fetch
/// chunk DAGs (`CID | NID : HID` with the origin as fallback).
///
/// Every chunk is its own allocation. The calling thread generates the
/// next chunk while one worker SHA-1s the last ([`pipelined_map`]); each
/// digest is then recorded in its chunk's memo, so naming and every later
/// fetch of a published chunk read it rather than hash again.
///
/// # Panics
///
/// Panics if `chunk_size` is zero.
pub(crate) fn publish_catalog(
    host: &mut Host,
    nid: Xid,
    contents: &[(usize, u64)],
    chunk_size: usize,
) -> Vec<(Manifest, Vec<(Xid, Dag)>)> {
    assert!(chunk_size > 0, "chunk size must be positive");
    let chunks = contents.iter().flat_map(|&(len, seed)| {
        let mut stream = ContentStream::new(seed);
        (0..len)
            .step_by(chunk_size)
            .map(move |at| stream.take(chunk_size.min(len - at)))
    });
    let mut hashed = pipelined_map(chunks, |chunk| {
        let digest = sha1::sha1(&chunk);
        (chunk, digest)
    })
    .into_iter();
    let hid = host.hid();
    let store = host.store_mut();
    contents
        .iter()
        .map(|&(len, _)| {
            let dags: Vec<(Xid, Dag)> = hashed
                .by_ref()
                .take(len.div_ceil(chunk_size))
                .map(|(chunk, digest)| {
                    let chunk = Bytes::from(chunk);
                    chunk.memo_digest(|_| digest);
                    let cid = Xid::for_bytes(&chunk);
                    store.publish(cid, chunk);
                    (cid, Dag::cid_with_fallback(cid, nid, hid))
                })
                .collect();
            let manifest = Manifest {
                chunks: dags.iter().map(|&(cid, _)| cid).collect(),
                chunk_size,
                total_len: len as u64,
            };
            (manifest, dags)
        })
        .collect()
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
    let catalog = publish_catalog(
        &mut origin_host,
        nid_origin,
        &spec.contents,
        spec.chunk_size,
    );
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
    use super::*;
    use softstage_apps::origin_host;
    use xia_addr::sha1::Sha1;

    fn origin() -> (Host, Xid) {
        let hid = Xid::new_random(Principal::Hid, 1);
        let nid = Xid::new_random(Principal::Nid, 1);
        (origin_host(hid, nid, TransportConfig::xia()), nid)
    }

    /// The published chunks of `manifest`, in order.
    fn chunks_of(host: &mut Host, manifest: &Manifest) -> Vec<Bytes> {
        let store = host.store_mut();
        let chunk = |cid| store.get(cid).expect("published");
        manifest.chunks.iter().map(chunk).collect()
    }

    /// Publishes `contents` and checks each object against the
    /// whole-object generator: its chunks joined are one
    /// `Rng::fill_bytes` over the object, and its manifest is
    /// `chunk_content`'s of that buffer.
    fn assert_catalog_is_whole_objects(contents: &[(usize, u64)], chunk_size: usize) {
        let (mut host, nid) = origin();
        let catalog = publish_catalog(&mut host, nid, contents, chunk_size);
        assert_eq!(catalog.len(), contents.len());
        for (&(len, seed), (manifest, dags)) in contents.iter().zip(&catalog) {
            let mut whole = vec![0u8; len];
            simnet::Rng::seed_from_u64(seed ^ 0xC0FFEE).fill_bytes(&mut whole);
            let chunks = chunks_of(&mut host, manifest);
            let joined: Vec<u8> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
            assert!(joined == whole, "len {len} seed {seed} chunk {chunk_size}");
            let (expected, _) = xcache::chunk_content(&Bytes::from(whole), chunk_size);
            assert_eq!(*manifest, expected, "len {len} chunk {chunk_size}");
            let cids: Vec<Xid> = dags.iter().map(|&(cid, _)| cid).collect();
            assert_eq!(cids, manifest.chunks);
        }
    }

    #[test]
    fn catalog_chunks_are_one_stream_per_object() {
        util::check::check("catalog_chunks_are_one_stream_per_object", 64, |g| {
            let chunk_size = if g.bool() {
                *g.choose(&[1, 3, 7, 13])
            } else {
                g.usize_in(1, 64)
            };
            let contents = g.vec_of(0, 3, |g| (g.usize_in(0, 300), g.u64()));
            assert_catalog_is_whole_objects(&contents, chunk_size);
        });
    }

    #[test]
    fn catalog_splits_words_across_megabyte_chunks() {
        let chunk_size = (1 << 20) + 5;
        let contents = [
            (0, 1),
            (1_000, 2),
            (2 * chunk_size + 13, 3),
            (chunk_size, 4),
        ];
        assert_catalog_is_whole_objects(&contents, chunk_size);
    }

    /// Content is a pure function of its seed: the hash pins the bytes
    /// earlier builds generated, so neither how `Rng::fill_bytes` writes
    /// them nor where the catalog cuts chunks may move it. The odd length
    /// ends in a partial word, and the odd chunk size splits words.
    #[test]
    fn generated_content_is_pinned() {
        let (mut host, nid) = origin();
        let catalog = publish_catalog(&mut host, nid, &[((1 << 20) + 5, 42)], (64 << 10) + 3);
        let mut content = Sha1::new();
        for chunk in chunks_of(&mut host, &catalog[0].0) {
            content.update(&chunk);
        }
        assert_eq!(
            sha1::to_hex(&content.finalize()),
            "70129d90f9b1fd090fa0df5a02d4d8806b97677d"
        );
    }

    /// Building a world hashes each chunk once, on the catalog's worker:
    /// naming a published chunk, whole or as a full-range view, reads the
    /// recorded digest, and that digest is the chunk's SHA-1.
    #[test]
    fn published_chunks_carry_their_digest() {
        let link = LinkConfig::wired(1_000_000, SimDuration::from_millis(1));
        let mut world = build(WorldSpec {
            seed: 7,
            contents: vec![(100_003, 1), (5, 2), (0, 3), (65_536, 1)],
            chunk_size: 8_191,
            edges: Vec::new(),
            clients: Vec::new(),
            internet: link,
            backhaul: link,
            radio: link,
        });
        let origin = world.origin;
        let host = world
            .sim
            .node_mut::<EndHost>(origin)
            .expect("origin")
            .host_mut();
        let mut published = 0;
        for (manifest, _) in &world.catalog {
            for (cid, chunk) in manifest.chunks.iter().zip(chunks_of(host, manifest)) {
                let unhashed =
                    |_: &[u8]| -> [u8; 20] { unreachable!("a published chunk is hashed again") };
                let digest = chunk.memo_digest(unhashed);
                assert_eq!(
                    digest,
                    sha1::sha1(&chunk),
                    "the recorded digest is the chunk's SHA-1"
                );
                assert_eq!(chunk.slice(..).memo_digest(unhashed), digest);
                assert_eq!(cid.id(), &digest);
                published += 1;
            }
        }
        assert_eq!(published, 13 + 1 + 0 + 9);
    }
}
