//! End-to-end chunk fetches between two host stacks over simulated links.

use simnet::{LinkConfig, SimDuration, SimTime, Simulator};
use util::bytes::Bytes;
use xcache::Manifest;
use xia_addr::{Dag, Principal, Xid};
use xia_host::{App, EndHost, FetchResult, Host, HostConfig, HostCtx};
use xia_wire::XiaPacket;

/// Fetches a list of chunk DAGs sequentially, recording results.
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

    fn on_fetch_complete(
        &mut self,
        ctx: &mut HostCtx<'_>,
        _handle: u64,
        cid: Xid,
        result: FetchResult,
    ) {
        self.completions.push((cid, result, ctx.now()));
        self.fetch_next(ctx);
    }
}

struct World {
    sim: Simulator<XiaPacket>,
    client: simnet::NodeId,
    server: simnet::NodeId,
    link: simnet::LinkId,
    manifest: Manifest,
    content: Bytes,
}

/// Adds `a` and `b` as end hosts of network `nid`, joined by one link.
fn join(
    sim: &mut Simulator<XiaPacket>,
    nid: Xid,
    [a, b]: [Host; 2],
    link: LinkConfig,
) -> (simnet::NodeId, simnet::NodeId, simnet::LinkId) {
    let a = sim.add_node(Box::new(EndHost::new(a)));
    let b = sim.add_node(Box::new(EndHost::new(b)));
    let l = sim.add_link(a, b, link);
    for node in [a, b] {
        sim.node_mut::<EndHost>(node)
            .unwrap()
            .host_mut()
            .set_attachment(Some(nid), Some(l));
    }
    (a, b, l)
}

/// The link the tests that do not care about the link use.
fn lan() -> LinkConfig {
    LinkConfig::wired(10_000_000, SimDuration::from_millis(1))
}

fn build_world(content_len: usize, chunk_size: usize, link: LinkConfig) -> World {
    let mut sim = Simulator::new(11);
    let server_hid = Xid::new_random(Principal::Hid, 1);
    let client_hid = Xid::new_random(Principal::Hid, 2);
    let nid = Xid::new_random(Principal::Nid, 9);

    let mut server_host = Host::new(HostConfig::new(server_hid));
    let content = Bytes::from(
        (0..content_len)
            .map(|i| (i % 249) as u8)
            .collect::<Vec<u8>>(),
    );
    let manifest = server_host.publish_content(&content, chunk_size);

    let dags: Vec<Dag> = manifest
        .chunks
        .iter()
        .map(|cid| Dag::cid_with_fallback(*cid, nid, server_hid))
        .collect();

    let mut client_host = Host::new(HostConfig::new(client_hid));
    client_host.add_app(Box::new(SeqFetcher::new(dags)));

    let (server, client, l) = join(&mut sim, nid, [server_host, client_host], link);
    World {
        sim,
        client,
        server,
        link: l,
        manifest,
        content,
    }
}

fn completions(
    world: &Simulator<XiaPacket>,
    node: simnet::NodeId,
) -> &[(Xid, FetchResult, SimTime)] {
    &world
        .node::<EndHost>(node)
        .unwrap()
        .host()
        .app::<SeqFetcher>(0)
        .unwrap()
        .completions
}

#[test]
fn fetches_all_chunks_and_reassembles() {
    let mut w = build_world(
        1_000_000,
        200_000,
        LinkConfig::wired(100_000_000, SimDuration::from_millis(5)),
    );
    w.sim.run();
    let done = completions(&w.sim, w.client);
    assert_eq!(done.len(), 5);
    let mut body = Vec::new();
    for (i, (cid, result, _)) in done.iter().enumerate() {
        assert_eq!(*cid, w.manifest.chunks[i], "in manifest order");
        match result {
            FetchResult::Complete(bytes) => body.extend_from_slice(bytes),
            other => panic!("chunk {i} failed: {other:?}"),
        }
    }
    assert_eq!(Bytes::from(body), w.content);
    // Server served every chunk.
    let server = w.sim.node::<EndHost>(w.server).unwrap().host();
    assert_eq!(server.server().served(), 5);
    // All connections torn down.
    assert_eq!(server.active_connections(), 0);
    assert_eq!(
        w.sim
            .node::<EndHost>(w.client)
            .unwrap()
            .host()
            .active_connections(),
        0
    );
}

#[test]
fn fetch_over_lossy_wireless_link_completes() {
    let mut w = build_world(
        400_000,
        100_000,
        LinkConfig::wireless(30_000_000, SimDuration::from_millis(2), 0.27),
    );
    w.sim.run();
    let done = completions(&w.sim, w.client);
    assert_eq!(done.len(), 4);
    assert!(done
        .iter()
        .all(|(_, r, _)| matches!(r, FetchResult::Complete(_))));
}

#[test]
fn missing_chunk_reports_not_found() {
    let mut sim = Simulator::new(3);
    let server_hid = Xid::new_random(Principal::Hid, 1);
    let client_hid = Xid::new_random(Principal::Hid, 2);
    let nid = Xid::new_random(Principal::Nid, 9);
    let server_host = Host::new(HostConfig::new(server_hid));
    let missing = Xid::for_content(b"never published");
    let dag = Dag::cid_with_fallback(missing, nid, server_hid);
    let mut client_host = Host::new(HostConfig::new(client_hid));
    client_host.add_app(Box::new(SeqFetcher::new(vec![dag])));
    let (_, client, _) = join(&mut sim, nid, [server_host, client_host], lan());
    sim.run();
    let done = completions(&sim, client);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].1, FetchResult::NotFound);
}

/// A fetch across a link that dies mid-transfer eventually completes after
/// the link comes back (transport RTO recovery), exercising the vehicular
/// disconnection path.
#[test]
fn fetch_survives_link_outage() {
    let mut w = build_world(
        600_000,
        600_000,
        LinkConfig::wired(20_000_000, SimDuration::from_millis(2)),
    );
    // Kill the only link at 100 ms for 3 seconds.
    let link = w.link;
    w.sim
        .schedule_link_state(SimTime::from_micros(100_000), link, false);
    w.sim
        .schedule_link_state(SimTime::from_micros(3_100_000), link, true);
    w.sim.run();
    let done = completions(&w.sim, w.client);
    assert_eq!(done.len(), 1);
    assert!(matches!(done[0].1, FetchResult::Complete(_)));
    // Completion happened after the outage ended.
    assert!(done[0].2 > SimTime::from_micros(3_100_000));
}

/// Each stack is initiator of one connection and responder of another at
/// the same instant: which is which is decided per connection, by whether
/// the stack holds fetch state for it.
#[test]
fn a_stack_serves_and_fetches_at_once() {
    let mut sim = Simulator::new(17);
    let nid = Xid::new_random(Principal::Nid, 9);
    let hids = [1, 2].map(|s| Xid::new_random(Principal::Hid, s));
    let mut hosts = hids.map(|hid| Host::new(HostConfig::new(hid)));
    let cids = [0usize, 1].map(|i| {
        let content = Bytes::from(vec![i as u8 + 1; 300_000]);
        hosts[i].publish_content(&content, 300_000).chunks[0]
    });
    for i in [0, 1] {
        let dag = Dag::cid_with_fallback(cids[1 - i], nid, hids[1 - i]);
        hosts[i].add_app(Box::new(SeqFetcher::new(vec![dag])));
    }
    let (a, b, _) = join(&mut sim, nid, hosts, lan());
    sim.run();
    for (node, wanted) in [(a, cids[1]), (b, cids[0])] {
        let done = completions(&sim, node);
        assert_eq!(done.len(), 1, "one fetch, one report");
        assert_eq!(done[0].0, wanted);
        assert!(
            matches!(&done[0].1, FetchResult::Complete(bytes) if bytes.len() == 300_000),
            "fetch ended {:?}",
            done[0].1
        );
        let host = sim.node::<EndHost>(node).unwrap().host();
        assert_eq!(host.server().served(), 1);
        assert_eq!(host.active_connections(), 0);
    }
}

/// Fetches one 300 KB chunk over `lan()`, with `max_consecutive_rtos = 3`,
/// from a server that crashes for good at `crash_at`. Returns the chunk's
/// CID, what the fetcher was told and when, and how many connections the
/// client still holds once the world has drained.
fn fetch_from_a_server_crashing_at(
    crash_at: SimTime,
) -> (Xid, Vec<(Xid, FetchResult, SimTime)>, usize) {
    let mut sim = Simulator::new(19);
    let nid = Xid::new_random(Principal::Nid, 9);
    let server_hid = Xid::new_random(Principal::Hid, 1);
    let mut server_host = Host::new(HostConfig::new(server_hid));
    let content = Bytes::from(vec![7u8; 300_000]);
    let cid = server_host.publish_content(&content, 300_000).chunks[0];
    let mut config = HostConfig::new(Xid::new_random(Principal::Hid, 2));
    config.transport.max_consecutive_rtos = 3;
    let mut client_host = Host::new(config);
    let dag = Dag::cid_with_fallback(cid, nid, server_hid);
    client_host.add_app(Box::new(SeqFetcher::new(vec![dag])));
    let (server, client, _) = join(&mut sim, nid, [server_host, client_host], lan());
    let mut plan = simnet::FaultPlan::new();
    plan.push(simnet::Fault::Crash {
        node: server,
        at: crash_at,
        restart_after: None,
    });
    plan.apply(&mut sim);
    sim.run();
    let done = completions(&sim, client).to_vec();
    let host = sim.node::<EndHost>(client).unwrap().host();
    (cid, done, host.active_connections())
}

/// The server dies with the request in flight and never comes back: the
/// fetcher's transport gives up, and the app hears of it exactly once.
#[test]
fn fetch_from_a_host_that_crashed_for_good_fails_once() {
    // SYN out at 0, SYN-ACK back by ~2 ms, request on the wire after it.
    let (cid, done, live) = fetch_from_a_server_crashing_at(SimTime::from_micros(2_500));
    assert_eq!(done.len(), 1, "reported once: {done:?}");
    assert_eq!((done[0].0, &done[0].1), (cid, &FetchResult::Failed));
    assert!(done[0].2 > SimTime::from_micros(1_000_000), "after RTOs");
    assert_eq!(live, 0);
}

/// The server dies mid-response, after acknowledging the request, so the
/// fetcher has nothing in flight and arms no RTO. Only the idle bound —
/// (3 + 1) × 10 s after it last heard the server — ends the fetch, once.
#[test]
fn fetch_whose_server_dies_mid_response_fails_once_within_the_idle_bound() {
    let (cid, done, live) = fetch_from_a_server_crashing_at(SimTime::from_micros(100_000));
    assert_eq!(done.len(), 1, "reported once: {done:?}");
    assert_eq!((done[0].0, &done[0].1), (cid, &FetchResult::Failed));
    let bound = SimTime::from_micros(40_000_000)..SimTime::from_micros(41_000_000);
    assert!(bound.contains(&done[0].2), "failed at {}", done[0].2);
    assert_eq!(live, 0);
}

/// What a callback asks for is carried out in the order asked, and before
/// the next app's callback: a datagram sent after an attachment is
/// sourced from it, the second app already sees it, and tokens and
/// handles are numbered per host, not per app.
#[test]
fn effects_land_in_order_and_before_the_next_app_runs() {
    /// Attaches (if told to), writes to `peer`, asks for a chunk, and
    /// notes what its host looked like when it ran.
    struct Probe {
        attach: Option<(Xid, simnet::LinkId)>,
        peer: Dag,
        saw_nid: Option<Xid>,
        token: u64,
        handle: u64,
    }
    impl App for Probe {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            self.saw_nid = ctx.nid();
            if let Some((nid, link)) = self.attach {
                ctx.set_attachment(Some(nid), Some(link));
                assert_eq!(ctx.nid(), Some(nid), "the view reads its own writes");
            }
            self.token = ctx.send_control(self.peer.clone(), self.peer.intent(), Bytes::new());
            self.handle = ctx.xfetch_chunk(Dag::cid_with_fallback(
                Xid::for_content(b"absent"),
                self.peer.network().expect("peer has a network"),
                self.peer.intent(),
            ));
            assert_eq!(ctx.active_connection_count(), self.handle as usize);
        }
    }
    /// Records the source address and token of every datagram.
    #[derive(Default)]
    struct Inbox(Vec<(Dag, u64)>);
    impl App for Inbox {
        fn on_control(&mut self, _: &mut HostCtx<'_>, from: Dag, _: Xid, token: u64, _: &Bytes) {
            self.0.push((from, token));
        }
    }

    let mut sim = Simulator::new(23);
    let nid = Xid::new_random(Principal::Nid, 9);
    let (a_hid, b_hid) = (
        Xid::new_random(Principal::Hid, 1),
        Xid::new_random(Principal::Hid, 2),
    );
    let a = sim.add_node(Box::new(EndHost::new(Host::new(HostConfig::new(a_hid)))));
    let b = sim.add_node(Box::new(EndHost::new(Host::new(HostConfig::new(b_hid)))));
    let link = sim.add_link(a, b, lan());
    let b_host = sim.node_mut::<EndHost>(b).unwrap().host_mut();
    b_host.set_attachment(Some(nid), Some(link));
    b_host.add_app(Box::new(Inbox::default()));
    let a_host = sim.node_mut::<EndHost>(a).unwrap().host_mut();
    for attach in [Some((nid, link)), None] {
        a_host.add_app(Box::new(Probe {
            attach,
            peer: Dag::host(nid, b_hid),
            saw_nid: None,
            token: 0,
            handle: 0,
        }));
    }
    sim.run_until(SimTime::from_micros(100_000));

    let a_host = sim.node::<EndHost>(a).unwrap().host();
    let probes: Vec<&Probe> = (0..2).map(|i| a_host.app::<Probe>(i).unwrap()).collect();
    assert_eq!(probes[0].saw_nid, None);
    assert_eq!(probes[1].saw_nid, Some(nid), "attached by the first app");
    assert_eq!((probes[0].token, probes[0].handle), (1, 1));
    assert_eq!((probes[1].token, probes[1].handle), (2, 2));
    let inbox = sim.node::<EndHost>(b).unwrap().host().app::<Inbox>(0);
    let from = Dag::host(nid, a_hid);
    assert_eq!(inbox.unwrap().0, [(from.clone(), 1), (from, 2)]);
}

/// Arms its `(key, delay)` timer at first boot only, and notes every
/// timer it hears and when.
struct Alarm(Option<(u8, SimDuration)>, Vec<(u8, SimTime)>);

impl App for Alarm {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        if let Some((key, delay)) = self.0.take() {
            ctx.set_app_timer(delay, key);
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, key: u8) {
        self.1.push((key, ctx.now()));
    }
}

/// Runs one host with an `Alarm` per entry of `arms` under the faults
/// `plan` adds; returns what each alarm heard and when the run ended.
fn run_alarms(
    arms: &[(u8, SimDuration)],
    plan: impl FnOnce(simnet::NodeId, &mut simnet::FaultPlan),
) -> (Vec<Vec<(u8, SimTime)>>, SimTime) {
    let mut host = Host::new(HostConfig::new(Xid::new_random(Principal::Hid, 1)));
    for &arm in arms {
        host.add_app(Box::new(Alarm(Some(arm), Vec::new())));
    }
    let mut sim = Simulator::new(29);
    let node = sim.add_node(Box::new(EndHost::new(host)));
    let mut faults = simnet::FaultPlan::new();
    plan(node, &mut faults);
    faults.apply(&mut sim);
    sim.run();
    let host = sim.node::<EndHost>(node).unwrap().host();
    let heard = (0..arms.len()).map(|i| host.app::<Alarm>(i).unwrap().1.clone());
    (heard.collect(), sim.now())
}

/// A timer dies with the node that armed it, however many restarts
/// later it matures: the 256th does not bring it back.
#[test]
fn a_timer_armed_256_crashes_ago_never_fires() {
    let (heard, end) = run_alarms(&[(7, SimDuration::from_secs(1000))], |node, plan| {
        for i in 0..256 {
            let at = SimTime::from_micros((2 * i + 1) * 1_000_000);
            plan.push(simnet::Fault::Crash {
                node,
                at,
                restart_after: Some(SimDuration::from_secs(1)),
            });
        }
    });
    assert_eq!(end, SimTime::from_micros(1_000_000_000), "it matured");
    assert_eq!(heard[0], []);
}

/// 300 apps on one host each hear exactly their own timer.
#[test]
fn a_257th_app_is_accepted() {
    let arms: Vec<(u8, SimDuration)> = (0..300u64)
        .map(|i| (i as u8, SimDuration::from_millis(i + 1)))
        .collect();
    let (heard, _) = run_alarms(&arms, |_, _| {});
    for (heard, &(key, delay)) in heard.iter().zip(&arms) {
        assert_eq!(heard[..], [(key, SimTime::ZERO + delay)]);
    }
}
