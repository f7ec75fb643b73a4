//! The content digest only ever covers chunks their fetcher verified.

use simnet::{LinkConfig, SimDuration, SimTime, Simulator};
use softstage_apps::{build_origin, SeqFetcher};
use util::bytes::Bytes;
use xcache::ContentDigest;
use xia_addr::{Principal, Xid};
use xia_host::{EndHost, Host, HostConfig};
use xia_wire::XiaPacket;

const CHUNK: usize = 64 * 1024;

/// An origin serves chunk 0 intact and an impostor body under chunk 1's
/// CID. The fetcher's per-chunk check turns the impostor into
/// `FetchResult::Failed` (retried, never completed), so the digest stops at
/// the one verified chunk.
#[test]
fn mismatched_body_fails_the_fetch_and_never_reaches_the_digest() {
    let nid = Xid::new_random(Principal::Nid, 1);
    let content = Bytes::from((0..2 * CHUNK).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let (mut origin, manifest, dags) = build_origin(
        Xid::new_random(Principal::Hid, 1),
        nid,
        &content,
        CHUNK,
        Default::default(),
    );
    origin
        .store_mut()
        .publish(manifest.chunks[1], Bytes::from(vec![0xEE; CHUNK]));
    let mut client = Host::new(HostConfig::new(Xid::new_random(Principal::Hid, 2)));
    client.add_app(Box::new(SeqFetcher::new(
        dags.into_iter().map(|(_, dag)| dag).collect(),
    )));

    let mut sim: Simulator<XiaPacket> = Simulator::new(3);
    let origin = sim.add_node(Box::new(EndHost::new(origin)));
    let client = sim.add_node(Box::new(EndHost::new(client)));
    let link = sim.add_link(
        client,
        origin,
        LinkConfig::wired(100_000_000, SimDuration::from_millis(1)),
    );
    for node in [origin, client] {
        sim.node_mut::<EndHost>(node)
            .expect("end host")
            .host_mut()
            .set_attachment(Some(nid), Some(link));
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));

    let fetcher = sim
        .node::<EndHost>(client)
        .and_then(|n| n.host().app::<SeqFetcher>(0))
        .expect("fetcher app");
    assert_eq!(fetcher.completions.len(), 1, "only chunk 0 verifies");
    assert_eq!(fetcher.completions[0].1, manifest.chunks[0]);
    assert!(fetcher.failures >= 2, "the impostor fails every retry");
    assert!(!fetcher.is_done());
    assert_eq!(fetcher.bytes, CHUNK as u64);
    let mut verified = ContentDigest::new();
    verified.push(&manifest.chunks[0]);
    assert_eq!(fetcher.content_digest(), verified.finish());
    assert_ne!(fetcher.content_digest(), manifest.digest());
}
