//! Quickstart: publish content on an origin server, fetch it over a
//! simulated link with XIA chunk transfers, verify integrity.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use simnet::{LinkConfig, SimDuration, Simulator};
use softstage_suite::apps::{build_origin, SeqFetcher};
use softstage_suite::xia_addr::{Principal, Xid};
use softstage_suite::xia_host::{EndHost, Host, HostConfig};
use softstage_suite::xia_wire::XiaPacket;
use util::bytes::Bytes;

fn main() {
    // 1. Identities: XIDs are self-certifying 160-bit names.
    let server_hid = Xid::new_random(Principal::Hid, 1);
    let server_nid = Xid::new_random(Principal::Nid, 1);
    let client_hid = Xid::new_random(Principal::Hid, 2);

    // 2. An origin server publishing 8 MB of content as 1 MB chunks.
    let content = Bytes::from(
        (0..8 * 1024 * 1024)
            .map(|i| (i % 251) as u8)
            .collect::<Vec<u8>>(),
    );
    let (server_host, manifest, dags) = build_origin(
        server_hid,
        server_nid,
        &content,
        1024 * 1024,
        Default::default(),
    );
    println!(
        "published {} chunks, e.g. {}",
        manifest.len(),
        dags[0].1 // the first chunk's `CID | NID : HID` address
    );
    // The manifest's digest commits to every chunk CID in order; each CID
    // in turn is the hash its fetch verifies the payload against.
    let digest = manifest.digest();

    // 3. A client that fetches every chunk sequentially (XChunkP-style).
    let mut client_host = Host::new(HostConfig::new(client_hid));
    client_host.add_app(Box::new(SeqFetcher::new(
        dags.into_iter().map(|(_, dag)| dag).collect(),
    )));

    // 4. Wire them together over a 100 Mbps link and run to completion.
    let mut sim: Simulator<XiaPacket> = Simulator::new(7);
    let server = sim.add_node(Box::new(EndHost::new(server_host)));
    let client = sim.add_node(Box::new(EndHost::new(client_host)));
    let link = sim.add_link(
        client,
        server,
        LinkConfig::wired(100_000_000, SimDuration::from_millis(5)),
    );
    sim.node_mut::<EndHost>(server)
        .unwrap()
        .host_mut()
        .set_attachment(Some(server_nid), Some(link));
    sim.node_mut::<EndHost>(client)
        .unwrap()
        .host_mut()
        .set_attachment(Some(server_nid), Some(link));
    sim.run();

    // 5. Inspect the download.
    let fetcher = sim
        .node::<EndHost>(client)
        .unwrap()
        .host()
        .app::<SeqFetcher>(0)
        .unwrap();
    let finished = fetcher.finished_at().expect("download completed");
    println!(
        "downloaded {} bytes in {:.3} s ({:.1} Mbps), integrity {}",
        fetcher.bytes,
        finished.as_secs_f64(),
        fetcher.bytes as f64 * 8.0 / finished.as_secs_f64() / 1e6,
        if fetcher.content_digest() == digest {
            "verified"
        } else {
            "FAILED"
        }
    );
    for (t, cid, latency) in &fetcher.completions {
        println!("  {} at {:>8} (took {})", cid.short(), t, latency);
    }
}
