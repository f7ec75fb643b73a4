//! Fig. 5: the XIA transport benchmark.
//!
//! Transfers 10 MB between two directly linked hosts and reports
//! application-level throughput for:
//!
//! - **Linux TCP**: the transport without user-level processing overhead,
//! - **Xstream**: the XIA prototype model, one byte-stream-like transfer
//!   (a single 10 MB chunk connection),
//! - **XChunkP**: the same stack fetching five 2 MB chunks over separate
//!   connections (per-chunk handshake and teardown overhead).
//!
//! Both a wired (100 Mbps) and an 802.11n-class wireless segment are
//! measured, as in the paper.
#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "figure drivers abort on invalid runs (assert!-guarded) rather than plot numbers from bad data"
)]

use simnet::{LinkConfig, SimDuration, SimTime, Simulator};
use softstage_apps::{build_origin, SeqFetcher};
use util::bytes::Bytes;
use xia_addr::{Principal, Xid};
use xia_host::{EndHost, Host, HostConfig};
use xia_transport::TransportConfig;
use xia_wire::XiaPacket;

use crate::exec::{Cell, TableSpec};
use crate::params::{MB, MBPS};
use crate::world::generate_content;

/// Protocols measured in Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// Kernel TCP reference.
    LinuxTcp,
    /// XIA byte stream (single connection).
    Xstream,
    /// XIA chunk transfers (one connection per 2 MB chunk).
    XChunkP,
}

/// Link types measured in Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// 100 Mbps wired Ethernet.
    Wired,
    /// 802.11n-class wireless (with link-layer retransmission).
    Wireless,
}

/// Runs one Fig. 5 cell and returns application-level Mbps.
fn throughput(proto: Proto, segment: Segment, seed: u64) -> f64 {
    let total = 10 * MB;
    let chunk = match proto {
        Proto::XChunkP => 2 * MB,
        _ => total,
    };
    let transport = match proto {
        Proto::LinuxTcp => TransportConfig::linux_tcp(),
        _ => TransportConfig::xia(),
    };
    let link = match segment {
        Segment::Wired => LinkConfig::wired(100 * MBPS, SimDuration::from_millis(1)),
        // Light residual interference; ARQ hides it, as on a quiet 802.11n
        // channel.
        Segment::Wireless => LinkConfig::wireless(40 * MBPS, SimDuration::from_millis(2), 0.05),
    };

    let mut sim: Simulator<XiaPacket> = Simulator::new(seed);
    let hid_server = Xid::new_random(Principal::Hid, 1);
    let nid = Xid::new_random(Principal::Nid, 1);
    let hid_client = Xid::new_random(Principal::Hid, 2);

    let content: Bytes = generate_content(total, seed);
    let (server_host, _manifest, dags) =
        build_origin(hid_server, nid, &content, chunk, transport.clone());
    drop(content);

    let mut client_config = HostConfig::new(hid_client);
    client_config.transport = transport;
    let mut client_host = Host::new(client_config);
    client_host.add_app(Box::new(SeqFetcher::new(
        dags.into_iter().map(|(_, d)| d).collect(),
    )));

    let server = sim.add_node(Box::new(EndHost::new(server_host)));
    let client = sim.add_node(Box::new(EndHost::new(client_host)));
    let l = sim.add_link(client, server, link);
    sim.node_mut::<EndHost>(server)
        .unwrap()
        .host_mut()
        .set_attachment(Some(nid), Some(l));
    sim.node_mut::<EndHost>(client)
        .unwrap()
        .host_mut()
        .set_attachment(Some(nid), Some(l));

    sim.run_while(SimTime::ZERO + SimDuration::from_secs(120), |s| {
        s.node::<EndHost>(client)
            .and_then(|h| h.host().app::<SeqFetcher>(0))
            .is_some_and(|f| f.is_done())
    });
    let fetcher = sim
        .node::<EndHost>(client)
        .unwrap()
        .host()
        .app::<SeqFetcher>(0)
        .unwrap();
    let finished = fetcher
        .finished_at()
        .expect("10 MB transfer finishes well within 120 s");
    assert_eq!(fetcher.bytes as usize, total, "all bytes delivered");
    (total as f64 * 8.0) / finished.as_secs_f64() / 1e6
}

/// Paper-reported Fig. 5 values (Mbps).
fn paper_value(proto: Proto, segment: Segment) -> f64 {
    match (proto, segment) {
        (Proto::LinuxTcp, Segment::Wired) => 95.0,
        (Proto::Xstream, Segment::Wired) => 66.0,
        (Proto::XChunkP, Segment::Wired) => 56.0,
        (Proto::LinuxTcp, Segment::Wireless) => 28.0,
        (Proto::Xstream, Segment::Wireless) => 22.0,
        (Proto::XChunkP, Segment::Wireless) => 19.0,
    }
}

/// The figure as one cell per (protocol, segment) pair.
pub fn spec() -> TableSpec {
    let mut spec = TableSpec::new("fig5", "XIA benchmark: 10 MB transfer throughput", "Mbps");
    for segment in [Segment::Wired, Segment::Wireless] {
        for proto in [Proto::LinuxTcp, Proto::Xstream, Proto::XChunkP] {
            spec = spec.cell(Cell::new(
                format!("{proto:?}-{segment:?}").to_lowercase(),
                format!("{proto:?}/{segment:?}"),
                Some(paper_value(proto, segment)),
                move |seed| throughput(proto, segment, seed),
            ));
        }
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wired_ordering_matches_paper() {
        let tcp = throughput(Proto::LinuxTcp, Segment::Wired, 1);
        let xstream = throughput(Proto::Xstream, Segment::Wired, 1);
        let xchunkp = throughput(Proto::XChunkP, Segment::Wired, 1);
        assert!(
            tcp > xstream && xstream > xchunkp,
            "ordering: tcp {tcp:.1} > xstream {xstream:.1} > xchunkp {xchunkp:.1}"
        );
        // Rough magnitudes: TCP close to line rate, Xstream capped by the
        // user-level stack.
        assert!(tcp > 80.0 && tcp < 100.0, "tcp {tcp:.1}");
        assert!(xstream > 55.0 && xstream < 75.0, "xstream {xstream:.1}");
    }

    #[test]
    fn wireless_is_link_limited() {
        let tcp = throughput(Proto::LinuxTcp, Segment::Wireless, 1);
        let xchunkp = throughput(Proto::XChunkP, Segment::Wireless, 1);
        assert!(tcp > 18.0 && tcp < 38.0, "tcp {tcp:.1}");
        assert!(
            xchunkp < tcp,
            "chunking overhead shows: {xchunkp:.1} < {tcp:.1}"
        );
    }
}
