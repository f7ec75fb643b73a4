//! Origin content server construction.

use util::bytes::Bytes;
use xcache::Manifest;
use xia_addr::{Dag, Xid};
use xia_host::{Host, HostConfig};

/// Builds an origin server host: publishes `content` as `chunk_size`
/// chunks into an unbounded pinned store and returns the host, the
/// manifest, and the ready-to-fetch chunk DAGs (`CID | NID : HID` with the
/// server as fallback).
///
/// # Examples
///
/// ```
/// use util::bytes::Bytes;
/// use xia_addr::{Principal, Xid};
///
/// let hid = Xid::new_random(Principal::Hid, 1);
/// let nid = Xid::new_random(Principal::Nid, 1);
/// let content = Bytes::from((0..4096u32).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
/// let (host, manifest, dags) =
///     softstage_apps::build_origin(hid, nid, &content, 1024, Default::default());
/// assert_eq!(manifest.len(), 4);
/// assert_eq!(dags.len(), 4);
/// assert_eq!(host.store().len(), 4);
/// ```
pub fn build_origin(
    hid: Xid,
    nid: Xid,
    content: &Bytes,
    chunk_size: usize,
    transport: xia_transport::TransportConfig,
) -> (Host, Manifest, Vec<(Xid, Dag)>) {
    let mut host = origin_host(hid, nid, transport);
    let manifest = host.publish_content(content, chunk_size);
    let dags = manifest
        .chunks
        .iter()
        .map(|cid| (*cid, Dag::cid_with_fallback(*cid, nid, hid)))
        .collect();
    (host, manifest, dags)
}

/// An origin server host with nothing published yet: an unbounded pinned
/// store, attached to network `nid`.
pub fn origin_host(hid: Xid, nid: Xid, transport: xia_transport::TransportConfig) -> Host {
    let mut config = HostConfig::new(hid);
    config.cache_capacity = usize::MAX;
    config.transport = transport;
    let mut host = Host::new(config);
    host.set_attachment(Some(nid), None);
    host
}
