//! Sans-IO chunk service endpoints.
//!
//! [`ChunkServer`] is the serving side embedded in every XCache (origin
//! servers, edge caches, router caches): it parses [`ChunkRequest`]s off
//! accepted connections and answers from a [`ChunkStore`].
//! [`ChunkFetcher`] is the client side of one fetch: it produces the
//! request bytes and consumes the response stream, verifying the chunk's
//! content hash on completion. The body it returns is a view of the bytes
//! the server sent — for a served chunk, of the server's stored
//! allocation — not a copy, so a staged chunk shares the publisher's.
//!
//! Both are pure state machines — the host stack moves bytes between them
//! and the transport.

use std::collections::BTreeMap;

use util::bytes::Bytes;
use xia_addr::Xid;
use xia_wire::ConnId;

use crate::proto::{ChunkRequest, ChunkResponseHeader, REQUEST_LEN, RESPONSE_HDR_LEN};
use crate::store::ChunkStore;

/// Output of the server state machine: what the host should do on which
/// connection.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerAction {
    /// Send bytes on the connection.
    Send(ConnId, Bytes),
    /// Close the send direction of the connection.
    Close(ConnId),
    /// Abort the connection (protocol violation).
    Abort(ConnId),
}

/// The serving side of the chunk protocol for one XCache.
#[derive(Debug, Default)]
pub struct ChunkServer {
    inbox: BTreeMap<ConnId, Vec<u8>>,
    served: u64,
    not_found: u64,
    /// (CID, bytes) pairs served since the last [`ChunkServer::take_served`],
    /// bounded by [`SERVED_LOG_CAP`].
    served_log: Vec<(Xid, u64)>,
}

/// Upper bound on the pending served-chunk log (drained by the host's
/// flight-recorder flush; entries beyond the cap are silently dropped).
const SERVED_LOG_CAP: usize = 4096;

impl ChunkServer {
    /// Creates an idle server.
    pub fn new() -> Self {
        ChunkServer::default()
    }

    /// Chunks served successfully so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Requests answered "not found" so far.
    #[cfg(test)]
    pub(crate) fn not_found(&self) -> u64 {
        self.not_found
    }

    /// Registers a newly accepted connection.
    pub fn on_incoming(&mut self, conn: ConnId) {
        self.inbox.entry(conn).or_default();
    }

    /// Feeds received bytes from `conn`; answers once a full request frame
    /// has arrived.
    pub fn on_data(
        &mut self,
        conn: ConnId,
        data: &Bytes,
        store: &mut ChunkStore,
    ) -> Vec<ServerAction> {
        let Some(buf) = self.inbox.get_mut(&conn) else {
            return vec![ServerAction::Abort(conn)];
        };
        buf.extend_from_slice(data);
        if buf.len() < REQUEST_LEN {
            return Vec::new();
        }
        let req = match ChunkRequest::decode(buf) {
            Ok(r) => r,
            Err(_) => {
                self.inbox.remove(&conn);
                return vec![ServerAction::Abort(conn)];
            }
        };
        self.inbox.remove(&conn);
        match store.get(&req.cid) {
            Some(chunk) => {
                self.served += 1;
                if self.served_log.len() < SERVED_LOG_CAP {
                    self.served_log.push((req.cid, chunk.len() as u64));
                }
                let hdr = ChunkResponseHeader {
                    cid: req.cid,
                    found: true,
                    len: chunk.len() as u64,
                };
                vec![
                    ServerAction::Send(conn, hdr.encode()),
                    ServerAction::Send(conn, chunk),
                    ServerAction::Close(conn),
                ]
            }
            None => {
                self.not_found += 1;
                let hdr = ChunkResponseHeader {
                    cid: req.cid,
                    found: false,
                    len: 0,
                };
                vec![
                    ServerAction::Send(conn, hdr.encode()),
                    ServerAction::Close(conn),
                ]
            }
        }
    }

    /// Forgets a connection that closed or failed.
    pub fn on_gone(&mut self, conn: ConnId) {
        self.inbox.remove(&conn);
    }

    /// Drains the (CID, bytes) pairs served since the last call, in serve
    /// order. Costs nothing when nothing was served. The host flushes this
    /// into the flight recorder after each dispatch.
    pub fn take_served(&mut self) -> Vec<(Xid, u64)> {
        std::mem::take(&mut self.served_log)
    }
}

/// Progress of a client-side chunk fetch.
#[derive(Debug, Clone, PartialEq)]
pub enum FetchProgress {
    /// More bytes are needed.
    InProgress,
    /// The responder does not have the chunk.
    NotFound,
    /// The chunk arrived and its content hash matches its CID.
    Complete(Bytes),
    /// The body did not match the CID, or the stream was malformed.
    Corrupt,
}

/// The client side of one chunk fetch over one connection.
///
/// The body is kept as the payload views the transport delivered, not
/// copied into a buffer: a payload that continues the last part in the
/// same allocation is [`Bytes::join`]ed onto it. A served chunk therefore
/// arrives as two parts — the first data segment, which the sender copied
/// because it straddles the response header and the chunk, and one view
/// of the stored chunk — and completes as a view of the stored chunk
/// (see [`ChunkFetcher::on_data`]).
#[derive(Debug)]
pub struct ChunkFetcher {
    cid: Xid,
    /// Response-header bytes, until [`RESPONSE_HDR_LEN`] have arrived.
    head: Vec<u8>,
    /// The body length the response header announced.
    len: Option<u64>,
    parts: Vec<Bytes>,
    received: u64,
    done: bool,
}

impl ChunkFetcher {
    /// Creates a fetcher for `cid`.
    pub fn new(cid: Xid) -> Self {
        ChunkFetcher {
            cid,
            head: Vec::new(),
            len: None,
            parts: Vec::new(),
            received: 0,
            done: false,
        }
    }

    /// The CID being fetched.
    pub fn cid(&self) -> Xid {
        self.cid
    }

    /// The request frame to send once connected.
    pub fn request_bytes(&self) -> Bytes {
        ChunkRequest { cid: self.cid }.encode()
    }

    /// Bytes of the body received so far (for partial-progress tracking
    /// across disconnections).
    #[cfg(test)]
    pub(crate) fn received_bytes(&self) -> usize {
        self.received as usize
    }

    /// Consumes response bytes; returns the new progress state.
    ///
    /// On completion the parts become one `Bytes`: a single part is the
    /// body; two parts are one view when the first equals the bytes just
    /// before the second in the second's allocation (the copied first
    /// segment of a served chunk), compared here, once, at most one
    /// segment long; anything else is copied once, at the size that
    /// arrived. The body is then checked against the CID
    /// ([`Xid::for_bytes`]): a body that is a view of a range its
    /// publisher hashed reads that digest, and a copy is hashed in full.
    pub fn on_data(&mut self, data: &Bytes) -> FetchProgress {
        if self.done {
            return FetchProgress::Corrupt;
        }
        let mut data = data.clone();
        let len = match self.len {
            Some(len) => len,
            None => {
                let take = (RESPONSE_HDR_LEN - self.head.len()).min(data.len());
                self.head
                    .extend_from_slice(data.get(..take).unwrap_or_default());
                data = data.slice(take..);
                if self.head.len() < RESPONSE_HDR_LEN {
                    return FetchProgress::InProgress;
                }
                match ChunkResponseHeader::decode(&self.head) {
                    Ok(hdr) if hdr.found => {
                        self.len = Some(hdr.len);
                        hdr.len
                    }
                    Ok(_) => {
                        self.done = true;
                        return FetchProgress::NotFound;
                    }
                    Err(_) => {
                        self.done = true;
                        return FetchProgress::Corrupt;
                    }
                }
            }
        };
        self.received += data.len() as u64;
        let last = self.parts.pop().unwrap_or_default();
        match last.join(&data) {
            Some(joined) => self.parts.push(joined),
            None => self.parts.extend([last, data]),
        }
        if self.received < len {
            return FetchProgress::InProgress;
        }
        self.done = true;
        if self.received > len {
            return FetchProgress::Corrupt;
        }
        let body = assemble(&std::mem::take(&mut self.parts));
        if Xid::for_bytes(&body) != self.cid {
            return FetchProgress::Corrupt;
        }
        FetchProgress::Complete(body)
    }
}

/// The body parts as one `Bytes` (see [`ChunkFetcher::on_data`]).
fn assemble(parts: &[Bytes]) -> Bytes {
    match parts {
        [body] => return body.clone(),
        [first, rest] => {
            let widened = rest
                .preceding(first.len())
                .filter(|before| before == first)
                .and_then(|before| before.join(rest));
            if let Some(body) = widened {
                return body;
            }
        }
        _ => {}
    }
    let mut body = Vec::with_capacity(parts.iter().map(Bytes::len).sum());
    for part in parts {
        body.extend_from_slice(part);
    }
    Bytes::from(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::EvictionPolicy;
    use xia_addr::Principal;

    fn conn(port: u64) -> ConnId {
        ConnId {
            initiator: Xid::new_random(Principal::Hid, 1),
            port,
        }
    }

    fn store_with(data: &Bytes) -> (ChunkStore, Xid) {
        let mut s = ChunkStore::new(1 << 20, EvictionPolicy::Lru);
        let cid = Xid::for_bytes(data);
        s.publish(cid, data.clone());
        (s, cid)
    }

    #[test]
    fn served_chunk_roundtrips_through_fetcher() {
        let data = Bytes::from(vec![9u8; 5000]);
        let (mut store, cid) = store_with(&data);
        let mut server = ChunkServer::new();
        let mut fetcher = ChunkFetcher::new(cid);
        let c = conn(1);
        server.on_incoming(c);
        let actions = server.on_data(c, &fetcher.request_bytes(), &mut store);
        assert_eq!(actions.len(), 3);
        assert!(matches!(actions[2], ServerAction::Close(_)));
        // Stream server sends into the fetcher, fragmented arbitrarily.
        let mut wire = Vec::new();
        for a in &actions {
            if let ServerAction::Send(_, b) = a {
                wire.extend_from_slice(b);
            }
        }
        let mut progress = FetchProgress::InProgress;
        for piece in wire.chunks(777) {
            progress = fetcher.on_data(&Bytes::copy_from_slice(piece));
        }
        // Seven separate allocations: assembled by one copy.
        let FetchProgress::Complete(body) = progress else {
            panic!("expected the chunk, got {progress:?}");
        };
        assert_eq!(body, data);
        assert_ne!(body.as_ptr(), data.as_ptr());
        assert_eq!(server.served(), 1);
    }

    /// Cuts the server's sends into `MSS` segments the way the transport's
    /// send buffer does: a segment inside one send is a view of it, and
    /// one that straddles two sends is a copy.
    fn segments(actions: &[ServerAction]) -> Vec<Bytes> {
        let sends: Vec<&Bytes> = actions
            .iter()
            .filter_map(|a| match a {
                ServerAction::Send(_, b) => Some(b),
                _ => None,
            })
            .collect();
        let wire: Vec<u8> = sends.iter().flat_map(|b| b.iter().copied()).collect();
        let mut out = Vec::new();
        let (mut at, mut block, mut block_start) = (0, 0, 0);
        while at < wire.len() {
            let end = (at + xia_wire::MSS).min(wire.len());
            while at >= block_start + sends[block].len() {
                block_start += sends[block].len();
                block += 1;
            }
            out.push(if end <= block_start + sends[block].len() {
                sends[block].slice(at - block_start..end - block_start)
            } else {
                Bytes::copy_from_slice(&wire[at..end])
            });
            at = end;
        }
        out
    }

    fn serve(data: &Bytes) -> (Xid, Vec<Bytes>) {
        let (mut store, cid) = store_with(data);
        let mut server = ChunkServer::new();
        let c = conn(6);
        server.on_incoming(c);
        let request = ChunkFetcher::new(cid).request_bytes();
        (cid, segments(&server.on_data(c, &request, &mut store)))
    }

    fn fetch(cid: Xid, segs: impl IntoIterator<Item = Bytes>) -> FetchProgress {
        let mut fetcher = ChunkFetcher::new(cid);
        let mut progress = FetchProgress::InProgress;
        for seg in segs {
            progress = fetcher.on_data(&seg);
        }
        progress
    }

    #[test]
    fn served_chunk_completes_as_a_view_of_the_stored_chunk() {
        // Chunks of one allocation and the whole of it: ranges that share
        // an allocation, and two that share a start.
        let content = Bytes::from((0..40_000u32).map(|i| (i % 251) as u8).collect::<Vec<_>>());
        let (_, mut chunks) = crate::chunk_content(&content, 16_000);
        chunks.push((Xid::for_bytes(&content), content.clone()));
        for (published, data) in chunks {
            assert_eq!(published, Xid::for_content(&data), "the publisher's CID");
            let (cid, segs) = serve(&data);
            let progress = fetch(cid, segs);
            let FetchProgress::Complete(body) = progress else {
                panic!("expected the chunk, got {progress:?}");
            };
            assert_eq!(body, data);
            assert_eq!(body.as_ptr(), data.as_ptr(), "no byte was copied");
            let digest = body.memo_digest(|_| unreachable!("the publisher hashed these bytes"));
            assert_eq!(digest, *cid.id());
        }
    }

    #[test]
    fn a_copied_body_with_one_flipped_byte_is_corrupt() {
        let data = Bytes::from((0..20_000u32).map(|i| (i % 251) as u8).collect::<Vec<_>>());
        let (cid, segs) = serve(&data);
        let copied = |flip: Option<usize>| {
            segs.iter().enumerate().map(move |(i, seg)| {
                let mut copy = seg.to_vec();
                if flip == Some(i) {
                    let mid = copy.len() / 2;
                    copy[mid] ^= 1;
                }
                Bytes::from(copy)
            })
        };
        let progress = fetch(cid, copied(None));
        let FetchProgress::Complete(body) = progress else {
            panic!("expected the chunk, got {progress:?}");
        };
        assert_eq!(body, data);
        assert_ne!(body.as_ptr(), data.as_ptr(), "a copy");
        for i in 0..segs.len() {
            assert_eq!(
                fetch(cid, copied(Some(i))),
                FetchProgress::Corrupt,
                "segment {i}"
            );
        }
    }

    #[test]
    fn a_forged_first_segment_is_copied_not_widened_over() {
        let data = Bytes::from((0..20_000u32).map(|i| (i % 251) as u8).collect::<Vec<_>>());
        let (cid, mut segs) = serve(&data);
        let mut forged = segs[0].to_vec();
        forged[RESPONSE_HDR_LEN] ^= 1;
        segs[0] = Bytes::from(forged);
        let body_of_first = segs[0].slice(RESPONSE_HDR_LEN..);
        let body = assemble(&[body_of_first.clone(), segs[1].clone()]);
        assert_eq!(body, [&body_of_first[..], &segs[1][..]].concat());
        assert_ne!(body.as_ptr(), data.as_ptr());
        let mut fetcher = ChunkFetcher::new(cid);
        let progress: Vec<FetchProgress> = segs.iter().map(|s| fetcher.on_data(s)).collect();
        assert_eq!(progress.last(), Some(&FetchProgress::Corrupt));
    }

    #[test]
    fn missing_chunk_reports_not_found() {
        let mut store = ChunkStore::new(1024, EvictionPolicy::Lru);
        let mut server = ChunkServer::new();
        let cid = Xid::for_content(b"not there");
        let mut fetcher = ChunkFetcher::new(cid);
        let c = conn(2);
        server.on_incoming(c);
        let actions = server.on_data(c, &fetcher.request_bytes(), &mut store);
        assert_eq!(actions.len(), 2);
        let ServerAction::Send(_, hdr) = &actions[0] else {
            panic!("expected send");
        };
        assert_eq!(fetcher.on_data(hdr), FetchProgress::NotFound);
        assert_eq!(server.not_found(), 1);
    }

    #[test]
    fn fragmented_request_is_buffered() {
        let data = Bytes::from(vec![1u8; 100]);
        let (mut store, cid) = store_with(&data);
        let mut server = ChunkServer::new();
        let c = conn(3);
        server.on_incoming(c);
        let req = ChunkRequest { cid }.encode();
        let first = server.on_data(c, &req.slice(0..10), &mut store);
        assert!(first.is_empty(), "waits for the full frame");
        let rest = server.on_data(c, &req.slice(10..), &mut store);
        assert_eq!(rest.len(), 3);
    }

    #[test]
    fn corrupt_body_detected() {
        let cid = Xid::for_content(b"the real content");
        let mut fetcher = ChunkFetcher::new(cid);
        let hdr = ChunkResponseHeader {
            cid,
            found: true,
            len: 4,
        };
        let _ = fetcher.on_data(&hdr.encode());
        let progress = fetcher.on_data(&Bytes::from_static(b"evil"));
        assert_eq!(progress, FetchProgress::Corrupt);
    }

    #[test]
    fn malformed_request_aborts() {
        let mut store = ChunkStore::new(1024, EvictionPolicy::Lru);
        let mut server = ChunkServer::new();
        let c = conn(4);
        server.on_incoming(c);
        let garbage = Bytes::from(vec![0xEE; REQUEST_LEN]);
        let actions = server.on_data(c, &garbage, &mut store);
        assert_eq!(actions, vec![ServerAction::Abort(c)]);
    }

    #[test]
    fn data_on_unknown_conn_aborts() {
        let mut store = ChunkStore::new(1024, EvictionPolicy::Lru);
        let mut server = ChunkServer::new();
        let c = conn(5);
        let actions = server.on_data(c, &Bytes::from_static(b"hi"), &mut store);
        assert_eq!(actions, vec![ServerAction::Abort(c)]);
    }

    #[test]
    fn received_bytes_tracks_partial_progress() {
        let data = Bytes::from(vec![3u8; 1000]);
        let cid = Xid::for_content(&data);
        let mut fetcher = ChunkFetcher::new(cid);
        assert_eq!(fetcher.received_bytes(), 0);
        let hdr = ChunkResponseHeader {
            cid,
            found: true,
            len: 1000,
        };
        let wire = hdr.encode();
        let _ = fetcher.on_data(&wire.slice(..10));
        assert_eq!(fetcher.received_bytes(), 0, "the header is not body");
        let _ = fetcher.on_data(&wire.slice(10..));
        let _ = fetcher.on_data(&data.slice(0..400));
        assert_eq!(fetcher.received_bytes(), 400);
        assert_eq!(
            fetcher.on_data(&data.slice(400..)),
            FetchProgress::Complete(data.clone())
        );
        assert_eq!(fetcher.received_bytes(), 1000);
        assert_eq!(
            fetcher.on_data(&data.slice(..1)),
            FetchProgress::Corrupt,
            "data after completion"
        );
    }

    #[test]
    fn an_over_long_body_is_corrupt() {
        let data = Bytes::from(vec![4u8; 100]);
        let cid = Xid::for_content(&data.slice(..99));
        let mut fetcher = ChunkFetcher::new(cid);
        let hdr = ChunkResponseHeader {
            cid,
            found: true,
            len: 99,
        };
        assert_eq!(fetcher.on_data(&hdr.encode()), FetchProgress::InProgress);
        assert_eq!(fetcher.on_data(&data), FetchProgress::Corrupt);
    }
}
