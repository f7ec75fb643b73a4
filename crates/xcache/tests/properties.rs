//! Property-based tests: chunking round-trips and store invariants.

use util::bytes::Bytes;
use util::check::check;
use xcache::{chunk_content, chunker::reassemble, ChunkStore, EvictionPolicy};
use xia_addr::Xid;

/// Chunk + reassemble is the identity for any content and chunk size.
#[test]
fn chunk_reassemble_roundtrip() {
    check("chunk_reassemble_roundtrip", 64, |g| {
        let len = g.usize_in(0, 8191);
        let content = Bytes::from(g.bytes(len));
        let chunk_size = g.usize_in(1, 2999);
        let (manifest, chunks) = chunk_content(&content, chunk_size);
        assert_eq!(manifest.total_len, content.len() as u64);
        assert_eq!(manifest.len(), content.len().div_ceil(chunk_size));
        let map: std::collections::HashMap<Xid, Bytes> = chunks.into_iter().collect();
        let back = reassemble(&manifest, |cid| map.get(cid).cloned()).unwrap();
        assert_eq!(back, content);
    });
}

/// Every chunk except possibly the last has exactly `chunk_size`
/// bytes; the last has the remainder.
#[test]
fn chunk_sizes_exact() {
    check("chunk_sizes_exact", 64, |g| {
        let len = g.usize_in(0, 8191);
        let chunk_size = g.usize_in(1, 2999);
        let content = Bytes::from((0..len).map(|i| (i % 255) as u8).collect::<Vec<u8>>());
        let (_, chunks) = chunk_content(&content, chunk_size);
        for (i, (_, data)) in chunks.iter().enumerate() {
            if i + 1 < chunks.len() {
                assert_eq!(data.len(), chunk_size);
            } else {
                assert!(data.len() <= chunk_size && !data.is_empty());
            }
        }
    });
}

/// The store never exceeds its capacity with unpinned content, and its
/// byte accounting always matches the sum of stored chunks.
#[test]
fn store_capacity_and_accounting() {
    check("store_capacity_and_accounting", 128, |g| {
        let capacity = g.usize_in(200, 1999);
        let ops = g.vec_of(1, 59, |g| (g.u64() as u8, g.usize_in(1, 199), g.bool()));
        let mut store = ChunkStore::new(capacity, EvictionPolicy::Lru);
        let mut pinned_bytes = 0usize;
        for (tag, len, publish) in ops {
            let data = Bytes::from(vec![tag; len]);
            let cid = Xid::for_content(&data);
            if publish {
                if !store.contains(&cid) {
                    pinned_bytes += len;
                }
                store.publish(cid, data);
            } else {
                store.insert(cid, data);
            }
            // Accounting invariant: used bytes equals what a lookup of all
            // stored chunks sums to. (Pinned content may exceed capacity,
            // cached content may not push usage above capacity + pinned.)
            assert!(
                store.used_bytes() <= capacity + pinned_bytes,
                "used {} > capacity {} + pinned {}",
                store.used_bytes(),
                capacity,
                pinned_bytes
            );
        }
    });
}

/// Whatever was inserted and not evicted reads back identical.
#[test]
fn store_reads_back_what_it_holds() {
    check("store_reads_back_what_it_holds", 128, |g| {
        let tags = g.vec_of(1, 29, |g| g.u64() as u8);
        let mut store = ChunkStore::unbounded();
        let mut expect = Vec::new();
        for tag in tags {
            let data = Bytes::from(vec![tag; 64]);
            let cid = Xid::for_content(&data);
            store.insert(cid, data.clone());
            expect.push((cid, data));
        }
        for (cid, data) in expect {
            assert_eq!(store.get(&cid), Some(data));
        }
    });
}
