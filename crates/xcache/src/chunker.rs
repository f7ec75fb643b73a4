//! Splitting content into self-certifying chunks.

use util::bytes::Bytes;
use xia_addr::{sha1::Sha1, Xid};

/// The content digest: SHA-1 over the 20-byte ids of an object's chunk
/// CIDs, in order.
///
/// A CID is the SHA-1 of its chunk's payload and every fetch checks the
/// payload against it ([`crate::ChunkFetcher`]), so the ordered CID list
/// commits to every byte and to the order of the chunks without hashing
/// the payload a second time. Publishers fold the manifest
/// ([`Manifest::digest`]); downloaders push the CID each verified fetch
/// completed with — never their own request list, which would compare the
/// manifest with itself.
#[derive(Debug, Clone, Default)]
pub struct ContentDigest(Sha1);

impl ContentDigest {
    /// The digest of no chunks.
    pub fn new() -> Self {
        ContentDigest::default()
    }

    /// Appends the next chunk's CID.
    pub fn push(&mut self, cid: &Xid) {
        self.0.update(cid.id());
    }

    /// The digest of the CIDs pushed so far.
    pub fn finish(&self) -> [u8; 20] {
        self.0.clone().finalize()
    }
}

/// A manifest describing one published content object (e.g. a file): the
/// ordered list of chunk CIDs a client must fetch.
///
/// In the paper's workflow the client application "contacts the server
/// application to retrieve the content objects' DAG information"; the
/// manifest is that information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Ordered chunk CIDs.
    pub chunks: Vec<Xid>,
    /// Nominal chunk size in bytes (the last chunk may be smaller).
    pub chunk_size: usize,
    /// Total content length in bytes.
    pub total_len: u64,
}

impl Manifest {
    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the manifest has no chunks.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The [`ContentDigest`] a complete in-order download must reproduce.
    pub fn digest(&self) -> [u8; 20] {
        let mut d = ContentDigest::new();
        for cid in &self.chunks {
            d.push(cid);
        }
        d.finish()
    }
}

/// Splits `content` into chunks of `chunk_size` bytes (the last chunk holds
/// the remainder) and derives each chunk's CID from its payload.
///
/// Returns the manifest and the chunk payloads, ready to publish.
///
/// # Panics
///
/// Panics if `chunk_size` is zero.
///
/// # Examples
///
/// ```
/// use util::bytes::Bytes;
/// let content = Bytes::from(vec![7u8; 5000]);
/// let (manifest, chunks) = xcache::chunker::chunk_content(&content, 2048);
/// assert_eq!(manifest.len(), 3);
/// assert_eq!(chunks[2].1.len(), 5000 - 2 * 2048);
/// ```
pub fn chunk_content(content: &Bytes, chunk_size: usize) -> (Manifest, Vec<(Xid, Bytes)>) {
    assert!(chunk_size > 0, "chunk size must be positive");
    let mut chunks = Vec::with_capacity(content.len().div_ceil(chunk_size));
    let mut offset = 0;
    while offset < content.len() {
        let end = (offset + chunk_size).min(content.len());
        let payload = content.slice(offset..end);
        let cid = Xid::for_bytes(&payload);
        chunks.push((cid, payload));
        offset = end;
    }
    let manifest = Manifest {
        chunks: chunks.iter().map(|(cid, _)| *cid).collect(),
        chunk_size,
        total_len: content.len() as u64,
    };
    (manifest, chunks)
}

/// Reassembles content from chunks in manifest order, verifying each
/// chunk's CID against its payload.
///
/// # Errors
///
/// Returns the index of the first missing or corrupt chunk.
pub fn reassemble(
    manifest: &Manifest,
    lookup: impl Fn(&Xid) -> Option<Bytes>,
) -> Result<Bytes, usize> {
    let mut out = Vec::with_capacity(manifest.total_len as usize);
    for (i, cid) in manifest.chunks.iter().enumerate() {
        let chunk = lookup(cid).ok_or(i)?;
        if Xid::for_content(&chunk) != *cid {
            return Err(i);
        }
        out.extend_from_slice(&chunk);
    }
    Ok(Bytes::from(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn content(len: usize) -> Bytes {
        Bytes::from((0..len).map(|i| (i * 31 % 253) as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn exact_multiple_chunks() {
        let c = content(4096);
        let (m, chunks) = chunk_content(&c, 1024);
        assert_eq!(m.len(), 4);
        assert!(chunks.iter().all(|(_, d)| d.len() == 1024));
        assert_eq!(m.total_len, 4096);
    }

    #[test]
    fn remainder_chunk() {
        let c = content(2500);
        let (m, chunks) = chunk_content(&c, 1024);
        assert_eq!(m.len(), 3);
        assert_eq!(chunks[2].1.len(), 2500 - 2048);
    }

    #[test]
    fn empty_content_has_no_chunks() {
        let (m, chunks) = chunk_content(&Bytes::new(), 1024);
        assert!(m.is_empty());
        assert!(chunks.is_empty());
        assert_eq!(m.total_len, 0);
    }

    #[test]
    fn cids_are_content_derived() {
        let c = content(3000);
        let (_, chunks) = chunk_content(&c, 1000);
        for (cid, data) in &chunks {
            assert_eq!(*cid, Xid::for_content(data));
        }
        // Identical chunks share a CID (deduplication property).
        let dup = Bytes::from(vec![5u8; 2000]);
        let (m, _) = chunk_content(&dup, 1000);
        assert_eq!(m.chunks[0], m.chunks[1]);
    }

    #[test]
    fn reassemble_roundtrip() {
        let c = content(5555);
        let (m, chunks) = chunk_content(&c, 512);
        let map: HashMap<Xid, Bytes> = chunks.into_iter().collect();
        let back = reassemble(&m, |cid| map.get(cid).cloned()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn reassemble_reports_missing_chunk() {
        let c = content(3000);
        let (m, chunks) = chunk_content(&c, 1000);
        let mut map: HashMap<Xid, Bytes> = chunks.into_iter().collect();
        map.remove(&m.chunks[1]);
        assert_eq!(reassemble(&m, |cid| map.get(cid).cloned()), Err(1));
    }

    #[test]
    fn reassemble_detects_corruption() {
        let c = content(2000);
        let (m, chunks) = chunk_content(&c, 1000);
        let mut map: HashMap<Xid, Bytes> = chunks.into_iter().collect();
        map.insert(m.chunks[0], Bytes::from_static(b"corrupted"));
        assert_eq!(reassemble(&m, |cid| map.get(cid).cloned()), Err(0));
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_size_panics() {
        let _ = chunk_content(&Bytes::from_static(b"x"), 0);
    }
}
