//! The chunk content store with LRU eviction.

use std::collections::BTreeMap;

use util::bytes::Bytes;
use xia_addr::Xid;

/// Eviction policy for unpinned chunks when the store exceeds capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the least recently used chunk (what XCache's opportunistic
    /// router cache wants).
    Lru,
}

#[derive(Debug, Clone)]
struct Entry {
    data: Bytes,
    /// Published content is pinned and never evicted.
    pinned: bool,
    /// The store clock at the last insert or hit. Every insert and lookup
    /// ticks the clock, so no two entries share a stamp.
    last_access: u64,
}

/// Counters describing store behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Successful lookups.
    pub hits: u64,
    /// Failed lookups.
    pub misses: u64,
    /// Chunks inserted.
    pub insertions: u64,
    /// Chunks evicted to make room.
    pub evictions: u64,
    /// High-water mark of stored bytes — how hard a shared cache was
    /// pressed by its clients' combined working set.
    pub peak_used_bytes: u64,
    /// Evicted-CID log entries dropped past [`EVICTED_LOG_CAP`] before the
    /// host could drain them (each drop is a `ChunkEvicted` trace record
    /// that never reached the flight recorder).
    pub evict_log_dropped: u64,
}

/// A bounded chunk store: the heart of XCache.
///
/// Content providers [`publish`](ChunkStore::publish) chunks (pinned);
/// routers and staging VNFs [`insert`](ChunkStore::insert) cached copies
/// that compete for capacity under LRU eviction.
///
/// # Examples
///
/// ```
/// use util::bytes::Bytes;
/// use xcache::store::{ChunkStore, EvictionPolicy};
/// use xia_addr::Xid;
///
/// let mut store = ChunkStore::new(1024, EvictionPolicy::Lru);
/// let data = Bytes::from_static(b"chunk body");
/// let cid = Xid::for_content(&data);
/// store.insert(cid, data.clone());
/// assert_eq!(store.get(&cid), Some(data));
/// ```
#[derive(Debug)]
pub struct ChunkStore {
    capacity_bytes: usize,
    entries: BTreeMap<Xid, Entry>,
    used_bytes: usize,
    clock: u64,
    stats: StoreStats,
    /// CIDs lost to eviction or wipe since the last [`ChunkStore::take_evicted`],
    /// bounded by [`EVICTED_LOG_CAP`] so an undrained store stays small.
    evicted_log: Vec<Xid>,
    /// Log entries dropped past the cap since the last
    /// [`ChunkStore::take_evicted_dropped`] — fleet-scale eviction churn
    /// between host flushes must surface in the trace, not vanish.
    evicted_dropped: u64,
}

/// Upper bound on the pending evicted-CID log (drained by the host's
/// flight-recorder flush; entries beyond the cap are counted and reported
/// as one aggregate overflow record instead of individual CIDs).
const EVICTED_LOG_CAP: usize = 4096;

impl ChunkStore {
    /// Creates a store holding at most `capacity_bytes` of chunk data.
    pub fn new(capacity_bytes: usize, _policy: EvictionPolicy) -> Self {
        ChunkStore {
            capacity_bytes,
            entries: BTreeMap::new(),
            used_bytes: 0,
            clock: 0,
            stats: StoreStats::default(),
            evicted_log: Vec::new(),
            evicted_dropped: 0,
        }
    }

    /// An effectively unbounded store (for origin servers).
    pub fn unbounded() -> Self {
        ChunkStore::new(usize::MAX, EvictionPolicy::Lru)
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Number of chunks stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Whether `cid` is present (does not count as an access).
    pub fn contains(&self, cid: &Xid) -> bool {
        self.entries.contains_key(cid)
    }

    /// Looks up a chunk, counting hit/miss and refreshing recency.
    pub fn get(&mut self, cid: &Xid) -> Option<Bytes> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(cid) {
            Some(e) => {
                e.last_access = clock;
                self.stats.hits += 1;
                Some(e.data.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Publishes a chunk: pinned, never evicted, not counted against the
    /// eviction budget (origin content must stay available).
    pub fn publish(&mut self, cid: Xid, data: Bytes) {
        self.insert_inner(cid, data, true);
    }

    /// Inserts a cached (evictable) copy. Returns `false` if the chunk is
    /// larger than the whole store and was not inserted.
    pub fn insert(&mut self, cid: Xid, data: Bytes) -> bool {
        if data.len() > self.capacity_bytes {
            return false;
        }
        self.insert_inner(cid, data, false);
        true
    }

    fn insert_inner(&mut self, cid: Xid, data: Bytes, pinned: bool) {
        self.clock += 1;
        if let Some(old) = self.entries.remove(&cid) {
            self.used_bytes -= old.data.len();
        }
        let need = data.len();
        if !pinned {
            while self.used_bytes + need > self.capacity_bytes {
                if !self.evict_one() {
                    break;
                }
            }
        }
        self.used_bytes += need;
        self.stats.peak_used_bytes = self.stats.peak_used_bytes.max(self.used_bytes as u64);
        self.stats.insertions += 1;
        self.entries.insert(
            cid,
            Entry {
                data,
                pinned,
                last_access: self.clock,
            },
        );
    }

    /// Drops every cached (unpinned) chunk — the fault-injection "cache
    /// wipe". Published (pinned) content survives: it models durable origin
    /// storage, while cached copies are volatile. Returns how many chunks
    /// were lost.
    pub fn wipe(&mut self) -> usize {
        // BTreeMap iterates in ascending CID order, so the evicted log
        // (and hence a recorded trace) is identical across runs.
        let victims: Vec<Xid> = self
            .entries
            .iter()
            .filter(|(_, e)| !e.pinned)
            .map(|(cid, _)| *cid)
            .collect();
        for cid in &victims {
            if let Some(e) = self.entries.remove(cid) {
                self.used_bytes -= e.data.len();
                self.log_evicted(*cid);
            }
        }
        victims.len()
    }

    /// Resizes the store in place — the fault-injection "cache squeeze".
    ///
    /// Shrinking evicts least recently used chunks (logged like any
    /// other eviction) until the cached data fits; pinned content never
    /// goes, so a store holding more pinned bytes than `capacity_bytes`
    /// simply stops caching. Growing takes effect immediately. Returns
    /// how many chunks were evicted.
    pub fn resize(&mut self, capacity_bytes: usize) -> usize {
        self.capacity_bytes = capacity_bytes;
        let mut evicted = 0;
        while self.used_bytes > self.capacity_bytes {
            if !self.evict_one() {
                break;
            }
            evicted += 1;
        }
        evicted
    }

    /// The store's current capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Removes a chunk outright (e.g. invalidation).
    pub fn remove(&mut self, cid: &Xid) -> Option<Bytes> {
        let e = self.entries.remove(cid)?;
        self.used_bytes -= e.data.len();
        Some(e.data)
    }

    /// Evicts the least recently used unpinned chunk. Returns false if
    /// nothing is evictable.
    fn evict_one(&mut self) -> bool {
        let victim = self
            .entries
            .iter()
            .filter(|(_, e)| !e.pinned)
            .min_by_key(|(_, e)| e.last_access)
            .map(|(cid, _)| *cid);
        match victim.and_then(|cid| self.entries.remove(&cid).map(|e| (cid, e))) {
            Some((cid, e)) => {
                self.used_bytes -= e.data.len();
                self.stats.evictions += 1;
                self.log_evicted(cid);
                true
            }
            None => false,
        }
    }

    fn log_evicted(&mut self, cid: Xid) {
        if self.evicted_log.len() < EVICTED_LOG_CAP {
            self.evicted_log.push(cid);
        } else {
            self.evicted_dropped += 1;
            self.stats.evict_log_dropped += 1;
        }
    }

    /// Drains the CIDs lost to eviction or wipe since the last call, in
    /// loss order. Costs nothing when no chunk was lost. The host flushes
    /// this into the flight recorder after each dispatch.
    pub fn take_evicted(&mut self) -> Vec<Xid> {
        std::mem::take(&mut self.evicted_log)
    }

    /// Drains the count of evicted CIDs the bounded log had to drop since
    /// the last call. The host turns a non-zero count into one aggregate
    /// `EvictOverflow` trace record, so overflow never silently desyncs
    /// the trace's eviction accounting.
    pub fn take_evicted_dropped(&mut self) -> u64 {
        std::mem::take(&mut self.evicted_dropped)
    }

    /// CIDs currently stored, in ascending CID order.
    pub fn iter(&self) -> impl Iterator<Item = &Xid> {
        self.entries.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(tag: u8, len: usize) -> (Xid, Bytes) {
        let data = Bytes::from(vec![tag; len]);
        (Xid::for_content(&data), data)
    }

    #[test]
    fn insert_get_roundtrip_and_stats() {
        let mut s = ChunkStore::new(100, EvictionPolicy::Lru);
        let (cid, data) = chunk(1, 10);
        assert!(s.insert(cid, data.clone()));
        assert_eq!(s.get(&cid), Some(data));
        assert_eq!(s.get(&Xid::for_content(b"nope")), None);
        assert_eq!(s.stats().hits, 1);
        assert_eq!(s.stats().misses, 1);
        assert_eq!(s.used_bytes(), 10);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut s = ChunkStore::new(30, EvictionPolicy::Lru);
        let (c1, d1) = chunk(1, 10);
        let (c2, d2) = chunk(2, 10);
        let (c3, d3) = chunk(3, 10);
        s.insert(c1, d1);
        s.insert(c2, d2);
        s.insert(c3, d3);
        // Touch c1 so c2 is the LRU victim.
        let _ = s.get(&c1);
        let (c4, d4) = chunk(4, 10);
        s.insert(c4, d4);
        assert!(s.contains(&c1));
        assert!(!s.contains(&c2), "LRU victim evicted");
        assert!(s.contains(&c3) && s.contains(&c4));
        assert_eq!(s.stats().evictions, 1);
    }

    #[test]
    fn resize_shrink_evicts_to_fit_and_spares_pinned() {
        let mut s = ChunkStore::new(100, EvictionPolicy::Lru);
        let (pinned, pd) = chunk(0, 20);
        s.publish(pinned, pd);
        let (c1, d1) = chunk(1, 10);
        let (c2, d2) = chunk(2, 10);
        let (c3, d3) = chunk(3, 10);
        s.insert(c1, d1);
        s.insert(c2, d2);
        s.insert(c3, d3);
        let _ = s.get(&c1); // c2 becomes the LRU victim, then c3.
        assert_eq!(s.resize(35), 2);
        assert_eq!(s.capacity_bytes(), 35);
        assert!(s.contains(&pinned) && s.contains(&c1));
        assert!(!s.contains(&c2) && !s.contains(&c3));
        assert_eq!(s.used_bytes(), 30);
        assert_eq!(s.stats().evictions, 2);
        assert_eq!(s.take_evicted().len(), 2, "squeeze evictions are logged");
        // Squeezing below the pinned footprint stops at the pinned floor.
        assert_eq!(s.resize(5), 1);
        assert!(s.contains(&pinned) && !s.contains(&c1));
        assert_eq!(s.used_bytes(), 20);
        // Growing back is immediate and evicts nothing.
        assert_eq!(s.resize(100), 0);
        let (c4, d4) = chunk(4, 50);
        assert!(s.insert(c4, d4));
    }

    #[test]
    fn pinned_content_survives_pressure() {
        let mut s = ChunkStore::new(20, EvictionPolicy::Lru);
        let (pc, pd) = chunk(9, 15);
        s.publish(pc, pd);
        let (c1, d1) = chunk(1, 10);
        let (c2, d2) = chunk(2, 10);
        assert!(s.insert(c1, d1));
        assert!(s.insert(c2, d2));
        assert!(s.contains(&pc), "published chunk never evicted");
        // Only one unpinned chunk can coexist with the pinned one.
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn oversized_insert_rejected() {
        let mut s = ChunkStore::new(10, EvictionPolicy::Lru);
        let (c, d) = chunk(1, 11);
        assert!(!s.insert(c, d));
        assert!(s.is_empty());
    }

    #[test]
    fn reinsert_same_cid_replaces() {
        let mut s = ChunkStore::new(100, EvictionPolicy::Lru);
        let (c, d) = chunk(1, 10);
        s.insert(c, d.clone());
        s.insert(c, d);
        assert_eq!(s.len(), 1);
        assert_eq!(s.used_bytes(), 10);
    }

    #[test]
    fn remove_returns_data() {
        let mut s = ChunkStore::new(100, EvictionPolicy::Lru);
        let (c, d) = chunk(1, 10);
        s.insert(c, d.clone());
        assert_eq!(s.remove(&c), Some(d));
        assert_eq!(s.remove(&c), None);
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn unbounded_store_takes_everything() {
        let mut s = ChunkStore::unbounded();
        for i in 0..100u8 {
            let (c, d) = chunk(i, 1000);
            assert!(s.insert(c, d));
        }
        assert_eq!(s.len(), 100);
        assert_eq!(s.stats().evictions, 0);
    }

    #[test]
    fn peak_used_bytes_is_a_high_water_mark() {
        let mut s = ChunkStore::new(100, EvictionPolicy::Lru);
        let (c1, d1) = chunk(1, 60);
        let (c2, d2) = chunk(2, 30);
        s.insert(c1, d1);
        s.insert(c2, d2);
        assert_eq!(s.stats().peak_used_bytes, 90);
        s.remove(&c1);
        assert_eq!(s.used_bytes(), 30);
        assert_eq!(s.stats().peak_used_bytes, 90, "peak survives removals");
    }

    #[test]
    fn evicted_log_overflow_is_counted_not_silent() {
        // A 1-chunk store churned past the log cap: every eviction beyond
        // EVICTED_LOG_CAP must be accounted for, not dropped on the floor.
        let mut s = ChunkStore::new(8, EvictionPolicy::Lru);
        let total = EVICTED_LOG_CAP + 100;
        for i in 0..=total {
            let data = Bytes::from(vec![(i % 251) as u8, (i / 251) as u8, 7, 7, 0, 0, 0, 1]);
            assert!(s.insert(Xid::for_content(&data), data));
        }
        // `total` evictions happened; the log holds the cap, the rest are
        // counted as drops.
        assert_eq!(s.stats().evictions, total as u64);
        assert_eq!(s.stats().evict_log_dropped, 100);
        assert_eq!(s.take_evicted().len(), EVICTED_LOG_CAP);
        assert_eq!(s.take_evicted_dropped(), 100);
        // Draining resets both; eviction accounting adds up exactly.
        assert!(s.take_evicted().is_empty());
        assert_eq!(s.take_evicted_dropped(), 0);
    }
}
