//! Free-list buffer pool for the simulator hot path.
//!
//! The event scheduler ([`crate::wheel`]) churns through short-lived
//! `Vec` buffers: timer-wheel slot buckets fill and drain once per
//! rotation. Allocating those on the general-purpose heap puts
//! `malloc`/`free` inside the innermost simulation loop — visible as
//! `simnet.allocs_per_event` in the benchmark (`benchmark/`). A
//! [`BufPool`] breaks that cycle: exhausted buffers are cleared (length
//! zero, capacity kept) and parked on a free list, so the steady state
//! recycles warm capacity instead of round-tripping the allocator.
//!
//! Pools are plain data — no interior mutability, no thread handoff — so
//! they add nothing to the determinism argument: a pooled buffer holds
//! exactly what a fresh one would, and drain order never depends on which
//! physical allocation backs a bucket.

/// A free list of cleared `Vec<T>` buffers.
///
/// [`BufPool::get`] hands out a buffer (recycled when one is parked,
/// freshly allocated otherwise) and [`BufPool::put`] returns it. Returned
/// buffers are cleared immediately; the list keeps at most
/// [`BufPool::MAX_PARKED`] of them and none above a fixed capacity
/// (`MAX_CAPACITY` elements), so a one-off burst cannot pin its
/// high-water capacity forever.
#[derive(Debug)]
pub struct BufPool<T> {
    free: Vec<Vec<T>>,
    recycled: u64,
    fresh: u64,
}

impl<T> BufPool<T> {
    /// Upper bound on parked buffers; beyond this, [`BufPool::put`] lets
    /// the buffer drop back to the allocator.
    pub const MAX_PARKED: usize = 1024;

    /// Upper bound on a parked buffer's capacity, in elements; a larger
    /// one drops back to the allocator. Without it a cascaded high-level
    /// wheel bucket (hundreds of entries) would be handed to a level-0
    /// bucket that needs a handful of slots and stay that large.
    const MAX_CAPACITY: usize = 64;

    /// Creates an empty pool.
    pub const fn new() -> Self {
        BufPool {
            free: Vec::new(),
            recycled: 0,
            fresh: 0,
        }
    }

    /// Takes a buffer from the pool, allocating only when the free list
    /// is empty. The returned buffer is always empty (`len == 0`).
    pub fn get(&mut self) -> Vec<T> {
        match self.free.pop() {
            Some(buf) => {
                self.recycled += 1;
                debug_assert!(buf.is_empty());
                buf
            }
            None => {
                self.fresh += 1;
                Vec::new()
            }
        }
    }

    /// Returns a buffer to the pool. Contents are dropped here; capacity
    /// is kept for the next [`BufPool::get`]. Zero-capacity buffers are
    /// not worth parking and buffers over `MAX_CAPACITY` would pin a
    /// burst's memory; both are dropped outright.
    pub fn put(&mut self, mut buf: Vec<T>) {
        buf.clear();
        let worth_parking = (1..=Self::MAX_CAPACITY).contains(&buf.capacity());
        if worth_parking && self.free.len() < Self::MAX_PARKED {
            self.free.push(buf);
        }
    }

    /// How many [`BufPool::get`] calls were served from the free list.
    pub fn recycled(&self) -> u64 {
        self.recycled
    }

    /// How many [`BufPool::get`] calls had to allocate a fresh buffer.
    pub fn fresh(&self) -> u64 {
        self.fresh
    }

    /// Number of buffers currently parked on the free list.
    pub fn parked(&self) -> usize {
        self.free.len()
    }
}

impl<T> Default for BufPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_recycles_capacity() {
        let mut pool: BufPool<u32> = BufPool::new();
        let mut a = pool.get();
        a.extend([1, 2, 3]);
        let cap = a.capacity();
        pool.put(a);
        let b = pool.get();
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert_eq!(b.capacity(), cap, "capacity survives the round trip");
        assert_eq!(pool.recycled(), 1);
        assert_eq!(pool.fresh(), 1);
    }

    #[test]
    fn zero_capacity_buffers_are_not_parked() {
        let mut pool: BufPool<u32> = BufPool::new();
        pool.put(Vec::new());
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn parked_capacity_is_bounded() {
        let cap = BufPool::<u32>::MAX_CAPACITY;
        let mut pool: BufPool<u32> = BufPool::new();
        pool.put(Vec::with_capacity(cap + 1));
        assert_eq!(pool.parked(), 0, "an over-cap buffer is dropped");
        pool.put(Vec::with_capacity(cap));
        assert_eq!(pool.parked(), 1, "an at-cap buffer is parked");
    }

    #[test]
    fn parked_count_is_bounded() {
        let mut pool: BufPool<u32> = BufPool::new();
        for _ in 0..(BufPool::<u32>::MAX_PARKED + 10) {
            pool.put(Vec::with_capacity(1));
        }
        assert_eq!(pool.parked(), BufPool::<u32>::MAX_PARKED);
    }
}
