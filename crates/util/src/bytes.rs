//! Cheap-clone byte buffers, replacing the `bytes` crate.
//!
//! [`Bytes`] is an immutable, reference-counted view into a shared
//! allocation: cloning or slicing never copies payload bytes, which keeps
//! multi-megabyte chunks cheap to pass between the cache, transport and
//! applications. The allocation also remembers a digest per range
//! ([`Bytes::memo_digest`]), so bytes that travel as views of one buffer
//! are hashed once. [`BytesMut`] is a growable builder with big-endian
//! integer appends that freezes into a [`Bytes`].

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::{Arc, Mutex, PoisonError};

/// An immutable, cheaply cloneable slice view of shared bytes.
///
/// # Examples
///
/// ```
/// use util::bytes::Bytes;
/// let b = Bytes::from(vec![1u8, 2, 3, 4]);
/// let tail = b.slice(2..);
/// assert_eq!(&tail[..], &[3, 4]);
/// assert_eq!(b.len(), 4); // the original view is unchanged
/// ```
#[derive(Clone, Default)]
pub struct Bytes {
    // The allocation holds a Vec<u8> rather than a [u8] so
    // `From<Vec<u8>>` is a move: converting a Vec into Arc<[u8]> would
    // re-copy the payload to place it inline with the refcount header,
    // and chunk construction on the transmit path does this for every
    // multi-kilobyte buffer. `None` is
    // the empty buffer: every pure ACK carries one, so `Bytes::new()` must
    // not touch the heap.
    data: Option<Arc<Shared>>,
    // `u32` offsets keep a view at 16 bytes, so a segment carrying one
    // fits the simulator's 128-byte event; `From<Vec<u8>>` refuses an
    // allocation the offsets cannot address.
    start: u32,
    end: u32,
}

const _: () = assert!(std::mem::size_of::<Bytes>() == 16);

/// The allocation behind every view of it. `bytes` is never mutated, so a
/// digest stored for a range is the digest of that range for as long as
/// the allocation lives, and the memo dies with it.
struct Shared {
    bytes: Vec<u8>,
    digests: Mutex<BTreeMap<(u32, u32), [u8; 20]>>,
}

impl Bytes {
    /// An empty buffer (no allocation is shared).
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies `slice` into a new shared buffer.
    pub fn copy_from_slice(slice: &[u8]) -> Self {
        Bytes::from(slice.to_vec())
    }

    /// Wraps a static byte slice (copies once; the name mirrors the
    /// `bytes` crate's constructor for drop-in compatibility).
    pub fn from_static(slice: &'static [u8]) -> Self {
        Bytes::copy_from_slice(slice)
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view of this buffer sharing the same allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            lo <= hi && hi <= len,
            "slice {lo}..{hi} out of range for length {len}"
        );
        // In range of this view, so in range of `u32` too.
        Bytes {
            data: self.data.clone(),
            start: self.start + lo as u32,
            end: self.start + hi as u32,
        }
    }

    /// `self` followed by `next` as one view, when both are views of the
    /// same allocation and `next` starts where `self` ends; `None`
    /// otherwise. An empty side yields the other. O(1): no byte is
    /// compared or copied.
    ///
    /// # Examples
    ///
    /// ```
    /// use util::bytes::Bytes;
    /// let b = Bytes::from(vec![1u8, 2, 3, 4]);
    /// assert_eq!(b.slice(..1).join(&b.slice(1..)), Some(b.clone()));
    /// assert_eq!(b.slice(..1).join(&b.slice(2..)), None); // a gap
    /// ```
    pub fn join(&self, next: &Bytes) -> Option<Bytes> {
        if self.is_empty() {
            return Some(next.clone());
        }
        if next.is_empty() {
            return Some(self.clone());
        }
        match (&self.data, &next.data) {
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) && self.end == next.start => Some(Bytes {
                data: self.data.clone(),
                start: self.start,
                end: next.end,
            }),
            _ => None,
        }
    }

    /// The `n` bytes just before this view in its allocation, as a view
    /// that [`Bytes::join`]s onto this one; `None` when the view starts
    /// fewer than `n` bytes into its allocation.
    pub fn preceding(&self, n: usize) -> Option<Bytes> {
        let start = self.start.checked_sub(u32::try_from(n).ok()?)?;
        Some(Bytes {
            data: self.data.clone(),
            start,
            end: self.start,
        })
    }

    /// The digest `compute` gives this view's bytes, stored in the
    /// allocation under the view's exact range: a later call on any view
    /// of the same `start..end` returns the stored answer without calling
    /// `compute`. Every caller must pass the same pure function, so the
    /// workspace has exactly one (`Xid::for_bytes`, SHA-1). The empty
    /// [`Bytes::new`] has no allocation and always computes.
    pub fn memo_digest(&self, compute: impl FnOnce(&[u8]) -> [u8; 20]) -> [u8; 20] {
        let Some(data) = &self.data else {
            return compute(&[]);
        };
        let key = (self.start, self.end);
        // `compute` runs unlocked, so no panic interrupts an update and a
        // poisoned memo is still a valid one.
        let memo = || data.digests.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(digest) = memo().get(&key) {
            return *digest;
        }
        let digest = compute(self);
        memo().insert(key, digest);
        digest
    }

    /// Copies the view into an owned `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[expect(
        clippy::indexing_slicing,
        reason = "start <= end <= bytes.len() holds for every view: from() covers the whole allocation and slice() checks its range against the view"
    )]
    fn deref(&self) -> &[u8] {
        match &self.data {
            Some(data) => &data.bytes[self.start as usize..self.end as usize],
            None => &[],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Moves `v` into a shared allocation without copying it.
    ///
    /// # Panics
    ///
    /// Panics if `v` is longer than `u32::MAX` bytes, which a view's
    /// offsets cannot address (chunks are megabytes).
    #[expect(
        clippy::panic,
        reason = "documented contract: a view addresses at most u32::MAX bytes, and truncating the length would serve the wrong bytes"
    )]
    fn from(v: Vec<u8>) -> Self {
        let Ok(end) = u32::try_from(v.len()) else {
            panic!(
                "{} bytes: a Bytes allocation holds at most u32::MAX",
                v.len()
            );
        };
        let shared = Shared {
            bytes: v,
            digests: Mutex::default(),
        };
        Bytes {
            data: Some(Arc::new(shared)),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        &self[..] == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self[..] == other[..]
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

/// A growable byte builder that freezes into a [`Bytes`].
///
/// Integer appends are big-endian, matching the workspace's wire formats.
#[derive(Debug, Clone, Default)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty builder with pre-reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a byte slice.
    pub fn put_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    /// Converts the accumulated bytes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_allocation_without_copying() {
        let b = Bytes::from((0u8..=99).collect::<Vec<_>>());
        let mid = b.slice(10..20);
        assert_eq!(&mid[..], &(10u8..20).collect::<Vec<_>>()[..]);
        let tail = mid.slice(5..);
        assert_eq!(tail.len(), 5);
        assert_eq!(tail[0], 15);
        // The clone is a pointer bump, not a copy.
        assert_eq!(b.data.as_ref().map(Arc::strong_count), Some(3));
    }

    #[test]
    fn empty_buffer_is_unallocated_and_sliceable() {
        let e = Bytes::new();
        assert!(e.data.is_none() && e.is_empty());
        assert_eq!(&e.slice(..)[..], &[] as &[u8]);
        assert_eq!(e, Bytes::from(Vec::new()));
    }

    #[test]
    fn slice_forms() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(&b.slice(..)[..], &[1, 2, 3, 4, 5]);
        assert_eq!(&b.slice(..2)[..], &[1, 2]);
        assert_eq!(&b.slice(3..)[..], &[4, 5]);
        assert_eq!(&b.slice(1..=2)[..], &[2, 3]);
        assert!(b.slice(5..).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_range_panics() {
        let b = Bytes::from(vec![0u8; 3]);
        let _ = b.slice(2..5);
    }

    #[test]
    fn join_glues_adjacent_views_of_one_allocation() {
        let b = Bytes::from((0u8..=99).collect::<Vec<_>>());
        let (left, right) = (b.slice(10..40), b.slice(40..90));
        let joined = left.join(&right).expect("adjacent views join");
        assert_eq!(joined, [&left[..], &right[..]].concat());
        assert_eq!(joined.as_ptr(), left.as_ptr(), "a view, not a copy");
        assert_eq!(b.data.as_ref().map(Arc::strong_count), Some(4));
        assert_eq!(joined.join(&b.slice(90..)), Some(b.slice(10..)));
    }

    #[test]
    fn join_refuses_gaps_overlaps_and_other_allocations() {
        let b = Bytes::from(vec![5u8; 64]);
        let twin = Bytes::from(vec![5u8; 64]);
        assert_eq!(b.slice(..10).join(&b.slice(11..20)), None, "gap");
        assert_eq!(b.slice(..10).join(&b.slice(9..20)), None, "overlap");
        assert_eq!(b.slice(10..20).join(&b.slice(..10)), None, "reversed");
        assert_eq!(
            b.slice(..10).join(&twin.slice(10..20)),
            None,
            "equal bytes elsewhere"
        );
    }

    #[test]
    fn join_with_an_empty_side_yields_the_other() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let other = Bytes::from(vec![9u8; 8]);
        for empty in [Bytes::new(), other.slice(4..4)] {
            let left = empty.join(&b).expect("empty left");
            assert_eq!(left.as_ptr(), b.as_ptr());
            let right = b.join(&empty).expect("empty right");
            assert_eq!(right.as_ptr(), b.as_ptr());
        }
        assert_eq!(Bytes::new().join(&Bytes::new()), Some(Bytes::new()));
    }

    #[test]
    fn preceding_reaches_back_into_the_allocation() {
        let b = Bytes::from((0u8..10).collect::<Vec<_>>());
        let tail = b.slice(6..);
        let before = tail.preceding(4).expect("four bytes precede");
        assert_eq!(&before[..], &[2, 3, 4, 5]);
        assert_eq!(before.join(&tail), Some(b.slice(2..)));
        assert_eq!(tail.preceding(7), None, "only six bytes precede");
        assert_eq!(Bytes::new().preceding(1), None);
    }

    /// A stand-in for SHA-1 (which lives above this crate): any pure
    /// function of the bytes serves.
    fn digest(bytes: &[u8]) -> [u8; 20] {
        let mut d = [0u8; 20];
        d[..8].copy_from_slice(&crate::seed::fnv1a(bytes).to_be_bytes());
        d[8..16].copy_from_slice(&(bytes.len() as u64).to_be_bytes());
        d
    }

    #[test]
    fn memo_digest_computes_each_range_of_each_allocation_once() {
        crate::check::check("memo_digest_once_per_range", 128, |g| {
            // Twin allocations holding equal bytes, often repeating ones,
            // so distinct ranges frequently have equal digests.
            let len = g.usize_in(0, 48);
            let fill: Vec<u8> = (0..len).map(|_| g.u64_in(0, 2) as u8).collect();
            let twins = [Bytes::from(fill.clone()), Bytes::from(fill)];
            let mut seen = std::collections::BTreeSet::new();
            for _ in 0..g.usize_in(1, 40) {
                let which = g.usize_in(0, 1);
                let lo = g.usize_in(0, len);
                let hi = g.usize_in(lo, len);
                // Reach the range through an outer view, as fetches do.
                let at = g.usize_in(0, lo);
                let view = twins[which].slice(at..).slice(lo - at..hi - at);
                let calls = std::cell::Cell::new(0);
                let got = view.memo_digest(|b| {
                    calls.set(calls.get() + 1);
                    digest(b)
                });
                assert_eq!(got, digest(&view), "{which}: {lo}..{hi}");
                let first_time = seen.insert((which, lo, hi));
                assert_eq!(calls.get(), usize::from(first_time), "{which}: {lo}..{hi}");
            }
        });
    }

    #[test]
    fn memo_digest_of_the_empty_buffer_computes_and_allocates_nothing() {
        let e = Bytes::new();
        for _ in 0..2 {
            let calls = std::cell::Cell::new(0);
            let got = e.memo_digest(|b| {
                calls.set(calls.get() + 1);
                digest(b)
            });
            assert_eq!((got, calls.get()), (digest(&[]), 1));
        }
        assert!(e.data.is_none());
    }

    #[test]
    fn equality_across_types() {
        let b = Bytes::from(vec![7u8, 8]);
        assert_eq!(b, Bytes::copy_from_slice(&[7, 8]));
        assert_eq!(b, [7u8, 8]);
        assert_eq!(b, vec![7u8, 8]);
        assert_eq!(b, &[7u8, 8][..]);
        assert_ne!(b, Bytes::new());
    }

    #[test]
    fn builder_big_endian_layout() {
        let mut m = BytesMut::with_capacity(32);
        m.put_u8(0xAB);
        m.put_u64(0x0102030405060708);
        m.put_slice(b"xy");
        let b = m.freeze();
        assert_eq!(&b[..], &[0xAB, 1, 2, 3, 4, 5, 6, 7, 8, b'x', b'y']);
    }

    #[test]
    #[should_panic(expected = "4294967296 bytes: a Bytes allocation holds at most u32::MAX")]
    fn an_allocation_past_u32_offsets_panics_rather_than_truncates() {
        // Zeroed pages are mapped lazily, so this touches almost nothing.
        let _ = Bytes::from(vec![0u8; u32::MAX as usize + 1]);
    }

    #[test]
    fn empty_and_static() {
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from_static(b"hi"), *b"hi");
    }
}
