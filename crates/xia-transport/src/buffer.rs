//! Zero-copy send buffer keyed by sequence number.

use std::collections::VecDeque;

use util::bytes::Bytes;

/// A queue of [`Bytes`] addressed by a contiguous sequence-number space.
///
/// Appended data occupies `[end, end + len)`. [`SendBuffer::release`]
/// drops acknowledged prefixes; [`SendBuffer::slice`] cuts an arbitrary
/// in-range window (for (re)transmission) without copying when the window
/// lies inside one appended block.
#[derive(Debug, Default)]
pub(crate) struct SendBuffer {
    blocks: VecDeque<Bytes>,
    /// Sequence number of the first byte of `blocks[0]`.
    start: u64,
    /// Sequence number one past the last appended byte.
    end: u64,
}

impl SendBuffer {
    /// Creates an empty buffer starting at sequence `start`.
    pub(crate) fn new(start: u64) -> Self {
        SendBuffer {
            blocks: VecDeque::new(),
            start,
            end: start,
        }
    }

    /// First unreleased sequence number.
    pub(crate) fn start(&self) -> u64 {
        self.start
    }

    /// One past the last appended sequence number.
    pub(crate) fn end(&self) -> u64 {
        self.end
    }

    /// Number of buffered bytes.
    #[cfg(test)]
    pub(crate) fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the buffer holds no bytes.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Appends `data` at the end of the sequence space.
    pub(crate) fn append(&mut self, data: Bytes) {
        if data.is_empty() {
            return;
        }
        self.end += data.len() as u64;
        self.blocks.push_back(data);
    }

    /// Releases (acknowledges) all bytes before `upto`.
    ///
    /// # Panics
    ///
    /// Panics if `upto` exceeds the appended end.
    pub(crate) fn release(&mut self, upto: u64) {
        assert!(upto <= self.end, "release beyond buffered data");
        while self.start < upto {
            let Some(front) = self.blocks.front_mut() else {
                // `start < upto <= end` implies buffered bytes remain; an
                // empty deque means corrupt accounting — stop, don't spin.
                break;
            };
            let take = ((upto - self.start) as usize).min(front.len());
            if take == front.len() {
                self.start += take as u64;
                self.blocks.pop_front();
            } else {
                *front = front.slice(take..);
                self.start += take as u64;
            }
        }
    }

    /// Returns up to `len` bytes starting at sequence `seq`.
    ///
    /// The slice is truncated at the end of buffered data and never crosses
    /// more bytes than are buffered. Returns an empty `Bytes` when `seq`
    /// is at or beyond the end.
    ///
    /// # Panics
    ///
    /// Panics if `seq` precedes the unreleased start.
    pub(crate) fn slice(&self, seq: u64, len: usize) -> Bytes {
        assert!(seq >= self.start, "slice of released data");
        if seq >= self.end {
            return Bytes::new();
        }
        let want = len.min((self.end - seq) as usize);
        // Locate the block containing `seq`.
        let mut block_start = self.start;
        let mut iter = self.blocks.iter();
        let mut first = None;
        for b in iter.by_ref() {
            if seq < block_start + b.len() as u64 {
                first = Some((b, (seq - block_start) as usize));
                break;
            }
            block_start += b.len() as u64;
        }
        let Some((block, offset)) = first else {
            // `start <= seq < end` guarantees a containing block; treat a
            // bookkeeping miss as no data rather than aborting the sim.
            return Bytes::new();
        };
        if offset + want <= block.len() {
            return block.slice(offset..offset + want);
        }
        // Crosses block boundaries: copy.
        let mut out = Vec::with_capacity(want);
        out.extend_from_slice(block.get(offset..).unwrap_or_default());
        for b in iter {
            if out.len() >= want {
                break;
            }
            let take = (want - out.len()).min(b.len());
            out.extend_from_slice(b.get(..take).unwrap_or_default());
        }
        Bytes::from(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_len() {
        let mut b = SendBuffer::new(10);
        assert!(b.is_empty());
        b.append(Bytes::from_static(b"hello"));
        b.append(Bytes::new());
        assert_eq!(b.len(), 5);
        assert_eq!((b.start(), b.end()), (10, 15));
    }

    #[test]
    fn slice_within_one_block_is_zero_copy_range() {
        let mut b = SendBuffer::new(0);
        b.append(Bytes::from_static(b"abcdefgh"));
        assert_eq!(&b.slice(2, 3)[..], b"cde");
        assert_eq!(&b.slice(6, 100)[..], b"gh", "truncated at end");
        assert!(b.slice(8, 10).is_empty());
    }

    #[test]
    fn slice_across_blocks_copies() {
        let mut b = SendBuffer::new(0);
        b.append(Bytes::from_static(b"abc"));
        b.append(Bytes::from_static(b"def"));
        b.append(Bytes::from_static(b"ghi"));
        assert_eq!(&b.slice(1, 7)[..], b"bcdefgh");
        assert_eq!(&b.slice(0, 9)[..], b"abcdefghi");
    }

    #[test]
    fn release_partial_and_whole_blocks() {
        let mut b = SendBuffer::new(0);
        b.append(Bytes::from_static(b"abc"));
        b.append(Bytes::from_static(b"def"));
        b.release(2);
        assert_eq!(b.start(), 2);
        assert_eq!(&b.slice(2, 4)[..], b"cdef");
        b.release(4);
        assert_eq!(&b.slice(4, 2)[..], b"ef");
        b.release(6);
        assert!(b.is_empty());
    }

    #[test]
    fn release_is_idempotent_at_same_seq() {
        let mut b = SendBuffer::new(0);
        b.append(Bytes::from_static(b"xyz"));
        b.release(1);
        b.release(1);
        assert_eq!(b.start(), 1);
    }

    #[test]
    #[should_panic(expected = "release beyond")]
    fn release_past_end_panics() {
        let mut b = SendBuffer::new(0);
        b.append(Bytes::from_static(b"x"));
        b.release(2);
    }

    #[test]
    #[should_panic(expected = "released data")]
    fn slice_before_start_panics() {
        let mut b = SendBuffer::new(0);
        b.append(Bytes::from_static(b"xy"));
        b.release(1);
        let _ = b.slice(0, 1);
    }
}
