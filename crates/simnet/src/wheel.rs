//! The simulator's event queue: a hierarchical timer wheel.
//!
//! The simulator dispatches events in `(time, push order)` order: ties at
//! equal timestamps resolve FIFO.
//! [`WheelQueue`] is a hierarchical timer wheel (calendar queue) with
//! 64-slot levels covering the full `u64` microsecond range. Push is
//! O(1); pop is amortized O(1) with occasional cascades. Drained buckets
//! are parked, emptied, and handed to the next slot that fills, so the
//! steady state allocates nothing.
//!
//! Buckets hold whole entries, `(at, item)`: a cascade or a batch
//! reversal moves each entry, so `T` should be small. The simulator files
//! a timer inline and every other event as the index of its payload in
//! its own slab (`sim.rs`), so an entry is 24 bytes either way.
//!
//! The ordering contract is pinned by the differential suite
//! (`crates/simnet/tests/sched_diff.rs`), which drives the wheel against
//! the contract written literally: a `BTreeMap` keyed by `(at, seq)`,
//! where `seq` counts pushes and rides in each payload.
//!
//! # Wheel geometry
//!
//! 11 levels of 64 slots (6 bits per level) cover all 66 bits needed for
//! `u64` timestamps. An event due at `at` lives at the level of the most
//! significant bit where `at` differs from the wheel's `elapsed` cursor;
//! its slot is `at`'s 6-bit digit at that level. Level 0 buckets hold
//! events with *identical* timestamps (they agree with `elapsed` on all
//! bits above the low 6, and on the slot digit itself), so a level-0
//! bucket drains FIFO as one batch. Higher-level buckets cascade down
//! when they become the earliest work: the cursor advances to the
//! bucket's base time and every entry re-files at a strictly lower
//! level, so each entry cascades at most 10 times.
//!
//! # Why determinism survives
//!
//! The cursor only ever advances to (a) the timestamp of the level-0
//! bucket being dispatched or (b) the base of the lowest non-empty
//! bucket being cascaded. Both are lower bounds of all pending work, so
//! no bucket is ever skipped, and within a bucket entries keep insertion
//! order. Equal-timestamp events always converge to the same level-0
//! bucket in push order — across cascades too, because a cascade
//! completes before any later push can observe the new cursor. Hence pop
//! order is exactly `(at, push order)`, whatever an item holds, and no
//! sequence number is needed to keep it.

use crate::time::SimTime;

/// Bits per wheel level (64 slots).
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Levels needed so that `LEVELS * LEVEL_BITS >= 64` covers any `u64`.
const LEVELS: usize = 11;
/// The most drained buckets parked for reuse; beyond this, a drained
/// bucket goes back to the allocator.
const MAX_PARKED: usize = 1024;
/// The largest capacity, in entries, a parked bucket may keep. Without it
/// a cascaded high-level bucket (hundreds of entries) would be handed to
/// a level-0 bucket that needs a handful of slots and stay that large.
const MAX_PARKED_CAPACITY: usize = 64;

/// What a bucket holds: the event's time and the event. Its place in the
/// bucket is its place among events at the same time.
struct Entry<T> {
    at: u64,
    item: T,
}

/// Hierarchical timer wheel; see the [module docs](self) for geometry
/// and the determinism argument.
pub struct WheelQueue<T> {
    /// Time cursor: every pending entry has `at >= elapsed`, and all
    /// occupied buckets sit at or after the cursor's position on their
    /// level. Only advances inside [`WheelQueue::pop`].
    elapsed: u64,
    len: usize,
    /// Bit `l` set iff level `l` has any occupied slot — the earliest
    /// non-empty level is one `trailing_zeros` away.
    levels: u16,
    /// One occupancy bitmap per level; bit `s` set iff slot `s` holds
    /// entries. `trailing_zeros` finds the earliest occupied slot.
    occupied: [u64; LEVELS],
    /// `LEVELS * SLOTS` buckets, level-major.
    slots: Vec<Vec<Entry<T>>>,
    /// The level-0 bucket currently being drained, reversed so `pop()`
    /// from the back yields insertion order. All entries share one `at`.
    current: Vec<Entry<T>>,
    /// Drained buckets, empty, waiting for the next slot that fills: at
    /// most [`MAX_PARKED`], none with room for more than
    /// [`MAX_PARKED_CAPACITY`] entries.
    parked: Vec<Vec<Entry<T>>>,
}

impl<T> WheelQueue<T> {
    /// Creates an empty wheel with its cursor at time zero.
    pub fn new() -> Self {
        WheelQueue {
            elapsed: 0,
            len: 0,
            levels: 0,
            occupied: [0; LEVELS],
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            current: Vec::new(),
            parked: Vec::new(),
        }
    }

    /// Parks a drained bucket for the next slot that fills, unless it has
    /// no capacity to give or would pin a burst's; it is emptied here.
    fn park(&mut self, mut bucket: Vec<Entry<T>>) {
        bucket.clear();
        let worth_parking = (1..=MAX_PARKED_CAPACITY).contains(&bucket.capacity());
        if worth_parking && self.parked.len() < MAX_PARKED {
            self.parked.push(bucket);
        }
    }

    /// The level holding an event at `at` given cursor `elapsed`: the
    /// 6-bit digit position of the most significant differing bit.
    #[inline]
    fn level_for(elapsed: u64, at: u64) -> usize {
        let diff = at ^ elapsed;
        if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize
        }
    }

    /// Files `entry` into its bucket relative to the current cursor.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "level < LEVELS (a u64 time has LEVELS six-bit digits) and slot < SLOTS, so level * SLOTS + slot < slots.len(); the hot path keeps plain indexing"
    )]
    fn file(&mut self, entry: Entry<T>) {
        let level = Self::level_for(self.elapsed, entry.at);
        let slot = (entry.at >> (LEVEL_BITS as usize * level)) as usize & (SLOTS - 1);
        let idx = level * SLOTS + slot;
        let bucket = &mut self.slots[idx];
        if bucket.capacity() == 0 {
            if let Some(parked) = self.parked.pop() {
                *bucket = parked;
            }
        }
        bucket.push(entry);
        self.occupied[level] |= 1 << slot;
        self.levels |= 1 << level;
    }

    /// Lowest non-empty `(level, slot)` pair, if any entry is filed.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "level < LEVELS (a u64 time has LEVELS six-bit digits) and slot < SLOTS, so level * SLOTS + slot < slots.len(); the hot path keeps plain indexing"
    )]
    fn earliest_bucket(&self) -> Option<(usize, usize)> {
        if self.levels == 0 {
            return None;
        }
        let level = self.levels.trailing_zeros() as usize;
        let slot = self.occupied[level].trailing_zeros() as usize;
        Some((level, slot))
    }

    /// Enqueues `item` to fire at `at`, after everything already pushed
    /// for the same time.
    pub fn push(&mut self, at: SimTime, item: T) {
        let at = at.as_micros();
        debug_assert!(at >= self.elapsed, "scheduled into the wheel's past");
        // Clamp for totality: a past timestamp files as "due now", in push
        // order with whatever else is due.
        let at = at.max(self.elapsed);
        self.file(Entry { at, item });
        self.len += 1;
    }

    /// Removes and returns the earliest event: the lowest `at`, and of
    /// those the first pushed.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "level < LEVELS (a u64 time has LEVELS six-bit digits) and slot < SLOTS, so level * SLOTS + slot < slots.len(); the hot path keeps plain indexing"
    )]
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        loop {
            if let Some(entry) = self.current.pop() {
                self.len -= 1;
                if self.current.is_empty() {
                    let spent = std::mem::take(&mut self.current);
                    self.park(spent);
                }
                return Some((SimTime::from_micros(entry.at), entry.item));
            }
            let (level, slot) = self.earliest_bucket()?;
            let idx = level * SLOTS + slot;
            let mut bucket = std::mem::take(&mut self.slots[idx]);
            self.occupied[level] &= !(1u64 << slot);
            if self.occupied[level] == 0 {
                self.levels &= !(1u16 << level);
            }
            let Some(first_at) = bucket.first().map(|e| e.at) else {
                // Occupancy bit with an empty bucket cannot arise; clear
                // and move on rather than spin.
                continue;
            };
            // Level-0 buckets always hold a single timestamp; a
            // higher-level bucket usually does too (one pending timer in
            // its window). Either way the whole bucket is the earliest
            // work and can dispatch as one FIFO batch — skipping the
            // re-file of a full cascade.
            let single_at = level == 0 || bucket.iter().all(|e| e.at == first_at);
            if single_at {
                debug_assert!(first_at >= self.elapsed);
                self.elapsed = first_at;
                bucket.reverse();
                self.current = bucket;
            } else {
                // Cascade: advance the cursor to the bucket's base time
                // and re-file every entry at a strictly lower level.
                let shift = LEVEL_BITS as usize * level;
                let base = (first_at >> shift) << shift;
                debug_assert!(base >= self.elapsed);
                self.elapsed = base.max(self.elapsed);
                for entry in bucket.drain(..) {
                    debug_assert!(Self::level_for(self.elapsed, entry.at) < level);
                    self.file(entry);
                }
                self.park(bucket);
            }
        }
    }

    /// The timestamp of the earliest pending event, without dequeuing.
    #[expect(
        clippy::indexing_slicing,
        reason = "level < LEVELS (a u64 time has LEVELS six-bit digits) and slot < SLOTS, so level * SLOTS + slot < slots.len(); the hot path keeps plain indexing"
    )]
    pub fn next_at(&self) -> Option<SimTime> {
        // Deliberately non-mutating: peeking must not advance the
        // cursor, because callers may push new (earlier) events between
        // a peek and the next pop.
        if let Some(entry) = self.current.last() {
            return Some(SimTime::from_micros(entry.at));
        }
        let (level, slot) = self.earliest_bucket()?;
        let idx = level * SLOTS + slot;
        let bucket = &self.slots[idx];
        if level == 0 {
            // Level-0 buckets are single-timestamp batches.
            bucket.first().map(|e| SimTime::from_micros(e.at))
        } else {
            // The earliest pending event is in this bucket (lower levels
            // are empty and higher levels/slots are strictly later), but
            // within it timestamps vary: scan. Rare — the very next pop
            // cascades this bucket away.
            bucket.iter().map(|e| e.at).min().map(SimTime::from_micros)
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T> Default for WheelQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for WheelQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WheelQueue")
            .field("len", &self.len)
            .field("elapsed", &self.elapsed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Pops everything; the payloads are `(seq, item)` pairs.
    fn drain(q: &mut WheelQueue<(u64, u32)>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((at, (seq, item))) = q.pop() {
            out.push((at.as_micros(), seq, item));
        }
        out
    }

    #[test]
    fn fifo_ties_at_equal_timestamps() {
        let mut q = WheelQueue::new();
        q.push(SimTime::from_micros(5), (0, 10));
        q.push(SimTime::from_micros(5), (1, 11));
        q.push(SimTime::from_micros(1), (2, 12));
        q.push(SimTime::from_micros(5), (3, 13));
        assert_eq!(
            drain(&mut q),
            vec![(1, 2, 12), (5, 0, 10), (5, 1, 11), (5, 3, 13)]
        );
    }

    #[test]
    fn far_future_events_cascade_across_levels() {
        let mut q = WheelQueue::new();
        // One event per wheel level, pushed far-to-near.
        let times: Vec<u64> = (0..10).rev().map(|l| 3u64 << (6 * l)).collect();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), (i as u64, i as u32));
        }
        let popped = drain(&mut q);
        let ats: Vec<u64> = popped.iter().map(|&(at, _, _)| at).collect();
        let mut expect = times.clone();
        expect.sort_unstable();
        assert_eq!(ats, expect);
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        // A deterministic LCG drives pushes mixed with pops; compare the
        // wheel to an ordered map keyed by `(at, seq)` at every step.
        let mut wheel = WheelQueue::new();
        let mut reference: BTreeMap<(u64, u64), u32> = BTreeMap::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut seq = 0u64;
        let mut now = 0u64;
        for round in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(round);
            let delay = (state >> 33) % 1000;
            // Occasional far-future outliers exercise high levels.
            let delay = if state % 17 == 0 { delay << 40 } else { delay };
            wheel.push(SimTime::from_micros(now + delay), (seq, round as u32));
            reference.insert((now + delay, seq), round as u32);
            seq += 1;
            if state % 3 == 0 {
                let w = wheel.pop().map(|(at, (s, i))| (at.as_micros(), s, i));
                let r = reference.pop_first().map(|((at, s), i)| (at, s, i));
                assert_eq!(w, r);
                if let Some((at, _, _)) = w {
                    now = at;
                }
            }
            assert_eq!(
                wheel.next_at().map(SimTime::as_micros),
                reference.first_key_value().map(|(&(at, _), _)| at)
            );
            assert_eq!(wheel.len(), reference.len());
        }
        let tail: Vec<_> = reference
            .into_iter()
            .map(|((at, s), i)| (at, s, i))
            .collect();
        assert_eq!(drain(&mut wheel), tail);
    }

    #[test]
    fn next_at_does_not_mutate() {
        let mut q: WheelQueue<u32> = WheelQueue::new();
        q.push(SimTime::from_micros(1 << 30), 1);
        assert_eq!(q.next_at(), Some(SimTime::from_micros(1 << 30)));
        // A later, earlier-timestamp push must still be representable
        // and pop first.
        q.push(SimTime::from_micros(7), 2);
        assert_eq!(q.next_at(), Some(SimTime::from_micros(7)));
        assert_eq!(q.pop().map(|(_, i)| i), Some(2));
        assert_eq!(q.pop().map(|(_, i)| i), Some(1));
    }

    #[test]
    fn max_timestamp_is_representable() {
        let mut q: WheelQueue<u32> = WheelQueue::new();
        q.push(SimTime::MAX, 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 2)));
        assert_eq!(q.pop(), Some((SimTime::MAX, 1)));
        assert!(q.is_empty());
    }

    #[test]
    fn buckets_recycle_through_the_pool() {
        // Eight events a round at one time: each round fills one bucket
        // and drains it, and the next round's bucket is the parked one.
        let mut q: WheelQueue<u32> = WheelQueue::new();
        let mut first = None;
        for round in 0..100u64 {
            for i in 0..8 {
                q.push(SimTime::from_micros(round * 100), i);
            }
            let bucket = q.slots.iter().find(|b| !b.is_empty()).map(Vec::as_ptr);
            assert_eq!(*first.get_or_insert(bucket), bucket, "round {round}");
            while q.pop().is_some() {}
            assert_eq!(q.parked.len(), 1, "round {round}: the bucket is parked");
        }
    }

    #[test]
    fn a_parked_bucket_keeps_its_capacity() {
        let mut q: WheelQueue<u32> = WheelQueue::new();
        let mut bucket = Vec::with_capacity(8);
        bucket.extend((0..3).map(|item| Entry { at: 0, item }));
        q.park(bucket);
        assert_eq!(q.parked.len(), 1);
        assert!(q.parked[0].is_empty(), "a parked bucket is emptied");
        assert_eq!(q.parked[0].capacity(), 8, "and keeps its capacity");
        q.push(SimTime::from_micros(5), 1);
        assert!(q.parked.is_empty(), "the next slot that fills takes it");
    }

    #[test]
    fn zero_capacity_buckets_are_not_parked() {
        let mut q: WheelQueue<u32> = WheelQueue::new();
        q.park(Vec::new());
        assert!(q.parked.is_empty());
    }

    #[test]
    fn parked_capacity_is_bounded() {
        let mut q: WheelQueue<u32> = WheelQueue::new();
        q.park(Vec::with_capacity(MAX_PARKED_CAPACITY + 1));
        assert_eq!(q.parked.len(), 0, "an over-cap bucket is dropped");
        q.park(Vec::with_capacity(MAX_PARKED_CAPACITY));
        assert_eq!(q.parked.len(), 1, "an at-cap bucket is parked");
    }

    #[test]
    fn parked_count_is_bounded() {
        let mut q: WheelQueue<u32> = WheelQueue::new();
        for _ in 0..MAX_PARKED + 10 {
            q.park(Vec::with_capacity(1));
        }
        assert_eq!(q.parked.len(), MAX_PARKED);
    }
}
