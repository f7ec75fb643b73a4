//! The Chunk Profile (Table I of the paper): per-chunk staging state, kept
//! on the client by the Staging Manager.
//!
//! Table I gives each chunk a staging state (`BLANK`, `PENDING`, `READY`)
//! and a fetch state (`BLANK`, `DONE`). The staging state is
//! [`StagingState`], which carries its own data: when a `Pending` request
//! went out, and the edge DAG of a `Ready` chunk. The fetch state is the
//! client's fetch cursor: chunks are fetched strictly in order, so chunk
//! `i` is `DONE` exactly when `i` is below the cursor. The retry and
//! back-off schedule is a set of constants in `client.rs`.

use std::collections::BTreeMap;

use simnet::{SimDuration, SimTime};
use xia_addr::{Dag, Xid};

/// Staging state of a chunk (Table I: `BLANK`, `PENDING`, `READY`; plus
/// the "set to DONE to avoid duplicated staging" fallback mark).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum StagingState {
    /// Not requested.
    #[default]
    Blank,
    /// Requested from a Staging VNF at `since`, answer outstanding.
    Pending {
        /// When the outstanding staging request was sent.
        since: SimTime,
    },
    /// Staged at an edge network.
    Ready {
        /// The raw DAG with the edge network holding the staged chunk as
        /// fallback (Table I's *New DAG*).
        dag: Dag,
    },
    /// Will not be staged (no VNF available, or staging failed); fetch
    /// uses the raw DAG.
    Fallback,
}

/// One row of the Chunk Profile.
#[derive(Debug, Clone)]
pub struct ChunkRecord {
    /// The chunk's content identifier.
    pub cid: Xid,
    /// Destination address with the origin server as fallback.
    pub raw_dag: Dag,
    /// Staging state.
    pub staging_state: StagingState,
    /// Staging requests sent for this chunk so far (drives the retry
    /// back-off; never reset, so re-requests keep slowing down).
    pub stage_attempts: u32,
    /// Earliest time this chunk may be re-requested — set when the VNF
    /// rejects it with an advisory `retry_after`.
    pub not_before: Option<SimTime>,
}

impl ChunkRecord {
    /// The address the Chunk Manager should fetch this chunk from: the
    /// staged location if ready, otherwise the origin (fault-tolerance
    /// fallback).
    pub(crate) fn best_dag(&self) -> &Dag {
        match &self.staging_state {
            StagingState::Ready { dag } => dag,
            _ => &self.raw_dag,
        }
    }

    /// Whether the staged copy would be used by [`ChunkRecord::best_dag`].
    pub(crate) fn uses_staged(&self) -> bool {
        matches!(self.staging_state, StagingState::Ready { .. })
    }
}

/// The Chunk Profile: the Staging Manager's database, indexed by CID and
/// ordered by session position.
#[derive(Debug, Default)]
pub struct ChunkProfile {
    records: Vec<ChunkRecord>,
    by_cid: BTreeMap<Xid, usize>,
}

impl ChunkProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        ChunkProfile::default()
    }

    /// Registers a content object's chunk (in session order). Duplicate
    /// CIDs keep the first registration.
    pub(crate) fn register(&mut self, cid: Xid, raw_dag: Dag) -> usize {
        if let Some(&idx) = self.by_cid.get(&cid) {
            return idx;
        }
        let idx = self.records.len();
        self.records.push(ChunkRecord {
            cid,
            raw_dag,
            staging_state: StagingState::Blank,
            stage_attempts: 0,
            not_before: None,
        });
        self.by_cid.insert(cid, idx);
        idx
    }

    /// Number of registered chunks.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record at session position `idx`.
    pub fn get(&self, idx: usize) -> Option<&ChunkRecord> {
        self.records.get(idx)
    }

    /// Mutable record at session position `idx`.
    pub fn get_mut(&mut self, idx: usize) -> Option<&mut ChunkRecord> {
        self.records.get_mut(idx)
    }

    /// Looks up a record by CID.
    pub(crate) fn by_cid(&self, cid: &Xid) -> Option<(usize, &ChunkRecord)> {
        let idx = *self.by_cid.get(cid)?;
        Some((idx, self.records.get(idx)?))
    }

    /// Marks a staging request sent for the chunk.
    pub(crate) fn mark_pending(&mut self, idx: usize, now: SimTime) {
        if let Some(r) = self.records.get_mut(idx) {
            r.staging_state = StagingState::Pending { since: now };
            r.stage_attempts = r.stage_attempts.saturating_add(1);
        }
    }

    /// Records a successful staging reply for `cid`: its fetches now go
    /// to the edge network `(nid, hid)`. `false` if `cid` is unknown.
    pub(crate) fn mark_ready(&mut self, cid: &Xid, nid: Xid, hid: Xid) -> bool {
        let Some(r) = self
            .by_cid
            .get(cid)
            .and_then(|&idx| self.records.get_mut(idx))
        else {
            return false;
        };
        r.staging_state = StagingState::Ready {
            dag: r.raw_dag.with_fallback(nid, hid),
        };
        true
    }

    /// Marks a chunk as never-to-be-staged (no VNF, or staging failed).
    pub(crate) fn mark_fallback(&mut self, idx: usize) {
        if let Some(r) = self.records.get_mut(idx) {
            r.staging_state = StagingState::Fallback;
        }
    }

    /// Moves every chunk whose staging answer is outstanding to `state`.
    pub(crate) fn replace_pending(&mut self, state: StagingState) {
        for r in &mut self.records {
            if matches!(r.staging_state, StagingState::Pending { .. }) {
                r.staging_state = state.clone();
            }
        }
    }

    /// Records a VNF reject: the chunk returns to `Blank` (it stays a
    /// staging candidate) but is gated until `not_before`; the attempt
    /// count keeps growing, so its own back-off keeps lengthening too.
    pub(crate) fn mark_rejected(&mut self, idx: usize, not_before: SimTime) {
        if let Some(r) = self.records.get_mut(idx) {
            r.staging_state = StagingState::Blank;
            r.not_before = Some(not_before);
        }
    }

    /// Chunks at/after the fetch cursor `from` whose staging is underway
    /// or complete — the paper's *N*, the staged-ahead depth the Staging
    /// Coordinator controls.
    pub(crate) fn staged_ahead(&self, from: usize) -> usize {
        self.records
            .iter()
            .skip(from)
            .filter(|r| {
                matches!(
                    r.staging_state,
                    StagingState::Pending { .. } | StagingState::Ready { .. }
                )
            })
            .count()
    }

    /// Indices of the next `take` unstaged chunks at/after `from`, which
    /// is at or past the fetch cursor — staging candidates. Chunks gated
    /// by a reject's `retry_after` stay out until their gate passes.
    pub(crate) fn staging_candidates(&self, from: usize, take: usize, now: SimTime) -> Vec<usize> {
        self.records
            .iter()
            .enumerate()
            .skip(from.min(self.records.len()))
            .filter(|(_, r)| {
                r.staging_state == StagingState::Blank && r.not_before.is_none_or(|t| t <= now)
            })
            .take(take)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices whose staging request has been outstanding longer than its
    /// own timeout at `now` (control datagrams are best-effort; the
    /// Staging Manager re-issues them on a per-chunk back-off).
    pub(crate) fn stale_pending_with(
        &self,
        now: SimTime,
        timeout_for: impl Fn(&ChunkRecord) -> SimDuration,
    ) -> Vec<usize> {
        self.records
            .iter()
            .enumerate()
            .filter(|(_, r)| match r.staging_state {
                StagingState::Pending { since } => now - since > timeout_for(r),
                _ => false,
            })
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_addr::Principal;

    fn dag(seed: u64) -> (Xid, Dag) {
        let cid = Xid::new_random(Principal::Cid, seed);
        let nid = Xid::new_random(Principal::Nid, 100);
        let hid = Xid::new_random(Principal::Hid, 100);
        (cid, Dag::cid_with_fallback(cid, nid, hid))
    }

    /// A profile of `n` registered chunks.
    fn profile(n: u64) -> ChunkProfile {
        let mut p = ChunkProfile::new();
        for i in 0..n {
            let (c, d) = dag(i);
            p.register(c, d);
        }
        p
    }

    #[test]
    fn register_is_idempotent_and_ordered() {
        let mut p = ChunkProfile::new();
        let (c1, d1) = dag(1);
        let (c2, d2) = dag(2);
        assert_eq!(p.register(c1, d1.clone()), 0);
        assert_eq!(p.register(c2, d2), 1);
        assert_eq!(p.register(c1, d1), 0, "duplicate keeps first slot");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn staging_lifecycle_updates_dag() {
        let mut p = ChunkProfile::new();
        let (c1, d1) = dag(1);
        p.register(c1, d1);
        let t = SimTime::from_micros(10);
        p.mark_pending(0, t);
        assert_eq!(
            p.get(0).unwrap().staging_state,
            StagingState::Pending { since: t }
        );
        let edge_nid = Xid::new_random(Principal::Nid, 7);
        let edge_hid = Xid::new_random(Principal::Hid, 7);
        assert!(p.mark_ready(&c1, edge_nid, edge_hid));
        assert!(!p.mark_ready(&dag(2).0, edge_nid, edge_hid), "unknown CID");
        let r = p.get(0).unwrap();
        assert!(r.uses_staged());
        assert_eq!(r.best_dag().network(), Some(edge_nid));
        assert_eq!(r.best_dag().intent(), c1, "intent unchanged");
    }

    #[test]
    fn fallback_uses_raw_dag() {
        let mut p = ChunkProfile::new();
        let (c1, d1) = dag(1);
        p.register(c1, d1.clone());
        p.mark_fallback(0);
        let r = p.get(0).unwrap();
        assert!(!r.uses_staged());
        assert_eq!(r.best_dag(), &d1);
    }

    #[test]
    fn staged_ahead_counts_pending_and_ready_unfetched() {
        let mut p = profile(5);
        let t = SimTime::from_micros(0);
        p.mark_pending(1, t);
        p.mark_pending(2, t);
        let c3 = p.get(3).unwrap().cid;
        p.mark_pending(3, t);
        p.mark_ready(
            &c3,
            Xid::new_random(Principal::Nid, 9),
            Xid::new_random(Principal::Hid, 9),
        );
        // Chunk 1 fetched (the cursor is at 2): no longer counts.
        assert_eq!(p.staged_ahead(2), 2);
        assert_eq!(p.staged_ahead(3), 1);
    }

    #[test]
    fn candidates_skip_fetched_and_staged() {
        let mut p = profile(6);
        // Chunk 0 fetched (the cursor is at 1).
        p.mark_pending(1, SimTime::from_micros(0));
        p.mark_fallback(2);
        let now = SimTime::from_micros(0);
        assert_eq!(p.staging_candidates(1, 10, now), vec![3, 4, 5]);
        assert_eq!(p.staging_candidates(4, 10, now), vec![4, 5]);
        assert_eq!(p.staging_candidates(1, 1, now), vec![3]);
    }

    #[test]
    fn rejected_chunks_are_gated_until_retry_after() {
        let mut p = profile(3);
        p.mark_pending(0, SimTime::from_micros(0));
        p.mark_rejected(0, SimTime::from_micros(2_000_000));
        let r = p.get(0).unwrap();
        assert_eq!(r.staging_state, StagingState::Blank);
        assert_eq!(r.stage_attempts, 1, "attempts persist across rejects");
        // Gated out before the advisory passes, candidate again after.
        let early = SimTime::from_micros(1_500_000);
        let late = SimTime::from_micros(2_000_000);
        assert_eq!(p.staging_candidates(0, 10, early), vec![1, 2]);
        assert_eq!(p.staging_candidates(0, 10, late), vec![0, 1, 2]);
    }

    #[test]
    fn stale_pending_detection() {
        let mut p = ChunkProfile::new();
        let (c, d) = dag(1);
        p.register(c, d);
        p.mark_pending(0, SimTime::from_micros(0));
        let soon = SimTime::from_micros(500_000);
        let late = SimTime::from_micros(3_000_000);
        let timeout = |_: &ChunkRecord| SimDuration::from_secs(1);
        assert!(p.stale_pending_with(soon, timeout).is_empty());
        assert_eq!(p.stale_pending_with(late, timeout), vec![0]);
    }
}
