//! The Chunk Profile (Table I of the paper): per-chunk staging state, kept
//! on the client by the Staging Manager. Its retry and back-off schedule
//! is a set of constants in `client.rs`.

use std::collections::BTreeMap;

use simnet::{SimDuration, SimTime};
use xia_addr::{Dag, Xid};

/// Fetch state of a chunk (Table I: `BLANK`, `DONE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FetchState {
    /// Not yet fetched.
    #[default]
    Blank,
    /// Delivered to the application.
    Done,
}

/// Staging state of a chunk (Table I: `BLANK`, `PENDING`, `READY`; plus
/// the "set to DONE to avoid duplicated staging" fallback mark).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StagingState {
    /// Not requested.
    #[default]
    Blank,
    /// Requested from a Staging VNF, answer outstanding.
    Pending,
    /// Staged at an edge network; `new_dag` is valid.
    Ready,
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
    /// Destination address with the edge network holding the staged chunk
    /// as fallback (valid when staging is [`StagingState::Ready`]).
    pub new_dag: Option<Dag>,
    /// Fetch state.
    pub fetch_state: FetchState,
    /// Staging state.
    pub staging_state: StagingState,
    /// `(NID, HID)` of the edge network holding the staged chunk.
    pub location: Option<(Xid, Xid)>,
    /// When the outstanding staging request was sent.
    pub pending_since: Option<SimTime>,
    /// Staging requests sent for this chunk so far (drives the retry
    /// back-off; never reset, so re-requests keep slowing down).
    pub stage_attempts: u32,
    /// Earliest time this chunk may be re-requested — set when the VNF
    /// rejects it with an advisory `retry_after`.
    pub not_before: Option<SimTime>,
    /// Time to fetch this chunk to the client, once measured.
    pub fetch_latency: Option<SimDuration>,
    /// Time the VNF took to stage this chunk from the origin.
    pub staging_latency: Option<SimDuration>,
}

impl ChunkRecord {
    /// The address the Chunk Manager should fetch this chunk from: the
    /// staged location if ready, otherwise the origin (fault-tolerance
    /// fallback).
    pub(crate) fn best_dag(&self) -> &Dag {
        match (&self.new_dag, self.staging_state) {
            (Some(dag), StagingState::Ready) => dag,
            _ => &self.raw_dag,
        }
    }

    /// Whether the staged copy would be used by [`ChunkRecord::best_dag`].
    pub(crate) fn uses_staged(&self) -> bool {
        self.staging_state == StagingState::Ready && self.new_dag.is_some()
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
            new_dag: None,
            fetch_state: FetchState::Blank,
            staging_state: StagingState::Blank,
            location: None,
            pending_since: None,
            stage_attempts: 0,
            not_before: None,
            fetch_latency: None,
            staging_latency: None,
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
        Some((idx, &self.records[idx]))
    }

    /// Mutable lookup by CID.
    pub(crate) fn by_cid_mut(&mut self, cid: &Xid) -> Option<(usize, &mut ChunkRecord)> {
        let idx = *self.by_cid.get(cid)?;
        Some((idx, &mut self.records[idx]))
    }

    /// Marks a staging request sent for the chunk.
    pub(crate) fn mark_pending(&mut self, idx: usize, now: SimTime) {
        let r = &mut self.records[idx];
        r.staging_state = StagingState::Pending;
        r.pending_since = Some(now);
        r.stage_attempts = r.stage_attempts.saturating_add(1);
    }

    /// Records a successful staging reply for `cid`.
    pub(crate) fn mark_ready(
        &mut self,
        cid: &Xid,
        nid: Xid,
        hid: Xid,
        staging_latency: SimDuration,
    ) -> Option<usize> {
        let (idx, r) = self.by_cid_mut(cid)?;
        r.staging_state = StagingState::Ready;
        r.location = Some((nid, hid));
        r.new_dag = Some(r.raw_dag.with_fallback(nid, hid));
        r.staging_latency = Some(staging_latency);
        r.pending_since = None;
        Some(idx)
    }

    /// Marks a chunk as never-to-be-staged (no VNF, or staging failed).
    pub(crate) fn mark_fallback(&mut self, idx: usize) {
        let r = &mut self.records[idx];
        r.staging_state = StagingState::Fallback;
        r.pending_since = None;
    }

    /// Records a VNF reject: the chunk returns to `Blank` (it stays a
    /// staging candidate) but is gated until `not_before`; the attempt
    /// count keeps growing, so its own back-off keeps lengthening too.
    pub(crate) fn mark_rejected(&mut self, idx: usize, not_before: SimTime) {
        let r = &mut self.records[idx];
        r.staging_state = StagingState::Blank;
        r.pending_since = None;
        r.not_before = Some(not_before);
    }

    /// Records fetch completion.
    pub(crate) fn mark_fetched(&mut self, idx: usize, latency: SimDuration) {
        let r = &mut self.records[idx];
        r.fetch_state = FetchState::Done;
        r.fetch_latency = Some(latency);
    }

    /// Chunks at/after `from` whose staging is underway or complete but
    /// which have not been fetched — the paper's *N*, the staged-ahead
    /// depth the Staging Coordinator controls.
    pub(crate) fn staged_ahead(&self, from: usize) -> usize {
        self.records[from.min(self.records.len())..]
            .iter()
            .filter(|r| {
                r.fetch_state == FetchState::Blank
                    && matches!(r.staging_state, StagingState::Pending | StagingState::Ready)
            })
            .count()
    }

    /// Indices of the next `take` unfetched, unstaged chunks at/after
    /// `from` — staging candidates. Chunks gated by a reject's
    /// `retry_after` stay out until their gate passes.
    pub(crate) fn staging_candidates(&self, from: usize, take: usize, now: SimTime) -> Vec<usize> {
        self.records
            .iter()
            .enumerate()
            .skip(from.min(self.records.len()))
            .filter(|(_, r)| {
                r.fetch_state == FetchState::Blank
                    && r.staging_state == StagingState::Blank
                    && r.not_before.map_or(true, |t| t <= now)
            })
            .take(take)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices whose staging request has been outstanding longer than
    /// `timeout` at `now` (control datagrams are best-effort; retry).
    #[cfg(test)]
    pub(crate) fn stale_pending(&self, now: SimTime, timeout: SimDuration) -> Vec<usize> {
        self.stale_pending_with(now, |_| timeout)
    }

    /// Stale pending staging requests with a per-record timeout
    /// (used for the Staging Manager's per-chunk retry back-off).
    pub(crate) fn stale_pending_with(
        &self,
        now: SimTime,
        timeout_for: impl Fn(&ChunkRecord) -> SimDuration,
    ) -> Vec<usize> {
        self.records
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                r.staging_state == StagingState::Pending
                    && r.pending_since.is_some_and(|t| now - t > timeout_for(r))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Count of fetched chunks.
    pub fn fetched(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.fetch_state == FetchState::Done)
            .count()
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
        assert_eq!(p.get(0).unwrap().staging_state, StagingState::Pending);
        let edge_nid = Xid::new_random(Principal::Nid, 7);
        let edge_hid = Xid::new_random(Principal::Hid, 7);
        let idx = p
            .mark_ready(&c1, edge_nid, edge_hid, SimDuration::from_millis(80))
            .unwrap();
        assert_eq!(idx, 0);
        let r = p.get(0).unwrap();
        assert!(r.uses_staged());
        assert_eq!(r.best_dag().network(), Some(edge_nid));
        assert_eq!(r.best_dag().intent(), c1, "intent unchanged");
        assert_eq!(r.location, Some((edge_nid, edge_hid)));
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
        let mut p = ChunkProfile::new();
        for i in 0..5 {
            let (c, d) = dag(i);
            p.register(c, d);
        }
        let t = SimTime::from_micros(0);
        p.mark_pending(1, t);
        p.mark_pending(2, t);
        let c3 = p.get(3).unwrap().cid;
        p.mark_pending(3, t);
        p.mark_ready(
            &c3,
            Xid::new_random(Principal::Nid, 9),
            Xid::new_random(Principal::Hid, 9),
            SimDuration::from_millis(10),
        );
        // Chunk 1 fetched: no longer counts.
        p.mark_fetched(1, SimDuration::from_millis(5));
        assert_eq!(p.staged_ahead(0), 2);
        assert_eq!(p.staged_ahead(3), 1);
    }

    #[test]
    fn candidates_skip_fetched_and_staged() {
        let mut p = ChunkProfile::new();
        for i in 0..6 {
            let (c, d) = dag(i);
            p.register(c, d);
        }
        p.mark_fetched(0, SimDuration::from_millis(1));
        p.mark_pending(1, SimTime::from_micros(0));
        p.mark_fallback(2);
        let now = SimTime::from_micros(0);
        assert_eq!(p.staging_candidates(0, 10, now), vec![3, 4, 5]);
        assert_eq!(p.staging_candidates(4, 10, now), vec![4, 5]);
        assert_eq!(p.staging_candidates(0, 1, now), vec![3]);
    }

    #[test]
    fn rejected_chunks_are_gated_until_retry_after() {
        let mut p = ChunkProfile::new();
        for i in 0..3 {
            let (c, d) = dag(i);
            p.register(c, d);
        }
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
        let timeout = SimDuration::from_secs(1);
        assert!(p.stale_pending(soon, timeout).is_empty());
        assert_eq!(p.stale_pending(late, timeout), vec![0]);
    }
}
