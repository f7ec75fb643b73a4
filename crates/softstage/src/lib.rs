//! SoftStage: client-instructed, reactive content staging for vehicular
//! content delivery in the eXpressive Internet Architecture.
//!
//! This crate implements the primary contribution of *SoftStage: Content
//! Staging for Vehicular Content Delivery in the eXpressive Internet
//! Architecture* (ICDCS 2019): a network-layer function that uses edge
//! caching (XCache) to keep a mobile client's chunk fetches on the short,
//! fast wireless segment instead of the long, lossy Internet path —
//! without predicting client mobility and without changing application
//! semantics.
//!
//! The split follows the paper:
//!
//! - [`SoftStageClient`] — the client-side **Staging Manager**: Chunk
//!   Profile ([`profile`]), Chunk Manager (transparent `XfetchChunk*`
//!   delegation), Network Sensor + Handoff Manager (including the
//!   chunk-aware handoff policy), Staging Coordinator ([`coordinator`],
//!   the reactive `N < (RTT + L_stage)/L_fetch` rule) and Staging Tracker.
//! - [`StagingVnf`] — the stateless edge-side executor embedded in the
//!   access router's XCache, answering staging requests by prefetching
//!   chunks from their origin.
//!
//! # Quick start
//!
//! Build a topology with `xia-router`/`xia-host`, deploy a [`StagingVnf`]
//! on each edge router, advertise it in beacons (`vehicular::BeaconApp`),
//! and run a [`SoftStageClient`] on the mobile host. The
//! `softstage-experiments` crate assembles exactly the paper's testbed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod client;
pub mod coordinator;
pub mod messages;
pub mod profile;
pub mod vnf;

pub use breaker::{Breaker, BreakerConfig};
pub use client::{stage_wait_bound, ClientStats, HandoffPolicy, SoftStageClient, SoftStageConfig};
pub use coordinator::{CoordinatorConfig, Ewma, StagingCoordinator};
pub use messages::StagingMsg;
pub use profile::{ChunkProfile, ChunkRecord, StagingState};
pub use vnf::{AdmissionPolicy, StagingVnf, VnfConfig, VnfStats};

/// Admission end to end: the client declares the chunk size and the
/// coordinator stamps the deadline; the VNF declines what its cache cannot
/// hold and sheds on the deadline.
#[cfg(test)]
mod admission {
    mod tests {
        use crate::coordinator::{CoordinatorConfig, StagingCoordinator};
        use crate::vnf::tests::Already::{Cached, InFlight, Nowhere};
        use crate::vnf::tests::Answer::{Fetch, Joined, Staged};
        use crate::vnf::tests::{answer, verdict};
        use crate::AdmissionPolicy::{AlwaysAdmit, DeadlineAware};
        use simnet::{RejectReason::Deadline, SimTime};

        #[test]
        fn a_job_starts_only_if_the_cache_holds_it_beside_the_jobs_in_flight() {
            // (capacity, bytes in flight, chunk) → answer.
            let rows: [(usize, &[u64], u64, _); 5] = [
                (256, &[], 256, Fetch),
                (256, &[64, 64], 128, Fetch),
                (256, &[64, 64], 129, Staged(false)),
                (256, &[192], 128, Staged(false)),
                (256, &[128, 64], 64, Fetch),
            ];
            for (capacity, in_flight, bytes, want) in rows {
                let got = answer(capacity, in_flight, bytes, Nowhere);
                assert_eq!(got, want, "{bytes} B beside {in_flight:?} in {capacity} B");
            }
        }

        #[test]
        fn a_chunk_larger_than_the_cache_is_declined_with_no_fetch() {
            // `answer` also checks that no fetch started and that the
            // decline is counted and traced as one, not as a reject.
            for (capacity, bytes) in [(256, 257), (0, 1)] {
                assert_eq!(answer(capacity, &[], bytes, Nowhere), Staged(false));
            }
        }

        #[test]
        fn a_join_or_a_cached_chunk_is_never_declined() {
            // Each would be declined as a new job: the cache is full.
            assert_eq!(answer(256, &[], 256, InFlight), Joined);
            assert_eq!(answer(512, &[256], 256, InFlight), Joined);
            assert_eq!(answer(256, &[64, 192], 256, Cached), Staged(true));
            assert_eq!(answer(256, &[], 512, Cached), Staged(true));
        }

        #[test]
        fn always_admit_admits() {
            // Even past a deadline it has the evidence for.
            assert_eq!(verdict(AlwaysAdmit, (Some(500_000), 3, 600_000)), None);
        }

        #[test]
        fn cold_fleet_is_not_admitted_past_a_hopeless_backlog() {
            // A fresh client's deadline is the coordinator's cold-start
            // horizon. Behind 12 jobs of 1.5 s it lands at 19.5 s, past the
            // 10 s horizon: shed. Behind 2 jobs, at 4.5 s: admit.
            let cold = StagingCoordinator::new(CoordinatorConfig::default())
                .deadline_us_for(SimTime::ZERO, 1);
            let got = [12, 2].map(|n| verdict(DeadlineAware, (Some(1_500_000), n, cold)));
            assert_eq!(got, [Some(Deadline), None]);
        }

        #[test]
        fn deadline_aware_sheds_only_on_evidence() {
            // No estimate yet: admit, however tight the deadline. An empty
            // queue lands in one estimate, 0.5 s ≤ 0.6 s: admit. Three jobs
            // ahead land it at 2 s: shed.
            let est = Some(500_000);
            let rows = [(None, 8, 1), (est, 0, 600_000), (est, 3, 600_000)];
            let got = rows.map(|row| verdict(DeadlineAware, row));
            assert_eq!(got, [None, None, Some(Deadline)]);
        }
    }
}
