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
pub use client::{ClientStats, HandoffPolicy, SoftStageClient, SoftStageConfig, StagingMode};
pub use coordinator::{CoordinatorConfig, Ewma, StagingCoordinator};
pub use messages::StagingMsg;
pub use profile::{ChunkProfile, ChunkRecord, StagingState};
pub use vnf::{AdmissionPolicy, StagingVnf, VnfConfig, VnfStats};

/// Admission end to end: the coordinator stamps the deadline, the VNF sheds on it.
#[cfg(test)]
mod admission {
    mod tests {
        use crate::coordinator::{CoordinatorConfig, StagingCoordinator};
        use crate::vnf::tests::verdict;
        use crate::AdmissionPolicy::{AlwaysAdmit, DeadlineAware};
        use simnet::{RejectReason::Deadline, SimTime};

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
