//! Admission control for the staging VNF.
//!
//! The VNF enforces its hard queue caps (depth and bytes) itself; an
//! [`AdmissionPolicy`] decides, below those caps, whether a staging job
//! is worth starting at all. The deadline-aware policy implements the
//! RICH-style signal (arXiv 1908.07228): shed a request whose chunk
//! cannot stage before the client's predicted usefulness deadline —
//! staging it would burn backhaul on a chunk the vehicle will already
//! have fetched from the origin (or driven past) by the time it lands.

use simnet::{RejectReason, SimDuration, SimTime};

/// The staging queue at the instant an admission decision is made.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdmissionSnapshot {
    /// In-flight staging jobs (distinct origin fetches).
    pub depth: usize,
    /// Current sim time.
    pub now: SimTime,
    /// The client's usefulness deadline for this request, if it sent one.
    pub deadline: Option<SimTime>,
    /// The VNF's smoothed estimate of one staging job's latency.
    pub est_stage: Option<SimDuration>,
}

/// Decides whether the VNF takes on one more staging job. Policies run
/// only below the depth cap, so they refine — never replace —
/// backpressure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Admits everything below the depth cap.
    #[default]
    AlwaysAdmit,
    /// Sheds requests that cannot stage before the client's deadline.
    ///
    /// The wait for a free slot is approximated as one smoothed staging
    /// latency per queued job ahead of this one, plus the job's own
    /// fetch. Requests without a deadline, and VNFs without a latency
    /// estimate yet, always admit — the policy only sheds on evidence.
    DeadlineAware,
}

impl AdmissionPolicy {
    /// One admission decision for one chunk: `None` admits the job,
    /// `Some(reason)` sheds it with a typed reject.
    pub(crate) fn admit(self, q: &AdmissionSnapshot) -> Option<RejectReason> {
        match (self, q.deadline, q.est_stage) {
            (AdmissionPolicy::DeadlineAware, Some(deadline), Some(est)) => {
                let landing = q.now + est * (q.depth as u64 + 1);
                (landing > deadline).then_some(RejectReason::Deadline)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(depth: usize, deadline_us: Option<u64>, est_us: Option<u64>) -> AdmissionSnapshot {
        AdmissionSnapshot {
            depth,
            now: SimTime::from_micros(1_000_000),
            deadline: deadline_us.map(SimTime::from_micros),
            est_stage: est_us.map(SimDuration::from_micros),
        }
    }

    #[test]
    fn always_admit_admits() {
        let p = AdmissionPolicy::AlwaysAdmit;
        assert_eq!(p.admit(&snap(15, None, None)), None);
        // Even past a deadline it has the evidence for.
        assert_eq!(p.admit(&snap(3, Some(1_600_000), Some(500_000))), None);
    }

    #[test]
    fn cold_fleet_is_not_admitted_past_a_hopeless_backlog() {
        // Regression for the cold-start hole: the client used to stamp
        // `deadline_us = 0` until its first fetch estimate existed, which
        // reached this policy as `deadline: None` — unconditional
        // admission at exactly the thundering-herd moment. The coordinator
        // now substitutes its cold-start horizon, so this test fails
        // against the pre-fix client behavior (final assertion below).
        use crate::coordinator::{CoordinatorConfig, StagingCoordinator};
        let p = AdmissionPolicy::DeadlineAware;
        let coord = StagingCoordinator::new(CoordinatorConfig::default());
        let now = SimTime::from_micros(5_000_000);
        let deadline = SimTime::from_micros(coord.deadline_us_for(now, 2));
        // A VNF with a measured 1.5 s staging latency and a 12-deep
        // backlog lands this job ~19.5 s out — past the 10 s cold
        // horizon: shed.
        let hopeless = AdmissionSnapshot {
            depth: 12,
            now,
            deadline: Some(deadline),
            est_stage: Some(SimDuration::from_millis(1500)),
        };
        assert_eq!(p.admit(&hopeless), Some(RejectReason::Deadline));
        // The same cold request onto a short queue admits (~4.5 s ≤ 10 s):
        // the horizon is generous enough that fresh fleets are not
        // mass-shed either.
        let healthy = AdmissionSnapshot {
            depth: 2,
            ..hopeless
        };
        assert_eq!(p.admit(&healthy), None);
        // What the pre-fix client sent (no deadline at all) admits even the
        // hopeless backlog — the hole this change closes.
        let pre_fix = AdmissionSnapshot {
            deadline: None,
            ..hopeless
        };
        assert_eq!(p.admit(&pre_fix), None);
    }

    #[test]
    fn deadline_aware_sheds_only_on_evidence() {
        let p = AdmissionPolicy::DeadlineAware;
        // No deadline or no estimate: admit.
        assert_eq!(p.admit(&snap(8, None, Some(500_000))), None);
        assert_eq!(p.admit(&snap(8, Some(1_200_000), None)), None);
        // An empty queue stages in one est (1.0 s + 0.5 s ≤ 1.6 s): admit.
        assert_eq!(p.admit(&snap(0, Some(1_600_000), Some(500_000))), None);
        // Three jobs ahead push the landing past the deadline: shed.
        assert_eq!(
            p.admit(&snap(3, Some(1_600_000), Some(500_000))),
            Some(RejectReason::Deadline)
        );
    }
}
