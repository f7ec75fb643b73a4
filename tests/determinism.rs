//! Determinism regression: the simulation is a pure function of
//! `(topology, params, seed)` — two runs of the same configuration must
//! produce byte-identical statistics, with and without an active fault
//! schedule. Any hidden nondeterminism (hash-map iteration order leaking
//! into event order, unseeded randomness, wall-clock use) breaks this.
//!
//! The digest also folds in the flight recorder's full event sequence, so
//! nondeterminism visible only in event *ordering* (not in the final
//! counters) is caught too.

mod common;

use softstage_suite::simnet::fault::{Fault, FaultPlan};
use softstage_suite::simnet::{SimDuration, SimTime};

/// Runs one download and folds every observable statistic — including the
/// recorded trace — into a digest.
fn run_digest(seed: u64, faults: bool) -> [u8; 20] {
    let p = common::small(seed);
    let mut tb = common::testbed(&p);
    let trace = common::record(&mut tb.sim);
    if faults {
        let mut plan = FaultPlan::new();
        for (i, &link) in tb.radio_links.clone().iter().enumerate() {
            plan.random_flaps(
                link,
                3,
                SimTime::ZERO + SimDuration::from_secs(2),
                SimTime::ZERO + SimDuration::from_secs(40),
                SimDuration::from_millis(1200),
                seed ^ (i as u64 + 1),
            );
            plan.push(Fault::BurstLoss {
                link,
                at: SimTime::ZERO + SimDuration::from_secs(10),
                lasting: SimDuration::from_secs(3),
                loss: 0.9,
            });
        }
        for &edge in &tb.edges.clone() {
            plan.push(Fault::CacheWipe {
                node: edge,
                at: SimTime::ZERO + SimDuration::from_secs(8),
            });
        }
        plan.apply(&mut tb.sim);
    }
    let result = tb.run(common::deadline());
    common::assert_trace_clean(&tb, &format!("seed {seed} faults {faults}"));
    let label = format!("seed={seed} faults={faults}");
    common::digest_of(&tb, &label, &result, &trace.take())
}

#[test]
fn same_seed_is_byte_identical() {
    for seed in [3u64, 77] {
        let a = run_digest(seed, false);
        let b = run_digest(seed, false);
        assert_eq!(a, b, "fault-free runs diverged for seed {seed}");
    }
}

#[test]
fn same_seed_is_byte_identical_under_faults() {
    for seed in [3u64, 77] {
        let a = run_digest(seed, true);
        let b = run_digest(seed, true);
        assert_eq!(a, b, "faulted runs diverged for seed {seed}");
    }
}

#[test]
fn different_seeds_differ() {
    // Sanity: the seed actually reaches the simulation.
    assert_ne!(run_digest(3, false), run_digest(4, false));
}
