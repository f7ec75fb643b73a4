//! Chaos suite: every fault the simulator can inject, driven against full
//! downloads. The invariant under test is the paper's fault-tolerance
//! claim (§III-B): SoftStage may lose staging, never the download — every
//! run below must complete with a byte-correct content hash, within a
//! bounded slowdown of the fault-free run.
//!
//! Every scenario runs with the flight recorder attached and finishes by
//! auditing the recorded trace against the invariant oracle, so a fault
//! path that corrupts event ordering or bookkeeping fails even when the
//! download itself limps through.

mod common;

use softstage_suite::experiments::{build, ExperimentParams, RunResult, Testbed, MB};
use softstage_suite::simnet::fault::{Fault, FaultPlan};
use softstage_suite::simnet::{ClientMode, SimDuration, SimTime, TraceEvent};
use softstage_suite::softstage::SoftStageConfig;

use common::{deadline, small, testbed, Recorded};

const SEEDS: [u64; 3] = [7, 101, 9001];

/// Runs the scenario and asserts the core chaos invariants: the fault
/// fired, completion, content integrity, bounded slowdown versus the
/// fault-free twin, and an oracle-clean trace on both runs. `inject` gets
/// the fault-free run's completion time: the run stops at completion, so
/// a fault timed later never fires. Returns the faulted testbed with its
/// result and its trace so scenarios can assert on post-run node state.
fn assert_survives(
    params: &ExperimentParams,
    inject: impl Fn(&mut Testbed, SimDuration),
) -> (Testbed, RunResult, Recorded) {
    let mut clean_tb = testbed(params);
    clean_tb.sim.enable_trace(|_| {});
    let clean = clean_tb.run(deadline());
    assert!(clean.content_ok, "fault-free run must pass: {clean:?}");
    common::assert_trace_clean(&clean_tb, &format!("clean seed {}", params.seed));
    let clean_t = clean.completion.expect("fault-free completion");

    let mut tb = testbed(params);
    let trace = common::record(&mut tb.sim);
    inject(&mut tb, clean_t - SimTime::ZERO);
    let result = tb.run(deadline());
    let trace = trace.take();
    let fired = trace.records.iter().any(|r| {
        matches!(
            r.event,
            TraceEvent::LinkDown { .. }
                | TraceEvent::FaultOnset { .. }
                | TraceEvent::NodeCrash
                | TraceEvent::CacheWipe
                | TraceEvent::CacheResize { .. }
                | TraceEvent::ServiceDegrade { .. }
        )
    });
    assert!(
        fired,
        "no fault fired before completion (seed {})",
        params.seed
    );
    assert!(
        result.content_ok,
        "download must complete with intact content under faults \
         (seed {}): {result:?}",
        params.seed
    );
    common::assert_trace_clean(&tb, &format!("faulted seed {}", params.seed));
    let faulted_t = result.completion.expect("faulted completion");
    // Bounded slowdown: recovery may cost retry back-offs and re-staging,
    // but never an unbounded stall.
    let bound = SimTime::ZERO + (clean_t - SimTime::ZERO) * 8 + SimDuration::from_secs(120);
    assert!(
        faulted_t <= bound,
        "slowdown out of bounds (seed {}): clean {clean_t:?}, faulted {faulted_t:?}",
        params.seed
    );
    (tb, result, trace)
}

#[test]
fn link_flaps_mid_download_are_survivable() {
    for seed in SEEDS {
        let p = small(seed);
        assert_survives(&p, |tb, clean| {
            let mut plan = FaultPlan::new();
            for (i, &link) in tb.radio_links.clone().iter().enumerate() {
                plan.random_flaps(
                    link,
                    4,
                    SimTime::ZERO + clean / 8,
                    SimTime::ZERO + clean,
                    SimDuration::from_millis(1500),
                    seed ^ (i as u64 + 1),
                );
            }
            plan.apply(&mut tb.sim);
        });
    }
}

#[test]
fn burst_loss_windows_are_survivable() {
    for seed in SEEDS {
        let p = small(seed);
        assert_survives(&p, |tb, _| {
            let mut plan = FaultPlan::new();
            for &link in &tb.radio_links.clone() {
                // Near-total loss for 5 s right in the middle of the
                // first encounters.
                plan.push(Fault::BurstLoss {
                    link,
                    at: SimTime::ZERO + SimDuration::from_secs(4),
                    lasting: SimDuration::from_secs(5),
                    loss: 0.95,
                });
            }
            plan.apply(&mut tb.sim);
        });
    }
}

#[test]
fn wire_corruption_is_dropped_by_checksum_and_survivable() {
    for seed in SEEDS {
        let p = small(seed);
        let (_, result, _) = assert_survives(&p, |tb, _| {
            let mut plan = FaultPlan::new();
            for &link in &tb.radio_links.clone() {
                plan.push(Fault::Corruption {
                    link,
                    at: SimTime::ZERO + SimDuration::from_secs(3),
                    lasting: SimDuration::from_secs(4),
                    prob: 0.5,
                });
            }
            plan.apply(&mut tb.sim);
        });
        assert!(result.content_ok);
    }
}

#[test]
fn vnf_crash_and_restart_is_survivable() {
    for seed in SEEDS {
        let p = small(seed);
        assert_survives(&p, |tb, clean| {
            let mut plan = FaultPlan::new();
            // Both edge routers crash (staging state, caches and beacons
            // die) a third of the way in and come back 8 s later; the
            // client must ride out the silence and re-stage after the
            // restart.
            for &edge in &tb.edges.clone() {
                plan.push(Fault::Crash {
                    node: edge,
                    at: SimTime::ZERO + clean / 3,
                    restart_after: Some(SimDuration::from_secs(8)),
                });
            }
            plan.apply(&mut tb.sim);
        });
    }
}

#[test]
fn cache_wipe_falls_back_to_origin_and_is_survivable() {
    for seed in SEEDS {
        let p = small(seed);
        assert_survives(&p, |tb, clean| {
            let mut plan = FaultPlan::new();
            for &edge in &tb.edges.clone() {
                // Wipe staged chunks twice, mid-encounter: staged fetches
                // miss and must re-fetch from the origin.
                plan.push(Fault::CacheWipe {
                    node: edge,
                    at: SimTime::ZERO + clean / 3,
                });
                plan.push(Fault::CacheWipe {
                    node: edge,
                    at: SimTime::ZERO + clean * 2 / 3,
                });
            }
            plan.apply(&mut tb.sim);
        });
    }
}

#[test]
fn cache_squeeze_evicts_staged_chunks_and_is_survivable() {
    for seed in SEEDS {
        let p = small(seed);
        let (tb, _, _) = assert_survives(&p, |tb, _| {
            let mut plan = FaultPlan::new();
            for &edge in &tb.edges.clone() {
                // Squeeze each edge cache to two chunks' worth mid-run:
                // staged chunks are evicted under pressure, so fetches
                // that miss must re-stage or fall back to the origin.
                plan.push(Fault::CacheSqueeze {
                    node: edge,
                    at: SimTime::ZERO + SimDuration::from_secs(4),
                    capacity: (2 * MB) as usize,
                });
            }
            plan.apply(&mut tb.sim);
        });
        // The squeeze is permanent: the shrunken limit survives the run.
        let caps = tb.edge_cache_capacities();
        assert!(
            !caps.is_empty() && caps.iter().all(|&c| c == (2 * MB) as usize),
            "edge caches must report the squeezed capacity (seed {seed}): {caps:?}"
        );
    }
}

#[test]
fn cache_squeezed_below_one_chunk_refuses_staging_without_lying() {
    for seed in SEEDS {
        let p = small(seed);
        let (tb, _, trace) = assert_survives(&p, |tb, _| {
            let mut plan = FaultPlan::new();
            for &edge in &tb.edges.clone() {
                // Half a chunk of cache before staging starts: no chunk
                // fits, so every staging request must be declined.
                plan.push(Fault::CacheSqueeze {
                    node: edge,
                    at: SimTime::ZERO,
                    capacity: (MB / 2) as usize,
                });
            }
            plan.apply(&mut tb.sim);
        });
        // No chunk fits, so each is declined before any origin fetch —
        // and the client is told so, rather than sent to an edge that
        // does not hold the chunk (NotFound, then a fallback refetch).
        let stats = tb.client_app().stats();
        assert_eq!(
            (stats.from_staged, stats.fallback_refetches),
            (0, 0),
            "client chased a chunk no edge held (seed {seed}): {stats:?}"
        );
        let declined = trace
            .records
            .iter()
            .any(|r| matches!(r.event, TraceEvent::StageAck { ok: false, .. }));
        assert!(declined, "client never heard `ok: false` (seed {seed})");
        let vnf = tb.vnf_stats();
        assert!(
            vnf.iter()
                .all(|v| v.peak_depth == 0 && v.staged + v.failed == 0)
                && vnf.iter().any(|v| v.declined > 0),
            "a chunk no cache can hold must be declined unfetched (seed {seed}): {vnf:?}"
        );
    }
}

#[test]
fn slow_edge_service_degradation_is_survivable() {
    for seed in SEEDS {
        let p = small(seed);
        assert_survives(&p, |tb, _| {
            let mut plan = FaultPlan::new();
            for &edge in &tb.edges.clone() {
                // Every staging reply is held 1.5 s for a 20 s window:
                // acks land late — some after the client's back-off fires —
                // and the download must absorb the jitter.
                plan.push(Fault::SlowEdge {
                    node: edge,
                    at: SimTime::ZERO + SimDuration::from_secs(2),
                    lasting: SimDuration::from_secs(20),
                    delay: SimDuration::from_millis(1500),
                });
            }
            plan.apply(&mut tb.sim);
        });
    }
}

#[test]
fn vnf_unreachable_uses_explicit_origin_fallback() {
    for seed in SEEDS {
        let p = ExperimentParams {
            vnf_deployed: false,
            ..small(seed)
        };
        let mut tb = testbed(&p);
        tb.sim.enable_trace(|_| {});
        let result = tb.run(deadline());
        assert!(result.content_ok, "no-VNF run (seed {seed}): {result:?}");
        assert_eq!(result.stats.from_staged, 0);
        common::assert_trace_clean(&tb, &format!("no-VNF seed {seed}"));
        let app = tb.client_app();
        assert!(
            app.stats().origin_fallbacks > 0,
            "origin-DAG fallback must be recorded: {:?}",
            app.stats()
        );
        assert_eq!(app.mode(), ClientMode::OriginFallback);
    }
}

#[test]
fn long_edge_outage_charges_no_retries_while_detached_and_staging_resumes() {
    for seed in SEEDS {
        let p = ExperimentParams {
            // One network, so the client cannot escape to a healthy VNF.
            edge_networks: 1,
            file_size: 12 * MB,
            chunk_size: MB,
            seed,
            ..ExperimentParams::default()
        };
        let schedule = p.alternating_schedule(SimDuration::from_secs(2000));
        let mut tb = build(&p, &schedule, SoftStageConfig::default());
        let trace = common::record(&mut tb.sim);
        let mut plan = FaultPlan::new();
        // The crash lands just after association, with the first staging
        // requests outstanding. Unanswered, they time out through the
        // rest of that encounter; after it the client cannot associate
        // (no beacons) and, detached, neither asks nor charges its retry
        // budget (64 re-requests, 600–700 s of back-off) until the router
        // is back, 900 s later.
        let first_gap = SimTime::ZERO + p.encounter;
        let (crash, outage) = (SimTime::from_micros(200_000), SimDuration::from_secs(900));
        let back = crash + outage;
        for &edge in &tb.edges.clone() {
            plan.push(Fault::Crash {
                node: edge,
                at: crash,
                restart_after: Some(outage),
            });
        }
        plan.apply(&mut tb.sim);
        let result = tb.run(deadline());
        assert!(
            result.content_ok,
            "the run must complete intact (seed {seed}): {result:?}"
        );
        common::assert_trace_clean(&tb, &format!("long-outage seed {seed}"));
        let app = tb.client_app();
        let stats = app.stats();
        let detached_timeout = trace.borrow().records.iter().any(|r| {
            matches!(r.event, TraceEvent::StageTimeout { .. }) && r.at > first_gap && r.at < back
        });
        // Every retry charged is a timeout of an associated edge.
        assert!(
            !detached_timeout && stats.stage_retries == stats.stage_timeouts,
            "the outage charged retries while detached (seed {seed}): {stats:?}"
        );
        assert_eq!(app.mode(), ClientMode::Active);
        assert!(
            result
                .stats
                .chunk_completions
                .iter()
                .any(|&(at, _, staged)| staged && at > back),
            "staging must resume after the outage (seed {seed}): {stats:?}"
        );
    }
}

/// A crash kills the node's timers even when it is over before they
/// mature: the rebooted edge advertises on the one chain `on_start`
/// re-armed, not on that and the pre-crash chain together.
#[test]
fn crash_shorter_than_a_beacon_interval_does_not_double_the_beacons() {
    use softstage_suite::vehicular::BeaconApp;
    use softstage_suite::xia_router::RouterNode;

    let mut tb = testbed(&small(42));
    let edge = tb.edges[0];
    let mut plan = FaultPlan::new();
    // Down for 30 ms of the 100 ms beacon interval.
    plan.push(Fault::Crash {
        node: edge,
        at: SimTime::from_micros(5_010_000),
        restart_after: Some(SimDuration::from_millis(30)),
    });
    plan.apply(&mut tb.sim);
    let sent = |tb: &Testbed| {
        let host = tb.sim.node::<RouterNode>(edge).expect("edge router").host();
        let beacon = (0..2).find_map(|i| host.app::<BeaconApp>(i));
        beacon.expect("edge advertises").sent
    };
    tb.sim.run_until(SimTime::from_micros(6_000_000));
    let after_restart = sent(&tb);
    tb.sim.run_until(SimTime::from_micros(16_000_000));
    let in_ten_seconds = sent(&tb) - after_restart;
    assert!(
        (95..=105).contains(&in_ten_seconds),
        "one beacon per 100 ms, got {in_ten_seconds} in 10 s"
    );
}
