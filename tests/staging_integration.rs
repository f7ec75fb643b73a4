//! Staging-path integration: VNF behaviour, profile state, coordinator
//! adaptation.

use simnet::{SimDuration, SimTime};
use softstage_suite::experiments::{build, ExperimentParams, MB, MBPS};
use softstage_suite::softstage::{SoftStageConfig, StagingVnf};
use softstage_suite::xia_router::RouterNode;

fn deadline() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(2000)
}

#[test]
fn vnf_stages_and_serves_chunks() {
    let p = ExperimentParams {
        file_size: 6 * MB,
        chunk_size: MB,
        ..ExperimentParams::default()
    };
    let schedule = p.alternating_schedule(SimDuration::from_secs(600));
    let mut tb = build(&p, &schedule, SoftStageConfig::default());
    let result = tb.run(deadline());
    assert!(result.content_ok);
    // At least one edge VNF did real staging work.
    let mut staged_total = 0;
    let mut intercepts = 0;
    for &edge in &tb.edges {
        let router = tb.sim.node::<RouterNode>(edge).unwrap();
        let vnf = router.host().app::<StagingVnf>(0).expect("vnf deployed");
        staged_total += vnf.stats().staged;
        intercepts += router.stats().cid_intercepts;
    }
    assert!(staged_total > 0, "VNFs staged chunks from the origin");
    assert!(intercepts > 0, "edge caches intercepted CID fetches");
    // Staged fetches dominate.
    assert!(result.stats.from_staged >= result.stats.from_origin);
}

#[test]
fn coordinator_deepens_staging_when_internet_slows() {
    // Run two scenarios and compare the final target depth estimate.
    let depth_for = |bw_mbps: u64| {
        let p = ExperimentParams {
            file_size: 12 * MB,
            chunk_size: MB,
            internet_bw_bps: bw_mbps * MBPS,
            ..ExperimentParams::default()
        };
        let schedule = p.alternating_schedule(SimDuration::from_secs(2000));
        let mut tb = build(&p, &schedule, SoftStageConfig::default());
        let result = tb.run(deadline());
        assert!(result.content_ok, "{bw_mbps} Mbps run finished");
        tb.client_app().coordinator().target_depth()
    };
    let fast = depth_for(60);
    let slow = depth_for(15);
    assert!(
        slow >= fast,
        "staging depth at 15 Mbps ({slow}) >= at 60 Mbps ({fast})"
    );
}

#[test]
fn profile_reaches_consistent_terminal_state() {
    let p = ExperimentParams {
        file_size: 4 * MB,
        chunk_size: MB,
        ..ExperimentParams::default()
    };
    let schedule = p.alternating_schedule(SimDuration::from_secs(600));
    let mut tb = build(&p, &schedule, SoftStageConfig::default());
    let result = tb.run(deadline());
    assert!(result.content_ok);
    let app = tb.client_app();
    assert!(app.is_done());
    // Every chunk is DONE: the fetch cursor has passed the whole profile.
    assert_eq!(app.profile().len(), 4);
    assert_eq!(app.fetched_chunks(), 4);
    // That is Table I's fetch state because chunks complete strictly in
    // order, each once.
    let stats = app.stats();
    let order: Vec<usize> = stats.chunk_completions.iter().map(|c| c.1).collect();
    assert_eq!(order, [0, 1, 2, 3]);
    assert_eq!(stats.from_staged + stats.from_origin, 4);
}

#[test]
fn tiny_edge_cache_forces_origin_fallbacks_but_completes() {
    // The edge cache can hold barely one chunk: staged copies are evicted
    // under churn, so some staged fetches fail and fall back to the
    // origin (the paper's fault-tolerance path).
    let p = ExperimentParams {
        file_size: 8 * MB,
        chunk_size: MB,
        ..ExperimentParams::default()
    };
    let schedule = p.alternating_schedule(SimDuration::from_secs(600));
    let mut tb = build(&p, &schedule, SoftStageConfig::default());
    for &edge in &tb.edges.clone() {
        // Shrink the store *after* build: keep existing entries out.
        let router = tb.sim.node_mut::<RouterNode>(edge).unwrap();
        let store = router.host_mut().store_mut();
        *store = softstage_suite::xcache::ChunkStore::new(
            MB + MB / 2,
            softstage_suite::xcache::EvictionPolicy::Lru,
        );
    }
    let result = tb.run(deadline());
    assert!(result.completion.is_some(), "still completes: {result:?}");
    assert!(result.content_ok);
}
