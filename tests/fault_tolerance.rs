//! Fault tolerance: SoftStage must degrade to Xftp-equivalent behaviour,
//! never break the download (§III-B "Fault Tolerance", Table II). Every
//! testbed scenario also runs under the flight recorder and must produce
//! an oracle-clean trace.

mod common;

use softstage_suite::experiments::{build, ExperimentParams, MBPS};
use softstage_suite::simnet::SimDuration;
use softstage_suite::softstage::SoftStageConfig;

use common::deadline;

fn small() -> ExperimentParams {
    common::small(ExperimentParams::default().seed)
}

#[test]
fn no_vnf_deployed_falls_back_to_origin_everywhere() {
    let p = ExperimentParams {
        vnf_deployed: false,
        ..small()
    };
    let schedule = p.alternating_schedule(SimDuration::from_secs(2000));
    let mut tb = build(&p, &schedule, SoftStageConfig::default());
    tb.sim.enable_trace(|_| {});
    let result = tb.run(deadline());
    assert!(result.content_ok, "completes without any VNF: {result:?}");
    assert_eq!(result.stats.from_staged, 0);
    assert_eq!(result.stats.from_origin, 6);
    common::assert_trace_clean(&tb, "no VNF deployed");
}

#[test]
fn severe_internet_loss_is_survivable() {
    // 15 Mbps-equivalent loss-throttled Internet plus 37 % wireless loss.
    let p = ExperimentParams {
        internet_bw_bps: 15 * MBPS,
        wireless_loss: 0.37,
        ..small()
    };
    let schedule = p.alternating_schedule(SimDuration::from_secs(2000));
    // Both the SoftStage client and the Xftp baseline must survive; the
    // oracle relaxes handoff atomicity for the baseline's legacy policy
    // automatically (see `World::audit_trace`).
    for (name, config) in [
        ("softstage", SoftStageConfig::default()),
        ("baseline", SoftStageConfig::baseline()),
    ] {
        let mut tb = build(&p, &schedule, config);
        tb.sim.enable_trace(|_| {});
        let result = tb.run(deadline());
        assert!(result.content_ok, "harsh conditions ({name}): {result:?}");
        common::assert_trace_clean(&tb, &format!("severe loss, {name}"));
    }
}

#[test]
fn single_network_with_gaps_works_without_handoff_targets() {
    // Only one edge network: every disconnection is a pure outage.
    let p = ExperimentParams {
        edge_networks: 1,
        ..small()
    };
    let mut tb = common::testbed(&p);
    tb.sim.enable_trace(|_| {});
    let result = tb.run(deadline());
    assert!(result.content_ok, "single-network drive: {result:?}");
    common::assert_trace_clean(&tb, "single network");
}

#[test]
fn sparse_coverage_trace_still_makes_progress() {
    // fig7's replay harness owns its simulators internally, so this
    // scenario runs without the flight recorder.
    use softstage_suite::vehicular::{synthesize_wardriving, WardrivingParams};
    let trace = synthesize_wardriving(
        "sparse",
        WardrivingParams {
            coverage: 0.3,
            mean_burst_s: 10.0,
            total_s: 120.0,
        },
        5,
    );
    let result = softstage_suite::experiments::fig7::replay(&trace, 5);
    assert!(
        result.softstage_chunks >= result.xftp_chunks,
        "staging never hurts: {result:?}"
    );
    assert!(result.softstage_chunks > 0, "progress under 30% coverage");
}
