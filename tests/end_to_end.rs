//! Whole-system integration: the paper's testbed downloads correct
//! content deterministically with both clients.

use simnet::{SimDuration, SimTime};
use softstage_suite::experiments::{build, ExperimentParams, MB};
use softstage_suite::softstage::SoftStageConfig;

fn params() -> ExperimentParams {
    ExperimentParams {
        file_size: 6 * MB,
        chunk_size: MB,
        ..ExperimentParams::default()
    }
}

fn deadline() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(600)
}

#[test]
fn both_clients_download_verified_content() {
    let p = params();
    let schedule = p.alternating_schedule(SimDuration::from_secs(600));
    for config in [SoftStageConfig::default(), SoftStageConfig::baseline()] {
        let staging = config.staging_enabled;
        let result = build(&p, &schedule, config).run(deadline());
        assert!(result.completion.is_some(), "staging={staging}: finished");
        assert!(result.content_ok, "staging={staging}: verified");
        assert_eq!(result.chunks_fetched, 6);
    }
}

#[test]
fn identical_seeds_are_bit_for_bit_reproducible() {
    let p = params();
    let schedule = p.alternating_schedule(SimDuration::from_secs(600));
    let one = build(&p, &schedule, SoftStageConfig::default()).run(deadline());
    let two = build(&p, &schedule, SoftStageConfig::default()).run(deadline());
    assert_eq!(one.completion, two.completion);
    assert_eq!(one.stats.chunk_completions, two.stats.chunk_completions);
    assert_eq!(one.stats.from_staged, two.stats.from_staged);
    assert_eq!(one.handoffs, two.handoffs);
}

#[test]
fn different_seeds_differ_but_both_succeed() {
    let p1 = params();
    let p2 = ExperimentParams {
        seed: 1234,
        ..params()
    };
    let s1 = p1.alternating_schedule(SimDuration::from_secs(600));
    let s2 = p2.alternating_schedule(SimDuration::from_secs(600));
    let one = build(&p1, &s1, SoftStageConfig::default()).run(deadline());
    let two = build(&p2, &s2, SoftStageConfig::default()).run(deadline());
    assert!(one.content_ok && two.content_ok);
    // Different seeds generate different content and loss patterns; the
    // exact timeline differs.
    assert_ne!(one.stats.chunk_completions, two.stats.chunk_completions);
}

#[test]
fn softstage_fetches_mostly_from_edges_and_wins() {
    let p = params();
    let schedule = p.alternating_schedule(SimDuration::from_secs(600));
    let soft = build(&p, &schedule, SoftStageConfig::default()).run(deadline());
    let base = build(&p, &schedule, SoftStageConfig::baseline()).run(deadline());
    assert!(soft.stats.from_staged > soft.stats.from_origin, "{soft:?}");
    assert_eq!(base.stats.from_staged, 0);
    assert!(
        soft.completion.unwrap() <= base.completion.unwrap(),
        "softstage {:?} <= xftp {:?}",
        soft.completion,
        base.completion
    );
}
