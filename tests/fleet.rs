//! Fleet-scale regression suite: a thousand concurrent clients in one
//! world must be a pure function of `(FleetParams, seed)` — byte-identical
//! digests across fresh builds, byte-identical tables across `--jobs`
//! counts, and a flight record that satisfies every oracle invariant
//! under multi-client interleaving.
//!
//! Worlds here are sized for debug-mode test runs: many clients, tiny
//! per-client payloads.

mod common;

use softstage_suite::experiments::fleet::{build, summary, FleetParams};
use softstage_suite::experiments::{execute, Cell, DerivedRow, ExecConfig, TableSpec};
use softstage_suite::simnet::SimDuration;
use softstage_suite::xia_addr::sha1;
use util::json::ToJson;

/// A 1000-client fleet with a 32 KiB working set per client — big fleet,
/// small bytes, so the whole suite stays debug-fast.
fn kilo_fleet(seed: u64) -> FleetParams {
    FleetParams {
        clients: 1000,
        edges: 2,
        catalog_objects: 16,
        chunks_per_object: 2,
        chunk_size: 16 * 1024,
        objects_per_client: 1,
        zipf_skew: 1.0,
        edge_cache_bytes: 128 * 1024,
        arrival_window: SimDuration::from_secs(5),
        horizon: SimDuration::from_secs(120),
        ..FleetParams::default()
    }
    .with_seed(seed)
}

#[test]
fn thousand_client_world_is_deterministic() {
    let a = build(&kilo_fleet(42)).run();
    let b = build(&kilo_fleet(42)).run();
    assert_eq!(a.completed, 1000, "every client finishes: {a:?}");
    assert_eq!(
        a.digest, b.digest,
        "two fresh 1000-client worlds diverged: {a:?} vs {b:?}"
    );
    assert!(
        a.cache_hit_ratio > 0.0,
        "1000 clients over 16 objects must share edge copies: {a:?}"
    );
}

#[test]
fn thousand_client_traces_are_byte_identical() {
    let jsonl = |seed: u64| {
        let mut world = build(&kilo_fleet(seed));
        world.sim.enable_trace(common::TRACE_CAPACITY);
        world.run();
        assert_eq!(world.sim.trace().map_or(0, |t| t.dropped()), 0);
        world
            .sim
            .trace()
            .map(softstage_suite::simnet::TraceSink::to_jsonl)
            .unwrap_or_default()
    };
    let a = jsonl(42);
    let b = jsonl(42);
    assert!(!a.is_empty(), "fleet run must record events");
    assert_eq!(
        sha1::sha1(a.as_bytes()),
        sha1::sha1(b.as_bytes()),
        "golden fleet trace differs between identical runs"
    );
}

#[test]
fn fleet_oracle_passes_multi_client_interleaving() {
    // A thousand clients through two edges: staging requests, cache
    // hits, evictions and fallbacks from distinct clients interleave in
    // one trace, and every oracle invariant must still hold (per-link
    // conservation, breaker transitions, staging bookkeeping). The ring
    // is deliberately far smaller than the run: the audit streams, so
    // its verdict must not depend on what the ring retained.
    let mut world = build(&kilo_fleet(7));
    world.sim.enable_trace(4096);
    let s = world.run();
    assert_eq!(s.completed, 1000, "{s:?}");
    assert!(
        world.sim.trace().is_some_and(|t| t.dropped() > 0),
        "the run must overflow the ring for this test to mean anything"
    );
    let violations = world.audit_trace();
    assert!(
        violations.is_empty(),
        "fleet trace invariant violations: {violations:#?}"
    );
}

#[test]
fn fleet_tables_are_byte_identical_across_jobs() {
    // `reproduce fleet --jobs N` must be a pure function of `(spec,
    // seeds, base seed)`. One cell publishes both numbers of its world;
    // every run simulates afresh, there is nothing to replay.
    let spec = || {
        TableSpec::new("fleet-mini", "Mini fleet determinism probe", "s / ratio")
            .cell(Cell::new("p50", "p50 (s)", None, |seed| {
                let s = summary(&FleetParams {
                    clients: 300,
                    ..kilo_fleet(seed)
                });
                [s.p50_s, s.cache_hit_ratio]
            }))
            .derived(DerivedRow::new("edge cache hit ratio", None, |v| {
                v.at(0, 1)
            }))
    };
    let run = |jobs| {
        let tables = execute(
            &[spec()],
            &ExecConfig {
                jobs,
                seeds: 2,
                base_seed: 42,
            },
        );
        tables.to_vec().to_json().to_string_pretty()
    };
    let serial = run(1);
    let pooled = run(4);
    assert_eq!(serial, pooled, "fleet tables differ between --jobs 1 and 4");
}
