//! Fleet-scale regression suite: a thousand concurrent clients in one
//! world must be a pure function of `(FleetParams, seed)` — byte-identical
//! digests across fresh builds, byte-identical tables across `--jobs`
//! counts, and a flight record that satisfies every oracle invariant
//! under multi-client interleaving. Fleets share the one Fig. 4 builder
//! with the testbed, so they also take its faults and its mobility.
//!
//! Worlds here are sized for debug-mode test runs: many clients, tiny
//! per-client payloads.

mod common;

use softstage_suite::experiments::fleet::{build, summary, FleetParams};
use softstage_suite::experiments::world::{self, client_on, ClientSpec};
use softstage_suite::experiments::{
    execute, testbed, Cell, DerivedRow, ExecConfig, ExperimentParams, TableSpec, MB, MBPS,
};
use softstage_suite::simnet::fault::{Fault, FaultPlan};
use softstage_suite::simnet::{SimDuration, SimTime};
use softstage_suite::softstage::{SoftStageClient, SoftStageConfig, VnfConfig};
use util::json::ToJson;

use common::Recorded;

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
    let trace = |seed: u64| {
        let mut world = build(&kilo_fleet(seed));
        let trace = common::record(&mut world.sim);
        world.run();
        trace.take()
    };
    let a = trace(42);
    let b = trace(42);
    assert!(!a.records.is_empty(), "fleet run must record events");
    assert_eq!(
        a.digest(),
        b.digest(),
        "golden fleet trace differs between identical runs"
    );
}

#[test]
fn fleet_oracle_passes_multi_client_interleaving() {
    // A thousand clients through two edges: staging requests, cache
    // hits, evictions and fallbacks from distinct clients interleave in
    // one trace, and every oracle invariant must still hold (per-link
    // conservation, breaker transitions, staging bookkeeping). The
    // recorder's consumer keeps nothing: the audit streams, so its
    // verdict does not depend on what the consumer kept.
    let mut world = build(&kilo_fleet(7));
    world.sim.enable_trace(|_| {});
    let s = world.run();
    assert_eq!(s.completed, 1000, "{s:?}");
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

const SEEDS: [u64; 3] = [7, 101, 9001];

#[test]
fn faulted_fleet_completes_without_a_retry_storm() {
    // Two dozen clients behind two edges whose caches hold one chunk
    // each; edge 0's cache is squeezed below a chunk while clients are
    // still arriving, then both edges crash (staging state, caches and
    // beacons die) and restart 8 s later. Every client must ride it out
    // with intact content, and recovery must not hammer the origin.
    for seed in SEEDS {
        let mut world = build(
            &FleetParams {
                clients: 24,
                edges: 2,
                catalog_objects: 8,
                chunks_per_object: 2,
                chunk_size: 64 * 1024,
                objects_per_client: 2,
                zipf_skew: 1.0,
                edge_cache_bytes: 64 * 1024,
                arrival_window: SimDuration::from_secs(2),
                horizon: SimDuration::from_secs(120),
                verify_content: true,
                ..FleetParams::default()
            }
            .with_seed(seed),
        );
        world.sim.enable_trace(|_| {});
        let mut plan = FaultPlan::new();
        plan.push(Fault::CacheSqueeze {
            node: world.edges[0],
            at: SimTime::ZERO + SimDuration::from_millis(800),
            capacity: 32 * 1024,
        });
        for &edge in &world.edges.clone() {
            plan.push(Fault::Crash {
                node: edge,
                at: SimTime::ZERO + SimDuration::from_millis(1500),
                restart_after: Some(SimDuration::from_secs(8)),
            });
        }
        plan.apply(&mut world.sim);
        let s = world.run();
        assert_eq!(s.completed, 24, "seed {seed}: {s:?}");
        assert!(s.content_ok, "seed {seed}: {s:?}");
        let violations = world.audit_trace();
        assert!(violations.is_empty(), "seed {seed}: {violations:#?}");
        // The origin serves at most twice what the clients took delivery
        // of: faults cost refetches, not a storm of them.
        assert!(s.origin_offload >= -1.0, "seed {seed}: {s:?}");
        assert!(
            world.vnf_queue_depths().iter().all(|&d| d == 0),
            "seed {seed}: staging queues must drain: {:?}",
            world.vnf_queue_depths()
        );
    }
}

/// Eight clients driving in convoy: the testbed's world with its client
/// record repeated, so all share one alternating coverage schedule over
/// two edges (and the edges' one RSS model). Slow radios and short
/// encounters stretch a small file over several encounters.
fn platoon(seed: u64) -> (world::World, Recorded) {
    let params = ExperimentParams {
        file_size: 4 * MB,
        chunk_size: MB / 4,
        encounter: SimDuration::from_secs(3),
        disconnection: SimDuration::from_secs(2),
        wireless_bw_bps: 4 * MBPS,
        seed,
        ..ExperimentParams::default()
    };
    let schedule = params.alternating_schedule(SimDuration::from_secs(600));
    let mut spec = testbed::spec(&params, &schedule, SoftStageConfig::default(), |_| {
        VnfConfig::default()
    });
    let driver = spec.clients.remove(0);
    spec.clients = (0..8u32)
        .map(|i| ClientSpec {
            hid_seed: driver.hid_seed + u64::from(i),
            config: SoftStageConfig {
                client_id: i,
                ..driver.config.clone()
            },
            ..driver.clone()
        })
        .collect();
    let mut world = world::build(spec);
    let trace = common::record(&mut world.sim);
    let clients = world.clients.clone();
    world.sim.run_while(common::deadline(), |sim| {
        clients
            .iter()
            .all(|&c| client_on(sim, c).is_some_and(SoftStageClient::is_done))
    });
    (world, trace.take())
}

#[test]
fn platoon_hands_off_together_and_delivers_intact() {
    for seed in SEEDS {
        let (world, _) = platoon(seed);
        for (i, app) in world.client_apps().enumerate() {
            assert!(
                world.content_ok(i),
                "seed {seed}: client {i} must finish with the manifest's digest: {:?}",
                app.stats()
            );
            assert_eq!(app.content_digest(), world.catalog[0].0.digest());
            assert!(
                app.roamer.handoffs >= 2,
                "seed {seed}: client {i} handed off {} time(s)",
                app.roamer.handoffs
            );
        }
        let violations = world.audit_trace();
        assert!(violations.is_empty(), "seed {seed}: {violations:#?}");
    }
}

#[test]
fn platoon_traces_are_byte_identical() {
    let digest = || platoon(42).1.digest();
    assert_eq!(digest(), digest(), "same-seed platoon traces differ");
}

#[test]
#[ignore = "four 1000-client worlds, ~10 s in release: scripts/verify.sh runs it"]
fn uniform_thousand_client_fleet_never_loses_to_not_staging() {
    // Flat popularity over 2 MiB edge caches: the case where staged
    // copies used to evict each other unread. A VNF now stages only what
    // its cache can hold, so staging must at worst break even.
    for seed in [42, 7] {
        let fleet = |staging| {
            summary(&FleetParams {
                clients: 1000,
                zipf_skew: 0.0,
                staging,
                seed,
                ..FleetParams::default()
            })
        };
        let (staged, baseline) = (fleet(true), fleet(false));
        let gain = baseline.p50_s / staged.p50_s;
        assert!(
            gain >= 0.98 && staged.origin_offload >= 0.0,
            "seed {seed}: gain {gain:.3}, staged {staged:?}"
        );
    }
}

#[test]
#[ignore = "ten 200-client worlds, ~4 s in release: scripts/verify.sh runs it"]
fn fleet_smoke_staging_does_no_harm_at_moderate_load() {
    // `reproduce fleet-smoke`'s world: 200 clients, Zipf 0.8. A fetch
    // that races its own stage pulls the chunk from the origin a second
    // time, which at this load is enough to push origin offload below 0;
    // waiting for the staged copy must keep staging at least even.
    let gains: Vec<f64> = [42, 7, 1, 2, 3]
        .into_iter()
        .map(|seed| {
            let fleet = |staging| {
                summary(&FleetParams {
                    staging,
                    seed,
                    ..FleetParams::default()
                })
            };
            let (staged, baseline) = (fleet(true), fleet(false));
            let gain = baseline.p50_s / staged.p50_s;
            assert!(
                gain >= 0.98 && staged.origin_offload >= 0.0,
                "seed {seed}: gain {gain:.3}, staged {staged:?}"
            );
            gain
        })
        .collect();
    let mut sorted = gains.clone();
    sorted.sort_by(f64::total_cmp);
    assert!(sorted[2] >= 1.0, "median gain below 1: {gains:?}");
}
