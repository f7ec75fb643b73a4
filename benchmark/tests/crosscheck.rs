//! The benchmark measures the program users run, not a re-implementation:
//! for a tiny fleet, `ssbench`'s simulated metrics equal — bit for bit —
//! what `reproduce fleet` computes its cells from (`fleet::summary`, i.e.
//! `fleet::build(..).run()`), timed and traced alike.

use simnet::SimDuration;
use softstage_experiments::fleet::{self, FleetParams};
use ssbench::pass::run_worlds;
use ssbench::workloads::{Arm, WorldSpec};

fn tiny(staging: bool) -> FleetParams {
    FleetParams {
        clients: 24,
        edges: 2,
        catalog_objects: 8,
        chunks_per_object: 2,
        chunk_size: 8 * 1024,
        objects_per_client: 2,
        zipf_skew: 1.0,
        edge_cache_bytes: 64 * 1024,
        arrival_window: SimDuration::from_secs(2),
        horizon: SimDuration::from_secs(120),
        verify_content: true,
        staging,
        seed: 7,
        ..FleetParams::default()
    }
}

#[test]
fn fleet_metrics_equal_what_reproduce_fleet_computes() {
    let staged = fleet::summary(&tiny(true));
    let baseline = fleet::summary(&tiny(false));
    let worlds = [
        (Arm::Staged, WorldSpec::Fleet(tiny(true))),
        (Arm::Baseline, WorldSpec::Fleet(tiny(false))),
    ];
    for traced in [false, true] {
        let pass = run_worlds("tiny_fleet", 7, &worlds, traced);
        let sim = |name: &str| {
            pass.sim
                .iter()
                .find(|(k, _)| k == name)
                .unwrap_or_else(|| panic!("no `{name}` in the pass"))
                .1
        };
        assert_eq!(sim("sim_p50_s"), staged.p50_s, "traced={traced}");
        assert_eq!(sim("sim_p99_s"), staged.p99_s, "traced={traced}");
        // The fleet table's "edge gain" row: baseline p50 over staged p50.
        assert_eq!(
            sim("staging_gain"),
            baseline.p50_s / staged.p50_s,
            "traced={traced}"
        );
        assert_eq!(
            sim("origin_offload"),
            staged.origin_offload,
            "traced={traced}"
        );
        assert_eq!(
            sim("xcache.edge_hit_ratio"),
            staged.cache_hit_ratio,
            "traced={traced}"
        );
        assert_eq!(
            sim("xcache.evictions"),
            staged.evictions as f64,
            "traced={traced}"
        );
        assert_eq!(
            pass.digests,
            [staged.digest.clone(), baseline.digest.clone()],
            "traced={traced}"
        );
        assert_eq!((pass.attempted, pass.failed), (48, 0), "traced={traced}");
        assert_eq!(pass.spans.is_empty(), !traced);
    }
}
