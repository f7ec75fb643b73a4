//! Exhaustive model checks of `util::sync::parallel_map`.
//!
//! Compiled only under `RUSTFLAGS="--cfg model"`, where `util::sync`
//! resolves to the ssmc-instrumented primitives — so the pool explored
//! here is the exact code the experiments grid runner runs in production
//! builds.
//!
//! Run with: `RUSTFLAGS="--cfg model" cargo test -p softstage-util --test model`
#![cfg(model)]

use util::sync::parallel_map;

fn cfg(name: &str) -> ssmc::Config {
    let mut cfg = ssmc::Config::new(name);
    if cfg.trace_dir.is_none() && std::env::var_os("SSMC_TRACE_DIR").is_none() {
        cfg.trace_dir = Some(std::env::temp_dir());
    }
    cfg
}

/// The fan-out pool merges byte-identically on every schedule: slot
/// assignment is keyed by work index, not completion order.
#[test]
fn parallel_map_merge_is_schedule_independent() {
    let stats = ssmc::explore(cfg("util-parallel-map"), || {
        parallel_map(3, 2, |i| (i as u64 + 1) * 10)
    })
    .unwrap_or_else(|f| panic!("parallel_map failed model check: {f}"));
    assert!(
        stats.schedules >= 2,
        "expected >1 interleaving, got {stats:?}"
    );
    assert!(!stats.capped);
}

/// The serial path never spawns, so exploration sees exactly one
/// schedule.
#[test]
fn parallel_map_serial_path_has_one_schedule() {
    let stats = ssmc::explore(cfg("util-parallel-map-serial"), || {
        parallel_map(4, 1, |i| i as u32)
    })
    .unwrap_or_else(|f| panic!("serial parallel_map failed model check: {f}"));
    assert_eq!(stats.schedules, 1);
}
