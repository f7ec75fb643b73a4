//! Fault injection demo: a vehicular download riding out link flaps, a
//! burst-loss window, an edge-router crash/restart and a cache wipe —
//! then the same drive with no VNF anywhere, showing the explicit
//! origin-fallback state.
//!
//! ```bash
//! cargo run --release --example fault_injection
//! ```

use softstage_suite::experiments::{build, ExperimentParams, MB};
use softstage_suite::simnet::fault::{Fault, FaultPlan};
use softstage_suite::simnet::{SimDuration, SimTime};
use softstage_suite::softstage::SoftStageConfig;

fn main() {
    let p = ExperimentParams {
        file_size: 8 * MB,
        chunk_size: MB,
        seed: 7,
        ..ExperimentParams::default()
    };
    let schedule = p.alternating_schedule(SimDuration::from_secs(2000));
    let deadline = SimTime::ZERO + SimDuration::from_secs(2000);

    // Clean reference run.
    let clean = build(&p, &schedule, SoftStageConfig::default()).run(deadline);
    let clean_t = clean.completion.expect("clean run finishes");
    println!(
        "clean:   done in {:.2} s, {} staged / {} origin, content ok: {}",
        (clean_t - SimTime::ZERO).as_secs_f64(),
        clean.stats.from_staged,
        clean.stats.from_origin,
        clean.content_ok,
    );

    // The same download under a pile of faults.
    let mut tb = build(&p, &schedule, SoftStageConfig::default());
    let mut plan = FaultPlan::new();
    for (i, &link) in tb.radio_links.clone().iter().enumerate() {
        plan.random_flaps(
            link,
            3,
            SimTime::ZERO + SimDuration::from_millis(500),
            SimTime::ZERO + SimDuration::from_secs(5),
            SimDuration::from_millis(1200),
            p.seed ^ (i as u64 + 1),
        );
        plan.push(Fault::BurstLoss {
            link,
            at: SimTime::ZERO + SimDuration::from_secs(6),
            lasting: SimDuration::from_secs(2),
            loss: 0.9,
        });
    }
    for &edge in &tb.edges.clone() {
        plan.push(Fault::Crash {
            node: edge,
            at: SimTime::ZERO + SimDuration::from_secs(2),
            restart_after: Some(SimDuration::from_secs(5)),
        });
        plan.push(Fault::CacheWipe {
            node: edge,
            at: SimTime::ZERO + SimDuration::from_secs(9),
        });
    }
    println!("faults:  {} scheduled", plan.faults().len());
    plan.apply(&mut tb.sim);
    let faulted = tb.run(deadline);
    let faulted_t = faulted.completion.expect("faulted run still finishes");
    let stats = tb.client_app().stats();
    println!(
        "faulted: done in {:.2} s, {} staged / {} origin, content ok: {}",
        (faulted_t - SimTime::ZERO).as_secs_f64(),
        faulted.stats.from_staged,
        faulted.stats.from_origin,
        faulted.content_ok,
    );
    println!(
        "         stage retries {}, fetch retries {}, fallback refetches {}, mode {:?}",
        stats.stage_retries,
        stats.fetch_retries,
        stats.fallback_refetches,
        tb.client_app().mode(),
    );

    // No VNF deployed anywhere: the explicit origin-fallback path.
    let p2 = ExperimentParams {
        vnf_deployed: false,
        ..p
    };
    let schedule2 = p2.alternating_schedule(SimDuration::from_secs(2000));
    let mut tb2 = build(&p2, &schedule2, SoftStageConfig::default());
    let no_vnf = tb2.run(deadline);
    let app = tb2.client_app();
    println!(
        "no VNF:  done in {:.2} s, all {} chunks from origin, mode {:?}, fallbacks recorded {}",
        (no_vnf.completion.expect("completes") - SimTime::ZERO).as_secs_f64(),
        no_vnf.stats.from_origin,
        app.mode(),
        app.stats().origin_fallbacks,
    );
}
