//! A vehicular content download on the paper's testbed: SoftStage vs the
//! Xftp baseline under the Table III default parameters.
//!
//! ```text
//! cargo run --release --example vehicular_download
//! ```

use simnet::{SimDuration, SimTime};
use softstage_suite::experiments::{build, ExperimentParams};
use softstage_suite::softstage::SoftStageConfig;

fn main() {
    let params = ExperimentParams::default();
    let schedule = params.alternating_schedule(SimDuration::from_secs(4000));
    println!(
        "64 MB file, {} chunks of {} MB; encounters {}s / gaps {}s; \
         wireless loss {:.0}%; Internet {} Mbps @ {} RTT",
        params.chunk_count(),
        params.chunk_size / (1024 * 1024),
        params.encounter.as_secs_f64(),
        params.disconnection.as_secs_f64(),
        params.wireless_loss * 100.0,
        params.internet_bw_bps / 1_000_000,
        params.internet_rtt,
    );

    let deadline = SimTime::ZERO + SimDuration::from_secs(4000);
    let soft = build(&params, &schedule, SoftStageConfig::default()).run(deadline);
    let base = build(&params, &schedule, SoftStageConfig::baseline()).run(deadline);

    let s = soft.completion.expect("softstage finished").as_secs_f64();
    let b = base.completion.expect("xftp finished").as_secs_f64();
    println!("\n              download   staged  origin  handoffs  migrations");
    println!(
        "softstage   {s:>8.1} s   {:>6}  {:>6}  {:>8}  {:>10}",
        soft.stats.from_staged, soft.stats.from_origin, soft.handoffs, soft.migrations
    );
    println!(
        "xftp        {b:>8.1} s   {:>6}  {:>6}  {:>8}  {:>10}",
        base.stats.from_staged, base.stats.from_origin, base.handoffs, base.migrations
    );
    println!(
        "\ngain: {:.2}x (paper reports 1.77x at these defaults)",
        b / s
    );
    assert!(soft.content_ok && base.content_ok, "integrity verified");
}
