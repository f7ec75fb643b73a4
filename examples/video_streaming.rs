//! Video-on-demand over the vehicular testbed (the paper's §V extension):
//! compares playback quality — startup and rebuffering — with and without
//! SoftStage.
//!
//! Chunks are 2 MB ≈ 2 s of 720p video (the paper's YouTube-derived
//! sizing), so the player consumes one chunk per two seconds after a
//! 3-chunk startup buffer.
//!
//! ```text
//! cargo run --release --example video_streaming
//! ```

use simnet::{SimDuration, SimTime};
use softstage_suite::apps::PlaybackModel;
use softstage_suite::experiments::{build, ExperimentParams, MB};
use softstage_suite::softstage::SoftStageConfig;

fn main() {
    let params = ExperimentParams {
        file_size: 64 * MB, // a 64 s clip
        chunk_size: 2 * MB,
        ..ExperimentParams::default()
    };
    let schedule = params.alternating_schedule(SimDuration::from_secs(4000));
    let deadline = SimTime::ZERO + SimDuration::from_secs(4000);
    let model = PlaybackModel {
        startup_chunks: 3,
        chunk_duration: SimDuration::from_secs(2),
    };

    println!(
        "streaming a {}-chunk 720p clip over the vehicular testbed\n",
        params.chunk_count()
    );
    for (name, config) in [
        ("softstage", SoftStageConfig::default()),
        ("xftp", SoftStageConfig::baseline()),
    ] {
        let result = build(&params, &schedule, config).run(deadline);
        assert!(result.content_ok, "{name} must finish and verify");
        let completions: Vec<SimTime> = result
            .stats
            .chunk_completions
            .iter()
            .map(|(t, _, _)| *t)
            .collect();
        let report = model.analyze(&completions);
        println!(
            "{name:>10}: start {:>6.2} s, {} stalls, {:>6.2} s stalled, ends {:>7.2} s",
            report.playback_start.as_secs_f64(),
            report.stalls,
            report.stall_time.as_secs_f64(),
            report.playback_end.as_secs_f64(),
        );
    }
    println!("\nstaging keeps the buffer ahead of playback through coverage gaps");
}
