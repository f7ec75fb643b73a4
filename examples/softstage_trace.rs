//! softstage-trace: run a seeded SoftStage download with the flight
//! recorder attached, audit the trace against the invariant oracle, and
//! dump the trace as JSON lines.
//!
//! ```text
//! cargo run --release --example softstage_trace [seed] [out.jsonl]
//! ```
//!
//! With no output path the per-event-type summary and the oracle verdict
//! print to stdout and the JSON lines are suppressed; pass a path (or `-`
//! for stdout) to get the trace. The verdict comes from the streaming
//! audit and covers every event of the run; the ring only bounds how much
//! of it the JSON-lines dump (and the summary) can still show.

use std::collections::BTreeMap;

use softstage_suite::experiments::{build, ExperimentParams, MB};
use softstage_suite::simnet::{SimDuration, SimTime};
use softstage_suite::softstage::SoftStageConfig;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be an integer"))
        .unwrap_or(42);
    let out = std::env::args().nth(2);

    let params = ExperimentParams {
        file_size: 6 * MB,
        chunk_size: MB,
        seed,
        ..ExperimentParams::default()
    };
    let schedule = params.alternating_schedule(SimDuration::from_secs(2000));
    let mut tb = build(&params, &schedule, SoftStageConfig::default());
    tb.sim.enable_trace(1 << 20);
    let result = tb.run(SimTime::ZERO + SimDuration::from_secs(2000));

    let sink = tb.sim.trace().expect("recorder attached");
    let mut by_event: BTreeMap<&'static str, u64> = BTreeMap::new();
    for r in sink.records() {
        *by_event.entry(r.event.name()).or_default() += 1;
    }

    println!(
        "seed {seed}: {} chunks in {}, {} staged / {} origin, content {}",
        result.chunks_fetched,
        result
            .completion
            .map_or("DNF".to_string(), |t| format!("{:.2} s", t.as_secs_f64())),
        result.from_staged,
        result.from_origin,
        if result.content_ok {
            "verified"
        } else {
            "FAILED"
        },
    );
    println!(
        "trace: {} records in the ring ({} older ones dropped from the dump)",
        sink.len(),
        sink.dropped()
    );
    for (name, count) in &by_event {
        println!("  {name:<16} {count}");
    }

    let violations = tb.audit_trace();
    if violations.is_empty() {
        println!("oracle: clean");
    } else {
        println!("oracle: {} violation(s)", violations.len());
        for v in &violations {
            println!("  {v}");
        }
        std::process::exit(1);
    }

    match out.as_deref() {
        None => {}
        Some("-") => print!("{}", tb.trace_jsonl()),
        Some(path) => {
            std::fs::write(path, tb.trace_jsonl()).expect("writable output path");
            println!("wrote {path}");
        }
    }
}
