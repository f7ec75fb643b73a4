//! softstage-trace: run a seeded SoftStage world with the flight recorder
//! attached, audit the trace against the invariant oracle, and dump the
//! trace as JSON lines.
//!
//! ```text
//! cargo run --release --example softstage_trace [fleet] [seed] [out.jsonl]
//! ```
//!
//! By default the world is one client downloading along an alternating
//! coverage schedule; with a leading `fleet` it is the `fleet-smoke` world
//! instead: 200 clients sharing four staged edges. With no output path
//! the per-event-type summary and the oracle verdict print to stdout and
//! the JSON lines are suppressed; pass a path (or `-` for stdout) to get
//! the trace. The verdict comes from the streaming audit and covers every
//! event of the run; the ring only bounds how much of it the JSON-lines
//! dump (and the summary) can still show. A bad seed or an output file
//! that cannot be created fails with exit 2 before anything is
//! simulated; a reader that closes stdout early (`| head`) ends the
//! program quietly.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};

use softstage_suite::experiments::fleet::{self, FleetParams};
use softstage_suite::experiments::world::World;
use softstage_suite::experiments::{build, ExperimentParams, MB};
use softstage_suite::simnet::{SimDuration, SimTime};
use softstage_suite::softstage::SoftStageConfig;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let fleet = args.first().is_some_and(|a| a == "fleet");
    if fleet {
        args.remove(0);
    }
    let seed: u64 = args.first().map_or(42, |s| {
        s.parse()
            .unwrap_or_else(|_| fail(&format!("seed must be an integer, not {s:?}")))
    });
    let out = args.get(1).map(String::as_str);
    // Open the output up front: an unwritable path must fail with a
    // diagnostic before the run, not a panic after it.
    let file = out.filter(|&path| path != "-").map(|path| {
        File::create(path).unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}")))
    });
    if fleet {
        let mut world = fleet::build(&FleetParams {
            seed,
            ..FleetParams::default()
        });
        world.sim.enable_trace(1 << 22);
        let s = world.run();
        let headline = format!(
            "seed {seed}: fleet of {} clients, {} finished, p50 {:.2} s, p99 {:.2} s, {} stage rejects, digest {}",
            s.clients, s.completed, s.p50_s, s.p99_s, s.stage_rejects, s.digest
        );
        finish(report(&world, &headline, out, file));
    } else {
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
        let stats = tb.client_app().stats();
        let headline = format!(
            "seed {seed}: {} chunks in {}, {} staged / {} origin, content {}",
            result.chunks_fetched,
            result
                .completion
                .map_or("DNF".to_string(), |t| format!("{:.2} s", t.as_secs_f64())),
            stats.from_staged,
            stats.from_origin,
            if result.content_ok {
                "verified"
            } else {
                "FAILED"
            },
        );
        finish(report(&tb, &headline, out, file));
    }
}

/// Exits 1 on an oracle violation, quietly on a closed stdout, and 2 on
/// any other output error.
fn finish(reported: io::Result<bool>) {
    match reported {
        Ok(clean) => std::process::exit(if clean { 0 } else { 1 }),
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => fail(&format!("cannot write the trace: {e}")),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Prints the headline, the per-event histogram and the oracle verdict,
/// then streams the JSON lines to `file` (or to stdout for `-`). Returns
/// whether the oracle found the run clean.
fn report(
    world: &World,
    headline: &str,
    out: Option<&str>,
    file: Option<File>,
) -> io::Result<bool> {
    let sink = world.sim.trace().expect("recorder attached");
    let mut by_event: BTreeMap<&'static str, u64> = BTreeMap::new();
    for r in sink.records() {
        *by_event.entry(r.event.name()).or_default() += 1;
    }
    let mut stdout = BufWriter::new(io::stdout().lock());
    writeln!(stdout, "{headline}")?;
    writeln!(
        stdout,
        "trace: {} records in the ring ({} older ones dropped from the dump)",
        sink.records().len(),
        sink.dropped()
    )?;
    for (name, count) in &by_event {
        writeln!(stdout, "  {name:<16} {count}")?;
    }

    let violations = world.audit_trace();
    if violations.is_empty() {
        writeln!(stdout, "oracle: clean")?;
    } else {
        writeln!(stdout, "oracle: {} violation(s)", violations.len())?;
        for v in &violations {
            writeln!(stdout, "  {v}")?;
        }
        stdout.flush()?;
        return Ok(false);
    }

    match (out, file) {
        (Some(path), Some(file)) => {
            let mut w = BufWriter::new(file);
            sink.write_jsonl(&mut w)?;
            w.flush()?;
            writeln!(stdout, "wrote {path}")?;
        }
        (Some(_), None) => sink.write_jsonl(&mut stdout)?,
        _ => {}
    }
    stdout.flush()?;
    Ok(true)
}
