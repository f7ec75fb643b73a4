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
//! instead: 200 clients sharing four staged edges. The recorder's one
//! consumer counts each record by event type and, given an output path
//! (or `-` for stdout), writes its JSON line as the run records it, so
//! the dump is the whole run and costs no memory beyond it. After the run
//! the headline, the record count, the per-event-type histogram and the
//! oracle verdict print to stdout — to stderr with `-`, so that stdout
//! carries exactly the JSON lines. The verdict comes from the streaming
//! audit and covers every event of the run. A bad seed or an output file
//! that cannot be created fails with exit 2 before anything is
//! simulated; a reader that closes stdout early (`| head`) stops the dump
//! and the program ends quietly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::rc::Rc;

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
    let dump = out.map(|path| -> Box<dyn Write> {
        match path {
            "-" => Box::new(BufWriter::new(io::stdout().lock())),
            _ => Box::new(BufWriter::new(
                File::create(path).unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}"))),
            )),
        }
    });
    if fleet {
        let mut world = fleet::build(&FleetParams {
            seed,
            ..FleetParams::default()
        });
        let tally = record(&mut world, dump);
        let s = world.run();
        let headline = format!(
            "seed {seed}: fleet of {} clients, {} finished, p50 {:.2} s, p99 {:.2} s, {} stage rejects, digest {}",
            s.clients, s.completed, s.p50_s, s.p99_s, s.stage_rejects, s.digest
        );
        finish(report(&world, &headline, out, tally.take()));
    } else {
        let params = ExperimentParams {
            file_size: 6 * MB,
            chunk_size: MB,
            seed,
            ..ExperimentParams::default()
        };
        let schedule = params.alternating_schedule(SimDuration::from_secs(2000));
        let mut tb = build(&params, &schedule, SoftStageConfig::default());
        let tally = record(&mut tb, dump);
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
        finish(report(&tb, &headline, out, tally.take()));
    }
}

/// What the recorder's consumer keeps: a count per event type, and the
/// dump's writer until it returns its first error, which is kept too.
#[derive(Default)]
struct Tally {
    by_event: BTreeMap<&'static str, u64>,
    dump: Option<Box<dyn Write>>,
    error: Option<io::Error>,
}

/// Attaches the flight recorder: each record is counted and, if there is
/// a dump, written to it as its JSON line.
fn record(world: &mut World, dump: Option<Box<dyn Write>>) -> Rc<RefCell<Tally>> {
    let tally = Rc::new(RefCell::new(Tally {
        dump,
        ..Tally::default()
    }));
    let consumer = Rc::clone(&tally);
    let mut line = String::new();
    world.sim.enable_trace(move |r| {
        let mut t = consumer.borrow_mut();
        *t.by_event.entry(r.event.name()).or_default() += 1;
        if let Some(w) = &mut t.dump {
            line.clear();
            r.write_line(&mut line);
            if let Err(e) = w.write_all(line.as_bytes()) {
                t.dump = None;
                t.error = Some(e);
            }
        }
    });
    tally
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

/// Finishes the dump, then prints the headline, the record count, the
/// per-event histogram and the oracle verdict (to stderr when the dump
/// went to stdout). Returns whether the oracle found the run clean.
fn report(world: &World, headline: &str, out: Option<&str>, tally: Tally) -> io::Result<bool> {
    let Tally {
        by_event,
        dump,
        error,
    } = tally;
    if let Some(e) = error {
        return Err(e);
    }
    dump.map_or(Ok(()), |mut w| w.flush())?;
    let mut summary: Box<dyn Write> = match out {
        Some("-") => Box::new(io::stderr().lock()),
        _ => Box::new(BufWriter::new(io::stdout().lock())),
    };
    writeln!(summary, "{headline}")?;
    writeln!(summary, "trace: {} records", by_event.values().sum::<u64>())?;
    for (name, count) in &by_event {
        writeln!(summary, "  {name:<16} {count}")?;
    }
    let violations = world.audit_trace();
    if violations.is_empty() {
        writeln!(summary, "oracle: clean")?;
    } else {
        writeln!(summary, "oracle: {} violation(s)", violations.len())?;
        for v in &violations {
            writeln!(summary, "  {v}")?;
        }
    }
    if let Some(path) = out.filter(|&path| path != "-") {
        writeln!(summary, "wrote {path}")?;
    }
    summary.flush()?;
    Ok(violations.is_empty())
}
