//! `ssbench` command line (normally reached through `benchmark/run.sh`).
//!
//! ```text
//! ssbench [--seed N] [--reps K] [--quick] [--out DIR]
//!     every workload: K timed reps interleaved round-robin, then one
//!     traced rep each; prints every metric, writes DIR/results.json and
//!     DIR/trace.json
//! ssbench check [--seed N] [--reps K] [--quick] [--out DIR]
//!     two such sets back to back, compared against the bounds
//! ssbench --workload W --seed N --seconds S --trace 0|1
//!     one workload for the benchmark driver: timed passes for S seconds
//!     (at least one), or with --trace 1 one timed and one traced pass;
//!     the last line of stdout is the result object
//! ssbench pass --workload W --seed N --trace 0|1 [--quick]
//!     one pass in this process (what the modes above spawn)
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use softstage_bench::alloc_counter::CountingAlloc;
use ssbench::pass::{run_pass, PassResult};
use ssbench::registry::END_TO_END;
use ssbench::report::{spawn_pass, worse_by, WorkloadReport};
use ssbench::workloads::NAMES;
use util::json::Json;

/// Counts heap traffic for `simnet.allocs_per_event`; forwards to the
/// system allocator, which is also what `reproduce` runs on.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    reps: usize,
    seconds: u64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: ssbench [check|pass] [--workload W] [--seed N] [--reps K] [--seconds S] \
         [--trace 0|1] [--quick] [--out DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 42,
        reps: 3,
        seconds: 0,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs {what}")))
        };
        match arg.as_str() {
            "check" | "pass" if args.command.is_none() => args.command = Some(arg),
            "--workload" => args.workload = Some(value("a workload name")),
            "--seed" => {
                args.seed = value("an integer")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"));
            }
            "--reps" => {
                args.reps = value("an integer")
                    .parse()
                    .ok()
                    .filter(|&k| k >= 1)
                    .unwrap_or_else(|| usage("--reps needs an integer >= 1"));
            }
            "--seconds" => {
                args.seconds = value("an integer")
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds needs an integer"));
            }
            "--trace" => {
                args.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace needs 0 or 1"),
                };
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value("a directory")),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    args
}

/// One full set: `reps` timed passes per workload, interleaved round-robin
/// so host drift hits all workloads alike, then one traced pass each.
fn run_set(args: &Args) -> Result<Vec<WorkloadReport>, String> {
    let mut timed: Vec<Vec<PassResult>> = NAMES.iter().map(|_| Vec::new()).collect();
    for rep in 0..args.reps {
        for (w, name) in NAMES.iter().enumerate() {
            eprintln!("ssbench: {name} timed rep {}/{}", rep + 1, args.reps);
            timed[w].push(spawn_pass(name, args.seed, args.quick, false)?);
        }
    }
    NAMES
        .iter()
        .zip(&timed)
        .map(|(name, timed)| {
            eprintln!("ssbench: {name} traced rep");
            let traced = spawn_pass(name, args.seed, args.quick, true)?;
            Ok(WorkloadReport::new(timed, Some(&traced)))
        })
        .collect()
}

fn write_file(dir: &Path, name: &str, json: &Json) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, json.to_string_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Prints every metric and writes `results.json` and `trace.json`.
fn publish(args: &Args, reports: &[WorkloadReport]) -> Result<(), String> {
    for r in reports {
        print!("{}", r.render());
    }
    let results = Json::Obj(vec![
        ("seed".into(), Json::Str(args.seed.to_string())),
        ("reps".into(), Json::Int(args.reps as i64)),
        ("quick".into(), Json::Bool(args.quick)),
        (
            "workloads".into(),
            Json::Obj(
                reports
                    .iter()
                    .map(|r| (r.workload.clone(), r.to_json()))
                    .collect(),
            ),
        ),
    ]);
    write_file(&args.out, "results.json", &results)?;
    let spans = reports
        .iter()
        .flat_map(|r| r.spans.iter().map(|s| s.to_json(&r.workload)))
        .collect();
    write_file(&args.out, "trace.json", &Json::Arr(spans))
}

fn all_correct(reports: &[WorkloadReport]) -> bool {
    reports.iter().all(WorkloadReport::correct)
}

/// The noise self-check: two sets back to back must agree within each
/// end-to-end metric's bound, and exactly on everything simulated.
fn check(args: &Args) -> Result<bool, String> {
    let first = run_set(args)?;
    let second = run_set(args)?;
    publish(args, &second)?;
    let mut ok = all_correct(&first) && all_correct(&second);
    println!("== check: second set against first (positive = second is worse)");
    for (a, b) in first.iter().zip(&second) {
        for (&(name, _, better, bound), ((_, sa), (_, sb))) in END_TO_END
            .iter()
            .zip(a.end_to_end.iter().zip(&b.end_to_end))
        {
            let d = worse_by(sa.median, sb.median, better);
            let verdict = if d.abs() <= bound { "ok" } else { "FAIL" };
            ok &= d.abs() <= bound;
            println!(
                "   {:<16} {name:<14} {:>14.6} -> {:>14.6}  {:>+8.4} of bound {bound:<5} {verdict}",
                a.workload, sa.median, sb.median, d
            );
        }
        for difference in a.differences(b) {
            ok = false;
            println!(
                "   {:<16} {difference}  FAIL (must repeat exactly)",
                a.workload
            );
        }
        for (set, r) in [(1, a), (2, b)] {
            if !r.disturbed.is_empty() {
                println!(
                    "   {:<16} set {set} disturbed reps: {:?}",
                    r.workload, r.disturbed
                );
            }
        }
    }
    println!("== check: {}", if ok { "OK" } else { "FAILED" });
    Ok(ok)
}

/// One workload, the way the benchmark driver calls it.
fn drive(args: &Args, workload: &str) -> Result<bool, String> {
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut timed = vec![spawn_pass(workload, args.seed, args.quick, false)?];
    let traced = if args.trace {
        Some(spawn_pass(workload, args.seed, args.quick, true)?)
    } else {
        while start.elapsed() < budget {
            timed.push(spawn_pass(workload, args.seed, args.quick, false)?);
        }
        None
    };
    let report = WorkloadReport::new(&timed, traced.as_ref());
    eprint!("{}", report.render());
    println!("{}", report.contract_line(args.trace));
    Ok(report.correct())
}

fn main() -> ExitCode {
    let args = parse_args();
    let outcome = match (args.command.as_deref(), args.workload.as_deref()) {
        (Some("pass"), Some(workload)) => run_pass(workload, args.seed, args.quick, args.trace)
            .map(|pass| {
                println!("{}", pass.to_json().to_string_compact());
                true
            }),
        (Some("pass"), None) => usage("pass needs --workload"),
        (Some("check"), _) => check(&args),
        (_, Some(workload)) => drive(&args, workload),
        (_, None) => run_set(&args).and_then(|reports| {
            publish(&args, &reports)?;
            Ok(all_correct(&reports))
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ssbench: FAILED (incorrect or non-repeating outputs, see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("ssbench: error: {e}");
            ExitCode::FAILURE
        }
    }
}
