//! Regenerates the SoftStage paper's tables and figures.
//!
//! ```text
//! reproduce [fig5|fig6|fig6a..fig6f|handoff|fig7|ablation|overload|smoke|fleet|fleet-smoke|all]
//!           [--seed N] [--seeds K] [--jobs N] [--json PATH]
//! ```
//!
//! Every target is a list of independent cells evaluated by the shared
//! fan-out executor: `--jobs` only changes wall-clock (output is
//! byte-identical for any worker count), `--seeds K` replicates each
//! cell at K derived seeds and reports mean/min/max per row.

use std::io::Write as _;

use softstage_experiments::exec::{execute, ExecConfig, TableSpec};
use softstage_experiments::{ablation, exec, fig5, fig6, fig7, fleet, handoff, overload, smoke};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut target: Option<String> = None;
    let mut seed = 42u64;
    let mut seeds = 1u32;
    let mut jobs: Option<usize> = None;
    let mut json_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--seeds" => {
                seeds = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|k| *k >= 1)
                    .unwrap_or_else(|| usage("--seeds needs an integer >= 1"));
            }
            "--jobs" => {
                jobs = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|n| *n >= 1)
                        .unwrap_or_else(|| usage("--jobs needs an integer >= 1")),
                );
            }
            "--json" => {
                json_path = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| usage("--json needs a path")),
                );
            }
            other if !other.starts_with('-') => {
                if let Some(first) = &target {
                    usage(&format!(
                        "unexpected second target `{other}` (already have `{first}`)"
                    ));
                }
                target = Some(other.to_owned());
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let target = target.unwrap_or_else(|| "all".to_owned());

    let specs: Vec<TableSpec> = match target.as_str() {
        "fig5" => vec![fig5::spec()],
        "fig6" => fig6::specs(),
        "fig6a" => vec![fig6::chunk_size_spec()],
        "fig6b" => vec![fig6::encounter_spec()],
        "fig6c" => vec![fig6::disconnection_spec()],
        "fig6d" => vec![fig6::loss_spec()],
        "fig6e" => vec![fig6::bandwidth_spec()],
        "fig6f" => vec![fig6::latency_spec()],
        "handoff" => vec![handoff::spec()],
        "fig7" => vec![fig7::spec()],
        "ablation" => vec![ablation::spec()],
        "overload" => vec![overload::spec()],
        "smoke" => vec![smoke::spec()],
        "fleet" => vec![fleet::spec()],
        "fleet-smoke" => vec![fleet::smoke_spec()],
        "all" => {
            let mut all = vec![fig5::spec()];
            all.extend(fig6::specs());
            all.push(handoff::spec());
            all.push(fig7::spec());
            all.push(ablation::spec());
            all.push(overload::spec());
            all
        }
        other => usage(&format!("unknown target {other}")),
    };

    // Open the JSON output up front: an unwritable path must fail with a
    // diagnostic before minutes of simulation, not a panic after them.
    let mut json_out = json_path
        .as_ref()
        .map(|path| match std::fs::File::create(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: cannot create --json output {path}: {e}");
                std::process::exit(2);
            }
        });

    let config = ExecConfig {
        jobs: jobs.unwrap_or_else(|| exec::default_jobs(&specs, seeds)),
        seeds,
        base_seed: seed,
    };
    let tables = execute(&specs, &config);

    for t in &tables {
        println!("{}", t.render());
    }
    if let (Some(f), Some(path)) = (json_out.as_mut(), json_path.as_ref()) {
        let json = util::json::ToJson::to_json(&tables).to_string_pretty();
        if let Err(e) = f.write_all(json.as_bytes()) {
            eprintln!("error: cannot write --json output {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote {path}");
    }
}

const USAGE: &str =
    "usage: reproduce [fig5|fig6|fig6a..fig6f|handoff|fig7|ablation|overload|smoke|fleet|\
     fleet-smoke|all] [--seed N] [--seeds K] [--jobs N] [--json PATH]";

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}
