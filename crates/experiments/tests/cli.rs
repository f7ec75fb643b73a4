//! Integration tests for the `reproduce` binary: worker-count
//! determinism and the CLI error paths that must exit 2 (not panic).

use std::path::PathBuf;
use std::process::{Command, Output};

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("softstage_cli_{name}_{}", std::process::id()));
    p
}

fn run_ok(args: &[&str]) -> Output {
    let out = reproduce().args(args).output().expect("spawn reproduce");
    assert!(
        out.status.success(),
        "reproduce {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The tentpole invariant: output is byte-identical for any `--jobs N`.
/// Exercised on the smoke target at `--seeds 2` so replicate fan-out is
/// covered, and on the overload and fleet-smoke tables (multi-valued
/// cells, 200 clients) at one seed so the test stays affordable in debug
/// builds.
#[test]
fn jobs_do_not_change_output() {
    for base in [
        &["smoke", "--seeds", "2"][..],
        &["overload"][..],
        &["fleet-smoke"][..],
    ] {
        let target = base[0];
        let j1 = tmp_path(&format!("{target}_jobs1.json"));
        let j4 = tmp_path(&format!("{target}_jobs4.json"));
        let out1 = run_ok(&[base, &["--jobs", "1", "--json", j1.to_str().unwrap()]].concat());
        let out4 = run_ok(&[base, &["--jobs", "4", "--json", j4.to_str().unwrap()]].concat());

        let json1 = std::fs::read(&j1).expect("read jobs=1 json");
        let json4 = std::fs::read(&j4).expect("read jobs=4 json");
        assert_eq!(
            json1, json4,
            "{target}: JSON output differs between --jobs 1 and 4"
        );

        // The rendered tables must match too; only the trailing `wrote PATH`
        // line differs by construction.
        let text = |out: &Output| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .filter(|l| !l.starts_with("wrote "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(text(&out1), text(&out4), "{target}: rendered tables differ");

        let _ = std::fs::remove_file(&j1);
        let _ = std::fs::remove_file(&j4);
    }
}

/// `--seeds 1` must keep the canonical single-seed output: no
/// mean/min/max columns, no spread keys in the JSON.
#[test]
fn single_seed_output_has_no_spread() {
    let out = run_ok(&["smoke", "--seeds", "1", "--jobs", "2"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("mean"), "unexpected spread columns:\n{text}");

    let multi = run_ok(&["smoke", "--seeds", "3", "--jobs", "2"]);
    let multi_text = String::from_utf8_lossy(&multi.stdout);
    assert!(
        multi_text.contains("mean") && multi_text.contains("max"),
        "expected spread columns at --seeds 3:\n{multi_text}"
    );
}

/// An unwritable `--json` path must produce a diagnostic and exit 2
/// before any simulation runs — the pre-fix binary panicked (exit 101)
/// after minutes of work.
#[test]
fn unwritable_json_path_exits_2() {
    let out = reproduce()
        .args(["smoke", "--json", "/nonexistent-dir/out.json"])
        .output()
        .expect("spawn reproduce");
    assert_eq!(
        out.status.code(),
        Some(2),
        "want exit 2, got {:?}",
        out.status
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("cannot create --json output"),
        "missing diagnostic: {err}"
    );
    // Fail-fast: no table output should have been produced.
    assert!(out.stdout.is_empty(), "simulated before failing on --json");
}

/// A second positional target must be rejected loudly — the pre-fix
/// binary silently kept only the last one.
#[test]
fn duplicate_target_exits_2() {
    let out = reproduce()
        .args(["fig5", "smoke"])
        .output()
        .expect("spawn reproduce");
    assert_eq!(
        out.status.code(),
        Some(2),
        "want exit 2, got {:?}",
        out.status
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unexpected second target `smoke`") && err.contains("usage:"),
        "missing diagnostic: {err}"
    );
}

/// Unknown targets and malformed flag values share the usage path.
#[test]
fn bad_arguments_exit_2() {
    for args in [
        &["fig99"][..],
        &["smoke", "--seeds", "0"][..],
        &["smoke", "--jobs", "zero"][..],
        &["smoke", "--frobnicate"][..],
    ] {
        let out = reproduce().args(args).output().expect("spawn reproduce");
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?}: {:?}",
            out.status
        );
    }
}

/// Asking for help is not an error: the usage line on stdout, exit 0,
/// and no simulation.
#[test]
fn help_prints_usage_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = reproduce().arg(flag).output().expect("spawn reproduce");
        assert_eq!(out.status.code(), Some(0), "{flag}: {:?}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("usage: reproduce") && stdout.lines().count() == 1,
            "{flag}: {stdout}"
        );
    }
}
