//! Fixture tests: one known-bad mini-workspace per rule, each asserted to
//! trigger exactly that rule id — first through the library API, then
//! through the binary (exit code + JSONL output). Ends with the self-clean
//! check: the live workspace must pass its own auditor.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Distinct rule ids fired on a fixture, via the library API.
fn rules_fired(name: &str) -> BTreeSet<&'static str> {
    let report = sslint::run(&fixture(name), sslint::ALLOWLIST_FILE)
        .unwrap_or_else(|e| panic!("fixture `{name}` failed to load: {e}"));
    assert!(
        !report.findings.is_empty(),
        "fixture `{name}` produced no findings"
    );
    report.findings.iter().map(|f| f.rule).collect()
}

fn assert_exactly(name: &str, rule: &str) {
    let fired = rules_fired(name);
    assert_eq!(
        fired,
        BTreeSet::from([rule]),
        "fixture `{name}` must trigger exactly `{rule}`, got {fired:?}"
    );
}

#[test]
fn wall_clock_fixture() {
    assert_exactly("wall-clock", "wall-clock");
}

#[test]
fn hash_iter_fixture() {
    assert_exactly("hash-iter", "hash-iter");
}

#[test]
fn panic_fixture() {
    assert_exactly("panic", "panic");
}

#[test]
fn dep_hermetic_fixture() {
    assert_exactly("dep-hermetic", "dep-hermetic");
}

#[test]
fn layering_fixture() {
    assert_exactly("layering", "layering");
}

#[test]
fn unsafe_forbid_fixture() {
    assert_exactly("unsafe-forbid", "unsafe-forbid");
}

#[test]
fn allow_reason_fixture() {
    assert_exactly("allow-reason", "allow-reason");
}

#[test]
fn allowlist_unused_fixture() {
    assert_exactly("allowlist-unused", "allowlist-unused");
}

#[test]
fn panic_reach_fixture() {
    assert_exactly("panic-reach", "panic-reach");
}

#[test]
fn rng_provenance_fixture() {
    assert_exactly("rng-provenance", "rng-provenance");
}

#[test]
fn trace_coverage_fixture() {
    assert_exactly("trace-coverage", "trace-coverage");
    // The rule reads the `trace_events!` table, not the macro that expands
    // it: the entry with no emit site is named, the emitted one is not.
    let report = sslint::run(&fixture("trace-coverage"), sslint::ALLOWLIST_FILE).expect("loads");
    let unemitted: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.msg.contains("never emitted"))
        .map(|f| f.msg.as_str())
        .collect();
    assert_eq!(unemitted.len(), 1, "{unemitted:?}");
    assert!(
        unemitted[0].contains("`TraceEvent::LinkUp`"),
        "{unemitted:?}"
    );
}

#[test]
fn dead_pub_fixture() {
    assert_exactly("dead-pub", "dead-pub");
}

#[test]
fn hot_path_alloc_fixture() {
    assert_exactly("hot-path-alloc", "hot-path-alloc");
}

#[test]
fn unsafe_contract_fixture() {
    assert_exactly("unsafe-contract", "unsafe-contract");
}

#[test]
fn float_determinism_fixture() {
    assert_exactly("float-determinism", "float-determinism");
}

/// Every bad fixture must make the *binary* exit 1 and name its rule in
/// the JSONL output — the exact contract CI relies on.
#[test]
fn binary_exits_nonzero_on_every_fixture() {
    for rule in [
        "wall-clock",
        "hash-iter",
        "panic",
        "dep-hermetic",
        "layering",
        "unsafe-forbid",
        "allow-reason",
        "allowlist-unused",
        "panic-reach",
        "rng-provenance",
        "trace-coverage",
        "dead-pub",
        "hot-path-alloc",
        "unsafe-contract",
        "float-determinism",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sslint"))
            .args(["--root"])
            .arg(fixture(rule))
            .args(["--format", "jsonl"])
            .output()
            .expect("spawn sslint");
        assert_eq!(
            out.status.code(),
            Some(1),
            "fixture `{rule}`: expected exit 1, got {:?}",
            out.status
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("\"rule\":\"{rule}\"")),
            "fixture `{rule}`: JSONL output missing the rule id:\n{stdout}"
        );
    }
}

/// The live workspace passes its own auditor (library API).
#[test]
fn live_workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = sslint::run(&root, sslint::ALLOWLIST_FILE).expect("workspace loads");
    assert!(
        report.findings.is_empty(),
        "live workspace has findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.msg))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_audited > 50, "suspiciously few files audited");
}

/// Pass 3 actually covers the live workspace: the simnet hot-path
/// annotations must yield a non-trivial hot reachability set, and the
/// pool boundary must prune it (BufPool::get's own fresh `Vec::new` is
/// sanctioned, so it must not be hot-reachable).
#[test]
fn live_workspace_pass3_coverage() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = sslint::workspace::load(&root).expect("workspace loads");
    let graph = sslint::graph::Graph::build(&ws);
    let hot_roots: Vec<&str> = graph
        .fns
        .iter()
        .filter(|f| f.hot_root)
        .map(|f| f.name.as_str())
        .collect();
    for expected in ["step", "transmit", "push", "pop", "put"] {
        assert!(
            hot_roots.contains(&expected),
            "`{expected}` is not annotated as a hot-path root; got {hot_roots:?}"
        );
    }
    let reach = graph.reach_from_hot();
    let reached = reach.iter().filter(|r| r.is_some()).count();
    assert!(
        reached > hot_roots.len(),
        "hot reachability must extend beyond the roots, got {reached}"
    );
    for (id, f) in graph.fns.iter().enumerate() {
        if f.pool_boundary {
            assert!(
                reach[id].is_none(),
                "pool boundary `{}` must not be hot-reachable",
                f.name
            );
        }
    }
}
