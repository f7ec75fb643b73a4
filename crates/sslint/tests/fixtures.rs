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

/// Asserts a fixture's findings (library API) name exactly `rule`, and
/// returns them for fixture-specific checks.
fn assert_exactly(name: &str, rule: &str) -> Vec<sslint::Finding> {
    let report = sslint::run(&fixture(name), sslint::ALLOWLIST_FILE)
        .unwrap_or_else(|e| panic!("fixture `{name}` failed to load: {e}"));
    assert!(
        !report.findings.is_empty(),
        "fixture `{name}` produced no findings"
    );
    let fired: BTreeSet<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        fired,
        BTreeSet::from([rule]),
        "fixture `{name}` must trigger exactly `{rule}`, got {fired:?}"
    );
    report.findings
}

fn lines(findings: &[sslint::Finding]) -> Vec<u32> {
    findings.iter().map(|f| f.line).collect()
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
fn lints_inherit_fixture() {
    assert_exactly("lints-inherit", "lints-inherit");
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
fn rng_provenance_fixture() {
    assert_exactly("rng-provenance", "rng-provenance");
}

#[test]
fn trace_coverage_fixture() {
    // The rule reads the `trace_events!` table, not the macro that expands
    // it. `PacketTx` is emitted but unchecked, `LinkUp` neither, and
    // `LinkDown`, emitted and named only inside `impl TraceAudit`, is both.
    let gaps: Vec<String> = assert_exactly("trace-coverage", "trace-coverage")
        .iter()
        .map(|f| {
            let variant = f.msg.split('`').nth(1).unwrap_or_default();
            let gap = if f.msg.contains("never emitted") {
                "unemitted"
            } else {
                "unchecked"
            };
            format!("{variant} {gap}")
        })
        .collect();
    assert_eq!(
        gaps,
        [
            "TraceEvent::PacketTx unchecked",
            "TraceEvent::LinkUp unemitted",
            "TraceEvent::LinkUp unchecked",
        ]
    );
}

#[test]
fn dead_pub_fixture() {
    // Fire: `pub` fn, const, static, const fn, unsafe fn and inherent
    // method nobody else names. Silent: `pub(crate)`, test-only, a field,
    // a trait-impl method, a `macro_rules!` template, and `used`, which
    // `xcache` calls.
    assert_eq!(
        lines(&assert_exactly("dead-pub", "dead-pub")),
        [4, 8, 10, 12, 18, 25]
    );
}

/// Every bad fixture must make the *binary* exit 1 and name its rule in
/// the JSONL output — the exact contract CI relies on.
#[test]
fn binary_exits_nonzero_on_every_fixture() {
    for rule in [
        "dep-hermetic",
        "layering",
        "lints-inherit",
        "allow-reason",
        "allowlist-unused",
        "rng-provenance",
        "trace-coverage",
        "dead-pub",
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
