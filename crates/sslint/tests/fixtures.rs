//! Fixture tests: one known-bad mini-workspace per rule, each asserted to
//! trigger exactly that rule id through [`sslint::run`], the auditor's one
//! entry point. Ends with the self-clean check: the live workspace must
//! pass its own auditor.

use std::collections::BTreeSet;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Asserts a fixture's findings name exactly `rule`, and returns them for
/// fixture-specific checks.
fn assert_exactly(name: &str, rule: &str) -> Vec<sslint::Finding> {
    let report = sslint::run(&fixture(name))
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
    // `xcache` calls. `LIMIT` sits under a `// sslint: allow(dead-pub)`
    // comment and fires all the same: no comment silences a finding.
    let items: Vec<String> = assert_exactly("dead-pub", "dead-pub")
        .iter()
        .map(|f| f.msg.split('`').nth(1).unwrap_or_default().to_string())
        .collect();
    assert_eq!(
        items,
        ["orphan", "LIMIT", "NAME", "doubled", "raw", "method"]
    );
}

/// The fixture directories are the rule catalogue: each rule has one, each
/// one is named after its rule and fails the gate with that rule alone.
#[test]
fn every_rule_has_a_fixture_that_fails_the_gate() {
    let dirs: BTreeSet<String> = std::fs::read_dir(fixture(""))
        .expect("list fixtures")
        .map(|e| {
            e.expect("fixture entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let rules: BTreeSet<String> = sslint::rules::RULES.iter().map(|r| r.to_string()).collect();
    assert_eq!(dirs, rules, "one fixture directory per rule");
    for rule in &rules {
        assert_exactly(rule, rule);
    }
}

/// The live workspace passes its own auditor.
#[test]
fn live_workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = sslint::run(&root).expect("workspace loads");
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
