//! The rule engine: hermeticity & layering (H), seed provenance and
//! cross-file coverage (G), and the hygiene of sslint's own escape hatches.
//!
//! Each rule is a pure function from the lexed workspace model to a list
//! of [`Finding`]s: a pattern over one manifest, a token pattern over one
//! file, or (`trace-coverage`, `dead-pub`) an identifier count over the
//! whole snapshot. The declarations two rules care about are token
//! patterns too: `pub fn`/`pub const`/`pub static` for `dead-pub`, and the
//! brace span of an `impl` for `trace-coverage`. Both over-approximate —
//! no type information — and the inline `// sslint: allow(<rule>) —
//! <reason>` escape hatch covers the rest. Rules that read one token at a
//! time (wall clock, hash order, panics, unsafe) are clippy's: see the
//! root `Cargo.toml`'s `[workspace.lints]` and `clippy.toml`.

use std::collections::{BTreeMap, BTreeSet};

use crate::lex::{self, Tok, TokKind};
use crate::workspace::{CrateInfo, SrcFile, Workspace};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (what allow comments name).
    pub rule: &'static str,
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

/// Rule H: all dependencies must resolve in-tree (path or workspace).
pub const RULE_DEP_HERMETIC: &str = "dep-hermetic";
/// Rule H: in-tree dependencies must respect the layering DAG.
pub const RULE_LAYERING: &str = "layering";
/// Rule H: every member manifest inherits the workspace lint table, so
/// clippy's determinism, panic and unsafe lints reach every crate.
pub const RULE_LINTS_INHERIT: &str = "lints-inherit";
/// Hygiene of the hygiene tool: allow comments must carry a reason.
pub const RULE_ALLOW_REASON: &str = "allow-reason";
/// Allowlist-file entries that matched nothing are stale and must go.
pub const RULE_ALLOWLIST_UNUSED: &str = "allowlist-unused";
/// Rule G: RNG constructions must flow from a named seed
/// (the `util::seed` chain or a parameter), never a literal or the clock.
pub const RULE_RNG_PROVENANCE: &str = "rng-provenance";
/// Rule G: every declared `TraceEvent` variant must have an emit site and
/// an oracle/test reference.
pub const RULE_TRACE_COVERAGE: &str = "trace-coverage";
/// Rule G: pub fns/consts/statics of internal crates with zero
/// cross-crate references.
pub const RULE_DEAD_PUB: &str = "dead-pub";
/// One rule's catalogue entry, for `--list-rules` and the DESIGN.md §7
/// sync test.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule identifier.
    pub id: &'static str,
    /// Rule group: `H` hermeticity & layering, `G` seed provenance &
    /// cross-file coverage, `hygiene`.
    pub group: &'static str,
    /// One-line description.
    pub desc: &'static str,
}

/// The full rule catalogue, in display order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: RULE_DEP_HERMETIC,
        group: "H",
        desc: "every dependency resolves in-tree (path or workspace)",
    },
    RuleInfo {
        id: RULE_LAYERING,
        group: "H",
        desc: "in-tree dependencies strictly descend the layering DAG",
    },
    RuleInfo {
        id: RULE_LINTS_INHERIT,
        group: "H",
        desc: "every member Cargo.toml has `[lints] workspace = true`",
    },
    RuleInfo {
        id: RULE_ALLOW_REASON,
        group: "hygiene",
        desc: "inline allow comments must carry a reason",
    },
    RuleInfo {
        id: RULE_ALLOWLIST_UNUSED,
        group: "hygiene",
        desc: "allowlist entries that match no finding are stale",
    },
    RuleInfo {
        id: RULE_RNG_PROVENANCE,
        group: "G",
        desc: "RNGs are seeded from a named seed, never literals or the clock",
    },
    RuleInfo {
        id: RULE_TRACE_COVERAGE,
        group: "G",
        desc: "every declared TraceEvent variant has an emit site and an oracle/test reference",
    },
    RuleInfo {
        id: RULE_DEAD_PUB,
        group: "G",
        desc: "no pub item of an internal crate with zero cross-crate references",
    },
];

/// The layering DAG: each crate's layer number; a crate may only depend
/// on crates in strictly lower layers. New crates must be added here
/// consciously — an unknown crate is a layering finding, not a pass.
const LAYERS: &[(&str, u32)] = &[
    ("ssmc", 0),
    ("util", 1),
    ("sslint", 2),
    ("xia-addr", 2),
    ("simnet", 2),
    ("xia-wire", 3),
    ("xia-transport", 4),
    ("xcache", 4),
    ("xia-host", 5),
    ("xia-router", 6),
    ("vehicular", 6),
    ("softstage", 7),
    ("apps", 8),
    ("experiments", 9),
    ("bench", 10),
    ("suite", 10),
];

/// Maps a dependency key or package name to its crate directory name.
fn canonical(name: &str) -> &str {
    match name {
        "softstage-util" => "util",
        "softstage-apps" => "apps",
        "softstage-experiments" => "experiments",
        "softstage-bench" => "bench",
        "softstage-suite" => "suite",
        other => other,
    }
}

fn layer_of(name: &str) -> Option<u32> {
    let c = canonical(name);
    LAYERS.iter().find(|(n, _)| *n == c).map(|(_, l)| *l)
}

/// Runs every rule over the workspace: the manifest rules, the per-file
/// token rules, then the two cross-file coverage rules.
pub fn run_all(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    hermeticity(ws, &mut findings);
    for krate in &ws.crates {
        layering(krate, &mut findings);
        lints_inherit(krate, &mut findings);
        for file in &krate.files {
            allow_hygiene(file, &mut findings);
            rng_provenance(file, &mut findings);
        }
    }
    trace_coverage(ws, &mut findings);
    dead_pub(ws, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

// ---------------------------------------------------------------------------
// Rule H — hermeticity & layering
// ---------------------------------------------------------------------------

fn hermeticity(ws: &Workspace, findings: &mut Vec<Finding>) {
    let mut manifests: Vec<(&str, &crate::manifest::Manifest)> = vec![];
    if let Some(root) = &ws.root_manifest {
        manifests.push(("Cargo.toml", root));
    }
    for krate in &ws.crates {
        manifests.push((&krate.manifest_rel, &krate.manifest));
    }
    for (rel, m) in manifests {
        for dep in &m.deps {
            if !dep.is_in_tree() {
                findings.push(Finding {
                    rule: RULE_DEP_HERMETIC,
                    file: rel.to_string(),
                    line: dep.line,
                    msg: format!(
                        "dependency `{}` is not an in-tree path crate — the \
                         workspace must build offline with zero registry \
                         access",
                        dep.name
                    ),
                });
            }
        }
    }
}

fn layering(krate: &CrateInfo, findings: &mut Vec<Finding>) {
    let Some(own_layer) = layer_of(&krate.dir_name) else {
        findings.push(Finding {
            rule: RULE_LAYERING,
            file: krate.manifest_rel.clone(),
            line: 1,
            msg: format!(
                "crate `{}` is not in the layering DAG — add it to \
                 sslint's LAYERS table with a deliberate layer",
                krate.dir_name
            ),
        });
        return;
    };
    for dep in &krate.manifest.deps {
        if dep.section != "dependencies" {
            continue; // dev-dependencies may reach sideways for tests.
        }
        match layer_of(&dep.name) {
            None => findings.push(Finding {
                rule: RULE_LAYERING,
                file: krate.manifest_rel.clone(),
                line: dep.line,
                msg: format!("dependency `{}` is not in the layering DAG", dep.name),
            }),
            Some(dep_layer) if dep_layer >= own_layer => findings.push(Finding {
                rule: RULE_LAYERING,
                file: krate.manifest_rel.clone(),
                line: dep.line,
                msg: format!(
                    "`{}` (layer {own_layer}) must not depend on `{}` \
                     (layer {dep_layer}) — layers must strictly decrease",
                    krate.dir_name, dep.name
                ),
            }),
            Some(_) => {}
        }
    }
}

/// Rule H `lints-inherit`: rustc and clippy enforce only the lints a
/// crate opts into, so a member that does not inherit the workspace table
/// would silently escape every lint the table denies.
fn lints_inherit(krate: &CrateInfo, findings: &mut Vec<Finding>) {
    if !krate.manifest.inherits_lints {
        findings.push(Finding {
            rule: RULE_LINTS_INHERIT,
            file: krate.manifest_rel.clone(),
            line: 1,
            msg: format!(
                "crate `{}` does not inherit the workspace lints — add \
                 `[lints]` with `workspace = true`",
                krate.dir_name
            ),
        });
    }
}

/// Token spans `[impl, past its closing brace)` of the `impl` blocks
/// whose header — the tokens between `impl` and the body's `{` — `pick`
/// accepts, given the `impl` token's index.
fn impl_spans(toks: &[Tok], pick: impl Fn(usize, &[Tok]) -> bool) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for (at, t) in toks.iter().enumerate() {
        if !t.is_ident("impl") {
            continue;
        }
        // The body opens at the first `{` outside angle brackets; the `>`
        // of `->` closes none.
        let mut angle = 0i32;
        let mut j = at + 1;
        while let Some(h) = toks.get(j) {
            if h.is_punct("<") {
                angle += 1;
            } else if h.is_punct(">") && !lex::back(toks, j, 1).is_some_and(|p| p.is_punct("-")) {
                angle -= 1;
            } else if angle <= 0 && (h.is_punct("{") || h.is_punct(";")) {
                break;
            }
            j += 1;
        }
        if toks.get(j).is_some_and(|h| h.is_punct("{"))
            && toks.get(at + 1..j).is_some_and(|header| pick(at, header))
        {
            spans.push((at, lex::skip_balanced(toks, j, toks.len(), "{", "}")));
        }
    }
    spans
}

// ---------------------------------------------------------------------------
// The trace schema (read by trace-coverage)
// ---------------------------------------------------------------------------

/// The `TraceEvent` declaration as parsed out of `simnet`'s trace module:
/// which file declares it, the variant names, and each variant's line
/// (trace-coverage findings anchor at the declaration).
struct TraceDecl {
    /// Workspace-relative path of the declaring file.
    file: String,
    /// Declared variant names.
    names: BTreeSet<String>,
    /// Variant name → 1-based declaration line.
    lines: BTreeMap<String, u32>,
}

/// Parses the declared `TraceEvent` variants out of the `trace_events!`
/// table in `crates/simnet/src/trace.rs` (entries are `Variant = "wire
/// name"`, optionally followed by a `{ field: Type, … }` block). Anchors
/// on the table *invocation*, not on the first `enum TraceEvent {` token
/// run — the macro that expands the table carries one too. Returns `None`
/// when the workspace has no trace table (trace-coverage is then skipped
/// — nothing to check against).
fn declared_trace_variants(ws: &Workspace) -> Option<TraceDecl> {
    let simnet = ws.crates.iter().find(|c| c.dir_name == "simnet")?;
    let trace = simnet
        .files
        .iter()
        .find(|f| f.rel.ends_with("src/trace.rs"))?;
    let toks = &trace.lexed.tokens;
    let table = toks.windows(3).position(|w| {
        matches!(w, [m, b, o] if m.is_ident("trace_events") && b.is_punct("!") && o.is_punct("{"))
    })? + 3;
    let start = table
        + toks.get(table..)?.windows(3).position(|w| {
            matches!(w, [e, n, o] if e.is_ident("enum") && n.is_ident("TraceEvent") && o.is_punct("{"))
        })?
        + 3;
    let mut names = BTreeSet::new();
    let mut lines = BTreeMap::new();
    let mut depth = 1usize;
    let mut at_variant_start = true;
    for t in toks.iter().skip(start) {
        if depth == 0 {
            break;
        }
        if t.is_punct("{") || t.is_punct("(") {
            depth += 1;
        } else if t.is_punct("}") || t.is_punct(")") {
            depth -= 1;
            if depth == 1 {
                at_variant_start = false; // struct-variant body just closed
            }
        } else if t.is_punct(",") && depth == 1 {
            at_variant_start = true;
        } else if depth == 1 && at_variant_start && t.kind == TokKind::Ident {
            names.insert(t.text.clone());
            lines.insert(t.text.clone(), t.line);
            at_variant_start = false;
        }
    }
    Some(TraceDecl {
        file: trace.rel.clone(),
        names,
        lines,
    })
}

// ---------------------------------------------------------------------------
// Rule G — seed provenance and cross-file coverage
// ---------------------------------------------------------------------------

/// Identifiers that smell like wall-clock entropy inside a seed
/// expression.
const TIME_SOURCE_IDENTS: &[&str] = &[
    "now",
    "SystemTime",
    "Instant",
    "elapsed",
    "duration_since",
    "UNIX_EPOCH",
];

/// Primitive-type and cast tokens that do *not* count as a named seed
/// source inside `seed_from_u64(…)` arguments.
const SEED_NON_SOURCE_IDENTS: &[&str] = &[
    "u8",
    "u16",
    "u32",
    "u64",
    "u128",
    "usize",
    "i8",
    "i16",
    "i32",
    "i64",
    "i128",
    "isize",
    "as",
    "const",
    "wrapping_mul",
    "wrapping_add",
    "rotate_left",
    "rotate_right",
];

/// Rule G `rng-provenance`: every RNG construction must
/// flow from a *named* seed — the `util::seed` derivation chain or a
/// function parameter. `seed_from_u64(<literal arithmetic>)` is a
/// literal-seeded RNG, a time-source ident in the argument is a
/// time-seeded RNG, and `<T>Rng::default()` is a freshly-defaulted RNG;
/// all three make replication seed-dependent in ways the experiment
/// registry cannot replay.
fn rng_provenance(file: &SrcFile, findings: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if file.in_test(i) || t.kind != TokKind::Ident {
            continue;
        }
        // `<T>Rng::default()` — an RNG with no seed lineage at all.
        if t.text.ends_with("Rng")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("default"))
            && toks.get(i + 3).is_some_and(|n| n.is_punct("("))
        {
            findings.push(Finding {
                rule: RULE_RNG_PROVENANCE,
                file: file.rel.clone(),
                line: t.line,
                msg: format!(
                    "`{}::default()` constructs a freshly-defaulted RNG — \
                     seed it through the util::seed derivation chain",
                    t.text
                ),
            });
            continue;
        }
        if t.text != "seed_from_u64" || !toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        // Skip the definition site (`fn seed_from_u64(…)`).
        if lex::back(toks, i, 1).is_some_and(|p| p.is_ident("fn")) {
            continue;
        }
        // Classify the argument span between the balanced parens.
        let mut depth = 0usize;
        let mut named_source = false;
        let mut time_source: Option<&Tok> = None;
        for a in toks.iter().skip(i + 1) {
            if a.is_punct("(") {
                depth += 1;
            } else if a.is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if a.kind == TokKind::Ident {
                if TIME_SOURCE_IDENTS.contains(&a.text.as_str()) {
                    time_source.get_or_insert(a);
                } else if !SEED_NON_SOURCE_IDENTS.contains(&a.text.as_str()) {
                    named_source = true;
                }
            }
        }
        if let Some(src) = time_source {
            findings.push(Finding {
                rule: RULE_RNG_PROVENANCE,
                file: file.rel.clone(),
                line: t.line,
                msg: format!(
                    "RNG seeded from the clock (`{}`) — derive the seed \
                     via util::seed instead",
                    src.text
                ),
            });
        } else if !named_source {
            findings.push(Finding {
                rule: RULE_RNG_PROVENANCE,
                file: file.rel.clone(),
                line: t.line,
                msg: "RNG seeded from a literal — thread a derived seed or \
                      parameter through instead of hard-coding one"
                    .to_string(),
            });
        }
    }
}

/// Rule G `trace-coverage`: every declared `TraceEvent` variant needs at
/// least one emit site (a `TraceEvent::X` use in non-test src outside the
/// declaring file) and at least one check reference (a `TraceEvent::X`
/// use in test code, in the reference corpus, or inside the oracle's own
/// impl block). Unemitted variants are dead observability; unchecked ones
/// are blind spots the oracle silently stopped covering.
fn trace_coverage(ws: &Workspace, findings: &mut Vec<Finding>) {
    let Some(decl) = declared_trace_variants(ws) else {
        return;
    };
    let mut emitted: BTreeSet<String> = BTreeSet::new();
    let mut checked: BTreeSet<String> = BTreeSet::new();
    let record = |set: &mut BTreeSet<String>, name: &str| {
        if decl.names.contains(name) {
            set.insert(name.to_string());
        }
    };

    for krate in &ws.crates {
        for file in &krate.files {
            let toks = &file.lexed.tokens;
            // Token ranges of `impl TraceAudit` blocks in the declaring
            // file: variant uses there are the oracle checking, not
            // emitting.
            let oracle_spans = if file.rel == decl.file {
                impl_spans(toks, |_, header| {
                    header.iter().any(|h| h.is_ident("TraceAudit"))
                })
            } else {
                Vec::new()
            };
            for (i, t) in toks.iter().enumerate() {
                if !t.is_ident("TraceEvent")
                    || !toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                    || !toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
                {
                    continue;
                }
                let Some(name) = toks.get(i + 2).map(|n| n.text.as_str()) else {
                    continue;
                };
                if file.in_test(i) || oracle_spans.iter().any(|&(s, e)| s <= i && i < e) {
                    record(&mut checked, name);
                } else if file.rel != decl.file {
                    record(&mut emitted, name);
                }
            }
        }
    }
    for rf in &ws.ref_files {
        let toks = &rf.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.is_ident("TraceEvent")
                && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
            {
                if let Some(n2) = toks.get(i + 2) {
                    record(&mut checked, &n2.text);
                }
            }
        }
    }

    for name in &decl.names {
        let line = decl.lines.get(name).copied().unwrap_or(1);
        if !emitted.contains(name) {
            findings.push(Finding {
                rule: RULE_TRACE_COVERAGE,
                file: decl.file.clone(),
                line,
                msg: format!(
                    "`TraceEvent::{name}` is declared but never emitted — \
                     dead observability; emit it or remove the variant"
                ),
            });
        }
        if !checked.contains(name) {
            findings.push(Finding {
                rule: RULE_TRACE_COVERAGE,
                file: decl.file.clone(),
                line,
                msg: format!(
                    "`TraceEvent::{name}` has no oracle or test reference — \
                     the trace invariant suite is blind to it"
                ),
            });
        }
    }
}

/// Words that may stand between `pub` and `fn`, plus `static`: alone,
/// it and `const` start a value item instead.
const FN_QUALIFIERS: &[&str] = &["const", "static", "async", "unsafe", "extern", "default"];

/// The non-test `pub` fns, consts and statics `file` declares, as (name,
/// line of the `fn`/`const`/`static` keyword): `pub` (not `pub(…)`), any
/// [`FN_QUALIFIERS`], then `fn NAME`; or `pub const NAME` / `pub static
/// NAME`. `macro_rules!` bodies are templates and are skipped. These are
/// what `dead-pub` audits because every use site must *name* them; type
/// items appear in inferred positions a lexer cannot see (method
/// receivers, return types), and a pub fn returning a demoted type would
/// no longer compile (E0446), so zero name-references is not decisive for
/// them. A trait-impl method cannot be written `pub`, so none is matched.
fn pub_values(file: &SrcFile) -> Vec<(&str, u32)> {
    let toks = &file.lexed.tokens;
    let mut out = Vec::new();
    let mut template_end = 0;
    for (i, t) in toks.iter().enumerate() {
        if i < template_end || file.in_test(i) {
            continue;
        }
        if t.is_ident("macro_rules") {
            if let Some(open) = toks.iter().skip(i).position(|b| b.is_punct("{")) {
                template_end = lex::skip_balanced(toks, i + open, toks.len(), "{", "}");
            }
            continue;
        }
        if !t.is_ident("pub") {
            continue;
        }
        let mut k = i + 1;
        while toks
            .get(k)
            .is_some_and(|q| FN_QUALIFIERS.iter().any(|w| q.is_ident(w)))
        {
            k += 1;
        }
        // `fn` after the qualifiers, else a lone `const`/`static`.
        let lone_value = k == i + 2
            && toks
                .get(i + 1)
                .is_some_and(|q| q.is_ident("const") || q.is_ident("static"));
        let keyword = if toks.get(k).is_some_and(|f| f.is_ident("fn")) {
            k
        } else if lone_value {
            i + 1
        } else {
            continue;
        };
        if let (Some(kw), Some(name)) = (toks.get(keyword), toks.get(keyword + 1)) {
            if name.kind == TokKind::Ident {
                out.push((name.text.as_str(), kw.line));
            }
        }
    }
    out
}

/// Rule G `dead-pub`: a `pub` item of an *internal* crate (one some other
/// member crate depends on) that no other crate — src, bins, tests,
/// benches or root tests/examples — ever names. Leaf crates keep their
/// pub API (it *is* the product surface); internal crates must shrink
/// theirs to what is used, which is what rustc's per-crate
/// `unreachable_pub` can never see.
fn dead_pub(ws: &Workspace, findings: &mut Vec<Finding>) {
    // Which crates are internal: named as a dependency (any section) by
    // another member crate.
    let mut internal: BTreeSet<usize> = BTreeSet::new();
    for (ki, krate) in ws.crates.iter().enumerate() {
        for dep in &krate.manifest.deps {
            let dep_dir = canonical(&dep.name);
            if let Some(di) = ws.crates.iter().position(|c| c.dir_name == dep_dir) {
                if di != ki {
                    internal.insert(di);
                }
            }
        }
    }

    // All identifiers referenced outside each crate's own lib: for crate
    // `k` that is every ident in other crates' src, in `k`'s own bin
    // files (separate rustc crates), and in the whole reference corpus.
    let idents = |toks: &[Tok], set: &mut BTreeSet<String>| {
        set.extend(
            toks.iter()
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone()),
        );
    };
    let mut lib_idents = vec![BTreeSet::new(); ws.crates.len()];
    let mut bin_idents = vec![BTreeSet::new(); ws.crates.len()];
    for ((krate, lib), bin) in ws.crates.iter().zip(&mut lib_idents).zip(&mut bin_idents) {
        for file in &krate.files {
            idents(&file.lexed.tokens, if file.is_bin { bin } else { lib });
        }
    }
    let mut ref_idents = BTreeSet::new();
    for rf in &ws.ref_files {
        idents(&rf.lexed.tokens, &mut ref_idents);
    }

    for (ki, (krate, bins)) in ws.crates.iter().zip(&bin_idents).enumerate() {
        if !internal.contains(&ki) {
            continue;
        }
        let externally_named = |name: &str| {
            ref_idents.contains(name)
                || bins.contains(name)
                || lib_idents
                    .iter()
                    .enumerate()
                    .any(|(other, set)| other != ki && set.contains(name))
        };
        for file in &krate.files {
            if file.is_bin {
                continue;
            }
            for (name, line) in pub_values(file) {
                if !externally_named(name) {
                    findings.push(Finding {
                        rule: RULE_DEAD_PUB,
                        file: file.rel.clone(),
                        line,
                        msg: format!(
                            "pub item `{name}` of internal crate `{}` has no \
                             cross-crate reference — demote to pub(crate) \
                             or remove",
                            krate.dir_name
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Allow hygiene
// ---------------------------------------------------------------------------

fn allow_hygiene(file: &SrcFile, findings: &mut Vec<Finding>) {
    for &line in &file.lexed.reasonless_allows {
        findings.push(Finding {
            rule: RULE_ALLOW_REASON,
            file: file.rel.clone(),
            line,
            msg: "sslint allow comment without a reason — write \
                  `// sslint: allow(<rule>) — <why this is sound>`"
                .to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_table_is_a_dag_over_known_names() {
        for (name, layer) in LAYERS {
            assert_eq!(layer_of(name), Some(*layer));
        }
        assert_eq!(layer_of("softstage-apps"), layer_of("apps"));
        assert_eq!(layer_of("no-such-crate"), None);
    }

    /// trace-coverage is only as good as its reading of the live
    /// `trace_events!` table: an anchor that stops matching would make
    /// the rule pass vacuously.
    #[test]
    fn live_trace_table_is_read() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ws = crate::workspace::load(&root).expect("workspace loads");
        let decl = declared_trace_variants(&ws).expect("simnet declares the trace table");
        assert!(decl.names.len() >= 30, "{:?}", decl.names);
        // First entry, a unit entry, last entry.
        for name in ["PacketEnqueue", "NodeCrash", "ServiceDegrade"] {
            assert!(
                decl.names.contains(name),
                "{name} missing: {:?}",
                decl.names
            );
        }
    }
}
