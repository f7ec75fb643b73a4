//! The rule engine: determinism (D), panic hygiene (P), hermeticity,
//! layering & unsafe (H) and cross-file coverage (G).
//!
//! Each rule is a pure function from the lexed workspace model to a list
//! of [`Finding`]s: a token pattern over one file or one manifest, or
//! (`trace-coverage`, `dead-pub`) an identifier count over the whole
//! snapshot. The declarations three rules care about are token patterns
//! too: `pub fn`/`pub const`/`pub static` for `dead-pub`, and the brace
//! span of an `impl` for `unsafe-contract` and `trace-coverage`. All of
//! them over-approximate — no type information — and the inline
//! `// sslint: allow(<rule>) — <reason>` escape hatch covers the rest.

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

/// Rule D: no wall-clock, thread or process-environment access in
/// simulation crates.
pub const RULE_WALL_CLOCK: &str = "wall-clock";
/// Rule D: no hash-ordered collection types in simulation crates.
pub const RULE_HASH_ITER: &str = "hash-iter";
/// Rule P: no `unwrap`/`expect`/`panic!`/`todo!`/computed indexing in
/// non-test library code.
pub const RULE_PANIC: &str = "panic";
/// Rule H: all dependencies must resolve in-tree (path or workspace).
pub const RULE_DEP_HERMETIC: &str = "dep-hermetic";
/// Rule H: in-tree dependencies must respect the layering DAG.
pub const RULE_LAYERING: &str = "layering";
/// Rule H: every library crate must carry `#![forbid(unsafe_code)]`.
pub const RULE_UNSAFE_FORBID: &str = "unsafe-forbid";
/// Rule H: every non-test `unsafe` construct needs an adjacent
/// `// SAFETY:` comment.
pub const RULE_UNSAFE_CONTRACT: &str = "unsafe-contract";
/// Hygiene of the hygiene tool: allow comments must carry a reason.
pub const RULE_ALLOW_REASON: &str = "allow-reason";
/// Allowlist-file entries that matched nothing are stale and must go.
pub const RULE_ALLOWLIST_UNUSED: &str = "allowlist-unused";
/// Rule G: RNG constructions in sim crates must flow from a named seed
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
    /// Rule group: `D` determinism, `P` panic hygiene, `H` hermeticity &
    /// layering, `G` cross-file coverage, `hygiene`.
    pub group: &'static str,
    /// One-line description.
    pub desc: &'static str,
}

/// The full rule catalogue, in display order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: RULE_WALL_CLOCK,
        group: "D",
        desc: "no SystemTime/Instant/std::thread/std::env in simulation crates",
    },
    RuleInfo {
        id: RULE_HASH_ITER,
        group: "D",
        desc: "no HashMap/HashSet in simulation crates",
    },
    RuleInfo {
        id: RULE_PANIC,
        group: "P",
        desc: "no unwrap/expect(\"…\")/panic!/todo!/computed indexing in non-test library code",
    },
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
        id: RULE_UNSAFE_FORBID,
        group: "H",
        desc: "every library crate carries #![forbid(unsafe_code)]",
    },
    RuleInfo {
        id: RULE_UNSAFE_CONTRACT,
        group: "H",
        desc: "every non-test unsafe construct carries an adjacent SAFETY: comment",
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
        desc: "sim-crate RNGs are seeded from the derived seed chain, never literals or the clock",
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

/// Every rule id, for `--help` and allowlist validation.
pub const ALL_RULES: &[&str] = &[
    RULE_WALL_CLOCK,
    RULE_HASH_ITER,
    RULE_PANIC,
    RULE_DEP_HERMETIC,
    RULE_LAYERING,
    RULE_UNSAFE_FORBID,
    RULE_UNSAFE_CONTRACT,
    RULE_ALLOW_REASON,
    RULE_ALLOWLIST_UNUSED,
    RULE_RNG_PROVENANCE,
    RULE_TRACE_COVERAGE,
    RULE_DEAD_PUB,
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

/// Whether a crate directory holds simulation logic subject to rule D.
pub fn is_sim_crate(dir_name: &str) -> bool {
    matches!(dir_name, "simnet" | "softstage" | "xcache" | "vehicular")
        || dir_name.starts_with("xia-")
}

/// Runs every rule over the workspace: the manifest rules, the per-file
/// token rules, then the two cross-file coverage rules.
pub fn run_all(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    hermeticity(ws, &mut findings);
    for krate in &ws.crates {
        layering(krate, &mut findings);
        unsafe_forbid(krate, &mut findings);
        for file in &krate.files {
            allow_hygiene(file, &mut findings);
            unsafe_contract(file, &mut findings);
            if is_sim_crate(&krate.dir_name) {
                determinism(file, &mut findings);
                rng_provenance(file, &mut findings);
            }
            if !file.is_bin {
                panic_hygiene(file, &mut findings);
            }
        }
    }
    trace_coverage(ws, &mut findings);
    dead_pub(ws, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

// ---------------------------------------------------------------------------
// Rule D — determinism
// ---------------------------------------------------------------------------

const WALL_CLOCK_TYPES: &[&str] = &["SystemTime", "Instant"];
const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const FORBIDDEN_STD_MODULES: &[&str] = &["thread", "env"];

/// Rules D `wall-clock` and `hash-iter`, one scan: both are bans on
/// naming a type (or `std` module) in a simulation crate's non-test code.
/// `hash-iter` bans the *type*, not iteration over it — `RandomState` is
/// seeded per instance, so any iteration, float fold or `Debug` print of
/// a hash collection differs run to run, and a ban on the identifier
/// catches every one of them, `use … as` aliases included (the alias
/// declaration has to name the type).
fn determinism(file: &SrcFile, findings: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if file.mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        if WALL_CLOCK_TYPES.contains(&t.text.as_str()) {
            findings.push(Finding {
                rule: RULE_WALL_CLOCK,
                file: file.rel.clone(),
                line: t.line,
                msg: format!(
                    "`{}` in a simulation crate — simulated time must come \
                     from `simnet::SimTime`",
                    t.text
                ),
            });
        }
        if HASH_TYPES.contains(&t.text.as_str()) {
            findings.push(Finding {
                rule: RULE_HASH_ITER,
                file: file.rel.clone(),
                line: t.line,
                msg: format!(
                    "`{}` in a simulation crate — hash order differs run to \
                     run; use BTreeMap/BTreeSet",
                    t.text
                ),
            });
        }
        if t.text == "std" && toks.get(i + 1).is_some_and(|n| n.is_punct("::")) {
            // `std::thread` / `std::env`, plus the braced form
            // `use std::{thread, env}`.
            let mut hits: Vec<(&Tok, &str)> = Vec::new();
            if let Some(n) = toks.get(i + 2) {
                if n.kind == TokKind::Ident && FORBIDDEN_STD_MODULES.contains(&n.text.as_str()) {
                    hits.push((n, n.text.as_str()));
                }
                if n.is_punct("{") {
                    let mut j = i + 3;
                    let mut depth = 1usize;
                    while let Some(m) = toks.get(j) {
                        if m.is_punct("{") {
                            depth += 1;
                        } else if m.is_punct("}") {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        } else if m.kind == TokKind::Ident
                            && FORBIDDEN_STD_MODULES.contains(&m.text.as_str())
                        {
                            hits.push((m, m.text.as_str()));
                        }
                        j += 1;
                    }
                }
            }
            for (tok, module) in hits {
                findings.push(Finding {
                    rule: RULE_WALL_CLOCK,
                    file: file.rel.clone(),
                    line: tok.line,
                    msg: format!(
                        "`std::{module}` in a simulation crate — threads and \
                         process environment break reproducibility"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule P — panic hygiene
// ---------------------------------------------------------------------------

const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

/// Keywords that can directly precede a `[` opening an array literal,
/// slice pattern or array type — never an indexed receiver.
const NOT_A_RECEIVER: &[&str] = &[
    "as", "break", "const", "dyn", "else", "for", "if", "impl", "in", "let", "match", "move",
    "mut", "ref", "return", "where", "while", "yield",
];

fn panic_hygiene(file: &SrcFile, findings: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if file.mask[i] {
            continue;
        }
        if t.is_punct("[") && is_computed_index(toks, i) {
            findings.push(Finding {
                rule: RULE_PANIC,
                file: file.rel.clone(),
                line: t.line,
                msg: "computed index in library code (can panic on \
                      out-of-range) — guard the input, use `.get(…)`, or \
                      justify with an sslint allow comment"
                    .to_string(),
            });
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev_is_dot = lex::back(toks, i, 1).is_some_and(|p| p.is_punct("."));
        if t.text == "unwrap" && prev_is_dot && toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            findings.push(Finding {
                rule: RULE_PANIC,
                file: file.rel.clone(),
                line: t.line,
                msg: "`.unwrap()` in library code — return a Result, \
                      restructure, or justify with an sslint allow comment"
                    .to_string(),
            });
        }
        if t.text == "expect"
            && prev_is_dot
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && toks.get(i + 2).is_some_and(|n| {
                n.kind == TokKind::Literal && n.text.contains('"') && !n.text.starts_with('b')
            })
        {
            findings.push(Finding {
                rule: RULE_PANIC,
                file: file.rel.clone(),
                line: t.line,
                msg: "`.expect(\"…\")` in library code — return a Result, \
                      restructure, or justify with an sslint allow comment"
                    .to_string(),
            });
        }
        if PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            findings.push(Finding {
                rule: RULE_PANIC,
                file: file.rel.clone(),
                line: t.line,
                msg: format!(
                    "`{}!` in library code — return an error, restructure, \
                     or justify with an sslint allow comment",
                    t.text
                ),
            });
        }
    }
}

/// Whether the `[` at `open` indexes a receiver with a *computed*
/// expression — arithmetic, field access, nested calls. The receiver must
/// end in an ident, `)` or `]`. Three index shapes are exempt as the
/// workspace's guarded idioms: lone literals (`buf[0]`, length-checked by
/// convention), lone identifiers (`toks[i]`, a loop-bounded cursor) and
/// ranges (`buf[2..22]`, slicing). The unguarded hazard this flags is the
/// derived index nobody bounds-checked: `nodes[id.0]`, `v[i + 1]`,
/// `heap[k % n]`.
fn is_computed_index(toks: &[Tok], open: usize) -> bool {
    let is_recv = lex::back(toks, open, 1).is_some_and(|recv| {
        recv.kind == TokKind::Ident && !NOT_A_RECEIVER.contains(&recv.text.as_str())
            || recv.is_punct(")")
            || recv.is_punct("]")
    });
    if !is_recv {
        return false;
    }
    let close = lex::skip_balanced(toks, open, toks.len(), "[", "]");
    let inner = toks.get(open + 1..close - 1).unwrap_or_default();
    let lone_token = inner.len() == 1;
    let has_range = inner
        .windows(2)
        .any(|w| w[0].is_punct(".") && w[1].is_punct("."));
    let has_ident = inner.iter().any(|x| x.kind == TokKind::Ident);
    !lone_token && !has_range && has_ident
}

// ---------------------------------------------------------------------------
// Rule H — hermeticity, layering & unsafe
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

fn unsafe_forbid(krate: &CrateInfo, findings: &mut Vec<Finding>) {
    let Some(lib) = krate.files.iter().find(|f| f.rel.ends_with("src/lib.rs")) else {
        return; // Binary-only crates have no lib surface to audit.
    };
    let toks = &lib.lexed.tokens;
    let has = toks.windows(4).any(|w| {
        w[0].is_ident("forbid")
            && w[1].is_punct("(")
            && w[2].is_ident("unsafe_code")
            && w[3].is_punct(")")
    });
    if !has {
        findings.push(Finding {
            rule: RULE_UNSAFE_FORBID,
            file: lib.rel.clone(),
            line: 1,
            msg: format!(
                "crate `{}` lacks `#![forbid(unsafe_code)]` in src/lib.rs",
                krate.dir_name
            ),
        });
    }
}

/// Rule H `unsafe-contract`: every non-test `unsafe` block/fn/impl needs
/// a `// SAFETY:` comment (or rustdoc `# Safety` section) within the
/// three preceding lines; multi-line SAFETY comments extend the window,
/// and `unsafe fn` signatures *inside* an `unsafe impl` inherit the
/// impl-level contract — the trait dictates them.
fn unsafe_contract(file: &SrcFile, findings: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    let unsafe_impls = impl_spans(toks, |at, _| {
        lex::back(toks, at, 1).is_some_and(|p| p.is_ident("unsafe"))
    });
    for (i, t) in toks.iter().enumerate() {
        if file.mask[i] || !t.is_ident("unsafe") {
            continue;
        }
        let next = toks.get(i + 1);
        let covered = file
            .lexed
            .safety_comments
            .iter()
            .any(|&s| s <= t.line && t.line - s <= 3);
        let is_required_sig = next.is_some_and(|n| n.is_ident("fn"))
            && unsafe_impls.iter().any(|&(s, e)| s <= i && i < e);
        if covered || is_required_sig {
            continue;
        }
        let what = match next {
            Some(n) if n.is_punct("{") => "unsafe block",
            Some(n) if n.is_ident("fn") => "unsafe fn",
            Some(n) if n.is_ident("impl") => "unsafe impl",
            Some(n) if n.is_ident("trait") => "unsafe trait",
            _ => "unsafe construct",
        };
        findings.push(Finding {
            rule: RULE_UNSAFE_CONTRACT,
            file: file.rel.clone(),
            line: t.line,
            msg: format!(
                "{what} without an adjacent `// SAFETY:` comment — state \
                 the invariant that makes it sound"
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
        if toks.get(j).is_some_and(|h| h.is_punct("{")) && pick(at, &toks[at + 1..j]) {
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
    let table = toks
        .windows(3)
        .position(|w| w[0].is_ident("trace_events") && w[1].is_punct("!") && w[2].is_punct("{"))?
        + 3;
    let start = table
        + toks.get(table..)?.windows(3).position(|w| {
            w[0].is_ident("enum") && w[1].is_ident("TraceEvent") && w[2].is_punct("{")
        })?
        + 3;
    let mut names = BTreeSet::new();
    let mut lines = BTreeMap::new();
    let mut depth = 1usize;
    let mut i = start;
    let mut at_variant_start = true;
    while i < toks.len() && depth > 0 {
        let t = &toks[i];
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
        i += 1;
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

/// Rule G `rng-provenance`: in sim crates every RNG construction must
/// flow from a *named* seed — the `util::seed` derivation chain or a
/// function parameter. `seed_from_u64(<literal arithmetic>)` is a
/// literal-seeded RNG, a time-source ident in the argument is a
/// time-seeded RNG, and `<T>Rng::default()` is a freshly-defaulted RNG;
/// all three make replication seed-dependent in ways the experiment
/// registry cannot replay.
fn rng_provenance(file: &SrcFile, findings: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if file.mask[i] || t.kind != TokKind::Ident {
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
        let mut j = i + 1;
        let mut depth = 0usize;
        let mut named_source = false;
        let mut time_source: Option<&Tok> = None;
        while j < toks.len() {
            let a = &toks[j];
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
            j += 1;
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
                if file.mask[i] {
                    record(&mut checked, name);
                } else if oracle_spans.iter().any(|&(s, e)| s <= i && i < e) {
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
        if i < template_end || file.mask[i] {
            continue;
        }
        if t.is_ident("macro_rules") {
            if let Some(open) = toks[i..].iter().position(|b| b.is_punct("{")) {
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
    let mut idents_by_crate = vec![BTreeSet::new(); ws.crates.len()];
    let mut bin_idents_by_crate = vec![BTreeSet::new(); ws.crates.len()];
    for (ki, krate) in ws.crates.iter().enumerate() {
        for file in &krate.files {
            let by_crate = if file.is_bin {
                &mut bin_idents_by_crate
            } else {
                &mut idents_by_crate
            };
            idents(&file.lexed.tokens, &mut by_crate[ki]);
        }
    }
    let mut ref_idents = BTreeSet::new();
    for rf in &ws.ref_files {
        idents(&rf.lexed.tokens, &mut ref_idents);
    }

    for &ki in &internal {
        let krate = &ws.crates[ki];
        let externally_named = |name: &str| {
            ref_idents.contains(name)
                || bin_idents_by_crate[ki].contains(name)
                || idents_by_crate
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

    #[test]
    fn sim_crate_classification() {
        for c in [
            "simnet",
            "softstage",
            "xcache",
            "vehicular",
            "xia-host",
            "xia-wire",
        ] {
            assert!(is_sim_crate(c), "{c}");
        }
        for c in ["util", "apps", "experiments", "bench", "suite", "sslint"] {
            assert!(!is_sim_crate(c), "{c}");
        }
    }

    #[test]
    fn panic_sites_cover_all_four_kinds() {
        let src = "fn f(v: &[u32], i: usize) {\n\
                   v.get(0).unwrap();\n\
                   v.get(0).expect(\"x\");\n\
                   panic!(\"y\");\n\
                   let _ = v[i + 1];\n\
                   let _ = v[i]; let _ = v[0]; let _ = &v[1..3]; for _ in [i + 1, 2] {}\n\
                   }";
        let lexed = lex::lex(src);
        let file = SrcFile {
            rel: "f.rs".to_string(),
            is_bin: false,
            mask: lex::test_mask(&lexed.tokens),
            lexed,
        };
        let mut findings = Vec::new();
        panic_hygiene(&file, &mut findings);
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        assert_eq!(
            lines,
            [2, 3, 4, 5],
            "lone-literal, lone-ident and range indexing and array \
             literals must not count: {findings:?}"
        );
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
