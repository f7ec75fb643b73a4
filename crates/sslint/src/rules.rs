//! The rule engine: determinism (D), panic hygiene (P), hermeticity &
//! layering (H) and graph-semantic analysis (G).
//!
//! Each rule is a pure function from the lexed workspace model to a list
//! of [`Finding`]s. The single-file rules are token-pattern based; the G
//! rules (`panic-reach`, `rng-provenance`, `trace-coverage`, `dead-pub`)
//! run over the [`crate::graph`] item graph, so they see *items and
//! calls* and survive refactors that move code between functions and
//! files. Both layers over-approximate in principle — no type
//! information — and the inline `// sslint: allow(<rule>) — <reason>`
//! escape hatch covers the rest.

use std::collections::{BTreeMap, BTreeSet};

use crate::flow::{self, AssignClass};
use crate::graph::{Graph, ItemKind, Vis};
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
/// Rule D: no iteration over hash-ordered collections in simulation
/// crates.
pub const RULE_HASH_ITER: &str = "hash-iter";
/// Rule P: no `unwrap`/`expect`/`panic!`/`todo!` in non-test library code.
pub const RULE_PANIC: &str = "panic";
/// Rule H: all dependencies must resolve in-tree (path or workspace).
pub const RULE_DEP_HERMETIC: &str = "dep-hermetic";
/// Rule H: in-tree dependencies must respect the layering DAG.
pub const RULE_LAYERING: &str = "layering";
/// Rule H: every library crate must carry `#![forbid(unsafe_code)]`.
pub const RULE_UNSAFE_FORBID: &str = "unsafe-forbid";
/// Hygiene of the hygiene tool: allow comments must carry a reason.
pub const RULE_ALLOW_REASON: &str = "allow-reason";
/// Allowlist-file entries that matched nothing are stale and must go.
pub const RULE_ALLOWLIST_UNUSED: &str = "allowlist-unused";
/// Rule G: a potential panic (unwrap/expect/panic macro/computed
/// indexing) reachable from a non-test `pub` item of a library crate.
pub const RULE_PANIC_REACH: &str = "panic-reach";
/// Rule G: RNG constructions in sim crates must flow from a named seed
/// (the `util::seed` chain or a parameter), never a literal or the clock.
pub const RULE_RNG_PROVENANCE: &str = "rng-provenance";
/// Rule G: every declared `TraceEvent` variant must have an emit site and
/// an oracle/test reference.
pub const RULE_TRACE_COVERAGE: &str = "trace-coverage";
/// Rule G: pub items of internal crates with zero cross-crate references.
pub const RULE_DEAD_PUB: &str = "dead-pub";
/// Rule F: heap-allocating constructs reachable from a `// sslint:
/// hot-path` root without passing through a pool acquire.
pub const RULE_HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// Rule F: every `unsafe` construct needs an adjacent `// SAFETY:`
/// comment, a sanctioned allowlist row with a cross-check test, and a
/// dominating feature guard for gated dispatch.
pub const RULE_UNSAFE_CONTRACT: &str = "unsafe-contract";
/// Rule F: floating-point accumulation in sim crates must use a fixed
/// iteration order — no `f64` folds over hash-ordered collections.
pub const RULE_FLOAT_DETERMINISM: &str = "float-determinism";

/// One rule's catalogue entry, for `--list-rules` and the DESIGN.md §7
/// sync test.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule identifier.
    pub id: &'static str,
    /// Rule group: `D` determinism, `P` panic hygiene, `H` hermeticity &
    /// layering, `T` trace conventions, `G` graph semantics, `hygiene`.
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
        desc: "no iteration over hash-ordered collections in simulation crates",
    },
    RuleInfo {
        id: RULE_PANIC,
        group: "P",
        desc: "no unwrap/expect(\"…\")/panic!/todo! in non-test library code",
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
        id: RULE_PANIC_REACH,
        group: "G",
        desc: "no potential panic reachable from a non-test pub item (shortest call path reported)",
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
    RuleInfo {
        id: RULE_HOT_PATH_ALLOC,
        group: "F",
        desc: "no heap allocation reachable from a hot-path root without a pool acquire (call path reported)",
    },
    RuleInfo {
        id: RULE_UNSAFE_CONTRACT,
        group: "F",
        desc: "every unsafe construct carries an adjacent SAFETY: comment, a cross-checked allow row, and its guard",
    },
    RuleInfo {
        id: RULE_FLOAT_DETERMINISM,
        group: "F",
        desc: "sim-crate float accumulation folds in a fixed order, never over hash-ordered collections",
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
    RULE_ALLOW_REASON,
    RULE_ALLOWLIST_UNUSED,
    RULE_PANIC_REACH,
    RULE_RNG_PROVENANCE,
    RULE_TRACE_COVERAGE,
    RULE_DEAD_PUB,
    RULE_HOT_PATH_ALLOC,
    RULE_UNSAFE_CONTRACT,
    RULE_FLOAT_DETERMINISM,
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

/// Runs every rule over the workspace: the single-file token rules, then
/// the graph-semantic rules over a freshly built [`Graph`], then the
/// flow-aware pass-3 rules ([`crate::flow`]). `allow` is the parsed root
/// allowlist — the unsafe-contract rule audits its unsafe-forbid rows.
pub fn run_all(ws: &Workspace, allow: &[crate::AllowEntry]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let declared = declared_trace_variants(ws);
    hermeticity(ws, &mut findings);
    for krate in &ws.crates {
        layering(krate, &mut findings);
        unsafe_forbid(krate, &mut findings);
        for file in &krate.files {
            allow_hygiene(file, &mut findings);
            if is_sim_crate(&krate.dir_name) {
                wall_clock(file, &mut findings);
                let hash_names = collect_hash_names(file);
                hash_iter(file, &hash_names, &mut findings);
                rng_provenance(file, &mut findings);
                float_determinism(file, &hash_names, &mut findings);
            }
            if !file.is_bin {
                panic_hygiene(file, &mut findings);
            }
        }
    }
    let graph = Graph::build(ws);
    panic_reach(ws, &graph, &mut findings);
    trace_coverage(ws, &graph, &declared, &mut findings);
    dead_pub(ws, &graph, &mut findings);
    hot_path_alloc(ws, &graph, &mut findings);
    unsafe_contract(ws, &graph, allow, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

// ---------------------------------------------------------------------------
// Rule D — determinism
// ---------------------------------------------------------------------------

const WALL_CLOCK_TYPES: &[&str] = &["SystemTime", "Instant"];
const FORBIDDEN_STD_MODULES: &[&str] = &["thread", "env"];

fn wall_clock(file: &SrcFile, findings: &mut Vec<Finding>) {
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

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Collects identifiers bound to hash-ordered collections in one file's
/// non-test code: struct fields, let bindings and fn parameters with a
/// `HashMap`/`HashSet` annotation, plus `let x = HashMap::new()` style
/// initializers. Scoped per file — pooling names crate-wide would make a
/// `Vec`-typed field in one file collide with a same-named map in another.
fn collect_hash_names(file: &SrcFile) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let toks = &file.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if file.mask[i] || !HASH_TYPES.contains(&t.text.as_str()) {
            continue;
        }
        // Walk backwards over `std :: collections ::` path prefixes,
        // reference sigils and `mut` to find `name :` or `name =`.
        let mut j = i;
        while lex::back(toks, j, 1).is_some_and(|p| p.is_punct("::"))
            && lex::back(toks, j, 2).is_some_and(|p| p.kind == TokKind::Ident)
        {
            j -= 2;
        }
        while lex::back(toks, j, 1)
            .is_some_and(|p| p.is_punct("&") || p.is_ident("mut") || p.is_ident("dyn"))
        {
            j -= 1;
        }
        if lex::back(toks, j, 1).is_some_and(|p| p.is_punct(":") || p.is_punct("=")) {
            if let Some(name) = lex::back(toks, j, 2).filter(|p| p.kind == TokKind::Ident) {
                names.insert(name.text.clone());
            }
        }
    }
    names
}

fn hash_iter(file: &SrcFile, hash_names: &BTreeSet<String>, findings: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if file.mask[i] {
            continue;
        }
        // `name.iter()`, `self.name.drain()`, …
        if t.kind == TokKind::Ident
            && hash_names.contains(&t.text)
            && toks.get(i + 1).is_some_and(|n| n.is_punct("."))
            && toks
                .get(i + 2)
                .is_some_and(|n| ITER_METHODS.contains(&n.text.as_str()))
            && toks.get(i + 3).is_some_and(|n| n.is_punct("("))
        {
            let Some(method) = toks.get(i + 2).map(|n| &n.text) else {
                continue;
            };
            findings.push(Finding {
                rule: RULE_HASH_ITER,
                file: file.rel.clone(),
                line: t.line,
                msg: format!(
                    "`{}.{method}()` iterates a hash-ordered collection — \
                     replace with BTreeMap/BTreeSet or justify with an \
                     sslint allow comment",
                    t.text
                ),
            });
        }
        // `for x in &self.name { … }` — direct iteration of the map value.
        if t.is_ident("for") {
            let Some(in_pos) = toks[i..]
                .iter()
                .position(|x| x.is_ident("in"))
                .map(|p| p + i)
            else {
                continue;
            };
            let Some(brace_pos) = toks[in_pos..]
                .iter()
                .position(|x| x.is_punct("{"))
                .map(|p| p + in_pos)
            else {
                continue;
            };
            let expr = &toks[in_pos + 1..brace_pos];
            let calls_method = expr.iter().any(|x| x.is_punct("("));
            let last_ident = expr.iter().rev().find(|x| x.kind == TokKind::Ident);
            if let Some(last) = last_ident {
                if !calls_method && hash_names.contains(&last.text) {
                    findings.push(Finding {
                        rule: RULE_HASH_ITER,
                        file: file.rel.clone(),
                        line: last.line,
                        msg: format!(
                            "`for … in {}` iterates a hash-ordered collection \
                             — replace with BTreeMap/BTreeSet or justify with \
                             an sslint allow comment",
                            last.text
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule P — panic hygiene
// ---------------------------------------------------------------------------

const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

fn panic_hygiene(file: &SrcFile, findings: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if file.mask[i] || t.kind != TokKind::Ident {
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
// Rule G — graph semantics
// ---------------------------------------------------------------------------

/// Rule G `panic-reach`: walks the call graph from every public-API entry
/// (non-test `pub fn` or trait-impl method of a library crate) and flags
/// every potential panic in a reachable fn body, with the shortest call
/// path as the message. Sites already carry their own line, so inline
/// allows and the allowlist suppress them exactly like token findings.
fn panic_reach(ws: &Workspace, graph: &Graph, findings: &mut Vec<Finding>) {
    let reach = graph.reach_from_entries();
    for (id, f) in graph.fns.iter().enumerate() {
        if reach[id].is_none() || f.panics.is_empty() {
            continue;
        }
        let Some(file) = ws.crates.get(f.krate).and_then(|k| k.files.get(f.file)) else {
            continue;
        };
        if file.is_bin {
            // Bin-file fns are never entries; a same-name edge from lib
            // code would be a resolution artifact, not a real call.
            continue;
        }
        let path = graph.path_to(&reach, id);
        for site in &f.panics {
            findings.push(Finding {
                rule: RULE_PANIC_REACH,
                file: file.rel.clone(),
                line: site.line,
                msg: format!(
                    "{} reachable from pub API via `{}` — guard the \
                     input, return a Result, or justify with an sslint \
                     allow comment",
                    site.kind.label(),
                    path
                ),
            });
        }
    }
}

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
fn trace_coverage(
    ws: &Workspace,
    graph: &Graph,
    declared: &Option<TraceDecl>,
    findings: &mut Vec<Finding>,
) {
    let Some(decl) = declared else {
        return;
    };
    let mut emitted: BTreeSet<String> = BTreeSet::new();
    let mut checked: BTreeSet<String> = BTreeSet::new();
    let record = |set: &mut BTreeSet<String>, name: &str| {
        if decl.names.contains(name) {
            set.insert(name.to_string());
        }
    };

    for (ki, krate) in ws.crates.iter().enumerate() {
        for (fi, file) in krate.files.iter().enumerate() {
            let toks = &file.lexed.tokens;
            // Token ranges of `impl TraceAudit` blocks in the declaring
            // file: variant uses there are the oracle checking, not
            // emitting.
            let oracle_spans: Vec<(usize, usize)> = if file.rel == decl.file {
                graph.files[ki][fi]
                    .items
                    .iter()
                    .filter(|it| it.kind == ItemKind::Impl && it.name == "TraceAudit")
                    .map(|it| it.span)
                    .collect()
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

/// Item kinds `dead-pub` audits: callable/value items, which must be
/// *named* at every use site. Type items (struct/enum/trait/alias) are
/// skipped — they appear in inferred positions a lexer cannot see
/// (method receivers, return types), and a pub fn returning a demoted
/// type would no longer compile (E0446), so zero name-references is not
/// decisive for them.
fn dead_pub_audits(kind: ItemKind) -> bool {
    matches!(kind, ItemKind::Fn | ItemKind::Const | ItemKind::Static)
}

/// Rule G `dead-pub`: a `pub` item of an *internal* crate (one some other
/// member crate depends on) that no other crate — src, bins, tests,
/// benches or root tests/examples — ever names. Leaf crates keep their
/// pub API (it *is* the product surface); internal crates must shrink
/// theirs to what is used, which is what rustc's per-crate
/// `unreachable_pub` can never see.
fn dead_pub(ws: &Workspace, graph: &Graph, findings: &mut Vec<Finding>) {
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
    let mut idents_by_crate: Vec<BTreeSet<String>> = Vec::with_capacity(ws.crates.len());
    for krate in &ws.crates {
        let mut set = BTreeSet::new();
        for file in &krate.files {
            if !file.is_bin {
                for t in &file.lexed.tokens {
                    if t.kind == TokKind::Ident {
                        set.insert(t.text.clone());
                    }
                }
            }
        }
        idents_by_crate.push(set);
    }
    let mut bin_idents_by_crate: Vec<BTreeSet<String>> = Vec::with_capacity(ws.crates.len());
    for krate in &ws.crates {
        let mut set = BTreeSet::new();
        for file in &krate.files {
            if file.is_bin {
                for t in &file.lexed.tokens {
                    if t.kind == TokKind::Ident {
                        set.insert(t.text.clone());
                    }
                }
            }
        }
        bin_idents_by_crate.push(set);
    }
    let mut ref_idents: BTreeSet<String> = BTreeSet::new();
    for rf in &ws.ref_files {
        for t in &rf.lexed.tokens {
            if t.kind == TokKind::Ident {
                ref_idents.insert(t.text.clone());
            }
        }
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
        for (fi, file) in krate.files.iter().enumerate() {
            if file.is_bin {
                continue;
            }
            for item in &graph.files[ki][fi].items {
                if item.vis != Vis::Pub
                    || item.in_test
                    || item.name.is_empty()
                    || !dead_pub_audits(item.kind)
                    || item.is_trait_impl_fn()
                {
                    continue;
                }
                if !externally_named(&item.name) {
                    findings.push(Finding {
                        rule: RULE_DEAD_PUB,
                        file: file.rel.clone(),
                        line: item.line,
                        msg: format!(
                            "pub item `{}` of internal crate `{}` has no \
                             cross-crate reference — demote to pub(crate) \
                             or remove",
                            item.name, krate.dir_name
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule F — flow-aware (pass 3)
// ---------------------------------------------------------------------------

/// Rule F `hot-path-alloc`: the static twin of `alloc_regression.rs`.
/// Walks the call graph from every `// sslint: hot-path` root (pruned at
/// `// sslint: pool-boundary` acquires) and flags heap-allocating
/// constructs in reachable bodies: `Vec::new`/`vec!`, `Box::new`,
/// `String::new`/`from`, `.to_vec()`/`.to_string()`/`.to_owned()`,
/// `.clone()` and `format!` are flagged outright; `.push(…)` only when
/// dataflow shows the receiver was freshly constructed empty in this fn
/// and never (re)filled from a pool — a warm field or pool-acquired
/// buffer pushes into reserved capacity, which the runtime counter
/// verifies. Sized `with_capacity` pre-allocation is the sanctioned
/// setup idiom and is not flagged.
fn hot_path_alloc(ws: &Workspace, graph: &Graph, findings: &mut Vec<Finding>) {
    let reach = graph.reach_from_hot();
    for (id, f) in graph.fns.iter().enumerate() {
        if reach.get(id).is_none_or(Option::is_none) {
            continue;
        }
        let Some(item) = graph
            .files
            .get(f.krate)
            .and_then(|files| files.get(f.file))
            .and_then(|gf| gf.items.get(f.item))
        else {
            continue;
        };
        let Some((bs, be)) = item.body else {
            continue;
        };
        let Some(file) = ws.crates.get(f.krate).and_then(|k| k.files.get(f.file)) else {
            continue;
        };
        let toks = &file.lexed.tokens;
        let be = be.min(toks.len());
        let path = graph.path_to(&reach, id);
        let mut flag = |line: u32, what: &str| {
            findings.push(Finding {
                rule: RULE_HOT_PATH_ALLOC,
                file: file.rel.clone(),
                line,
                msg: format!(
                    "{what} allocates on the hot path `{path}` — recycle \
                     through a pool, hoist out of the event loop, or justify \
                     with an sslint allow comment"
                ),
            });
        };
        for (i, t) in toks.iter().enumerate().take(be).skip(bs) {
            if file.mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            if t.kind != TokKind::Ident {
                continue;
            }
            let prev_is_dot = lex::back(toks, i, 1).is_some_and(|p| p.is_punct("."));
            let next_is_paren = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
            let next_is_bang = toks.get(i + 1).is_some_and(|n| n.is_punct("!"));
            // `Vec::new()`, `String::new()`, `String::from(…)`, `Box::new(…)`.
            if matches!(t.text.as_str(), "Vec" | "VecDeque" | "String" | "Box")
                && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && toks
                    .get(i + 2)
                    .is_some_and(|n| n.is_ident("new") || n.is_ident("from"))
                && toks.get(i + 3).is_some_and(|n| n.is_punct("("))
            {
                let Some(method) = toks.get(i + 2) else {
                    continue;
                };
                flag(t.line, &format!("`{}::{}(…)`", t.text, method.text));
                continue;
            }
            if (t.text == "vec" || t.text == "format") && next_is_bang {
                flag(t.line, &format!("`{}!`", t.text));
                continue;
            }
            if prev_is_dot && next_is_paren {
                match t.text.as_str() {
                    "to_vec" | "to_string" | "to_owned" | "clone" => {
                        flag(t.line, &format!("`.{}()`", t.text));
                        continue;
                    }
                    "push" | "push_back" | "push_front" => {
                        let Some(h) = flow::chain_head(toks, i) else {
                            continue;
                        };
                        let Some(head) = toks.get(h) else {
                            continue;
                        };
                        let name = &head.text;
                        if name == "self" || head.kind != TokKind::Ident {
                            continue; // field/unknown receiver: warm by contract
                        }
                        let classes = flow::reaching_assignments(toks, bs, i, name);
                        let fresh = classes.contains(&AssignClass::FreshEmpty);
                        let pooled = classes.contains(&AssignClass::Pool);
                        if fresh && !pooled {
                            flag(
                                t.line,
                                &format!("`{name}.{}(…)` into a freshly-emptied buffer", t.text),
                            );
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Rule F `unsafe-contract`: three obligations per `unsafe` construct.
/// (1) Every non-test `unsafe` block/fn/impl needs a `// SAFETY:` comment
/// within the three preceding lines (multi-line SAFETY comments extend
/// the window; `unsafe fn` signatures *inside* an `unsafe impl` inherit
/// the impl-level contract). (2) Every unsafe-containing crate must be
/// sanctioned by an `unsafe-forbid` allowlist row whose reason cites a
/// cross-check test that actually references the unsafe module. (3) An
/// unsafe block dispatching into a feature-gated module (one declaring an
/// `available()` probe) must be dominated by a call to that guard.
fn unsafe_contract(
    ws: &Workspace,
    graph: &Graph,
    allow: &[crate::AllowEntry],
    findings: &mut Vec<Finding>,
) {
    for (ki, krate) in ws.crates.iter().enumerate() {
        // Guard modules of this crate: inline `mod m` or sibling file `m.rs`
        // declaring a fn named `available`.
        let mut guard_mods: BTreeSet<String> = BTreeSet::new();
        for (fi, file) in krate.files.iter().enumerate() {
            let items = &graph.files[ki][fi].items;
            for item in items {
                if item.kind == ItemKind::Fn && item.name == "available" {
                    match item.parent {
                        Some(p) if items[p].kind == ItemKind::Mod => {
                            guard_mods.insert(items[p].name.clone());
                        }
                        None => {
                            if let Some(stem) = file_stem(&file.rel) {
                                guard_mods.insert(stem.to_string());
                            }
                        }
                        _ => {}
                    }
                }
            }
        }

        let mut unsafe_files: Vec<usize> = Vec::new();
        for (fi, file) in krate.files.iter().enumerate() {
            let toks = &file.lexed.tokens;
            let items = &graph.files[ki][fi].items;
            let mut saw_unsafe = false;
            for (i, t) in toks.iter().enumerate() {
                if file.mask[i] || !t.is_ident("unsafe") {
                    continue;
                }
                saw_unsafe = true;
                let next = toks.get(i + 1);
                let in_unsafe_impl = items.iter().any(|it| {
                    it.kind == ItemKind::Impl
                        && it.span.0 <= i
                        && i < it.span.1
                        && lex::back(toks, it.span.0, 1).is_some_and(|p| p.is_ident("unsafe"))
                });
                let is_required_sig =
                    next.is_some_and(|n| n.is_ident("fn")) && in_unsafe_impl && i != 0;
                let covered = file
                    .lexed
                    .safety_comments
                    .iter()
                    .any(|&s| s <= t.line && t.line - s <= 3);
                if !covered && !is_required_sig {
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
                            "{what} without an adjacent `// SAFETY:` comment — \
                             state the invariant that makes it sound"
                        ),
                    });
                }
                // Guard dominance for feature-gated dispatch.
                if next.is_some_and(|n| n.is_punct("{")) {
                    check_guard_dominance(file, items, &guard_mods, i, findings);
                }
            }
            if saw_unsafe {
                unsafe_files.push(fi);
            }
        }
        if unsafe_files.is_empty() {
            continue;
        }

        // (2) The crate-level sanction and its cross-check test.
        let lib_rel = krate
            .files
            .iter()
            .find(|f| f.rel.ends_with("src/lib.rs"))
            .map(|f| f.rel.clone());
        let row = allow
            .iter()
            .find(|e| e.rule == RULE_UNSAFE_FORBID && Some(&e.path) == lib_rel.as_ref());
        if row.is_none() {
            findings.push(Finding {
                rule: RULE_UNSAFE_CONTRACT,
                file: lib_rel.unwrap_or_else(|| krate.manifest_rel.clone()),
                line: 1,
                msg: format!(
                    "crate `{}` contains unsafe code but no `unsafe-forbid` \
                     allowlist row sanctions it — add a reasoned row or \
                     remove the unsafe",
                    krate.dir_name
                ),
            });
        }
        for &fi in &unsafe_files {
            let file = &krate.files[fi];
            let Some(stem) = file_stem(&file.rel) else {
                continue;
            };
            // Cross-check tests: the reference corpus (crate tests/benches
            // or root tests/examples) or in-crate `#[cfg(test)]` code
            // naming the module.
            let mut citing: BTreeSet<String> = BTreeSet::new();
            for rf in &ws.ref_files {
                let owned =
                    rf.owner.as_deref() == Some(krate.dir_name.as_str()) || rf.owner.is_none();
                if owned && references_stem(&rf.lexed.tokens, stem) {
                    if let Some(s) = file_stem(&rf.rel) {
                        citing.insert(s.to_string());
                    }
                }
            }
            let in_crate_test_ref = krate.files.iter().any(|f| {
                f.lexed
                    .tokens
                    .iter()
                    .zip(&f.mask)
                    .any(|(t, &m)| m && t.kind == TokKind::Ident && eq_stem(&t.text, stem))
            });
            if citing.is_empty() && !in_crate_test_ref {
                findings.push(Finding {
                    rule: RULE_UNSAFE_CONTRACT,
                    file: file.rel.clone(),
                    line: 1,
                    msg: format!(
                        "unsafe module `{stem}` has no cross-check test \
                         reference — add a test exercising it against the \
                         safe implementation"
                    ),
                });
            } else if let Some(row) = row {
                if !citing.is_empty() && !citing.iter().any(|c| cites_word(&row.reason, c)) {
                    findings.push(Finding {
                        rule: RULE_UNSAFE_CONTRACT,
                        file: crate::ALLOWLIST_FILE.to_string(),
                        line: row.line,
                        msg: format!(
                            "unsafe-forbid row for `{}` must cite its \
                             cross-check test in the reason (one of: {})",
                            krate.dir_name,
                            citing
                                .iter()
                                .map(String::as_str)
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    });
                }
            }
        }
    }
}

/// Flags an unsafe block that calls into a guard module without a
/// dominating `available()` probe.
fn check_guard_dominance(
    file: &SrcFile,
    items: &[crate::graph::Item],
    guard_mods: &BTreeSet<String>,
    unsafe_idx: usize,
    findings: &mut Vec<Finding>,
) {
    let toks = &file.lexed.tokens;
    let open = unsafe_idx + 1;
    let close = {
        let mut depth = 0usize;
        let mut i = open;
        loop {
            if i >= toks.len() {
                break i;
            }
            if toks[i].is_punct("{") {
                depth += 1;
            } else if toks[i].is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break i + 1;
                }
            }
            i += 1;
        }
    };
    // Gated dispatch inside the block: `m::f(…)` with `m` a guard module.
    let mut gated: Option<&str> = None;
    for i in open..close.min(toks.len()) {
        if toks[i].kind == TokKind::Ident
            && guard_mods.contains(&toks[i].text)
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
        {
            gated = Some(toks[i].text.as_str());
            break;
        }
    }
    let Some(module) = gated else {
        return;
    };
    // Enclosing fn body → statement tree → dominating spans.
    let encl = items
        .iter()
        .filter(|it| it.kind == ItemKind::Fn)
        .filter_map(|it| it.body)
        .find(|&(bs, be)| bs <= unsafe_idx && unsafe_idx < be);
    let guarded = match encl {
        Some((bs, be)) => {
            let stmts = flow::parse_stmts(toks, bs, be.min(toks.len()));
            let mut spans = Vec::new();
            flow::dominating_spans(&stmts, unsafe_idx, &mut spans);
            spans.iter().any(|&(s, e)| {
                toks[s..e.min(toks.len())]
                    .iter()
                    .any(|t| t.is_ident("available"))
            })
        }
        None => false,
    };
    if !guarded {
        findings.push(Finding {
            rule: RULE_UNSAFE_CONTRACT,
            file: file.rel.clone(),
            line: toks[unsafe_idx].line,
            msg: format!(
                "unsafe dispatch into `{module}` is not dominated by its \
                 `{module}::available()` guard — gate the call on the \
                 feature probe"
            ),
        });
    }
}

/// The file stem of a workspace-relative path (`crates/x/src/sha1.rs` →
/// `sha1`).
fn file_stem(rel: &str) -> Option<&str> {
    rel.rsplit('/').next()?.strip_suffix(".rs")
}

/// Whether `reason` names `stem` as a whole word (identifier-boundary
/// match, so `module` does not count as a citation of a `mod.rs`).
fn cites_word(reason: &str, stem: &str) -> bool {
    reason
        .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .any(|w| w == stem)
}

/// Whether a token stream names `stem` (case-insensitively, so the type
/// `Sha1` counts as a reference to module `sha1`).
fn references_stem(toks: &[Tok], stem: &str) -> bool {
    toks.iter()
        .any(|t| t.kind == TokKind::Ident && eq_stem(&t.text, stem))
}

fn eq_stem(ident: &str, stem: &str) -> bool {
    ident.eq_ignore_ascii_case(stem)
}

/// Fold terminals that accumulate floats.
const FOLD_TERMINALS: &[&str] = &["sum", "product", "fold"];

/// Rule F `float-determinism`: in sim crates, a float fold over a
/// hash-ordered collection produces run-to-run different rounding even
/// with identical inputs (f64 addition is not associative). `hash-iter`
/// already bans iterating hash *bindings*; this rule closes the flow
/// gap — folds whose chain head is a *call* to a fn returning
/// `HashMap`/`HashSet` (no binding for `hash-iter` to see) with float
/// evidence: an `::<f64>` turbofish, a float fold seed, an `as f64`
/// cast in the chain, or a float value type on the returning fn.
fn float_determinism(file: &SrcFile, hash_names: &BTreeSet<String>, findings: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    let hash_fns = collect_hash_returning_fns(file);
    for (i, t) in toks.iter().enumerate() {
        if file.mask[i]
            || t.kind != TokKind::Ident
            || !FOLD_TERMINALS.contains(&t.text.as_str())
            || !lex::back(toks, i, 1).is_some_and(|p| p.is_punct("."))
        {
            continue;
        }
        let mut float = false;
        // `::<f64>` turbofish on the terminal.
        if toks.get(i + 1).is_some_and(|n| n.is_punct("::")) {
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct(">") {
                if toks[j].is_ident("f64") || toks[j].is_ident("f32") {
                    float = true;
                }
                j += 1;
            }
        }
        // `fold(0.0, …)` float seed.
        if t.text == "fold" {
            if let Some(seed) = toks
                .iter()
                .skip(i + 1)
                .find(|x| x.kind == TokKind::Literal || x.is_punct(")"))
            {
                if seed.kind == TokKind::Literal && seed.text.contains('.') {
                    float = true;
                }
            }
        }
        let Some(h) = flow::chain_head(toks, i) else {
            continue;
        };
        let head = &toks[h];
        let head_is_call = toks.get(h + 1).is_some_and(|n| n.is_punct("("));
        let hash_ordered = if head_is_call {
            match hash_fns.get(&head.text) {
                Some(&value_has_float) => {
                    float |= value_has_float;
                    true
                }
                None => false,
            }
        } else {
            hash_names.contains(&head.text)
        };
        // `as f64` anywhere between head and terminal.
        if !float {
            float = toks[h..i]
                .windows(2)
                .any(|w| w[0].is_ident("as") && (w[1].is_ident("f64") || w[1].is_ident("f32")));
        }
        if hash_ordered && float {
            findings.push(Finding {
                rule: RULE_FLOAT_DETERMINISM,
                file: file.rel.clone(),
                line: t.line,
                msg: format!(
                    "float `.{}(…)` over the hash-ordered `{}` — f64 \
                     addition is order-sensitive; collect into a BTreeMap \
                     or sort before folding",
                    t.text, head.text
                ),
            });
        }
    }
}

/// Fns in this file whose return type is a hash-ordered collection,
/// mapped to whether the value generics mention a float type.
fn collect_hash_returning_fns(file: &SrcFile) -> BTreeMap<String, bool> {
    let toks = &file.lexed.tokens;
    let mut out = BTreeMap::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("fn") {
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
            continue;
        };
        // Scan the signature (to the body `{` or `;` at depth 0) for a
        // hash return type and float value generics.
        let mut depth = 0i32;
        let mut j = i + 2;
        let mut is_hash = false;
        let mut has_float = false;
        let mut after_arrow = false;
        while j < toks.len() {
            let tj = &toks[j];
            if tj.is_punct("(") || tj.is_punct("[") {
                depth += 1;
            } else if tj.is_punct(")") || tj.is_punct("]") {
                depth -= 1;
            } else if depth == 0 && (tj.is_punct("{") || tj.is_punct(";")) {
                break;
            } else if tj.is_punct("-") && toks.get(j + 1).is_some_and(|n| n.is_punct(">")) {
                after_arrow = true;
            } else if after_arrow && HASH_TYPES.contains(&tj.text.as_str()) {
                is_hash = true;
            } else if after_arrow && is_hash && (tj.is_ident("f64") || tj.is_ident("f32")) {
                has_float = true;
            }
            j += 1;
        }
        if is_hash {
            out.insert(name.text.clone(), has_float);
        }
    }
    out
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
