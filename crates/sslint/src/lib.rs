//! `sslint` — the SoftStage workspace's in-tree determinism & hygiene
//! auditor, for the rules that need the whole workspace.
//!
//! The workspace's headline guarantee is reproducibility: same (topology,
//! params, seed) ⇒ byte-identical stats digests and flight-recorder
//! traces. Rules that read one token — no wall clock, no hash order, no
//! panics or undocumented `unsafe` in library code — are rustc's and
//! clippy's (`[workspace.lints]` in the root `Cargo.toml`, plus
//! `clippy.toml`). What stays here needs more than one file or a manifest:
//! a small hand-rolled Rust lexer ([`lex`]) and a manifest reader
//! ([`manifest`]) feed the manifest rules, one stateless pass of token
//! rules per file, and two identifier counts over the whole workspace.
//! There is no parser. Every member crate is audited:
//!
//! | group | rules |
//! |-------|-------|
//! | H — hermeticity & layering | `dep-hermetic`, `layering`, `lints-inherit` |
//! | G — seed provenance & coverage | `rng-provenance`, `trace-coverage`, `dead-pub` |
//!
//! [`run`] is the one entry point; the crate's test suite calls it on the
//! live workspace and on one fixture per rule. Nothing silences a
//! finding: it is fixed in the code, or the rule is corrected and a
//! fixture added for the false positive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lex;
pub mod manifest;
pub mod rules;
pub mod workspace;

use std::io;
use std::path::Path;

pub use rules::Finding;

/// The outcome of a lint run.
pub struct Report {
    /// Every finding, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// How many source files were audited.
    pub files_audited: usize,
}

/// Runs the full audit over the workspace rooted at `root`.
pub fn run(root: &Path) -> io::Result<Report> {
    let ws = workspace::load(root)?;
    Ok(Report {
        findings: rules::run_all(&ws),
        files_audited: ws.crates.iter().map(|c| c.files.len()).sum(),
    })
}
