//! `sslint` — the SoftStage workspace's in-tree determinism & hygiene
//! auditor.
//!
//! The workspace's headline guarantee is reproducibility: same (topology,
//! params, seed) ⇒ byte-identical stats digests and flight-recorder
//! traces. That contract is easy to break silently — one `HashMap`
//! iteration, one `Instant::now()`, one registry dependency — so this
//! crate machine-checks it. A small hand-rolled Rust lexer ([`lex`]) and a
//! manifest reader ([`manifest`]) feed one stateless pass of token rules
//! per file plus the manifest rules. There is no parser: even the rules
//! that ask what a file declares (`dead-pub`, `unsafe-contract`,
//! `trace-coverage`) match token patterns. Every member crate is audited:
//!
//! | group | rules |
//! |-------|-------|
//! | D — determinism | `wall-clock`, `hash-iter` |
//! | P — panic hygiene | `panic` |
//! | H — hermeticity, layering & unsafe | `dep-hermetic`, `layering`, `unsafe-forbid`, `unsafe-contract` |
//! | G — seed provenance & coverage | `rng-provenance`, `trace-coverage`, `dead-pub` |
//! | hygiene | `allow-reason`, `allowlist-unused` |
//!
//! Violations can be justified two ways: inline with
//! `// sslint: allow(<rule>) — <reason>` (covers its own line plus the
//! statement that starts after it, however many lines that spans), or
//! centrally in the checked-in `sslint.allow` file
//! (`<rule> <path> <reason>` per line). Reasonless inline allows and
//! stale allowlist entries are themselves findings (`allow-reason`,
//! `allowlist-unused`) so the escape hatches cannot rot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lex;
pub mod manifest;
pub mod rules;
pub mod workspace;

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use util::json::{Json, ToJson};

pub use rules::Finding;

/// Default name of the checked-in allowlist file at the workspace root.
pub const ALLOWLIST_FILE: &str = "sslint.allow";

/// One entry of the root allowlist file.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule id the entry suppresses.
    pub rule: String,
    /// Workspace-relative path the entry applies to.
    pub path: String,
    /// Why the exception is sound.
    pub reason: String,
    /// 1-based line in the allowlist file.
    pub line: u32,
}

/// Parses the allowlist text: one `<rule> <path> <reason…>` entry per
/// line; blank lines and `#` comments are skipped. Lines that don't fit
/// the shape are reported as malformed rather than silently dropped.
pub fn parse_allowlist(text: &str) -> (Vec<AllowEntry>, Vec<u32>) {
    let mut entries = Vec::new();
    let mut malformed = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        match (parts.next(), parts.next(), parts.next()) {
            (Some(rule), Some(path), Some(reason))
                if rules::ALL_RULES.contains(&rule) && !reason.trim().is_empty() =>
            {
                entries.push(AllowEntry {
                    rule: rule.to_string(),
                    path: path.to_string(),
                    reason: reason.trim().to_string(),
                    line: (idx + 1) as u32,
                });
            }
            _ => malformed.push((idx + 1) as u32),
        }
    }
    (entries, malformed)
}

/// The outcome of a lint run: surviving findings plus summary counters.
pub struct Report {
    /// Findings that were not suppressed, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// How many findings inline allow comments suppressed.
    pub suppressed_inline: usize,
    /// How many findings the allowlist file suppressed.
    pub suppressed_allowlist: usize,
    /// How many source files were audited.
    pub files_audited: usize,
}

impl ToJson for Finding {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("rule".to_string(), Json::Str(self.rule.to_string())),
            ("file".to_string(), Json::Str(self.file.clone())),
            ("line".to_string(), Json::Int(self.line as i64)),
            ("msg".to_string(), Json::Str(self.msg.clone())),
        ])
    }
}

/// Computes the inclusive last line an allow comment on `line` covers:
/// the extent of the first statement or expression that starts after it.
/// The scan walks tokens after `line` tracking bracket depth and stops at
/// the first top-level `;` or `,` (statement/arm end), at a top-level `{`
/// (a block header — the body is *not* covered), or when a closing
/// bracket of an enclosing scope appears (tail expression). An allow on
/// the last line of a file covers just that line.
fn allow_extent(toks: &[lex::Tok], line: u32) -> u32 {
    let Some(start) = toks.iter().position(|t| t.line > line) else {
        return line;
    };
    let mut depth = 0i32;
    let mut last_line = line;
    for t in &toks[start..] {
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("{") {
            if depth == 0 {
                return t.line;
            }
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
            if depth < 0 {
                return last_line;
            }
        } else if depth == 0 && (t.is_punct(";") || t.is_punct(",")) {
            return t.line;
        }
        last_line = t.line;
    }
    last_line
}

/// Runs the full audit over the workspace rooted at `root`, applying the
/// allowlist at `allowlist_path` (workspace-relative) if it exists.
pub fn run(root: &Path, allowlist_path: &str) -> io::Result<Report> {
    let allow_text = match std::fs::read_to_string(root.join(allowlist_path)) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let (entries, malformed) = parse_allowlist(&allow_text);

    let ws = workspace::load(root)?;
    let raw = rules::run_all(&ws);

    // Inline allow map: file → (first, last, rules) coverage intervals.
    // An allow comment covers its own line plus the statement that starts
    // after it (however many lines it spans), so a trailing comment, a
    // comment above a one-liner, and a comment above a multi-line
    // expression all work.
    let mut inline: BTreeMap<&str, Vec<(u32, u32, &[String])>> = BTreeMap::new();
    let mut files_audited = 0usize;
    for krate in &ws.crates {
        for file in &krate.files {
            files_audited += 1;
            for (line, allowed) in &file.lexed.allows {
                let end = allow_extent(&file.lexed.tokens, *line);
                inline
                    .entry(file.rel.as_str())
                    .or_default()
                    .push((*line, end, allowed));
            }
        }
    }

    let mut entry_used = vec![false; entries.len()];

    let mut findings = Vec::new();
    let mut suppressed_inline = 0usize;
    let mut suppressed_allowlist = 0usize;
    'next: for f in raw {
        if let Some(spans) = inline.get(f.file.as_str()) {
            for (first, last, allowed) in spans {
                if *first <= f.line && f.line <= *last && allowed.iter().any(|r| r == f.rule) {
                    suppressed_inline += 1;
                    continue 'next;
                }
            }
        }
        for (i, e) in entries.iter().enumerate() {
            if e.rule == f.rule && e.path == f.file {
                entry_used[i] = true;
                suppressed_allowlist += 1;
                continue 'next;
            }
        }
        findings.push(f);
    }

    for line in malformed {
        findings.push(Finding {
            rule: rules::RULE_ALLOWLIST_UNUSED,
            file: allowlist_path.to_string(),
            line,
            msg: "malformed allowlist entry — expected `<rule> <path> <reason…>` \
                  with a known rule id"
                .to_string(),
        });
    }
    for (i, e) in entries.iter().enumerate() {
        if !entry_used[i] {
            findings.push(Finding {
                rule: rules::RULE_ALLOWLIST_UNUSED,
                file: allowlist_path.to_string(),
                line: e.line,
                msg: format!(
                    "allowlist entry `{} {}` matched no finding — remove the \
                     stale exception",
                    e.rule, e.path
                ),
            });
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    Ok(Report {
        findings,
        suppressed_inline,
        suppressed_allowlist,
        files_audited,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_parsing() {
        let (entries, malformed) = parse_allowlist(
            "# comment\n\
             panic crates/util/src/check.rs the harness must abort on contract violation\n\
             \n\
             not-a-rule crates/x.rs whatever\n\
             panic onlytwo\n",
        );
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].rule, "panic");
        assert_eq!(entries[0].path, "crates/util/src/check.rs");
        assert_eq!(entries[0].line, 2);
        assert_eq!(malformed, vec![4, 5]);
    }

    #[test]
    fn allow_on_last_line_of_file_covers_itself() {
        // Nothing follows the allow comment: the extent must still cover
        // the comment's own line (regression: the scan used to look for a
        // next token and cover nothing).
        let src = "fn f() {}\n// sslint: allow(panic) — trailing note";
        let lexed = lex::lex(src);
        let (&line, _) = lexed.allows.iter().next().expect("allow parsed");
        assert_eq!(allow_extent(&lexed.tokens, line), line);
    }

    #[test]
    fn allow_covers_a_multi_line_expression() {
        // The allow sits above a statement whose expression spans four
        // lines; the extent must reach the statement's final line, not
        // stop at the first (regression: off-by-one on the closing line).
        let src = "fn f() {\n\
                   // sslint: allow(panic) — spanning\n\
                   let x = some_call(\n\
                       1,\n\
                       2,\n\
                   );\n\
                   x\n\
                   }\n";
        let lexed = lex::lex(src);
        let (&line, _) = lexed.allows.iter().next().expect("allow parsed");
        assert_eq!(line, 2);
        assert_eq!(allow_extent(&lexed.tokens, line), 6);
    }

    #[test]
    fn allow_stops_at_the_end_of_one_statement() {
        // The statement after the allow ends on its own line; the next
        // statement must NOT be covered.
        let src = "fn f() {\n\
                   // sslint: allow(panic) — one stmt only\n\
                   a();\n\
                   b();\n\
                   }\n";
        let lexed = lex::lex(src);
        let (&line, _) = lexed.allows.iter().next().expect("allow parsed");
        assert_eq!(allow_extent(&lexed.tokens, line), 3);
    }

    #[test]
    fn allow_above_a_block_header_covers_only_the_header() {
        // A `for`/`if` header opens a block: the allow covers the header
        // line, not the whole body.
        let src = "fn f() {\n\
                   // sslint: allow(panic) — header only\n\
                   for i in 0..3 {\n\
                       body(i);\n\
                   }\n\
                   }\n";
        let lexed = lex::lex(src);
        let (&line, _) = lexed.allows.iter().next().expect("allow parsed");
        assert_eq!(allow_extent(&lexed.tokens, line), 3);
    }

    #[test]
    fn finding_serializes_to_json() {
        let f = Finding {
            rule: rules::RULE_PANIC,
            file: "crates/demo/src/lib.rs".to_string(),
            line: 7,
            msg: "msg".to_string(),
        };
        let j = f.to_json().to_string_compact();
        assert!(j.contains("\"rule\":\"panic\""), "{j}");
        assert!(j.contains("\"line\":7"), "{j}");
    }
}
