//! A small Rust token scanner: just enough lexing to audit source
//! hygiene without a full parser.
//!
//! The scanner understands the token shapes that would otherwise confuse
//! a text search — strings (including raw and byte strings), char
//! literals vs lifetimes, nested block comments — and yields a flat
//! stream of identifiers, punctuation and literal placeholders with line
//! numbers. `// sslint: allow(<rule>) — <reason>` comments are collected
//! on the side so rules can honour inline suppressions.

use std::collections::BTreeMap;

/// What a scanned token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers).
    Ident,
    /// Punctuation; `::` is fused into one token, everything else is a
    /// single character.
    Punct,
    /// String, byte-string, char or numeric literal (text not retained).
    Literal,
    /// A lifetime such as `'a` or `'static`.
    Lifetime,
}

/// One scanned token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// The token text. For [`TokKind::Literal`] this is the raw source
    /// spelling, which lets the panic rule distinguish `.expect("…")`
    /// from a domain method like `.expect(b'x')`.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

impl Tok {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// A lexed source file: code tokens plus inline-allow annotations.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The code tokens in source order (comments and whitespace removed).
    pub tokens: Vec<Tok>,
    /// `line -> rule ids` from `// sslint: allow(rule) — reason` comments.
    /// An allow with no reason text is ignored (and reported by the
    /// driver), which keeps suppressions honest.
    pub allows: BTreeMap<u32, Vec<String>>,
    /// Lines carrying an allow comment with an empty reason.
    pub reasonless_allows: Vec<u32>,
    /// Lines of `// SAFETY: …` comments (the unsafe-contract rule
    /// requires one adjacent to every `unsafe` construct).
    pub safety_comments: Vec<u32>,
}

/// Scans `src` into tokens. The scanner never fails: unexpected bytes
/// become single-character punctuation, which at worst produces a finding
/// a human will look at.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                let comment = &src[start..i];
                scan_allow_comment(comment, line, &mut out);
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                // Nested block comment.
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let start = i;
                i = skip_string(b, i + 1, &mut line);
                out.tokens.push(Tok {
                    kind: TokKind::Literal,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            b'\'' => {
                // Lifetime or char literal.
                let is_lifetime = match (b.get(i + 1), b.get(i + 2)) {
                    (Some(&n), after) if ident_start(n) => {
                        // `'a'` is a char, `'a`/`'ab…` is a lifetime.
                        !(matches!(after, Some(&b'\'')))
                    }
                    _ => false,
                };
                if is_lifetime {
                    let start = i + 1;
                    i += 1;
                    while i < b.len() && ident_continue(b[i]) {
                        i += 1;
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Lifetime,
                        text: src[start..i].to_string(),
                        line,
                    });
                } else {
                    let start = i;
                    i += 1;
                    while i < b.len() && b[i] != b'\'' {
                        if b[i] == b'\\' {
                            i += 1;
                        }
                        if b.get(i) == Some(&b'\n') {
                            line += 1;
                        }
                        i += 1;
                    }
                    i = (i + 1).min(b.len());
                    out.tokens.push(Tok {
                        kind: TokKind::Literal,
                        text: src[start..i.min(src.len())].to_string(),
                        line,
                    });
                }
            }
            b'r' | b'b' | b'c' if raw_or_byte_literal(b, i) => {
                let start = i;
                i = skip_prefixed_literal(b, i, &mut line);
                out.tokens.push(Tok {
                    kind: TokKind::Literal,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            _ if ident_start(c) => {
                let start = i;
                while i < b.len() && ident_continue(b[i]) {
                    i += 1;
                }
                out.tokens.push(Tok {
                    kind: TokKind::Ident,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            _ if c.is_ascii_digit() => {
                // Numeric literal: digits, type suffixes, hex/underscores,
                // and a decimal point only when followed by a digit (so
                // `1..n` and `1.method()` keep their punctuation).
                let start = i;
                while i < b.len()
                    && (ident_continue(b[i])
                        || (b[i] == b'.' && b.get(i + 1).is_some_and(|d| d.is_ascii_digit())))
                {
                    i += 1;
                }
                out.tokens.push(Tok {
                    kind: TokKind::Literal,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            b':' if b.get(i + 1) == Some(&b':') => {
                out.tokens.push(Tok {
                    kind: TokKind::Punct,
                    text: "::".to_string(),
                    line,
                });
                i += 2;
            }
            _ => {
                out.tokens.push(Tok {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Recognizes `r"…"`, `r#"…"#`, raw idents `r#name`, and byte/c-string
/// prefixes starting at `i`. Returns whether a prefixed *literal* starts
/// here (raw idents return false and lex as identifiers).
fn raw_or_byte_literal(b: &[u8], i: usize) -> bool {
    let mut j = i;
    // Longest prefixes first: br, cr, b, c, r.
    if (b[j] == b'b' || b[j] == b'c') && b.get(j + 1) == Some(&b'r') {
        j += 2;
    } else if b[j] == b'b' || b[j] == b'c' || b[j] == b'r' {
        j += 1;
    }
    match b.get(j) {
        Some(&b'"') => true,
        Some(&b'#') => {
            // `r#"…"#` is a raw string; `r#name` is a raw identifier.
            let mut k = j;
            while b.get(k) == Some(&b'#') {
                k += 1;
            }
            b.get(k) == Some(&b'"')
        }
        Some(&b'\'') => b[i] == b'b', // b'x' byte char
        _ => false,
    }
}

/// Skips a possibly-raw, possibly-byte string or byte-char literal whose
/// prefix starts at `i`. Returns the index just past the literal.
fn skip_prefixed_literal(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    let mut raw = false;
    if b[i] == b'b' || b[i] == b'c' {
        i += 1;
    }
    if i < b.len() && b[i] == b'r' {
        raw = true;
        i += 1;
    }
    let mut hashes = 0usize;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i < b.len() && b[i] == b'\'' {
        // b'x' or b'\n'
        i += 1;
        while i < b.len() && b[i] != b'\'' {
            if b[i] == b'\\' {
                i += 1;
            }
            i += 1;
        }
        return (i + 1).min(b.len());
    }
    if i < b.len() && b[i] == b'"' {
        i += 1;
        loop {
            if i >= b.len() {
                return i;
            }
            match b[i] {
                b'\n' => {
                    *line += 1;
                    i += 1;
                }
                b'\\' if !raw => i = (i + 2).min(b.len()),
                b'"' => {
                    i += 1;
                    if !raw || hashes == 0 {
                        return i;
                    }
                    let mut h = 0usize;
                    while h < hashes && b.get(i + h) == Some(&b'#') {
                        h += 1;
                    }
                    if h == hashes {
                        return i + hashes;
                    }
                }
                _ => i += 1,
            }
        }
    }
    i
}

/// Skips a plain `"…"` string whose opening quote is already consumed.
fn skip_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    while i < b.len() {
        match b[i] {
            b'"' => return i + 1,
            // Clamp so a backslash as the final byte can't push the
            // cursor past the buffer (and past valid slice bounds).
            b'\\' => i = (i + 2).min(b.len()),
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

fn ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// Parses the one sslint line-comment directive — `sslint: allow(rule[,
/// rule…]) — reason` — plus plain `SAFETY:` contract comments.
fn scan_allow_comment(comment: &str, line: u32, out: &mut Lexed) {
    let t = comment.trim_start();
    // `// SAFETY: …` contract comments, plus the rustdoc `# Safety`
    // section header conventionally carried by `unsafe fn` docs.
    if t.starts_with("SAFETY:")
        || t.trim_start_matches('/')
            .trim_start()
            .starts_with("# Safety")
    {
        out.safety_comments.push(line);
        return;
    }
    // A line comment directly under a SAFETY line continues the block, so
    // multi-line contracts keep the whole run adjacent to the construct.
    if out.safety_comments.last() == Some(&(line - 1)) && !t.starts_with("sslint:") {
        out.safety_comments.push(line);
        return;
    }
    let Some(rest) = t.strip_prefix("sslint:") else {
        return;
    };
    let Some(rest) = rest.trim_start().strip_prefix("allow") else {
        return;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return;
    };
    let Some(close) = rest.find(')') else {
        return;
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let reason = rest[close + 1..]
        .trim_start_matches([' ', '\t', '—', '-', '–'])
        .trim();
    if rules.is_empty() {
        return;
    }
    if reason.is_empty() {
        out.reasonless_allows.push(line);
        return;
    }
    out.allows.entry(line).or_default().extend(rules);
}

/// Marks which tokens live in test-only code: whatever sits under a
/// `#[cfg(test)]` or `#[test]` attribute (the whole `mod tests { … }`
/// block, an individual test fn, or a `use` pulled in for tests).
///
/// Returns one flag per token in `tokens`. The walk is heuristic — it
/// finds the item's body as the first `{…}` block (or a terminating `;`)
/// after the attribute — which is exactly right for the attribute
/// placements rustfmt produces.
pub fn test_mask(tokens: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let (attr_end, is_test) = scan_attr(tokens, i + 2);
            if is_test {
                // Swallow any further attributes between this one and the
                // item itself (`#[cfg(test)] #[allow(…)] mod t { … }`).
                let mut j = attr_end;
                while j < tokens.len()
                    && tokens[j].is_punct("#")
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct("["))
                {
                    let (e, _) = scan_attr(tokens, j + 2);
                    j = e;
                }
                let item_end = skip_item(tokens, j);
                for m in mask.iter_mut().take(item_end).skip(i) {
                    *m = true;
                }
                i = item_end;
                continue;
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    mask
}

/// The token `n` positions before `i`, if it exists — the guarded
/// backward cursor shared by the rule scans.
pub(crate) fn back(toks: &[Tok], i: usize, n: usize) -> Option<&Tok> {
    i.checked_sub(n).and_then(|k| toks.get(k))
}

/// Skips a balanced bracket pair starting at `open_at` (which must hold
/// `open`). Returns the index just past the matching close, or `end`.
pub(crate) fn skip_balanced(
    toks: &[Tok],
    open_at: usize,
    end: usize,
    open: &str,
    close: &str,
) -> usize {
    let mut depth = 0usize;
    let mut i = open_at;
    while i < end {
        if toks[i].is_punct(open) {
            depth += 1;
        } else if toks[i].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    end
}

/// Scans an attribute's bracketed body starting just past `#[`. Returns
/// `(index past the closing bracket, whether the attribute gates tests)`.
fn scan_attr(tokens: &[Tok], mut i: usize) -> (usize, bool) {
    let mut depth = 1usize;
    let mut has_cfg_or_test = false;
    let mut has_test_word = false;
    let mut has_live_arm = false;
    if let Some(t) = tokens.get(i) {
        if t.is_ident("test") {
            has_cfg_or_test = true;
            has_test_word = true;
        }
        if t.is_ident("cfg") {
            has_cfg_or_test = true;
        }
    }
    while i < tokens.len() && depth > 0 {
        let t = &tokens[i];
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
        } else if t.is_ident("test") {
            has_test_word = true;
        } else if t.is_ident("not") || t.is_ident("any") {
            // `#[cfg(not(test))]` gates *live* code, and so does
            // `#[cfg(any(test, feature = "x"))]` whenever its other arm
            // holds; treating either as a test region would hide real
            // findings.
            has_live_arm = true;
        }
        i += 1;
    }
    (i, has_cfg_or_test && has_test_word && !has_live_arm)
}

/// Skips one item starting at `i`: everything up to and including the
/// first balanced `{…}` block, or the first `;` seen before any block.
fn skip_item(tokens: &[Tok], mut i: usize) -> usize {
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct(";") {
            return i + 1;
        }
        if t.is_punct("{") {
            let mut depth = 1usize;
            i += 1;
            while i < tokens.len() && depth > 0 {
                if tokens[i].is_punct("{") {
                    depth += 1;
                } else if tokens[i].is_punct("}") {
                    depth -= 1;
                }
                i += 1;
            }
            return i;
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn strings_chars_and_lifetimes_do_not_leak_tokens() {
        let src = r##"fn f<'a>(x: &'a str) { let c = 'x'; let s = "ident inside"; let r = r#"raw "quote" body"#; let b = b"bytes"; }"##;
        let ids = idents(src);
        assert!(ids.contains(&"f".to_string()));
        assert!(!ids.contains(&"ident".to_string()), "{ids:?}");
        assert!(!ids.contains(&"quote".to_string()));
        let lt: Vec<_> = lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lt.len(), 2, "declared + used lifetime");
    }

    #[test]
    fn comments_are_stripped_and_nested_blocks_end() {
        let src = "a /* x /* y */ z */ b // trailing ident\nc";
        assert_eq!(idents(src), ["a", "b", "c"]);
    }

    #[test]
    fn allow_comments_need_a_reason() {
        let src =
            "x(); // sslint: allow(panic) — exit paths may panic\ny(); // sslint: allow(panic)\n";
        let l = lex(src);
        assert_eq!(
            l.allows.get(&1).map(|v| v.as_slice()),
            Some(&["panic".to_string()][..])
        );
        assert!(l.allows.get(&2).is_none());
        assert_eq!(l.reasonless_allows, vec![2]);
    }

    #[test]
    fn double_colon_is_one_token() {
        let toks = lex("std::thread");
        assert!(toks.tokens[1].is_punct("::"));
    }

    #[test]
    fn test_mask_covers_cfg_test_mod() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\nfn live2() {}";
        let l = lex(src);
        let mask = test_mask(&l.tokens);
        let unwraps: Vec<bool> = l
            .tokens
            .iter()
            .zip(&mask)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, m)| *m)
            .collect();
        assert_eq!(unwraps, [false, true]);
        let live2 = l
            .tokens
            .iter()
            .zip(&mask)
            .find(|(t, _)| t.is_ident("live2"))
            .map(|(_, m)| *m);
        assert_eq!(live2, Some(false));
    }

    #[test]
    fn test_mask_skips_cfg_any_but_covers_cfg_all() {
        // `any(test, …)` compiles into non-test builds when its other arm
        // holds, so its body stays visible to every rule (regression: it
        // used to be masked); `all(test, …)` is test-only and stays masked.
        let src = "#[cfg(any(test, feature = \"x\"))]\nmod m { fn f() { a.unwrap(); } }\n\
                   #[cfg(all(test, feature = \"x\"))]\nmod t { fn g() { b.unwrap(); } }";
        let l = lex(src);
        let mask = test_mask(&l.tokens);
        let unwraps: Vec<bool> = l
            .tokens
            .iter()
            .zip(&mask)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, m)| *m)
            .collect();
        assert_eq!(unwraps, [false, true]);
    }

    #[test]
    fn safety_comments_are_collected() {
        let src = "// SAFETY: ptr is in bounds\n\
                   unsafe { x() }\n";
        let l = lex(src);
        assert_eq!(l.safety_comments, vec![1]);
        assert!(l.allows.is_empty());
    }

    #[test]
    fn numeric_ranges_keep_their_dots() {
        let toks = lex("for i in 0..n {}");
        let dots = toks.tokens.iter().filter(|t| t.is_punct(".")).count();
        assert_eq!(dots, 2);
    }
}
