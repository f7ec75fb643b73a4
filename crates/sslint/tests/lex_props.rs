//! Property tests for the hand-rolled lexer: totality on arbitrary
//! input and structural invariants, seeded deterministically through
//! `util::seed` so failures reproduce exactly on any machine.

use util::seed;

/// The lexer must be total: no input — printable or binary garbage —
/// may panic it, and the test mask always matches the token stream.
#[test]
fn lexer_is_total_on_arbitrary_bytes() {
    util::check::check("sslint_lex_total", 256, |g| {
        let len = g.usize_in(0, 400);
        let bytes = g.bytes(len);
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let tokens = sslint::lex::lex(&src);
        let mask = sslint::lex::test_mask(&tokens);
        assert_eq!(mask.len(), tokens.len());
    });
}

/// Rust-ish token soup: fragments that exercise strings, comments and
/// attributes. Beyond totality, token lines must be
/// nondecreasing and bounded by the source's line count.
#[test]
fn lexer_invariants_on_token_soup() {
    const FRAGMENTS: &[&str] = &[
        "fn f() {",
        "}",
        "let x = v[i + 1];",
        "// plain comment",
        "/* block\ncomment */",
        "\"string with // no comment\"",
        "'a'",
        "b\"bytes\"",
        "r#\"raw \" string\"#",
        "#[cfg(test)]",
        "#[test]",
        "mod tests {",
        "x.unwrap();",
        "TraceEvent::PacketTx { link: 1 }",
        "let s = \"unterminated",
        "0x5A82_7999u32",
        "'lifetime",
    ];
    util::check::check("sslint_lex_soup", 128, |g| {
        // Derive the fragment choices from a util::seed stream so the
        // composed source is a pure function of the harness tape.
        let mut state = seed::derive(g.u64(), "sslint/lex-soup", 0);
        let n = g.usize_in(0, 24);
        let mut src = String::new();
        for _ in 0..n {
            state = seed::splitmix64(state);
            let frag = FRAGMENTS[(state as usize) % FRAGMENTS.len()];
            src.push_str(frag);
            src.push(if state % 3 == 0 { ' ' } else { '\n' });
        }
        let tokens = sslint::lex::lex(&src);
        let mask = sslint::lex::test_mask(&tokens);
        assert_eq!(mask.len(), tokens.len());
        let line_count = src.lines().count() as u32 + 1;
        let mut prev = 1u32;
        for t in &tokens {
            assert!(t.line >= prev, "token lines must be nondecreasing");
            assert!(t.line <= line_count, "token line beyond the source");
            prev = t.line;
        }
    });
}
