//! Lexer edge-case torture: raw/byte/hashed strings, nested block
//! comments, lifetimes vs char literals — plus a property check that
//! `scan` → `parse` → full rule pass is total (never panics, always
//! terminates) on arbitrary input.

use proptest::prelude::*;
use sr_lint::lexer::scan;
use sr_lint::syntax::parse;
use sr_lint::{analyze_sources, lint_source};

const TORTURE: &str = include_str!("fixtures/lexer_torture.rs");

/// Every policy-violating spelling in the fixture sits inside a literal
/// or comment, so the full rule pass over it must come back empty — under
/// a solver-crate src path, where the `Relaxed` beside each masked
/// spelling would otherwise fire `atomic-ordering`.
#[test]
fn masked_violations_stay_masked() {
    let findings = lint_source("crates/core/src/torture.rs", TORTURE);
    assert!(findings.is_empty(), "{findings:?}");
}

/// Token-level ground truth: string/char/comment contents emit no tokens,
/// lifetimes emit no tokens, and the real identifiers survive.
#[test]
fn literal_and_comment_contents_emit_no_tokens() {
    let scanned = scan(TORTURE);
    let texts: Vec<&str> = scanned.tokens.iter().map(|t| t.text.as_str()).collect();
    for survivor in ["torture", "plain_char", "let", "char"] {
        assert!(texts.contains(&survivor), "{survivor} missing: {texts:?}");
    }
    // From strings/comments only — must be masked.
    for masked in [
        "unwrap",
        "HashMap",
        "Relaxed",
        "partial_cmp",
        "panic",
        "inner",
    ] {
        assert!(!texts.contains(&masked), "{masked} leaked: {texts:?}");
    }
    // The lifetime `'a` and the char literals emit no identifier tokens.
    assert!(!texts.contains(&"a"));
    assert!(!texts.contains(&"q"));
}

/// The recovered syntax tree sees through the noise: exactly one fn.
#[test]
fn parser_recovers_the_fn_through_the_noise() {
    let scanned = scan(TORTURE);
    let syntax = parse(&scanned);
    let fns = syntax.fns();
    assert_eq!(fns.len(), 1);
    assert_eq!(fns[0].name, "torture");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Totality on arbitrary bytes (lossy-decoded): the gate must never be
    /// the thing that crashes, whatever a source file contains.
    #[test]
    fn scan_parse_lint_total_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..200)
    ) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let scanned = scan(&src);
        let syntax = parse(&scanned);
        let _ = syntax.all_items().len();
        let _ = analyze_sources(&[("crates/core/src/fuzz.rs", src.as_str())]);
    }

    /// Totality on token soup dense in lexer-relevant openers: quotes,
    /// hashes, comment markers, `r`/`b` prefixes, braces — the inputs most
    /// likely to strand the lexer mid-literal or the parser mid-block.
    #[test]
    fn scan_parse_lint_total_on_token_soup(
        src in "[rb#'\"/* (){}a-z0-9_.,;:<>=!+-]{0,120}"
    ) {
        let scanned = scan(&src);
        let syntax = parse(&scanned);
        let _ = syntax.all_items().len();
        let _ = lint_source("crates/serve/src/fuzz.rs", &src);
    }
}
