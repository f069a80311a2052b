//! Fixture-driven rule tests: every rule has one violating and one
//! exempted fixture under `tests/fixtures/`. The violating fixture must
//! produce findings for exactly its rule; the exempted twin must lint
//! clean. Fixtures are linted under synthetic workspace-relative paths so
//! the path-scoped rules engage.

use sr_lint::{lint_source, Finding};

/// Lints fixture `src` as if it lived at `path`, returning the rule names.
fn run(path: &str, src: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = lint_source(path, src)
        .into_iter()
        .map(|f: Finding| f.rule)
        .collect();
    rules.dedup();
    rules
}

#[test]
fn debug_assert_fixtures() {
    let bad = include_str!("fixtures/debug_assert_violation.rs");
    assert_eq!(run("crates/graph/src/varint.rs", bad), ["debug-assert"]);
    let ok = include_str!("fixtures/debug_assert_exempt.rs");
    assert_eq!(run("crates/graph/src/varint.rs", ok), [""; 0]);
}

#[test]
fn numeric_cast_fixtures() {
    let bad = include_str!("fixtures/numeric_cast_violation.rs");
    let findings = lint_source("crates/graph/src/varint.rs", bad);
    assert_eq!(findings.len(), 2, "both casts flagged: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == "numeric-cast"));
    let ok = include_str!("fixtures/numeric_cast_exempt.rs");
    assert_eq!(run("crates/graph/src/varint.rs", ok), [""; 0]);
}

#[test]
fn float_order_fixtures() {
    let bad = include_str!("fixtures/float_order_violation.rs");
    assert_eq!(run("crates/core/src/rankvec.rs", bad), ["float-order"]);
    let ok = include_str!("fixtures/float_order_exempt.rs");
    assert_eq!(run("crates/core/src/rankvec.rs", ok), [""; 0]);
}

#[test]
fn determinism_fixtures() {
    let bad = include_str!("fixtures/determinism_violation.rs");
    assert_eq!(run("crates/core/src/power.rs", bad), ["determinism"]);
    // The same source is fine inside the telemetry crates.
    assert_eq!(run("crates/obs/src/lib.rs", bad), [""; 0]);
    let ok = include_str!("fixtures/determinism_exempt.rs");
    assert_eq!(run("crates/core/src/power.rs", ok), [""; 0]);
}

#[test]
fn panic_policy_fixtures() {
    let bad = include_str!("fixtures/panic_policy_violation.rs");
    let findings = lint_source("crates/graph/src/io.rs", bad);
    assert!(
        findings.len() >= 3, // unwrap, expect, panic!
        "expected unwrap+expect+panic! findings, got {findings:?}"
    );
    assert!(findings.iter().all(|f| f.rule == "panic-policy"));
    // Identical code outside the reader paths is out of the rule's scope.
    assert_eq!(run("crates/graph/src/csr.rs", bad), [""; 0]);
    let ok = include_str!("fixtures/panic_policy_exempt.rs");
    assert_eq!(run("crates/graph/src/io.rs", ok), [""; 0]);
    // The segment container every binary file goes through is in scope too.
    let bad = include_str!("fixtures/panic_policy_segment_violation.rs");
    let findings = lint_source("crates/graph/src/segment.rs", bad);
    assert_eq!(
        findings.len(),
        3,
        "unwrap+expect+unreachable!: {findings:?}"
    );
    assert!(findings.iter().all(|f| f.rule == "panic-policy"));
    assert_eq!(run("crates/graph/src/shard.rs", bad), [""; 0]);
    assert_eq!(run("crates/graph/src/segment.rs", ok), [""; 0]);
}

#[test]
fn diagnostics_carry_file_line_rule() {
    let bad = include_str!("fixtures/float_order_violation.rs");
    let f = &lint_source("crates/core/src/rankvec.rs", bad)[0];
    assert_eq!(f.file, "crates/core/src/rankvec.rs");
    assert!(f.line > 1, "finding points at the sort, not the doc header");
    let rendered = f.to_string();
    assert!(
        rendered.contains(":{}: ".replace("{}", &f.line.to_string()).as_str()),
        "{rendered}"
    );
}
