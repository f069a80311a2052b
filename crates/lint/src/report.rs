//! `LINT_report.json`: the machine-readable side of the gate.
//!
//! Rendered through the shared [`sr_jsonmerge`] writer so the lint report
//! and the bench baselines (`BENCH_*.json`) stay in one house style —
//! top-level sections on their own lines, two-space key indent. The
//! report is fully deterministic: every table is sorted by `(file, line)`
//! upstream and nothing here reads clocks or hashes, so two runs over the
//! same tree are byte-identical (CI asserts exactly that).
//!
//! Sections:
//!
//! * `schema` — report format tag (`"sr-lint/2"`).
//! * `files_scanned` — how many files the walker covered.
//! * `rules` — the rule identifiers in force.
//! * `findings` — every diagnostic (empty when the gate passes).
//! * `exemptions` — the waiver inventory: every `lint-ok` that actually
//!   suppressed a finding, with its justification.
//! * `atomics` — the atomic-ordering catalogue (receiver, method, ordering
//!   per site).
//! * `lock_graph` — nodes, acquisition edges, and the cycle check.

use crate::rules::WorkspaceAnalysis;

/// Renders the full report. `files` is the count of scanned files.
pub fn render_report(a: &WorkspaceAnalysis, files: usize) -> String {
    let findings: Vec<String> = a
        .findings
        .iter()
        .map(|f| {
            obj(&[
                ("file", js(&f.file)),
                ("line", f.line.to_string()),
                ("rule", js(f.rule)),
                ("message", js(&f.message)),
            ])
        })
        .collect();
    let exemptions: Vec<String> = a
        .exemptions
        .iter()
        .map(|e| {
            obj(&[
                ("file", js(&e.file)),
                ("line", e.line.to_string()),
                ("rule", js(e.rule)),
                ("reason", js(&e.reason)),
            ])
        })
        .collect();
    let atomics: Vec<String> = a
        .atomics
        .iter()
        .map(|s| {
            obj(&[
                ("file", js(&s.file)),
                ("line", s.line.to_string()),
                ("receiver", js(&s.receiver)),
                ("method", js(&s.method)),
                ("ordering", js(&s.ordering)),
                ("exempt", s.exempt.to_string()),
            ])
        })
        .collect();
    let edges: Vec<String> = a
        .locks
        .edges
        .iter()
        .map(|e| {
            obj(&[
                ("from", js(&e.from)),
                ("to", js(&e.to)),
                ("file", js(&e.file)),
                ("line", e.line.to_string()),
                ("exempt", e.exempt.to_string()),
            ])
        })
        .collect();
    let nodes: Vec<String> = a.locks.nodes.iter().map(|n| js(n)).collect();
    let cycle: Vec<String> = a.locks.cycle.iter().map(|n| js(n)).collect();
    let lock_graph = format!(
        "{{\"acyclic\": {}, \"nodes\": {}, \"edges\": {}, \"cycle\": {}}}",
        a.locks.cycle.is_empty(),
        flat_array(&nodes),
        array(&edges, 4),
        flat_array(&cycle),
    );
    let rules: Vec<String> = crate::rules::RULE_NAMES.iter().map(|r| js(r)).collect();
    sr_jsonmerge::render(&[
        ("schema".to_string(), js("sr-lint/2")),
        ("files_scanned".to_string(), files.to_string()),
        ("rules".to_string(), flat_array(&rules)),
        ("findings".to_string(), array(&findings, 2)),
        ("exemptions".to_string(), array(&exemptions, 2)),
        ("atomics".to_string(), array(&atomics, 2)),
        ("lock_graph".to_string(), lock_graph),
    ])
}

/// One-line JSON object from `(key, raw value)` pairs.
fn obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Multi-line array: one element per line, `indent` spaces deep (relative
/// to the report root), matching the house two-space step.
fn array(items: &[String], indent: usize) -> String {
    if items.is_empty() {
        return "[]".to_string();
    }
    let pad = " ".repeat(indent + 2);
    let close = " ".repeat(indent);
    let body: Vec<String> = items.iter().map(|i| format!("{pad}{i}")).collect();
    format!("[\n{}\n{close}]", body.join(",\n"))
}

/// Single-line array for short scalar lists.
fn flat_array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

/// JSON string literal with the escapes the report can actually contain
/// (backslash, quote, control chars from messages).
fn js(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::analyze_sources;

    fn sample() -> WorkspaceAnalysis {
        let src = "\
use std::sync::atomic::{AtomicU64, Ordering};
static N: AtomicU64 = AtomicU64::new(0);
pub fn bump() {
    N.fetch_add(1, Ordering::SeqCst);
}
pub fn peek() -> u64 {
    // lint-ok(atomic-ordering): a telemetry read, no data gated on it
    N.load(Ordering::Relaxed)
}
";
        analyze_sources(&[("crates/core/src/x.rs", src)])
    }

    #[test]
    fn report_round_trips_through_the_shared_splitter() {
        let text = render_report(&sample(), 1);
        let sections = sr_jsonmerge::split_sections(&text).expect("well-formed");
        let keys: Vec<&str> = sections.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "schema",
                "files_scanned",
                "rules",
                "findings",
                "exemptions",
                "atomics",
                "lock_graph"
            ]
        );
    }

    #[test]
    fn report_is_deterministic_and_carries_the_facts() {
        let a = sample();
        let one = render_report(&a, 1);
        let two = render_report(&sample(), 1);
        assert_eq!(one, two);
        assert!(one.contains("\"ordering\": \"SeqCst\""));
        assert!(one.contains("\"receiver\": \"N\""));
        assert!(one.contains("a telemetry read, no data gated on it"));
        assert!(one.contains("\"acyclic\": true"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(js("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(js("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn empty_arrays_render_compact() {
        assert_eq!(array(&[], 2), "[]");
        assert_eq!(flat_array(&[]), "[]");
    }
}
