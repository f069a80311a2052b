//! Fixture-driven tests for sr-lint's four rules: `atomic-ordering`,
//! `lock-order`, `par-determinism` and `panic-surface`. Every rule has a
//! violating fixture and an exempted/corrected twin under
//! `tests/fixtures/`. Fixtures are linted under synthetic
//! workspace-relative paths so the path-scoped rules engage (their real
//! path, `crates/lint/tests/fixtures/…`, is outside every rule's scope,
//! which is also why the workspace gate stays clean). The other fixtures
//! in that directory belong to the clippy-enforced policies; `scripts/ci.sh`
//! runs them through `clippy-driver`.
//!
//! `analyze_sources` is used instead of `lint_source` wherever the test
//! also inspects the atomic catalogue, the lock graph or the exemption
//! inventory.

use sr_lint::{analyze_sources, lint_source};

#[test]
fn atomic_ordering_fixtures() {
    let bad = include_str!("fixtures/atomic_ordering_violation.rs");
    let a = analyze_sources(&[("crates/core/src/cell.rs", bad)]);
    assert!(a.findings.iter().all(|f| f.rule == "atomic-ordering"));
    // Three Relaxed sites; the pairing diagnostic lands on the same line
    // as the policy finding for `READY.load` and merges with it — one
    // exemption would silence both paths, so one finding per line is
    // exactly right.
    assert_eq!(a.findings.len(), 3, "{:?}", a.findings);
    // The catalogue records every call site, flagged or not (the `use`
    // line is inert and excluded).
    assert_eq!(a.atomics.len(), 4);
    assert!(a
        .atomics
        .iter()
        .any(|s| s.receiver == "READY" && s.method == "store" && s.ordering == "Release"));

    let ok = include_str!("fixtures/atomic_ordering_exempt.rs");
    let a = analyze_sources(&[("crates/core/src/cell.rs", ok)]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    let hits: Vec<_> = a.atomics.iter().filter(|s| s.receiver == "HITS").collect();
    assert!(hits.iter().all(|s| s.exempt), "annotated site catalogued");
    assert!(a
        .exemptions
        .iter()
        .any(|e| e.rule == "atomic-ordering" && e.reason.contains("telemetry counter")));
}

#[test]
fn relaxed_is_permitted_inside_the_counters_carve_out() {
    // The same Relaxed sites that fire in sr-core are policy-clean in
    // sr-par's counters module — which lets the publication-pairing check
    // surface on its own: `READY` is stored with Release, so its Relaxed
    // load is still a finding even inside the carve-out.
    let bad = include_str!("fixtures/atomic_ordering_violation.rs");
    let a = analyze_sources(&[("crates/par/src/counters.rs", bad)]);
    assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    assert!(a.findings[0].message.contains("publication-gating"));
    assert!(a.findings[0].message.contains("READY"));
}

#[test]
fn lock_order_fixtures() {
    let bad = include_str!("fixtures/lock_order_violation.rs");
    let a = analyze_sources(&[("crates/core/src/state.rs", bad)]);
    assert!(a.findings.iter().all(|f| f.rule == "lock-order"));
    // Two cycle edges (a→b in forward, b→a in backward) plus the
    // self-re-acquisition in `twice`.
    assert_eq!(a.findings.len(), 3, "{:?}", a.findings);
    assert!(a
        .findings
        .iter()
        .any(|f| f.message.contains("self-deadlock")));
    assert_eq!(a.locks.cycle, ["core::a", "core::b"]);

    let ok = include_str!("fixtures/lock_order_exempt.rs");
    let a = analyze_sources(&[("crates/core/src/state.rs", ok)]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    assert!(a.locks.cycle.is_empty());
    // The audited inverse edge stays in the report, marked exempt.
    assert!(a
        .locks
        .edges
        .iter()
        .any(|e| e.from == "core::b" && e.to == "core::a" && e.exempt));
    assert!(a
        .exemptions
        .iter()
        .any(|e| e.rule == "lock-order" && e.reason.contains("construction-time")));
}

#[test]
fn par_determinism_fixtures() {
    let bad = include_str!("fixtures/par_determinism_violation.rs");
    let a = analyze_sources(&[("crates/core/src/power.rs", bad)]);
    assert!(a.findings.iter().all(|f| f.rule == "par-determinism"));
    // The captured `total +=`. (Hash types inside par closures are
    // clippy's; `scripts/ci.sh` checks `par_hash_violation.rs`.)
    assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    assert!(a.findings[0].message.contains("`total +=`"));

    let ok = include_str!("fixtures/par_determinism_exempt.rs");
    let a = analyze_sources(&[("crates/core/src/power.rs", ok)]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    assert!(a
        .exemptions
        .iter()
        .any(|e| e.rule == "par-determinism" && e.reason.contains("associative")));
}

#[test]
fn panic_surface_fixtures() {
    let bad = include_str!("fixtures/panic_surface_violation.rs");
    let a = analyze_sources(&[("crates/serve/src/handler.rs", bad)]);
    assert!(a.findings.iter().all(|f| f.rule == "panic-surface"));
    // `read_header`'s unwrap and `decode`'s panic! are socket-reachable;
    // `offline_tool`'s unwrap is not and must NOT be flagged.
    assert_eq!(a.findings.len(), 2, "{:?}", a.findings);
    assert!(a.findings.iter().any(|f| f.message.contains("unwrap")));
    assert!(a.findings.iter().any(|f| f.message.contains("panic")));

    // Outside crates/serve/src/ the rule does not engage at all.
    let elsewhere = analyze_sources(&[("crates/core/src/handler.rs", bad)]);
    assert!(elsewhere.findings.iter().all(|f| f.rule != "panic-surface"));

    let ok = include_str!("fixtures/panic_surface_exempt.rs");
    let a = analyze_sources(&[("crates/serve/src/handler.rs", ok)]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    assert!(a
        .exemptions
        .iter()
        .any(|e| e.rule == "panic-surface" && e.reason.contains("validated")));
}

#[test]
fn panic_surface_reachability_crosses_files() {
    // The accept loop and the panicking helper live in different files;
    // the BFS must still connect them through the shared call graph.
    let entry = "pub fn serve(l: Listener) { loop { route(l.accept()); } }\n";
    let worker = "pub fn route(c: Conn) { c.frame().unwrap(); }\n";
    let a = analyze_sources(&[
        ("crates/serve/src/entry.rs", entry),
        ("crates/serve/src/worker.rs", worker),
    ]);
    assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    assert_eq!(a.findings[0].rule, "panic-surface");
    assert_eq!(a.findings[0].file, "crates/serve/src/worker.rs");
}

#[test]
fn diagnostics_carry_file_line_rule() {
    let bad = include_str!("fixtures/atomic_ordering_violation.rs");
    let f = &lint_source("crates/core/src/cell.rs", bad)[0];
    assert_eq!(f.file, "crates/core/src/cell.rs");
    assert_eq!(f.rule, "atomic-ordering");
    assert!(
        f.line > 1,
        "finding points at the store, not the doc header"
    );
    let rendered = f.to_string();
    assert!(rendered.contains(&format!(":{}: ", f.line)), "{rendered}");
}
