//! The rule pass: four concurrency policies, each with structured
//! exemptions.
//!
//! Every rule reports `file:line:rule` diagnostics and honours a structured
//! exemption comment placed either at the end of the offending line or in
//! the contiguous comment block directly above it:
//!
//! ```text
//! // lint-ok(<rule>): <reason>
//! ```
//!
//! The reason is mandatory — a bare `lint-ok(atomic-ordering)` does not
//! exempt, it produces its own diagnostic. Every exemption that actually
//! fires is recorded in the inventory the `--json` report publishes, so
//! the waiver list is itself reviewable.
//!
//! | rule | policy |
//! |------|--------|
//! | `atomic-ordering` | see [`crate::conc`] — `Relaxed` is telemetry-only; publication-gating atomics must pair `Acquire`/`Release`. |
//! | `lock-order` | see [`crate::conc`] — the workspace lock graph must stay acyclic. |
//! | `par-determinism` | see [`crate::conc`] — no unordered hash iteration or captured accumulation inside `sr-par` closures. |
//! | `panic-surface` | see [`crate::conc`] — no panic-capable calls on `sr-serve` paths reachable from a live socket. |
//!
//! The token-level policies — `debug_assert!`, truncating casts,
//! `partial_cmp`, wall-clock and hash types, and the panic family in the
//! `sr-graph` reader paths — are clippy's (`clippy.toml`, `scripts/ci.sh`;
//! DESIGN.md §13), waived with `#[expect(clippy::…, reason = "…")]`.
//!
//! Single-file entry point: [`lint_source`]. Multi-file (the cross-file
//! rules need the whole set): [`analyze_sources`], which also returns the
//! fact tables behind `LINT_report.json`.

use crate::conc;
use crate::lexer::{scan, Scanned};
use crate::syntax;

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule identifier (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One exemption that actually suppressed (or would suppress) a finding —
/// the reviewable waiver inventory of the JSON report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemption {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the exempted site (not of the comment).
    pub line: usize,
    /// Rule the waiver names.
    pub rule: &'static str,
    /// The justification text after the colon.
    pub reason: String,
}

/// All rule identifiers, in reporting order.
pub const RULE_NAMES: [&str; 4] = [
    "atomic-ordering",
    "lock-order",
    "par-determinism",
    "panic-surface",
];

/// Lints one source file in isolation. `rel_path` is the workspace-relative
/// path with `/` separators — rules use it for scoping, so passing an
/// absolute or rebased path disables path-scoped rules. The cross-file
/// rules still run, over the one-file "workspace".
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    analyze_sources(&[(rel_path, src)]).findings
}

/// Everything the pass extracted from one file: diagnostics, the waivers
/// that fired, and the concurrency facts the global passes consume.
#[derive(Debug)]
pub struct FileAnalysis {
    pub(crate) findings: Vec<Finding>,
    pub(crate) exemptions: Vec<Exemption>,
    pub(crate) facts: conc::FileFacts,
}

/// The full analysis of a file set: sorted findings plus the fact tables
/// `LINT_report.json` publishes.
#[derive(Debug)]
pub struct WorkspaceAnalysis {
    /// Every finding, sorted by `(file, line, rule)`, deduplicated.
    pub findings: Vec<Finding>,
    /// Every exemption that fired, sorted by `(file, line, rule)`.
    pub exemptions: Vec<Exemption>,
    /// The atomic-ordering catalogue, sorted by `(file, line)`.
    pub atomics: Vec<conc::AtomicSite>,
    /// The lock-acquisition graph and its cycle check.
    pub locks: conc::LockGraph,
}

/// Runs the full pass — per-file extraction, then the cross-file
/// publication-pairing, lock-cycle and socket-reachability checks — over
/// `(rel_path, source)` pairs.
pub fn analyze_sources(files: &[(&str, &str)]) -> WorkspaceAnalysis {
    let per: Vec<FileAnalysis> = files.iter().map(|(p, s)| analyze_source(p, s)).collect();
    let locks = conc::build_lock_graph(&per);
    let mut findings: Vec<Finding> = per.iter().flat_map(|f| f.findings.clone()).collect();
    findings.extend(conc::pairing_findings(&per));
    findings.extend(conc::cycle_findings(&locks));
    findings.extend(conc::reachability_findings(&per));
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
    let exemptions = conc::exemption_inventory(&per);
    let mut atomics: Vec<conc::AtomicSite> =
        per.into_iter().flat_map(|f| f.facts.atomics).collect();
    atomics.sort_by(|a, b| (&a.file, a.line, &a.ordering).cmp(&(&b.file, b.line, &b.ordering)));
    WorkspaceAnalysis {
        findings,
        exemptions,
        atomics,
        locks,
    }
}

/// The per-file pass: the local side of the four concurrency rules.
fn analyze_source(rel_path: &str, src: &str) -> FileAnalysis {
    let scanned = scan(src);
    let parsed = syntax::parse(&scanned);
    let test_lines = test_regions(&parsed);
    let ctx = FileCtx {
        rel_path,
        scanned: &scanned,
        test_lines: &test_lines,
    };
    let mut sink = Sink::default();
    let mut facts = conc::FileFacts::default();
    conc::atomic_ordering(&ctx, &mut sink, &mut facts);
    conc::lock_order(&ctx, &parsed, &mut sink, &mut facts);
    conc::par_determinism(&ctx, &conc::par_regions(&scanned), &mut sink);
    conc::panic_surface(&ctx, &parsed, &mut sink, &mut facts);
    FileAnalysis {
        findings: sink.findings,
        exemptions: sink.exemptions,
        facts,
    }
}

/// Outcome of looking up a `lint-ok` waiver for a site.
pub(crate) enum Exempt {
    /// Valid waiver with a reason — suppress and inventory.
    Yes,
    /// Waiver present but reasonless — report the malformed waiver.
    Malformed,
    /// No waiver.
    No,
}

/// Collects findings and fired exemptions during one file's pass.
#[derive(Debug, Default)]
pub(crate) struct Sink {
    pub(crate) findings: Vec<Finding>,
    pub(crate) exemptions: Vec<Exemption>,
}

impl Sink {
    /// Appends a finding unconditionally (the caller already consulted the
    /// waiver).
    pub(crate) fn push(
        &mut self,
        ctx: &FileCtx<'_>,
        line: usize,
        rule: &'static str,
        message: String,
    ) {
        self.findings.push(Finding {
            file: ctx.rel_path.to_string(),
            line,
            rule,
            message,
        });
    }

    /// Appends a finding unless a valid waiver covers it; a reasonless
    /// waiver produces the explanatory finding instead.
    pub(crate) fn report(
        &mut self,
        ctx: &FileCtx<'_>,
        line: usize,
        rule: &'static str,
        message: String,
    ) {
        match ctx.exempt_status(line, rule, &mut self.exemptions) {
            Exempt::Yes => {}
            Exempt::Malformed => self.malformed(ctx, line, rule),
            Exempt::No => self.push(ctx, line, rule, message),
        }
    }

    /// The diagnostic for a reasonless waiver.
    pub(crate) fn malformed(&mut self, ctx: &FileCtx<'_>, line: usize, rule: &'static str) {
        self.push(
            ctx,
            line,
            rule,
            format!(
                "`lint-ok({rule})` exemption is missing its reason — write \
                 `lint-ok({rule}): <why this is safe>`"
            ),
        );
    }
}

/// Per-file context shared by every rule.
pub(crate) struct FileCtx<'a> {
    pub(crate) rel_path: &'a str,
    pub(crate) scanned: &'a Scanned,
    test_lines: &'a [std::ops::RangeInclusive<usize>],
}

impl FileCtx<'_> {
    /// Whether the file is library source under `crates/*/src`.
    pub(crate) fn in_crate_src(&self) -> bool {
        self.rel_path.starts_with("crates/") && self.rel_path.contains("/src/")
    }

    /// Whether `line` falls in a `#[cfg(test)]` / `#[test]` region.
    pub(crate) fn in_test(&self, line: usize) -> bool {
        self.test_lines.iter().any(|r| r.contains(&line))
    }

    /// Looks up a `lint-ok(<rule>): <reason>` waiver covering `line`
    /// (trailing on the line itself, or in the contiguous comment block
    /// directly above). A valid waiver is recorded into `inventory`.
    pub(crate) fn exempt_status(
        &self,
        line: usize,
        rule: &'static str,
        inventory: &mut Vec<Exemption>,
    ) -> Exempt {
        let needle = format!("lint-ok({rule})");
        let Some(comment) = self.annotation(line, &needle) else {
            return Exempt::No;
        };
        let reason = comment
            .split(&needle)
            .nth(1)
            .and_then(|rest| rest.trim_start().strip_prefix(':'))
            .map(|r| r.trim().to_string())
            .unwrap_or_default();
        if reason.len() >= 3 {
            inventory.push(Exemption {
                file: self.rel_path.to_string(),
                line,
                rule,
                reason,
            });
            Exempt::Yes
        } else {
            Exempt::Malformed
        }
    }

    /// Looks for `needle` in the trailing comment of `line` or the comment
    /// block directly above; returns the comment text containing it.
    fn annotation(&self, line: usize, needle: &str) -> Option<String> {
        let lines = &self.scanned.lines;
        let info = lines.get(line - 1)?;
        if info.comment.contains(needle) {
            return Some(info.comment.clone());
        }
        // Walk the contiguous run of comment-only lines directly above.
        let mut l = line - 1; // 1-based line above the finding
        while l >= 1 {
            let li = &lines[l - 1];
            if li.has_code || li.comment.is_empty() {
                break;
            }
            if li.comment.contains(needle) {
                return Some(li.comment.clone());
            }
            l -= 1;
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Test regions: #[cfg(test)] items and #[test] fns, carved out of the pass.
// ---------------------------------------------------------------------------

/// The line ranges of every braced `#[cfg(test)]` item and `#[test]` fn
/// the parser recovered.
fn test_regions(parsed: &syntax::Syntax) -> Vec<std::ops::RangeInclusive<usize>> {
    parsed
        .all_items()
        .into_iter()
        .filter(|item| !item.body.is_empty() && item.attrs.iter().any(|a| is_test_attr(a)))
        .map(|item| item.lines.clone())
        .collect()
}

/// Whether a flattened attribute is `test` or a `cfg(...)` whose arguments
/// mention `test`. `not(test)` guards code that is *absent* under test, so
/// any `not` keeps the item linted (conservative).
fn is_test_attr(attr: &str) -> bool {
    let mut words = attr.split(' ');
    match words.next() {
        Some("test") => words.next().is_none(),
        Some("cfg") => {
            let args: Vec<&str> = words.collect();
            args.contains(&"test") && !args.contains(&"not")
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Relaxed` load outside the `sr-par::counters` carve-out: the
    /// smallest source one rule flags.
    const RELAXED: &str = "fn f(n: &AtomicU64) -> u64 { n.load(Ordering::Relaxed) }\n";

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn exemption_requires_reason() {
        let src = "fn f(n: &AtomicU64) -> u64 {\n    // lint-ok(atomic-ordering)\n    n.load(Ordering::Relaxed)\n}\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("missing its reason"));
        let src_ok = "fn f(n: &AtomicU64) -> u64 {\n    // lint-ok(atomic-ordering): telemetry read\n    n.load(Ordering::Relaxed)\n}\n";
        assert!(lint_source("crates/core/src/x.rs", src_ok).is_empty());
    }

    #[test]
    fn fired_exemptions_are_inventoried() {
        let src = "fn f(n: &AtomicU64) -> u64 {\n    // lint-ok(atomic-ordering): telemetry read\n    n.load(Ordering::Relaxed)\n}\n";
        let a = analyze_sources(&[("crates/core/src/x.rs", src)]);
        assert!(a.findings.is_empty());
        assert_eq!(a.exemptions.len(), 1);
        assert_eq!(a.exemptions[0].rule, "atomic-ordering");
        assert_eq!(a.exemptions[0].line, 3);
        assert_eq!(a.exemptions[0].reason, "telemetry read");
    }

    #[test]
    fn path_scoping() {
        assert_eq!(
            rules_hit("crates/core/src/x.rs", RELAXED),
            vec!["atomic-ordering"]
        );
        // Integration tests, benches and non-crate code are out of scope.
        assert!(rules_hit("crates/core/tests/x.rs", RELAXED).is_empty());
        assert!(rules_hit("src/lib.rs", RELAXED).is_empty());
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = format!("#[cfg(test)]\nmod tests {{\n    {RELAXED}}}\n");
        assert!(lint_source("crates/core/src/x.rs", &src).is_empty());
    }

    #[test]
    fn test_regions_are_the_items_the_parser_recovers() {
        let path = "crates/core/src/x.rs";
        for attr in ["#[test]", "#[cfg(all(test, unix))]"] {
            let src = format!("{attr}\n{RELAXED}");
            assert!(rules_hit(path, &src).is_empty(), "{attr}");
        }
        // `not(test)` code is compiled outside tests: it stays linted.
        let src = format!("#[cfg(not(test))]\nmod m {{\n    {RELAXED}}}\n");
        assert_eq!(rules_hit(path, &src), vec!["atomic-ordering"]);
        // A macro invocation is opaque to the parser, so its body is linted
        // even under `#[cfg(test)]`: the scope errs toward linting more.
        let src =
            "#[cfg(test)]\nthread_local! {\n    static N: u64 = C.load(Ordering::Relaxed);\n}\n";
        assert_eq!(rules_hit(path, src), vec!["atomic-ordering"]);
    }

    #[test]
    fn comments_and_strings_never_trip_rules() {
        let src = "// n.load(Ordering::Relaxed) HashMap unwrap()\nfn f() { let s = \"Ordering::Relaxed\"; }\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn findings_render_as_file_line_rule() {
        let f = lint_source("crates/core/src/x.rs", RELAXED);
        assert_eq!(f.len(), 1);
        let s = f[0].to_string();
        assert!(
            s.starts_with("crates/core/src/x.rs:1: [atomic-ordering]"),
            "{s}"
        );
    }
}
