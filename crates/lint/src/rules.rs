//! The rule pass: nine repo policies, each with structured exemptions.
//!
//! Every rule reports `file:line:rule` diagnostics and honours a structured
//! exemption comment placed either at the end of the offending line or in
//! the contiguous comment block directly above it:
//!
//! ```text
//! // lint-ok(<rule>): <reason>
//! ```
//!
//! The reason is mandatory — a bare `lint-ok(numeric-cast)` does not
//! exempt, it produces its own diagnostic. Every exemption that actually
//! fires is recorded in the inventory the `--json` report publishes, so
//! the waiver list is itself reviewable. The `debug-assert` rule
//! additionally honours the historical `perf-assert: <reason>` form the
//! `awk` gate established (same placement).
//!
//! | rule | policy |
//! |------|--------|
//! | `debug-assert` | `debug_assert!` in library code compiles out in release; every use needs a `perf-assert:` justification or must be a plain `assert!` (the zigzag-truncation bug shipped through an unjustified one). |
//! | `numeric-cast` | no `as` casts into integer types narrower than 64 bits (`u8`/`u16`/`u32`/`i8`/`i16`/`i32`/`NodeId`) in `crates/*/src` — use `try_from` or the checked `sr_graph::ids::{node_id, node_range}` helpers. |
//! | `float-order` | no `partial_cmp` on rank scores outside `reference`/test modules — NaN must order deterministically; use `total_cmp` or `sr_core::order::{cmp_desc_nan_last, cmp_asc_nan_last}` (the `.expect("finite scores")` panic bug class). |
//! | `determinism` | no `Instant`/`SystemTime`/`HashMap`/`HashSet` outside the telemetry crates (`sr-bench`, `sr-obs`) — wall-clock reads and hash-iteration order undermine the bit-identical solve guarantees. Hash tokens inside `sr-par` closures are owned by `par-determinism`, which reports them with sharper scoping. |
//! | `panic-policy` | no `unwrap`/`expect`/`panic!`/`unreachable!` in the `sr-graph` reader paths — the `io` text readers and the segment container every binary file goes through: corrupt input must surface as a typed error, never a crash. |
//! | `atomic-ordering` | see [`crate::conc`] — `Relaxed` is telemetry-only; publication-gating atomics must pair `Acquire`/`Release`. |
//! | `lock-order` | see [`crate::conc`] — the workspace lock graph must stay acyclic. |
//! | `par-determinism` | see [`crate::conc`] — no unordered hash iteration or captured accumulation inside `sr-par` closures. |
//! | `panic-surface` | see [`crate::conc`] — no panic-capable calls on `sr-serve` paths reachable from a live socket. |
//!
//! Single-file entry point: [`lint_source`]. Multi-file (the cross-file
//! rules need the whole set): [`analyze_sources`], which also returns the
//! fact tables behind `LINT_report.json`.

use crate::conc;
use crate::lexer::{scan, Scanned, Token};
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
pub const RULE_NAMES: [&str; 9] = [
    "debug-assert",
    "numeric-cast",
    "float-order",
    "determinism",
    "panic-policy",
    "atomic-ordering",
    "lock-order",
    "par-determinism",
    "panic-surface",
];

/// Integer types an `as` cast may silently truncate into on this codebase
/// (everything narrower than 64 bits, plus the repo's `NodeId = u32` alias).
const NARROW_INT_TYPES: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "NodeId"];

/// Identifiers whose presence in a solve/serialization path breaks the
/// repo's determinism guarantees.
const NONDETERMINISTIC_TYPES: [&str; 4] = ["Instant", "SystemTime", "HashMap", "HashSet"];

/// Crates exempt from the `determinism` rule: they exist to measure
/// wall-clock time (telemetry and benchmarks never feed back into ranks).
const DETERMINISM_EXEMPT_CRATES: [&str; 2] = ["bench", "obs"];

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

/// Runs the full pass — local rules per file, then the cross-file
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

/// The per-file pass: all five token-level rules plus the extraction side
/// of the four concurrency rules.
fn analyze_source(rel_path: &str, src: &str) -> FileAnalysis {
    let scanned = scan(src);
    let parsed = syntax::parse(&scanned);
    let regions = Regions::locate(&scanned.tokens);
    let par = conc::par_regions(&scanned);
    let ctx = FileCtx {
        rel_path,
        scanned: &scanned,
        regions: &regions,
        par_lines: par.iter().map(|r| r.lines.clone()).collect(),
    };
    let mut sink = Sink::default();
    let mut facts = conc::FileFacts::default();
    rule_debug_assert(&ctx, &mut sink);
    rule_numeric_cast(&ctx, &mut sink);
    rule_float_order(&ctx, &mut sink);
    rule_determinism(&ctx, &mut sink);
    rule_panic_policy(&ctx, &mut sink);
    conc::atomic_ordering(&ctx, &mut sink, &mut facts);
    conc::lock_order(&ctx, &parsed, &mut sink, &mut facts);
    conc::par_determinism(&ctx, &par, &mut sink);
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
    regions: &'a Regions,
    par_lines: Vec<std::ops::RangeInclusive<usize>>,
}

impl FileCtx<'_> {
    /// Whether the file is library source under `crates/*/src`.
    pub(crate) fn in_crate_src(&self) -> bool {
        self.rel_path.starts_with("crates/") && self.rel_path.contains("/src/")
    }

    /// The crate directory name (`crates/<name>/...`).
    pub(crate) fn crate_name(&self) -> &str {
        self.rel_path
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("")
    }

    /// Whether `line` falls in a `#[cfg(test)]` / `#[test]` region.
    pub(crate) fn in_test(&self, line: usize) -> bool {
        self.regions.test.iter().any(|r| r.contains(&line))
    }

    /// Whether `line` falls in a `mod reference { ... }` region.
    fn in_reference(&self, line: usize) -> bool {
        self.regions.reference.iter().any(|r| r.contains(&line))
    }

    /// Whether `line` falls inside an `sr-par` entry-point call span.
    fn in_par(&self, line: usize) -> bool {
        self.par_lines.iter().any(|r| r.contains(&line))
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
// Region detection: #[cfg(test)] items, #[test] fns, `mod reference` blocks.
// ---------------------------------------------------------------------------

/// Line ranges carved out of the rule pass.
#[derive(Debug, Default)]
struct Regions {
    test: Vec<std::ops::RangeInclusive<usize>>,
    reference: Vec<std::ops::RangeInclusive<usize>>,
}

impl Regions {
    fn locate(tokens: &[Token]) -> Regions {
        let mut out = Regions::default();
        let mut i = 0;
        while i < tokens.len() {
            if tokens[i].text == "#" && matches_attr(tokens, i + 1) {
                let close = attr_close(tokens, i + 1);
                if let Some(range) = item_braces(tokens, close) {
                    out.test.push(range);
                }
                i = close;
                continue;
            }
            if tokens[i].text == "mod"
                && tokens.get(i + 1).map(|t| t.text.as_str()) == Some("reference")
            {
                if let Some(range) = item_braces(tokens, i + 2) {
                    out.reference.push(range);
                }
            }
            i += 1;
        }
        out
    }
}

/// Whether the attribute starting at `[` index `i` is `#[test]` or a
/// `#[cfg(...)]` whose arguments mention `test`.
fn matches_attr(tokens: &[Token], i: usize) -> bool {
    if tokens.get(i).map(|t| t.text.as_str()) != Some("[") {
        return false;
    }
    let close = attr_close(tokens, i);
    let inner: Vec<&str> = tokens[i + 1..close.min(tokens.len())]
        .iter()
        .map(|t| t.text.as_str())
        .collect();
    match inner.first() {
        Some(&"test") if inner.len() == 1 => true,
        // `not(test)` guards code that is *absent* under test — keep it in
        // scope. (Conservative: any `not` in the cfg keeps the item linted.)
        Some(&"cfg") => inner.contains(&"test") && !inner.contains(&"not"),
        _ => false,
    }
}

/// Index just past the `]` closing the attribute whose `[` is at `i`.
fn attr_close(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    tokens.len()
}

/// Starting at token index `i` (just past an attribute or `mod name`),
/// finds the item's brace block and returns its inclusive line range.
/// Returns `None` for braceless items (`mod tests;`).
fn item_braces(tokens: &[Token], i: usize) -> Option<std::ops::RangeInclusive<usize>> {
    let mut j = i;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            ";" => return None,
            "{" => {
                let mut depth = 0usize;
                let start = tokens[j].line;
                while j < tokens.len() {
                    match tokens[j].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return Some(start..=tokens[j].line);
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return Some(start..=usize::MAX);
            }
            _ => j += 1,
        }
    }
    None
}

// ---------------------------------------------------------------------------
// The token-level rules.
// ---------------------------------------------------------------------------

/// `debug-assert`: data-integrity checks must not compile out in release.
fn rule_debug_assert(ctx: &FileCtx<'_>, sink: &mut Sink) {
    if !ctx.in_crate_src() {
        return;
    }
    for tok in &ctx.scanned.tokens {
        if !tok.text.starts_with("debug_assert") || !tok.is_word() || ctx.in_test(tok.line) {
            continue;
        }
        // `cfg!(debug_assertions)` is a build-profile predicate, not an
        // assertion that compiles out — the rule covers the macro family
        // (`debug_assert`, `debug_assert_eq`, `debug_assert_ne`) only.
        if tok.text == "debug_assertions" {
            continue;
        }
        // The historical `perf-assert:` annotation exempts alongside the
        // structured lint-ok form; it fires into the inventory too.
        if let Some(comment) = ctx.annotation(tok.line, "perf-assert:") {
            let reason = comment
                .split("perf-assert:")
                .nth(1)
                .map(|r| r.trim().to_string())
                .unwrap_or_default();
            sink.exemptions.push(Exemption {
                file: ctx.rel_path.to_string(),
                line: tok.line,
                rule: "debug-assert",
                reason,
            });
            continue;
        }
        sink.report(
            ctx,
            tok.line,
            "debug-assert",
            format!(
                "`{}!` compiles out in release builds; use `assert!` for \
                 integrity checks, or justify with a `perf-assert: <why>` \
                 comment directly above",
                tok.text
            ),
        );
    }
}

/// `numeric-cast`: the zigzag-truncation bug class.
fn rule_numeric_cast(ctx: &FileCtx<'_>, sink: &mut Sink) {
    if !ctx.in_crate_src() {
        return;
    }
    let toks = &ctx.scanned.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.text != "as" || ctx.in_test(tok.line) {
            continue;
        }
        let Some(next) = toks.get(i + 1) else {
            continue;
        };
        if !NARROW_INT_TYPES.contains(&next.text.as_str()) {
            continue;
        }
        // `use x as u32` cannot occur; `as` inside a use-rename is filtered
        // by the narrow-type check above.
        sink.report(
            ctx,
            tok.line,
            "numeric-cast",
            format!(
                "`as {0}` silently truncates out-of-range values (release \
                 builds do not check); use `{0}::try_from(..)` or the checked \
                 `sr_graph::ids::{{node_id, node_range}}` helpers",
                next.text
            ),
        );
    }
}

/// `float-order`: the NaN `partial_cmp(..).expect(..)` panic bug class.
fn rule_float_order(ctx: &FileCtx<'_>, sink: &mut Sink) {
    if !ctx.in_crate_src() {
        return;
    }
    for tok in &ctx.scanned.tokens {
        if tok.text != "partial_cmp" || ctx.in_test(tok.line) || ctx.in_reference(tok.line) {
            continue;
        }
        sink.report(
            ctx,
            tok.line,
            "float-order",
            "`partial_cmp` returns `None` on NaN, turning a pathological \
             score into a panic or an inconsistent order; use `f64::total_cmp` \
             or `sr_core::order::{cmp_desc_nan_last, cmp_asc_nan_last}`"
                .to_string(),
        );
    }
}

/// `determinism`: bit-identical solves must not read clocks or iterate
/// hash tables.
fn rule_determinism(ctx: &FileCtx<'_>, sink: &mut Sink) {
    if !ctx.in_crate_src() || DETERMINISM_EXEMPT_CRATES.contains(&ctx.crate_name()) {
        return;
    }
    for tok in &ctx.scanned.tokens {
        if !NONDETERMINISTIC_TYPES.contains(&tok.text.as_str()) || ctx.in_test(tok.line) {
            continue;
        }
        // Imports are inert; the use sites are what need justification.
        if ctx
            .scanned
            .first_token_on(tok.line)
            .is_some_and(|t| t.text == "use")
        {
            continue;
        }
        // Hash tokens inside an sr-par call span belong to the
        // `par-determinism` rule, which scopes and explains them better.
        let hint = match tok.text.as_str() {
            "HashMap" | "HashSet" => {
                if ctx.in_par(tok.line) {
                    continue;
                }
                "iteration order is randomized per process; use BTreeMap/BTreeSet or justify why the map is never iterated"
            }
            _ => "wall-clock reads belong in sr-obs/sr-bench telemetry, never in solve or serialization paths",
        };
        sink.report(
            ctx,
            tok.line,
            "determinism",
            format!("`{}` in a determinism-critical crate: {hint}", tok.text),
        );
    }
}

/// The reader paths `panic-policy` covers: the text readers and the
/// segment container behind every binary file.
const PANIC_POLICY_PATHS: [&str; 2] = ["crates/graph/src/io.rs", "crates/graph/src/segment.rs"];

/// `panic-policy`: the `sr-graph` readers return typed errors.
fn rule_panic_policy(ctx: &FileCtx<'_>, sink: &mut Sink) {
    if !PANIC_POLICY_PATHS.contains(&ctx.rel_path) {
        return;
    }
    let toks = &ctx.scanned.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if ctx.in_test(tok.line) {
            continue;
        }
        let bang = || toks.get(i + 1).map(|t| t.text.as_str()) == Some("!");
        let flagged = match tok.text.as_str() {
            "unwrap" | "expect" => true,
            "panic" | "unreachable" | "todo" | "unimplemented" => bang(),
            _ => false,
        };
        if !flagged {
            continue;
        }
        sink.report(
            ctx,
            tok.line,
            "panic-policy",
            format!(
                "`{}` in an sr-graph reader path: corrupt or truncated input \
                 must surface as a typed error, never a panic (see the \
                 io_robustness and segment_container suites)",
                tok.text
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn exemption_requires_reason() {
        let src = "fn f(n: usize) {\n    // lint-ok(numeric-cast)\n    let x = n as u32;\n}\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("missing its reason"));
        let src_ok =
            "fn f(n: usize) {\n    // lint-ok(numeric-cast): n bounded by header check\n    let x = n as u32;\n}\n";
        assert!(lint_source("crates/core/src/x.rs", src_ok).is_empty());
    }

    #[test]
    fn fired_exemptions_are_inventoried() {
        let src =
            "fn f(n: usize) {\n    // lint-ok(numeric-cast): n bounded by header check\n    let x = n as u32;\n}\n";
        let a = analyze_sources(&[("crates/core/src/x.rs", src)]);
        assert!(a.findings.is_empty());
        assert_eq!(a.exemptions.len(), 1);
        assert_eq!(a.exemptions[0].rule, "numeric-cast");
        assert_eq!(a.exemptions[0].line, 3);
        assert_eq!(a.exemptions[0].reason, "n bounded by header check");
    }

    #[test]
    fn path_scoping() {
        let cast = "fn f(n: usize) -> u32 { n as u32 }\n";
        assert_eq!(
            rules_hit("crates/core/src/x.rs", cast),
            vec!["numeric-cast"]
        );
        // Integration tests, benches and non-crate code are out of scope.
        assert!(rules_hit("crates/core/tests/x.rs", cast).is_empty());
        assert!(rules_hit("src/lib.rs", cast).is_empty());
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(n: usize) -> u32 { n as u32 }\n}\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn reference_modules_skip_float_order_only() {
        let src = "pub mod reference {\n    pub fn f(a: f64, b: f64) { a.partial_cmp(&b); }\n}\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
        let outside = "pub fn f(a: f64, b: f64) { a.partial_cmp(&b); }\n";
        assert_eq!(
            rules_hit("crates/core/src/x.rs", outside),
            vec!["float-order"]
        );
    }

    #[test]
    fn determinism_exempts_telemetry_crates_and_imports() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        assert_eq!(
            rules_hit("crates/core/src/x.rs", src),
            vec!["determinism"] // the use-line is inert, the call site is not
        );
        assert!(rules_hit("crates/obs/src/x.rs", src).is_empty());
        assert!(rules_hit("crates/bench/src/bin/x.rs", src).is_empty());
    }

    #[test]
    fn panic_policy_only_in_reader_paths() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }\n";
        for path in PANIC_POLICY_PATHS {
            assert_eq!(rules_hit(path, src), vec!["panic-policy"], "{path}");
        }
        assert!(rules_hit("crates/graph/src/csr.rs", src).is_empty());
    }

    #[test]
    fn perf_assert_exempts_debug_assert() {
        let src = "fn f() {\n    // perf-assert: revalidates builder invariant, hot loop\n    debug_assert!(true);\n}\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
        let bare = "fn f() {\n    debug_assert!(true);\n}\n";
        assert_eq!(
            rules_hit("crates/core/src/x.rs", bare),
            vec!["debug-assert"]
        );
    }

    #[test]
    fn cfg_debug_assertions_is_not_a_debug_assert() {
        let src = "fn f() -> bool { cfg!(not(debug_assertions)) }\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
        let attr = "#[cfg(debug_assertions)]\nfn g() {}\n";
        assert!(lint_source("crates/core/src/x.rs", attr).is_empty());
    }

    #[test]
    fn comments_and_strings_never_trip_rules() {
        let src = "// debug_assert!(x) as u32 partial_cmp Instant\nfn f() { let s = \"debug_assert as u32\"; }\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn findings_render_as_file_line_rule() {
        let f = lint_source(
            "crates/core/src/x.rs",
            "fn f(n: usize) -> u32 { n as u32 }\n",
        );
        assert_eq!(f.len(), 1);
        let s = f[0].to_string();
        assert!(
            s.starts_with("crates/core/src/x.rs:1: [numeric-cast]"),
            "{s}"
        );
    }
}
