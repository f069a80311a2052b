//! The concurrency & determinism rule pack (sr-lint v2), plus the fact
//! extraction behind the machine-readable report.
//!
//! Four rules run on top of the [`crate::syntax`] pass:
//!
//! | rule | policy |
//! |------|--------|
//! | `atomic-ordering` | every `Ordering::*` site is catalogued; `Relaxed` is permitted only in `sr-par::counters` (telemetry that never feeds back into ranks) or under `lint-ok(atomic-ordering)`. A receiver with a `Release`-or-stronger store is publication-gating: its loads must be `Acquire` or stronger, and vice versa. |
//! | `lock-order` | the workspace lock-acquisition graph — an edge `a → b` whenever `b` is acquired while a guard on `a` is held — must stay acyclic; a cycle is a deadlock waiting for the right interleaving. |
//! | `par-determinism` | inside closures passed to unordered `sr-par` entry points, `+=` accumulation into captured variables is flagged: chunk scheduling varies run to run, so unordered combination breaks the bit-identical-solve guarantee (float addition is not associative). Hash types are clippy's `disallowed_types` everywhere, closures included. |
//! | `panic-surface` | `unwrap`/`expect`/`panic!`-family sites in any `sr-serve` function reachable from a live socket (the call graph seeded at `serve` / `handle_connection`) must go — a malformed client frame must surface as a protocol error, never take the server down. |
//!
//! Extraction is per-file (so fixtures can exercise each rule in
//! isolation); the cross-file parts — publication pairing, lock-graph
//! cycles, socket reachability — run in the `*_findings` passes over the
//! accumulated [`FileFacts`]. All heuristics are conservative in the
//! direction of *flagging*: the structured `lint-ok` exemption (which the
//! report inventories) is the pressure valve, not silence.

use crate::lexer::{Scanned, Token};
use crate::rules::{Exempt, Exemption, FileAnalysis, FileCtx, Finding, Sink};
use crate::syntax::{skip_balanced, ItemKind, Syntax};

/// The five `std::sync::atomic::Ordering` variants. These names never
/// collide with `std::cmp::Ordering` (whose variants are `Less` / `Equal`
/// / `Greater`), so a bare token match is unambiguous in this workspace.
pub const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The one module where bare `Relaxed` is policy rather than a finding:
/// monotonic telemetry counters that are read for reporting only.
const RELAXED_CARVE_OUT: &str = "crates/par/src/counters.rs";

/// `sr-par` entry points whose closures run on unordered worker threads,
/// where captured accumulation is a hazard. (`pipeline_while` delivers
/// blocks to its consumer in submission order, so accumulation there is
/// deterministic.)
const PAR_UNORDERED: [&str; 6] = [
    "for_each_part",
    "for_each_block",
    "for_each_mut",
    "map_reduce_blocks",
    "map_chunks",
    "map_tasks",
];

/// Guard-returning acquisition methods (`Mutex` / `RwLock`).
const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Non-blocking probes: catalogued as lock nodes but never *held* (they
/// cannot deadlock) and never edge sources or targets.
const TRY_LOCK_METHODS: [&str; 3] = ["try_lock", "try_read", "try_write"];

/// Call-graph roots for `panic-surface`: `serve` owns the accept loop and
/// the spawned worker closures; `handle_connection` is the per-socket
/// entry. Everything they transitively call handles live client bytes.
const SOCKET_SEEDS: [&str; 2] = ["serve", "handle_connection"];

// ---------------------------------------------------------------------------
// Facts: what extraction records for the report and the global passes.
// ---------------------------------------------------------------------------

/// One catalogued atomic-ordering site.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Receiver identifier (`active` in `self.active.load(..)`); empty
    /// when the backward scan could not recover one.
    pub receiver: String,
    /// Method the ordering is an argument of (`load`, `store`,
    /// `fetch_add`, …); empty when not recovered.
    pub method: String,
    /// The `Ordering` variant name.
    pub ordering: String,
    /// Whether a valid `lint-ok(atomic-ordering)` covers the site.
    pub exempt: bool,
}

/// One lock-acquisition edge: `to` acquired while a guard on `from` is
/// held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Crate-qualified node already held (`serve::state`).
    pub from: String,
    /// Crate-qualified node being acquired.
    pub to: String,
    /// File of the inner acquisition.
    pub file: String,
    /// Line of the inner acquisition.
    pub line: usize,
    /// Whether a valid `lint-ok(lock-order)` covers the acquisition; an
    /// exempt edge stays in the report but leaves the cycle check.
    pub exempt: bool,
}

/// The workspace lock-acquisition graph, as reported.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Every crate-qualified lock node seen, sorted, deduplicated.
    pub nodes: Vec<String>,
    /// Every acquisition edge, deduplicated by `(from, to)` keeping the
    /// first site, sorted.
    pub edges: Vec<LockEdge>,
    /// Nodes that survive Kahn's algorithm on the non-exempt edges —
    /// members of (or downstream of) a cycle. Empty means acyclic.
    pub cycle: Vec<String>,
}

/// A panic-capable call site inside an `sr-serve` function.
#[derive(Debug, Clone)]
pub(crate) struct PanicSite {
    pub(crate) file: String,
    pub(crate) line: usize,
    /// The offending token (`unwrap`, `expect`, `panic`, …).
    pub(crate) token: String,
    /// Name of the enclosing fn.
    pub(crate) in_fn: String,
    pub(crate) exempt: bool,
}

/// One `sr-serve` fn and the names it calls (by token shape `name(`),
/// used to compute socket reachability.
#[derive(Debug, Clone)]
pub(crate) struct ServeFn {
    pub(crate) name: String,
    pub(crate) calls: Vec<String>,
}

/// Everything one file contributes to the global passes and the report.
#[derive(Debug, Default)]
pub struct FileFacts {
    /// Atomic catalogue entries.
    pub atomics: Vec<AtomicSite>,
    /// Crate-qualified lock nodes acquired in this file.
    pub lock_nodes: Vec<String>,
    /// Lock-order edges observed in this file.
    pub lock_edges: Vec<LockEdge>,
    pub(crate) panics: Vec<PanicSite>,
    pub(crate) serve_fns: Vec<ServeFn>,
}

/// A call region of an unordered `sr-par` entry point: the token span of
/// its argument list (which contains the worker closure).
#[derive(Debug, Clone)]
pub(crate) struct ParRegion {
    pub(crate) toks: std::ops::Range<usize>,
}

/// Locates every unordered `sr-par` entry-point call's argument span.
/// Detection is by name: an identifier from the entry-point list directly
/// followed by `(` — the definitions in `sr-par` itself never match
/// because a declaration's name is followed by `<` (generics), not `(`.
pub(crate) fn par_regions(scanned: &Scanned) -> Vec<ParRegion> {
    let toks = &scanned.tokens;
    let mut out = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if !PAR_UNORDERED.contains(&tok.text.as_str())
            || !tok.is_word()
            || toks.get(i + 1).map(|t| t.text.as_str()) != Some("(")
        {
            continue;
        }
        let close = skip_balanced(toks, i + 1, toks.len(), "(", ")");
        out.push(ParRegion { toks: i + 1..close });
    }
    out
}

// ---------------------------------------------------------------------------
// Shared token helpers.
// ---------------------------------------------------------------------------

/// For a token at `i` that is an argument of a call, recovers the call's
/// `(method, receiver)` by walking left: past balanced `(..)` groups to
/// the unbalanced `(` opening the call, then `method` just before it, and
/// the receiver identifier before the `.` (skipping one `[..]` / `(..)`
/// group, so `self.deltas[i].fetch_add(..)` recovers `deltas`).
fn call_context(toks: &[Token], i: usize) -> (String, String) {
    let mut depth = 0usize;
    let mut j = i;
    let open = loop {
        if j == 0 {
            return (String::new(), String::new());
        }
        j -= 1;
        match toks[j].text.as_str() {
            ")" => depth += 1,
            "(" if depth == 0 => break j,
            "(" => depth -= 1,
            ";" | "{" | "}" if depth == 0 => return (String::new(), String::new()),
            _ => {}
        }
    };
    let Some(m) = open.checked_sub(1).map(|k| &toks[k]) else {
        return (String::new(), String::new());
    };
    if !m.is_word() {
        return (String::new(), String::new());
    }
    let method = m.text.clone();
    let mut receiver = String::new();
    if open >= 3 && toks[open - 2].text == "." {
        let mut k = open - 3;
        // Step over an index or call group: `counters[i].` / `slot(i).`.
        let closer = toks[k].text.as_str();
        if closer == "]" || closer == ")" {
            let opener = if closer == "]" { "[" } else { "(" };
            let mut d = 0usize;
            while k > 0 {
                let t = toks[k].text.as_str();
                if t == closer {
                    d += 1;
                } else if t == opener {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                k -= 1;
            }
            k = k.saturating_sub(1);
        }
        if toks[k].is_word() {
            receiver = toks[k].text.clone();
        }
    }
    (method, receiver)
}

/// The crate directory name of a workspace-relative path, or "" outside
/// `crates/`.
fn crate_of(rel_path: &str) -> &str {
    rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
}

// ---------------------------------------------------------------------------
// atomic-ordering: per-file catalogue + Relaxed policy.
// ---------------------------------------------------------------------------

/// Catalogues every `Ordering::*` site and enforces the `Relaxed` policy.
pub(crate) fn atomic_ordering(ctx: &FileCtx<'_>, sink: &mut Sink, facts: &mut FileFacts) {
    if !ctx.in_crate_src() {
        return;
    }
    let toks = &ctx.scanned.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if !tok.is_word() || !ATOMIC_ORDERINGS.contains(&tok.text.as_str()) {
            continue;
        }
        if ctx.in_test(tok.line) {
            continue;
        }
        // Imports (`use ..::Ordering::Relaxed`) are inert; the call sites
        // that pass the ordering are what the catalogue tracks.
        if ctx
            .scanned
            .first_token_on(tok.line)
            .is_some_and(|t| t.text == "use")
        {
            continue;
        }
        let (method, receiver) = call_context(toks, i);
        let status = ctx.exempt_status(tok.line, "atomic-ordering", &mut sink.exemptions);
        facts.atomics.push(AtomicSite {
            file: ctx.rel_path.to_string(),
            line: tok.line,
            receiver,
            method,
            ordering: tok.text.clone(),
            exempt: matches!(status, Exempt::Yes),
        });
        let carve_out = ctx.rel_path == RELAXED_CARVE_OUT;
        match status {
            Exempt::Yes => {}
            Exempt::Malformed => sink.malformed(ctx, tok.line, "atomic-ordering"),
            Exempt::No if tok.text == "Relaxed" && !carve_out => sink.push(
                ctx,
                tok.line,
                "atomic-ordering",
                "`Ordering::Relaxed` outside `sr-par::counters`: relaxed \
                 atomics reorder freely and are reserved for telemetry \
                 counters — use `Acquire`/`Release`, or justify with \
                 `lint-ok(atomic-ordering): <why no ordering is needed>`"
                    .to_string(),
            ),
            Exempt::No => {}
        }
    }
}

/// Cross-file publication-pairing check over the atomic catalogue: a
/// receiver stored with `Release` (or stronger) is a publication gate, so
/// `Relaxed` loads of it tear the gate open — and symmetrically for
/// `Acquire` loads vs `Relaxed` stores. RMW telemetry (`fetch_*`) is
/// deliberately out of scope: counters are not gates.
pub(crate) fn pairing_findings(files: &[FileAnalysis]) -> Vec<Finding> {
    let all: Vec<&AtomicSite> = files.iter().flat_map(|f| &f.facts.atomics).collect();
    let key = |s: &AtomicSite| (crate_of(&s.file).to_string(), s.receiver.clone());
    let strong = |o: &str| matches!(o, "Acquire" | "Release" | "AcqRel" | "SeqCst");
    let mut out = Vec::new();
    for site in &all {
        if site.exempt || site.ordering != "Relaxed" || site.receiver.is_empty() {
            continue;
        }
        let (counterpart, need) = match site.method.as_str() {
            "load" => ("store", "Acquire"),
            "store" => ("load", "Release"),
            _ => continue,
        };
        let gate = all
            .iter()
            .find(|o| o.method == counterpart && strong(&o.ordering) && key(o) == key(site));
        if let Some(gate) = gate {
            out.push(Finding {
                file: site.file.clone(),
                line: site.line,
                rule: "atomic-ordering",
                message: format!(
                    "`{recv}.{m}(.., Relaxed)` but `{recv}` is publication-gating \
                     (`{cm}` with `{go}` at {gf}:{gl}); this side must be \
                     `{need}` or stronger",
                    recv = site.receiver,
                    m = site.method,
                    cm = counterpart,
                    go = gate.ordering,
                    gf = gate.file,
                    gl = gate.line,
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// lock-order: per-fn guard tracking + global cycle check.
// ---------------------------------------------------------------------------

/// Walks every fn body tracking held guards and recording acquisition
/// edges into `facts`.
pub(crate) fn lock_order(
    ctx: &FileCtx<'_>,
    syntax: &Syntax,
    sink: &mut Sink,
    facts: &mut FileFacts,
) {
    if !ctx.in_crate_src() {
        return;
    }
    for f in syntax.fns() {
        if ctx.in_test(*f.lines.start()) {
            continue;
        }
        // Child items get their own walk via `fns()`; skip their spans so
        // guards never leak across item boundaries.
        let skip: Vec<std::ops::Range<usize>> =
            f.children.iter().map(|c| c.sig.start..c.body.end).collect();
        walk_fn_locks(ctx, f.body.clone(), &skip, sink, facts);
    }
}

/// One held guard: the node, the brace depth its block lives at, and the
/// `let`-bound variable name (None for statement temporaries).
struct Held {
    node: String,
    depth: usize,
    var: Option<String>,
}

fn walk_fn_locks(
    ctx: &FileCtx<'_>,
    body: std::ops::Range<usize>,
    skip: &[std::ops::Range<usize>],
    sink: &mut Sink,
    facts: &mut FileFacts,
) {
    let toks = &ctx.scanned.tokens;
    let end = body.end.min(toks.len());
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0usize;
    let mut i = body.start;
    while i < end {
        if let Some(r) = skip.iter().find(|r| r.contains(&i)) {
            i = r.end;
            continue;
        }
        match toks[i].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                held.retain(|h| h.depth <= depth);
            }
            // A statement temporary's guard drops at the `;`.
            ";" => held.retain(|h| h.var.is_some() || h.depth != depth),
            // Explicit `drop(g)` releases a let-bound guard early.
            "drop" if at_is(toks, i + 1, "(") => {
                if let Some(v) = toks.get(i + 2).filter(|t| t.is_word()) {
                    if at_is(toks, i + 3, ")") {
                        held.retain(|h| h.var.as_deref() != Some(v.text.as_str()));
                        i += 4;
                        continue;
                    }
                }
            }
            "." => {
                let Some(m) = toks.get(i + 1).filter(|t| t.is_word()) else {
                    i += 1;
                    continue;
                };
                let name = m.text.as_str();
                let is_try = TRY_LOCK_METHODS.contains(&name);
                if !is_try && !LOCK_METHODS.contains(&name) {
                    i += 1;
                    continue;
                }
                // Zero-argument call only: `.read()` is a lock, while
                // `.read(&mut buf)` is `io::Read` — not ours.
                if !(at_is(toks, i + 2, "(") && at_is(toks, i + 3, ")")) {
                    i += 1;
                    continue;
                }
                // Anchor just inside the call's own parens so the
                // backward scan recovers this `.method()`'s receiver.
                let (_, receiver) = call_context(toks, i + 3);
                let node = format!("{}::{}", crate_of(ctx.rel_path), receiver);
                facts.lock_nodes.push(node.clone());
                let status = ctx.exempt_status(m.line, "lock-order", &mut sink.exemptions);
                if matches!(status, Exempt::Malformed) {
                    sink.malformed(ctx, m.line, "lock-order");
                }
                let exempt = matches!(status, Exempt::Yes);
                if !is_try {
                    for h in &held {
                        if h.node != node {
                            facts.lock_edges.push(LockEdge {
                                from: h.node.clone(),
                                to: node.clone(),
                                file: ctx.rel_path.to_string(),
                                line: m.line,
                                exempt,
                            });
                        } else if !exempt {
                            // Re-acquiring a held lock deadlocks with no
                            // second thread needed; report it directly.
                            sink.push(
                                ctx,
                                m.line,
                                "lock-order",
                                format!(
                                    "`{node}` acquired while a guard on it is \
                                     already held in this fn — self-deadlock \
                                     (non-reentrant lock)"
                                ),
                            );
                        }
                    }
                    held.push(Held {
                        node,
                        depth,
                        var: let_binding(toks, body.start, i),
                    });
                }
                i += 4;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
}

fn at_is(toks: &[Token], i: usize, want: &str) -> bool {
    toks.get(i).map(|t| t.text.as_str()) == Some(want)
}

/// If the statement containing token `i` starts with `let`, the bound
/// variable name (first word after `let`, skipping `mut`).
fn let_binding(toks: &[Token], lo: usize, i: usize) -> Option<String> {
    let mut j = i;
    while j > lo {
        match toks[j - 1].text.as_str() {
            ";" | "{" | "}" => break,
            _ => j -= 1,
        }
    }
    if toks.get(j).map(|t| t.text.as_str()) != Some("let") {
        return None;
    }
    let mut k = j + 1;
    if at_is(toks, k, "mut") {
        k += 1;
    }
    toks.get(k).filter(|t| t.is_word()).map(|t| t.text.clone())
}

/// Builds the reported lock graph from every file's facts and runs the
/// cycle check (Kahn's algorithm over the non-exempt edges).
pub(crate) fn build_lock_graph(files: &[FileAnalysis]) -> LockGraph {
    let mut nodes: Vec<String> = files
        .iter()
        .flat_map(|f| f.facts.lock_nodes.iter().cloned())
        .collect();
    let mut edges: Vec<LockEdge> = Vec::new();
    for e in files.iter().flat_map(|f| &f.facts.lock_edges) {
        nodes.push(e.from.clone());
        nodes.push(e.to.clone());
        if !edges.iter().any(|d| d.from == e.from && d.to == e.to) {
            edges.push(e.clone());
        }
    }
    nodes.sort();
    nodes.dedup();
    edges.sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));

    // Kahn: repeatedly remove nodes with zero in-degree (over live edges);
    // whatever survives sits on or behind a cycle.
    let live: Vec<&LockEdge> = edges.iter().filter(|e| !e.exempt).collect();
    let mut remaining: Vec<&str> = nodes.iter().map(|s| s.as_str()).collect();
    loop {
        let removable: Vec<&str> = remaining
            .iter()
            .filter(|n| {
                !live
                    .iter()
                    .any(|e| e.to == **n && remaining.contains(&e.from.as_str()))
            })
            .copied()
            .collect();
        if removable.is_empty() || remaining.is_empty() {
            break;
        }
        remaining.retain(|n| !removable.contains(n));
    }
    LockGraph {
        cycle: remaining.iter().map(|s| s.to_string()).collect(),
        nodes,
        edges,
    }
}

/// Findings for a cyclic lock graph: one per non-exempt edge inside the
/// cycle set, anchored at the inner acquisition site.
pub(crate) fn cycle_findings(graph: &LockGraph) -> Vec<Finding> {
    if graph.cycle.is_empty() {
        return Vec::new();
    }
    let in_cycle = |n: &str| graph.cycle.iter().any(|c| c == n);
    graph
        .edges
        .iter()
        .filter(|e| !e.exempt && in_cycle(&e.from) && in_cycle(&e.to))
        .map(|e| Finding {
            file: e.file.clone(),
            line: e.line,
            rule: "lock-order",
            message: format!(
                "acquiring `{}` while holding `{}` closes a lock-order cycle \
                 ({}) — a deadlock under the right thread interleaving; \
                 acquire in one global order or narrow the outer guard",
                e.to,
                e.from,
                graph.cycle.join(" → "),
            ),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// par-determinism: hazards inside sr-par closures.
// ---------------------------------------------------------------------------

/// Flags captured accumulation inside unordered `sr-par` call regions.
/// (Hash types are clippy's `disallowed_types`, inside these regions as
/// anywhere else.)
pub(crate) fn par_determinism(ctx: &FileCtx<'_>, regions: &[ParRegion], sink: &mut Sink) {
    if !ctx.in_crate_src() {
        return;
    }
    let toks = &ctx.scanned.tokens;
    for region in regions {
        // Identifiers bound inside the region — by `let` or by a `for`
        // pattern — are chunk-local; only captured (outer) accumulation is
        // unordered across chunks.
        let mut locals: Vec<&str> = Vec::new();
        for k in region.toks.clone() {
            match toks[k].text.as_str() {
                "let" => {
                    let mut v = k + 1;
                    if at_is(toks, v, "mut") {
                        v += 1;
                    }
                    if let Some(t) = toks.get(v).filter(|t| t.is_word()) {
                        locals.push(t.text.as_str());
                    }
                }
                // `for (dk, &xv) in ..` binds every word up to the `in`.
                "for" => {
                    let mut v = k + 1;
                    while v < region.toks.end && !at_is(toks, v, "in") && v < k + 12 {
                        if toks[v].is_word() {
                            locals.push(toks[v].text.as_str());
                        }
                        v += 1;
                    }
                }
                _ => {}
            }
        }
        for k in region.toks.clone() {
            let tok = &toks[k];
            if ctx.in_test(tok.line) {
                continue;
            }
            // `acc += x` where `acc` is captured from the enclosing scope:
            // `+=` lexes as adjacent `+` `=`. Indexed stores (`out[i] += x`)
            // and deref-assignments (`*slot += x`, writing through an
            // exclusive `&mut` the harness handed to this chunk) address
            // disjoint data per chunk and stay deterministic.
            if tok.text == "+"
                && at_is(toks, k + 1, "=")
                && k > 1
                && toks[k - 1].is_word()
                && toks[k - 2].text != "*"
                && !locals.contains(&toks[k - 1].text.as_str())
            {
                let var = toks[k - 1].text.clone();
                sink.report(
                    ctx,
                    tok.line,
                    "par-determinism",
                    format!(
                        "`{var} +=` on a variable captured by an unordered \
                         parallel closure: chunk completion order varies run to \
                         run and float addition is not associative — accumulate \
                         into a chunk-local and combine with `map_reduce_blocks`' \
                         ordered combiner"
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// panic-surface: socket reachability in sr-serve.
// ---------------------------------------------------------------------------

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Records each `sr-serve` fn's outgoing calls and panic-capable sites.
pub(crate) fn panic_surface(
    ctx: &FileCtx<'_>,
    syntax: &Syntax,
    sink: &mut Sink,
    facts: &mut FileFacts,
) {
    if !ctx.rel_path.starts_with("crates/serve/src/") {
        return;
    }
    for f in syntax.fns() {
        if ctx.in_test(*f.lines.start()) || f.name.is_empty() {
            continue;
        }
        let skip: Vec<std::ops::Range<usize>> = f
            .children
            .iter()
            .filter(|c| c.kind != ItemKind::TypeDef)
            .map(|c| c.sig.start..c.body.end)
            .collect();
        let toks = &ctx.scanned.tokens;
        let mut calls = Vec::new();
        let mut i = f.body.start;
        let end = f.body.end.min(toks.len());
        while i < end {
            if let Some(r) = skip.iter().find(|r| r.contains(&i)) {
                i = r.end;
                continue;
            }
            let tok = &toks[i];
            if tok.is_word() && at_is(toks, i + 1, "(") {
                calls.push(tok.text.clone());
            }
            let flagged = match tok.text.as_str() {
                "unwrap" | "expect" => true,
                t if PANIC_MACROS.contains(&t) => at_is(toks, i + 1, "!"),
                _ => false,
            };
            if flagged && !ctx.in_test(tok.line) {
                let status = ctx.exempt_status(tok.line, "panic-surface", &mut sink.exemptions);
                if matches!(status, Exempt::Malformed) {
                    sink.malformed(ctx, tok.line, "panic-surface");
                }
                facts.panics.push(PanicSite {
                    file: ctx.rel_path.to_string(),
                    line: tok.line,
                    token: tok.text.clone(),
                    in_fn: f.name.clone(),
                    exempt: matches!(status, Exempt::Yes),
                });
            }
            i += 1;
        }
        facts.serve_fns.push(ServeFn {
            name: f.name.clone(),
            calls,
        });
    }
}

/// BFS over the name-matched call graph from the socket seeds; every
/// non-exempt panic site in a reachable fn is a finding.
pub(crate) fn reachability_findings(files: &[FileAnalysis]) -> Vec<Finding> {
    let fns: Vec<&ServeFn> = files.iter().flat_map(|f| &f.facts.serve_fns).collect();
    if fns.is_empty() {
        return Vec::new();
    }
    let defined = |n: &str| fns.iter().any(|f| f.name == n);
    let mut reachable: Vec<&str> = SOCKET_SEEDS
        .iter()
        .copied()
        .filter(|s| defined(s))
        .collect();
    let mut frontier = reachable.clone();
    while let Some(cur) = frontier.pop() {
        for f in fns.iter().filter(|f| f.name == cur) {
            for callee in &f.calls {
                if defined(callee) && !reachable.contains(&callee.as_str()) {
                    reachable.push(callee);
                    frontier.push(callee);
                }
            }
        }
    }
    files
        .iter()
        .flat_map(|f| &f.facts.panics)
        .filter(|p| !p.exempt && reachable.contains(&p.in_fn.as_str()))
        .map(|p| Finding {
            file: p.file.clone(),
            line: p.line,
            rule: "panic-surface",
            message: format!(
                "`{}` in `{}`, which is reachable from a live socket \
                 (seeded at {}): a malformed client frame must surface as a \
                 protocol error, never a panic — return a typed error or \
                 justify with `lint-ok(panic-surface): <why infallible>`",
                p.token,
                p.in_fn,
                SOCKET_SEEDS.join("/"),
            ),
        })
        .collect()
}

/// Returns exemption records from `files` sorted and deduplicated — one
/// inventory row per exempted `(file, line, rule)`.
pub(crate) fn exemption_inventory(files: &[FileAnalysis]) -> Vec<Exemption> {
    let mut out: Vec<Exemption> = files.iter().flat_map(|f| f.exemptions.clone()).collect();
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
    out
}
