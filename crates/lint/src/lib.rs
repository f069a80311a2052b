#![warn(missing_docs)]

//! # sr-lint — the repo's first-party static-analysis gate
//!
//! A dependency-free lint engine for the concurrency policies clippy
//! cannot express: atomic orderings, the lock-acquisition graph,
//! determinism inside `sr-par` closures, and panics reachable from a live
//! `sr-serve` socket. `sr-lint` lexes each file — skipping comments,
//! string/raw-string and char literals — recovers its item tree, and runs
//! four syntax-aware rules over every workspace source file. See [`rules`]
//! for the rule table and the `lint-ok(<rule>): <reason>` exemption
//! syntax.
//!
//! Run the gate from the workspace root (CI does):
//!
//! ```text
//! cargo run -p sr-lint --release
//! ```
//!
//! Exit status is non-zero when any finding survives, and each finding
//! prints as `file:line: [rule] message`. The token-level policies
//! (`debug_assert!`, truncating casts, `partial_cmp`, wall-clock and hash
//! types, the panic family in the `sr-graph` readers) are clippy's:
//! `clippy.toml`, the reader-module `deny` in `sr-graph` and the cast step
//! of `scripts/ci.sh`, waived with `#[expect(clippy::…, reason = "…")]`
//! (DESIGN.md §13).

pub mod conc;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod syntax;

pub use conc::{AtomicSite, LockEdge, LockGraph};
pub use engine::{analyze_workspace, default_root, lint_workspace, workspace_files};
pub use report::render_report;
pub use rules::{analyze_sources, lint_source, Exemption, Finding, WorkspaceAnalysis, RULE_NAMES};
