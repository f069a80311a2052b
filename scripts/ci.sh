#!/usr/bin/env bash
# Repo CI gate. Run from the workspace root:
#
#   ./scripts/ci.sh
#
# Mirrors what reviewers run by hand: formatting, lints as errors, a
# warning-free doc build, a release build (the benches and eval harness
# only make sense in release), and the full test suite in BOTH profiles —
# debug catches overflow/debug-assert issues, release catches
# optimization-dependent ones (and is what the numeric baselines run as).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> sr-lint self-test"
# The static-analysis gate is first-party code; its own tests (lexer,
# per-rule fixtures, and the meta-test that the live workspace is clean)
# must pass before its verdict on the rest of the tree means anything.
cargo test -q -p sr-lint

echo "==> sr-lint (syntax-aware policy gate + LINT_report.json)"
# `sr-lint` (crates/lint) lexes every workspace file (comments and
# string/char literals masked), recovers the item tree, and enforces nine
# policies: the five token rules — debug-assert (perf-assert:
# justification), numeric-cast (no truncating `as` between integer
# types; use sr_graph::ids::{node_id, node_range} or try_from),
# float-order (no partial_cmp on rank scores; use total_cmp or
# sr_core::order), determinism (no wall-clock/HashMap-iteration outside
# sr-obs/sr-bench), panic-policy (no unwrap/expect/panic! in the
# sr-graph reader paths: the io text readers and the segment container
# every binary file goes through) — plus four syntax-aware concurrency
# rules —
# atomic-ordering (Relaxed is reserved for sr-par::counters; publication
# gates must pair Acquire/Release), lock-order (the workspace
# lock-acquisition graph must stay acyclic), par-determinism (no hash
# iteration or captured accumulation inside sr-par closures), and
# panic-surface (no unexempted panic reachable from a live sr-serve
# socket). Exempt a site with a justified `// lint-ok(<rule>): <reason>`
# trailing the line or in the comment block directly above it; see
# DESIGN.md §13 and §18.
#
# `--json` writes LINT_report.json (findings, atomic catalogue, lock
# graph, exemption inventory) — a tracked artifact, so the committed copy
# must match what the tree produces. The gate runs twice: sr-lint's own
# determinism policy applies to itself, so console output and report must
# be byte-identical across runs.
LINT_OUT1="$(mktemp)"; LINT_OUT2="$(mktemp)"; LINT_REP1="$(mktemp)"
cargo run -q -p sr-lint --release -- --json > "$LINT_OUT1"
cp LINT_report.json "$LINT_REP1"
cargo run -q -p sr-lint --release -- --json > "$LINT_OUT2"
cmp "$LINT_OUT1" "$LINT_OUT2"
cmp "$LINT_REP1" LINT_report.json
git diff --exit-code -- LINT_report.json
rm -f "$LINT_OUT1" "$LINT_OUT2" "$LINT_REP1"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo bench --no-run (benches must keep compiling)"
cargo bench --workspace --no-run --quiet

echo "==> delta differential suites (incremental path == full rebuild)"
cargo test -q -p sr-graph --test delta_differential
cargo test -q -p sr-core --test incremental_differential

echo "==> multi-column solve differential suite (K-column == one-column requests, bitwise)"
# Every column of a K-column sr_core::SolveRequest must equal its one-column
# request bit for bit — scores, residual histories, iteration counts — with
# the formulation and dangling policy drawn per batch, on the uniform and
# weighted operators. tests/invariants.rs keeps a seconds-long instance of
# this and the other solver invariants in tier-1.
cargo test -q -p sr-core --test batch_differential

echo "==> in-RAM operator layout (one copy of the edges, lazy panel CSR)"
# The operators pack their SELL rows straight from the forward CSR: the
# fused packing must equal SellRows::build over the materialised transpose
# (layout and partition, weighted and not, 1-4 chunks, plus the unpack
# round trips); racing first K >= 2 panels must build the panel CSR once
# and agree bitwise; and the operators' measured heap must hold one copy
# of the edges through one-column solves and exactly one CSR more after
# K-column ones. top_k's partial select must return the head of the full
# order on ties, NaN and signed zeros.
cargo test -q -p sr-graph --test proptests fused_transpose_packing
cargo test -q -p sr-core --lib operator::tests::racing_first_panels
cargo test -q --test invariants operators_hold_one_copy_of_the_edges
cargo test -q -p sr-core --test proptests top_k_is_the_head

echo "==> out-of-core smoke (tiny shards & pages: on-disk solve == CSR, bitwise)"
# The sharded differential suite forces 1-byte shard targets, so every
# row is its own shard and every span seam of the chunk path
# (chunk_spans / load_chunk / decode_chunk) is exercised at tier-1 cost.
# Its geometry-matrix proptest
# (pipeline_geometry_is_bitwise_invariant) sweeps the decode-ahead
# pipeline's knobs — prefetch depth × span granularity × thread count ×
# hot-span cache budget, including budgets that split the spans between
# hot and re-streamed — and the named 1-vs-8-worker gate pins that which
# worker claims which span, and prefetch scheduling, never move a bit.
# The streamed unit tests pin the plan (the hot budget goes to the most
# row-dense spans, within budget, the same on every build) and the
# claimed sweep (NaN-prefilled y, 1-4 threads, split budget: every row
# written, equal to the in-RAM operator bitwise); the sr-par test pins
# that an open-ended pipeline ends cleanly when a shared cursor runs dry.
# The sr-gen stream tests cover the external sort + k-way merge with a
# 512-edge spill buffer; the pager-boundary suite (below) adds the
# chunk-prefetch error paths (EOF-truncated spans, minimum page size).
# bench_kernels (the sharded_solve bench section) is compile-checked by
# the release build and `cargo bench --no-run` above.
cargo test -q -p sr-core --test sharded_differential
cargo test -q -p sr-core --test sharded_differential pipelined_1_vs_8_workers_bitwise_identical
cargo test -q -p sr-core --lib streamed::tests::hot_budget_goes_to_row_dense_spans
cargo test -q -p sr-core --lib streamed::tests::split_budget_sweeps_write_every_row
cargo test -q -p sr-par --lib pipeline::tests::open_ended_pipeline_stops_when_fill_runs_dry
cargo test -q -p sr-gen stream::

echo "==> approx-PPR differential suite (walk cache vs exact solver oracle)"
# The Monte-Carlo engine's four pinned properties: (eps, delta) additive
# error vs the exact solve, bitwise determinism across thread counts,
# exact agreement in the R=0 push-only limit, and cache rebuild-vs-reload
# identity. The named walk-cache pin holds the cache file to a golden
# FNV-1a hash and to the same bytes at every thread count and source
# batch size, so a rewrite of the walk simulation cannot move a byte.
# The extsort/pager/rng suites cover the storage and randomness layers
# the engine stands on.
cargo test -q -p sr-core --test approx_differential
cargo test -q -p sr-core --test approx_differential cache_and_queries_are_bitwise_deterministic_across_threads
cargo test -q -p sr-graph --test extsort_merge
cargo test -q -p sr-graph --test pager_boundaries
cargo test -q -p sr-eval --test rng_audit

echo "==> segment container suites (both binary schemas: shards and walk cache)"
# Shard files and walk caches are two schemas over one segment container
# (sr-graph's segment module): one envelope, one row walk, one typed
# error. The corruption suite holds both schemas to "typed error or valid
# decode, never a panic" on every proper prefix, every single-bit flip, a
# damaged magic or wrong schema tag, and random bytes, plus the two
# u32::MAX-degree regressions and a chunk row naming source num_nodes
# (the pipelined decode checks ids, not just degrees). The fault suite
# fails every positioned read in turn (EIO and short reads) through open,
# validate, the chunk path and the walk table; each fault must end in a
# typed I/O error.
cargo test -q -p sr-graph --test segment_container corruption::
cargo test -q -p sr-graph --test segment_container faults::

echo "==> serving suites (loopback smoke, rotation races, batching determinism)"
# The serving layer's three pinned guarantees: every wire command answers
# on a real socket and post-ingest ranks equal an offline replay bitwise
# (loopback), concurrent readers never see a torn snapshot and paced
# publishing never stalls one (rotation, scheduled by reader progress
# rather than sleeps, so it cannot flake on a busy host), and panel
# batching is thread-count invariant (batching). A delta the engine
# refuses (bad endpoint, page/source length mismatch, source out of range)
# must leave its epoch and later snapshots bitwise unchanged, and the wire
# decoders must answer arbitrary bytes, prefixes and bit flips with a
# value or a typed error, with oversized frames refused before allocation
# and a torn length prefix read as an error, not a clean hang-up. The
# loopback suite lives in the root package, so tier-1 (`cargo test -q`)
# runs it too: it sends deltas over TCP and requires the served vectors
# to equal an offline EpochEngine replay bitwise, with zero reader stalls.
# bench_serve (the full open-loop load test with the approx-vs-exact
# latency gate) is release-only; the release build above keeps it
# compiling and BENCH_serve.json tracks its runs.
cargo test -q --test loopback
cargo test -q -p sr-serve --test rotation
cargo test -q -p sr-serve --test batching
cargo test -q -p sr-serve --lib engine::tests::failed_deltas_leave_the_engine_unchanged
cargo test -q -p sr-serve --lib wire::tests

echo "==> cargo test -q (debug)"
cargo test --workspace -q

echo "==> cargo test -q --release"
cargo test --workspace -q --release

echo "CI green."
