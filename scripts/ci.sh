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
# The concurrency gate is first-party code; its own tests (lexer, parser,
# per-rule fixtures, and the meta-test that the live workspace is clean)
# must pass before its verdict on the rest of the tree means anything.
cargo test -q -p sr-lint

echo "==> sr-lint (syntax-aware concurrency gate + LINT_report.json)"
# `sr-lint` (crates/lint) lexes every workspace file (comments and
# string/char literals masked), recovers the item tree, and enforces the
# four concurrency policies clippy cannot express: atomic-ordering
# (Relaxed is reserved for sr-par::counters; publication gates must pair
# Acquire/Release), lock-order (the workspace lock-acquisition graph must
# stay acyclic), par-determinism (no captured accumulation inside
# unordered sr-par closures), and panic-surface (no unexempted
# panic reachable from a live sr-serve socket). Exempt a site with a
# justified `// lint-ok(<rule>): <reason>` trailing the line or in the
# comment block directly above it; see DESIGN.md §13 and §18.
#
# `--json` writes LINT_report.json (findings, atomic catalogue, lock
# graph, exemption inventory) — a tracked artifact, so the committed copy
# must match what the tree produces. The gate runs twice: console output
# and report must be byte-identical across runs.
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
# clippy.toml carries the token-level policies: debug_assert! is a
# disallowed macro (integrity checks must not compile out in release),
# partial_cmp and the wall-clock reads are disallowed methods (NaN must
# order deterministically; clocks are telemetry), HashMap/HashSet are
# disallowed types (hash iteration order is per process). sr-graph denies
# unwrap/expect/panic!/unreachable!/todo!/unimplemented! in its reader
# modules (io, segment). A sanctioned site carries
# `#[expect(clippy::<lint>, reason = "...")]`; an expectation that no
# longer fires is an unfulfilled_lint_expectations warning, so a stale
# waiver fails here too.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy --lib --bins -D clippy::cast_possible_truncation"
# No truncating `as` casts in library and binary code (the zigzag
# truncation bug class): use try_from or the checked
# sr_graph::ids::{node_id, node_range}. Tests, benches, examples and the
# offline shims (rand, proptest, criterion) are out of scope; --no-deps
# keeps clippy off the shims where the selected crates depend on them.
cargo clippy --workspace --lib --bins --no-deps \
  --exclude rand --exclude proptest --exclude criterion \
  -- -D warnings -D clippy::cast_possible_truncation

echo "==> clippy policy fixtures (violations fail with their lint, waivers pass)"
# crates/lint/tests/fixtures holds one violating fixture per clippy
# policy and an exempt twin waived with `#[expect(.., reason)]`. Each
# file is checked alone by clippy-driver under the repo's clippy.toml and
# the cast flag above: every violation must fail naming its lint, every
# twin must pass, and a stale `#[expect]` must fail as unfulfilled. Hash
# types inside sr-par closures (par_hash_violation) are clippy's too: no
# sr-lint rule looks for them.
FIX=crates/lint/tests/fixtures
FIX_OUT="$(mktemp -d)"
clippy_fixture() {
  CLIPPY_CONF_DIR="$PWD" clippy-driver --edition 2021 --crate-type lib \
    --emit=metadata -o "$FIX_OUT/fixture.rmeta" \
    -D warnings -D clippy::cast_possible_truncation "$FIX/$1" 2>&1
}
for case in debug_assert_violation:disallowed_macros \
  numeric_cast_violation:cast_possible_truncation \
  float_order_violation:disallowed_methods \
  determinism_violation:disallowed_types \
  par_hash_violation:disallowed_types \
  panic_policy_violation:unwrap_used \
  panic_policy_segment_violation:unreachable \
  stale_expect:unfulfilled_lint_expectations; do
  fixture="${case%%:*}.rs"; lint="${case##*:}"
  if out="$(clippy_fixture "$fixture")"; then
    echo "$fixture: clippy passed, expected $lint"; exit 1
  fi
  if ! grep -q "${lint//_/[-_]}" <<< "$out"; then
    echo "$out"; echo "$fixture: failed without naming $lint"; exit 1
  fi
done
for fixture in debug_assert numeric_cast float_order determinism panic_policy; do
  clippy_fixture "${fixture}_exempt.rs" || { echo "${fixture}_exempt.rs: waived fixture failed"; exit 1; }
done
rm -rf "$FIX_OUT"

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo bench --no-run (benches must keep compiling)"
cargo bench --workspace --no-run --quiet

echo "==> perfbench: build the repository benchmark and run its unit tests"
# perfbench (its own workspace, which the steps above never build) links
# the crates by path and names their public API: EpochEngine, the
# incremental ranker, the operators. Building it here turns a change to
# an API it names into a CI failure rather than a failed benchmark run.
# Same target dir as perfbench/run.py, so the benchmark reuses the build.
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --quiet --manifest-path perfbench/Cargo.toml

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
# One epoch graph, shared: the engine folds every epoch, publishes the
# ranker's own graph and solves over its own operator, so each epoch's
# PageRank equals a warm solve over a fresh operator of the published
# graph bit for bit, including after a delta that only appends pages
# (tier-1). Exact panels solve over the operator the writer offers when
# it was built from the window's graph, and build their own otherwise;
# both answer like drain_once bit for bit. Snapshots equal the overlay's
# to_csr whether the engine folds (threshold 0.0) or materializes (1.0).
cargo test -q --test invariants served_epochs_solve_over_their_published_graph_bitwise
cargo test -q -p sr-serve --lib batch::tests::windows_over_the_offered_operator_answer_like_drain_once
cargo test -q -p sr-serve --lib batch::tests::windows_over_another_graph_build_their_own_operator
cargo test -q -p sr-serve --lib engine::tests::snapshots_track_the_growing_graph

echo "==> cargo test -q (debug)"
cargo test --workspace -q

echo "==> cargo test -q --release"
cargo test --workspace -q --release

echo "CI green."
