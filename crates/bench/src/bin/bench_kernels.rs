//! Tracked kernel-benchmark baseline.
//!
//! Times the two layers of the solver engine on the deterministic
//! [`kernel_crawl`] workload, reference vs fused:
//!
//! * **propagate** — one sparse matrix–vector product `y = xP`:
//!   [`NaiveUniformTransition`] (per-edge division + dangling branch) vs
//!   [`UniformTransition`] (pre-scaled iterate, edge-balanced chunks);
//! * **power solve** — the full PageRank fixed point:
//!   [`power_method_unfused`] (separate damp/teleport/residual passes,
//!   allocates per solve) vs a one-column [`solve`] request (single fused
//!   sweep, reusable [`SolverWorkspace`]);
//! * **delta re-rank** — re-solving after a localized crawl delta:
//!   cold rebuild (materialize the mutated CSR, fresh operator, solve from
//!   uniform) vs the incremental path ([`OverlayTransition`] over the
//!   unmodified base operator, warm-started from the pre-delta fixed
//!   point);
//! * **batched solve** — a K-column multi-seed personalization family (the
//!   batched proximity workload): K one-column requests vs one K-column
//!   request solved in SpMM panels (K ∈ {1, 4, 8, 16}), with a bitwise
//!   per-column identity gate;
//! * **sharded solve** — the out-of-core engine: the crawl's reverse
//!   adjacency written to disk as varint/gap-coded shards and solved through
//!   [`StreamedTransition`] without an in-RAM CSR, gated on bitwise score
//!   parity and identical iteration counts against the fused solve, with a
//!   resident-bytes comparison; `SR_BENCH_SHARDED_HUGE=1` (release builds
//!   only) adds a ≥100M-edge streamed-generation entry;
//! * **approx ppr** — the Monte-Carlo walk-cache engine (`sr-core::approx`)
//!   vs the exact per-seed personalized solve: warm queries at a loose push
//!   target closed by cached walks, gated on an achieved additive error
//!   within 1e-3 of the exact scores *and* a ≥5× query speedup.
//!
//! Writes machine-readable results to `BENCH_kernels.json` in the current
//! directory (run from the repo root: `cargo run --release -p sr-bench
//! --bin bench_kernels`). The JSON is hand-rendered — no serde in-tree —
//! and written through [`jsonmerge`], so sections owned by other bench
//! binaries survive a re-run of this one.
//!
//! The timed loops stay observer-free — telemetry-off overhead is part of
//! what this baseline tracks. A final *untimed* solve runs with an sr-obs
//! recorder attached and lands in `RUNS_kernels.json` alongside the
//! workload's partition/compression stats.

#![expect(
    clippy::disallowed_methods,
    reason = "the tracked benchmark baseline is wall-clock measurement by definition"
)]

use std::fmt::Write as _;
use std::time::Instant;

use sr_bench::{jsonmerge, kernel_crawl};
use sr_core::approx::{QueryConfig, WalkCacheConfig};
use sr_core::incremental::OverlayTransition;
use sr_core::operator::reference::NaiveUniformTransition;
use sr_core::operator::{Transition, UniformTransition};
use sr_core::power::reference::power_method_unfused;
use sr_core::streamed::StreamedTransition;
use sr_core::{
    solve, ConvergenceCriteria, PageRank, RankVector, SolveColumn, SolveRequest, SolverWorkspace,
    Teleport,
};
use sr_gen::{generate_sharded, StreamConfig};
use sr_graph::delta::{DeltaOverlay, GraphDelta};
use sr_graph::ids::node_id;
use sr_obs::{GraphStats, RecordingObserver, RunReport};

/// Minimum wall time per measurement; repeats until this elapses.
const MIN_MEASURE_SECS: f64 = 0.5;
/// Full power solves per engine; best-of is reported.
const SOLVE_REPS: usize = 3;

struct PropagateResult {
    edges_per_sec: f64,
    reps: usize,
}

/// Times `op.propagate_with` back-to-back until [`MIN_MEASURE_SECS`] of
/// wall time accumulates, after one untimed warm-up call.
fn time_propagate(op: &dyn Transition, num_edges: usize) -> PropagateResult {
    let n = op.num_nodes();
    let x = vec![1.0 / n as f64; n];
    let mut y = vec![0.0; n];
    let mut scratch = vec![0.0; n];
    op.propagate_with(&x, &mut y, &mut scratch);

    let mut reps = 0usize;
    let start = Instant::now();
    let mut elapsed = 0.0;
    while elapsed < MIN_MEASURE_SECS {
        op.propagate_with(&x, &mut y, &mut scratch);
        reps += 1;
        elapsed = start.elapsed().as_secs_f64();
    }
    std::hint::black_box(&y);
    PropagateResult {
        edges_per_sec: (reps * num_edges) as f64 / elapsed,
        reps,
    }
}

struct SolveResult {
    wall_sec: f64,
    iterations: usize,
    iters_per_sec: f64,
    edges_per_sec: f64,
    converged: bool,
}

/// Best-of-[`SOLVE_REPS`] wall time for one full solve via `run`, which
/// returns the iteration count and convergence flag.
fn time_solve(num_edges: usize, mut run: impl FnMut() -> (usize, bool)) -> SolveResult {
    let mut best = f64::INFINITY;
    let mut iterations = 0;
    let mut converged = false;
    for _ in 0..SOLVE_REPS {
        let start = Instant::now();
        let (iters, conv) = run();
        let wall = start.elapsed().as_secs_f64();
        if wall < best {
            best = wall;
        }
        iterations = iters;
        converged = conv;
    }
    SolveResult {
        wall_sec: best,
        iterations,
        iters_per_sec: iterations as f64 / best,
        edges_per_sec: (iterations * num_edges) as f64 / best,
        converged,
    }
}

/// Runs the one-column `request` over `op`, keeps its vector in `last` and
/// returns the iteration count and convergence flag [`time_solve`] wants.
fn solve_into(
    op: &dyn Transition,
    request: &SolveRequest,
    ws: &mut SolverWorkspace,
    last: &mut Option<RankVector>,
) -> (usize, bool) {
    let r = solve(op, request, ws, &mut []).remove(0);
    let out = (r.stats().iterations, r.stats().converged);
    *last = Some(r);
    out
}

fn solve_json_at(label: &str, s: &SolveResult, indent: &str) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        concat!(
            "{i}\"{}\": {{\n",
            "{i}  \"wall_sec\": {:.6},\n",
            "{i}  \"iterations\": {},\n",
            "{i}  \"iters_per_sec\": {:.2},\n",
            "{i}  \"edges_per_sec\": {:.0},\n",
            "{i}  \"converged\": {}\n",
            "{i}}}"
        ),
        label,
        s.wall_sec,
        s.iterations,
        s.iters_per_sec,
        s.edges_per_sec,
        s.converged,
        i = indent
    );
    out
}

fn solve_json(label: &str, s: &SolveResult) -> String {
    solve_json_at(label, s, "    ")
}

/// Process peak resident set (VmHWM) in bytes, from `/proc/self/status`.
/// `None` on platforms without procfs — the JSON records `null` there.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

fn opt_u64_json(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |b| b.to_string())
}

/// Median of `reps` timings of `run`, in seconds, after one untimed call.
fn median_secs(reps: usize, mut run: impl FnMut()) -> f64 {
    run();
    let mut secs: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[reps / 2]
}

/// Median seconds per edge of one `op.propagate_with` over `graph` at
/// `threads` threads, the operator built at the same count.
fn gather_secs_per_edge(graph: &sr_graph::CsrGraph, threads: usize) -> f64 {
    sr_par::with_threads(threads, || {
        let op = UniformTransition::new(graph);
        let n = graph.num_nodes();
        let (x, mut y, mut scratch) = (vec![1.0 / n as f64; n], vec![0.0; n], vec![0.0; n]);
        median_secs(31, || {
            op.propagate_with(&x, &mut y, &mut scratch);
        })
    }) / graph.num_edges() as f64
}

/// The `fork` section, printed only: the cost of one empty fork/join of
/// `threads` parts, the serial cost per unit of the two kinds of region
/// `sr-par` forks, and the crossovers these imply beside the cutovers it
/// uses. A region of `w` units costing `c` each inline and `c_t` each
/// forked pays for a fork `f` once `w·(c − c_t) > f`. The ideal crossover
/// takes `c_t = c / threads`; the measured one times `c_t` on a region past
/// the cutover, where the fork really runs. Nothing here is asserted:
/// timings belong to the host.
fn fork_probe(graph: &sr_graph::CsrGraph, threads: usize) {
    if threads < 2 {
        eprintln!("fork: 1 thread, no region forks");
        return;
    }
    let fork = median_secs(201, || {
        std::hint::black_box(sr_par::map_tasks(threads, |i| i));
    });
    eprintln!(
        "fork: empty fork/join of {threads} parts {:.1} us (median of 201)",
        fork * 1e6
    );
    let crossover = |inline: f64, forked: f64| {
        let ideal = fork / (inline * (1.0 - 1.0 / threads as f64));
        let measured = if forked < inline {
            format!("{:.0}", fork / (inline - forked))
        } else {
            "never".to_string()
        };
        format!("crossover {measured} (ideal {ideal:.0})")
    };
    // A vector pass: the L1 distance of two vectors four times the element
    // cutover long, inline and forked.
    let len = 4 * sr_par::FORK_MIN_ELEMENTS;
    let x: Vec<f64> = (0..len).map(|i| 1.0 / (i + 1) as f64).collect();
    let y: Vec<f64> = (0..len).map(|i| 1.0 / (i + 2) as f64).collect();
    let l1_at = |t: usize| {
        sr_par::with_threads(t, || {
            median_secs(31, || {
                std::hint::black_box(sr_core::vecops::l1_distance(&x, &y));
            })
        }) / len as f64
    };
    let (inline, forked) = (l1_at(1), l1_at(threads));
    eprintln!(
        "fork: vector pass {:.3} ns/element inline, {:.3} forked -> {} elements \
         (FORK_MIN_ELEMENTS {})",
        inline * 1e9,
        forked * 1e9,
        crossover(inline, forked),
        sr_par::FORK_MIN_ELEMENTS
    );
    // The gather (with its pre-scale pass): the kernel crawl's, inline, and
    // a 300k-page crawl's past the edge cutover, inline and forked.
    let wide = sr_gen::generate(&sr_gen::CrawlConfig {
        num_sources: 2_500,
        total_pages: 300_000,
        ..sr_gen::CrawlConfig::default()
    })
    .pages;
    let kernel = gather_secs_per_edge(graph, 1);
    let (inline, forked) = (
        gather_secs_per_edge(&wide, 1),
        gather_secs_per_edge(&wide, threads),
    );
    eprintln!(
        "fork: gather {:.3} ns/edge inline on the kernel crawl; {:.3} inline, \
         {:.3} forked on {} edges -> {} edges (FORK_MIN_EDGES {})",
        kernel * 1e9,
        inline * 1e9,
        forked * 1e9,
        wide.num_edges(),
        crossover(inline, forked),
        sr_par::FORK_MIN_EDGES
    );
}

fn main() {
    let crawl = kernel_crawl();
    let graph = &crawl.pages;
    let n = graph.num_nodes();
    let m = graph.num_edges();
    let threads = sr_par::num_threads();
    eprintln!("kernel_crawl: {n} nodes, {m} edges, {threads} thread(s)");
    fork_probe(graph, threads);

    let naive = NaiveUniformTransition::new(graph);
    let fused = UniformTransition::new(graph);

    // --- Layer 1: raw propagate throughput -------------------------------
    let p_ref = time_propagate(&naive, m);
    let p_fused = time_propagate(&fused, m);
    eprintln!(
        "propagate: reference {:.1}M edges/s ({} reps), fused {:.1}M edges/s ({} reps), {:.2}x",
        p_ref.edges_per_sec / 1e6,
        p_ref.reps,
        p_fused.edges_per_sec / 1e6,
        p_fused.reps,
        p_fused.edges_per_sec / p_ref.edges_per_sec
    );

    // --- Layer 2: full power solve ---------------------------------------
    let request = SolveRequest::new(vec![SolveColumn::default()]);
    let s_ref = time_solve(m, || {
        let r = power_method_unfused(&naive, &request).remove(0);
        std::hint::black_box(r.scores());
        (r.stats().iterations, r.stats().converged)
    });
    let mut ws = SolverWorkspace::new();
    let mut fused_rank = None;
    let s_fused = time_solve(m, || solve_into(&fused, &request, &mut ws, &mut fused_rank));
    let fused_rank = fused_rank.expect("at least one timed fused solve");
    assert_eq!(
        s_ref.iterations, s_fused.iterations,
        "fused engine must take the same iteration count as the reference"
    );
    let speedup = s_fused.edges_per_sec / s_ref.edges_per_sec;
    // The in-RAM operator's measured footprint after one-column solves (its
    // one copy of the edges plus per-node vectors), reported beside the
    // sharded engine's below. The batched layer adds the panel CSR, which
    // one-column callers never hold.
    let csr_resident_bytes = fused.heap_bytes();
    eprintln!(
        "power solve: reference {:.3}s / {} iters, fused {:.3}s / {} iters, {:.2}x edges/s",
        s_ref.wall_sec, s_ref.iterations, s_fused.wall_sec, s_fused.iterations, speedup
    );

    // --- Layer 3: delta re-rank vs cold rebuild ---------------------------
    // One localized crawl delta — a 32-page link farm plus a few hijacked
    // existing pages — lands on the crawl. The rebuild path does what the
    // seed pipeline does after every crawl increment: materialize the
    // mutated CSR, build a fresh operator, solve from uniform. The delta
    // path keeps the base operator untouched, scatters the correction
    // through an `OverlayTransition`, and warm-starts from the pre-delta
    // fixed point (`fused_rank` from the fused solve above).
    let target = node_id(n) / 2;
    let mut delta = GraphDelta::new();
    delta.add_nodes(32);
    for i in 0..32u32 {
        delta.add_edge(node_id(n) + i, target);
    }
    for i in 0..8u32 {
        delta.add_edge((i * 977 + 13) % node_id(n), target);
    }
    if let Some(&v) = graph.neighbors(target).first() {
        delta.remove_edge(target, v);
    }
    let mut overlay = DeltaOverlay::new(graph.clone());
    let summary = overlay.apply(&delta).expect("delta fits the crawl");
    let n_delta = overlay.num_nodes();
    let m_delta = overlay.num_edges();

    let mut ws_cold = SolverWorkspace::new();
    let mut cold_rank = None;
    let s_cold = time_solve(m_delta, || {
        let rebuilt = overlay.to_csr();
        let op = UniformTransition::new(&rebuilt);
        solve_into(&op, &request, &mut ws_cold, &mut cold_rank)
    });

    // New pages start at their uniform teleport mass, exactly as
    // `PageRank::rank_operator_warm_in` pads a short warm vector.
    let warm_request = SolveRequest::new(vec![
        SolveColumn::default().with_padded_initial(fused_rank.scores(), n_delta)
    ]);
    let mut ws_warm = SolverWorkspace::new();
    let mut warm_rank = None;
    let s_warm = time_solve(m_delta, || {
        let op = OverlayTransition::new(&fused, &overlay);
        solve_into(&op, &warm_request, &mut ws_warm, &mut warm_rank)
    });

    let cold_rank = cold_rank.expect("at least one timed rebuild solve");
    let warm_rank = warm_rank.expect("at least one timed warm solve");
    let divergence = cold_rank
        .scores()
        .iter()
        .zip(warm_rank.scores())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        divergence < 1e-7,
        "delta and rebuild paths must converge to the same ranking: max |div| {divergence:.3e}"
    );
    assert!(
        s_warm.iterations < s_cold.iterations,
        "warm restart must save iterations: {} vs {}",
        s_warm.iterations,
        s_cold.iterations
    );
    assert!(
        s_warm.wall_sec < s_cold.wall_sec,
        "delta path must beat the rebuild on wall time: {:.4}s vs {:.4}s",
        s_warm.wall_sec,
        s_cold.wall_sec
    );
    eprintln!(
        "delta re-rank: rebuild {:.3}s / {} iters, warm {:.3}s / {} iters, \
         {:.2}x wall, max |div| {:.2e}",
        s_cold.wall_sec,
        s_cold.iterations,
        s_warm.wall_sec,
        s_warm.iterations,
        s_cold.wall_sec / s_warm.wall_sec,
        divergence
    );

    // --- Layer 4: batched multi-vector solve (SpMM) ------------------------
    // A multi-seed personalization family — K disjoint 64-node seed-group
    // teleports at the paper's α = 0.85, the shape of `SpamProximity::
    // scores_batch` — solved two ways: K one-column requests sharing one
    // workspace, vs one K-column request whose panels stream the edge list
    // once for all their columns. Same-α columns
    // converge near-lockstep (the batched engine's sweet spot); the
    // staggered-convergence compaction path is pinned functionally by the
    // differential suite and still fires here (seed groups differ by an
    // iteration or two). Both sides report aggregate throughput
    // (Σ per-column iterations · edges / wall).
    let mut batched_value = format!("{{\n    \"threads\": {threads},\n");
    let batch_ks = [1usize, 4, 8, 16];
    for (pos, &k) in batch_ks.iter().enumerate() {
        let teleports: Vec<Teleport> = (0..k)
            .map(|j| {
                let seeds: Vec<u32> = (0..64u32)
                    .map(|s| (node_id(j) * 977 + s * 131) % node_id(n))
                    .collect();
                Teleport::over_seeds(n, &seeds)
            })
            .collect();
        let columns: Vec<SolveColumn> = teleports
            .iter()
            .map(|tp| SolveColumn::new(0.85, tp.clone()))
            .collect();
        let singles: Vec<SolveRequest> = columns
            .iter()
            .map(|col| SolveRequest::new(vec![col.clone()]))
            .collect();
        let batch = SolveRequest::new(columns);

        let mut seq_ws = SolverWorkspace::new();
        let s_seq = time_solve(m, || {
            let mut total_iters = 0;
            let mut all_converged = true;
            for single in &singles {
                let r = solve(&fused, single, &mut seq_ws, &mut []).remove(0);
                std::hint::black_box(r.scores());
                total_iters += r.stats().iterations;
                all_converged &= r.stats().converged;
            }
            (total_iters, all_converged)
        });

        let mut batch_ws = SolverWorkspace::new();
        let mut panel = Vec::new();
        let s_batch = time_solve(m, || {
            panel = solve(&fused, &batch, &mut batch_ws, &mut []);
            let total_iters = panel.iter().map(|c| c.stats().iterations).sum();
            let all_converged = panel.iter().all(|c| c.stats().converged);
            (total_iters, all_converged)
        });

        // Correctness gate (untimed): every batched column must be bitwise
        // identical to its one-column request, at the same iteration count.
        for (j, single) in singles.iter().enumerate() {
            let r = solve(&fused, single, &mut seq_ws, &mut []).remove(0);
            assert_eq!(
                r.scores(),
                panel[j].scores(),
                "batched column {j} of K={k} diverged from the sequential solve"
            );
            assert_eq!(
                r.stats().iterations,
                panel[j].stats().iterations,
                "batched column {j} of K={k} took a different iteration count"
            );
        }
        assert_eq!(
            s_seq.iterations, s_batch.iterations,
            "aggregate iteration counts must match at K={k}"
        );

        let aggregate_speedup = s_batch.edges_per_sec / s_seq.edges_per_sec;
        eprintln!(
            "batched solve K={k}: sequential {:.3}s, batched {:.3}s, \
             {:.2}x aggregate edges/s ({} total iters)",
            s_seq.wall_sec, s_batch.wall_sec, aggregate_speedup, s_batch.iterations
        );
        let _ = write!(
            batched_value,
            concat!(
                "    \"k{}\": {{\n",
                "{},\n",
                "{},\n",
                "      \"aggregate_speedup\": {:.3}\n",
                "    }}{}\n"
            ),
            k,
            solve_json_at("sequential", &s_seq, "      "),
            solve_json_at("batched", &s_batch, "      "),
            aggregate_speedup,
            if pos + 1 < batch_ks.len() { "," } else { "" }
        );
    }
    batched_value.push_str("  }");

    // --- Layer 5: out-of-core sharded solve --------------------------------
    // The same crawl solved without its in-RAM CSR: `build_from_csr` writes
    // the reverse adjacency as varint/gap-coded shards on disk, and
    // `StreamedTransition` decodes whole shards per worker chunk into reused
    // scratch while solving. The gate is the engine's entire contract —
    // bitwise-identical scores at the identical iteration count — and the
    // payoff is footprint: the resident structure is the out-degree table
    // plus per-worker scratch, not the O(m) edge arrays.
    let shard_dir = std::env::temp_dir().join(format!("sr_bench_shards_{}", std::process::id()));
    let shard_path = shard_dir.join("kernel_crawl.shards");
    let sharded = sr_graph::shard::build_from_csr(graph, &shard_dir, &shard_path, 256 << 10)
        .expect("shard the kernel crawl");
    let streamed = StreamedTransition::from_sharded(&sharded);
    let mut ws_sharded = SolverWorkspace::new();
    let mut sharded_rank = None;
    let s_sharded = time_solve(m, || {
        solve_into(&streamed, &request, &mut ws_sharded, &mut sharded_rank)
    });
    // Parity gate (untimed): `fused_rank` is the fused in-RAM fixed point
    // from layer 2, solved under the identical `request`.
    assert_eq!(
        fused_rank.scores(),
        sharded_rank
            .expect("at least one timed sharded solve")
            .scores(),
        "out-of-core solve must be bitwise identical to the in-RAM solve"
    );
    assert_eq!(
        s_fused.iterations, s_sharded.iterations,
        "out-of-core solve must take the identical iteration count"
    );
    // Resident structure bytes: the in-RAM operator's measured heap
    // (`csr_resident_bytes`, taken after layer 2) against the sharded
    // engine's u32 out-degree table, shard directory and per-worker decode
    // scratch.
    let sharded_resident_bytes = sharded.resident_bytes() + streamed.scratch_resident_bytes();
    eprintln!(
        "sharded solve: in-RAM {:.3}s, out-of-core {:.3}s ({:.2}x edges/s), \
         resident {:.2} MiB -> {:.2} MiB ({} shards, {:.1}% of edges hot)",
        s_fused.wall_sec,
        s_sharded.wall_sec,
        s_sharded.edges_per_sec / s_fused.edges_per_sec,
        csr_resident_bytes as f64 / (1 << 20) as f64,
        sharded_resident_bytes as f64 / (1 << 20) as f64,
        sharded.shards().len(),
        100.0 * streamed.hot_edges() as f64 / m as f64,
    );

    // Worker-scaling sweep over the same on-disk file. The pipelined engine
    // re-plans its workers per count (past `sr_par::FORK_MIN_EDGES`,
    // operator chunks follow `with_threads`; the kernel crawl is below it,
    // so every count runs one worker), and every count must land the
    // identical bits. The sweep stops at the cores the host has: more
    // workers than cores measure time-slicing, not scaling.
    let mut scaling_value = String::from("{\n");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let worker_counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&w| w <= cores)
        .collect();
    for (pos, &w) in worker_counts.iter().enumerate() {
        let (s_w, bits_ok) = sr_par::with_threads(w, || {
            let t = StreamedTransition::from_sharded(&sharded);
            let mut wsx = SolverWorkspace::new();
            let mut last = None;
            let s = time_solve(m, || solve_into(&t, &request, &mut wsx, &mut last));
            let ok = last.is_some_and(|r| r.scores() == fused_rank.scores());
            (s, ok)
        });
        assert!(bits_ok, "sharded solve at {w} worker(s) diverged bitwise");
        eprintln!(
            "sharded scaling: {w} worker(s) -> {:.1}M edges/s ({:.3}s/solve)",
            s_w.edges_per_sec / 1e6,
            s_w.wall_sec
        );
        let _ = writeln!(
            scaling_value,
            "      \"workers_{}\": {{ \"edges_per_sec\": {:.0}, \"wall_sec\": {:.6} }}{}",
            w,
            s_w.edges_per_sec,
            s_w.wall_sec,
            if pos + 1 < worker_counts.len() {
                ","
            } else {
                ""
            }
        );
    }
    scaling_value.push_str("    }");

    // Sections this binary does not re-measure on this run — notably the
    // env-gated huge entry below — are carried forward from the existing
    // baseline instead of being clobbered.
    let existing = std::fs::read_to_string("BENCH_kernels.json").ok();

    // Optional ≥100M-edge entry: release builds only, behind an env gate,
    // because generating and ranking a crawl of that size takes minutes.
    let run_huge = std::env::var_os("SR_BENCH_SHARDED_HUGE").is_some();
    if run_huge && cfg!(debug_assertions) {
        eprintln!("SR_BENCH_SHARDED_HUGE ignored: needs a release build (debug would take hours)");
    }
    let huge_value = if run_huge && cfg!(not(debug_assertions)) {
        let dir = std::env::temp_dir().join(format!("sr_bench_huge_{}", std::process::id()));
        // 13M nodes × mean degree 13 ≈ 169M draws; the heavy-tailed target
        // distribution dedupes hot authority edges, landing ~108M unique.
        let huge_cfg = StreamConfig::with_scale(13_000_000, 20_260_808);
        eprintln!(
            "generating ~{:.0}M-edge streamed crawl out of core (takes a while)...",
            huge_cfg.num_nodes as f64 * huge_cfg.mean_out_degree / 1e6
        );
        let gen_start = Instant::now();
        let huge = generate_sharded(&huge_cfg, &dir, &dir.join("huge.shards"))
            .expect("generate the 100M-edge crawl");
        let gen_sec = gen_start.elapsed().as_secs_f64();
        let hm = huge.num_edges();
        assert!(
            hm >= 100_000_000,
            "huge crawl must clear 100M edges, got {hm}"
        );
        let hop = StreamedTransition::from_sharded(&huge);
        // Fixed iteration budget: the entry tracks streaming throughput at
        // scale, not convergence (which the 60k gate already pins).
        let huge_request =
            SolveRequest::new(vec![SolveColumn::default()]).criteria(ConvergenceCriteria {
                max_iterations: 5,
                ..ConvergenceCriteria::default()
            });
        let mut hws = SolverWorkspace::new();
        let start = Instant::now();
        let huge_rank = solve(&hop, &huge_request, &mut hws, &mut []).remove(0);
        let wall = start.elapsed().as_secs_f64();
        let stats = huge_rank.stats();
        let eps = (stats.iterations * hm) as f64 / wall;
        let resident = huge.resident_bytes() + hop.scratch_resident_bytes();
        eprintln!(
            "huge sharded solve: {} nodes / {} edges / {} shards, gen {:.0}s, \
             {} iters in {:.1}s = {:.1}M edges/s, resident {:.0} MiB, {:.1}% of edges hot",
            huge.num_nodes(),
            hm,
            huge.shards().len(),
            gen_sec,
            stats.iterations,
            wall,
            eps / 1e6,
            resident as f64 / (1 << 20) as f64,
            100.0 * hop.hot_edges() as f64 / hm as f64
        );
        let v = format!(
            concat!(
                "{{\n",
                "      \"nodes\": {},\n",
                "      \"edges\": {},\n",
                "      \"shards\": {},\n",
                "      \"generate_sec\": {:.1},\n",
                "      \"iterations\": {},\n",
                "      \"wall_sec\": {:.3},\n",
                "      \"edges_per_sec\": {:.0},\n",
                "      \"resident_bytes\": {},\n",
                "      \"peak_rss_bytes\": {}\n",
                "    }}"
            ),
            huge.num_nodes(),
            hm,
            huge.shards().len(),
            gen_sec,
            stats.iterations,
            wall,
            eps,
            resident,
            opt_u64_json(peak_rss_bytes()),
        );
        std::fs::remove_dir_all(&dir).ok();
        v
    } else {
        // Not re-measured this run: keep the tracked entry from the last
        // `SR_BENCH_SHARDED_HUGE=1` run, if the baseline holds one.
        existing
            .as_deref()
            .and_then(jsonmerge::split_sections)
            .and_then(|sections| {
                sections
                    .into_iter()
                    .find(|(k, _)| k == "sharded_solve")
                    .and_then(|(_, v)| jsonmerge::nested_section(&v, "huge"))
            })
            .filter(|v| v != "null")
            .unwrap_or_else(|| "null".to_string())
    };
    let sharded_value = format!(
        concat!(
            "{{\n",
            "    \"threads\": {},\n",
            "    \"shards\": {},\n",
            "    \"shard_data_bytes\": {},\n",
            "{},\n",
            "{},\n",
            "    \"bitwise_parity\": true,\n",
            "    \"pipelined\": true,\n",
            "    \"csr_resident_bytes\": {},\n",
            "    \"sharded_resident_bytes\": {},\n",
            "    \"resident_shrink\": {:.3},\n",
            "    \"peak_rss_bytes\": {},\n",
            "    \"scaling\": {},\n",
            "    \"huge\": {}\n",
            "  }}"
        ),
        threads,
        sharded.shards().len(),
        sharded.data_bytes(),
        solve_json("in_ram_csr", &s_fused),
        solve_json("sharded", &s_sharded),
        csr_resident_bytes,
        sharded_resident_bytes,
        csr_resident_bytes as f64 / sharded_resident_bytes as f64,
        opt_u64_json(peak_rss_bytes()),
        scaling_value,
        huge_value,
    );
    std::fs::remove_dir_all(&shard_dir).ok();

    // --- Layer 6: approximate PPR (walk cache + loose push) ---------------
    // The Monte-Carlo walk-cache engine against the exact per-seed
    // personalized solve it approximates. The gate is the approx engine's
    // headline claim: warm queries at an *achieved* additive error within
    // 1e-3 of the exact solve must run at least 5x faster than solving.
    let approx_walks = 64u32;
    let approx_epsilon = 0.6f64;
    let seed_sets: Vec<Vec<u32>> = vec![
        vec![node_id(n / 4)],
        vec![node_id(n / 2)],
        vec![node_id(3 * n / 4)],
        vec![node_id(n / 5), node_id(n / 2 + 7)],
    ];
    let exact_of = |seeds: &[u32]| {
        let teleport = Teleport::try_over_seeds(n, seeds).expect("seeds in range");
        PageRank::builder().teleport(teleport).finish().rank(graph)
    };
    let exact_answers: Vec<_> = seed_sets.iter().map(|s| exact_of(s)).collect();
    let mut exact_reps = 0usize;
    let start = Instant::now();
    let mut elapsed = 0.0;
    while elapsed < MIN_MEASURE_SECS {
        for seeds in &seed_sets {
            std::hint::black_box(exact_of(seeds));
            exact_reps += 1;
        }
        elapsed = start.elapsed().as_secs_f64();
    }
    let exact_ms = elapsed * 1e3 / exact_reps as f64;

    let pr = PageRank::builder().finish();
    let cache_path =
        std::env::temp_dir().join(format!("sr_bench_approx_{}.walks", std::process::id()));
    let build_start = Instant::now();
    let cache = pr
        .build_walk_cache(
            graph,
            WalkCacheConfig {
                walks: approx_walks,
                ..Default::default()
            },
            &cache_path,
        )
        .expect("walk-cache build");
    let cache_build_sec = build_start.elapsed().as_secs_f64();
    let cache_bytes = std::fs::metadata(&cache_path).map(|f| f.len()).unwrap_or(0);
    let engine = pr.approx(graph, &cache).expect("cache matches graph");
    let q = QueryConfig {
        epsilon: approx_epsilon,
        ..Default::default()
    };
    // The first query decodes the resident walk table; every timed query
    // below is warm (the serving steady state the speedup gate is about).
    let decode_start = Instant::now();
    let mut push_rounds = engine
        .query(&seed_sets[0], &q)
        .expect("warm-up query")
        .stats()
        .iterations;
    let table_decode_sec = decode_start.elapsed().as_secs_f64();
    let mut max_abs_err = 0.0f64;
    for (seeds, exact) in seed_sets.iter().zip(&exact_answers) {
        let approx = engine.query(seeds, &q).expect("approx query");
        push_rounds = approx.stats().iterations;
        let err = approx
            .scores()
            .iter()
            .zip(exact.scores())
            .map(|(a, e)| (a - e).abs())
            .fold(0.0f64, f64::max);
        max_abs_err = max_abs_err.max(err);
    }
    let mut approx_reps = 0usize;
    let start = Instant::now();
    let mut elapsed = 0.0;
    while elapsed < MIN_MEASURE_SECS {
        for seeds in &seed_sets {
            std::hint::black_box(engine.query(seeds, &q).expect("approx query"));
            approx_reps += 1;
        }
        elapsed = start.elapsed().as_secs_f64();
    }
    let approx_ms = elapsed * 1e3 / approx_reps as f64;
    let approx_speedup = exact_ms / approx_ms;
    let table = cache.table().expect("decoded table");
    let table_resident = table.resident_bytes();
    // The decoded table is pre-sized from the segments' own degree varints:
    // its resident footprint must be the arithmetic minimum for its entry
    // and source counts, with zero slack capacity from geometric growth.
    let table_exact = (table.num_sources() + 1) * std::mem::size_of::<usize>()
        + table.num_entries() * (std::mem::size_of::<u32>() + std::mem::size_of::<u32>());
    assert_eq!(
        table_resident, table_exact,
        "walk table must allocate exactly its decoded size (no growth slack)"
    );
    eprintln!(
        "approx ppr: R={approx_walks} eps={approx_epsilon}: exact {exact_ms:.2}ms vs approx \
         {approx_ms:.3}ms = {approx_speedup:.1}x, max|err| {max_abs_err:.2e}, cache {:.1} MiB \
         (build {cache_build_sec:.2}s, table decode {table_decode_sec:.2}s, resident {:.1} MiB)",
        cache_bytes as f64 / (1 << 20) as f64,
        table_resident as f64 / (1 << 20) as f64,
    );
    assert!(
        max_abs_err <= 1e-3,
        "approx queries must stay within 1e-3 of the exact solve, got {max_abs_err:.3e}"
    );
    assert!(
        approx_speedup >= 5.0,
        "approx query speedup {approx_speedup:.2}x must clear 5x \
         (exact {exact_ms:.3}ms, approx {approx_ms:.4}ms)"
    );
    std::fs::remove_file(&cache_path).ok();
    let approx_value = format!(
        concat!(
            "{{\n",
            "    \"threads\": {},\n",
            "    \"walks\": {},\n",
            "    \"epsilon\": {},\n",
            "    \"cache_build_sec\": {:.3},\n",
            "    \"cache_bytes\": {},\n",
            "    \"table_decode_sec\": {:.3},\n",
            "    \"table_resident_bytes\": {},\n",
            "    \"push_rounds\": {},\n",
            "    \"num_seed_sets\": {},\n",
            "    \"exact_ms_per_query\": {:.3},\n",
            "    \"approx_ms_per_query\": {:.4},\n",
            "    \"speedup\": {:.2},\n",
            "    \"max_abs_err\": {:.3e}\n",
            "  }}"
        ),
        threads,
        approx_walks,
        approx_epsilon,
        cache_build_sec,
        cache_bytes,
        table_decode_sec,
        table_resident,
        push_rounds,
        seed_sets.len(),
        exact_ms,
        approx_ms,
        approx_speedup,
        max_abs_err,
    );

    // --- Report -----------------------------------------------------------
    // Each layer lands as its own top-level section; sections this binary
    // does not own (written by other bench runs) are preserved verbatim.
    let propagate_value = format!(
        concat!(
            "{{\n",
            "    \"threads\": {},\n",
            "    \"reference_edges_per_sec\": {:.0},\n",
            "    \"fused_edges_per_sec\": {:.0},\n",
            "    \"speedup\": {:.3}\n",
            "  }}"
        ),
        threads,
        p_ref.edges_per_sec,
        p_fused.edges_per_sec,
        p_fused.edges_per_sec / p_ref.edges_per_sec,
    );
    let power_value = format!(
        "{{\n    \"threads\": {},\n{},\n{},\n    \"speedup_edges_per_sec\": {:.3}\n  }}",
        threads,
        solve_json("reference", &s_ref),
        solve_json("fused", &s_fused),
        speedup,
    );
    let delta_value = format!(
        concat!(
            "{{\n",
            "    \"threads\": {},\n",
            "    \"delta\": {{ \"nodes_added\": {}, \"edges_added\": {}, ",
            "\"edges_removed\": {}, \"touched_rows\": {} }},\n",
            "{},\n",
            "{},\n",
            "    \"wall_speedup\": {:.3},\n",
            "    \"iterations_saved\": {},\n",
            "    \"max_divergence\": {:.3e}\n",
            "  }}"
        ),
        threads,
        summary.nodes_added,
        summary.edges_added,
        summary.edges_removed,
        summary.touched_rows.len(),
        solve_json("rebuild_cold", &s_cold),
        solve_json("delta_warm", &s_warm),
        s_cold.wall_sec / s_warm.wall_sec,
        s_cold.iterations - s_warm.iterations,
        divergence
    );
    let updates = vec![
        ("bench".to_string(), "\"kernels\"".to_string()),
        ("workload".to_string(), "\"kernel_crawl\"".to_string()),
        ("threads".to_string(), threads.to_string()),
        (
            "graph".to_string(),
            format!("{{ \"nodes\": {n}, \"edges\": {m} }}"),
        ),
        ("propagate".to_string(), propagate_value),
        ("power_solve".to_string(), power_value),
        ("delta_rerank".to_string(), delta_value),
        ("batched_solve".to_string(), batched_value),
        ("sharded_solve".to_string(), sharded_value),
        ("approx_ppr".to_string(), approx_value),
    ];
    let json = jsonmerge::merge_sections(existing.as_deref(), &updates);
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("{json}");

    // --- Telemetry run report (untimed; never inside the loops above) -----
    sr_par::counters::reset();
    sr_par::counters::enable();
    let mut report = RunReport::new("kernels", threads);
    let mut obs = RecordingObserver::new();
    solve(&fused, &request, &mut ws, &mut [Some(&mut obs)]);
    report.push_solve(obs.into_record("power-fused"));
    report.push_graph(GraphStats {
        label: "kernel_crawl".to_string(),
        nodes: n,
        edges: m,
        partition: None,
        packing: None,
        compression: Some(
            sr_graph::codec::compression_stats(graph).expect("compress kernel crawl"),
        ),
    });
    report.set_pool(sr_par::counters::snapshot());
    sr_par::counters::disable();
    let path = report
        .write_to_dir(std::path::Path::new("."))
        .expect("write RUNS_kernels.json");
    eprintln!("telemetry report written to {}", path.display());
}
