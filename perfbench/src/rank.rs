//! The ranking workloads.
//!
//! * `rank_offline` — the paper's full pass over an in-RAM crawl: consensus
//!   source graph → spam proximity from a 10% spam-seed sample → top-k
//!   throttle κ → SR-SourceRank, SourceRank, and page-level PageRank.
//! * `rank_out_of_core` — PageRank streamed off `SRSHARD1` shards: each op
//!   builds a fresh `StreamedTransition` at a 16 MiB hot-span budget and runs
//!   a full power solve. No CSR of the crawl is ever built in RAM.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use sr_core::operator::{Transition, UniformTransition};
use sr_core::{
    PageRank, PipelineConfig, RankVector, SolverWorkspace, SourceRank, SpamProximity,
    SpamResilientSourceRank, StreamedTransition, ThrottleVector,
};
use sr_gen::{generate, generate_sharded, CrawlConfig, Dataset, StreamConfig, SyntheticCrawl};
use sr_graph::{ChunkArena, CsrGraph, ShardedCompressedGraph, SourceGraphConfig};
use sr_obs::SolveObserver;

use crate::checks::{check_rank, fingerprint};
use crate::report::Report;
use crate::stats::median_or_nan;
use crate::trace::Tracer;
use crate::{host, write_trace, Args};

const OFFLINE_PAGES: usize = 1_000_000;
const OFFLINE_SOURCES: usize = 8_000;
const OOC_PAGES: usize = 1_000_000;
/// Hot-span budget of every out-of-core op: the decoded graph is about
/// 2.3× this, so most spans stream through fetch and decode every sweep.
const OOC_CACHE_BYTES: usize = 16 << 20;
/// Set-ups per end-to-end run; `setup_s` is their median. Generation takes
/// well under a second, so the offline workload repeats it more often.
const OFFLINE_SETUP_REPS: usize = 7;
const OOC_SETUP_REPS: usize = 3;
/// Ops per run at the least, however short `--seconds` is.
const MIN_OPS: usize = 5;
/// Salt of the spam-seed sample drawn from the workload seed.
const SEED_SALT: u64 = 0x5eed_5a17;
/// Labels of the four vectors one offline pass produces.
const OFFLINE_VECTORS: [&str; 4] = ["proximity", "sr-sourcerank", "sourcerank", "pagerank"];

/// Runs `make` `reps` times, dropping each result before building the
/// next, and returns the last result with every build's wall time.
fn setup<T>(
    reps: usize,
    mut make: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(make()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), times))
}

/// Runs `f` inside a span named `name` when a tracer is present.
fn stage<R>(tr: &mut Option<&mut Tracer>, name: &str, request: u64, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => {
            let id = t.begin(name, request);
            let out = f();
            t.end(id);
            out
        }
        None => f(),
    }
}

/// Checks one op's vectors and that their bits and iteration counts equal
/// those of the run's first op.
fn check_repeat(
    labels: &[&str],
    vectors: &[RankVector],
    first: &mut Option<Vec<(u64, usize)>>,
) -> Result<(), String> {
    for (label, v) in labels.iter().zip(vectors) {
        check_rank(label, v)?;
    }
    let prints: Vec<(u64, usize)> = vectors.iter().map(fingerprint).collect();
    match first {
        Some(f) if *f != prints => Err("bits or iteration counts differ from the first op".into()),
        Some(_) => Ok(()),
        None => {
            *first = Some(prints);
            Ok(())
        }
    }
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------- offline

struct Offline {
    crawl: SyntheticCrawl,
    seeds: Vec<u32>,
    throttle_k: usize,
    gen_s: f64,
}

fn offline_input(seed: u64) -> Offline {
    let start = Instant::now();
    let crawl = generate(&CrawlConfig {
        total_pages: OFFLINE_PAGES,
        num_sources: OFFLINE_SOURCES,
        seed,
        ..CrawlConfig::default()
    });
    let gen_s = start.elapsed().as_secs_f64();
    let seeds = crawl.sample_spam_seed((crawl.spam_sources.len() / 10).max(1), seed ^ SEED_SALT);
    let throttle_k = Dataset::Wb2001.throttle_top_k(crawl.num_sources());
    Offline {
        crawl,
        seeds,
        throttle_k,
        gen_s,
    }
}

/// One full paper pass: proximity, SR-SourceRank, SourceRank, PageRank.
/// Traced passes split `PageRank::rank` into its operator build and power
/// solve — the same two calls it makes.
fn offline_pass(
    input: &Offline,
    mut tr: Option<&mut Tracer>,
    req: u64,
) -> Result<Vec<RankVector>, String> {
    let sg = stage(&mut tr, "graph.source_graph", req, || {
        input.crawl.source_graph(SourceGraphConfig::consensus())
    });
    let proximity = stage(&mut tr, "core.proximity", req, || {
        SpamProximity::new().scores(&sg, &input.seeds)
    })
    .map_err(|e| format!("proximity: {e}"))?;
    let model = stage(&mut tr, "core.throttle_build", req, || {
        let kappa = ThrottleVector::top_k_complete(proximity.scores(), input.throttle_k);
        SpamResilientSourceRank::builder()
            .throttle(kappa)
            .build(&sg)
    });
    let srsr = stage(&mut tr, "core.srsr", req, || model.rank());
    let sourcerank = stage(&mut tr, "core.sourcerank", req, || {
        SourceRank::new().rank(&sg)
    });
    let pagerank = if tr.is_some() {
        let op = stage(&mut tr, "core.operator_build", req, || {
            UniformTransition::new(&input.crawl.pages)
        });
        stage(&mut tr, "core.power_solve", req, move || {
            let v = PageRank::default().rank_operator_warm_in(
                &op,
                None,
                &mut SolverWorkspace::new(),
                None,
            );
            drop(op);
            v
        })
    } else {
        PageRank::default().rank(&input.crawl.pages)
    };
    Ok(vec![proximity, srsr, sourcerank, pagerank])
}

/// `rank_offline`: repeated full passes over a 1M-page / 8k-source crawl.
pub fn offline(args: &Args, _run_dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let reps = if args.trace { 1 } else { OFFLINE_SETUP_REPS };
    let (input, setup_s) = setup(reps, || Ok(offline_input(args.seed)))?;
    println!(
        "rank_offline: {} pages, {} edges, {} sources, {} spam seeds, throttle top-{}",
        input.crawl.num_pages(),
        input.crawl.pages.num_edges(),
        input.crawl.num_sources(),
        input.seeds.len(),
        input.throttle_k
    );
    // One untimed warm-up pass, checked like the rest: first-touch page
    // faults and the pool's first wake-up stay out of the timed ops.
    let mut first = None;
    let warm = offline_pass(&input, None, 0);
    report.op(warm.and_then(|v| check_repeat(&OFFLINE_VECTORS, &v, &mut first)));
    if !args.trace {
        let mut op_ms = Vec::new();
        let t0 = Instant::now();
        while op_ms.len() < MIN_OPS || t0.elapsed().as_secs_f64() < args.seconds {
            let start = Instant::now();
            let out = offline_pass(&input, None, 0);
            op_ms.push(ms(start));
            report.op(out.and_then(|v| check_repeat(&OFFLINE_VECTORS, &v, &mut first)));
        }
        let rss = host::peak_rss_mib().ok_or("VmHWM unavailable")?;
        report.end_to_end(&setup_s, &op_ms, rss);
        return Ok(report);
    }

    // Traced run: untraced and traced passes alternate, so the tracing
    // overhead is measured under the same conditions.
    let mut tr = Tracer::new();
    let (mut plain_ms, mut traced_ms, mut covers) = (Vec::new(), Vec::new(), Vec::new());
    let mut iters: Vec<Vec<f64>> = vec![Vec::new(); OFFLINE_VECTORS.len()];
    let t0 = Instant::now();
    let mut req = 0u64;
    while traced_ms.len() < 3 || t0.elapsed().as_secs_f64() < args.seconds {
        let start = Instant::now();
        let out = offline_pass(&input, None, req);
        plain_ms.push(ms(start));
        report.op(out.and_then(|v| check_repeat(&OFFLINE_VECTORS, &v, &mut first)));
        req += 1;
        let root = tr.begin("rank_offline.op", req);
        let out = offline_pass(&input, Some(&mut tr), req);
        traced_ms.push(tr.end(root) as f64 / 1e6);
        covers.push(tr.child_cover(root));
        if let Ok(v) = &out {
            for (slot, vector) in iters.iter_mut().zip(v) {
                slot.push(vector.stats().iterations as f64);
            }
        }
        report.op(out.and_then(|v| check_repeat(&OFFLINE_VECTORS, &v, &mut first)));
        req += 1;
    }
    report.metric("gen.input_s", "s", input.gen_s, 1);
    for (metric, span, detail) in [
        ("graph.source_graph_ms", "graph.source_graph", true),
        ("core.proximity_ms", "core.proximity", true),
        ("core.throttle_build_ms", "core.throttle_build", true),
        ("core.srsr_ms", "core.srsr", true),
        ("core.sourcerank_ms", "core.sourcerank", true),
        ("core.operator_build_ms", "core.operator_build", false),
        ("core.solve_ms", "core.power_solve", false),
    ] {
        let d = tr.durations_ms(span);
        if detail {
            report.detail(metric, "ms", median_or_nan(&d), d.len());
        } else {
            report.metric(metric, "ms", median_or_nan(&d), d.len());
        }
    }
    for (metric, i) in [
        ("core.proximity_iters", 0),
        ("core.srsr_iters", 1),
        ("core.sourcerank_iters", 2),
    ] {
        report.detail(metric, "count", median_or_nan(&iters[i]), iters[i].len());
    }
    report.metric(
        "core.solve_iters",
        "count",
        median_or_nan(&iters[3]),
        iters[3].len(),
    );

    let (out, busy) = host::busy_frac(|| offline_pass(&input, None, req));
    report.op(out.and_then(|v| check_repeat(&OFFLINE_VECTORS, &v, &mut first)));
    report.metric("par.busy_frac", "ratio", busy, 1);

    let copy_bytes_s = host::block(&mut report);
    in_ram_sweep(&mut report, &input.crawl.pages, copy_bytes_s);
    let overhead = (median_or_nan(&traced_ms) / median_or_nan(&plain_ms) - 1.0) * 100.0;
    report.metric("trace.overhead_pct", "%", overhead, traced_ms.len());
    report.metric(
        "trace.stage_sum_frac",
        "ratio",
        median_or_nan(&covers),
        covers.len(),
    );
    write_trace(args, &tr);
    Ok(report)
}

/// Times sweeps of a prebuilt in-RAM operator over `pages`: the median
/// sweep, its edge rate, the bytes it moves per edge and its share of the
/// copy ceiling `copy_bytes_s`.
pub(crate) fn in_ram_sweep(report: &mut Report, pages: &CsrGraph, copy_bytes_s: f64) {
    let (n, m) = (pages.num_nodes(), pages.num_edges());
    let op = UniformTransition::new(pages);
    let x = vec![1.0 / n as f64; n];
    let (mut y, mut scratch) = (vec![0.0; n], vec![0.0; n]);
    let mut sweep_s = Vec::new();
    for _ in 0..7 {
        let start = Instant::now();
        black_box(op.propagate_with(&x, &mut y, &mut scratch));
        sweep_s.push(start.elapsed().as_secs_f64());
    }
    drop(op);
    let sweep = median_or_nan(&sweep_s);
    let medges_s = m as f64 / sweep / 1e6;
    report.metric("core.sweep_ms", "ms", sweep * 1e3, sweep_s.len());
    report.detail("core.sweep_medges_s", "Medges/s", medges_s, sweep_s.len());
    // Bytes one in-RAM sweep moves per edge: a u32 predecessor id plus a
    // gathered f64, and per node the iterate read, the pre-scaled write and
    // read, the 1/outdegree read and the result write.
    let bytes_per_edge = 12.0 + 32.0 * n as f64 / m as f64;
    report.detail("core.sweep_bytes_per_edge", "B/edge", bytes_per_edge, 1);
    report.metric(
        "core.roofline_frac",
        "ratio",
        bytes_per_edge * medges_s * 1e6 / copy_bytes_s,
        1,
    );
}

// ------------------------------------------------------------ out of core

/// Times each power iteration from the solver's own callbacks, and the
/// prefetched-byte counter at each boundary.
#[derive(Default)]
struct SweepTimer {
    marks: Vec<Instant>,
    prefetched: Vec<u64>,
}

impl SweepTimer {
    fn mark(&mut self) {
        self.marks.push(Instant::now());
        self.prefetched
            .push(sr_par::counters::snapshot().prefetched_bytes);
    }

    /// Wall time of every iteration, in milliseconds.
    fn sweeps_ms(&self) -> Vec<f64> {
        self.marks
            .windows(2)
            .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e3)
            .collect()
    }

    /// Median of the iterations after the first.
    fn steady_ms(&self) -> f64 {
        median_or_nan(self.sweeps_ms().get(1..).unwrap_or(&[]))
    }
}

impl SolveObserver for SweepTimer {
    fn on_solve_start(&mut self, _solver: &str, _n: usize) {
        self.mark();
    }

    fn on_iteration(&mut self, _iteration: usize, _residual: f64, _dangling_mass: f64) {
        self.mark();
    }
}

fn sharded_input(seed: u64, dir: &Path) -> Result<(ShardedCompressedGraph, f64), String> {
    let sort_dir = dir.join("sort");
    let path = dir.join("crawl.shards");
    std::fs::remove_file(&path).ok();
    std::fs::create_dir_all(&sort_dir).map_err(|e| format!("{}: {e}", sort_dir.display()))?;
    let start = Instant::now();
    let graph = generate_sharded(&StreamConfig::with_scale(OOC_PAGES, seed), &sort_dir, &path)
        .map_err(|e| format!("generate_sharded: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&sort_dir).ok();
    Ok((graph, secs))
}

/// One out-of-core op: a fresh operator at `cache_bytes`, then a full
/// PageRank power solve.
fn ooc_solve(
    graph: &ShardedCompressedGraph,
    cache_bytes: usize,
    observer: Option<&mut (dyn SolveObserver + '_)>,
) -> RankVector {
    let op = StreamedTransition::from_sharded_with(
        graph,
        PipelineConfig {
            cache_bytes,
            ..PipelineConfig::default()
        },
    );
    PageRank::default().rank_operator_warm_in(&op, None, &mut SolverWorkspace::new(), observer)
}

/// The traced op: plan and solve spans, with one span per sweep under the
/// solve taken from the solver's iteration callbacks.
fn ooc_traced(graph: &ShardedCompressedGraph, tr: &mut Tracer, req: u64) -> RankVector {
    let plan = tr.begin("core.streamed_plan", req);
    let op = StreamedTransition::from_sharded_with(
        graph,
        PipelineConfig {
            cache_bytes: OOC_CACHE_BYTES,
            ..PipelineConfig::default()
        },
    );
    tr.end(plan);
    let solve = tr.begin("core.streamed_solve", req);
    let mut timer = SweepTimer::default();
    let v = PageRank::default().rank_operator_warm_in(
        &op,
        None,
        &mut SolverWorkspace::new(),
        Some(&mut timer),
    );
    drop(op);
    for (i, w) in timer.marks.windows(2).enumerate() {
        let name = if i == 0 {
            "core.streamed_first_sweep"
        } else {
            "core.streamed_sweep"
        };
        tr.record(name, w[0], w[1], req);
    }
    tr.end(solve);
    v
}

/// `rank_out_of_core`: repeated fresh-operator solves off a 1M-page sharded
/// crawl at a 16 MiB hot-span budget.
pub fn out_of_core(args: &Args, run_dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let reps = if args.trace { 1 } else { OOC_SETUP_REPS };
    let ((graph, gen_s), setup_s) = setup(reps, || sharded_input(args.seed, run_dir))?;
    let (n, m) = (graph.num_nodes(), graph.num_edges());
    println!(
        "rank_out_of_core: {n} pages, {m} edges, {} shards, {} bytes of shard data",
        graph.shards().len(),
        graph.data_bytes()
    );
    let labels = ["pagerank"];
    // One untimed warm-up solve, checked like the rest.
    let mut first = None;
    let warm = ooc_solve(&graph, OOC_CACHE_BYTES, None);
    report.op(check_repeat(&labels, &[warm], &mut first));
    let mut op_ms = Vec::new();
    let (mut traced_ms, mut covers) = (Vec::new(), Vec::new());
    let mut tr = Tracer::new();
    let t0 = Instant::now();
    let mut req = 0u64;
    while op_ms.len() < MIN_OPS || t0.elapsed().as_secs_f64() < args.seconds {
        let start = Instant::now();
        let v = ooc_solve(&graph, OOC_CACHE_BYTES, None);
        op_ms.push(ms(start));
        report.op(check_repeat(&labels, &[v], &mut first));
        req += 1;
        if args.trace {
            let root = tr.begin("rank_out_of_core.op", req);
            let v = ooc_traced(&graph, &mut tr, req);
            traced_ms.push(tr.end(root) as f64 / 1e6);
            covers.push(tr.child_cover(root));
            report.op(check_repeat(&labels, &[v], &mut first));
            req += 1;
        }
    }
    // Untimed, once per run: a budget-0 (pure re-streaming) solve of the
    // same file must give the same bits and iteration count.
    let mut cold = SweepTimer::default();
    let v = ooc_solve(&graph, 0, Some(&mut cold));
    report.op(check_repeat(&labels, &[v], &mut first));

    if !args.trace {
        let rss = host::peak_rss_mib().ok_or("VmHWM unavailable")?;
        report.end_to_end(&setup_s, &op_ms, rss);
        return Ok(report);
    }

    report.metric("gen.input_s", "s", gen_s, 1);
    let shard_bpe = graph.data_bytes() as f64 / m as f64;
    report.detail("graph.shard_bytes_per_edge", "B/edge", shard_bpe, 1);

    // Fetch and decode every span of the plan's geometry, one at a time.
    let spans = graph
        .chunk_spans(sr_par::num_threads() * PipelineConfig::default().spans_per_worker)
        .map_err(|e| format!("chunk_spans: {e}"))?;
    let scan = tr.begin("graph.chunk_scan", req);
    let (mut buf, mut arena) = (Vec::new(), ChunkArena::new());
    let (mut load_s, mut decode_s, mut bytes, mut edges) = (0.0, 0.0, 0u64, 0u64);
    for span in &spans {
        let start = Instant::now();
        graph
            .load_chunk(span, &mut buf)
            .map_err(|e| format!("load_chunk: {e}"))?;
        let loaded = Instant::now();
        graph
            .decode_chunk(span, &buf, &mut arena)
            .map_err(|e| format!("decode_chunk: {e}"))?;
        let decoded = Instant::now();
        tr.record("graph.load_chunk", start, loaded, req);
        tr.record("graph.decode_chunk", loaded, decoded, req);
        load_s += loaded.duration_since(start).as_secs_f64();
        decode_s += decoded.duration_since(loaded).as_secs_f64();
        bytes += span.byte_len() as u64;
        edges += span.edges;
    }
    tr.end(scan);
    report.detail(
        "graph.load_chunk_mib_s",
        "MiB/s",
        bytes as f64 / load_s / f64::from(1u32 << 20),
        spans.len(),
    );
    report.detail(
        "graph.decode_medges_s",
        "Medges/s",
        edges as f64 / decode_s / 1e6,
        spans.len(),
    );

    // The plan's first-fit hot-span rule: spans claim their decoded size
    // from the budget in file order while it lasts.
    let mut left = OOC_CACHE_BYTES as u64;
    let mut hot_edges = 0u64;
    for span in &spans {
        let decoded = (span.rows.len() as u64 + 1) * 8 + span.edges * 4;
        if decoded <= left {
            left -= decoded;
            hot_edges += span.edges;
        }
    }
    let hot_share = hot_edges as f64 / m as f64;
    report.detail(
        "core.streamed_hot_edge_share",
        "ratio",
        hot_share,
        spans.len(),
    );

    let plan = tr.durations_ms("core.streamed_plan");
    report.metric(
        "core.operator_build_ms",
        "ms",
        median_or_nan(&plan),
        plan.len(),
    );
    let solve = tr.durations_ms("core.streamed_solve");
    report.metric("core.solve_ms", "ms", median_or_nan(&solve), solve.len());
    let first_sweep = tr.durations_ms("core.streamed_first_sweep");
    report.detail(
        "core.streamed_first_sweep_ms",
        "ms",
        median_or_nan(&first_sweep),
        first_sweep.len(),
    );
    let steady = tr.durations_ms("core.streamed_sweep");
    let sweep_ms = median_or_nan(&steady);
    report.metric("core.sweep_ms", "ms", sweep_ms, steady.len());
    report.metric(
        "core.solve_iters",
        "count",
        first.as_ref().map_or(f64::NAN, |f| f[0].1 as f64),
        1,
    );

    let mut hot = SweepTimer::default();
    let v = ooc_solve(&graph, usize::MAX, Some(&mut hot));
    report.op(check_repeat(&labels, &[v], &mut first));
    report.detail(
        "core.streamed_hot_sweep_ms",
        "ms",
        hot.steady_ms(),
        hot.marks.len().saturating_sub(2),
    );
    report.detail(
        "core.streamed_cold_sweep_ms",
        "ms",
        cold.steady_ms(),
        cold.marks.len().saturating_sub(2),
    );

    let mut counted = SweepTimer::default();
    let (v, busy) = host::busy_frac(|| ooc_solve(&graph, OOC_CACHE_BYTES, Some(&mut counted)));
    report.op(check_repeat(&labels, &[v], &mut first));
    report.metric("par.busy_frac", "ratio", busy, 1);
    let sweeps = counted.prefetched.len().saturating_sub(2);
    let steady_bytes = counted
        .prefetched
        .last()
        .zip(counted.prefetched.get(1))
        .map_or(0, |(end, after_first)| end - after_first);
    report.detail(
        "par.prefetch_mib_per_sweep",
        "MiB",
        steady_bytes as f64 / sweeps.max(1) as f64 / f64::from(1u32 << 20),
        sweeps,
    );

    let copy_bytes_s = host::block(&mut report);
    // In-RAM gather traffic plus, for the spans past the budget, the shard
    // bytes fetched and the decoded u32 ids written and read back.
    let bytes_per_edge = 12.0 + 32.0 * n as f64 / m as f64 + (1.0 - hot_share) * (shard_bpe + 8.0);
    report.detail("core.streamed_bytes_per_edge", "B/edge", bytes_per_edge, 1);
    report.metric(
        "core.roofline_frac",
        "ratio",
        bytes_per_edge * m as f64 / (sweep_ms / 1e3) / copy_bytes_s,
        1,
    );
    let overhead = (median_or_nan(&traced_ms) / median_or_nan(&op_ms) - 1.0) * 100.0;
    report.metric("trace.overhead_pct", "%", overhead, traced_ms.len());
    report.metric(
        "trace.stage_sum_frac",
        "ratio",
        median_or_nan(&covers),
        covers.len(),
    );
    write_trace(args, &tr);
    Ok(report)
}
