//! Tier-1 guard for the solver's load-bearing invariants.
//!
//! Small, seconds-long instances of the contracts the differential suites
//! under `crates/core/tests` sweep at scale, run through the public crates
//! so that `cargo test` at the workspace root fails the moment one breaks:
//!
//! * a K-column solve request ≡ its one-column requests, bit for bit, on
//!   the uniform and the weighted operator under both formulations,
//!   through both panel kernels (the one-chunk forward scatter and, past
//!   the edge cutover, the multi-chunk reverse gather);
//! * PageRank over a graph past the `sr-par` fork cutovers and
//!   SR-SourceRank over a source graph below them give the same bits at one
//!   and two threads, and the 2-thread PageRank really forks;
//! * both in-RAM operators hold one copy of the edges through one-column
//!   solves, and exactly one CSR more once a K-column solve has run;
//! * an observed solve ≡ the unobserved one, bit for bit;
//! * a solve streamed off tiny on-disk shards ≡ the in-RAM CSR solve, bit
//!   for bit;
//! * incremental warm re-ranking ≡ a cold rebuild within `1e-12` at a
//!   stopping tolerance of `1e-14`;
//! * every serving epoch's PageRank ≡ a warm solve over a fresh operator of
//!   the graph that epoch publishes, bit for bit, and that graph is the
//!   engine's own (shared, not copied);
//! * spam proximity is one solve: `SpamProximity::scores` ≡ its column of
//!   a `scores_batch` call under both weightings, and under the uniform
//!   weighting ≡ seeded PageRank over the transposed structural graph, bit
//!   for bit, on a generated crawl where one source has no out-links;
//! * approximate PPR off a walk cache stays within its (ε, δ) additive
//!   bound of the exact solve, and a rebuilt, a reopened and a from-bytes
//!   cache answer bit-identically (so tier-1 writes and reads the
//!   walk-cache file);
//! * an approx query whose frontier saturates runs inline at two threads
//!   and answers with the one-thread bits;
//! * source-graph extraction over a page graph past the edge cutover gives
//!   the same bits at one and two threads, and the 2-thread run forks; a
//!   `SourceGraphMaintainer` fed a `CrawlDeltaProducer` stream equals the
//!   extraction of the rebuilt page graph after every delta, bit for bit.

use std::sync::{Arc, Mutex, MutexGuard};

use sr_core::approx::{ApproxPpr, QueryConfig, WalkCacheBuilder, WalkCacheConfig};
use sr_core::operator::{Transition, UniformTransition, WeightedTransition};
use sr_core::proximity::ProximityWeighting;
use sr_core::streamed::StreamedTransition;
use sr_core::SpamProximity;
use sr_core::{
    solve, ConvergenceCriteria, Formulation, IncrementalConfig, IncrementalRanker, PageRank,
    RankVector, SolveColumn, SolveRequest, SolverWorkspace, SourceRank, SpamResilientSourceRank,
    Teleport, ThrottleVector,
};
use sr_gen::{generate, CrawlConfig, CrawlDeltaProducer, ProducerConfig};
use sr_graph::delta::{CrawlDelta, DeltaOverlay, SourceGraphMaintainer};
use sr_graph::source_graph::{extract, SourceGraph, SourceGraphConfig};
use sr_graph::transpose::transpose;
use sr_graph::walks::WalkStore;
use sr_graph::{CsrGraph, GraphBuilder, PageId, SourceAssignment, SourceId, WeightedGraph};
use sr_obs::RecordingObserver;
use sr_serve::engine::{EngineConfig, EpochEngine};

/// Serializes the tests that fork (the walk-cache builds fork their
/// coarse tasks at any size): the `sr-par` counters are process-global, so
/// a test that counts its own forks must not overlap another that forks.
static FORKING: Mutex<()> = Mutex::new(());

fn forking() -> MutexGuard<'static, ()> {
    FORKING.lock().unwrap_or_else(|p| p.into_inner())
}

/// Runs `f` with the `sr-par` counters on and reports whether it forked:
/// some region spawned a thread.
fn forked<R>(f: impl FnOnce() -> R) -> (R, bool) {
    let _forking = forking();
    sr_par::counters::enable();
    let before = sr_par::counters::snapshot();
    let out = f();
    let after = sr_par::counters::snapshot();
    sr_par::counters::disable();
    (out, after.tasks_spawned > before.tasks_spawned)
}

/// A chain with forward chords and a dangling tail; past 4096 nodes the
/// blocked reductions run over more than one block.
fn pages(n: u32) -> CsrGraph {
    let mut edges: Vec<(u32, u32)> = (0..n - 8).map(|v| (v, v + 1)).collect();
    for v in 0..n {
        if v % 3 == 0 {
            edges.push((v, (v * 7 + 2) % n));
        }
        if v % 5 == 1 {
            edges.push((v, (v * 11 + 3) % n));
        }
    }
    GraphBuilder::from_edges_exact(n as usize, edges).unwrap()
}

/// A graph past both `sr-par` fork cutovers ([`sr_par::FORK_MIN_EDGES`]
/// edges, [`sr_par::FORK_MIN_ELEMENTS`] nodes): eight scattered out-links
/// per node, every tenth node dangling.
fn forking_pages() -> CsrGraph {
    let n = 300_000u64;
    let mut offsets = vec![0usize];
    let mut targets = Vec::new();
    for u in 0..n {
        if u % 10 != 9 {
            let mut row: Vec<u32> = (1..=8u64)
                .map(|j| u32::try_from((u * (2 * j + 1) + j * j * 7919) % n).unwrap())
                .collect();
            row.sort_unstable();
            row.dedup();
            targets.extend(row);
        }
        offsets.push(targets.len());
    }
    let g = CsrGraph::from_parts(offsets, targets);
    assert!(g.num_edges() >= sr_par::FORK_MIN_EDGES);
    assert!(g.num_nodes() >= sr_par::FORK_MIN_ELEMENTS);
    g
}

/// A weighted chain whose rows sum to 0.9, so row deficits feed the
/// dangling path.
fn deficit_chain(n: u32) -> WeightedGraph {
    let triples = (0..n)
        .flat_map(|u| [(u, (u + 1) % n, 0.6), (u, (u * 7 + 3) % n, 0.3)])
        .collect();
    WeightedGraph::from_triples(n as usize, triples)
}

/// Seeded columns at spread damping factors: personalized teleports send
/// the dangling mass back through the seeds, and the spread staggers
/// retirement.
fn columns(n: u32) -> Vec<SolveColumn> {
    (0..6u32)
        .map(|j| {
            let seeds = [(j * 37 + 2) % n, (j * 53 + 11) % n];
            let alpha = 0.5 + 0.08 * f64::from(j);
            SolveColumn::new(alpha, Teleport::over_seeds(n as usize, &seeds))
        })
        .collect()
}

fn run(op: &dyn Transition, request: &SolveRequest) -> Vec<RankVector> {
    solve(op, request, &mut SolverWorkspace::new(), &mut [])
}

/// Checks every column of `request` against its one-column request, bit for
/// bit.
fn check_columns(op: &dyn Transition, request: &SolveRequest) {
    let batched = run(op, request);
    for (j, column) in request.columns.iter().enumerate() {
        let single = SolveRequest {
            columns: vec![column.clone()],
            ..request.clone()
        };
        let want = run(op, &single).remove(0);
        assert_eq!(batched[j].scores(), want.scores(), "column {j} scores");
        assert_eq!(batched[j].stats(), want.stats(), "column {j} stats");
    }
}

#[test]
fn multi_column_requests_equal_one_column_requests_bitwise() {
    // Below the edge cutover the operators keep one chunk and their panels
    // scatter along forward rows.
    let uniform_graph = pages(5000);
    let weighted_graph = deficit_chain(300);
    let uniform = UniformTransition::new(&uniform_graph);
    let weighted = WeightedTransition::new(&weighted_graph);
    assert_eq!(uniform.partition().num_chunks(), 1);
    for (op, n) in [
        (&uniform as &dyn Transition, 5000),
        (&weighted as &dyn Transition, 300),
    ] {
        for formulation in [Formulation::Eigenvector, Formulation::LinearSystem] {
            let request = SolveRequest::new(columns(n)).formulation(formulation);
            check_columns(op, &request);
        }
    }

    // Past it, a 2-thread operator splits into two chunks and its panels
    // gather over reverse rows, forked. The formulations above only change
    // the epilogue, which is chunk-blind; three iterations keep this case
    // seconds-long, and capped solves must agree bit for bit too.
    let g = forking_pages();
    let n = g.num_nodes() as u32;
    let ((), forks) = forked(|| {
        sr_par::with_threads(2, || {
            let op = UniformTransition::new(&g);
            assert_eq!(op.partition().num_chunks(), 2);
            let request =
                SolveRequest::new(columns(n)[..2].to_vec()).criteria(ConvergenceCriteria {
                    max_iterations: 3,
                    ..Default::default()
                });
            check_columns(&op, &request);
        })
    });
    assert!(forks, "the multi-chunk panels never forked");
}

/// Pins one operator's footprint through the solves a caller runs: one
/// copy of the edges (`edge_bytes`, at most twice over with the per-node
/// vectors) and no CSR after one-column solves, exactly one CSR
/// (`csr_bytes`) more after K-column ones.
fn check_footprint(
    op: &dyn Transition,
    heap_bytes: &dyn Fn() -> usize,
    edge_bytes: usize,
    csr_bytes: usize,
) {
    let n = op.num_nodes() as u32;
    let built = heap_bytes();
    assert!(
        (edge_bytes..2 * edge_bytes).contains(&built),
        "{built} heap bytes for {edge_bytes} bytes of edges"
    );
    run(op, &SolveRequest::new(vec![SolveColumn::default()]));
    assert_eq!(heap_bytes(), built, "a one-column solve built a CSR");
    for _ in 0..2 {
        run(op, &SolveRequest::new(columns(n)));
        assert_eq!(
            heap_bytes(),
            built + csr_bytes,
            "K-column solves hold one CSR more"
        );
    }
}

#[test]
fn operators_hold_one_copy_of_the_edges() {
    // Both sizes are below the edge cutover: the operators keep one chunk
    // and their panel CSR holds the forward rows (a multi-chunk operator's
    // holds as many reverse rows, the same bytes).
    for n in [3000u32, 5000] {
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|u| (1..=12u32).map(move |j| (u, (u * 31 + j * j * 7) % n)))
            .collect();
        let g = GraphBuilder::from_edges_exact(n as usize, edges).unwrap();
        let w = WeightedGraph::from_triples(
            n as usize,
            g.edges()
                .map(|(u, v)| (u, v, 1.0 / g.out_degree(u) as f64))
                .collect(),
        );
        let m = g.num_edges();
        let uniform = UniformTransition::new(&g);
        let weighted = WeightedTransition::new(&w);
        check_footprint(
            &uniform,
            &|| uniform.heap_bytes(),
            m * std::mem::size_of::<u32>(),
            g.heap_bytes(),
        );
        check_footprint(
            &weighted,
            &|| weighted.heap_bytes(),
            m * (std::mem::size_of::<u32>() + std::mem::size_of::<f64>()),
            w.heap_bytes(),
        );
    }
}

#[test]
fn observed_solves_equal_unobserved_bitwise() {
    let g = pages(5000);
    let op = UniformTransition::new(&g);
    let request = SolveRequest::new(columns(5000));
    let mut recorders: Vec<RecordingObserver> = request
        .columns
        .iter()
        .map(|_| RecordingObserver::new())
        .collect();
    let mut slots: Vec<_> = recorders
        .iter_mut()
        .map(|r| Some(r as &mut dyn sr_obs::SolveObserver))
        .collect();
    let observed = solve(&op, &request, &mut SolverWorkspace::new(), &mut slots);
    assert_eq!(observed, run(&op, &request));
    for (rec, rank) in recorders.iter().zip(&observed) {
        assert_eq!(rec.telemetry().iterations, rank.stats().iterations);
        assert_eq!(rec.telemetry().residuals, rank.stats().residual_history);
    }

    let pr = PageRank::default();
    let mut rec = RecordingObserver::new();
    let watched = pr.rank_operator_warm_in(&op, None, &mut SolverWorkspace::new(), Some(&mut rec));
    assert_eq!(watched, pr.rank(&g));
    assert_eq!(rec.telemetry().residuals, watched.stats().residual_history);
}

#[test]
fn solves_are_bitwise_identical_at_one_and_two_threads() {
    // PageRank over a graph past the fork cutovers forks at two threads;
    // SR-SourceRank over a small source graph stays inline at either
    // count. Neither may move a bit, a residual or an iteration.
    let pages = forking_pages();
    let crawl = generate(&CrawlConfig::tiny(5));
    let sources = crawl.source_graph(SourceGraphConfig::consensus());
    let spam = crawl.sample_spam_seed(3, 9);
    let solve = |threads: usize| {
        sr_par::with_threads(threads, || {
            let kappa = SpamProximity::new()
                .throttle_top_k(&sources, &spam, 6)
                .unwrap();
            let resilient = SpamResilientSourceRank::builder()
                .throttle(kappa)
                .build(&sources)
                .rank();
            (PageRank::default().rank(&pages), resilient)
        })
    };
    let bits = |v: &RankVector| v.scores().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let one = solve(1);
    let (two, forks) = forked(|| solve(2));
    assert!(forks, "the 2-thread PageRank never forked");
    for (label, a, b) in [
        ("pagerank", &one.0, &two.0),
        ("sr-sourcerank", &one.1, &two.1),
    ] {
        assert_eq!(bits(a), bits(b), "{label}: scores");
        assert_eq!(a.stats(), b.stats(), "{label}: iterations and residuals");
        assert!(a.stats().converged, "{label}: converged");
    }
}

#[test]
fn tiny_shard_solves_equal_csr_solves_bitwise() {
    let g = pages(300);
    let dir = std::env::temp_dir().join(format!("sourcerank_invariants_{}", std::process::id()));
    let path = dir.join("g.shards");
    // One-byte shard targets and 16-byte pages: every row is its own shard
    // and every read crosses page seams.
    let mut sharded = sr_graph::shard::build_from_csr(&g, &dir, &path, 1).unwrap();
    sharded.set_page_size(16);
    for pr in [
        PageRank::default(),
        PageRank::builder()
            .teleport(Teleport::over_seeds(300, &[4, 150]))
            .finish(),
    ] {
        let streamed = StreamedTransition::from_sharded(&sharded);
        let on_disk = pr.rank_operator_warm_in(&streamed, None, &mut SolverWorkspace::new(), None);
        assert_eq!(on_disk, pr.rank(&g));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn incremental_reranking_equals_a_cold_rebuild() {
    let tight = ConvergenceCriteria {
        tolerance: 1e-14,
        max_iterations: 5_000,
    };
    let base = pages(400);
    let assignment = SourceAssignment::new((0..400).map(|p| p / 40).collect(), 10).unwrap();
    let config = IncrementalConfig {
        criteria: tight,
        ..Default::default()
    };
    let mut ranker = IncrementalRanker::new(base, &assignment, config).unwrap();
    let mut kappa = ThrottleVector::zeros(10);
    kappa.set(3, 1.0);
    kappa.set(7, 0.5);
    ranker.set_throttle(kappa);
    for step in 0..4u32 {
        // A small link farm in a fresh source pointing at page `step`, plus
        // one removed and one hijacked edge among the existing pages.
        let n = ranker.num_pages() as u32;
        let mut delta = CrawlDelta::new();
        delta.graph.add_nodes(3);
        delta.new_sources = 1;
        let new_source = ranker.num_sources() as u32;
        delta.new_page_sources = vec![new_source; 3];
        for farm in n..n + 3 {
            delta.graph.add_edge(farm, step);
            delta.graph.add_edge(step * 13 % n, farm);
        }
        delta.graph.remove_edge(step * 3, step * 3 + 1);
        delta.graph.add_edge(step * 29 + 5, step);
        let out = ranker.apply(&delta, None).unwrap();

        let rebuilt = ranker.graph().to_csr();
        let sources = extract(
            &rebuilt,
            &ranker.maintainer().assignment(),
            SourceGraphConfig::consensus(),
        )
        .unwrap();
        let cold = [
            PageRank::builder().criteria(tight).finish().rank(&rebuilt),
            SourceRank::new().criteria(tight).rank(&sources),
            SpamResilientSourceRank::builder()
                .criteria(tight)
                .throttle(ranker.kappa().clone())
                .build(&sources)
                .rank(),
        ];
        for (warm, cold) in [&out.pagerank, &out.sourcerank, &out.resilient]
            .into_iter()
            .zip(&cold)
        {
            assert_eq!(warm.len(), cold.len());
            for (a, b) in warm.scores().iter().zip(cold.scores()) {
                assert!((a - b).abs() <= 1e-12, "step {step}: {a} vs {b}");
            }
        }
    }
}

#[test]
fn served_epochs_solve_over_their_published_graph_bitwise() {
    let _forking = forking();
    let crawl = generate(&CrawlConfig::tiny(17));
    let cfg = EngineConfig {
        cache_walks: 0,
        ..Default::default()
    };
    let cache = std::env::temp_dir().join(format!(
        "sourcerank_epoch_graph_{}.walks",
        std::process::id()
    ));
    let (mut engine, seed) = EpochEngine::seed(
        crawl.pages.clone(),
        &crawl.assignment,
        crawl.sample_spam_seed(2, 9),
        &cfg,
        &cache,
    )
    .unwrap();
    std::fs::remove_file(&cache).ok();
    let pagerank = PageRank::builder()
        .alpha(cfg.alpha)
        .criteria(cfg.criteria)
        .finish();
    let bits = |v: &RankVector| v.scores().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let fresh_solve = |graph: &CsrGraph, start: Option<&RankVector>| {
        pagerank.rank_operator_warm_in(
            &UniformTransition::new(graph),
            start.map(RankVector::scores),
            &mut SolverWorkspace::new(),
            None,
        )
    };
    assert_eq!(bits(&seed.pagerank), bits(&fresh_solve(&seed.pages, None)));

    let mut producer = CrawlDeltaProducer::from_crawl(&crawl, ProducerConfig::tiny(4));
    let mut deltas: Vec<CrawlDelta> = (0..6).map(|_| producer.next_delta()).collect();
    // Last, a delta that only appends pages: it patches no row, so the
    // patched-row fraction alone would never fold it.
    let mut append_only = CrawlDelta::new();
    append_only.graph.add_nodes(3);
    append_only.new_page_sources = vec![0; 3];
    deltas.push(append_only);

    let mut previous = seed.pagerank;
    for (seq, delta) in (1u64..).zip(&deltas) {
        let snap = engine.step(seq, delta).unwrap();
        let (graph, _) = engine
            .epoch_graph()
            .expect("the serving default folds every epoch");
        assert!(Arc::ptr_eq(&snap.pages, &graph), "seq {seq}: pages copied");
        let want = fresh_solve(&snap.pages, Some(&previous));
        assert_eq!(bits(&snap.pagerank), bits(&want), "seq {seq}");
        previous = snap.pagerank;
    }
}

/// The tiny crawl with every out-link of one non-spam source's pages
/// removed, and that source: generated crawls have no source without
/// out-links, so this is where extraction's weight-1 self-loop row meets
/// both reversed walks at crawl shape.
fn dangling_source_crawl() -> (sr_gen::SyntheticCrawl, SourceGraph, u32) {
    let crawl = generate(&CrawlConfig::tiny(5));
    let full = crawl.source_graph(SourceGraphConfig::consensus());
    let quiet = sr_graph::ids::node_range(crawl.num_sources())
        .find(|s| !crawl.spam_sources.contains(s) && full.self_weight(SourceId(*s)) < 1.0)
        .expect("a non-spam source with out-links");
    let source_of = |p: u32| crawl.assignment.source_of(PageId(p)).0;
    let edges = crawl.pages.edges().filter(|&(u, _)| source_of(u) != quiet);
    let pages = GraphBuilder::from_edges_exact(crawl.num_pages(), edges).unwrap();
    let sg = extract(&pages, &crawl.assignment, SourceGraphConfig::consensus()).unwrap();
    (crawl, sg, quiet)
}

#[test]
fn spam_proximity_is_one_solve_bitwise() {
    let (crawl, sg, quiet) = dangling_source_crawl();
    assert_eq!(sg.self_weight(SourceId(quiet)), 1.0);
    let seed_sets = [
        crawl.sample_spam_seed(3, 9),
        crawl.spam_sources.clone(),
        vec![quiet, crawl.spam_sources[0]],
    ];
    let bits = |v: &RankVector| v.scores().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for weighting in [ProximityWeighting::Consensus, ProximityWeighting::Uniform] {
        let prox = SpamProximity::new().weighting(weighting);
        let batch = prox.scores_batch(&sg, &seed_sets).unwrap();
        for (seeds, column) in seed_sets.iter().zip(&batch) {
            let one = prox.scores(&sg, seeds).unwrap();
            assert_eq!(bits(&one), bits(column), "{weighting:?}: scores");
            assert_eq!(one.stats(), column.stats(), "{weighting:?}: stats");
            assert!(one.stats().converged, "{weighting:?}: converged");
            assert!(one.scores().iter().all(|x| x.is_finite()));
            let total: f64 = one.scores().iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "{weighting:?}: mass {total}");
        }
    }
    // The uniform weighting is seeded PageRank over the transpose.
    let reversed = transpose(sg.structural());
    let uniform = SpamProximity::new().weighting(ProximityWeighting::Uniform);
    for seeds in &seed_sets {
        let pagerank = PageRank::builder()
            .teleport(Teleport::try_over_seeds(sg.num_sources(), seeds).unwrap())
            .finish()
            .rank(&reversed);
        let one = uniform.scores(&sg, seeds).unwrap();
        assert_eq!(bits(&one), bits(&pagerank), "uniform vs PageRank: scores");
        assert_eq!(one.stats(), pagerank.stats(), "uniform vs PageRank: stats");
    }
}

/// The approx suite's 60-node fixture: ring + chords + a dangling tail.
fn walk_fixture() -> CsrGraph {
    let n = 60u32;
    let mut edges: Vec<(u32, u32)> = (0..n - 2).map(|v| (v, (v + 1) % (n - 2))).collect();
    for v in 0..n - 2 {
        if v % 3 == 0 {
            edges.push((v, (v * 7 + 2) % (n - 2)));
        }
        if v % 5 == 1 {
            edges.push((v, (v * 11 + 3) % (n - 2)));
        }
    }
    edges.push((4, n - 2));
    edges.push((n - 2, n - 1));
    GraphBuilder::from_edges_exact(n as usize, edges).unwrap()
}

fn walk_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sourcerank_walks_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.walks"))
}

#[test]
fn approx_ppr_stays_within_its_epsilon_delta_bound() {
    let _forking = forking();
    // Across independently seeded caches, the max-node additive error
    // exceeds ε_tol = 0.02 in at most a δ = 0.1 share of trials.
    // Spam proximity under the uniform weighting is seeded PageRank over
    // the transpose; the caches approximate that reversed walk.
    let rev = transpose(&walk_fixture());
    let exact = PageRank::builder()
        .teleport(Teleport::try_over_seeds(rev.num_nodes(), &[0, 17]).unwrap())
        .finish()
        .rank(&rev);
    let pr = PageRank::default();
    let q = QueryConfig {
        epsilon: 0.05,
        max_rounds: 10_000,
    };
    let (trials, eps_tol, delta) = (40usize, 0.02f64, 0.1f64);
    let mut violations = 0usize;
    for t in 0..trials {
        let config = WalkCacheConfig {
            walks: 128,
            seed: 0xC0FFEE + t as u64,
            ..Default::default()
        };
        let cache = pr
            .build_walk_cache(&rev, config, &walk_path(&format!("delta_{t}")))
            .unwrap();
        let approx = pr
            .approx(&rev, &cache)
            .unwrap()
            .query(&[0, 17], &q)
            .unwrap();
        let max_err = approx
            .scores()
            .iter()
            .zip(exact.scores())
            .map(|(a, e)| (a - e).abs())
            .fold(0.0f64, f64::max);
        violations += usize::from(max_err > eps_tol);
    }
    assert!(
        violations as f64 <= delta * trials as f64,
        "ε_tol {eps_tol} violated in {violations}/{trials} trials"
    );
}

#[test]
fn walk_caches_round_trip_bitwise() {
    let _forking = forking();
    // A cache rebuilt from scratch, one reopened from its file and one read
    // from its bytes hold identical bytes and answer bit-identically.
    let g = walk_fixture();
    let rev = transpose(&g);
    let config = WalkCacheConfig {
        walks: 24,
        ..Default::default()
    };
    let builder = WalkCacheBuilder::new(config);
    drop(builder.build(&rev, &walk_path("first")).unwrap());
    let rebuilt = builder.build(&rev, &walk_path("second")).unwrap();
    let bytes = std::fs::read(walk_path("first")).unwrap();
    assert_eq!(bytes, std::fs::read(walk_path("second")).unwrap());
    let reopened = WalkStore::open(&walk_path("first")).unwrap();
    let from_bytes = WalkStore::from_bytes(bytes).unwrap();
    let score_bits = |cache: &WalkStore| -> Vec<u64> {
        ApproxPpr::new(&rev, cache)
            .unwrap()
            .query(&[11, 29], &QueryConfig::default())
            .unwrap()
            .scores()
            .iter()
            .map(|x| x.to_bits())
            .collect()
    };
    let want = score_bits(&rebuilt);
    assert_eq!(score_bits(&reopened), want);
    assert_eq!(score_bits(&from_bytes), want);
    reopened.validate().unwrap();
}

/// The push frontier sizes of a query from `seeds` over the walk graph `g`,
/// rounds `0..=rounds`: round t pushes exactly the nodes that some t-step
/// walk from a seed reaches (every residual is positive, so none cancels).
fn frontier_sizes(g: &CsrGraph, seeds: &[u32], rounds: usize) -> Vec<usize> {
    let mut frontier = seeds.to_vec();
    let mut sizes = vec![frontier.len()];
    for _ in 0..rounds {
        let mut reached = vec![false; g.num_nodes()];
        for &u in &frontier {
            for &v in g.neighbors(u) {
                reached[v as usize] = true;
            }
        }
        frontier = sr_graph::ids::node_range(g.num_nodes())
            .filter(|&v| reached[v as usize])
            .collect();
        sizes.push(frontier.len());
    }
    sizes
}

#[test]
fn approx_queries_take_one_sequential_path() {
    // A served-shape query (ε 0.25, R = 32) on the tiny crawl: some round
    // pushes n/8 nodes or more, and the closing reads more than 256 rows,
    // sizes at which splitting the push or the closing across threads can
    // look worth it. At two threads the query must still run inline and
    // give the one-thread bits.
    let crawl = generate(&CrawlConfig::tiny(7));
    let pages = &crawl.pages;
    let pr = PageRank::default();
    // The build forks its coarse tasks; only the query is checked.
    let cache = {
        let _forking = forking();
        pr.build_walk_cache(pages, WalkCacheConfig::default(), &walk_path("one_path"))
            .unwrap()
    };
    let engine = pr.approx(pages, &cache).unwrap();
    let seeds = [3, 400, 901];
    let q = QueryConfig {
        epsilon: 0.25,
        max_rounds: 10_000,
    };
    let one = sr_par::with_threads(1, || engine.query(&seeds, &q).unwrap());
    let (two, forks) = forked(|| sr_par::with_threads(2, || engine.query(&seeds, &q).unwrap()));
    assert!(!forks, "a 2-thread approx query forked");
    let bits = |v: &RankVector| v.scores().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&one), bits(&two), "scores at one and two threads");
    assert_eq!(one.stats(), two.stats());
    let rounds = one.stats().iterations;
    let sizes = frontier_sizes(pages, &seeds, rounds);
    assert!(
        sizes[..rounds].iter().any(|&s| s * 8 >= pages.num_nodes()),
        "no round saturated: {sizes:?}"
    );
    assert!(sizes[rounds] >= 256, "a small closing: {sizes:?}");
}

/// A source graph's CSR parts, weights as bits.
fn source_graph_bits(sg: &SourceGraph) -> (Vec<usize>, Vec<u32>, Vec<u64>, CsrGraph) {
    let t = sg.transitions();
    let weights = t.weights().iter().map(|w| w.to_bits()).collect();
    let structural = sg.structural().clone();
    (
        t.offsets().to_vec(),
        t.targets().to_vec(),
        weights,
        structural,
    )
}

#[test]
fn source_graph_extraction_and_maintenance_agree_bitwise() {
    // 40,000 sources of 7–8 scattered pages each over a page graph past
    // the edge cutover: two threads split the sources into page-balanced
    // ranges, and every row is built alone, so the bits cannot move.
    let pages = forking_pages();
    let map = (0..pages.num_nodes())
        .map(|p| u32::try_from(p * 7919 % 40_000).unwrap())
        .collect();
    let assignment = SourceAssignment::new(map, 40_000).unwrap();
    let config = SourceGraphConfig::consensus();
    let one = sr_par::with_threads(1, || extract(&pages, &assignment, config).unwrap());
    let (two, forks) =
        forked(|| sr_par::with_threads(2, || extract(&pages, &assignment, config).unwrap()));
    assert!(forks, "the 2-thread extraction never forked");
    assert_eq!(source_graph_bits(&one), source_graph_bits(&two));

    // The incremental maintainer rebuilds only the rows a delta touches,
    // with the same row builder; the stream adds pages, links, removals,
    // new sources and a spam campaign.
    let crawl = generate(&CrawlConfig::tiny(11));
    let mut overlay = DeltaOverlay::new(crawl.pages.clone());
    let mut maintainer =
        SourceGraphMaintainer::new(overlay.base(), &crawl.assignment, config).unwrap();
    let mut producer = CrawlDeltaProducer::from_crawl(&crawl, ProducerConfig::tiny(3));
    for step in 1..=10 {
        let delta = producer.next_delta();
        overlay.apply(&delta.graph).unwrap();
        maintainer.apply(&overlay, &delta).unwrap();
        let full = extract(&overlay.to_csr(), &maintainer.assignment(), config).unwrap();
        assert_eq!(
            source_graph_bits(&maintainer.source_graph()),
            source_graph_bits(&full),
            "delta {step}"
        );
    }
}
