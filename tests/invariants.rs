//! Tier-1 guard for the solver's load-bearing invariants.
//!
//! Small, seconds-long instances of the contracts the differential suites
//! under `crates/core/tests` sweep at scale, run through the public crates
//! so that `cargo test` at the workspace root fails the moment one breaks:
//!
//! * a K-column solve request ≡ its one-column requests, bit for bit, on
//!   the uniform and the weighted operator under both dangling policies;
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
//! * approximate PPR off a walk cache stays within its (ε, δ) additive
//!   bound of the exact solve, and a rebuilt, a reopened and a from-bytes
//!   cache answer bit-identically (so tier-1 writes and reads the
//!   walk-cache file).

use std::sync::Arc;

use sr_core::approx::{ApproxPpr, QueryConfig, WalkCacheBuilder, WalkCacheConfig};
use sr_core::operator::{Transition, UniformTransition, WeightedTransition};
use sr_core::streamed::StreamedTransition;
use sr_core::SpamProximity;
use sr_core::{
    solve, ConvergenceCriteria, DanglingPolicy, Formulation, IncrementalConfig, IncrementalRanker,
    PageRank, RankVector, SolveColumn, SolveRequest, SolverWorkspace, SourceRank,
    SpamResilientSourceRank, Teleport, ThrottleVector,
};
use sr_gen::{generate, CrawlConfig, CrawlDeltaProducer, ProducerConfig};
use sr_graph::delta::CrawlDelta;
use sr_graph::source_graph::{extract, SourceGraphConfig};
use sr_graph::transpose::transpose;
use sr_graph::walks::WalkStore;
use sr_graph::{CsrGraph, GraphBuilder, SourceAssignment, WeightedGraph};
use sr_obs::RecordingObserver;
use sr_serve::engine::{EngineConfig, EpochEngine};

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

/// A weighted chain whose rows sum to 0.9, so row deficits feed the
/// dangling path.
fn deficit_chain(n: u32) -> WeightedGraph {
    let triples = (0..n)
        .flat_map(|u| [(u, (u + 1) % n, 0.6), (u, (u * 7 + 3) % n, 0.3)])
        .collect();
    WeightedGraph::from_triples(n as usize, triples)
}

/// Seeded columns at spread damping factors: personalized teleports make
/// the two dangling policies differ, and the spread staggers retirement.
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

#[test]
fn multi_column_requests_equal_one_column_requests_bitwise() {
    let uniform_graph = pages(5000);
    let weighted_graph = deficit_chain(300);
    let uniform = UniformTransition::new(&uniform_graph);
    let weighted = WeightedTransition::new(&weighted_graph);
    for (op, n) in [
        (&uniform as &dyn Transition, 5000),
        (&weighted as &dyn Transition, 300),
    ] {
        for dangling in [
            DanglingPolicy::StronglyPreferential,
            DanglingPolicy::WeaklyPreferential,
        ] {
            for formulation in [Formulation::Eigenvector, Formulation::LinearSystem] {
                let request = SolveRequest::new(columns(n))
                    .formulation(formulation)
                    .dangling(dangling);
                let batched = run(op, &request);
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
        }
    }
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
    // Below the parallel cutover the operators run one chunk and scatter
    // along forward rows; past it, one chunk per worker gathers over
    // reverse rows.
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
    let request = SolveRequest::new(columns(5000)).dangling(DanglingPolicy::WeaklyPreferential);
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
            .dangling(DanglingPolicy::WeaklyPreferential)
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
        ..Default::default()
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
    // Across independently seeded caches, the max-node additive error
    // exceeds ε_tol = 0.02 in at most a δ = 0.1 share of trials.
    let g = walk_fixture();
    let prox = SpamProximity::new();
    let exact = prox.scores_uniform(&g, &[0, 17]).unwrap();
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
        let cache = prox
            .build_walk_cache(&g, config, &walk_path(&format!("delta_{t}")))
            .unwrap();
        let approx = prox
            .approx(&g, cache)
            .unwrap()
            .scores(&[0, 17], &q)
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
