//! Tier-1 guard for the solver's load-bearing invariants.
//!
//! Small, seconds-long instances of the contracts the differential suites
//! under `crates/core/tests` sweep at scale, run through the public crates
//! so that `cargo test` at the workspace root fails the moment one breaks:
//!
//! * a K-column solve request ≡ its one-column requests, bit for bit, on
//!   the uniform and the weighted operator under both dangling policies;
//! * an observed solve ≡ the unobserved one, bit for bit;
//! * a solve streamed off tiny on-disk shards ≡ the in-RAM CSR solve, bit
//!   for bit;
//! * incremental warm re-ranking ≡ a cold rebuild within `1e-12` at a
//!   stopping tolerance of `1e-14`.

use sr_core::operator::{Transition, UniformTransition, WeightedTransition};
use sr_core::streamed::StreamedTransition;
use sr_core::{
    solve, ConvergenceCriteria, DanglingPolicy, Formulation, IncrementalConfig, IncrementalRanker,
    PageRank, RankVector, SolveColumn, SolveRequest, SolverWorkspace, SourceRank,
    SpamResilientSourceRank, Teleport, ThrottleVector,
};
use sr_graph::delta::CrawlDelta;
use sr_graph::source_graph::{extract, SourceGraphConfig};
use sr_graph::{CsrGraph, GraphBuilder, SourceAssignment, WeightedGraph};
use sr_obs::RecordingObserver;

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
