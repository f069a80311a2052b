//! Differential tests for the incremental re-ranking engine
//! (`sr_core::incremental`).
//!
//! Randomized delta sequences drive an [`IncrementalRanker`] and, after
//! every step, all three rankings (PageRank, SourceRank, SR-SourceRank)
//! are checked against a cold rebuild of the same state — CSR
//! materialization, full source-graph extraction, solves from uniform.
//! Under tight convergence criteria (tolerance `1e-14`) the warm and cold
//! fixed points must agree to `1e-12` per entry, whatever the deltas, the
//! throttle vector, or the compaction schedule. The unit tests inside
//! `incremental.rs` pin hand-picked sequences; this suite covers the
//! randomized space around them.

use proptest::prelude::*;

use sr_core::{
    ConvergenceCriteria, IncrementalConfig, IncrementalRanker, PageRank, RankVector, SourceRank,
    SpamResilientSourceRank, ThrottleVector,
};
use sr_graph::delta::{CrawlDelta, DeltaOverlay};
use sr_graph::source_graph::{extract, SourceGraphConfig};
use sr_graph::{CsrGraph, GraphBuilder, SourceAssignment};

fn tight() -> ConvergenceCriteria {
    ConvergenceCriteria {
        tolerance: 1e-14,
        max_iterations: 5_000,
    }
}

/// One randomized crawl increment in raw-ingredient form; endpoints are
/// reduced modulo the post-delta node count when the spec is realized.
#[derive(Debug, Clone)]
struct DeltaSpec {
    new_nodes: usize,
    new_sources: usize,
    ops: Vec<(bool, u32, u32)>,
    page_source_seeds: Vec<u32>,
}

fn arb_spec() -> impl Strategy<Value = DeltaSpec> {
    (
        0usize..3,
        0usize..2,
        proptest::collection::vec((any::<bool>(), any::<u32>(), any::<u32>()), 1..12),
        proptest::collection::vec(any::<u32>(), 3),
    )
        .prop_map(
            |(new_nodes, new_sources, ops, page_source_seeds)| DeltaSpec {
                new_nodes,
                new_sources,
                ops,
                page_source_seeds,
            },
        )
}

fn arb_base() -> impl Strategy<Value = (CsrGraph, SourceAssignment, Vec<f64>)> {
    (3u32..25, 2usize..5).prop_flat_map(|(n, num_sources)| {
        (
            proptest::collection::vec((0..n, 0..n), 1..80),
            proptest::collection::vec(0..num_sources as u32, n as usize),
            proptest::collection::vec(0.0f64..1.0, num_sources),
        )
            .prop_map(move |(edges, map, kappa)| {
                let g = GraphBuilder::from_edges_exact(n as usize, edges).unwrap();
                let a = SourceAssignment::new(map, num_sources).unwrap();
                (g, a, kappa)
            })
    })
}

fn realize(spec: &DeltaSpec, num_pages: usize, num_sources: usize) -> CrawlDelta {
    let total = (num_pages + spec.new_nodes) as u32;
    let mut delta = CrawlDelta::new();
    delta.graph.add_nodes(spec.new_nodes);
    delta.new_sources = spec.new_sources;
    for seed in spec.page_source_seeds.iter().take(spec.new_nodes) {
        delta
            .new_page_sources
            .push(seed % (num_sources + spec.new_sources) as u32);
    }
    for &(insert, us, vs) in &spec.ops {
        let (u, v) = (us % total, vs % total);
        if insert {
            delta.graph.add_edge(u, v);
        } else {
            delta.graph.remove_edge(u, v);
        }
    }
    delta
}

/// Cold-rebuild reference: materialize the CSR, extract the source graph
/// from scratch, solve all three models from uniform.
fn cold_reference(
    overlay: &DeltaOverlay,
    assignment: &SourceAssignment,
    kappa: &ThrottleVector,
) -> (RankVector, RankVector, RankVector) {
    let rebuilt = overlay.to_csr();
    let sg = extract(&rebuilt, assignment, SourceGraphConfig::consensus()).unwrap();
    let pr = PageRank::builder()
        .criteria(tight())
        .finish()
        .rank(&rebuilt);
    let sr = SourceRank::new().criteria(tight()).rank(&sg);
    let rr = SpamResilientSourceRank::builder()
        .criteria(tight())
        .throttle(kappa.clone())
        .build(&sg)
        .rank();
    (pr, sr, rr)
}

fn max_divergence(a: &RankVector, b: &RankVector) -> f64 {
    assert_eq!(a.scores().len(), b.scores().len());
    a.scores()
        .iter()
        .zip(b.scores())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Warm-incremental re-ranking equals a cold rebuild after every step
    /// of a random delta sequence, across all three rankings, with a
    /// random throttle vector in play.
    #[test]
    fn incremental_equals_cold_rebuild_on_random_sequences(
        base in arb_base(),
        specs in proptest::collection::vec(arb_spec(), 1..5),
        threshold_pick in 0usize..3,
    ) {
        let (g, a, kappa_values) = base;
        // Never / sometimes / always compact: all three schedules must agree.
        let config = IncrementalConfig {
            criteria: tight(),
            compact_threshold: [1.0, 0.25, 0.0][threshold_pick],
            ..Default::default()
        };
        let mut ranker = IncrementalRanker::new(g, &a, config).unwrap();
        let mut kappa = ThrottleVector::zeros(a.num_sources());
        for (s, &k) in kappa_values.iter().enumerate() {
            kappa.set(s as u32, k);
        }
        ranker.set_throttle(kappa);
        for spec in &specs {
            let delta = realize(spec, ranker.num_pages(), ranker.num_sources());
            let out = ranker.apply(&delta, None).unwrap();
            let (pr, sr, rr) = cold_reference(
                ranker.graph(),
                &ranker.maintainer().assignment(),
                ranker.kappa(),
            );
            prop_assert!(max_divergence(&out.pagerank, &pr) <= 1e-12);
            prop_assert!(max_divergence(&out.sourcerank, &sr) <= 1e-12);
            prop_assert!(max_divergence(&out.resilient, &rr) <= 1e-12);
            prop_assert_eq!(out.summary.nodes_added, spec.new_nodes);
        }
    }

    /// The maintained assignment and the overlay graph always agree with a
    /// from-scratch replay of the same deltas — the ranker never drifts
    /// from the substrate it wraps.
    #[test]
    fn ranker_state_matches_a_fresh_replay(
        base in arb_base(),
        specs in proptest::collection::vec(arb_spec(), 1..5),
    ) {
        let (g, a, _) = base;
        let mut ranker =
            IncrementalRanker::new(g.clone(), &a, IncrementalConfig::default()).unwrap();
        let mut overlay = DeltaOverlay::new(g);
        let mut deltas = Vec::new();
        for spec in &specs {
            let delta = realize(spec, ranker.num_pages(), ranker.num_sources());
            ranker.apply(&delta, None).unwrap();
            deltas.push(delta);
        }
        for delta in &deltas {
            overlay.apply(&delta.graph).unwrap();
        }
        prop_assert_eq!(ranker.graph().to_csr(), overlay.to_csr());
        prop_assert_eq!(ranker.num_pages(), overlay.num_nodes());
    }
}
