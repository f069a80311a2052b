//! Property-based tests over the core data structures and algorithms.

use proptest::prelude::*;

use sr_core::streamed::StreamedTransition;
use sr_core::{
    throttle, ConvergenceCriteria, PageRank, SolverWorkspace, SourceRank, Teleport, ThrottleVector,
};
use sr_graph::source_graph::{extract, SourceGraphConfig};
use sr_graph::transpose::transpose;
use sr_graph::{GraphBuilder, SourceAssignment, WeightedGraph};

/// Strategy: an arbitrary directed graph with up to `n` nodes / `m` edges.
fn arb_graph(n: u32, m: usize) -> impl Strategy<Value = sr_graph::CsrGraph> {
    (2..n).prop_flat_map(move |nodes| {
        proptest::collection::vec((0..nodes, 0..nodes), 0..m)
            .prop_map(move |edges| GraphBuilder::from_edges_exact(nodes as usize, edges).unwrap())
    })
}

/// Strategy: a row-stochastic weighted graph (every node gets 1-4 out-edges
/// with positive weights, then normalized).
fn arb_stochastic(n: u32) -> impl Strategy<Value = WeightedGraph> {
    (2..n).prop_flat_map(move |nodes| {
        proptest::collection::vec(
            proptest::collection::vec((0..nodes, 0.05f64..1.0), 1..4),
            nodes as usize,
        )
        .prop_map(move |rows| {
            let mut triples = Vec::new();
            for (i, row) in rows.iter().enumerate() {
                for &(j, w) in row {
                    triples.push((i as u32, j, w));
                }
            }
            let mut g = WeightedGraph::from_triples(nodes as usize, triples);
            g.normalize_rows();
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compression_roundtrips(g in arb_graph(200, 600), shard_bytes in 16usize..1024) {
        // Through a shard file: the codec rows decode back to the reverse
        // graph, and PageRank solved off the file has the same bits.
        let dir = std::env::temp_dir()
            .join(format!("sourcerank_prop_shards_{}", std::process::id()));
        let sharded =
            sr_graph::shard::build_from_csr(&g, &dir, &dir.join("g.shards"), shard_bytes).unwrap();
        prop_assert_eq!(sharded.to_csr().unwrap(), transpose(&g));
        let on_disk = PageRank::default().rank_operator_warm_in(
            &StreamedTransition::from_sharded(&sharded),
            None,
            &mut SolverWorkspace::new(),
            None,
        );
        prop_assert_eq!(on_disk.scores(), PageRank::default().rank(&g).scores());
    }

    #[test]
    fn transpose_is_an_involution(g in arb_graph(120, 400)) {
        prop_assert_eq!(transpose(&transpose(&g)), g.clone());
        prop_assert_eq!(transpose(&g).num_edges(), g.num_edges());
    }

    #[test]
    fn pagerank_is_a_distribution(g in arb_graph(80, 300)) {
        let r = PageRank::default().rank(&g);
        let sum: f64 = r.scores().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(r.scores().iter().all(|&s| s >= 0.0));
        prop_assert!(r.stats().converged);
    }

    #[test]
    fn percentiles_are_consistent(g in arb_graph(60, 200)) {
        let r = PageRank::default().rank(&g);
        let pct = r.percentiles();
        for (node, &p) in pct.iter().enumerate() {
            prop_assert!((0.0..100.0).contains(&p) || p == 0.0);
            prop_assert!((r.percentile(node as u32) - p).abs() < 1e-12);
        }
        // Order consistency: a strictly higher score implies >= percentile.
        let order = r.sorted_desc();
        for w in order.windows(2) {
            prop_assert!(pct[w[0] as usize] >= pct[w[1] as usize]);
        }
    }

    #[test]
    fn throttle_preserves_stochastic_rows(
        t in arb_stochastic(40),
        kappa in 0.0f64..=1.0,
    ) {
        let n = t.num_nodes();
        let out = throttle::apply(&t, &ThrottleVector::uniform(n, kappa));
        for i in 0..n as u32 {
            let sum = out.row_sum(i);
            // Rows with any mass stay stochastic; empty rows can only occur
            // when the input row was empty and kappa == 0.
            prop_assert!(sum == 0.0 || (sum - 1.0).abs() < 1e-9,
                "row {i} sums to {sum}");
            // The transform enforces the self-edge minimum.
            let self_w = out.weight(i, i).unwrap_or(0.0);
            prop_assert!(self_w >= kappa - 1e-12 || sum == 0.0);
        }
    }

    #[test]
    fn throttling_never_raises_other_sources_inflow(
        t in arb_stochastic(30),
        victim in 0u32..30,
    ) {
        // Fully throttling one source must not increase the transition
        // probability INTO any other source from that source.
        let n = t.num_nodes();
        let victim = victim % n as u32;
        let mut kappa = ThrottleVector::zeros(n);
        kappa.set(victim, 1.0);
        let out = throttle::apply(&t, &kappa);
        for j in 0..n as u32 {
            if j != victim {
                let w = out.weight(victim, j).unwrap_or(0.0);
                prop_assert!(w <= 1e-12, "victim still exports {w} to {j}");
            }
        }
    }

    #[test]
    fn source_graph_rows_are_stochastic(g in arb_graph(60, 300)) {
        // Assign nodes to sources round-robin.
        let n = g.num_nodes();
        let sources = (n / 4).max(1);
        let map: Vec<u32> = (0..n).map(|p| (p % sources) as u32).collect();
        let a = SourceAssignment::new(map, sources).unwrap();
        let sg = extract(&g, &a, SourceGraphConfig::consensus()).unwrap();
        prop_assert!(sg.transitions().is_row_stochastic(1e-9));
        // Every source carries a self-edge entry.
        for s in 0..sources as u32 {
            prop_assert!(sg.transitions().neighbors(s).contains(&s));
        }
    }

    #[test]
    fn sourcerank_invariant_under_solver(t in arb_stochastic(25)) {
        // Wrap the stochastic matrix as a SourceGraph-free solve and check
        // Power vs Gauss-Seidel agreement on arbitrary chains.
        let crit = ConvergenceCriteria::default();
        let solve = |solver| sr_core::solver::solve_weighted(
            &t, 0.85, &Teleport::Uniform, &crit, solver, None, &mut SolverWorkspace::new(), None);
        let a = solve(sr_core::Solver::Power);
        let b = solve(sr_core::Solver::GaussSeidel);
        for i in 0..t.num_nodes() as u32 {
            prop_assert!((a.score(i) - b.score(i)).abs() < 1e-6,
                "node {i}: {} vs {}", a.score(i), b.score(i));
        }
    }

    #[test]
    fn teleport_seeding_is_a_distribution(
        seeds in proptest::collection::btree_set(0u32..50, 1..10)
    ) {
        let seeds: Vec<u32> = seeds.into_iter().collect();
        let t = Teleport::over_seeds(50, &seeds);
        let dense = t.to_dense(50);
        let sum: f64 = dense.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-12);
        for (i, &m) in dense.iter().enumerate() {
            let expected = if seeds.contains(&(i as u32)) {
                1.0 / seeds.len() as f64
            } else {
                0.0
            };
            prop_assert!((m - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn top_k_complete_counts(scores in proptest::collection::vec(0.0f64..1.0, 1..60),
                             k in 0usize..70) {
        let t = ThrottleVector::top_k_complete(&scores, k);
        prop_assert_eq!(t.fully_throttled(), k.min(scores.len()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generator_is_deterministic_and_well_formed(seed in 0u64..1000) {
        let mut cfg = sr_gen::CrawlConfig::tiny(seed);
        cfg.num_sources = 40;
        cfg.total_pages = 600;
        let a = sr_gen::generate(&cfg);
        let b = sr_gen::generate(&cfg);
        prop_assert_eq!(&a.pages, &b.pages);
        prop_assert_eq!(a.num_pages(), 600);
        prop_assert_eq!(a.num_sources(), 40);
        // Assignment covers the graph and spam labels are in range.
        prop_assert!(a.assignment.validate_for(&a.pages).is_ok());
        for &s in &a.spam_sources {
            prop_assert!((s as usize) < a.num_sources());
        }
        // SourceRank over it converges.
        let sg = a.source_graph(SourceGraphConfig::consensus());
        let r = SourceRank::new().rank(&sg);
        prop_assert!(r.stats().converged);
    }
}
