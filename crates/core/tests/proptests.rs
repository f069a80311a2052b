//! Property-based tests of the ranking core.

use proptest::prelude::*;

use sr_core::metrics::{average_ranks, kendall_tau, spearman_rho};
use sr_core::operator::reference::{NaiveUniformTransition, NaiveWeightedTransition};
use sr_core::operator::{Transition, UniformTransition, WeightedTransition};
use sr_core::power::reference::power_method_unfused;
use sr_core::throttle::{self, SelfEdgePolicy};
use sr_core::{
    solve, ConvergenceCriteria, PageRank, RankVector, SolveColumn, SolveRequest, SolverWorkspace,
    Teleport, ThrottleVector,
};
use sr_graph::{CompressedGraph, CsrGraph, GraphBuilder, WeightedGraph};

/// One default-walk solve of `column` over `op`.
fn power_solve(op: &dyn Transition, column: SolveColumn) -> RankVector {
    let request = SolveRequest::new(vec![column]);
    solve(op, &request, &mut SolverWorkspace::new(), &mut []).remove(0)
}

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2u32..100).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 1..400)
            .prop_map(move |edges| GraphBuilder::from_edges_exact(n as usize, edges).unwrap())
    })
}

fn arb_stochastic() -> impl Strategy<Value = WeightedGraph> {
    (2u32..60).prop_flat_map(|n| {
        proptest::collection::vec(
            proptest::collection::vec((0..n, 0.01f64..1.0), 1..5),
            n as usize,
        )
        .prop_map(move |rows| {
            let mut triples = Vec::new();
            for (i, row) in rows.iter().enumerate() {
                for &(j, w) in row {
                    triples.push((i as u32, j, w));
                }
            }
            let mut g = WeightedGraph::from_triples(n as usize, triples);
            g.normalize_rows();
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn propagate_conserves_mass(g in arb_graph()) {
        let op = UniformTransition::new(&g);
        let n = g.num_nodes();
        let x: Vec<f64> = (0..n).map(|i| ((i * 13) % 7 + 1) as f64).collect();
        let total: f64 = x.iter().sum();
        let mut y = vec![0.0; n];
        let dangling = op.propagate(&x, &mut y);
        let after: f64 = y.iter().sum::<f64>() + dangling;
        prop_assert!((after - total).abs() < 1e-9 * total.max(1.0));
    }

    #[test]
    fn weighted_propagate_conserves_mass(t in arb_stochastic()) {
        let op = WeightedTransition::new(&t);
        let n = t.num_nodes();
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
        let total: f64 = x.iter().sum();
        let mut y = vec![0.0; n];
        let dangling = op.propagate(&x, &mut y);
        prop_assert!((y.iter().sum::<f64>() + dangling - total).abs() < 1e-9);
    }

    #[test]
    fn fused_uniform_propagate_matches_reference(g in arb_graph()) {
        // Random graphs here carry dangling nodes (most nodes have no
        // out-edge at these densities), self-loops and duplicate edges; the
        // fused engine must agree with the seed kernel on all of them. The
        // packed gather preserves each row's accumulation order, so the
        // agreement is far tighter than the 1e-12 the contract asks for.
        let n = g.num_nodes();
        let fused = UniformTransition::new(&g);
        let naive = NaiveUniformTransition::new(&g);
        let x: Vec<f64> = (0..n).map(|i| 0.3 + ((i * 31) % 17) as f64 / 17.0).collect();
        let (mut yf, mut yn) = (vec![0.0; n], vec![0.0; n]);
        let df = fused.propagate(&x, &mut yf);
        let dn = naive.propagate(&x, &mut yn);
        prop_assert!((df - dn).abs() <= 1e-12, "dangling mass: {df} vs {dn}");
        for v in 0..n {
            prop_assert!((yf[v] - yn[v]).abs() <= 1e-12,
                "row {v}: fused {} vs reference {}", yf[v], yn[v]);
        }
    }

    #[test]
    fn fused_weighted_propagate_matches_reference(
        t in arb_stochastic(),
        kappa in 0.0f64..1.0,
    ) {
        // Surrender-throttling makes rows substochastic (mass evaporates to
        // teleport), exercising the deficit/dangling path of both kernels.
        let n = t.num_nodes();
        let kv = ThrottleVector::uniform(n, kappa);
        let t = throttle::apply_with_policy(&t, &kv, SelfEdgePolicy::Surrender);
        let fused = WeightedTransition::new(&t);
        let naive = NaiveWeightedTransition::new(&t);
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 2) as f64).collect();
        let (mut yf, mut yn) = (vec![0.0; n], vec![0.0; n]);
        let df = fused.propagate(&x, &mut yf);
        let dn = naive.propagate(&x, &mut yn);
        prop_assert!((df - dn).abs() <= 1e-12, "deficit mass: {df} vs {dn}");
        for v in 0..n {
            prop_assert!((yf[v] - yn[v]).abs() <= 1e-12,
                "row {v}: fused {} vs reference {}", yf[v], yn[v]);
        }
    }

    #[test]
    fn fused_power_engine_matches_unfused_reference(g in arb_graph()) {
        let fused_op = UniformTransition::new(&g);
        let naive_op = NaiveUniformTransition::new(&g);
        let request = SolveRequest::new(vec![SolveColumn::default()]);
        let fused = power_solve(&fused_op, SolveColumn::default());
        let naive = power_method_unfused(&naive_op, &request).remove(0);
        let (stats_f, stats_n) = (fused.stats(), naive.stats());
        prop_assert_eq!(stats_f.iterations, stats_n.iterations,
            "engines must take identical iteration counts");
        prop_assert_eq!(stats_f.converged, stats_n.converged);
        for (v, (a, b)) in fused.scores().iter().zip(naive.scores()).enumerate() {
            prop_assert!((a - b).abs() <= 1e-12, "score {v}: {a} vs {b}");
        }
    }

    #[test]
    fn compressed_neighbors_and_degrees_match_csr(g in arb_graph()) {
        // Differential test of the WebGraph-style codec against the plain
        // CSR representation it was built from.
        let c = CompressedGraph::from_csr(&g).unwrap();
        prop_assert_eq!(c.num_nodes(), g.num_nodes());
        prop_assert_eq!(c.num_edges(), g.num_edges());
        for u in 0..g.num_nodes() as u32 {
            prop_assert_eq!(c.out_degree(u).unwrap(), g.out_degree(u), "degree of {}", u);
            prop_assert_eq!(c.neighbors(u).unwrap(), g.neighbors(u).to_vec(), "row {}", u);
        }
    }

    #[test]
    fn pagerank_on_decompressed_graph_is_bit_identical(g in arb_graph()) {
        // compress → decompress must reproduce the exact CSR layout, so a
        // full PageRank solve over the roundtripped graph is bit-for-bit
        // the solve over the original (same accumulation order everywhere).
        let roundtripped = CompressedGraph::from_csr(&g).unwrap().to_csr().unwrap();
        prop_assert_eq!(&roundtripped, &g);
        let a = PageRank::default().rank(&g);
        let b = PageRank::default().rank(&roundtripped);
        prop_assert_eq!(a.stats().iterations, b.stats().iterations);
        for (v, (x, y)) in a.scores().iter().zip(b.scores()).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "score {} differs: {} vs {}", v, x, y);
        }
    }

    #[test]
    fn pagerank_monotone_under_added_inlink(g in arb_graph()) {
        // Adding one fresh endorser for node 0 must not lower node 0's
        // score.
        let n = g.num_nodes();
        let r1 = PageRank::default().rank(&g);
        let mut b = GraphBuilder::with_nodes(n + 1);
        b.extend_edges(g.edges());
        b.add_edge(n as u32, 0);
        let g2 = b.build();
        let r2 = PageRank::default().rank(&g2);
        // Normalize comparison: relative share among the original n nodes.
        let before = r1.score(0) / r1.scores().iter().sum::<f64>();
        let orig_mass: f64 = r2.scores()[..n].iter().sum();
        let after = r2.score(0) / orig_mass;
        prop_assert!(after >= before - 1e-9,
            "score share dropped after gaining an endorser: {before} -> {after}");
    }

    #[test]
    fn throttle_is_idempotent(t in arb_stochastic(), kappa in 0.0f64..=1.0) {
        let n = t.num_nodes();
        let kv = ThrottleVector::uniform(n, kappa);
        let once = throttle::apply(&t, &kv);
        let twice = throttle::apply(&once, &kv);
        for i in 0..n as u32 {
            for (&j, &w) in once.neighbors(i).iter().zip(once.edge_weights(i)) {
                let w2 = twice.weight(i, j).unwrap_or(0.0);
                prop_assert!((w - w2).abs() < 1e-9,
                    "row {i} edge {j}: {w} vs {w2} after second application");
            }
        }
    }

    #[test]
    fn surrender_rows_sum_to_one_minus_kappa(t in arb_stochastic(), kappa in 0.0f64..1.0) {
        let n = t.num_nodes();
        let kv = ThrottleVector::uniform(n, kappa);
        let out = throttle::apply_with_policy(&t, &kv, SelfEdgePolicy::Surrender);
        for i in 0..n as u32 {
            let sum = out.row_sum(i);
            // Rows whose self-edge exceeded kappa keep the excess.
            prop_assert!(sum >= 1.0 - kappa - 1e-9, "row {i} sums to {sum}");
            prop_assert!(sum <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn power_scores_positive_and_normalized(t in arb_stochastic()) {
        let op = WeightedTransition::new(&t);
        let r = power_solve(&op, SolveColumn::default());
        let (x, stats) = (r.scores(), r.stats());
        prop_assert!(stats.converged);
        prop_assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(x.iter().all(|&v| v > 0.0), "uniform teleport implies strictly positive scores");
    }

    #[test]
    fn warm_start_agrees_with_cold(t in arb_stochastic()) {
        let op = WeightedTransition::new(&t);
        let cold = power_solve(&op, SolveColumn::default());
        let warm = power_solve(&op, SolveColumn::default().with_initial(vec![1.0; t.num_nodes()]));
        for (a, b) in cold.scores().iter().zip(warm.scores()) {
            prop_assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn teleport_bias_is_monotone(g in arb_graph(), node in 0u32..100) {
        let n = g.num_nodes() as u32;
        let node = node % n;
        let biased = PageRank::builder()
            .teleport(Teleport::over_seeds(n as usize, &[node]))
            .criteria(ConvergenceCriteria::default())
            .finish()
            .rank(&g);
        let uniform = PageRank::default().rank(&g);
        prop_assert!(biased.score(node) >= uniform.score(node) - 1e-9);
    }

    #[test]
    fn kendall_tau_bounds_and_symmetry(
        a in proptest::collection::vec(0.0f64..1.0, 2..40),
    ) {
        let b: Vec<f64> = a.iter().rev().copied().collect();
        let t = kendall_tau(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&t));
        prop_assert!((kendall_tau(&a, &b) - kendall_tau(&b, &a)).abs() < 1e-12);
        prop_assert_eq!(kendall_tau(&a, &a), 1.0);
    }

    #[test]
    fn spearman_self_correlation(
        a in proptest::collection::vec(0.0f64..1.0, 3..40),
    ) {
        // Distinct random floats are almost surely untied.
        let rho = spearman_rho(&a, &a);
        prop_assert!((rho - 1.0).abs() < 1e-9 || rho == 0.0 /* all values equal */);
    }

    #[test]
    fn average_ranks_partition(a in proptest::collection::vec(0.0f64..1.0, 1..50)) {
        let r = average_ranks(&a);
        // Ranks sum to n(n+1)/2 regardless of ties.
        let n = a.len() as f64;
        prop_assert!((r.iter().sum::<f64>() - n * (n + 1.0) / 2.0).abs() < 1e-9);
    }
}
