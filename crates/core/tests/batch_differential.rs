//! Differential suite for multi-column solve requests (`sr_core::solve`).
//!
//! The driver's contract is stronger than "close": every column of a
//! K-column request must be **bit-identical** to a one-column request with
//! that column's parameters, at the **same iteration count** and with the
//! same residual history — the panel kernels preserve each column's
//! summation order exactly (see `sr_graph::panel` and the operator docs),
//! so no tolerance is needed. These tests drive randomized column families
//! and formulations through `sr_core::solve` and check them against
//! per-column one-column requests, on plain [`CsrGraph`]s and on graphs
//! round-tripped through an on-disk shard file (WebGraph-style codec). The
//! within-1e-12 requirement is implied by bit-equality but asserted
//! separately so a future relaxation of the bitwise gate would still be
//! caught drifting.

use proptest::prelude::*;

use sr_core::operator::{Transition, UniformTransition, WeightedTransition};
use sr_core::{
    solve, Formulation, RankVector, SolveColumn, SolveRequest, SolverWorkspace, Teleport,
    PANEL_WIDTH,
};
use sr_graph::transpose::transpose;
use sr_graph::{CsrGraph, GraphBuilder, WeightedGraph};

fn run(op: &dyn Transition, request: &SolveRequest) -> Vec<RankVector> {
    solve(op, request, &mut SolverWorkspace::new(), &mut [])
}

/// Asserts every column of `request` equals its one-column request bit for
/// bit: scores, residual history, iteration count.
fn assert_columns_match_single(op: &dyn Transition, request: &SolveRequest) {
    let result = run(op, request);
    assert_eq!(result.len(), request.columns.len());
    for (j, col) in request.columns.iter().enumerate() {
        let single = SolveRequest {
            columns: vec![col.clone()],
            ..request.clone()
        };
        let want = run(op, &single).remove(0);
        assert_eq!(want.stats().iterations, result[j].stats().iterations);
        assert_eq!(
            want.stats().residual_history,
            result[j].stats().residual_history,
            "column {j} residuals"
        );
        assert_eq!(want.scores(), result[j].scores(), "column {j}");
    }
}

/// A deterministic crawl-ish fixture: ring + forward chords + a dangling
/// tail, large enough that panels see real mixing.
fn fixture(n: usize) -> CsrGraph {
    let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|v| (v, v + 1)).collect();
    for v in 0..n as u32 {
        if v % 3 == 0 {
            edges.push((v, (v * 7 + 2) % n as u32));
        }
        if v % 5 == 1 {
            edges.push((v, (v * 11 + 3) % n as u32));
        }
    }
    GraphBuilder::from_edges_exact(n, edges).unwrap()
}

#[derive(Debug, Clone)]
struct ColumnSpec {
    alpha: f64,
    teleport_kind: u8,
    seed_a: u32,
    seed_b: u32,
}

fn arb_columns() -> impl Strategy<Value = Vec<ColumnSpec>> {
    proptest::collection::vec(
        (0.05f64..0.95, 0u8..3, any::<u32>(), any::<u32>()).prop_map(
            |(alpha, teleport_kind, seed_a, seed_b)| ColumnSpec {
                alpha,
                teleport_kind,
                seed_a,
                seed_b,
            },
        ),
        1..10,
    )
}

fn realize_teleport(spec: &ColumnSpec, n: usize) -> Teleport {
    match spec.teleport_kind {
        0 => Teleport::Uniform,
        1 => {
            let a = spec.seed_a % n as u32;
            let mut b = spec.seed_b % n as u32;
            // Duplicate seeds are rejected at the API boundary; nudge the
            // second seed onto a distinct node (or drop it when n == 1).
            if b == a {
                b = (b + 1) % n as u32;
            }
            if b == a {
                Teleport::over_seeds(n, &[a])
            } else {
                Teleport::over_seeds(n, &[a, b])
            }
        }
        _ => {
            let weights: Vec<f64> = (0..n)
                .map(|v| 0.25 + ((spec.seed_a as usize + v * 13) % 7) as f64)
                .collect();
            Teleport::from_weights(weights)
        }
    }
}

fn arb_formulation() -> impl Strategy<Value = Formulation> {
    any::<bool>().prop_map(|eig| {
        if eig {
            Formulation::Eigenvector
        } else {
            Formulation::LinearSystem
        }
    })
}

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (
        3usize..40,
        proptest::collection::vec((any::<u32>(), any::<u32>()), 2..120).prop_map(|edges| edges),
    )
        .prop_map(|(n, edges)| {
            let edges: Vec<(u32, u32)> = edges
                .into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .collect();
            GraphBuilder::from_edges_exact(n, edges).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized column families over randomized graphs, with the
    /// formulation drawn per batch: every batched column is bitwise its
    /// one-column request — same scores, residual history and iteration
    /// count.
    #[test]
    fn random_batches_are_bitwise_sequential(
        g in arb_graph(),
        specs in arb_columns(),
        formulation in arb_formulation(),
    ) {
        let n = g.num_nodes();
        let columns: Vec<SolveColumn> = specs
            .iter()
            .map(|s| SolveColumn::new(s.alpha, realize_teleport(s, n)))
            .collect();
        let op = UniformTransition::new(&g);
        let request = SolveRequest::new(columns).formulation(formulation);
        let batched = run(&op, &request);
        for (j, col) in request.columns.iter().enumerate() {
            let single = SolveRequest {
                columns: vec![col.clone()],
                ..request.clone()
            };
            let seq = run(&op, &single).remove(0);
            prop_assert_eq!(
                seq.stats().iterations,
                batched[j].stats().iterations,
                "column {} iteration count diverged", j
            );
            prop_assert_eq!(
                &seq.stats().residual_history,
                &batched[j].stats().residual_history,
                "column {} residual history diverged", j
            );
            prop_assert_eq!(
                seq.scores(),
                batched[j].scores(),
                "column {} scores not bit-identical", j
            );
            for (s, b) in seq.scores().iter().zip(batched[j].scores()) {
                prop_assert!((s - b).abs() <= 1e-12);
            }
        }
    }

    /// The same invariant holds after a round trip through a shard file
    /// (gap + varint codec rows of the reverse graph) — the batched engine
    /// sees only CSR, so a lossless codec must change nothing, bit for bit.
    #[test]
    fn batches_survive_compressed_round_trip(g in arb_graph(), specs in arb_columns()) {
        let dir = std::env::temp_dir()
            .join(format!("sr_batch_shards_{}", std::process::id()));
        let sharded = sr_graph::shard::build_from_csr(&g, &dir, &dir.join("g.shards"), 64)
            .unwrap();
        let round: CsrGraph = transpose(&sharded.to_csr().unwrap());
        prop_assert_eq!(&round, &g, "codec round trip must be lossless");
        let n = round.num_nodes();
        let columns: Vec<SolveColumn> = specs
            .iter()
            .map(|s| SolveColumn::new(s.alpha, realize_teleport(s, n)))
            .collect();
        let request = SolveRequest::new(columns);
        let on_round = run(&UniformTransition::new(&round), &request);
        let on_plain = run(&UniformTransition::new(&g), &request);
        for j in 0..on_plain.len() {
            prop_assert_eq!(
                on_plain[j].scores(),
                on_round[j].scores()
            );
            prop_assert_eq!(
                on_plain[j].stats().iterations,
                on_round[j].stats().iterations
            );
        }
    }
}

#[test]
fn wide_mixed_alpha_batch_tiles_and_matches() {
    // 11 columns > PANEL_WIDTH forces two tiles; the α spread forces
    // staggered retirement and panel compaction inside each tile.
    let g = fixture(500);
    let op = UniformTransition::new(&g);
    let columns: Vec<SolveColumn> = (0..PANEL_WIDTH + 3)
        .map(|j| SolveColumn::new(0.50 + 0.04 * j as f64, Teleport::Uniform))
        .collect();
    assert_columns_match_single(&op, &SolveRequest::new(columns));
}

#[test]
fn warm_started_columns_stay_bitwise_sequential() {
    let g = fixture(200);
    let op = UniformTransition::new(&g);
    let n = g.num_nodes();
    // Warm-start half the columns from a deliberately unnormalized vector —
    // the engine must normalize it exactly as the sequential path does.
    let warm: Vec<f64> = (0..n).map(|v| 1.0 + (v % 5) as f64).collect();
    let columns: Vec<SolveColumn> = (0..4)
        .map(|j| {
            let col = SolveColumn::new(0.85, Teleport::over_seeds(n, &[j as u32 * 17 + 1]));
            if j % 2 == 0 {
                col.with_initial(warm.clone())
            } else {
                col
            }
        })
        .collect();
    assert_columns_match_single(&op, &SolveRequest::new(columns));
}

/// A substochastic weighted graph: each row sums to 0.9, so the 0.1 row
/// deficits feed the dangling path.
fn deficit_graph(n: usize) -> WeightedGraph {
    let mut offsets = vec![0usize];
    let mut targets = Vec::new();
    let mut weights = Vec::new();
    for u in 0..n as u32 {
        let row: std::collections::BTreeSet<u32> = (0..1 + u % 4)
            .map(|d| (u * 3 + d * 7 + 1) % n as u32)
            .collect();
        let w = 0.9 / row.len() as f64; // each row sums to 0.9: 0.1 deficit
        for v in row {
            targets.push(v);
            weights.push(w);
        }
        offsets.push(targets.len());
    }
    WeightedGraph::from_parts(offsets, targets, weights)
}

#[test]
fn weighted_operator_batch_is_bitwise_sequential() {
    let g = deficit_graph(120);
    let op = WeightedTransition::new(&g);
    let columns: Vec<SolveColumn> = (0..6)
        .map(|j| SolveColumn::new(0.6 + 0.05 * j as f64, Teleport::Uniform))
        .collect();
    assert_columns_match_single(&op, &SolveRequest::new(columns));
}

#[test]
fn personalized_batches_hold_under_both_formulations() {
    // Seeded teleports send the dangling mass and the row deficits back
    // through the seeds, on both operators.
    let pages = fixture(300);
    let weighted = deficit_graph(120);
    let uniform_op = UniformTransition::new(&pages);
    let weighted_op = WeightedTransition::new(&weighted);
    for (op, n) in [
        (&uniform_op as &dyn Transition, 300u32),
        (&weighted_op as &dyn Transition, 120u32),
    ] {
        let columns: Vec<SolveColumn> = (0..5u32)
            .map(|j| {
                let seeds = [(j * 37 + 2) % n, (j * 53 + 11) % n];
                SolveColumn::new(
                    0.55 + 0.08 * f64::from(j),
                    Teleport::over_seeds(n as usize, &seeds),
                )
            })
            .collect();
        for formulation in [Formulation::Eigenvector, Formulation::LinearSystem] {
            let request = SolveRequest::new(columns.clone()).formulation(formulation);
            assert_columns_match_single(op, &request);
        }
    }
}
