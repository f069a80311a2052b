//! Gauss–Seidel solver for the PageRank-family linear system.
//!
//! The paper's Eq. 3 (`σᵀ = α σᵀ T″ + (1−α) cᵀ`) is a linear system
//! `σ (I − α T″) = (1−α) c`. The power method is its Jacobi iteration;
//! Gauss–Seidel sweeps the states in order re-using already-updated values,
//! which roughly halves the iteration count at the cost of being inherently
//! sequential. Included as the second solver the paper's citation trail
//! (Gleich et al., "Fast parallel PageRank: a linear system approach")
//! motivates, and ablated against the power method in `bench_ablations`.

use crate::convergence::{ConvergenceCriteria, IterationStats};
use crate::teleport::Teleport;
use crate::vecops;
use sr_graph::ids::node_range;
use sr_graph::transpose::transpose_weighted;
use sr_graph::WeightedGraph;
use sr_obs::SolveObserver;

/// Solves `x = α x P + (1−α) c` by Gauss–Seidel sweeps over a weighted
/// row-stochastic transition `P`, returning the L1-normalized fixed point.
///
/// Self-loops (`P_vv > 0`) are handled implicitly: the update solves the
/// diagonal term exactly, `x_v = (α Σ_{u≠v} P_uv x_u + (1−α) c_v) / (1 − α P_vv)`,
/// which is what makes this solver attractive for throttled matrices whose
/// diagonal (the κ self-edge weight) can approach 1.
///
/// Dangling (all-zero) rows leak mass exactly as the linear-system power
/// formulation does; the final normalization absorbs the difference.
///
/// Per-sweep residuals are reported to `observer`, if any (solver label
/// `"gauss_seidel"`; the dangling-mass slot of `on_iteration` is always 0 —
/// the sweep has no explicit dangling pass).
pub fn gauss_seidel(
    transitions: &WeightedGraph,
    alpha: f64,
    teleport: &Teleport,
    criteria: &ConvergenceCriteria,
    mut observer: Option<&mut (dyn SolveObserver + '_)>,
) -> (Vec<f64>, IterationStats) {
    assert!(
        (0.0..1.0).contains(&alpha),
        "alpha must be in [0,1), got {alpha}"
    );
    let n = transitions.num_nodes();
    if let Some(o) = observer.as_deref_mut() {
        o.on_solve_start("gauss_seidel", n);
    }
    if n == 0 {
        if let Some(o) = observer.as_deref_mut() {
            o.on_solve_end(0, 0.0, true);
        }
        return (
            Vec::new(),
            IterationStats {
                iterations: 0,
                final_residual: 0.0,
                converged: true,
                residual_history: Vec::new(),
            },
        );
    }
    let c = teleport.to_dense(n);
    let rev = transpose_weighted(transitions);
    let mut x = c.clone();
    let mut history = Vec::new();
    let mut converged = false;
    let mut residual = f64::INFINITY;

    // The residual is accumulated inside the sweep (in the same index order
    // the seed's separate `distance(prev, x)` pass used, so histories are
    // bit-identical) — no `prev` snapshot, no second pass over the state.
    for _ in 0..criteria.max_iterations {
        let mut res_acc = 0.0;
        for v in node_range(n) {
            let mut acc = 0.0;
            let mut diag = 0.0;
            for (&u, &w) in rev.neighbors(v).iter().zip(rev.edge_weights(v)) {
                if u == v {
                    diag = w;
                } else {
                    acc += w * x[u as usize];
                }
            }
            let denom = 1.0 - alpha * diag;
            let nv = (alpha * acc + (1.0 - alpha) * c[v as usize]) / denom;
            let d = x[v as usize] - nv;
            res_acc += d * d;
            x[v as usize] = nv;
        }
        residual = res_acc.sqrt();
        history.push(residual);
        if let Some(o) = observer.as_deref_mut() {
            o.on_iteration(history.len(), residual, 0.0);
        }
        if residual < criteria.tolerance {
            converged = true;
            break;
        }
    }

    vecops::normalize_l1(&mut x);
    if let Some(o) = observer {
        o.on_solve_end(history.len(), residual, converged);
    }
    let stats = IterationStats {
        iterations: history.len(),
        final_residual: residual,
        converged,
        residual_history: history,
    };
    (x, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::WeightedTransition;
    use crate::power::{solve, Formulation, SolveColumn, SolveRequest, SolverWorkspace};

    fn two_state() -> WeightedGraph {
        WeightedGraph::from_parts(vec![0, 2, 3], vec![0, 1, 0], vec![0.5, 0.5, 1.0])
    }

    #[test]
    fn agrees_with_power_method() {
        let g = two_state();
        let (gs, _) = gauss_seidel(
            &g,
            0.85,
            &Teleport::Uniform,
            &ConvergenceCriteria::default(),
            None,
        );
        let op = WeightedTransition::new(&g);
        let request = SolveRequest::new(vec![SolveColumn::default()]);
        let pm = solve(&op, &request, &mut SolverWorkspace::new(), &mut []).remove(0);
        let pm = pm.scores();
        for (a, b) in gs.iter().zip(pm) {
            assert!((a - b).abs() < 1e-8, "{gs:?} vs {pm:?}");
        }
    }

    #[test]
    fn converges_faster_than_power_on_slowly_mixing_chain() {
        // A directed cycle is the power method's worst case (the subdominant
        // eigenvalue has modulus 1, so PM contracts at exactly α per step),
        // while a Gauss–Seidel sweep propagates updates all the way around
        // the cycle in one pass. (On fast-mixing chains PM can win; GS is
        // only asymptotically superior, which the ablation bench explores.)
        let g = WeightedGraph::from_triples(
            4,
            vec![
                (0, 1, 0.5),
                (0, 2, 0.5),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 0, 1.0),
            ],
        );
        let crit = ConvergenceCriteria::default();
        let (_, gs_stats) = gauss_seidel(&g, 0.85, &Teleport::Uniform, &crit, None);
        let op = WeightedTransition::new(&g);
        let request =
            SolveRequest::new(vec![SolveColumn::default()]).formulation(Formulation::LinearSystem);
        let pm = solve(&op, &request, &mut SolverWorkspace::new(), &mut []).remove(0);
        assert!(
            gs_stats.iterations < pm.stats().iterations,
            "GS {} vs PM {}",
            gs_stats.iterations,
            pm.stats().iterations
        );
    }

    #[test]
    fn heavy_self_loop_is_stable() {
        // A fully throttled source: self-edge weight 1.
        let g = WeightedGraph::from_parts(vec![0, 1, 3], vec![0, 0, 1], vec![1.0, 0.6, 0.4]);
        let (x, stats) = gauss_seidel(
            &g,
            0.85,
            &Teleport::Uniform,
            &ConvergenceCriteria::default(),
            None,
        );
        assert!(stats.converged);
        assert!(x[0] > x[1], "the absorbing-ish node should accumulate mass");
        assert!((vecops::l1_norm(&x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dangling_rows_tolerated() {
        let g = WeightedGraph::from_parts(vec![0, 1, 1], vec![1], vec![1.0]);
        let (x, stats) = gauss_seidel(
            &g,
            0.85,
            &Teleport::Uniform,
            &ConvergenceCriteria::default(),
            None,
        );
        assert!(stats.converged);
        assert!(x[1] > x[0]);
    }

    #[test]
    fn seeded_teleport() {
        let g = two_state();
        let (x, _) = gauss_seidel(
            &g,
            0.85,
            &Teleport::over_seeds(2, &[1]),
            &ConvergenceCriteria::default(),
            None,
        );
        let (u, _) = gauss_seidel(
            &g,
            0.85,
            &Teleport::Uniform,
            &ConvergenceCriteria::default(),
            None,
        );
        assert!(x[1] > u[1]);
    }
}
