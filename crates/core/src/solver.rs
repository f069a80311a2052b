//! Solver selection for weighted (source-level) transition matrices.

use crate::convergence::ConvergenceCriteria;
use crate::gauss_seidel::gauss_seidel;
use crate::operator::WeightedTransition;
use crate::power::{solve, Formulation, SolveColumn, SolveRequest, SolverWorkspace};
use crate::rankvec::RankVector;
use crate::teleport::Teleport;
use sr_graph::WeightedGraph;
use sr_obs::SolveObserver;

/// Which iterative algorithm computes the stationary vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Solver {
    /// Parallel power method on the stochastic chain (dangling mass
    /// redistributed through the teleport vector). Default.
    #[default]
    Power,
    /// Parallel power iteration of the linear system `x = αxP + (1−α)c`
    /// (Jacobi; the paper's Eq. 3 formulation), normalized at the end.
    PowerLinear,
    /// Sequential Gauss–Seidel sweeps of the same linear system; fewer
    /// iterations, no parallelism.
    GaussSeidel,
}

impl Solver {
    /// The [`solve`] formulation of a power solver; `None` for
    /// Gauss–Seidel, which has no request form.
    pub fn formulation(self) -> Option<Formulation> {
        match self {
            Solver::Power => Some(Formulation::Eigenvector),
            Solver::PowerLinear => Some(Formulation::LinearSystem),
            Solver::GaussSeidel => None,
        }
    }
}

/// Solves the damped walk over a weighted transition matrix with the chosen
/// solver, optionally warm-started, on caller-owned buffers, with telemetry
/// — the one solve behind every source-level ranking. All solvers return an
/// L1-normalized vector; on matrices without dangling rows they agree to
/// solver tolerance.
///
/// `initial`, when present, seeds the iteration with a previous solution.
/// It may cover *fewer* states than `transitions` has (sources added since
/// the vector was computed); missing entries start at their teleport mass
/// (see [`SolveColumn::with_padded_initial`]). [`Solver::GaussSeidel`] has
/// no warm path — its sweeps build the iterate in place from the diagonal
/// split, not from an initial distribution — so it ignores `initial` and
/// `ws` and solves cold; both power solvers exploit the restart.
#[expect(
    clippy::too_many_arguments,
    reason = "the walk parameters, warm start, buffers and observer are independent inputs that SourceRank and SpamResilientModel each pass from their own configuration"
)]
pub fn solve_weighted(
    transitions: &WeightedGraph,
    alpha: f64,
    teleport: &Teleport,
    criteria: &ConvergenceCriteria,
    solver: Solver,
    initial: Option<&[f64]>,
    ws: &mut SolverWorkspace,
    observer: Option<&mut (dyn SolveObserver + '_)>,
) -> RankVector {
    let Some(formulation) = solver.formulation() else {
        let (scores, stats) = gauss_seidel(transitions, alpha, teleport, criteria, observer);
        return RankVector::new(scores, stats);
    };
    let mut column = SolveColumn::new(alpha, teleport.clone());
    if let Some(init) = initial {
        column = column.with_padded_initial(init, transitions.num_nodes());
    }
    let request = SolveRequest::new(vec![column])
        .criteria(*criteria)
        .formulation(formulation);
    let op = WeightedTransition::new(transitions);
    solve(&op, &request, ws, &mut [observer]).remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cold solve on fresh buffers.
    fn solve_cold(
        g: &WeightedGraph,
        alpha: f64,
        teleport: &Teleport,
        criteria: &ConvergenceCriteria,
        solver: Solver,
    ) -> RankVector {
        let mut ws = SolverWorkspace::new();
        solve_weighted(g, alpha, teleport, criteria, solver, None, &mut ws, None)
    }

    fn ring() -> WeightedGraph {
        WeightedGraph::from_parts(
            vec![0, 2, 4, 6],
            vec![0, 1, 1, 2, 0, 2],
            vec![0.3, 0.7, 0.5, 0.5, 0.9, 0.1],
        )
    }

    #[test]
    fn all_solvers_agree() {
        let g = ring();
        let crit = ConvergenceCriteria::default();
        let a = solve_cold(&g, 0.85, &Teleport::Uniform, &crit, Solver::Power);
        let b = solve_cold(&g, 0.85, &Teleport::Uniform, &crit, Solver::PowerLinear);
        let c = solve_cold(&g, 0.85, &Teleport::Uniform, &crit, Solver::GaussSeidel);
        for i in 0..3 {
            assert!((a.score(i) - b.score(i)).abs() < 1e-7);
            assert!((a.score(i) - c.score(i)).abs() < 1e-7);
        }
    }

    #[test]
    fn warm_restart_matches_cold_with_fewer_iterations() {
        let g = ring();
        let crit = ConvergenceCriteria::default();
        let cold = solve_cold(&g, 0.85, &Teleport::Uniform, &crit, Solver::Power);
        let mut ws = SolverWorkspace::new();
        let warm = solve_weighted(
            &g,
            0.85,
            &Teleport::Uniform,
            &crit,
            Solver::Power,
            Some(cold.scores()),
            &mut ws,
            None,
        );
        assert!(warm.stats().iterations <= 2);
        for i in 0..3 {
            assert!((warm.score(i) - cold.score(i)).abs() < 1e-9);
        }
    }

    #[test]
    fn warm_restart_pads_missing_states_with_teleport_mass() {
        // A warm vector over 2 of 3 states must still converge to the full
        // 3-state answer — the padding path new sources exercise.
        let g = ring();
        let crit = ConvergenceCriteria::default();
        let cold = solve_cold(&g, 0.85, &Teleport::Uniform, &crit, Solver::Power);
        let short = &cold.scores()[..2];
        let warm = solve_weighted(
            &g,
            0.85,
            &Teleport::Uniform,
            &crit,
            Solver::Power,
            Some(short),
            &mut SolverWorkspace::new(),
            None,
        );
        assert!(warm.stats().converged);
        for i in 0..3 {
            assert!((warm.score(i) - cold.score(i)).abs() < 1e-8);
        }
    }

    #[test]
    fn gauss_seidel_ignores_warm_start() {
        let g = ring();
        let crit = ConvergenceCriteria::default();
        let cold = solve_cold(&g, 0.85, &Teleport::Uniform, &crit, Solver::GaussSeidel);
        let warm = solve_weighted(
            &g,
            0.85,
            &Teleport::Uniform,
            &crit,
            Solver::GaussSeidel,
            Some(cold.scores()),
            &mut SolverWorkspace::new(),
            None,
        );
        assert_eq!(warm.scores(), cold.scores());
        assert_eq!(warm.stats().iterations, cold.stats().iterations);
    }

    #[test]
    fn solutions_are_normalized() {
        let g = ring();
        let crit = ConvergenceCriteria::default();
        for solver in [Solver::Power, Solver::PowerLinear, Solver::GaussSeidel] {
            let r = solve_cold(&g, 0.85, &Teleport::Uniform, &crit, solver);
            let sum: f64 = r.scores().iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "{solver:?} not normalized");
        }
    }
}
