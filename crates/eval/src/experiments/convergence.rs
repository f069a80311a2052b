//! Extension experiment: solver convergence behavior.
//!
//! The paper fixes α = 0.85 and the L2 < 1e-9 stopping rule and cites the
//! linear-system literature (Gleich et al.; Langville & Meyer; Bianchini et
//! al.) for the formulation choice. This experiment characterizes what that
//! choice costs: iterations to convergence per solver across the α range the
//! analysis section discusses, plus the empirical contraction rate (which
//! theory predicts approaches α for the power method).

use sr_core::{ConvergenceCriteria, Solver, SolverWorkspace, Teleport};

use crate::datasets::EvalDataset;
use crate::report::Table;

/// One α sweep point.
#[derive(Debug, Clone)]
pub struct ConvergenceRow {
    /// Mixing parameter.
    pub alpha: f64,
    /// Iterations for the eigenvector power method.
    pub power_iters: usize,
    /// Empirical tail contraction rate of the power method.
    pub power_rate: f64,
    /// Iterations for the linear-system (Jacobi) formulation.
    pub linear_iters: usize,
    /// Iterations for Gauss–Seidel.
    pub gs_iters: usize,
}

/// Runs the α sweep over a dataset's consensus source graph.
pub fn run(ds: &EvalDataset, alphas: &[f64]) -> Vec<ConvergenceRow> {
    let crit = ConvergenceCriteria::default();
    alphas
        .iter()
        .map(|&alpha| {
            let solve = |solver: Solver| {
                sr_core::solver::solve_weighted_warm_observed(
                    ds.sources.transitions(),
                    alpha,
                    &Teleport::Uniform,
                    &crit,
                    solver,
                    None,
                    &mut SolverWorkspace::new(),
                    None,
                )
            };
            let power = solve(Solver::Power);
            let linear = solve(Solver::PowerLinear);
            let gs = solve(Solver::GaussSeidel);
            ConvergenceRow {
                alpha,
                power_iters: power.stats().iterations,
                power_rate: power.stats().tail_rate().unwrap_or(f64::NAN),
                linear_iters: linear.stats().iterations,
                gs_iters: gs.stats().iterations,
            }
        })
        .collect()
}

/// Renders the sweep.
pub fn table(rows: &[ConvergenceRow], dataset: &str) -> Table {
    let mut t = Table::new(
        format!("Extension: solver convergence vs alpha ({dataset}, L2 < 1e-9)"),
        vec![
            "alpha",
            "Power iters",
            "Power rate",
            "Jacobi iters",
            "Gauss-Seidel iters",
        ],
    );
    for r in rows {
        t.push_row(vec![
            format!("{:.2}", r.alpha),
            r.power_iters.to_string(),
            format!("{:.3}", r.power_rate),
            r.linear_iters.to_string(),
            r.gs_iters.to_string(),
        ]);
    }
    t
}

/// The α values of the paper's analysis plus a wider bracket.
pub fn default_alphas() -> Vec<f64> {
    vec![0.50, 0.70, 0.80, 0.85, 0.90, 0.95]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::EvalConfig;
    use sr_gen::Dataset;

    #[test]
    fn iterations_grow_with_alpha_and_rate_tracks_it() {
        let _ = EvalConfig::default();
        let ds = EvalDataset::load(Dataset::Uk2002, 0.002);
        let rows = run(&ds, &[0.5, 0.85, 0.95]);
        assert!(rows[0].power_iters < rows[1].power_iters);
        assert!(rows[1].power_iters < rows[2].power_iters);
        // The contraction rate equals alpha * |lambda_2| of the underlying
        // chain, so it is bounded by alpha (how closely it approaches alpha
        // depends on the graph's mixing structure).
        for r in &rows {
            assert!(
                r.power_rate <= r.alpha + 0.05,
                "alpha {}: empirical rate {} exceeds alpha",
                r.alpha,
                r.power_rate
            );
        }
        // And the rate grows with alpha.
        assert!(rows[0].power_rate < rows[2].power_rate);
        // Note: Gauss–Seidel is *not* asserted faster — for non-symmetric
        // fast-mixing chains its iteration matrix can have a larger spectral
        // radius than Jacobi's (it wins on slowly-mixing cycles; see the
        // sr-core gauss_seidel unit tests). The table reports both honestly.
        let t = table(&rows, "UK2002");
        assert_eq!(t.rows.len(), 3);
    }
}
