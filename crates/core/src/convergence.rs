//! Convergence criteria and iteration diagnostics.
//!
//! The paper terminates "once the L2-distance [of successive iterates]
//! dropped below a threshold of 10e-9"; that is the default here, with L1
//! and L∞ variants available for experimentation.

use crate::vecops;

/// Vector norm used to measure the residual between successive iterates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Norm {
    /// Sum of absolute differences.
    L1,
    /// Euclidean distance — the paper's choice. Default.
    #[default]
    L2,
    /// Maximum absolute difference.
    LInf,
}

impl Norm {
    /// Distance between `x` and `y` under this norm.
    pub fn distance(self, x: &[f64], y: &[f64]) -> f64 {
        match self {
            Norm::L1 => vecops::l1_distance(x, y),
            Norm::L2 => vecops::l2_distance(x, y),
            Norm::LInf => vecops::linf_distance(x, y),
        }
    }

    /// Folds one per-element difference `d` into a running accumulator.
    /// Together with [`Norm::combine`] and [`Norm::finish`] this lets solvers
    /// fuse the residual into their update sweep instead of paying a second
    /// pass over both iterates: accumulate per chunk, combine chunk partials
    /// in order, finish once. The element order matches
    /// [`Norm::distance`], so a single-chunk (sequential) fused sweep is
    /// bit-identical to the two-pass form.
    #[inline]
    pub(crate) fn accumulate(self, acc: f64, d: f64) -> f64 {
        match self {
            Norm::L1 => acc + d.abs(),
            Norm::L2 => acc + d * d,
            Norm::LInf => acc.max(d.abs()),
        }
    }

    /// Combines two chunk accumulators.
    #[inline]
    pub(crate) fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            Norm::LInf => a.max(b),
            _ => a + b,
        }
    }

    /// Finalizes an accumulator into the distance value.
    #[inline]
    pub(crate) fn finish(self, acc: f64) -> f64 {
        match self {
            Norm::L2 => acc.sqrt(),
            _ => acc,
        }
    }
}

/// Stopping rule for iterative solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceCriteria {
    /// Residual threshold; iteration stops when the inter-iterate distance
    /// falls below this.
    pub tolerance: f64,
    /// Norm for the residual.
    pub norm: Norm,
    /// Hard iteration cap (guards against a mis-configured chain).
    pub max_iterations: usize,
}

impl Default for ConvergenceCriteria {
    /// The paper's setting: L2 < 1e-9, generous iteration cap.
    fn default() -> Self {
        ConvergenceCriteria {
            tolerance: 1e-9,
            norm: Norm::L2,
            max_iterations: 1_000,
        }
    }
}

/// Diagnostics of a completed iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationStats {
    /// Number of iterations performed.
    pub iterations: usize,
    /// Residual at the final iteration.
    pub final_residual: f64,
    /// Whether the tolerance was met (vs. hitting `max_iterations`).
    pub converged: bool,
    /// Residual after every iteration (length == `iterations`).
    pub residual_history: Vec<f64>,
}

impl IterationStats {
    /// Empirical convergence rate: the geometric mean ratio of successive
    /// residuals over the final few iterations. For PageRank-family chains
    /// this approaches the damping factor α.
    pub fn tail_rate(&self) -> Option<f64> {
        let h = &self.residual_history;
        if h.len() < 4 {
            return None;
        }
        let tail = &h[h.len() - 4..];
        if tail.iter().any(|&r| r <= 0.0) {
            return None;
        }
        let ratios: Vec<f64> = tail.windows(2).map(|w| w[1] / w[0]).collect();
        let log_mean = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
        Some(log_mean.exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = ConvergenceCriteria::default();
        assert_eq!(c.tolerance, 1e-9);
        assert_eq!(c.norm, Norm::L2);
    }

    #[test]
    fn norm_dispatch() {
        let x = [0.0, 0.0];
        let y = [3.0, 4.0];
        assert_eq!(Norm::L1.distance(&x, &y), 7.0);
        assert_eq!(Norm::L2.distance(&x, &y), 5.0);
        assert_eq!(Norm::LInf.distance(&x, &y), 4.0);
    }

    #[test]
    fn fused_accumulator_matches_two_pass_distance() {
        let x = [0.5, -1.0, 2.0, 0.0];
        let y = [0.25, 1.5, -0.5, 0.125];
        for norm in [Norm::L1, Norm::L2, Norm::LInf] {
            let acc = x
                .iter()
                .zip(&y)
                .fold(0.0, |acc, (a, b)| norm.accumulate(acc, a - b));
            assert_eq!(norm.finish(acc), norm.distance(&x, &y), "{norm:?}");
        }
        assert_eq!(Norm::L1.combine(2.0, 3.0), 5.0);
        assert_eq!(Norm::LInf.combine(2.0, 3.0), 3.0);
    }

    #[test]
    fn tail_rate_of_geometric_history() {
        let stats = IterationStats {
            iterations: 5,
            final_residual: 0.85f64.powi(5),
            converged: true,
            residual_history: (1..=5).map(|k| 0.85f64.powi(k)).collect(),
        };
        let r = stats.tail_rate().unwrap();
        assert!((r - 0.85).abs() < 1e-12);
    }

    #[test]
    fn tail_rate_requires_history() {
        let stats = IterationStats {
            iterations: 2,
            final_residual: 0.1,
            converged: true,
            residual_history: vec![0.5, 0.1],
        };
        assert_eq!(stats.tail_rate(), None);
    }
}
