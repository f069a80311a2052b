//! Convergence criteria and iteration diagnostics.
//!
//! The paper terminates "once the L2-distance [of successive iterates]
//! dropped below a threshold of 10e-9"; every solver measures its residual
//! as that L2 distance.

/// Stopping rule for iterative solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceCriteria {
    /// Residual threshold; iteration stops when the L2 distance between
    /// successive iterates falls below this.
    pub tolerance: f64,
    /// Hard iteration cap (guards against a mis-configured chain).
    pub max_iterations: usize,
}

impl Default for ConvergenceCriteria {
    /// The paper's setting: L2 < 1e-9, generous iteration cap.
    fn default() -> Self {
        ConvergenceCriteria {
            tolerance: 1e-9,
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
