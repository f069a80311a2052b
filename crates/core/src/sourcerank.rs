//! Baseline SourceRank: a PageRank-style walk over the source graph with
//! **no** influence throttling — the comparison baseline of Figure 5 (and
//! the approach the paper attributes to Arasu et al. / Eiron et al.).

use crate::convergence::ConvergenceCriteria;
use crate::power::SolverWorkspace;
use crate::rankvec::RankVector;
use crate::solver::{solve_weighted, Solver};
use crate::teleport::Teleport;
use sr_graph::SourceGraph;
use sr_obs::SolveObserver;

/// Baseline SourceRank configuration; defaults match the paper
/// (α = 0.85, uniform teleport, L2 < 1e-9).
#[derive(Debug, Clone, PartialEq)]
pub struct SourceRank {
    alpha: f64,
    teleport: Teleport,
    criteria: ConvergenceCriteria,
    solver: Solver,
}

impl Default for SourceRank {
    fn default() -> Self {
        SourceRank {
            alpha: 0.85,
            teleport: Teleport::Uniform,
            criteria: ConvergenceCriteria::default(),
            solver: Solver::Power,
        }
    }
}

impl SourceRank {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the mixing parameter α.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the teleport distribution.
    pub fn teleport(mut self, teleport: Teleport) -> Self {
        self.teleport = teleport;
        self
    }

    /// Sets the stopping rule.
    pub fn criteria(mut self, criteria: ConvergenceCriteria) -> Self {
        self.criteria = criteria;
        self
    }

    /// Sets the iterative solver.
    pub fn solver(mut self, solver: Solver) -> Self {
        self.solver = solver;
        self
    }

    /// Ranks the sources of `source_graph` using its transition matrix as-is
    /// (uniform or consensus weighting is decided at extraction time).
    pub fn rank(&self, source_graph: &SourceGraph) -> RankVector {
        self.rank_warm_in(source_graph, None, &mut SolverWorkspace::new(), None)
    }

    /// The general form of [`rank`](SourceRank::rank): a warm restart,
    /// caller-owned solver buffers and telemetry — the incremental
    /// re-ranking entry point. `initial` may cover fewer sources than
    /// `source_graph` (sources added since it was computed); missing entries
    /// start at their teleport mass. See [`solve_weighted`] for the
    /// Gauss–Seidel caveat.
    pub fn rank_warm_in(
        &self,
        source_graph: &SourceGraph,
        initial: Option<&[f64]>,
        ws: &mut SolverWorkspace,
        observer: Option<&mut (dyn SolveObserver + '_)>,
    ) -> RankVector {
        solve_weighted(
            source_graph.transitions(),
            self.alpha,
            &self.teleport,
            &self.criteria,
            self.solver,
            initial,
            ws,
            observer,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_graph::source_graph::{extract, SourceGraphConfig};
    use sr_graph::{GraphBuilder, SourceAssignment};

    /// Three sources; s0 (pages 0-2) is heavily endorsed by s1 and s2.
    fn fixture() -> SourceGraph {
        let edges = vec![
            (3, 0), // s1 -> s0
            (4, 1), // s1 -> s0
            (5, 2), // s2 -> s0
            (0, 1), // intra s0
            (0, 5), // s0 -> s2
        ];
        let g = GraphBuilder::from_edges_exact(6, edges).unwrap();
        let a = SourceAssignment::new(vec![0, 0, 0, 1, 1, 2], 3).unwrap();
        extract(&g, &a, SourceGraphConfig::consensus()).unwrap()
    }

    #[test]
    fn endorsed_source_wins() {
        let sg = fixture();
        let r = SourceRank::new().rank(&sg);
        assert_eq!(r.sorted_desc()[0], 0);
        assert!(r.stats().converged);
    }

    #[test]
    fn scores_sum_to_one() {
        let sg = fixture();
        let r = SourceRank::new().rank(&sg);
        let sum: f64 = r.scores().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solvers_agree_on_source_graph() {
        let sg = fixture();
        let a = SourceRank::new().rank(&sg);
        let b = SourceRank::new().solver(Solver::GaussSeidel).rank(&sg);
        for i in 0..sg.num_sources() as u32 {
            assert!((a.score(i) - b.score(i)).abs() < 1e-7);
        }
    }

    #[test]
    fn uniform_vs_consensus_weighting_differ() {
        let edges = vec![(0, 3), (1, 3), (2, 4), (3, 0), (4, 0)];
        let g = GraphBuilder::from_edges_exact(5, edges).unwrap();
        let a = SourceAssignment::new(vec![0, 0, 0, 1, 2], 3).unwrap();
        let cons = extract(&g, &a, SourceGraphConfig::consensus()).unwrap();
        let unif = extract(&g, &a, SourceGraphConfig::uniform()).unwrap();
        let rc = SourceRank::new().rank(&cons);
        let ru = SourceRank::new().rank(&unif);
        // Consensus gives s1 (2 endorsing pages) more weight than s2 (1 page);
        // uniform splits evenly — the rankings must differ.
        assert!(rc.score(1) > rc.score(2));
        assert!((ru.score(1) - ru.score(2)).abs() < 1e-9);
    }
}
