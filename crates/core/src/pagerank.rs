//! PageRank over the page graph — the paper's baseline and principal
//! comparison target (§2, Eq. 1).

use std::path::Path;

use crate::approx::{ApproxError, ApproxPpr, WalkCacheBuilder, WalkCacheConfig};
use crate::convergence::ConvergenceCriteria;
use crate::operator::{Transition, UniformTransition};
use crate::power::{
    solve, DanglingPolicy, Formulation, SolveColumn, SolveRequest, SolverWorkspace,
};
use crate::rankvec::RankVector;
use crate::teleport::Teleport;
use sr_graph::walks::WalkStore;
use sr_graph::CsrGraph;
use sr_obs::SolveObserver;

/// PageRank configuration; construct via [`PageRank::builder`].
///
/// Defaults match the paper's evaluation: α = 0.85, uniform teleport,
/// L2 < 1e-9 stopping rule, eigenvector formulation.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRank {
    alpha: f64,
    teleport: Teleport,
    criteria: ConvergenceCriteria,
    formulation: Formulation,
    dangling: DanglingPolicy,
}

impl Default for PageRank {
    fn default() -> Self {
        PageRank::builder().finish()
    }
}

impl PageRank {
    /// Starts building a PageRank configuration.
    pub fn builder() -> PageRankBuilder {
        PageRankBuilder::default()
    }

    /// Computes the PageRank vector of `graph`.
    pub fn rank(&self, graph: &CsrGraph) -> RankVector {
        self.rank_operator_warm_in(
            &UniformTransition::new(graph),
            None,
            &mut SolverWorkspace::new(),
            None,
        )
    }

    /// The general form of [`rank`](PageRank::rank): ranks over any
    /// [`Transition`] operator — the delta overlay of the incremental
    /// engine, the out-of-core
    /// [`StreamedTransition`](crate::streamed::StreamedTransition) (bit-
    /// identical to the in-RAM solve) — with an optional warm start,
    /// caller-owned solver buffers and telemetry.
    ///
    /// `initial`, typically the pre-mutation ranking, may cover fewer nodes
    /// than the operator (pages added since it was computed); missing
    /// entries start at their teleport mass (see
    /// [`SolveColumn::with_padded_initial`]). After a localized mutation it
    /// converges in a fraction of the cold-start iterations.
    pub fn rank_operator_warm_in(
        &self,
        op: &dyn Transition,
        initial: Option<&[f64]>,
        ws: &mut SolverWorkspace,
        observer: Option<&mut (dyn SolveObserver + '_)>,
    ) -> RankVector {
        let mut column = self.column();
        if let Some(init) = initial {
            column = column.with_padded_initial(init, op.num_nodes());
        }
        let mut ranks = solve(op, &self.request(vec![column]), ws, &mut [observer]);
        ranks.remove(0)
    }

    /// Solves many PageRank variants over one graph in a single batched
    /// (SpMM) pass: each [`SolveColumn`] carries its own damping, teleport
    /// and optional warm start, while this configuration's stopping rule,
    /// formulation and dangling policy apply to every column. The edge
    /// stream is read once per iteration for all columns, and each result is
    /// bit-identical to the corresponding sequential [`rank`](PageRank::rank)
    /// solve — the engine behind damping sweeps and personalization panels.
    pub fn rank_batch(&self, graph: &CsrGraph, columns: Vec<SolveColumn>) -> Vec<RankVector> {
        let op = UniformTransition::new(graph);
        solve(
            &op,
            &self.request(columns),
            &mut SolverWorkspace::new(),
            &mut [],
        )
    }

    /// A [`SolveRequest`] over `columns` carrying this configuration's
    /// stopping rule, formulation and dangling policy — what
    /// [`rank_batch`](PageRank::rank_batch) runs, for callers that hold
    /// their own operator, workspace or per-column observers.
    pub fn request(&self, columns: Vec<SolveColumn>) -> SolveRequest {
        SolveRequest::new(columns)
            .criteria(self.criteria)
            .formulation(self.formulation)
            .dangling(self.dangling)
    }

    /// A [`SolveColumn`] carrying this configuration's damping and teleport —
    /// the identity column of a [`rank_batch`](PageRank::rank_batch) sweep.
    pub fn column(&self) -> SolveColumn {
        SolveColumn::new(self.alpha, self.teleport.clone())
    }

    /// The damping parameter α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Builds the Monte-Carlo walk cache of this configuration's chain over
    /// the *forward* page graph — the offline half of the approximate
    /// personalized-PageRank fast path (see [`crate::approx`]).
    /// `config.beta` is overridden by this configuration's α so cache and
    /// solver always agree.
    pub fn build_walk_cache(
        &self,
        graph: &CsrGraph,
        config: WalkCacheConfig,
        path: &Path,
    ) -> Result<WalkStore, ApproxError> {
        let config = WalkCacheConfig {
            beta: self.alpha,
            ..config
        };
        WalkCacheBuilder::new(config).build(graph, path)
    }

    /// Binds a cache from [`build_walk_cache`](PageRank::build_walk_cache)
    /// to its graph, yielding the query-time engine whose
    /// [`query`](ApproxPpr::query) approximates seed-personalized PageRank
    /// (uniform seed teleport, L1-normalized like
    /// [`rank`](PageRank::rank)). Rejects caches built at a different α or
    /// graph size.
    pub fn approx<'a>(
        &self,
        graph: &'a CsrGraph,
        cache: &'a WalkStore,
    ) -> Result<ApproxPpr<'a, CsrGraph>, ApproxError> {
        if cache.meta().beta().to_bits() != self.alpha.to_bits() {
            return Err(ApproxError::CacheMismatch {
                message: format!(
                    "cache was built at beta {}, solver is configured for alpha {}",
                    cache.meta().beta(),
                    self.alpha
                ),
            });
        }
        ApproxPpr::new(graph, cache)
    }
}

/// Builder for [`PageRank`].
#[derive(Debug, Clone)]
pub struct PageRankBuilder {
    alpha: f64,
    teleport: Teleport,
    criteria: ConvergenceCriteria,
    formulation: Formulation,
    dangling: DanglingPolicy,
}

impl Default for PageRankBuilder {
    fn default() -> Self {
        PageRankBuilder {
            alpha: 0.85,
            teleport: Teleport::Uniform,
            criteria: ConvergenceCriteria::default(),
            formulation: Formulation::Eigenvector,
            dangling: DanglingPolicy::StronglyPreferential,
        }
    }
}

impl PageRankBuilder {
    /// Sets the damping parameter α (paper default 0.85).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the teleport distribution (default uniform). A non-uniform
    /// vector yields *personalized* PageRank.
    pub fn teleport(mut self, teleport: Teleport) -> Self {
        self.teleport = teleport;
        self
    }

    /// Sets the stopping rule.
    pub fn criteria(mut self, criteria: ConvergenceCriteria) -> Self {
        self.criteria = criteria;
        self
    }

    /// Sets the fixed-point formulation (default eigenvector).
    pub fn formulation(mut self, formulation: Formulation) -> Self {
        self.formulation = formulation;
        self
    }

    /// Sets the dangling-row patch policy (default strongly preferential —
    /// dangling mass re-enters through the teleport vector; see
    /// [`DanglingPolicy`]). Only the eigenvector formulation is affected.
    pub fn dangling(mut self, dangling: DanglingPolicy) -> Self {
        self.dangling = dangling;
        self
    }

    /// Finalizes the configuration.
    pub fn finish(self) -> PageRank {
        PageRank {
            alpha: self.alpha,
            teleport: self.teleport,
            criteria: self.criteria,
            formulation: self.formulation,
            dangling: self.dangling,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_graph::GraphBuilder;

    /// A warm restart of `pr` over `graph` from `initial`.
    fn warm_restart(pr: &PageRank, graph: &CsrGraph, initial: &[f64]) -> RankVector {
        pr.rank_operator_warm_in(
            &UniformTransition::new(graph),
            Some(initial),
            &mut SolverWorkspace::new(),
            None,
        )
    }

    #[test]
    fn hub_and_authority_ordering() {
        // 0,1,2 all point to 3; 3 points back to 0.
        let g = GraphBuilder::from_edges_exact(4, vec![(0, 3), (1, 3), (2, 3), (3, 0)]).unwrap();
        let r = PageRank::default().rank(&g);
        assert_eq!(r.sorted_desc()[0], 3);
        assert!(
            r.score(0) > r.score(1),
            "3's endorsement should lift 0 above 1"
        );
    }

    #[test]
    fn scores_sum_to_one() {
        let g = GraphBuilder::from_edges_exact(5, vec![(0, 1), (1, 2), (2, 0), (3, 0)]).unwrap();
        let r = PageRank::default().rank(&g);
        let sum: f64 = r.scores().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(r.stats().converged);
    }

    #[test]
    fn alpha_zero_gives_teleport() {
        let g = GraphBuilder::from_edges_exact(4, vec![(0, 1), (1, 2)]).unwrap();
        let r = PageRank::builder().alpha(0.0).finish().rank(&g);
        for &s in r.scores() {
            assert!((s - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn higher_alpha_amplifies_link_structure() {
        let g = GraphBuilder::from_edges_exact(4, vec![(0, 3), (1, 3), (2, 3), (3, 0)]).unwrap();
        let lo = PageRank::builder().alpha(0.5).finish().rank(&g);
        let hi = PageRank::builder().alpha(0.9).finish().rank(&g);
        assert!(hi.score(3) > lo.score(3));
    }

    #[test]
    fn personalized_pagerank_biases_toward_seed() {
        let g = GraphBuilder::from_edges_exact(4, vec![(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)])
            .unwrap();
        let ppr = PageRank::builder()
            .teleport(Teleport::over_seeds(4, &[0]))
            .finish()
            .rank(&g);
        let global = PageRank::default().rank(&g);
        assert!(ppr.score(0) > global.score(0));
    }

    #[test]
    fn warm_restart_after_mutation_is_cheaper_and_equal() {
        use sr_graph::GraphBuilder;
        let mut edges = vec![(0u32, 1u32), (1, 2), (2, 0), (3, 0), (2, 3)];
        let g = GraphBuilder::from_edges_exact(5, edges.clone()).unwrap();
        let pr = PageRank::default();
        let cold = pr.rank(&g);
        // Mutate: one new page (id 5) linking to node 0.
        edges.push((5, 0));
        let g2 = GraphBuilder::from_edges_exact(6, edges).unwrap();
        let cold2 = pr.rank(&g2);
        let warm2 = warm_restart(&pr, &g2, cold.scores());
        for (a, b) in cold2.scores().iter().zip(warm2.scores()) {
            assert!((a - b).abs() < 1e-8);
        }
        assert!(
            warm2.stats().iterations <= cold2.stats().iterations,
            "warm {} vs cold {}",
            warm2.stats().iterations,
            cold2.stats().iterations
        );
    }

    #[test]
    fn warm_restart_survives_edge_deletion() {
        // Warm restarts must stay correct when the mutation *removes*
        // structure, not just adds it — deletions change out-degrees, so the
        // old scores are approximate, never reusable as-is.
        let edges = vec![(0u32, 1u32), (1, 2), (2, 0), (3, 0), (2, 3), (0, 3)];
        let g = GraphBuilder::from_edges_exact(4, edges.clone()).unwrap();
        let pr = PageRank::default();
        let cold = pr.rank(&g);
        let pruned: Vec<_> = edges.into_iter().filter(|&e| e != (2, 3)).collect();
        let g2 = GraphBuilder::from_edges_exact(4, pruned).unwrap();
        let cold2 = pr.rank(&g2);
        let warm2 = warm_restart(&pr, &g2, cold.scores());
        for (a, b) in cold2.scores().iter().zip(warm2.scores()) {
            assert!((a - b).abs() < 1e-8);
        }
        assert!(warm2.stats().converged);
        assert!(warm2.stats().iterations <= cold2.stats().iterations);
    }

    #[test]
    fn warm_restart_extends_over_several_new_nodes() {
        // The length-extension path: the warm vector covers 4 of 7 nodes;
        // the three new ones must be seeded with their teleport mass.
        let mut edges = vec![(0u32, 1u32), (1, 2), (2, 0), (3, 0)];
        let g = GraphBuilder::from_edges_exact(4, edges.clone()).unwrap();
        let pr = PageRank::default();
        let cold = pr.rank(&g);
        edges.extend([(4, 0), (5, 4), (6, 2), (2, 6)]);
        let g2 = GraphBuilder::from_edges_exact(7, edges).unwrap();
        let cold2 = pr.rank(&g2);
        let warm2 = warm_restart(&pr, &g2, cold.scores());
        assert_eq!(warm2.scores().len(), 7);
        for (a, b) in cold2.scores().iter().zip(warm2.scores()) {
            assert!((a - b).abs() < 1e-8);
        }
        assert!(warm2.stats().converged);
        assert!(warm2.stats().iterations <= cold2.stats().iterations);
    }

    #[test]
    fn rank_batch_is_bitwise_equal_to_sequential_ranks() {
        let g = GraphBuilder::from_edges_exact(6, vec![(0, 1), (1, 2), (2, 0), (3, 0), (4, 5)])
            .unwrap();
        let alphas = [0.5, 0.85, 0.9];
        let columns: Vec<SolveColumn> = alphas
            .iter()
            .map(|&a| SolveColumn::new(a, Teleport::Uniform))
            .collect();
        let batched = PageRank::default().rank_batch(&g, columns);
        for (k, &a) in alphas.iter().enumerate() {
            let seq = PageRank::builder().alpha(a).finish().rank(&g);
            assert_eq!(batched[k].scores(), seq.scores());
            assert_eq!(batched[k].stats().iterations, seq.stats().iterations);
        }
    }

    #[test]
    fn rank_batch_keeps_the_configured_dangling_policy() {
        // A personalized solve with dangling nodes 2 and 4: under the weakly
        // preferential policy their mass spreads over every node, so nodes 3
        // and 4 (no in-links, outside the seed) must score above zero in the
        // batch exactly as in the sequential solve.
        let g = GraphBuilder::from_edges_exact(5, vec![(0, 1), (1, 2), (3, 0)]).unwrap();
        let pr = PageRank::builder()
            .teleport(Teleport::over_seeds(5, &[0]))
            .dangling(DanglingPolicy::WeaklyPreferential)
            .finish();
        let seq = pr.rank(&g);
        let batched = pr.rank_batch(&g, vec![pr.column()]);
        assert!(seq.score(3) > 0.0 && seq.score(4) > 0.0);
        assert_eq!(batched[0].scores(), seq.scores());
        assert_eq!(batched[0].stats(), seq.stats());
    }

    #[test]
    fn paper_equation_linear_form_close_to_eigenvector_on_strongly_connected() {
        let g = GraphBuilder::from_edges_exact(3, vec![(0, 1), (1, 2), (2, 0), (2, 1)]).unwrap();
        let eig = PageRank::default().rank(&g);
        let lin = PageRank::builder()
            .formulation(Formulation::LinearSystem)
            .finish()
            .rank(&g);
        for i in 0..3 {
            assert!((eig.score(i) - lin.score(i)).abs() < 1e-7);
        }
    }
}
