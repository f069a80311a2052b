//! Spam-Resilient SourceRank (§3.4) — the paper's contribution.
//!
//! Pipeline: source graph with consensus weights (`T′`) → influence-throttle
//! transform (`T″`, §3.3) → selective random walk `T̂ = αT″ + (1−α)𝟙cᵀ`
//! (Eq. 2) solved to its stationary distribution σ.
//!
//! The walk has the paper's "selective" interpretation: at source `s_i` the
//! walker follows the self-edge with probability `ακ_i`, an out-edge with
//! probability `α(1−κ_i)`, and teleports with probability `1−α`.
//!
//! The builder takes κ only as a vector, through
//! [`throttle`](SpamResilientSourceRank::throttle). The §5 heuristic that
//! derives it from labeled spam seeds is
//! [`SpamProximity::throttle_top_k`](crate::SpamProximity::throttle_top_k),
//! which reports a degenerate seed set as a typed error.

use crate::convergence::ConvergenceCriteria;
use crate::power::SolverWorkspace;
use crate::rankvec::RankVector;
use crate::solver::{solve_weighted, Solver};
use crate::teleport::Teleport;
use crate::throttle::{self, SelfEdgePolicy, ThrottleVector};
use sr_graph::{SourceGraph, WeightedGraph};
use sr_obs::SolveObserver;

/// Configuration builder for Spam-Resilient SourceRank. Defaults match the
/// paper: α = 0.85, uniform teleport, L2 < 1e-9, no throttling (κ = 0).
#[derive(Debug, Clone, PartialEq)]
pub struct SpamResilientSourceRank {
    alpha: f64,
    teleport: Teleport,
    criteria: ConvergenceCriteria,
    solver: Solver,
    /// The explicit κ; `None` throttles nothing.
    throttle: Option<ThrottleVector>,
    self_edge_policy: SelfEdgePolicy,
}

impl Default for SpamResilientSourceRank {
    fn default() -> Self {
        Self::builder()
    }
}

impl SpamResilientSourceRank {
    /// Starts a configuration with paper defaults.
    pub fn builder() -> Self {
        SpamResilientSourceRank {
            alpha: 0.85,
            teleport: Teleport::Uniform,
            criteria: ConvergenceCriteria::default(),
            solver: Solver::Power,
            throttle: None,
            self_edge_policy: SelfEdgePolicy::Retain,
        }
    }

    /// Sets the mixing parameter α.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the teleport distribution `c`.
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

    /// Sets what happens to the mandated self-influence of throttled sources
    /// (see [`SelfEdgePolicy`]; default [`SelfEdgePolicy::Retain`], the
    /// paper-literal reading).
    pub fn self_edge_policy(mut self, policy: SelfEdgePolicy) -> Self {
        self.self_edge_policy = policy;
        self
    }

    /// Uses an explicit throttling vector κ.
    pub fn throttle(mut self, kappa: ThrottleVector) -> Self {
        self.throttle = Some(kappa);
        self
    }

    /// Builds the throttled model for `source_graph`, with κ all zeros when
    /// none was set. The model owns `T″` and can be ranked repeatedly.
    ///
    /// # Panics
    /// Panics if the κ set by [`throttle`](SpamResilientSourceRank::throttle)
    /// does not have one entry per source.
    pub fn build(self, source_graph: &SourceGraph) -> SpamResilientModel {
        let n = source_graph.num_sources();
        let kappa = self.throttle.unwrap_or_else(|| ThrottleVector::zeros(n));
        assert_eq!(kappa.len(), n, "throttle vector length mismatch");
        let throttled =
            throttle::apply_with_policy(source_graph.transitions(), &kappa, self.self_edge_policy);
        SpamResilientModel {
            throttled,
            kappa,
            alpha: self.alpha,
            teleport: self.teleport,
            criteria: self.criteria,
            solver: self.solver,
        }
    }
}

/// A ready-to-rank Spam-Resilient SourceRank model: the throttled transition
/// matrix `T″` plus walk parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SpamResilientModel {
    throttled: WeightedGraph,
    kappa: ThrottleVector,
    alpha: f64,
    teleport: Teleport,
    criteria: ConvergenceCriteria,
    solver: Solver,
}

impl SpamResilientModel {
    /// The influence-throttled transition matrix `T″`.
    pub fn transitions(&self) -> &WeightedGraph {
        &self.throttled
    }

    /// The resolved throttling vector κ.
    pub fn kappa(&self) -> &ThrottleVector {
        &self.kappa
    }

    /// Computes the Spam-Resilient SourceRank vector σ.
    pub fn rank(&self) -> RankVector {
        self.rank_warm_in(None, &mut SolverWorkspace::new(), None)
    }

    /// The general form of [`rank`](SpamResilientModel::rank): a warm
    /// restart, caller-owned solver buffers and telemetry — the incremental
    /// re-ranking entry point. `initial` may cover fewer sources than the model (sources
    /// added since it was computed); missing entries start at their
    /// teleport mass. See [`solve_weighted`] for the Gauss–Seidel caveat.
    pub fn rank_warm_in(
        &self,
        initial: Option<&[f64]>,
        ws: &mut SolverWorkspace,
        observer: Option<&mut (dyn SolveObserver + '_)>,
    ) -> RankVector {
        solve_weighted(
            &self.throttled,
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
    use crate::proximity::SpamProximity;
    use sr_graph::source_graph::{extract, SourceGraphConfig};
    use sr_graph::{GraphBuilder, SourceAssignment};

    /// s0 legit hub; s1 spam source funneled by s2 (colluder).
    /// Pages: 0,1 in s0; 2,3 in s1 (spam); 4,5 in s2 (colluder).
    fn fixture() -> SourceGraph {
        let edges = vec![
            (0, 1), // intra s0
            (1, 4), // s0 -> s2 (hijacked-ish link)
            (4, 2), // s2 -> s1
            (5, 3), // s2 -> s1
            (2, 3), // intra s1 (farm)
            (3, 2), // intra s1 (farm)
        ];
        let g = GraphBuilder::from_edges_exact(6, edges).unwrap();
        let a = SourceAssignment::new(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
        extract(&g, &a, SourceGraphConfig::consensus()).unwrap()
    }

    #[test]
    fn no_throttle_matches_baseline_sourcerank() {
        let sg = fixture();
        let srsr = SpamResilientSourceRank::builder().build(&sg).rank();
        let base = crate::sourcerank::SourceRank::new().rank(&sg);
        for i in 0..3 {
            assert!((srsr.score(i) - base.score(i)).abs() < 1e-9);
        }
    }

    #[test]
    fn throttling_spam_demotes_it() {
        let sg = fixture();
        let free = SpamResilientSourceRank::builder().build(&sg).rank();
        // Throttle the spam source and its feeder ever harder: the spam
        // source's score never rises.
        let mut spam_scores = Vec::new();
        for kappa_spam in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let mut kappa = ThrottleVector::zeros(3);
            kappa.set(1, kappa_spam);
            kappa.set(2, kappa_spam);
            let ranks = SpamResilientSourceRank::builder()
                .throttle(kappa)
                .build(&sg)
                .rank();
            spam_scores.push(ranks.score(1));
        }
        for w in spam_scores.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "spam score must not rise with kappa");
        }
        // With s2 fully throttled, no influence reaches s1 beyond teleport.
        let throttled = spam_scores[4];
        assert!(
            throttled < free.score(1),
            "throttled {throttled} vs free {}",
            free.score(1)
        );
    }

    #[test]
    fn proximity_throttling_end_to_end() {
        let sg = fixture();
        let kappa = SpamProximity::new()
            .beta(0.85)
            .throttle_top_k(&sg, &[1], 2)
            .unwrap();
        let model = SpamResilientSourceRank::builder()
            .throttle(kappa)
            .build(&sg);
        // Seed s1 plus its feeder s2 are the two most spam-proximate.
        assert_eq!(model.kappa().get(1), 1.0);
        assert_eq!(model.kappa().get(2), 1.0);
        assert_eq!(model.kappa().get(0), 0.0);
        // Throttling s2 cuts the endorsement chain into the spam source: s1
        // falls back to self-retained mass only, strictly below its
        // collusion-assisted score. (A throttled source keeps its own mass —
        // the paper's Eq. 4 one-time gain — so it need not drop to the very
        // bottom; what throttling removes is *incoming spam influence*.)
        let free = SpamResilientSourceRank::builder().build(&sg).rank();
        let throttled = model.rank();
        assert!(
            throttled.score(1) < free.score(1),
            "spam source must lose its colluder-fed score: {} vs {}",
            throttled.score(1),
            free.score(1)
        );
    }

    #[test]
    fn kappa_length_checked() {
        let sg = fixture();
        let bad = ThrottleVector::zeros(5);
        let res = std::panic::catch_unwind(|| {
            SpamResilientSourceRank::builder().throttle(bad).build(&sg)
        });
        assert!(res.is_err());
    }

    #[test]
    fn model_transitions_expose_t_double_prime() {
        let sg = fixture();
        let mut kappa = ThrottleVector::zeros(3);
        kappa.set(2, 0.8);
        let model = SpamResilientSourceRank::builder()
            .throttle(kappa)
            .build(&sg);
        assert!((model.transitions().weight(2, 2).unwrap() - 0.8).abs() < 1e-12);
        assert!(model.transitions().is_row_stochastic(1e-9));
    }

    #[test]
    fn self_edge_manipulation_gain_is_bounded() {
        // §4.1: a source raising w(s_t,s_t) from kappa to 1 gains at most
        // (1 - alpha*kappa) / (1 - alpha). Verify numerically for kappa=0:
        // gain <= 1/(1-0.85) ~ 6.67.
        let sg = fixture();
        let free = SpamResilientSourceRank::builder().build(&sg).rank();
        // Simulate the optimal configuration: s1 keeps all weight on itself.
        let mut kappa = ThrottleVector::zeros(3);
        kappa.set(1, 1.0); // forcing self-edge to 1 == spammer's optimum
        let manipulated = SpamResilientSourceRank::builder()
            .throttle(kappa)
            .build(&sg)
            .rank();
        let gain = manipulated.score(1) / free.score(1);
        assert!(
            gain <= 1.0 / (1.0 - 0.85) + 1e-6,
            "gain {gain} exceeds the §4.1 bound"
        );
    }
}
