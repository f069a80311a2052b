//! Spam-proximity scoring (§5) — how the throttling vector is derived.
//!
//! Given a small seed of known spam sources, the paper propagates "badness"
//! with an inverse-PageRank over the *reversed* source graph (Eq. 6),
//! teleporting to the seed set — the BadRank idea. A source scores high when
//! it is spam, links to spam, or links to sources that link to spam,
//! recursively. The top-k scored sources are then throttled completely.
//!
//! [`SpamProximity`] computes Eq. 6 one way. [`scores`](SpamProximity::scores)
//! answers one seed set and is the one-column case of
//! [`scores_batch`](SpamProximity::scores_batch), which answers many over
//! one reversed operator; [`throttle_top_k`](SpamProximity::throttle_top_k)
//! turns the scores into κ. Every column solves at the configured β, and
//! the reversed-walk weighting is the only switch:
//!
//! * [`ProximityWeighting::Consensus`] (default) — reversed edges carry the
//!   source-consensus weights of `T'`, so a source that devotes many of its
//!   pages to linking at spam inherits far more badness than a source with
//!   a single hijacked page. This is the natural source-level reading of
//!   Eq. 6 (whose `U` is "the transition matrix associated with the
//!   reversed source graph", and the source graph's matrix is consensus-
//!   weighted), and it is markedly more precise when hijacking is present.
//! * [`ProximityWeighting::Uniform`] — classic BadRank: every reversed edge
//!   weighs `1/indegree`. Kept for comparison; `bench_ablations` quantifies
//!   the difference.
//!
//! The uniform weighting is seed-personalized PageRank at α = β over the
//! transposed structural graph, so its approximate form is
//! [`PageRank::approx`](crate::PageRank::approx) over that graph, off a
//! walk cache built by
//! [`PageRank::build_walk_cache`](crate::PageRank::build_walk_cache) (see
//! [`crate::approx`]).

use crate::convergence::ConvergenceCriteria;
use crate::operator::{Transition, UniformTransition, WeightedTransition};
use crate::power::{self, SolveColumn, SolveRequest, SolverWorkspace};
use crate::rankvec::RankVector;
use crate::teleport::{Teleport, TeleportError};
use crate::throttle::ThrottleVector;
use sr_graph::transpose::transpose;
use sr_graph::{SourceGraph, WeightedGraph};

/// Edge weighting of the reversed badness walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProximityWeighting {
    /// Uniform `1/indegree` over reversed structural edges (BadRank).
    Uniform,
    /// Reversed consensus weights, row-renormalized. Default.
    #[default]
    Consensus,
}

/// Spam-proximity configuration. Defaults: β = 0.85, consensus weighting,
/// the paper's L2 < 1e-9 stopping rule.
#[derive(Debug, Clone, PartialEq)]
pub struct SpamProximity {
    beta: f64,
    criteria: ConvergenceCriteria,
    weighting: ProximityWeighting,
}

impl Default for SpamProximity {
    fn default() -> Self {
        SpamProximity {
            beta: 0.85,
            criteria: ConvergenceCriteria::default(),
            weighting: ProximityWeighting::Consensus,
        }
    }
}

impl SpamProximity {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the mixing factor β of Eq. 6.
    pub fn beta(mut self, beta: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&beta),
            "beta must be in [0,1), got {beta}"
        );
        self.beta = beta;
        self
    }

    /// Sets the stopping rule.
    pub fn criteria(mut self, criteria: ConvergenceCriteria) -> Self {
        self.criteria = criteria;
        self
    }

    /// Sets the reversed-walk weighting.
    pub fn weighting(mut self, weighting: ProximityWeighting) -> Self {
        self.weighting = weighting;
        self
    }

    /// Spam-proximity scores of every source of `source_graph` for one seed
    /// set: the one-column case of
    /// [`scores_batch`](SpamProximity::scores_batch). A degenerate seed set
    /// returns a typed [`TeleportError`] — never NaN ranks.
    pub fn scores(
        &self,
        source_graph: &SourceGraph,
        spam_seeds: &[u32],
    ) -> Result<RankVector, TeleportError> {
        Ok(self.scores_batch(source_graph, &[spam_seeds])?.remove(0))
    }

    /// Spam-proximity scores for each of `seed_sets`, in order: one column
    /// per seed set, solved in one SpMM panel family over a **single**
    /// reversed operator instead of one edge-stream pass per set — the
    /// multi-seed path of the sensitivity sweeps. Each column is
    /// bit-identical to its own [`scores`](SpamProximity::scores) call. The
    /// first degenerate seed set fails the whole batch with its
    /// [`TeleportError`].
    pub fn scores_batch<S: AsRef<[u32]>>(
        &self,
        source_graph: &SourceGraph,
        seed_sets: &[S],
    ) -> Result<Vec<RankVector>, TeleportError> {
        let n = source_graph.num_sources();
        let columns = seed_sets
            .iter()
            .map(|seeds| {
                let teleport = Teleport::try_over_seeds(n, seeds.as_ref())?;
                Ok(SolveColumn::new(self.beta, teleport))
            })
            .collect::<Result<Vec<_>, TeleportError>>()?;
        let request = SolveRequest::new(columns).criteria(self.criteria);
        let op = self.reversed(source_graph);
        Ok(power::solve(
            op.as_ref(),
            &request,
            &mut SolverWorkspace::new(),
            &mut [],
        ))
    }

    /// The reversed operator of the configured weighting: the one place the
    /// weighting is read.
    ///
    /// The consensus operator reverses the weighted transitions and
    /// renormalizes each row so it is again a random walk. Self-edges are
    /// excluded from the reversed walk: badness measures where a source's
    /// links *to others* lead, and a reversed self-loop would instead let
    /// well-self-connected legitimate sources absorb and hoard badness mass.
    ///
    /// Dropping self-edges can leave reversed rows empty — most visibly for
    /// a source whose only transition is its dangling-policy self-loop. Such
    /// rows are *dangling* in the badness walk, and the power solve
    /// redistributes their mass through the **seed teleport** (Eq. 2), not
    /// uniformly: an isolated source's badness flows back to the spam seeds
    /// instead of smearing over innocent bystanders. Pinned by
    /// `isolated_self_loop_sources_leak_no_badness` below.
    fn reversed(&self, source_graph: &SourceGraph) -> Box<dyn Transition> {
        match self.weighting {
            ProximityWeighting::Uniform => Box::new(UniformTransition::new(&transpose(
                source_graph.structural(),
            ))),
            ProximityWeighting::Consensus => {
                let transitions = source_graph.transitions();
                let triples: Vec<(u32, u32, f64)> = transitions
                    .edges()
                    .filter(|&(u, v, w)| u != v && w > 0.0)
                    .map(|(u, v, w)| (v, u, w))
                    .collect();
                let mut inverted = WeightedGraph::from_triples(transitions.num_nodes(), triples);
                inverted.normalize_rows();
                Box::new(WeightedTransition::new(&inverted))
            }
        }
    }

    /// End-to-end §5 heuristic: score every source, throttle the top `k`
    /// completely (`κ = 1`), everyone else not at all.
    pub fn throttle_top_k(
        &self,
        source_graph: &SourceGraph,
        spam_seeds: &[u32],
        k: usize,
    ) -> Result<ThrottleVector, TeleportError> {
        let scores = self.scores(source_graph, spam_seeds)?;
        Ok(ThrottleVector::top_k_complete(scores.scores(), k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_graph::source_graph::{extract, SourceGraphConfig};
    use sr_graph::{GraphBuilder, SourceAssignment};

    /// The page graph on `n` pages with each page its own source.
    fn pages_as_sources(n: usize, edges: Vec<(u32, u32)>) -> SourceGraph {
        let g = GraphBuilder::from_edges_exact(n, edges).unwrap();
        extract(
            &g,
            &SourceAssignment::identity(n),
            SourceGraphConfig::consensus(),
        )
        .unwrap()
    }

    /// 0 -> spam(3); 1 -> 0; 2 -> 1. In the reversed graph, badness flows
    /// 3 -> 0 -> 1 -> 2.
    fn chain() -> SourceGraph {
        pages_as_sources(4, vec![(0, 3), (1, 0), (2, 1)])
    }

    fn uniform() -> SpamProximity {
        SpamProximity::new().weighting(ProximityWeighting::Uniform)
    }

    #[test]
    fn seeds_score_highest() {
        let r = uniform().scores(&chain(), &[3]).unwrap();
        assert_eq!(r.sorted_desc()[0], 3);
    }

    #[test]
    fn proximity_decays_with_distance() {
        let r = uniform().scores(&chain(), &[3]).unwrap();
        assert!(r.score(0) > r.score(1));
        assert!(r.score(1) > r.score(2));
    }

    #[test]
    fn sources_not_linking_to_spam_score_low() {
        let sg = pages_as_sources(4, vec![(2, 1), (1, 0)]);
        let r = uniform().scores(&sg, &[0]).unwrap();
        assert!(r.score(3) < r.score(1));
        assert!(r.score(3) < r.score(2), "{:?}", r.scores());
    }

    #[test]
    fn empty_seed_rejected() {
        let r = uniform().scores(&chain(), &[]);
        assert_eq!(r.unwrap_err(), TeleportError::EmptySeeds);
    }

    #[test]
    fn beta_controls_propagation_reach() {
        let sg = chain();
        let near = uniform().beta(0.5).scores(&sg, &[3]).unwrap();
        let far = uniform().beta(0.95).scores(&sg, &[3]).unwrap();
        let near_ratio = near.score(1) / near.score(3);
        let far_ratio = far.score(1) / far.score(3);
        assert!(far_ratio > near_ratio);
    }

    #[test]
    fn multiple_seeds() {
        let sg = pages_as_sources(5, vec![(0, 3), (1, 4), (2, 0)]);
        let r = uniform().scores(&sg, &[3, 4]).unwrap();
        assert!(r.score(0) > r.score(2));
        assert!(r.score(1) > r.score(2));
    }

    /// Page graph with four sources: spam s2; s0 devotes many pages to
    /// linking s2 (a colluder); s1 has a single hijacked page linking s2
    /// and otherwise links the neutral source s3.
    fn hijack_vs_colluder() -> SourceGraph {
        let mut edges = Vec::new();
        // s0: pages 0..10, eight of them link into s2's page 20.
        for p in 0..8 {
            edges.push((p, 20u32));
        }
        // s1: pages 10..20; one hijacked page links s2; the rest link the
        // neutral source s3 (page 22).
        edges.push((10, 20));
        for p in 11..20 {
            edges.push((p, 22u32));
        }
        // s2: pages 20..22, internal farm.
        edges.push((20, 21));
        edges.push((21, 20));
        let g = GraphBuilder::from_edges_exact(24, edges).unwrap();
        let mut map = vec![0u32; 24];
        map[10..20].fill(1);
        map[20] = 2;
        map[21] = 2;
        map[22] = 3;
        map[23] = 3;
        let a = SourceAssignment::new(map, 4).unwrap();
        extract(&g, &a, SourceGraphConfig::consensus()).unwrap()
    }

    #[test]
    fn consensus_weighting_separates_colluder_from_hijack_victim() {
        let sg = hijack_vs_colluder();
        let weighted = SpamProximity::new().scores(&sg, &[2]).unwrap();
        // The colluder (8 of 10 pages pointing at spam) must score well
        // above the hijack victim (1 of 10 pages).
        assert!(
            weighted.score(0) > 2.0 * weighted.score(1),
            "colluder {} vs victim {}",
            weighted.score(0),
            weighted.score(1)
        );
        // Uniform weighting cannot tell them apart nearly as well.
        let uniform = SpamProximity::new()
            .weighting(ProximityWeighting::Uniform)
            .scores(&sg, &[2])
            .unwrap();
        let weighted_ratio = weighted.score(0) / weighted.score(1);
        let uniform_ratio = uniform.score(0) / uniform.score(1);
        assert!(
            weighted_ratio > uniform_ratio,
            "consensus ratio {weighted_ratio} should exceed uniform ratio {uniform_ratio}"
        );
    }

    #[test]
    fn isolated_self_loop_sources_leak_no_badness() {
        // Two isolated sources whose pages only link internally: each
        // source's transition row is exactly its self-loop. The consensus
        // walk drops self-edges, so the reversed walk has *no* edges at all —
        // every row is dangling.
        let g = GraphBuilder::from_edges_exact(4, vec![(0, 1), (2, 3)]).unwrap();
        let a = SourceAssignment::new(vec![0, 0, 1, 1], 2).unwrap();
        let sg = extract(&g, &a, SourceGraphConfig::consensus()).unwrap();
        let r = SpamProximity::new().scores(&sg, &[0]).unwrap();
        // Dangling mass must be redistributed through the seed teleport
        // (Eq. 2), making c = [1, 0] the exact fixed point. A uniform
        // redistribution would instead give source 1 a score of β/2.
        assert_eq!(r.score(0), 1.0);
        assert_eq!(r.score(1), 0.0, "non-seed must receive no dangling mass");
        assert!(r.stats().converged);
    }

    #[test]
    fn throttle_top_k_covers_seed_and_colluder() {
        let sg = hijack_vs_colluder();
        let t = SpamProximity::new().throttle_top_k(&sg, &[2], 2).unwrap();
        assert_eq!(t.get(2), 1.0, "seed must be throttled");
        assert_eq!(t.get(0), 1.0, "heavy colluder must be throttled");
        assert_eq!(t.get(1), 0.0, "hijack victim should survive at k=2");
    }
}
