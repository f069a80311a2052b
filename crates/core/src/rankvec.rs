//! Ranking vectors: scores plus the rank/percentile machinery the paper's
//! evaluation (Figures 5–7) is phrased in.

use std::cmp::Ordering;

use sr_graph::ids::node_range;

use crate::convergence::IterationStats;
use crate::order::cmp_desc_nan_last;

/// The result of a ranking computation: one score per node plus solver
/// diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct RankVector {
    scores: Vec<f64>,
    stats: IterationStats,
}

impl RankVector {
    /// Wraps raw solver output.
    pub fn new(scores: Vec<f64>, stats: IterationStats) -> Self {
        RankVector { scores, stats }
    }

    /// Per-node scores (L1-normalized).
    #[inline]
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Score of one node.
    #[inline]
    pub fn score(&self, node: u32) -> f64 {
        self.scores[node as usize]
    }

    /// Solver diagnostics.
    #[inline]
    pub fn stats(&self) -> &IterationStats {
        &self.stats
    }

    /// Number of ranked nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Node ids sorted by descending score; ties broken by ascending id for
    /// determinism. NaN scores (from a pathological upstream solve) rank
    /// *last* — an unknown score never wins the ranking. The former
    /// `partial_cmp(..).expect("scores are finite")` panicked here instead.
    pub fn sorted_desc(&self) -> Vec<u32> {
        let mut idx: Vec<u32> = node_range(self.scores.len()).collect();
        idx.sort_unstable_by(self.rank_order());
        idx
    }

    /// The ranking's total order on node ids: descending score, NaN last,
    /// then ascending id. Total, so unstable sorts and selects agree with a
    /// stable sort.
    fn rank_order(&self) -> impl Fn(&u32, &u32) -> Ordering + '_ {
        |&a, &b| cmp_desc_nan_last(self.scores[a as usize], self.scores[b as usize]).then(a.cmp(&b))
    }

    /// 1-based rank position of every node (1 = highest score).
    pub fn rank_positions(&self) -> Vec<usize> {
        let order = self.sorted_desc();
        let mut pos = vec![0usize; self.scores.len()];
        for (rank, &node) in order.iter().enumerate() {
            pos[node as usize] = rank + 1;
        }
        pos
    }

    /// Ranking percentile of `node` in `[0, 100]`: the percentage of nodes
    /// with a *strictly lower* score, so the top node of a large ranking is
    /// ≈100 and every node tied at the minimum is 0. Ties share a
    /// percentile — essential on page graphs, where large plateaus of
    /// no-in-link pages carry identical scores. This is the scale
    /// Figures 6–7 of the paper report movements on ("jumped from the 19th
    /// percentile to the 99th percentile").
    pub fn percentile(&self, node: u32) -> f64 {
        let n = self.scores.len();
        assert!(n > 0, "percentile of empty ranking");
        let mine = self.scores[node as usize];
        let below = self.scores.iter().filter(|&&s| s < mine).count();
        100.0 * below as f64 / n as f64
    }

    /// Percentile of every node in one pass (avoids the per-call scan of
    /// [`percentile`](RankVector::percentile) when scoring many nodes).
    pub fn percentiles(&self) -> Vec<f64> {
        let n = self.scores.len();
        let mut sorted = self.scores.clone();
        // Ascending total order: NaN lands above +inf, i.e. at the tail,
        // where it cannot perturb the `x < s` partition of real scores.
        sorted.sort_by(f64::total_cmp);
        self.scores
            .iter()
            .map(|&s| 100.0 * sorted.partition_point(|&x| x < s) as f64 / n as f64)
            .collect()
    }

    /// The `k` top-scored node ids, in [`sorted_desc`](RankVector::sorted_desc)
    /// order: a partial select finds the `k` best in linear time, and only
    /// those `k` are sorted.
    pub fn top_k(&self, k: usize) -> Vec<u32> {
        let order = self.rank_order();
        let mut idx: Vec<u32> = node_range(self.scores.len()).collect();
        if k < idx.len() {
            idx.select_nth_unstable_by(k, &order);
            idx.truncate(k);
        }
        idx.sort_unstable_by(order);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rv(scores: Vec<f64>) -> RankVector {
        RankVector::new(
            scores,
            IterationStats {
                iterations: 1,
                final_residual: 0.0,
                converged: true,
                residual_history: vec![0.0],
            },
        )
    }

    #[test]
    fn sorted_desc_with_tie_break() {
        let r = rv(vec![0.2, 0.5, 0.2, 0.1]);
        assert_eq!(r.sorted_desc(), vec![1, 0, 2, 3]);
    }

    #[test]
    fn rank_positions_are_one_based() {
        let r = rv(vec![0.2, 0.5, 0.3]);
        assert_eq!(r.rank_positions(), vec![3, 1, 2]);
    }

    #[test]
    fn percentile_scale() {
        let r = rv((0..100).map(|i| i as f64).collect());
        assert_eq!(r.percentile(99), 99.0); // top
        assert_eq!(r.percentile(0), 0.0); // bottom
        assert_eq!(r.percentile(50), 50.0);
    }

    #[test]
    fn percentiles_match_percentile() {
        let r = rv(vec![0.4, 0.1, 0.9, 0.2]);
        let all = r.percentiles();
        for node in 0..4u32 {
            assert_eq!(all[node as usize], r.percentile(node));
        }
    }

    #[test]
    fn tied_scores_share_a_percentile() {
        // Four nodes tied at the bottom all sit at percentile 0; the top
        // node sits above all four.
        let r = rv(vec![0.1, 0.1, 0.1, 0.1, 0.9]);
        for node in 0..4 {
            assert_eq!(r.percentile(node), 0.0);
        }
        assert_eq!(r.percentile(4), 80.0);
    }

    #[test]
    fn top_k() {
        let r = rv(vec![0.1, 0.9, 0.5, 0.7]);
        assert_eq!(r.top_k(2), vec![1, 3]);
        assert_eq!(r.top_k(10).len(), 4);
    }

    #[test]
    fn nan_scores_rank_last_not_panic() {
        // Regression: sorted_desc used partial_cmp(..).expect("scores are
        // finite") and panicked the moment a solve emitted a NaN.
        let r = rv(vec![0.2, f64::NAN, 0.5, f64::NAN]);
        assert_eq!(r.sorted_desc(), vec![2, 0, 1, 3]); // NaNs last, id order
        assert_eq!(r.rank_positions(), vec![2, 3, 1, 4]);
        assert_eq!(r.top_k(2), vec![2, 0]); // unknown never beats known
    }

    #[test]
    fn nan_scores_do_not_perturb_percentiles() {
        let clean = rv(vec![0.1, 0.5, 0.9]);
        let dirty = rv(vec![0.1, 0.5, 0.9, f64::NAN]);
        // Finite nodes keep a sane ordering of percentiles; the NaN node
        // sits at the bottom (no node scores strictly below it).
        let p = dirty.percentiles();
        assert_eq!(p[3], 0.0);
        assert!(p[0] < p[1] && p[1] < p[2]);
        assert_eq!(dirty.percentile(3), 0.0);
        let _ = clean; // the clean twin exists to mirror the dirty shape
        assert_eq!(clean.percentiles().len(), 3);
    }
}
