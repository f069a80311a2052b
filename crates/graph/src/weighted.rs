//! Weighted CSR graph — the representation of the source transition matrices
//! `T'` (consensus-weighted) and `T''` (influence-throttled) from §3 of the
//! paper.

use crate::ids::{node_range, NodeId};

/// A directed graph in CSR layout with an `f64` weight per edge.
///
/// Rows are typically kept *row-stochastic* (weights of each node's out-edges
/// sum to 1) so the structure doubles as a sparse transition matrix; see
/// [`normalize_rows`](WeightedGraph::normalize_rows).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedGraph {
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    weights: Vec<f64>,
}

impl WeightedGraph {
    /// Builds from raw CSR parts. Invariants mirror
    /// [`CsrGraph::from_parts`](crate::CsrGraph::from_parts) plus
    /// `weights.len() == targets.len()` and all weights finite and `>= 0`.
    ///
    /// # Panics
    /// Panics on violated invariants.
    pub fn from_parts(offsets: Vec<usize>, targets: Vec<NodeId>, weights: Vec<f64>) -> Self {
        assert!(
            !offsets.is_empty(),
            "offsets must contain at least the leading 0"
        );
        assert_eq!(offsets[0], 0);
        assert_eq!(*offsets.last().unwrap(), targets.len());
        assert_eq!(weights.len(), targets.len(), "one weight per edge");
        let n = offsets.len() - 1;
        for w in offsets.windows(2) {
            assert!(w[0] <= w[1], "offsets must be non-decreasing");
        }
        for i in 0..n {
            let list = &targets[offsets[i]..offsets[i + 1]];
            for w in list.windows(2) {
                assert!(
                    w[0] < w[1],
                    "adjacency list of node {i} must be strictly ascending"
                );
            }
            if let Some(&t) = list.last() {
                assert!((t as usize) < n, "target {t} out of range for {n} nodes");
            }
        }
        for &w in &weights {
            assert!(
                w.is_finite() && w >= 0.0,
                "edge weights must be finite and non-negative"
            );
        }
        WeightedGraph {
            offsets,
            targets,
            weights,
        }
    }

    /// An edgeless weighted graph over `num_nodes` nodes.
    pub fn empty(num_nodes: usize) -> Self {
        WeightedGraph {
            offsets: vec![0; num_nodes + 1],
            targets: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `node`.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.offsets[node as usize + 1] - self.offsets[node as usize]
    }

    /// Successors of `node` (sorted).
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[node as usize]..self.offsets[node as usize + 1]]
    }

    /// Weights aligned with [`neighbors`](WeightedGraph::neighbors).
    #[inline]
    pub fn edge_weights(&self, node: NodeId) -> &[f64] {
        &self.weights[self.offsets[node as usize]..self.offsets[node as usize + 1]]
    }

    /// Mutable weights aligned with [`neighbors`](WeightedGraph::neighbors).
    #[inline]
    pub fn edge_weights_mut(&mut self, node: NodeId) -> &mut [f64] {
        &mut self.weights[self.offsets[node as usize]..self.offsets[node as usize + 1]]
    }

    /// The weight of edge `(u, v)`, or `None` if absent.
    pub fn weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let idx = self.neighbors(u).binary_search(&v).ok()?;
        Some(self.edge_weights(u)[idx])
    }

    /// Sum of the out-edge weights of `node`.
    pub fn row_sum(&self, node: NodeId) -> f64 {
        self.edge_weights(node).iter().sum()
    }

    /// Scales each node's out-edge weights so they sum to 1.
    ///
    /// Rows whose sum is 0 (no out-edges, or all-zero weights) are left
    /// untouched; callers decide the dangling policy.
    pub fn normalize_rows(&mut self) {
        for u in node_range(self.num_nodes()) {
            let sum = self.row_sum(u);
            if sum > 0.0 {
                for w in self.edge_weights_mut(u) {
                    *w /= sum;
                }
            }
        }
    }

    /// Whether every non-empty row sums to 1 within `tol`.
    pub fn is_row_stochastic(&self, tol: f64) -> bool {
        node_range(self.num_nodes()).all(|u| {
            let s = self.row_sum(u);
            s == 0.0 || (s - 1.0).abs() <= tol
        })
    }

    /// Raw offsets slice.
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Raw targets slice.
    #[inline]
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// Raw weights slice.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Approximate heap footprint in bytes (offsets + targets + weights).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<NodeId>()
            + self.weights.len() * std::mem::size_of::<f64>()
    }

    /// Iterates `(src, dst, weight)` over all edges.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        node_range(self.num_nodes()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .zip(self.edge_weights(u))
                .map(move |(&v, &w)| (u, v, w))
        })
    }

    /// Builds from an unsorted `(src, dst, weight)` list; duplicate edges have
    /// their weights summed.
    pub fn from_triples(num_nodes: usize, mut triples: Vec<(NodeId, NodeId, f64)>) -> Self {
        triples.sort_unstable_by_key(|&(s, d, _)| (s, d));
        let mut offsets = vec![0usize; num_nodes + 1];
        let mut targets = Vec::with_capacity(triples.len());
        let mut weights = Vec::with_capacity(triples.len());
        for &(s, d, w) in &triples {
            assert!(
                (s as usize) < num_nodes && (d as usize) < num_nodes,
                "endpoint out of range"
            );
            // Triples are sorted by (src, dst), so a duplicate of (s, d) can
            // only be the entry pushed immediately before: same row (row s has
            // already received entries) and same target.
            if offsets[s as usize + 1] > 0 && targets.last() == Some(&d) {
                *weights.last_mut().unwrap() += w;
            } else {
                targets.push(d);
                weights.push(w);
                offsets[s as usize + 1] += 1;
            }
        }
        for i in 0..num_nodes {
            offsets[i + 1] += offsets[i];
        }
        WeightedGraph::from_parts(offsets, targets, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WeightedGraph {
        WeightedGraph::from_parts(vec![0, 2, 3, 3], vec![1, 2, 0], vec![0.3, 0.7, 1.0])
    }

    #[test]
    fn accessors() {
        let g = sample();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.edge_weights(0), &[0.3, 0.7]);
        assert_eq!(g.weight(1, 0), Some(1.0));
        assert_eq!(g.weight(0, 0), None);
    }

    #[test]
    fn row_sums_and_stochastic_check() {
        let g = sample();
        assert!((g.row_sum(0) - 1.0).abs() < 1e-12);
        assert!(g.is_row_stochastic(1e-12));
    }

    #[test]
    fn normalize_rows_rescales() {
        let mut g = WeightedGraph::from_parts(vec![0, 2, 2], vec![0, 1], vec![2.0, 6.0]);
        g.normalize_rows();
        assert_eq!(g.edge_weights(0), &[0.25, 0.75]);
    }

    #[test]
    fn normalize_rows_skips_zero_rows() {
        let mut g = WeightedGraph::from_parts(vec![0, 1, 1], vec![1], vec![0.0]);
        g.normalize_rows();
        assert_eq!(g.edge_weights(0), &[0.0]);
        assert!(g.is_row_stochastic(1e-12)); // zero rows are allowed
    }

    #[test]
    fn from_triples_sorts_and_merges_duplicates() {
        let g = WeightedGraph::from_triples(
            3,
            vec![(1, 0, 0.5), (0, 2, 1.0), (0, 1, 2.0), (1, 0, 0.25)],
        );
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.edge_weights(0), &[2.0, 1.0]);
        assert_eq!(g.weight(1, 0), Some(0.75));
    }

    #[test]
    fn edges_iterator_yields_triples() {
        let g = sample();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1, 0.3), (0, 2, 0.7), (1, 0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_weights() {
        WeightedGraph::from_parts(vec![0, 1], vec![0], vec![f64::NAN]);
    }
}
