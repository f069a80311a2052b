//! Edge-list accumulation and conversion to CSR.

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::ids::NodeId;

/// Accumulates directed edges and finalizes them into a [`CsrGraph`].
///
/// Edges may be added in any order and may contain duplicates; [`build`]
/// sorts and deduplicates. The builder grows the node count automatically to
/// cover every referenced endpoint, but a minimum can be reserved with
/// [`with_nodes`] so isolated trailing nodes survive.
///
/// [`build`]: GraphBuilder::build
/// [`with_nodes`]: GraphBuilder::with_nodes
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    edges: Vec<(NodeId, NodeId)>,
    num_nodes: usize,
}

impl GraphBuilder {
    /// A builder with no nodes or edges.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder guaranteed to produce a graph with at least `num_nodes` nodes.
    pub fn with_nodes(num_nodes: usize) -> Self {
        GraphBuilder {
            edges: Vec::new(),
            num_nodes,
        }
    }

    /// Pre-allocates room for `additional` more edges.
    pub fn reserve_edges(&mut self, additional: usize) {
        self.edges.reserve(additional);
    }

    /// Adds the directed edge `(src, dst)`, growing the node count as needed.
    #[inline]
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) {
        let hi = src.max(dst) as usize + 1;
        if hi > self.num_nodes {
            self.num_nodes = hi;
        }
        self.edges.push((src, dst));
    }

    /// Adds every edge from an iterator.
    pub fn extend_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: I) {
        for (s, d) in iter {
            self.add_edge(s, d);
        }
    }

    /// Current node count (max endpoint + 1, or the reserved minimum).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Sorts, deduplicates and converts the buffered edges into a CSR graph.
    pub fn build(mut self) -> CsrGraph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let n = self.num_nodes;
        let mut offsets = vec![0usize; n + 1];
        for &(s, _) in &self.edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets: Vec<NodeId> = self.edges.iter().map(|&(_, d)| d).collect();
        CsrGraph::from_parts(offsets, targets)
    }

    /// One-shot construction from an edge iterator.
    pub fn from_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(iter: I) -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.extend_edges(iter);
        b.build()
    }

    /// One-shot construction with an explicit node count, validating that all
    /// endpoints are in range rather than silently growing.
    pub fn from_edges_exact<I: IntoIterator<Item = (NodeId, NodeId)>>(
        num_nodes: usize,
        iter: I,
    ) -> Result<CsrGraph, GraphError> {
        let mut b = GraphBuilder::with_nodes(num_nodes);
        for (s, d) in iter {
            for node in [s, d] {
                if node as usize >= num_nodes {
                    return Err(GraphError::NodeOutOfRange { node, num_nodes });
                }
            }
            b.edges.push((s, d));
        }
        Ok(b.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sorts_and_dedups() {
        let g = GraphBuilder::from_edges(vec![(2, 0), (0, 1), (2, 0), (0, 2), (1, 2)]);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    fn with_nodes_keeps_isolated_tail() {
        let mut b = GraphBuilder::with_nodes(10);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.out_degree(9), 0);
    }

    #[test]
    fn node_count_grows_to_max_endpoint() {
        let mut b = GraphBuilder::new();
        b.add_edge(5, 2);
        assert_eq!(b.num_nodes(), 6);
        let g = b.build();
        assert_eq!(g.num_nodes(), 6);
    }

    #[test]
    fn from_edges_exact_rejects_out_of_range() {
        let err = GraphBuilder::from_edges_exact(3, vec![(0, 3)]).unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: 3,
                num_nodes: 3
            }
        );
    }

    #[test]
    fn from_edges_exact_accepts_in_range() {
        let g = GraphBuilder::from_edges_exact(3, vec![(0, 2), (2, 1)]).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn self_loops_are_preserved() {
        let g = GraphBuilder::from_edges(vec![(1, 1), (0, 1)]);
        assert!(g.has_edge(1, 1));
    }
}
