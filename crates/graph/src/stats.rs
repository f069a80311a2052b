//! Graph summary statistics.
//!
//! The generator's tests check its crawls on these summaries: the mean
//! out-degree against its target and the fraction of intra-source links
//! against the configured link locality.

use crate::csr::CsrGraph;
use crate::ids::node_id;

/// Summary statistics of a directed graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of edges.
    pub num_edges: usize,
    /// Mean out-degree (`num_edges / num_nodes`), 0 for the empty graph.
    pub mean_out_degree: f64,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Number of nodes with no out-edges.
    pub dangling: usize,
    /// Number of nodes with a self-loop.
    pub self_loops: usize,
}

/// Computes [`GraphStats`] for `g` (parallel over nodes).
pub fn graph_stats(g: &CsrGraph) -> GraphStats {
    let n = g.num_nodes();
    let (max_out, dangling, self_loops) = sr_par::map_reduce_blocks(
        n,
        |rows| {
            let mut acc = (0usize, 0usize, 0usize);
            for u in rows {
                let d = g.out_degree(node_id(u));
                acc.0 = acc.0.max(d);
                acc.1 += usize::from(d == 0);
                acc.2 += usize::from(g.has_edge(node_id(u), node_id(u)));
            }
            acc
        },
        |a, b| (a.0.max(b.0), a.1 + b.1, a.2 + b.2),
    )
    .unwrap_or((0, 0, 0));
    GraphStats {
        num_nodes: n,
        num_edges: g.num_edges(),
        mean_out_degree: if n == 0 {
            0.0
        } else {
            g.num_edges() as f64 / n as f64
        },
        max_out_degree: max_out,
        dangling,
        self_loops,
    }
}

/// Fraction of edges whose endpoints satisfy `pred` — used to measure link
/// locality (fraction of intra-source links) against the target from the
/// link-locality literature the paper builds on.
pub fn edge_fraction<F: Fn(u32, u32) -> bool + Sync>(g: &CsrGraph, pred: F) -> f64 {
    if g.num_edges() == 0 {
        return 0.0;
    }
    let matching: usize = sr_par::map_reduce_blocks(
        g.num_nodes(),
        |rows| {
            rows.map(|u| {
                g.neighbors(node_id(u))
                    .iter()
                    .filter(|&&v| pred(node_id(u), v))
                    .count()
            })
            .sum()
        },
        |a: usize, b| a + b,
    )
    .unwrap_or(0);
    matching as f64 / g.num_edges() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn stats_of_small_graph() {
        let g = GraphBuilder::from_edges_exact(4, vec![(0, 1), (0, 2), (1, 1), (2, 3)]).unwrap();
        let s = graph_stats(&g);
        assert_eq!(s.num_nodes, 4);
        assert_eq!(s.num_edges, 4);
        assert_eq!(s.max_out_degree, 2);
        assert_eq!(s.dangling, 1); // node 3
        assert_eq!(s.self_loops, 1); // node 1
        assert!((s.mean_out_degree - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edge_fraction_counts_predicate() {
        let g = GraphBuilder::from_edges(vec![(0, 1), (2, 3), (3, 2)]);
        let forward = edge_fraction(&g, |u, v| u < v);
        assert!((forward - 2.0 / 3.0).abs() < 1e-12);
    }
}
