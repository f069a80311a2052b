//! Degree statistics and histograms.
//!
//! The generator's fidelity to the paper's crawls (Table 1) is judged on
//! these summaries: node/edge counts, mean out-degree, dangling fraction and
//! the shape of the in-degree distribution.

use crate::csr::CsrGraph;
use crate::ids::{node_id, node_range};
use crate::transpose::transpose;

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

/// Out-degree of every node.
pub fn out_degrees(g: &CsrGraph) -> Vec<usize> {
    node_range(g.num_nodes()).map(|u| g.out_degree(u)).collect()
}

/// In-degree of every node (one transpose pass).
pub fn in_degrees(g: &CsrGraph) -> Vec<usize> {
    let mut deg = vec![0usize; g.num_nodes()];
    for &t in g.targets() {
        deg[t as usize] += 1;
    }
    deg
}

/// Histogram of `values` in logarithmic (powers-of-two) buckets:
/// bucket `k` counts values in `[2^k, 2^(k+1))`; bucket for 0 is separate.
///
/// Returns `(zero_count, bucket_counts)`.
pub fn log2_histogram(values: &[usize]) -> (usize, Vec<usize>) {
    let zero = values.iter().filter(|&&v| v == 0).count();
    let max = values.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return (zero, Vec::new());
    }
    let buckets = (usize::BITS - max.leading_zeros()) as usize;
    let mut hist = vec![0usize; buckets];
    for &v in values {
        if v > 0 {
            hist[(usize::BITS - 1 - v.leading_zeros()) as usize] += 1;
        }
    }
    (zero, hist)
}

/// Fits the exponent of a power law `p(d) ~ d^-gamma` to an integer degree
/// sample using the Clauset–Shalizi–Newman discrete approximation with
/// `d_min = 1`: `gamma = 1 + n / sum(ln(d_i / (d_min - 1/2)))` over `d_i >= 1`.
///
/// Returns `None` when fewer than two positive observations exist.
pub fn powerlaw_mle(degrees: &[usize]) -> Option<f64> {
    let positives: Vec<f64> = degrees
        .iter()
        .filter(|&&d| d >= 1)
        .map(|&d| d as f64)
        .collect();
    if positives.len() < 2 {
        return None;
    }
    let log_sum: f64 = positives.iter().map(|d| (d / 0.5).ln()).sum();
    if log_sum <= 0.0 {
        return None;
    }
    Some(1.0 + positives.len() as f64 / log_sum)
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

/// Reciprocity: fraction of edges `(u, v)` for which `(v, u)` also exists.
/// Link exchanges (§2) inflate this; the generator keeps it near crawl level.
pub fn reciprocity(g: &CsrGraph) -> f64 {
    let t = transpose(g);
    edge_fraction(g, |u, v| t.neighbors(u).binary_search(&v).is_ok())
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
    fn in_out_degrees() {
        let g = GraphBuilder::from_edges(vec![(0, 2), (1, 2), (2, 0)]);
        assert_eq!(out_degrees(&g), vec![1, 1, 1]);
        assert_eq!(in_degrees(&g), vec![1, 0, 2]);
    }

    #[test]
    fn log2_histogram_buckets() {
        let (zero, hist) = log2_histogram(&[0, 1, 1, 2, 3, 4, 9]);
        assert_eq!(zero, 1);
        // [1,2): two 1s; [2,4): 2 and 3; [4,8): 4; [8,16): 9
        assert_eq!(hist, vec![2, 2, 1, 1]);
    }

    #[test]
    fn log2_histogram_all_zero() {
        let (zero, hist) = log2_histogram(&[0, 0]);
        assert_eq!(zero, 2);
        assert!(hist.is_empty());
    }

    #[test]
    fn powerlaw_mle_orders_exponents() {
        // The estimator is the continuous-Pareto MLE applied to integer
        // degrees, so flooring biases it upward; we only rely on it to
        // *order* distributions by heaviness and land in a sane range.
        let sample = |gamma: f64| -> Vec<usize> {
            let n = 20_000;
            (0..n)
                .map(|i| {
                    let u = (i as f64 + 0.5) / n as f64;
                    (1.0 - u).powf(-1.0 / (gamma - 1.0)).floor() as usize
                })
                .collect()
        };
        let flat = powerlaw_mle(&sample(2.1)).unwrap();
        let steep = powerlaw_mle(&sample(3.0)).unwrap();
        assert!(
            flat < steep,
            "heavier tail must estimate smaller exponent: {flat} vs {steep}"
        );
        assert!(
            (1.4..2.6).contains(&flat),
            "gamma=2.1 sample estimated {flat}"
        );
        assert!(
            (1.8..3.7).contains(&steep),
            "gamma=3.0 sample estimated {steep}"
        );
    }

    #[test]
    fn powerlaw_mle_degenerate_cases() {
        assert_eq!(powerlaw_mle(&[]), None);
        assert_eq!(powerlaw_mle(&[5]), None);
        assert_eq!(powerlaw_mle(&[0, 0, 5]), None); // a single positive value
                                                    // All-ones is the steepest representable sample: 1 + 1/ln(2).
        let est = powerlaw_mle(&[1, 1, 1]).unwrap();
        assert!((est - (1.0 + 1.0 / std::f64::consts::LN_2)).abs() < 1e-12);
    }

    #[test]
    fn reciprocity_of_exchange() {
        let g = GraphBuilder::from_edges(vec![(0, 1), (1, 0), (1, 2)]);
        let r = reciprocity(&g);
        assert!((r - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn edge_fraction_counts_predicate() {
        let g = GraphBuilder::from_edges(vec![(0, 1), (2, 3), (3, 2)]);
        let forward = edge_fraction(&g, |u, v| u < v);
        assert!((forward - 2.0 / 3.0).abs() < 1e-12);
    }
}
