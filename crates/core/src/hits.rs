//! HITS (Kleinberg, JACM 1999) — hubs and authorities.
//!
//! Included as the second classic link-analysis comparator the paper names
//! among the algorithms its link-based vulnerabilities (§2) corrupt: a
//! hijacked reputable page inflates the authority of every page it is made
//! to point at.

use crate::convergence::{ConvergenceCriteria, IterationStats};
use crate::vecops;
use sr_graph::ids::node_range;
use sr_graph::transpose::transpose;
use sr_graph::CsrGraph;

/// HITS result: hub and authority score per node.
#[derive(Debug, Clone, PartialEq)]
pub struct HitsResult {
    /// Hub scores (L2-normalized).
    pub hubs: Vec<f64>,
    /// Authority scores (L2-normalized).
    pub authorities: Vec<f64>,
    /// Iteration diagnostics (residual measured on the authority vector).
    pub stats: IterationStats,
}

/// Runs HITS mutual reinforcement: `a ← Lᵀh`, `h ← La`, L2-normalizing each
/// step, until the authority vector moves less than the tolerance in L2.
pub fn hits(graph: &CsrGraph, criteria: &ConvergenceCriteria) -> HitsResult {
    let n = graph.num_nodes();
    let rev = transpose(graph);
    let mut hubs = vec![1.0; n];
    let mut auth = vec![1.0; n];
    let mut prev_auth = vec![0.0; n];
    let mut history = Vec::new();
    let mut converged = false;
    let mut residual = f64::INFINITY;

    if n == 0 {
        return HitsResult {
            hubs,
            authorities: auth,
            stats: IterationStats {
                iterations: 0,
                final_residual: 0.0,
                converged: true,
                residual_history: Vec::new(),
            },
        };
    }

    for _ in 0..criteria.max_iterations {
        prev_auth.copy_from_slice(&auth);
        // a[v] = sum of hub scores of pages linking to v.
        for v in node_range(n) {
            auth[v as usize] = rev.neighbors(v).iter().map(|&u| hubs[u as usize]).sum();
        }
        let an = vecops::l2_norm(&auth);
        if an > 0.0 {
            vecops::scale(&mut auth, 1.0 / an);
        }
        // h[u] = sum of authority scores of pages u links to.
        for u in node_range(n) {
            hubs[u as usize] = graph.neighbors(u).iter().map(|&v| auth[v as usize]).sum();
        }
        let hn = vecops::l2_norm(&hubs);
        if hn > 0.0 {
            vecops::scale(&mut hubs, 1.0 / hn);
        }
        residual = vecops::l2_distance(&prev_auth, &auth);
        history.push(residual);
        if residual < criteria.tolerance {
            converged = true;
            break;
        }
    }

    HitsResult {
        hubs,
        authorities: auth,
        stats: IterationStats {
            iterations: history.len(),
            final_residual: residual,
            converged,
            residual_history: history,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_graph::GraphBuilder;

    #[test]
    fn hub_and_authority_separation() {
        // 0 and 1 are hubs pointing at authorities 2 and 3.
        let g = GraphBuilder::from_edges_exact(4, vec![(0, 2), (0, 3), (1, 2), (1, 3)]).unwrap();
        let r = hits(&g, &ConvergenceCriteria::default());
        assert!(r.stats.converged);
        assert!(r.hubs[0] > r.hubs[2]);
        assert!(r.authorities[2] > r.authorities[0]);
        assert!((r.authorities[2] - r.authorities[3]).abs() < 1e-9);
    }

    #[test]
    fn authority_grows_with_in_links() {
        let g = GraphBuilder::from_edges_exact(4, vec![(0, 3), (1, 3), (2, 3), (0, 2)]).unwrap();
        let r = hits(&g, &ConvergenceCriteria::default());
        assert!(r.authorities[3] > r.authorities[2]);
    }

    #[test]
    fn vectors_are_l2_normalized() {
        let g = GraphBuilder::from_edges_exact(3, vec![(0, 1), (1, 2), (2, 0)]).unwrap();
        let r = hits(&g, &ConvergenceCriteria::default());
        assert!((vecops::l2_norm(&r.authorities) - 1.0).abs() < 1e-9);
        assert!((vecops::l2_norm(&r.hubs) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hijacking_inflates_authority() {
        // Baseline: reputable hub 0 points at 1. Hijack: 0 also made to
        // point at spam node 2 — 2's authority jumps from zero.
        let base = GraphBuilder::from_edges_exact(3, vec![(0, 1)]).unwrap();
        let hijacked = GraphBuilder::from_edges_exact(3, vec![(0, 1), (0, 2)]).unwrap();
        let rb = hits(&base, &ConvergenceCriteria::default());
        let rh = hits(&hijacked, &ConvergenceCriteria::default());
        assert!(rb.authorities[2] < 1e-12);
        assert!(
            rh.authorities[2] > 0.5,
            "hijacked authority = {}",
            rh.authorities[2]
        );
    }

    #[test]
    fn empty_graph() {
        let g = sr_graph::CsrGraph::empty(0);
        let r = hits(&g, &ConvergenceCriteria::default());
        assert!(r.stats.converged);
        assert!(r.hubs.is_empty());
    }
}
