//! Graph transposition (edge reversal).
//!
//! The spam-proximity computation of §5 runs an inverse-PageRank over the
//! *reversed* source graph, and pull-style PageRank kernels iterate a node's
//! predecessors — both need the transpose.

use crate::csr::CsrGraph;
use crate::ids::{node_range, NodeId};
use crate::weighted::WeightedGraph;

/// Counting-sort bucket starts: per-target degree counts (shifted one slot
/// right) turned into an inclusive prefix sum, with every addition checked —
/// an overflowing degree total must fail loudly, not wrap into a
/// plausible-looking but bogus offsets array.
///
/// # Panics
/// Panics when the running total overflows `usize`.
pub(crate) fn checked_bucket_starts(n: usize, targets: &[NodeId]) -> Vec<usize> {
    let mut offsets = vec![0usize; n + 1];
    for &t in targets {
        offsets[t as usize + 1] += 1;
    }
    let mut acc = 0usize;
    for slot in offsets.iter_mut() {
        acc = acc
            .checked_add(*slot)
            .expect("transpose edge total overflows usize");
        *slot = acc;
    }
    offsets
}

/// Restores a bucket-start array consumed as scatter cursors back into CSR
/// offsets: after the scatter, `offsets[v]` holds the *end* of row `v`
/// (each insertion advanced it), i.e. exactly the value `offsets[v + 1]`
/// should carry. One rotation fixes the whole array — no second pass and no
/// per-row offset recomputation against a cloned cursor array.
fn cursors_to_offsets(offsets: &mut [usize]) {
    offsets.rotate_right(1);
    offsets[0] = 0;
}

/// Returns the transpose of `g`: edge `(u, v)` becomes `(v, u)`.
///
/// Runs in `O(V + E)` with a counting sort, so adjacency lists of the result
/// are sorted (sources ascending per row) without an explicit sort pass.
/// The bucket fill uses the offsets array itself as the scatter cursors —
/// no cloned cursor array — and the prefix sum is overflow-checked.
pub fn transpose(g: &CsrGraph) -> CsrGraph {
    let n = g.num_nodes();
    let mut offsets = checked_bucket_starts(n, g.targets());
    let mut targets: Vec<NodeId> = vec![0; g.num_edges()];
    for u in node_range(n) {
        for &v in g.neighbors(u) {
            let slot = offsets[v as usize];
            targets[slot] = u;
            offsets[v as usize] += 1;
        }
    }
    cursors_to_offsets(&mut offsets);
    CsrGraph::from_parts(offsets, targets)
}

/// Returns the transpose of a weighted graph, carrying edge weights along.
/// Same checked counting-sort scheme as [`transpose`].
pub fn transpose_weighted(g: &WeightedGraph) -> WeightedGraph {
    let n = g.num_nodes();
    let mut offsets = checked_bucket_starts(n, g.targets());
    let mut targets: Vec<NodeId> = vec![0; g.num_edges()];
    let mut weights = vec![0f64; g.num_edges()];
    for u in node_range(n) {
        for (&v, &w) in g.neighbors(u).iter().zip(g.edge_weights(u)) {
            let slot = offsets[v as usize];
            targets[slot] = u;
            weights[slot] = w;
            offsets[v as usize] += 1;
        }
    }
    cursors_to_offsets(&mut offsets);
    WeightedGraph::from_parts(offsets, targets, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn transpose_reverses_edges() {
        let g = GraphBuilder::from_edges(vec![(0, 1), (0, 2), (1, 2)]);
        let t = transpose(&g);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(2), &[0, 1]);
        assert_eq!(t.neighbors(0), &[] as &[NodeId]);
    }

    #[test]
    fn double_transpose_is_identity() {
        let g = GraphBuilder::from_edges(vec![(0, 3), (3, 1), (1, 0), (2, 2), (3, 2)]);
        assert_eq!(transpose(&transpose(&g)), g);
    }

    #[test]
    fn transpose_preserves_edge_count() {
        let g = GraphBuilder::from_edges((0..50u32).map(|i| (i, (i * 7 + 1) % 50)));
        let t = transpose(&g);
        assert_eq!(t.num_edges(), g.num_edges());
        assert_eq!(t.num_nodes(), g.num_nodes());
    }

    #[test]
    fn transpose_weighted_carries_weights() {
        let g = WeightedGraph::from_parts(vec![0, 2, 3], vec![0, 1, 0], vec![0.25, 0.75, 1.0]);
        let t = transpose_weighted(&g);
        // edges were (0,0,0.25) (0,1,0.75) (1,0,1.0); transpose:
        assert_eq!(t.neighbors(0), &[0, 1]);
        assert_eq!(t.edge_weights(0), &[0.25, 1.0]);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.edge_weights(1), &[0.75]);
    }
}
