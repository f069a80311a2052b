//! Edge-balanced row partitions of CSR adjacency.
//!
//! Parallelizing a pull-based SpMV "one task per row" load-balances terribly
//! on power-law degree distributions: a handful of hub rows own most of the
//! edges, so equal *row* counts give wildly unequal *work*. This module cuts
//! the row space into contiguous chunks owning a near-equal number of
//! **edges** instead. The solver operators compute a partition once per
//! operator (the offsets are immutable) and drive every subsequent iteration
//! over the same chunks — the per-iteration cost of balancing is zero.

use std::ops::Range;

/// A partition of rows `0..n` into contiguous chunks of near-equal edge
/// counts, derived from a CSR `offsets` array (unweighted or weighted —
/// anything with the `offsets[i]..offsets[i+1]` row convention).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgePartition {
    /// Chunk boundaries in row space: chunk `i` is rows
    /// `bounds[i]..bounds[i+1]`. `bounds[0] == 0`,
    /// `bounds.last() == num_rows`, non-decreasing.
    bounds: Vec<usize>,
    /// Prefix edge counts at each chunk boundary (`offsets[bounds[i]]`), so
    /// per-chunk edge counts — and balance telemetry — need no offsets.
    edge_bounds: Vec<usize>,
    /// Total edge count of the partitioned offsets (for budget reporting).
    num_edges: usize,
}

impl EdgePartition {
    /// Computes an edge-balanced partition of `offsets` into at most
    /// `max_chunks` chunks.
    ///
    /// Chunk `i` starts at the first row whose prefix edge count reaches
    /// `⌈i · E / chunks⌉`, so every chunk owns approximately `E / chunks`
    /// edges; a chunk can exceed that budget only by the edges of its final
    /// row (a single hub row heavier than the whole budget gets a chunk of
    /// its own, and neighboring chunks may come out empty).
    ///
    /// # Panics
    /// Panics if `offsets` is not a valid CSR offsets array (non-empty,
    /// starts at 0, non-decreasing) or `max_chunks == 0`.
    pub fn from_offsets(offsets: &[usize], max_chunks: usize) -> Self {
        assert!(
            !offsets.is_empty(),
            "offsets must contain at least the leading 0"
        );
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert!(max_chunks > 0, "max_chunks must be positive");
        // perf-assert: O(E) rescan of an invariant CsrGraph construction
        // already enforces; too hot for release partition builds.
        debug_assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        let num_rows = offsets.len() - 1;
        let num_edges = offsets[num_rows];
        let chunks = max_chunks.min(num_rows.max(1));
        if num_edges == 0 {
            // Degenerate (edgeless) structure: balance rows instead so the
            // y-initialization work still spreads across workers.
            let bounds = sr_par::even_bounds(num_rows, chunks);
            return EdgePartition {
                edge_bounds: vec![0; bounds.len()],
                bounds,
                num_edges,
            };
        }
        let mut bounds = Vec::with_capacity(chunks + 1);
        bounds.push(0);
        let mut row = 0;
        for i in 1..chunks {
            // Ceiling split keeps the last chunk from absorbing all rounding.
            let target = (num_edges * i).div_ceil(chunks);
            // First row whose prefix edge count reaches the target; search
            // only the suffix — boundaries never move backwards.
            row += offsets[row..=num_rows].partition_point(|&o| o < target);
            bounds.push(row);
        }
        bounds.push(num_rows);
        let edge_bounds = bounds.iter().map(|&r| offsets[r]).collect();
        EdgePartition {
            bounds,
            edge_bounds,
            num_edges,
        }
    }

    /// A partition with **exactly one chunk per segment** — no grouping, no
    /// splitting. The pipelined out-of-core solver uses this to expose its
    /// chunk spans (which already carry exact row/edge extents) as a
    /// partition for balance telemetry and worker-bound derivation: chunk
    /// `i` *is* span `i`.
    ///
    /// # Panics
    /// Panics if `seg_rows` is not a non-empty, zero-led, non-decreasing
    /// boundary array of `seg_edges.len() + 1` entries.
    pub fn from_exact_segments(seg_rows: &[usize], seg_edges: &[usize]) -> Self {
        assert!(!seg_rows.is_empty(), "seg_rows must contain the leading 0");
        assert_eq!(seg_rows[0], 0, "seg_rows must start at 0");
        assert_eq!(
            seg_rows.len(),
            seg_edges.len() + 1,
            "seg_rows must have one more entry than seg_edges"
        );
        assert!(
            seg_rows.windows(2).all(|w| w[0] <= w[1]),
            "seg_rows must be non-decreasing"
        );
        if seg_edges.is_empty() {
            // Zero segments (an empty graph): keep the ≥ 1 chunk invariant.
            return EdgePartition {
                bounds: vec![0, seg_rows[0]],
                edge_bounds: vec![0, 0],
                num_edges: 0,
            };
        }
        let mut edge_bounds = Vec::with_capacity(seg_edges.len() + 1);
        edge_bounds.push(0usize);
        for &e in seg_edges {
            edge_bounds.push(edge_bounds.last().unwrap() + e);
        }
        EdgePartition {
            bounds: seg_rows.to_vec(),
            num_edges: *edge_bounds.last().unwrap(),
            edge_bounds,
        }
    }

    /// Number of chunks (≥ 1; possibly fewer than requested when there are
    /// fewer rows than chunks).
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Number of rows covered.
    #[inline]
    pub fn num_rows(&self) -> usize {
        *self.bounds.last().unwrap()
    }

    /// Total edges in the partitioned structure.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The per-chunk edge budget `⌈E / chunks⌉`.
    #[inline]
    pub fn edge_budget(&self) -> usize {
        self.num_edges.div_ceil(self.num_chunks())
    }

    /// Chunk boundaries in row space (length `num_chunks() + 1`), in the
    /// exact shape `sr_par::for_each_part` consumes.
    #[inline]
    pub fn row_bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// Iterates all chunk row ranges in order.
    pub fn chunks(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.bounds.windows(2).map(|w| w[0]..w[1])
    }

    /// Edges owned by chunk `i`.
    #[inline]
    pub fn chunk_edges(&self, i: usize) -> usize {
        self.edge_bounds[i + 1] - self.edge_bounds[i]
    }

    /// Balance telemetry for a run report: chunk count, edge budget and the
    /// heaviest chunk's edge count (see [`sr_obs::PartitionStats`]).
    pub fn stats(&self) -> sr_obs::PartitionStats {
        let max_chunk_edges = (0..self.num_chunks())
            .map(|i| self.chunk_edges(i))
            .max()
            .unwrap_or(0);
        sr_obs::PartitionStats {
            chunks: self.num_chunks(),
            edges: self.num_edges,
            edge_budget: self.edge_budget(),
            max_chunk_edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offsets_of_degrees(degrees: &[usize]) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(degrees.len() + 1);
        let mut at = 0;
        offsets.push(0);
        for &d in degrees {
            at += d;
            offsets.push(at);
        }
        offsets
    }

    fn assert_invariants(p: &EdgePartition, offsets: &[usize]) {
        // Covers every row exactly once, in order.
        assert_eq!(p.row_bounds()[0], 0);
        assert_eq!(p.num_rows(), offsets.len() - 1);
        for w in p.row_bounds().windows(2) {
            assert!(
                w[0] <= w[1],
                "bounds must be non-decreasing: {:?}",
                p.row_bounds()
            );
        }
        // No chunk exceeds the edge budget except by its final row.
        for c in p.chunks() {
            if c.is_empty() {
                continue;
            }
            let edges = offsets[c.end] - offsets[c.start];
            let last_row_edges = offsets[c.end] - offsets[c.end - 1];
            assert!(
                edges <= p.edge_budget() + last_row_edges,
                "chunk {c:?} owns {edges} edges, budget {} + last row {last_row_edges}",
                p.edge_budget(),
            );
        }
    }

    #[test]
    fn uniform_degrees_split_evenly() {
        let offsets = offsets_of_degrees(&[3; 12]);
        let p = EdgePartition::from_offsets(&offsets, 4);
        assert_eq!(p.num_chunks(), 4);
        assert_eq!(p.row_bounds(), &[0, 3, 6, 9, 12]);
        assert_invariants(&p, &offsets);
    }

    #[test]
    fn hub_row_gets_isolated() {
        // Row 5 owns 1000 of the 1011 edges.
        let mut degrees = vec![1usize; 11];
        degrees[5] = 1000;
        let offsets = offsets_of_degrees(&degrees);
        let p = EdgePartition::from_offsets(&offsets, 4);
        assert_invariants(&p, &offsets);
        // Some chunk must consist of little more than the hub row.
        let hub_chunk = p.chunks().find(|c| c.contains(&5)).unwrap();
        assert!(hub_chunk.len() <= 7, "hub chunk too wide: {hub_chunk:?}");
    }

    #[test]
    fn more_chunks_than_rows_is_clamped() {
        let offsets = offsets_of_degrees(&[2, 2, 2]);
        let p = EdgePartition::from_offsets(&offsets, 16);
        assert_eq!(p.num_chunks(), 3);
        assert_invariants(&p, &offsets);
    }

    #[test]
    fn empty_graph_single_chunk() {
        let p = EdgePartition::from_offsets(&[0], 8);
        assert_eq!(p.num_chunks(), 1);
        assert_eq!(p.num_rows(), 0);
        assert_eq!(p.num_edges(), 0);
    }

    #[test]
    fn all_dangling_rows_still_covered() {
        let offsets = offsets_of_degrees(&[0; 9]);
        let p = EdgePartition::from_offsets(&offsets, 3);
        assert_eq!(p.num_rows(), 9);
        assert_invariants(&p, &offsets);
    }

    #[test]
    fn stats_report_balance() {
        let offsets = offsets_of_degrees(&[3; 12]);
        let p = EdgePartition::from_offsets(&offsets, 4);
        let s = p.stats();
        assert_eq!(s.chunks, 4);
        assert_eq!(s.edges, 36);
        assert_eq!(s.edge_budget, 9);
        assert_eq!(s.max_chunk_edges, 9);
        assert_eq!(s.imbalance(), 1.0);
        assert_eq!((0..4).map(|i| p.chunk_edges(i)).sum::<usize>(), 36);

        // Hub-heavy: the heaviest chunk dominates the budget.
        let mut degrees = vec![1usize; 11];
        degrees[5] = 1000;
        let offsets = offsets_of_degrees(&degrees);
        let p = EdgePartition::from_offsets(&offsets, 4);
        let s = p.stats();
        assert!(s.max_chunk_edges >= 1000);
        assert!(s.imbalance() > 1.0);

        // Edgeless: stats stay well-defined.
        let p = EdgePartition::from_offsets(&offsets_of_degrees(&[0; 5]), 2);
        assert_eq!(p.stats().max_chunk_edges, 0);
    }

    #[test]
    fn exact_segments_one_chunk_per_segment() {
        let seg_rows = [0usize, 4, 4, 9, 12];
        let seg_edges = [7usize, 0, 30, 2];
        let p = EdgePartition::from_exact_segments(&seg_rows, &seg_edges);
        assert_eq!(p.num_chunks(), 4);
        assert_eq!(p.row_bounds(), &seg_rows[..]);
        assert_eq!(p.num_rows(), 12);
        assert_eq!(p.num_edges(), 39);
        for (i, &e) in seg_edges.iter().enumerate() {
            assert_eq!(p.chunk_edges(i), e, "segment {i}");
        }
        assert_eq!(p.stats().max_chunk_edges, 30);

        // Zero segments keeps the ≥1-chunk invariant.
        let p = EdgePartition::from_exact_segments(&[0], &[]);
        assert_eq!(p.num_chunks(), 1);
        assert_eq!(p.num_rows(), 0);
        assert_eq!(p.num_edges(), 0);
    }

    #[test]
    fn power_law_degrees_balance_edges() {
        // Zipf-ish degrees: row k has ~N/k edges.
        let degrees: Vec<usize> = (1..=200).map(|k| 2000 / k).collect();
        let offsets = offsets_of_degrees(&degrees);
        let p = EdgePartition::from_offsets(&offsets, 8);
        assert_invariants(&p, &offsets);
        let budget = p.edge_budget();
        // Row-balanced chunks would put ~60% of edges in the first chunk;
        // edge-balanced chunks keep every chunk near the budget.
        for c in p.chunks() {
            let edges = offsets[c.end] - offsets[c.start];
            assert!(
                edges <= 2 * budget,
                "chunk {c:?} owns {edges}, budget {budget}"
            );
        }
    }
}
