//! Degree-run packed row storage for the pull-based SpMV gather (a
//! SELL-style layout).
//!
//! The textbook CSR row loop is slow on power-law graphs for a
//! non-obvious reason: not the random `x[col]` loads (a 60k-node iterate
//! sits in L2 and modern cores overlap those fine) but the *row structure*
//! itself. Trip counts of the inner loop follow the degree distribution, so
//! its exit branch mispredicts on nearly every row, and each row's sum is a
//! serial dependency chain of 3–4-cycle floating-point adds. Microbenchmarks
//! on the bench crawl put a flat (row-less) gather at ~7× the throughput of
//! the row loop — the rows, not the gather, are the bottleneck.
//!
//! [`SellRows`] removes both stalls without changing a single sum:
//!
//! * within each partition chunk, rows are processed in **degree-sorted
//!   order**, so the inner trip count is constant along each run of
//!   equal-degree rows and the exit branch predicts perfectly;
//! * full groups of [`SELL_LANES`] equal-degree rows have their column
//!   indices **packed column-major** (lane-interleaved), so the gather walks
//!   one sequential index stream carrying four independent accumulator
//!   chains — instruction-level parallelism across rows instead of a serial
//!   chain per row.
//!
//! Each row's partial sums still accumulate in ascending column order with a
//! single accumulator per row, so every row sum is **bit-identical** to the
//! naive CSR loop — reordering happens across rows, never within one. The
//! layout is built once per operator and reused by every solver iteration.
//!
//! ## Two builders, one planner
//!
//! Both builders share one layout planner (per-chunk stable degree sort,
//! equal-degree runs, lane groups) and differ only in how they fill it:
//!
//! * [`SellRows::from_transpose`] packs the **transpose of a forward CSR**
//!   straight into the layout — the in-RAM operators' path. One in-degree
//!   count sizes the rows and the edge partition, then one scatter of the
//!   forward edges in ascending source order lands each edge in its packed
//!   slot. Every row therefore lists its sources in ascending order, exactly
//!   as [`crate::transpose::transpose`] would, and the result equals
//!   [`SellRows::build`] over that transpose (`==`) without the transpose
//!   ever existing: the operator keeps one copy of the edges.
//! * [`SellRows::build`] packs a CSR structure it is handed — the
//!   out-of-core engine's decoded hot spans.
//!
//! [`SellRows::unpack`] inverts the packing back to natural-order CSR rows,
//! for the batched panel kernels ([`crate::panel`]) that read CSR.

use std::ops::Range;

use crate::csr::CsrGraph;
use crate::ids::{node_id, node_range};
use crate::partition::EdgePartition;
use crate::transpose::checked_bucket_starts;
use crate::weighted::WeightedGraph;

/// Rows per interleaved group. Four lanes saturate the FP-add ports of
/// current x86-64 cores while keeping the remainder loops short.
pub const SELL_LANES: usize = 4;

/// One maximal run of equal-degree rows inside a partition chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SellRun {
    /// Out-degree (in the packed structure's row space) of every row in
    /// this run.
    degree: u32,
    /// Indices into `SellRows::order` covered by this run.
    rows: Range<usize>,
    /// Start of this run's column indices in `SellRows::packed`.
    packed_start: usize,
}

/// Degree-run packed rows of a CSR structure, chunked by an
/// [`EdgePartition`]. See the module docs for the layout.
#[derive(Debug, Clone, PartialEq)]
pub struct SellRows {
    /// Row ids, chunk-major; degree-sorted (stably) within each chunk.
    order: Vec<u32>,
    /// Equal-degree runs, chunk-major.
    runs: Vec<SellRun>,
    /// Per chunk `i`, its runs are `runs[chunk_runs[i]..chunk_runs[i + 1]]`.
    chunk_runs: Vec<usize>,
    /// Column indices, permuted to the packed layout: per run, full
    /// [`SELL_LANES`]-row groups lane-interleaved, trailing rows row-major.
    packed: Vec<u32>,
    /// Edge weights permuted identically to `packed`; empty for unweighted
    /// structures.
    weights: Vec<f64>,
}

/// The shared layout planner: orders each chunk's rows by `degree` (stably,
/// so equal-degree rows keep ascending id order and the scattered `y`
/// stores stay near-sequential inside a run), cuts the equal-degree runs
/// and places each run in the packed array. Returns the layout with
/// `packed` and `weights` still empty, and the packed length it planned.
fn plan(partition: &EdgePartition, degree: impl Fn(usize) -> u32) -> (SellRows, usize) {
    let mut order: Vec<u32> = Vec::with_capacity(partition.num_rows());
    let mut runs: Vec<SellRun> = Vec::new();
    let mut chunk_runs: Vec<usize> = Vec::with_capacity(partition.num_chunks() + 1);
    let mut packed_len = 0usize;
    chunk_runs.push(0);
    for chunk in partition.chunks() {
        let base = order.len();
        order.extend(chunk.map(node_id));
        order[base..].sort_by_key(|&v| degree(v as usize));
        let mut s = base;
        while s < order.len() {
            let d = degree(order[s] as usize);
            let mut e = s + 1;
            while e < order.len() && degree(order[e] as usize) == d {
                e += 1;
            }
            runs.push(SellRun {
                degree: d,
                rows: s..e,
                packed_start: packed_len,
            });
            packed_len += (e - s) * d as usize;
            s = e;
        }
        chunk_runs.push(runs.len());
    }
    let sell = SellRows {
        order,
        runs,
        chunk_runs,
        packed: Vec::new(),
        weights: Vec::new(),
    };
    (sell, packed_len)
}

/// The planner's lane groups: calls `f(v, start, stride)` for every
/// row `v`, whose `j`-th entry lives at `packed[start + j * stride]` —
/// stride [`SELL_LANES`] inside a full lane group, 1 for a run's trailing
/// rows. A zero-degree row's `start` may equal the packed length; it is
/// never an index then.
fn for_each_slot(order: &[u32], runs: &[SellRun], mut f: impl FnMut(usize, usize, usize)) {
    for run in runs {
        let d = run.degree as usize;
        let mut p = run.packed_start;
        let mut groups = order[run.rows.clone()].chunks_exact(SELL_LANES);
        for group in groups.by_ref() {
            for (lane, &v) in group.iter().enumerate() {
                f(v as usize, p + lane, SELL_LANES);
            }
            p += SELL_LANES * d;
        }
        for &v in groups.remainder() {
            f(v as usize, p, 1);
            p += d;
        }
    }
}

impl SellRows {
    /// Packs an unweighted CSR structure over the chunks of `partition`.
    ///
    /// # Panics
    /// Panics if `offsets`/`targets` are inconsistent with each other or
    /// with the partition.
    pub fn build(offsets: &[usize], targets: &[u32], partition: &EdgePartition) -> Self {
        Self::build_impl(offsets, targets, None, partition)
    }

    /// Packs a weighted CSR structure; `weights` is permuted alongside the
    /// column indices.
    ///
    /// # Panics
    /// Panics if the three arrays are inconsistent or `weights.len() !=
    /// targets.len()`.
    pub fn build_weighted(
        offsets: &[usize],
        targets: &[u32],
        weights: &[f64],
        partition: &EdgePartition,
    ) -> Self {
        assert_eq!(weights.len(), targets.len(), "one weight per edge");
        Self::build_impl(offsets, targets, Some(weights), partition)
    }

    fn build_impl(
        offsets: &[usize],
        targets: &[u32],
        weights: Option<&[f64]>,
        partition: &EdgePartition,
    ) -> Self {
        assert_eq!(
            partition.num_rows(),
            offsets.len() - 1,
            "partition must cover the offsets"
        );
        assert_eq!(
            *offsets.last().unwrap(),
            targets.len(),
            "offsets/targets mismatch"
        );
        let (mut sell, packed_len) = plan(partition, |v| node_id(offsets[v + 1] - offsets[v]));
        // Every edge must land in the packed layout exactly once — a
        // mismatch means silently dropped or duplicated edges in release.
        assert_eq!(packed_len, targets.len());
        let mut packed = vec![0; packed_len];
        let mut packed_weights = vec![0.0; weights.map_or(0, <[f64]>::len)];
        for_each_slot(&sell.order, &sell.runs, |v, start, stride| {
            for (j, k) in (offsets[v]..offsets[v + 1]).enumerate() {
                packed[start + j * stride] = targets[k];
                if let Some(w) = weights {
                    packed_weights[start + j * stride] = w[k];
                }
            }
        });
        sell.packed = packed;
        sell.weights = packed_weights;
        sell
    }

    /// Packs the **transpose** of `g` — row `v` lists the sources of `v`'s
    /// in-edges, ascending — over an edge-balanced partition of at most
    /// `max_chunks` chunks of the transposed rows. Equal (`==`) to
    /// [`build`](SellRows::build) over [`crate::transpose::transpose`]`(g)`
    /// and its `EdgePartition::from_offsets(.., max_chunks)`, without
    /// materialising the transpose: one in-degree count, then one scatter
    /// of the forward edges in ascending source order.
    ///
    /// # Panics
    /// Panics if `max_chunks == 0`.
    pub fn from_transpose(g: &CsrGraph, max_chunks: usize) -> (Self, EdgePartition) {
        Self::from_transpose_impl(g.offsets(), g.targets(), None, max_chunks)
    }

    /// Weighted form of [`from_transpose`](SellRows::from_transpose): each
    /// edge weight travels with its edge, equal to
    /// [`build_weighted`](SellRows::build_weighted) over
    /// [`crate::transpose::transpose_weighted`]`(g)`.
    ///
    /// # Panics
    /// Panics if `max_chunks == 0`.
    pub fn from_transpose_weighted(g: &WeightedGraph, max_chunks: usize) -> (Self, EdgePartition) {
        Self::from_transpose_impl(g.offsets(), g.targets(), Some(g.weights()), max_chunks)
    }

    fn from_transpose_impl(
        offsets: &[usize],
        targets: &[u32],
        weights: Option<&[f64]>,
        max_chunks: usize,
    ) -> (Self, EdgePartition) {
        let n = offsets.len() - 1;
        // The in-degree count: the transposed offsets, which partition and
        // plan the transposed rows.
        let mut cursor = checked_bucket_starts(n, targets);
        let partition = EdgePartition::from_offsets(&cursor, max_chunks);
        let (mut sell, packed_len) = plan(&partition, |v| node_id(cursor[v + 1] - cursor[v]));
        // Planned, the offsets turn into per-row write cursors: row `v`'s
        // next slot and the step to the one after it.
        let mut stride = vec![0u8; n];
        for_each_slot(&sell.order, &sell.runs, |v, start, step| {
            cursor[v] = start;
            stride[v] = u8::try_from(step).expect("a slot stride is 1 or SELL_LANES");
        });
        // The scatter: forward rows in ascending source order, so each
        // transposed row fills in ascending source order.
        let mut packed = vec![0; packed_len];
        let mut packed_weights = vec![0.0; weights.map_or(0, <[f64]>::len)];
        for (u, row) in node_range(n).zip(offsets.windows(2)) {
            for k in row[0]..row[1] {
                let v = targets[k] as usize;
                let slot = cursor[v];
                packed[slot] = u;
                if let Some(w) = weights {
                    packed_weights[slot] = w[k];
                }
                cursor[v] = slot + usize::from(stride[v]);
            }
        }
        sell.packed = packed;
        sell.weights = packed_weights;
        (sell, partition)
    }

    /// The packed rows back in natural row order: row `v` of the result is
    /// row `v` of the structure that was packed.
    ///
    /// # Panics
    /// Panics if a row is not strictly ascending or names a column outside
    /// `0..num_rows` (never for a layout packed from a [`CsrGraph`] or by
    /// [`from_transpose`](SellRows::from_transpose)).
    pub fn unpack(&self) -> CsrGraph {
        let offsets = self.natural_offsets();
        let targets = self.unpack_edges(&self.packed, &offsets);
        CsrGraph::from_parts(offsets, targets)
    }

    /// Weighted form of [`unpack`](SellRows::unpack).
    ///
    /// # Panics
    /// Panics as [`unpack`](SellRows::unpack) does, or if the layout was
    /// built without weights (and has any edges).
    pub fn unpack_weighted(&self) -> WeightedGraph {
        assert_eq!(
            self.weights.len(),
            self.packed.len(),
            "layout built without weights"
        );
        let offsets = self.natural_offsets();
        let targets = self.unpack_edges(&self.packed, &offsets);
        let weights = self.unpack_edges(&self.weights, &offsets);
        WeightedGraph::from_parts(offsets, targets, weights)
    }

    /// CSR offsets of the packed rows in natural row order.
    fn natural_offsets(&self) -> Vec<usize> {
        let mut offsets = vec![0usize; self.order.len() + 1];
        for run in &self.runs {
            for &v in &self.order[run.rows.clone()] {
                offsets[v as usize + 1] = run.degree as usize;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        offsets
    }

    /// Permutes a per-edge array from packed order back to natural row
    /// order under `offsets`.
    fn unpack_edges<T: Copy + Default>(&self, packed: &[T], offsets: &[usize]) -> Vec<T> {
        let mut out = vec![T::default(); packed.len()];
        for_each_slot(&self.order, &self.runs, |v, start, stride| {
            for (j, k) in (offsets[v]..offsets[v + 1]).enumerate() {
                out[k] = packed[start + j * stride];
            }
        });
        out
    }

    /// Number of partition chunks the layout was built over.
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.chunk_runs.len() - 1
    }

    /// Current heap footprint in bytes (resident-memory telemetry; the
    /// out-of-core engine counts its hot SELL-packed spans against the
    /// arena cache budget with this).
    pub fn heap_bytes(&self) -> usize {
        self.order.capacity() * std::mem::size_of::<u32>()
            + self.runs.capacity() * std::mem::size_of::<SellRun>()
            + self.chunk_runs.capacity() * std::mem::size_of::<usize>()
            + self.packed.capacity() * std::mem::size_of::<u32>()
            + self.weights.capacity() * std::mem::size_of::<f64>()
    }

    /// Packing-efficiency telemetry for a run report (see
    /// [`sr_obs::PackingStats`]): how many rows land in full
    /// [`SELL_LANES`]-wide lane-interleaved groups (the ILP fast path) vs
    /// the row-major remainder loops, plus the run count the degree sort
    /// produced.
    pub fn packing_stats(&self) -> sr_obs::PackingStats {
        let mut lane_rows = 0;
        for run in &self.runs {
            if run.degree > 0 {
                lane_rows += (run.rows.len() / SELL_LANES) * SELL_LANES;
            }
        }
        sr_obs::PackingStats {
            rows: self.order.len(),
            lane_rows,
            runs: self.runs.len(),
            packed_edges: self.packed.len(),
        }
    }

    /// Computes `out[v - row_base] = Σ_k values[col(v, k)]` for every row
    /// `v` of chunk `chunk` — the unweighted pull gather. `row_base` must be
    /// the chunk's first row and `out` exactly the chunk's rows.
    pub fn row_sums_into(&self, chunk: usize, row_base: usize, values: &[f64], out: &mut [f64]) {
        for run in &self.runs[self.chunk_runs[chunk]..self.chunk_runs[chunk + 1]] {
            let d = run.degree as usize;
            let rows = &self.order[run.rows.clone()];
            if d == 0 {
                for &v in rows {
                    out[v as usize - row_base] = 0.0;
                }
                continue;
            }
            let mut p = run.packed_start;
            let mut groups = rows.chunks_exact(SELL_LANES);
            for group in groups.by_ref() {
                let block = &self.packed[p..p + SELL_LANES * d];
                let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
                for lanes in block.chunks_exact(SELL_LANES) {
                    a0 += values[lanes[0] as usize];
                    a1 += values[lanes[1] as usize];
                    a2 += values[lanes[2] as usize];
                    a3 += values[lanes[3] as usize];
                }
                out[group[0] as usize - row_base] = a0;
                out[group[1] as usize - row_base] = a1;
                out[group[2] as usize - row_base] = a2;
                out[group[3] as usize - row_base] = a3;
                p += SELL_LANES * d;
            }
            for &v in groups.remainder() {
                let mut acc = 0.0;
                for &u in &self.packed[p..p + d] {
                    acc += values[u as usize];
                }
                out[v as usize - row_base] = acc;
                p += d;
            }
        }
    }

    /// Weighted variant of [`row_sums_into`](SellRows::row_sums_into):
    /// `out[v - row_base] = Σ_k x[col(v, k)] · w(v, k)`.
    ///
    /// # Panics
    /// Panics if the layout was built without weights (and has any edges).
    pub fn weighted_row_sums_into(
        &self,
        chunk: usize,
        row_base: usize,
        x: &[f64],
        out: &mut [f64],
    ) {
        assert_eq!(
            self.weights.len(),
            self.packed.len(),
            "layout built without weights"
        );
        for run in &self.runs[self.chunk_runs[chunk]..self.chunk_runs[chunk + 1]] {
            let d = run.degree as usize;
            let rows = &self.order[run.rows.clone()];
            if d == 0 {
                for &v in rows {
                    out[v as usize - row_base] = 0.0;
                }
                continue;
            }
            let mut p = run.packed_start;
            let mut groups = rows.chunks_exact(SELL_LANES);
            for group in groups.by_ref() {
                let block = &self.packed[p..p + SELL_LANES * d];
                let wblock = &self.weights[p..p + SELL_LANES * d];
                let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
                for (lanes, wl) in block
                    .chunks_exact(SELL_LANES)
                    .zip(wblock.chunks_exact(SELL_LANES))
                {
                    a0 += x[lanes[0] as usize] * wl[0];
                    a1 += x[lanes[1] as usize] * wl[1];
                    a2 += x[lanes[2] as usize] * wl[2];
                    a3 += x[lanes[3] as usize] * wl[3];
                }
                out[group[0] as usize - row_base] = a0;
                out[group[1] as usize - row_base] = a1;
                out[group[2] as usize - row_base] = a2;
                out[group[3] as usize - row_base] = a3;
                p += SELL_LANES * d;
            }
            for &v in groups.remainder() {
                let mut acc = 0.0;
                let row = p..p + d;
                for (&u, &w) in self.packed[row.clone()].iter().zip(&self.weights[row]) {
                    acc += x[u as usize] * w;
                }
                out[v as usize - row_base] = acc;
                p += d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offsets_of_degrees(degrees: &[usize]) -> Vec<usize> {
        let mut offsets = vec![0];
        let mut at = 0;
        for &d in degrees {
            at += d;
            offsets.push(at);
        }
        offsets
    }

    /// Structural invariants: `order` is a permutation of each chunk's rows,
    /// `packed` a permutation of `targets` that preserves each row's column
    /// order.
    fn assert_invariants(
        sell: &SellRows,
        offsets: &[usize],
        targets: &[u32],
        partition: &EdgePartition,
    ) {
        assert_eq!(sell.num_chunks(), partition.num_chunks());
        assert_eq!(sell.packed.len(), targets.len());
        for (i, chunk) in partition.chunks().enumerate() {
            let run_range = sell.chunk_runs[i]..sell.chunk_runs[i + 1];
            let mut seen: Vec<u32> = Vec::new();
            for run in &sell.runs[run_range] {
                for &v in &sell.order[run.rows.clone()] {
                    assert_eq!(
                        offsets[v as usize + 1] - offsets[v as usize],
                        run.degree as usize,
                        "row {v} filed under wrong degree run"
                    );
                    seen.push(v);
                }
            }
            let mut expect: Vec<u32> = chunk.map(|v| v as u32).collect();
            seen.sort_unstable();
            expect.sort_unstable();
            assert_eq!(seen, expect, "chunk {i} rows not a permutation");
        }
        // Row sums over an injective value map reproduce the CSR row sums —
        // with values chosen so any wrong/missing column changes the sum.
        let n = offsets.len() - 1;
        let max_col = targets.iter().copied().max().map_or(0, |c| c as usize + 1);
        let values: Vec<f64> = (0..max_col.max(n)).map(|i| (i * i + 1) as f64).collect();
        let mut out = vec![f64::NAN; n];
        for (i, chunk) in partition.chunks().enumerate() {
            let (lo, hi) = (chunk.start, chunk.end);
            sell.row_sums_into(i, lo, &values, &mut out[lo..hi]);
        }
        for v in 0..n {
            let want: f64 = targets[offsets[v]..offsets[v + 1]]
                .iter()
                .map(|&u| values[u as usize])
                .sum();
            assert_eq!(out[v], want, "row {v} sum mismatch");
        }
    }

    #[test]
    fn packs_mixed_degrees_across_chunks() {
        let degrees = [3usize, 0, 1, 3, 3, 1, 2, 3, 0, 3, 1, 3];
        let offsets = offsets_of_degrees(&degrees);
        let m = *offsets.last().unwrap();
        let targets: Vec<u32> = (0..m as u32).map(|k| (k * 7) % 12).collect();
        for chunks in [1, 2, 3] {
            let partition = EdgePartition::from_offsets(&offsets, chunks);
            let sell = SellRows::build(&offsets, &targets, &partition);
            assert_invariants(&sell, &offsets, &targets, &partition);
        }
    }

    #[test]
    fn lane_groups_interleave_column_major() {
        // Four rows of degree 2 in one chunk: packed must be lane-interleaved.
        let offsets = offsets_of_degrees(&[2, 2, 2, 2]);
        let targets = vec![10, 11, 20, 21, 30, 31, 40, 41];
        let partition = EdgePartition::from_offsets(&offsets, 1);
        let sell = SellRows::build(&offsets, &targets, &partition);
        assert_eq!(sell.packed, vec![10, 20, 30, 40, 11, 21, 31, 41]);
    }

    #[test]
    fn weighted_sums_match_csr() {
        let degrees = [2usize, 5, 0, 5, 1, 5, 5, 2];
        let offsets = offsets_of_degrees(&degrees);
        let m = *offsets.last().unwrap();
        let targets: Vec<u32> = (0..m as u32).map(|k| (k * 3) % 8).collect();
        let weights: Vec<f64> = (0..m).map(|k| 0.1 + k as f64).collect();
        let partition = EdgePartition::from_offsets(&offsets, 2);
        let sell = SellRows::build_weighted(&offsets, &targets, &weights, &partition);
        let x: Vec<f64> = (0..8).map(|i| 1.0 / (i + 1) as f64).collect();
        let mut out = [0.0; 8];
        for (i, chunk) in partition.chunks().enumerate() {
            let (lo, hi) = (chunk.start, chunk.end);
            sell.weighted_row_sums_into(i, lo, &x, &mut out[lo..hi]);
        }
        for v in 0..8 {
            let want: f64 = (offsets[v]..offsets[v + 1])
                .map(|k| x[targets[k] as usize] * weights[k])
                .sum();
            assert!(
                (out[v] - want).abs() < 1e-12,
                "row {v}: {} vs {want}",
                out[v]
            );
        }
    }

    #[test]
    fn empty_structure_is_fine() {
        let partition = EdgePartition::from_offsets(&[0], 4);
        let sell = SellRows::build(&[0], &[], &partition);
        assert_eq!(sell.num_chunks(), 1);
        let mut out: Vec<f64> = vec![];
        sell.row_sums_into(0, 0, &[], &mut out);
    }

    #[test]
    fn all_dangling_rows_zero_the_output() {
        let offsets = offsets_of_degrees(&[0; 6]);
        let partition = EdgePartition::from_offsets(&offsets, 2);
        let sell = SellRows::build(&offsets, &[], &partition);
        let mut out = [f64::NAN; 6];
        for (i, chunk) in partition.chunks().enumerate() {
            let (lo, hi) = (chunk.start, chunk.end);
            sell.row_sums_into(i, lo, &[], &mut out[lo..hi]);
        }
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn packing_stats_count_lane_groups() {
        // Five rows of degree 2 in one chunk: one full lane group (4 rows)
        // plus one remainder row; a lone degree-0 row adds a run but no
        // lane rows.
        let offsets = offsets_of_degrees(&[2, 2, 2, 2, 2, 0]);
        let targets = vec![0, 1, 2, 3, 4, 5, 0, 1, 2, 3];
        let partition = EdgePartition::from_offsets(&offsets, 1);
        let sell = SellRows::build(&offsets, &targets, &partition);
        let s = sell.packing_stats();
        assert_eq!(s.rows, 6);
        assert_eq!(s.lane_rows, 4);
        assert_eq!(s.runs, 2);
        assert_eq!(s.packed_edges, 10);
        assert!((s.lane_fraction() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn row_sums_are_bitwise_equal_to_sequential_csr() {
        // Long rows (degree > SELL_LANES) whose sums would differ under
        // re-association: the packed gather must keep each row's ascending
        // accumulation order, so equality is exact, not approximate.
        let degrees = [7usize, 7, 7, 7, 7, 3, 9, 9, 9, 9];
        let offsets = offsets_of_degrees(&degrees);
        let m = *offsets.last().unwrap();
        let targets: Vec<u32> = (0..m as u32).map(|k| (k * 13) % 10).collect();
        let values: Vec<f64> = (0..10).map(|i| 0.1234567 / (i as f64 + 0.71)).collect();
        let partition = EdgePartition::from_offsets(&offsets, 1);
        let sell = SellRows::build(&offsets, &targets, &partition);
        let mut out = vec![0.0; 10];
        sell.row_sums_into(0, 0, &values, &mut out);
        for v in 0..10 {
            let mut acc = 0.0;
            for &u in &targets[offsets[v]..offsets[v + 1]] {
                acc += values[u as usize];
            }
            assert_eq!(out[v], acc, "row {v} not bitwise equal");
        }
    }
}
