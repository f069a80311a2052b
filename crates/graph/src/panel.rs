//! CSR natural-order panel (SpMM) gather kernels for the batched solvers.
//!
//! A multi-vector solve packs K iterates into one row-major `[node][k]`
//! panel; the gather loads each adjacency row once and applies it to all K
//! columns. Unlike the single-vector gather, the panel kernels run straight
//! over the **CSR arrays in natural row order** rather than the degree-run
//! packed layout of [`crate::sell`]: the SELL transform exists to create
//! instruction-level parallelism *across* rows (one serial add chain per
//! row), but a panel row already carries K independent accumulator chains in
//! registers, so the lane-interleaved index walk and its order-permuted
//! output scatter only cost locality. Measured at one thread (best of 7
//! sweeps, 2-core x86-64 host, K = 2–8), the natural-order gather runs
//! 1.4–2.7× faster than a degree-ordered packed panel gather on 1M-page
//! generated crawls (seeds 7 and 11); on the 60k-page kernel-bench crawl,
//! whose narrow panels fit in cache, the two trade places (0.6–1.5×). The
//! in-RAM operators therefore build the CSR these kernels read — once, on
//! their first multi-column panel — by unpacking their SELL rows
//! ([`crate::SellRows::unpack`]).
//!
//! Both kernels fuse a per-edge scale into the gather (`1/out-degree` for
//! the uniform operator, the edge weight for weighted ones), which removes
//! the pre-scaled scratch panel — and its `n·K` stream per iteration — that
//! a separate pre-scale pass would need.
//!
//! Per (row, column) pair the accumulation runs in ascending CSR position
//! order with its own accumulator, and `x[u·K + k] · scale[u]` rounds
//! identically to a pre-scaled `scratch[u] = x[u] · scale[u]` gather, so
//! every column of the panel result is **bit-identical** to a single-vector
//! gather of that column — the contract the batched solve engine's
//! differential suite pins.

use crate::ids::NodeId;

/// Maximum column count of one SpMM panel the gather kernels specialize
/// for. The dispatchers monomorphize widths `1..=PANEL_MAX_WIDTH`; callers
/// tile wider batches into panels of at most this width — see `sr-core`'s
/// batched solve engine. Eight f64 columns make a 64-byte panel row, one
/// cache line per visited node.
pub const PANEL_MAX_WIDTH: usize = 8;

/// Scaled panel gather over rows `row_lo..row_lo + out.len() / width` of the
/// CSR structure `(offsets, targets)`:
///
/// `out[(v - row_lo)·width + k] = Σ_u x[u·width + k] · scale[u]` over the
/// entries `u` of row `v`, for every column `k < width`.
///
/// # Panics
/// Panics if `width` is 0 or exceeds [`PANEL_MAX_WIDTH`], or if `out` is not
/// a whole number of panel rows.
pub fn scaled_row_sums_panel_into(
    offsets: &[usize],
    targets: &[NodeId],
    scale: &[f64],
    row_lo: usize,
    x: &[f64],
    width: usize,
    out: &mut [f64],
) {
    match width {
        1 => scaled_impl::<1>(offsets, targets, scale, row_lo, x, out),
        2 => scaled_impl::<2>(offsets, targets, scale, row_lo, x, out),
        3 => scaled_impl::<3>(offsets, targets, scale, row_lo, x, out),
        4 => scaled_impl::<4>(offsets, targets, scale, row_lo, x, out),
        5 => scaled_impl::<5>(offsets, targets, scale, row_lo, x, out),
        6 => scaled_impl::<6>(offsets, targets, scale, row_lo, x, out),
        7 => scaled_impl::<7>(offsets, targets, scale, row_lo, x, out),
        8 => scaled_impl::<8>(offsets, targets, scale, row_lo, x, out),
        _ => panic!("panel width {width} outside 1..={PANEL_MAX_WIDTH}; tile wider batches"),
    }
}

fn scaled_impl<const K: usize>(
    offsets: &[usize],
    targets: &[NodeId],
    scale: &[f64],
    row_lo: usize,
    x: &[f64],
    out: &mut [f64],
) {
    assert_eq!(out.len() % K, 0, "out must hold whole panel rows");
    for (r, orow) in out.chunks_exact_mut(K).enumerate() {
        let v = row_lo + r;
        let mut acc = [0.0f64; K];
        for &u in &targets[offsets[v]..offsets[v + 1]] {
            let w = scale[u as usize];
            let xrow: &[f64; K] = x[u as usize * K..][..K].try_into().unwrap();
            for k in 0..K {
                acc[k] += xrow[k] * w;
            }
        }
        orow.copy_from_slice(&acc);
    }
}

/// Weighted panel gather over rows `row_lo..row_lo + out.len() / width`:
///
/// `out[(v - row_lo)·width + k] = Σ_j x[targets[j]·width + k] · weights[j]`
/// over the CSR positions `j` of row `v`, for every column `k < width`.
///
/// # Panics
/// Panics if `width` is 0 or exceeds [`PANEL_MAX_WIDTH`], or if `out` is not
/// a whole number of panel rows.
pub fn weighted_row_sums_panel_into(
    offsets: &[usize],
    targets: &[NodeId],
    weights: &[f64],
    row_lo: usize,
    x: &[f64],
    width: usize,
    out: &mut [f64],
) {
    match width {
        1 => weighted_impl::<1>(offsets, targets, weights, row_lo, x, out),
        2 => weighted_impl::<2>(offsets, targets, weights, row_lo, x, out),
        3 => weighted_impl::<3>(offsets, targets, weights, row_lo, x, out),
        4 => weighted_impl::<4>(offsets, targets, weights, row_lo, x, out),
        5 => weighted_impl::<5>(offsets, targets, weights, row_lo, x, out),
        6 => weighted_impl::<6>(offsets, targets, weights, row_lo, x, out),
        7 => weighted_impl::<7>(offsets, targets, weights, row_lo, x, out),
        8 => weighted_impl::<8>(offsets, targets, weights, row_lo, x, out),
        _ => panic!("panel width {width} outside 1..={PANEL_MAX_WIDTH}; tile wider batches"),
    }
}

fn weighted_impl<const K: usize>(
    offsets: &[usize],
    targets: &[NodeId],
    weights: &[f64],
    row_lo: usize,
    x: &[f64],
    out: &mut [f64],
) {
    assert_eq!(out.len() % K, 0, "out must hold whole panel rows");
    for (r, orow) in out.chunks_exact_mut(K).enumerate() {
        let v = row_lo + r;
        let mut acc = [0.0f64; K];
        for (&u, &w) in targets[offsets[v]..offsets[v + 1]]
            .iter()
            .zip(&weights[offsets[v]..offsets[v + 1]])
        {
            let xrow: &[f64; K] = x[u as usize * K..][..K].try_into().unwrap();
            for k in 0..K {
                acc[k] += xrow[k] * w;
            }
        }
        orow.copy_from_slice(&acc);
    }
}

/// Scaled panel **scatter** over the *forward* CSR structure: zeroes `out`,
/// then for every source row `u` streams its panel row once, scales it by
/// `scale[u]`, and scatter-adds it into each out-neighbor's output row:
///
/// `out[v·width + k] = Σ_{u → v} x[u·width + k] · scale[u]`.
///
/// This computes the same transposed product as
/// [`scaled_row_sums_panel_into`] run over the reversed structure, with the
/// memory roles swapped: the gather streams the output and loads scattered
/// panel rows; the scatter streams the input and read-modify-writes
/// scattered output rows. On crawl-ordered graphs the *forward* targets are
/// the clustered direction, so the scatter's scattered traffic hits cache
/// where the reverse gather's misses. Measured at one thread (best of 7
/// sweeps, 2-core x86-64 host, K = 2–8) it runs 1.1–2.0× faster than the
/// reverse gather on the 60k-page kernel-bench crawl and 1.0–1.8× on
/// 1M-page generated crawls (seeds 7 and 11). It is inherently serial
/// (output rows are shared between source rows), so operators use it for
/// single-chunk partitions and keep the chunked gather for parallel ones.
///
/// **Bit-identity:** destination `v` accumulates contributions in ascending
/// `u` (the forward traversal order), starting from `+0.0`. That is the
/// exact addition chain of a reverse-structure gather whose adjacency lists
/// sources in ascending order — which [`crate::transpose::transpose`]
/// guarantees — so each column stays bitwise equal to its single-vector
/// solve.
///
/// # Panics
/// Panics if `width` is 0 or exceeds [`PANEL_MAX_WIDTH`], or if `out` is not
/// a whole number of panel rows.
pub fn scaled_scatter_panel_into(
    offsets: &[usize],
    targets: &[NodeId],
    scale: &[f64],
    x: &[f64],
    width: usize,
    out: &mut [f64],
) {
    match width {
        1 => scaled_scatter_impl::<1>(offsets, targets, scale, x, out),
        2 => scaled_scatter_impl::<2>(offsets, targets, scale, x, out),
        3 => scaled_scatter_impl::<3>(offsets, targets, scale, x, out),
        4 => scaled_scatter_impl::<4>(offsets, targets, scale, x, out),
        5 => scaled_scatter_impl::<5>(offsets, targets, scale, x, out),
        6 => scaled_scatter_impl::<6>(offsets, targets, scale, x, out),
        7 => scaled_scatter_impl::<7>(offsets, targets, scale, x, out),
        8 => scaled_scatter_impl::<8>(offsets, targets, scale, x, out),
        _ => panic!("panel width {width} outside 1..={PANEL_MAX_WIDTH}; tile wider batches"),
    }
}

fn scaled_scatter_impl<const K: usize>(
    offsets: &[usize],
    targets: &[NodeId],
    scale: &[f64],
    x: &[f64],
    out: &mut [f64],
) {
    assert_eq!(out.len() % K, 0, "out must hold whole panel rows");
    out.fill(0.0);
    for (u, xrow) in x.chunks_exact(K).enumerate() {
        let w = scale[u];
        let mut sc = [0.0f64; K];
        for k in 0..K {
            sc[k] = xrow[k] * w;
        }
        for &v in &targets[offsets[u]..offsets[u + 1]] {
            let orow: &mut [f64; K] = (&mut out[v as usize * K..][..K]).try_into().unwrap();
            for k in 0..K {
                orow[k] += sc[k];
            }
        }
    }
}

/// Weighted panel **scatter** over the forward CSR structure: zeroes `out`,
/// then adds `x[u·width + k] · weights[j]` into `out[targets[j]·width + k]`
/// for every CSR position `j` of every source row `u`.
///
/// Same memory-role swap and serial-only caveat as
/// [`scaled_scatter_panel_into`]; bit-identical to
/// [`weighted_row_sums_panel_into`] over the reversed structure provided the
/// reversal lists each row's sources in ascending order with the matching
/// weights ([`crate::transpose::transpose_weighted`] guarantees this).
///
/// # Panics
/// Panics if `width` is 0 or exceeds [`PANEL_MAX_WIDTH`], or if `out` is not
/// a whole number of panel rows.
pub fn weighted_scatter_panel_into(
    offsets: &[usize],
    targets: &[NodeId],
    weights: &[f64],
    x: &[f64],
    width: usize,
    out: &mut [f64],
) {
    match width {
        1 => weighted_scatter_impl::<1>(offsets, targets, weights, x, out),
        2 => weighted_scatter_impl::<2>(offsets, targets, weights, x, out),
        3 => weighted_scatter_impl::<3>(offsets, targets, weights, x, out),
        4 => weighted_scatter_impl::<4>(offsets, targets, weights, x, out),
        5 => weighted_scatter_impl::<5>(offsets, targets, weights, x, out),
        6 => weighted_scatter_impl::<6>(offsets, targets, weights, x, out),
        7 => weighted_scatter_impl::<7>(offsets, targets, weights, x, out),
        8 => weighted_scatter_impl::<8>(offsets, targets, weights, x, out),
        _ => panic!("panel width {width} outside 1..={PANEL_MAX_WIDTH}; tile wider batches"),
    }
}

fn weighted_scatter_impl<const K: usize>(
    offsets: &[usize],
    targets: &[NodeId],
    weights: &[f64],
    x: &[f64],
    out: &mut [f64],
) {
    assert_eq!(out.len() % K, 0, "out must hold whole panel rows");
    out.fill(0.0);
    for (u, xrow) in x.chunks_exact(K).enumerate() {
        let xrow: &[f64; K] = xrow.try_into().unwrap();
        for (&v, &w) in targets[offsets[u]..offsets[u + 1]]
            .iter()
            .zip(&weights[offsets[u]..offsets[u + 1]])
        {
            let orow: &mut [f64; K] = (&mut out[v as usize * K..][..K]).try_into().unwrap();
            for k in 0..K {
                orow[k] += xrow[k] * w;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 rows: 0 -> {1, 2}, 1 -> {2}, 2 -> {}, 3 -> {0, 1, 3}.
    fn fixture() -> (Vec<usize>, Vec<NodeId>) {
        (vec![0, 2, 3, 3, 6], vec![1, 2, 2, 0, 1, 3])
    }

    /// Transpose of [`fixture`], rows listing sources in ascending order:
    /// 0 <- {3}, 1 <- {0, 3}, 2 <- {0, 1}, 3 <- {3}.
    fn fixture_rev() -> (Vec<usize>, Vec<NodeId>) {
        (vec![0, 1, 3, 5, 6], vec![3, 0, 3, 0, 1, 3])
    }

    fn panel_of(n: usize, width: usize) -> Vec<f64> {
        (0..n * width).map(|i| 0.25 + 0.5 * i as f64).collect()
    }

    #[test]
    fn scaled_gather_matches_per_column_reference() {
        let (offsets, targets) = fixture();
        let n = 4;
        let scale = [0.5, 1.0, 0.0, 0.25];
        for width in 1..=PANEL_MAX_WIDTH {
            let x = panel_of(n, width);
            let mut out = vec![f64::NAN; n * width];
            scaled_row_sums_panel_into(&offsets, &targets, &scale, 0, &x, width, &mut out);
            for v in 0..n {
                for k in 0..width {
                    let want: f64 = targets[offsets[v]..offsets[v + 1]]
                        .iter()
                        .map(|&u| x[u as usize * width + k] * scale[u as usize])
                        .sum();
                    assert_eq!(out[v * width + k], want, "width {width} row {v} col {k}");
                }
            }
        }
    }

    #[test]
    fn weighted_gather_matches_per_column_reference() {
        let (offsets, targets) = fixture();
        let n = 4;
        let weights = [0.3, 0.7, 1.0, 0.2, 0.5, 0.3];
        for width in 1..=PANEL_MAX_WIDTH {
            let x = panel_of(n, width);
            let mut out = vec![f64::NAN; n * width];
            weighted_row_sums_panel_into(&offsets, &targets, &weights, 0, &x, width, &mut out);
            for v in 0..n {
                for k in 0..width {
                    let want: f64 = (offsets[v]..offsets[v + 1])
                        .map(|j| x[targets[j] as usize * width + k] * weights[j])
                        .sum();
                    assert_eq!(out[v * width + k], want, "width {width} row {v} col {k}");
                }
            }
        }
    }

    #[test]
    fn chunked_rows_cover_the_same_panel() {
        let (offsets, targets) = fixture();
        let n = 4;
        let scale = [0.5, 1.0, 0.0, 0.25];
        let width = 3;
        let x = panel_of(n, width);
        let mut whole = vec![0.0; n * width];
        scaled_row_sums_panel_into(&offsets, &targets, &scale, 0, &x, width, &mut whole);
        let mut split = vec![0.0; n * width];
        let (lo, hi) = split.split_at_mut(width);
        scaled_row_sums_panel_into(&offsets, &targets, &scale, 0, &x, width, lo);
        scaled_row_sums_panel_into(&offsets, &targets, &scale, 1, &x, width, hi);
        assert_eq!(whole, split);
    }

    #[test]
    fn scaled_scatter_is_bitwise_equal_to_reverse_gather() {
        let (offsets, targets) = fixture();
        let (rev_offsets, rev_targets) = fixture_rev();
        let n = 4;
        let scale = [0.5, 1.0, 0.0, 0.25];
        for width in 1..=PANEL_MAX_WIDTH {
            let x = panel_of(n, width);
            let mut gathered = vec![0.0; n * width];
            scaled_row_sums_panel_into(
                &rev_offsets,
                &rev_targets,
                &scale,
                0,
                &x,
                width,
                &mut gathered,
            );
            let mut scattered = vec![f64::NAN; n * width];
            scaled_scatter_panel_into(&offsets, &targets, &scale, &x, width, &mut scattered);
            assert_eq!(gathered, scattered, "width {width}");
        }
    }

    #[test]
    fn weighted_scatter_is_bitwise_equal_to_reverse_gather() {
        let (offsets, targets) = fixture();
        let (rev_offsets, rev_targets) = fixture_rev();
        let n = 4;
        // Forward weights in forward CSR position order...
        let weights = [0.3, 0.7, 1.0, 0.2, 0.5, 0.3];
        // ...and the same weights permuted to the transposed positions.
        let rev_weights = [0.2, 0.3, 0.5, 0.7, 1.0, 0.3];
        for width in 1..=PANEL_MAX_WIDTH {
            let x = panel_of(n, width);
            let mut gathered = vec![0.0; n * width];
            weighted_row_sums_panel_into(
                &rev_offsets,
                &rev_targets,
                &rev_weights,
                0,
                &x,
                width,
                &mut gathered,
            );
            let mut scattered = vec![f64::NAN; n * width];
            weighted_scatter_panel_into(&offsets, &targets, &weights, &x, width, &mut scattered);
            assert_eq!(gathered, scattered, "width {width}");
        }
    }

    #[test]
    #[should_panic(expected = "tile wider batches")]
    fn overwide_scatter_rejected() {
        let (offsets, targets) = fixture();
        let width = PANEL_MAX_WIDTH + 1;
        let x = vec![0.0; 4 * width];
        let mut out = vec![0.0; 4 * width];
        scaled_scatter_panel_into(&offsets, &targets, &[0.0; 4], &x, width, &mut out);
    }

    #[test]
    #[should_panic(expected = "tile wider batches")]
    fn overwide_panel_rejected() {
        let (offsets, targets) = fixture();
        let width = PANEL_MAX_WIDTH + 1;
        let x = vec![0.0; 4 * width];
        let mut out = vec![0.0; 4 * width];
        scaled_row_sums_panel_into(&offsets, &targets, &[0.0; 4], 0, &x, width, &mut out);
    }
}
