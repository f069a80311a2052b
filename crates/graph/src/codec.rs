//! The shared per-row adjacency codec: interval + gap + varint encoding.
//!
//! The paper's implementation managed its crawls "based on the WebGraph
//! compression framework" (Boldi & Vigna, WWW 2004). This codec reproduces
//! the load-bearing ideas of that framework in simplified form:
//!
//! * **interval encoding** — maximal runs of *consecutive* target ids
//!   (length ≥ [`MIN_INTERVAL_LEN`]) are stored as `(start, extra-length)`
//!   pairs instead of element by element; crawl-ordered Web graphs are full
//!   of such runs (a page linking a whole directory of a site, a farm page
//!   linking every sibling);
//! * **gap encoding** — the remaining ("residual") targets are sorted, so
//!   they are stored as gaps; the first value of each section is a signed
//!   (ZigZag) delta from the node's own id, exploiting the strong link
//!   locality of the Web (most links stay near their origin in crawl order);
//! * **byte-aligned instantaneous codes** — LEB128 varints rather than
//!   bit-level ζ-codes, trading a little density for much faster decoding in
//!   safe Rust.
//!
//! Per-row layout:
//!
//! ```text
//! degree, interval_count,
//!   [zigzag(start − node) | start − prev_end − 2, len − MIN_INTERVAL_LEN]*,
//!   [zigzag(r₀ − node), gap − 1*]
//! ```
//!
//! Reference-chain copying (compressing one list as an edit of another) is
//! intentionally omitted: it complicates streaming decode, and the ranking
//! kernels here always stream whole rows. There is no per-node random
//! access structure: rows are read sequentially from the segment container
//! behind both on-disk files — every payload of a
//! [`crate::ShardedCompressedGraph`] shard row and of a [`crate::WalkStore`]
//! walk row starts with one codec row — so a row encoded by any writer
//! decodes bit-identically through any reader, which the shard differential
//! suite leans on. [`compression_stats`] gives the codec's bits/edge figure
//! for an in-RAM graph.

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::ids::{node_id, node_range, NodeId};
use crate::varint;

/// Minimum run length of consecutive ids worth encoding as an interval.
/// (An interval costs ~2 bytes; `MIN_INTERVAL_LEN` residual gaps of value 0
/// cost 1 byte each, so 3 is the break-even and 4 a safe win.)
pub const MIN_INTERVAL_LEN: usize = 4;

/// Reusable working buffers for [`encode_row`] / [`decode_row_into`]. One scratch
/// amortizes the interval/residual vectors over a whole graph's rows — the
/// decode hot loop of the sharded SpMV allocates nothing per row.
#[derive(Debug, Default, Clone)]
pub struct CodecScratch {
    intervals: Vec<(NodeId, usize)>,
    residuals: Vec<NodeId>,
}

impl CodecScratch {
    /// Fresh scratch; buffers grow on first use and are reused afterwards.
    pub fn new() -> Self {
        CodecScratch::default()
    }
}

/// Appends the encoded adjacency list of `u` to `out`.
///
/// `neigh` must be strictly ascending (the CSR invariant). Returns
/// [`GraphError::GapOverflow`] if a first-delta falls outside the
/// ZigZag-encodable range (only reachable on graphs with more than
/// `i32::MAX` nodes).
pub fn encode_row(
    u: NodeId,
    neigh: &[NodeId],
    scratch: &mut CodecScratch,
    out: &mut Vec<u8>,
) -> Result<(), GraphError> {
    varint::write_u32(out, node_id(neigh.len()));
    if neigh.is_empty() {
        return Ok(());
    }
    // Split into maximal consecutive runs and residuals.
    let intervals = &mut scratch.intervals;
    let residuals = &mut scratch.residuals;
    intervals.clear();
    residuals.clear();
    let mut i = 0;
    while i < neigh.len() {
        let mut j = i;
        while j + 1 < neigh.len() && neigh[j + 1] == neigh[j] + 1 {
            j += 1;
        }
        let run = j - i + 1;
        if run >= MIN_INTERVAL_LEN {
            intervals.push((neigh[i], run));
        } else {
            residuals.extend_from_slice(&neigh[i..=j]);
        }
        i = j + 1;
    }
    let first_delta = |base: NodeId| {
        let delta = i64::from(base) - i64::from(u);
        varint::try_zigzag(delta).ok_or(GraphError::GapOverflow { node: u, delta })
    };
    varint::write_u32(out, node_id(intervals.len()));
    let mut prev_end: Option<NodeId> = None;
    for &(start, len) in intervals.iter() {
        match prev_end {
            // First interval start: signed delta from the node id.
            None => varint::write_u32(out, first_delta(start)?),
            // Later intervals: maximality guarantees start >= end + 2.
            Some(end) => varint::write_u32(out, start - end - 2),
        }
        varint::write_u32(out, node_id(len - MIN_INTERVAL_LEN));
        prev_end = Some(start + node_id(len) - 1);
    }
    if let Some((&first, rest)) = residuals.split_first() {
        varint::write_u32(out, first_delta(first)?);
        let mut prev = first;
        for &t in rest {
            // Residuals are strictly ascending; store gap-1.
            varint::write_u32(out, t - prev - 1);
            prev = t;
        }
    }
    Ok(())
}

/// Block-decodes the adjacency list of `node` from `buf[*pos..]`,
/// **appending** the successors to `out` in ascending order and advancing
/// `pos` past the row.
///
/// Shaped for the arena fills of the pipelined out-of-core solve: interval
/// runs are bulk-extended instead of stepped one id per loop trip, residual
/// gaps decode in a tight loop, and the two streams are merged with a
/// single two-pointer pass.
///
/// Every row it accepts is **strictly ascending**: residual gaps and
/// interval descriptors are ascending by construction, and the merge
/// rejects a residual that falls inside an interval. Malformed input —
/// truncation, a varint overflow, inconsistent interval/degree counts, an
/// overlap — yields [`GraphError::CorruptCompressedStream`], never a panic;
/// `out` may hold a partial row after an error.
#[inline]
pub fn decode_row_into(
    node: NodeId,
    buf: &[u8],
    pos: &mut usize,
    scratch: &mut CodecScratch,
    out: &mut Vec<NodeId>,
) -> Result<(), GraphError> {
    let corrupt = || GraphError::CorruptCompressedStream { node };
    let read = |pos: &mut usize| varint::read_u32(buf, pos).ok_or_else(corrupt);
    let signed_base = |delta_code: u32| -> Result<NodeId, GraphError> {
        let v = i64::from(node) + varint::unzigzag(delta_code);
        NodeId::try_from(v).map_err(|_| corrupt())
    };

    let degree = read(pos)? as usize;
    if degree == 0 {
        return Ok(());
    }
    let interval_count = read(pos)? as usize;
    if interval_count > degree / MIN_INTERVAL_LEN {
        return Err(corrupt());
    }
    // Interval descriptors: at most degree/MIN of them.
    let intervals = &mut scratch.intervals;
    intervals.clear();
    let mut prev_end: Option<NodeId> = None;
    let mut interval_total = 0usize;
    for _ in 0..interval_count {
        let head = read(pos)?;
        let start = match prev_end {
            None => signed_base(head)?,
            Some(end) => end.checked_add(head + 2).ok_or_else(corrupt)?,
        };
        let len = read(pos)? as usize + MIN_INTERVAL_LEN;
        let len_minus_1 = NodeId::try_from(len - 1).map_err(|_| corrupt())?;
        prev_end = Some(start.checked_add(len_minus_1).ok_or_else(corrupt)?);
        interval_total += len;
        intervals.push((start, len));
    }
    if interval_total > degree {
        return Err(corrupt());
    }
    let residual_count = degree - interval_total;

    if interval_count == 0 {
        // Residual-only rows (the common case on sparse crawl graphs):
        // gap-decode straight into `out`, no merge needed. `prev` accumulates
        // in u64 so the per-edge overflow guard is one compare instead of a
        // chained checked_add — this loop is the block-decode hot path.
        let first = signed_base(read(pos)?)?;
        out.push(first);
        let mut prev = u64::from(first);
        for _ in 1..residual_count {
            let gap = read(pos)?;
            prev += u64::from(gap) + 1;
            if prev > u64::from(NodeId::MAX) {
                return Err(corrupt());
            }
            #[expect(
                clippy::cast_possible_truncation,
                reason = "bounded by NodeId::MAX directly above"
            )]
            out.push(prev as NodeId);
        }
        return Ok(());
    }

    // Mixed rows: materialize the residual stream into scratch, then merge
    // with the intervals in one pass. Encoder-valid streams keep the two
    // strictly ascending and disjoint, so each interval is one bulk extend.
    let residuals = &mut scratch.residuals;
    residuals.clear();
    if residual_count > 0 {
        let first = signed_base(read(pos)?)?;
        residuals.push(first);
        let mut prev = u64::from(first);
        for _ in 1..residual_count {
            let gap = read(pos)?;
            prev += u64::from(gap) + 1;
            if prev > u64::from(NodeId::MAX) {
                return Err(corrupt());
            }
            #[expect(
                clippy::cast_possible_truncation,
                reason = "bounded by NodeId::MAX directly above"
            )]
            residuals.push(prev as NodeId);
        }
    }
    let mut ri = 0usize;
    for &(start, len) in intervals.iter() {
        while ri < residuals.len() && residuals[ri] < start {
            out.push(residuals[ri]);
            ri += 1;
        }
        // `start + len - 1` was overflow-checked when the descriptor parsed.
        let end = start + node_id(len) - 1;
        // The one overlap test: a residual inside this interval would break
        // the strictly ascending order the encoder always produces.
        if residuals.get(ri).is_some_and(|&r| r <= end) {
            return Err(corrupt());
        }
        out.extend(start..=end);
    }
    out.extend_from_slice(&residuals[ri..]);
    Ok(())
}

/// The codec's compression figures for `g`: every row encoded back to back
/// (no framing, no offsets), with the WebGraph bits-per-edge figure of
/// merit. Returns [`GraphError::GapOverflow`] where [`encode_row`] would.
pub fn compression_stats(g: &CsrGraph) -> Result<sr_obs::CompressionStats, GraphError> {
    let mut scratch = CodecScratch::new();
    let mut row = Vec::new();
    let mut data_bytes = 0usize;
    for u in node_range(g.num_nodes()) {
        row.clear();
        encode_row(u, g.neighbors(u), &mut scratch, &mut row)?;
        data_bytes += row.len();
    }
    let edges = g.num_edges();
    Ok(sr_obs::CompressionStats {
        nodes: g.num_nodes(),
        edges,
        data_bytes,
        bits_per_edge: if edges == 0 {
            0.0
        } else {
            (data_bytes * 8) as f64 / edges as f64
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(u: NodeId, neigh: &[NodeId]) -> Vec<NodeId> {
        let mut scratch = CodecScratch::new();
        let mut buf = Vec::new();
        encode_row(u, neigh, &mut scratch, &mut buf).unwrap();
        let mut out = Vec::new();
        let mut pos = 0;
        decode_row_into(u, &buf, &mut pos, &mut scratch, &mut out).unwrap();
        assert_eq!(pos, buf.len(), "decode must consume the row exactly");
        out
    }

    #[test]
    fn mixed_rows_roundtrip() {
        let cases: Vec<(NodeId, Vec<NodeId>)> = vec![
            (0, vec![]),
            (5, vec![0]),
            (5, vec![9]),
            (3, vec![0, 1, 2, 3, 4, 5]),          // one interval
            (7, vec![1, 5, 9, 20]),               // residuals only
            (2, vec![0, 10, 11, 12, 13, 14, 40]), // interval + residuals
            (8, vec![2, 3, 4, 5, 20, 21, 22, 23, 24, 50, 51]), // two intervals
            (1, vec![0, 1, 2, 3, 7, 8, 9, 10, 99]), // adjacent intervals
            (9, (0..100).collect()),
        ];
        for (u, neigh) in cases {
            assert_eq!(roundtrip(u, &neigh), neigh, "node {u}");
        }
    }

    #[test]
    fn scratch_reuse_across_rows() {
        let mut scratch = CodecScratch::new();
        let mut buf = Vec::new();
        encode_row(0, &[1, 2, 3, 4, 5, 90], &mut scratch, &mut buf).unwrap();
        encode_row(1, &[0, 7], &mut scratch, &mut buf).unwrap();
        let mut pos = 0;
        let mut a = Vec::new();
        decode_row_into(0, &buf, &mut pos, &mut scratch, &mut a).unwrap();
        let mut b = Vec::new();
        decode_row_into(1, &buf, &mut pos, &mut scratch, &mut b).unwrap();
        assert_eq!(a, vec![1, 2, 3, 4, 5, 90]);
        assert_eq!(b, vec![0, 7]);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn block_decode_appends_without_clearing() {
        let mut scratch = CodecScratch::new();
        let mut buf = Vec::new();
        encode_row(0, &[3, 9], &mut scratch, &mut buf).unwrap();
        let mut out = vec![77];
        let mut pos = 0;
        decode_row_into(0, &buf, &mut pos, &mut scratch, &mut out).unwrap();
        assert_eq!(out, vec![77, 3, 9]);
    }

    #[test]
    fn residual_inside_an_interval_is_typed_error() {
        // Row 0 = the interval 10..=13 plus one residual: at 12 or 13 it
        // overlaps the interval (no encoder writes that), at 9 or 14 the
        // row decodes strictly ascending.
        for (residual, ok) in [(12i64, false), (13, false), (9, true), (14, true)] {
            let mut buf = Vec::new();
            for v in [5, 1, varint::zigzag(10), 0, varint::zigzag(residual)] {
                varint::write_u32(&mut buf, v);
            }
            let mut out = Vec::new();
            let res = decode_row_into(0, &buf, &mut 0, &mut CodecScratch::new(), &mut out);
            if ok {
                res.unwrap();
                assert!(out.windows(2).all(|w| w[0] < w[1]), "{out:?}");
            } else {
                assert!(
                    matches!(res, Err(GraphError::CorruptCompressedStream { node: 0 })),
                    "residual {residual}: {res:?}"
                );
            }
        }
    }

    #[test]
    fn truncated_row_is_typed_error() {
        let mut scratch = CodecScratch::new();
        for neigh in [vec![1, 5, 9], (0..20).collect::<Vec<NodeId>>()] {
            let mut buf = Vec::new();
            encode_row(0, &neigh, &mut scratch, &mut buf).unwrap();
            buf.truncate(buf.len() - 1);
            let mut out = Vec::new();
            let mut pos = 0;
            let res = decode_row_into(0, &buf, &mut pos, &mut scratch, &mut out);
            assert!(matches!(
                res,
                Err(GraphError::CorruptCompressedStream { node: 0 })
            ));
        }
    }

    #[test]
    fn compression_stats_reward_locality_and_runs() {
        use crate::builder::GraphBuilder;
        // Every node links to its 8 nearest followers: tiny gaps, well
        // below CSR's 32 bits per edge.
        let mut b = GraphBuilder::with_nodes(2_000);
        for u in 0..2_000u32 {
            for k in 1..=8 {
                b.add_edge(u, (u + k) % 2_000);
            }
        }
        let local = compression_stats(&b.build()).unwrap();
        assert!(local.bits_per_edge < 12.0, "{local:?}");
        // Every node links to the 64 nodes after it: one interval per row.
        let mut b = GraphBuilder::with_nodes(1_064);
        for u in 0..1_000u32 {
            for k in 1..=64 {
                b.add_edge(u, u + k);
            }
        }
        let runs = compression_stats(&b.build()).unwrap();
        assert!(runs.bits_per_edge < 1.0, "{runs:?}");
        assert_eq!(runs.edges, 64_000);
        assert_eq!(runs.bits_per_edge, (runs.data_bytes * 8) as f64 / 64_000.0);
        // Edgeless rows cost one degree byte each and no figure of merit.
        let empty = compression_stats(&CsrGraph::empty(5)).unwrap();
        assert_eq!((empty.data_bytes, empty.bits_per_edge), (5, 0.0));
    }
}
