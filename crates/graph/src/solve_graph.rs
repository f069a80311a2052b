//! The storage abstraction the solve engine iterates over.
//!
//! Every ranking kernel in `sr-core` consumes adjacency the same way: visit
//! a contiguous row range, and for each row fold over its (ascending)
//! stored neighbors. [`SolveGraph`] captures exactly that access pattern —
//! nothing else — so the solver is independent of *how* rows are stored:
//!
//! * [`CsrGraph`] — rows are in-RAM slices, streamed for free;
//! * [`DeltaOverlay`] — rows come from the base CSR or its patch map;
//! * [`crate::ShardedCompressedGraph`] — rows are varint/gap-coded codec
//!   rows decoded page-by-page from disk into the caller's [`RowScratch`].
//!
//! The trait is deliberately *pull-shaped*: `stream_rows` hands each row to
//! a callback in ascending row order, which is what keeps the SpMV
//! reduction order — and therefore the rank bits — identical across
//! backends and thread counts.
//!
//! Next to the row-at-a-time path sits the **chunk-granularity** streaming
//! API ([`ChunkSource`]): a backend that stores rows in contiguous encoded
//! extents can expose exact byte spans ([`ChunkSpan`]), load a whole span
//! with one positioned read, and block-decode it into a reusable
//! [`ChunkArena`]. The pipelined out-of-core solver
//! (`sr_core::streamed`) prefetches spans one ahead of the compute sweep
//! and gathers from the arena lock-free.

use std::ops::Range;

use crate::codec::CodecScratch;
use crate::csr::CsrGraph;
use crate::delta::DeltaOverlay;
use crate::error::GraphError;
use crate::ids::{node_id, NodeId};

/// Caller-owned reusable buffers for [`SolveGraph::stream_rows`]: the
/// decoded row (`targets`), the codec's interval buffers, and the recycled
/// page buffer of the on-disk row walk. Sized by the largest row / page
/// seen, i.e. O(KBs), independent of graph size.
#[derive(Debug, Default)]
pub struct RowScratch {
    /// Decoded neighbor ids of the row currently being visited.
    pub(crate) targets: Vec<NodeId>,
    /// Interval/residual working set of the varint codec.
    pub(crate) codec: CodecScratch,
    /// Recycled backing buffer for the paged shard reader.
    pub(crate) page: Vec<u8>,
}

impl RowScratch {
    /// Fresh scratch; buffers grow on first use and are reused afterwards.
    pub fn new() -> Self {
        RowScratch::default()
    }
}

/// One unit of pipelined out-of-core work: a contiguous row range together
/// with the **exact** byte extent of its encoded payload and its edge count.
/// It is also the segment-table entry of the on-disk container, where
/// `edges` counts the segment's items (Σ row codec degrees).
///
/// Spans tile the row space (ascending, disjoint, covering every row), so a
/// solver can assign whole spans to workers and still write every output
/// row exactly once. Byte offsets are relative to the backend's data
/// section — a span is loaded with a single positioned read, no seeking or
/// prefix re-decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkSpan {
    /// Rows covered by the span (contiguous, ascending).
    pub rows: Range<usize>,
    /// Byte extent of the encoded rows, relative to the data section.
    pub bytes: Range<u64>,
    /// Stored edges (Σ row degrees) in the span.
    pub edges: u64,
}

impl ChunkSpan {
    /// Payload length in bytes.
    #[inline]
    pub fn byte_len(&self) -> usize {
        usize::try_from(self.bytes.end - self.bytes.start).unwrap_or(usize::MAX)
    }
}

/// A block-decoded chunk: flat `offsets`/`targets` arrays holding every row
/// of one [`ChunkSpan`], plus the codec scratch that filled them.
///
/// One arena per worker, reused across chunks **and** solver iterations:
/// [`ChunkSource::decode_chunk`] resets it (keeping capacity) and refills
/// it, so the steady-state hot loop allocates nothing and the gather reads
/// plain slices — no locks, no per-row decode state.
#[derive(Debug, Default)]
pub struct ChunkArena {
    /// First row held (arena row `i` is graph row `row_lo + i`).
    pub(crate) row_lo: usize,
    /// CSR-style offsets into `targets`, length `num_rows + 1`.
    pub(crate) offsets: Vec<usize>,
    /// Decoded neighbor ids, each row's slice ascending.
    pub(crate) targets: Vec<NodeId>,
    /// Interval/residual working set of the varint codec.
    pub(crate) codec: CodecScratch,
}

impl ChunkArena {
    /// Fresh arena; buffers grow on first use and are reused afterwards.
    pub fn new() -> Self {
        ChunkArena::default()
    }

    /// Clears decoded content (keeping capacity) and re-bases at `row_lo`.
    pub(crate) fn reset(&mut self, row_lo: usize) {
        self.row_lo = row_lo;
        self.offsets.clear();
        self.offsets.push(0);
        self.targets.clear();
    }

    /// First graph row held.
    #[inline]
    pub fn row_lo(&self) -> usize {
        self.row_lo
    }

    /// Number of rows currently decoded.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total decoded edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// The ascending neighbor slice of arena-relative row `rel`.
    #[inline]
    pub fn row(&self, rel: usize) -> &[NodeId] {
        &self.targets[self.offsets[rel]..self.offsets[rel + 1]]
    }

    /// The CSR-style offsets array, length [`num_rows`](Self::num_rows)` + 1`
    /// (arena-local: `offsets[0] == 0`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The flat decoded neighbor ids, every row's slice ascending.
    #[inline]
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// Current heap footprint in bytes (scratch-residency telemetry).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.targets.capacity() * std::mem::size_of::<NodeId>()
    }
}

/// Chunk-granularity streaming: the backend contract behind the pipelined
/// out-of-core solve.
///
/// Implementors promise that [`chunk_spans`](ChunkSource::chunk_spans)
/// tiles the row space and that
/// [`decode_chunk`](ChunkSource::decode_chunk) reproduces exactly the rows
/// [`SolveGraph::stream_rows`] would visit, in the same ascending neighbor
/// order — that identity is what makes the pipelined gather bitwise equal
/// to the generic path, and the shard differential suite pins it.
///
/// Every method reports malformed or truncated storage as a typed
/// [`GraphError`] — never a panic, so a corrupt shard surfaces as an error
/// from inside the prefetch pipeline instead of wedging it.
pub trait ChunkSource: Sync {
    /// Exact spans tiling the row space, edge-balanced toward at most
    /// `max_chunks` (backends may return more spans than requested —
    /// storage granularity permitting — but never fewer than their natural
    /// segment count).
    fn chunk_spans(&self, max_chunks: usize) -> Result<Vec<ChunkSpan>, GraphError>;

    /// Reads the span's full payload into `buf` (resized to fit, recycled
    /// across calls) with one positioned read.
    fn load_chunk(&self, span: &ChunkSpan, buf: &mut Vec<u8>) -> Result<(), GraphError>;

    /// Block-decodes `data` (the bytes [`load_chunk`](ChunkSource::load_chunk)
    /// produced for `span`) into `arena`, validating length prefixes, span
    /// byte coverage and the span's edge count.
    fn decode_chunk(
        &self,
        span: &ChunkSpan,
        data: &[u8],
        arena: &mut ChunkArena,
    ) -> Result<(), GraphError>;
}

/// Row-streaming adjacency storage a solver can run on.
///
/// Implementations must visit rows in ascending order with each row's
/// neighbors ascending — the determinism contract the differential suites
/// pin (1-vs-8-thread bitwise equality relies on a fixed fold order).
pub trait SolveGraph: Sync {
    /// Number of rows (nodes).
    fn num_nodes(&self) -> usize;

    /// Total stored edges.
    fn num_edges(&self) -> usize;

    /// Visits every row in `rows` (ascending), passing the row index and
    /// its neighbor slice to `f`. `scratch` is the caller-owned buffer set
    /// backing any decode work; in-RAM backends may ignore it.
    fn stream_rows(
        &self,
        rows: Range<usize>,
        scratch: &mut RowScratch,
        f: &mut dyn FnMut(usize, &[NodeId]),
    ) -> Result<(), GraphError>;

    /// Direct `(offsets, targets)` CSR slices when the whole adjacency is
    /// resident in RAM in that shape; `None` (the default) means callers
    /// must stream. A hot inner loop may use the view to skip the per-row
    /// callback dispatch of [`stream_rows`](SolveGraph::stream_rows) — the
    /// view exposes the same rows with the same ascending neighbor order,
    /// so taking the fast path can never change results.
    fn csr_view(&self) -> Option<(&[usize], &[NodeId])> {
        None
    }
}

impl SolveGraph for CsrGraph {
    fn num_nodes(&self) -> usize {
        CsrGraph::num_nodes(self)
    }

    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }

    fn stream_rows(
        &self,
        rows: Range<usize>,
        _scratch: &mut RowScratch,
        f: &mut dyn FnMut(usize, &[NodeId]),
    ) -> Result<(), GraphError> {
        for u in rows {
            f(u, self.neighbors(node_id(u)));
        }
        Ok(())
    }

    fn csr_view(&self) -> Option<(&[usize], &[NodeId])> {
        Some((self.offsets(), self.targets()))
    }
}

impl SolveGraph for DeltaOverlay {
    fn num_nodes(&self) -> usize {
        DeltaOverlay::num_nodes(self)
    }

    fn num_edges(&self) -> usize {
        DeltaOverlay::num_edges(self)
    }

    fn stream_rows(
        &self,
        rows: Range<usize>,
        _scratch: &mut RowScratch,
        f: &mut dyn FnMut(usize, &[NodeId]),
    ) -> Result<(), GraphError> {
        for u in rows {
            f(u, self.row(node_id(u)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::delta::GraphDelta;

    fn rows_of<G: SolveGraph>(g: &G, rows: Range<usize>) -> Vec<(usize, Vec<NodeId>)> {
        let mut scratch = RowScratch::new();
        let mut out = Vec::new();
        g.stream_rows(rows, &mut scratch, &mut |u, row| {
            out.push((u, row.to_vec()));
        })
        .unwrap();
        out
    }

    #[test]
    fn csr_streams_its_slices() {
        let g = GraphBuilder::from_edges(vec![(0, 1), (0, 2), (2, 0), (3, 1)]);
        let got = rows_of(&g, 0..g.num_nodes());
        assert_eq!(
            got,
            vec![(0, vec![1, 2]), (1, vec![]), (2, vec![0]), (3, vec![1]),]
        );
    }

    #[test]
    fn overlay_streams_patched_rows() {
        let base = GraphBuilder::from_edges(vec![(0, 1), (1, 2)]);
        let mut ov = DeltaOverlay::new(base);
        let mut d = GraphDelta::new();
        d.add_edge(0, 2);
        ov.apply(&d).unwrap();
        let got = rows_of(&ov, 0..3);
        assert_eq!(got[0], (0, vec![1, 2]));
        assert_eq!(got[1], (1, vec![2]));
    }

    #[test]
    fn partial_ranges_stream_only_requested_rows() {
        let g = GraphBuilder::from_edges(vec![(0, 1), (1, 0), (2, 1)]);
        let got = rows_of(&g, 1..2);
        assert_eq!(got, vec![(1, vec![0])]);
        assert!(rows_of(&g, 1..1).is_empty());
    }
}
