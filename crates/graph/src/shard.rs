//! On-disk sharded compressed adjacency: the out-of-core solve substrate.
//!
//! A [`ShardedCompressedGraph`] stores the **reverse** graph (in-neighbor
//! rows, the orientation every pull-SpMV kernel consumes) as the *shard
//! schema* of the segment container (see `crate::segment` for the byte
//! layout): each segment is a *shard*, a contiguous row range whose
//! varint/gap-coded rows (the [`crate::codec`] format) live back to back in
//! one file. Row payload = codec row, segment items = edges (Σ degrees),
//! column = forward out-degrees. Only three things are resident in RAM:
//!
//! * the shard table (one [`ChunkSpan`] per shard — row range, byte range,
//!   edge count);
//! * the forward out-degree column (`u32` per node, what the transition
//!   operator pre-scales by);
//! * one [`crate::PagedReader`] page per in-flight worker.
//!
//! Everything else is read on demand through safe positioned I/O
//! ([`std::os::unix::fs::FileExt::read_at`] behind [`crate::ByteSource`]);
//! the workspace forbids `unsafe`, so there is no mmap. Resident set during
//! a solve is O(shards-in-flight × page size), not O(edges).
//!
//! [`ShardedGraphBuilder`] builds the file *out of core* as well: pushed
//! `(src, dst)` edges go through [`crate::ExternalEdgeSorter`] (bounded-RAM
//! spill runs keyed by destination), and the globally sorted stream is
//! encoded shard by shard without ever materializing a CSR.

use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::codec::CodecScratch;
use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::extsort::ExternalEdgeSorter;
use crate::ids::NodeId;
use crate::pager::ByteSource;
use crate::segment::{self, ChunkSpan, Schema, SegmentFile, SegmentWriter};

/// Default shard payload target: 4 MiB of encoded rows per shard keeps the
/// shard table tiny (a few hundred entries per GB) while giving the
/// partitioner enough granularity to balance workers.
pub const DEFAULT_SHARD_BYTES: usize = 4 * 1024 * 1024;

/// Default in-RAM edge buffer for the external sort: 4M packed edges
/// (32 MiB) per spill run.
pub const DEFAULT_SPILL_EDGES: usize = 4 * 1024 * 1024;

/// A block-decoded chunk: flat `offsets`/`targets` arrays holding every row
/// of one [`ChunkSpan`], plus the codec scratch that filled them.
///
/// One arena per worker, reused across chunks **and** solver iterations:
/// [`ShardedCompressedGraph::decode_chunk`] resets it (keeping capacity)
/// and refills it, so the steady-state hot loop allocates nothing and the
/// gather reads plain slices — no locks, no per-row decode state.
#[derive(Debug, Default)]
pub struct ChunkArena {
    /// First row held (arena row `i` is graph row `row_lo + i`).
    row_lo: usize,
    /// CSR-style offsets into `targets`, length `num_rows + 1`.
    offsets: Vec<usize>,
    /// Decoded neighbor ids, each row's slice ascending.
    targets: Vec<NodeId>,
    /// Interval/residual working set of the varint codec.
    codec: CodecScratch,
}

impl ChunkArena {
    /// Fresh arena; buffers grow on first use and are reused afterwards.
    pub fn new() -> Self {
        ChunkArena::default()
    }

    /// Clears decoded content (keeping capacity) and re-bases at `row_lo`.
    fn reset(&mut self, row_lo: usize) {
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

/// A sharded, compressed, disk- (or memory-) backed reverse graph that the
/// solve engine streams page by page. See the module docs for the format.
#[derive(Debug)]
pub struct ShardedCompressedGraph {
    file: SegmentFile,
    num_edges: usize,
}

impl ShardedCompressedGraph {
    /// Opens a shard file, parsing and validating the container envelope
    /// (magic, schema, shard table coverage/contiguity, out-degree sum).
    /// Row payloads are *not* decoded here — see
    /// [`validate`](ShardedCompressedGraph::validate) for the full pass.
    pub fn open(path: &Path) -> Result<Self, GraphError> {
        Self::from_file(SegmentFile::open(path, Schema::SHARD)?)
    }

    /// Parses a shard image held in memory (same format as the file).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, GraphError> {
        Self::from_source(Box::new(bytes))
    }

    /// Parses a shard image read through any [`ByteSource`].
    pub fn from_source(store: Box<dyn ByteSource + Send>) -> Result<Self, GraphError> {
        Self::from_file(SegmentFile::from_source(store, Schema::SHARD)?)
    }

    fn from_file(file: SegmentFile) -> Result<Self, GraphError> {
        let num_edges = usize::try_from(file.items())
            .map_err(|_| file.corrupt("edge count overflows usize".to_string()))?;
        Ok(ShardedCompressedGraph { file, num_edges })
    }

    /// Overrides the page size of the row walk behind
    /// [`validate`](Self::validate) and [`to_csr`](Self::to_csr) (tests
    /// force a tiny page to exercise the refill path).
    pub fn set_page_size(&mut self, page_size: usize) {
        self.file.set_page_size(page_size);
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.file.num_rows()
    }

    /// Number of unique edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The shard table: one span per shard.
    pub fn shards(&self) -> &[ChunkSpan] {
        self.file.segments()
    }

    /// Forward out-degree of every node (resident table).
    pub fn out_degrees(&self) -> &[u32] {
        self.file.column()
    }

    /// Encoded payload size in bytes (the data section).
    pub fn data_bytes(&self) -> u64 {
        self.file.data_bytes()
    }

    /// Resident heap footprint: shard table + degree table (NOT the
    /// payload, which stays on disk).
    pub fn resident_bytes(&self) -> usize {
        self.file.resident_bytes()
    }

    /// Fully decodes every row, checking ascending order, node range and
    /// per-shard edge counts. O(edges) with O(page) memory.
    pub fn validate(&self) -> Result<(), GraphError> {
        self.for_each_row(0..self.num_nodes(), |_, _| {})
    }

    /// The sequential row walk behind [`validate`](Self::validate) and
    /// [`to_csr`](Self::to_csr): hands `f` every row of `rows`, ascending,
    /// decoded and range-checked by `decode_row`, with O(page) memory.
    fn for_each_row(
        &self,
        rows: Range<usize>,
        mut f: impl FnMut(usize, &[NodeId]),
    ) -> Result<(), GraphError> {
        let (mut targets, mut codec, mut page) = (Vec::new(), CodecScratch::new(), Vec::new());
        self.file.for_each_row(rows, &mut page, |row, payload| {
            targets.clear();
            self.decode_row(row, payload, &mut codec, &mut targets)?;
            f(row, &targets);
            Ok(())
        })
    }

    /// Decodes one shard row's payload — a codec row and nothing after it
    /// — appending its sources to `out`. Both readers (the row walk and
    /// the pipelined chunk decode) go through here, so every row either is
    /// in range or fails typed: the codec hands back strictly ascending
    /// ids, so one compare of the row's last id against `num_nodes` checks
    /// them all.
    #[inline]
    fn decode_row(
        &self,
        row: usize,
        payload: &[u8],
        codec: &mut CodecScratch,
        out: &mut Vec<NodeId>,
    ) -> Result<(), GraphError> {
        let before = out.len();
        let tail = segment::decode_head(row, payload, codec, out)?;
        if !tail.is_empty() {
            return Err(self.file.corrupt(format!(
                "row {row}: {} bytes past its codec row",
                tail.len()
            )));
        }
        if out[before..]
            .last()
            .is_some_and(|&t| t as usize >= self.num_nodes())
        {
            return Err(self.file.corrupt(format!("row {row}: source out of range")));
        }
        Ok(())
    }

    /// Exact chunk spans for the pipelined solve: whole shards by default,
    /// with shards heavier than the per-chunk edge budget
    /// `⌈E / max_chunks⌉` split at exact row/byte boundaries discovered by
    /// a skip-scan (length-prefixed seeks + leading-degree peeks, no codec
    /// work). The result tiles the row space; sub-shard spans carry exact
    /// byte extents, so no two workers ever read or decode the same bytes.
    pub fn chunk_spans(&self, max_chunks: usize) -> Result<Vec<ChunkSpan>, GraphError> {
        self.file.chunk_spans(max_chunks)
    }

    /// Reads a span's payload into `buf` with one positioned read (the
    /// prefetcher's fill stage; `buf` is recycled across calls).
    pub fn load_chunk(&self, span: &ChunkSpan, buf: &mut Vec<u8>) -> Result<(), GraphError> {
        self.file.load_chunk(span, buf)
    }

    /// Block-decodes a loaded span into `arena` (the pipeline's compute
    /// stage): every row's length prefix, degree, id order and range, byte
    /// coverage and the span edge count are validated, so corruption
    /// surfaces as a typed error from inside the pipeline — never a panic
    /// or an out-of-range gather.
    pub fn decode_chunk(
        &self,
        span: &ChunkSpan,
        data: &[u8],
        arena: &mut ChunkArena,
    ) -> Result<(), GraphError> {
        arena.reset(span.rows.start);
        let ChunkArena {
            offsets,
            targets,
            codec,
            ..
        } = arena;
        self.file.for_each_row_in(span, data, |row, payload| {
            self.decode_row(row, payload, codec, targets)?;
            offsets.push(targets.len());
            Ok(())
        })
    }

    /// Decompresses the whole structure into an in-RAM reverse CSR
    /// (tests and small graphs; defeats the purpose at scale).
    pub fn to_csr(&self) -> Result<CsrGraph, GraphError> {
        let n = self.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets: Vec<NodeId> = Vec::new();
        offsets.push(0usize);
        self.for_each_row(0..n, |_row, srcs| {
            targets.extend_from_slice(srcs);
            offsets.push(targets.len());
        })?;
        Ok(CsrGraph::from_parts(offsets, targets))
    }
}

/// Out-of-core builder: push `(src, dst)` edges in any order, get a
/// sharded reverse-graph file. RAM is bounded by the sorter's spill buffer
/// plus one shard-row's worth of encoder scratch; edges spill to sorted
/// runs in `work_dir` and are merged destination-major at
/// [`finish`](ShardedGraphBuilder::finish).
#[derive(Debug)]
pub struct ShardedGraphBuilder {
    num_nodes: usize,
    sorter: ExternalEdgeSorter,
    shard_target_bytes: usize,
}

impl ShardedGraphBuilder {
    /// A builder for a graph of `num_nodes` nodes, spilling sort runs into
    /// `work_dir`, with default buffer sizes.
    pub fn new(num_nodes: usize, work_dir: impl Into<PathBuf>) -> Result<Self, GraphError> {
        Self::with_limits(
            num_nodes,
            work_dir,
            DEFAULT_SPILL_EDGES,
            DEFAULT_SHARD_BYTES,
        )
    }

    /// A builder with explicit spill-buffer (edges) and shard-payload
    /// (bytes) targets. Tests force both tiny to exercise the spill/merge
    /// and multi-shard paths on small graphs.
    pub fn with_limits(
        num_nodes: usize,
        work_dir: impl Into<PathBuf>,
        spill_buffer_edges: usize,
        shard_target_bytes: usize,
    ) -> Result<Self, GraphError> {
        let sorter = ExternalEdgeSorter::new(work_dir, spill_buffer_edges)
            .map_err(|e| GraphError::io("creating spill directory", &e))?;
        Ok(ShardedGraphBuilder {
            num_nodes,
            sorter,
            shard_target_bytes,
        })
    }

    /// Adds one directed edge. Duplicates are deduplicated globally at
    /// finish; self-loops are kept (the ranking kernels handle them).
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> Result<(), GraphError> {
        let n = self.num_nodes;
        for v in [src, dst] {
            if v as usize >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: v,
                    num_nodes: n,
                });
            }
        }
        // Keyed by destination: the merged stream comes out row-major for
        // the REVERSE graph, which is what the pull solver stores.
        self.sorter
            .push(dst, src)
            .map_err(|e| GraphError::io("spilling edge run", &e))
    }

    /// Sorts, dedupes, encodes and writes the shard file at `path`,
    /// returning the opened graph.
    pub fn finish(self, path: &Path) -> Result<ShardedCompressedGraph, GraphError> {
        let ShardedGraphBuilder {
            num_nodes,
            sorter,
            shard_target_bytes,
        } = self;
        let mut w = SegmentWriter::create(path, Schema::SHARD, shard_target_bytes)?;
        let mut out_degrees = vec![0u32; num_nodes];
        let mut err: Option<GraphError> = None;
        let mut cur_dst: Option<NodeId> = None;
        let mut srcs: Vec<NodeId> = Vec::new();
        sorter
            .finish(|dst, src| {
                if err.is_some() {
                    return;
                }
                out_degrees[src as usize] += 1;
                if cur_dst != Some(dst) {
                    if let Some(d) = cur_dst {
                        let flush =
                            pad_to(&mut w, d as usize).and_then(|()| w.push_row(&srcs, &[]));
                        if let Err(e) = flush {
                            err = Some(e);
                            return;
                        }
                    }
                    cur_dst = Some(dst);
                    srcs.clear();
                }
                srcs.push(src);
            })
            .map_err(|e| GraphError::io("merging edge runs", &e))?;
        if let Some(e) = err {
            return Err(e);
        }
        if let Some(d) = cur_dst {
            pad_to(&mut w, d as usize)?;
            w.push_row(&srcs, &[])?;
        }
        pad_to(&mut w, num_nodes)?;
        w.finish(&[], &out_degrees)?;
        ShardedCompressedGraph::open(path)
    }
}

/// Writes empty rows (nodes without in-links) up to, not including, `row`.
fn pad_to(w: &mut SegmentWriter, row: usize) -> Result<(), GraphError> {
    while w.rows() < row {
        w.push_row(&[], &[])?;
    }
    Ok(())
}

/// Builds a sharded file from an in-RAM **forward** CSR (benchmarks and
/// differential tests): shards store the reverse graph, out-degrees come
/// from the forward rows.
pub fn build_from_csr(
    g: &CsrGraph,
    work_dir: &Path,
    path: &Path,
    shard_target_bytes: usize,
) -> Result<ShardedCompressedGraph, GraphError> {
    let mut b = ShardedGraphBuilder::with_limits(
        g.num_nodes(),
        work_dir,
        DEFAULT_SPILL_EDGES,
        shard_target_bytes,
    )?;
    for u in crate::ids::node_range(g.num_nodes()) {
        for &v in g.neighbors(u) {
            b.add_edge(u, v)?;
        }
    }
    b.finish(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::ids::node_id;
    use crate::transpose::transpose;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sr_shard_{tag}"))
    }

    fn sample_forward() -> CsrGraph {
        GraphBuilder::from_edges(vec![
            (0, 1),
            (0, 2),
            (0, 9),
            (1, 0),
            (3, 3),
            (5, 6),
            (5, 7),
            (5, 8),
            (5, 9),
            (9, 0),
            (9, 9),
        ])
    }

    #[test]
    fn roundtrips_reverse_graph_with_degrees() {
        let fwd = sample_forward();
        let dir = tmp("roundtrip");
        let sharded = build_from_csr(&fwd, &dir, &dir.join("g.shards"), 8).unwrap();
        assert_eq!(sharded.num_nodes(), fwd.num_nodes());
        assert_eq!(sharded.num_edges(), fwd.num_edges());
        assert!(sharded.shards().len() > 1, "tiny target must multi-shard");
        sharded.validate().unwrap();
        assert_eq!(sharded.to_csr().unwrap(), transpose(&fwd));
        for u in crate::ids::node_range(fwd.num_nodes()) {
            assert_eq!(
                sharded.out_degrees()[u as usize] as usize,
                fwd.out_degree(u),
                "node {u}"
            );
        }
    }

    #[test]
    fn duplicate_edges_dedupe_and_degrees_match() {
        let dir = tmp("dupes");
        let mut b = ShardedGraphBuilder::with_limits(4, &dir, 0, 64).unwrap();
        for _ in 0..3 {
            b.add_edge(0, 1).unwrap();
            b.add_edge(2, 1).unwrap();
        }
        let g = b.finish(&dir.join("g.shards")).unwrap();
        // NOTE: duplicates are counted per push into out-degrees at merge
        // time only once because the sorter dedupes before the consumer.
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_degrees(), &[1, 0, 1, 0]);
        assert_eq!(g.to_csr().unwrap().neighbors(1), &[0, 2]);
    }

    #[test]
    fn empty_graph_and_edgeless_nodes() {
        let dir = tmp("empty");
        let b = ShardedGraphBuilder::new(0, &dir).unwrap();
        let g = b.finish(&dir.join("empty.shards")).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        g.validate().unwrap();

        let b = ShardedGraphBuilder::new(5, &dir).unwrap();
        let g = b.finish(&dir.join("edgeless.shards")).unwrap();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        g.validate().unwrap();
        assert_eq!(g.to_csr().unwrap(), CsrGraph::empty(5));
    }

    #[test]
    fn out_of_range_edge_is_rejected() {
        let dir = tmp("range");
        let mut b = ShardedGraphBuilder::new(3, &dir).unwrap();
        assert!(matches!(
            b.add_edge(0, 3),
            Err(GraphError::NodeOutOfRange { node: 3, .. })
        ));
    }

    #[test]
    fn partial_row_ranges_stream_correctly() {
        let fwd = sample_forward();
        let dir = tmp("partial");
        let mut sharded = build_from_csr(&fwd, &dir, &dir.join("g.shards"), 32).unwrap();
        sharded.set_page_size(16); // force refills
        let rev = transpose(&fwd);
        // Every sub-range, including ones that straddle shard boundaries.
        for lo in 0..=rev.num_nodes() {
            for hi in lo..=rev.num_nodes() {
                let mut got = Vec::new();
                sharded
                    .for_each_row(lo..hi, |row, srcs| got.push((row, srcs.to_vec())))
                    .unwrap();
                let want: Vec<(usize, Vec<NodeId>)> = (lo..hi)
                    .map(|u| (u, rev.neighbors(node_id(u)).to_vec()))
                    .collect();
                assert_eq!(got, want, "range {lo}..{hi}");
            }
        }
    }

    /// Decodes every span of `g` through the chunk path and returns the
    /// concatenated `(row, neighbors)` stream.
    fn decode_all_spans(
        g: &ShardedCompressedGraph,
        spans: &[ChunkSpan],
    ) -> Vec<(usize, Vec<NodeId>)> {
        let mut buf = Vec::new();
        let mut arena = ChunkArena::new();
        let mut got = Vec::new();
        for span in spans {
            g.load_chunk(span, &mut buf).unwrap();
            g.decode_chunk(span, &buf, &mut arena).unwrap();
            assert_eq!(arena.row_lo(), span.rows.start);
            assert_eq!(arena.num_rows(), span.rows.len());
            assert_eq!(arena.num_edges() as u64, span.edges);
            for rel in 0..arena.num_rows() {
                got.push((span.rows.start + rel, arena.row(rel).to_vec()));
            }
        }
        got
    }

    #[test]
    fn chunk_spans_tile_rows_and_decode_matches_stream_rows() {
        let fwd = sample_forward();
        let dir = tmp("chunks");
        let sharded = build_from_csr(&fwd, &dir, &dir.join("g.shards"), 16).unwrap();
        for max_chunks in [1usize, 2, 4, 8, 64] {
            let spans = sharded.chunk_spans(max_chunks).unwrap();
            // Spans tile the row space exactly.
            let mut expect_row = 0usize;
            let mut edges = 0u64;
            for s in &spans {
                assert_eq!(s.rows.start, expect_row, "gap/overlap at {max_chunks}");
                assert!(s.rows.end > s.rows.start, "empty span emitted");
                expect_row = s.rows.end;
                edges += s.edges;
            }
            assert_eq!(expect_row, sharded.num_nodes());
            assert_eq!(edges as usize, sharded.num_edges());
            // Chunk-path decode equals the row walk.
            let got = decode_all_spans(&sharded, &spans);
            let mut want = Vec::new();
            sharded
                .for_each_row(0..sharded.num_nodes(), |r, n| want.push((r, n.to_vec())))
                .unwrap();
            assert_eq!(got, want, "max_chunks {max_chunks}");
        }
    }

    #[test]
    fn oversized_shard_splits_at_exact_byte_boundaries() {
        // One giant shard (huge target), then ask for many chunks: the
        // skip-scan must cut it into sub-spans with exact byte extents.
        let fwd = sample_forward();
        let dir = tmp("split");
        let sharded = build_from_csr(&fwd, &dir, &dir.join("g.shards"), 1 << 20).unwrap();
        assert_eq!(sharded.shards().len(), 1);
        let spans = sharded.chunk_spans(4).unwrap();
        assert!(spans.len() > 1, "oversized shard must split");
        // Sub-span byte ranges are contiguous and cover the shard payload.
        let shard = &sharded.shards()[0];
        assert_eq!(spans[0].bytes.start, shard.bytes.start);
        for w in spans.windows(2) {
            assert_eq!(w[0].bytes.end, w[1].bytes.start);
        }
        assert_eq!(spans.last().unwrap().bytes.end, shard.bytes.end);
        // And the decoded stream still matches the full graph.
        let got = decode_all_spans(&sharded, &spans);
        let rev = transpose(&fwd);
        for (row, srcs) in got {
            assert_eq!(srcs, rev.neighbors(node_id(row)), "row {row}");
        }
    }
}
