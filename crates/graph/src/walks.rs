//! On-disk Monte-Carlo walk cache: the approximate-PPR precompute substrate.
//!
//! A [`WalkStore`] holds, for every node `u` of a walk graph, the
//! *aggregate visit counts* of `R` simulated geometric-length random walks
//! started at `u` (the Fogaras fingerprint-database idea, aggregated per
//! source instead of stored walk-by-walk — the estimator only ever consumes
//! the counts, and aggregation is lossless for it by linearity). The
//! `sr-core::approx` engine builds these files offline and assembles
//! personalized-PageRank estimates from them at query time.
//!
//! The file is the *walk schema* of the segment container (see
//! `crate::segment` for the byte layout): one row per source, whose payload
//! is the *support* (nodes visited at least once, ascending) as a codec row
//! (see [`crate::codec`]) followed by one varint `u32` per support id in
//! the same order — the aggregate visit count (≥ 1). Segment items are
//! support sizes; there is no column. The schema parameters pin every
//! input of the simulation (`R`, β bits, seed, hop cap), so a cache file is
//! a pure function of `(walk graph, config)` — the round-trip determinism
//! the differential suite relies on.
//!
//! Queries read the decoded resident [`WalkTable`], built in one
//! sequential pass pre-sized from the segment table's item counts.

use std::path::Path;
use std::sync::OnceLock;

use crate::codec::CodecScratch;
use crate::error::GraphError;
use crate::ids::NodeId;
use crate::pager::ByteSource;
use crate::segment::{self, Schema, SegmentFile, SegmentWriter};
use crate::shard::DEFAULT_SHARD_BYTES;
use crate::varint;

/// The simulation parameters a walk-cache file was built with. All of them
/// are part of the on-disk header: a cache is only valid for queries that
/// agree on every field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkMeta {
    /// Nodes of the walk graph (and rows in the file).
    pub num_nodes: usize,
    /// Walks simulated per source (`R`). May be 0 (push-only caches).
    pub walks: u64,
    /// Bits of the continuation probability β (stored as bits so the
    /// header round-trips exactly; see [`WalkMeta::beta`]).
    pub beta_bits: u64,
    /// Master RNG seed of the builder.
    pub rng_seed: u64,
    /// Per-walk step cap `H` (geometric termination still applies; the cap
    /// bounds worst-case work and adds a β^H truncation bias).
    pub max_hops: u64,
}

impl WalkMeta {
    /// The continuation probability β as a float.
    pub fn beta(&self) -> f64 {
        f64::from_bits(self.beta_bits)
    }
}

/// Streaming writer for a walk-cache file. Sources must be written in
/// ascending order (the implicit write cursor); rows are staged and the
/// final file is assembled at [`finish`](WalkFileWriter::finish).
#[derive(Debug)]
pub struct WalkFileWriter {
    path: std::path::PathBuf,
    w: SegmentWriter,
    meta: WalkMeta,
}

impl WalkFileWriter {
    /// Creates the writer, staging row data next to `path`.
    pub fn create(path: &Path, meta: WalkMeta) -> Result<Self, GraphError> {
        Ok(WalkFileWriter {
            path: path.to_path_buf(),
            w: SegmentWriter::create(path, Schema::WALK, DEFAULT_SHARD_BYTES)?,
            meta,
        })
    }

    /// Writes the row of the next source: `support` are the distinct
    /// visited nodes ascending, `counts[i]` the aggregate visits of
    /// `support[i]` (each ≥ 1).
    ///
    /// # Panics
    /// Panics on caller bugs: more sources than nodes, length mismatch,
    /// or a zero count (a zero-visit node must simply not be listed).
    pub fn write_source(&mut self, support: &[NodeId], counts: &[u32]) -> Result<(), GraphError> {
        let source = self.w.rows();
        assert!(
            source < self.meta.num_nodes,
            "row for source {source} beyond num_nodes {}",
            self.meta.num_nodes
        );
        assert_eq!(
            support.len(),
            counts.len(),
            "support/count length mismatch for source {source}"
        );
        assert!(
            counts.iter().all(|&c| c > 0),
            "zero visit count for source {source}"
        );
        self.w.push_row(support, counts)
    }

    /// Assembles the final file and opens it.
    ///
    /// # Panics
    /// Panics if fewer than `num_nodes` sources were written.
    pub fn finish(self) -> Result<WalkStore, GraphError> {
        let m = self.meta;
        assert_eq!(
            self.w.rows(),
            m.num_nodes,
            "walk cache incomplete: {} of {} sources written",
            self.w.rows(),
            m.num_nodes
        );
        self.w
            .finish(&[m.walks, m.beta_bits, m.rng_seed, m.max_hops], &[])?;
        WalkStore::open(&self.path)
    }
}

/// A walk-cache file opened for queries. Resident memory is the envelope
/// (segment table and parameters) until [`table`](WalkStore::table)
/// decodes the whole store once.
#[derive(Debug)]
pub struct WalkStore {
    file: SegmentFile,
    meta: WalkMeta,
    table: OnceLock<WalkTable>,
}

impl WalkStore {
    /// Opens a walk-cache file, validating the container envelope (magic,
    /// schema, parameters, segment table). Rows are not decoded here — see
    /// [`validate`](WalkStore::validate).
    pub fn open(path: &Path) -> Result<Self, GraphError> {
        Self::from_file(SegmentFile::open(path, Schema::WALK)?)
    }

    /// Parses a walk-cache image held in memory (same format as the file).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, GraphError> {
        Self::from_source(Box::new(bytes))
    }

    /// Parses a walk-cache image read through any [`ByteSource`].
    pub fn from_source(store: Box<dyn ByteSource + Send>) -> Result<Self, GraphError> {
        Self::from_file(SegmentFile::from_source(store, Schema::WALK)?)
    }

    fn from_file(file: SegmentFile) -> Result<Self, GraphError> {
        let &[walks, beta_bits, rng_seed, max_hops] = file.params() else {
            return Err(file.corrupt("parameter count".to_string()));
        };
        if !(0.0..1.0).contains(&f64::from_bits(beta_bits)) {
            return Err(file.corrupt("beta outside [0,1)".to_string()));
        }
        let meta = WalkMeta {
            num_nodes: file.num_rows(),
            walks,
            beta_bits,
            rng_seed,
            max_hops,
        };
        Ok(WalkStore {
            file,
            meta,
            table: OnceLock::new(),
        })
    }

    /// The simulation parameters from the header.
    pub fn meta(&self) -> &WalkMeta {
        &self.meta
    }

    /// Number of sources (= nodes of the walk graph).
    pub fn num_nodes(&self) -> usize {
        self.meta.num_nodes
    }

    /// Overrides the page size used when reading rows (tests force a tiny
    /// page to exercise the refill path).
    pub fn set_page_size(&mut self, page_size: usize) {
        self.file.set_page_size(page_size);
    }

    /// Total encoded payload size in bytes (the data section).
    pub fn data_bytes(&self) -> u64 {
        self.file.data_bytes()
    }

    /// Fully decodes every row — ascending in-range support, positive
    /// counts, exact row consumption — without keeping the table.
    pub fn validate(&self) -> Result<(), GraphError> {
        WalkTable::decode(self).map(drop)
    }

    /// The fully-decoded resident [`WalkTable`] of this store, built on
    /// first call and cached for the store's lifetime. Residual-closing
    /// queries over dense frontiers touch nearly every source; decoding
    /// the store once turns per-query positional reads plus varint decodes
    /// into three slice lookups per source.
    pub fn table(&self) -> Result<&WalkTable, GraphError> {
        if let Some(t) = self.table.get() {
            return Ok(t);
        }
        let decoded = WalkTable::decode(self)?;
        // A concurrent decode may have won the race; both decodes are
        // byte-identical (same file, same ascending pass), so either wins.
        Ok(self.table.get_or_init(|| decoded))
    }
}

/// A [`WalkStore`] decoded into one resident CSR-shaped aggregate:
/// [`visits`](WalkTable::visits) returns the `(support, counts)` slices of
/// a source directly, in the file's `(source asc, support asc)` order.
#[derive(Debug)]
pub struct WalkTable {
    /// `offsets[u]..offsets[u + 1]` index `support`/`counts` for source `u`.
    offsets: Vec<usize>,
    /// Distinct visited nodes, ascending within each source.
    support: Vec<NodeId>,
    /// Aggregate visit count of the matching `support` entry (≥ 1).
    counts: Vec<u32>,
}

impl WalkTable {
    /// Decodes every row in one sequential pass. The flat arrays are sized
    /// from the segment table's item counts, which the envelope bounds by
    /// the file's bytes — exact, with no geometric-growth slack.
    fn decode(store: &WalkStore) -> Result<Self, GraphError> {
        let file = &store.file;
        let n = store.num_nodes();
        let entries = usize::try_from(file.items())
            .map_err(|_| file.corrupt("walk entry count overflows usize".to_string()))?;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut support: Vec<NodeId> = Vec::with_capacity(entries);
        let mut counts: Vec<u32> = Vec::with_capacity(entries);
        let mut codec = CodecScratch::new();
        file.for_each_row(0..n, &mut Vec::new(), |row, payload| {
            let lo = support.len();
            let mut tail = segment::decode_head(row, payload, &mut codec, &mut support)?;
            let ids = &support[lo..];
            let ascending = ids.windows(2).all(|w| w[0] < w[1]);
            if !ascending || ids.iter().any(|&v| v as usize >= n) {
                return Err(file.corrupt(format!(
                    "source {row}: support not ascending or out of range"
                )));
            }
            for _ in lo..support.len() {
                let mut pos = 0;
                let count = varint::read_u32(tail, &mut pos)
                    .filter(|&c| c > 0)
                    .ok_or_else(|| file.corrupt(format!("source {row}: bad visit count")))?;
                counts.push(count);
                tail = &tail[pos..];
            }
            if !tail.is_empty() {
                return Err(file.corrupt(format!("source {row}: {} trailing bytes", tail.len())));
            }
            offsets.push(support.len());
            Ok(())
        })?;
        if support.len() != entries {
            return Err(file.corrupt(format!(
                "decoded {} walk entries, segment table says {entries}",
                support.len()
            )));
        }
        Ok(WalkTable {
            offsets,
            support,
            counts,
        })
    }

    /// Number of sources (= nodes of the walk graph).
    pub fn num_sources(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total aggregated `(source, node)` visit entries across all sources.
    pub fn num_entries(&self) -> usize {
        self.support.len()
    }

    /// The `(visited nodes, aggregate counts)` of `source`, node-ascending.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn visits(&self, source: NodeId) -> (&[NodeId], &[u32]) {
        let u = source as usize;
        let lo = self.offsets[u];
        let hi = self.offsets[u + 1];
        (&self.support[lo..hi], &self.counts[lo..hi])
    }

    /// Resident heap footprint in bytes.
    pub fn resident_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.support.capacity() * std::mem::size_of::<NodeId>()
            + self.counts.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sr_walks");
        std::fs::create_dir_all(&dir).ok();
        dir.join(format!("{tag}.walks"))
    }

    fn meta(n: usize) -> WalkMeta {
        WalkMeta {
            num_nodes: n,
            walks: 4,
            beta_bits: 0.85f64.to_bits(),
            rng_seed: 0x5EED,
            max_hops: 32,
        }
    }

    fn sample_store(tag: &str) -> WalkStore {
        let path = tmp(tag);
        let mut w = WalkFileWriter::create(&path, meta(4)).unwrap();
        w.write_source(&[0, 2], &[4, 1]).unwrap();
        w.write_source(&[], &[]).unwrap();
        w.write_source(&[1, 2, 3], &[2, 7, 1]).unwrap();
        w.write_source(&[3], &[4]).unwrap();
        w.finish().unwrap()
    }

    fn visits(s: &WalkStore, u: NodeId) -> Vec<(NodeId, u32)> {
        let (support, counts) = s.table().unwrap().visits(u);
        support
            .iter()
            .copied()
            .zip(counts.iter().copied())
            .collect()
    }

    #[test]
    fn roundtrips_sources_and_meta() {
        let s = sample_store("roundtrip");
        assert_eq!(s.num_nodes(), 4);
        assert_eq!(s.meta().walks, 4);
        assert_eq!(s.meta().beta(), 0.85);
        assert_eq!(s.meta().rng_seed, 0x5EED);
        assert_eq!(s.meta().max_hops, 32);
        s.validate().unwrap();
        assert_eq!(visits(&s, 0), vec![(0, 4), (2, 1)]);
        assert_eq!(visits(&s, 1), vec![]);
        assert_eq!(visits(&s, 2), vec![(1, 2), (2, 7), (3, 1)]);
        assert_eq!(visits(&s, 3), vec![(3, 4)]);
        // Rows are length-prefixed: an empty source is varint(1) ++ a
        // degree-0 codec row.
        assert!(s.data_bytes() > 4 * 2);
    }

    #[test]
    fn table_is_cached_and_exactly_sized() {
        let s = sample_store("table");
        let t = s.table().unwrap();
        assert_eq!(t.num_sources(), 4);
        assert_eq!(t.num_entries(), 6);
        // Decode is cached: the second call hands back the same table.
        assert!(std::ptr::eq(t, s.table().unwrap()));
        // Pre-sized from the segment table's item counts: zero slack, so
        // the footprint is the arithmetic minimum for its shape.
        let exact = (t.num_sources() + 1) * std::mem::size_of::<usize>()
            + t.num_entries() * (std::mem::size_of::<NodeId>() + std::mem::size_of::<u32>());
        assert_eq!(t.resident_bytes(), exact, "walk table holds slack capacity");
    }

    #[test]
    fn tiny_pages_exercise_refills() {
        let path = tmp("tinypage");
        let mut w = WalkFileWriter::create(&path, meta(2)).unwrap();
        w.write_source(&[0, 1], &[1000, 70000]).unwrap();
        w.write_source(&[], &[]).unwrap();
        let mut s = w.finish().unwrap();
        s.set_page_size(16);
        s.validate().unwrap();
        assert_eq!(visits(&s, 0), vec![(0, 1000), (1, 70000)]);
    }

    #[test]
    fn empty_graph_roundtrips() {
        let w = WalkFileWriter::create(&tmp("empty"), meta(0)).unwrap();
        let s = w.finish().unwrap();
        assert_eq!(s.num_nodes(), 0);
        assert_eq!(s.data_bytes(), 0);
        s.validate().unwrap();
        assert_eq!(s.table().unwrap().num_entries(), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_counts_panic() {
        let mut w = WalkFileWriter::create(&tmp("mismatch"), meta(1)).unwrap();
        w.write_source(&[0], &[1, 2]).unwrap();
    }

    #[test]
    #[should_panic(expected = "incomplete")]
    fn incomplete_cache_panics_at_finish() {
        let w = WalkFileWriter::create(&tmp("incomplete"), meta(3)).unwrap();
        let _ = w.finish();
    }
}
