//! The segment container: the one on-disk envelope every binary file of
//! the workspace goes through.
//!
//! Both binary files — the out-of-core reverse-graph shards
//! ([`crate::ShardedCompressedGraph`]) and the Monte-Carlo walk cache
//! ([`crate::WalkStore`]) — are *schemas* over this container. Only this
//! module knows the envelope: it owns the store, the header/table/column
//! parser, the one typed envelope error
//! ([`GraphError::CorruptContainer`]), the sequential row walk through
//! [`PagedReader`], the exact span split of the pipelined solve, and the
//! writer.
//!
//! ## File layout
//!
//! ```text
//! magic          8 B   b"SRSEGMT1"
//! schema tag     8 B   b"SRSHARD1" (shards) | b"SRWALK1\0" (walk cache)
//! num_rows       8 B   u64 le
//! params         8 B × P: the schema's fixed u64 parameters
//!                (shards: none; walk cache: R, β bits, seed, hop cap)
//! segment_count  8 B   u64 le
//! segment table  40 B × segment_count: row_lo, row_hi, byte_off,
//!                byte_len, items (u64 le; byte_off relative to the data
//!                section)
//! column         4 B × num_rows: u32 le per row, schemas with a column
//!                only (shards: forward out-degrees)
//! data           rows back to back, each varint(len) ++ payload; every
//!                payload starts with a codec row (degree, intervals,
//!                residual gaps — see crate::codec), and a schema may
//!                append a tail (walk cache: one varint count per id)
//! ```
//!
//! A segment is a contiguous row range with its exact byte extent in the
//! data section and its *item* count: the sum of its rows' codec degrees
//! (shard edges, or walk-cache `(source, visited node)` entries). The
//! table entry is a [`ChunkSpan`], the same type the pipelined solve
//! streams. The data section comes last, so a file cut short loses row
//! bytes, never the tables in front of them.
//!
//! ## Validation
//!
//! Opening a file checks the whole envelope before anything is sized from
//! it: the magic, the schema tag, table and column sizes against the file
//! length, segments contiguous in rows and bytes and covering both, at
//! least two bytes per row (a length prefix and a codec degree), a walk
//! segment's item count no larger than its byte length (every entry
//! carries a count of at least one byte), and a column that sums to the
//! item total. Every row the container walks has its codec degree checked
//! against `num_rows` *before* it is decoded (a row's ids are distinct and
//! in range), and every segment or span walked must hold exactly its
//! item count and bytes. Corruption surfaces as a typed [`GraphError`] —
//! never a panic or an allocation sized by an untrusted count.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::codec::{self, CodecScratch};
use crate::error::GraphError;
use crate::ids::{node_id, NodeId};
use crate::pager::{ByteSource, PagedReader, SourceReader, DEFAULT_PAGE_SIZE};
use crate::partition::EdgePartition;
use crate::varint;

const MAGIC: &[u8; 8] = b"SRSEGMT1";
const SEGMENT_ENTRY_BYTES: u64 = 5 * 8;

/// What a container file holds: its tag and its fixed shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Schema {
    tag: &'static [u8; 8],
    name: &'static str,
    /// Number of fixed `u64` parameters in the header.
    params: usize,
    /// Whether the file carries a per-row `u32` column.
    column: bool,
    /// Whether every item carries at least one payload byte, which bounds
    /// a segment's items by its bytes before anything is sized from them.
    item_bytes: bool,
}

impl Schema {
    /// Reverse-graph shards: payload = codec row, items = degree, column =
    /// forward out-degrees, no parameters.
    pub(crate) const SHARD: Schema = Schema {
        tag: b"SRSHARD1",
        name: "shard",
        params: 0,
        column: true,
        item_bytes: false,
    };

    /// Walk cache: payload = codec support row plus one varint count per
    /// id, items = support size, no column, parameters = R, β bits, seed
    /// and hop cap.
    pub(crate) const WALK: Schema = Schema {
        tag: b"SRWALK1\0",
        name: "walk-cache",
        params: 4,
        column: false,
        item_bytes: true,
    };
}

/// A contiguous row range with the **exact** byte extent of its encoded
/// rows and its item count: the segment-table entry, and the unit of work
/// of the pipelined out-of-core solve (where `items` are edges, Σ row
/// degrees).
///
/// Spans tile the row space (ascending, disjoint, covering every row), so a
/// solver can hand whole spans to workers and still write every output row
/// exactly once. Byte offsets are relative to the data section — a span is
/// loaded with a single positioned read, no seeking or prefix re-decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkSpan {
    /// Rows covered by the span (contiguous, ascending).
    pub rows: Range<usize>,
    /// Byte extent of the encoded rows, relative to the data section.
    pub bytes: Range<u64>,
    /// Items (for shards: stored edges, Σ row degrees) in the span.
    pub edges: u64,
}

impl ChunkSpan {
    /// Payload length in bytes.
    #[inline]
    pub fn byte_len(&self) -> usize {
        usize::try_from(self.bytes.end - self.bytes.start).unwrap_or(usize::MAX)
    }
}

/// An opened container: the validated envelope held resident, row bytes
/// read on demand from the store.
pub(crate) struct SegmentFile {
    store: Box<dyn ByteSource + Send>,
    schema: Schema,
    num_rows: usize,
    params: Vec<u64>,
    segments: Vec<ChunkSpan>,
    column: Vec<u32>,
    items: u64,
    data_start: u64,
    page_size: usize,
}

impl std::fmt::Debug for SegmentFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentFile")
            .field("schema", &self.schema)
            .field("num_rows", &self.num_rows)
            .field("params", &self.params)
            .field("segments", &self.segments.len())
            .field("items", &self.items)
            .finish_non_exhaustive()
    }
}

impl SegmentFile {
    /// Opens the container at `path`, which must hold `schema`.
    pub(crate) fn open(path: &Path, schema: Schema) -> Result<Self, GraphError> {
        let file = File::open(path)
            .map_err(|e| GraphError::io(&format!("opening {} file", schema.name), &e))?;
        Self::from_source(Box::new(file), schema)
    }

    /// Parses and validates the envelope of `store` (see the module docs).
    pub(crate) fn from_source(
        store: Box<dyn ByteSource + Send>,
        schema: Schema,
    ) -> Result<Self, GraphError> {
        let corrupt = |message: &str| corrupt(schema, message.to_string());
        let total_len = store.len();
        let mut r = PagedReader::new(SourceReader::new(&*store, 0..total_len));
        let io_err = |e: io::Error| GraphError::io(&format!("reading {} header", schema.name), &e);
        if r.take(8).map_err(io_err)? != MAGIC {
            return Err(corrupt("bad magic"));
        }
        if r.take(8).map_err(io_err)? != schema.tag {
            return Err(corrupt("wrong schema tag"));
        }
        let num_rows = r.u64_le().map_err(io_err)?;
        let params = (0..schema.params)
            .map(|_| r.u64_le())
            .collect::<io::Result<Vec<u64>>>()
            .map_err(io_err)?;
        let segment_count = r.u64_le().map_err(io_err)?;
        // Envelope arithmetic before allocating: the table and the column
        // must fit inside the file, and row ids are node ids.
        if num_rows > u64::from(NodeId::MAX) + 1 {
            return Err(corrupt("row count exceeds the node id range"));
        }
        let column_rows = if schema.column { num_rows } else { 0 };
        let data_start = segment_count
            .checked_mul(SEGMENT_ENTRY_BYTES)
            .zip(column_rows.checked_mul(4))
            .and_then(|(table, column)| table.checked_add(column))
            .and_then(|v| v.checked_add(r.consumed()))
            .ok_or_else(|| corrupt("header size overflows"))?;
        if data_start > total_len {
            return Err(corrupt("file shorter than its declared tables"));
        }
        let num_rows = usize::try_from(num_rows).map_err(|_| corrupt("rows overflow usize"))?;
        let data_len = total_len - data_start;
        let mut segments = Vec::new();
        let (mut next_row, mut next_byte, mut items) = (0usize, 0u64, 0u64);
        for _ in 0..segment_count {
            let mut entry = [0u64; 5];
            for v in &mut entry {
                *v = r.u64_le().map_err(io_err)?;
            }
            let [row_lo, row_hi, byte_off, byte_len, seg_items] = entry;
            let rows = usize::try_from(row_lo)
                .ok()
                .zip(usize::try_from(row_hi).ok())
                .filter(|&(lo, hi)| lo == next_row && lo <= hi && hi <= num_rows)
                .map(|(lo, hi)| lo..hi)
                .ok_or_else(|| corrupt("segment rows not contiguous"))?;
            if byte_off != next_byte {
                return Err(corrupt("segment byte ranges not contiguous"));
            }
            next_byte = byte_off
                .checked_add(byte_len)
                .filter(|&end| end <= data_len)
                .ok_or_else(|| corrupt("segment bytes overrun the data section"))?;
            // Every row holds a length prefix and a codec degree.
            if rows.len() as u64 > byte_len / 2 {
                return Err(corrupt("segment holds more rows than its bytes can frame"));
            }
            // Every walk entry carries a visit count of at least one byte.
            if schema.item_bytes && seg_items > byte_len {
                return Err(corrupt("segment holds more items than bytes"));
            }
            items = items
                .checked_add(seg_items)
                .ok_or_else(|| corrupt("item total overflows"))?;
            next_row = rows.end;
            segments.push(ChunkSpan {
                rows,
                bytes: byte_off..next_byte,
                edges: seg_items,
            });
        }
        if next_row != num_rows {
            return Err(corrupt("segments do not cover all rows"));
        }
        if next_byte != data_len {
            return Err(corrupt("segments do not cover the data section"));
        }
        let mut column = Vec::with_capacity(if schema.column { num_rows } else { 0 });
        let mut column_sum = 0u64;
        for _ in 0..column_rows {
            let v = r.u32_le().map_err(io_err)?;
            column_sum += u64::from(v);
            column.push(v);
        }
        if schema.column && column_sum != items {
            return Err(corrupt("column sum disagrees with the item total"));
        }
        Ok(SegmentFile {
            store,
            schema,
            num_rows,
            params,
            segments,
            column,
            items,
            data_start,
            page_size: DEFAULT_PAGE_SIZE,
        })
    }

    /// Overrides the page size of the sequential row walk (minimum 16).
    pub(crate) fn set_page_size(&mut self, page_size: usize) {
        self.page_size = page_size.max(16);
    }

    pub(crate) fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// The schema's fixed parameters, in header order.
    pub(crate) fn params(&self) -> &[u64] {
        &self.params
    }

    pub(crate) fn segments(&self) -> &[ChunkSpan] {
        &self.segments
    }

    /// The per-row column (empty for schemas without one).
    pub(crate) fn column(&self) -> &[u32] {
        &self.column
    }

    /// Σ segment item counts.
    pub(crate) fn items(&self) -> u64 {
        self.items
    }

    /// Size of the data section in bytes.
    pub(crate) fn data_bytes(&self) -> u64 {
        self.segments.last().map_or(0, |s| s.bytes.end)
    }

    /// Resident heap footprint: segment table, parameters and column.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.segments.len() * std::mem::size_of::<ChunkSpan>()
            + self.params.len() * std::mem::size_of::<u64>()
            + self.column.len() * std::mem::size_of::<u32>()
    }

    /// A typed envelope error naming this file's schema.
    pub(crate) fn corrupt(&self, message: String) -> GraphError {
        corrupt(self.schema, message)
    }

    /// Checks a row's leading codec degree against the row count before
    /// anything decodes it, returning the degree.
    #[inline]
    fn degree(&self, row: usize, payload: &[u8]) -> Result<usize, GraphError> {
        match varint::read_u32(payload, &mut 0) {
            Some(d) if d as usize <= self.num_rows => Ok(d as usize),
            d => Err(self.bad_degree(row, d)),
        }
    }

    #[cold]
    fn bad_degree(&self, row: usize, degree: Option<u32>) -> GraphError {
        match degree {
            None => GraphError::CorruptCompressedStream { node: node_id(row) },
            Some(d) => self.corrupt(format!(
                "row {row}: degree {d} exceeds the {} rows",
                self.num_rows
            )),
        }
    }

    /// Walks every row of segment `i` in order through a [`PagedReader`]
    /// (recycling `page`), handing `f` each row's index, checked degree,
    /// payload and the segment-relative byte offset just past it. Fails
    /// unless the rows hold exactly the segment's items and bytes.
    fn walk_segment(
        &self,
        i: usize,
        page: &mut Vec<u8>,
        mut f: impl FnMut(usize, usize, &[u8], u64) -> Result<(), GraphError>,
    ) -> Result<(), GraphError> {
        let seg = &self.segments[i];
        let lo = self.data_start + seg.bytes.start;
        let reader = SourceReader::new(&*self.store, lo..self.data_start + seg.bytes.end);
        let mut pr = PagedReader::with_recycled(reader, self.page_size, std::mem::take(page));
        let mut walk = || {
            let io_err = |e: io::Error| {
                GraphError::io(&format!("reading {} segment {i}", self.schema.name), &e)
            };
            let seg_len = seg.bytes.end - seg.bytes.start;
            let mut items = 0u64;
            for row in seg.rows.clone() {
                let len = pr.varint_u32().map_err(io_err)?;
                let end = pr.consumed() + u64::from(len);
                // Checked before the reader sizes its buffer for the row.
                if end > seg_len {
                    return Err(self.corrupt(format!(
                        "row {row}: length prefix {len} overruns segment {i}"
                    )));
                }
                let payload = pr.take(len as usize).map_err(io_err)?;
                let degree = self.degree(row, payload)?;
                items += degree as u64;
                f(row, degree, payload, end)?;
            }
            if items != seg.edges {
                return Err(self.corrupt(format!(
                    "segment {i}: rows hold {items} items, table says {}",
                    seg.edges
                )));
            }
            if pr.consumed() != seg_len {
                return Err(self.corrupt(format!("segment {i}: rows end before its bytes")));
            }
            Ok(())
        };
        let result = walk();
        *page = pr.into_buffer();
        result
    }

    /// The sequential row walk: hands `f` the payload of every row in
    /// `rows`, ascending. Whole segments are read from their start (rows
    /// outside `rows` are framed and degree-checked, not decoded), with
    /// O(page) memory recycled through `page`.
    pub(crate) fn for_each_row(
        &self,
        rows: Range<usize>,
        page: &mut Vec<u8>,
        mut f: impl FnMut(usize, &[u8]) -> Result<(), GraphError>,
    ) -> Result<(), GraphError> {
        if rows.is_empty() {
            return Ok(());
        }
        let first = self.segments.partition_point(|s| s.rows.end <= rows.start);
        for i in first..self.segments.len() {
            if self.segments[i].rows.start >= rows.end {
                break;
            }
            self.walk_segment(i, page, |row, _, payload, _| {
                if rows.contains(&row) {
                    f(row, payload)?;
                }
                Ok(())
            })?;
        }
        Ok(())
    }

    /// Exact chunk spans for the pipelined solve: whole segments by
    /// default, with segments heavier than the per-chunk item budget
    /// `⌈items / max_chunks⌉` split at exact row/byte boundaries found by a
    /// skip-scan (length-prefixed seeks and degree peeks, no codec work).
    /// The result tiles the row space; no two spans share a byte.
    pub(crate) fn chunk_spans(&self, max_chunks: usize) -> Result<Vec<ChunkSpan>, GraphError> {
        let budget = self.items.div_ceil(max_chunks.max(1) as u64).max(1);
        let mut spans = Vec::with_capacity(self.segments.len());
        for (i, seg) in self.segments.iter().enumerate() {
            if seg.edges <= budget || seg.rows.len() <= 1 {
                spans.push(seg.clone());
            } else {
                self.split_segment(i, budget, &mut spans)?;
            }
        }
        Ok(spans)
    }

    /// Skip-scans oversized segment `i` — every row's byte offset and item
    /// prefix — then cuts it at exact row boundaries with
    /// [`EdgePartition::from_offsets`]' ceiling split over the item prefix
    /// (a hub row heavier than the budget may leave an empty neighbor,
    /// which is dropped).
    fn split_segment(
        &self,
        i: usize,
        budget: u64,
        spans: &mut Vec<ChunkSpan>,
    ) -> Result<(), GraphError> {
        let seg = &self.segments[i];
        let mut row_off = Vec::with_capacity(seg.rows.len() + 1);
        let mut item_prefix = Vec::with_capacity(seg.rows.len() + 1);
        row_off.push(seg.bytes.start);
        item_prefix.push(0usize);
        let mut items = 0usize;
        self.walk_segment(i, &mut Vec::new(), |_, degree, _, end| {
            items += degree;
            row_off.push(seg.bytes.start + end);
            item_prefix.push(items);
            Ok(())
        })?;
        let parts = usize::try_from(seg.edges.div_ceil(budget)).unwrap_or(usize::MAX);
        let split = EdgePartition::from_offsets(&item_prefix, parts.max(1));
        for w in split.row_bounds().windows(2).filter(|w| w[0] < w[1]) {
            spans.push(ChunkSpan {
                rows: seg.rows.start + w[0]..seg.rows.start + w[1],
                bytes: row_off[w[0]]..row_off[w[1]],
                edges: (item_prefix[w[1]] - item_prefix[w[0]]) as u64,
            });
        }
        Ok(())
    }

    /// Reads a span's bytes into `buf` with one positioned read.
    pub(crate) fn load_chunk(&self, span: &ChunkSpan, buf: &mut Vec<u8>) -> Result<(), GraphError> {
        buf.resize(span.byte_len(), 0);
        self.store
            .read_exact_at(buf, self.data_start + span.bytes.start)
            .map_err(|e| GraphError::io("reading chunk span", &e))
    }

    /// Walks the rows of a loaded span buffer, handing `f` each row's
    /// payload. Checks each length prefix against the span, each degree
    /// against the row count, and that the rows consume exactly the span's
    /// bytes and hold exactly its items.
    pub(crate) fn for_each_row_in(
        &self,
        span: &ChunkSpan,
        data: &[u8],
        mut f: impl FnMut(usize, &[u8]) -> Result<(), GraphError>,
    ) -> Result<(), GraphError> {
        let expected = span.byte_len();
        let data = data.get(..expected).ok_or_else(|| {
            self.corrupt(format!(
                "chunk buffer holds {} bytes, span needs {expected}",
                data.len()
            ))
        })?;
        let (mut pos, mut items) = (0usize, 0u64);
        for row in span.rows.clone() {
            let len = varint::read_u32(data, &mut pos)
                .ok_or_else(|| self.corrupt(format!("row {row}: truncated length prefix")))?;
            let payload = pos
                .checked_add(len as usize)
                .and_then(|end| data.get(pos..end))
                .ok_or_else(|| {
                    self.corrupt(format!("row {row}: length prefix {len} overruns the span"))
                })?;
            items += self.degree(row, payload)? as u64;
            f(row, payload)?;
            pos += payload.len();
        }
        if pos != data.len() {
            return Err(self.corrupt(format!(
                "span left {} undecoded trailing bytes",
                data.len() - pos
            )));
        }
        if items != span.edges {
            return Err(self.corrupt(format!(
                "span rows hold {items} items, table says {}",
                span.edges
            )));
        }
        Ok(())
    }
}

fn corrupt(schema: Schema, message: String) -> GraphError {
    GraphError::CorruptContainer {
        message: format!("{} file: {message}", schema.name),
    }
}

/// Block-decodes the codec row at the head of `payload` (row `row`),
/// appending its ids to `out`; returns the schema tail after it.
#[inline]
pub(crate) fn decode_head<'a>(
    row: usize,
    payload: &'a [u8],
    codec: &mut CodecScratch,
    out: &mut Vec<NodeId>,
) -> Result<&'a [u8], GraphError> {
    let mut pos = 0usize;
    codec::decode_row_into(node_id(row), payload, &mut pos, codec, out)?;
    Ok(&payload[pos..])
}

/// The one container writer. Rows are staged in a temp data file next to
/// the target while segments are cut by size; [`finish`](Self::finish)
/// then writes the header, segment table and column in front of the
/// staged data section.
#[derive(Debug)]
pub(crate) struct SegmentWriter {
    path: PathBuf,
    data_tmp: PathBuf,
    w: BufWriter<File>,
    schema: Schema,
    target_bytes: u64,
    segments: Vec<ChunkSpan>,
    /// The segment being filled: rows and bytes written since the last cut.
    open: ChunkSpan,
    codec: CodecScratch,
    payload: Vec<u8>,
    prefix: Vec<u8>,
}

impl SegmentWriter {
    /// Starts a `schema` file at `path`, cutting a segment once its rows
    /// reach `target_bytes`.
    pub(crate) fn create(
        path: &Path,
        schema: Schema,
        target_bytes: usize,
    ) -> Result<Self, GraphError> {
        let data_tmp = path.with_extension("segdata.tmp");
        let file = File::create(&data_tmp)
            .map_err(|e| GraphError::io("creating segment data temp file", &e))?;
        Ok(SegmentWriter {
            path: path.to_path_buf(),
            data_tmp,
            w: BufWriter::new(file),
            schema,
            target_bytes: target_bytes.max(1) as u64,
            segments: Vec::new(),
            open: ChunkSpan {
                rows: 0..0,
                bytes: 0..0,
                edges: 0,
            },
            codec: CodecScratch::new(),
            payload: Vec::new(),
            prefix: Vec::new(),
        })
    }

    /// Rows written so far (the next row's index).
    pub(crate) fn rows(&self) -> usize {
        self.open.rows.end
    }

    /// Appends the next row: the codec row of the ascending `ids`, then
    /// `tail` as varints.
    pub(crate) fn push_row(&mut self, ids: &[NodeId], tail: &[u32]) -> Result<(), GraphError> {
        self.payload.clear();
        codec::encode_row(
            node_id(self.open.rows.end),
            ids,
            &mut self.codec,
            &mut self.payload,
        )?;
        for &v in tail {
            varint::write_u32(&mut self.payload, v);
        }
        self.prefix.clear();
        varint::write_u32(&mut self.prefix, node_id(self.payload.len()));
        self.w
            .write_all(&self.prefix)
            .and_then(|()| self.w.write_all(&self.payload))
            .map_err(|e| GraphError::io("writing segment data", &e))?;
        self.open.rows.end += 1;
        self.open.bytes.end += (self.prefix.len() + self.payload.len()) as u64;
        self.open.edges += ids.len() as u64;
        if self.open.bytes.end - self.open.bytes.start >= self.target_bytes {
            self.cut();
        }
        Ok(())
    }

    fn cut(&mut self) {
        if !self.open.rows.is_empty() {
            let (row, byte) = (self.open.rows.end, self.open.bytes.end);
            let next = ChunkSpan {
                rows: row..row,
                bytes: byte..byte,
                edges: 0,
            };
            self.segments.push(std::mem::replace(&mut self.open, next));
        }
    }

    /// Writes the final file: header with `params`, segment table,
    /// `column`, then the staged data section.
    ///
    /// # Panics
    /// Panics on caller bugs: a parameter count the schema does not
    /// declare, or a column that does not cover every row of a schema
    /// with one.
    pub(crate) fn finish(mut self, params: &[u64], column: &[u32]) -> Result<(), GraphError> {
        assert_eq!(params.len(), self.schema.params, "schema parameter count");
        let column_rows = if self.schema.column { self.rows() } else { 0 };
        assert_eq!(column.len(), column_rows, "column must cover every row");
        self.cut();
        self.w
            .flush()
            .map_err(|e| GraphError::io("flushing segment data", &e))?;
        self.write_file(params, column)
    }

    fn write_file(&self, params: &[u64], column: &[u32]) -> Result<(), GraphError> {
        let ctx = |e: io::Error| GraphError::io(&format!("writing {} file", self.schema.name), &e);
        let mut w = BufWriter::new(File::create(&self.path).map_err(ctx)?);
        let mut header = Vec::with_capacity(32 + 8 * params.len());
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(self.schema.tag);
        header.extend_from_slice(&(self.rows() as u64).to_le_bytes());
        for &p in params {
            header.extend_from_slice(&p.to_le_bytes());
        }
        header.extend_from_slice(&(self.segments.len() as u64).to_le_bytes());
        for s in &self.segments {
            for v in [
                s.rows.start as u64,
                s.rows.end as u64,
                s.bytes.start,
                s.bytes.end - s.bytes.start,
                s.edges,
            ] {
                header.extend_from_slice(&v.to_le_bytes());
            }
        }
        w.write_all(&header).map_err(ctx)?;
        for &v in column {
            w.write_all(&v.to_le_bytes()).map_err(ctx)?;
        }
        let mut data = File::open(&self.data_tmp).map_err(ctx)?;
        io::copy(&mut data, &mut w).map_err(ctx)?;
        w.flush().map_err(ctx)
    }
}

impl Drop for SegmentWriter {
    /// The staged data file goes whether the writer finished or failed.
    fn drop(&mut self) {
        std::fs::remove_file(&self.data_tmp).ok();
    }
}
