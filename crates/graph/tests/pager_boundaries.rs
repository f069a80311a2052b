//! Page-boundary and EOF behavior of `sr_graph::pager::PagedReader` (and
//! the `SourceReader` ranges feeding it).
//!
//! Until now these paths were covered only incidentally, through the shard
//! reader. The invariants pinned here: reads landing *exactly* on page
//! boundaries neither lose nor duplicate bytes; a stream ending exactly at
//! a boundary is clean EOF on the next read; premature ends surface as
//! typed [`std::io::ErrorKind::UnexpectedEof`] errors (never a panic, per
//! the repo's io panic policy); and `consumed()` accounting survives
//! refills and buffer growth.

use proptest::prelude::*;

use sr_graph::pager::{ByteSource, PagedReader, SourceReader};
use std::io::ErrorKind;

/// 16 is the reader's minimum page size — the densest boundary layout.
const PAGE: usize = 16;

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

#[test]
fn takes_landing_exactly_on_page_boundaries() {
    // Data an exact multiple of the page size, consumed in page-sized
    // bites: every take ends exactly where a refill begins.
    let data = payload(PAGE * 8);
    let mut r = PagedReader::with_page_size(&data[..], PAGE);
    for chunk in 0..8 {
        let got = r.take(PAGE).unwrap().to_vec();
        assert_eq!(got, data[chunk * PAGE..(chunk + 1) * PAGE]);
    }
    assert_eq!(r.consumed(), data.len() as u64);
    // The stream is exhausted exactly at a page boundary: the next take is
    // a typed error, not a panic or a short read.
    assert_eq!(r.take(1).unwrap_err().kind(), ErrorKind::UnexpectedEof);
}

#[test]
fn byte_reads_across_a_page_boundary() {
    let data = payload(PAGE + 1);
    let mut r = PagedReader::with_page_size(&data[..], PAGE);
    for &expected in &data {
        assert_eq!(r.byte().unwrap(), expected);
    }
    assert_eq!(r.byte().unwrap_err().kind(), ErrorKind::UnexpectedEof);
}

#[test]
fn fixed_width_reads_split_by_a_page_boundary() {
    // Consume 13 bytes so the following u64 spans bytes 13..21 — split
    // 3/5 across the first page boundary; the u32 after it spans 21..25.
    let data = payload(PAGE * 2);
    let mut r = PagedReader::with_page_size(&data[..], PAGE);
    r.take(13).unwrap();
    let mut arr8 = [0u8; 8];
    arr8.copy_from_slice(&data[13..21]);
    assert_eq!(r.u64_le().unwrap(), u64::from_le_bytes(arr8));
    let mut arr4 = [0u8; 4];
    arr4.copy_from_slice(&data[21..25]);
    assert_eq!(r.u32_le().unwrap(), u32::from_le_bytes(arr4));
    assert_eq!(r.consumed(), 25);
}

#[test]
fn varint_split_by_a_page_boundary() {
    // 14 pad bytes, then a 5-byte varint occupying bytes 14..19 — bytes
    // 14,15 in page one, 16..19 in page two.
    let mut data = vec![0u8; 14];
    sr_graph::varint::write_u32(&mut data, u32::MAX);
    assert_eq!(data.len(), 19);
    let mut r = PagedReader::with_page_size(&data[..], PAGE);
    r.take(14).unwrap();
    assert_eq!(r.varint_u32().unwrap(), u32::MAX);
    assert_eq!(r.consumed(), 19);
}

#[test]
fn take_larger_than_a_page_grows_then_recycles() {
    // A take bigger than the page forces the buffer to grow mid-stream;
    // subsequent page-sized takes must still be positioned correctly.
    let data = payload(PAGE * 6);
    let mut r = PagedReader::with_page_size(&data[..], PAGE);
    assert_eq!(r.take(PAGE * 3).unwrap(), &data[..PAGE * 3]);
    assert_eq!(r.take(PAGE).unwrap(), &data[PAGE * 3..PAGE * 4]);
    assert_eq!(r.consumed(), (PAGE * 4) as u64);
    // Recycled buffers start clean: no stale bytes leak into a new stream.
    let buf = r.into_buffer();
    let fresh = payload(PAGE);
    let mut r2 = PagedReader::with_recycled(&fresh[..], PAGE, buf);
    assert_eq!(r2.take(PAGE).unwrap(), &fresh[..]);
    assert_eq!(r2.take(1).unwrap_err().kind(), ErrorKind::UnexpectedEof);
}

#[test]
fn eof_mid_request_is_unexpected_eof() {
    // The stream holds one full page plus a fragment; asking for more than
    // the fragment after the boundary must be a typed error, and the
    // consumed counter must not advance past what was handed out.
    let data = payload(PAGE + 5);
    let mut r = PagedReader::with_page_size(&data[..], PAGE);
    r.take(PAGE).unwrap();
    let err = r.take(6).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    assert_eq!(r.consumed(), PAGE as u64);
}

#[test]
fn empty_stream_reads_are_typed_errors() {
    let data: Vec<u8> = Vec::new();
    let mut r = PagedReader::with_page_size(&data[..], PAGE);
    assert_eq!(r.take(1).unwrap_err().kind(), ErrorKind::UnexpectedEof);
    assert_eq!(r.byte().unwrap_err().kind(), ErrorKind::UnexpectedEof);
    assert_eq!(r.varint_u32().unwrap_err().kind(), ErrorKind::UnexpectedEof);
    assert_eq!(r.consumed(), 0);
}

#[test]
fn source_reader_range_ending_at_source_length() {
    // A range that ends exactly at the source's last byte: everything is
    // readable, and the reader then reports clean exhaustion.
    let src = payload(100);
    let mut r = PagedReader::with_page_size(SourceReader::new(&src, 84..100), PAGE);
    assert_eq!(r.take(PAGE).unwrap(), &src[84..100]);
    assert_eq!(r.take(1).unwrap_err().kind(), ErrorKind::UnexpectedEof);
}

#[test]
fn source_reader_range_past_eof_is_typed_error() {
    // The range claims bytes the source does not have: the error must
    // surface from the source as UnexpectedEof when the page straddles the
    // real end.
    let src = payload(20);
    let mut r = PagedReader::with_page_size(SourceReader::new(&src, 10..40), PAGE);
    let err = r.take(PAGE * 2).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    // Offsets entirely past the end fail the same way.
    let mut past = PagedReader::with_page_size(SourceReader::new(&src, 25..30), PAGE);
    assert_eq!(past.take(1).unwrap_err().kind(), ErrorKind::UnexpectedEof);
}

#[test]
fn byte_source_read_exact_at_bounds() {
    let src = payload(32);
    let mut buf = [0u8; 8];
    // Exactly the final 8 bytes: fine.
    src.read_exact_at(&mut buf, 24).unwrap();
    assert_eq!(buf, src[24..32]);
    // One byte past: typed error.
    assert_eq!(
        src.read_exact_at(&mut buf, 25).unwrap_err().kind(),
        ErrorKind::UnexpectedEof
    );
    // Offset beyond the end entirely: typed error.
    assert_eq!(
        src.read_exact_at(&mut buf, 33).unwrap_err().kind(),
        ErrorKind::UnexpectedEof
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary take-size schedules over arbitrary data and page sizes:
    /// the reassembled bytes always equal the input prefix, `consumed()`
    /// always equals the bytes handed out, and running off the end is
    /// always `UnexpectedEof`.
    #[test]
    fn arbitrary_take_schedules_reassemble_the_stream(
        len in 0usize..500,
        page in 16usize..64,
        takes in proptest::collection::vec(1usize..70, 1..20),
    ) {
        let data = payload(len);
        let mut r = PagedReader::with_page_size(&data[..], page);
        let mut out = Vec::new();
        for &t in &takes {
            if out.len() + t <= data.len() {
                out.extend_from_slice(r.take(t).unwrap());
                prop_assert_eq!(r.consumed(), out.len() as u64);
            } else {
                let err = r.take(t).unwrap_err();
                prop_assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
                break;
            }
        }
        prop_assert_eq!(&out[..], &data[..out.len()]);
    }
}

// ---------------------------------------------------------------------------
// Chunk-granularity streaming (the decode-ahead prefetcher's I/O layer)
// against the same boundary hazards: page-boundary skip-scans, truncated
// final chunks, and corrupt payloads mid-chunk. The contract everywhere is
// a typed `GraphError`, never a panic and never a wedged pipeline.
// ---------------------------------------------------------------------------

use sr_graph::shard::build_from_csr;
use sr_graph::{ChunkArena, GraphBuilder, GraphError, ShardedCompressedGraph};
use std::sync::atomic::{AtomicUsize, Ordering};

fn dense_sharded(tag: &str, shard_target: usize) -> (ShardedCompressedGraph, std::path::PathBuf) {
    let edges: Vec<(u32, u32)> = (0u32..64)
        .flat_map(|u| [(u, (u + 1) % 64), (u, (u * 11 + 3) % 64), ((u * 5) % 64, u)])
        .collect();
    let g = GraphBuilder::from_edges_exact(64, edges).unwrap();
    let dir = std::env::temp_dir().join(format!("sr_pager_chunks_{tag}_{}", std::process::id()));
    let path = dir.join("g.shards");
    let sharded = build_from_csr(&g, &dir, &path, shard_target).unwrap();
    (sharded, dir)
}

#[test]
fn chunk_skip_scan_survives_minimum_page_size() {
    // A huge shard target collapses the file to one oversized shard, so
    // chunk_spans must skip-scan row lengths through the paged reader; the
    // minimum page size puts a boundary inside nearly every row record.
    let (mut sharded, dir) = dense_sharded("minpage", 1 << 20);
    sharded.set_page_size(16);
    assert_eq!(
        sharded.shards().len(),
        1,
        "expected a single oversized shard"
    );
    let spans = sharded.chunk_spans(8).unwrap();
    assert!(spans.len() > 1, "oversized shard should split");
    let mut buf = Vec::new();
    let mut arena = ChunkArena::new();
    let mut rows = 0usize;
    let mut edges = 0usize;
    for span in &spans {
        sharded.load_chunk(span, &mut buf).unwrap();
        sharded.decode_chunk(span, &buf, &mut arena).unwrap();
        rows += arena.num_rows();
        edges += arena.num_edges();
    }
    assert_eq!(rows, sharded.num_nodes());
    assert_eq!(edges, sharded.num_edges());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_final_chunk_is_typed_io_error() {
    // Truncate the on-disk file mid-payload *after* the envelope was opened
    // and validated (payloads are read lazily through the kept handle):
    // loading the final chunk must surface a typed I/O error from
    // `read_exact_at`, not a panic or a short decode.
    let (_sharded, dir) = dense_sharded("trunc", 64);
    let path = dir.join("g.shards");
    let truncated = ShardedCompressedGraph::open(&path).unwrap();
    let spans = truncated.chunk_spans(4).unwrap();
    let full_len = std::fs::metadata(&path).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(full_len - 3)
        .unwrap();
    let last = spans.last().unwrap();
    let mut buf = Vec::new();
    match truncated.load_chunk(last, &mut buf) {
        Err(GraphError::Io { .. }) => {}
        other => panic!("expected typed Io error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn prefetch_pipeline_surfaces_chunk_errors_without_wedging() {
    // Drive the out-of-core sweep's prefetcher primitive the way its
    // workers do, a fill stage claiming spans from a shared cursor, over a
    // truncated file: the fill stage fails on the last chunk, the pipeline
    // must return the typed error promptly (no deadlocked producer) with
    // every staging buffer recovered.
    let (_sharded, dir) = dense_sharded("wedge", 64);
    let path = dir.join("g.shards");
    let truncated = ShardedCompressedGraph::open(&path).unwrap();
    let spans = truncated.chunk_spans(6).unwrap();
    let full_len = std::fs::metadata(&path).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(full_len - 3)
        .unwrap();
    let cursor = AtomicUsize::new(0);
    let mut arena = ChunkArena::new();
    let mut consumed = 0usize;
    let (bufs, res) = sr_par::with_threads(8, || {
        sr_par::pipeline_while(
            vec![(0usize, Vec::<u8>::new()), (0, Vec::new())],
            |_, (k, buf): &mut (usize, Vec<u8>)| {
                *k = cursor.fetch_add(1, Ordering::AcqRel);
                let Some(span) = spans.get(*k) else {
                    return Ok(false);
                };
                truncated.load_chunk(span, buf)?;
                Ok(true)
            },
            |_, (k, buf)| {
                truncated.decode_chunk(&spans[*k], buf, &mut arena)?;
                consumed += 1;
                Ok(())
            },
        )
    });
    assert_eq!(bufs.len(), 2, "staging buffers must be recovered");
    match res {
        Err(GraphError::Io { .. }) => {}
        other => panic!("expected typed Io error, got {other:?}"),
    }
    assert!(
        consumed < spans.len(),
        "the truncated chunk cannot be consumed"
    );
    std::fs::remove_dir_all(&dir).ok();
}
