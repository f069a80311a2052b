//! Paged, bounded-memory byte access for out-of-core graph storage.
//!
//! The workspace forbids `unsafe` code, which rules out `mmap`. Instead the
//! out-of-core machinery is built from three small, safe pieces:
//!
//! * [`ByteSource`] — positioned random-access reads (`read_at`) over a
//!   backing store: a [`std::fs::File`] (via
//!   [`std::os::unix::fs::FileExt::read_at`], which needs no `&mut` and no
//!   seek, so many workers can share one handle) or an in-memory byte
//!   buffer (tests, small graphs);
//! * [`SourceReader`] — adapts a byte *range* of a `ByteSource` to
//!   [`std::io::Read`], since within one shard all access is sequential;
//! * [`PagedReader`] — a buffered decoder over any `Read` that refills in
//!   page-sized chunks and hands out contiguous row slices via
//!   [`PagedReader::take`]. Resident memory is O(page size + largest row),
//!   never O(file).
//!
//! The segment container behind both binary files — the shards of
//! [`crate::ShardedCompressedGraph`] and the walk cache of
//! [`crate::WalkStore`] — parses its envelope and walks its rows through
//! [`PagedReader`]; truncated or short inputs surface as
//! [`std::io::ErrorKind::UnexpectedEof`] errors, never a panic.

use std::fs::File;
use std::io::{self, Read};
use std::os::unix::fs::FileExt;

/// Default refill granularity: 64 KiB keeps the working buffer well inside
/// L2 while amortizing syscall overhead across thousands of varint rows.
pub const DEFAULT_PAGE_SIZE: usize = 64 * 1024;

/// Positioned random-access reads over an immutable backing store.
///
/// Implementors must be usable from many threads through a shared reference
/// (`read_at` takes `&self`), which is what lets every `sr-par` worker
/// stream its own shards from one open file handle.
pub trait ByteSource: Sync {
    /// Total length of the store in bytes.
    fn len(&self) -> u64;

    /// Reads exactly `buf.len()` bytes starting at absolute `offset`.
    ///
    /// Fails with [`std::io::ErrorKind::UnexpectedEof`] if the store ends
    /// before the request is satisfied.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;

    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ByteSource for File {
    fn len(&self) -> u64 {
        self.metadata().map(|m| m.len()).unwrap_or(0)
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        FileExt::read_exact_at(self, buf, offset)
    }
}

fn slice_read_exact_at(data: &[u8], buf: &mut [u8], offset: u64) -> io::Result<()> {
    let start = usize::try_from(offset)
        .ok()
        .filter(|&s| s <= data.len())
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "read past end of buffer"))?;
    let src = data[start..]
        .get(..buf.len())
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "read past end of buffer"))?;
    buf.copy_from_slice(src);
    Ok(())
}

impl ByteSource for Vec<u8> {
    fn len(&self) -> u64 {
        self.as_slice().len() as u64
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        slice_read_exact_at(self, buf, offset)
    }
}

/// A sequential [`Read`] view over the byte range `[pos, end)` of a
/// [`ByteSource`]. Each worker builds one per shard; the underlying source
/// is shared immutably.
#[derive(Debug)]
pub struct SourceReader<'a, S: ByteSource + ?Sized> {
    source: &'a S,
    pos: u64,
    end: u64,
}

impl<'a, S: ByteSource + ?Sized> SourceReader<'a, S> {
    /// A reader over `range` of `source`. The range is clamped to the
    /// source length at read time (short ranges yield `UnexpectedEof` from
    /// the source itself).
    pub fn new(source: &'a S, range: std::ops::Range<u64>) -> Self {
        SourceReader {
            source,
            pos: range.start,
            end: range.end,
        }
    }

    /// Bytes left in the range.
    pub fn remaining(&self) -> u64 {
        self.end.saturating_sub(self.pos)
    }
}

impl<S: ByteSource + ?Sized> Read for SourceReader<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let want = buf
            .len()
            .min(usize::try_from(self.remaining()).unwrap_or(usize::MAX));
        if want == 0 {
            return Ok(0);
        }
        self.source.read_exact_at(&mut buf[..want], self.pos)?;
        self.pos += want as u64;
        Ok(want)
    }
}

/// A buffered streaming decoder: refills from an inner [`Read`] in
/// page-sized chunks and exposes contiguous byte runs and varints.
///
/// The buffer is reused across refills (tail bytes are compacted to the
/// front) and only grows when a single [`take`](PagedReader::take) exceeds
/// the page size, so steady-state residency is one page per live reader.
#[derive(Debug)]
pub struct PagedReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    /// Cursor of the next unconsumed byte within `buf[..filled]`.
    pos: usize,
    /// Number of valid bytes in `buf`.
    filled: usize,
    page_size: usize,
    /// Total bytes consumed (taken) so far, for error reporting.
    consumed: u64,
}

impl<R: Read> PagedReader<R> {
    /// Wraps `inner` with the [`DEFAULT_PAGE_SIZE`].
    pub fn new(inner: R) -> Self {
        Self::with_page_size(inner, DEFAULT_PAGE_SIZE)
    }

    /// Wraps `inner` with an explicit refill granularity (minimum 16 bytes;
    /// tiny pages are valid and exercised by the CI smoke test to force the
    /// refill path on small graphs).
    pub fn with_page_size(inner: R, page_size: usize) -> Self {
        PagedReader {
            inner,
            buf: Vec::new(),
            pos: 0,
            filled: 0,
            page_size: page_size.max(16),
            consumed: 0,
        }
    }

    /// Wraps `inner` reusing a previously allocated backing buffer (see
    /// [`into_buffer`](PagedReader::into_buffer)), so per-shard readers in
    /// the solve loop allocate only on the very first iteration.
    pub fn with_recycled(inner: R, page_size: usize, mut buf: Vec<u8>) -> Self {
        buf.clear();
        PagedReader {
            inner,
            buf,
            pos: 0,
            filled: 0,
            page_size: page_size.max(16),
            consumed: 0,
        }
    }

    /// Consumes the reader, handing back its backing buffer for reuse.
    pub fn into_buffer(self) -> Vec<u8> {
        self.buf
    }

    /// Total bytes consumed through [`take`](PagedReader::take) /
    /// [`varint_u32`](PagedReader::varint_u32) so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    fn available(&self) -> usize {
        self.filled - self.pos
    }

    /// Ensures at least `need` contiguous unconsumed bytes are buffered.
    fn fill(&mut self, need: usize) -> io::Result<()> {
        if self.available() >= need {
            return Ok(());
        }
        // Compact the unconsumed tail to the front, then refill.
        self.buf.copy_within(self.pos..self.filled, 0);
        self.filled -= self.pos;
        self.pos = 0;
        let target = need.max(self.page_size);
        if self.buf.len() < target {
            self.buf.resize(target, 0);
        }
        while self.filled < need {
            let n = self.inner.read(&mut self.buf[self.filled..])?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!(
                        "unexpected end of stream: wanted {need} bytes at offset {}, have {}",
                        self.consumed, self.filled
                    ),
                ));
            }
            self.filled += n;
        }
        Ok(())
    }

    /// Returns the next `len` bytes as one contiguous slice and consumes
    /// them. Fails with `UnexpectedEof` if the stream ends first.
    pub fn take(&mut self, len: usize) -> io::Result<&[u8]> {
        self.fill(len)?;
        let slice_start = self.pos;
        self.pos += len;
        self.consumed += len as u64;
        Ok(&self.buf[slice_start..slice_start + len])
    }

    /// Consumes and returns one byte.
    pub fn byte(&mut self) -> io::Result<u8> {
        self.fill(1)?;
        let b = self.buf[self.pos];
        self.pos += 1;
        self.consumed += 1;
        Ok(b)
    }

    /// Decodes one LEB128 `u32` from the stream.
    pub fn varint_u32(&mut self) -> io::Result<u32> {
        let mut value: u32 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            if shift == 28 && byte > 0x0f {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "varint overflows u32",
                ));
            }
            value |= u32::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 28 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "varint longer than 5 bytes",
                ));
            }
        }
    }

    /// Reads a little-endian `u64`.
    pub fn u64_le(&mut self) -> io::Result<u64> {
        let bytes = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a little-endian `u32`.
    pub fn u32_le(&mut self) -> io::Result<u32> {
        let bytes = self.take(4)?;
        let mut arr = [0u8; 4];
        arr.copy_from_slice(bytes);
        Ok(u32::from_le_bytes(arr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_spanning_many_pages() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut r = PagedReader::with_page_size(&data[..], 16);
        let mut out = Vec::new();
        // Mixed take sizes, some larger than a page.
        for len in [1usize, 15, 16, 17, 100, 300] {
            out.extend_from_slice(r.take(len).unwrap());
        }
        let total: usize = [1usize, 15, 16, 17, 100, 300].iter().sum();
        assert_eq!(out, data[..total]);
        assert_eq!(r.consumed(), total as u64);
    }

    #[test]
    fn eof_is_unexpected_eof_not_panic() {
        let data = [1u8, 2, 3];
        let mut r = PagedReader::with_page_size(&data[..], 16);
        assert_eq!(r.take(2).unwrap(), &[1, 2]);
        let err = r.take(5).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn varints_roundtrip_through_pages() {
        let mut data = Vec::new();
        let values = [0u32, 1, 127, 128, 16_384, u32::MAX];
        for &v in &values {
            crate::varint::write_u32(&mut data, v);
        }
        let mut r = PagedReader::with_page_size(&data[..], 16);
        for &v in &values {
            assert_eq!(r.varint_u32().unwrap(), v);
        }
        assert!(r.varint_u32().is_err());
    }

    #[test]
    fn overlong_varint_is_invalid_data() {
        let data = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x01];
        let mut r = PagedReader::new(&data[..]);
        assert_eq!(
            r.varint_u32().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn source_reader_windows_a_vec() {
        let src: Vec<u8> = (0u8..100).collect();
        let mut r = SourceReader::new(&src, 10..20);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, (10u8..20).collect::<Vec<_>>());
    }

    #[test]
    fn source_reader_short_source_errors() {
        let src: Vec<u8> = vec![0; 5];
        // Range claims more bytes than the source holds.
        let mut r = SourceReader::new(&src, 0..10);
        let mut buf = [0u8; 10];
        // First read asks the source for bytes past its end.
        let err = r.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn file_byte_source_reads_at_offsets() {
        let dir = std::env::temp_dir().join("sr_pager_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bytes.bin");
        std::fs::write(&path, (0u8..200).collect::<Vec<_>>()).unwrap();
        let f = File::open(&path).unwrap();
        assert_eq!(ByteSource::len(&f), 200);
        let mut buf = [0u8; 4];
        ByteSource::read_exact_at(&f, &mut buf, 100).unwrap();
        assert_eq!(buf, [100, 101, 102, 103]);
        let mut r = PagedReader::with_page_size(SourceReader::new(&f, 50..60), 16);
        assert_eq!(r.take(10).unwrap(), &(50u8..60).collect::<Vec<_>>()[..]);
        std::fs::remove_file(&path).ok();
    }
}
