//! First-party wire protocol of the rank service.
//!
//! Deliberately minimal: length-prefixed binary frames over a plain TCP
//! stream, fixed-width little-endian integers, floats carried as
//! `f64::to_bits` (the protocol's precision claims are *bitwise*, so scores
//! must survive the wire without reformatting). No serde, no async runtime —
//! `std::net` and `std::io` only, matching the workspace's
//! no-heavyweight-deps policy.
//!
//! ## Framing
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! u32 payload_len (LE) | payload_len bytes
//! ```
//!
//! Frames above [`MAX_FRAME_BYTES`] are rejected before allocation, so a
//! garbage length prefix cannot OOM the server.
//!
//! ## Requests
//!
//! First payload byte is the opcode; operands follow in fixed order.
//!
//! | opcode | command       | operands                                      |
//! |--------|---------------|-----------------------------------------------|
//! | 0x01   | Rank          | `u32 page`                                    |
//! | 0x02   | TopK          | `u8 domain, u32 k`                            |
//! | 0x03   | SourceScore   | `u32 source`                                  |
//! | 0x04   | Ppr           | `u8 mode, u32 top_m, u32 n_seeds, u32×n`      |
//! | 0x05   | IngestDelta   | crawl delta (below)                           |
//! | 0x06   | Stats         | —                                             |
//! | 0x07   | DumpRanks     | `u8 which`                                    |
//! | 0x7F   | Shutdown      | —                                             |
//!
//! An IngestDelta payload is one [`CrawlDelta`], to the end of the frame:
//!
//! ```text
//! u32 new_nodes
//! u32 op_count          then op_count × { u8 tag (0 add, 1 remove), u32 u, u32 v }
//! u32 page_source_count then page_source_count × u32
//! u32 new_sources
//! ```
//!
//! ## Responses
//!
//! First payload byte is a status: `0` ok (typed payload follows), `1` bad
//! request, `2` server error (both followed by `u32 len + utf8` message).
//! Bad seeds, bad ids and malformed deltas are *protocol results*, never
//! connection teardowns: the typed validation errors from `sr-core` flow
//! back as status-1 messages and the connection keeps serving.

use std::io::{Read, Write};

use sr_graph::delta::DeltaOp;
use sr_graph::{CrawlDelta, GraphDelta, NodeId};

/// Hard cap on one frame's payload; a corrupt length prefix fails fast
/// instead of attempting a giant allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Which rank vector a [`Request::TopK`] or [`Request::DumpRanks`] targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankDomain {
    /// PageRank over pages.
    PageRank,
    /// Spam-Resilient SourceRank over sources.
    Resilient,
    /// Baseline SourceRank over sources.
    SourceRank,
    /// Spam proximity over sources.
    Proximity,
}

impl RankDomain {
    fn to_byte(self) -> u8 {
        match self {
            RankDomain::PageRank => 0,
            RankDomain::Resilient => 1,
            RankDomain::SourceRank => 2,
            RankDomain::Proximity => 3,
        }
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(RankDomain::PageRank),
            1 => Ok(RankDomain::Resilient),
            2 => Ok(RankDomain::SourceRank),
            3 => Ok(RankDomain::Proximity),
            other => Err(WireError::BadTag { tag: other }),
        }
    }
}

/// Personalized-PPR execution path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PprMode {
    /// Monte-Carlo walk-cache fast path (served on the cache epoch's graph).
    Approx,
    /// Exact batched solve on the current snapshot (coalesced into panels).
    Exact,
}

/// One client command.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// PageRank score of one page.
    Rank {
        /// Page id.
        page: NodeId,
    },
    /// The `k` top-scored ids of a rank domain.
    TopK {
        /// Which vector to rank by.
        domain: RankDomain,
        /// How many ids.
        k: u32,
    },
    /// All three source-space scores of one source.
    SourceScore {
        /// Source id.
        source: NodeId,
    },
    /// Personalized PPR from a seed set; returns the `top_m` heaviest pages.
    Ppr {
        /// Fast or exact path.
        mode: PprMode,
        /// Result truncation.
        top_m: u32,
        /// Teleport seed pages.
        seeds: Vec<NodeId>,
    },
    /// Feed one crawl delta into the ingest stream.
    IngestDelta(
        /// The mutation batch.
        CrawlDelta,
    ),
    /// Server counters.
    Stats,
    /// Full rank vector of a domain, bit-exact (parity checks).
    DumpRanks {
        /// Which vector.
        domain: RankDomain,
    },
    /// Stop the server.
    Shutdown,
}

/// Server counters returned by [`Request::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Current snapshot epoch.
    pub epoch: u64,
    /// Ingest sequence folded into the current snapshot.
    pub applied_seq: u64,
    /// Highest ingest sequence accepted so far.
    pub enqueued_seq: u64,
    /// Snapshots published (excluding the seed).
    pub published: u64,
    /// Readers that found the active slot locked (acceptance gate: 0).
    pub reader_stalls: u64,
    /// Overlay compactions folded so far.
    pub compactions: u64,
    /// Pages in the current snapshot.
    pub num_pages: u64,
    /// Sources in the current snapshot.
    pub num_sources: u64,
    /// Exact-PPR panels solved.
    pub panels_solved: u64,
    /// Queries answered, all classes.
    pub queries: u64,
}

/// One server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Scalar score.
    Score(
        /// The score, bit-exact.
        f64,
    ),
    /// Ranked `(id, score)` pairs, descending.
    Ranked(
        /// The pairs.
        Vec<(NodeId, f64)>,
    ),
    /// Resilient, baseline-SourceRank and proximity scores of one source.
    SourceScores {
        /// Spam-Resilient SourceRank (Eq. 3).
        resilient: f64,
        /// Baseline SourceRank.
        sourcerank: f64,
        /// Spam proximity (Eq. 6).
        proximity: f64,
    },
    /// Delta accepted into the stream at this sequence number.
    Ingested {
        /// Assigned ingest sequence.
        seq: u64,
    },
    /// Server counters.
    Stats(
        /// The counters.
        StatsReply,
    ),
    /// A full rank vector, bit-exact.
    Ranks(
        /// The scores.
        Vec<f64>,
    ),
    /// Command acknowledged with no payload (shutdown).
    Ok,
    /// The request was malformed or referenced invalid ids/seeds.
    BadRequest(
        /// Human-readable reason.
        String,
    ),
    /// The server failed internally.
    ServerError(
        /// Human-readable reason.
        String,
    ),
}

/// Why a frame failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame shorter than its fields require.
    Truncated,
    /// Unconsumed bytes after a complete message.
    TrailingBytes,
    /// Unknown opcode, status, enum tag, or delta op tag.
    BadTag {
        /// The offending byte.
        tag: u8,
    },
    /// Length prefix exceeds [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// Announced payload size.
        len: usize,
    },
    /// A message string was not UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::TrailingBytes => write!(f, "frame has trailing bytes"),
            WireError::BadTag { tag } => write!(f, "unknown tag byte {tag}"),
            WireError::FrameTooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds cap {MAX_FRAME_BYTES}")
            }
            WireError::BadUtf8 => write!(f, "message string is not UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

// --- byte-level helpers ----------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let s = self.take(len)?;
        String::from_utf8(s.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// An IngestDelta payload (layout in the module docs).
    fn delta(&mut self) -> Result<CrawlDelta, WireError> {
        let mut graph = GraphDelta::new();
        graph.add_nodes(self.u32()? as usize);
        for _ in 0..self.u32()? {
            let tag = self.u8()?;
            let (u, v) = (self.u32()?, self.u32()?);
            match tag {
                0 => graph.add_edge(u, v),
                1 => graph.remove_edge(u, v),
                tag => return Err(WireError::BadTag { tag }),
            }
        }
        let n = self.u32()? as usize;
        let mut new_page_sources = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            new_page_sources.push(self.u32()?);
        }
        Ok(CrawlDelta {
            graph,
            new_page_sources,
            new_sources: self.u32()? as usize,
        })
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    // lint-ok(panic-surface): encoder inputs are server-built strings bounded
    // far below u32::MAX; the decode side rejects oversized frames with a type
    put_u32(out, u32::try_from(s.len()).expect("message fits u32"));
    out.extend_from_slice(s.as_bytes());
}

fn put_count(out: &mut Vec<u8>, n: usize) {
    // lint-ok(panic-surface): counts come from server-side vectors whose
    // lengths the frame cap already bounds below u32::MAX
    put_u32(out, u32::try_from(n).expect("count fits u32"));
}

fn put_delta(out: &mut Vec<u8>, delta: &CrawlDelta) {
    put_count(out, delta.graph.new_nodes());
    put_count(out, delta.graph.ops().len());
    for op in delta.graph.ops() {
        let (tag, u, v) = match *op {
            DeltaOp::AddEdge(u, v) => (0, u, v),
            DeltaOp::RemoveEdge(u, v) => (1, u, v),
        };
        out.push(tag);
        put_u32(out, u);
        put_u32(out, v);
    }
    put_count(out, delta.new_page_sources.len());
    for &s in &delta.new_page_sources {
        put_u32(out, s);
    }
    put_count(out, delta.new_sources);
}

// --- request codec ---------------------------------------------------------

/// Serializes one request payload (no frame prefix).
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Rank { page } => {
            out.push(0x01);
            put_u32(out, *page);
        }
        Request::TopK { domain, k } => {
            out.push(0x02);
            out.push(domain.to_byte());
            put_u32(out, *k);
        }
        Request::SourceScore { source } => {
            out.push(0x03);
            put_u32(out, *source);
        }
        Request::Ppr { mode, top_m, seeds } => {
            out.push(0x04);
            out.push(match mode {
                PprMode::Approx => 0,
                PprMode::Exact => 1,
            });
            put_u32(out, *top_m);
            put_count(out, seeds.len());
            for &s in seeds {
                put_u32(out, s);
            }
        }
        Request::IngestDelta(delta) => {
            out.push(0x05);
            put_delta(out, delta);
        }
        Request::Stats => out.push(0x06),
        Request::DumpRanks { domain } => {
            out.push(0x07);
            out.push(domain.to_byte());
        }
        Request::Shutdown => out.push(0x7F),
    }
}

/// Parses one request payload.
pub fn decode_request(bytes: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(bytes);
    let req = match r.u8()? {
        0x01 => Request::Rank { page: r.u32()? },
        0x02 => Request::TopK {
            domain: RankDomain::from_byte(r.u8()?)?,
            k: r.u32()?,
        },
        0x03 => Request::SourceScore { source: r.u32()? },
        0x04 => {
            let mode = match r.u8()? {
                0 => PprMode::Approx,
                1 => PprMode::Exact,
                tag => return Err(WireError::BadTag { tag }),
            };
            let top_m = r.u32()?;
            let n = r.u32()? as usize;
            let mut seeds = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                seeds.push(r.u32()?);
            }
            Request::Ppr { mode, top_m, seeds }
        }
        0x05 => Request::IngestDelta(r.delta()?),
        0x06 => Request::Stats,
        0x07 => Request::DumpRanks {
            domain: RankDomain::from_byte(r.u8()?)?,
        },
        0x7F => Request::Shutdown,
        tag => return Err(WireError::BadTag { tag }),
    };
    r.finish()?;
    Ok(req)
}

// --- response codec --------------------------------------------------------

/// Serializes one response payload (no frame prefix).
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::BadRequest(msg) => {
            out.push(1);
            put_string(out, msg);
            return;
        }
        Response::ServerError(msg) => {
            out.push(2);
            put_string(out, msg);
            return;
        }
        _ => out.push(0),
    }
    match resp {
        Response::Score(v) => {
            out.push(0x01);
            put_f64(out, *v);
        }
        Response::Ranked(pairs) => {
            out.push(0x02);
            put_count(out, pairs.len());
            for &(id, score) in pairs {
                put_u32(out, id);
                put_f64(out, score);
            }
        }
        Response::SourceScores {
            resilient,
            sourcerank,
            proximity,
        } => {
            out.push(0x03);
            put_f64(out, *resilient);
            put_f64(out, *sourcerank);
            put_f64(out, *proximity);
        }
        Response::Ingested { seq } => {
            out.push(0x05);
            put_u64(out, *seq);
        }
        Response::Stats(s) => {
            out.push(0x06);
            for v in [
                s.epoch,
                s.applied_seq,
                s.enqueued_seq,
                s.published,
                s.reader_stalls,
                s.compactions,
                s.num_pages,
                s.num_sources,
                s.panels_solved,
                s.queries,
            ] {
                put_u64(out, v);
            }
        }
        Response::Ranks(scores) => {
            out.push(0x07);
            put_count(out, scores.len());
            for &v in scores {
                put_f64(out, v);
            }
        }
        Response::Ok => out.push(0x7F),
        // lint-ok(panic-surface): both variants are encoded by the early return
        // above in this same fn; no client input can construct this arm
        Response::BadRequest(_) | Response::ServerError(_) => unreachable!("handled above"),
    }
}

/// Parses one response payload.
pub fn decode_response(bytes: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(bytes);
    match r.u8()? {
        1 => {
            let msg = r.string()?;
            r.finish()?;
            return Ok(Response::BadRequest(msg));
        }
        2 => {
            let msg = r.string()?;
            r.finish()?;
            return Ok(Response::ServerError(msg));
        }
        0 => {}
        tag => return Err(WireError::BadTag { tag }),
    }
    let resp = match r.u8()? {
        0x01 => Response::Score(r.f64()?),
        0x02 => {
            let n = r.u32()? as usize;
            let mut pairs = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                pairs.push((r.u32()?, r.f64()?));
            }
            Response::Ranked(pairs)
        }
        0x03 => Response::SourceScores {
            resilient: r.f64()?,
            sourcerank: r.f64()?,
            proximity: r.f64()?,
        },
        0x05 => Response::Ingested { seq: r.u64()? },
        0x06 => {
            let mut v = [0u64; 10];
            for slot in &mut v {
                *slot = r.u64()?;
            }
            Response::Stats(StatsReply {
                epoch: v[0],
                applied_seq: v[1],
                enqueued_seq: v[2],
                published: v[3],
                reader_stalls: v[4],
                compactions: v[5],
                num_pages: v[6],
                num_sources: v[7],
                panels_solved: v[8],
                queries: v[9],
            })
        }
        0x07 => {
            let n = r.u32()? as usize;
            let mut scores = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                scores.push(r.f64()?);
            }
            Response::Ranks(scores)
        }
        0x7F => Response::Ok,
        tag => return Err(WireError::BadTag { tag }),
    };
    r.finish()?;
    Ok(resp)
}

// --- framing ---------------------------------------------------------------

/// Writes one length-prefixed frame.
///
/// # Errors
/// Propagates the underlying I/O failure.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame exceeds u32 length")
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. `Ok(None)` on clean EOF at a frame
/// boundary (peer hung up between messages), that is, before the first
/// byte of the length prefix.
///
/// # Errors
/// I/O failure, EOF inside the length prefix or the payload, or a length
/// prefix above [`MAX_FRAME_BYTES`].
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    // EOF before the first byte is a clean hang-up; EOF inside the prefix
    // is a torn frame, which `read_exact` reports as `UnexpectedEof`.
    match r.read_exact(&mut len_buf[..1]) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            WireError::FrameTooLarge { len },
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_delta() -> CrawlDelta {
        let mut delta = CrawlDelta::new();
        delta.graph.add_nodes(1);
        delta.graph.add_edge(0, 3);
        delta.graph.remove_edge(1, 0);
        delta.new_page_sources = vec![2];
        delta
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Rank { page: 7 },
            Request::TopK {
                domain: RankDomain::Resilient,
                k: 10,
            },
            Request::SourceScore { source: 3 },
            Request::Ppr {
                mode: PprMode::Approx,
                top_m: 5,
                seeds: vec![1, 4, 9],
            },
            Request::Ppr {
                mode: PprMode::Exact,
                top_m: 0,
                seeds: vec![],
            },
            Request::IngestDelta(sample_delta()),
            Request::IngestDelta(CrawlDelta::new()),
            Request::Stats,
            Request::DumpRanks {
                domain: RankDomain::PageRank,
            },
            Request::Shutdown,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Score(0.123_456_789_f64),
            Response::Ranked(vec![(3, 0.5), (1, f64::MIN_POSITIVE)]),
            Response::SourceScores {
                resilient: 0.25,
                sourcerank: 0.125,
                proximity: 1e-300,
            },
            Response::Ingested { seq: 42 },
            Response::Stats(StatsReply {
                epoch: 3,
                applied_seq: 5,
                enqueued_seq: 6,
                published: 3,
                reader_stalls: 0,
                compactions: 1,
                num_pages: 1200,
                num_sources: 60,
                panels_solved: 9,
                queries: 1000,
            }),
            Response::Ranks(vec![0.1, 0.2, 0.7]),
            Response::Ok,
            Response::BadRequest("seed 99 out of range".into()),
            Response::ServerError("walk cache unavailable".into()),
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let mut buf = Vec::new();
            encode_request(&req, &mut buf);
            assert_eq!(decode_request(&buf).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip_bitwise() {
        for resp in sample_responses() {
            let mut buf = Vec::new();
            encode_response(&resp, &mut buf);
            let back = decode_response(&buf).unwrap();
            assert_eq!(back, resp, "{resp:?}");
        }
        // NaN payloads survive by bits even though NaN != NaN.
        let mut buf = Vec::new();
        encode_response(&Response::Score(f64::NAN), &mut buf);
        match decode_response(&buf).unwrap() {
            Response::Score(v) => assert_eq!(v.to_bits(), f64::NAN.to_bits()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed() {
        for req in sample_requests() {
            let mut buf = Vec::new();
            encode_request(&req, &mut buf);
            for cut in 0..buf.len() {
                assert!(decode_request(&buf[..cut]).is_err(), "cut {cut} of {req:?}");
            }
            buf.push(0);
            assert!(decode_request(&buf).is_err());
        }
    }

    fn encoded_delta() -> Vec<u8> {
        let mut buf = Vec::new();
        encode_request(&Request::IngestDelta(sample_delta()), &mut buf);
        buf
    }

    #[test]
    fn delta_truncation_at_every_boundary_is_typed() {
        let buf = encoded_delta();
        for cut in 0..buf.len() {
            assert_eq!(
                decode_request(&buf[..cut]),
                Err(WireError::Truncated),
                "cut at {cut} must be Truncated"
            );
        }
    }

    #[test]
    fn delta_trailing_bytes_rejected() {
        let mut buf = encoded_delta();
        buf.push(0);
        assert_eq!(decode_request(&buf), Err(WireError::TrailingBytes));
    }

    #[test]
    fn delta_unknown_op_tag_rejected() {
        let mut buf = encoded_delta();
        buf[9] = 7; // the first op's tag byte, after the opcode and two counts
        assert_eq!(decode_request(&buf), Err(WireError::BadTag { tag: 7 }));
    }

    #[test]
    fn unknown_opcodes_and_tags_rejected() {
        assert_eq!(
            decode_request(&[0x55]),
            Err(WireError::BadTag { tag: 0x55 })
        );
        assert_eq!(
            decode_request(&[0x02, 9, 0, 0, 0, 0]),
            Err(WireError::BadTag { tag: 9 }),
            "bad rank domain"
        );
        assert_eq!(
            decode_response(&[7, 0, 0, 0, 0]),
            Err(WireError::BadTag { tag: 7 }),
            "bad status byte"
        );
    }

    #[test]
    fn frames_round_trip_and_cap_is_enforced() {
        let mut pipe: Vec<u8> = Vec::new();
        write_frame(&mut pipe, b"hello").unwrap();
        write_frame(&mut pipe, b"").unwrap();
        let mut r = &pipe[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");

        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_frame(&mut &huge[..]).is_err(), "cap must reject");
    }

    #[test]
    fn a_torn_length_prefix_is_an_error_not_a_hang_up() {
        let mut frame = Vec::new();
        write_frame(&mut frame, b"hello").unwrap();
        assert!(read_frame(&mut &frame[..0]).unwrap().is_none(), "no byte");
        for cut in 1..4 {
            let err = read_frame(&mut &frame[..cut]).expect_err("a torn prefix must fail");
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut {cut}");
        }
    }

    /// Every proper prefix and every single-bit flip of `frame`.
    fn mutations(frame: &[u8]) -> Vec<Vec<u8>> {
        let prefixes = (0..frame.len()).map(|cut| frame[..cut].to_vec());
        let flips = (0..frame.len() * 8).map(|bit| {
            let mut f = frame.to_vec();
            f[bit / 8] ^= 1 << (bit % 8);
            f
        });
        prefixes.chain(flips).collect()
    }

    /// Decodes `bytes` both ways. Either decoder may refuse them — its
    /// signature makes that a typed [`WireError`] — but neither may panic,
    /// and whatever decodes must re-encode to bytes that decode to the
    /// same value. Responses compare by their encoding, so NaN scores are
    /// held to their bits.
    fn check_decoders(bytes: &[u8]) {
        if let Ok(req) = decode_request(bytes) {
            let mut again = Vec::new();
            encode_request(&req, &mut again);
            assert_eq!(decode_request(&again), Ok(req), "request from {bytes:?}");
        }
        if let Ok(resp) = decode_response(bytes) {
            let mut again = Vec::new();
            encode_response(&resp, &mut again);
            let back = decode_response(&again).expect("a re-encoded response decodes");
            let mut twice = Vec::new();
            encode_response(&back, &mut twice);
            assert_eq!(twice, again, "response from {bytes:?}");
        }
    }

    #[test]
    fn sample_frame_prefixes_and_bit_flips_decode_or_fail_typed() {
        let mut frames = Vec::new();
        for req in sample_requests() {
            let mut buf = Vec::new();
            encode_request(&req, &mut buf);
            frames.push(buf);
        }
        for resp in sample_responses() {
            let mut buf = Vec::new();
            encode_response(&resp, &mut buf);
            frames.push(buf);
        }
        for frame in &frames {
            for bytes in mutations(frame) {
                check_decoders(&bytes);
            }
        }
    }

    /// A reader over `bytes` that records the largest buffer it was asked
    /// to fill: `read_frame` hands its payload buffer to the reader as soon
    /// as it has allocated it.
    struct Probe<'a> {
        bytes: &'a [u8],
        largest: usize,
    }

    impl Read for Probe<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.bytes.read(buf)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn decoders_never_panic_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..513),
        ) {
            check_decoders(&bytes);
        }

        #[test]
        fn read_frame_never_panics_and_caps_before_allocating(
            raw in proptest::collection::vec(any::<u8>(), 0..513),
            small in any::<bool>(),
            prefix in any::<u32>(),
            tail in proptest::collection::vec(any::<u8>(), 0..513),
        ) {
            let _ = read_frame(&mut &raw[..]);
            // A length prefix that is often small enough to read a payload.
            let len = if small { prefix % 600 } else { prefix };
            let mut stream = len.to_le_bytes().to_vec();
            stream.extend_from_slice(&tail);
            let mut probe = Probe { bytes: &stream, largest: 0 };
            let res = read_frame(&mut probe);
            let len = len as usize;
            if len > MAX_FRAME_BYTES {
                let err = res.expect_err("an oversized frame must be refused");
                prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
                prop_assert!(probe.largest <= 4, "payload buffer allocated before the cap check");
                prop_assert_eq!(probe.bytes.len(), tail.len());
            } else if len <= tail.len() {
                prop_assert_eq!(res.unwrap().unwrap(), &tail[..len]);
            } else {
                prop_assert_eq!(res.unwrap_err().kind(), std::io::ErrorKind::UnexpectedEof);
            }
        }
    }
}
