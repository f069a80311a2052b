//! The segment container's two suites, run on both of its schemas.
//!
//! Every binary file of the workspace — shard files
//! ([`ShardedCompressedGraph`]) and walk caches ([`WalkStore`]) — is one
//! container, so one contract holds for both on hostile input: a typed
//! [`GraphError`] or a structurally valid decode, **never a panic or an
//! abort**. Both suites run on a small shard image and a small walk image.
//!
//! `corruption::` sweeps four properties, the first two exhaustively:
//!
//! 1. every proper prefix of a file is rejected at open (the data section
//!    is last and the segment table must cover it exactly);
//! 2. every single-bit flip gives a typed error or a structurally valid
//!    decode, through every read path (`validate`, `to_csr`, the chunk
//!    path, the decoded walk table);
//! 3. a damaged magic or a wrong schema tag is rejected;
//! 4. random bytes never panic.
//!
//! Two regression tests pin rows whose codec degree claims `u32::MAX`:
//! they must fail typed before anything is sized from that count.
//!
//! `faults::` puts a `FaultySource` on the [`sr_graph::ByteSource`] seam
//! that fails its k-th positioned read — with `EIO`, or with a short read
//! that fills half the buffer — and sweeps every k through open,
//! `validate`, `chunk_spans` + `load_chunk` + `decode_chunk` and the walk
//! table. Every fault must end in a typed [`GraphError::Io`].

use sr_graph::shard::build_from_csr;
use sr_graph::walks::{WalkFileWriter, WalkMeta, WalkStore};
use sr_graph::{ChunkArena, CsrGraph, GraphBuilder, GraphError, ShardedCompressedGraph};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "sr_segment_container_{tag}_{}_{case}",
        std::process::id()
    ))
}

fn shard_image(g: &CsrGraph, shard_bytes: usize) -> Vec<u8> {
    let dir = scratch_dir("shard");
    let path = dir.join("g.shards");
    drop(build_from_csr(g, &dir, &path, shard_bytes).unwrap());
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

fn walk_image(rows: &[(Vec<u32>, Vec<u32>)]) -> Vec<u8> {
    let dir = scratch_dir("walk");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("w.walks");
    let meta = WalkMeta {
        num_nodes: rows.len(),
        walks: 8,
        beta_bits: 0.85f64.to_bits(),
        rng_seed: 7,
        max_hops: 16,
    };
    let mut w = WalkFileWriter::create(&path, meta).unwrap();
    for (support, counts) in rows {
        w.write_source(support, counts).unwrap();
    }
    drop(w.finish().unwrap());
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

/// The small fixed shard image: several shards, one oversized enough that
/// `chunk_spans` splits it, and rows with codec intervals.
fn small_shard_image() -> Vec<u8> {
    let edges: Vec<(u32, u32)> = (0u32..24)
        .flat_map(|u| [(u, (u + 1) % 24), (u, (u * 5 + 3) % 24), (u, (u * 7) % 24)])
        .chain((4..12).map(|u| (u, 20)))
        .collect();
    shard_image(&GraphBuilder::from_edges_exact(24, edges).unwrap(), 48)
}

/// The small fixed walk image: empty and multi-byte-count sources.
fn small_walk_image() -> Vec<u8> {
    walk_image(&[
        (vec![0, 2, 3], vec![4, 1, 300]),
        (vec![], vec![]),
        (vec![1, 2, 3, 4, 5, 6], vec![2, 7, 1, 1, 1, 70_000]),
        (vec![6], vec![9]),
        (vec![0, 6], vec![1, 1]),
        (vec![], vec![]),
        (vec![5], vec![128]),
    ])
}

/// The error classes a corrupt or short file may produce.
fn typed(e: &GraphError) -> bool {
    matches!(
        e,
        GraphError::Io { .. }
            | GraphError::CorruptContainer { .. }
            | GraphError::CorruptCompressedStream { .. }
    )
}

mod corruption {
    use super::*;
    use proptest::prelude::*;
    use sr_graph::ChunkSpan;

    /// Drives every shard read path over `bytes`. Each step must succeed or
    /// fail typed; a file every step accepts must decode to a valid reverse
    /// CSR on which the chunk path agrees.
    fn check_shard_image(bytes: Vec<u8>) -> Result<(), String> {
        let g = match ShardedCompressedGraph::from_bytes(bytes) {
            Ok(g) => g,
            Err(e) if typed(&e) => return Ok(()),
            Err(e) => return Err(format!("open: untyped error {e:?}")),
        };
        let validated = g.validate();
        let csr = g.to_csr();
        let mut rows: Vec<Vec<u32>> = Vec::new();
        let chunked = g.chunk_spans(4).and_then(|spans| {
            let (mut buf, mut arena) = (Vec::new(), ChunkArena::new());
            for span in &spans {
                g.load_chunk(span, &mut buf)?;
                g.decode_chunk(span, &buf, &mut arena)?;
                rows.extend((0..arena.num_rows()).map(|r| arena.row(r).to_vec()));
            }
            Ok(())
        });
        for (step, res) in [("validate", &validated), ("chunks", &chunked)] {
            if let Err(e) = res {
                if !typed(e) {
                    return Err(format!("{step}: untyped error {e:?}"));
                }
            }
        }
        match csr {
            Err(e) if typed(&e) => Ok(()),
            Err(e) => Err(format!("to_csr: untyped error {e:?}")),
            Ok(csr) if validated.is_ok() => {
                let n = csr.num_nodes();
                if csr.validate().is_err() || csr.targets().iter().any(|&t| t as usize >= n) {
                    return Err("validated file decoded to an invalid CSR".into());
                }
                if csr.num_edges() != g.num_edges() {
                    return Err("decoded edge count disagrees with the table".into());
                }
                if chunked.is_ok() {
                    let want: Vec<Vec<u32>> =
                        (0..n as u32).map(|u| csr.neighbors(u).to_vec()).collect();
                    if rows != want {
                        return Err("chunk path disagrees with the row walk".into());
                    }
                }
                Ok(())
            }
            Ok(_) => Ok(()),
        }
    }

    /// Drives every walk-cache read path over `bytes`: a file `validate`
    /// accepts must decode to a table of ascending in-range supports with
    /// positive counts.
    fn check_walk_image(bytes: Vec<u8>) -> Result<(), String> {
        let store = match WalkStore::from_bytes(bytes) {
            Ok(s) => s,
            Err(e) if typed(&e) => return Ok(()),
            Err(e) => return Err(format!("open: untyped error {e:?}")),
        };
        let validated = store.validate();
        match (store.table(), validated) {
            (Ok(t), Ok(())) => {
                let n = store.num_nodes();
                if t.num_sources() != n {
                    return Err("table covers the wrong number of sources".into());
                }
                for u in 0..n as u32 {
                    let (support, counts) = t.visits(u);
                    let ok = support.windows(2).all(|w| w[0] < w[1])
                        && support.iter().all(|&v| (v as usize) < n)
                        && counts.len() == support.len()
                        && counts.iter().all(|&c| c > 0);
                    if !ok {
                        return Err(format!("source {u} decoded to an invalid row"));
                    }
                }
                Ok(())
            }
            (Err(a), Err(b)) if typed(&a) && typed(&b) => Ok(()),
            (a, b) => Err(format!(
                "table {:?} and validate {b:?} disagree or fail untyped",
                a.map(|_| ())
            )),
        }
    }

    fn flip_bit(bytes: &[u8], bit: usize) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[bit / 8] ^= 1 << (bit % 8);
        out
    }

    #[test]
    fn clean_images_decode() {
        let shard = ShardedCompressedGraph::from_bytes(small_shard_image()).unwrap();
        assert!(shard.shards().len() > 1);
        assert!(shard.chunk_spans(4).unwrap().len() > shard.shards().len());
        check_shard_image(small_shard_image()).unwrap();
        let walks = WalkStore::from_bytes(small_walk_image()).unwrap();
        assert_eq!(walks.table().unwrap().num_entries(), 13);
        check_walk_image(small_walk_image()).unwrap();
    }

    #[test]
    fn every_prefix_is_rejected_at_open() {
        for (name, image) in [("shard", small_shard_image()), ("walk", small_walk_image())] {
            for cut in 0..image.len() {
                let prefix = image[..cut].to_vec();
                let rejected = if name == "shard" {
                    ShardedCompressedGraph::from_bytes(prefix).err()
                } else {
                    WalkStore::from_bytes(prefix).err()
                };
                match rejected {
                    Some(e) if typed(&e) => {}
                    other => panic!("{name} prefix {cut}/{}: {other:?}", image.len()),
                }
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_typed_or_valid() {
        let shard = small_shard_image();
        for bit in 0..shard.len() * 8 {
            check_shard_image(flip_bit(&shard, bit))
                .unwrap_or_else(|m| panic!("shard bit {bit}: {m}"));
        }
        let walk = small_walk_image();
        for bit in 0..walk.len() * 8 {
            check_walk_image(flip_bit(&walk, bit))
                .unwrap_or_else(|m| panic!("walk bit {bit}: {m}"));
        }
    }

    #[test]
    fn damaged_magic_and_wrong_schema_are_rejected() {
        let message = |e: GraphError| match e {
            GraphError::CorruptContainer { message } => message,
            other => panic!("expected a container error, got {other:?}"),
        };
        let (shard, walk) = (small_shard_image(), small_walk_image());
        for byte in 0..8 {
            let mut bad = shard.clone();
            bad[byte] ^= 0x20;
            let m = message(ShardedCompressedGraph::from_bytes(bad).unwrap_err());
            assert!(m.contains("magic"), "{m}");
            let mut bad = walk.clone();
            bad[byte] ^= 0x20;
            let m = message(WalkStore::from_bytes(bad).unwrap_err());
            assert!(m.contains("magic"), "{m}");
        }
        // Each schema's file opened as the other, and damaged schema tags.
        let m = message(WalkStore::from_bytes(shard.clone()).unwrap_err());
        assert!(m.contains("schema"), "{m}");
        let m = message(ShardedCompressedGraph::from_bytes(walk.clone()).unwrap_err());
        assert!(m.contains("schema"), "{m}");
        for byte in 8..16 {
            let mut bad = shard.clone();
            bad[byte] ^= 0x01;
            let m = message(ShardedCompressedGraph::from_bytes(bad).unwrap_err());
            assert!(m.contains("schema"), "{m}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            prop_assert!(check_shard_image(bytes.clone()).is_ok());
            prop_assert!(check_walk_image(bytes).is_ok());
        }

        #[test]
        fn random_bytes_behind_a_valid_header_never_panic(
            tail in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            // Past the magic and the schema tag, so the tables and rows parse.
            let mut shard = small_shard_image()[..16].to_vec();
            shard.extend_from_slice(&tail);
            prop_assert!(check_shard_image(shard).is_ok());
            let mut walk = small_walk_image()[..16].to_vec();
            walk.extend_from_slice(&tail);
            prop_assert!(check_walk_image(walk).is_ok());
        }
    }

    /// A 12-byte codec row claiming degree `u32::MAX` as one interval from 0:
    /// decoding it would materialize four billion ids. The container rejects
    /// the degree before the row decodes.
    #[test]
    fn chunk_row_claiming_u32_max_degree_is_a_typed_error() {
        let g = GraphBuilder::from_edges_exact(2, vec![(0, 1)]).unwrap();
        let shards = ShardedCompressedGraph::from_bytes(shard_image(&g, 64)).unwrap();
        let mut row = Vec::new();
        for v in [u32::MAX, 1, 0, u32::MAX - 4] {
            sr_graph::varint::write_u32(&mut row, v);
        }
        assert_eq!(row.len(), 12);
        let mut data = vec![12u8];
        data.extend_from_slice(&row);
        let span = ChunkSpan {
            rows: 0..1,
            bytes: 0..13,
            edges: u64::from(u32::MAX),
        };
        let res = shards.decode_chunk(&span, &data, &mut ChunkArena::new());
        assert!(
            matches!(res, Err(GraphError::CorruptContainer { ref message }) if message.contains("degree")),
            "{res:?}"
        );
    }

    /// A shard image whose last row names source `num_nodes`: the pipelined
    /// chunk decode must reject it typed, as the row walk does, before a
    /// gather can index past the iterate.
    #[test]
    fn chunk_row_naming_source_num_nodes_is_a_typed_error() {
        // Node 5's only in-edge is its self-loop, so the image ends with
        // row 5's codec row [degree 1, no intervals, zigzag(5 - 5) = 0].
        let g = GraphBuilder::from_edges_exact(6, vec![(0, 1), (1, 2), (2, 0), (3, 4), (5, 5)])
            .unwrap();
        let mut bytes = shard_image(&g, 64);
        assert_eq!(bytes[bytes.len() - 3..], [1, 0, 0]);
        // zigzag(+1) = 2: the row now names source 6 = num_nodes.
        *bytes.last_mut().unwrap() = 2;
        let shards = ShardedCompressedGraph::from_bytes(bytes).unwrap();
        let spans = shards.chunk_spans(1).unwrap();
        let last = spans.last().unwrap();
        assert_eq!(last.rows.end, 6);
        let (mut buf, mut arena) = (Vec::new(), ChunkArena::new());
        shards.load_chunk(last, &mut buf).unwrap();
        let res = shards.decode_chunk(last, &buf, &mut arena);
        assert!(
            matches!(res, Err(GraphError::CorruptContainer { ref message }) if message.contains("row 5")),
            "{res:?}"
        );
        assert!(matches!(
            shards.validate(),
            Err(GraphError::CorruptContainer { .. })
        ));
    }

    /// A walk row whose degree varint is overwritten in place with `u32::MAX`:
    /// the envelope still opens, and both `validate` and the table decode —
    /// which pre-sizes its arrays — must fail typed instead of allocating.
    #[test]
    fn walk_row_claiming_u32_max_degree_is_a_typed_error() {
        let mut bytes = walk_image(&[(vec![0, 1], vec![3, 200]), (vec![1], vec![1])]);
        let store = WalkStore::from_bytes(bytes.clone()).unwrap();
        // The first row sits at the head of the data section, after its
        // one-byte length prefix.
        let data_start = bytes.len() - store.data_bytes() as usize;
        assert!(bytes[data_start] >= 5, "first row too short to overwrite");
        bytes[data_start + 1..data_start + 6].copy_from_slice(&[0xff, 0xff, 0xff, 0xff, 0x0f]);
        let store = WalkStore::from_bytes(bytes).unwrap();
        assert!(matches!(
            store.validate(),
            Err(GraphError::CorruptContainer { .. })
        ));
        assert!(matches!(
            store.table(),
            Err(GraphError::CorruptContainer { .. })
        ));
    }
}

mod faults {
    use super::*;
    use sr_graph::ByteSource;
    use std::io;
    use std::sync::Arc;

    #[derive(Debug, Clone, Copy)]
    enum Fault {
        Eio,
        ShortRead,
    }

    /// An in-memory image whose `fail_at`-th read fails with `fault`; every
    /// read is counted in the shared `reads`.
    struct FaultySource {
        bytes: Arc<Vec<u8>>,
        fail_at: usize,
        fault: Fault,
        reads: Arc<AtomicUsize>,
    }

    impl ByteSource for FaultySource {
        fn len(&self) -> u64 {
            self.bytes.len() as u64
        }

        fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
            if self.reads.fetch_add(1, Ordering::SeqCst) != self.fail_at {
                return self.bytes.read_exact_at(buf, offset);
            }
            match self.fault {
                Fault::Eio => Err(io::Error::from_raw_os_error(5)),
                Fault::ShortRead => {
                    let half = buf.len() / 2;
                    self.bytes.read_exact_at(&mut buf[..half], offset)?;
                    Err(io::Error::new(io::ErrorKind::UnexpectedEof, "short read"))
                }
            }
        }
    }

    impl FaultySource {
        fn boxed(&self, fail_at: usize, fault: Fault) -> Box<dyn ByteSource + Send> {
            Box::new(FaultySource {
                bytes: Arc::clone(&self.bytes),
                fail_at,
                fault,
                reads: Arc::clone(&self.reads),
            })
        }
    }

    /// Open, validate, then load and decode every chunk span, with 16-byte
    /// pages so the row walks read in many small steps.
    fn shard_paths(store: Box<dyn ByteSource + Send>) -> Result<(), GraphError> {
        let mut g = ShardedCompressedGraph::from_source(store)?;
        g.set_page_size(16);
        g.validate()?;
        let spans = g.chunk_spans(8)?;
        let (mut buf, mut arena) = (Vec::new(), ChunkArena::new());
        for span in &spans {
            g.load_chunk(span, &mut buf)?;
            g.decode_chunk(span, &buf, &mut arena)?;
        }
        Ok(())
    }

    /// Open, validate, then decode the resident table.
    fn walk_paths(store: Box<dyn ByteSource + Send>) -> Result<(), GraphError> {
        let mut store = WalkStore::from_source(store)?;
        store.set_page_size(16);
        store.validate()?;
        store.table().map(drop)
    }

    /// Counts the reads of a clean run, then fails each of them in turn.
    fn sweep(image: Vec<u8>, paths: fn(Box<dyn ByteSource + Send>) -> Result<(), GraphError>) {
        let counter = FaultySource {
            bytes: Arc::new(image),
            fail_at: usize::MAX,
            fault: Fault::Eio,
            reads: Arc::new(AtomicUsize::new(0)),
        };
        paths(counter.boxed(usize::MAX, Fault::Eio)).expect("clean image must pass every path");
        let total = counter.reads.swap(0, Ordering::SeqCst);
        assert!(total > 8, "expected many reads, got {total}");
        for fault in [Fault::Eio, Fault::ShortRead] {
            for k in 0..total {
                counter.reads.store(0, Ordering::SeqCst);
                match paths(counter.boxed(k, fault)) {
                    Err(GraphError::Io { .. }) => {}
                    other => panic!("{fault:?} at read {k}/{total}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_failed_shard_read_is_a_typed_io_error() {
        sweep(small_shard_image(), shard_paths);
    }

    #[test]
    fn every_failed_walk_read_is_a_typed_io_error() {
        sweep(small_walk_image(), walk_paths);
    }
}
