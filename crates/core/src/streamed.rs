//! The out-of-core transition operator: PageRank over on-disk shards.
//!
//! [`StreamedTransition`] is the uniform (PageRank) operator decoupled from
//! CSR storage: instead of gathering over in-RAM `offsets`/`targets` arrays
//! it pulls the **reverse** graph from a [`ShardedCompressedGraph`], one
//! [`ChunkSpan`] at a time ([`ShardedCompressedGraph::chunk_spans`],
//! [`load_chunk`](ShardedCompressedGraph::load_chunk),
//! [`decode_chunk`](ShardedCompressedGraph::decode_chunk)), decoding its
//! varint-coded shards from disk. A full power-method solve touches
//! `O(x + y + scratch)` f64 vectors plus a bounded per-worker staging
//! arena — the edge structure itself never materializes in memory.
//!
//! ## The three-stage pipeline
//!
//! The gather sweep runs as a decode-ahead pipeline:
//!
//! 1. **Prefetch** — a dedicated fill task per worker reads whole chunk
//!    payloads via one `read_exact_at` each into a small ring of recycled
//!    byte buffers ([`sr_par::pipeline_while()`]), staying one chunk ahead
//!    of compute (double buffering).
//! 2. **Block decode** — each staged chunk is decoded in one pass into the
//!    worker's reusable [`ChunkArena`] (flat `offsets`/`targets`), replacing
//!    the per-row lock/take/decode cycle of the paged reader with straight
//!    slice scans. The arena is reused across chunks and iterations: zero
//!    steady-state allocation.
//! 3. **Claimed gather** — workers claim spans from one shared cursor as
//!    they free up: each worker's fill task claims the next span of the
//!    sweep's fixed claim order and stages it, and its compute stage
//!    gathers it. Spans that are never hot come first, the hot ones last,
//!    so the cheap hot gathers fill the tail and every worker finishes
//!    together whatever the host's hot/cold cost ratio is.
//!
//! ## Hot spans
//!
//! Under [`PipelineConfig::cache_bytes`] some spans are decoded once,
//! SELL-packed ([`SellRows`]) into one shared slot per span by whichever
//! worker first decodes them, and kept **hot** across iterations — those
//! spans skip the disk read, the varint decode, *and* the serial per-row
//! fadd chain on every sweep after the first, collapsing the steady-state
//! per-edge cost to the in-RAM operator's lane-interleaved gather. A hot
//! span saves a per-row cost several times its per-edge cost, so spans are
//! admitted by row density: in descending `rows / (rows + edges)`, ties in
//! file order, each while its decoded charge `(rows + 1)·8 + edges·4` still
//! fits the budget. Spans past the budget stream through the pipeline every
//! iteration, so resident memory stays bounded by `cache_bytes + buffers`
//! no matter how large the graph is — the out-of-core guarantee is a knob,
//! not a casualty. `cache_bytes: 0` recovers the pure re-streaming engine,
//! and a sweep whose spans are all hot starts no fill task at all.
//!
//! ## Bitwise parity with the in-RAM engine
//!
//! The operator reproduces [`UniformTransition`](crate::operator::UniformTransition)
//! bit for bit, which the differential suites pin:
//!
//! * **Pre-scale + dangling fold**: the in-RAM operator's own pass — one
//!   [`sr_par::for_each_block`] sweep over `PAR_THRESHOLD`-sized blocks,
//!   partials summed in block order — over the same `1/out_degree` table.
//! * **Gather**: every row accumulates its predecessors in ascending id
//!   order with its own accumulator — the same fold the SELL-packed kernel
//!   performs — so each `y[v]` carries identical bits. The shard codec
//!   stores neighbors ascending, and block decode preserves that order, so
//!   `y[v]` is a pure function of row `v`: chunk geometry, prefetch timing,
//!   thread count and which worker claims a span can never move a bit. No
//!   reduction crosses spans.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::operator::{inv_degrees, operator_chunks, prescale, Transition};
use sr_graph::{
    ChunkArena, ChunkSpan, EdgePartition, GraphError, SellRows, ShardedCompressedGraph,
};

/// Staging buffers per worker: double buffering, one span decoding while
/// the next loads.
const PREFETCH_DEPTH: usize = 2;

/// Tuning knobs for the pipelined (chunk-span) gather path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Target chunk spans per worker. More spans mean smaller arenas (lower
    /// resident scratch), finer prefetch granularity and a finer-grained
    /// claim queue; fewer mean less per-chunk overhead. Oversized shards are
    /// split to meet the target.
    pub spans_per_worker: usize,
    /// Total decoded-span budget in bytes for keeping spans hot between
    /// iterations, shared by all workers. The most row-dense spans whose
    /// decoded size fits are decoded once and gathered from RAM on every
    /// later sweep; the rest re-stream through the pipeline each iteration.
    /// `0` disables caching (pure re-streaming); a budget at least the
    /// decoded graph size makes iterations 2..k decode-free.
    pub cache_bytes: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            spans_per_worker: 8,
            cache_bytes: 256 << 20,
        }
    }
}

/// SELL-packs a freshly decoded span as a single-chunk layout over its
/// local row space, so hot sweeps run the exact lane-interleaved kernel of
/// the in-RAM operator (four independent accumulator chains instead of one
/// serial fadd chain per row). The pack is a pure permutation: every row
/// still folds its predecessors ascending through its own accumulator, so
/// hot sweeps are bit-identical to cold ones.
fn pack_hot(arena: &ChunkArena) -> SellRows {
    let part = EdgePartition::from_exact_segments(&[0, arena.num_rows()], &[arena.num_edges()]);
    SellRows::build(arena.offsets(), arena.targets(), &part)
}

/// One staging buffer of a worker's ring and the span its bytes belong to:
/// the fill stage claims the span, the compute stage reads it from here.
#[derive(Default)]
struct Staged {
    span: usize,
    bytes: Vec<u8>,
}

/// Per-worker reusable pipeline state: the staging buffer ring and the
/// block-decode arena for spans that are not hot (yet). Behind a `Mutex`
/// only for interior mutability — worker `i` is touched by exactly one
/// thread per sweep.
struct WorkerSlot {
    ring: Vec<Staged>,
    arena: ChunkArena,
}

/// The precomputed pipelined sweep layout: chunk spans, which of them are
/// kept hot, and the order workers claim them in.
struct PipelinePlan {
    /// Every chunk span, tiling rows `0..n` in order.
    spans: Vec<ChunkSpan>,
    /// `hot[k]`: span `k` is kept hot once decoded. A pure function of the
    /// spans and the budget (row density order, first fit), so every sweep
    /// and every build agrees on it.
    hot: Vec<bool>,
    /// The claim order of every sweep: spans never hot in file order, then
    /// the hot ones in file order.
    order: Vec<usize>,
    /// `packs[k]`: span `k`'s hot pack ([`pack_hot`]), written once by
    /// whichever worker first decodes the span.
    packs: Vec<OnceLock<SellRows>>,
    /// One slot per worker, reused across iterations.
    slots: Vec<Mutex<WorkerSlot>>,
}

/// Uniform (PageRank) transition over an on-disk reverse graph.
///
/// The shards store the **reverse** adjacency: row `v` lists the
/// predecessors of `v` in the crawl (the builder reverses edges on the way
/// in, keeping the forward out-degree table alongside).
pub struct StreamedTransition<'g> {
    /// The on-disk reverse graph.
    graph: &'g ShardedCompressedGraph,
    /// `1/out_degree` of every node in the *forward* graph; 0 for dangling
    /// nodes, exactly as in the in-RAM operator's pre-scale pass.
    inv_degree: Vec<f64>,
    /// Exactly one chunk per pipeline span (see
    /// [`EdgePartition::from_exact_segments`]).
    partition: EdgePartition,
    /// Pipelined sweep layout.
    plan: PipelinePlan,
}

impl<'g> StreamedTransition<'g> {
    /// Builds the operator directly over an on-disk sharded graph, wiring
    /// its stored forward out-degree table through, with the default
    /// [`PipelineConfig`].
    ///
    /// # Panics
    /// Panics with the typed error if the chunk spans cannot be derived (an
    /// I/O error or shard corruption surfacing in the skip-scan of an
    /// oversized shard).
    pub fn from_sharded(graph: &'g ShardedCompressedGraph) -> Self {
        StreamedTransition::from_sharded_with(graph, PipelineConfig::default())
    }

    /// [`StreamedTransition::from_sharded`] with explicit pipeline tuning.
    ///
    /// # Panics
    /// As [`StreamedTransition::from_sharded`].
    pub fn from_sharded_with(graph: &'g ShardedCompressedGraph, config: PipelineConfig) -> Self {
        let (plan, partition) = build_plan(graph, config)
            .unwrap_or_else(|e| panic!("out-of-core chunk spans failed: {e}"));
        StreamedTransition {
            graph,
            inv_degree: inv_degrees(graph.out_degrees().iter().map(|&d| d as usize)),
            partition,
            plan,
        }
    }

    /// The cached partition the gather sweep runs over: one chunk per
    /// pipeline span.
    pub fn partition(&self) -> &EdgePartition {
        &self.partition
    }

    /// Edges in the spans the plan keeps hot: after the first sweep these
    /// are gathered from RAM, the rest re-stream from disk every sweep.
    pub fn hot_edges(&self) -> u64 {
        let plan = &self.plan;
        let hot = plan.spans.iter().zip(&plan.hot).filter(|(_, &hot)| hot);
        hot.map(|(s, _)| s.edges).sum()
    }

    /// Current heap footprint of the decode state in bytes — the entire
    /// steady-state memory the edge structure costs beyond the backend's
    /// own resident bytes: staging buffers, block-decode scratch arenas,
    /// and the budget-bounded hot packs.
    pub fn scratch_resident_bytes(&self) -> usize {
        let plan = &self.plan;
        let worker_bytes: usize = plan
            .slots
            .iter()
            .map(|m| {
                let slot = lock_ignore_poison(m);
                let bufs: usize = slot.ring.iter().map(|b| b.bytes.capacity()).sum();
                bufs + slot.arena.heap_bytes()
            })
            .sum();
        let hot_bytes: usize = plan
            .packs
            .iter()
            .filter_map(OnceLock::get)
            .map(SellRows::heap_bytes)
            .sum();
        worker_bytes + hot_bytes
    }
}

/// Gathers one decoded arena into `out`, exactly its span's slice of `y`:
/// each row folds its ascending predecessors through its own accumulator —
/// the parity-critical inner loop of every span that is not hot.
#[inline]
fn gather_arena(arena: &ChunkArena, scratch: &[f64], out: &mut [f64]) {
    for (rel, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for &u in arena.row(rel) {
            acc += scratch[u as usize];
        }
        *o = acc;
    }
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Derives the pipelined sweep layout: asks the shards for edge-bounded
/// chunk spans, checks that they tile the rows, picks the hot spans by row
/// density and fixes the claim order.
fn build_plan(
    graph: &ShardedCompressedGraph,
    config: PipelineConfig,
) -> Result<(PipelinePlan, EdgePartition), GraphError> {
    let n = graph.num_nodes();
    let workers = operator_chunks(graph.num_edges());
    let max_chunks = workers.saturating_mul(config.spans_per_worker.max(1));
    let spans = graph.chunk_spans(max_chunks)?;
    // The gather writes y[v] only for rows some span covers.
    let mut cursor = 0usize;
    for s in &spans {
        assert_eq!(s.rows.start, cursor, "chunk spans must tile the rows");
        cursor = s.rows.end;
    }
    assert_eq!(cursor, n, "chunk spans must cover every row");

    let seg_rows: Vec<usize> = std::iter::once(0)
        .chain(spans.iter().map(|s| s.rows.end))
        .collect();
    let seg_edges: Vec<usize> = spans
        .iter()
        .map(|s| usize::try_from(s.edges).unwrap_or(usize::MAX))
        .collect();
    let partition = EdgePartition::from_exact_segments(&seg_rows, &seg_edges);

    // Hot spans: first fit in descending row density rows / (rows + edges),
    // compared exactly by cross-multiplication; the stable sort keeps file
    // order among equal densities. A decoded span costs (rows+1)·8 offset
    // bytes plus edges·4 target bytes.
    let rows = |s: &ChunkSpan| s.rows.len() as u128;
    let weight = |s: &ChunkSpan| (s.rows.len() as u128 + u128::from(s.edges)).max(1);
    let mut by_density: Vec<usize> = (0..spans.len()).collect();
    by_density.sort_by(|&a, &b| {
        let (a, b) = (&spans[a], &spans[b]);
        (rows(b) * weight(a)).cmp(&(rows(a) * weight(b)))
    });
    let mut cache_left = config.cache_bytes as u64;
    let mut hot = vec![false; spans.len()];
    for k in by_density {
        let decoded = (spans[k].rows.len() as u64 + 1) * 8 + spans[k].edges * 4;
        if decoded <= cache_left {
            cache_left -= decoded;
            hot[k] = true;
        }
    }
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&k| hot[k]);

    let w = workers.min(spans.len()).max(1);
    let slots = (0..w)
        .map(|_| {
            Mutex::new(WorkerSlot {
                ring: (0..PREFETCH_DEPTH).map(|_| Staged::default()).collect(),
                arena: ChunkArena::new(),
            })
        })
        .collect();
    Ok((
        PipelinePlan {
            packs: spans.iter().map(|_| OnceLock::new()).collect(),
            spans,
            hot,
            order,
            slots,
        },
        partition,
    ))
}

impl StreamedTransition<'_> {
    /// The pipelined pass 2. Workers claim spans from one shared cursor in
    /// the plan's claim order until it runs dry. Each worker's fill task
    /// claims a span and reads it unless it is already hot; its compute
    /// stage gathers hot spans from their packs and decodes the rest,
    /// packing a hot span the first time it is decoded. A sweep whose
    /// spans are all hot starts no fill task. Every row is written exactly
    /// once per sweep from its own ascending-order accumulator, so neither
    /// the claim schedule nor the hot/streamed split can move a bit.
    fn propagate_pipelined(&self, scratch: &[f64], y: &mut [f64]) {
        let (plan, graph) = (&self.plan, self.graph);
        // y cut into one slice per span, locked by the span's claimant.
        let mut rest = y;
        let outs: Vec<Mutex<&mut [f64]>> = plan
            .spans
            .iter()
            .map(|s| {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(s.rows.len());
                rest = tail;
                Mutex::new(head)
            })
            .collect();
        let cursor = AtomicUsize::new(0);
        let claim = || {
            plan.order
                .get(cursor.fetch_add(1, Ordering::AcqRel))
                .copied()
        };
        // Gathers span k from its hot pack; false if it has none yet.
        let gather_hot = |k: usize| match plan.packs[k].get() {
            Some(hot) => {
                hot.row_sums_into(0, 0, scratch, &mut lock_ignore_poison(&outs[k]));
                true
            }
            None => false,
        };
        let all_hot = plan.packs.iter().all(|p| p.get().is_some());
        let results = sr_par::map_tasks(plan.slots.len(), |i| {
            if all_hot {
                while let Some(k) = claim() {
                    gather_hot(k);
                }
                return Ok(());
            }
            let mut slot = lock_ignore_poison(&plan.slots[i]);
            let WorkerSlot { ring, arena } = &mut *slot;
            let (back, res) = sr_par::pipeline_while(
                std::mem::take(ring),
                |_, staged: &mut Staged| {
                    let Some(k) = claim() else { return Ok(false) };
                    staged.span = k;
                    if plan.packs[k].get().is_none() {
                        let span = &plan.spans[k];
                        graph.load_chunk(span, &mut staged.bytes)?;
                        sr_par::counters::note_prefetched(1, span.byte_len() as u64);
                    }
                    Ok::<bool, GraphError>(true)
                },
                |_, staged| {
                    let k = staged.span;
                    if gather_hot(k) {
                        return Ok(());
                    }
                    graph.decode_chunk(&plan.spans[k], &staged.bytes, arena)?;
                    let out = &mut *lock_ignore_poison(&outs[k]);
                    if plan.hot[k] {
                        // Pack the span hot (a one-time cost amortized over
                        // every later sweep) and gather through the pack —
                        // the same code path hot sweeps take.
                        let hot = plan.packs[k].get_or_init(|| pack_hot(arena));
                        hot.row_sums_into(0, 0, scratch, out);
                    } else {
                        gather_arena(arena, scratch, out);
                    }
                    Ok(())
                },
            );
            *ring = back;
            res
        });
        for res in results {
            if let Err(e) = res {
                panic!("out-of-core chunk pipeline failed mid-solve: {e}");
            }
        }
    }
}

impl Transition for StreamedTransition<'_> {
    fn num_nodes(&self) -> usize {
        self.inv_degree.len()
    }

    /// # Panics
    /// Panics if the backend fails mid-stream (an I/O error or shard
    /// corruption surfacing after [`ShardedCompressedGraph::open`]'s
    /// envelope validation passed) — a solve cannot continue on a partial
    /// sweep, and the `Transition` contract has no error channel.
    fn propagate_with(&self, x: &[f64], y: &mut [f64], scratch: &mut [f64]) -> f64 {
        let n = self.num_nodes();
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        assert_eq!(scratch.len(), n);
        // Pass 1: the in-RAM operator's own pre-scale + dangling fold.
        let dangling = prescale(&self.inv_degree, x, scratch);
        // Pass 2: the pipelined gather sweep.
        self.propagate_pipelined(scratch, y);
        dangling
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::UniformTransition;
    use crate::power::{solve, SolveColumn, SolveRequest, SolverWorkspace};
    use crate::rankvec::RankVector;
    use sr_graph::{CsrGraph, GraphBuilder};

    /// Held by every test that runs a pipelined (sharded) sweep: the
    /// prefetch counters are process-wide, so a concurrent pipelined solve
    /// would leak into the counts `hot_arenas_skip_refetch_after_first_sweep`
    /// asserts.
    static PIPELINED: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// The default PageRank solve of `op`.
    fn power_solve(op: &dyn Transition) -> RankVector {
        let request = SolveRequest::new(vec![SolveColumn::default()]);
        solve(op, &request, &mut SolverWorkspace::new(), &mut []).remove(0)
    }

    #[test]
    fn streamed_sharded_solve_matches_in_ram_bitwise() {
        let _pipelined = PIPELINED.lock().unwrap_or_else(|p| p.into_inner());
        let g = GraphBuilder::from_edges_exact(
            6,
            vec![(0, 1), (1, 2), (2, 0), (3, 0), (2, 3), (5, 2), (0, 5)],
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("sr_core_streamed_{}", std::process::id()));
        let path = dir.join("g.shards");
        let mut sharded = sr_graph::shard::build_from_csr(&g, &dir, &path, 16).unwrap();
        sharded.set_page_size(32);
        let streamed = StreamedTransition::from_sharded(&sharded);
        let in_ram = UniformTransition::new(&g);
        let (xs, xr) = (power_solve(&streamed), power_solve(&in_ram));
        assert_eq!(xs.scores(), xr.scores());
        assert_eq!(xs.stats().iterations, xr.stats().iterations);
        assert!(streamed.scratch_resident_bytes() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pipeline_config_geometry_is_bitwise_invariant() {
        let _pipelined = PIPELINED.lock().unwrap_or_else(|p| p.into_inner());
        // Span granularity, thread count and the hot budget are pure
        // performance knobs: every combination must produce identical bits.
        let edges: Vec<(u32, u32)> = (0u32..200)
            .flat_map(|u| {
                let a = (u * 7 + 3) % 200;
                let b = (u * 13 + 11) % 200;
                [(u, a), (u, b), (a, b)]
            })
            .collect();
        let g = GraphBuilder::from_edges_exact(200, edges).unwrap();
        let dir = std::env::temp_dir().join(format!("sr_core_geo_{}", std::process::id()));
        let path = dir.join("g.shards");
        let sharded = sr_graph::shard::build_from_csr(&g, &dir, &path, 64).unwrap();
        let x_ram = power_solve(&UniformTransition::new(&g));
        for spans_per_worker in [1, 4, 16] {
            for threads in [1, 4] {
                for cache_bytes in [0, 1 << 30] {
                    let pcfg = PipelineConfig {
                        spans_per_worker,
                        cache_bytes,
                    };
                    let streamed = StreamedTransition::from_sharded_with(&sharded, pcfg);
                    let x = sr_par::with_threads(threads, || power_solve(&streamed));
                    assert_eq!(
                        x.scores(),
                        x_ram.scores(),
                        "geometry moved bits: spans={spans_per_worker} \
                         threads={threads} cache={cache_bytes}"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hot_arenas_skip_refetch_after_first_sweep() {
        let _pipelined = PIPELINED.lock().unwrap_or_else(|p| p.into_inner());
        // With a budget covering the whole graph, sweep 1 prefetches every
        // span once; later sweeps gather from hot arenas and never touch
        // the disk or the decoder again — and the bits still match a pure
        // re-streaming (cache_bytes: 0) solve.
        let edges: Vec<(u32, u32)> = (0u32..150)
            .flat_map(|u| [(u, (u * 11 + 2) % 150), ((u * 3 + 1) % 150, u)])
            .collect();
        let g = GraphBuilder::from_edges_exact(150, edges).unwrap();
        let dir = std::env::temp_dir().join(format!("sr_core_hot_{}", std::process::id()));
        let path = dir.join("g.shards");
        let sharded = sr_graph::shard::build_from_csr(&g, &dir, &path, 64).unwrap();

        let cached = PipelineConfig {
            cache_bytes: 1 << 30,
            ..PipelineConfig::default()
        };
        let streamed = StreamedTransition::from_sharded_with(&sharded, cached);
        let spans = streamed.plan.spans.len() as u64;
        sr_par::counters::reset();
        sr_par::counters::enable();
        let n = streamed.num_nodes();
        let x = vec![1.0 / n as f64; n];
        let (mut y1, mut y2) = (vec![0.0; n], vec![0.0; n]);
        streamed.propagate(&x, &mut y1);
        let after_first = sr_par::counters::snapshot().prefetched_chunks;
        streamed.propagate(&x, &mut y2);
        streamed.propagate(&x, &mut y2);
        let after_third = sr_par::counters::snapshot().prefetched_chunks;
        sr_par::counters::disable();
        assert_eq!(after_first, spans, "sweep 1 stages every span once");
        assert_eq!(after_third, spans, "hot sweeps must not re-stage chunks");
        assert_eq!(y1, y2, "hot-arena gather must reproduce the cold sweep");

        // Cache on vs cache off: identical bits over a full solve, and the
        // hot cache shows up in the resident accounting.
        let cached_solve = power_solve(&streamed);
        let streaming = StreamedTransition::from_sharded_with(
            &sharded,
            PipelineConfig {
                cache_bytes: 0,
                ..PipelineConfig::default()
            },
        );
        let streaming_solve = power_solve(&streaming);
        assert_eq!(cached_solve.scores(), streaming_solve.scores());
        assert_eq!(
            cached_solve.stats().iterations,
            streaming_solve.stats().iterations
        );
        assert!(streamed.scratch_resident_bytes() > streaming.scratch_resident_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spans_tile_rows_and_claim_order_permutes_them() {
        let edges: Vec<(u32, u32)> = (0u32..500).map(|u| (u, (u * 31 + 7) % 500)).collect();
        let g = GraphBuilder::from_edges_exact(500, edges).unwrap();
        let dir = std::env::temp_dir().join(format!("sr_core_tile_{}", std::process::id()));
        let path = dir.join("g.shards");
        let sharded = sr_graph::shard::build_from_csr(&g, &dir, &path, 128).unwrap();
        let streamed = StreamedTransition::from_sharded(&sharded);
        let plan = &streamed.plan;
        // Spans tile the row space in order.
        let mut cursor = 0;
        for s in &plan.spans {
            assert_eq!(s.rows.start, cursor);
            cursor = s.rows.end;
        }
        assert_eq!(cursor, 500);
        assert_eq!(streamed.partition().num_chunks(), plan.spans.len());
        // Every span is claimed exactly once per sweep.
        let mut claimed = plan.order.clone();
        claimed.sort_unstable();
        assert_eq!(claimed, (0..plan.spans.len()).collect::<Vec<_>>());
        assert_eq!(plan.packs.len(), plan.spans.len());
        assert!(!plan.slots.is_empty() && plan.slots.len() <= plan.spans.len().max(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A reverse crawl shaped like the real one: a few pages with huge
    /// in-degree first, then many pages with one to three in-links each, in
    /// blocks of 1000. Row `v` of the shard file lists the predecessors of
    /// `v`, so the leading spans are edge-heavy and row-light, and row
    /// density does not follow file order.
    fn skewed_crawl() -> CsrGraph {
        let n = 6000u32;
        let heavy = (0..4u32).flat_map(|h| (0..1500u32).map(move |u| (u * 4 + h, h)));
        let light =
            (4..n).flat_map(|v| (0..=(v / 1000) % 3).map(move |j| ((v * 7 + 1 + j * 13) % n, v)));
        GraphBuilder::from_edges_exact(n as usize, heavy.chain(light)).unwrap()
    }

    fn charge(s: &ChunkSpan) -> u64 {
        (s.rows.len() as u64 + 1) * 8 + s.edges * 4
    }

    fn density(s: &ChunkSpan) -> f64 {
        s.rows.len() as f64 / (s.rows.len() as f64 + s.edges as f64)
    }

    #[test]
    fn hot_budget_goes_to_row_dense_spans() {
        let g = skewed_crawl();
        let dir = std::env::temp_dir().join(format!("sr_core_dense_{}", std::process::id()));
        let sharded =
            sr_graph::shard::build_from_csr(&g, &dir, &dir.join("g.shards"), 1024).unwrap();
        let open = StreamedTransition::from_sharded_with(
            &sharded,
            PipelineConfig {
                cache_bytes: 0,
                ..PipelineConfig::default()
            },
        );
        let spans = &open.plan.spans;
        assert!(spans.len() >= 6, "want several spans, got {}", spans.len());
        let budget = usize::try_from(spans.iter().map(charge).sum::<u64>() / 2).unwrap();
        let config = PipelineConfig {
            cache_bytes: budget,
            ..PipelineConfig::default()
        };
        let op = StreamedTransition::from_sharded_with(&sharded, config);
        let (spans, hot) = (&op.plan.spans, &op.plan.hot);
        let used: u64 = spans
            .iter()
            .zip(hot)
            .filter(|p| *p.1)
            .map(|p| charge(p.0))
            .sum();
        assert!(used <= budget as u64, "hot spans overrun the budget");
        // The heavy rows' spans stay cold; the light rows get the budget.
        assert!(!hot[0], "the edge-heavy leading span must not be hot");
        assert!(hot.iter().any(|&h| h), "some span must be hot");
        // First fit by density: a cold span is either less dense than
        // every hot span or did not fit in what the denser spans left.
        for (c, _) in spans.iter().zip(hot).filter(|p| !*p.1) {
            let denser: u64 = spans
                .iter()
                .zip(hot)
                .filter(|(h, &is_hot)| is_hot && density(h) >= density(c))
                .map(|(h, _)| charge(h))
                .sum();
            let min_hot = spans
                .iter()
                .zip(hot)
                .filter(|p| *p.1)
                .map(|p| density(p.0))
                .fold(f64::INFINITY, f64::min);
            assert!(
                density(c) <= min_hot || charge(c) > budget as u64 - denser,
                "cold span {:?} is denser than a hot one and would have fit",
                c.rows
            );
        }
        // Density, not file order: a light span past a cold one is hot.
        let heavy_end = spans.iter().position(|s| s.rows.start >= 4).unwrap();
        assert!(
            (heavy_end + 1..spans.len()).any(|k| hot[k] && !hot[k - 1]),
            "the hot spans must not be a file-order prefix of the light ones"
        );
        assert!(op.hot_edges() > 0 && op.hot_edges() < g.num_edges() as u64);
        // The choice is a pure function of the spans and the budget.
        let again = StreamedTransition::from_sharded_with(&sharded, config);
        assert_eq!(&again.plan.hot, hot);
        assert_eq!(again.plan.order, op.plan.order);
        // Claims run the never-hot spans first, then the hot ones.
        let first_hot = op.plan.order.iter().position(|&k| hot[k]).unwrap();
        assert!(op.plan.order[first_hot..].iter().all(|&k| hot[k]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_budget_sweeps_write_every_row_at_any_thread_count() {
        let _pipelined = PIPELINED.lock().unwrap_or_else(|p| p.into_inner());
        let g = skewed_crawl();
        let n = g.num_nodes();
        let dir = std::env::temp_dir().join(format!("sr_core_split_{}", std::process::id()));
        let sharded =
            sr_graph::shard::build_from_csr(&g, &dir, &dir.join("g.shards"), 1024).unwrap();
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 3.0)).collect();
        let (mut want, mut scratch) = (vec![0.0; n], vec![0.0; n]);
        let want_dangling = UniformTransition::new(&g).propagate_with(&x, &mut want, &mut scratch);
        for threads in 1..=4 {
            sr_par::with_threads(threads, || {
                let probe = StreamedTransition::from_sharded(&sharded);
                let total: u64 = probe.plan.spans.iter().map(charge).sum();
                let op = StreamedTransition::from_sharded_with(
                    &sharded,
                    PipelineConfig {
                        cache_bytes: usize::try_from(total / 2).unwrap(),
                        ..PipelineConfig::default()
                    },
                );
                let hot = op.plan.hot.iter().filter(|&&h| h).count();
                assert!(hot > 0 && hot < op.plan.spans.len(), "budget must split");
                // Sweep 1 packs the hot spans; sweep 2 gathers from them.
                for sweep in 1..=2 {
                    let mut y = vec![f64::NAN; n];
                    let dangling = op.propagate_with(&x, &mut y, &mut scratch);
                    assert!(
                        y.iter().all(|v| !v.is_nan()),
                        "{threads} threads, sweep {sweep}: a row was never written"
                    );
                    assert_eq!(y, want, "{threads} threads, sweep {sweep}");
                    assert_eq!(dangling.to_bits(), want_dangling.to_bits());
                }
            });
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
