//! The out-of-core transition operator: PageRank over a [`SolveGraph`].
//!
//! [`StreamedTransition`] is the uniform (PageRank) operator decoupled from
//! CSR storage: instead of gathering over in-RAM `offsets`/`targets` arrays
//! it pulls the **reverse** graph from a [`SolveGraph`] backend — an in-RAM
//! CSR, a delta overlay, or a [`ShardedCompressedGraph`] whose varint-coded
//! shards are decoded from disk. With the sharded backend a full power-method
//! solve touches `O(x + y + scratch)` f64 vectors plus a bounded per-worker
//! staging arena — the edge structure itself never materializes in memory.
//!
//! ## The three-stage pipeline
//!
//! When the backend exposes a [`ChunkSource`] (the sharded container does),
//! the gather sweep runs as a decode-ahead pipeline instead of the row-at-a-
//! time [`SolveGraph::stream_rows`] path:
//!
//! 1. **Prefetch** — a dedicated fill task per worker reads whole chunk
//!    payloads via one `read_exact_at` each into a small ring of recycled
//!    byte buffers ([`sr_par::pipeline()`]), staying one chunk ahead of
//!    compute (double buffering by default).
//! 2. **Block decode** — each staged chunk is decoded in one pass into the
//!    worker's reusable [`ChunkArena`] (flat `offsets`/`targets`), replacing
//!    the per-row lock/take/decode cycle of the paged reader with straight
//!    slice scans. The arena is reused across chunks and iterations: zero
//!    steady-state allocation.
//! 3. **Affinity gather** — workers own contiguous *span groups* cut from
//!    the chunk spans by edge-balanced ceiling split, so each worker streams
//!    the same whole shards (or exact sub-shard spans) every iteration and
//!    its arena stays sized to its own rows.
//!
//! The affinity map is what makes decode amortizable: because worker `i`
//! sees the same spans every sweep, a decoded span is still the right span
//! next iteration. Under [`PipelineConfig::cache_bytes`] a greedy prefix of
//! spans is decoded once, SELL-packed ([`SellRows`]), and kept **hot**
//! across iterations — those spans skip the disk read, the varint decode,
//! *and* the serial per-row fadd chain on every sweep after the first,
//! collapsing the steady-state per-edge cost to the in-RAM operator's
//! lane-interleaved gather. Spans past the budget stream through the
//! pipeline every iteration, so resident memory stays bounded by
//! `cache_bytes + buffers` no matter how large the graph is — the
//! out-of-core guarantee is a knob, not a casualty. `cache_bytes: 0`
//! recovers the pure re-streaming engine.
//!
//! Backends without a chunk source (CSR, overlays) keep the original
//! `stream_rows` path with its pooled [`RowScratch`] buffers.
//!
//! ## Bitwise parity with the in-RAM engine
//!
//! The operator reproduces [`UniformTransition`](crate::operator::UniformTransition)
//! bit for bit on either path, which the differential suites pin:
//!
//! * **Pre-scale + dangling fold**: the exact same
//!   [`sr_par::for_each_block`] sweep over `PAR_THRESHOLD`-sized blocks,
//!   partials summed in block order.
//! * **Gather**: every row accumulates its predecessors in ascending id
//!   order with its own accumulator — the same fold the SELL-packed kernel
//!   performs — so each `y[v]` carries identical bits. The shard codec
//!   stores neighbors ascending, and block decode preserves that order, so
//!   `y[v]` is a pure function of row `v`: chunk geometry, prefetch depth,
//!   and thread count can never move a bit.
//! * **Consume order**: [`sr_par::pipeline()`] hands chunks to the compute
//!   stage in strict index order, so even intra-worker traversal matches the
//!   sequential loop exactly.

use std::sync::Mutex;

use crate::operator::{operator_chunks, Transition};
use sr_graph::{
    ChunkArena, ChunkSource, ChunkSpan, EdgePartition, RowScratch, SellRows,
    ShardedCompressedGraph, SolveGraph,
};

/// Tuning knobs for the pipelined (chunk-source) gather path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Staging buffers per worker; 2 gives classic double buffering (one
    /// chunk decoding while the next loads). 1 degenerates to synchronous
    /// load-then-decode with no producer task.
    pub prefetch_buffers: usize,
    /// Target chunk spans per worker. More spans mean smaller arenas (lower
    /// resident scratch) and finer prefetch granularity; fewer mean less
    /// per-chunk overhead. Oversized shards are split to meet the target.
    pub spans_per_worker: usize,
    /// Total decoded-arena budget (bytes, across all workers) for keeping
    /// chunk arenas hot between iterations. A greedy prefix of spans whose
    /// decoded size fits is decoded once and gathered from directly on every
    /// later sweep; the rest re-stream through the pipeline each iteration.
    /// `0` disables caching (pure re-streaming); a budget at least the
    /// decoded graph size makes iterations 2..k decode-free.
    pub cache_bytes: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            prefetch_buffers: 2,
            spans_per_worker: 8,
            cache_bytes: 256 << 20,
        }
    }
}

/// A span's decoded rows kept hot across iterations, SELL-packed so the
/// steady-state gather runs the exact lane-interleaved kernel of the in-RAM
/// operator (four independent accumulator chains instead of one serial
/// fadd chain per row). The pack is a pure permutation: every row still
/// folds its predecessors ascending through its own accumulator, so hot
/// sweeps are bit-identical to cold ones.
struct HotSpan {
    sell: SellRows,
    num_rows: usize,
}

impl HotSpan {
    /// SELL-packs a freshly decoded arena as a single-chunk layout over its
    /// local row space.
    fn pack(arena: &ChunkArena) -> HotSpan {
        let num_rows = arena.num_rows();
        let part = EdgePartition::from_exact_segments(&[0, num_rows], &[arena.num_edges()]);
        HotSpan {
            sell: SellRows::build(arena.offsets(), arena.targets(), &part),
            num_rows,
        }
    }

    /// Gathers this span's rows into `out[base..]` (see
    /// [`SellRows::row_sums_into`]).
    #[inline]
    fn gather(&self, base: usize, scratch: &[f64], out: &mut [f64]) {
        self.sell
            .row_sums_into(0, 0, scratch, &mut out[base..base + self.num_rows]);
    }
}

/// Per-worker reusable pipeline state: the staging buffer ring, the
/// scratch block-decode arena for streamed (non-cached) spans, and one
/// optional hot pack per owned span (`cache[k]` holds span `k` of the
/// group's decoded rows once it has been decoded under the cache budget).
/// Behind a `Mutex` only for interior mutability — worker `i` is touched by
/// exactly one thread per sweep.
struct WorkerSlot {
    bufs: Vec<Vec<u8>>,
    arena: ChunkArena,
    cache: Vec<Option<HotSpan>>,
    /// Reused scratch list of this sweep's cold (not-yet-hot) span indices.
    cold: Vec<usize>,
}

/// The precomputed pipelined sweep layout: chunk spans, the contiguous span
/// group each worker owns, and the matching row bounds of `y`.
struct PipelinePlan {
    /// Every chunk span, tiling rows `0..n` in order.
    spans: Vec<ChunkSpan>,
    /// Worker `i` owns `spans[span_bounds[i]..span_bounds[i + 1]]`.
    span_bounds: Vec<usize>,
    /// Worker `i` owns `y[row_bounds[i]..row_bounds[i + 1]]` — derived from
    /// its span group, so spans never straddle workers.
    row_bounds: Vec<usize>,
    /// `cacheable[k]`: span `k`'s decoded arena may be kept hot across
    /// iterations. First-fit greedy in file order: each span claims its
    /// decoded size (`(rows + 1)·8 + edges·4` bytes) from
    /// [`PipelineConfig::cache_bytes`] while budget remains — a pure
    /// function of the spans and the budget, so every sweep agrees on it.
    cacheable: Vec<bool>,
    /// One slot per worker, reused across iterations.
    slots: Vec<Mutex<WorkerSlot>>,
}

/// Uniform (PageRank) transition over a row-streaming reverse graph.
///
/// `G` must store the **reverse** adjacency: row `v` lists the predecessors
/// of `v` in the crawl. [`ShardedCompressedGraph`] stores exactly that (its
/// builder reverses edges on the way in, keeping the forward out-degree
/// table alongside); for an in-RAM differential baseline, pass
/// `transpose(&g)` together with `g`'s out-degrees.
pub struct StreamedTransition<'g, G: SolveGraph + ?Sized> {
    /// Reverse-graph row source.
    graph: &'g G,
    /// `1/out_degree` of every node in the *forward* graph; 0 for dangling
    /// nodes, exactly as in the in-RAM operator's pre-scale pass.
    inv_degree: Vec<f64>,
    /// Edge-balanced, storage-aligned chunks of the reverse rows. On the
    /// pipelined path this is exactly one chunk per span (see
    /// [`EdgePartition::from_exact_segments`]).
    partition: EdgePartition,
    /// One decode scratch per partition chunk for the generic
    /// `stream_rows` path; empty when the pipelined plan is active.
    scratch_pool: Vec<Mutex<RowScratch>>,
    /// Pipelined sweep layout; `None` when the backend has no chunk source
    /// (or its spans could not be derived), falling back to `stream_rows`.
    plan: Option<PipelinePlan>,
}

impl<'g, G: SolveGraph + ?Sized> StreamedTransition<'g, G> {
    /// Builds the operator over a reverse graph plus the forward graph's
    /// out-degree table (the sharded container carries one; see
    /// [`ShardedCompressedGraph::out_degrees`]), with the default
    /// [`PipelineConfig`].
    ///
    /// # Panics
    /// Panics if `out_degrees.len()` differs from the graph's node count.
    pub fn new(graph: &'g G, out_degrees: &[u32]) -> Self {
        Self::with_config(graph, out_degrees, PipelineConfig::default())
    }

    /// [`StreamedTransition::new`] with explicit pipeline tuning.
    ///
    /// # Panics
    /// Panics if `out_degrees.len()` differs from the graph's node count.
    pub fn with_config(graph: &'g G, out_degrees: &[u32], config: PipelineConfig) -> Self {
        let n = graph.num_nodes();
        assert_eq!(
            out_degrees.len(),
            n,
            "out-degree table must cover every node"
        );
        let inv_degree: Vec<f64> = out_degrees
            .iter()
            .map(|&d| if d == 0 { 0.0 } else { 1.0 / f64::from(d) })
            .collect();
        if let Some(source) = graph.chunk_source() {
            if let Some((plan, partition)) = build_plan(source, n, config) {
                return StreamedTransition {
                    graph,
                    inv_degree,
                    partition,
                    scratch_pool: Vec::new(),
                    plan: Some(plan),
                };
            }
        }
        let partition = graph.partition(operator_chunks(n));
        let scratch_pool = (0..partition.num_chunks().max(1))
            .map(|_| Mutex::new(RowScratch::new()))
            .collect();
        StreamedTransition {
            graph,
            inv_degree,
            partition,
            scratch_pool,
            plan: None,
        }
    }

    /// The cached storage-aligned partition the gather sweep runs over (one
    /// chunk per pipeline span on the pipelined path).
    pub fn partition(&self) -> &EdgePartition {
        &self.partition
    }

    /// Whether the decode-ahead pipeline is active (the backend exposed a
    /// usable [`ChunkSource`]).
    pub fn is_pipelined(&self) -> bool {
        self.plan.is_some()
    }

    /// Current heap footprint of the per-worker decode state in bytes — the
    /// entire steady-state memory the edge structure costs beyond the
    /// backend's own resident bytes. Covers the `stream_rows` scratch pool
    /// on the generic path and the staging buffers, block-decode scratch
    /// arenas, and budget-bounded hot arena cache on the pipelined path.
    pub fn scratch_resident_bytes(&self) -> usize {
        let pool: usize = self
            .scratch_pool
            .iter()
            .map(|m| lock_ignore_poison(m).heap_bytes())
            .sum();
        let slots: usize = self
            .plan
            .iter()
            .flat_map(|plan| plan.slots.iter())
            .map(|m| {
                let slot = lock_ignore_poison(m);
                let bufs: usize = slot.bufs.iter().map(Vec::capacity).sum();
                let hot: usize = slot
                    .cache
                    .iter()
                    .flatten()
                    .map(|h| h.sell.heap_bytes())
                    .sum();
                bufs + slot.arena.heap_bytes() + hot
            })
            .sum();
        pool + slots
    }
}

/// Gathers one decoded arena into `out[base..]`: each row folds its
/// ascending predecessors through its own accumulator — the parity-critical
/// inner loop, identical for hot (cached) and freshly decoded arenas.
#[inline]
fn gather_arena(arena: &ChunkArena, base: usize, scratch: &[f64], out: &mut [f64]) {
    for rel in 0..arena.num_rows() {
        let mut acc = 0.0;
        for &u in arena.row(rel) {
            acc += scratch[u as usize];
        }
        out[base + rel] = acc;
    }
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Derives the pipelined sweep layout: asks the backend for edge-bounded
/// chunk spans, validates that they tile `0..n`, and cuts them into one
/// contiguous edge-balanced group per worker. Returns `None` (→ generic
/// `stream_rows` path) if the backend cannot produce a usable tiling.
fn build_plan(
    source: &dyn ChunkSource,
    n: usize,
    config: PipelineConfig,
) -> Option<(PipelinePlan, EdgePartition)> {
    let workers = operator_chunks(n);
    let max_chunks = workers.saturating_mul(config.spans_per_worker.max(1));
    let spans = source.chunk_spans(max_chunks).ok()?;
    // The gather writes y[v] only for rows some span covers, so a plan is
    // only usable when the spans tile the row space exactly.
    let mut cursor = 0usize;
    for s in &spans {
        if s.rows.start != cursor || s.rows.end < s.rows.start {
            return None;
        }
        cursor = s.rows.end;
    }
    if cursor != n || spans.is_empty() {
        return None;
    }

    // Edge prefix over spans, for the per-worker ceiling split and the
    // exact per-span partition.
    let mut prefix = Vec::with_capacity(spans.len() + 1);
    prefix.push(0u64);
    for s in &spans {
        prefix.push(prefix.last().copied().unwrap_or(0) + s.edges);
    }
    let total = *prefix.last().unwrap_or(&0);

    // Cut spans into `w` contiguous groups at edge-balanced boundaries —
    // the worker–shard affinity map. Every group is non-empty; bounds are
    // pure functions of (spans, w), so the map is stable across iterations.
    let w = workers.min(spans.len()).max(1);
    let mut span_bounds = Vec::with_capacity(w + 1);
    span_bounds.push(0usize);
    for i in 1..w {
        let target = (total * i as u64).div_ceil(w as u64);
        let cut = prefix
            .partition_point(|&p| p < target)
            .max(span_bounds[i - 1] + 1)
            .min(spans.len() - (w - i));
        span_bounds.push(cut);
    }
    span_bounds.push(spans.len());

    let mut row_bounds: Vec<usize> = span_bounds[..w]
        .iter()
        .map(|&b| spans[b].rows.start)
        .collect();
    row_bounds.push(n);

    let seg_rows: Vec<usize> = std::iter::once(0)
        .chain(spans.iter().map(|s| s.rows.end))
        .collect();
    let seg_edges: Vec<usize> = spans
        .iter()
        .map(|s| usize::try_from(s.edges).ok())
        .collect::<Option<_>>()?;
    let partition = EdgePartition::from_exact_segments(&seg_rows, &seg_edges);

    // Greedy hot-arena budget: decoded span k costs (rows+1)·8 offset bytes
    // plus edges·4 target bytes; spans fit in file order until the budget
    // runs out. Deterministic, so the cached/streamed split never shifts
    // between sweeps.
    let mut cache_left = config.cache_bytes as u64;
    let cacheable: Vec<bool> = spans
        .iter()
        .map(|s| {
            let decoded = (s.rows.len() as u64 + 1) * 8 + s.edges * 4;
            if decoded <= cache_left {
                cache_left -= decoded;
                true
            } else {
                false
            }
        })
        .collect();

    let slots = (0..w)
        .map(|i| {
            let group = span_bounds[i + 1] - span_bounds[i];
            Mutex::new(WorkerSlot {
                bufs: (0..config.prefetch_buffers.max(1))
                    .map(|_| Vec::new())
                    .collect(),
                arena: ChunkArena::new(),
                cache: (0..group).map(|_| None).collect(),
                cold: Vec::new(),
            })
        })
        .collect();
    Some((
        PipelinePlan {
            spans,
            span_bounds,
            row_bounds,
            cacheable,
            slots,
        },
        partition,
    ))
}

impl<'g> StreamedTransition<'g, ShardedCompressedGraph> {
    /// Builds the operator directly over an on-disk sharded graph, wiring
    /// its stored forward out-degree table through.
    pub fn from_sharded(graph: &'g ShardedCompressedGraph) -> Self {
        StreamedTransition::new(graph, graph.out_degrees())
    }

    /// [`StreamedTransition::from_sharded`] with explicit pipeline tuning.
    pub fn from_sharded_with(graph: &'g ShardedCompressedGraph, config: PipelineConfig) -> Self {
        StreamedTransition::with_config(graph, graph.out_degrees(), config)
    }
}

impl<'g, G: SolveGraph + ?Sized> StreamedTransition<'g, G> {
    /// The pipelined pass 2. Each worker first gathers straight out of its
    /// hot arenas (spans decoded on an earlier sweep — no I/O, no decode),
    /// then streams the remaining cold spans through a fill → decode+gather
    /// pipeline over its recycled buffer ring, parking cacheable arenas as
    /// it goes. Every row is written exactly once per sweep from its own
    /// ascending-order accumulator, so the cached/streamed split cannot
    /// move a bit.
    fn propagate_pipelined(&self, plan: &PipelinePlan, scratch: &[f64], y: &mut [f64]) {
        let source = self
            .graph
            .chunk_source()
            .expect("pipelined plan requires a chunk source");
        let results = sr_par::for_each_part(y, &plan.row_bounds, |i, out| {
            let lo = plan.row_bounds[i];
            let group_lo = plan.span_bounds[i];
            let group = &plan.spans[group_lo..plan.span_bounds[i + 1]];
            let mut slot = lock_ignore_poison(&plan.slots[i]);
            let WorkerSlot {
                bufs,
                arena,
                cache,
                cold,
            } = &mut *slot;
            // Hot spans: the affinity map guarantees cache[k] (if present)
            // holds exactly group[k]'s decoded rows.
            cold.clear();
            for (k, span) in group.iter().enumerate() {
                match &cache[k] {
                    Some(hot) => hot.gather(span.rows.start - lo, scratch, out),
                    None => cold.push(k),
                }
            }
            if cold.is_empty() {
                return Ok(());
            }
            let cold: &[usize] = cold;
            let ring = std::mem::take(bufs);
            let (ring, res) = sr_par::pipeline(
                cold.len(),
                ring,
                |j, buf: &mut Vec<u8>| {
                    let span = &group[cold[j]];
                    source.load_chunk(span, buf)?;
                    sr_par::counters::note_prefetched(1, span.byte_len() as u64);
                    Ok::<(), sr_graph::GraphError>(())
                },
                |j, buf| {
                    let k = cold[j];
                    let span = &group[k];
                    source.decode_chunk(span, buf, arena)?;
                    if plan.cacheable[group_lo + k] {
                        // Pack the span hot (a one-time cost amortized over
                        // every later sweep) and gather through the pack —
                        // the same code path hot sweeps take.
                        let hot = HotSpan::pack(arena);
                        hot.gather(span.rows.start - lo, scratch, out);
                        cache[k] = Some(hot);
                    } else {
                        gather_arena(arena, span.rows.start - lo, scratch, out);
                    }
                    Ok(())
                },
            );
            *bufs = ring;
            res
        });
        for res in results {
            if let Err(e) = res {
                panic!("out-of-core chunk pipeline failed mid-solve: {e}");
            }
        }
    }
}

impl<'g, G: SolveGraph + ?Sized> Transition for StreamedTransition<'g, G> {
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
        // Pass 1: pre-scale + dangling fold, identical to the in-RAM
        // operator: fixed blocks, partials summed in block order.
        let inv = &self.inv_degree;
        let partials = sr_par::for_each_block(scratch, sr_par::PAR_THRESHOLD, |i, part| {
            let lo = i * sr_par::PAR_THRESHOLD;
            let mut dangling = 0.0;
            for (k, s) in part.iter_mut().enumerate() {
                let u = lo + k;
                let w = inv[u];
                *s = x[u] * w;
                if w == 0.0 {
                    dangling += x[u];
                }
            }
            dangling
        });
        let dangling = partials.into_iter().sum();
        let scratch = &*scratch;
        // Pass 2: the gather sweep. Pipelined when the backend exposes
        // chunk spans, row-streaming otherwise; both orders are
        // ascending-per-row so the bits agree.
        if let Some(plan) = &self.plan {
            self.propagate_pipelined(plan, scratch, y);
            return dangling;
        }
        let bounds = self.partition.row_bounds();
        let graph = self.graph;
        let pool = &self.scratch_pool;
        let failure: Mutex<Option<sr_graph::GraphError>> = Mutex::new(None);
        sr_par::for_each_part(y, bounds, |i, out| {
            let lo = bounds[i];
            let mut rs = lock_ignore_poison(&pool[i]);
            let res = graph.stream_rows(lo..bounds[i + 1], &mut rs, &mut |v, preds| {
                let mut acc = 0.0;
                for &u in preds {
                    acc += scratch[u as usize];
                }
                out[v - lo] = acc;
            });
            if let Err(e) = res {
                lock_ignore_poison(&failure).get_or_insert(e);
            }
        });
        if let Some(e) = lock_ignore_poison(&failure).take() {
            panic!("out-of-core row stream failed mid-solve: {e}");
        }
        dangling
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::UniformTransition;
    use crate::power::{solve, SolveColumn, SolveRequest, SolverWorkspace};
    use crate::rankvec::RankVector;
    use sr_graph::transpose::transpose;
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

    fn out_degrees(g: &CsrGraph) -> Vec<u32> {
        (0..g.num_nodes() as u32)
            .map(|u| u32::try_from(g.out_degree(u)).expect("degree fits u32"))
            .collect()
    }

    #[test]
    fn streamed_csr_propagate_matches_in_ram_bitwise() {
        let g =
            GraphBuilder::from_edges_exact(5, vec![(0, 1), (0, 2), (1, 2), (2, 0), (2, 3), (4, 4)])
                .unwrap();
        let rev = transpose(&g);
        let degs = out_degrees(&g);
        let streamed = StreamedTransition::new(&rev, &degs);
        assert!(!streamed.is_pipelined(), "CSR has no chunk source");
        let in_ram = UniformTransition::new(&g);
        let x = [0.1, 0.3, 0.2, 0.25, 0.15];
        let (mut ys, mut yr) = ([0.0; 5], [0.0; 5]);
        let ds = streamed.propagate(&x, &mut ys);
        let dr = in_ram.propagate(&x, &mut yr);
        assert_eq!(ys, yr);
        assert_eq!(ds, dr);
    }

    #[test]
    fn streamed_solve_matches_in_ram_bitwise() {
        let g = GraphBuilder::from_edges_exact(
            7,
            vec![(0, 3), (1, 3), (2, 3), (3, 0), (0, 1), (4, 5), (6, 0)],
        )
        .unwrap();
        let rev = transpose(&g);
        let degs = out_degrees(&g);
        let streamed = StreamedTransition::new(&rev, &degs);
        let in_ram = UniformTransition::new(&g);
        assert_eq!(power_solve(&streamed), power_solve(&in_ram));
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
        assert!(streamed.is_pipelined(), "sharded backend must pipeline");
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
        // Prefetch depth, span granularity, and thread count are pure
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
        for prefetch_buffers in [1, 2, 3] {
            for spans_per_worker in [1, 4, 16] {
                for threads in [1, 4] {
                    for cache_bytes in [0, 1 << 30] {
                        let pcfg = PipelineConfig {
                            prefetch_buffers,
                            spans_per_worker,
                            cache_bytes,
                        };
                        let streamed = StreamedTransition::from_sharded_with(&sharded, pcfg);
                        assert!(streamed.is_pipelined());
                        let x = sr_par::with_threads(threads, || power_solve(&streamed));
                        assert_eq!(
                            x.scores(),
                            x_ram.scores(),
                            "geometry moved bits: bufs={prefetch_buffers} \
                             spans={spans_per_worker} threads={threads} \
                             cache={cache_bytes}"
                        );
                    }
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
        let spans = streamed.plan.as_ref().unwrap().spans.len() as u64;
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
    fn worker_groups_tile_spans_and_rows() {
        let edges: Vec<(u32, u32)> = (0u32..500).map(|u| (u, (u * 31 + 7) % 500)).collect();
        let g = GraphBuilder::from_edges_exact(500, edges).unwrap();
        let dir = std::env::temp_dir().join(format!("sr_core_tile_{}", std::process::id()));
        let path = dir.join("g.shards");
        let sharded = sr_graph::shard::build_from_csr(&g, &dir, &path, 128).unwrap();
        let streamed = StreamedTransition::from_sharded(&sharded);
        let plan = streamed.plan.as_ref().expect("pipelined");
        assert_eq!(plan.span_bounds[0], 0);
        assert_eq!(*plan.span_bounds.last().unwrap(), plan.spans.len());
        assert!(plan.span_bounds.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(plan.row_bounds[0], 0);
        assert_eq!(*plan.row_bounds.last().unwrap(), 500);
        assert_eq!(plan.slots.len(), plan.row_bounds.len() - 1);
        // Spans tile the row space in order.
        let mut cursor = 0;
        for s in &plan.spans {
            assert_eq!(s.rows.start, cursor);
            cursor = s.rows.end;
        }
        assert_eq!(cursor, 500);
        assert_eq!(streamed.partition().num_chunks(), plan.spans.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scratch_pool_covers_every_chunk() {
        let g = GraphBuilder::from_edges_exact(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let rev = transpose(&g);
        let degs = out_degrees(&g);
        let streamed = StreamedTransition::new(&rev, &degs);
        assert_eq!(streamed.partition().num_rows(), 4);
        assert_eq!(streamed.num_nodes(), 4);
    }

    #[test]
    #[should_panic(expected = "out-degree table must cover every node")]
    fn degree_table_length_checked() {
        let g = GraphBuilder::from_edges(vec![(0, 1)]);
        let rev = transpose(&g);
        StreamedTransition::new(&rev, &[1]);
    }
}
