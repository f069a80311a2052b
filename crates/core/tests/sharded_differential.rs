//! Differential suite for the out-of-core solve engine
//! (`sr_core::streamed` over `sr_graph::shard`).
//!
//! The contract is the same bitwise gate the batched engine carries: a
//! power-method solve streamed from an on-disk sharded graph must equal the
//! in-RAM CSR solve **bit for bit** — identical scores, identical residual
//! histories, identical iteration counts — for any graph, any shard target
//! size, any page size, and any thread count. Shard geometry only changes
//! *where* row decoding pauses for I/O, never a single floating-point
//! operation, and the thread sweep (`sr_par::with_threads`) pins the blocked
//! reduction order of both engines at once.

use proptest::prelude::*;

use sr_core::operator::{Transition, UniformTransition};
use sr_core::streamed::{PipelineConfig, StreamedTransition};
use sr_core::{solve, PageRank, RankVector, SolveColumn, SolveRequest, SolverWorkspace, Teleport};
use sr_graph::{CsrGraph, GraphBuilder, ShardedCompressedGraph};

/// The one-column `request` over `op`.
fn power_solve(op: &dyn Transition, request: &SolveRequest) -> RankVector {
    solve(op, request, &mut SolverWorkspace::new(), &mut []).remove(0)
}

/// The default PageRank request.
fn pagerank_request() -> SolveRequest {
    SolveRequest::new(vec![SolveColumn::default()])
}

/// `PageRank` streamed off the on-disk `graph`.
fn rank_on_disk(graph: &ShardedCompressedGraph) -> RankVector {
    let op = StreamedTransition::from_sharded(graph);
    PageRank::default().rank_operator_warm_in(&op, None, &mut SolverWorkspace::new(), None)
}

/// Distinguishes temp dirs across concurrently running proptest cases.
static CASE_COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2u32..120).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..400)
            .prop_map(move |edges| GraphBuilder::from_edges_exact(n as usize, edges).unwrap())
    })
}

/// Builds `g` into a uniquely named on-disk sharded file, returning the
/// container and its temp dir (caller removes it).
fn shard_to_disk(
    g: &CsrGraph,
    shard_bytes: usize,
    page: usize,
) -> (ShardedCompressedGraph, std::path::PathBuf) {
    let case = CASE_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("sr_core_diff_shard_{}_{case}", std::process::id()));
    let path = dir.join("g.shards");
    let mut sharded = sr_graph::shard::build_from_csr(g, &dir, &path, shard_bytes).unwrap();
    sharded.set_page_size(page);
    (sharded, dir)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The core gate: sharded solve ≡ CSR solve, bitwise, across shard
    /// sizes, page sizes and thread counts. Tiny shard targets force
    /// single-row (and, on sparse graphs, empty gap-filled) shards; large
    /// ones collapse the file to a single shard — both ends of the geometry
    /// must be invisible in the bits.
    #[test]
    fn sharded_solve_is_bitwise_csr_solve(
        g in arb_graph(),
        shard_bytes in 1usize..512,
        page in 16usize..256,
        threads in 1usize..9,
    ) {
        let (sharded, dir) = shard_to_disk(&g, shard_bytes, page);
        let (xs, xr) = sr_par::with_threads(threads, || {
            let streamed = StreamedTransition::from_sharded(&sharded);
            let in_ram = UniformTransition::new(&g);
            let request = pagerank_request();
            (power_solve(&streamed, &request), power_solve(&in_ram, &request))
        });
        prop_assert_eq!(xs.scores(), xr.scores(), "scores diverged");
        prop_assert_eq!(xs.stats().iterations, xr.stats().iterations, "iteration counts diverged");
        prop_assert_eq!(&xs.stats().residual_history, &xr.stats().residual_history);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Thread-count invariance of the sharded engine alone: 1 thread vs N
    /// threads over the same on-disk file, same bits. The 1-thread run uses
    /// a single chunk (all shards in one stream); the N-thread run splits at
    /// shard boundaries — the partition seam must not move any bits.
    #[test]
    fn sharded_solve_is_thread_count_invariant(
        g in arb_graph(),
        shard_bytes in 1usize..256,
        threads in 2usize..9,
    ) {
        let (sharded, dir) = shard_to_disk(&g, shard_bytes, 64);
        let request = SolveRequest::new(vec![SolveColumn::new(
            0.85,
            Teleport::over_seeds(g.num_nodes(), &[0]),
        )]);
        let x1 = sr_par::with_threads(1, || {
            power_solve(&StreamedTransition::from_sharded(&sharded), &request)
        });
        let xn = sr_par::with_threads(threads, || {
            power_solve(&StreamedTransition::from_sharded(&sharded), &request)
        });
        prop_assert_eq!(x1.scores(), xn.scores());
        prop_assert_eq!(x1.stats().iterations, xn.stats().iterations);
        prop_assert_eq!(&x1.stats().residual_history, &xn.stats().residual_history);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Pipeline geometry invariance: span granularity × thread count ×
    /// hot-arena budget are pure performance knobs. Every combination must
    /// reproduce the in-RAM solve bit for bit — the decode-ahead pipeline
    /// may only change *when* bytes are staged, and the cache only
    /// *whether* a span is re-decoded, never what the gather sees. Small
    /// budgets split the spans between hot and streamed, so one worker
    /// claims both kinds in a sweep — the seam the suite most wants to
    /// cross.
    #[test]
    fn pipeline_geometry_is_bitwise_invariant(
        g in arb_graph(),
        shard_bytes in 1usize..512,
        spans_per_worker in 1usize..24,
        threads in 1usize..9,
        cache_bytes in (0usize..4096).prop_map(|v| if v == 0 { 1 << 30 } else { v - 1 }),
    ) {
        let (sharded, dir) = shard_to_disk(&g, shard_bytes, 64);
        let request = pagerank_request();
        let xr = power_solve(&UniformTransition::new(&g), &request);
        let pcfg = PipelineConfig { spans_per_worker, cache_bytes };
        let xs = sr_par::with_threads(threads, || {
            let streamed = StreamedTransition::from_sharded_with(&sharded, pcfg);
            power_solve(&streamed, &request)
        });
        prop_assert_eq!(xs.scores(), xr.scores(), "scores diverged");
        prop_assert_eq!(xs.stats().iterations, xr.stats().iterations, "iteration counts diverged");
        prop_assert_eq!(&xs.stats().residual_history, &xr.stats().residual_history);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The public out-of-core path: `PageRank::rank_operator_warm_in` over a
    /// `StreamedTransition` ≡ `PageRank::rank` on the equivalent in-RAM
    /// graph, bitwise.
    #[test]
    fn on_disk_rank_matches_rank(g in arb_graph(), shard_bytes in 1usize..256) {
        let (sharded, dir) = shard_to_disk(&g, shard_bytes, 64);
        let on_disk = rank_on_disk(&sharded);
        let in_ram = PageRank::default().rank(&g);
        prop_assert_eq!(on_disk.scores(), in_ram.scores());
        prop_assert_eq!(on_disk.stats().iterations, in_ram.stats().iterations);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A graph past the streamed operator's fork cutover
/// ([`sr_par::FORK_MIN_EDGES`] edges) and the vector passes' one
/// ([`sr_par::FORK_MIN_ELEMENTS`] nodes): eight scattered out-links per
/// node, every tenth node dangling.
fn forking_graph() -> CsrGraph {
    let n = 300_000u64;
    let mut offsets = vec![0usize];
    let mut targets = Vec::new();
    for u in 0..n {
        if u % 10 != 9 {
            let mut row: Vec<u32> = (1..=8u64)
                .map(|j| u32::try_from((u * (2 * j + 1) + j * j * 7919) % n).unwrap())
                .collect();
            row.sort_unstable();
            row.dedup();
            targets.extend(row);
        }
        offsets.push(targets.len());
    }
    let g = CsrGraph::from_parts(offsets, targets);
    assert!(g.num_edges() >= sr_par::FORK_MIN_EDGES);
    assert!(g.num_nodes() >= sr_par::FORK_MIN_ELEMENTS);
    g
}

#[test]
fn pipelined_1_vs_8_workers_bitwise_identical() {
    // The CI determinism gate: the same on-disk file solved through the
    // pipelined path with 1 worker and with 8 workers must agree bit for
    // bit — which worker claims which span, prefetch scheduling, and which
    // spans stay hot under a budget that splits them, are invisible in the
    // scores. The graph is past the fork cutovers, so the 8-thread sweep
    // really runs eight workers (the counters show it).
    let g = forking_graph();
    let (sharded, dir) = shard_to_disk(&g, 4096, 4096);
    let request = pagerank_request();
    let config = PipelineConfig {
        cache_bytes: 4 << 20,
        ..PipelineConfig::default()
    };
    let x1 = sr_par::with_threads(1, || {
        let t = StreamedTransition::from_sharded_with(&sharded, config);
        power_solve(&t, &request)
    });
    let x8 = sr_par::with_threads(8, || {
        let t = StreamedTransition::from_sharded_with(&sharded, config);
        let hot = t.hot_edges();
        assert!(
            hot > 0 && hot < g.num_edges() as u64,
            "the budget must split"
        );
        // One sweep forks twice, the pre-scale blocks and the span workers,
        // each spawning seven threads beside the calling thread.
        let n = t.num_nodes();
        let (x, mut y) = (vec![1.0 / n as f64; n], vec![0.0; n]);
        sr_par::counters::enable();
        let before = sr_par::counters::snapshot();
        t.propagate(&x, &mut y);
        let after = sr_par::counters::snapshot();
        sr_par::counters::disable();
        assert!(
            after.par_calls >= before.par_calls + 2,
            "the sweep ran inline"
        );
        assert!(
            after.tasks_spawned >= before.tasks_spawned + 14,
            "the 8-thread sweep did not fork eight span workers"
        );
        power_solve(&t, &request)
    });
    assert_eq!(
        x1.scores(),
        x8.scores(),
        "1-worker and 8-worker pipelined solves diverged"
    );
    assert_eq!(x1.stats().iterations, x8.stats().iterations);
    assert_eq!(x1.stats().residual_history, x8.stats().residual_history);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_node_graph_solves_out_of_core() {
    let g = GraphBuilder::from_edges_exact(1, vec![]).unwrap();
    let (sharded, dir) = shard_to_disk(&g, 1, 16);
    let r = rank_on_disk(&sharded);
    assert_eq!(r.scores(), &[1.0]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn edgeless_graph_is_all_dangling_out_of_core() {
    // Every shard is an empty gap-filled row: the solve is pure dangling
    // redistribution and must match the in-RAM result exactly.
    let g = GraphBuilder::from_edges_exact(10, vec![]).unwrap();
    let (sharded, dir) = shard_to_disk(&g, 2, 16);
    assert!(sharded.num_edges() == 0);
    let on_disk = rank_on_disk(&sharded);
    let in_ram = PageRank::default().rank(&g);
    assert_eq!(on_disk.scores(), in_ram.scores());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_row_shards_partition_cleanly() {
    // shard target 1 byte → every row its own shard; an 8-thread operator's
    // span partition must still land every boundary on a shard seam and
    // solve bitwise.
    let g = GraphBuilder::from_edges_exact(
        12,
        (0..12u32)
            .flat_map(|u| [(u, (u + 1) % 12), (u, (u * 5 + 2) % 12)])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let (sharded, dir) = shard_to_disk(&g, 1, 16);
    assert!(sharded.shards().len() >= 12, "expected one shard per row");
    sr_par::with_threads(8, || {
        let op = StreamedTransition::from_sharded(&sharded);
        let p = op.partition();
        let seams: Vec<usize> = sharded.shards().iter().map(|s| s.rows.start).collect();
        for &b in &p.row_bounds()[1..p.row_bounds().len() - 1] {
            assert!(
                seams.contains(&b) || b == sharded.num_nodes(),
                "bound {b} not on a shard seam"
            );
        }
        let on_disk = rank_on_disk(&sharded);
        let in_ram = PageRank::default().rank(&g);
        assert_eq!(on_disk.scores(), in_ram.scores());
    });
    std::fs::remove_dir_all(&dir).ok();
}
