//! Differential suite for the Monte-Carlo walk-cache approximate-PPR
//! engine (`sr_core::approx`), with the exact solvers as oracles.
//!
//! Four properties are pinned, per the engine's contract:
//!
//! 1. **Push-only exactness** — with `R = 0` walks and a tiny ε the engine
//!    is a plain Jacobi solve of the same linear system as the exact
//!    eigenvector power method, so scores must agree to solver tolerance
//!    on arbitrary graphs and seed sets (both the proximity direction,
//!    over the transposed graph, against the seeded `PageRank::rank` of
//!    that transpose and against `SpamProximity::scores_batch` under the
//!    uniform weighting, and the forward personalized-PageRank direction,
//!    against `PageRank::rank`), and on a 600-node graph whose push
//!    frontier saturates.
//!
//! Approximate spam proximity has one front end: `PageRank::approx` over
//! the reversed structural graph, whose walk is the uniform weighting's.
//! Every cache below is built by `PageRank::build_walk_cache` over the
//! transposed graph.
//! 2. **(ε, δ) additive error** — with real walks closing a deliberately
//!    loose push, the per-node additive error stays within ε_tol except
//!    with empirical frequency ≤ δ across independently seeded caches
//!    (the Chernoff/Hoeffding regime the estimator is designed for).
//! 3. **Bitwise determinism** — cache bytes and query scores are pure
//!    functions of `(graph, config, seeds)`: identical across repeated
//!    runs and across 1-vs-8 worker threads.
//! 4. **Round-trip identity** — a cache written to disk, reopened (or
//!    re-read from raw bytes) and a cache rebuilt from scratch all yield
//!    bit-identical files and bit-identical query results.

use proptest::prelude::*;

use sr_core::approx::{ApproxPpr, QueryConfig, WalkCacheBuilder, WalkCacheConfig};
use sr_core::proximity::ProximityWeighting;
use sr_core::{PageRank, RankVector, SpamProximity, Teleport};
use sr_graph::transpose::transpose;
use sr_graph::walks::WalkStore;
use sr_graph::{CsrGraph, GraphBuilder};
use std::path::PathBuf;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("sr_approx_differential");
    std::fs::create_dir_all(&dir).ok();
    dir.join(format!("{tag}.walks"))
}

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (
        3usize..40,
        proptest::collection::vec((any::<u32>(), any::<u32>()), 2..120),
    )
        .prop_map(|(n, edges)| {
            let edges: Vec<(u32, u32)> = edges
                .into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .collect();
            GraphBuilder::from_edges_exact(n, edges).unwrap()
        })
}

fn arb_seeds() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(any::<u32>(), 1..4)
}

fn realize_seeds(raw: &[u32], n: usize) -> Vec<u32> {
    let mut seeds: Vec<u32> = raw.iter().map(|&s| s % n as u32).collect();
    seeds.sort_unstable();
    seeds.dedup();
    seeds
}

/// A deterministic 60-node crawl-ish fixture: ring + chords + dangling
/// tail — irregular enough that the push frontier and the walks both work.
fn fixture() -> CsrGraph {
    let n = 60u32;
    let mut edges: Vec<(u32, u32)> = (0..n - 2).map(|v| (v, (v + 1) % (n - 2))).collect();
    for v in 0..n - 2 {
        if v % 3 == 0 {
            edges.push((v, (v * 7 + 2) % (n - 2)));
        }
        if v % 5 == 1 {
            edges.push((v, (v * 11 + 3) % (n - 2)));
        }
    }
    edges.push((4, n - 2));
    edges.push((n - 2, n - 1)); // n-1 dangling
    GraphBuilder::from_edges_exact(n as usize, edges).unwrap()
}

const PUSH_ONLY: QueryConfig = QueryConfig {
    epsilon: 1e-12,
    max_rounds: 10_000,
};

/// The exact spam-proximity oracle: seed-personalized PageRank at the
/// default α = β = 0.85 over `rev`, the transposed graph whose walk every
/// cache below approximates.
fn exact_proximity(rev: &CsrGraph, seeds: &[u32]) -> RankVector {
    PageRank::builder()
        .teleport(Teleport::try_over_seeds(rev.num_nodes(), seeds).unwrap())
        .finish()
        .rank(rev)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1, proximity direction: at R = 0 the engine must reproduce
    /// the exact reversed-walk solve on arbitrary graphs and seed sets.
    #[test]
    fn push_only_limit_matches_exact_proximity(g in arb_graph(), raw in arb_seeds()) {
        let seeds = realize_seeds(&raw, g.num_nodes());
        let rev = transpose(&g);
        let pr = PageRank::default();
        let cache = pr
            .build_walk_cache(
                &rev,
                WalkCacheConfig { walks: 0, ..Default::default() },
                &tmp("prop_push_prox"),
            )
            .unwrap();
        let approx = pr.approx(&rev, &cache).unwrap().query(&seeds, &PUSH_ONLY).unwrap();
        let exact = exact_proximity(&rev, &seeds);
        for (v, (a, e)) in approx.scores().iter().zip(exact.scores()).enumerate() {
            prop_assert!(
                (a - e).abs() <= 1e-7,
                "node {}: approx {} vs exact {} (seeds {:?})", v, a, e, seeds
            );
        }
    }

    /// Property 1, forward direction: the same limit against seed-teleport
    /// personalized PageRank over the forward graph.
    #[test]
    fn push_only_limit_matches_personalized_pagerank(g in arb_graph(), raw in arb_seeds()) {
        let seeds = realize_seeds(&raw, g.num_nodes());
        let pr = PageRank::default();
        let cache = pr
            .build_walk_cache(
                &g,
                WalkCacheConfig { walks: 0, ..Default::default() },
                &tmp("prop_push_pr"),
            )
            .unwrap();
        let engine = pr.approx(&g, &cache).unwrap();
        let approx = engine.query(&seeds, &PUSH_ONLY).unwrap();
        let exact = PageRank::builder()
            .teleport(Teleport::over_seeds(g.num_nodes(), &seeds))
            .finish()
            .rank(&g);
        for (v, (a, e)) in approx.scores().iter().zip(exact.scores()).enumerate() {
            prop_assert!(
                (a - e).abs() <= 1e-7,
                "node {}: approx {} vs exact {} (seeds {:?})", v, a, e, seeds
            );
        }
    }

    /// Property 2 in its always-true form: with walks closing a moderate
    /// push residual, every node stays within a generous additive ε of the
    /// oracle on arbitrary graphs (the δ-quantified sharp version is the
    /// seeded-trials test below).
    #[test]
    fn walks_keep_arbitrary_graphs_within_additive_epsilon(
        g in arb_graph(),
        raw in arb_seeds(),
    ) {
        let seeds = realize_seeds(&raw, g.num_nodes());
        let rev = transpose(&g);
        let pr = PageRank::default();
        let cache = pr
            .build_walk_cache(
                &rev,
                WalkCacheConfig { walks: 256, ..Default::default() },
                &tmp("prop_eps"),
            )
            .unwrap();
        // ε = 0.05 leaves real residual mass for the Monte-Carlo term.
        let q = QueryConfig { epsilon: 0.05, max_rounds: 10_000 };
        let approx = pr.approx(&rev, &cache).unwrap().query(&seeds, &q).unwrap();
        let exact = exact_proximity(&rev, &seeds);
        for (v, (a, e)) in approx.scores().iter().zip(exact.scores()).enumerate() {
            prop_assert!(
                (a - e).abs() <= 0.05,
                "node {}: approx {} vs exact {} (seeds {:?})", v, a, e, seeds
            );
        }
    }
}

/// 600 nodes, each linking to its ring successor and two scattered nodes,
/// every 50th one dangling: push frontiers from a seed cover most of the
/// graph within a few rounds.
fn saturating_graph() -> CsrGraph {
    let n = 600u32;
    let edges = (0..n)
        .filter(|u| u % 50 != 49)
        .flat_map(|u| [u + 1, u * 7 + 3, u * 13 + 11].map(|v| (u, v % n)));
    GraphBuilder::from_edges_exact(n as usize, edges).unwrap()
}

/// Property 1 where the push frontier saturates: the random graphs above
/// have at most 40 nodes, so their rounds never push more than a few
/// dozen rows. Here rounds push n/8 rows and more, as served queries do.
#[test]
fn push_only_limit_holds_once_the_frontier_saturates() {
    let g = saturating_graph();
    let seeds = [0u32, 17];
    let rev = transpose(&g);
    let pr = PageRank::default();
    let cache = pr
        .build_walk_cache(
            &rev,
            WalkCacheConfig {
                walks: 0,
                ..Default::default()
            },
            &tmp("saturated_push"),
        )
        .unwrap();
    let approx = pr
        .approx(&rev, &cache)
        .unwrap()
        .query(&seeds, &PUSH_ONLY)
        .unwrap();
    // Round t pushes exactly the nodes some t-step walk over the reversed
    // graph reaches from a seed (every residual is positive).
    let (mut frontier, mut widest) = (seeds.to_vec(), 0usize);
    for _ in 0..approx.stats().iterations {
        widest = widest.max(frontier.len());
        let mut reached = vec![false; rev.num_nodes()];
        for &u in &frontier {
            for &v in rev.neighbors(u) {
                reached[v as usize] = true;
            }
        }
        frontier = (0..rev.num_nodes() as u32)
            .filter(|&v| reached[v as usize])
            .collect();
    }
    assert!(
        g.num_nodes() >= 256 && widest * 8 >= g.num_nodes(),
        "the frontier never saturated: widest {widest}"
    );
    let exact = exact_proximity(&rev, &seeds);
    for (v, (a, e)) in approx.scores().iter().zip(exact.scores()).enumerate() {
        assert!((a - e).abs() <= 1e-7, "node {v}: approx {a} vs exact {e}");
    }
}

/// Property 2, sharp (ε, δ) form: across independently seeded caches on
/// the 60-node fixture, the per-query max-node additive error exceeds
/// ε_tol = 0.02 in at most a δ = 0.1 fraction of trials — and the mean
/// error sits well inside the bound, as Hoeffding concentration predicts.
#[test]
fn additive_error_bound_holds_with_high_probability() {
    let rev = transpose(&fixture());
    let pr = PageRank::default();
    let exact = exact_proximity(&rev, &[0, 17]);
    let q = QueryConfig {
        epsilon: 0.05, // loose push: the walks must carry real mass
        max_rounds: 10_000,
    };
    let trials = 40usize;
    let (eps_tol, delta) = (0.02f64, 0.1f64);
    let mut violations = 0usize;
    let mut errors = Vec::with_capacity(trials);
    for t in 0..trials {
        let cache = pr
            .build_walk_cache(
                &rev,
                WalkCacheConfig {
                    walks: 128,
                    seed: 0xC0FFEE + t as u64,
                    ..Default::default()
                },
                &tmp(&format!("delta_{t}")),
            )
            .unwrap();
        let approx = pr
            .approx(&rev, &cache)
            .unwrap()
            .query(&[0, 17], &q)
            .unwrap();
        let max_err = approx
            .scores()
            .iter()
            .zip(exact.scores())
            .map(|(a, e)| (a - e).abs())
            .fold(0.0f64, f64::max);
        if max_err > eps_tol {
            violations += 1;
        }
        errors.push(max_err);
    }
    let allowed = (delta * trials as f64).floor() as usize;
    assert!(
        violations <= allowed,
        "error bound {eps_tol} violated in {violations}/{trials} trials (allowed {allowed}): {errors:?}"
    );
    let mean = errors.iter().sum::<f64>() / trials as f64;
    assert!(
        mean < eps_tol / 2.0,
        "mean max-node error {mean} should sit well inside ε_tol {eps_tol}"
    );
}

/// FNV-1a (64-bit) of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a of the cache file the determinism test below builds: a golden
/// value, so a rewrite of the walk simulation cannot move a byte of it
/// unnoticed.
const DETERMINISM_CACHE_FNV1A: u64 = 0xbf9b_0e10_2bf9_9ac0;

/// Property 3: cache bytes and query scores are bitwise identical across
/// repeated runs, across 1-vs-8 worker threads and across source batch
/// sizes, and the cache file matches its golden hash.
#[test]
fn cache_and_queries_are_bitwise_deterministic_across_threads() {
    let rev = transpose(&fixture());
    let pr = PageRank::default();
    let cfg = WalkCacheConfig {
        walks: 32,
        source_batch: 7, // force many batches so the batch seams must not show
        ..Default::default()
    };
    let run_with = |cfg: &WalkCacheConfig, tag: &str, threads: usize| -> (Vec<u8>, Vec<u64>) {
        sr_par::with_threads(threads, || {
            let cache = pr.build_walk_cache(&rev, cfg.clone(), &tmp(tag)).unwrap();
            let scores = pr
                .approx(&rev, &cache)
                .unwrap()
                .query(&[3, 40], &QueryConfig::default())
                .unwrap()
                .scores()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            (std::fs::read(tmp(tag)).unwrap(), scores)
        })
    };
    let run = |tag: &str, threads: usize| run_with(&cfg, tag, threads);
    let (bytes_a, scores_a) = run("det_a", 1);
    let (bytes_b, scores_b) = run("det_b", 1);
    let (bytes_c, scores_c) = run("det_c", 8);
    let one_batch = WalkCacheConfig {
        source_batch: WalkCacheConfig::default().source_batch,
        ..cfg.clone()
    };
    let (bytes_d, _) = run_with(&one_batch, "det_d", 1);
    assert_eq!(bytes_a, bytes_b, "repeated builds must be byte-identical");
    assert_eq!(bytes_a, bytes_c, "thread count must not change cache bytes");
    assert_eq!(
        bytes_a, bytes_d,
        "source batch size must not change cache bytes"
    );
    assert_eq!(
        fnv1a(&bytes_a),
        DETERMINISM_CACHE_FNV1A,
        "the walk cache file moved off its golden bytes"
    );
    assert_eq!(scores_a, scores_b, "repeated queries must be bit-identical");
    assert_eq!(scores_a, scores_c, "thread count must not change scores");
}

/// Property 4: rebuild-vs-reload identity through the file format — a
/// reopened cache, a cache deserialized from raw bytes, and a cache
/// rebuilt from scratch all produce bit-identical files and scores.
#[test]
fn cache_round_trips_through_the_file_format() {
    let rev = transpose(&fixture());
    let pr = PageRank::default();
    let cfg = WalkCacheConfig {
        walks: 24,
        ..Default::default()
    };
    let first = pr
        .build_walk_cache(&rev, cfg.clone(), &tmp("rt_first"))
        .unwrap();
    let bytes = std::fs::read(tmp("rt_first")).unwrap();
    drop(first);

    // Rebuild from scratch: the file must be byte-identical.
    drop(
        pr.build_walk_cache(&rev, cfg.clone(), &tmp("rt_second"))
            .unwrap(),
    );
    assert_eq!(
        bytes,
        std::fs::read(tmp("rt_second")).unwrap(),
        "rebuild must reproduce the cache byte-for-byte"
    );

    // Reload via the two deserialization paths and via a fresh build; all
    // three engines must answer bit-identically.
    let reopened = WalkStore::open(&tmp("rt_first")).unwrap();
    let from_bytes = WalkStore::from_bytes(bytes).unwrap();
    let rebuilt = WalkCacheBuilder::new(WalkCacheConfig { beta: 0.85, ..cfg })
        .build(&rev, &tmp("rt_third"))
        .unwrap();
    let q = QueryConfig::default();
    let score_bits = |cache: &WalkStore| -> Vec<u64> {
        ApproxPpr::new(&rev, cache)
            .unwrap()
            .query(&[11, 29], &q)
            .unwrap()
            .scores()
            .iter()
            .map(|x| x.to_bits())
            .collect()
    };
    let a = score_bits(&reopened);
    let b = score_bits(&from_bytes);
    let c = score_bits(&rebuilt);
    assert_eq!(a, b, "file-backed and in-memory stores must agree bitwise");
    assert_eq!(a, c, "reloaded and rebuilt caches must agree bitwise");
    reopened.validate().unwrap();
}

/// The batched exact engine is also an oracle: `scores_batch` columns
/// (uniform weighting) at the engine's β must match push-only approximate
/// queries over the extracted source graph's reversed structural skeleton.
#[test]
fn batched_oracle_agrees_in_the_push_only_limit() {
    use sr_graph::source_graph::{extract, SourceGraphConfig};
    use sr_graph::SourceAssignment;

    // A small page graph over 6 sources (pages 3k..3k+3 → source k).
    let pages = 18u32;
    let mut edges = Vec::new();
    for p in 0..pages {
        edges.push((p, (p * 5 + 3) % pages));
        if p % 2 == 0 {
            edges.push((p, (p * 7 + 10) % pages));
        }
    }
    let pg = GraphBuilder::from_edges_exact(pages as usize, edges).unwrap();
    let assignment: Vec<u32> = (0..pages).map(|p| p / 3).collect();
    let a = SourceAssignment::new(assignment, 6).unwrap();
    let sg = extract(&pg, &a, SourceGraphConfig::consensus()).unwrap();

    let prox = SpamProximity::new().weighting(ProximityWeighting::Uniform);
    let seed_sets = [vec![0], vec![2, 4]];
    let oracle = prox.scores_batch(&sg, &seed_sets).unwrap();

    let rev = transpose(sg.structural());
    let pr = PageRank::default();
    let cache = pr
        .build_walk_cache(
            &rev,
            WalkCacheConfig {
                walks: 0,
                ..Default::default()
            },
            &tmp("batched_oracle"),
        )
        .unwrap();
    let engine = pr.approx(&rev, &cache).unwrap();
    for (seeds, exact) in seed_sets.iter().zip(&oracle) {
        let approx = engine.query(seeds, &PUSH_ONLY).unwrap();
        for (v, (x, e)) in approx.scores().iter().zip(exact.scores()).enumerate() {
            assert!(
                (x - e).abs() <= 1e-7,
                "source {v}: approx {x} vs batched oracle {e} (seeds {seeds:?})"
            );
        }
    }
}
