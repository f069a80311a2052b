//! Monte-Carlo walk-cache approximate PPR (ROADMAP item 3).
//!
//! The exact spam-proximity measure (§5, Eq. 6) is a full linear-system
//! solve per seed set. This module trades a one-time offline simulation
//! for fewer push rounds per query:
//!
//! * [`WalkCacheBuilder`] simulates `R` geometric-length random walks from
//!   every node of a CSR walk graph (Fogaras et al.'s fingerprint
//!   database) and stores the aggregate visit counts in an
//!   [`sr_graph::WalkStore`] file;
//! * [`ApproxPpr`] answers a seed-set query by running a few rounds of
//!   residual push (Andersen–Chung–Lang, FORA-style) and then closing the
//!   remaining residual with the cached walks.
//!
//! ## What a query costs
//!
//! A query runs on the calling thread. Push rounds run until the residual
//! mass is at most ε, each over the frontier's CSR rows plus one scan of
//! an n-length vector; one sweep over the frontier's cached visit entries
//! closes the rest. The cost therefore follows ε and the graph far more
//! than `R`. Measured on a 2-core host:
//!
//! * 2.4–4.3 ms per query on the 60k-node kernel crawl at ε 0.6 with
//!   `R = 64` (`bench_kernels`), against 29–42 ms for the exact per-seed
//!   solve;
//! * a median of 39–93 ms per single-seed query on a 120k-page crawl at
//!   `sr-serve`'s defaults (ε 0.25, `R = 32`), where 9 push rounds do
//!   most of the work, and 1.5–1.8 ms at ε 0.7 (3 rounds).
//!
//! ## The estimator and why it matches the exact solver
//!
//! The walk graph's *stored rows are the walker's out-edges*: a walker at
//! `u` survives each step with probability β, moves to a uniformly chosen
//! stored neighbor, and **dies** at empty rows. For the chain `P` (row-
//! stochastic over stored rows, zero rows for dangling nodes) and a seed
//! distribution `c`, the expected visit counts of a dying walk obey
//!
//! ```text
//! E[visits to v] = Σ_t β^t (c Pᵗ)(v) = π_c(v) / (1 − β),
//! where π_c = (1 − β) · c (I − βP)⁻¹  (the "dying-walk" PPR).
//! ```
//!
//! The exact solver's eigenvector formulation with strongly-preferential
//! dangling redistribution has fixed point `p = β(pP + (p·d)c) + (1−β)c`,
//! which solves to `p ∝ c (I − βP)⁻¹` — i.e. **the exact score is the
//! L1-normalization of π_c**. Both the push phase and the Monte-Carlo
//! counts estimate π_c; normalizing the assembled estimate therefore
//! converges to the exact solver's output, which is what the
//! `approx_differential` suite pins (exactly at `R = 0`, within an (ε, δ)
//! additive bound otherwise).
//!
//! The per-walk step cap `H` adds a `β^H` truncation bias; `R` controls the
//! Chernoff-style additive error of the residual-closing term. Since each
//! walk visits any single node at most `H + 1` times, Hoeffding gives
//! `P(|π̂(v) − π(v)| > ε) ≤ 2·exp(−2 R ε² / ((1−β)²(H+1)²))` per node for a
//! pure-MC estimate; the push phase shrinks the residual mass the MC term
//! has to cover, tightening the bound by the same factor.
//!
//! ## Determinism
//!
//! Every random draw is made from a [`SmallRng`] freshly seeded by a pure
//! mix of `(master seed, source, walk index, hop)`, so the simulation is a
//! pure function of `(graph, config)` — independent of thread count, batch
//! geometry, and processing order. The cache file embeds all simulation
//! parameters in its header, so rebuild-vs-reload is bit-identical too.
//! A query adds every term in a fixed order on one thread (see
//! [`ApproxPpr`]), so its answer does not depend on the thread count
//! either.

use std::fmt;
use std::ops::Range;
use std::path::Path;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::convergence::IterationStats;
use crate::rankvec::RankVector;
use crate::teleport::{Teleport, TeleportError};
use sr_graph::ids::{node_id, NodeId};
use sr_graph::walks::{WalkFileWriter, WalkMeta, WalkStore};
use sr_graph::{CsrGraph, GraphError};

/// Why an approximate-PPR operation could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum ApproxError {
    /// The walk-cache file or the underlying storage failed.
    Storage(GraphError),
    /// The seed set was degenerate (empty, out of range).
    Teleport(TeleportError),
    /// The cache was built for a different graph or configuration than the
    /// query engine it was handed to.
    CacheMismatch {
        /// What disagreed.
        message: String,
    },
}

impl fmt::Display for ApproxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApproxError::Storage(e) => write!(f, "walk-cache storage error: {e}"),
            ApproxError::Teleport(e) => write!(f, "approximate-PPR seed error: {e}"),
            ApproxError::CacheMismatch { message } => {
                write!(f, "walk cache mismatch: {message}")
            }
        }
    }
}

impl std::error::Error for ApproxError {}

impl From<GraphError> for ApproxError {
    fn from(e: GraphError) -> Self {
        ApproxError::Storage(e)
    }
}

impl From<TeleportError> for ApproxError {
    fn from(e: TeleportError) -> Self {
        ApproxError::Teleport(e)
    }
}

/// Configuration of an offline walk-cache build.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkCacheConfig {
    /// Walks simulated per source (`R`). `0` builds an empty (push-only)
    /// cache.
    pub walks: u32,
    /// Continuation probability β — must equal the β of the solves the
    /// cache approximates.
    pub beta: f64,
    /// Per-walk step cap `H` (truncation bias β^H; geometric termination
    /// ends most walks long before the cap).
    pub max_hops: u32,
    /// Master RNG seed. The cache is a pure function of `(graph, config)`.
    pub seed: u64,
    /// Sources simulated per hop-synchronous batch — bounds the walker and
    /// visit-event working set to O(batch × R) regardless of graph size.
    pub source_batch: usize,
}

impl Default for WalkCacheConfig {
    fn default() -> Self {
        WalkCacheConfig {
            walks: 32,
            beta: 0.85,
            max_hops: 64,
            seed: 0x5EED,
            source_batch: 8192,
        }
    }
}

/// SplitMix64 finalizer: the bit mixer behind every per-step seed.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// The RNG seed of one `(source, walk, hop)` step: a pure function, so the
/// simulation schedule (threads, batches) cannot influence any draw.
#[inline]
fn step_seed(master: u64, source: NodeId, walk: u32, hop: u32) -> u64 {
    mix64(
        master
            ^ mix64((u64::from(source) << 32) | u64::from(walk))
            ^ u64::from(hop).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// One source's encoded outcome: the distinct visited nodes (ascending)
/// and their aggregate visit counts, positionally matched.
type SourceVisits = (Vec<NodeId>, Vec<u32>);

/// Offline builder: simulates the walk database over a CSR walk graph and
/// writes a [`WalkStore`] file.
///
/// The simulation is *hop-synchronous*: all live walkers of a source batch
/// advance one hop per pass, each reading its current node's row straight
/// from the CSR slices. Every draw is seeded by `(seed, source, walk, hop)`
/// and the visit events are sorted before they are counted, so the order
/// walkers move in never reaches the file.
#[derive(Debug, Clone)]
pub struct WalkCacheBuilder {
    config: WalkCacheConfig,
}

impl WalkCacheBuilder {
    /// A builder with the given configuration.
    ///
    /// # Panics
    /// Panics if β is outside `[0, 1)`, `source_batch` is 0, or
    /// `walks × (max_hops + 1)` overflows the `u32` visit counters.
    pub fn new(config: WalkCacheConfig) -> Self {
        assert!(
            (0.0..1.0).contains(&config.beta),
            "beta must be in [0,1), got {}",
            config.beta
        );
        assert!(config.source_batch > 0, "source_batch must be positive");
        assert!(
            u64::from(config.walks) * (u64::from(config.max_hops) + 1) <= u64::from(u32::MAX),
            "walks x (max_hops + 1) must fit the u32 visit counters"
        );
        WalkCacheBuilder { config }
    }

    /// Simulates the cache for `graph` (stored rows = walker out-edges) and
    /// writes it to `path`, returning the opened store.
    pub fn build(&self, graph: &CsrGraph, path: &Path) -> Result<WalkStore, ApproxError> {
        let n = graph.num_nodes();
        let meta = WalkMeta {
            num_nodes: n,
            walks: u64::from(self.config.walks),
            beta_bits: self.config.beta.to_bits(),
            rng_seed: self.config.seed,
            max_hops: u64::from(self.config.max_hops),
        };
        let mut writer = WalkFileWriter::create(path, meta)?;
        let mut lo = 0usize;
        while lo < n {
            let hi = (lo + self.config.source_batch).min(n);
            // One coarse task per worker, each simulating a contiguous
            // source sub-range with its own scratch. Per-source output is a
            // pure function of (graph, config, source), so the split is
            // invisible in the result.
            let bounds = sr_par::even_bounds(hi - lo, sr_par::num_threads());
            let parts: Vec<Vec<SourceVisits>> = sr_par::map_tasks(bounds.len() - 1, |part| {
                self.simulate_sources(graph, lo + bounds[part]..lo + bounds[part + 1])
            });
            for part in parts {
                for (support, counts) in part {
                    writer.write_source(&support, &counts)?;
                }
            }
            lo = hi;
        }
        Ok(writer.finish()?)
    }

    /// Simulates all walks for the sources in `range`, returning each
    /// source's `(support, counts)` in ascending source order.
    fn simulate_sources(&self, graph: &CsrGraph, range: Range<usize>) -> Vec<SourceVisits> {
        let cfg = &self.config;
        let lo = range.start;
        let walks = cfg.walks as usize;
        // Live walkers as parallel vectors; `events` records every visit as
        // a (source-relative, node) pair, aggregated at the end.
        let mut cur: Vec<NodeId> = Vec::with_capacity(range.len() * walks);
        let mut src: Vec<NodeId> = Vec::with_capacity(range.len() * walks);
        let mut wix: Vec<u32> = Vec::with_capacity(range.len() * walks);
        let mut events: Vec<(u32, NodeId)> = Vec::new();
        for u in range.clone() {
            let u_id = node_id(u);
            let rel = node_id(u - lo);
            for w in 0..cfg.walks {
                cur.push(u_id);
                src.push(u_id);
                wix.push(w);
                events.push((rel, u_id));
            }
        }
        for hop in 0..cfg.max_hops {
            if cur.is_empty() {
                break;
            }
            // Advance every walker one hop, compacting the dead out of the
            // parallel vectors in place.
            let mut keep = 0usize;
            for i in 0..cur.len() {
                let nbrs = graph.neighbors(cur[i]);
                if nbrs.is_empty() {
                    continue; // dangling: the walk dies (substochastic mass)
                }
                let mut rng = SmallRng::seed_from_u64(step_seed(cfg.seed, src[i], wix[i], hop));
                if rng.gen::<f64>() >= cfg.beta {
                    continue; // geometric termination
                }
                let nxt = nbrs[rng.gen_range(0..nbrs.len())];
                events.push((src[i] - node_id(lo), nxt));
                cur[keep] = nxt;
                src[keep] = src[i];
                wix[keep] = wix[i];
                keep += 1;
            }
            cur.truncate(keep);
            src.truncate(keep);
            wix.truncate(keep);
        }
        // Aggregate: sort events and run-length encode per (source, node).
        events.sort_unstable();
        let mut out: Vec<(Vec<NodeId>, Vec<u32>)> = Vec::with_capacity(range.len());
        out.resize_with(range.len(), || (Vec::new(), Vec::new()));
        let mut i = 0usize;
        while i < events.len() {
            let (rel, node) = events[i];
            let mut j = i + 1;
            while j < events.len() && events[j] == (rel, node) {
                j += 1;
            }
            let count = u32::try_from(j - i).expect("visit count bounded by walks x (max_hops+1)");
            let seg = &mut out[rel as usize];
            seg.0.push(node);
            seg.1.push(count);
            i = j;
        }
        out
    }
}

/// Configuration of one approximate query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryConfig {
    /// Push phase target: rounds continue until the total residual mass is
    /// at most this (the remaining residual is closed by the cached walks,
    /// so ε bounds the mass estimated by Monte-Carlo rather than exactly).
    pub epsilon: f64,
    /// Safety cap on push rounds (each round shrinks the residual by at
    /// least a factor β, so `ln ε / ln β` rounds suffice).
    pub max_rounds: usize,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            epsilon: 1e-3,
            max_rounds: 10_000,
        }
    }
}

/// Query-time engine: assembles cached walk visits for a seed set and
/// sharpens the estimate with residual-push refinement.
///
/// `graph` must be the walk graph the cache was built on (stored rows =
/// walker out-edges); for spam proximity that is the *transposed*
/// structural source graph. A query runs on the calling thread: every
/// round pushes the frontier in ascending id order, and the closing adds
/// the cached visits in place, source ascending and then support
/// ascending. Each score is therefore the plain sequential sum, whatever
/// the thread count.
#[derive(Debug)]
pub struct ApproxPpr<'a> {
    graph: &'a CsrGraph,
    cache: &'a WalkStore,
}

impl<'a> ApproxPpr<'a> {
    /// Binds a walk cache to its graph, validating that the node counts
    /// agree.
    pub fn new(graph: &'a CsrGraph, cache: &'a WalkStore) -> Result<Self, ApproxError> {
        if graph.num_nodes() != cache.num_nodes() {
            return Err(ApproxError::CacheMismatch {
                message: format!(
                    "graph has {} nodes, cache was built for {}",
                    graph.num_nodes(),
                    cache.num_nodes()
                ),
            });
        }
        Ok(ApproxPpr { graph, cache })
    }

    /// The bound cache.
    pub fn cache(&self) -> &WalkStore {
        self.cache
    }

    /// Approximate PPR for a uniform teleport over `seeds`, L1-normalized
    /// to match the exact eigenvector solve. The returned stats report push
    /// rounds as iterations and the residual mass handed to the Monte-Carlo
    /// term as the final residual.
    pub fn query(&self, seeds: &[u32], config: &QueryConfig) -> Result<RankVector, ApproxError> {
        let n = self.graph.num_nodes();
        let teleport = Teleport::try_over_seeds(n, seeds)?;
        let beta = self.cache.meta().beta();
        let mut p = vec![0.0f64; n];
        let mut r = teleport.to_dense(n);
        let mut next = vec![0.0f64; n];
        let mut frontier: Vec<NodeId> = sr_graph::ids::node_range(n)
            .filter(|&u| r[u as usize] > 0.0)
            .collect();
        let mut residual_total: f64 = frontier.iter().map(|&u| r[u as usize]).sum();
        let mut history = Vec::new();
        while residual_total > config.epsilon
            && history.len() < config.max_rounds
            && !frontier.is_empty()
        {
            // One Jacobi push round, frontier ascending: settle (1-β)·r on
            // every frontier node, hand β·r/deg to its stored neighbors
            // (dangling mass dies — the normalization at the end restores
            // it, exactly like the strongly-preferential solver's
            // redistribution).
            for &u in &frontier {
                let ru = std::mem::take(&mut r[u as usize]);
                p[u as usize] += (1.0 - beta) * ru;
                let nbrs = self.graph.neighbors(u);
                if !nbrs.is_empty() {
                    let share = beta * ru / nbrs.len() as f64;
                    for &v in nbrs {
                        next[v as usize] += share;
                    }
                }
            }
            // One ascending scan of `next` hands it over as the residual
            // and rebuilds the frontier and the residual total.
            frontier.clear();
            residual_total = 0.0;
            for (v, x) in sr_graph::ids::node_range(n).zip(next.iter_mut()) {
                if *x != 0.0 {
                    r[v as usize] = std::mem::take(x);
                    residual_total += r[v as usize];
                    frontier.push(v);
                }
            }
            history.push(residual_total);
        }
        // Close the remaining residual with the cached walks: the walks
        // from u estimate π_u, and π_c = Σ_u r(u)·π_u for the residual
        // measure r by linearity.
        if residual_total > 0.0 {
            self.close_with_walks(beta, &mut p, &r, &frontier)?;
        }
        let sum: f64 = p.iter().sum();
        if sum > 0.0 {
            for x in &mut p {
                *x /= sum;
            }
        }
        let stats = IterationStats {
            iterations: history.len(),
            final_residual: residual_total,
            converged: residual_total <= config.epsilon,
            residual_history: history,
        };
        Ok(RankVector::new(p, stats))
    }

    /// Adds the Monte-Carlo estimate of the residual measure to `p` in
    /// place, source ascending and then support ascending (the file's row
    /// order), reading from the store's resident [`sr_graph::WalkTable`]
    /// (decoded once per store, on the first closing that needs it).
    fn close_with_walks(
        &self,
        beta: f64,
        p: &mut [f64],
        r: &[f64],
        frontier: &[NodeId],
    ) -> Result<(), GraphError> {
        let walks = self.cache.meta().walks;
        if walks == 0 || frontier.is_empty() {
            return Ok(());
        }
        let scale = (1.0 - beta) / walks as f64;
        let table = self.cache.table()?;
        for &u in frontier {
            let ru = r[u as usize] * scale;
            let (support, counts) = table.visits(u);
            for (v, cnt) in support.iter().zip(counts) {
                p[*v as usize] += ru * f64::from(*cnt);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::PageRank;
    use sr_graph::transpose::transpose;
    use sr_graph::{CsrGraph, GraphBuilder};
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sr_approx");
        std::fs::create_dir_all(&dir).ok();
        dir.join(format!("{tag}.walks"))
    }

    /// Ring with chords and a dangling tail — small but irregular.
    fn fixture() -> CsrGraph {
        let mut edges = Vec::new();
        let n = 12u32;
        for u in 0..n - 2 {
            edges.push((u, (u + 1) % (n - 2)));
            if u % 3 == 0 {
                edges.push((u, (u + 5) % (n - 2)));
            }
        }
        edges.push((3, n - 2));
        edges.push((n - 2, n - 1)); // n-1 is dangling
        GraphBuilder::from_edges_exact(n as usize, edges).unwrap()
    }

    /// The exact oracle: seed-personalized PageRank over the walk graph
    /// `rev`, at the caches' default β.
    fn exact_ppr(rev: &CsrGraph, seeds: &[u32]) -> RankVector {
        PageRank::builder()
            .alpha(WalkCacheConfig::default().beta)
            .teleport(Teleport::try_over_seeds(rev.num_nodes(), seeds).unwrap())
            .finish()
            .rank(rev)
    }

    #[test]
    fn push_only_matches_exact_solver() {
        let g = fixture();
        let rev = transpose(&g);
        let cache = WalkCacheBuilder::new(WalkCacheConfig {
            walks: 0,
            ..Default::default()
        })
        .build(&rev, &tmp("push_only"))
        .unwrap();
        let engine = ApproxPpr::new(&rev, &cache).unwrap();
        let q = QueryConfig {
            epsilon: 1e-12,
            ..Default::default()
        };
        for seeds in [vec![0u32], vec![3, 7], vec![11]] {
            let approx = engine.query(&seeds, &q).unwrap();
            let exact = exact_ppr(&rev, &seeds);
            for (a, e) in approx.scores().iter().zip(exact.scores()) {
                assert!(
                    (a - e).abs() <= 1e-8,
                    "seeds {seeds:?}: approx {a} vs exact {e}"
                );
            }
        }
    }

    #[test]
    fn walks_tighten_a_loose_push() {
        let g = fixture();
        let rev = transpose(&g);
        let exact = exact_ppr(&rev, &[0]);
        let q = QueryConfig {
            epsilon: 0.5, // barely any pushing: the walks must carry it
            ..Default::default()
        };
        let err_of = |walks: u32| {
            let cache = WalkCacheBuilder::new(WalkCacheConfig {
                walks,
                ..Default::default()
            })
            .build(&rev, &tmp(&format!("tighten_{walks}")))
            .unwrap();
            let approx = ApproxPpr::new(&rev, &cache)
                .unwrap()
                .query(&[0], &q)
                .unwrap();
            approx
                .scores()
                .iter()
                .zip(exact.scores())
                .map(|(a, e)| (a - e).abs())
                .fold(0.0f64, f64::max)
        };
        let coarse = err_of(8);
        let fine = err_of(512);
        assert!(
            fine < coarse,
            "more walks must reduce error: R=8 {coarse} vs R=512 {fine}"
        );
        assert!(fine < 0.02, "R=512 should land close, got {fine}");
    }

    #[test]
    fn cache_is_deterministic_across_thread_counts() {
        let g = fixture();
        let rev = transpose(&g);
        let build = |tag: &str, threads: usize| {
            sr_par::with_threads(threads, || {
                WalkCacheBuilder::new(WalkCacheConfig {
                    walks: 16,
                    source_batch: 3, // force several batches
                    ..Default::default()
                })
                .build(&rev, &tmp(tag))
                .unwrap()
            })
        };
        drop(build("det_t1", 1));
        drop(build("det_t8", 8));
        let a = std::fs::read(tmp("det_t1")).unwrap();
        let b = std::fs::read(tmp("det_t8")).unwrap();
        assert_eq!(a, b, "cache bytes must not depend on thread count");
    }

    #[test]
    fn mismatched_cache_is_rejected() {
        let g = fixture();
        let rev = transpose(&g);
        let cache = WalkCacheBuilder::new(WalkCacheConfig::default())
            .build(&rev, &tmp("mismatch"))
            .unwrap();
        let smaller = GraphBuilder::from_edges_exact(3, vec![(0, 1)]).unwrap();
        assert!(matches!(
            ApproxPpr::new(&smaller, &cache),
            Err(ApproxError::CacheMismatch { .. })
        ));
    }

    #[test]
    fn degenerate_seeds_are_typed_errors() {
        let g = fixture();
        let rev = transpose(&g);
        let cache = WalkCacheBuilder::new(WalkCacheConfig::default())
            .build(&rev, &tmp("degenerate"))
            .unwrap();
        let engine = ApproxPpr::new(&rev, &cache).unwrap();
        assert!(matches!(
            engine.query(&[], &QueryConfig::default()),
            Err(ApproxError::Teleport(TeleportError::EmptySeeds))
        ));
        assert!(matches!(
            engine.query(&[99], &QueryConfig::default()),
            Err(ApproxError::Teleport(TeleportError::SeedOutOfRange { .. }))
        ));
        // A duplicate from the wire must be rejected, not set-collapsed: the
        // collapsed distribution would put 1/2 mass on each distinct seed
        // where the client asked for 1/3.
        assert!(matches!(
            engine.query(&[0, 1, 0], &QueryConfig::default()),
            Err(ApproxError::Teleport(TeleportError::DuplicateSeed {
                seed: 0
            }))
        ));
    }
}
