//! The writer-side epoch step, factored out of the server.
//!
//! A serving epoch is one deterministic transformation: fold a
//! [`CrawlDelta`] through the [`IncrementalRanker`], recompute spam
//! proximity on the maintained source graph, derive the next epoch's
//! throttle vector from its top-k, and package the refreshed vectors (plus
//! the materialized page graph) as a [`RankSnapshot`].
//!
//! The engine folds its overlay every epoch (`compact_threshold` 0.0), so
//! the ranker's base graph *is* the epoch's graph: the snapshot shares it
//! rather than copying it, and [`EpochEngine::epoch_graph`] hands the
//! graph with its operator to the exact-PPR panel solver.
//!
//! It lives in its own type — not inlined in the ingest thread — because the
//! loopback parity suite replays *the same* sequence offline: feed an
//! identical delta stream to a second [`EpochEngine`] with no server around
//! it and every published vector must match the served ones **bitwise**.
//! Any drift between the online and offline paths is a bug in exactly one
//! place.

use std::path::Path;
use std::sync::Arc;

use sr_core::convergence::ConvergenceCriteria;
use sr_core::operator::UniformTransition;
use sr_core::{
    ApproxError, IncrementalConfig, IncrementalRanker, PageRank, RankSnapshot, SpamProximity,
    TeleportError, ThrottleVector, WalkCacheConfig,
};
use sr_graph::{CrawlDelta, CsrGraph, GraphError, SourceAssignment};

/// Configuration of the serving engine's solves.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Damping / continuation parameter shared by every solve (paper 0.85).
    pub alpha: f64,
    /// Stopping rule shared by every solve.
    pub criteria: ConvergenceCriteria,
    /// Sources throttled per epoch (the top-k of spam proximity).
    pub throttle_k: usize,
    /// Walks per node of the startup walk cache (0 = push-only cache).
    pub cache_walks: u32,
    /// Per-walk hop cap of the walk cache.
    pub cache_max_hops: u32,
    /// RNG seed of the walk cache build.
    pub cache_seed: u64,
    /// Overlay compaction threshold (patched-row fraction). The serving
    /// default 0.0 folds every epoch: publishing needs the epoch's CSR
    /// anyway, so a fold costs one operator build, and the snapshot and the
    /// exact panels share the folded graph and its operator. A positive
    /// threshold keeps patches across epochs and materializes a copy of
    /// the graph per publish; `1.0` never folds.
    pub compact_threshold: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            alpha: 0.85,
            criteria: ConvergenceCriteria::default(),
            throttle_k: 4,
            cache_walks: 32,
            cache_max_hops: 32,
            cache_seed: 0x5eed,
            compact_threshold: 0.0,
        }
    }
}

/// Failures of the seed solve or an epoch step.
#[derive(Debug)]
pub enum EngineError {
    /// Graph-substrate failure (invalid delta, I/O of the walk cache…).
    Graph(GraphError),
    /// Spam-proximity solve rejected its seed set.
    Proximity(TeleportError),
    /// Walk-cache build or query-engine construction failed.
    Approx(ApproxError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Graph(e) => write!(f, "graph: {e}"),
            EngineError::Proximity(e) => write!(f, "proximity: {e}"),
            EngineError::Approx(e) => write!(f, "approx: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<GraphError> for EngineError {
    fn from(e: GraphError) -> Self {
        EngineError::Graph(e)
    }
}

impl From<TeleportError> for EngineError {
    fn from(e: TeleportError) -> Self {
        EngineError::Proximity(e)
    }
}

impl From<ApproxError> for EngineError {
    fn from(e: ApproxError) -> Self {
        EngineError::Approx(e)
    }
}

/// The deterministic epoch-step machine. One per server (owned by the
/// ingest thread) — and one per offline replay in the parity suite.
pub struct EpochEngine {
    ranker: IncrementalRanker,
    prox: SpamProximity,
    spam_seeds: Vec<u32>,
    throttle_k: usize,
    epoch: u64,
    cache_pages: Arc<CsrGraph>,
    walks: Arc<sr_graph::WalkStore>,
}

impl EpochEngine {
    /// Seeds the engine: cold solves of all four vectors over `pages`, the
    /// startup walk-cache build (written to `cache_path`), and the epoch-0
    /// snapshot. `spam_seeds` is the known-spam source set driving
    /// proximity and throttling; it must be non-empty, duplicate-free and
    /// in range (the typed errors of the query path surface any violation).
    pub fn seed(
        pages: CsrGraph,
        assignment: &SourceAssignment,
        spam_seeds: Vec<u32>,
        config: &EngineConfig,
        cache_path: &Path,
    ) -> Result<(Self, RankSnapshot), EngineError> {
        let inc = IncrementalConfig {
            alpha: config.alpha,
            criteria: config.criteria,
            compact_threshold: config.compact_threshold,
        };
        let mut ranker = IncrementalRanker::new(pages, assignment, inc)?;
        let prox = SpamProximity::new()
            .beta(config.alpha)
            .criteria(config.criteria);

        let sg = ranker.source_graph();
        let proximity = prox.scores(&sg, &spam_seeds)?;
        ranker.set_throttle(ThrottleVector::top_k_complete(
            proximity.scores(),
            config.throttle_k,
        ));
        let (pagerank, sourcerank, resilient) = ranker.rerank(None);

        let pages = current_pages(&ranker);
        let cache_cfg = WalkCacheConfig {
            walks: config.cache_walks,
            beta: config.alpha,
            max_hops: config.cache_max_hops,
            seed: config.cache_seed,
            ..Default::default()
        };
        let walks = Arc::new(
            PageRank::builder()
                .alpha(config.alpha)
                .criteria(config.criteria)
                .finish()
                .build_walk_cache(&pages, cache_cfg, cache_path)?,
        );

        let snapshot = RankSnapshot {
            epoch: 0,
            applied_seq: 0,
            pagerank,
            sourcerank,
            resilient,
            proximity,
            pages: Arc::clone(&pages),
            cache_pages: Arc::clone(&pages),
            walks: Arc::clone(&walks),
            compactions: 0,
        };
        let engine = EpochEngine {
            ranker,
            prox,
            spam_seeds,
            throttle_k: config.throttle_k,
            epoch: 0,
            cache_pages: pages,
            walks,
        };
        Ok((engine, snapshot))
    }

    /// Folds one delta and produces the next epoch's snapshot. `seq` is the
    /// ingest sequence number recorded as `applied_seq`.
    ///
    /// The resilient vector of the produced snapshot is solved under the
    /// throttle derived from the *previous* epoch's proximity — the freshly
    /// recomputed proximity updates the throttle for the *next* step. On
    /// `Err` the engine is unchanged (the ranker validates before
    /// mutating).
    pub fn step(&mut self, seq: u64, delta: &CrawlDelta) -> Result<RankSnapshot, EngineError> {
        let out = self.ranker.apply(delta, None)?;
        let sg = self.ranker.source_graph();
        let proximity = self.prox.scores(&sg, &self.spam_seeds)?;
        self.ranker.set_throttle(ThrottleVector::top_k_complete(
            proximity.scores(),
            self.throttle_k,
        ));
        self.epoch += 1;
        Ok(RankSnapshot {
            epoch: self.epoch,
            applied_seq: seq,
            pagerank: out.pagerank,
            sourcerank: out.sourcerank,
            resilient: out.resilient,
            proximity,
            pages: current_pages(&self.ranker),
            cache_pages: Arc::clone(&self.cache_pages),
            walks: Arc::clone(&self.walks),
            compactions: u64::try_from(self.ranker.compactions()).unwrap_or(u64::MAX),
        })
    }

    /// The current epoch's page graph and its PageRank operator, when the
    /// ranker's overlay is clean (always, at the default
    /// `compact_threshold` 0.0). The graph is the `Arc` the last snapshot
    /// published as `pages`.
    pub fn epoch_graph(&self) -> Option<(Arc<CsrGraph>, Arc<UniformTransition>)> {
        self.ranker
            .epoch_graph()
            .map(|(graph, op)| (Arc::clone(graph), Arc::clone(op)))
    }

    /// Epochs stepped so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Pages after every step so far.
    pub fn num_pages(&self) -> usize {
        self.ranker.num_pages()
    }

    /// Sources after every step so far.
    pub fn num_sources(&self) -> usize {
        self.ranker.num_sources()
    }
}

/// The ranker's current page graph: its shared base when the overlay is
/// clean, else a materialized copy.
fn current_pages(ranker: &IncrementalRanker) -> Arc<CsrGraph> {
    match ranker.epoch_graph() {
        Some((graph, _)) => Arc::clone(graph),
        None => Arc::new(ranker.graph().to_csr()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_gen::{generate, CrawlConfig, CrawlDeltaProducer, ProducerConfig};
    use sr_graph::NodeId;

    fn cache_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "sr_serve_engine_{tag}_{}.walks",
            std::process::id()
        ))
    }

    fn bits(v: &sr_core::RankVector) -> Vec<u64> {
        v.scores().iter().map(|s| s.to_bits()).collect()
    }

    /// All four vectors and the page graph of two snapshots, bitwise.
    fn assert_same_snapshot(a: &RankSnapshot, b: &RankSnapshot, what: &str) {
        assert_eq!(bits(&a.pagerank), bits(&b.pagerank), "{what}");
        assert_eq!(bits(&a.sourcerank), bits(&b.sourcerank), "{what}");
        assert_eq!(bits(&a.resilient), bits(&b.resilient), "{what}");
        assert_eq!(bits(&a.proximity), bits(&b.proximity), "{what}");
        assert_eq!(a.pages.as_ref(), b.pages.as_ref(), "{what}");
    }

    #[test]
    fn replayed_streams_produce_bitwise_identical_snapshots() {
        let crawl = generate(&CrawlConfig::tiny(21));
        let seeds = crawl.sample_spam_seed(3, 77);
        let cfg = EngineConfig {
            cache_walks: 4,
            ..Default::default()
        };
        let (mut a, snap_a) = EpochEngine::seed(
            crawl.pages.clone(),
            &crawl.assignment,
            seeds.clone(),
            &cfg,
            &cache_path("a"),
        )
        .unwrap();
        let (mut b, snap_b) = EpochEngine::seed(
            crawl.pages.clone(),
            &crawl.assignment,
            seeds,
            &cfg,
            &cache_path("b"),
        )
        .unwrap();
        assert_eq!(bits(&snap_a.pagerank), bits(&snap_b.pagerank));

        let mut pa = CrawlDeltaProducer::from_crawl(&crawl, ProducerConfig::tiny(5));
        let mut pb = CrawlDeltaProducer::from_crawl(&crawl, ProducerConfig::tiny(5));
        for seq in 1..=6u64 {
            let sa = a.step(seq, &pa.next_delta()).unwrap();
            let sb = b.step(seq, &pb.next_delta()).unwrap();
            assert_eq!(sa.epoch, seq);
            assert_eq!(sa.applied_seq, seq);
            assert_same_snapshot(&sa, &sb, &format!("seq {seq}"));
        }
        assert_eq!(a.epoch(), 6);
    }

    #[test]
    fn failed_deltas_leave_the_engine_unchanged() {
        let crawl = generate(&CrawlConfig::tiny(13));
        let seeds = crawl.sample_spam_seed(2, 5);
        let cfg = EngineConfig {
            cache_walks: 0,
            ..Default::default()
        };
        let seed = |tag: &str| {
            let path = cache_path(tag);
            EpochEngine::seed(
                crawl.pages.clone(),
                &crawl.assignment,
                seeds.clone(),
                &cfg,
                &path,
            )
            .unwrap()
            .0
        };
        // `twin` sees only the valid deltas.
        let (mut eng, mut twin) = (seed("failed"), seed("twin"));
        let mut producer = CrawlDeltaProducer::from_crawl(&crawl, ProducerConfig::tiny(3));
        let mut twin_producer = CrawlDeltaProducer::from_crawl(&crawl, ProducerConfig::tiny(3));
        for seq in 1..=3u64 {
            let (pages, sources) = (eng.num_pages(), eng.num_sources());
            let page = |i: usize| NodeId::try_from(i).unwrap();
            // Each bad delta leads with a valid edge, so a partial apply
            // would show.
            let mut bad_edge = CrawlDelta::new();
            bad_edge.graph.add_edge(0, 1);
            bad_edge.graph.add_edge(1, page(pages + 5));
            let mut bad_len = CrawlDelta::new();
            bad_len.graph.add_edge(0, 1);
            bad_len.graph.add_nodes(2);
            bad_len.new_page_sources = vec![0];
            let mut bad_source = CrawlDelta::new();
            bad_source.graph.add_edge(0, 1);
            bad_source.graph.add_nodes(1);
            bad_source.new_page_sources = vec![page(sources + 3)];
            let refusals = [
                GraphError::NodeOutOfRange {
                    node: page(pages + 5),
                    num_nodes: pages,
                },
                GraphError::AssignmentLengthMismatch {
                    graph_pages: 2,
                    assignment_pages: 1,
                },
                GraphError::SourceOutOfRange {
                    source: page(sources + 3),
                    num_sources: sources,
                },
            ];
            for (bad, want) in [bad_edge, bad_len, bad_source].iter().zip(refusals) {
                let what = format!("{want:?}");
                match eng.step(seq, bad) {
                    Err(EngineError::Graph(e)) => assert_eq!(e, want),
                    Err(e) => panic!("{what}: refused for another reason: {e}"),
                    Ok(_) => panic!("{what}: a bad delta was applied"),
                }
                assert_eq!(eng.epoch(), seq - 1, "{what} moved the epoch");
                assert_eq!(eng.num_pages(), pages, "{what} moved the pages");
                assert_eq!(eng.num_sources(), sources, "{what} moved the sources");
            }
            let got = eng.step(seq, &producer.next_delta()).unwrap();
            let want = twin.step(seq, &twin_producer.next_delta()).unwrap();
            assert_eq!(got.epoch, want.epoch);
            assert_same_snapshot(&got, &want, &format!("valid step {seq} after bad deltas"));
        }
    }

    #[test]
    fn snapshots_track_the_growing_graph() {
        let crawl = generate(&CrawlConfig::tiny(8));
        let seeds = crawl.sample_spam_seed(2, 1);
        // 0.0 folds every epoch and shares the folded base; 1.0 never folds
        // and materializes the overlay per publish.
        for compact_threshold in [0.0, 1.0] {
            let cfg = EngineConfig {
                cache_walks: 0,
                compact_threshold,
                ..Default::default()
            };
            let (mut eng, seed_snap) = EpochEngine::seed(
                crawl.pages.clone(),
                &crawl.assignment,
                seeds.clone(),
                &cfg,
                &cache_path("grow"),
            )
            .unwrap();
            assert_eq!(seed_snap.num_pages(), crawl.num_pages());
            assert_eq!(seed_snap.pages.as_ref(), &crawl.pages);
            let mut producer = CrawlDeltaProducer::from_crawl(&crawl, ProducerConfig::tiny(2));
            let mut pages = crawl.num_pages();
            for seq in 1..=4u64 {
                let what = format!("threshold {compact_threshold}, seq {seq}");
                let d = producer.next_delta();
                pages += d.graph.new_nodes();
                let snap = eng.step(seq, &d).unwrap();
                assert_eq!(snap.num_pages(), pages, "{what}");
                assert_eq!(snap.pages.num_nodes(), pages, "{what}");
                assert_eq!(snap.pages.as_ref(), &eng.ranker.graph().to_csr(), "{what}");
                // The shared pair exists exactly when the overlay folded.
                match eng.epoch_graph() {
                    Some((graph, _)) => {
                        assert_eq!(compact_threshold, 0.0, "{what}");
                        assert!(Arc::ptr_eq(&graph, &snap.pages), "{what}");
                    }
                    None => assert_eq!(compact_threshold, 1.0, "{what}"),
                }
                // The fast-path graph stays pinned at the cache build epoch.
                assert_eq!(snap.cache_pages.num_nodes(), crawl.num_pages(), "{what}");
                assert_eq!(snap.num_sources(), eng.num_sources(), "{what}");
            }
        }
    }
}
