//! Streaming synthetic crawl generation straight to sharded disk storage.
//!
//! [`crate::webgen::generate`] materializes the whole crawl — every edge, the
//! page/source maps, spam labels — in RAM, which caps it around the tens of
//! millions of edges. This module generates a structurally Web-like page
//! graph of **arbitrary** edge count (the 100M+ regime the out-of-core solve
//! engine exists for) without ever holding the edge set: edges are emitted
//! row by row into a [`ShardedGraphBuilder`], whose external-memory sorter
//! spills fixed-size runs to disk and k-way-merges them into the varint
//! shard file. Peak memory is `O(num_nodes)` (the forward out-degree table)
//! plus the configured spill buffer — independent of edge count.
//!
//! The emitted structure keeps the two properties the ranking experiments
//! care about:
//!
//! * **heavy-tailed in-degrees** — global link targets are drawn from a
//!   truncated power law over node ids (low ids are the "old, popular"
//!   pages of a crawl ordering), so a handful of authorities collect
//!   millions of in-links;
//! * **crawl locality** — a configured fraction of links jump a short
//!   power-law distance forward in id space, mirroring the intra-site links
//!   that dominate real crawls (and that the varint gap codec compresses
//!   well).
//!
//! Everything is deterministic given the seed: same config, same bytes on
//! disk.

use std::path::Path;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::powerlaw::DegreeSampler;
use sr_graph::{GraphError, NodeId, ShardedCompressedGraph, ShardedGraphBuilder};

/// Out-degree draws come from a small inverse-CDF table; degrees above this
/// are vanishingly rare at the gammas used and the table stays O(KB).
const DEGREE_TABLE_MAX: usize = 10_000;

/// Configuration of a streamed (out-of-core) synthetic crawl.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Number of pages.
    pub num_nodes: usize,
    /// Target mean out-degree; total emitted edges ≈ `num_nodes` × this
    /// (duplicates from hot authority targets dedupe away, so the stored
    /// unique-edge count lands a few percent below the product).
    pub mean_out_degree: f64,
    /// Power-law exponent of the out-degree distribution.
    pub degree_gamma: f64,
    /// Power-law exponent of the global target distribution over node ids —
    /// smaller is heavier-tailed (stronger authority concentration).
    pub authority_gamma: f64,
    /// Fraction of links that are short forward hops instead of global
    /// authority links.
    pub locality: f64,
    /// Maximum forward hop distance of a local link.
    pub locality_window: usize,
    /// RNG seed; the whole crawl is a pure function of the config.
    pub seed: u64,
    /// Shard payload target in bytes (see `sr_graph::shard`).
    pub shard_target_bytes: usize,
    /// External-sort spill buffer in edges — the RAM/disk trade of the
    /// build; 8 bytes of buffer per edge.
    pub spill_buffer_edges: usize,
}

impl StreamConfig {
    /// A Web-like default at the given scale: mean out-degree ~13,
    /// heavy-tailed authorities, half the links crawl-local.
    pub fn with_scale(num_nodes: usize, seed: u64) -> Self {
        StreamConfig {
            num_nodes,
            mean_out_degree: 13.0,
            degree_gamma: 2.2,
            authority_gamma: 1.3,
            locality: 0.5,
            locality_window: 1 << 14,
            seed,
            shard_target_bytes: 4 << 20,
            spill_buffer_edges: 4 << 20,
        }
    }
}

/// Inverse-CDF draw from the continuous approximation of `P(k) ∝ k^-gamma`
/// over `[1, max]` — O(1) per draw with no table, which is what lets the
/// target distribution span 100M+ node ids.
#[expect(
    clippy::cast_possible_truncation,
    reason = "k lies in [1, max] up to float error; the cast saturates and the clamp pins it"
)]
fn pareto_index(u: f64, gamma: f64, max: usize) -> usize {
    let g1 = 1.0 - gamma;
    let m = max as f64;
    let k = if g1.abs() < 1e-9 {
        // gamma → 1: the CDF degenerates to log-uniform.
        m.powf(u)
    } else {
        ((m.powf(g1) - 1.0) * u + 1.0).powf(1.0 / g1)
    };
    (k as usize).clamp(1, max)
}

/// Generates the configured crawl directly into an on-disk sharded graph at
/// `path`, spilling sort runs under `work_dir`. Returns the opened
/// container (reverse adjacency + forward out-degree table), ready for
/// `sr_core`'s streamed solver.
///
/// # Errors
/// Propagates any I/O failure from the sort spill or shard write.
///
/// # Panics
/// Panics if `num_nodes` is 0 or `mean_out_degree < 1`.
pub fn generate_sharded(
    cfg: &StreamConfig,
    work_dir: &Path,
    path: &Path,
) -> Result<ShardedCompressedGraph, GraphError> {
    let n = cfg.num_nodes;
    assert!(n >= 1, "crawl must have at least one page");
    let mut builder = ShardedGraphBuilder::with_limits(
        n,
        work_dir,
        cfg.spill_buffer_edges,
        cfg.shard_target_bytes,
    )?;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let degrees = DegreeSampler::with_mean(cfg.degree_gamma, cfg.mean_out_degree, DEGREE_TABLE_MAX);
    let hop_cap = cfg.locality_window.clamp(1, n.saturating_sub(1).max(1));
    for u in 0..n {
        let src = NodeId::try_from(u).map_err(|_| GraphError::NodeOutOfRange {
            node: NodeId::MAX,
            num_nodes: n,
        })?;
        if n == 1 {
            break; // no non-self target exists
        }
        let d = degrees.sample(&mut rng).min(n - 1);
        for _ in 0..d {
            let v = if rng.gen::<f64>() < cfg.locality {
                // Short forward hop: intra-site / crawl-adjacent link.
                (u + pareto_index(rng.gen(), 1.5, hop_cap)) % n
            } else {
                // Global authority link: power law over crawl order.
                pareto_index(rng.gen(), cfg.authority_gamma, n) - 1
            };
            if v == u {
                continue;
            }
            let dst = NodeId::try_from(v).map_err(|_| GraphError::NodeOutOfRange {
                node: NodeId::MAX,
                num_nodes: n,
            })?;
            builder.add_edge(src, dst)?;
        }
    }
    builder.finish(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sr_gen_stream_{tag}_{}", std::process::id()))
    }

    fn small_cfg(seed: u64) -> StreamConfig {
        StreamConfig {
            num_nodes: 400,
            mean_out_degree: 6.0,
            degree_gamma: 2.2,
            authority_gamma: 1.3,
            locality: 0.5,
            locality_window: 32,
            seed,
            shard_target_bytes: 256,
            spill_buffer_edges: 512, // force spills + k-way merge
        }
    }

    #[test]
    fn streamed_crawl_builds_a_valid_sharded_graph() {
        let dir = tmp("valid");
        let g = generate_sharded(&small_cfg(7), &dir, &dir.join("g.shards")).unwrap();
        assert_eq!(g.num_nodes(), 400);
        assert!(g.num_edges() > 400, "got only {} edges", g.num_edges());
        assert!(g.shards().len() > 1, "tiny shard target must multi-shard");
        g.validate().unwrap();
        // Degree table is consistent with the stored edge count.
        let total: u64 = g.out_degrees().iter().map(|&d| u64::from(d)).sum();
        assert_eq!(total, g.num_edges() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_graph() {
        let (da, db, dc) = (tmp("det_a"), tmp("det_b"), tmp("det_c"));
        let a = generate_sharded(&small_cfg(11), &da, &da.join("g.shards")).unwrap();
        let b = generate_sharded(&small_cfg(11), &db, &db.join("g.shards")).unwrap();
        let c = generate_sharded(&small_cfg(12), &dc, &dc.join("g.shards")).unwrap();
        assert_eq!(
            std::fs::read(da.join("g.shards")).unwrap(),
            std::fs::read(db.join("g.shards")).unwrap(),
            "same seed must reproduce identical shard files"
        );
        assert_eq!(a.num_edges(), b.num_edges());
        assert_ne!(
            a.to_csr().unwrap(),
            c.to_csr().unwrap(),
            "different seeds must differ"
        );
        for d in [da, db, dc] {
            std::fs::remove_dir_all(&d).ok();
        }
    }

    #[test]
    fn in_degrees_are_heavy_tailed() {
        let dir = tmp("tail");
        let g = generate_sharded(&small_cfg(3), &dir, &dir.join("g.shards")).unwrap();
        let rev = g.to_csr().unwrap();
        let max_in = (0..rev.num_nodes() as u32)
            .map(|v| rev.out_degree(v))
            .max()
            .unwrap();
        let mean_in = rev.num_edges() as f64 / rev.num_nodes() as f64;
        assert!(
            max_in as f64 > 6.0 * mean_in,
            "expected authority concentration: max {max_in}, mean {mean_in:.1}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pareto_index_stays_in_range_and_favors_small() {
        for &(gamma, max) in &[(1.0, 1000usize), (1.3, 77), (2.5, 10), (1.5, 1)] {
            for i in 0..100 {
                let u = f64::from(i) / 100.0;
                let k = pareto_index(u, gamma, max);
                assert!((1..=max).contains(&k), "k={k} out of [1,{max}]");
            }
        }
        // Median draw lands far below max/2 for any heavy tail.
        assert!(pareto_index(0.5, 1.3, 1_000_000) < 1_000);
    }

    #[test]
    fn single_node_crawl_is_empty_but_valid() {
        let dir = tmp("one");
        let mut cfg = small_cfg(1);
        cfg.num_nodes = 1;
        let g = generate_sharded(&cfg, &dir, &dir.join("g.shards")).unwrap();
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.num_edges(), 0);
        g.validate().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
