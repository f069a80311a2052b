//! Extension experiment: ranking stability under benign perturbation.
//!
//! §6.3 remarks that "PageRank has typically been thought to provide fairly
//! stable rankings (e.g., \[27\])" — Ng, Zheng & Jordan's stability analysis —
//! before showing how *adversarial* perturbations break it. This experiment
//! completes the picture from the benign side: delete a random fraction of
//! hyperlinks (crawl noise, dead links) and measure how much each ranking
//! reshuffles, via Kendall τ, Spearman ρ and top-k overlap. Source-level
//! rankings should be *more* stable than page-level ones (aggregation
//! absorbs page-level noise) — quantified here.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sr_core::metrics::{kendall_tau, spearman_rho, top_k_overlap};
use sr_core::{PageRank, SourceRank};
use sr_graph::source_graph::{extract, SourceGraphConfig};
use sr_graph::{CsrGraph, GraphBuilder};

use crate::datasets::{EvalConfig, EvalDataset};
use crate::report::Table;

/// Stability of one ranking under one perturbation level.
#[derive(Debug, Clone)]
pub struct StabilityRow {
    /// Fraction of hyperlinks deleted.
    pub drop_fraction: f64,
    /// Spearman ρ between clean and perturbed page-level PageRank.
    pub pagerank_rho: f64,
    /// Top-50 overlap for PageRank.
    pub pagerank_top50: f64,
    /// Kendall τ between clean and perturbed SourceRank.
    pub sourcerank_tau: f64,
    /// Spearman ρ for SourceRank.
    pub sourcerank_rho: f64,
    /// Top-50 overlap for SourceRank.
    pub sourcerank_top50: f64,
}

/// Deletes each edge independently with probability `p` (deterministic per
/// seed), preserving the node count.
pub fn drop_edges(graph: &CsrGraph, p: f64, seed: u64) -> CsrGraph {
    assert!((0.0..1.0).contains(&p), "drop probability in [0,1)");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_nodes(graph.num_nodes());
    for (u, v) in graph.edges() {
        if rng.gen::<f64>() >= p {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Runs the stability sweep.
pub fn run(ds: &EvalDataset, cfg: &EvalConfig, fractions: &[f64]) -> Vec<StabilityRow> {
    let pr_clean = PageRank::default().rank(&ds.crawl.pages);
    let sr_clean = SourceRank::new().rank(&ds.sources);
    let mut rows = Vec::new();
    for &p in fractions {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "p is an edge-drop fraction in [0, 1], so p * 1e6 fits u64; it only salts the seed"
        )]
        let perturbed = drop_edges(&ds.crawl.pages, p, cfg.seed ^ (p * 1e6) as u64);
        let pr = PageRank::default().rank(&perturbed);
        let sg = extract(
            &perturbed,
            &ds.crawl.assignment,
            SourceGraphConfig::consensus(),
        )
        .expect("assignment still covers the graph");
        let sr = SourceRank::new().rank(&sg);
        rows.push(StabilityRow {
            drop_fraction: p,
            // Kendall tau is O(n^2); fine for sources, too slow for pages.
            pagerank_rho: spearman_rho(pr_clean.scores(), pr.scores()),
            pagerank_top50: top_k_overlap(&pr_clean, &pr, 50),
            sourcerank_tau: kendall_tau(sr_clean.scores(), sr.scores()),
            sourcerank_rho: spearman_rho(sr_clean.scores(), sr.scores()),
            sourcerank_top50: top_k_overlap(&sr_clean, &sr, 50),
        });
    }
    rows
}

/// Renders the sweep.
pub fn table(rows: &[StabilityRow], dataset: &str) -> Table {
    let mut t = Table::new(
        format!("Extension: ranking stability under random link deletion ({dataset})"),
        vec![
            "Links dropped",
            "PR Spearman",
            "PR top-50 overlap",
            "SR Kendall",
            "SR Spearman",
            "SR top-50 overlap",
        ],
    );
    for r in rows {
        t.push_row(vec![
            format!("{:.0}%", r.drop_fraction * 100.0),
            format!("{:.4}", r.pagerank_rho),
            format!("{:.2}", r.pagerank_top50),
            format!("{:.4}", r.sourcerank_tau),
            format!("{:.4}", r.sourcerank_rho),
            format!("{:.2}", r.sourcerank_top50),
        ]);
    }
    t
}

/// Default deletion fractions.
pub fn default_fractions() -> Vec<f64> {
    vec![0.01, 0.05, 0.10, 0.25]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_gen::Dataset;

    #[test]
    fn drop_edges_removes_roughly_p() {
        let ds = EvalDataset::load(Dataset::Uk2002, 0.001);
        let g = drop_edges(&ds.crawl.pages, 0.2, 7);
        let kept = g.num_edges() as f64 / ds.crawl.pages.num_edges() as f64;
        assert!((kept - 0.8).abs() < 0.02, "kept fraction {kept}");
        assert_eq!(g.num_nodes(), ds.crawl.pages.num_nodes());
    }

    #[test]
    fn stability_degrades_gracefully_and_sources_are_stabler() {
        let cfg = EvalConfig {
            scale: 0.001,
            ..Default::default()
        };
        let ds = EvalDataset::load(Dataset::Uk2002, cfg.scale);
        let rows = run(&ds, &cfg, &[0.05, 0.25]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.sourcerank_rho > 0.5, "source ranking collapsed: {r:?}");
            assert!(r.pagerank_rho > 0.3, "page ranking collapsed: {r:?}");
        }
        // More noise, less correlation.
        assert!(rows[1].sourcerank_rho <= rows[0].sourcerank_rho + 1e-9);
        // Aggregation absorbs noise: source-level correlation >= page-level.
        for r in &rows {
            assert!(
                r.sourcerank_rho >= r.pagerank_rho - 0.05,
                "sources less stable than pages: {r:?}"
            );
        }
    }
}
