//! Extension: incremental delta re-ranking vs cold rebuild.
//!
//! Drives a multi-step spam campaign through the delta path — the campaign
//! is recorded as one [`sr_graph::delta::CrawlDelta`] per step
//! (`Campaign::record_deltas`) and fed to `sr-core`'s `IncrementalRanker`,
//! which re-solves PageRank, SourceRank and SR-SourceRank by warm restart
//! after each step. Every step is also solved the seed pipeline's way
//! (rebuild CSR, re-extract the source graph, cold solves) so the report
//! shows, per step, the iteration and wall-time savings plus the maximum
//! rank divergence between the two paths.

use std::time::Instant;

use sr_core::incremental::{IncrementalConfig, IncrementalRanker};
use sr_core::{PageRank, SourceRank, SpamProximity, SpamResilientSourceRank};
use sr_graph::ids::node_id;
use sr_graph::source_graph::{extract, SourceGraphConfig};
use sr_obs::{SequenceRecorder, SolveRecord};
use sr_spam::{Campaign, Step};

use crate::datasets::{EvalConfig, EvalDataset};
use crate::report::Table;
use crate::targets::pick_page_in_source;

/// One campaign step, measured on both paths.
#[derive(Debug, Clone)]
pub struct StepRow {
    /// Short step descriptor.
    pub step: String,
    /// Pages the step added.
    pub pages_added: usize,
    /// Edges the step inserted.
    pub edges_added: usize,
    /// Page-graph rows the delta touched.
    pub touched_rows: usize,
    /// Total iterations across the three warm solves.
    pub warm_iters: usize,
    /// Total iterations across the three cold solves.
    pub cold_iters: usize,
    /// Wall time of the incremental path (apply + three warm solves).
    pub warm_secs: f64,
    /// Wall time of the rebuild path (CSR + extraction + three cold solves).
    pub cold_secs: f64,
    /// Max |incremental − rebuilt| across all three score vectors.
    pub max_divergence: f64,
    /// Whether the step folded the overlay back into CSR form.
    pub compacted: bool,
}

/// The full sweep: per-step rows plus the raw solve telemetry.
#[derive(Debug)]
pub struct DeltaRerankResult {
    /// One row per campaign step.
    pub rows: Vec<StepRow>,
    /// Telemetry of every warm solve, three per step, in solve order.
    pub records: Vec<SolveRecord>,
}

fn step_name(step: &Step) -> String {
    match step {
        Step::IntraInjection { count } => format!("intra-inject x{count}"),
        Step::CrossInjection { count, .. } => format!("cross-inject x{count}"),
        Step::Hijack { victims } => format!("hijack x{}", victims.len()),
        Step::Honeypot { pages, .. } => format!("honeypot x{pages}"),
        Step::Farm { pages, .. } => format!("farm x{pages}"),
        Step::Collusion {
            sources,
            pages_each,
        } => format!("collusion {sources}x{pages_each}"),
    }
}

/// Runs the campaign on `ds` through both the incremental and the rebuild
/// path. The throttle vector is seeded from spam proximity on the
/// pre-attack crawl, exactly as a deployed ranker would be mid-crawl.
#[expect(
    clippy::disallowed_methods,
    reason = "Instant feeds the run-report timing columns only; it never influences ranking output, ordering or serialized artifacts"
)]
pub fn run(ds: &EvalDataset, config: &EvalConfig) -> DeltaRerankResult {
    let num_sources = node_id(ds.crawl.num_sources());
    let target_source = num_sources / 2;
    let target_page = pick_page_in_source(&ds.crawl.page_ranges, target_source, config.seed);
    let victims: Vec<u32> = (0..4u32)
        .map(|i| {
            let s = (i * 3 + 1) % num_sources;
            pick_page_in_source(&ds.crawl.page_ranges, s, config.seed.wrapping_add(i as u64))
        })
        .collect();
    let campaign = Campaign::new()
        .step(Step::Farm {
            pages: 10,
            exchange: true,
        })
        .step(Step::Hijack { victims })
        .step(Step::Honeypot {
            pages: 5,
            induced_links: 8,
            seed: config.seed,
        })
        .step(Step::Collusion {
            sources: 3,
            pages_each: 2,
        })
        .step(Step::IntraInjection { count: 10 });
    let deltas = campaign.record_deltas(&ds.crawl.pages, &ds.crawl.assignment, target_page);

    let mut ranker = IncrementalRanker::new(
        ds.crawl.pages.clone(),
        &ds.crawl.assignment,
        IncrementalConfig::default(),
    )
    .expect("crawl assignment covers the page graph");
    ranker.set_throttle(
        SpamProximity::new()
            .throttle_top_k(&ds.sources, &ds.crawl.spam_sources, ds.throttle_k())
            .expect("spam-labeled dataset has a non-empty seed set"),
    );
    // Seed the warm-start vectors with the pre-attack (cold) rankings.
    ranker.rerank(None);

    let mut rec = SequenceRecorder::new();
    let mut rows = Vec::with_capacity(campaign.steps().len());
    for (step, delta) in campaign.steps().iter().zip(&deltas) {
        let name = step_name(step);
        for solve in ["pagerank", "sourcerank", "sr-sourcerank"] {
            rec.push_label(format!("{name}:{solve}"));
        }
        let t = Instant::now();
        let out = ranker
            .apply(delta, Some(&mut rec))
            .expect("recorded campaign deltas are valid");
        let warm_secs = t.elapsed().as_secs_f64();

        // The seed pipeline's path: rebuild everything, solve cold.
        let t = Instant::now();
        let rebuilt = ranker.graph().to_csr();
        let assignment = ranker.maintainer().assignment();
        let sg = extract(&rebuilt, &assignment, SourceGraphConfig::consensus())
            .expect("maintained assignment covers the rebuilt graph");
        let pr = PageRank::default().rank(&rebuilt);
        let sr = SourceRank::new().rank(&sg);
        let rr = SpamResilientSourceRank::builder()
            .throttle(ranker.kappa().clone())
            .build(&sg)
            .rank();
        let cold_secs = t.elapsed().as_secs_f64();

        let max_divergence = [
            (&out.pagerank, &pr),
            (&out.sourcerank, &sr),
            (&out.resilient, &rr),
        ]
        .iter()
        .flat_map(|(a, b)| {
            a.scores()
                .iter()
                .zip(b.scores())
                .map(|(x, y)| (x - y).abs())
        })
        .fold(0.0f64, f64::max);

        rows.push(StepRow {
            step: name,
            pages_added: out.summary.nodes_added,
            edges_added: out.summary.edges_added,
            touched_rows: out.summary.touched_rows.len(),
            warm_iters: out.pagerank.stats().iterations
                + out.sourcerank.stats().iterations
                + out.resilient.stats().iterations,
            cold_iters: pr.stats().iterations + sr.stats().iterations + rr.stats().iterations,
            warm_secs,
            cold_secs,
            max_divergence,
            compacted: out.compacted,
        });
    }
    DeltaRerankResult {
        rows,
        records: rec.into_records(),
    }
}

/// Renders the per-step comparison.
pub fn table(r: &DeltaRerankResult, dataset: &str) -> Table {
    let mut t = Table::new(
        format!(
            "Extension: incremental delta re-ranking vs cold rebuild ({dataset}, \
             3 solves per step)"
        ),
        vec![
            "step",
            "+pages",
            "rows",
            "warm iters",
            "cold iters",
            "warm ms",
            "cold ms",
            "max |div|",
            "compacted",
        ],
    );
    for row in &r.rows {
        t.push_row(vec![
            row.step.clone(),
            row.pages_added.to_string(),
            row.touched_rows.to_string(),
            row.warm_iters.to_string(),
            row.cold_iters.to_string(),
            format!("{:.2}", row.warm_secs * 1e3),
            format!("{:.2}", row.cold_secs * 1e3),
            format!("{:.2e}", row.max_divergence),
            if row.compacted { "yes" } else { "no" }.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_gen::Dataset;

    #[test]
    fn warm_path_matches_rebuild_and_iterates_less() {
        let ds = EvalDataset::load(Dataset::Wb2001, 0.002);
        let cfg = EvalConfig {
            scale: 0.002,
            ..Default::default()
        };
        let r = run(&ds, &cfg);
        assert_eq!(r.rows.len(), 5);
        assert_eq!(r.records.len(), 15, "three labeled solves per step");
        let (warm, cold): (usize, usize) = r
            .rows
            .iter()
            .map(|row| (row.warm_iters, row.cold_iters))
            .fold((0, 0), |(w, c), (a, b)| (w + a, c + b));
        assert!(
            warm < cold,
            "warm restarts must save iterations overall: {warm} vs {cold}"
        );
        for row in &r.rows {
            // Both paths converge under the default 1e-9 L2 rule; two
            // converged solutions can differ by at most ~tol/(1-alpha).
            assert!(
                row.max_divergence < 1e-7,
                "{}: divergence {}",
                row.step,
                row.max_divergence
            );
        }
        assert!(r.records.iter().all(|rec| rec.telemetry.converged));
        assert!(r.records[0].label.ends_with(":pagerank"));
    }
}
