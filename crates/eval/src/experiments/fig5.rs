//! Figure 5 — rank distribution of all spam sources, baseline SourceRank
//! vs throttled Spam-Resilient SourceRank (§6.2).
//!
//! Protocol (exactly the paper's, at our scale):
//! 1. take the WB2001-like crawl with its ground-truth spam labels;
//! 2. seed the spam-proximity computation with <10% of the spam sources;
//! 3. throttle the top-k proximity sources completely (k = the paper's
//!    20,000/738,626 fraction);
//! 4. rank with and without throttling, bucket into 20 equal bins, count
//!    spam per bin.

use sr_core::{SelfEdgePolicy, SourceRank, SpamProximity, SpamResilientSourceRank, ThrottleVector};
use sr_gen::round_count;

use crate::buckets::{marked_bucket_counts, mean_marked_bucket, PAPER_BUCKETS};
use crate::datasets::{EvalConfig, EvalDataset};
use crate::report::Table;

/// The paper seeds 1,000 of its 10,315 labeled spam sources.
pub const SEED_FRACTION: f64 = 1_000.0 / 10_315.0;

/// Outcome of the Figure 5 experiment.
///
/// Two throttled variants are reported, one per
/// [`SelfEdgePolicy`]: under the paper-literal `Retain`
/// semantics a fully-throttled source keeps its own mass (the §4.1 Eq. 4
/// one-time optimum floors it at the mean score `1/|S|`, a top-decile
/// position in a heavy-tailed ranking), so demotion is limited to the loss
/// of spam-to-spam endorsement; under `Surrender` the mandated
/// self-influence evaporates to teleport, reproducing the pronounced
/// demotion the paper's figure shows.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// Spam count per bucket under baseline SourceRank (bucket 0 = top).
    pub baseline: Vec<usize>,
    /// Spam count per bucket under throttled SR-SourceRank
    /// (self-edge policy `Retain`, the paper-literal semantics).
    pub throttled: Vec<usize>,
    /// Spam count per bucket under throttled SR-SourceRank with the
    /// `Surrender` self-edge policy.
    pub throttled_surrender: Vec<usize>,
    /// Total labeled spam sources.
    pub total_spam: usize,
    /// Size of the proximity seed set.
    pub seed_size: usize,
    /// Number of fully-throttled sources (top-k).
    pub top_k: usize,
    /// How many ground-truth spam sources the top-k throttling caught.
    pub spam_caught: usize,
}

impl Fig5Result {
    /// Mean bucket of spam sources under the baseline (higher = more demoted).
    pub fn mean_bucket_baseline(&self) -> f64 {
        mean_marked_bucket(&self.baseline)
    }

    /// Mean bucket of spam sources under throttling (`Retain` policy).
    pub fn mean_bucket_throttled(&self) -> f64 {
        mean_marked_bucket(&self.throttled)
    }

    /// Mean bucket of spam sources under throttling (`Surrender` policy).
    pub fn mean_bucket_surrender(&self) -> f64 {
        mean_marked_bucket(&self.throttled_surrender)
    }
}

/// Runs the Figure 5 experiment on a dataset (the paper uses WB2001).
pub fn run(ds: &EvalDataset, cfg: &EvalConfig) -> Fig5Result {
    let spam = &ds.crawl.spam_sources;
    assert!(!spam.is_empty(), "figure 5 needs a spam-labeled dataset");
    let seed_size = round_count(spam.len() as f64 * SEED_FRACTION).clamp(1, spam.len());
    let seeds = ds.crawl.sample_spam_seed(seed_size, cfg.seed);
    let top_k = ds.throttle_k();

    let kappa: ThrottleVector = SpamProximity::new()
        .throttle_top_k(&ds.sources, &seeds, top_k)
        .expect("spam-labeled dataset has a non-empty seed set");
    let spam_caught = spam.iter().filter(|&&s| kappa.get(s) >= 1.0).count();

    let baseline_rank = SourceRank::new().rank(&ds.sources);
    let throttled_rank = SpamResilientSourceRank::builder()
        .throttle(kappa.clone())
        .build(&ds.sources)
        .rank();
    let surrender_rank = SpamResilientSourceRank::builder()
        .throttle(kappa)
        .self_edge_policy(SelfEdgePolicy::Surrender)
        .build(&ds.sources)
        .rank();

    Fig5Result {
        baseline: marked_bucket_counts(&baseline_rank, spam, PAPER_BUCKETS),
        throttled: marked_bucket_counts(&throttled_rank, spam, PAPER_BUCKETS),
        throttled_surrender: marked_bucket_counts(&surrender_rank, spam, PAPER_BUCKETS),
        total_spam: spam.len(),
        seed_size,
        top_k,
        spam_caught,
    }
}

/// Renders the bucket histogram as a table.
pub fn table(r: &Fig5Result) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 5: Rank distribution of all {} spam sources (seed {}, top-k {} throttled, {} spam caught)",
            r.total_spam, r.seed_size, r.top_k, r.spam_caught
        ),
        vec![
            "Bucket",
            "Baseline SourceRank",
            "SR-SourceRank (retain)",
            "SR-SourceRank (surrender)",
        ],
    );
    for b in 0..r.baseline.len() {
        t.push_row(vec![
            (b + 1).to_string(),
            r.baseline[b].to_string(),
            r.throttled[b].to_string(),
            r.throttled_surrender[b].to_string(),
        ]);
    }
    t.push_row(vec![
        "mean bucket".into(),
        format!("{:.2}", r.mean_bucket_baseline()),
        format!("{:.2}", r.mean_bucket_throttled()),
        format!("{:.2}", r.mean_bucket_surrender()),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_gen::Dataset;

    #[test]
    fn throttling_demotes_spam() {
        let ds = EvalDataset::load(Dataset::Wb2001, 0.002);
        let cfg = EvalConfig {
            scale: 0.002,
            ..Default::default()
        };
        let r = run(&ds, &cfg);
        assert_eq!(r.baseline.iter().sum::<usize>(), r.total_spam);
        assert_eq!(r.throttled.iter().sum::<usize>(), r.total_spam);
        assert!(
            r.spam_caught * 2 > r.total_spam,
            "proximity should catch most spam from a 10% seed: {}/{}",
            r.spam_caught,
            r.total_spam
        );
        // Surrender semantics reproduce the pronounced Figure 5 demotion.
        assert!(
            r.mean_bucket_surrender() > r.mean_bucket_baseline() + 2.0,
            "surrender mean bucket {} must clearly exceed baseline {}",
            r.mean_bucket_surrender(),
            r.mean_bucket_baseline()
        );
    }

    #[test]
    fn table_has_twenty_buckets_plus_summary() {
        let ds = EvalDataset::load(Dataset::Wb2001, 0.0005);
        let r = run(&ds, &EvalConfig::default());
        let t = table(&r);
        assert_eq!(t.rows.len(), PAPER_BUCKETS + 1);
    }
}
