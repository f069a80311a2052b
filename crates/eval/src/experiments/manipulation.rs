//! Figures 6 and 7 — rank-manipulation experiments (§6.3).
//!
//! The spammer injects 1/10/100/1000 pages (cases A–D), either inside the
//! target source (Figure 6) or in a colluding source that points across
//! (Figure 7). We measure the average ranking-percentile increase of the
//! target *page* under PageRank and of the target *source* under throttled
//! Spam-Resilient SourceRank.

use sr_core::operator::UniformTransition;
use sr_core::{PageRank, SpamProximity, SpamResilientSourceRank, ThrottleVector};
use sr_gen::round_count;
use sr_graph::source_graph::{extract, SourceGraphConfig};
use sr_graph::SourceId;
use sr_spam::{cross_source_injection, intra_source_injection, InjectionCase};

use crate::datasets::{EvalConfig, EvalDataset};
use crate::experiments::fig5::SEED_FRACTION;
use crate::report::Table;
use crate::targets::{pick_bottom_half_unthrottled, pick_page_in_source};

/// Which §6.3 experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Figure 6: spam pages inside the target's own source.
    IntraSource,
    /// Figure 7: spam pages in a separate colluding source.
    InterSource,
}

/// Averaged outcome for one injection case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseOutcome {
    /// The injection case (A–D).
    pub case: InjectionCase,
    /// Mean PageRank percentile of the target page before the attack.
    pub pr_before: f64,
    /// Mean PageRank percentile after.
    pub pr_after: f64,
    /// Mean SR-SourceRank percentile of the target source before.
    pub srsr_before: f64,
    /// Mean SR-SourceRank percentile after.
    pub srsr_after: f64,
}

impl CaseOutcome {
    /// Percentile-point increase under PageRank.
    pub fn pr_increase(&self) -> f64 {
        self.pr_after - self.pr_before
    }

    /// Percentile-point increase under SR-SourceRank.
    pub fn srsr_increase(&self) -> f64 {
        self.srsr_after - self.srsr_before
    }
}

/// Full result of a Figure 6/7 run on one dataset.
#[derive(Debug, Clone)]
pub struct ManipulationResult {
    /// Dataset name.
    pub dataset: String,
    /// Experiment mode.
    pub mode: Mode,
    /// One row per injection case.
    pub cases: Vec<CaseOutcome>,
}

/// Derives the throttling vector exactly as the Figure 5 experiment does
/// (10%-of-spam seed, top-k by proximity).
pub fn throttle_for(ds: &EvalDataset, cfg: &EvalConfig) -> ThrottleVector {
    let spam = &ds.crawl.spam_sources;
    if spam.is_empty() {
        return ThrottleVector::zeros(ds.sources.num_sources());
    }
    let seed_size = round_count(spam.len() as f64 * SEED_FRACTION).clamp(1, spam.len());
    let seeds = ds.crawl.sample_spam_seed(seed_size, cfg.seed);
    SpamProximity::new()
        .throttle_top_k(&ds.sources, &seeds, ds.throttle_k())
        .expect("non-empty seed set was sampled above")
}

/// Runs the manipulation experiment.
pub fn run(ds: &EvalDataset, cfg: &EvalConfig, mode: Mode) -> ManipulationResult {
    let kappa = throttle_for(ds, cfg);
    let pr_clean = PageRank::default().rank(&ds.crawl.pages);
    let srsr_clean = SpamResilientSourceRank::builder()
        .throttle(kappa.clone())
        .build(&ds.sources)
        .rank();

    let targets = pick_bottom_half_unthrottled(&srsr_clean, &kappa, cfg.targets, cfg.seed);
    // Colluding sources for inter-source mode: a second, disjoint draw from
    // the same eligible pool.
    let colluders: Vec<u32> = if mode == Mode::InterSource {
        let pool =
            pick_bottom_half_unthrottled(&srsr_clean, &kappa, cfg.targets * 2, cfg.seed ^ 0x9e37);
        let chosen: Vec<u32> = pool
            .into_iter()
            .filter(|s| !targets.contains(s))
            .take(cfg.targets)
            .collect();
        assert_eq!(
            chosen.len(),
            cfg.targets,
            "not enough distinct colluding sources"
        );
        chosen
    } else {
        Vec::new()
    };

    let pr_clean_pct = pr_clean.percentiles();
    let srsr_clean_pct = srsr_clean.percentiles();

    let mut cases = Vec::new();
    // Shared solver buffers for every warm re-ranking in the case loop.
    let mut ws = sr_core::power::SolverWorkspace::new();
    for case in InjectionCase::all() {
        let mut pr_b = 0.0;
        let mut pr_a = 0.0;
        let mut sr_b = 0.0;
        let mut sr_a = 0.0;
        for (i, &ts) in targets.iter().enumerate() {
            let tp = pick_page_in_source(&ds.crawl.page_ranges, ts, cfg.seed + i as u64);
            let attack = match mode {
                Mode::IntraSource => {
                    intra_source_injection(&ds.crawl.pages, &ds.crawl.assignment, tp, case.pages())
                }
                Mode::InterSource => cross_source_injection(
                    &ds.crawl.pages,
                    &ds.crawl.assignment,
                    tp,
                    SourceId(colluders[i]),
                    case.pages(),
                ),
            };
            // Warm-start from the clean ranking: the attack is a localized
            // mutation, so the previous vector is near the new fixed point
            // (identical result, roughly half the iterations).
            let pr_attacked = PageRank::default().rank_operator_warm_in(
                &UniformTransition::new(&attack.pages),
                Some(pr_clean.scores()),
                &mut ws,
                None,
            );
            let sg_attacked = extract(
                &attack.pages,
                &attack.assignment,
                SourceGraphConfig::consensus(),
            )
            .expect("attacked assignment covers attacked graph");
            // The throttling vector was computed on the clean crawl (the
            // ranking system does not instantly re-learn); attacks here add
            // no new sources, so it still covers the attacked source graph.
            let srsr_attacked = SpamResilientSourceRank::builder()
                .throttle(kappa.clone())
                .build(&sg_attacked)
                .rank();
            pr_b += pr_clean_pct[tp as usize];
            pr_a += pr_attacked.percentile(tp);
            sr_b += srsr_clean_pct[ts as usize];
            sr_a += srsr_attacked.percentile(ts);
        }
        let n = targets.len() as f64;
        cases.push(CaseOutcome {
            case,
            pr_before: pr_b / n,
            pr_after: pr_a / n,
            srsr_before: sr_b / n,
            srsr_after: sr_a / n,
        });
    }

    ManipulationResult {
        dataset: ds.dataset.name().to_string(),
        mode,
        cases,
    }
}

/// Renders a Figure 6/7 result as a table.
pub fn table(r: &ManipulationResult) -> Table {
    let fig = match r.mode {
        Mode::IntraSource => "Figure 6",
        Mode::InterSource => "Figure 7",
    };
    let what = match r.mode {
        Mode::IntraSource => "Intra-Source",
        Mode::InterSource => "Inter-Source",
    };
    let mut t = Table::new(
        format!(
            "{fig} ({}): PageRank vs SR-SourceRank, {what} Manipulation",
            r.dataset
        ),
        vec![
            "Case",
            "Pages",
            "PR pctile before",
            "PR pctile after",
            "PR increase",
            "SRSR pctile before",
            "SRSR pctile after",
            "SRSR increase",
        ],
    );
    for c in &r.cases {
        t.push_row(vec![
            c.case.label().to_string(),
            c.case.pages().to_string(),
            format!("{:.1}", c.pr_before),
            format!("{:.1}", c.pr_after),
            format!("{:+.1}", c.pr_increase()),
            format!("{:.1}", c.srsr_before),
            format!("{:.1}", c.srsr_after),
            format!("{:+.1}", c.srsr_increase()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_gen::Dataset;

    fn small_ds() -> (EvalDataset, EvalConfig) {
        let cfg = EvalConfig {
            scale: 0.002,
            targets: 3,
            ..Default::default()
        };
        (EvalDataset::load(Dataset::Uk2002, cfg.scale), cfg)
    }

    #[test]
    fn intra_pagerank_moves_more_than_srsr() {
        let (ds, cfg) = small_ds();
        let r = run(&ds, &cfg, Mode::IntraSource);
        assert_eq!(r.cases.len(), 4);
        // Case A barely moves SR-SourceRank at all.
        assert!(
            r.cases[0].srsr_increase() < 5.0,
            "case A SRSR +{:.1}",
            r.cases[0].srsr_increase()
        );
        // Already at case B (10 pages) PageRank jumps far more than
        // SR-SourceRank — "a profound impact, even in cases when the
        // spammer expends very little effort (as in cases A and B)".
        let b = &r.cases[1];
        assert!(
            b.pr_increase() > b.srsr_increase() + 10.0,
            "case B: PR +{:.1} vs SRSR +{:.1}",
            b.pr_increase(),
            b.srsr_increase()
        );
        // Case C keeps the ordering.
        let c = &r.cases[2];
        assert!(
            c.pr_increase() > c.srsr_increase(),
            "case C: PR +{:.1} vs SRSR +{:.1}",
            c.pr_increase(),
            c.srsr_increase()
        );
        // PageRank increase grows with attack intensity.
        assert!(r.cases[3].pr_increase() >= r.cases[1].pr_increase());
    }

    #[test]
    fn inter_mode_runs_and_orders() {
        let (ds, cfg) = small_ds();
        let r = run(&ds, &cfg, Mode::InterSource);
        for (b, c) in [(1usize, 2usize), (2, 3)] {
            assert!(
                r.cases[c].srsr_increase() >= r.cases[b].srsr_increase() - 1.0,
                "SRSR increases should be (weakly) monotone in effort"
            );
        }
        let c = &r.cases[2];
        assert!(
            c.pr_increase() > c.srsr_increase(),
            "case C: PR +{:.1} vs SRSR +{:.1}",
            c.pr_increase(),
            c.srsr_increase()
        );
        let t = table(&r);
        assert_eq!(t.rows.len(), 4);
        assert!(t.title.contains("Figure 7"));
    }
}
