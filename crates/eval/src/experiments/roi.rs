//! Extension experiment: spammer return-on-investment.
//!
//! Implements the paper's §8 future-work agenda — a spammer-behavior model
//! evaluating manipulation *economics*. A fixed set of campaigns (link
//! farms of growing size, multi-source collusion, hijacking sprees) is run
//! against the same crawl; for each we report the cost (per
//! [`CostModel`]) and the percentile movement of the promoted
//! item under PageRank versus throttled Spam-Resilient SourceRank, i.e.
//! what one percentile point costs the spammer under each ranking.

use sr_core::operator::UniformTransition;
use sr_core::rankvec::RankVector;
use sr_core::{cmp_asc_nan_last, PageRank, SpamResilientSourceRank};
use sr_graph::ids::node_range;
use sr_graph::source_graph::{extract, SourceGraphConfig};
use sr_spam::economics::{CampaignOutcome, CostModel};
use sr_spam::{Campaign, Step};

use crate::datasets::{EvalConfig, EvalDataset};
use crate::experiments::manipulation::throttle_for;
use crate::report::Table;
use crate::targets::pick_bottom_half_unthrottled;

/// The campaign set, each with its label: link farms of growing size,
/// multi-source collusion and hijacking sprees.
fn campaigns(crawl: &sr_gen::SyntheticCrawl) -> Vec<(String, Campaign)> {
    let mut out = Vec::new();
    for &pages in &[10usize, 100, 1000] {
        let farm = Step::Farm {
            pages,
            exchange: false,
        };
        out.push((format!("farm x{pages}"), Campaign::new().step(farm)));
    }
    for &sources in &[5usize, 20] {
        let collusion = Step::Collusion {
            sources,
            pages_each: 5,
        };
        out.push((
            format!("collusion x{sources} sources"),
            Campaign::new().step(collusion),
        ));
    }
    let n = crawl.pages.num_nodes();
    let map = crawl.assignment.raw();
    for &victims in &[5usize, 25] {
        // Deterministic victim selection: legit pages spread over the crawl.
        let picked: Vec<u32> = node_range(n)
            .filter(|&p| crawl.spam_sources.binary_search(&map[p as usize]).is_err())
            .step_by((n / (victims * 3)).max(1))
            .take(victims)
            .collect();
        out.push((
            format!("hijack x{victims} pages"),
            Campaign::new().step(Step::Hijack { victims: picked }),
        ));
    }
    out
}

/// The coldest page of `pages` under `pr` — the fresh spam venture with
/// everything to gain. NaN policy (see `sr_core::order`): an unknown score
/// never wins the minimum, so a NaN-ranked page is only picked when every
/// candidate is NaN-ranked; ties break to the lowest page id. The former
/// `partial_cmp(..).expect("finite scores")` panicked on NaN instead.
pub fn coldest_page(pages: impl IntoIterator<Item = u32>, pr: &RankVector) -> Option<u32> {
    pages
        .into_iter()
        .min_by(|&a, &b| cmp_asc_nan_last(pr.score(a), pr.score(b)).then(a.cmp(&b)))
}

/// Result rows: one (campaign × ranking-system) outcome pair.
pub struct RoiResult {
    /// Per-campaign outcomes: (PageRank outcome, SR-SourceRank outcome).
    pub rows: Vec<(CampaignOutcome, CampaignOutcome)>,
}

/// Runs the ROI experiment on a dataset.
pub fn run(ds: &EvalDataset, cfg: &EvalConfig, costs: &CostModel) -> RoiResult {
    let kappa = throttle_for(ds, cfg);
    let pr_clean = PageRank::default().rank(&ds.crawl.pages);
    let srsr_clean = SpamResilientSourceRank::builder()
        .throttle(kappa.clone())
        .build(&ds.sources)
        .rank();

    // The campaign promotes the coldest page in any eligible (bottom-half,
    // unthrottled) source — the fresh spam venture with everything to gain.
    // A random page draw could land on an already-popular page and mask the
    // PageRank movement entirely.
    let eligible =
        pick_bottom_half_unthrottled(&srsr_clean, &kappa, ds.sources.num_sources() / 4, cfg.seed);
    let target_page = coldest_page(
        eligible.iter().flat_map(|&s| ds.crawl.pages_of(s)),
        &pr_clean,
    )
    .expect("eligible sources have pages");
    let target_source = ds.crawl.assignment.raw()[target_page as usize];
    let pr_before = pr_clean.percentile(target_page);
    let srsr_before = srsr_clean.percentile(target_source);

    let mut rows = Vec::new();
    // One solver workspace outlives the whole campaign loop: each attacked
    // graph has (almost) the same node count, so every warm re-ranking after
    // the first reuses the solver's buffers.
    let mut ws = sr_core::power::SolverWorkspace::new();
    for (label, campaign) in campaigns(&ds.crawl) {
        let attack = campaign.execute(&ds.crawl.pages, &ds.crawl.assignment, target_page);
        let cost = campaign.cost(&attack, costs);

        let pr_after = PageRank::default()
            .rank_operator_warm_in(
                &UniformTransition::new(&attack.pages),
                Some(pr_clean.scores()),
                &mut ws,
                None,
            )
            .percentile(target_page);

        let sg = extract(
            &attack.pages,
            &attack.assignment,
            SourceGraphConfig::consensus(),
        )
        .expect("attacked assignment covers attacked graph");
        // Attacks may add sources; extend kappa with zeros for them (fresh
        // spammer sources are unknown to the throttling oracle).
        let mut kap = sr_core::ThrottleVector::zeros(sg.num_sources());
        for s in node_range(kappa.len()) {
            kap.set(s, kappa.get(s));
        }
        let srsr_after = SpamResilientSourceRank::builder()
            .throttle(kap)
            .build(&sg)
            .rank()
            .percentile(target_source);

        rows.push((
            CampaignOutcome {
                label: label.clone(),
                cost,
                percentile_before: pr_before,
                percentile_after: pr_after,
            },
            CampaignOutcome {
                label,
                cost,
                percentile_before: srsr_before,
                percentile_after: srsr_after,
            },
        ));
    }
    RoiResult { rows }
}

/// Renders the ROI comparison.
pub fn table(r: &RoiResult, dataset: &str) -> Table {
    let fmt_cpp = |v: f64| {
        if v.is_infinite() {
            "inf".to_string()
        } else {
            format!("{v:.1}")
        }
    };
    let mut t = Table::new(
        format!("Extension: spammer ROI on {dataset} (cost per percentile point; higher = more resilient)"),
        vec![
            "Campaign",
            "Cost",
            "PR gain",
            "PR cost/pt",
            "SRSR gain",
            "SRSR cost/pt",
        ],
    );
    for (pr, srsr) in &r.rows {
        t.push_row(vec![
            pr.label.clone(),
            format!("{:.0}", pr.cost),
            format!("{:+.1}", pr.gain()),
            fmt_cpp(pr.cost_per_point()),
            format!("{:+.1}", srsr.gain()),
            fmt_cpp(srsr.cost_per_point()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_gen::Dataset;

    #[test]
    fn coldest_page_survives_nan_scores() {
        // Regression: target selection panicked on partial_cmp(..).expect(..)
        // when an upstream solve produced a NaN score.
        let stats = sr_core::IterationStats {
            iterations: 1,
            final_residual: 0.0,
            converged: true,
            residual_history: vec![0.0],
        };
        let pr = RankVector::new(vec![0.4, f64::NAN, 0.1, 0.3], stats);
        // The NaN page never wins the "coldest" pick...
        assert_eq!(coldest_page(0..4, &pr), Some(2));
        // ...unless every candidate is NaN-ranked (then lowest id, stable).
        assert_eq!(coldest_page([1u32, 1], &pr), Some(1));
        assert_eq!(coldest_page(std::iter::empty(), &pr), None);
    }

    #[test]
    fn roi_shows_srsr_more_expensive_to_attack() {
        let cfg = EvalConfig {
            scale: 0.002,
            targets: 1,
            ..Default::default()
        };
        let ds = EvalDataset::load(Dataset::Uk2002, cfg.scale);
        let r = run(&ds, &cfg, &CostModel::default());
        assert_eq!(r.rows.len(), 7);
        // Aggregate: total percentile points bought across all campaigns
        // must be larger under PageRank than under SR-SourceRank.
        let pr_total: f64 = r.rows.iter().map(|(pr, _)| pr.gain().max(0.0)).sum();
        let srsr_total: f64 = r.rows.iter().map(|(_, s)| s.gain().max(0.0)).sum();
        assert!(
            pr_total > srsr_total,
            "PageRank should sell rank more cheaply: PR {pr_total:.1} vs SRSR {srsr_total:.1}"
        );
        let t = table(&r, "UK2002");
        assert_eq!(t.rows.len(), 7);
    }
}
