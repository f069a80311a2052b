//! Cross-crate spam-resilience tests: the attack models of `sr-spam`
//! against the rankings of `sr-core`, checking the paper's qualitative
//! claims on small synthetic crawls.

use sourcerank::prelude::*;
use sr_core::order::cmp_asc_nan_last;
use sr_gen::{generate, CrawlConfig};
use sr_graph::source_graph::extract;
use sr_graph::SourceId;
use sr_spam::{Campaign, Step};

fn crawl() -> sr_gen::SyntheticCrawl {
    let mut cfg = CrawlConfig::tiny(321);
    cfg.num_sources = 120;
    cfg.total_pages = 3_000;
    generate(&cfg)
}

/// A cold (low-rank, multi-page, non-spam) target source and one of its
/// non-home pages.
fn cold_target(c: &sr_gen::SyntheticCrawl) -> (u32, u32) {
    let pr = PageRank::default().rank(&c.pages);
    assert!(
        pr.scores().iter().all(|s| s.is_finite()),
        "non-finite score"
    );
    let source = (0..c.num_sources() as u32)
        .filter(|&s| !c.is_spam(s) && c.pages_of(s).len() > 2)
        .min_by(|&a, &b| cmp_asc_nan_last(pr.score(c.home_page(a)), pr.score(c.home_page(b))))
        .unwrap();
    (source, c.home_page(source) + 1)
}

#[test]
fn intra_source_injection_moves_pagerank_far_more_than_srsr() {
    let c = crawl();
    let (ts, tp) = cold_target(&c);
    let sources = extract(&c.pages, &c.assignment, SourceGraphConfig::consensus()).unwrap();
    let pr_before = PageRank::default().rank(&c.pages).percentile(tp);
    let sr_before = SourceRank::new().rank(&sources).percentile(ts);

    let attack = Campaign::new()
        .step(Step::IntraInjection { count: 100 })
        .execute(&c.pages, &c.assignment, tp);
    let pr_after = PageRank::default().rank(&attack.pages).percentile(tp);
    let sg = extract(
        &attack.pages,
        &attack.assignment,
        SourceGraphConfig::consensus(),
    )
    .unwrap();
    let sr_after = SourceRank::new().rank(&sg).percentile(ts);

    let pr_gain = pr_after - pr_before;
    let sr_gain = sr_after - sr_before;
    assert!(
        pr_gain > 30.0,
        "PageRank should jump dramatically, got +{pr_gain:.1}"
    );
    assert!(
        pr_gain > sr_gain,
        "source-level gain (+{sr_gain:.1}) must trail page-level (+{pr_gain:.1})"
    );
}

#[test]
fn consensus_weighting_blunts_single_page_hijacking() {
    // One hijacked page in each of 5 large sources barely moves the
    // source-level edge weights (the §3.2 defence), while the same links
    // measurably lift the page under PageRank.
    let c = crawl();
    let (ts, tp) = cold_target(&c);
    let sources = extract(&c.pages, &c.assignment, SourceGraphConfig::consensus()).unwrap();
    let victims: Vec<u32> = (0..c.num_sources() as u32)
        .filter(|&s| s != ts && c.pages_of(s).len() > 10)
        .take(5)
        .map(|s| c.home_page(s) + 2)
        .collect();
    assert_eq!(victims.len(), 5);

    let attack =
        Campaign::new()
            .step(Step::Hijack { victims })
            .execute(&c.pages, &c.assignment, tp);
    let sg = extract(
        &attack.pages,
        &attack.assignment,
        SourceGraphConfig::consensus(),
    )
    .unwrap();

    let sr_before = SourceRank::new().rank(&sources);
    let sr_after = SourceRank::new().rank(&sg);
    let rel_gain = sr_after.score(ts) / sr_before.score(ts);

    let pr_before = PageRank::default().rank(&c.pages);
    let pr_after = PageRank::default().rank(&attack.pages);
    let pr_rel_gain = pr_after.score(tp) / pr_before.score(tp);

    assert!(
        pr_rel_gain > rel_gain,
        "PageRank relative gain {pr_rel_gain:.2} should exceed source-level {rel_gain:.2}"
    );
}

#[test]
fn full_throttle_caps_cross_source_injection() {
    // Throttle a colluding source completely; injecting 500 pages into it
    // then contributes nothing beyond the teleport share to the target.
    let c = crawl();
    let (_, tp) = cold_target(&c);
    // Pick a colluder with at least a couple of pages.
    let colluder = (0..c.num_sources() as u32)
        .find(|&s| s != c.assignment.raw()[tp as usize] && c.pages_of(s).len() > 2)
        .unwrap();

    let attack = Campaign::new()
        .step(Step::CrossInjection {
            colluding_source: SourceId(colluder),
            count: 500,
        })
        .execute(&c.pages, &c.assignment, tp);
    let sg = extract(
        &attack.pages,
        &attack.assignment,
        SourceGraphConfig::consensus(),
    )
    .unwrap();

    let ts = c.assignment.raw()[tp as usize];
    let mut kappa = ThrottleVector::zeros(sg.num_sources());
    let free = SpamResilientSourceRank::builder()
        .throttle(kappa.clone())
        .build(&sg)
        .rank()
        .score(ts);
    kappa.set(colluder, 1.0);
    let throttled = SpamResilientSourceRank::builder()
        .throttle(kappa)
        .build(&sg)
        .rank()
        .score(ts);
    assert!(
        throttled < free,
        "throttling the colluder must reduce the target's score ({throttled} vs {free})"
    );
}

#[test]
fn link_farm_in_new_source_is_self_defeating_at_source_level() {
    // A farm confined to its own fresh source only raises the *farm
    // source's* self-edge; the promoted target (in the same new source)
    // gains nothing beyond the one-time cap.
    let c = crawl();
    let sources_before = extract(&c.pages, &c.assignment, SourceGraphConfig::consensus()).unwrap();
    let (_, tp) = cold_target(&c);
    let farm = Campaign::new()
        .step(Step::Farm {
            pages: 300,
            exchange: true,
        })
        .execute(&c.pages, &c.assignment, tp);
    let sg = extract(
        &farm.pages,
        &farm.assignment,
        SourceGraphConfig::consensus(),
    )
    .unwrap();
    let ts = c.assignment.raw()[tp as usize];
    let before = SourceRank::new().rank(&sources_before).score(ts);
    let after = SourceRank::new().rank(&sg).score(ts);
    // One extra endorsing source can at most roughly double the target
    // (the paper's scenario-2 cap is 1 + alpha/(1 - alpha...) ~= 1.85 for
    // kappa = 0, plus normalization slack for the grown source set).
    assert!(
        after / before < 3.0,
        "farm lifted target source by {:.2}x at source level",
        after / before
    );
}

#[test]
fn combined_campaign_still_contained_at_source_level() {
    // §2: spammers combine vectors. A farm + collusion + hijack campaign
    // must still move the page-level ranking more than the source-level one.
    let c = crawl();
    let (ts, tp) = cold_target(&c);
    let sources = extract(&c.pages, &c.assignment, SourceGraphConfig::consensus()).unwrap();
    let victims: Vec<u32> = (0..c.num_sources() as u32)
        .filter(|&s| s != ts && c.pages_of(s).len() > 5)
        .take(4)
        .map(|s| c.home_page(s) + 3)
        .collect();
    let campaign = Campaign::new()
        .step(Step::Farm {
            pages: 60,
            exchange: true,
        })
        .step(Step::Collusion {
            sources: 3,
            pages_each: 5,
        })
        .step(Step::Hijack { victims })
        .step(Step::IntraInjection { count: 40 });
    let attack = campaign.execute(&c.pages, &c.assignment, tp);

    let pr_gain = PageRank::default().rank(&attack.pages).percentile(tp)
        - PageRank::default().rank(&c.pages).percentile(tp);
    let sg = extract(
        &attack.pages,
        &attack.assignment,
        SourceGraphConfig::consensus(),
    )
    .unwrap();
    let sr_gain = SourceRank::new().rank(&sg).percentile(ts)
        - SourceRank::new().rank(&sources).percentile(ts);
    assert!(
        pr_gain > 20.0,
        "a combined campaign should buy real PageRank: +{pr_gain:.1}"
    );
    assert!(
        pr_gain > sr_gain,
        "source level must stay harder to move: PR +{pr_gain:.1} vs SR +{sr_gain:.1}"
    );
}

#[test]
fn collusion_cost_grows_as_predicted_by_eq5() {
    // x colluding sources with kappa=0 vs the same x under kappa=0.9:
    // the throttled configuration must lose most of its lift, in the
    // proportion Eq. 5 predicts (ratio (1-a*k)/(1-a) style).
    let c = crawl();
    let (_, tp) = cold_target(&c);
    let x = 8;
    let attack = Campaign::new()
        .step(Step::Collusion {
            sources: x,
            pages_each: 3,
        })
        .execute(&c.pages, &c.assignment, tp);
    let sg = extract(
        &attack.pages,
        &attack.assignment,
        SourceGraphConfig::consensus(),
    )
    .unwrap();
    let ts = c.assignment.raw()[tp as usize];

    let n = sg.num_sources();
    let free = SpamResilientSourceRank::builder()
        .build(&sg)
        .rank()
        .score(ts);
    let mut kappa = ThrottleVector::zeros(n);
    for s in &attack.injected_sources {
        kappa.set(s.0, 0.9);
    }
    let throttled = SpamResilientSourceRank::builder()
        .throttle(kappa)
        .build(&sg)
        .rank()
        .score(ts);
    assert!(
        throttled < free,
        "throttling colluders must lower the target"
    );

    // Eq. 5: each colluder's contribution scales by (1-k)/(1-a*k) ~ 0.426
    // at kappa = 0.9 — so the target keeps a substantial part of its score
    // (the base score is untouched) but loses most of the collusion lift.
    let predicted = sr_analysis::cross_source::collusion_contribution(0.85, 0.0, n, 0.9, x)
        / sr_analysis::cross_source::collusion_contribution(0.85, 0.0, n, 0.0, x);
    let drop_ratio = throttled / free;
    assert!(
        drop_ratio > predicted * 0.3 && drop_ratio < 1.0,
        "throttled/free = {drop_ratio:.3}, Eq.5 contribution ratio {predicted:.3}"
    );
}
