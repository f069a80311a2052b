//! Attack study: mount each of the paper's §2 attacks — hijacking, a
//! honeypot, and a link farm — against a synthetic crawl and measure how far
//! each one moves the spam target under PageRank versus Spam-Resilient
//! SourceRank.
//!
//! Run with: `cargo run --release --example attack_study`

use sourcerank::prelude::*;
use sr_core::order::cmp_asc_nan_last;
use sr_gen::generate;
use sr_graph::source_graph::extract;
use sr_graph::CsrGraph;
use sr_spam::{hijack, honeypot, link_farm, AttackResult};

/// Ranks a crawl both ways and returns the percentile of the target page
/// (PageRank) and of its source (SR-SourceRank, spam-proximity throttled).
fn measure(
    pages: &CsrGraph,
    assignment: &SourceAssignment,
    target_page: u32,
    spam_seeds: &[u32],
) -> (f64, f64) {
    let pr = PageRank::default().rank(pages);
    let sources = extract(pages, assignment, SourceGraphConfig::consensus()).unwrap();
    let top_k = (sources.num_sources() / 37).max(1); // the paper's ~2.7%
    let srsr = SpamResilientSourceRank::builder()
        .throttle_by_proximity(spam_seeds.to_vec(), top_k, 0.85)
        .build(&sources)
        .rank();
    let target_source = assignment.source_of(sr_graph::PageId(target_page));
    (pr.percentile(target_page), srsr.percentile(target_source.0))
}

fn report(name: &str, before: (f64, f64), after: (f64, f64)) {
    println!(
        "{name:<10} PageRank pctile {:5.1} -> {:5.1} ({:+5.1})   SR-SourceRank pctile {:5.1} -> {:5.1} ({:+5.1})",
        before.0,
        after.0,
        after.0 - before.0,
        before.1,
        after.1,
        after.1 - before.1,
    );
}

fn main() {
    // A UK2002-like crawl at 1/500 scale: ~200 sources, ~37k pages.
    let crawl = generate(&sr_gen::Dataset::Uk2002.config(0.002));
    let seeds = crawl.sample_spam_seed(1, 7);
    println!(
        "crawl: {} pages, {} sources, {} labeled spam sources\n",
        crawl.num_pages(),
        crawl.num_sources(),
        crawl.spam_sources.len()
    );

    // The spammer promotes an obscure page: a non-home page of the
    // least-endorsed legitimate source (a fresh spam venture hiding on a
    // cheap host, before any reputation exists).
    let pr0 = PageRank::default().rank(&crawl.pages);
    let cold_source = (0..crawl.num_sources() as u32)
        .filter(|&s| !crawl.is_spam(s) && crawl.pages_of(s).len() > 1)
        .min_by(|&a, &b| {
            cmp_asc_nan_last(pr0.score(crawl.home_page(a)), pr0.score(crawl.home_page(b)))
        })
        .unwrap();
    let target_page = crawl.home_page(cold_source) + 1;
    let before = measure(&crawl.pages, &crawl.assignment, target_page, &seeds);

    // 1. Hijacking: compromise 15 legitimate pages.
    let victims: Vec<u32> = (0..crawl.num_pages() as u32)
        .filter(|&p| !crawl.is_spam(crawl.assignment.raw()[p as usize]))
        .step_by(40)
        .take(15)
        .collect();
    let h: AttackResult = hijack(&crawl.pages, &crawl.assignment, &victims, target_page);
    report(
        "hijack",
        before,
        measure(&h.pages, &h.assignment, target_page, &seeds),
    );

    // 2. Honeypot: a 5-page "quality" site earns 30 organic links, then
    //    funnels to the target.
    let hp = honeypot(&crawl.pages, &crawl.assignment, target_page, 5, 30, 99);
    report(
        "honeypot",
        before,
        measure(&hp.pages, &hp.assignment, target_page, &seeds),
    );

    // 3. Link farm: 200 pages in a fresh source, pairwise-exchanged.
    let farm = link_farm(&crawl.pages, &crawl.assignment, target_page, 200, true);
    report(
        "farm",
        before,
        measure(&farm.pages, &farm.assignment, target_page, &seeds),
    );

    println!(
        "\nPageRank chases every attack upward; Spam-Resilient SourceRank's \
         consensus weighting and influence throttling blunt the farm outright \
         and leave hijacking/honeypots needing far more compromised pages per \
         rank position (see the paper's §4 analysis and `sr-eval fig6/fig7` \
         for the full sweeps)."
    );
}
