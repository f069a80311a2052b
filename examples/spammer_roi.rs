//! Spammer economics (the paper's §8 future-work agenda): price each attack
//! primitive, run escalating campaigns against PageRank and Spam-Resilient
//! SourceRank, and report what one percentile point of ranking costs under
//! each system — plus the value of the spammer's whole source portfolio
//! before and after throttling.
//!
//! Run with: `cargo run --release --example spammer_roi`

use sourcerank::prelude::*;
use sr_eval::datasets::{EvalConfig, EvalDataset};
use sr_eval::experiments::roi;
use sr_gen::Dataset;
use sr_spam::economics::{portfolio_value, CostModel};

fn main() {
    let cfg = EvalConfig {
        scale: 0.002,
        targets: 1,
        ..Default::default()
    };
    let ds = EvalDataset::load(Dataset::Uk2002, cfg.scale);
    println!(
        "UK2002-like crawl at scale {}: {} pages, {} sources\n",
        cfg.scale,
        ds.crawl.num_pages(),
        ds.crawl.num_sources()
    );

    // Campaign ROI: percentile points per currency unit.
    let costs = CostModel::default();
    println!(
        "price list: page = {}, fresh source = {}, hijacked link = {}\n",
        costs.per_page, costs.per_source, costs.per_hijacked_link
    );
    let r = roi::run(&ds, &cfg, &costs);
    println!("{}", roi::table(&r, Dataset::Uk2002.name()).render());

    let pr_cheapest = r
        .rows
        .iter()
        .map(|(pr, _)| pr.cost_per_point())
        .fold(f64::INFINITY, f64::min);
    let srsr_cheapest = r
        .rows
        .iter()
        .map(|(_, s)| s.cost_per_point())
        .fold(f64::INFINITY, f64::min);
    println!(
        "cheapest percentile point: PageRank {:.1} vs SR-SourceRank {:.1} ({:.0}x markup)\n",
        pr_cheapest,
        srsr_cheapest,
        srsr_cheapest / pr_cheapest
    );

    // Portfolio value: total rank mass the spam population holds.
    let seeds = ds
        .crawl
        .sample_spam_seed((ds.crawl.spam_sources.len() / 10).max(1), 5);
    let baseline = SourceRank::new().rank(&ds.sources);
    let kappa = SpamProximity::new()
        .throttle_top_k(&ds.sources, &seeds, ds.throttle_k())
        .unwrap();
    let throttled = SpamResilientSourceRank::builder()
        .throttle(kappa)
        .self_edge_policy(sr_core::SelfEdgePolicy::Surrender)
        .build(&ds.sources)
        .rank();
    let before = portfolio_value(baseline.scores(), &ds.crawl.spam_sources, None);
    let after = portfolio_value(throttled.scores(), &ds.crawl.spam_sources, None);
    println!(
        "spam portfolio value (total rank mass of {} spam sources):",
        ds.crawl.spam_sources.len()
    );
    println!("  baseline SourceRank        {before:.4}");
    println!(
        "  throttled SR-SourceRank    {after:.4}  ({:.0}% destroyed)",
        100.0 * (1.0 - after / before)
    );
}
