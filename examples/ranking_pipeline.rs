//! Full production-style pipeline on a UK2002-like crawl:
//! generate → extract source graph → measure the storage codec → derive the
//! throttling vector by spam proximity → rank → report the top sources and
//! solver diagnostics.
//!
//! Run with: `cargo run --release --example ranking_pipeline`

#![expect(
    clippy::disallowed_methods,
    reason = "a demo prints progress timings to a human"
)]

use std::time::Instant;

use sourcerank::prelude::*;
use sr_gen::Dataset;
use sr_graph::source_graph::extract;

fn main() {
    let t0 = Instant::now();
    let cfg = Dataset::Uk2002.config(0.005);
    let crawl = sr_gen::generate(&cfg);
    println!(
        "[{:>8.1?}] generated {}-like crawl: {} pages, {} sources, {} spam",
        t0.elapsed(),
        Dataset::Uk2002.name(),
        crawl.num_pages(),
        crawl.num_sources(),
        crawl.spam_sources.len()
    );

    // The WebGraph-style row codec the on-disk shard files store.
    let codec = sr_graph::codec::compression_stats(&crawl.pages)
        .expect("crawl gaps fit the varint encoding");
    println!(
        "[{:>8.1?}] page graph codec: {:.2} bits/edge ({} KiB of rows vs {} KiB CSR)",
        t0.elapsed(),
        codec.bits_per_edge,
        codec.data_bytes / 1024,
        crawl.pages.heap_bytes() / 1024,
    );

    let sources = extract(
        &crawl.pages,
        &crawl.assignment,
        SourceGraphConfig::consensus(),
    )
    .unwrap();
    println!(
        "[{:>8.1?}] source graph: {} sources, {} inter-source edges",
        t0.elapsed(),
        sources.num_sources(),
        sources.num_edges()
    );

    // Throttle by spam proximity from a 10% seed.
    let seed = crawl.sample_spam_seed((crawl.spam_sources.len() / 10).max(1), 3);
    let top_k = Dataset::Wb2001.throttle_top_k(crawl.num_sources());
    let model = SpamResilientSourceRank::builder()
        .throttle_by_proximity(seed, top_k, 0.85)
        .build(&sources);
    println!(
        "[{:>8.1?}] throttled {} sources (kappa = 1)",
        t0.elapsed(),
        model.kappa().fully_throttled()
    );

    let ranking = model.rank();
    let stats = ranking.stats();
    println!(
        "[{:>8.1?}] ranked: {} iterations, residual {:.2e}, converged = {}, \
         empirical rate {:.3}",
        t0.elapsed(),
        stats.iterations,
        stats.final_residual,
        stats.converged,
        stats.tail_rate().unwrap_or(f64::NAN)
    );

    println!("\ntop 10 sources:");
    for (i, &s) in ranking.top_k(10).iter().enumerate() {
        println!(
            "  {:>2}. {:<28} score {:.5} {}",
            i + 1,
            crawl.host_name(s),
            ranking.score(s),
            if crawl.is_spam(s) { "[SPAM]" } else { "" }
        );
    }

    let spam_in_top_decile = ranking
        .top_k(crawl.num_sources() / 10)
        .iter()
        .filter(|&&s| crawl.is_spam(s))
        .count();
    println!(
        "\nspam sources in the top decile: {} of {}",
        spam_in_top_decile,
        crawl.spam_sources.len()
    );
}
