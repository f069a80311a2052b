//! The selective random surfer, literally (§3.4).
//!
//! The paper defines Spam-Resilient SourceRank as the long-term visit
//! distribution of a walker who, at source `s_i`, follows the self-edge with
//! probability ακ_i, an out-edge with probability α(1−κ_i), and teleports
//! with probability 1−α. This example *simulates that walker* and shows the
//! empirical visit frequencies converging to the algebraic solution — the
//! operational definition and the linear algebra are the same object.
//!
//! Run with: `cargo run --release --example random_surfer`

use sourcerank::prelude::*;
use sr_core::montecarlo::{estimate_stationary, WalkConfig};
use sr_core::vecops;
use sr_gen::{generate, CrawlConfig};

fn main() {
    let crawl = generate(&CrawlConfig::tiny(99));
    let sources = crawl.source_graph(SourceGraphConfig::consensus());
    let seeds = crawl.sample_spam_seed(2, 1);

    // Build the throttled model and solve it algebraically.
    let kappa = SpamProximity::new()
        .throttle_top_k(&sources, &seeds, 6)
        .unwrap();
    let model = SpamResilientSourceRank::builder()
        .throttle(kappa)
        .build(&sources);
    let exact = model.rank();
    println!(
        "algebraic solve: {} sources, {} iterations, residual {:.1e}\n",
        exact.len(),
        exact.stats().iterations,
        exact.stats().final_residual
    );

    // Now walk the same chain with increasing effort.
    println!(
        "{:>12} {:>14} {:>18}",
        "walkers", "steps/walker", "L1 error vs exact"
    );
    for (walkers, steps) in [
        (4usize, 1_000usize),
        (16, 5_000),
        (64, 20_000),
        (128, 80_000),
    ] {
        let cfg = WalkConfig {
            walkers,
            steps,
            ..Default::default()
        };
        let est = estimate_stationary(model.transitions(), &cfg, None);
        let err = vecops::l1_distance(exact.scores(), &est);
        println!("{walkers:>12} {steps:>14} {err:>18.5}");
    }

    println!("\ntop 5 sources, algebra vs simulation (64 walkers x 20k steps):");
    let est = estimate_stationary(model.transitions(), &WalkConfig::default(), None);
    for &s in exact.top_k(5).iter() {
        println!(
            "  source {:<4} exact {:.5}   simulated {:.5}",
            s,
            exact.score(s),
            est[s as usize]
        );
    }
}
