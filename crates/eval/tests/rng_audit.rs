//! Deterministic-RNG audit: every randomized engine in the workspace must
//! be a pure function of its pinned seed — bitwise identical across
//! repeated runs *and* across worker-thread counts.
//!
//! Covered engines: the synthetic crawl generator (`sr_gen::generate`),
//! the seeded spam attacks (`sr_spam::Step::Honeypot`), the §S17
//! Monte-Carlo stationary simulator (`sr_core::montecarlo`), and the
//! Monte-Carlo walk cache (`sr_core::approx`, bytes and query scores). Reproducibility is the repo's bedrock claim
//! (every RUNS/BENCH artifact names its seeds); this suite is the single
//! place that claim is enforced for all RNG consumers at once.

use sr_core::approx::{QueryConfig, WalkCacheConfig};
use sr_core::montecarlo::{estimate_stationary, WalkConfig};
use sr_core::PageRank;
use sr_gen::{generate, Dataset};
use sr_graph::source_graph::SourceGraphConfig;
use sr_graph::transpose::transpose;
use sr_spam::{AttackResult, Campaign, Step};
use std::path::PathBuf;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("sr_rng_audit");
    std::fs::create_dir_all(&dir).ok();
    dir.join(tag)
}

/// Runs `f` twice at 1 worker thread and once at 8, asserting all three
/// outputs are identical. `T` is whatever bit-exact encoding the engine
/// under audit exposes (raw bytes, `to_bits` vectors, graph structures).
fn assert_seed_pure<T: PartialEq + std::fmt::Debug>(label: &str, f: &dyn Fn() -> T) {
    let first = sr_par::with_threads(1, f);
    let again = sr_par::with_threads(1, f);
    let wide = sr_par::with_threads(8, f);
    assert_eq!(first, again, "{label}: two runs from one seed differ");
    assert_eq!(first, wide, "{label}: thread count changed the output");
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn crawl_generator_is_seed_pure() {
    let config = Dataset::Wb2001.config(0.0003);
    assert_seed_pure("sr-gen generate", &|| {
        let crawl = generate(&config);
        (
            crawl.pages.clone(),
            crawl.assignment.clone(),
            crawl.spam_sources.clone(),
        )
    });
    // Different seeds must actually diversify the output — a constant
    // function would pass the purity check vacuously.
    let mut other = config.clone();
    other.seed ^= 0xDEAD_BEEF;
    assert_ne!(
        generate(&config).pages,
        generate(&other).pages,
        "changing the seed must change the crawl"
    );
}

#[test]
fn seeded_attacks_are_seed_pure() {
    let crawl = generate(&Dataset::Wb2001.config(0.0003));
    let target = crawl.pages.num_nodes() as u32 / 2;
    let seeded_honeypot = |seed: u64| -> AttackResult {
        let step = Step::Honeypot {
            pages: 5,
            induced_links: 40,
            seed,
        };
        Campaign::new()
            .step(step)
            .execute(&crawl.pages, &crawl.assignment, target)
    };
    assert_seed_pure("honeypot attack", &|| {
        let r = seeded_honeypot(0xA11CE);
        (
            r.pages.clone(),
            r.injected_pages.clone(),
            r.injected_sources.clone(),
        )
    });
    let with_other_seed = seeded_honeypot(0xB0B);
    let original = seeded_honeypot(0xA11CE);
    assert_ne!(
        original.pages, with_other_seed.pages,
        "changing the attack seed must change the induced links"
    );
}

#[test]
fn montecarlo_simulator_is_seed_pure() {
    let crawl = generate(&Dataset::Wb2001.config(0.0003));
    let sources = crawl.source_graph(SourceGraphConfig::consensus());
    let transitions = sources.transitions();
    let cfg = WalkConfig {
        walkers: 16,
        steps: 2_000,
        burn_in: 50,
        ..Default::default()
    };
    assert_seed_pure("montecarlo fixed-horizon", &|| {
        bits(&estimate_stationary(transitions, &cfg, None))
    });
}

#[test]
fn walk_cache_is_seed_pure_in_bytes_and_scores() {
    let crawl = generate(&Dataset::Wb2001.config(0.0003));
    let sources = crawl.source_graph(SourceGraphConfig::consensus());
    let seeds: Vec<u32> = crawl.spam_sources.iter().take(2).copied().collect();
    assert!(!seeds.is_empty(), "fixture must label spam sources");
    // The reversed walk of spam proximity: PageRank over the transpose.
    let reversed = transpose(sources.structural());
    let pr = PageRank::default();
    let cfg = WalkCacheConfig {
        walks: 8,
        source_batch: 257, // odd batch size: seams must not show
        ..Default::default()
    };
    assert_seed_pure("approx walk cache", &|| {
        let path = tmp("audit.walks");
        let cache = pr.build_walk_cache(&reversed, cfg.clone(), &path).unwrap();
        let engine = pr.approx(&reversed, &cache).unwrap();
        let scores = engine.query(&seeds, &QueryConfig::default()).unwrap();
        (std::fs::read(&path).unwrap(), bits(scores.scores()))
    });
    // A different master seed must change the cache bytes.
    let a = std::fs::read(tmp("audit.walks")).unwrap();
    drop(
        pr.build_walk_cache(
            &reversed,
            WalkCacheConfig {
                seed: 0x00DD_BA11,
                ..cfg
            },
            &tmp("audit_other.walks"),
        )
        .unwrap(),
    );
    let b = std::fs::read(tmp("audit_other.walks")).unwrap();
    assert_ne!(a, b, "changing the cache seed must change the walk bytes");
}
