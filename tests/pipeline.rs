//! End-to-end pipeline integration tests: generate a crawl, extract the
//! source graph, run every ranking algorithm, and check the cross-crate
//! invariants that hold for any input.

use sourcerank::prelude::*;
use sr_core::hits::hits;
use sr_core::streamed::StreamedTransition;
use sr_core::{ConvergenceCriteria, SelfEdgePolicy, Solver, SolverWorkspace, TrustRank};
use sr_gen::{generate, CrawlConfig};
use sr_graph::source_graph::extract;
use sr_graph::transpose::transpose;

fn crawl() -> sr_gen::SyntheticCrawl {
    generate(&CrawlConfig::tiny(77))
}

#[test]
fn full_pipeline_produces_consistent_rankings() {
    let c = crawl();
    let sources = extract(&c.pages, &c.assignment, SourceGraphConfig::consensus()).unwrap();

    let pr = PageRank::default().rank(&c.pages);
    assert_eq!(pr.len(), c.num_pages());
    assert!(pr.stats().converged);
    assert!((pr.scores().iter().sum::<f64>() - 1.0).abs() < 1e-9);

    let sr = SourceRank::new().rank(&sources);
    assert_eq!(sr.len(), c.num_sources());
    assert!(sr.stats().converged);

    let seeds = c.sample_spam_seed(2, 1);
    let kappa = SpamProximity::new()
        .throttle_top_k(&sources, &seeds, 6)
        .unwrap();
    let model = SpamResilientSourceRank::builder()
        .throttle(kappa)
        .build(&sources);
    let srsr = model.rank();
    assert!(srsr.stats().converged);
    assert!((srsr.scores().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert_eq!(model.kappa().fully_throttled(), 6);
}

#[test]
fn all_solvers_agree_on_the_source_graph() {
    let c = crawl();
    let sources = extract(&c.pages, &c.assignment, SourceGraphConfig::consensus()).unwrap();
    let a = SourceRank::new().solver(Solver::Power).rank(&sources);
    let b = SourceRank::new().solver(Solver::PowerLinear).rank(&sources);
    let g = SourceRank::new().solver(Solver::GaussSeidel).rank(&sources);
    for s in 0..sources.num_sources() as u32 {
        assert!(
            (a.score(s) - b.score(s)).abs() < 1e-6,
            "power vs linear at {s}"
        );
        assert!(
            (a.score(s) - g.score(s)).abs() < 1e-6,
            "power vs gauss-seidel at {s}"
        );
    }
}

#[test]
fn rankings_are_deterministic_across_runs() {
    let run = || {
        let c = crawl();
        let sources = extract(&c.pages, &c.assignment, SourceGraphConfig::consensus()).unwrap();
        SourceRank::new().rank(&sources).scores().to_vec()
    };
    assert_eq!(run(), run());
}

#[test]
fn comparator_algorithms_run_on_the_same_substrate() {
    let c = crawl();
    // TrustRank from a few legitimate seeds.
    let trusted: Vec<u32> = (0..c.num_pages() as u32)
        .filter(|&p| !c.is_spam(c.assignment.raw()[p as usize]))
        .take(5)
        .collect();
    let tr = TrustRank::new().scores(&c.pages, &trusted);
    assert!(tr.stats().converged);
    // HITS on the page graph.
    let h = hits(&c.pages, &ConvergenceCriteria::default());
    assert!(h.stats.converged);
    assert_eq!(h.authorities.len(), c.num_pages());
}

#[test]
fn throttled_transitions_remain_stochastic_under_retain() {
    let c = crawl();
    let sources = extract(&c.pages, &c.assignment, SourceGraphConfig::consensus()).unwrap();
    let kappa = ThrottleVector::uniform(sources.num_sources(), 0.6);
    let model = SpamResilientSourceRank::builder()
        .throttle(kappa)
        .build(&sources);
    assert!(model.transitions().is_row_stochastic(1e-9));
}

#[test]
fn surrender_policy_rows_sum_to_one_minus_kappa() {
    let c = crawl();
    let sources = extract(&c.pages, &c.assignment, SourceGraphConfig::consensus()).unwrap();
    let kappa = ThrottleVector::uniform(sources.num_sources(), 0.3);
    let model = SpamResilientSourceRank::builder()
        .throttle(kappa)
        .self_edge_policy(SelfEdgePolicy::Surrender)
        .build(&sources);
    for s in 0..sources.num_sources() as u32 {
        let sum = model.transitions().row_sum(s);
        assert!((sum - 0.7).abs() < 1e-9, "row {s} sums to {sum}");
    }
}

#[test]
fn compressed_page_graph_roundtrips_through_ranking() {
    // The page graph written as shard files decodes back to its reverse
    // graph, and PageRank solved straight off the files has the same bits.
    let c = crawl();
    let dir = std::env::temp_dir().join(format!("sourcerank_pipeline_{}", std::process::id()));
    let sharded =
        sr_graph::shard::build_from_csr(&c.pages, &dir, &dir.join("pages.shards"), 512).unwrap();
    assert!(sharded.shards().len() > 1);
    assert_eq!(sharded.to_csr().unwrap(), transpose(&c.pages));
    let a = PageRank::default().rank(&c.pages);
    let b = PageRank::default().rank_operator_warm_in(
        &StreamedTransition::from_sharded(&sharded),
        None,
        &mut SolverWorkspace::new(),
        None,
    );
    assert_eq!(a.scores(), b.scores());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn domain_grouping_merges_shared_hosting_sources() {
    // The §3.1 granularity knob: spam sources parked on a shared-hosting
    // provider are separate sources at host granularity but ONE source at
    // domain granularity — so a single throttling decision covers them all.
    let c = crawl();
    let provider_members: Vec<u32> = c.spam_sources.clone();
    let urls: Vec<String> = (0..c.num_pages() as u32)
        .map(|p| {
            let s = c.assignment.raw()[p as usize];
            let k = (p - c.home_page(s)) as usize;
            if provider_members.contains(&s) {
                // All spam parked on one shared-hosting provider.
                let host = sr_gen::urls::shared_host_name(s, 7);
                format!("http://{host}/page/{k}")
            } else {
                sr_gen::urls::page_url(s, false, k)
            }
        })
        .collect();
    let (by_host, _) = SourceAssignment::from_urls(&urls);
    let (by_domain, domains) = SourceAssignment::from_urls_by_domain(&urls);
    assert_eq!(by_host.num_sources(), c.num_sources());
    assert_eq!(
        by_domain.num_sources(),
        c.num_sources() - provider_members.len() + 1,
        "provider members should collapse into one domain source"
    );
    assert!(domains.iter().any(|d| d == "provider07.test"));
    // The merged source graph still extracts and ranks.
    let sg = sr_graph::source_graph::extract(&c.pages, &by_domain, SourceGraphConfig::consensus())
        .unwrap();
    let r = SourceRank::new().rank(&sg);
    assert!(r.stats().converged);
}

#[test]
fn url_based_assignment_matches_generator_assignment() {
    // Rebuild the page->source mapping from synthesized URLs and verify it
    // groups pages identically (up to source-id relabeling).
    let c = crawl();
    let urls: Vec<String> = (0..c.num_pages() as u32)
        .map(|p| {
            let s = c.assignment.raw()[p as usize];
            let k = (p - c.home_page(s)) as usize;
            sr_gen::urls::page_url(s, c.is_spam(s), k)
        })
        .collect();
    let (rebuilt, _hosts) = SourceAssignment::from_urls(&urls);
    assert_eq!(rebuilt.num_sources(), c.num_sources());
    for p in 0..c.num_pages() {
        for q in 0..c.num_pages() {
            let same_orig = c.assignment.raw()[p] == c.assignment.raw()[q];
            let same_rebuilt = rebuilt.raw()[p] == rebuilt.raw()[q];
            if same_orig != same_rebuilt {
                panic!("pages {p} and {q} grouped differently");
            }
        }
    }
}
