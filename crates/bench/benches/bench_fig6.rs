//! Figure 6 — intra-source manipulation: the end-to-end cost of one
//! attack-and-rerank cycle per injection case (graph mutation, PageRank on
//! the attacked page graph, source re-extraction, throttled SR-SourceRank).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sr_bench::{consensus_sources, proximity_setup, uk_crawl};
use sr_core::{PageRank, SpamProximity, SpamResilientSourceRank};
use sr_graph::source_graph::{extract, SourceGraphConfig};
use sr_spam::{Campaign, InjectionCase, Step};

fn bench_fig6(c: &mut Criterion) {
    let crawl = uk_crawl();
    let sources = consensus_sources(&crawl);
    let (seeds, top_k) = proximity_setup(&crawl);
    let kappa = SpamProximity::new()
        .throttle_top_k(&sources, &seeds, top_k)
        .expect("seed set is non-empty");
    // A multi-page source somewhere in the middle of the id space.
    let target_source = (0..crawl.num_sources() as u32)
        .find(|&s| crawl.pages_of(s).len() > 3 && kappa.get(s) == 0.0)
        .expect("an unthrottled multi-page source exists");
    let target_page = crawl.home_page(target_source) + 1;

    let mut group = c.benchmark_group("fig6/attack_and_rerank");
    group.sample_size(10);
    for case in InjectionCase::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(case.label()),
            &case,
            |b, case| {
                b.iter(|| {
                    let attack = Campaign::new()
                        .step(Step::IntraInjection {
                            count: case.pages(),
                        })
                        .execute(&crawl.pages, &crawl.assignment, target_page);
                    let pr = PageRank::default().rank(&attack.pages);
                    let sg = extract(
                        &attack.pages,
                        &attack.assignment,
                        SourceGraphConfig::consensus(),
                    )
                    .unwrap();
                    let srsr = SpamResilientSourceRank::builder()
                        .throttle(kappa.clone())
                        .build(&sg)
                        .rank();
                    black_box((pr.percentile(target_page), srsr.percentile(target_source)))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
