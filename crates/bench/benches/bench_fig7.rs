//! Figure 7 — inter-source manipulation: one attack-and-rerank cycle per
//! injection case, with the spam pages placed in a colluding source.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sr_bench::{consensus_sources, proximity_setup, uk_crawl};
use sr_core::{PageRank, SpamProximity, SpamResilientSourceRank};
use sr_graph::source_graph::{extract, SourceGraphConfig};
use sr_graph::SourceId;
use sr_spam::{Campaign, InjectionCase, Step};

fn bench_fig7(c: &mut Criterion) {
    let crawl = uk_crawl();
    let sources = consensus_sources(&crawl);
    let (seeds, top_k) = proximity_setup(&crawl);
    let kappa = SpamProximity::new()
        .throttle_top_k(&sources, &seeds, top_k)
        .expect("seed set is non-empty");
    let mut eligible = (0..crawl.num_sources() as u32)
        .filter(|&s| crawl.pages_of(s).len() > 3 && kappa.get(s) == 0.0);
    let target_source = eligible.next().expect("target source");
    let colluding_source = eligible.next().expect("colluding source");
    let target_page = crawl.home_page(target_source) + 1;

    let mut group = c.benchmark_group("fig7/attack_and_rerank");
    group.sample_size(10);
    for case in InjectionCase::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(case.label()),
            &case,
            |b, case| {
                b.iter(|| {
                    let attack = Campaign::new()
                        .step(Step::CrossInjection {
                            colluding_source: SourceId(colluding_source),
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

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
