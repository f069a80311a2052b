//! Ablations of the design choices DESIGN.md calls out:
//!
//! * solver: parallel power method vs linear-form power vs Gauss–Seidel;
//! * storage: CSR vs on-disk shard (WebGraph-style codec) row iteration;
//! * source weighting: consensus vs uniform extraction;
//! * proximity weighting: consensus-weighted vs uniform (BadRank) reversed
//!   walk;
//! * throttle self-edge policy: retain vs surrender.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sr_bench::{consensus_sources, kernel_crawl, proximity_setup, wb_crawl};
use sr_core::operator::UniformTransition;
use sr_core::proximity::ProximityWeighting;
use sr_core::{
    ConvergenceCriteria, PageRank, SelfEdgePolicy, Solver, SolverWorkspace, SpamProximity,
    SpamResilientSourceRank, Teleport,
};
use sr_graph::source_graph::{extract, SourceGraphConfig};
use sr_graph::ChunkArena;

fn bench_solvers(c: &mut Criterion) {
    let crawl = kernel_crawl();
    let sources = consensus_sources(&crawl);
    let mut group = c.benchmark_group("ablate/solver");
    group.sample_size(20);
    for (name, solver) in [
        ("power", Solver::Power),
        ("power_linear", Solver::PowerLinear),
        ("gauss_seidel", Solver::GaussSeidel),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let r = sr_core::solver::solve_weighted(
                    sources.transitions(),
                    0.85,
                    &Teleport::Uniform,
                    &ConvergenceCriteria::default(),
                    solver,
                    None,
                    &mut SolverWorkspace::new(),
                    None,
                );
                black_box(r.stats().iterations)
            })
        });
    }
    group.finish();
}

fn bench_storage(c: &mut Criterion) {
    let crawl = kernel_crawl();
    let dir = std::env::temp_dir().join(format!("sr_ablate_shards_{}", std::process::id()));
    let shards = sr_graph::shard::build_from_csr(
        &crawl.pages,
        &dir,
        &dir.join("kernel_crawl.shards"),
        sr_graph::shard::DEFAULT_SHARD_BYTES,
    )
    .expect("shard kernel crawl");
    let mut group = c.benchmark_group("ablate/storage_iteration");
    group.sample_size(20);
    group.bench_function("csr_sum_targets", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for u in 0..crawl.pages.num_nodes() as u32 {
                for &v in crawl.pages.neighbors(u) {
                    acc += u64::from(v);
                }
            }
            black_box(acc)
        })
    });
    // The shards hold the reverse graph: the same edges, summed by source,
    // read shard by shard through the chunk path the out-of-core solve
    // streams (one positioned read and one block decode per shard).
    group.bench_function("sharded_sum_sources", |b| {
        let spans = shards.chunk_spans(1).expect("shard spans");
        let (mut buf, mut arena) = (Vec::new(), ChunkArena::new());
        b.iter(|| {
            let mut acc = 0u64;
            for span in &spans {
                shards.load_chunk(span, &mut buf).unwrap();
                shards.decode_chunk(span, &buf, &mut arena).unwrap();
                acc += arena.targets().iter().map(|&u| u64::from(u)).sum::<u64>();
            }
            black_box(acc)
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_weighting(c: &mut Criterion) {
    let crawl = kernel_crawl();
    let mut group = c.benchmark_group("ablate/source_weighting");
    group.sample_size(10);
    for (name, cfg) in [
        ("consensus", SourceGraphConfig::consensus()),
        ("uniform", SourceGraphConfig::uniform()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    extract(&crawl.pages, &crawl.assignment, cfg)
                        .unwrap()
                        .num_edges(),
                )
            })
        });
    }
    group.finish();
}

fn bench_proximity_weighting(c: &mut Criterion) {
    let crawl = wb_crawl();
    let sources = consensus_sources(&crawl);
    let (seeds, _) = proximity_setup(&crawl);
    let mut group = c.benchmark_group("ablate/proximity_weighting");
    group.sample_size(10);
    for (name, w) in [
        ("consensus", ProximityWeighting::Consensus),
        ("uniform", ProximityWeighting::Uniform),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let r = SpamProximity::new()
                    .weighting(w)
                    .scores(&sources, &seeds)
                    .expect("seed set is non-empty");
                black_box(r.stats().iterations)
            })
        });
    }
    group.finish();
}

fn bench_self_edge_policy(c: &mut Criterion) {
    let crawl = wb_crawl();
    let sources = consensus_sources(&crawl);
    let (seeds, top_k) = proximity_setup(&crawl);
    let kappa = SpamProximity::new()
        .throttle_top_k(&sources, &seeds, top_k)
        .expect("seed set is non-empty");
    let mut group = c.benchmark_group("ablate/self_edge_policy");
    group.sample_size(10);
    for (name, policy) in [
        ("retain", SelfEdgePolicy::Retain),
        ("surrender", SelfEdgePolicy::Surrender),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let r = SpamResilientSourceRank::builder()
                    .throttle(kappa.clone())
                    .self_edge_policy(policy)
                    .build(&sources)
                    .rank();
                black_box(r.stats().iterations)
            })
        });
    }
    group.finish();
}

fn bench_pagerank_kernel(c: &mut Criterion) {
    let crawl = kernel_crawl();
    let mut group = c.benchmark_group("ablate/pagerank_kernel");
    group.sample_size(10);
    group.bench_function("pagerank_60k_pages", |b| {
        b.iter(|| black_box(PageRank::default().rank(&crawl.pages).stats().iterations))
    });
    group.finish();
}

/// Cold vs warm restart after a localized attack mutation — the incremental
/// re-ranking path the ROI experiment uses.
fn bench_warm_start(c: &mut Criterion) {
    use sr_spam::{Campaign, Step};
    let crawl = kernel_crawl();
    let clean = PageRank::default().rank(&crawl.pages);
    let farm = Step::Farm {
        pages: 100,
        exchange: false,
    };
    let attack = Campaign::new()
        .step(farm)
        .execute(&crawl.pages, &crawl.assignment, 0);
    let mut group = c.benchmark_group("ablate/restart_after_attack");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| black_box(PageRank::default().rank(&attack.pages).stats().iterations))
    });
    group.bench_function("warm", |b| {
        b.iter(|| {
            black_box(
                PageRank::default()
                    .rank_operator_warm_in(
                        &UniformTransition::new(&attack.pages),
                        Some(clean.scores()),
                        &mut SolverWorkspace::new(),
                        None,
                    )
                    .stats()
                    .iterations,
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_solvers,
    bench_storage,
    bench_weighting,
    bench_proximity_weighting,
    bench_self_edge_policy,
    bench_pagerank_kernel,
    bench_warm_start
);
criterion_main!(benches);
