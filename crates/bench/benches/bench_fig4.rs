//! Figure 4 — PageRank vs SR-SourceRank under the three collusion
//! scenarios: the analytic series plus a numeric verification solve of the
//! x-colluder configuration (the workload behind the figure's SR-SourceRank
//! caps).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sr_analysis::figures;
use sr_core::{ConvergenceCriteria, Solver, SolverWorkspace, Teleport};
use sr_graph::WeightedGraph;

fn bench_series(c: &mut Criterion) {
    let taus: Vec<usize> = (0..=1000).collect();
    let kappas = figures::default_kappas();
    c.bench_function("fig4/analytic_series", |b| {
        b.iter(|| {
            let a = figures::fig4a(0.85, 10_000_000, &taus);
            let bb = figures::fig4b(0.85, 10_000_000, &taus, &kappas);
            let cc = figures::fig4c(0.85, 10_000_000, &taus, &kappas);
            black_box((a, bb, cc))
        })
    });
}

/// Builds the scenario-3 configuration (x colluding sources, one target,
/// world filler) as a transition matrix and solves it.
fn bench_scenario3_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4/scenario3_numeric");
    group.sample_size(20);
    for &x in &[10usize, 100, 1000] {
        let n = x + 1002;
        let mut triples = vec![(0u32, 0u32, 1.0)];
        for i in 1..=x as u32 {
            triples.push((i, i, 0.5));
            triples.push((i, 0, 0.5));
        }
        for i in (x + 1) as u32..n as u32 {
            triples.push((i, i, 1.0));
        }
        let t = WeightedGraph::from_triples(n, triples);
        group.bench_with_input(BenchmarkId::from_parameter(x), &t, |b, t| {
            b.iter(|| {
                let r = sr_core::solver::solve_weighted(
                    t,
                    0.85,
                    &Teleport::Uniform,
                    &ConvergenceCriteria::default(),
                    Solver::Power,
                    None,
                    &mut SolverWorkspace::new(),
                    None,
                );
                black_box(r.score(0))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_series, bench_scenario3_solve);
criterion_main!(benches);
