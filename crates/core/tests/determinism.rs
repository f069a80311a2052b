//! Thread-count invariance of the whole ranking pipeline.
//!
//! The engine's contract is that `SR_THREADS=1` and `SR_THREADS=8` produce
//! **bit-identical** results — not merely close ones. All parallel float
//! folds run over fixed [`sr_par::PAR_THRESHOLD`]-sized blocks, so the
//! association order never depends on the worker count. This suite pins the
//! contract end to end: identical rank bits *and* identical telemetry
//! (iteration counts, full residual sequences) for the power method, the
//! Jacobi (linear-system) sweep, and SR-SourceRank.

use sr_core::operator::UniformTransition;
use sr_core::power::Formulation;
use sr_core::{PageRank, RankVector, SolverWorkspace, SpamResilientSourceRank};
use sr_gen::{generate, Dataset};
use sr_graph::source_graph::SourceGraphConfig;
use sr_graph::CsrGraph;
use sr_obs::{RecordingObserver, SolveTelemetry};

/// `pr` over `graph`, reporting to `obs`.
fn rank_recorded(pr: PageRank, graph: &CsrGraph, obs: &mut RecordingObserver) -> RankVector {
    let op = UniformTransition::new(graph);
    pr.rank_operator_warm_in(&op, None, &mut SolverWorkspace::new(), Some(obs))
}

struct Observed {
    rank_bits: Vec<u64>,
    telemetry: SolveTelemetry,
}

/// Runs `solve` with the effective worker count pinned to `threads`,
/// recording scores and telemetry. The solve closure builds its operators
/// inside the override so chunking decisions see the pinned count.
fn run_at(threads: usize, solve: &dyn Fn(&mut RecordingObserver) -> Vec<f64>) -> Observed {
    sr_par::with_threads(threads, || {
        let mut obs = RecordingObserver::new();
        let scores = solve(&mut obs);
        Observed {
            rank_bits: scores.iter().map(|v| v.to_bits()).collect(),
            telemetry: obs.into_telemetry(),
        }
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The invariance contract: ranks and telemetry bit-identical at 1 vs 8
/// worker threads.
fn assert_invariant(label: &str, solve: &dyn Fn(&mut RecordingObserver) -> Vec<f64>) {
    let one = run_at(1, solve);
    let eight = run_at(8, solve);
    assert_eq!(
        one.rank_bits, eight.rank_bits,
        "{label}: rank bits differ between 1 and 8 threads"
    );
    let (a, b) = (&one.telemetry, &eight.telemetry);
    assert_eq!(a.solver, b.solver, "{label}: solver label");
    assert_eq!(a.iterations, b.iterations, "{label}: iteration count");
    assert_eq!(a.converged, b.converged, "{label}: convergence flag");
    assert_eq!(
        a.final_residual.to_bits(),
        b.final_residual.to_bits(),
        "{label}: final residual"
    );
    assert_eq!(
        bits(&a.residuals),
        bits(&b.residuals),
        "{label}: residual sequence"
    );
    assert_eq!(
        bits(&a.dangling),
        bits(&b.dangling),
        "{label}: dangling-mass sequence"
    );
    assert!(a.iterations > 0, "{label}: solve must iterate");
}

#[test]
fn page_and_source_ranks_are_thread_count_invariant() {
    // Big enough that the page graph crosses PAR_THRESHOLD and the parallel
    // paths genuinely engage at 8 threads.
    let crawl = generate(&Dataset::Wb2001.config(0.0005));
    assert!(
        crawl.pages.num_nodes() > sr_par::PAR_THRESHOLD,
        "fixture too small to exercise the parallel paths: {} nodes",
        crawl.pages.num_nodes()
    );
    let sources = crawl.source_graph(SourceGraphConfig::consensus());
    let spam = crawl.spam_sources.clone();
    let top_k = (sources.num_sources() / 30).max(1);

    assert_invariant("power", &|obs| {
        rank_recorded(PageRank::builder().finish(), &crawl.pages, obs)
            .scores()
            .to_vec()
    });

    assert_invariant("jacobi", &|obs| {
        let pr = PageRank::builder()
            .formulation(Formulation::LinearSystem)
            .finish();
        rank_recorded(pr, &crawl.pages, obs).scores().to_vec()
    });

    assert_invariant("sr-sourcerank", &|obs| {
        SpamResilientSourceRank::builder()
            .throttle_by_proximity(spam.clone(), top_k, 0.85)
            .build(&sources)
            .rank_warm_in(None, &mut SolverWorkspace::new(), Some(obs))
            .scores()
            .to_vec()
    });
}

#[test]
fn telemetry_labels_name_the_solver() {
    let crawl = generate(&Dataset::Uk2002.config(0.0005));
    let mut obs = RecordingObserver::new();
    rank_recorded(PageRank::builder().finish(), &crawl.pages, &mut obs);
    assert_eq!(obs.telemetry().solver, "power");
    let mut obs = RecordingObserver::new();
    let jacobi = PageRank::builder()
        .formulation(Formulation::LinearSystem)
        .finish();
    rank_recorded(jacobi, &crawl.pages, &mut obs);
    assert_eq!(obs.telemetry().solver, "jacobi");
}
