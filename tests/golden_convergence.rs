//! Golden convergence trajectories, recorded via `sr-obs`.
//!
//! The closed-form fixtures of `tests/closed_form.rs` have known fixed
//! points, which makes their residual histories a *golden* signal: on these
//! configurations the damped iteration is a contraction, so the recorded
//! L2 residual must fall monotonically and the solver must stop at the
//! first iterate below the paper's stop rule, **L2 < 1e-9** (the
//! [`sr_core::ConvergenceCriteria`] default). A solver change that alters
//! convergence behaviour — even while landing on the same fixed point —
//! trips these assertions.

use sr_core::operator::WeightedTransition;
use sr_core::{
    solve, ConvergenceCriteria, Formulation, SolveColumn, SolveRequest, SolverWorkspace,
    SourceRank, Teleport,
};
use sr_graph::WeightedGraph;
use sr_obs::{RecordingObserver, SolveTelemetry};

/// The §4.2 collusion configuration (same shape as `tests/closed_form.rs`):
/// node 0 = target (pure self-loop), nodes 1..=x colluders, the rest
/// isolated world sources.
fn collusion_graph(n: usize, x: usize, kappa: f64) -> WeightedGraph {
    let mut triples = vec![(0u32, 0u32, 1.0)];
    for i in 1..=x as u32 {
        if kappa > 0.0 {
            triples.push((i, i, kappa));
        }
        triples.push((i, 0, 1.0 - kappa));
    }
    for i in (x + 1) as u32..n as u32 {
        triples.push((i, i, 1.0));
    }
    WeightedGraph::from_triples(n, triples)
}

/// The golden-trajectory contract: converged under the documented
/// `L2 < 1e-9` rule, monotone-decreasing residuals, and stopping at the
/// *first* iterate below tolerance (no over- or under-shooting).
fn assert_golden(label: &str, t: &SolveTelemetry, tolerance: f64) {
    assert!(t.converged, "{label}: did not converge");
    assert_eq!(
        t.iterations,
        t.residuals.len(),
        "{label}: one residual per iteration"
    );
    let last = *t.residuals.last().expect("at least one iteration");
    assert_eq!(
        last.to_bits(),
        t.final_residual.to_bits(),
        "{label}: final residual is the last recorded one"
    );
    assert!(
        last < tolerance,
        "{label}: stopped at residual {last}, above the stop rule {tolerance}"
    );
    for (i, w) in t.residuals.windows(2).enumerate() {
        assert!(
            w[1] < w[0],
            "{label}: residual rose at iteration {}: {} -> {}",
            i + 2,
            w[0],
            w[1]
        );
    }
    for (i, &r) in t.residuals[..t.residuals.len() - 1].iter().enumerate() {
        assert!(
            r >= tolerance,
            "{label}: iteration {} was already below tolerance ({r}) but the \
             solver kept going",
            i + 1
        );
    }
}

#[test]
fn power_method_trajectory_is_golden_on_collusion_fixture() {
    for (x, kappa) in [(1usize, 0.0f64), (4, 0.5), (6, 0.9)] {
        let g = collusion_graph(16, x, kappa);
        let op = WeightedTransition::new(&g);
        let request = SolveRequest::new(vec![SolveColumn::new(0.85, Teleport::Uniform)])
            .criteria(ConvergenceCriteria::default())
            .formulation(Formulation::LinearSystem);
        let mut ws = SolverWorkspace::new();
        let mut obs = RecordingObserver::new();
        solve(&op, &request, &mut ws, &mut [Some(&mut obs)]);
        let t = obs.telemetry();
        assert_eq!(t.solver, "jacobi");
        assert_golden(&format!("jacobi x={x} kappa={kappa}"), t, 1e-9);
    }
}

#[test]
fn eigenvector_power_trajectory_is_golden() {
    let g = collusion_graph(12, 5, 0.6);
    let op = WeightedTransition::new(&g);
    let request = SolveRequest::new(vec![SolveColumn::new(0.85, Teleport::Uniform)])
        .criteria(ConvergenceCriteria::default())
        .formulation(Formulation::Eigenvector);
    let mut ws = SolverWorkspace::new();
    let mut obs = RecordingObserver::new();
    solve(&op, &request, &mut ws, &mut [Some(&mut obs)]);
    let t = obs.telemetry();
    assert_eq!(t.solver, "power");
    assert_golden("power", t, 1e-9);
}

#[test]
fn gauss_seidel_trajectory_is_golden() {
    let g = collusion_graph(12, 5, 0.6);
    let mut obs = RecordingObserver::new();
    sr_core::gauss_seidel::gauss_seidel(
        &g,
        0.85,
        &Teleport::Uniform,
        &ConvergenceCriteria::default(),
        Some(&mut obs),
    );
    let t = obs.telemetry();
    assert_eq!(t.solver, "gauss_seidel");
    assert_golden("gauss_seidel", t, 1e-9);
}

#[test]
fn public_sourcerank_api_records_a_golden_trajectory() {
    use sr_graph::source_graph::{extract, SourceGraphConfig};
    use sr_graph::{GraphBuilder, SourceAssignment};

    // The collusion page graph of `tests/closed_form.rs`: target source 0,
    // two single-page colluders, a two-page world source.
    let edges = vec![(0u32, 1u32), (1, 0), (2, 0), (3, 0), (4, 5), (5, 4)];
    let g = GraphBuilder::from_edges_exact(6, edges).unwrap();
    let a = SourceAssignment::new(vec![0, 0, 1, 2, 3, 3], 4).unwrap();
    let sg = extract(&g, &a, SourceGraphConfig::consensus()).unwrap();

    let mut obs = RecordingObserver::new();
    let ranked =
        SourceRank::new().rank_warm_in(&sg, None, &mut SolverWorkspace::new(), Some(&mut obs));
    let t = obs.telemetry();
    assert_golden("sourcerank", t, 1e-9);
    // Telemetry and the public stats view agree.
    assert_eq!(t.iterations, ranked.stats().iterations);
    assert_eq!(
        t.final_residual.to_bits(),
        ranked.stats().final_residual.to_bits()
    );
}
