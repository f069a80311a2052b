//! The damped fixed-point driver behind every ranking in this workspace.
//!
//! PageRank (Eq. 1), Spam-Resilient SourceRank over `T″` (Eq. 3) and spam
//! proximity over the reversed source graph (Eq. 6) are all one iteration,
//! `x ← αxP + (1−α)c`, in one of two formulations matching the two ways the
//! paper writes its equations:
//!
//! * **Eigenvector** ([`Formulation::Eigenvector`]): iterate the stochastic
//!   chain `T̂ = α(P + d·cᵀ) + (1−α)𝟙cᵀ` (Eq. 2), where dangling-row mass
//!   re-enters through the teleport vector `c` (strongly preferential, in
//!   Vigna's terms) so every iterate remains a probability distribution.
//! * **Linear system** ([`Formulation::LinearSystem`]): iterate
//!   `x ← αxP + (1−α)cᵀ` (Eq. 3 / the Jacobi iteration the paper cites from
//!   Gleich et al. and Langville & Meyer), where dangling mass simply leaks;
//!   the fixed point is then L1-normalized, which the paper notes yields
//!   "exactly the same" ranking vector.
//!
//! ## One request, one driver
//!
//! A [`SolveRequest`] carries K [`SolveColumn`]s — each with its own
//! damping α, teleport vector and optional warm start — plus the stopping
//! rule and formulation they share. [`solve`] runs it over
//! any [`Transition`], K = 1 included: a single PageRank and a damping sweep
//! are the same call. Columns are tiled into panels of at most
//! [`Transition::panel_width`] (≤ [`PANEL_WIDTH`]); the K iterates of a
//! panel live column-blocked in one row-major `[node][k]` buffer and the
//! operator's [`propagate_panel`](Transition::propagate_panel) gathers each
//! adjacency row **once** for all of them — the SpMV→SpMM bandwidth win. A
//! width-1 panel is a contiguous vector, so it runs the operator's fused
//! single-vector kernel.
//!
//! Each iteration is two sweeps: the propagation, then **one** fused
//! damp + teleport + dangling-redistribution + L2-residual sweep over the
//! new panel (the seed paid three passes; the residual now falls out of the
//! update). All working vectors live in a caller-owned [`SolverWorkspace`],
//! so repeated solves — the warm-start incremental re-ranking the attack
//! experiments run in a loop — allocate nothing per iteration.
//!
//! ## Bit-identity
//!
//! Every column of a K-column request is **bit-identical** to a one-column
//! request with its parameters — same scores, same residual history, same
//! iteration count:
//!
//! * the panel gather accumulates each (row, column) pair in ascending
//!   CSR-position order with its own accumulator ([`sr_graph::panel`]
//!   kernels), exactly like the single-vector gather;
//! * every blocked reduction (dangling, deficit, residual) runs over blocks
//!   of [`sr_par::PAR_THRESHOLD`] *nodes*, per-column partials combined in
//!   block order — so results are also bit-identical across thread counts;
//! * a column whose residual drops below tolerance is **retired**: its
//!   scores leave the panel (and are L1-normalized as a contiguous vector)
//!   and the survivors are **compacted** into a narrower panel. Columns
//!   never read each other's slots, so neither retirement nor the width
//!   change can perturb the survivors' bits.
//!
//! On a single reduction block (under [`sr_par::PAR_THRESHOLD`] nodes) a
//! one-column solve performs the seed's three-pass floating-point
//! operations in the seed's order; that loop is
//! preserved in [`mod@reference`] as the parity oracle. The driver never
//! looks inside the operator, so the out-of-core
//! [`StreamedTransition`](crate::streamed::StreamedTransition) inherits the
//! in-RAM iteration counts and scores whenever its `propagate_with` is
//! bitwise-equal. The differential suites
//! (`crates/core/tests/batch_differential.rs`, `sharded_differential.rs`)
//! pin all of this.
//!
//! Observers (`sr_obs::SolveObserver`, one optional slot per column) see
//! each column exactly as a one-column solve would; they are consulted once
//! per *iteration*, never inside the parallel sweeps.

use crate::convergence::{ConvergenceCriteria, IterationStats};
use crate::operator::Transition;
use crate::rankvec::RankVector;
use crate::teleport::Teleport;
use crate::vecops;
use sr_obs::SolveObserver;

/// Width of one SpMM tile: requests wider than this are solved as
/// consecutive panels. Eight f64 columns make a 64-byte panel row — one
/// cache line per visited node — which is where the gather's bandwidth win
/// saturates.
pub const PANEL_WIDTH: usize = sr_graph::PANEL_MAX_WIDTH;

/// Which fixed-point equation to iterate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Formulation {
    /// Stochastic chain with dangling mass redistributed via teleport. Default.
    #[default]
    Eigenvector,
    /// Pure linear-system sweep (`x ← αxP + (1−α)c`), normalized at the end.
    LinearSystem,
}

/// One column of a [`SolveRequest`]: the per-solve parameters of the damped
/// walk.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveColumn {
    /// Mixing (damping) parameter α of this column — the paper uses 0.85.
    pub alpha: f64,
    /// Teleport distribution `c` of this column.
    pub teleport: Teleport,
    /// Optional warm-start vector. After a small graph mutation (e.g. one
    /// injected link farm) the previous stationary vector is an excellent
    /// initial iterate and typically halves the iteration count. Its length
    /// must match the operator; it is L1-normalized before use and falls
    /// back to the teleport if it normalizes to zero.
    pub initial: Option<Vec<f64>>,
}

impl Default for SolveColumn {
    /// The paper's walk: α = 0.85, uniform teleport, cold start.
    fn default() -> Self {
        SolveColumn::new(0.85, Teleport::Uniform)
    }
}

impl SolveColumn {
    /// A cold-started column.
    pub fn new(alpha: f64, teleport: Teleport) -> Self {
        SolveColumn {
            alpha,
            teleport,
            initial: None,
        }
    }

    /// Attaches a warm-start vector of exactly the operator's length.
    pub fn with_initial(mut self, initial: Vec<f64>) -> Self {
        self.initial = Some(initial);
        self
    }

    /// Attaches a warm start computed on an `n`-state operator's past self:
    /// `initial` may cover fewer than `n` states (pages or sources added
    /// since), and the missing entries start at their teleport mass.
    ///
    /// # Panics
    /// Panics if `initial` covers more than `n` states.
    pub fn with_padded_initial(self, initial: &[f64], n: usize) -> Self {
        assert!(
            initial.len() <= n,
            "warm-start vector covers more states than the operator"
        );
        let mut x0 = Vec::with_capacity(n);
        x0.extend_from_slice(initial);
        x0.extend((initial.len()..n).map(|i| self.teleport.mass(i, n)));
        self.with_initial(x0)
    }
}

/// A family of damped solves over one operator: K parameter columns plus
/// the stopping rule and formulation they share.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// The parameter columns, solved (and returned) in order.
    pub columns: Vec<SolveColumn>,
    /// Shared stopping rule.
    pub criteria: ConvergenceCriteria,
    /// Shared fixed-point formulation.
    pub formulation: Formulation,
}

impl SolveRequest {
    /// A request over `columns` with the paper's stopping rule and the
    /// eigenvector formulation.
    pub fn new(columns: Vec<SolveColumn>) -> Self {
        SolveRequest {
            columns,
            criteria: ConvergenceCriteria::default(),
            formulation: Formulation::default(),
        }
    }

    /// Sets the shared stopping rule.
    pub fn criteria(mut self, criteria: ConvergenceCriteria) -> Self {
        self.criteria = criteria;
        self
    }

    /// Sets the shared fixed-point formulation.
    pub fn formulation(mut self, formulation: Formulation) -> Self {
        self.formulation = formulation;
        self
    }
}

/// Reusable buffers for [`solve`]: the two panel iterates, the operator
/// scratch, the teleport panel and per-column dangling masses. Buffers grow
/// on first use with a new shape and are reused verbatim afterwards, so a
/// loop of same-shaped solves allocates only the returned score vectors and
/// residual histories. A one-column solve holds four `n`-length vectors and
/// hands its iterate over as the result instead of copying it.
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    /// Current panel iterate.
    x: Vec<f64>,
    /// Propagation target panel, swapped with `x` every iteration; doubles
    /// as the staging vector while a tile is set up.
    y: Vec<f64>,
    /// Single-vector operator scratch (the pre-scaled iterate of the
    /// uniform operator), used whenever a panel is one column wide.
    scratch: Vec<f64>,
    /// Dense teleport panel.
    c: Vec<f64>,
    /// Per-column dangling mass of the latest sweep.
    dangling: Vec<f64>,
}

impl SolverWorkspace {
    /// An empty workspace; buffers are sized on first solve.
    pub fn new() -> Self {
        SolverWorkspace::default()
    }

    /// Sizes every buffer for an `n`-state, `width`-column tile.
    fn prepare(&mut self, n: usize, width: usize) {
        self.x.resize(n * width, 0.0);
        self.y.resize(n * width, 0.0);
        self.scratch.resize(n, 0.0);
        self.c.resize(n * width, 0.0);
        self.dangling.resize(width, 0.0);
    }
}

/// Runs `request` over `op`, returning one L1-normalized [`RankVector`] per
/// column in column order — in the eigenvector formulation the norm is one
/// by construction, in the linear-system formulation this is the paper's
/// final `σ/‖σ‖` step.
///
/// `observers[k]`, when present, sees column `k`'s solve (solver label
/// `"power"` for the eigenvector formulation, `"jacobi"` for the linear
/// system); columns past the slice's end run unobserved, so `&mut []`
/// observes nothing.
///
/// ```
/// use sr_core::operator::UniformTransition;
/// use sr_core::{solve, SolveColumn, SolveRequest, SolverWorkspace, Teleport};
/// use sr_graph::GraphBuilder;
///
/// let g = GraphBuilder::from_edges(vec![(0, 1), (1, 2), (2, 0), (2, 1)]);
/// let op = UniformTransition::new(&g);
/// // A damping sweep: three columns, one pass over the edges per iteration.
/// let columns = [0.5, 0.85, 0.95].map(|a| SolveColumn::new(a, Teleport::Uniform));
/// let request = SolveRequest::new(columns.to_vec());
/// let ranks = solve(&op, &request, &mut SolverWorkspace::new(), &mut []);
/// assert_eq!(ranks.len(), 3);
/// assert!(ranks.iter().all(|r| r.stats().converged));
/// ```
///
/// # Panics
/// Panics if any column's α is outside `[0, 1)`, or a warm start has the
/// wrong length or a negative or non-finite entry.
pub fn solve(
    op: &dyn Transition,
    request: &SolveRequest,
    ws: &mut SolverWorkspace,
    observers: &mut [Option<&mut (dyn SolveObserver + '_)>],
) -> Vec<RankVector> {
    for col in &request.columns {
        assert!(
            (0.0..1.0).contains(&col.alpha),
            "alpha must be in [0,1), got {}",
            col.alpha
        );
    }
    let tile = op.panel_width().clamp(1, PANEL_WIDTH);
    let mut out = Vec::with_capacity(request.columns.len());
    for (tile_index, cols) in request.columns.chunks(tile).enumerate() {
        solve_tile(
            op,
            request,
            cols,
            tile_index * tile,
            ws,
            observers,
            &mut out,
        );
    }
    out
}

/// The observer attached to column `k`, if any.
fn observer<'s, 'o>(
    observers: &'s mut [Option<&mut (dyn SolveObserver + 'o)>],
    k: usize,
) -> Option<&'s mut (dyn SolveObserver + 'o)> {
    observers.get_mut(k)?.as_deref_mut()
}

/// Per-column iteration state inside one tile.
struct ColumnState {
    residual_history: Vec<f64>,
    residual: f64,
}

/// Solves one panel of `cols` (request columns `col_base..`), pushing the
/// finished [`RankVector`]s onto `out` in column order.
fn solve_tile(
    op: &dyn Transition,
    request: &SolveRequest,
    cols: &[SolveColumn],
    col_base: usize,
    ws: &mut SolverWorkspace,
    observers: &mut [Option<&mut (dyn SolveObserver + '_)>],
    out: &mut Vec<RankVector>,
) {
    let n = op.num_nodes();
    let width = cols.len();
    let criteria = &request.criteria;
    let solver_name = match request.formulation {
        Formulation::Eigenvector => "power",
        Formulation::LinearSystem => "jacobi",
    };
    for j in 0..width {
        if let Some(o) = observer(observers, col_base + j) {
            o.on_solve_start(solver_name, n);
        }
    }
    if n == 0 {
        for j in 0..width {
            if let Some(o) = observer(observers, col_base + j) {
                o.on_solve_end(0, 0.0, true);
            }
            out.push(RankVector::new(
                Vec::new(),
                IterationStats {
                    iterations: 0,
                    final_residual: 0.0,
                    converged: true,
                    residual_history: Vec::new(),
                },
            ));
        }
        return;
    }
    ws.prepare(n, width);
    let mut alphas: Vec<f64> = cols.iter().map(|c| c.alpha).collect();
    // Teleport panel and initial iterate: each column is prepared as a
    // contiguous vector in `y` (normalization association matters for
    // bit-identity across widths) and then interleaved into the panel.
    for (j, col) in cols.iter().enumerate() {
        let stage = &mut ws.y[..n];
        col.teleport.write_dense(stage);
        scatter_column(&mut ws.c, width, j, stage);
        if let Some(x0) = &col.initial {
            assert_eq!(x0.len(), n, "warm-start vector length mismatch");
            assert!(
                x0.iter().all(|v| v.is_finite() && *v >= 0.0),
                "warm-start vector must be finite and non-negative"
            );
            stage.copy_from_slice(x0);
            vecops::normalize_l1(stage);
            if vecops::l1_norm(stage) == 0.0 {
                col.teleport.write_dense(stage);
            }
        }
        scatter_column(&mut ws.x, width, j, stage);
    }

    let mut states: Vec<ColumnState> = (0..width)
        .map(|_| ColumnState {
            residual_history: Vec::new(),
            residual: f64::INFINITY,
        })
        .collect();
    let mut results: Vec<Option<RankVector>> = (0..width).map(|_| None).collect();
    // Panel position `p` holds tile column `live[p]`; retirement compacts
    // the panels, so the mapping (and the panel width) shrinks as columns
    // converge.
    let mut live: Vec<usize> = (0..width).collect();
    let mut residuals: Vec<f64> = Vec::with_capacity(width);

    for _ in 0..criteria.max_iterations {
        let w = live.len();
        if w == 0 {
            break;
        }
        op.propagate_panel(
            &ws.x[..n * w],
            &mut ws.y[..n * w],
            w,
            &mut ws.scratch,
            &mut ws.dangling[..w],
        );
        update_residual_panel(
            &mut ws.y[..n * w],
            &ws.x[..n * w],
            &ws.c[..n * w],
            &alphas,
            &ws.dangling[..w],
            request.formulation,
            &mut residuals,
        );
        for (p, &j) in live.iter().enumerate() {
            let state = &mut states[j];
            state.residual = residuals[p];
            state.residual_history.push(residuals[p]);
            if let Some(o) = observer(observers, col_base + j) {
                o.on_iteration(state.residual_history.len(), residuals[p], ws.dangling[p]);
            }
        }
        std::mem::swap(&mut ws.x, &mut ws.y);
        // Retire converged columns: extract now, while `x` holds the iterate
        // they converged on, then compact the panels to the survivors so
        // later sweeps run dense at the narrower width.
        let keep: Vec<usize> = (0..w)
            .filter(|&p| states[live[p]].residual >= criteria.tolerance)
            .collect();
        if keep.len() < w {
            for (p, &j) in live.iter().enumerate() {
                if states[j].residual < criteria.tolerance {
                    results[j] = Some(retire_column(
                        &mut ws.x,
                        n,
                        w,
                        p,
                        &mut states[j],
                        true,
                        observer(observers, col_base + j),
                    ));
                }
            }
            if !keep.is_empty() {
                compact_panel(&mut ws.x[..n * w], w, &keep);
                compact_panel(&mut ws.c[..n * w], w, &keep);
            }
            live = keep.iter().map(|&p| live[p]).collect();
            alphas = keep.iter().map(|&p| alphas[p]).collect();
        }
    }
    // Iteration cap: whatever is still live retires unconverged.
    let w = live.len();
    for (p, &j) in live.iter().enumerate() {
        results[j] = Some(retire_column(
            &mut ws.x,
            n,
            w,
            p,
            &mut states[j],
            false,
            observer(observers, col_base + j),
        ));
    }
    out.extend(
        results
            .into_iter()
            .map(|r| r.expect("every tile column retires exactly once")),
    );
}

/// Compacts a row-major `[node][width]` panel in place to the `keep` panel
/// positions (ascending): after the call the first `n · keep.len()` slots
/// hold the surviving columns, row-major at the narrower width. Safe in
/// place because every write lands at or before its read — within a row the
/// destination offset never exceeds the source offset, and row `r`'s writes
/// end before row `r + 1`'s reads begin.
fn compact_panel(panel: &mut [f64], width: usize, keep: &[usize]) {
    let new_w = keep.len();
    if new_w == width {
        return;
    }
    let n = panel.len() / width;
    for r in 0..n {
        let src = r * width;
        let dst = r * new_w;
        for (i, &p) in keep.iter().enumerate() {
            panel[dst + i] = panel[src + p];
        }
    }
}

/// Extracts panel column `j` of the `width`-wide iterate `x`, L1-normalizes
/// it as a contiguous vector (same association at every width) and closes
/// out its stats and observer. A one-column panel *is* the vector, so it is
/// moved out rather than copied (shedding any capacity left over from a
/// wider tile).
fn retire_column(
    x: &mut Vec<f64>,
    n: usize,
    width: usize,
    j: usize,
    state: &mut ColumnState,
    converged: bool,
    observer: Option<&mut (dyn SolveObserver + '_)>,
) -> RankVector {
    let mut scores = if width == 1 {
        let mut v = std::mem::take(x);
        v.truncate(n);
        v.shrink_to_fit();
        v
    } else {
        x[j..n * width].iter().step_by(width).copied().collect()
    };
    vecops::normalize_l1(&mut scores);
    let residual_history = std::mem::take(&mut state.residual_history);
    if let Some(o) = observer {
        o.on_solve_end(residual_history.len(), state.residual, converged);
    }
    RankVector::new(
        scores,
        IterationStats {
            iterations: residual_history.len(),
            final_residual: state.residual,
            converged,
            residual_history,
        },
    )
}

/// Interleaves contiguous `src` into column `j` of a row-major panel.
fn scatter_column(panel: &mut [f64], width: usize, j: usize, src: &[f64]) {
    for (row, &v) in panel.chunks_exact_mut(width).zip(src) {
        row[j] = v;
    }
}

/// The fused damp + teleport + dangling + residual sweep: one pass over the
/// `y` panel updating every column and accumulating its squared L2 residual
/// against `x`. Blocks cover [`sr_par::PAR_THRESHOLD`] nodes (block length
/// scaled by the width) and per-column partials are summed in block order,
/// so the fold is the same at every width and thread count; with a single
/// block (any graph under `PAR_THRESHOLD` nodes) it performs the seed's
/// separate update and distance passes bit for bit. Residuals are written
/// to `residuals` in panel-position order. The width is dispatched to
/// monomorphized kernels so the per-row column loops have compile-time trip
/// counts.
fn update_residual_panel(
    y: &mut [f64],
    x: &[f64],
    c: &[f64],
    alphas: &[f64],
    dangling: &[f64],
    formulation: Formulation,
    residuals: &mut Vec<f64>,
) {
    macro_rules! dispatch {
        ($k:literal) => {
            update_residual_panel_impl::<$k>(y, x, c, alphas, dangling, formulation, residuals)
        };
    }
    match alphas.len() {
        1 => dispatch!(1),
        2 => dispatch!(2),
        3 => dispatch!(3),
        4 => dispatch!(4),
        5 => dispatch!(5),
        6 => dispatch!(6),
        7 => dispatch!(7),
        8 => dispatch!(8),
        w => panic!("panel width {w} outside 1..={PANEL_WIDTH}; tile wider requests"),
    }
}

fn update_residual_panel_impl<const K: usize>(
    y: &mut [f64],
    x: &[f64],
    c: &[f64],
    alphas: &[f64],
    dangling: &[f64],
    formulation: Formulation,
    residuals: &mut Vec<f64>,
) {
    let alphas: &[f64; K] = alphas.try_into().expect("one alpha per panel column");
    let dangling: &[f64; K] = dangling.try_into().expect("one dangling mass per column");
    // The formulation match is hoisted out of the row loop (the macro stamps
    // one monomorphic body per formulation) so the hot loop has no
    // per-element branch and vectorizes cleanly.
    let partials = sr_par::for_each_block(y, sr_par::PAR_THRESHOLD * K, |b, part| {
        let lo = b * sr_par::PAR_THRESHOLD;
        let mut acc = [0.0f64; K];
        macro_rules! sweep {
            ($update:expr) => {
                for (i, row) in part.chunks_exact_mut(K).enumerate() {
                    let v = lo + i;
                    let crow: &[f64; K] = c[v * K..][..K].try_into().expect("K-wide panel row");
                    let xrow: &[f64; K] = x[v * K..][..K].try_into().expect("K-wide panel row");
                    for k in 0..K {
                        let nv = $update(alphas[k], row[k], dangling[k], crow[k]);
                        row[k] = nv;
                        let d = xrow[k] - nv;
                        acc[k] += d * d;
                    }
                }
            };
        }
        match formulation {
            Formulation::Eigenvector => {
                sweep!(|a: f64, yv: f64, dm: f64, cv: f64| a * (yv + dm * cv) + (1.0 - a) * cv)
            }
            Formulation::LinearSystem => {
                sweep!(|a: f64, yv: f64, _dm: f64, cv: f64| a * yv + (1.0 - a) * cv)
            }
        }
        acc
    });
    residuals.clear();
    for k in 0..K {
        let mut it = partials.iter();
        let mut total = it.next().map_or(0.0, |p| p[k]);
        for p in it {
            total += p[k];
        }
        residuals.push(total.sqrt());
    }
}

pub mod reference {
    //! The seed's three-pass power iteration, preserved as the solver-level
    //! baseline: propagate, then a separate damp/teleport update pass, then a
    //! separate residual pass, with all working vectors allocated per solve
    //! and one column solved at a time. The parity tests pin [`super::solve`]
    //! against this; the kernel benchmark records both engines on the same
    //! graph.

    use super::*;

    /// Unfused power method (seed implementation), run column by column.
    /// Semantically identical to [`super::solve`]; slower by one full pass
    /// over the state per iteration plus per-solve allocations.
    ///
    /// # Panics
    /// Panics if a column's α is outside `[0, 1)`.
    pub fn power_method_unfused(op: &dyn Transition, request: &SolveRequest) -> Vec<RankVector> {
        request
            .columns
            .iter()
            .map(|col| {
                let (scores, stats) = unfused_column(op, col, request);
                RankVector::new(scores, stats)
            })
            .collect()
    }

    fn unfused_column(
        op: &dyn Transition,
        col: &SolveColumn,
        request: &SolveRequest,
    ) -> (Vec<f64>, IterationStats) {
        let alpha = col.alpha;
        assert!(
            (0.0..1.0).contains(&alpha),
            "alpha must be in [0,1), got {alpha}"
        );
        let n = op.num_nodes();
        if n == 0 {
            return (
                Vec::new(),
                IterationStats {
                    iterations: 0,
                    final_residual: 0.0,
                    converged: true,
                    residual_history: Vec::new(),
                },
            );
        }
        let c = col.teleport.to_dense(n);
        let mut x = match &col.initial {
            Some(x0) => {
                assert_eq!(x0.len(), n, "warm-start vector length mismatch");
                assert!(
                    x0.iter().all(|v| v.is_finite() && *v >= 0.0),
                    "warm-start vector must be finite and non-negative"
                );
                let mut x = x0.clone();
                vecops::normalize_l1(&mut x);
                if vecops::l1_norm(&x) == 0.0 {
                    c.clone()
                } else {
                    x
                }
            }
            None => c.clone(),
        };
        let mut y = vec![0.0; n];
        let mut history = Vec::new();
        let mut converged = false;
        let mut residual = f64::INFINITY;
        let criteria = &request.criteria;

        for _ in 0..criteria.max_iterations {
            let dangling_mass = op.propagate(&x, &mut y);
            match request.formulation {
                Formulation::Eigenvector => {
                    for (v, yv) in y.iter_mut().enumerate() {
                        *yv = alpha * (*yv + dangling_mass * c[v]) + (1.0 - alpha) * c[v];
                    }
                }
                Formulation::LinearSystem => {
                    for (v, yv) in y.iter_mut().enumerate() {
                        *yv = alpha * *yv + (1.0 - alpha) * c[v];
                    }
                }
            }
            residual = vecops::l2_distance(&x, &y);
            history.push(residual);
            std::mem::swap(&mut x, &mut y);
            if residual < criteria.tolerance {
                converged = true;
                break;
            }
        }

        vecops::normalize_l1(&mut x);
        let stats = IterationStats {
            iterations: history.len(),
            final_residual: residual,
            converged,
            residual_history: history,
        };
        (x, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::reference::NaiveUniformTransition;
    use crate::operator::{UniformTransition, WeightedTransition};
    use sr_graph::{GraphBuilder, WeightedGraph};

    /// Runs a request without observers on a fresh workspace.
    fn run(op: &dyn Transition, request: &SolveRequest) -> Vec<RankVector> {
        solve(op, request, &mut SolverWorkspace::new(), &mut [])
    }

    /// A one-column request of `column` under `request`'s shared settings.
    fn one(request: &SolveRequest, column: &SolveColumn) -> SolveRequest {
        SolveRequest {
            columns: vec![column.clone()],
            ..request.clone()
        }
    }

    /// Runs a default-shared one-column request.
    fn single(op: &dyn Transition, column: SolveColumn) -> RankVector {
        run(op, &SolveRequest::new(vec![column])).remove(0)
    }

    fn ring_with_chords(n: usize) -> sr_graph::CsrGraph {
        let mut edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
        for v in 0..n as u32 {
            if v % 3 == 0 {
                edges.push((v, (v * 7 + 2) % n as u32));
            }
            if v % 11 == 0 {
                edges.push((v, (v * 13 + 5) % n as u32));
            }
        }
        GraphBuilder::from_edges_exact(n, edges).unwrap()
    }

    /// Pins every column of a K-column `request` to its one-column request:
    /// scores, residual history and iteration count, bit for bit.
    fn assert_columns_match_single(op: &dyn Transition, request: &SolveRequest) {
        let got = run(op, request);
        assert_eq!(got.len(), request.columns.len());
        for (j, col) in request.columns.iter().enumerate() {
            let want = run(op, &one(request, col)).remove(0);
            assert_eq!(got[j].scores(), want.scores(), "column {j} scores");
            assert_eq!(got[j].stats(), want.stats(), "column {j} stats");
        }
    }

    fn solve_formulation(edges: Vec<(u32, u32)>, n: usize, formulation: Formulation) -> Vec<f64> {
        let g = GraphBuilder::from_edges_exact(n, edges).unwrap();
        let op = UniformTransition::new(&g);
        let request = SolveRequest::new(vec![SolveColumn::default()]).formulation(formulation);
        run(&op, &request).remove(0).scores().to_vec()
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        let x = solve_formulation(vec![(0, 1), (1, 2), (2, 0)], 3, Formulation::Eigenvector);
        for &v in &x {
            assert!((v - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn authority_page_ranks_higher() {
        // Everyone points at node 3.
        let x = solve_formulation(
            vec![(0, 3), (1, 3), (2, 3), (3, 0)],
            4,
            Formulation::Eigenvector,
        );
        assert!(x[3] > x[0]);
        assert!(x[3] > x[1]);
    }

    #[test]
    fn formulations_agree_after_normalization_without_dangling() {
        // Strongly connected graph — no dangling nodes, so both formulations
        // solve the same chain up to scaling.
        let edges = vec![(0, 1), (1, 2), (2, 0), (0, 2), (2, 1)];
        let a = solve_formulation(edges.clone(), 3, Formulation::Eigenvector);
        let b = solve_formulation(edges, 3, Formulation::LinearSystem);
        for (p, q) in a.iter().zip(&b) {
            assert!((p - q).abs() < 1e-7, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn eigenvector_iterates_sum_to_one() {
        let g = GraphBuilder::from_edges_exact(3, vec![(0, 1)]).unwrap(); // lots of dangling
        let r = single(&UniformTransition::new(&g), SolveColumn::default());
        assert!((vecops::l1_norm(r.scores()) - 1.0).abs() < 1e-12);
        assert!(r.stats().converged);
    }

    #[test]
    fn stats_track_convergence() {
        // Asymmetric graph so the solve genuinely iterates (a symmetric cycle
        // would converge in one step from the uniform start).
        let g = GraphBuilder::from_edges_exact(4, vec![(0, 3), (1, 3), (2, 3), (3, 0)]).unwrap();
        let r = single(&UniformTransition::new(&g), SolveColumn::default());
        let stats = r.stats();
        assert!(stats.converged);
        assert!(stats.final_residual < 1e-9);
        assert_eq!(stats.iterations, stats.residual_history.len());
        let h = &stats.residual_history;
        assert!(
            h.len() > 2,
            "expected a multi-iteration solve, got {}",
            h.len()
        );
        assert!(h[h.len() - 1] < h[0]);
    }

    #[test]
    fn iteration_cap_reports_unconverged_columns() {
        let g = ring_with_chords(50);
        let op = UniformTransition::new(&g);
        let request = SolveRequest::new(vec![
            SolveColumn::new(0.99, Teleport::Uniform),
            SolveColumn::new(0.1, Teleport::Uniform),
        ])
        .criteria(ConvergenceCriteria {
            max_iterations: 3,
            ..Default::default()
        });
        let got = run(&op, &request);
        assert!(!got[0].stats().converged);
        assert_eq!(got[0].stats().iterations, 3);
        assert_columns_match_single(&op, &request);
    }

    #[test]
    fn weighted_chain_stationary_matches_closed_form() {
        // Two-state chain: P = [[0.5, 0.5], [1.0, 0.0]] with alpha -> chain
        // T_hat = a*P + (1-a)*uniform. Solve analytically for comparison.
        let g = WeightedGraph::from_parts(vec![0, 2, 3], vec![0, 1, 0], vec![0.5, 0.5, 1.0]);
        let op = WeightedTransition::new(&g);
        let a = 0.85;
        let r = single(&op, SolveColumn::new(a, Teleport::Uniform));
        // pi0 = pi0*t00 + pi1*t10; pi0 + pi1 = 1.
        let t00 = a * 0.5 + (1.0 - a) * 0.5;
        let t10 = a * 1.0 + (1.0 - a) * 0.5;
        let pi0 = t10 / (1.0 - t00 + t10);
        assert!((r.score(0) - pi0).abs() < 1e-9, "{} vs {pi0}", r.score(0));
    }

    #[test]
    fn teleport_bias_shifts_scores() {
        let g = GraphBuilder::from_edges_exact(3, vec![(0, 1), (1, 0), (1, 2), (2, 0)]).unwrap();
        let op = UniformTransition::new(&g);
        let xb = single(&op, SolveColumn::new(0.85, Teleport::over_seeds(3, &[2])));
        let xu = single(&op, SolveColumn::default());
        assert!(
            xb.score(2) > xu.score(2),
            "seeded teleport must lift node 2"
        );
    }

    #[test]
    fn warm_start_converges_to_the_same_fixed_point_faster() {
        let g = GraphBuilder::from_edges_exact(
            6,
            vec![
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 0),
                (0, 3),
                (2, 5),
            ],
        )
        .unwrap();
        let op = UniformTransition::new(&g);
        let cold = single(&op, SolveColumn::default());
        // Restart from the exact answer: should converge immediately.
        let warm = single(
            &op,
            SolveColumn::default().with_initial(cold.scores().to_vec()),
        );
        assert!(
            warm.stats().iterations <= 2,
            "restart took {} iterations",
            warm.stats().iterations
        );
        for (a, b) in cold.scores().iter().zip(warm.scores()) {
            assert!((a - b).abs() < 1e-8);
        }
        assert!(warm.stats().iterations < cold.stats().iterations);
    }

    #[test]
    fn warm_start_from_perturbed_vector_still_correct() {
        let g = GraphBuilder::from_edges_exact(4, vec![(0, 3), (1, 3), (2, 3), (3, 0)]).unwrap();
        let op = UniformTransition::new(&g);
        let exact = single(&op, SolveColumn::default());
        let mut perturbed = exact.scores().to_vec();
        perturbed[0] += 0.05;
        perturbed[3] -= 0.02;
        let warm = single(&op, SolveColumn::default().with_initial(perturbed));
        assert!(warm.stats().converged);
        for (a, b) in exact.scores().iter().zip(warm.scores()) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn padded_warm_start_seeds_new_states_with_teleport_mass() {
        let column = SolveColumn::new(0.85, Teleport::over_seeds(4, &[3]))
            .with_padded_initial(&[0.5, 0.5], 4);
        assert_eq!(column.initial, Some(vec![0.5, 0.5, 0.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "covers more states")]
    fn padded_warm_start_rejects_longer_vectors() {
        let _ = SolveColumn::default().with_padded_initial(&[0.5, 0.5], 1);
    }

    #[test]
    fn fused_engine_matches_unfused_reference_bitwise_on_small_graphs() {
        // On a single reduction block the fused sweep performs the seed's
        // floating-point operations in the seed's order: identical residual
        // history, iteration count and scores — not merely within tolerance.
        // In the second graph node 4 dangles and is a teleport seed, so it
        // holds mass every iteration, and that mass re-enters through the
        // seeds rather than uniformly.
        let cases = [
            (
                vec![(0, 3), (1, 3), (2, 3), (3, 0), (0, 1), (4, 4)],
                Teleport::Uniform,
            ),
            (
                vec![(0, 3), (1, 3), (2, 3), (3, 0)],
                Teleport::over_seeds(5, &[1, 4]),
            ),
        ];
        for (edges, teleport) in cases {
            let g = GraphBuilder::from_edges_exact(5, edges).unwrap();
            let naive = NaiveUniformTransition::new(&g);
            let fused = UniformTransition::new(&g);
            for formulation in [Formulation::Eigenvector, Formulation::LinearSystem] {
                let request = SolveRequest::new(vec![SolveColumn::new(0.85, teleport.clone())])
                    .formulation(formulation);
                let want = reference::power_method_unfused(&naive, &request);
                assert_eq!(run(&fused, &request), want);
            }
        }
    }

    #[test]
    fn multi_column_requests_are_bitwise_one_column_requests() {
        // Mixed α and teleports across both formulations, with a dangling
        // tail so seeded columns recycle its mass into their seeds.
        let mut g_edges: Vec<(u32, u32)> = (0..199u32).map(|v| (v, v + 1)).collect();
        g_edges.extend(
            (0..200u32)
                .filter(|v| v % 3 == 0)
                .map(|v| (v, (v * 7 + 2) % 200)),
        );
        let g = GraphBuilder::from_edges_exact(200, g_edges).unwrap();
        let op = UniformTransition::new(&g);
        let columns = vec![
            SolveColumn::new(0.85, Teleport::Uniform),
            SolveColumn::new(0.5, Teleport::over_seeds(200, &[3, 17, 91])),
            SolveColumn::new(0.92, Teleport::over_seeds(200, &[5])),
        ];
        for formulation in [Formulation::Eigenvector, Formulation::LinearSystem] {
            let request = SolveRequest::new(columns.clone()).formulation(formulation);
            assert_columns_match_single(&op, &request);
        }
    }

    #[test]
    fn requests_wider_than_a_panel_tile() {
        let g = ring_with_chords(60);
        let op = UniformTransition::new(&g);
        let columns: Vec<SolveColumn> = (0..PANEL_WIDTH * 2 + 3)
            .map(|j| SolveColumn::new(0.5 + 0.02 * j as f64, Teleport::Uniform))
            .collect();
        assert_columns_match_single(&op, &SolveRequest::new(columns));
    }

    #[test]
    fn weighted_operator_panels_bitwise_too() {
        let g = WeightedGraph::from_parts(
            vec![0, 2, 3, 5, 5],
            vec![1, 2, 0, 0, 3],
            vec![0.5, 0.5, 1.0, 0.3, 0.6],
        );
        let op = WeightedTransition::new(&g);
        let request = SolveRequest::new(vec![
            SolveColumn::new(0.85, Teleport::Uniform),
            SolveColumn::new(0.7, Teleport::over_seeds(4, &[2])),
        ]);
        assert_columns_match_single(&op, &request);
    }

    #[test]
    fn warm_started_column_matches_one_column_warm_start() {
        let g = ring_with_chords(80);
        let op = UniformTransition::new(&g);
        let cold = single(&op, SolveColumn::default());
        let request = SolveRequest::new(vec![
            SolveColumn::default().with_initial(cold.scores().to_vec()),
            SolveColumn::new(0.6, Teleport::Uniform),
        ]);
        assert_columns_match_single(&op, &request);
        assert!(run(&op, &request)[0].stats().iterations <= 2);
    }

    #[test]
    fn single_vector_operators_tile_one_column_at_a_time() {
        // The naive operator has no panel form (panel width 1), so a
        // three-column request runs as three single-vector tiles — same
        // bits as the panel-capable fused operator.
        let g = ring_with_chords(40);
        let request = SolveRequest::new(vec![
            SolveColumn::new(0.85, Teleport::Uniform),
            SolveColumn::new(0.4, Teleport::over_seeds(40, &[7])),
            SolveColumn::new(0.7, Teleport::Uniform),
        ])
        .formulation(Formulation::LinearSystem);
        let naive = NaiveUniformTransition::new(&g);
        assert_eq!(naive.panel_width(), 1);
        assert_eq!(
            run(&naive, &request),
            run(&UniformTransition::new(&g), &request)
        );
    }

    #[test]
    fn observers_see_each_column_like_a_one_column_solve() {
        use sr_obs::RecordingObserver;
        let g = ring_with_chords(30);
        let op = UniformTransition::new(&g);
        let request = SolveRequest::new(vec![
            SolveColumn::new(0.85, Teleport::Uniform),
            SolveColumn::new(0.3, Teleport::Uniform),
        ]);
        let mut rec0 = RecordingObserver::new();
        let mut rec1 = RecordingObserver::new();
        let observed = solve(
            &op,
            &request,
            &mut SolverWorkspace::new(),
            &mut [Some(&mut rec0), Some(&mut rec1)],
        );
        assert_eq!(observed, run(&op, &request), "observers moved bits");
        for (col, rec) in request.columns.iter().zip([rec0, rec1]) {
            let mut seq = RecordingObserver::new();
            solve(
                &op,
                &one(&request, col),
                &mut SolverWorkspace::new(),
                &mut [Some(&mut seq)],
            );
            let got = rec.into_record("batched");
            let want = seq.into_record("batched");
            assert_eq!(got.telemetry.solver, want.telemetry.solver);
            assert_eq!(got.telemetry.residuals, want.telemetry.residuals);
            assert_eq!(got.telemetry.iterations, want.telemetry.iterations);
            assert_eq!(got.telemetry.converged, want.telemetry.converged);
        }
    }

    #[test]
    fn workspace_reuses_across_differently_shaped_solves() {
        let g1 = GraphBuilder::from_edges_exact(4, vec![(0, 3), (1, 3), (2, 3), (3, 0)]).unwrap();
        let g2 = GraphBuilder::from_edges_exact(3, vec![(0, 1), (1, 2), (2, 0)]).unwrap();
        let narrow = SolveRequest::new(vec![SolveColumn::default()]);
        let wide = SolveRequest::new(vec![
            SolveColumn::default(),
            SolveColumn::new(0.5, Teleport::Uniform),
        ]);
        let mut ws = SolverWorkspace::new();
        for (g, request) in [(&g1, &narrow), (&g2, &wide), (&g1, &narrow), (&g1, &wide)] {
            let op = UniformTransition::new(g);
            let reused = solve(&op, request, &mut ws, &mut []);
            assert_eq!(reused, run(&op, request));
            assert!(reused.iter().all(|r| r.scores().len() == g.num_nodes()));
        }
    }

    #[test]
    fn empty_request_and_empty_graph_are_fine() {
        let g = ring_with_chords(10);
        assert!(run(&UniformTransition::new(&g), &SolveRequest::new(Vec::new())).is_empty());

        let empty = sr_graph::CsrGraph::empty(0);
        let r = single(&UniformTransition::new(&empty), SolveColumn::default());
        assert!(r.scores().is_empty());
        assert!(r.stats().converged);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn warm_start_length_checked() {
        let g = GraphBuilder::from_edges(vec![(0, 1)]);
        single(
            &UniformTransition::new(&g),
            SolveColumn::default().with_initial(vec![1.0]),
        );
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn alpha_one_rejected() {
        let g = GraphBuilder::from_edges(vec![(0, 1)]);
        single(
            &UniformTransition::new(&g),
            SolveColumn::new(1.0, Teleport::Uniform),
        );
    }
}
