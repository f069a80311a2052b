//! Sparse transition operators: the `y = xP` kernel of every solver.
//!
//! Both operators are *pull-based*: they pre-compute the transpose so each
//! output entry `y[v]` is a reduction over `v`'s predecessors. Pull-based
//! SpMV parallelizes without atomics (each `sr-par` worker owns a disjoint
//! range of `y`) and is deterministic up to floating-point association.
//!
//! ## The fused kernel
//!
//! The uniform (PageRank) operator runs in two sweeps per application:
//!
//! 1. **Pre-scale**: `scratch[u] = x[u] · inv_degree[u]`, with the dangling
//!    mass (`inv_degree[u] == 0`) summed in the same pass. This hoists the
//!    per-edge branch (`is u dangling?`) and the per-edge `1/d` division of
//!    the textbook kernel into a per-*node* pass — the gather below becomes a
//!    branch-free load-and-add per edge, which on power-law graphs (edges ≫
//!    nodes) is where nearly all the time goes.
//! 2. **Gather**: `y[v] = Σ_{u → v} scratch[u]` over the transposed
//!    structure, packed into a degree-run layout ([`sr_graph::SellRows`])
//!    that removes the row loop's branch-misprediction and add-latency
//!    stalls — see that module for why the plain CSR loop is ~4× slower.
//!
//! Parallelism is driven over an [`EdgePartition`] — contiguous row chunks
//! owning a near-equal number of **edges** — computed once at operator
//! construction and reused by every iteration. Since the packed gather
//! accumulates every row in ascending column order with its own accumulator,
//! each `y[v]` is **bit-identical** to the naive kernel's — at any thread
//! count, on any degree distribution. The pre-scale and deficit reductions
//! run over fixed [`sr_par::PAR_THRESHOLD`]-sized blocks combined in block
//! order, so the dangling mass is thread-count-invariant too: the whole
//! `y = xP` application is a pure function of the graph and `x`.
//!
//! The seed's unfused kernel is preserved verbatim in [`mod@reference`] — the
//! parity tests pin the fused engine against it, and the kernel benchmark
//! records both.

use sr_graph::ids::node_range;
use sr_graph::panel;
use sr_graph::transpose::{transpose, transpose_weighted};
use sr_graph::{CsrGraph, EdgePartition, SellRows, WeightedGraph, PANEL_MAX_WIDTH};

/// A row-(sub)stochastic transition operator.
pub trait Transition: Sync {
    /// Number of states.
    fn num_nodes(&self) -> usize;

    /// Computes `y = x P` (mass flow along edges) and returns the total mass
    /// that sat on *dangling* rows of `P` (rows with no out-mass), which the
    /// caller redistributes or drops depending on the formulation.
    ///
    /// `scratch` is caller-provided working memory of length `num_nodes()`
    /// (the pre-scaled iterate for the uniform operator; unused by the
    /// weighted one). Passing it in lets a solver drive thousands of
    /// iterations with zero per-iteration allocation — see
    /// [`crate::SolverWorkspace`].
    fn propagate_with(&self, x: &[f64], y: &mut [f64], scratch: &mut [f64]) -> f64;

    /// Convenience form of [`propagate_with`](Transition::propagate_with)
    /// that allocates its own scratch. One-shot callers and tests use this;
    /// hot loops should hold a workspace instead.
    fn propagate(&self, x: &[f64], y: &mut [f64]) -> f64 {
        let mut scratch = vec![0.0; x.len()];
        self.propagate_with(x, y, &mut scratch)
    }

    /// The widest panel [`propagate_panel`](Transition::propagate_panel)
    /// accepts; [`crate::solve`] tiles multi-column requests by it. The
    /// provided value, 1, means single-vector only: such an operator solves
    /// a K-column request as K one-column tiles.
    fn panel_width(&self) -> usize {
        1
    }

    /// Computes `Y = X P` for a row-major `[node][width]` panel (`x` and `y`
    /// of length `num_nodes() * width`, `width ≤ panel_width()`) and writes
    /// each column's dangling mass into `dangling[k]` — the SpMM form the
    /// solve driver runs.
    ///
    /// Implementations must make each panel column **bit-identical** to a
    /// [`propagate_with`](Transition::propagate_with) call on that column
    /// alone: same per-row accumulation order, same block structure for the
    /// dangling reductions. Converged columns are handled by the *driver*
    /// (it compacts the panel and calls back at a narrower width), so every
    /// column of a panel is live here. `scratch` (length `num_nodes()`) is
    /// for width 1, where the panel *is* a contiguous vector; the provided
    /// form handles exactly that case by delegating to `propagate_with`.
    ///
    /// # Panics
    /// Panics if `width` is 0 or exceeds `panel_width()`, or a buffer has
    /// the wrong length.
    fn propagate_panel(
        &self,
        x: &[f64],
        y: &mut [f64],
        width: usize,
        scratch: &mut [f64],
        dangling: &mut [f64],
    ) {
        assert_eq!(
            width, 1,
            "single-vector operator asked for a {width}-column panel"
        );
        dangling[0] = self.propagate_with(x, y, scratch);
    }
}

/// Validates the shared `propagate_panel` contract.
fn check_panel(n: usize, x: &[f64], y: &[f64], width: usize, dangling: &[f64]) {
    assert!(
        (1..=PANEL_MAX_WIDTH).contains(&width),
        "panel width {width} outside 1..={PANEL_MAX_WIDTH}; tile wider requests"
    );
    assert_eq!(x.len(), n * width);
    assert_eq!(y.len(), n * width);
    assert_eq!(dangling.len(), width);
}

/// Chunk count for an operator over `n` nodes: a single chunk below the
/// sequential cutover (keeps small solves bit-identical to a plain loop),
/// one chunk per worker thread above it.
pub(crate) fn operator_chunks(n: usize) -> usize {
    if n < sr_par::PAR_THRESHOLD {
        1
    } else {
        sr_par::num_threads()
    }
}

/// The classic PageRank operator: uniform transition `1/o(p)` along each
/// hyperlink of a page graph (the matrix `M` of §2).
pub struct UniformTransition {
    /// Transposed adjacency, packed into degree runs per partition chunk:
    /// row `v` of the packed structure lists the predecessors of `v`.
    sell: SellRows,
    /// Transposed adjacency in plain CSR order — the parallel panel (SpMM)
    /// gather runs here in natural row order (see [`sr_graph::panel`]); the
    /// SELL permutation only pays off for single-vector gathers.
    rev: CsrGraph,
    /// Forward adjacency — the serial panel path propagates by *scattering*
    /// along forward edges instead of gathering along reverse ones, because
    /// crawl ordering clusters forward targets (see
    /// [`sr_graph::panel::scaled_scatter_panel_into`]).
    fwd: CsrGraph,
    /// `1/out_degree` of every node in the *original* graph; 0 for dangling
    /// nodes, so the pre-scale pass needs no branch to zero their outflow.
    inv_degree: Vec<f64>,
    /// Dangling nodes in ascending id order — the panel path's per-column
    /// dangling reduction walks only these instead of re-scanning `x`.
    dangling_nodes: Vec<u32>,
    /// Edge-balanced chunks of the transposed rows, computed once.
    partition: EdgePartition,
}

impl UniformTransition {
    /// Builds the operator from a page graph.
    pub fn new(graph: &CsrGraph) -> Self {
        let n = graph.num_nodes();
        let inv_degree: Vec<f64> = node_range(n)
            .map(|u| {
                let d = graph.out_degree(u);
                if d == 0 {
                    0.0
                } else {
                    1.0 / d as f64
                }
            })
            .collect();
        let dangling_nodes = graph.dangling_nodes();
        let rev = transpose(graph);
        let partition = EdgePartition::from_offsets(rev.offsets(), operator_chunks(n));
        let sell = SellRows::build(rev.offsets(), rev.targets(), &partition);
        UniformTransition {
            sell,
            rev,
            fwd: graph.clone(),
            inv_degree,
            dangling_nodes,
            partition,
        }
    }

    /// The cached edge-balanced partition the gather sweep runs over.
    pub fn partition(&self) -> &EdgePartition {
        &self.partition
    }
}

impl Transition for UniformTransition {
    fn num_nodes(&self) -> usize {
        self.inv_degree.len()
    }

    fn propagate_with(&self, x: &[f64], y: &mut [f64], scratch: &mut [f64]) -> f64 {
        let n = self.num_nodes();
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        assert_eq!(scratch.len(), n);
        // Pass 1: pre-scale the iterate and collect dangling mass over fixed
        // blocks, partials summed in block order — bit-identical across
        // thread counts, and (with a single block below the cutover) to the
        // seed kernel's sequential fold.
        let inv = &self.inv_degree;
        let partials = sr_par::for_each_block(scratch, sr_par::PAR_THRESHOLD, |i, part| {
            let lo = i * sr_par::PAR_THRESHOLD;
            let mut dangling = 0.0;
            for (k, s) in part.iter_mut().enumerate() {
                let u = lo + k;
                let w = inv[u];
                *s = x[u] * w;
                if w == 0.0 {
                    dangling += x[u];
                }
            }
            dangling
        });
        let dangling = partials.into_iter().sum();
        // Pass 2: packed gather over the edge-balanced chunks.
        let bounds = self.partition.row_bounds();
        let scratch = &*scratch;
        let sell = &self.sell;
        sr_par::for_each_part(y, bounds, |i, out| {
            sell.row_sums_into(i, bounds[i], scratch, out);
        });
        dangling
    }

    fn panel_width(&self) -> usize {
        PANEL_MAX_WIDTH
    }

    fn propagate_panel(
        &self,
        x: &[f64],
        y: &mut [f64],
        width: usize,
        scratch: &mut [f64],
        dangling: &mut [f64],
    ) {
        let n = self.num_nodes();
        check_panel(n, x, y, width, dangling);
        if width == 1 {
            // A width-1 panel is a contiguous vector: the fused pre-scale +
            // SELL gather is faster than a 1-column CSR gather (the
            // pre-scale amortizes the `1/d` multiply over out-edges).
            assert!(scratch.len() >= n, "scratch must hold one vector");
            dangling[0] = self.propagate_with(x, y, &mut scratch[..n]);
            return;
        }
        // Pass 1: per-column dangling mass off the precomputed dangling-node
        // list. Accumulation runs per PAR_THRESHOLD-node block in ascending
        // node order and the block partials are summed in block order — the
        // exact fold of the single-vector pre-scale pass. Blocks without
        // dangling nodes contribute `+0.0` there, a bitwise no-op on these
        // non-negative partial sums, so skipping them changes nothing.
        let mut totals = [0.0f64; PANEL_MAX_WIDTH];
        let mut block = [0.0f64; PANEL_MAX_WIDTH];
        let mut cur = 0usize;
        for &u in &self.dangling_nodes {
            let b = u as usize / sr_par::PAR_THRESHOLD;
            if b != cur {
                for k in 0..width {
                    totals[k] += block[k];
                    block[k] = 0.0;
                }
                cur = b;
            }
            let xrow = &x[u as usize * width..(u as usize + 1) * width];
            for k in 0..width {
                block[k] += xrow[k];
            }
        }
        for k in 0..width {
            dangling[k] = totals[k] + block[k];
        }
        // Pass 2: apply the transposed operator to the panel. The per-edge
        // `inv_degree` scale is fused into the sweep, which rounds
        // identically to a pre-scaled scratch panel — so no scratch panel
        // (and no n·width scratch stream) exists at all. A single-chunk
        // partition (the serial regime) scatters along *forward* edges,
        // whose crawl-ordered targets keep the scattered traffic in cache; a
        // multi-chunk partition gathers along reverse edges so each worker
        // owns a disjoint output range. Both accumulate every destination in
        // ascending source order — the same bits either way.
        let inv = &self.inv_degree;
        if self.partition.num_chunks() == 1 {
            panel::scaled_scatter_panel_into(
                self.fwd.offsets(),
                self.fwd.targets(),
                inv,
                x,
                width,
                y,
            );
        } else {
            let bounds = self.partition.row_bounds();
            let panel_bounds = sr_par::scaled_bounds(bounds, width);
            let offsets = self.rev.offsets();
            let targets = self.rev.targets();
            sr_par::for_each_part(y, &panel_bounds, |i, out| {
                panel::scaled_row_sums_panel_into(offsets, targets, inv, bounds[i], x, width, out);
            });
        }
    }
}

/// Transition over an explicitly weighted graph — the source matrices `T`,
/// `T'` and `T''` of §3. Rows must be *substochastic*: each row sums to at
/// most ~1. The shortfall `1 − Σ_j P_uj` of each row is treated as dangling
/// mass (reported by [`propagate`](Transition::propagate) and redistributed
/// through the teleport vector by the eigenvector solver) — this is what
/// implements the "surrender" self-edge policy of
/// [`crate::throttle::SelfEdgePolicy`], where a throttled source's mandated
/// self-influence evaporates to teleport instead of recycling into its own
/// score.
pub struct WeightedTransition {
    /// Transposed adjacency + weights, packed into degree runs.
    sell: SellRows,
    /// Transposed adjacency + weights in plain CSR order — the parallel
    /// panel (SpMM) gather runs here in natural row order (see
    /// [`sr_graph::panel`]).
    rev: WeightedGraph,
    /// Forward adjacency + weights for the serial panel path's forward
    /// scatter (see [`sr_graph::panel::weighted_scatter_panel_into`]).
    fwd: WeightedGraph,
    /// Per-row mass deficit `max(0, 1 − row_sum)`; most entries are 0 for a
    /// stochastic matrix, 1 for an all-zero dangling row.
    deficit: Vec<f64>,
    /// Whether any deficit is nonzero (skips the reduction when clean).
    has_deficit: bool,
    num_nodes: usize,
    /// Edge-balanced chunks of the transposed rows, computed once.
    partition: EdgePartition,
}

impl WeightedTransition {
    /// Builds the operator from a weighted graph.
    ///
    /// # Panics
    /// Panics if some row sums to more than 1 + 1e-6 — that always indicates
    /// a matrix that skipped normalization.
    pub fn new(graph: &WeightedGraph) -> Self {
        let n = graph.num_nodes();
        let mut deficit = vec![0.0; n];
        let mut has_deficit = false;
        for u in node_range(n) {
            let s = graph.row_sum(u);
            assert!(
                s < 1.0 + 1e-6,
                "row {u} sums to {s} > 1; normalize the transition matrix first"
            );
            let d = (1.0 - s).max(0.0);
            if d > 1e-12 {
                deficit[u as usize] = d;
                has_deficit = true;
            }
        }
        let rev = transpose_weighted(graph);
        let partition = EdgePartition::from_offsets(rev.offsets(), operator_chunks(n));
        let sell =
            SellRows::build_weighted(rev.offsets(), rev.targets(), rev.weights(), &partition);
        WeightedTransition {
            sell,
            rev,
            fwd: graph.clone(),
            deficit,
            has_deficit,
            num_nodes: n,
            partition,
        }
    }

    /// The cached edge-balanced partition the gather sweep runs over.
    pub fn partition(&self) -> &EdgePartition {
        &self.partition
    }
}

impl Transition for WeightedTransition {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn propagate_with(&self, x: &[f64], y: &mut [f64], _scratch: &mut [f64]) -> f64 {
        let n = self.num_nodes;
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        let dangling = if self.has_deficit {
            let deficit = &self.deficit;
            sr_par::map_reduce_blocks(
                n,
                |r| {
                    x[r.clone()]
                        .iter()
                        .zip(&deficit[r])
                        .map(|(xv, d)| xv * d)
                        .sum::<f64>()
                },
                |a, b| a + b,
            )
            .unwrap_or(0.0)
        } else {
            0.0
        };
        let bounds = self.partition.row_bounds();
        let sell = &self.sell;
        sr_par::for_each_part(y, bounds, |i, out| {
            sell.weighted_row_sums_into(i, bounds[i], x, out);
        });
        dangling
    }

    fn panel_width(&self) -> usize {
        PANEL_MAX_WIDTH
    }

    fn propagate_panel(
        &self,
        x: &[f64],
        y: &mut [f64],
        width: usize,
        scratch: &mut [f64],
        dangling: &mut [f64],
    ) {
        let n = self.num_nodes;
        check_panel(n, x, y, width, dangling);
        if width == 1 {
            assert!(scratch.len() >= n, "scratch must hold one vector");
            dangling[0] = self.propagate_with(x, y, &mut scratch[..n]);
            return;
        }
        if self.has_deficit {
            // Per-column deficit reduction over the single-vector pass's
            // PAR_THRESHOLD-node chunks; chunk partials combined reduce-style
            // (first partial seeds the fold) to match map_reduce_blocks.
            let deficit = &self.deficit;
            let partials = sr_par::map_chunks(n, sr_par::PAR_THRESHOLD, |r| {
                let mut dm = [0.0f64; PANEL_MAX_WIDTH];
                for u in r {
                    let d = deficit[u];
                    let xrow = &x[u * width..(u + 1) * width];
                    for (dk, &xv) in dm.iter_mut().zip(xrow) {
                        *dk += xv * d;
                    }
                }
                dm
            });
            for (k, slot) in dangling[..width].iter_mut().enumerate() {
                let mut it = partials.iter();
                let mut total = it.next().map_or(0.0, |p| p[k]);
                for p in it {
                    total += p[k];
                }
                *slot = total;
            }
        } else {
            dangling[..width].fill(0.0);
        }
        // Forward scatter when serial, reverse gather when parallel — same
        // bits either way (see the uniform operator's panel pass).
        if self.partition.num_chunks() == 1 {
            panel::weighted_scatter_panel_into(
                self.fwd.offsets(),
                self.fwd.targets(),
                self.fwd.weights(),
                x,
                width,
                y,
            );
        } else {
            let bounds = self.partition.row_bounds();
            let panel_bounds = sr_par::scaled_bounds(bounds, width);
            let offsets = self.rev.offsets();
            let targets = self.rev.targets();
            let weights = self.rev.weights();
            sr_par::for_each_part(y, &panel_bounds, |i, out| {
                panel::weighted_row_sums_panel_into(
                    offsets, targets, weights, bounds[i], x, width, out,
                );
            });
        }
    }
}

pub mod reference {
    //! The seed's unfused SpMV kernels, preserved as the correctness and
    //! performance baseline.
    //!
    //! These pay, per edge, a load of the source's out-degree, a dangling
    //! branch and an f64 division — exactly the work the fused operators
    //! hoist into their per-node pre-scale pass. The parity property tests
    //! require the fused engine to match these within 1e-12, and
    //! `bench_kernels` (sr-bench) records both so the speedup stays an
    //! artifact, not an anecdote.

    use super::Transition;
    use sr_graph::ids::{node_id, node_range};
    use sr_graph::transpose::{transpose, transpose_weighted};
    use sr_graph::{CsrGraph, WeightedGraph};

    /// Unfused uniform (PageRank) operator: per-edge `x[u] / out_degree[u]`
    /// with the dangling set kept as an explicit node list.
    pub struct NaiveUniformTransition {
        rev: CsrGraph,
        out_degree: Vec<u32>,
        dangling: Vec<u32>,
    }

    impl NaiveUniformTransition {
        /// Builds the operator from a page graph.
        pub fn new(graph: &CsrGraph) -> Self {
            let out_degree: Vec<u32> = node_range(graph.num_nodes())
                .map(|u| node_id(graph.out_degree(u)))
                .collect();
            let dangling = graph.dangling_nodes();
            NaiveUniformTransition {
                rev: transpose(graph),
                out_degree,
                dangling,
            }
        }

        #[inline]
        fn inv_degree(&self, u: u32) -> f64 {
            let d = self.out_degree[u as usize];
            if d == 0 {
                0.0
            } else {
                1.0 / f64::from(d)
            }
        }

        fn propagate_impl(&self, x: &[f64], y: &mut [f64]) -> f64 {
            let n = self.num_nodes();
            assert_eq!(x.len(), n);
            assert_eq!(y.len(), n);
            for (v, out) in y.iter_mut().enumerate() {
                *out = self
                    .rev
                    .neighbors(node_id(v))
                    .iter()
                    .map(|&u| x[u as usize] * self.inv_degree(u))
                    .sum();
            }
            self.dangling.iter().map(|&u| x[u as usize]).sum()
        }
    }

    impl Transition for NaiveUniformTransition {
        fn num_nodes(&self) -> usize {
            self.out_degree.len()
        }

        fn propagate_with(&self, x: &[f64], y: &mut [f64], _scratch: &mut [f64]) -> f64 {
            self.propagate_impl(x, y)
        }

        fn propagate(&self, x: &[f64], y: &mut [f64]) -> f64 {
            self.propagate_impl(x, y)
        }
    }

    /// Unfused weighted operator: sequential gather plus a separate deficit
    /// reduction.
    pub struct NaiveWeightedTransition {
        rev: WeightedGraph,
        deficit: Vec<f64>,
        has_deficit: bool,
        num_nodes: usize,
    }

    impl NaiveWeightedTransition {
        /// Builds the operator from a weighted (substochastic) graph.
        ///
        /// # Panics
        /// Panics if some row sums to more than 1 + 1e-6.
        pub fn new(graph: &WeightedGraph) -> Self {
            let n = graph.num_nodes();
            let mut deficit = vec![0.0; n];
            let mut has_deficit = false;
            for u in node_range(n) {
                let s = graph.row_sum(u);
                assert!(
                    s < 1.0 + 1e-6,
                    "row {u} sums to {s} > 1; normalize the transition matrix first"
                );
                let d = (1.0 - s).max(0.0);
                if d > 1e-12 {
                    deficit[u as usize] = d;
                    has_deficit = true;
                }
            }
            NaiveWeightedTransition {
                rev: transpose_weighted(graph),
                deficit,
                has_deficit,
                num_nodes: n,
            }
        }

        fn propagate_impl(&self, x: &[f64], y: &mut [f64]) -> f64 {
            let n = self.num_nodes;
            assert_eq!(x.len(), n);
            assert_eq!(y.len(), n);
            for (v, out) in y.iter_mut().enumerate() {
                *out = self
                    .rev
                    .neighbors(node_id(v))
                    .iter()
                    .zip(self.rev.edge_weights(node_id(v)))
                    .map(|(&u, &w)| x[u as usize] * w)
                    .sum();
            }
            if self.has_deficit {
                x.iter().zip(&self.deficit).map(|(xv, d)| xv * d).sum()
            } else {
                0.0
            }
        }
    }

    impl Transition for NaiveWeightedTransition {
        fn num_nodes(&self) -> usize {
            self.num_nodes
        }

        fn propagate_with(&self, x: &[f64], y: &mut [f64], _scratch: &mut [f64]) -> f64 {
            self.propagate_impl(x, y)
        }

        fn propagate(&self, x: &[f64], y: &mut [f64]) -> f64 {
            self.propagate_impl(x, y)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{NaiveUniformTransition, NaiveWeightedTransition};
    use super::*;
    use sr_graph::GraphBuilder;

    #[test]
    fn uniform_propagate_splits_mass() {
        // 0 -> {1, 2}; 1 -> {2}; 2 dangling.
        let g = GraphBuilder::from_edges_exact(3, vec![(0, 1), (0, 2), (1, 2)]).unwrap();
        let op = UniformTransition::new(&g);
        let x = [1.0, 0.0, 0.0];
        let mut y = [0.0; 3];
        let dm = op.propagate(&x, &mut y);
        assert_eq!(y, [0.0, 0.5, 0.5]);
        assert_eq!(dm, 0.0);
    }

    #[test]
    fn uniform_reports_dangling_mass() {
        let g = GraphBuilder::from_edges_exact(3, vec![(0, 1), (0, 2), (1, 2)]).unwrap();
        let op = UniformTransition::new(&g);
        let x = [0.0, 0.25, 0.75];
        let mut y = [0.0; 3];
        let dm = op.propagate(&x, &mut y);
        assert_eq!(dm, 0.75); // node 2 has no out-links
        assert_eq!(y, [0.0, 0.0, 0.25]);
    }

    #[test]
    fn uniform_conserves_mass_plus_dangling() {
        let g = GraphBuilder::from_edges_exact(4, vec![(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
        let op = UniformTransition::new(&g);
        let x = [0.1, 0.2, 0.3, 0.4];
        let mut y = [0.0; 4];
        let dm = op.propagate(&x, &mut y);
        let total: f64 = y.iter().sum::<f64>() + dm;
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fused_matches_reference_exactly_on_small_graphs() {
        // Below the parallel cutover both kernels are sequential and the
        // fused pre-scale computes the same `x[u] * (1/d)` products, so the
        // match is bitwise, not just within tolerance.
        let g =
            GraphBuilder::from_edges_exact(5, vec![(0, 1), (0, 2), (1, 2), (2, 0), (2, 3), (3, 3)])
                .unwrap();
        let fused = UniformTransition::new(&g);
        let naive = NaiveUniformTransition::new(&g);
        let x = [0.1, 0.3, 0.2, 0.25, 0.15];
        let (mut yf, mut yn) = ([0.0; 5], [0.0; 5]);
        let df = fused.propagate(&x, &mut yf);
        let dn = naive.propagate(&x, &mut yn);
        assert_eq!(yf, yn);
        assert_eq!(df, dn);
    }

    #[test]
    fn propagate_with_reuses_scratch() {
        let g = GraphBuilder::from_edges_exact(3, vec![(0, 1), (1, 2), (2, 0)]).unwrap();
        let op = UniformTransition::new(&g);
        let x = [0.2, 0.3, 0.5];
        let mut y = [0.0; 3];
        let mut scratch = [9.0; 3]; // stale contents must not matter
        let dm = op.propagate_with(&x, &mut y, &mut scratch);
        assert_eq!(dm, 0.0);
        assert_eq!(y, [0.5, 0.2, 0.3]);
        assert_eq!(scratch, x); // all degrees are 1 here
    }

    #[test]
    fn weighted_propagate_uses_weights() {
        let g = WeightedGraph::from_parts(vec![0, 2, 3, 3], vec![1, 2, 2], vec![0.3, 0.7, 1.0]);
        let op = WeightedTransition::new(&g);
        let x = [1.0, 1.0, 1.0];
        let mut y = [0.0; 3];
        let dm = op.propagate(&x, &mut y);
        assert_eq!(y, [0.0, 0.3, 1.7]);
        assert_eq!(dm, 1.0); // node 2 is a zero row
    }

    #[test]
    fn weighted_matches_reference_exactly() {
        let g = WeightedGraph::from_parts(vec![0, 2, 3, 3], vec![1, 2, 2], vec![0.3, 0.7, 1.0]);
        let fused = WeightedTransition::new(&g);
        let naive = NaiveWeightedTransition::new(&g);
        let x = [0.5, 0.25, 0.25];
        let (mut yf, mut yn) = ([0.0; 3], [0.0; 3]);
        let df = fused.propagate(&x, &mut yf);
        let dn = naive.propagate(&x, &mut yn);
        assert_eq!(yf, yn);
        assert_eq!(df, dn);
    }

    #[test]
    #[should_panic(expected = "normalize")]
    fn weighted_rejects_superstochastic_rows() {
        let g = WeightedGraph::from_parts(vec![0, 1], vec![0], vec![1.5]);
        WeightedTransition::new(&g);
    }

    #[test]
    fn substochastic_row_leaks_its_deficit() {
        // Row 0 sums to 0.6: the 0.4 shortfall is dangling mass.
        let g = WeightedGraph::from_parts(vec![0, 1, 2], vec![1, 0], vec![0.6, 1.0]);
        let op = WeightedTransition::new(&g);
        let x = [1.0, 0.0];
        let mut y = [0.0; 2];
        let dm = op.propagate(&x, &mut y);
        assert!((dm - 0.4).abs() < 1e-12);
        assert_eq!(y, [0.0, 0.6]);
    }

    #[test]
    fn self_loops_hold_mass() {
        let g = WeightedGraph::from_parts(vec![0, 1], vec![0], vec![1.0]);
        let op = WeightedTransition::new(&g);
        let x = [0.8];
        let mut y = [0.0];
        let dm = op.propagate(&x, &mut y);
        assert_eq!(y, [0.8]);
        assert_eq!(dm, 0.0);
    }

    #[test]
    fn partition_covers_all_rows() {
        let g = GraphBuilder::from_edges_exact(6, vec![(0, 1), (2, 1), (3, 1), (4, 5)]).unwrap();
        let op = UniformTransition::new(&g);
        assert_eq!(op.partition().num_rows(), 6);
        assert_eq!(op.partition().num_edges(), 4);
    }
}
