//! Deadline-or-K batching of exact personalized queries.
//!
//! Exact PPR is a full linear solve; answering each request alone wastes the
//! solve driver's panel bandwidth (a K-column `sr_core::SolveRequest`
//! amortizes one edge sweep over K columns). [`PanelQueue`] coalesces:
//! handler threads submit `(ticket, seeds)` pairs and block on a per-query
//! slot; a single solver thread admits a window — closing it as soon as
//! `panel_k` queries are pending or the window's deadline passes, whichever
//! is first — and solves the admitted set through [`sr_core::pack_panels`].
//!
//! Determinism split: *which* queries land in a window is timing-dependent
//! (unavoidable for a deadline policy), but *given* the admitted set, panel
//! packing, solve order and every per-query score are pure — the canonical
//! `(seeds, ticket)` sort lives in `sr-core` and the batched solver is
//! thread-count invariant. [`PanelQueue::drain_once`] exposes the
//! admit-everything-now path so tests can pin exactly that: N queries
//! enqueued by 1 thread or by 8 produce bitwise-identical answers.
//!
//! Operator sharing: the serving writer offers each epoch's graph together
//! with the PageRank operator it already built, and a window whose resolved
//! graph is that very `Arc` solves over the offered operator instead of
//! building its own. The operator is a pure function of
//! the graph, so either way every answer has the same bits.

use std::sync::{Arc, Condvar, Mutex};

use sr_core::convergence::ConvergenceCriteria;
use sr_core::operator::{Transition, UniformTransition};
use sr_core::{
    pack_panels, panel_columns, solve, PageRank, PanelQuery, RankVector, SolverWorkspace,
};
use sr_graph::{CsrGraph, NodeId};
use sr_obs::Deadline;

/// One query's rendezvous cell: the submitting handler blocks on it, the
/// solver thread fills it.
#[derive(Debug, Default)]
pub struct ResponseSlot {
    result: Mutex<Option<Result<RankVector, String>>>,
    ready: Condvar,
}

impl ResponseSlot {
    /// Blocks until the solver delivers this query's result.
    pub fn wait(&self) -> Result<RankVector, String> {
        let mut g = self.result.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(r) = g.take() {
                return r;
            }
            g = self.ready.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn fill(&self, value: Result<RankVector, String>) {
        let mut g = self.result.lock().unwrap_or_else(|p| p.into_inner());
        *g = Some(value);
        self.ready.notify_all();
    }
}

struct Pending {
    query: PanelQuery,
    slot: Arc<ResponseSlot>,
}

struct QueueState {
    pending: Vec<Pending>,
    next_ticket: u64,
    closed: bool,
}

/// The coalescing queue. See the module docs for the admission policy.
pub struct PanelQueue {
    state: Mutex<QueueState>,
    arrival: Condvar,
    /// The latest offered epoch graph and its operator. Never locked while
    /// `state` is held.
    offered: Mutex<Option<(Arc<CsrGraph>, Arc<UniformTransition>)>>,
    panel_k: usize,
    window_us: u64,
    alpha: f64,
    criteria: ConvergenceCriteria,
}

impl PanelQueue {
    /// A queue admitting up to `panel_k` queries per window of `window_us`
    /// microseconds, solving at `alpha` under `criteria`.
    ///
    /// # Panics
    /// Panics if `panel_k == 0`.
    pub fn new(panel_k: usize, window_us: u64, alpha: f64, criteria: ConvergenceCriteria) -> Self {
        assert!(panel_k >= 1, "panel width must be at least 1");
        PanelQueue {
            state: Mutex::new(QueueState {
                pending: Vec::new(),
                next_ticket: 0,
                closed: false,
            }),
            arrival: Condvar::new(),
            offered: Mutex::new(None),
            panel_k,
            window_us,
            alpha,
            criteria,
        }
    }

    /// Enqueues a query (seeds must already be validated against the graph
    /// the solver will run on) and returns the slot to wait on. `None` if
    /// the queue has been closed.
    pub fn submit(&self, seeds: Vec<NodeId>) -> Option<Arc<ResponseSlot>> {
        let slot = Arc::new(ResponseSlot::default());
        {
            let mut g = self.state.lock().unwrap_or_else(|p| p.into_inner());
            if g.closed {
                return None;
            }
            let ticket = g.next_ticket;
            g.next_ticket += 1;
            g.pending.push(Pending {
                query: PanelQuery { ticket, seeds },
                slot: Arc::clone(&slot),
            });
        }
        self.arrival.notify_all();
        Some(slot)
    }

    /// Closes the queue: future submits are refused and the solver loop
    /// exits after draining what is already pending.
    pub fn close(&self) {
        let mut g = self.state.lock().unwrap_or_else(|p| p.into_inner());
        g.closed = true;
        drop(g);
        self.arrival.notify_all();
    }

    /// Offers an epoch's page graph with the PageRank operator built from
    /// it, replacing any earlier offer; `None` (an epoch with no shared
    /// pair) clears the slot, so it never pins an older epoch's graph.
    /// Windows whose resolved graph is the offered graph itself
    /// (`Arc::ptr_eq`) solve over its operator; the caller vouches that the
    /// operator is `UniformTransition::new` of the graph.
    pub(crate) fn offer(&self, epoch: Option<(Arc<CsrGraph>, Arc<UniformTransition>)>) {
        *self.offered.lock().unwrap_or_else(|p| p.into_inner()) = epoch;
    }

    /// Runs one admission window: blocks for the first arrival, holds the
    /// window open until `panel_k` queries are pending or the deadline
    /// expires, then drains and solves. Returns the number of panels
    /// solved, or `None` once the queue is closed and empty (solver loop
    /// exit signal).
    ///
    /// `graph` is resolved *after* the window is drained, not before the
    /// wait: a query admitted against epoch N must never be solved on an
    /// older snapshot's graph (its seeds may name pages that epoch added).
    /// The window solves over the offered operator when it was built from
    /// the resolved graph, and over a fresh build otherwise.
    pub fn serve_window(&self, graph: impl FnOnce() -> Arc<CsrGraph>) -> Option<usize> {
        let drained = {
            let mut g = self.state.lock().unwrap_or_else(|p| p.into_inner());
            while g.pending.is_empty() {
                if g.closed {
                    return None;
                }
                g = self.arrival.wait(g).unwrap_or_else(|p| p.into_inner());
            }
            let deadline = Deadline::after_micros(self.window_us);
            while g.pending.len() < self.panel_k && !g.closed {
                let remaining = deadline.remaining();
                if remaining.is_zero() {
                    break;
                }
                let (guard, _) = self
                    .arrival
                    .wait_timeout(g, remaining)
                    .unwrap_or_else(|p| p.into_inner());
                g = guard;
            }
            std::mem::take(&mut g.pending)
        };
        let graph = graph();
        let offered = self
            .offered
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .as_ref()
            .filter(|(g, _)| Arc::ptr_eq(g, &graph))
            .map(|(_, op)| Arc::clone(op));
        let op = offered.unwrap_or_else(|| Arc::new(UniformTransition::new(&graph)));
        Some(self.solve_drained(drained, &op))
    }

    /// Admits *everything currently pending* and solves it over a fresh
    /// operator of `graph`: the deterministic tail of a window, callable
    /// directly by tests (no timing involved). Returns the number of panels
    /// solved.
    pub fn drain_once(&self, graph: &CsrGraph) -> usize {
        let drained: Vec<Pending> = {
            let mut g = self.state.lock().unwrap_or_else(|p| p.into_inner());
            std::mem::take(&mut g.pending)
        };
        if drained.is_empty() {
            return 0;
        }
        self.solve_drained(drained, &UniformTransition::new(graph))
    }

    /// Packs `drained` into panels, solves each over `op` and fills every
    /// query's slot. Returns the number of panels solved.
    fn solve_drained(&self, drained: Vec<Pending>, op: &UniformTransition) -> usize {
        // Split queries from slots; slots are re-matched by ticket after
        // the canonical sort (tickets are unique, so order survives).
        let mut slots: Vec<(u64, Arc<ResponseSlot>)> = drained
            .iter()
            .map(|p| (p.query.ticket, Arc::clone(&p.slot)))
            .collect();
        slots.sort_unstable_by_key(|&(t, _)| t);
        let queries: Vec<PanelQuery> = drained.into_iter().map(|p| p.query).collect();

        let solver = PageRank::builder()
            .alpha(self.alpha)
            .criteria(self.criteria)
            .finish();
        let mut ws = SolverWorkspace::new();
        let panels = pack_panels(queries, self.panel_k);
        let num_panels = panels.len();
        for panel in panels {
            match panel_columns(&panel, self.alpha, op.num_nodes()) {
                Ok(columns) => {
                    let vectors = solve(op, &solver.request(columns), &mut ws, &mut []);
                    for (q, vector) in panel.iter().zip(vectors) {
                        let i = slots
                            .binary_search_by_key(&q.ticket, |&(t, _)| t)
                            // lint-ok(panic-surface): every panel query's ticket was
                            // inserted into `slots` by the same drain that packed it
                            .expect("every packed ticket has a slot");
                        slots[i].1.fill(Ok(vector));
                    }
                }
                Err(e) => {
                    // Seeds were validated at admission; reaching this means
                    // the graph shrank underneath us, which the serving
                    // engine never does. Fail the panel, keep serving.
                    for q in &panel {
                        let i = slots
                            .binary_search_by_key(&q.ticket, |&(t, _)| t)
                            // lint-ok(panic-surface): every panel query's ticket was
                            // inserted into `slots` by the same drain that packed it
                            .expect("every packed ticket has a slot");
                        slots[i].1.fill(Err(format!("panel solve failed: {e}")));
                    }
                }
            }
        }
        num_panels
    }

    /// Configured panel width.
    pub fn panel_k(&self) -> usize {
        self.panel_k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_graph::GraphBuilder;

    fn graph() -> CsrGraph {
        GraphBuilder::from_edges_exact(5, vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0)])
            .unwrap()
    }

    fn queue() -> PanelQueue {
        PanelQueue::new(4, 1_000, 0.85, ConvergenceCriteria::default())
    }

    #[test]
    fn drain_answers_every_submitted_query() {
        let q = queue();
        let g = graph();
        let slots: Vec<_> = (0..6u32).map(|i| q.submit(vec![i % 5]).unwrap()).collect();
        let panels = q.drain_once(&g);
        assert_eq!(panels, 2, "6 queries at k=4 pack into 2 panels");
        for (i, slot) in slots.iter().enumerate() {
            let v = slot.wait().unwrap();
            assert_eq!(v.scores().len(), 5);
            let seed = i % 5;
            let max = v.scores().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(
                v.scores()[seed] >= 0.5 * max,
                "seed node must carry heavy personalized mass"
            );
        }
    }

    #[test]
    fn batched_answers_match_single_query_solves_bitwise() {
        let q = queue();
        let g = graph();
        let seed_sets: Vec<Vec<u32>> = vec![vec![0], vec![1, 3], vec![4], vec![2], vec![0, 2]];
        let slots: Vec<_> = seed_sets
            .iter()
            .map(|s| q.submit(s.clone()).unwrap())
            .collect();
        q.drain_once(&g);
        for (seeds, slot) in seed_sets.iter().zip(&slots) {
            let batched = slot.wait().unwrap();
            let solo = {
                let qq = PanelQueue::new(4, 0, 0.85, ConvergenceCriteria::default());
                let s = qq.submit(seeds.clone()).unwrap();
                qq.drain_once(&g);
                s.wait().unwrap()
            };
            let bits = |v: &RankVector| v.scores().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&batched), bits(&solo), "seeds {seeds:?}");
        }
    }

    fn bits(v: &RankVector) -> Vec<u64> {
        v.scores().iter().map(|x| x.to_bits()).collect()
    }

    /// Five seed sets: at k = 4 they pack into a 4-column and a 1-column
    /// panel.
    fn seed_sets() -> Vec<Vec<u32>> {
        vec![vec![0], vec![1, 3], vec![4], vec![2], vec![0, 2]]
    }

    /// Answers `sets` through `drain_once`, which builds its own operator.
    fn drained(g: &CsrGraph, sets: &[Vec<u32>]) -> Vec<Vec<u64>> {
        let q = queue();
        let slots: Vec<_> = sets.iter().map(|s| q.submit(s.clone()).unwrap()).collect();
        q.drain_once(g);
        slots.iter().map(|s| bits(&s.wait().unwrap())).collect()
    }

    /// Answers `sets` through one window of a queue offered `offer` whose
    /// window resolves `resolved`.
    fn windowed(
        offer: (Arc<CsrGraph>, Arc<UniformTransition>),
        resolved: Arc<CsrGraph>,
        sets: &[Vec<u32>],
    ) -> Vec<Vec<u64>> {
        let q = queue();
        q.offer(Some(offer));
        let slots: Vec<_> = sets.iter().map(|s| q.submit(s.clone()).unwrap()).collect();
        // More queries than `panel_k` are pending, so the window closes at
        // once.
        assert_eq!(q.serve_window(|| resolved), Some(2));
        slots.iter().map(|s| bits(&s.wait().unwrap())).collect()
    }

    #[test]
    fn windows_over_the_offered_operator_answer_like_drain_once() {
        let g = Arc::new(graph());
        let op = Arc::new(UniformTransition::new(&g));
        let bare = op.heap_bytes();
        let got = windowed(
            (Arc::clone(&g), Arc::clone(&op)),
            Arc::clone(&g),
            &seed_sets(),
        );
        // The 4-column panel built its panel CSR inside the offered operator.
        assert!(op.heap_bytes() > bare, "the offered operator went unused");
        assert_eq!(got, drained(&g, &seed_sets()));
    }

    #[test]
    fn windows_over_another_graph_build_their_own_operator() {
        // An older epoch's graph and operator are on offer; the window
        // resolves a different graph over the same pages.
        let old = Arc::new(
            GraphBuilder::from_edges_exact(5, vec![(0, 2), (1, 0), (2, 4), (3, 1), (4, 3)])
                .unwrap(),
        );
        let op = Arc::new(UniformTransition::new(&old));
        let bare = op.heap_bytes();
        let current = Arc::new(graph());
        let got = windowed((old, Arc::clone(&op)), Arc::clone(&current), &seed_sets());
        assert_eq!(op.heap_bytes(), bare, "the stale operator was used");
        assert_eq!(got, drained(&current, &seed_sets()));
    }

    #[test]
    fn closed_queue_refuses_submissions() {
        let q = queue();
        q.close();
        assert!(q.submit(vec![0]).is_none());
        assert!(
            q.serve_window(|| Arc::new(graph())).is_none(),
            "closed + empty exits"
        );
    }

    #[test]
    fn serve_window_drains_after_deadline() {
        let q = Arc::new(PanelQueue::new(
            64,
            500,
            0.85,
            ConvergenceCriteria::default(),
        ));
        let g = graph();
        let slot = q.submit(vec![2]).unwrap();
        // panel_k is far above the 1 pending query, so only the deadline
        // closes the window.
        let panels = q.serve_window(|| Arc::new(g.clone())).unwrap();
        assert_eq!(panels, 1);
        assert!(slot.wait().is_ok());
    }
}
