//! Delta overlays — incremental mutation of a base [`CsrGraph`].
//!
//! The paper's evaluation (§6) is a *sequence* of graph mutations: spam
//! campaigns inject link-farm edges, hijack pages and grow colluding
//! clusters step by step. Rebuilding the page graph and re-extracting the
//! source graph from scratch after every step throws away almost all of the
//! previous state. This module provides the incremental substrate:
//!
//! * [`GraphDelta`] — an ordered batch of edge insertions/removals plus node
//!   additions, with set semantics (adding a present edge or removing an
//!   absent one is a no-op);
//! * [`DeltaOverlay`] — a base [`CsrGraph`] plus a sparse map of fully
//!   patched rows. Reads see the mutated graph; the base stays untouched
//!   until [`compact`](DeltaOverlay::compact) folds the patches back into
//!   canonical CSR form;
//! * [`CrawlDelta`] — a [`GraphDelta`] bundled with the source assignment of
//!   any new pages, the unit of change the incremental ranking engine in
//!   `sr-core` consumes;
//! * [`SourceGraphMaintainer`] — incremental [`SourceAssignment`] and
//!   [`SourceGraph`] maintenance that re-extracts only the consensus rows
//!   (§3.2) of sources actually touched by a delta.
//!
//! # Equivalence contract
//!
//! The overlay is not an approximation. For any base graph and delta
//! sequence, [`DeltaOverlay::to_csr`] (and therefore `compact`) is
//! **bit-identical** to rebuilding a [`CsrGraph`] from the final edge set
//! with [`crate::GraphBuilder`]: both produce sorted, deduplicated rows over
//! the same node count. Likewise [`SourceGraphMaintainer::source_graph`]
//! reproduces [`crate::source_graph::extract`] on the mutated graph
//! *exactly* (same `f64` bits): the two build each source's row with one
//! function and assemble the rows one way, so they can differ only through
//! the maintainer's bookkeeping — the set of sources a delta touches, the
//! pages it appends to them, and the sources it creates. The differential
//! tests in `tests/delta_differential.rs` pin the overlay and that
//! bookkeeping.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::ids::{node_id, node_range, NodeId, SourceId};
use crate::source_graph::{self, ConsensusScratch, SourceGraph, SourceGraphConfig, SourceRow};
use crate::source_map::SourceAssignment;

/// One edge mutation inside a [`GraphDelta`]. Applied in recording order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOp {
    /// Insert the directed edge `(u, v)`; a no-op if already present.
    AddEdge(NodeId, NodeId),
    /// Remove the directed edge `(u, v)`; a no-op if absent.
    RemoveEdge(NodeId, NodeId),
}

/// An ordered batch of graph mutations: `add_nodes` grows the node space
/// first, then the edge ops apply in order with set semantics.
///
/// Edge endpoints may reference the nodes being added (ids
/// `base_nodes..base_nodes + new_nodes`); validation happens when the delta
/// is applied to a concrete [`DeltaOverlay`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    new_nodes: usize,
    ops: Vec<DeltaOp>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> Self {
        GraphDelta::default()
    }

    /// Grows the node space by `count` isolated nodes.
    pub fn add_nodes(&mut self, count: usize) {
        self.new_nodes += count;
    }

    /// Records insertion of the directed edge `(u, v)`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.ops.push(DeltaOp::AddEdge(u, v));
    }

    /// Records removal of the directed edge `(u, v)`.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) {
        self.ops.push(DeltaOp::RemoveEdge(u, v));
    }

    /// Number of nodes this delta adds.
    pub fn new_nodes(&self) -> usize {
        self.new_nodes
    }

    /// The recorded edge ops, in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Whether the delta mutates nothing.
    pub fn is_empty(&self) -> bool {
        self.new_nodes == 0 && self.ops.is_empty()
    }

    /// Sorted, deduplicated list of rows (edge source endpoints) this delta
    /// touches. Rows of no-op mutations are included — re-deriving state for
    /// them is idempotent.
    pub fn touched_rows(&self) -> Vec<NodeId> {
        let mut rows: Vec<NodeId> = self
            .ops
            .iter()
            .map(|op| match *op {
                DeltaOp::AddEdge(u, _) | DeltaOp::RemoveEdge(u, _) => u,
            })
            .collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }
}

/// What applying one [`GraphDelta`] to a [`DeltaOverlay`] actually changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaSummary {
    /// Rows named by the delta (sorted, deduplicated), whether or not the
    /// ops on them were no-ops.
    pub touched_rows: Vec<NodeId>,
    /// Nodes appended.
    pub nodes_added: usize,
    /// Edges actually inserted (no-op adds excluded).
    pub edges_added: usize,
    /// Edges actually removed (no-op removes excluded).
    pub edges_removed: usize,
}

/// A base [`CsrGraph`] with a sparse set of patched rows layered on top.
///
/// Mutation cost is proportional to the touched rows, not the graph; reads
/// (`row`, `has_edge`, `out_degree`) see the fully mutated graph. Patches
/// accumulate until [`compact`](DeltaOverlay::compact) folds them into a
/// fresh canonical CSR — callers typically compact once the
/// [`patched_fraction`](DeltaOverlay::patched_fraction) passes a threshold.
///
/// The base is held behind an [`Arc`], so a clean overlay's graph can be
/// shared ([`shared_base`](DeltaOverlay::shared_base)) instead of copied.
#[derive(Debug, Clone)]
pub struct DeltaOverlay {
    base: Arc<CsrGraph>,
    /// Fully materialized replacement rows, keyed by node. `BTreeMap` keeps
    /// iteration in ascending node order, which compaction and the
    /// correction pass of the incremental solver rely on for determinism.
    patched: BTreeMap<NodeId, Vec<NodeId>>,
    /// Nodes appended beyond the base graph (rows live in `patched` once
    /// they gain edges).
    extra_nodes: usize,
    num_edges: usize,
}

impl DeltaOverlay {
    /// An overlay with no patches over `base`.
    pub fn new(base: CsrGraph) -> Self {
        let num_edges = base.num_edges();
        DeltaOverlay {
            base: Arc::new(base),
            patched: BTreeMap::new(),
            extra_nodes: 0,
            num_edges,
        }
    }

    /// The unpatched base graph.
    pub fn base(&self) -> &CsrGraph {
        &self.base
    }

    /// The base graph's shared handle. While the overlay
    /// [`is_clean`](DeltaOverlay::is_clean) it *is* the mutated graph.
    pub fn shared_base(&self) -> &Arc<CsrGraph> {
        &self.base
    }

    /// Whether the overlay equals its base: no patched rows and no
    /// appended nodes.
    pub fn is_clean(&self) -> bool {
        self.patched.is_empty() && self.extra_nodes == 0
    }

    /// Total node count (base plus appended nodes).
    pub fn num_nodes(&self) -> usize {
        self.base.num_nodes() + self.extra_nodes
    }

    /// Total edge count of the mutated graph.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Successors of `u` in the mutated graph (sorted, deduplicated).
    pub fn row(&self, u: NodeId) -> &[NodeId] {
        if let Some(r) = self.patched.get(&u) {
            return r;
        }
        if (u as usize) < self.base.num_nodes() {
            self.base.neighbors(u)
        } else {
            &[]
        }
    }

    /// Out-degree of `u` in the mutated graph.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.row(u).len()
    }

    /// Whether the mutated graph contains the edge `(u, v)`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.row(u).binary_search(&v).is_ok()
    }

    /// Whether row `u` carries a patch (differs structurally from the base,
    /// or belongs to an appended node that gained edges).
    pub fn is_patched(&self, u: NodeId) -> bool {
        self.patched.contains_key(&u)
    }

    /// Patched rows in ascending node order.
    pub fn patched_rows(&self) -> impl Iterator<Item = (NodeId, &[NodeId])> {
        self.patched.iter().map(|(&u, r)| (u, r.as_slice()))
    }

    /// Number of patched rows.
    pub fn patched_row_count(&self) -> usize {
        self.patched.len()
    }

    /// Patched rows as a fraction of all rows — the compaction trigger.
    pub fn patched_fraction(&self) -> f64 {
        let n = self.num_nodes();
        if n == 0 {
            0.0
        } else {
            self.patched.len() as f64 / n as f64
        }
    }

    /// Applies `delta`, returning a summary of what changed.
    ///
    /// Validation happens up front: if any edge endpoint is out of range for
    /// the post-delta node count, an error is returned and the overlay is
    /// left **unmodified**.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<DeltaSummary, GraphError> {
        let total = self.num_nodes() + delta.new_nodes();
        for op in delta.ops() {
            let (u, v) = match *op {
                DeltaOp::AddEdge(u, v) | DeltaOp::RemoveEdge(u, v) => (u, v),
            };
            for node in [u, v] {
                if node as usize >= total {
                    return Err(GraphError::NodeOutOfRange {
                        node,
                        num_nodes: total,
                    });
                }
            }
        }

        self.extra_nodes += delta.new_nodes();
        let mut edges_added = 0usize;
        let mut edges_removed = 0usize;
        let base_nodes = self.base.num_nodes();
        for op in delta.ops() {
            let (u, v, insert) = match *op {
                DeltaOp::AddEdge(u, v) => (u, v, true),
                DeltaOp::RemoveEdge(u, v) => (u, v, false),
            };
            let row = self.patched.entry(u).or_insert_with(|| {
                if (u as usize) < base_nodes {
                    self.base.neighbors(u).to_vec()
                } else {
                    Vec::new()
                }
            });
            match (row.binary_search(&v), insert) {
                (Err(i), true) => {
                    row.insert(i, v);
                    edges_added += 1;
                }
                (Ok(i), false) => {
                    row.remove(i);
                    edges_removed += 1;
                }
                _ => {} // set semantics: present add / absent remove are no-ops
            }
        }
        self.num_edges = self.num_edges + edges_added - edges_removed;
        Ok(DeltaSummary {
            touched_rows: delta.touched_rows(),
            nodes_added: delta.new_nodes(),
            edges_added,
            edges_removed,
        })
    }

    /// Materializes the mutated graph as a canonical [`CsrGraph`] —
    /// bit-identical to rebuilding from the final edge list with
    /// [`crate::GraphBuilder`].
    pub fn to_csr(&self) -> CsrGraph {
        let n = self.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut targets = Vec::with_capacity(self.num_edges);
        for u in node_range(n) {
            targets.extend_from_slice(self.row(u));
            offsets.push(targets.len());
        }
        CsrGraph::from_parts(offsets, targets)
    }

    /// Folds all patches into the base: afterwards `base()` is the mutated
    /// graph and no rows are patched. Returns the number of rows folded.
    /// The folded base is a fresh allocation; holders of the previous
    /// [`shared_base`](DeltaOverlay::shared_base) keep the old graph.
    pub fn compact(&mut self) -> usize {
        let folded = self.patched.len();
        if !self.is_clean() {
            self.base = Arc::new(self.to_csr());
            self.patched.clear();
            self.extra_nodes = 0;
        }
        folded
    }
}

/// A [`GraphDelta`] over the page graph bundled with the source-assignment
/// extension for any new pages — the unit of change the incremental ranking
/// engine consumes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrawlDelta {
    /// Page-graph mutations.
    pub graph: GraphDelta,
    /// Source of each new page, aligned with the nodes `graph` adds
    /// (`new_page_sources.len()` must equal `graph.new_nodes()`). Ids may
    /// reference the `new_sources` being created, in order, directly after
    /// the existing source space.
    pub new_page_sources: Vec<NodeId>,
    /// Brand-new sources this delta creates (ids `num_sources..
    /// num_sources + new_sources` after application).
    pub new_sources: usize,
}

impl CrawlDelta {
    /// A delta that changes nothing.
    pub fn new() -> Self {
        CrawlDelta::default()
    }

    /// Whether the delta mutates nothing.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty() && self.new_sources == 0
    }
}

/// Incrementally maintained [`SourceAssignment`] + [`SourceGraph`] state.
///
/// The key observation: a page-graph delta that rewires page `p` only
/// changes the *out-row* of `map[p]` in the source graph — in-edges never
/// affect another source's row because consensus weights (§3.2) are
/// attributed to the *origin* source and rows are normalized independently.
/// So a delta touching `k` pages rebuilds at most `k` consensus rows (plus
/// rows of sources receiving new pages) instead of every row.
///
/// [`source_graph::extract`] builds its rows with the same per-source
/// function and assembles them the same way, so the maintained graph is
/// bit-identical to a from-scratch extraction on the mutated page graph as
/// long as `apply` rebuilds every row whose pages or links changed.
#[derive(Debug, Clone)]
pub struct SourceGraphMaintainer {
    config: SourceGraphConfig,
    /// Page → source, kept in lock-step with the page graph.
    map: Vec<NodeId>,
    /// Pages of each source in ascending page order (append-only: the delta
    /// model never reassigns or deletes pages).
    pages_by_source: Vec<Vec<NodeId>>,
    /// Transition and structural row per source.
    rows: Vec<SourceRow>,
}

impl SourceGraphMaintainer {
    /// Builds every row over `page_graph` to seed the incremental state,
    /// as [`source_graph::extract`] does.
    pub fn new(
        page_graph: &CsrGraph,
        assignment: &SourceAssignment,
        config: SourceGraphConfig,
    ) -> Result<Self, GraphError> {
        assignment.validate_for(page_graph)?;
        let groups = assignment.group_pages();
        let rows = source_graph::source_rows(page_graph, &groups, assignment.raw(), config);
        let pages_by_source = node_range(groups.num_sources())
            .map(|s| groups.pages_of(SourceId(s)).to_vec())
            .collect();
        Ok(SourceGraphMaintainer {
            config,
            map: assignment.raw().to_vec(),
            pages_by_source,
            rows,
        })
    }

    /// Number of sources currently maintained.
    pub fn num_sources(&self) -> usize {
        self.rows.len()
    }

    /// Number of pages currently mapped.
    pub fn num_pages(&self) -> usize {
        self.map.len()
    }

    /// The maintained page → source map.
    pub fn page_to_source(&self) -> &[NodeId] {
        &self.map
    }

    /// The maintained assignment as a standalone [`SourceAssignment`].
    pub fn assignment(&self) -> SourceAssignment {
        SourceAssignment::new(self.map.clone(), self.num_sources())
            .expect("maintained map is in range by construction")
    }

    /// Pages of source `s` in ascending page order.
    pub fn pages_of(&self, s: SourceId) -> &[NodeId] {
        &self.pages_by_source[s.index()]
    }

    /// Applies `delta` against `graph` — the [`DeltaOverlay`] (or compacted
    /// graph) **after** `delta.graph` has been applied to it — re-extracting
    /// only the touched consensus rows. Returns the sorted list of sources
    /// whose rows were recomputed.
    ///
    /// Validation happens before any mutation: on error the maintainer is
    /// unchanged.
    pub fn apply(
        &mut self,
        graph: &DeltaOverlay,
        delta: &CrawlDelta,
    ) -> Result<Vec<NodeId>, GraphError> {
        if delta.new_page_sources.len() != delta.graph.new_nodes() {
            return Err(GraphError::AssignmentLengthMismatch {
                graph_pages: delta.graph.new_nodes(),
                assignment_pages: delta.new_page_sources.len(),
            });
        }
        let new_total_pages = self.map.len() + delta.graph.new_nodes();
        if graph.num_nodes() != new_total_pages {
            return Err(GraphError::AssignmentLengthMismatch {
                graph_pages: graph.num_nodes(),
                assignment_pages: new_total_pages,
            });
        }
        let new_num_sources = self.num_sources() + delta.new_sources;
        for &s in &delta.new_page_sources {
            if s as usize >= new_num_sources {
                return Err(GraphError::SourceOutOfRange {
                    source: s,
                    num_sources: new_num_sources,
                });
            }
        }

        // Grow the source space, then append new pages to their sources.
        self.pages_by_source.resize(new_num_sources, Vec::new());
        self.rows.resize(new_num_sources, SourceRow::default());
        let first_new_page = node_id(self.map.len());
        for (i, &s) in delta.new_page_sources.iter().enumerate() {
            self.map.push(s);
            self.pages_by_source[s as usize].push(first_new_page + node_id(i));
        }

        // Touched sources: rewired rows map through the assignment, plus
        // every source that gained pages, plus brand-new (possibly empty)
        // sources, which need their mandatory self-edge row materialized.
        let mut touched: Vec<NodeId> = delta
            .graph
            .touched_rows()
            .iter()
            .map(|&p| self.map[p as usize])
            .chain(delta.new_page_sources.iter().copied())
            .chain((new_num_sources - delta.new_sources..new_num_sources).map(node_id))
            .collect();
        touched.sort_unstable();
        touched.dedup();

        let mut scratch = ConsensusScratch::default();
        for &s in &touched {
            let pages = &self.pages_by_source[s as usize];
            let links = |p| graph.row(p);
            self.rows[s as usize] =
                source_graph::source_row(s, pages, links, &self.map, self.config, &mut scratch);
        }
        Ok(touched)
    }

    /// Assembles the maintained rows into a [`SourceGraph`] — bit-identical
    /// to [`source_graph::extract`] on the mutated page graph.
    pub fn source_graph(&self) -> SourceGraph {
        SourceGraph::from_rows(&self.rows, self.map.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn base() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 2, 3 dangling
        GraphBuilder::from_edges_exact(4, vec![(0, 1), (0, 2), (1, 2)]).unwrap()
    }

    #[test]
    fn overlay_reads_match_base_before_patching() {
        let o = DeltaOverlay::new(base());
        assert_eq!(o.num_nodes(), 4);
        assert_eq!(o.num_edges(), 3);
        assert_eq!(o.row(0), &[1, 2]);
        assert_eq!(o.row(3), &[] as &[NodeId]);
        assert!(o.has_edge(1, 2));
        assert!(!o.is_patched(0));
        assert_eq!(o.patched_fraction(), 0.0);
    }

    #[test]
    fn apply_add_and_remove_edges() {
        let mut o = DeltaOverlay::new(base());
        let mut d = GraphDelta::new();
        d.add_edge(2, 0);
        d.remove_edge(0, 1);
        let s = o.apply(&d).unwrap();
        assert_eq!(s.edges_added, 1);
        assert_eq!(s.edges_removed, 1);
        assert_eq!(s.touched_rows, vec![0, 2]);
        assert_eq!(o.row(0), &[2]);
        assert_eq!(o.row(2), &[0]);
        assert_eq!(o.num_edges(), 3);
        assert!(o.is_patched(0) && o.is_patched(2) && !o.is_patched(1));
    }

    #[test]
    fn set_semantics_make_redundant_ops_noops() {
        let mut o = DeltaOverlay::new(base());
        let mut d = GraphDelta::new();
        d.add_edge(0, 1); // already present
        d.remove_edge(2, 3); // absent
        let s = o.apply(&d).unwrap();
        assert_eq!(s.edges_added, 0);
        assert_eq!(s.edges_removed, 0);
        assert_eq!(o.num_edges(), 3);
        // The rows still count as touched (idempotent downstream refresh).
        assert_eq!(s.touched_rows, vec![0, 2]);
    }

    #[test]
    fn add_then_remove_round_trips() {
        let mut o = DeltaOverlay::new(base());
        let mut d = GraphDelta::new();
        d.add_edge(3, 0);
        o.apply(&d).unwrap();
        let mut d2 = GraphDelta::new();
        d2.remove_edge(3, 0);
        o.apply(&d2).unwrap();
        assert_eq!(o.to_csr(), base());
    }

    #[test]
    fn new_nodes_start_isolated_and_can_gain_edges() {
        let mut o = DeltaOverlay::new(base());
        let mut d = GraphDelta::new();
        d.add_nodes(2);
        d.add_edge(4, 0);
        d.add_edge(5, 4);
        let s = o.apply(&d).unwrap();
        assert_eq!(s.nodes_added, 2);
        assert_eq!(o.num_nodes(), 6);
        assert_eq!(o.row(4), &[0]);
        assert_eq!(o.row(5), &[4]);
        assert_eq!(o.num_edges(), 5);
    }

    #[test]
    fn out_of_range_endpoint_rejected_without_mutation() {
        let mut o = DeltaOverlay::new(base());
        let mut d = GraphDelta::new();
        d.add_edge(0, 3);
        d.add_edge(0, 9); // out of range
        let err = o.apply(&d).unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: 9,
                num_nodes: 4
            }
        );
        // First op must not have leaked through.
        assert!(!o.has_edge(0, 3));
        assert_eq!(o.num_edges(), 3);
    }

    #[test]
    fn to_csr_is_bit_identical_to_rebuild() {
        let mut o = DeltaOverlay::new(base());
        let mut d = GraphDelta::new();
        d.add_nodes(1);
        d.add_edge(4, 1);
        d.add_edge(2, 3);
        d.remove_edge(0, 2);
        o.apply(&d).unwrap();
        let rebuilt =
            GraphBuilder::from_edges_exact(5, vec![(0, 1), (1, 2), (2, 3), (4, 1)]).unwrap();
        assert_eq!(o.to_csr(), rebuilt);
    }

    #[test]
    fn compact_folds_patches_and_preserves_reads() {
        let mut o = DeltaOverlay::new(base());
        let mut d = GraphDelta::new();
        d.add_edge(2, 0);
        d.remove_edge(0, 1);
        o.apply(&d).unwrap();
        let before = o.to_csr();
        let folded = o.compact();
        assert_eq!(folded, 2);
        assert_eq!(o.patched_row_count(), 0);
        assert_eq!(o.base(), &before);
        assert_eq!(o.to_csr(), before);
        assert_eq!(o.num_edges(), before.num_edges());
        // Compacting an unpatched overlay is a no-op.
        assert_eq!(o.compact(), 0);
    }

    #[test]
    fn touched_rows_sorted_and_deduped() {
        let mut d = GraphDelta::new();
        d.add_edge(5, 1);
        d.remove_edge(2, 0);
        d.add_edge(5, 2);
        assert_eq!(d.touched_rows(), vec![2, 5]);
        assert!(!d.is_empty());
        assert!(GraphDelta::new().is_empty());
    }

    fn fixture() -> (CsrGraph, SourceAssignment) {
        // Mirrors source_graph.rs: s0 = {0,1,2}, s1 = {3,4}.
        let g = GraphBuilder::from_edges_exact(5, vec![(0, 1), (0, 3), (1, 3), (1, 4), (3, 0)])
            .unwrap();
        let a = SourceAssignment::new(vec![0, 0, 0, 1, 1], 2).unwrap();
        (g, a)
    }

    #[test]
    fn maintainer_seed_matches_full_extract() {
        let (g, a) = fixture();
        let cfg = SourceGraphConfig::consensus();
        let m = SourceGraphMaintainer::new(&g, &a, cfg).unwrap();
        let full = source_graph::extract(&g, &a, cfg).unwrap();
        assert_eq!(m.source_graph(), full);
        assert_eq!(m.assignment(), a);
        assert_eq!(m.pages_of(SourceId(1)), &[3, 4]);
    }

    #[test]
    fn maintainer_tracks_edge_mutations_exactly() {
        let (g, a) = fixture();
        let cfg = SourceGraphConfig::consensus();
        let mut overlay = DeltaOverlay::new(g);
        let mut m = SourceGraphMaintainer::new(overlay.base(), &a, cfg).unwrap();

        // Rewire page 2 (source 0) into s1, and cut page 3's back-link.
        let mut delta = CrawlDelta::new();
        delta.graph.add_edge(2, 4);
        delta.graph.remove_edge(3, 0);
        overlay.apply(&delta.graph).unwrap();
        let touched = m.apply(&overlay, &delta).unwrap();
        assert_eq!(touched, vec![0, 1]);

        let rebuilt = overlay.to_csr();
        let full = source_graph::extract(&rebuilt, &m.assignment(), cfg).unwrap();
        assert_eq!(m.source_graph(), full);
    }

    #[test]
    fn maintainer_handles_new_pages_and_sources() {
        let (g, a) = fixture();
        let cfg = SourceGraphConfig::consensus();
        let mut overlay = DeltaOverlay::new(g);
        let mut m = SourceGraphMaintainer::new(overlay.base(), &a, cfg).unwrap();

        // Two new pages in a brand-new source 2, linking at the fixture.
        let mut delta = CrawlDelta::new();
        delta.graph.add_nodes(2);
        delta.graph.add_edge(5, 0);
        delta.graph.add_edge(6, 5);
        delta.new_page_sources = vec![2, 2];
        delta.new_sources = 1;
        overlay.apply(&delta.graph).unwrap();
        let touched = m.apply(&overlay, &delta).unwrap();
        assert_eq!(touched, vec![2]);
        assert_eq!(m.num_sources(), 3);
        assert_eq!(m.num_pages(), 7);

        let rebuilt = overlay.to_csr();
        let full = source_graph::extract(&rebuilt, &m.assignment(), cfg).unwrap();
        assert_eq!(m.source_graph(), full);
    }

    #[test]
    fn maintainer_materializes_empty_new_source() {
        let (g, a) = fixture();
        let cfg = SourceGraphConfig::consensus();
        let mut overlay = DeltaOverlay::new(g);
        let mut m = SourceGraphMaintainer::new(overlay.base(), &a, cfg).unwrap();

        let mut delta = CrawlDelta::new();
        delta.new_sources = 1; // a source with no pages at all
        overlay.apply(&delta.graph).unwrap();
        let touched = m.apply(&overlay, &delta).unwrap();
        assert_eq!(touched, vec![2]);

        // The empty source still gets its mandatory self-edge row, and with
        // no out-mass its self-weight is 1.
        let sg = m.source_graph();
        assert_eq!(sg.num_sources(), 3);
        assert_eq!(sg.self_weight(SourceId(2)), 1.0);
    }

    #[test]
    fn maintainer_rejects_mismatched_delta() {
        let (g, a) = fixture();
        let cfg = SourceGraphConfig::consensus();
        let overlay = DeltaOverlay::new(g);
        let mut m = SourceGraphMaintainer::new(overlay.base(), &a, cfg).unwrap();

        // new_page_sources length disagrees with the node count added.
        let mut delta = CrawlDelta::new();
        delta.graph.add_nodes(2);
        delta.new_page_sources = vec![0];
        assert!(m.apply(&overlay, &delta).is_err());

        // Source id beyond the declared new source space.
        let mut delta = CrawlDelta::new();
        delta.graph.add_nodes(1);
        delta.new_page_sources = vec![7];
        assert!(m.apply(&overlay, &delta).is_err());
        assert_eq!(m.num_pages(), 5, "failed applies must not mutate");
    }

    #[test]
    fn maintainer_uniform_weighting_matches_extract() {
        let (g, a) = fixture();
        let cfg = SourceGraphConfig::uniform();
        let mut overlay = DeltaOverlay::new(g);
        let mut m = SourceGraphMaintainer::new(overlay.base(), &a, cfg).unwrap();
        let mut delta = CrawlDelta::new();
        delta.graph.add_edge(4, 1);
        overlay.apply(&delta.graph).unwrap();
        m.apply(&overlay, &delta).unwrap();
        let full = source_graph::extract(&overlay.to_csr(), &m.assignment(), cfg).unwrap();
        assert_eq!(m.source_graph(), full);
    }
}
