//! Source-graph extraction with source-consensus edge weights (§3.2–3.3).
//!
//! Given the page graph `G_P` and a [`SourceAssignment`], this module derives
//! the source graph `G_S` and its transition matrix:
//!
//! * **structural** edges: `(s_i, s_j) ∈ L_S` iff some page of `s_i` links to
//!   some page of `s_j` (self-edges excluded from the structural count, which
//!   is what Table 1 of the paper reports);
//! * **source consensus** raw weights (§3.2): `w(s_i, s_j)` counts the number
//!   of *unique pages* in `s_i` that link to at least one page of `s_j` — a
//!   hijacker must capture *many* pages of a legitimate source to move this
//!   weight, which is the first line of spam defence;
//! * **uniform** weights (the paper's initial `T`): every distinct out-edge
//!   of a source gets strength `1/o(s_i)`;
//! * **self-edge augmentation** (§3.3): every source receives a self-edge
//!   `(s_i, s_i)` regardless of the page graph, the hook on which influence
//!   throttling hangs. A source with no out-mass at all keeps its influence
//!   to itself: its self-edge gets weight 1, so no source row dangles.
//!
//! Rows of the resulting [`WeightedGraph`] are normalized to sum to 1. Each
//! source's row depends only on its own pages' out-links, so one function
//! builds it, for the full extraction and for the incremental
//! [`crate::SourceGraphMaintainer`] alike.

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::ids::{node_id, NodeId, SourceId};
use crate::partition::EdgePartition;
use crate::source_map::{SourceAssignment, SourceGroups};
use crate::weighted::WeightedGraph;

/// How raw source-edge strengths are derived from page links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdgeWeighting {
    /// Uniform `1/o(s_i)` per distinct target source (the paper's initial
    /// transition matrix `T`).
    Uniform,
    /// Source consensus: count of unique origin pages linking into the target
    /// source (the paper's `T'`, §3.2). The default.
    #[default]
    Consensus,
}

/// Configuration for [`extract`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SourceGraphConfig {
    /// Raw weight derivation.
    pub weighting: EdgeWeighting,
}

impl SourceGraphConfig {
    /// The paper's full configuration: consensus weights.
    pub fn consensus() -> Self {
        SourceGraphConfig {
            weighting: EdgeWeighting::Consensus,
        }
    }

    /// The paper's baseline SourceRank configuration (uniform weights).
    pub fn uniform() -> Self {
        SourceGraphConfig {
            weighting: EdgeWeighting::Uniform,
        }
    }
}

/// The derived source graph: structural edges plus a row-stochastic
/// transition matrix with mandatory self-edges.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceGraph {
    /// Row-stochastic transition matrix `T'` including self-edges.
    transitions: WeightedGraph,
    /// Distinct inter-source edges (self-edges excluded) — what Table 1 counts.
    structural: CsrGraph,
    /// Number of pages in the underlying page graph.
    num_pages: usize,
}

impl SourceGraph {
    /// Assembles the source graph from one row per source, each built by
    /// [`source_row`], the one per-row arithmetic: the CSR assembly of both
    /// [`extract`] and [`crate::SourceGraphMaintainer::source_graph`].
    pub(crate) fn from_rows(rows: &[SourceRow], num_pages: usize) -> Self {
        let n = rows.len();
        let entries = rows.iter().map(|r| r.transitions.len()).sum();
        let links = rows.iter().map(|r| r.structural.len()).sum();
        let mut t_offsets = Vec::with_capacity(n + 1);
        t_offsets.push(0usize);
        let mut t_targets = Vec::with_capacity(entries);
        let mut t_weights = Vec::with_capacity(entries);
        let mut s_offsets = Vec::with_capacity(n + 1);
        s_offsets.push(0usize);
        let mut s_targets = Vec::with_capacity(links);
        for row in rows {
            for &(d, w) in &row.transitions {
                t_targets.push(d);
                t_weights.push(w);
            }
            t_offsets.push(t_targets.len());
            s_targets.extend_from_slice(&row.structural);
            s_offsets.push(s_targets.len());
        }
        SourceGraph {
            transitions: WeightedGraph::from_parts(t_offsets, t_targets, t_weights),
            structural: CsrGraph::from_parts(s_offsets, s_targets),
            num_pages,
        }
    }

    /// The transition matrix `T'` (row-stochastic, self-edges included).
    #[inline]
    pub fn transitions(&self) -> &WeightedGraph {
        &self.transitions
    }

    /// Structural inter-source edges (no self-edges).
    #[inline]
    pub fn structural(&self) -> &CsrGraph {
        &self.structural
    }

    /// Number of sources.
    #[inline]
    pub fn num_sources(&self) -> usize {
        self.transitions.num_nodes()
    }

    /// Number of distinct inter-source edges (the paper's Table 1 "Edges").
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.structural.num_edges()
    }

    /// Number of pages in the page graph this was extracted from.
    #[inline]
    pub fn num_pages(&self) -> usize {
        self.num_pages
    }

    /// Self-edge weight `w(s, s)` of a source (always present).
    pub fn self_weight(&self, s: SourceId) -> f64 {
        self.transitions.weight(s.0, s.0).unwrap_or(0.0)
    }
}

/// One source's row of the source graph: its normalized transition row,
/// ascending by target with the self-edge always present (§3.3), and its
/// structural targets (self excluded).
#[derive(Debug, Clone, Default)]
pub(crate) struct SourceRow {
    transitions: Vec<(NodeId, f64)>,
    structural: Vec<NodeId>,
}

/// Buffers [`source_row`] reuses from one row to the next, so building
/// many rows allocates little more than the rows themselves.
#[derive(Debug, Default)]
pub(crate) struct ConsensusScratch {
    pairs: Vec<NodeId>,
    targets: Vec<NodeId>,
    row: Vec<(NodeId, f64)>,
}

/// Builds the row of source `s` from its `pages` (ascending), their
/// out-links `links(p)` and the page → source `map`. This is the one
/// implementation of the §3.2 consensus weight: [`extract`] builds every
/// row with it, and [`crate::SourceGraphMaintainer`] the rows a delta
/// touches.
pub(crate) fn source_row<'g>(
    s: NodeId,
    pages: &[NodeId],
    links: impl Fn(NodeId) -> &'g [NodeId],
    map: &[NodeId],
    config: SourceGraphConfig,
    scratch: &mut ConsensusScratch,
) -> SourceRow {
    let ConsensusScratch {
        pairs,
        targets,
        row,
    } = scratch;
    // Consensus counts: per page of `s`, the deduplicated set of target
    // sources; then run-length counts over the sorted concatenation. Counts
    // are small exact integers in f64.
    pairs.clear();
    for &p in pages {
        targets.clear();
        targets.extend(links(p).iter().map(|&q| map[q as usize]));
        targets.sort_unstable();
        targets.dedup();
        pairs.extend_from_slice(targets);
    }
    pairs.sort_unstable();
    row.clear();
    for &d in pairs.iter() {
        match row.last_mut() {
            Some(&mut (last, ref mut c)) if last == d => *c += 1.0,
            _ => row.push((d, 1.0)),
        }
    }

    if config.weighting == EdgeWeighting::Uniform {
        for e in row.iter_mut() {
            e.1 = 1.0;
        }
    }

    // Self-edge augmentation (§3.3): weight 0 if the page graph implies no
    // intra-source consensus.
    let self_idx = match row.binary_search_by_key(&s, |&(d, _)| d) {
        Ok(i) => i,
        Err(i) => {
            row.insert(i, (s, 0.0));
            i
        }
    };

    // A source without out-mass keeps it all on its self-edge; then every
    // row is normalized by its ascending-target sum.
    let mut sum: f64 = row.iter().map(|&(_, w)| w).sum();
    if sum == 0.0 {
        row[self_idx].1 = 1.0;
        sum = 1.0;
    }
    for e in row.iter_mut() {
        e.1 /= sum;
    }

    // Structural targets: every consensus target but the self-edge.
    let mut structural = Vec::with_capacity(row.len() - 1);
    structural.extend(row.iter().map(|&(d, _)| d).filter(|&d| d != s));
    SourceRow {
        transitions: row.clone(),
        structural,
    }
}

/// The row of every source of `groups` over `page_graph`.
///
/// Once the page graph holds [`sr_par::FORK_MIN_EDGES`] edges the sources
/// split into one contiguous, page-balanced range per thread, built in
/// parallel; below that one range runs on the calling thread. Each row is
/// built alone, so the split never moves a bit.
pub(crate) fn source_rows(
    page_graph: &CsrGraph,
    groups: &SourceGroups,
    map: &[NodeId],
    config: SourceGraphConfig,
) -> Vec<SourceRow> {
    let parts = if page_graph.num_edges() >= sr_par::FORK_MIN_EDGES {
        sr_par::num_threads()
    } else {
        1
    };
    let ranges = EdgePartition::from_offsets(groups.offsets(), parts);
    let bounds = ranges.row_bounds();
    sr_par::map_tasks(bounds.len() - 1, |i| {
        let mut scratch = ConsensusScratch::default();
        (bounds[i]..bounds[i + 1])
            .map(|s| {
                let s = node_id(s);
                let links = |p| page_graph.neighbors(p);
                let pages = groups.pages_of(SourceId(s));
                source_row(s, pages, links, map, config, &mut scratch)
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Extracts the source graph from a page graph and its source assignment.
pub fn extract(
    page_graph: &CsrGraph,
    assignment: &SourceAssignment,
    config: SourceGraphConfig,
) -> Result<SourceGraph, GraphError> {
    assignment.validate_for(page_graph)?;
    let rows = source_rows(
        page_graph,
        &assignment.group_pages(),
        assignment.raw(),
        config,
    );
    Ok(SourceGraph::from_rows(&rows, page_graph.num_nodes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// Two sources: s0 = {p0, p1, p2}, s1 = {p3, p4}.
    /// p0 -> p1 (intra), p0 -> p3, p1 -> p3, p1 -> p4, p3 -> p0.
    fn fixture() -> (CsrGraph, SourceAssignment) {
        let g = GraphBuilder::from_edges_exact(5, vec![(0, 1), (0, 3), (1, 3), (1, 4), (3, 0)])
            .unwrap();
        let a = SourceAssignment::new(vec![0, 0, 0, 1, 1], 2).unwrap();
        (g, a)
    }

    #[test]
    fn extract_consensus_normalizes_rows() {
        let (g, a) = fixture();
        let sg = extract(&g, &a, SourceGraphConfig::consensus()).unwrap();
        let t = sg.transitions();
        assert!(t.is_row_stochastic(1e-12));
        // s0 raw: self 1, to s1 2 => normalized 1/3, 2/3.
        assert!((t.weight(0, 0).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert!((t.weight(0, 1).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        // s1 raw: self 0 (augmented), to s0 1 => normalized 0, 1.
        assert_eq!(t.weight(1, 1).unwrap(), 0.0);
        assert!((t.weight(1, 0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn extract_uniform_equalizes_edges() {
        let (g, a) = fixture();
        let sg = extract(&g, &a, SourceGraphConfig::uniform()).unwrap();
        let t = sg.transitions();
        // s0 has distinct edges {self, s1} with raw 1 each => 0.5 / 0.5.
        assert!((t.weight(0, 0).unwrap() - 0.5).abs() < 1e-12);
        assert!((t.weight(0, 1).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn structural_excludes_self_edges() {
        let (g, a) = fixture();
        let sg = extract(&g, &a, SourceGraphConfig::consensus()).unwrap();
        assert_eq!(sg.num_edges(), 2); // s0->s1, s1->s0
        assert!(sg.structural().has_edge(0, 1));
        assert!(!sg.structural().has_edge(0, 0));
    }

    #[test]
    fn every_source_has_self_edge() {
        let (g, a) = fixture();
        let sg = extract(&g, &a, SourceGraphConfig::consensus()).unwrap();
        for s in 0..sg.num_sources() as NodeId {
            assert!(
                sg.transitions().neighbors(s).contains(&s),
                "source {s} lacks self-edge"
            );
        }
    }

    #[test]
    fn dangling_source_keeps_its_mass_on_the_self_edge() {
        // s1 has no out-links at all.
        let g = GraphBuilder::from_edges_exact(3, vec![(0, 1)]).unwrap();
        let a = SourceAssignment::new(vec![0, 0, 1], 2).unwrap();
        let sg = extract(&g, &a, SourceGraphConfig::consensus()).unwrap();
        assert_eq!(sg.self_weight(SourceId(1)), 1.0);
    }

    #[test]
    fn hijacking_one_page_moves_weight_little() {
        // The §3.2 spam-resilience property: a source with many pages linking
        // to legitimate targets dilutes a single hijacked page's edge.
        let npages = 22u32;
        let mut edges = Vec::new();
        // Pages 0..19 in s0 all link to page 20 (s1).
        for p in 0..20 {
            edges.push((p, 20));
        }
        // Hijacked page 19 additionally links to spam page 21 (s2).
        edges.push((19, 21));
        let g = GraphBuilder::from_edges_exact(npages as usize, edges).unwrap();
        let mut map = vec![0u32; 22];
        map[20] = 1;
        map[21] = 2;
        let a = SourceAssignment::new(map, 3).unwrap();
        let sg = extract(&g, &a, SourceGraphConfig::consensus()).unwrap();
        let w_spam = sg.transitions().weight(0, 2).unwrap();
        let w_legit = sg.transitions().weight(0, 1).unwrap();
        // 20 pages endorse s1, only 1 endorses s2: 20/21 vs 1/21.
        assert!((w_legit - 20.0 / 21.0).abs() < 1e-12);
        assert!((w_spam - 1.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn identity_assignment_matches_page_structure() {
        let g = GraphBuilder::from_edges(vec![(0, 1), (1, 2)]);
        let a = SourceAssignment::identity(3);
        let sg = extract(&g, &a, SourceGraphConfig::consensus()).unwrap();
        assert_eq!(sg.num_sources(), 3);
        assert_eq!(sg.num_edges(), 2);
    }

    #[test]
    fn mismatched_assignment_is_rejected() {
        let g = GraphBuilder::from_edges(vec![(0, 1)]);
        let a = SourceAssignment::new(vec![0], 1).unwrap();
        assert!(extract(&g, &a, SourceGraphConfig::consensus()).is_err());
    }
}
