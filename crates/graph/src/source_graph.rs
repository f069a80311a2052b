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
//!   throttling hangs.
//!
//! Rows of the resulting [`WeightedGraph`] are normalized to sum to 1.

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::ids::{node_id, node_range, NodeId, SourceId};
use crate::source_map::SourceAssignment;
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

/// What to do with a source that has no out-mass at all (no out-links and a
/// zero-weight self-edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DanglingPolicy {
    /// Give the mandatory self-edge weight 1 — the source keeps its influence
    /// to itself, consistent with §3.3's self-edge requirement. The default.
    #[default]
    SelfLoop,
    /// Leave the row all-zero; the ranking solver then redistributes the mass
    /// through the teleportation vector (classic PageRank dangling handling).
    ZeroRow,
}

/// Configuration for [`extract`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SourceGraphConfig {
    /// Raw weight derivation.
    pub weighting: EdgeWeighting,
    /// Dangling-source handling.
    pub dangling: DanglingPolicy,
}

impl SourceGraphConfig {
    /// The paper's full configuration: consensus weights, self-loop dangling.
    pub fn consensus() -> Self {
        SourceGraphConfig {
            weighting: EdgeWeighting::Consensus,
            dangling: DanglingPolicy::SelfLoop,
        }
    }

    /// The paper's baseline SourceRank configuration (uniform weights).
    pub fn uniform() -> Self {
        SourceGraphConfig {
            weighting: EdgeWeighting::Uniform,
            dangling: DanglingPolicy::SelfLoop,
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
    /// Assembles a source graph from parts maintained incrementally by
    /// [`crate::delta::SourceGraphMaintainer`]. The maintainer upholds the
    /// extraction invariants (row-stochastic transitions with mandatory
    /// self-edges, self-free structural rows) by reusing this module's
    /// per-row arithmetic.
    pub(crate) fn from_maintained_parts(
        transitions: WeightedGraph,
        structural: CsrGraph,
        num_pages: usize,
    ) -> Self {
        SourceGraph {
            transitions,
            structural,
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

/// Raw (unnormalized) source-edge counts: one triple `(s_i, s_j, count)` per
/// distinct source edge, *including* self-edges with their true counts.
///
/// `count` is the consensus weight of §3.2 — the number of unique pages of
/// `s_i` linking into `s_j`.
pub fn consensus_counts(
    page_graph: &CsrGraph,
    assignment: &SourceAssignment,
) -> Result<Vec<(NodeId, NodeId, f64)>, GraphError> {
    assignment.validate_for(page_graph)?;
    let map = assignment.raw();
    let n = page_graph.num_nodes();

    // Phase 1 (parallel): per page, the deduplicated set of target sources.
    // Each chunk of pages produces a local (src_source, dst_source) list.
    let chunk = 16_384;
    let locals: Vec<Vec<(NodeId, NodeId)>> = sr_par::map_chunks(n, chunk, |pages| {
        let mut local = Vec::new();
        let mut targets: Vec<NodeId> = Vec::new();
        for p in pages {
            let sp = map[p];
            targets.clear();
            targets.extend(
                page_graph
                    .neighbors(node_id(p))
                    .iter()
                    .map(|&q| map[q as usize]),
            );
            targets.sort_unstable();
            targets.dedup();
            local.extend(targets.iter().map(|&sq| (sp, sq)));
        }
        local
    });
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::with_capacity(locals.iter().map(Vec::len).sum());
    for mut local in locals {
        pairs.append(&mut local);
    }

    // Phase 2: sort and run-length count into consensus weights.
    sr_par::par_sort_unstable(&mut pairs);
    let mut triples: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for pair in pairs {
        match triples.last_mut() {
            Some(&mut (s, d, ref mut c)) if (s, d) == pair => *c += 1.0,
            _ => triples.push((pair.0, pair.1, 1.0)),
        }
    }
    Ok(triples)
}

/// Extracts the source graph from a page graph and its source assignment.
pub fn extract(
    page_graph: &CsrGraph,
    assignment: &SourceAssignment,
    config: SourceGraphConfig,
) -> Result<SourceGraph, GraphError> {
    let num_sources = assignment.num_sources();
    let mut triples = consensus_counts(page_graph, assignment)?;

    // Structural edges: distinct (s_i, s_j), i != j.
    let structural = {
        let mut b = crate::builder::GraphBuilder::with_nodes(num_sources);
        for &(s, d, _) in &triples {
            if s != d {
                b.add_edge(s, d);
            }
        }
        b.build()
    };

    if config.weighting == EdgeWeighting::Uniform {
        for t in &mut triples {
            t.2 = 1.0;
        }
    }

    // Self-edge augmentation: every source gets (s, s), weight 0 if absent.
    let mut has_self = vec![false; num_sources];
    for &(s, d, _) in &triples {
        if s == d {
            has_self[s as usize] = true;
        }
    }
    for (s, seen) in has_self.iter().enumerate() {
        if !seen {
            triples.push((node_id(s), node_id(s), 0.0));
        }
    }

    let mut transitions = WeightedGraph::from_triples(num_sources, triples);

    // Dangling sources: rows whose total mass is zero.
    if config.dangling == DanglingPolicy::SelfLoop {
        for s in node_range(num_sources) {
            if transitions.row_sum(s) == 0.0 {
                let idx = transitions
                    .neighbors(s)
                    .binary_search(&s)
                    .expect("self-edge guaranteed by augmentation");
                transitions.edge_weights_mut(s)[idx] = 1.0;
            }
        }
    }

    transitions.normalize_rows();
    Ok(SourceGraph {
        transitions,
        structural,
        num_pages: page_graph.num_nodes(),
    })
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
    fn consensus_counts_unique_pages() {
        let (g, a) = fixture();
        let mut counts = consensus_counts(&g, &a).unwrap();
        counts.sort_by_key(|x| (x.0, x.1));
        // s0 -> s0: only p0 links within s0 => 1
        // s0 -> s1: p0 and p1 both link into s1 => 2 (p1's two links count once)
        // s1 -> s0: p3 links to p0 => 1
        assert_eq!(counts, vec![(0, 0, 1.0), (0, 1, 2.0), (1, 0, 1.0)]);
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
    fn dangling_source_self_loop_policy() {
        // s1 has no out-links at all.
        let g = GraphBuilder::from_edges_exact(3, vec![(0, 1)]).unwrap();
        let a = SourceAssignment::new(vec![0, 0, 1], 2).unwrap();
        let sg = extract(&g, &a, SourceGraphConfig::consensus()).unwrap();
        assert_eq!(sg.self_weight(SourceId(1)), 1.0);
    }

    #[test]
    fn dangling_source_zero_row_policy() {
        let g = GraphBuilder::from_edges_exact(3, vec![(0, 1)]).unwrap();
        let a = SourceAssignment::new(vec![0, 0, 1], 2).unwrap();
        let cfg = SourceGraphConfig {
            dangling: DanglingPolicy::ZeroRow,
            ..Default::default()
        };
        let sg = extract(&g, &a, cfg).unwrap();
        assert_eq!(sg.transitions().row_sum(1), 0.0);
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
