//! The crawl editor: attacks record their edits as graph deltas.
//!
//! [`DeltaRecorder`] is the one mutation surface the attacks of
//! [`crate::attacks`] are written against. It captures each edit in a
//! [`CrawlDelta`] instead of materializing a new CSR graph, and threads
//! cumulative crawl state (page → source map, source count) across an
//! entire campaign while emitting one delta per step via
//! [`DeltaRecorder::take_delta`]. The incremental engine re-ranks after
//! each delta; [`crate::Campaign::execute`] folds them all through one
//! [`sr_graph::delta::DeltaOverlay`] into the attacked crawl.

use sr_graph::delta::CrawlDelta;
use sr_graph::ids::node_id;
use sr_graph::{NodeId, SourceAssignment, SourceId};

/// Records crawl mutations as [`CrawlDelta`]s.
#[derive(Debug, Clone)]
pub(crate) struct DeltaRecorder {
    /// Source of every page, cumulative across all recorded deltas.
    page_sources: Vec<NodeId>,
    /// Source count, cumulative across all recorded deltas.
    num_sources: usize,
    /// Page count at the start of the in-progress delta.
    step_base_pages: usize,
    delta: CrawlDelta,
}

impl DeltaRecorder {
    /// Starts recording on top of a crawl with the given assignment.
    pub(crate) fn new(assignment: &SourceAssignment) -> Self {
        DeltaRecorder {
            page_sources: assignment.raw().to_vec(),
            num_sources: assignment.num_sources(),
            step_base_pages: assignment.num_pages(),
            delta: CrawlDelta::new(),
        }
    }

    /// Finishes the in-progress delta and starts a fresh one on top of the
    /// accumulated state. Subsequent [`step_base_pages`] calls report the
    /// page count as of this boundary.
    ///
    /// [`step_base_pages`]: DeltaRecorder::step_base_pages
    pub(crate) fn take_delta(&mut self) -> CrawlDelta {
        self.step_base_pages = self.page_sources.len();
        std::mem::take(&mut self.delta)
    }

    /// The page → source map with every recorded page and source.
    pub(crate) fn into_assignment(self) -> SourceAssignment {
        SourceAssignment::new(self.page_sources, self.num_sources)
            .expect("recorded pages belong to recorded sources")
    }

    /// Number of pages the crawl had when the in-progress delta began.
    pub(crate) fn step_base_pages(&self) -> usize {
        self.step_base_pages
    }

    /// Source of `page`.
    pub(crate) fn source_of(&self, page: u32) -> SourceId {
        SourceId(self.page_sources[page as usize])
    }

    /// Adds a brand-new empty source, returning its id.
    pub(crate) fn add_source(&mut self) -> SourceId {
        let id = SourceId(node_id(self.num_sources));
        self.num_sources += 1;
        self.delta.new_sources += 1;
        id
    }

    /// Adds `count` new pages to `source` (which must already exist),
    /// returning their ids.
    pub(crate) fn add_pages(&mut self, source: SourceId, count: usize) -> Vec<u32> {
        assert!(source.index() < self.num_sources, "unknown source {source}");
        let start = node_id(self.page_sources.len());
        self.delta.graph.add_nodes(count);
        for _ in 0..count {
            self.delta.new_page_sources.push(source.0);
            self.page_sources.push(source.0);
        }
        (start..start + node_id(count)).collect()
    }

    /// Adds the hyperlink `(from, to)`. Both pages must exist.
    pub(crate) fn add_link(&mut self, from: u32, to: u32) {
        let n = node_id(self.page_sources.len());
        assert!(
            from < n && to < n,
            "link endpoint out of range ({from} -> {to}, {n} pages)"
        );
        self.delta.graph.add_edge(from, to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_graph::delta::{DeltaOverlay, SourceGraphMaintainer};
    use sr_graph::source_graph::SourceGraphConfig;
    use sr_graph::{GraphBuilder, PageId};

    fn base() -> (sr_graph::CsrGraph, SourceAssignment) {
        let g = GraphBuilder::from_edges_exact(3, vec![(0, 1), (1, 2)]).unwrap();
        let a = SourceAssignment::new(vec![0, 0, 1], 2).unwrap();
        (g, a)
    }

    #[test]
    fn recorded_delta_replays_the_same_edits() {
        let (g, a) = base();
        let mut rec = DeltaRecorder::new(&a);
        let s = rec.add_source();
        assert_eq!(s, SourceId(2));
        let ps = rec.add_pages(s, 2);
        assert_eq!(ps, vec![3, 4]);
        rec.add_link(3, 0);
        rec.add_link(4, 3);
        assert_eq!(rec.source_of(4), s);
        let delta = rec.take_delta();
        assert_eq!(delta.new_sources, 1);
        assert_eq!(delta.new_page_sources, vec![2, 2]);

        let mut overlay = DeltaOverlay::new(g.clone());
        overlay.apply(&delta.graph).unwrap();
        let patched = overlay.to_csr();
        assert_eq!(patched.num_nodes(), 5);
        assert!(patched.has_edge(3, 0));
        assert!(patched.has_edge(4, 3));

        let mut m = SourceGraphMaintainer::new(&g, &a, SourceGraphConfig::consensus()).unwrap();
        m.apply(&overlay, &delta).unwrap();
        assert_eq!(m.num_sources(), 3);
        assert_eq!(m.assignment().source_of(PageId(4)), SourceId(2));
    }

    #[test]
    fn take_delta_resets_the_step_base() {
        let (_, a) = base();
        let mut rec = DeltaRecorder::new(&a);
        assert_eq!(rec.step_base_pages(), 3);
        let s = rec.add_source();
        rec.add_pages(s, 4);
        assert_eq!(rec.step_base_pages(), 3, "base is fixed within a step");
        let first = rec.take_delta();
        assert_eq!(first.graph.new_nodes(), 4);
        assert_eq!(rec.step_base_pages(), 7, "next step sees the grown crawl");
        let second = rec.take_delta();
        assert!(second.is_empty());
    }
}
