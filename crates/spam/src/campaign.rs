//! Composite attack campaigns.
//!
//! §2: "In practice, Web spammers rely on combinations of these basic
//! strategies to create more complex attacks on link-based ranking systems.
//! This complexity can make the total attack both more effective (since
//! multiple attack vectors are combined) and more difficult to detect
//! (since simple pattern-based arrangements are masked)." A [`Campaign`]
//! chains the §2 primitives into one executable, priceable attack, and a
//! single attack is a one-step campaign. [`Campaign::execute`] is the one
//! path that builds an attacked crawl: it folds the deltas
//! [`Campaign::record_deltas`] hands the incremental engine.

use sr_graph::delta::{CrawlDelta, DeltaOverlay};
use sr_graph::{CsrGraph, SourceAssignment};

use crate::attacks::{AttackResult, Step};
use crate::delta::DeltaRecorder;
use crate::economics::CostModel;

/// A composite attack: an ordered list of steps promoting one target page.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Campaign {
    steps: Vec<Step>,
}

impl Campaign {
    /// An empty campaign.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a step.
    pub fn step(mut self, step: Step) -> Self {
        self.steps.push(step);
        self
    }

    /// The steps in execution order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Executes every step in order against `graph` and returns the attacked
    /// crawl, with the pages and sources injected across all steps. Each
    /// step is recorded as one delta, the deltas are applied in order to one
    /// [`DeltaOverlay`] over `graph`, and the overlay is materialized once.
    pub fn execute(
        &self,
        graph: &CsrGraph,
        assignment: &SourceAssignment,
        target_page: u32,
    ) -> AttackResult {
        let mut rec = recorder(graph, assignment);
        let mut overlay = DeltaOverlay::new(graph.clone());
        let mut injected_pages = Vec::new();
        let mut injected_sources = Vec::new();
        for step in &self.steps {
            let (pages, sources) = step.apply(&mut rec, target_page);
            injected_pages.extend(pages);
            injected_sources.extend(sources);
            overlay
                .apply(&rec.take_delta().graph)
                .expect("the recorder checks every link endpoint");
        }
        AttackResult {
            pages: overlay.to_csr(),
            assignment: rec.into_assignment(),
            injected_pages,
            injected_sources,
        }
    }

    /// Records the campaign as one [`CrawlDelta`] per step — the input the
    /// incremental re-ranking engine (`sr-core`'s `IncrementalRanker`)
    /// consumes to re-rank after every step. These are the deltas
    /// [`execute`](Campaign::execute) folds.
    pub fn record_deltas(
        &self,
        graph: &CsrGraph,
        assignment: &SourceAssignment,
        target_page: u32,
    ) -> Vec<CrawlDelta> {
        let mut rec = recorder(graph, assignment);
        self.steps
            .iter()
            .map(|step| {
                step.apply(&mut rec, target_page);
                rec.take_delta()
            })
            .collect()
    }

    /// Total hijacked links across the campaign.
    pub fn hijacked_links(&self) -> usize {
        self.steps.iter().map(Step::hijacked_links).sum()
    }

    /// Prices an executed campaign.
    pub fn cost(&self, result: &AttackResult, model: &CostModel) -> f64 {
        model.cost(result, self.hijacked_links())
    }
}

/// A recorder over `assignment`, which must cover `graph`.
fn recorder(graph: &CsrGraph, assignment: &SourceAssignment) -> DeltaRecorder {
    assignment
        .validate_for(graph)
        .expect("assignment must cover the graph");
    DeltaRecorder::new(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_graph::GraphBuilder;

    fn base() -> (CsrGraph, SourceAssignment) {
        let g = GraphBuilder::from_edges_exact(6, vec![(0, 2), (2, 4), (4, 0), (1, 0)]).unwrap();
        let a = SourceAssignment::new(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
        (g, a)
    }

    #[test]
    fn combined_campaign_accumulates_all_steps() {
        let (g, a) = base();
        let campaign = Campaign::new()
            .step(Step::IntraInjection { count: 3 })
            .step(Step::Hijack {
                victims: vec![0, 4],
            })
            .step(Step::Farm {
                pages: 5,
                exchange: false,
            })
            .step(Step::Collusion {
                sources: 2,
                pages_each: 2,
            });
        let r = campaign.execute(&g, &a, 2);
        // 3 intra + 5 farm + 4 collusion pages.
        assert_eq!(r.injected_pages.len(), 12);
        // 1 farm source + 2 colluding sources.
        assert_eq!(r.injected_sources.len(), 3);
        assert_eq!(r.pages.num_nodes(), 6 + 12);
        // Every injected page points at the target.
        for &p in &r.injected_pages {
            assert!(
                r.pages.neighbors(p).contains(&2) || r.pages.out_degree(p) > 1,
                "page {p} does not promote the target"
            );
        }
        // Hijacked links exist.
        assert!(r.pages.has_edge(0, 2));
        assert!(r.pages.has_edge(4, 2));
    }

    #[test]
    fn campaign_order_is_respected_and_composes() {
        let (g, a) = base();
        // A honeypot after a farm: both fresh sources exist.
        let campaign = Campaign::new()
            .step(Step::Farm {
                pages: 2,
                exchange: true,
            })
            .step(Step::Honeypot {
                pages: 2,
                induced_links: 3,
                seed: 5,
            });
        let r = campaign.execute(&g, &a, 2);
        assert_eq!(r.injected_sources.len(), 2);
        assert_eq!(r.assignment.num_sources(), 5);
    }

    #[test]
    fn pricing_counts_hijacks_once() {
        let (g, a) = base();
        let campaign = Campaign::new()
            .step(Step::Hijack {
                victims: vec![0, 1, 4],
            })
            .step(Step::Farm {
                pages: 10,
                exchange: false,
            });
        let r = campaign.execute(&g, &a, 2);
        let model = CostModel::default();
        assert_eq!(campaign.hijacked_links(), 3);
        let expect = 10.0 * model.per_page + model.per_source + 3.0 * model.per_hijacked_link;
        assert_eq!(campaign.cost(&r, &model), expect);
    }

    #[test]
    fn empty_campaign_is_identity() {
        let (g, a) = base();
        let r = Campaign::new().execute(&g, &a, 0);
        assert_eq!(r.pages, g);
        assert_eq!(r.assignment, a);
        assert!(r.injected_pages.is_empty());
    }

    #[test]
    fn existing_link_adds_no_edge() {
        let (g, a) = base();
        // Page 0 already links to page 2.
        let hijack = Campaign::new().step(Step::Hijack { victims: vec![0] });
        let r = hijack.execute(&g, &a, 2);
        assert_eq!(r.pages, g);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_link_panics() {
        let (g, a) = base();
        let hijack = Campaign::new().step(Step::Hijack { victims: vec![99] });
        hijack.execute(&g, &a, 2);
    }

    #[test]
    #[should_panic(expected = "unknown source")]
    fn unknown_source_panics() {
        let (g, a) = base();
        let campaign = Campaign::new().step(Step::CrossInjection {
            colluding_source: sr_graph::SourceId(7),
            count: 1,
        });
        campaign.execute(&g, &a, 2);
    }

    #[test]
    fn combination_beats_single_vector() {
        // The §2 claim: combining attack vectors is more effective than any
        // single one at comparable scale. Verify at the raw in-link level.
        let (g, a) = base();
        let single = Campaign::new().step(Step::Farm {
            pages: 6,
            exchange: false,
        });
        let combo = Campaign::new()
            .step(Step::Farm {
                pages: 2,
                exchange: false,
            })
            .step(Step::Collusion {
                sources: 2,
                pages_each: 1,
            })
            // Victims 1 and 4 carry no pre-existing link to the target.
            .step(Step::Hijack {
                victims: vec![1, 4],
            });
        let rs = single.execute(&g, &a, 2);
        let rc = combo.execute(&g, &a, 2);
        let inlinks = |r: &AttackResult| {
            (0..r.pages.num_nodes() as u32)
                .filter(|&p| r.pages.neighbors(p).contains(&2))
                .count()
        };
        // Equal page budget (6 vs 4+2 hijacks): the combo diversifies across
        // sources, which is what the source-level defences punish less.
        assert_eq!(inlinks(&rs), inlinks(&rc));
        assert!(rc.injected_sources.len() > rs.injected_sources.len());
    }
}
