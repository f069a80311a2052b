//! The oracle for how campaigns materialize attacked crawls.
//!
//! `DeltaRecorder` is the one crawl editor: `Campaign::execute` folds the
//! deltas it records through one `DeltaOverlay` and takes the assignment
//! from its page → source map. This suite builds the same crawl from
//! scratch instead — the original edges plus every recorded link through
//! `GraphBuilder`, and the input assignment extended by every recorded page
//! source — and requires the two to be equal, on random crawls and random
//! step sequences of every kind.

use proptest::prelude::*;
use sr_graph::delta::DeltaOp;
use sr_graph::{GraphBuilder, SourceAssignment, SourceId};
use sr_spam::{Campaign, Step};

/// One random step: kind, page count, link or source count, seed, exchange
/// flag, hijack victims and a colluding-source pick.
type StepDraw = (u8, usize, usize, u64, bool, Vec<u32>, u32);

/// A crawl (source count, page → source map, edges), a target page and the
/// steps of a campaign on it.
type Case = (u32, Vec<u32>, Vec<(u32, u32)>, u32, Vec<StepDraw>);

fn arb_case() -> impl Strategy<Value = Case> {
    (1u32..12, 2u32..5).prop_flat_map(|(n, s)| {
        let draw = (
            0u8..6,
            1usize..4,
            0usize..6,
            any::<u64>(),
            prop_bool::ANY,
            collection::vec(0..n, 0..4),
            0..s,
        );
        (
            Just(s),
            collection::vec(0..s, n as usize),
            collection::vec((0..n, 0..n), 0..24),
            0..n,
            collection::vec(draw, 0..6),
        )
    })
}

/// The step `draw` names, on a target in `target_source` of `num_sources`.
fn step(draw: StepDraw, target_source: u32, num_sources: u32) -> Step {
    let (kind, pages, links, seed, exchange, victims, colluder) = draw;
    match kind {
        0 => Step::IntraInjection { count: pages },
        1 => Step::CrossInjection {
            // Any original source but the target's own.
            colluding_source: SourceId(
                (target_source + 1 + colluder % (num_sources - 1)) % num_sources,
            ),
            count: pages,
        },
        2 => Step::Hijack { victims },
        3 => Step::Honeypot {
            pages,
            induced_links: links,
            seed,
        },
        4 => Step::Farm { pages, exchange },
        _ => Step::Collusion {
            sources: links + 1,
            pages_each: pages,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn executed_campaigns_equal_a_rebuild_from_the_recorded_edits(case in arb_case()) {
        let (num_sources, map, edges, target, draws) = case;
        let graph = GraphBuilder::from_edges_exact(map.len(), edges).unwrap();
        let assignment = SourceAssignment::new(map, num_sources as usize).unwrap();
        let target_source = assignment.raw()[target as usize];
        let campaign = draws.into_iter().fold(Campaign::new(), |c, d| {
            c.step(step(d, target_source, num_sources))
        });

        let result = campaign.execute(&graph, &assignment, target);
        let deltas = campaign.record_deltas(&graph, &assignment, target);
        prop_assert_eq!(deltas.len(), campaign.steps().len());

        let mut pages = graph.num_nodes();
        let mut links: Vec<(u32, u32)> = graph.edges().collect();
        let mut page_sources = assignment.raw().to_vec();
        let mut sources = assignment.num_sources();
        for d in &deltas {
            pages += d.graph.new_nodes();
            links.extend(d.graph.ops().iter().map(|op| match *op {
                DeltaOp::AddEdge(u, v) => (u, v),
                DeltaOp::RemoveEdge(..) => panic!("attacks only add links"),
            }));
            page_sources.extend(&d.new_page_sources);
            sources += d.new_sources;
        }
        prop_assert_eq!(page_sources.len(), pages, "one source per recorded page");
        prop_assert_eq!(
            result.pages,
            GraphBuilder::from_edges_exact(pages, links).unwrap()
        );
        prop_assert_eq!(
            result.assignment,
            SourceAssignment::new(page_sources, sources).unwrap()
        );
    }
}
