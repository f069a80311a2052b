//! The link-spam attack models of §2 and the evaluation setups of §6.3.
//!
//! Each attack is one arm of [`Step`], and that arm is its only definition:
//! it records the attack's pages, sources and links through the crate's one
//! crawl editor, which captures them as a [`sr_graph::delta::CrawlDelta`].
//! A [`crate::Campaign`] runs steps in order and hands out one delta per
//! step for the incremental engine, or folds the deltas into an attacked
//! copy of the crawl (an [`AttackResult`]) for the batch experiments. A
//! single attack is a one-step campaign.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sr_graph::ids::node_id;
use sr_graph::{CsrGraph, SourceAssignment, SourceId};

use crate::delta::DeltaRecorder;

/// What an attack did: the mutated crawl plus bookkeeping.
#[derive(Debug, Clone)]
pub struct AttackResult {
    /// The attacked page graph.
    pub pages: CsrGraph,
    /// The attacked assignment (possibly with new sources).
    pub assignment: SourceAssignment,
    /// Ids of pages the attacker added.
    pub injected_pages: Vec<u32>,
    /// Ids of sources the attacker added (empty when reusing existing ones).
    pub injected_sources: Vec<SourceId>,
}

/// One attack. Every step promotes the campaign's single target page.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// §6.3 "Link Manipulation Within a Source" (Figure 6): `count` new spam
    /// pages *inside the target page's own source*, each with a single link
    /// to the target.
    IntraInjection {
        /// Pages to inject.
        count: usize,
    },
    /// §6.3 "Link Manipulation Across Sources" (Figure 7): `count` new spam
    /// pages in an existing `colluding_source` (which must differ from the
    /// target's source), each with a single link to the target.
    CrossInjection {
        /// The colluding source.
        colluding_source: SourceId,
        /// Pages to inject.
        count: usize,
    },
    /// §2 hijacking: one link to the target on each of the `victims`,
    /// existing *legitimate* pages the spammer has compromised (message
    /// boards, wikis, comment sections).
    Hijack {
        /// Compromised legitimate pages.
        victims: Vec<u32>,
    },
    /// §2 honeypot: a new "quality" source of `pages` pages that *induces*
    /// `induced_links` links from random pages present at the start of the
    /// step (its attractive content earns them), then funnels its authority
    /// to the target via a link from every honeypot page.
    Honeypot {
        /// Pages of the honeypot site.
        pages: usize,
        /// Organic links the honeypot attracts.
        induced_links: usize,
        /// RNG seed for victim selection.
        seed: u64,
    },
    /// §2 link farm: a new source of `pages` pages all pointing at the
    /// target. With `exchange` the farm pages also link to each other
    /// pairwise (a link exchange), the densest collusive arrangement.
    Farm {
        /// Farm pages.
        pages: usize,
        /// Whether farm pages also exchange links pairwise.
        exchange: bool,
    },
    /// §4.2's optimal multi-source collusion: `sources` brand-new colluding
    /// sources of `pages_each` pages. Every colluding page links only to the
    /// target (θ_i = 0: no edges outside the spammer's sphere; w(s_i,s_i) at
    /// the mandated minimum — no intra links beyond the structural
    /// self-edge).
    Collusion {
        /// Number of colluding sources.
        sources: usize,
        /// Pages per colluding source.
        pages_each: usize,
    },
}

impl Step {
    /// Hijacked-link count of this step (for pricing).
    pub(crate) fn hijacked_links(&self) -> usize {
        match self {
            Step::Hijack { victims } => victims.len(),
            _ => 0,
        }
    }

    /// Records this attack on `target_page` through `rec`, returning the
    /// injected pages and sources. The honeypot's RNG depends only on its
    /// seed and the recorder's page count at the start of the step.
    pub(crate) fn apply(
        &self,
        rec: &mut DeltaRecorder,
        target_page: u32,
    ) -> (Vec<u32>, Vec<SourceId>) {
        match *self {
            Step::IntraInjection { count } => {
                let source = rec.source_of(target_page);
                (link_new_pages(rec, source, count, target_page), vec![])
            }
            Step::CrossInjection {
                colluding_source,
                count,
            } => {
                assert_ne!(
                    rec.source_of(target_page),
                    colluding_source,
                    "colluding source must differ from the target's source"
                );
                (
                    link_new_pages(rec, colluding_source, count, target_page),
                    vec![],
                )
            }
            Step::Hijack { ref victims } => {
                for &v in victims {
                    rec.add_link(v, target_page);
                }
                (vec![], vec![])
            }
            Step::Honeypot {
                pages,
                induced_links,
                seed,
            } => {
                assert!(pages >= 1, "honeypot needs at least one page");
                let mut rng = SmallRng::seed_from_u64(seed);
                let hp_source = rec.add_source();
                let hp_pages = rec.add_pages(hp_source, pages);
                // Legitimate pages link in (the honeypot earned it).
                let n_orig = node_id(rec.step_base_pages());
                for _ in 0..induced_links {
                    let v = rng.gen_range(0..n_orig);
                    let h = hp_pages[rng.gen_range(0..hp_pages.len())];
                    rec.add_link(v, h);
                }
                // The honeypot funnels to the spam target.
                for &h in &hp_pages {
                    rec.add_link(h, target_page);
                }
                (hp_pages, vec![hp_source])
            }
            Step::Farm { pages, exchange } => {
                assert!(pages >= 1, "farm needs at least one page");
                let farm_source = rec.add_source();
                let farm = link_new_pages(rec, farm_source, pages, target_page);
                if exchange {
                    for &p in &farm {
                        for &q in &farm {
                            if p != q {
                                rec.add_link(p, q);
                            }
                        }
                    }
                }
                (farm, vec![farm_source])
            }
            Step::Collusion {
                sources,
                pages_each,
            } => {
                assert!(
                    sources >= 1 && pages_each >= 1,
                    "need at least one colluding source and page"
                );
                let mut injected_sources = Vec::with_capacity(sources);
                let mut injected_pages = Vec::with_capacity(sources * pages_each);
                for _ in 0..sources {
                    let s = rec.add_source();
                    injected_sources.push(s);
                    injected_pages.extend(link_new_pages(rec, s, pages_each, target_page));
                }
                (injected_pages, injected_sources)
            }
        }
    }
}

/// Adds `count` pages to `source`, each linking to `target_page`.
fn link_new_pages(
    rec: &mut DeltaRecorder,
    source: SourceId,
    count: usize,
    target_page: u32,
) -> Vec<u32> {
    let pages = rec.add_pages(source, count);
    for &p in &pages {
        rec.add_link(p, target_page);
    }
    pages
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Campaign;
    use sr_graph::{GraphBuilder, PageId};

    /// 6 pages, 3 sources of 2 pages each; sparse legit links.
    fn base() -> (CsrGraph, SourceAssignment) {
        let g = GraphBuilder::from_edges_exact(6, vec![(0, 2), (2, 4), (4, 0), (1, 0)]).unwrap();
        let a = SourceAssignment::new(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
        (g, a)
    }

    /// Runs `step` on `target_page` of [`base`] as a one-step campaign.
    fn attack(target_page: u32, step: Step) -> AttackResult {
        let (g, a) = base();
        Campaign::new().step(step).execute(&g, &a, target_page)
    }

    #[test]
    fn intra_injection_adds_pages_in_target_source() {
        let r = attack(2, Step::IntraInjection { count: 10 });
        assert_eq!(r.pages.num_nodes(), 16);
        assert_eq!(r.injected_pages.len(), 10);
        for &p in &r.injected_pages {
            assert_eq!(r.assignment.source_of(PageId(p)), SourceId(1));
            assert!(r.pages.has_edge(p, 2));
            assert_eq!(r.pages.out_degree(p), 1);
        }
    }

    #[test]
    fn cross_injection_uses_colluding_source() {
        let r = attack(
            2,
            Step::CrossInjection {
                colluding_source: SourceId(2),
                count: 5,
            },
        );
        for &p in &r.injected_pages {
            assert_eq!(r.assignment.source_of(PageId(p)), SourceId(2));
            assert!(r.pages.has_edge(p, 2));
        }
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn cross_injection_rejects_same_source() {
        attack(
            2,
            Step::CrossInjection {
                colluding_source: SourceId(1),
                count: 1,
            },
        );
    }

    #[test]
    fn hijack_adds_links_from_victims() {
        let r = attack(
            3,
            Step::Hijack {
                victims: vec![0, 4],
            },
        );
        assert!(r.pages.has_edge(0, 3));
        assert!(r.pages.has_edge(4, 3));
        assert_eq!(r.pages.num_nodes(), 6, "hijacking adds no pages");
    }

    #[test]
    fn honeypot_builds_funnel() {
        let r = attack(
            5,
            Step::Honeypot {
                pages: 3,
                induced_links: 8,
                seed: 77,
            },
        );
        assert_eq!(r.injected_sources.len(), 1);
        assert_eq!(r.injected_pages.len(), 3);
        // Every honeypot page funnels to the target.
        for &h in &r.injected_pages {
            assert!(r.pages.has_edge(h, 5));
        }
        // The honeypot induced at least one legit in-link.
        let induced: usize = (0..6u32)
            .map(|v| {
                r.pages
                    .neighbors(v)
                    .iter()
                    .filter(|&&q| r.injected_pages.contains(&q))
                    .count()
            })
            .sum();
        assert!(induced > 0);
    }

    #[test]
    fn link_farm_with_exchange_is_dense() {
        let r = attack(
            0,
            Step::Farm {
                pages: 4,
                exchange: true,
            },
        );
        // 4 links to target + 4*3 exchange links.
        let farm_edges: usize = r
            .injected_pages
            .iter()
            .map(|&p| r.pages.out_degree(p))
            .sum();
        assert_eq!(farm_edges, 4 + 12);
        for &p in &r.injected_pages {
            assert_eq!(r.assignment.source_of(PageId(p)), r.injected_sources[0]);
        }
    }

    #[test]
    fn link_farm_without_exchange() {
        let r = attack(
            0,
            Step::Farm {
                pages: 4,
                exchange: false,
            },
        );
        let farm_edges: usize = r
            .injected_pages
            .iter()
            .map(|&p| r.pages.out_degree(p))
            .sum();
        assert_eq!(farm_edges, 4);
    }

    #[test]
    fn multi_source_collusion_shape() {
        let r = attack(
            1,
            Step::Collusion {
                sources: 3,
                pages_each: 2,
            },
        );
        assert_eq!(r.injected_sources.len(), 3);
        assert_eq!(r.injected_pages.len(), 6);
        assert_eq!(r.assignment.num_sources(), 6);
        for &p in &r.injected_pages {
            assert_eq!(r.pages.neighbors(p), &[1]);
        }
    }

    #[test]
    fn honeypot_deterministic_per_seed() {
        let step = || Step::Honeypot {
            pages: 2,
            induced_links: 4,
            seed: 9,
        };
        let r1 = attack(5, step());
        let r2 = attack(5, step());
        assert_eq!(r1.pages, r2.pages);
    }
}
