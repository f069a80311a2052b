//! Spammer-economics model — the paper's announced follow-up work.
//!
//! The conclusion (§8) states: "In our ongoing research we are developing a
//! model of spammer behavior, including new metrics for the effectiveness
//! of link-based manipulation. Our goal is to evaluate the relative impact
//! on the *value* of a spammer's portfolio of sources due to link-based
//! manipulation." This module implements that model: a price list for the
//! three §2 attack primitives, campaign cost accounting, and
//! return-on-investment metrics that express a ranking system's resilience
//! as *cost per percentile point* of rank movement.

use crate::attacks::AttackResult;

/// Price list for the spammer's primitives (arbitrary currency units).
///
/// The default ratios encode the asymmetries the paper leans on: registering
/// and bootstrapping a fresh source (domain, hosting, aging) costs two
/// orders of magnitude more than generating a page, and hijacking a
/// legitimate page (finding an exploitable form, evading cleanup) costs more
/// than either.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Cost of generating one spammer-controlled page.
    pub per_page: f64,
    /// Cost of establishing one new source (domain + hosting + aging).
    pub per_source: f64,
    /// Cost of planting one hijacked link on a legitimate page.
    pub per_hijacked_link: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            per_page: 1.0,
            per_source: 100.0,
            per_hijacked_link: 25.0,
        }
    }
}

impl CostModel {
    /// Total cost of an executed attack. `hijacked_links` counts links
    /// planted on pages the spammer does *not* own (the [`AttackResult`]
    /// bookkeeping records owned pages/sources; hijacked links are the
    /// caller's input to the attack).
    pub fn cost(&self, attack: &AttackResult, hijacked_links: usize) -> f64 {
        attack.injected_pages.len() as f64 * self.per_page
            + attack.injected_sources.len() as f64 * self.per_source
            + hijacked_links as f64 * self.per_hijacked_link
    }
}

/// Outcome of one campaign against one ranking system.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// Human-readable campaign label.
    pub label: String,
    /// Money spent (per [`CostModel`]).
    pub cost: f64,
    /// Percentile of the promoted item before the attack.
    pub percentile_before: f64,
    /// Percentile after.
    pub percentile_after: f64,
}

impl CampaignOutcome {
    /// Percentile points gained.
    pub fn gain(&self) -> f64 {
        self.percentile_after - self.percentile_before
    }

    /// Percentile points per unit cost (the spammer's ROI). Zero-cost
    /// campaigns return 0 by convention.
    pub fn roi(&self) -> f64 {
        if self.cost <= 0.0 {
            0.0
        } else {
            self.gain() / self.cost
        }
    }

    /// Cost per percentile point — infinite when the attack gained nothing
    /// (the defender's headline number: higher is better for the defender).
    pub fn cost_per_point(&self) -> f64 {
        let g = self.gain();
        if g <= 0.0 {
            f64::INFINITY
        } else {
            self.cost / g
        }
    }
}

/// The value of a spammer's portfolio of sources under a ranking: the sum
/// of the sources' scores (the paper's proposed metric — rank mass the
/// spammer can monetize), optionally restricted to the top-`k` (traffic
/// concentrates at the top of rankings).
pub fn portfolio_value(scores: &[f64], portfolio: &[u32], top_k: Option<&[u32]>) -> f64 {
    match top_k {
        None => portfolio.iter().map(|&s| scores[s as usize]).sum(),
        Some(top) => portfolio
            .iter()
            .filter(|s| top.contains(s))
            .map(|&s| scores[s as usize])
            .sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Campaign, Step};
    use sr_graph::{GraphBuilder, SourceAssignment};

    fn outcome(cost: f64, before: f64, after: f64) -> CampaignOutcome {
        CampaignOutcome {
            label: "t".into(),
            cost,
            percentile_before: before,
            percentile_after: after,
        }
    }

    #[test]
    fn default_ratios_ordering() {
        let m = CostModel::default();
        assert!(m.per_source > m.per_hijacked_link);
        assert!(m.per_hijacked_link > m.per_page);
    }

    #[test]
    fn attack_cost_accounts_pages_and_sources() {
        let g = GraphBuilder::from_edges_exact(3, vec![(0, 1)]).unwrap();
        let a = SourceAssignment::new(vec![0, 0, 1], 2).unwrap();
        let farm = Campaign::new()
            .step(Step::Farm {
                pages: 50,
                exchange: false,
            })
            .execute(&g, &a, 0);
        let m = CostModel::default();
        // 50 pages + 1 new source.
        assert_eq!(m.cost(&farm, 0), 50.0 + 100.0);
        assert_eq!(m.cost(&farm, 3), 150.0 + 75.0);
    }

    #[test]
    fn roi_and_cost_per_point() {
        let o = outcome(50.0, 20.0, 70.0);
        assert_eq!(o.gain(), 50.0);
        assert_eq!(o.roi(), 1.0);
        assert_eq!(o.cost_per_point(), 1.0);
    }

    #[test]
    fn failed_campaign_costs_infinity_per_point() {
        let o = outcome(100.0, 40.0, 40.0);
        assert_eq!(o.roi(), 0.0);
        assert_eq!(o.cost_per_point(), f64::INFINITY);
    }

    #[test]
    fn free_campaign_roi_is_zero_by_convention() {
        let o = outcome(0.0, 10.0, 20.0);
        assert_eq!(o.roi(), 0.0);
    }

    #[test]
    fn portfolio_value_sums_scores() {
        let scores = [0.1, 0.2, 0.3, 0.4];
        assert!((portfolio_value(&scores, &[1, 3], None) - 0.6).abs() < 1e-12);
        let top = [3u32, 0];
        assert!((portfolio_value(&scores, &[1, 3], Some(&top)) - 0.4).abs() < 1e-12);
    }
}
