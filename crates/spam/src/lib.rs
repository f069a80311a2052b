#![warn(missing_docs)]

//! # sr-spam — link-spam attack models
//!
//! The three vulnerability families the paper identifies in §2, plus the
//! exact injection setups its evaluation (§6.3) sweeps:
//!
//! * **hijacking** — links inserted into compromised legitimate pages;
//! * **honeypots** — attractive sites that earn legitimate links and funnel
//!   the authority to a spam target;
//! * **collusion** — link farms, link exchanges and multi-source alliances.
//!
//! Each attack is one arm of [`Step`] (see [`attacks`]), written against
//! one crawl editor that records a step's pages, sources and links as a
//! [`sr_graph::delta::CrawlDelta`]. A [`Campaign`] chains steps:
//! [`Campaign::record_deltas`] hands the incremental re-ranking engine one
//! delta per step, and [`Campaign::execute`] folds them into an attacked
//! copy of the crawl, so a single attack is a one-step campaign.
//! [`scenario::InjectionCase`] enumerates the paper's A/B/C/D intensities
//! (1/10/100/1000 pages).

pub mod attacks;
pub mod campaign;
mod delta;
pub mod economics;
pub mod scenario;

pub use attacks::{AttackResult, Step};
pub use campaign::Campaign;
pub use economics::{CampaignOutcome, CostModel};
pub use scenario::InjectionCase;
