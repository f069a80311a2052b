#![warn(missing_docs)]

//! # sr-gen — synthetic Web-crawl generation
//!
//! The paper evaluates on three crawls (WB2001, UK2002, IT2004) that are not
//! redistributable; this crate generates synthetic crawls that match their
//! *structure* — heavy-tailed source sizes and degrees, strong intra-source
//! link locality, the Table 1 source-edge densities, and a labeled spam
//! population organized into collusive clusters with hijacked in-links —
//! which is what the paper's relative-rank-movement experiments actually
//! exercise (see DESIGN.md §2 for the substitution argument).
//!
//! ```
//! use sr_gen::{generate, CrawlConfig};
//! use sr_graph::source_graph::SourceGraphConfig;
//!
//! let crawl = generate(&CrawlConfig::tiny(42));
//! let sources = crawl.source_graph(SourceGraphConfig::consensus());
//! assert_eq!(sources.num_sources(), crawl.num_sources());
//! ```

pub mod config;
pub mod powerlaw;
pub mod presets;
pub mod producer;
pub mod stream;
pub mod urls;
pub mod webgen;

pub use config::{CrawlConfig, SpamConfig};
pub use presets::Dataset;
pub use producer::{CrawlDeltaProducer, ProducerConfig};
pub use stream::{generate_sharded, StreamConfig};
pub use webgen::{generate, SyntheticCrawl};

/// Rounds a scaled population size (a count times a fraction) to a whole
/// count: the one float → count conversion the generator and the
/// experiments share.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "saturates on purpose: callers pass finite, non-negative products of a population size and a fraction, far below usize::MAX"
)]
pub fn round_count(x: f64) -> usize {
    x.round() as usize
}
