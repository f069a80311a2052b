//! Generator configuration.
//!
//! The defaults encode the structural facts the paper's evaluation depends
//! on: heavy-tailed source sizes, strong intra-source link locality (the
//! link-locality literature the paper cites reports 75%+ of links staying on
//! their host), a modest number of distinct partner hosts per host
//! (Table 1: 16–20 source out-edges per source), and a spam population of
//! ≈1.4% of sources (10,315 of 738,626 in WB2001) organized in collusive
//! clusters with a trickle of hijacked in-links from legitimate pages.

/// Spam-population parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SpamConfig {
    /// Fraction of sources labeled spam (WB2001: 10,315 / 738,626 ≈ 0.014).
    pub fraction: f64,
    /// Spam sources collude in clusters of about this many sources
    /// (link exchanges / alliances, §2).
    pub cluster_size: usize,
    /// Intra-source farm links added per spam page.
    pub farm_links_per_page: usize,
    /// Cross-source links per spam page into other cluster members.
    pub cross_links_per_page: usize,
    /// Community glue: links per spam page to random spam sources *outside*
    /// the cluster. Real spam populations (e.g. the pornography sources the
    /// paper labels) form one loosely connected community, which is what
    /// lets a small proximity seed reach all of it.
    pub community_links_per_page: usize,
    /// Fraction of *legitimate pages* that carry one hijacked link into a
    /// spam page (message-board spam, wiki vandalism — §2's hijacking).
    pub hijack_fraction: f64,
}

impl Default for SpamConfig {
    fn default() -> Self {
        SpamConfig {
            fraction: 0.014,
            cluster_size: 20,
            farm_links_per_page: 6,
            cross_links_per_page: 4,
            community_links_per_page: 1,
            hijack_fraction: 0.0003,
        }
    }
}

/// Full synthetic-crawl configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlConfig {
    /// Number of sources (hosts).
    pub num_sources: usize,
    /// Total number of pages across all sources.
    pub total_pages: usize,
    /// Mean hyperlinks per page.
    pub mean_out_degree: f64,
    /// Power-law exponent of the page out-degree distribution (~2.7 on the
    /// real Web).
    pub out_degree_exponent: f64,
    /// Power-law exponent of source sizes (pages per host).
    pub source_size_exponent: f64,
    /// Cap on pages per source.
    pub max_source_size: usize,
    /// Probability that a link stays within its source.
    pub locality: f64,
    /// Mean number of distinct partner sources a source links to — this is
    /// what pins the Table 1 "Edges" column.
    pub mean_partners: f64,
    /// Power-law exponent of the partner-count distribution.
    pub partner_exponent: f64,
    /// Spam population parameters. `None` generates a spam-free crawl.
    pub spam: Option<SpamConfig>,
    /// RNG seed: identical configs generate identical crawls.
    pub seed: u64,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            num_sources: 1_000,
            total_pages: 50_000,
            mean_out_degree: 8.0,
            out_degree_exponent: 2.7,
            source_size_exponent: 1.6,
            max_source_size: 2_000,
            locality: 0.75,
            mean_partners: 17.0,
            partner_exponent: 2.0,
            spam: Some(SpamConfig::default()),
            seed: 0x5157_C0DE,
        }
    }
}

impl CrawlConfig {
    /// A small configuration for unit tests (fast, spam included).
    pub fn tiny(seed: u64) -> Self {
        CrawlConfig {
            num_sources: 60,
            total_pages: 1_200,
            mean_partners: 6.0,
            max_source_size: 200,
            spam: Some(SpamConfig {
                fraction: 0.1,
                cluster_size: 3,
                ..Default::default()
            }),
            seed,
            ..Default::default()
        }
    }

    /// Expected number of spam sources under this configuration.
    pub fn expected_spam_sources(&self) -> usize {
        self.spam
            .as_ref()
            .map(|s| crate::round_count(self.num_sources as f64 * s.fraction).max(1))
            .unwrap_or(0)
    }

    /// Basic sanity checks; called by the generator.
    pub fn validate(&self) {
        assert!(self.num_sources >= 1, "need at least one source");
        assert!(
            self.total_pages >= self.num_sources,
            "need at least one page per source ({} pages, {} sources)",
            self.total_pages,
            self.num_sources
        );
        assert!(self.mean_out_degree >= 1.0, "mean out-degree must be >= 1");
        assert!(
            (0.0..=1.0).contains(&self.locality),
            "locality must be a probability"
        );
        assert!(self.mean_partners >= 1.0, "mean partners must be >= 1");
        if let Some(s) = &self.spam {
            assert!(
                (0.0..1.0).contains(&s.fraction),
                "spam fraction must be in [0,1)"
            );
            assert!(
                (0.0..=1.0).contains(&s.hijack_fraction),
                "hijack fraction is a probability"
            );
            assert!(s.cluster_size >= 1, "spam cluster size must be >= 1");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        CrawlConfig::default().validate();
    }

    #[test]
    fn tiny_is_valid() {
        CrawlConfig::tiny(1).validate();
    }

    #[test]
    fn expected_spam_sources_counts() {
        let c = CrawlConfig {
            num_sources: 1000,
            ..Default::default()
        };
        assert_eq!(c.expected_spam_sources(), 14);
        let none = CrawlConfig {
            spam: None,
            ..Default::default()
        };
        assert_eq!(none.expected_spam_sources(), 0);
    }

    #[test]
    #[should_panic(expected = "one page per source")]
    fn too_few_pages_rejected() {
        CrawlConfig {
            num_sources: 100,
            total_pages: 10,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_locality_rejected() {
        CrawlConfig {
            locality: 1.5,
            ..Default::default()
        }
        .validate();
    }
}
