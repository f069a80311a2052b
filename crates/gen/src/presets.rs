//! Dataset presets mirroring the paper's three crawls (Table 1).
//!
//! | Dataset | Sources | Source edges | Pages | pages/source | edges/source |
//! |---------|---------|--------------|-------|--------------|--------------|
//! | UK2002  | 98,221  | 1,625,097    | ~18.5M | ~188         | 16.5         |
//! | IT2004  | 141,103 | 2,862,460    | ~40M   | ~283         | 20.3         |
//! | WB2001  | 738,626 | 12,554,332   | ~118M  | ~160         | 17.0         |
//!
//! A preset at `scale = s` keeps pages-per-source and partners-per-source
//! constant while multiplying the source count by `s`, so every intensive
//! statistic matches the original and only the extensive size shrinks.
//! WB2001 additionally carries the paper's spam population: 10,315 labeled
//! spam sources (1.396% of sources).

use crate::config::{CrawlConfig, SpamConfig};

/// The three crawls of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// 2002 UbiCrawler crawl of `.uk`.
    Uk2002,
    /// 2004 UbiCrawler crawl of `.it`.
    It2004,
    /// 2001 Stanford WebBase crawl (the spam-labeled dataset).
    Wb2001,
}

impl Dataset {
    /// All three datasets in the paper's Table 1 order.
    pub fn all() -> [Dataset; 3] {
        [Dataset::Uk2002, Dataset::It2004, Dataset::Wb2001]
    }

    /// Human-readable name as the paper prints it.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Uk2002 => "UK2002",
            Dataset::It2004 => "IT2004",
            Dataset::Wb2001 => "WB2001",
        }
    }

    /// Source count of the original crawl.
    pub fn paper_sources(self) -> usize {
        match self {
            Dataset::Uk2002 => 98_221,
            Dataset::It2004 => 141_103,
            Dataset::Wb2001 => 738_626,
        }
    }

    /// Source-edge count of the original crawl (Table 1).
    pub fn paper_edges(self) -> usize {
        match self {
            Dataset::Uk2002 => 1_625_097,
            Dataset::It2004 => 2_862_460,
            Dataset::Wb2001 => 12_554_332,
        }
    }

    /// Pages per source in the original crawl (approximate; page totals are
    /// quoted as "over 18/40/118 million" in the paper).
    pub fn pages_per_source(self) -> f64 {
        match self {
            Dataset::Uk2002 => 188.0,
            Dataset::It2004 => 283.0,
            Dataset::Wb2001 => 160.0,
        }
    }

    /// Distinct partner sources per source (Table 1 edges / sources).
    pub fn partners_per_source(self) -> f64 {
        self.paper_edges() as f64 / self.paper_sources() as f64
    }

    /// Generator configuration at `scale` (1.0 = full size). Scale must be
    /// in `(0, 1]`; the default experiments use 1/100.
    pub fn config(self, scale: f64) -> CrawlConfig {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "scale must be in (0,1], got {scale}"
        );
        let num_sources = crate::round_count(self.paper_sources() as f64 * scale).max(50);
        let total_pages =
            crate::round_count(num_sources as f64 * self.pages_per_source()).max(num_sources);
        let spam = match self {
            // WB2001 is the dataset the paper labels: 10,315 / 738,626.
            Dataset::Wb2001 => Some(SpamConfig {
                fraction: 10_315.0 / 738_626.0,
                ..Default::default()
            }),
            // The paper does not label UK2002/IT2004; keep a small spam
            // population so attack experiments have hosts to work with.
            _ => Some(SpamConfig {
                fraction: 0.01,
                ..Default::default()
            }),
        };
        CrawlConfig {
            num_sources,
            total_pages,
            mean_partners: self.partners_per_source(),
            spam,
            seed: 0xC0FFEE ^ self.paper_sources() as u64,
            ..Default::default()
        }
    }

    /// The paper throttles the top-20,000 spam-proximity sources of WB2001's
    /// 738,626 — this returns the same *fraction* of `num_sources`.
    pub fn throttle_top_k(self, num_sources: usize) -> usize {
        let frac = 20_000.0 / 738_626.0;
        crate::round_count(num_sources as f64 * frac).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_constants() {
        assert_eq!(Dataset::Uk2002.paper_sources(), 98_221);
        assert_eq!(Dataset::It2004.paper_edges(), 2_862_460);
        assert_eq!(Dataset::Wb2001.name(), "WB2001");
    }

    #[test]
    fn partners_ratio_matches_table1() {
        assert!((Dataset::Uk2002.partners_per_source() - 16.54).abs() < 0.05);
        assert!((Dataset::It2004.partners_per_source() - 20.29).abs() < 0.05);
        assert!((Dataset::Wb2001.partners_per_source() - 17.0).abs() < 0.05);
    }

    #[test]
    fn scaled_config_preserves_ratios() {
        let cfg = Dataset::Uk2002.config(0.01);
        assert_eq!(cfg.num_sources, 982);
        let pps = cfg.total_pages as f64 / cfg.num_sources as f64;
        assert!((pps - 188.0).abs() < 1.0);
    }

    #[test]
    fn wb2001_spam_fraction_matches_paper() {
        let cfg = Dataset::Wb2001.config(0.01);
        let f = cfg.spam.as_ref().unwrap().fraction;
        assert!((f - 0.013965).abs() < 1e-4);
    }

    #[test]
    fn throttle_top_k_scales() {
        assert_eq!(Dataset::Wb2001.throttle_top_k(738_626), 20_000);
        let k = Dataset::Wb2001.throttle_top_k(7_386);
        assert_eq!(k, 200);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_rejected() {
        Dataset::Uk2002.config(0.0);
    }

    #[test]
    fn presets_generate_quickly_at_tiny_scale() {
        let cfg = Dataset::Uk2002.config(0.002);
        let crawl = crate::webgen::generate(&cfg);
        assert_eq!(crawl.num_sources(), cfg.num_sources);
        assert_eq!(crawl.num_pages(), cfg.total_pages);
    }
}
