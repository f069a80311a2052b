//! Extension experiment: the related-work comparators under attack.
//!
//! §2 claims the link-based vulnerabilities "corrupt link-based ranking
//! algorithms like HITS and PageRank", and §7 argues TrustRank "is still
//! vulnerable to honeypot and hijacking vulnerabilities, in which
//! high-value trusted pages may be especially targeted". The two claims
//! concern *different* attack shapes, so this experiment measures both:
//!
//! * **injection** (case C: 100 fresh pages, one link each) — PageRank
//!   chases the new teleport mass; HITS barely notices (its principal-
//!   eigenvector "tightly-knit community" bias ignores star farms outside
//!   the dominant community) and TrustRank is immune by construction
//!   (fresh pages hold no trust to pass);
//! * **hijacking** (links planted on trusted/high-rank pages) — TrustRank
//!   leaks trust straight to the target and HITS hands out authority from
//!   the hijacked hubs, while consensus weighting blunts the same attack at
//!   the source level.
//!
//! Spam-Resilient SourceRank is the only contender that stays flat-ish in
//! *both* columns.

use sr_core::hits::hits;
use sr_core::operator::UniformTransition;
use sr_core::{
    solve, ConvergenceCriteria, PageRank, RankVector, SolveRequest, SolverWorkspace,
    SpamResilientSourceRank, TrustRank,
};
use sr_graph::source_graph::{extract, SourceGraphConfig};
use sr_graph::{CsrGraph, SourceAssignment};
use sr_spam::{hijack, intra_source_injection};

use crate::datasets::{EvalConfig, EvalDataset};
use crate::experiments::manipulation::throttle_for;
use crate::report::Table;
use crate::targets::{pick_bottom_half_unthrottled, pick_page_in_source};

/// Percentile movements of the promoted item under one algorithm.
#[derive(Debug, Clone)]
pub struct ComparatorRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Percentile before any attack.
    pub before: f64,
    /// Percentile after the case-C injection.
    pub after_injection: f64,
    /// Percentile after the hijacking attack.
    pub after_hijack: f64,
}

impl ComparatorRow {
    /// Increase under injection.
    pub fn injection_increase(&self) -> f64 {
        self.after_injection - self.before
    }

    /// Increase under hijacking.
    pub fn hijack_increase(&self) -> f64 {
        self.after_hijack - self.before
    }
}

fn authority_vector(graph: &CsrGraph) -> RankVector {
    let h = hits(graph, &ConvergenceCriteria::default());
    RankVector::new(h.authorities, h.stats)
}

struct FourWay {
    pr: f64,
    hits: f64,
    tr: f64,
    srsr: f64,
}

fn measure(
    pages: &CsrGraph,
    assignment: &SourceAssignment,
    trusted: &[u32],
    kappa: &sr_core::ThrottleVector,
    target_page: u32,
    target_source: u32,
) -> FourWay {
    // PageRank and TrustRank are the same walk under different teleports, so
    // solve them as one two-column batch over the shared uniform operator —
    // one pass over the page-graph edge stream, bit-identical per column to
    // the sequential solves it replaces.
    let trustrank = TrustRank::new();
    let request = SolveRequest::new(vec![
        PageRank::default().column(),
        trustrank.column(pages.num_nodes(), trusted),
    ])
    .criteria(trustrank.stopping_criteria());
    let op = UniformTransition::new(pages);
    let panel = solve(&op, &request, &mut SolverWorkspace::new(), &mut []);
    let pr = panel[0].percentile(target_page);
    let tr = panel[1].percentile(target_page);
    let h = authority_vector(pages).percentile(target_page);
    let sg = extract(pages, assignment, SourceGraphConfig::consensus())
        .expect("assignment covers graph");
    let srsr = SpamResilientSourceRank::builder()
        .throttle(kappa.clone())
        .build(&sg)
        .rank()
        .percentile(target_source);
    FourWay {
        pr,
        hits: h,
        tr,
        srsr,
    }
}

/// Runs the comparator study (averaged over `cfg.targets` targets).
pub fn run(ds: &EvalDataset, cfg: &EvalConfig) -> Vec<ComparatorRow> {
    let kappa = throttle_for(ds, cfg);
    let srsr_clean = SpamResilientSourceRank::builder()
        .throttle(kappa.clone())
        .build(&ds.sources)
        .rank();
    let pr_clean = PageRank::default().rank(&ds.crawl.pages);
    // Trusted seeds: home pages of the top clean sources.
    let trusted: Vec<u32> = srsr_clean
        .top_k(10)
        .iter()
        .map(|&s| ds.crawl.home_page(s))
        .collect();
    // Hijack victims: the trusted pages themselves plus the top PR pages —
    // "high-value trusted pages may be especially targeted" (§7).
    let mut victims = trusted.clone();
    victims.extend(pr_clean.top_k(10));
    victims.sort_unstable();
    victims.dedup();

    let targets = pick_bottom_half_unthrottled(&srsr_clean, &kappa, cfg.targets, cfg.seed);
    let mut before = FourWay {
        pr: 0.0,
        hits: 0.0,
        tr: 0.0,
        srsr: 0.0,
    };
    let mut injected = FourWay {
        pr: 0.0,
        hits: 0.0,
        tr: 0.0,
        srsr: 0.0,
    };
    let mut hijacked = FourWay {
        pr: 0.0,
        hits: 0.0,
        tr: 0.0,
        srsr: 0.0,
    };
    let add = |acc: &mut FourWay, m: FourWay| {
        acc.pr += m.pr;
        acc.hits += m.hits;
        acc.tr += m.tr;
        acc.srsr += m.srsr;
    };

    for (i, &ts) in targets.iter().enumerate() {
        let tp = pick_page_in_source(&ds.crawl.page_ranges, ts, cfg.seed + i as u64);
        add(
            &mut before,
            measure(
                &ds.crawl.pages,
                &ds.crawl.assignment,
                &trusted,
                &kappa,
                tp,
                ts,
            ),
        );
        let inj = intra_source_injection(&ds.crawl.pages, &ds.crawl.assignment, tp, 100);
        add(
            &mut injected,
            measure(&inj.pages, &inj.assignment, &trusted, &kappa, tp, ts),
        );
        let hij = hijack(&ds.crawl.pages, &ds.crawl.assignment, &victims, tp);
        add(
            &mut hijacked,
            measure(&hij.pages, &hij.assignment, &trusted, &kappa, tp, ts),
        );
    }

    let n = targets.len() as f64;
    let rows = [
        ("PageRank", before.pr, injected.pr, hijacked.pr),
        (
            "HITS (authority)",
            before.hits,
            injected.hits,
            hijacked.hits,
        ),
        ("TrustRank", before.tr, injected.tr, hijacked.tr),
        (
            "SR-SourceRank (throttled)",
            before.srsr,
            injected.srsr,
            hijacked.srsr,
        ),
    ];
    rows.into_iter()
        .map(|(name, b, inj, hij)| ComparatorRow {
            algorithm: name.to_string(),
            before: b / n,
            after_injection: inj / n,
            after_hijack: hij / n,
        })
        .collect()
}

/// Renders the comparator table.
pub fn table(rows: &[ComparatorRow], dataset: &str) -> Table {
    let mut t = Table::new(
        format!(
            "Extension: 100-page injection vs trusted-page hijacking across algorithms ({dataset})"
        ),
        vec![
            "Algorithm",
            "Pctile before",
            "Injection increase",
            "Hijack increase",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.algorithm.clone(),
            format!("{:.1}", r.before),
            format!("{:+.1}", r.injection_increase()),
            format!("{:+.1}", r.hijack_increase()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_gen::Dataset;

    #[test]
    fn each_comparator_breaks_under_its_attack() {
        let cfg = EvalConfig {
            scale: 0.002,
            targets: 2,
            ..Default::default()
        };
        let ds = EvalDataset::load(Dataset::Uk2002, cfg.scale);
        let rows = run(&ds, &cfg);
        assert_eq!(rows.len(), 4);
        let (pr, _hits, tr, srsr) = (&rows[0], &rows[1], &rows[2], &rows[3]);
        // Injection: PageRank chases it; SR-SourceRank moves far less.
        assert!(
            pr.injection_increase() > srsr.injection_increase(),
            "injection: PR +{:.1} vs SRSR +{:.1}",
            pr.injection_increase(),
            srsr.injection_increase()
        );
        // Injection: TrustRank is immune by construction.
        assert!(
            tr.injection_increase() < 5.0,
            "fresh pages carry no trust: TR +{:.1}",
            tr.injection_increase()
        );
        // Hijacking is TrustRank's weakness (§7): it must move TrustRank
        // far more than injection does.
        assert!(
            tr.hijack_increase() > tr.injection_increase() + 10.0,
            "hijack should be TrustRank's weak spot: hijack +{:.1} vs injection +{:.1}",
            tr.hijack_increase(),
            tr.injection_increase()
        );
    }
}
