//! Extension: the accuracy/latency frontier of the Monte-Carlo walk-cache
//! approximate-PPR engine (`sr_core::approx`) against the exact per-seed
//! proximity solve.
//!
//! One walk cache is built per walk budget `R`; each is then queried at a
//! sweep of push targets ε over the same seed sets the exact solver
//! answers, giving a (max-error, latency) point per `(R, ε)` cell. The
//! machine-readable output is `RUNS_approx_ppr.json`; the human-readable
//! table prints per-cell speedup and error against the exact oracle.

use std::time::Instant;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use sr_core::approx::{QueryConfig, WalkCacheConfig};
use sr_core::SpamProximity;

use crate::datasets::{EvalConfig, EvalDataset};
use crate::report::Table;

/// One `(R, ε)` cell of the frontier.
#[derive(Debug, Clone)]
pub struct FrontierRow {
    /// Walks per source in the cache backing this cell.
    pub walks: u32,
    /// Push target ε of the queries.
    pub epsilon: f64,
    /// Offline cache build time (amortized across all queries at this R).
    pub cache_build_secs: f64,
    /// Cache file size in bytes.
    pub cache_bytes: u64,
    /// Mean approximate-query latency, milliseconds.
    pub approx_ms: f64,
    /// Exact-solve latency divided by approximate latency.
    pub speedup: f64,
    /// Max per-node |approx − exact| across all queries.
    pub max_abs_err: f64,
    /// Mean over queries of the per-query max-node error.
    pub mean_max_abs_err: f64,
}

/// The full sweep plus its context.
#[derive(Debug)]
pub struct ApproxPprResult {
    /// One row per `(R, ε)` cell, R-major.
    pub rows: Vec<FrontierRow>,
    /// Sources in the graph queried.
    pub num_sources: usize,
    /// Seed-set queries answered per cell.
    pub num_queries: usize,
    /// Mean exact per-seed solve latency, milliseconds — the baseline.
    pub exact_ms: f64,
}

/// The walk budgets and push targets swept. The loose push targets are
/// where the cache earns its keep: the push stops after a handful of
/// rounds and the cached walks close the remaining residual, so accuracy
/// holds while latency collapses.
pub fn default_grid() -> (Vec<u32>, Vec<f64>) {
    (vec![16, 64], vec![6e-1, 3e-1, 1e-2, 1e-4])
}

/// Runs the frontier sweep on `ds`: spam-source seed sets (singletons plus
/// pseudo-random pairs derived from `config.seed`), the exact solver as
/// the baseline and oracle, one cache per walk budget.
#[expect(
    clippy::disallowed_methods,
    reason = "Instant feeds the latency columns of the run report only; it never influences scores, ordering or cache bytes"
)]
pub fn run(ds: &EvalDataset, config: &EvalConfig) -> ApproxPprResult {
    let structural = ds.sources.structural();
    let n = structural.num_nodes();
    let prox = SpamProximity::new();

    // Seed sets: one singleton per labeled spam source (capped), then
    // pairs mixing spam with pseudo-random sources.
    let mut queries: Vec<Vec<u32>> = ds
        .crawl
        .spam_sources
        .iter()
        .take(config.targets.max(1))
        .map(|&s| vec![s])
        .collect();
    for (i, &s) in ds.crawl.spam_sources.iter().take(4).enumerate() {
        let other = u32::try_from(config.seed.wrapping_mul(2 * i as u64 + 3) % n as u64)
            .expect("reduced modulo the node count");
        let mut pair = vec![s, other];
        pair.sort_unstable();
        pair.dedup();
        queries.push(pair);
    }
    assert!(!queries.is_empty(), "dataset must label spam sources");

    // Baseline: the exact per-seed solve, which is also the oracle.
    let t = Instant::now();
    let exact: Vec<Vec<f64>> = queries
        .iter()
        .map(|seeds| {
            prox.scores_uniform(structural, seeds)
                .expect("seed sets are in range")
                .scores()
                .to_vec()
        })
        .collect();
    let exact_ms = t.elapsed().as_secs_f64() * 1e3 / queries.len() as f64;

    let (walk_budgets, epsilons) = default_grid();
    let cache_dir = std::env::temp_dir().join("sr_eval_approx_ppr");
    std::fs::create_dir_all(&cache_dir).expect("create cache dir");
    let mut rows = Vec::with_capacity(walk_budgets.len() * epsilons.len());
    for &walks in &walk_budgets {
        let path = cache_dir.join(format!("frontier_r{walks}.walks"));
        let t = Instant::now();
        let cache = prox
            .build_walk_cache(
                structural,
                WalkCacheConfig {
                    walks,
                    seed: config.seed,
                    ..Default::default()
                },
                &path,
            )
            .expect("cache build on a generated crawl");
        let mut cache_build_secs = t.elapsed().as_secs_f64();
        let cache_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let engine = prox.approx(structural, cache).expect("matching cache");
        // The first query decodes the store into its resident walk table —
        // one-time precompute like the build itself, so it is accounted
        // there and every timed query below is warm (the serving steady
        // state the frontier is about).
        let t = Instant::now();
        engine
            .scores(&queries[0], &QueryConfig::default())
            .expect("warm-up query");
        let warmup_secs = t.elapsed().as_secs_f64();
        cache_build_secs += warmup_secs;
        for &epsilon in &epsilons {
            let q = QueryConfig {
                epsilon,
                ..Default::default()
            };
            let mut max_err = 0.0f64;
            let mut sum_max = 0.0f64;
            let t = Instant::now();
            let answers: Vec<Vec<f64>> = queries
                .iter()
                .map(|seeds| {
                    engine
                        .scores(seeds, &q)
                        .expect("cache matches graph")
                        .scores()
                        .to_vec()
                })
                .collect();
            let approx_ms = t.elapsed().as_secs_f64() * 1e3 / queries.len() as f64;
            for (approx, oracle) in answers.iter().zip(&exact) {
                let query_max = approx
                    .iter()
                    .zip(oracle)
                    .map(|(a, e)| (a - e).abs())
                    .fold(0.0f64, f64::max);
                max_err = max_err.max(query_max);
                sum_max += query_max;
            }
            rows.push(FrontierRow {
                walks,
                epsilon,
                cache_build_secs,
                cache_bytes,
                approx_ms,
                speedup: if approx_ms > 0.0 {
                    exact_ms / approx_ms
                } else {
                    f64::INFINITY
                },
                max_abs_err: max_err,
                mean_max_abs_err: sum_max / queries.len() as f64,
            });
        }
    }
    ApproxPprResult {
        rows,
        num_sources: n,
        num_queries: queries.len(),
        exact_ms,
    }
}

/// Renders the frontier.
pub fn table(r: &ApproxPprResult, dataset: &str) -> Table {
    let mut t = Table::new(
        format!(
            "Extension: approximate-PPR frontier ({dataset}, {} sources, \
             {} queries, exact {:.3} ms/query)",
            r.num_sources, r.num_queries, r.exact_ms
        ),
        vec![
            "R",
            "epsilon",
            "build s",
            "cache KB",
            "query ms",
            "speedup",
            "max |err|",
            "mean max |err|",
        ],
    );
    for row in &r.rows {
        t.push_row(vec![
            row.walks.to_string(),
            format!("{:.0e}", row.epsilon),
            format!("{:.3}", row.cache_build_secs),
            format!("{:.1}", row.cache_bytes as f64 / 1024.0),
            format!("{:.4}", row.approx_ms),
            format!("{:.1}x", row.speedup),
            format!("{:.2e}", row.max_abs_err),
            format!("{:.2e}", row.mean_max_abs_err),
        ]);
    }
    t
}

/// Renders the machine-readable report body (`RUNS_approx_ppr.json`).
pub fn to_json(r: &ApproxPprResult, dataset: &str, scale: f64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"run\": \"approx_ppr\",");
    let _ = writeln!(out, "  \"threads\": {},", sr_par::num_threads());
    let _ = writeln!(out, "  \"dataset\": \"{dataset}\",");
    let _ = writeln!(out, "  \"scale\": {scale},");
    let _ = writeln!(out, "  \"num_sources\": {},", r.num_sources);
    let _ = writeln!(out, "  \"num_queries\": {},", r.num_queries);
    let _ = writeln!(out, "  \"exact_ms_per_query\": {},", r.exact_ms);
    out.push_str("  \"frontier\": [");
    for (i, row) in r.rows.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            concat!(
                "    {{ \"walks\": {}, \"epsilon\": {}, \"cache_build_secs\": {}, ",
                "\"cache_bytes\": {}, \"approx_ms_per_query\": {}, \"speedup\": {}, ",
                "\"max_abs_err\": {}, \"mean_max_abs_err\": {} }}"
            ),
            row.walks,
            row.epsilon,
            row.cache_build_secs,
            row.cache_bytes,
            row.approx_ms,
            row.speedup,
            row.max_abs_err,
            row.mean_max_abs_err,
        );
    }
    out.push_str(if r.rows.is_empty() { "]\n" } else { "\n  ]\n" });
    out.push_str("}\n");
    out
}

/// Writes `RUNS_approx_ppr.json` into `dir`, returning the path written.
pub fn write_report(
    r: &ApproxPprResult,
    dataset: &str,
    scale: f64,
    dir: &Path,
) -> std::io::Result<PathBuf> {
    let path = dir.join("RUNS_approx_ppr.json");
    std::fs::write(&path, to_json(r, dataset, scale))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_gen::Dataset;

    #[test]
    fn frontier_errors_track_epsilon_and_report_is_valid_json_shape() {
        let ds = EvalDataset::load(Dataset::Wb2001, 0.002);
        let cfg = EvalConfig {
            scale: 0.002,
            targets: 2,
            ..Default::default()
        };
        let r = run(&ds, &cfg);
        let (walk_budgets, epsilons) = default_grid();
        assert_eq!(r.rows.len(), walk_budgets.len() * epsilons.len());
        for row in &r.rows {
            assert!(row.max_abs_err.is_finite());
            assert!(
                row.max_abs_err <= 0.05,
                "R={} eps={}: error {} out of range",
                row.walks,
                row.epsilon,
                row.max_abs_err
            );
            assert!(row.cache_bytes > 0);
        }
        // The tightest cell must essentially match the oracle: at
        // ε = 1e-4 the push term dominates and the walks only polish.
        let tight = r
            .rows
            .iter()
            .filter(|row| row.epsilon <= 1e-4)
            .map(|row| row.max_abs_err)
            .fold(f64::INFINITY, f64::min);
        assert!(tight < 1e-3, "tightest frontier cell error {tight}");
        let json = to_json(&r, "WB2001", 0.002);
        assert!(json.contains("\"run\": \"approx_ppr\""));
        assert!(json.contains("\"frontier\": ["));
        assert_eq!(json.matches("\"walks\":").count(), r.rows.len());
    }
}
