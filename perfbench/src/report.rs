//! The run's result: metrics with their units and sample counts, plus the
//! attempted/failed operation ledger. Printed as a human-readable table
//! followed by one JSON line, which is always the last line of stdout.
//!
//! Every workload prints the same metrics in its JSON line: the
//! [`END_TO_END`] set in an untraced run, the [`PER_LAYER`] set in a traced
//! one, each as `BENCHMARK.json` declares it. What only one workload
//! measures (per-class latencies, the stages of one op) is a *detail*: it
//! is listed in the table with its unit and sample count but stays out of
//! the JSON line.

use crate::stats::{median_or_nan, percentile};

/// End-to-end metrics of every untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("peak_rss_mib", "MiB"), ("op_ms", "ms")];

/// Per-layer metrics of every traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 10] = [
    ("gen.input_s", "s"),
    ("core.operator_build_ms", "ms"),
    ("core.sweep_ms", "ms"),
    ("core.solve_ms", "ms"),
    ("core.solve_iters", "count"),
    ("core.roofline_frac", "ratio"),
    ("par.busy_frac", "ratio"),
    ("host.copy_gib_s", "GiB/s"),
    ("trace.overhead_pct", "%"),
    ("trace.stage_sum_frac", "ratio"),
];

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name; for JSON metrics, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit; for JSON metrics, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
    /// Table-only: not part of the JSON result line.
    pub detail: bool,
}

/// Metrics and the failure ledger of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (timed ops, requests, and run-level checks).
    pub attempted: u64,
    /// Attempted operations whose answer failed a check or errored.
    pub failed: u64,
    /// Why each failed operation failed (first few are printed).
    pub failures: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Every timed op's wall time in ms, in run order (untraced runs).
    pub op_ms: Vec<f64>,
}

impl Report {
    fn push(&mut self, name: String, unit: &'static str, value: f64, samples: usize, detail: bool) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
            detail,
        });
    }

    /// Adds a metric of the JSON result line.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) {
        self.push(name.into(), unit, value, samples, false);
    }

    /// Adds a table-only metric.
    pub fn detail(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) {
        self.push(name.into(), unit, value, samples, true);
    }

    /// The end-to-end metrics: median set-up time, peak RSS and the median
    /// latency of the workload's operation; its p90 is a detail.
    pub fn end_to_end(&mut self, setup_s: &[f64], op_ms: &[f64], peak_rss_mib: f64) {
        self.metric("setup_s", "s", median_or_nan(setup_s), setup_s.len());
        self.metric("peak_rss_mib", "MiB", peak_rss_mib, 1);
        self.metric("op_ms", "ms", median_or_nan(op_ms), op_ms.len());
        let p90 = percentile(op_ms, 90.0).unwrap_or(f64::NAN);
        self.detail("op_p90_ms", "ms", p90, op_ms.len());
        self.op_ms = op_ms.to_vec();
    }

    /// Counts one attempted operation, failed when `outcome` is an error.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Records one failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Merges another ledger (e.g. a client thread's) into this one.
    pub fn absorb_ledger(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    fn headline(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.iter().filter(|m| !m.detail)
    }

    /// Whether every answer checked out and every JSON metric is a real
    /// number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.headline().all(|m| m.value.is_finite())
    }

    /// Checks that the JSON metrics are exactly `expected`, names and units,
    /// each once: a workload that misses one, or adds one, is a bug of the
    /// benchmark and must not print a result.
    pub fn matches(&self, expected: &[(&str, &str)]) -> Result<(), String> {
        let got: Vec<(&str, &str)> = self.headline().map(|m| (m.name.as_str(), m.unit)).collect();
        for want in expected {
            let n = got.iter().filter(|g| *g == want).count();
            if n != 1 {
                return Err(format!("metric {} [{}] reported {n} times", want.0, want.1));
            }
        }
        match got.iter().find(|g| !expected.contains(g)) {
            Some(extra) => Err(format!("metric {} [{}] is not declared", extra.0, extra.1)),
            None => Ok(()),
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .headline()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints the table (name, value, unit, sample count; details marked),
    /// the first few failures, then the JSON result line last.
    pub fn print(&self) {
        for m in &self.metrics {
            println!(
                "{:<40} {:>16.6} {:<8} n={}{}",
                m.name,
                m.value,
                m.unit,
                m.samples,
                if m.detail { "  (detail)" } else { "" }
            );
        }
        if !self.op_ms.is_empty() {
            let ops: Vec<String> = self.op_ms.iter().map(|v| format!("{v:.3}")).collect();
            println!("op_ms samples: {}", ops.join(" "));
        }
        println!("attempted {} failed {}", self.attempted, self.failed);
        for why in self.failures.iter().take(8) {
            println!("failed: {why}");
        }
        println!("{}", self.json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.op(Ok(()));
        r.metric("op_ms", "ms", 712.5, 9);
        r.detail("core.srsr_ms", "ms", 40.0, 9);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"op_ms\": {\"value\": 712.5, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn a_failed_op_or_a_non_finite_metric_is_incorrect() {
        let mut r = Report::default();
        r.op(Err("bits differ".into()));
        assert_eq!((r.attempted, r.failed), (1, 1));
        assert!(!r.correct());
        let mut s = Report::default();
        s.op(Ok(()));
        s.metric("x", "ms", f64::NAN, 1);
        assert!(!s.correct());
        assert!(s.json().contains("\"value\": 0,"));
        assert!(!Report::default().correct(), "nothing attempted");
        let mut d = Report::default();
        d.op(Ok(()));
        d.detail("x", "ms", f64::NAN, 0);
        assert!(d.correct(), "a detail is not part of the result");
    }

    #[test]
    fn the_json_metrics_must_be_exactly_the_declared_ones() {
        let expected = [("a", "ms"), ("b", "s")];
        let mut r = Report::default();
        r.metric("a", "ms", 1.0, 1);
        r.detail("c", "ms", 1.0, 1);
        assert!(r.matches(&expected).is_err(), "b missing");
        r.metric("b", "s", 1.0, 1);
        assert!(r.matches(&expected).is_ok());
        r.metric("b", "s", 2.0, 1);
        assert!(r.matches(&expected).is_err(), "b twice");
        let mut u = Report::default();
        u.metric("a", "us", 1.0, 1);
        u.metric("b", "s", 1.0, 1);
        assert!(u.matches(&expected).is_err(), "wrong unit");
        let mut x = Report::default();
        x.metric("a", "ms", 1.0, 1);
        x.metric("b", "s", 1.0, 1);
        x.metric("z", "s", 1.0, 1);
        assert!(x.matches(&expected).is_err(), "undeclared metric");
    }

    /// Pairs `(name, unit)` of one section of the manifest, in order.
    fn declared(section: &str) -> Vec<(String, String)> {
        let manifest = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let start = manifest
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry.split('"').next().unwrap().to_string();
                let unit = entry
                    .split("\"unit\": \"")
                    .nth(1)
                    .and_then(|u| u.split('"').next())
                    .unwrap()
                    .to_string();
                (name, unit)
            })
            .collect()
    }

    #[test]
    fn the_metric_sets_are_the_manifests() {
        let own = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
    }
}
