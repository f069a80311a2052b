//! Per-query telemetry for the serving engine (`sr-serve`).
//!
//! Wall-clock time is banned from every solve path in this workspace; the
//! serving engine still has to *measure* latency and *enforce* admission
//! deadlines. Both live here, in the determinism-exempt crate, so `sr-serve`
//! itself never names a clock type: it takes a [`Stopwatch`] per query, a
//! [`Deadline`] per batching window, and folds samples into a
//! [`LatencyRecorder`] keyed by [`QueryClass`].
//!
//! Percentiles use the nearest-rank method on the *exact* sample set (no
//! reservoir, no histogram buckets) — serving benches here run minutes, not
//! days, and exact percentiles make the `approx p99 < exact p50` acceptance
//! gate a statement about the data rather than about bucket boundaries.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The query classes the wire protocol serves, used to key latency samples
/// and per-class counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// Single-page PageRank lookup.
    Rank,
    /// Top-k over a rank vector.
    TopK,
    /// Per-source resilient/baseline/proximity score lookup.
    SourceScore,
    /// Personalized PPR via the Monte-Carlo walk-cache fast path.
    ApproxPpr,
    /// Personalized PPR via the exact batched (SpMM panel) slow path.
    ExactPpr,
    /// Delta ingest acknowledgement.
    IngestDelta,
    /// Server statistics snapshot.
    Stats,
}

impl QueryClass {
    /// Every class, in wire-stable order.
    pub const ALL: [QueryClass; 7] = [
        QueryClass::Rank,
        QueryClass::TopK,
        QueryClass::SourceScore,
        QueryClass::ApproxPpr,
        QueryClass::ExactPpr,
        QueryClass::IngestDelta,
        QueryClass::Stats,
    ];

    /// Stable label for JSON sections and logs.
    pub fn label(self) -> &'static str {
        match self {
            QueryClass::Rank => "rank",
            QueryClass::TopK => "top_k",
            QueryClass::SourceScore => "source_score",
            QueryClass::ApproxPpr => "approx_ppr",
            QueryClass::ExactPpr => "exact_ppr",
            QueryClass::IngestDelta => "ingest_delta",
            QueryClass::Stats => "stats",
        }
    }

    fn index(self) -> usize {
        match self {
            QueryClass::Rank => 0,
            QueryClass::TopK => 1,
            QueryClass::SourceScore => 2,
            QueryClass::ApproxPpr => 3,
            QueryClass::ExactPpr => 4,
            QueryClass::IngestDelta => 5,
            QueryClass::Stats => 6,
        }
    }
}

/// A started wall-clock timer for one query.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Microseconds elapsed since [`Stopwatch::start`], saturating.
    pub fn elapsed_micros(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

/// An absolute wall-clock deadline, used by the batching queue's
/// deadline-or-K admission window.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget_us` microseconds from now.
    pub fn after_micros(budget_us: u64) -> Self {
        Deadline {
            at: Instant::now() + Duration::from_micros(budget_us),
        }
    }

    /// Time remaining, zero once expired.
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.remaining() == Duration::ZERO
    }
}

/// Exact latency samples of one query class.
#[derive(Debug, Clone, Default)]
pub struct LatencySamples {
    samples_us: Vec<u64>,
}

impl LatencySamples {
    /// Records one sample.
    pub fn record(&mut self, micros: u64) {
        self.samples_us.push(micros);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples_us.len()
    }

    /// Nearest-rank percentile (`p` in `[0, 100]`) in microseconds, `None`
    /// when no samples exist.
    pub fn percentile_us(&self, p: f64) -> Option<u64> {
        if self.samples_us.is_empty() {
            return None;
        }
        let mut sorted = self.samples_us.clone();
        sorted.sort_unstable();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "p in [0, 100] keeps the rank within sorted.len(); the cast saturates and the clamp below covers any other p"
        )]
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, sorted.len()) - 1])
    }

    /// Arithmetic mean in microseconds, `None` when empty.
    pub fn mean_us(&self) -> Option<f64> {
        if self.samples_us.is_empty() {
            return None;
        }
        let sum: u64 = self.samples_us.iter().sum();
        Some(sum as f64 / self.samples_us.len() as f64)
    }
}

/// Thread-safe per-class latency accumulator shared by all handler threads
/// of a server (or all client threads of a load generator).
#[derive(Debug, Default)]
pub struct LatencyRecorder {
    classes: Mutex<[LatencySamples; 7]>,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        LatencyRecorder::default()
    }

    /// Records one sample under `class`.
    pub fn record(&self, class: QueryClass, micros: u64) {
        let mut g = self.classes.lock().unwrap_or_else(|p| p.into_inner());
        g[class.index()].record(micros);
    }

    /// Stops `watch` and records its elapsed time under `class`.
    pub fn record_stopwatch(&self, class: QueryClass, watch: &Stopwatch) {
        self.record(class, watch.elapsed_micros());
    }

    /// A snapshot of the samples of `class`.
    pub fn snapshot(&self, class: QueryClass) -> LatencySamples {
        let g = self.classes.lock().unwrap_or_else(|p| p.into_inner());
        g[class.index()].clone()
    }

    /// Total samples across all classes.
    pub fn total(&self) -> usize {
        let g = self.classes.lock().unwrap_or_else(|p| p.into_inner());
        g.iter().map(LatencySamples::count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_indices_dense() {
        let mut labels: Vec<&str> = QueryClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), QueryClass::ALL.len());
        let mut idx: Vec<usize> = QueryClass::ALL.iter().map(|c| c.index()).collect();
        idx.sort_unstable();
        assert_eq!(idx, (0..QueryClass::ALL.len()).collect::<Vec<_>>());
    }

    #[test]
    fn percentiles_are_nearest_rank_exact() {
        let mut s = LatencySamples::default();
        for v in [30u64, 10, 50, 20, 40] {
            s.record(v);
        }
        assert_eq!(s.percentile_us(50.0), Some(30));
        assert_eq!(s.percentile_us(99.0), Some(50));
        assert_eq!(s.percentile_us(0.0), Some(10));
        assert_eq!(s.percentile_us(100.0), Some(50));
        assert_eq!(s.mean_us(), Some(30.0));
        assert_eq!(LatencySamples::default().percentile_us(50.0), None);
    }

    #[test]
    fn recorder_accumulates_per_class() {
        let r = LatencyRecorder::new();
        r.record(QueryClass::Rank, 5);
        r.record(QueryClass::Rank, 7);
        r.record(QueryClass::ExactPpr, 100);
        assert_eq!(r.snapshot(QueryClass::Rank).count(), 2);
        assert_eq!(r.snapshot(QueryClass::ExactPpr).count(), 1);
        assert_eq!(r.snapshot(QueryClass::ApproxPpr).count(), 0);
        assert_eq!(r.total(), 3);
    }

    #[test]
    fn deadline_expires_and_stopwatch_advances() {
        let d = Deadline::after_micros(0);
        assert!(d.expired());
        let far = Deadline::after_micros(60_000_000);
        assert!(!far.expired());
        assert!(far.remaining() > Duration::from_secs(1));
        let w = Stopwatch::start();
        // elapsed is monotone non-negative; no sleep needed for the check.
        assert!(w.elapsed_micros() < 60_000_000);
    }
}
