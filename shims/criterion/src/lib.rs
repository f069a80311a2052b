//! Offline stand-in for the `criterion` crate (API subset).
//!
//! Implements the macro/type surface the `sr-bench` targets use —
//! [`criterion_group!`], [`criterion_main!`], [`Criterion::benchmark_group`],
//! `bench_function` / `bench_with_input`, [`BenchmarkId`], [`black_box`] —
//! over a deliberately simple measurement loop: warm up once, time
//! `sample_size` runs, report min / median / mean to stdout.
//!
//! No statistics engine, no plots, no saved baselines: the tracked
//! kernel-throughput trajectory lives in `BENCH_kernels.json` (see the
//! `bench_kernels` binary in `sr-bench`), which does not depend on this
//! harness. Environment knobs: `CRITERION_SAMPLES` caps the per-bench sample
//! count, `CRITERION_BUDGET_MS` the per-bench time budget (default 3000).

#![expect(
    clippy::disallowed_methods,
    reason = "a benchmark harness measures wall-clock by definition"
)]

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Identifies a bench within a group, e.g. a parameter point.
#[derive(Clone, Debug)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id rendered from a parameter value.
    pub fn from_parameter(param: impl std::fmt::Display) -> Self {
        BenchmarkId(param.to_string())
    }

    /// An id with a function name and a parameter value.
    pub fn new(name: impl Into<String>, param: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{}/{}", name.into(), param))
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// Top-level harness handle; one per process.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named group of related benches.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            sample_size: 10,
        }
    }

    /// Runs a standalone bench (no group).
    pub fn bench_function(&mut self, id: impl Into<BenchmarkId>, f: impl FnMut(&mut Bencher)) {
        let mut group = self.benchmark_group("");
        group.bench_function(id, f);
        group.finish();
    }
}

/// A named collection of benches sharing configuration.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per bench.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Benches `f`.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let label = self.label(&id.into());
        let mut bencher = Bencher {
            samples: Vec::new(),
            budget: budget_for(self.sample_size),
        };
        f(&mut bencher);
        bencher.report(&label);
        self
    }

    /// Benches `f` against a borrowed input.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let label = self.label(&id.into());
        let mut bencher = Bencher {
            samples: Vec::new(),
            budget: budget_for(self.sample_size),
        };
        f(&mut bencher, input);
        bencher.report(&label);
        self
    }

    /// Ends the group.
    pub fn finish(&mut self) {}

    fn label(&self, id: &BenchmarkId) -> String {
        if self.name.is_empty() {
            id.0.clone()
        } else if id.0.is_empty() {
            self.name.clone()
        } else {
            format!("{}/{}", self.name, id.0)
        }
    }
}

struct SampleBudget {
    samples: usize,
    deadline: Duration,
}

fn budget_for(sample_size: usize) -> SampleBudget {
    let samples = std::env::var("CRITERION_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(sample_size)
        .max(1);
    let ms = std::env::var("CRITERION_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3000u64);
    SampleBudget {
        samples,
        deadline: Duration::from_millis(ms),
    }
}

/// Times closures; handed to bench bodies.
pub struct Bencher {
    samples: Vec<Duration>,
    budget: SampleBudget,
}

impl Bencher {
    /// Runs `f` once for warm-up, then repeatedly under the sample/time
    /// budget, recording wall-clock per run.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        black_box(f()); // warm-up: fault pages, fill caches
        let start = Instant::now();
        for _ in 0..self.budget.samples {
            let t0 = Instant::now();
            black_box(f());
            self.samples.push(t0.elapsed());
            if start.elapsed() > self.budget.deadline {
                break;
            }
        }
    }

    fn report(&mut self, label: &str) {
        if self.samples.is_empty() {
            println!("bench {label:<50} (no samples)");
            return;
        }
        self.samples.sort_unstable();
        let min = self.samples[0];
        let median = self.samples[self.samples.len() / 2];
        let mean = self.samples.iter().sum::<Duration>() / self.samples.len() as u32;
        println!(
            "bench {label:<50} min {:>12?}  median {:>12?}  mean {:>12?}  ({} samples)",
            min,
            median,
            mean,
            self.samples.len()
        );
    }
}

/// Declares a bench group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_and_reports() {
        std::env::set_var("CRITERION_SAMPLES", "3");
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("smoke");
        group.sample_size(3);
        let mut runs = 0usize;
        group.bench_function(BenchmarkId::from_parameter(7), |b| {
            b.iter(|| {
                runs += 1;
                black_box(runs)
            })
        });
        group.finish();
        assert!(runs >= 2, "warm-up plus at least one sample");
        std::env::remove_var("CRITERION_SAMPLES");
    }
}
