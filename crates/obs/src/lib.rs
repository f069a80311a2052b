#![warn(missing_docs)]
#![expect(
    clippy::disallowed_methods,
    reason = "sr-obs is the sanctioned home of wall-clock telemetry; its readings never feed a solve"
)]

//! # sr-obs — telemetry for the ranking pipeline
//!
//! A dependency-free observability layer sitting at the very bottom of the
//! workspace dependency graph (even `sr-par` builds on it). It defines:
//!
//! * [`SolveObserver`] — a callback trait the iterative solvers in `sr-core`
//!   thread through their inner loops. Solvers take their observers as
//!   optional slots (one per column of a multi-column solve), so the
//!   *disabled* path costs nothing: no allocation, no branch inside the
//!   per-element kernels, just one `Option` check per **iteration** (a few
//!   dozen nanoseconds against milliseconds of sweep work).
//! * [`RecordingObserver`] — the standard implementation: captures the
//!   per-iteration residual trajectory, dangling mass, and wall time of one
//!   solve into a [`SolveTelemetry`].
//! * [`PoolCounters`] — a snapshot of the `sr-par` thread-pool counters
//!   (threads spawned, chunks processed, forked vs inline calls, busy
//!   time), which make determinism and threshold claims checkable
//!   rather than asserted.
//! * [`PartitionStats`] / [`PackingStats`] / [`CompressionStats`] — build
//!   and compression figures of merit reported by `sr-graph`.
//! * [`RunReport`] — a machine-readable summary of every solve in a run,
//!   rendered as `RUNS_<name>.json` (same spirit as `BENCH_kernels.json`;
//!   hand-rendered, no serde in-tree).
//!
//! Recorded residual trajectories double as golden convergence tests, and
//! the run reports give the scaling PRs a baseline to diff against.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub mod serve;

pub use serve::{Deadline, LatencyRecorder, LatencySamples, QueryClass, Stopwatch};

/// Callbacks fired by the iterative solvers (`power`, `jacobi`,
/// `gauss_seidel`, `montecarlo` in `sr-core`).
///
/// All methods default to no-ops so implementors override only what they
/// need. Solvers invoke observers *outside* their per-element kernels — one
/// call per iteration (or per walker), never per node or edge.
pub trait SolveObserver {
    /// A solve is starting: `solver` is the algorithm label (`"power"`,
    /// `"jacobi"`, `"gauss_seidel"`, `"montecarlo"`), `n` the state count.
    fn on_solve_start(&mut self, solver: &str, n: usize) {
        let _ = (solver, n);
    }

    /// One iteration completed: `iteration` is 1-based, `residual` the
    /// inter-iterate distance under the solver's norm, `dangling_mass` the
    /// mass that sat on dangling rows during the sweep (0 for solvers
    /// without the concept).
    fn on_iteration(&mut self, iteration: usize, residual: f64, dangling_mass: f64) {
        let _ = (iteration, residual, dangling_mass);
    }

    /// One Monte-Carlo walker finished, having counted `counted_steps`
    /// post-burn-in steps. Fired in walker order after the parallel phase.
    fn on_walker(&mut self, walker: usize, counted_steps: usize) {
        let _ = (walker, counted_steps);
    }

    /// The solve finished (converged or hit its iteration cap).
    fn on_solve_end(&mut self, iterations: usize, final_residual: f64, converged: bool) {
        let _ = (iterations, final_residual, converged);
    }
}

/// Everything [`RecordingObserver`] captures about one solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveTelemetry {
    /// Algorithm label reported by the solver.
    pub solver: String,
    /// State count.
    pub n: usize,
    /// Iterations performed.
    pub iterations: usize,
    /// Residual at the final iteration.
    pub final_residual: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Wall time from `on_solve_start` to `on_solve_end`, in seconds.
    pub wall_secs: f64,
    /// Residual after every iteration (the convergence trajectory).
    pub residuals: Vec<f64>,
    /// Dangling mass observed at every iteration.
    pub dangling: Vec<f64>,
    /// Monte-Carlo walkers completed (0 for deterministic solvers).
    pub walkers: usize,
    /// Total counted steps across all walkers.
    pub walker_steps: u64,
}

/// A [`SolveObserver`] that records one solve's full telemetry, stamping
/// wall time itself so solvers stay clock-free.
#[derive(Debug, Default)]
pub struct RecordingObserver {
    telemetry: SolveTelemetry,
    started: Option<Instant>,
}

impl RecordingObserver {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        RecordingObserver::default()
    }

    /// The telemetry recorded so far.
    pub fn telemetry(&self) -> &SolveTelemetry {
        &self.telemetry
    }

    /// The recorded residual trajectory.
    pub fn residuals(&self) -> &[f64] {
        &self.telemetry.residuals
    }

    /// Consumes the recorder, returning the telemetry.
    pub fn into_telemetry(self) -> SolveTelemetry {
        self.telemetry
    }

    /// Consumes the recorder into a labeled [`SolveRecord`] for a
    /// [`RunReport`].
    pub fn into_record(self, label: &str) -> SolveRecord {
        SolveRecord {
            label: label.to_string(),
            telemetry: self.telemetry,
        }
    }
}

impl SolveObserver for RecordingObserver {
    fn on_solve_start(&mut self, solver: &str, n: usize) {
        self.telemetry = SolveTelemetry {
            solver: solver.to_string(),
            n,
            ..SolveTelemetry::default()
        };
        self.started = Some(Instant::now());
    }

    fn on_iteration(&mut self, iteration: usize, residual: f64, dangling_mass: f64) {
        self.telemetry.iterations = iteration;
        self.telemetry.final_residual = residual;
        self.telemetry.residuals.push(residual);
        self.telemetry.dangling.push(dangling_mass);
    }

    fn on_walker(&mut self, _walker: usize, counted_steps: usize) {
        self.telemetry.walkers += 1;
        self.telemetry.walker_steps += counted_steps as u64;
    }

    fn on_solve_end(&mut self, iterations: usize, final_residual: f64, converged: bool) {
        self.telemetry.iterations = iterations;
        self.telemetry.final_residual = final_residual;
        self.telemetry.converged = converged;
        if let Some(t) = self.started.take() {
            self.telemetry.wall_secs = t.elapsed().as_secs_f64();
        }
    }
}

/// A [`SolveObserver`] that keeps **every** solve it witnesses as a separate
/// labeled [`SolveRecord`] — unlike [`RecordingObserver`], which resets at
/// each `on_solve_start` and retains only the last solve.
///
/// The incremental re-ranking engine in `sr-core` runs three solves per
/// graph delta (PageRank, SourceRank, SR-SourceRank) through a single
/// observer; this recorder keeps them all. Labels are consumed front to
/// back from the queue filled by [`push_label`](SequenceRecorder::push_label);
/// once the queue is exhausted, the solver's own algorithm label is used.
#[derive(Debug, Default)]
pub struct SequenceRecorder {
    current: RecordingObserver,
    records: Vec<SolveRecord>,
    labels: std::collections::VecDeque<String>,
}

impl SequenceRecorder {
    /// A fresh recorder with no queued labels.
    pub fn new() -> Self {
        SequenceRecorder::default()
    }

    /// Queues a label for the next unlabeled finished solve.
    pub fn push_label(&mut self, label: impl Into<String>) {
        self.labels.push_back(label.into());
    }

    /// The solves recorded so far, in completion order.
    pub fn records(&self) -> &[SolveRecord] {
        &self.records
    }

    /// Consumes the recorder, returning all records.
    pub fn into_records(self) -> Vec<SolveRecord> {
        self.records
    }
}

impl SolveObserver for SequenceRecorder {
    fn on_solve_start(&mut self, solver: &str, n: usize) {
        self.current.on_solve_start(solver, n);
    }

    fn on_iteration(&mut self, iteration: usize, residual: f64, dangling_mass: f64) {
        self.current
            .on_iteration(iteration, residual, dangling_mass);
    }

    fn on_walker(&mut self, walker: usize, counted_steps: usize) {
        self.current.on_walker(walker, counted_steps);
    }

    fn on_solve_end(&mut self, iterations: usize, final_residual: f64, converged: bool) {
        self.current
            .on_solve_end(iterations, final_residual, converged);
        let finished = std::mem::take(&mut self.current);
        let label = self
            .labels
            .pop_front()
            .unwrap_or_else(|| finished.telemetry().solver.clone());
        self.records.push(finished.into_record(&label));
    }
}

/// A labeled solve in a [`RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRecord {
    /// Caller-chosen label (e.g. `"pagerank"`, `"sr-sourcerank"`).
    pub label: String,
    /// The recorded telemetry.
    pub telemetry: SolveTelemetry,
}

/// Snapshot of the `sr-par` thread-pool counters. All counts are cumulative
/// since the last reset; `sr_par::counters::snapshot` produces these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// OS threads spawned by the parallel primitives: `threads − 1` per
    /// forked region, whose calling thread runs one part itself.
    pub tasks_spawned: u64,
    /// Chunks/blocks processed (on either path).
    pub chunks_processed: u64,
    /// Primitive invocations that forked (past their work cutover).
    pub par_calls: u64,
    /// Primitive invocations that stayed on the calling thread (below the
    /// cutover, single chunk, or one thread).
    pub seq_calls: u64,
    /// Total busy time of the parts of forked regions, spawned threads and
    /// the calling thread alike, in nanoseconds (timed only while counters
    /// are enabled).
    pub busy_nanos: u64,
    /// Chunks staged by a decode-ahead prefetcher before compute needed them.
    pub prefetched_chunks: u64,
    /// Bytes staged by a decode-ahead prefetcher.
    pub prefetched_bytes: u64,
}

impl PoolCounters {
    /// Total primitive invocations on either path.
    pub fn total_calls(&self) -> u64 {
        self.par_calls + self.seq_calls
    }
}

/// Edge balance of an `EdgePartition` (see `sr-graph`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PartitionStats {
    /// Number of chunks.
    pub chunks: usize,
    /// Total edges partitioned.
    pub edges: usize,
    /// The per-chunk edge budget `⌈E / chunks⌉`.
    pub edge_budget: usize,
    /// Edges of the heaviest chunk.
    pub max_chunk_edges: usize,
}

impl PartitionStats {
    /// Load imbalance: heaviest chunk relative to a perfect split (1.0 is
    /// ideal; values near 1 mean near-equal work per worker).
    pub fn imbalance(&self) -> f64 {
        if self.edges == 0 || self.chunks == 0 {
            return 1.0;
        }
        self.max_chunk_edges as f64 / (self.edges as f64 / self.chunks as f64)
    }
}

/// Packing efficiency of a `SellRows` layout (see `sr-graph`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackingStats {
    /// Rows covered by the layout.
    pub rows: usize,
    /// Rows inside full lane-interleaved groups (the fast path).
    pub lane_rows: usize,
    /// Equal-degree runs across all chunks.
    pub runs: usize,
    /// Edges in the packed stream.
    pub packed_edges: usize,
}

impl PackingStats {
    /// Fraction of rows gathered through the lane-interleaved fast path.
    pub fn lane_fraction(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        self.lane_rows as f64 / self.rows as f64
    }
}

/// Compression figures of the `sr-graph` row codec (see
/// `sr_graph::codec::compression_stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompressionStats {
    /// Nodes encoded.
    pub nodes: usize,
    /// Edges encoded.
    pub edges: usize,
    /// Encoded adjacency bytes (excluding offsets).
    pub data_bytes: usize,
    /// Bits per edge achieved (the WebGraph figure of merit).
    pub bits_per_edge: f64,
}

impl CompressionStats {
    /// Bytes per edge (`data_bytes / edges`).
    pub fn bytes_per_edge(&self) -> f64 {
        if self.edges == 0 {
            return 0.0;
        }
        self.data_bytes as f64 / self.edges as f64
    }
}

/// Build/compression stats of one graph in a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphStats {
    /// Caller-chosen label (e.g. `"pages"`, `"sources"`).
    pub label: String,
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Edge-partition balance, when a partition was built.
    pub partition: Option<PartitionStats>,
    /// SELL packing efficiency, when a packed layout was built.
    pub packing: Option<PackingStats>,
    /// Compression stats, when the graph was compressed.
    pub compression: Option<CompressionStats>,
}

/// A machine-readable summary of every solve (plus pool counters and graph
/// stats) in one run. Renders to `RUNS_<name>.json`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Report name; the output file is `RUNS_<name>.json`.
    pub name: String,
    /// Worker threads in effect during the run.
    pub threads: usize,
    /// All recorded solves, in execution order.
    pub solves: Vec<SolveRecord>,
    /// Stats of the graphs the run operated on.
    pub graphs: Vec<GraphStats>,
    /// Thread-pool counters accumulated over the run, when enabled.
    pub pool: Option<PoolCounters>,
}

impl RunReport {
    /// An empty report named `name` with the given thread count.
    pub fn new(name: &str, threads: usize) -> Self {
        RunReport {
            name: name.to_string(),
            threads,
            ..RunReport::default()
        }
    }

    /// Appends a solve record.
    pub fn push_solve(&mut self, record: SolveRecord) {
        self.solves.push(record);
    }

    /// Appends graph stats.
    pub fn push_graph(&mut self, stats: GraphStats) {
        self.graphs.push(stats);
    }

    /// Attaches a pool-counter snapshot.
    pub fn set_pool(&mut self, pool: PoolCounters) {
        self.pool = Some(pool);
    }

    /// The file name this report writes to (`RUNS_<name>.json`).
    pub fn file_name(&self) -> String {
        format!("RUNS_{}.json", self.name)
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"run\": {},", json_str(&self.name));
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        out.push_str("  \"graphs\": [");
        for (i, g) in self.graphs.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            graph_json(&mut out, g);
        }
        out.push_str(if self.graphs.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"solves\": [");
        for (i, s) in self.solves.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            solve_json(&mut out, s);
        }
        out.push_str(if self.solves.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        match &self.pool {
            Some(p) => {
                let _ = write!(
                    out,
                    concat!(
                        "  \"pool\": {{\n",
                        "    \"tasks_spawned\": {},\n",
                        "    \"chunks_processed\": {},\n",
                        "    \"par_calls\": {},\n",
                        "    \"seq_calls\": {},\n",
                        "    \"busy_nanos\": {},\n",
                        "    \"prefetched_chunks\": {},\n",
                        "    \"prefetched_bytes\": {}\n",
                        "  }}\n"
                    ),
                    p.tasks_spawned,
                    p.chunks_processed,
                    p.par_calls,
                    p.seq_calls,
                    p.busy_nanos,
                    p.prefetched_chunks,
                    p.prefetched_bytes
                );
            }
            None => out.push_str("  \"pool\": null\n"),
        }
        out.push_str("}\n");
        out
    }

    /// Writes `RUNS_<name>.json` into `dir`, returning the path written.
    pub fn write_to_dir(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

fn solve_json(out: &mut String, s: &SolveRecord) {
    let t = &s.telemetry;
    let _ = write!(
        out,
        concat!(
            "    {{\n",
            "      \"label\": {},\n",
            "      \"solver\": {},\n",
            "      \"n\": {},\n",
            "      \"iterations\": {},\n",
            "      \"final_residual\": {},\n",
            "      \"converged\": {},\n",
            "      \"wall_secs\": {},\n",
        ),
        json_str(&s.label),
        json_str(&t.solver),
        t.n,
        t.iterations,
        json_f64(t.final_residual),
        t.converged,
        json_f64(t.wall_secs),
    );
    let _ = writeln!(
        out,
        "      \"residuals\": {},",
        json_f64_array(&t.residuals)
    );
    if t.walkers > 0 {
        let _ = write!(
            out,
            "      \"walkers\": {},\n      \"walker_steps\": {}\n",
            t.walkers, t.walker_steps
        );
    } else {
        let _ = writeln!(out, "      \"dangling\": {}", json_f64_array(&t.dangling));
    }
    out.push_str("    }");
}

fn graph_json(out: &mut String, g: &GraphStats) {
    let _ = write!(
        out,
        "    {{\n      \"label\": {},\n      \"nodes\": {},\n      \"edges\": {},\n",
        json_str(&g.label),
        g.nodes,
        g.edges
    );
    match &g.partition {
        Some(p) => {
            let _ = write!(
                out,
                concat!(
                    "      \"partition\": {{ \"chunks\": {}, \"edge_budget\": {}, ",
                    "\"max_chunk_edges\": {}, \"imbalance\": {} }},\n"
                ),
                p.chunks,
                p.edge_budget,
                p.max_chunk_edges,
                json_f64(p.imbalance())
            );
        }
        None => out.push_str("      \"partition\": null,\n"),
    }
    match &g.packing {
        Some(p) => {
            let _ = write!(
                out,
                concat!(
                    "      \"packing\": {{ \"rows\": {}, \"lane_rows\": {}, \"runs\": {}, ",
                    "\"lane_fraction\": {} }},\n"
                ),
                p.rows,
                p.lane_rows,
                p.runs,
                json_f64(p.lane_fraction())
            );
        }
        None => out.push_str("      \"packing\": null,\n"),
    }
    match &g.compression {
        Some(c) => {
            let _ = write!(
                out,
                concat!(
                    "      \"compression\": {{ \"data_bytes\": {}, \"bits_per_edge\": {}, ",
                    "\"bytes_per_edge\": {} }}\n"
                ),
                c.data_bytes,
                json_f64(c.bits_per_edge),
                json_f64(c.bytes_per_edge())
            );
        }
        None => out.push_str("      \"compression\": null\n"),
    }
    out.push_str("    }");
}

/// Formats an `f64` as a JSON number (scientific notation is valid JSON);
/// non-finite values become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

fn json_f64_array(values: &[f64]) -> String {
    let mut out = String::with_capacity(values.len() * 12 + 2);
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_f64(*v));
    }
    out.push(']');
    out
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_fake_solve(obs: &mut dyn SolveObserver) {
        obs.on_solve_start("power", 10);
        obs.on_iteration(1, 0.5, 0.1);
        obs.on_iteration(2, 0.25, 0.05);
        obs.on_solve_end(2, 0.25, true);
    }

    #[test]
    fn recording_observer_captures_trajectory() {
        let mut obs = RecordingObserver::new();
        run_fake_solve(&mut obs);
        let t = obs.telemetry();
        assert_eq!(t.solver, "power");
        assert_eq!(t.n, 10);
        assert_eq!(t.iterations, 2);
        assert_eq!(t.residuals, vec![0.5, 0.25]);
        assert_eq!(t.dangling, vec![0.1, 0.05]);
        assert_eq!(t.final_residual, 0.25);
        assert!(t.converged);
        assert!(t.wall_secs >= 0.0);
    }

    #[test]
    fn recording_observer_resets_per_solve() {
        let mut obs = RecordingObserver::new();
        run_fake_solve(&mut obs);
        obs.on_solve_start("jacobi", 3);
        obs.on_iteration(1, 0.125, 0.0);
        obs.on_solve_end(1, 0.125, false);
        let t = obs.telemetry();
        assert_eq!(t.solver, "jacobi");
        assert_eq!(t.residuals, vec![0.125]);
        assert!(!t.converged);
    }

    #[test]
    fn sequence_recorder_keeps_every_solve() {
        let mut obs = SequenceRecorder::new();
        obs.push_label("pagerank");
        obs.push_label("sourcerank");
        run_fake_solve(&mut obs);
        run_fake_solve(&mut obs);
        run_fake_solve(&mut obs); // no queued label left
        let records = obs.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].label, "pagerank");
        assert_eq!(records[1].label, "sourcerank");
        assert_eq!(records[2].label, "power", "falls back to the solver name");
        for r in records {
            assert_eq!(r.telemetry.iterations, 2);
            assert_eq!(r.telemetry.residuals, vec![0.5, 0.25]);
        }
        assert_eq!(obs.into_records().len(), 3);
    }

    #[test]
    fn walker_callbacks_accumulate() {
        let mut obs = RecordingObserver::new();
        obs.on_solve_start("montecarlo", 4);
        obs.on_walker(0, 100);
        obs.on_walker(1, 100);
        obs.on_solve_end(2, 0.0, true);
        assert_eq!(obs.telemetry().walkers, 2);
        assert_eq!(obs.telemetry().walker_steps, 200);
    }

    #[test]
    fn report_json_contains_everything() {
        let mut obs = RecordingObserver::new();
        run_fake_solve(&mut obs);
        let mut report = RunReport::new("test", 4);
        report.push_solve(obs.into_record("pagerank"));
        report.push_graph(GraphStats {
            label: "pages".into(),
            nodes: 10,
            edges: 20,
            partition: Some(PartitionStats {
                chunks: 2,
                edges: 20,
                edge_budget: 10,
                max_chunk_edges: 11,
            }),
            packing: Some(PackingStats {
                rows: 10,
                lane_rows: 8,
                runs: 3,
                packed_edges: 20,
            }),
            compression: Some(CompressionStats {
                nodes: 10,
                edges: 20,
                data_bytes: 30,
                bits_per_edge: 12.0,
            }),
        });
        report.set_pool(PoolCounters {
            tasks_spawned: 8,
            chunks_processed: 16,
            par_calls: 2,
            seq_calls: 5,
            busy_nanos: 1_000,
            prefetched_chunks: 3,
            prefetched_bytes: 4_096,
        });
        let json = report.to_json();
        assert_eq!(report.file_name(), "RUNS_test.json");
        for key in [
            "\"run\": \"test\"",
            "\"threads\": 4",
            "\"label\": \"pagerank\"",
            "\"solver\": \"power\"",
            "\"iterations\": 2",
            "\"residuals\": [5e-1, 2.5e-1]",
            "\"lane_fraction\":",
            "\"bits_per_edge\":",
            "\"tasks_spawned\": 8",
            "\"seq_calls\": 5",
            "\"prefetched_chunks\": 3",
            "\"prefetched_bytes\": 4096",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // Balanced braces/brackets — a cheap well-formedness check.
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn empty_report_renders() {
        let report = RunReport::new("empty", 1);
        let json = report.to_json();
        assert!(json.contains("\"solves\": []"));
        assert!(json.contains("\"graphs\": []"));
        assert!(json.contains("\"pool\": null"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(0.25), "2.5e-1");
    }

    #[test]
    fn json_strings_escape_specials() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn partition_imbalance_math() {
        let p = PartitionStats {
            chunks: 4,
            edges: 100,
            edge_budget: 25,
            max_chunk_edges: 30,
        };
        assert!((p.imbalance() - 1.2).abs() < 1e-12);
        assert_eq!(PartitionStats::default().imbalance(), 1.0);
    }

    #[test]
    fn packing_lane_fraction_math() {
        let p = PackingStats {
            rows: 10,
            lane_rows: 8,
            runs: 2,
            packed_edges: 40,
        };
        assert!((p.lane_fraction() - 0.8).abs() < 1e-12);
        assert_eq!(PackingStats::default().lane_fraction(), 0.0);
    }
}
