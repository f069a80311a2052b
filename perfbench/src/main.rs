//! `perfbench` — the repository benchmark.
//!
//! One invocation runs one named workload on inputs generated from the
//! workload seed, drives each layer only through its public API, checks
//! every answer, and prints its metrics (see `perfbench/README.md`):
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! run of the same workload that times the benchmark's calls into each
//! layer and reports the per-layer metrics instead. Every workload reports
//! the same metric set (see `report`); what only one workload measures is
//! listed as a detail above the result line.

// A benchmark measures wall-clock time by definition; the workspace's
// determinism policy (clippy.toml disallowed-methods) is lifted here.
#![allow(clippy::disallowed_methods)]

mod checks;
mod host;
mod rank;
mod report;
mod rng;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;

use report::Report;

const USAGE: &str = "usage: perfbench --workload <rank_offline|rank_out_of_core|serve_ingest> \
--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]";

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed; every input is a pure function of it.
    pub seed: u64,
    /// Measured time per run, in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Directory for this run's files (shards, walk caches, span dumps).
    pub work_dir: PathBuf,
}

/// Writes a traced run's spans to `<work-dir>/traces/<workload>-<seed>.json`.
pub fn write_trace(args: &Args, tr: &trace::Tracer) {
    let dir = args.work_dir.join("traces");
    let path = dir.join(format!("{}-{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| tr.write_json(&path)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written: {e}"),
    }
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work_dir,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run_dir = args.work_dir.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        std::process::exit(2);
    }
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (nproc {}, pool workers {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc(),
        sr_par::num_threads()
    );
    let result: Result<Report, String> = match args.workload.as_str() {
        "rank_offline" => rank::offline(&args, &run_dir),
        "rank_out_of_core" => rank::out_of_core(&args, &run_dir),
        "serve_ingest" => serving::ingest(&args, &run_dir),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    std::fs::remove_dir_all(&run_dir).ok();
    let declared = if args.trace {
        &report::PER_LAYER[..]
    } else {
        &report::END_TO_END[..]
    };
    match result.and_then(|r| r.matches(declared).map(|()| r)) {
        Ok(report) => report.print(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "serve_ingest",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "serve_ingest");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(
            args(&["--workload", "x", "--seed", "1"]).is_err(),
            "seconds missing"
        );
        assert!(args(&["--workload", "x", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }
}
