//! End-to-end tests of the `sr-eval` binary: the analytic commands, the
//! crawl-to-disk/rank-from-disk roundtrip, and flag validation.

use std::path::PathBuf;
use std::process::Command;

fn sr_eval() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sr-eval"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sr_eval_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn fig2_prints_the_analytic_table() {
    let out = sr_eval().arg("fig2").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Figure 2"));
    assert!(text.contains("alpha=0.85"));
    // The kappa=0 row carries the 1/(1-alpha) factors.
    assert!(text.contains("6.6667"));
    assert!(text.contains("10.0000"));
}

#[test]
fn fig3_quotes_the_paper_numbers() {
    let out = sr_eval().arg("fig3").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("1485.0000"),
        "kappa'=0.99 row missing:\n{text}"
    );
}

#[test]
fn table1_with_csv_export() {
    let dir = temp_dir("table1");
    let out = sr_eval()
        .args(["table1", "--scale", "0.001", "--csv"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success());
    let csv = std::fs::read_to_string(dir.join("table1.csv")).unwrap();
    assert!(csv.lines().count() >= 4, "header + 3 datasets:\n{csv}");
    assert!(csv.contains("WB2001"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Generates the uk2002 crawl at scale 0.0005 (50 sources) into a fresh
/// directory.
fn generated_crawl(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    let out = sr_eval()
        .args(["gen", "--scale", "0.0005", "--csv"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    dir
}

#[test]
fn gen_then_rank_roundtrip() {
    let dir = generated_crawl("genrank");
    for ext in ["edges", "sources", "spam"] {
        assert!(
            dir.join(format!("uk2002.{ext}")).exists(),
            "missing uk2002.{ext}"
        );
    }
    let scores = dir.join("scores.csv");
    let kappa = dir.join("kappa.txt");
    let out = sr_eval()
        .arg("rank")
        .arg("--edges")
        .arg(dir.join("uk2002.edges"))
        .arg("--sources")
        .arg(dir.join("uk2002.sources"))
        .arg("--spam")
        .arg(dir.join("uk2002.spam"))
        .arg("--out")
        .arg(&scores)
        .arg("--save-kappa")
        .arg(&kappa)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&scores).unwrap();
    assert!(body.starts_with("source,score\n"));
    assert!(body.lines().count() > 10);
    // The saved kappa re-loads and drives a second, identical ranking run.
    assert!(kappa.exists());
    let out2 = sr_eval()
        .arg("rank")
        .arg("--edges")
        .arg(dir.join("uk2002.edges"))
        .arg("--sources")
        .arg(dir.join("uk2002.sources"))
        .arg("--kappa")
        .arg(&kappa)
        .arg("--out")
        .arg(dir.join("scores2.csv"))
        .output()
        .unwrap();
    assert!(
        out2.status.success(),
        "{}",
        String::from_utf8_lossy(&out2.stderr)
    );
    let body2 = std::fs::read_to_string(dir.join("scores2.csv")).unwrap();
    assert_eq!(
        body, body2,
        "kappa-file run must reproduce the proximity run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `rank` over the crawl in `dir` with `flag file`, where `file` holds
/// `body`, and returns its stderr after checking that it failed cleanly:
/// exit code 1 and an `error:` line, not a panic.
fn rank_rejects(dir: &std::path::Path, flag: &str, body: &str) -> String {
    let file = dir.join("bad_input.txt");
    std::fs::write(&file, body).unwrap();
    let out = sr_eval()
        .arg("rank")
        .arg("--edges")
        .arg(dir.join("uk2002.edges"))
        .arg("--sources")
        .arg(dir.join("uk2002.sources"))
        .arg(flag)
        .arg(&file)
        .output()
        .unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_dir_all(dir).ok();
    err.lines()
        .find(|l| l.starts_with("error: "))
        .unwrap_or_else(|| panic!("no error line:\n{err}"))
        .to_string()
}

#[test]
fn rank_rejects_an_out_of_range_spam_seed() {
    let dir = generated_crawl("spam_range");
    let err = rank_rejects(&dir, "--spam", "2\n99999\n");
    assert!(err.contains("99999"), "{err}");
}

#[test]
fn rank_rejects_a_duplicate_spam_seed() {
    let dir = generated_crawl("spam_dup");
    let err = rank_rejects(&dir, "--spam", "3\n5\n3\n");
    assert!(err.contains("seed 3 "), "{err}");
}

#[test]
fn rank_rejects_a_kappa_of_the_wrong_length() {
    let dir = generated_crawl("kappa_len");
    let err = rank_rejects(&dir, "--kappa", "#kappa 3\n0\n1\n0.5\n");
    assert!(err.contains(" 3 ") && err.contains(" 50 "), "{err}");
}

#[test]
fn telemetry_writes_a_run_report() {
    let dir = temp_dir("telemetry");
    let out = sr_eval()
        .args(["telemetry", "--scale", "0.0005", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(dir.join("RUNS_telemetry.json")).unwrap();
    // Every required solve is present with its telemetry fields.
    for label in [
        "pagerank",
        "sourcerank",
        "sr-sourcerank",
        "sourcerank-gauss-seidel",
        "montecarlo",
    ] {
        assert!(body.contains(&format!("\"label\": \"{label}\"")), "{label}");
    }
    for key in [
        "\"iterations\"",
        "\"final_residual\"",
        "\"wall_secs\"",
        "\"residuals\"",
        "\"pool\"",
        "\"bits_per_edge\"",
        "\"edge_budget\"",
        "\"lane_fraction\"",
    ] {
        assert!(body.contains(key), "missing {key}:\n{body}");
    }
    // The document is at least brace-balanced (full JSON validity is
    // covered by sr-obs unit tests).
    let opens = body.matches(['{', '[']).count();
    let closes = body.matches(['}', ']']).count();
    assert_eq!(opens, closes);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = sr_eval().arg("nonsense").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("usage:"));
}

#[test]
fn rank_requires_inputs() {
    let out = sr_eval().arg("rank").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--edges"));
}

#[test]
fn bad_flag_value_reports_error() {
    let out = sr_eval()
        .args(["table1", "--scale", "bogus"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("bad --scale"));
}
