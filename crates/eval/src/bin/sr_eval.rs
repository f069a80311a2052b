//! `sr-eval` — regenerate every table and figure of the paper.
//!
//! ```text
//! sr-eval <command> [--scale X] [--seed N] [--targets K] [--csv DIR]
//!
//! commands:
//!   table1    Table 1  — source summary of the three datasets
//!   fig2      Figure 2 — max score-gain factor vs baseline kappa
//!   fig3      Figure 3 — additional colluding sources needed vs kappa'
//!   fig4      Figure 4 — PageRank vs SR-SourceRank, scenarios 1-3
//!   fig5      Figure 5 — rank distribution of spam sources (WB2001)
//!   fig6      Figure 6 — intra-source manipulation (3 datasets)
//!   fig7        Figure 7 — inter-source manipulation (3 datasets)
//!   roi         extension — spammer return-on-investment (§8 future work)
//!   sensitivity extension — seed/top-k/κ-map sensitivity of throttling
//!   filtering   extension — soft throttling vs hard spam removal
//!   comparators extension — PageRank/HITS/TrustRank/SR-SR under attack
//!   stability   extension — rank stability under random link deletion
//!   convergence extension — solver iterations/rates across alpha
//!   telemetry   extension — run every solver family over WB2001 with
//!               sr-obs telemetry enabled and write a machine-readable
//!               RUNS_telemetry.json run report (see DESIGN.md §10)
//!   delta-rerank extension — drive a multi-step spam campaign through the
//!               incremental delta re-ranking engine and compare iteration
//!               counts, wall time and rank divergence against the cold
//!               rebuild path per step; writes RUNS_delta_rerank.json
//!               (see DESIGN.md §11)
//!   approx-ppr  extension — sweep the Monte-Carlo walk-cache approximate
//!               PPR engine over a (walks R, push target ε) grid against
//!               the exact per-seed solve, reporting per-query latency,
//!               speedup and max additive error; writes
//!               RUNS_approx_ppr.json (see DESIGN.md §15)
//!   gen         generate a crawl and write it to disk (edge list,
//!               assignment, spam labels, binary snapshot)
//!   rank        rank an on-disk crawl:
//!               sr-eval rank --edges F --sources F [--spam F|--kappa F]
//!                            [--out F] [--save-kappa F]
//!   all         every table/figure plus the extensions
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use sr_eval::datasets::{table1, EvalConfig, EvalDataset};
use sr_eval::experiments::manipulation::{self, Mode};
use sr_eval::experiments::{
    analytic, comparators, convergence, fig5, filtering, roi, sensitivity, stability,
};
use sr_eval::report::Table;
use sr_gen::Dataset;
use sr_graph::ids::node_range;
use sr_spam::economics::CostModel;

struct Args {
    command: String,
    config: EvalConfig,
    csv_dir: Option<PathBuf>,
    edges: Option<PathBuf>,
    sources: Option<PathBuf>,
    spam: Option<PathBuf>,
    kappa: Option<PathBuf>,
    save_kappa: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sr-eval <table1|fig2|fig3|fig4|fig5|fig6|fig7|roi|sensitivity|telemetry|all> \
         [--scale X] [--seed N] [--targets K] [--csv DIR] [--out DIR]"
    );
    ExitCode::FAILURE
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command")?;
    let mut config = EvalConfig::default();
    let mut csv_dir = None;
    let mut edges = None;
    let mut sources = None;
    let mut spam = None;
    let mut kappa = None;
    let mut save_kappa = None;
    let mut out = None;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--scale" => {
                config.scale = value()?.parse().map_err(|e| format!("bad --scale: {e}"))?;
            }
            "--seed" => {
                config.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--targets" => {
                config.targets = value()?
                    .parse()
                    .map_err(|e| format!("bad --targets: {e}"))?;
            }
            "--csv" => csv_dir = Some(PathBuf::from(value()?)),
            "--edges" => edges = Some(PathBuf::from(value()?)),
            "--sources" => sources = Some(PathBuf::from(value()?)),
            "--spam" => spam = Some(PathBuf::from(value()?)),
            "--kappa" => kappa = Some(PathBuf::from(value()?)),
            "--save-kappa" => save_kappa = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        command,
        config,
        csv_dir,
        edges,
        sources,
        spam,
        kappa,
        save_kappa,
        out,
    })
}

fn emit(table: &Table, csv_dir: &Option<PathBuf>, slug: &str) {
    println!("{}", table.render());
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        let path = dir.join(format!("{slug}.csv"));
        table.write_csv(&path).expect("write csv");
        println!("[csv written to {}]", path.display());
    }
}

fn run_fig5(config: &EvalConfig, csv_dir: &Option<PathBuf>) {
    eprintln!(
        "[fig5] generating WB2001 at scale {} and ranking (this is the heavy step)...",
        config.scale
    );
    let ds = EvalDataset::load(Dataset::Wb2001, config.scale);
    let r = fig5::run(&ds, config);
    emit(&fig5::table(&r), csv_dir, "fig5");
}

fn run_manipulation(config: &EvalConfig, csv_dir: &Option<PathBuf>, mode: Mode) {
    let slug = if mode == Mode::IntraSource {
        "fig6"
    } else {
        "fig7"
    };
    for d in Dataset::all() {
        eprintln!("[{slug}] {} at scale {}...", d.name(), config.scale);
        let ds = EvalDataset::load(d, config.scale);
        let r = manipulation::run(&ds, config, mode);
        emit(
            &manipulation::table(&r),
            csv_dir,
            &format!("{slug}_{}", d.name().to_lowercase()),
        );
    }
}

fn run_roi(config: &EvalConfig, csv_dir: &Option<PathBuf>) {
    eprintln!("[roi] UK2002 at scale {}...", config.scale);
    let ds = EvalDataset::load(Dataset::Uk2002, config.scale);
    let r = roi::run(&ds, config, &CostModel::default());
    emit(&roi::table(&r, Dataset::Uk2002.name()), csv_dir, "roi");
}

fn run_sensitivity(config: &EvalConfig, csv_dir: &Option<PathBuf>) {
    eprintln!("[sensitivity] WB2001 at scale {}...", config.scale);
    let ds = EvalDataset::load(Dataset::Wb2001, config.scale);
    let r = sensitivity::run(&ds, config);
    emit(
        &sensitivity::table(
            "Extension: spam-seed fraction sweep (paper uses ~10%)",
            &r.seed_sweep,
            r.total_spam,
        ),
        csv_dir,
        "sensitivity_seed",
    );
    emit(
        &sensitivity::table(
            "Extension: throttling budget (top-k) sweep (paper uses 2.71% of sources)",
            &r.topk_sweep,
            r.total_spam,
        ),
        csv_dir,
        "sensitivity_topk",
    );
    emit(
        &sensitivity::table(
            "Extension: kappa assignment map (top-k vs graded linear)",
            &r.kappa_maps,
            r.total_spam,
        ),
        csv_dir,
        "sensitivity_kappa_map",
    );
}

fn run_filtering(config: &EvalConfig, csv_dir: &Option<PathBuf>) {
    eprintln!("[filtering] WB2001 at scale {}...", config.scale);
    let ds = EvalDataset::load(Dataset::Wb2001, config.scale);
    let r = filtering::run(&ds, config);
    emit(&filtering::table(&r), csv_dir, "filtering");
}

fn run_comparators(config: &EvalConfig, csv_dir: &Option<PathBuf>) {
    eprintln!("[comparators] UK2002 at scale {}...", config.scale);
    let ds = EvalDataset::load(Dataset::Uk2002, config.scale);
    let rows = comparators::run(&ds, config);
    emit(
        &comparators::table(&rows, Dataset::Uk2002.name()),
        csv_dir,
        "comparators",
    );
}

fn run_stability(config: &EvalConfig, csv_dir: &Option<PathBuf>) {
    eprintln!("[stability] UK2002 at scale {}...", config.scale);
    let ds = EvalDataset::load(Dataset::Uk2002, config.scale);
    let rows = stability::run(&ds, config, &stability::default_fractions());
    emit(
        &stability::table(&rows, Dataset::Uk2002.name()),
        csv_dir,
        "stability",
    );
}

fn run_convergence(config: &EvalConfig, csv_dir: &Option<PathBuf>) {
    eprintln!("[convergence] UK2002 at scale {}...", config.scale);
    let ds = EvalDataset::load(Dataset::Uk2002, config.scale);
    let rows = convergence::run(&ds, &convergence::default_alphas());
    emit(
        &convergence::table(&rows, Dataset::Uk2002.name()),
        csv_dir,
        "convergence",
    );
}

/// Runs PageRank, SourceRank, SR-SourceRank, Gauss–Seidel and the
/// Monte-Carlo estimator over WB2001 with sr-obs telemetry enabled, then
/// writes `RUNS_telemetry.json` (per-solve iteration counts, residual
/// trajectories, wall-times; graph build/compression stats; pool counters)
/// into `--out` (a directory, default the working directory).
fn run_telemetry(config: &EvalConfig, out_dir: &Option<PathBuf>) -> Result<(), String> {
    use sr_core::montecarlo::{estimate_stationary, WalkConfig};
    use sr_core::operator::UniformTransition;
    use sr_core::SolverWorkspace;
    use sr_obs::{GraphStats, RecordingObserver, RunReport};

    eprintln!("[telemetry] WB2001 at scale {}...", config.scale);
    let ds = EvalDataset::load(Dataset::Wb2001, config.scale);
    sr_par::counters::reset();
    sr_par::counters::enable();
    let mut report = RunReport::new("telemetry", sr_par::num_threads());

    // Build/compression stats of the page graph: the edge-balanced chunk
    // layout the SpMV engine uses, the SELL row packing, and the
    // WebGraph-style varint encoding.
    let pages = &ds.crawl.pages;
    let chunks = (sr_par::num_threads() * 4).max(1);
    let partition = sr_graph::EdgePartition::from_offsets(pages.offsets(), chunks);
    let sell = sr_graph::SellRows::build(pages.offsets(), pages.targets(), &partition);
    let compressed = sr_graph::CompressedGraph::from_csr(pages).expect("compress page graph");
    report.push_graph(GraphStats {
        label: "pages".to_string(),
        nodes: pages.num_nodes(),
        edges: pages.num_edges(),
        partition: Some(partition.stats()),
        packing: Some(sell.packing_stats()),
        compression: Some(compressed.compression_stats()),
    });

    let mut obs = RecordingObserver::new();
    sr_core::PageRank::builder().finish().rank_operator_warm_in(
        &UniformTransition::new(pages),
        None,
        &mut SolverWorkspace::new(),
        Some(&mut obs),
    );
    report.push_solve(obs.into_record("pagerank"));

    let mut obs = RecordingObserver::new();
    sr_core::SourceRank::new().rank_warm_in(
        &ds.sources,
        None,
        &mut SolverWorkspace::new(),
        Some(&mut obs),
    );
    report.push_solve(obs.into_record("sourcerank"));

    let mut obs = RecordingObserver::new();
    sr_core::SpamResilientSourceRank::builder()
        .throttle_by_proximity(ds.crawl.spam_sources.clone(), ds.throttle_k(), 0.85)
        .build(&ds.sources)
        .rank_warm_in(None, &mut SolverWorkspace::new(), Some(&mut obs));
    report.push_solve(obs.into_record("sr-sourcerank"));

    let mut obs = RecordingObserver::new();
    sr_core::SourceRank::new()
        .solver(sr_core::Solver::GaussSeidel)
        .rank_warm_in(
            &ds.sources,
            None,
            &mut SolverWorkspace::new(),
            Some(&mut obs),
        );
    report.push_solve(obs.into_record("sourcerank-gauss-seidel"));

    let mut obs = RecordingObserver::new();
    estimate_stationary(
        ds.sources.transitions(),
        &WalkConfig::default(),
        Some(&mut obs),
    );
    report.push_solve(obs.into_record("montecarlo"));

    report.set_pool(sr_par::counters::snapshot());
    sr_par::counters::disable();

    let dir = out_dir.clone().unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = report
        .write_to_dir(&dir)
        .map_err(|e| format!("writing report: {e}"))?;
    for s in &report.solves {
        println!(
            "{:<24} n={:<8} iters={:<4} residual={:.3e} wall={:.3}s",
            s.label,
            s.telemetry.n,
            s.telemetry.iterations,
            s.telemetry.final_residual,
            s.telemetry.wall_secs
        );
    }
    println!("[run report written to {}]", path.display());
    Ok(())
}

/// Runs the incremental-vs-rebuild sweep over WB2001 and writes the warm
/// solve telemetry as `RUNS_delta_rerank.json` into `--out` (a directory,
/// default the working directory).
fn run_delta_rerank(
    config: &EvalConfig,
    csv_dir: &Option<PathBuf>,
    out_dir: &Option<PathBuf>,
) -> Result<(), String> {
    use sr_eval::experiments::delta_rerank;
    use sr_obs::RunReport;

    eprintln!("[delta-rerank] WB2001 at scale {}...", config.scale);
    let ds = EvalDataset::load(Dataset::Wb2001, config.scale);
    let r = delta_rerank::run(&ds, config);
    emit(
        &delta_rerank::table(&r, Dataset::Wb2001.name()),
        csv_dir,
        "delta_rerank",
    );

    let mut report = RunReport::new("delta_rerank", sr_par::num_threads());
    for rec in r.records {
        report.push_solve(rec);
    }
    let dir = out_dir.clone().unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = report
        .write_to_dir(&dir)
        .map_err(|e| format!("writing report: {e}"))?;
    println!("[run report written to {}]", path.display());
    Ok(())
}

/// Runs the approximate-PPR accuracy/latency frontier over WB2001 and
/// writes `RUNS_approx_ppr.json` into `--out` (a directory, default the
/// working directory).
fn run_approx_ppr(
    config: &EvalConfig,
    csv_dir: &Option<PathBuf>,
    out_dir: &Option<PathBuf>,
) -> Result<(), String> {
    use sr_eval::experiments::approx_ppr;

    eprintln!("[approx-ppr] WB2001 at scale {}...", config.scale);
    let ds = EvalDataset::load(Dataset::Wb2001, config.scale);
    let r = approx_ppr::run(&ds, config);
    emit(
        &approx_ppr::table(&r, Dataset::Wb2001.name()),
        csv_dir,
        "approx_ppr",
    );
    let dir = out_dir.clone().unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = approx_ppr::write_report(&r, Dataset::Wb2001.name(), config.scale, &dir)
        .map_err(|e| format!("writing report: {e}"))?;
    println!("[run report written to {}]", path.display());
    Ok(())
}

fn run_gen(config: &EvalConfig, out_dir: &Option<PathBuf>) {
    let dir = out_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("crawl_out"));
    std::fs::create_dir_all(&dir).expect("create output dir");
    for d in Dataset::all() {
        eprintln!("[gen] {} at scale {}...", d.name(), config.scale);
        let crawl = sr_gen::generate(&d.config(config.scale));
        let slug = d.name().to_lowercase();
        sr_graph::io::save_edge_list(&crawl.pages, &dir.join(format!("{slug}.edges")))
            .expect("write edge list");
        sr_graph::io::save_snapshot(&crawl.pages, &dir.join(format!("{slug}.snap")))
            .expect("write snapshot");
        let f = std::fs::File::create(dir.join(format!("{slug}.sources"))).expect("create");
        sr_graph::io::write_assignment(&crawl.assignment, f).expect("write assignment");
        let labels: String = crawl
            .spam_sources
            .iter()
            .map(|s| format!("{s}\n"))
            .collect();
        std::fs::write(dir.join(format!("{slug}.spam")), labels).expect("write labels");
        println!(
            "{}: {} pages, {} edges, {} sources, {} spam -> {}/{{{slug}.edges,.snap,.sources,.spam}}",
            d.name(),
            crawl.num_pages(),
            crawl.pages.num_edges(),
            crawl.num_sources(),
            crawl.spam_sources.len(),
            dir.display()
        );
    }
}

/// Ranks an on-disk crawl with baseline SourceRank and (when spam labels
/// are supplied) spam-proximity-throttled SR-SourceRank; prints the top 20
/// and optionally writes the full score table.
fn run_rank(args: &Args) -> Result<(), String> {
    let edges_path = args.edges.as_ref().ok_or("rank requires --edges <file>")?;
    let sources_path = args
        .sources
        .as_ref()
        .ok_or("rank requires --sources <file>")?;
    let pages = sr_graph::io::load_edge_list(edges_path, None)
        .map_err(|e| format!("reading {}: {e}", edges_path.display()))?;
    let file = std::fs::File::open(sources_path)
        .map_err(|e| format!("opening {}: {e}", sources_path.display()))?;
    let assignment = sr_graph::io::read_assignment(file)
        .map_err(|e| format!("reading {}: {e}", sources_path.display()))?;
    // Tolerate an edge list whose max node id is below the assignment size.
    let pages = if assignment.num_pages() > pages.num_nodes() {
        let mut b = sr_graph::GraphBuilder::with_nodes(assignment.num_pages());
        b.extend_edges(pages.edges());
        b.build()
    } else {
        pages
    };
    if assignment.num_pages() < pages.num_nodes() {
        return Err(format!(
            "assignment covers {} pages but the edge list references {}",
            assignment.num_pages(),
            pages.num_nodes()
        ));
    }
    let sg = sr_graph::source_graph::extract(
        &pages,
        &assignment,
        sr_graph::source_graph::SourceGraphConfig::consensus(),
    )
    .map_err(|e| e.to_string())?;
    eprintln!(
        "[rank] {} pages, {} edges, {} sources, {} source edges",
        pages.num_nodes(),
        pages.num_edges(),
        sg.num_sources(),
        sg.num_edges()
    );

    let spam_seeds: Vec<u32> = match &args.spam {
        Some(p) => std::fs::read_to_string(p)
            .map_err(|e| format!("reading {}: {e}", p.display()))?
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                l.trim()
                    .parse::<u32>()
                    .map_err(|e| format!("bad spam id {l:?}: {e}"))
            })
            .collect::<Result<_, _>>()?,
        None => Vec::new(),
    };

    let ranking = if let Some(kappa_path) = &args.kappa {
        // Explicit throttling vector from a previous offline computation.
        let f = std::fs::File::open(kappa_path)
            .map_err(|e| format!("opening {}: {e}", kappa_path.display()))?;
        let kappa = sr_core::ThrottleVector::read_text(f)
            .map_err(|e| format!("reading {}: {e}", kappa_path.display()))?;
        eprintln!(
            "[rank] using supplied kappa vector ({} fully throttled)",
            kappa.fully_throttled()
        );
        sr_core::SpamResilientSourceRank::builder()
            .throttle(kappa)
            .build(&sg)
            .rank()
    } else if spam_seeds.is_empty() {
        eprintln!("[rank] no spam labels; computing baseline SourceRank");
        sr_core::SourceRank::new().rank(&sg)
    } else {
        let top_k = sr_gen::Dataset::Wb2001.throttle_top_k(sg.num_sources());
        eprintln!(
            "[rank] throttling by proximity from {} labeled spam sources (top-k = {top_k})",
            spam_seeds.len()
        );
        let model = sr_core::SpamResilientSourceRank::builder()
            .throttle_by_proximity(spam_seeds, top_k, 0.85)
            .build(&sg);
        if let Some(p) = &args.save_kappa {
            let f =
                std::fs::File::create(p).map_err(|e| format!("creating {}: {e}", p.display()))?;
            model
                .kappa()
                .write_text(f)
                .map_err(|e| format!("writing {}: {e}", p.display()))?;
            eprintln!("[rank] kappa vector written to {}", p.display());
        }
        model.rank()
    };

    println!("top 20 sources:");
    for (i, &s) in ranking.top_k(20).iter().enumerate() {
        println!(
            "  {:>3}. source {:<8} score {:.6}",
            i + 1,
            s,
            ranking.score(s)
        );
    }
    if let Some(out) = &args.out {
        let mut body = String::from("source,score\n");
        for s in node_range(ranking.len()) {
            body.push_str(&format!("{s},{}\n", ranking.score(s)));
        }
        std::fs::write(out, body).map_err(|e| format!("writing {}: {e}", out.display()))?;
        println!("[scores written to {}]", out.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let cfg = &args.config;
    let csv = &args.csv_dir;
    match args.command.as_str() {
        "table1" => emit(&table1(cfg.scale), csv, "table1"),
        "fig2" => emit(&analytic::fig2_table(), csv, "fig2"),
        "fig3" => emit(&analytic::fig3_table(), csv, "fig3"),
        "fig4" => {
            emit(&analytic::fig4a_table(), csv, "fig4a");
            emit(&analytic::fig4b_table(), csv, "fig4b");
            emit(&analytic::fig4c_table(), csv, "fig4c");
        }
        "fig5" => run_fig5(cfg, csv),
        "fig6" => run_manipulation(cfg, csv, Mode::IntraSource),
        "fig7" => run_manipulation(cfg, csv, Mode::InterSource),
        "roi" => run_roi(cfg, csv),
        "sensitivity" => run_sensitivity(cfg, csv),
        "filtering" => run_filtering(cfg, csv),
        "comparators" => run_comparators(cfg, csv),
        "stability" => run_stability(cfg, csv),
        "convergence" => run_convergence(cfg, csv),
        "telemetry" => {
            if let Err(e) = run_telemetry(cfg, &args.out) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        "delta-rerank" => {
            if let Err(e) = run_delta_rerank(cfg, csv, &args.out) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        "approx-ppr" => {
            if let Err(e) = run_approx_ppr(cfg, csv, &args.out) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        "gen" => run_gen(cfg, csv),
        "rank" => {
            if let Err(e) = run_rank(&args) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        "all" => {
            emit(&table1(cfg.scale), csv, "table1");
            emit(&analytic::fig2_table(), csv, "fig2");
            emit(&analytic::fig3_table(), csv, "fig3");
            emit(&analytic::fig4a_table(), csv, "fig4a");
            emit(&analytic::fig4b_table(), csv, "fig4b");
            emit(&analytic::fig4c_table(), csv, "fig4c");
            run_fig5(cfg, csv);
            run_manipulation(cfg, csv, Mode::IntraSource);
            run_manipulation(cfg, csv, Mode::InterSource);
            run_roi(cfg, csv);
            run_sensitivity(cfg, csv);
            run_filtering(cfg, csv);
            run_comparators(cfg, csv);
            run_stability(cfg, csv);
            run_convergence(cfg, csv);
        }
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
