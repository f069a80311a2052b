//! Serving load test: an in-process `sr-serve` instance on the kernel
//! crawl (60k pages) driven through two phases, reporting client-side
//! latency percentiles and rotation/ingest counters into
//! `BENCH_serve.json` and enforcing the serving gates in-process:
//!
//! 1. **Gate phase** (quiet server): a serial approx-PPR client and a pair
//!    of concurrent exact-PPR clients (so panels actually coalesce) measure
//!    the two sides of the fast-path gate — approx-PPR p99 must beat
//!    exact-batched p50 on this graph. Measured unloaded so the comparison
//!    is service time, not CPU-queueing backlog.
//! 2. **Load phase**: several open-loop mixed-class client threads (each
//!    issues at fixed planned offsets, sleeping until each slot, so the
//!    arrival rate does not adapt to service time) run concurrently with a
//!    producer streaming crawl deltas into the write path. The offered
//!    rate is calibrated to the bench host (a small share of one core's
//!    throughput) — an open-loop plan far beyond capacity would only
//!    measure the backlog it created.
//!
//! Across the whole run: zero reader stalls, and post-ingest ranks must be
//! bitwise equal to an offline [`EpochEngine`] replay of the same deltas.

#![expect(
    clippy::disallowed_methods,
    reason = "the tracked benchmark baseline is wall-clock measurement by definition"
)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use sr_bench::{jsonmerge, kernel_crawl};
use sr_obs::{LatencyRecorder, QueryClass};
use sr_serve::engine::{EngineConfig, EpochEngine};
use sr_serve::wire::{PprMode, RankDomain};
use sr_serve::{serve, ServeClient, ServeConfig};

const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 150;
const INTERARRIVAL_US: u64 = 50_000;
const DELTAS: u64 = 8;
const DELTA_GAP_MS: u64 = 800;
const GATE_APPROX_QUERIES: usize = 60;
const GATE_EXACT_CLIENTS: usize = 2;
const GATE_EXACT_PER_CLIENT: usize = 30;

fn serve_config() -> ServeConfig {
    ServeConfig {
        engine: EngineConfig {
            cache_walks: 16,
            cache_max_hops: 32,
            ..EngineConfig::default()
        },
        panel_k: 8,
        window_us: 500,
        snapshot_slots: 4,
        cache_dir: None,
        approx_epsilon: 0.25,
    }
}

fn producer_config() -> sr_gen::ProducerConfig {
    sr_gen::ProducerConfig {
        seed: 99,
        new_pages_per_delta: 32,
        new_links_per_delta: 96,
        removals_per_delta: 16,
        new_source_period: 3,
        spam_campaign_period: 4,
    }
}

/// Well-spread page id for the i-th request (Knuth multiplicative hash).
fn spread(i: u32, n: u32) -> u32 {
    i.wrapping_mul(2_654_435_761) % n
}

/// The k-th request of a load-phase client thread: a fixed mixed-class
/// rotation. Seeds stay below the seed-epoch page count so the same id is
/// valid on both the approx path (pinned epoch-0 cache graph) and the
/// exact path.
fn issue(
    client: &mut ServeClient,
    thread: usize,
    k: usize,
    n0: u32,
    sources: u32,
) -> (QueryClass, u64) {
    let i = u32::try_from(thread * QUERIES_PER_CLIENT + k).unwrap();
    let page = spread(i, n0);
    let start = Instant::now();
    let class = match k % 10 {
        0..=3 => {
            client.rank(page).expect("rank");
            QueryClass::Rank
        }
        4 | 5 => {
            let domain = if k % 20 < 10 {
                RankDomain::PageRank
            } else {
                RankDomain::Resilient
            };
            client.top_k(domain, 10).expect("top_k");
            QueryClass::TopK
        }
        6 => {
            client.source_score(i % sources).expect("source_score");
            QueryClass::SourceScore
        }
        7 | 8 => {
            client
                .ppr(PprMode::Approx, vec![page], 10)
                .expect("approx ppr");
            QueryClass::ApproxPpr
        }
        _ => {
            client
                .ppr(PprMode::Exact, seed_pair(i, n0), 10)
                .expect("exact ppr");
            QueryClass::ExactPpr
        }
    };
    let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    (class, micros)
}

/// Two distinct in-range seeds (one when the arithmetic collides).
fn seed_pair(i: u32, n0: u32) -> Vec<u32> {
    let a = spread(i, n0);
    let b = (a + 1 + (i % 97)) % n0;
    if a == b {
        vec![a]
    } else {
        vec![a.min(b), a.max(b)]
    }
}

fn class_json(label: &str, samples: &sr_obs::LatencySamples) -> String {
    format!(
        concat!(
            "    \"{}\": {{ \"count\": {}, \"p50_us\": {}, ",
            "\"p99_us\": {}, \"mean_us\": {:.1} }}"
        ),
        label,
        samples.count(),
        samples.percentile_us(50.0).unwrap_or(0),
        samples.percentile_us(99.0).unwrap_or(0),
        samples.mean_us().unwrap_or(0.0),
    )
}

fn main() {
    let crawl = kernel_crawl();
    let spam_seeds = crawl.sample_spam_seed((crawl.spam_sources.len() / 10).max(1), 7);
    let n0 = u32::try_from(crawl.num_pages()).unwrap();
    let n_sources = u32::try_from(crawl.num_sources()).unwrap();
    let n_edges = crawl.pages.num_edges();

    let config = serve_config();
    println!(
        "bench_serve: seeding engine on {} pages / {} edges ...",
        n0, n_edges
    );
    let seed_start = Instant::now();
    let mut handle = serve(
        crawl.pages.clone(),
        &crawl.assignment,
        spam_seeds.clone(),
        &config,
    )
    .expect("server start");
    let seed_sec = seed_start.elapsed().as_secs_f64();
    println!("bench_serve: engine seeded in {seed_sec:.2}s; gate phase");
    let addr = handle.addr();

    // --- phase 1: the fast-path gate, measured on a quiet server ---------
    // Warmup: the first approx query faults the walk-cache file into the
    // page cache (~10x the steady-state latency); a serving deployment
    // warms before taking traffic, so the gate measures steady state.
    let mut gate_approx = sr_obs::LatencySamples::default();
    {
        let mut client = ServeClient::connect(addr).expect("gate connect");
        for k in 0..4u32 {
            client
                .ppr(PprMode::Approx, vec![spread(k, n0)], 10)
                .expect("warmup approx");
        }
        client
            .ppr(PprMode::Exact, vec![0], 10)
            .expect("warmup exact");
        for k in 0..GATE_APPROX_QUERIES {
            let page = spread(u32::try_from(k).unwrap(), n0);
            let start = Instant::now();
            client
                .ppr(PprMode::Approx, vec![page], 10)
                .expect("gate approx");
            gate_approx.record(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
    }
    let gate_exact = {
        let recorder = Arc::new(LatencyRecorder::new());
        let workers: Vec<_> = (0..GATE_EXACT_CLIENTS)
            .map(|t| {
                let recorder = Arc::clone(&recorder);
                std::thread::spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("gate connect");
                    for k in 0..GATE_EXACT_PER_CLIENT {
                        let i = u32::try_from(t * GATE_EXACT_PER_CLIENT + k).unwrap();
                        let start = Instant::now();
                        client
                            .ppr(PprMode::Exact, seed_pair(i, n0), 10)
                            .expect("gate exact");
                        recorder.record(
                            QueryClass::ExactPpr,
                            u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX),
                        );
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("gate exact client");
        }
        Arc::try_unwrap(recorder)
            .expect("gate workers joined")
            .snapshot(QueryClass::ExactPpr)
    };
    let approx_p99 = gate_approx.percentile_us(99.0).expect("approx samples");
    let exact_p50 = gate_exact.percentile_us(50.0).expect("exact samples");
    println!(
        "bench_serve: gate approx p99 {approx_p99}us vs exact-batched p50 {exact_p50}us; load phase"
    );

    // Pre-materialize the delta stream so the offline parity replay below
    // folds exactly what the server ingested.
    let mut producer = sr_gen::CrawlDeltaProducer::from_crawl(&crawl, producer_config());
    let deltas: Vec<_> = (0..DELTAS).map(|_| producer.next_delta()).collect();

    // --- phase 2: open-loop mixed load with concurrent ingest -------------
    let recorder = Arc::new(LatencyRecorder::new());
    let load_start = Instant::now();

    let ingest_deltas = deltas.clone();
    let ingest_recorder = Arc::clone(&recorder);
    let ingest = std::thread::spawn(move || {
        let mut client = ServeClient::connect(addr).expect("ingest connect");
        for (i, delta) in ingest_deltas.iter().enumerate() {
            std::thread::sleep(Duration::from_millis(DELTA_GAP_MS));
            let start = Instant::now();
            let seq = client.ingest(delta).expect("ingest");
            let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            ingest_recorder.record(QueryClass::IngestDelta, micros);
            assert_eq!(seq, i as u64 + 1, "ingest seq is the stream order");
        }
    });

    let clients: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let recorder = Arc::clone(&recorder);
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("client connect");
                let t0 = Instant::now();
                for k in 0..QUERIES_PER_CLIENT {
                    let planned = Duration::from_micros(k as u64 * INTERARRIVAL_US);
                    if let Some(wait) = planned.checked_sub(t0.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let (class, micros) = issue(&mut client, t, k, n0, n_sources);
                    recorder.record(class, micros);
                }
            })
        })
        .collect();

    for c in clients {
        c.join().expect("client thread");
    }
    ingest.join().expect("ingest thread");

    // Drain the write path: the load may finish while the writer is still
    // folding the tail of the stream.
    let mut client = ServeClient::connect(addr).expect("drain connect");
    let stats = loop {
        let s = client.stats().expect("stats");
        if s.applied_seq >= DELTAS {
            break s;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let load_sec = load_start.elapsed().as_secs_f64();

    // --- offline replay parity (bitwise) ---------------------------------
    let cache = std::env::temp_dir().join(format!(
        "sr_bench_serve_replay_{}.walks",
        std::process::id()
    ));
    let (mut offline, _) = EpochEngine::seed(
        crawl.pages.clone(),
        &crawl.assignment,
        spam_seeds,
        &config.engine,
        &cache,
    )
    .expect("offline seed");
    let mut offline_snap = None;
    for (i, delta) in deltas.iter().enumerate() {
        offline_snap = Some(offline.step(i as u64 + 1, delta).expect("offline step"));
    }
    let offline_snap = offline_snap.expect("at least one delta");
    std::fs::remove_file(&cache).ok();

    let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    let mut parity = true;
    for (domain, offline_vec) in [
        (RankDomain::PageRank, offline_snap.pagerank.scores()),
        (RankDomain::Resilient, offline_snap.resilient.scores()),
        (RankDomain::SourceRank, offline_snap.sourcerank.scores()),
        (RankDomain::Proximity, offline_snap.proximity.scores()),
    ] {
        let served = client.dump_ranks(domain).expect("dump");
        parity &= bits(&served) == bits(offline_vec);
    }

    let published = handle.published();
    let stalls = handle.reader_stalls();
    client.shutdown().expect("shutdown");
    handle.shutdown();

    // --- gates ------------------------------------------------------------
    assert!(
        approx_p99 < exact_p50,
        "approx-PPR p99 ({approx_p99}us) must beat exact-batched p50 ({exact_p50}us)"
    );
    assert_eq!(stalls, 0, "zero reader stalls across the run");
    assert!(parity, "served ranks must equal offline replay bitwise");
    assert_eq!(stats.applied_seq, DELTAS);
    assert_eq!(published, DELTAS, "one published epoch per delta");

    // --- report -----------------------------------------------------------
    let latency_rows: Vec<String> = QueryClass::ALL
        .iter()
        .map(|&c| class_json(c.label(), &recorder.snapshot(c)))
        .filter(|row| !row.contains("\"count\": 0"))
        .collect();
    let updates = vec![
        ("bench".to_string(), "\"serve\"".to_string()),
        ("workload".to_string(), "\"kernel_crawl\"".to_string()),
        (
            "graph".to_string(),
            format!("{{ \"nodes\": {n0}, \"edges\": {n_edges} }}"),
        ),
        (
            "config".to_string(),
            format!(
                concat!(
                    "{{ \"clients\": {}, \"queries_per_client\": {}, ",
                    "\"interarrival_us\": {}, \"panel_k\": {}, ",
                    "\"window_us\": {}, \"snapshot_slots\": {}, ",
                    "\"cache_walks\": {}, \"approx_epsilon\": {}, ",
                    "\"deltas\": {}, \"delta_gap_ms\": {} }}"
                ),
                CLIENTS,
                QUERIES_PER_CLIENT,
                INTERARRIVAL_US,
                config.panel_k,
                config.window_us,
                config.snapshot_slots,
                config.engine.cache_walks,
                config.approx_epsilon,
                DELTAS,
                DELTA_GAP_MS,
            ),
        ),
        ("seed_solve_sec".to_string(), format!("{seed_sec:.2}")),
        ("load_sec".to_string(), format!("{load_sec:.2}")),
        (
            "latency_loaded".to_string(),
            format!("{{\n{}\n  }}", latency_rows.join(",\n")),
        ),
        (
            "latency_unloaded_gate".to_string(),
            format!(
                "{{\n{},\n{}\n  }}",
                class_json("approx_ppr", &gate_approx),
                class_json("exact_ppr", &gate_exact),
            ),
        ),
        (
            "rotation".to_string(),
            format!(
                concat!(
                    "{{ \"published\": {}, \"reader_stalls\": {}, ",
                    "\"applied_seq\": {}, \"compactions\": {} }}"
                ),
                published, stalls, stats.applied_seq, stats.compactions,
            ),
        ),
        (
            "gates".to_string(),
            format!(
                concat!(
                    "{{ \"approx_p99_us\": {}, \"exact_p50_us\": {}, ",
                    "\"approx_beats_exact\": true, \"parity_bitwise\": {}, ",
                    "\"reader_stalls\": {} }}"
                ),
                approx_p99, exact_p50, parity, stalls,
            ),
        ),
    ];
    let existing = std::fs::read_to_string("BENCH_serve.json").ok();
    let json = jsonmerge::merge_sections(existing.as_deref(), &updates);
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("{json}");
}
