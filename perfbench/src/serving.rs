//! The serving workloads: an in-process `sr_serve::serve` on a 120k-page /
//! 1k-source crawl with `ServeConfig::default()`, driven over its TCP wire
//! by two closed-loop connections.
//!
//! `serve_ingest`'s operation is a publish: one connection ingests
//! `CrawlDelta`s in a closed loop (send a delta, then wait until its epoch
//! is published) while the other runs personalized reads, 3 approx : 1
//! exact PPR, top 10. A traced run first adds a phase of point reads with no
//! writer yet, 3 rank : 1 source_score : 2 `top_k(PageRank, 10)`, so the
//! lookup path's layers are measured too.
//!
//! Every reply is checked: lookups and top-k against the server's own
//! dumped vectors (themselves checked against a direct solve or an offline
//! replay), sampled exact PPR against a direct personalized solve bitwise,
//! sampled approx PPR against the exact answer within the engine's stated
//! bound.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sr_core::operator::UniformTransition;
use sr_core::{
    IncrementalConfig, IncrementalRanker, PageRank, QueryConfig, RankSnapshot, RankVector,
    SnapshotRing, SpamProximity, Teleport, ThrottleVector, WalkCacheConfig,
};
use sr_gen::{generate, CrawlConfig, CrawlDeltaProducer, ProducerConfig, SyntheticCrawl};
use sr_graph::{CrawlDelta, CsrGraph};
use sr_obs::QueryClass;
use sr_serve::engine::{EngineConfig, EpochEngine};
use sr_serve::wire::{decode_response, encode_response};
use sr_serve::{
    serve, PanelQueue, PprMode, RankDomain, Request, Response, ServeClient, ServeConfig,
    ServerHandle,
};

use crate::checks::{approx_bound, fingerprint, ranked_matches, same_bits, vector, within_bound};
use crate::rank::in_ram_sweep;
use crate::report::Report;
use crate::rng::SplitMix;
use crate::stats::{median_or_nan, percentile, samples_for_tail};
use crate::trace::Tracer;
use crate::{host, write_trace, Args};

const PAGES: usize = 120_000;
const SOURCES: usize = 1_000;
/// Set-ups per end-to-end run; `setup_s` is their median (the lower
/// middle, so the faster of two). Two, because the walk-cache build makes
/// each set-up several seconds long.
const SETUP_REPS: usize = 2;
const TOP_K: u32 = 10;
/// Samples every latency class needs beyond its reported p90.
const TAIL: usize = 10;
/// A phase may stretch to this multiple of `--seconds` to collect them.
const STRETCH: f64 = 4.0;
/// Share of `--seconds` given to the point phase.
const POINT_SHARE: f64 = 0.5;
/// Deltas `serve_ingest` streams per second of `--seconds` (a publish takes
/// about 120 ms beside the reader on a 2-core host). The writer's cost grows
/// with the overlay until a compaction folds it, so every run ingests the
/// same number of deltas rather than as many as fit a time window: each run
/// then covers the same stretch of overlay growth.
const DELTAS_PER_SECOND: f64 = 8.0;
/// Every this-many personalized requests of a mode, a connection keeps the
/// reply for the answer check, up to `CHECK_MAX` per mode.
const CHECK_EVERY: usize = 16;
const CHECK_MAX: usize = 3;
/// Per-node failure probability at which the approx bound is stated.
const APPROX_DELTA: f64 = 1e-6;
/// Longest wait for one delta's epoch to publish before it counts failed.
const PUBLISH_TIMEOUT: Duration = Duration::from_secs(20);
/// Longest ingest phase, however slow the host: keeps a run well inside
/// its time limit.
const INGEST_CAP: Duration = Duration::from_secs(90);
/// Salts separating the seed-derived streams.
const SEED_SALT: u64 = 0x5eed_5a17;
const PRODUCER_SALT: u64 = 0x00de_17a5;
/// Deltas the decomposed replica re-runs stage by stage in a traced run.
const REPLICA_STEPS: usize = 40;

/// Client-side request kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Rank,
    SourceScore,
    TopK,
    Approx,
    Exact,
    Publish,
}

const KINDS: usize = 6;
const POINT_CYCLE: [Kind; 6] = [
    Kind::Rank,
    Kind::TopK,
    Kind::Rank,
    Kind::SourceScore,
    Kind::TopK,
    Kind::Rank,
];
const PPR_CYCLE: [Kind; 4] = [Kind::Approx, Kind::Approx, Kind::Approx, Kind::Exact];

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Rank => "client.rank",
            Kind::SourceScore => "client.source_score",
            Kind::TopK => "client.top_k",
            Kind::Approx => "client.approx_ppr",
            Kind::Exact => "client.exact_ppr",
            Kind::Publish => "client.publish",
        }
    }
}

/// A running server with the inputs it was started from.
struct Served {
    crawl: SyntheticCrawl,
    spam_seeds: Vec<u32>,
    config: ServeConfig,
    handle: ServerHandle,
    setup_s: Vec<f64>,
    gen_s: f64,
}

impl Served {
    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    fn n0(&self) -> u32 {
        u32::try_from(self.crawl.num_pages()).unwrap_or(u32::MAX)
    }
}

/// Generates the crawl, starts the server and warms it (the first approx
/// query decodes the walk table). Repeated `reps` times; the last server
/// stays up.
fn start(args: &Args, run_dir: &Path, reps: usize) -> Result<Served, String> {
    let config = ServeConfig {
        cache_dir: Some(run_dir.to_path_buf()),
        ..ServeConfig::default()
    };
    let mut setup_s = Vec::with_capacity(reps);
    let mut last: Option<Served> = None;
    for _ in 0..reps.max(1) {
        if let Some(mut prev) = last.take() {
            prev.handle.shutdown();
        }
        let start = Instant::now();
        let crawl = generate(&CrawlConfig {
            total_pages: PAGES,
            num_sources: SOURCES,
            seed: args.seed,
            ..CrawlConfig::default()
        });
        let gen_s = start.elapsed().as_secs_f64();
        let spam_seeds = crawl.sample_spam_seed(
            (crawl.spam_sources.len() / 10).max(1),
            args.seed ^ SEED_SALT,
        );
        let handle = serve(
            crawl.pages.clone(),
            &crawl.assignment,
            spam_seeds.clone(),
            &config,
        )
        .map_err(|e| format!("serve: {e}"))?;
        warm_up(
            handle.addr(),
            u32::try_from(crawl.num_pages()).unwrap_or(u32::MAX),
        )?;
        setup_s.push(start.elapsed().as_secs_f64());
        last = Some(Served {
            crawl,
            spam_seeds,
            config: config.clone(),
            handle,
            setup_s: Vec::new(),
            gen_s,
        });
    }
    let mut served = last.expect("at least one set-up ran");
    served.setup_s = setup_s;
    println!(
        "{}: {} pages, {} edges, {} sources, {} spam seeds",
        args.workload,
        served.crawl.num_pages(),
        served.crawl.pages.num_edges(),
        served.crawl.num_sources(),
        served.spam_seeds.len()
    );
    Ok(served)
}

fn warm_up(addr: SocketAddr, n0: u32) -> Result<(), String> {
    let mut c = ServeClient::connect(addr).map_err(|e| format!("warm-up connect: {e}"))?;
    let err = |e: sr_serve::ClientError| format!("warm-up: {e}");
    for k in 0..4u32 {
        c.ppr(
            PprMode::Approx,
            vec![k.wrapping_mul(2_654_435_761) % n0],
            TOP_K,
        )
        .map_err(err)?;
    }
    c.ppr(PprMode::Exact, vec![0], TOP_K).map_err(err)?;
    c.rank(0).map_err(err)?;
    c.source_score(0).map_err(err)?;
    c.top_k(RankDomain::PageRank, TOP_K).map_err(err)?;
    Ok(())
}

/// The server's four vectors, dumped once after set-up; lookups are
/// checked against them bit for bit.
struct Oracle {
    pagerank: RankVector,
    resilient: Vec<f64>,
    sourcerank: Vec<f64>,
    proximity: Vec<f64>,
    /// Top-10 pairs of `pagerank`, sorted once here so checking a top-k
    /// reply costs no sort on the cores the phase is measuring.
    top: Vec<(u32, f64)>,
}

fn dump(addr: SocketAddr) -> Result<[Vec<f64>; 4], String> {
    let mut c = ServeClient::connect(addr).map_err(|e| format!("dump connect: {e}"))?;
    let mut get = |d| c.dump_ranks(d).map_err(|e| format!("dump {d:?}: {e}"));
    Ok([
        get(RankDomain::PageRank)?,
        get(RankDomain::Resilient)?,
        get(RankDomain::SourceRank)?,
        get(RankDomain::Proximity)?,
    ])
}

fn oracle(served: &Served, report: &mut Report) -> Result<Oracle, String> {
    let [pagerank, resilient, sourcerank, proximity] = dump(served.addr())?;
    // The served PageRank must be the direct solve of the crawl, bitwise.
    let direct = PageRank::default().rank(&served.crawl.pages);
    report.op(if same_bits(&pagerank, direct.scores()) {
        Ok(())
    } else {
        Err("served PageRank differs from a direct solve".into())
    });
    let pagerank = vector(pagerank);
    let top = pagerank
        .top_k(TOP_K as usize)
        .into_iter()
        .map(|i| (i, pagerank.scores()[i as usize]))
        .collect();
    Ok(Oracle {
        pagerank,
        resilient,
        sourcerank,
        proximity,
        top,
    })
}

/// Phase control shared by a phase's connections. A timed phase ends once
/// its time share has passed and every needed class holds enough samples
/// for its p90 tail, or at its cap. The ingest phase has no time share: it
/// ends when the ingest connection calls `stop`.
struct Phase {
    start: Instant,
    share_s: f64,
    cap_s: f64,
    counts: [AtomicUsize; KINDS],
    needs: &'static [Kind],
    stopped: AtomicBool,
}

impl Phase {
    fn new(share_s: f64, cap_s: f64, needs: &'static [Kind]) -> Self {
        Phase {
            start: Instant::now(),
            share_s,
            cap_s,
            counts: Default::default(),
            needs,
            stopped: AtomicBool::new(false),
        }
    }

    fn add(&self, kind: Kind) {
        // lint-ok(atomic-ordering): a progress count; no data is published through it
        self.counts[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Every needed class holds enough samples for its p90 tail.
    fn enough(&self) -> bool {
        let min = samples_for_tail(90.0, TAIL);
        self.needs
            .iter()
            .all(|&k| self.counts[k as usize].load(Ordering::Relaxed) >= min)
    }

    fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
    }

    fn done(&self) -> bool {
        let t = self.start.elapsed().as_secs_f64();
        self.stopped.load(Ordering::SeqCst)
            || t >= self.cap_s
            || (t >= self.share_s && self.enough())
    }
}

/// A sampled personalized reply kept for the answer check, with the
/// window of published epochs it may have been solved on.
#[derive(Clone)]
struct PprSample {
    seeds: Vec<u32>,
    reply: Vec<(u32, f64)>,
    epochs: (u64, u64),
}

/// What one connection measured and saw.
#[derive(Default)]
struct ConnOut {
    /// `(kind, seconds, traced)` per completed request.
    samples: Vec<(Kind, f64, bool)>,
    ledger: Report,
    exact: Vec<PprSample>,
    approx: Vec<PprSample>,
    deltas: Vec<CrawlDelta>,
    tracer: Option<Tracer>,
}

impl ConnOut {
    fn traced(origin: Option<Instant>) -> Self {
        ConnOut {
            tracer: origin.map(Tracer::with_origin),
            ..ConnOut::default()
        }
    }
}

/// Two distinct sorted seed pages (one when the draw collides).
fn seed_pair(rng: &mut SplitMix, n0: u32) -> Vec<u32> {
    let (a, b) = (rng.below(n0), rng.below(n0));
    if a == b {
        vec![a]
    } else {
        vec![a.min(b), a.max(b)]
    }
}

fn is_ranked_reply(pairs: &[(u32, f64)]) -> Result<(), String> {
    if pairs.len() != TOP_K as usize {
        return Err(format!("ranked reply has {} pairs", pairs.len()));
    }
    if pairs.iter().any(|p| !p.1.is_finite()) || pairs.windows(2).any(|w| w[0].1 < w[1].1) {
        return Err("ranked reply is not a descending list of scores".into());
    }
    Ok(())
}

/// Checks a lookup or ranked reply; returns the pairs of a PPR reply.
fn verify(
    kind: Kind,
    arg: u32,
    resp: Response,
    oracle: Option<&Oracle>,
) -> Result<Vec<(u32, f64)>, String> {
    match (kind, resp) {
        (_, Response::BadRequest(e) | Response::ServerError(e)) => {
            Err(format!("{kind:?}: typed error: {e}"))
        }
        (Kind::Rank, Response::Score(s)) => match oracle {
            Some(o) if o.pagerank.scores()[arg as usize].to_bits() != s.to_bits() => Err(format!(
                "rank({arg}) = {s:e} differs from the served vector"
            )),
            _ => Ok(Vec::new()),
        },
        (
            Kind::SourceScore,
            Response::SourceScores {
                resilient,
                sourcerank,
                proximity,
            },
        ) => match oracle {
            Some(o)
                if !same_bits(
                    &[resilient, sourcerank, proximity],
                    &[
                        o.resilient[arg as usize],
                        o.sourcerank[arg as usize],
                        o.proximity[arg as usize],
                    ],
                ) =>
            {
                Err(format!(
                    "source_score({arg}) differs from the served vectors"
                ))
            }
            _ => Ok(Vec::new()),
        },
        (Kind::TopK, Response::Ranked(pairs)) => match oracle {
            Some(o) if !same_pairs(&pairs, &o.top) => {
                Err("top_k differs from the served vector's top 10".into())
            }
            _ => Ok(Vec::new()),
        },
        (Kind::Approx | Kind::Exact, Response::Ranked(pairs)) => {
            is_ranked_reply(&pairs)?;
            Ok(pairs)
        }
        (kind, _) => Err(format!("{kind:?}: unexpected reply shape")),
    }
}

fn same_pairs(a: &[(u32, f64)], b: &[(u32, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// One closed-loop read connection running `cycle` until the phase ends.
/// With `origin`, every other request is wrapped in a client span.
fn read_conn(
    served: &Served,
    phase: &Phase,
    cycle: &[Kind],
    oracle: Option<&Oracle>,
    seed: u64,
    conn: u64,
    origin: Option<Instant>,
) -> ConnOut {
    let mut out = ConnOut::traced(origin);
    let mut client = match ServeClient::connect(served.addr()) {
        Ok(c) => c,
        Err(e) => {
            out.ledger.op(Err(format!("connect: {e}")));
            return out;
        }
    };
    let mut rng = SplitMix::new(seed, conn);
    let n0 = served.n0();
    let n_sources = u32::try_from(served.crawl.num_sources()).unwrap_or(u32::MAX);
    let (mut n_approx, mut n_exact) = (0usize, 0usize);
    let mut i = 0usize;
    while !phase.done() {
        let kind = cycle[i % cycle.len()];
        let (arg, request) = match kind {
            Kind::Rank => {
                let page = rng.below(n0);
                (page, Request::Rank { page })
            }
            Kind::SourceScore => {
                let source = rng.below(n_sources);
                (source, Request::SourceScore { source })
            }
            Kind::TopK => (
                0,
                Request::TopK {
                    domain: RankDomain::PageRank,
                    k: TOP_K,
                },
            ),
            Kind::Approx => (
                0,
                Request::Ppr {
                    mode: PprMode::Approx,
                    top_m: TOP_K,
                    seeds: vec![rng.below(n0)],
                },
            ),
            Kind::Exact | Kind::Publish => (
                0,
                Request::Ppr {
                    mode: PprMode::Exact,
                    top_m: TOP_K,
                    seeds: seed_pair(&mut rng, n0),
                },
            ),
        };
        let before = served.handle.published();
        let start = Instant::now();
        let resp = client.roundtrip(&request);
        let end = Instant::now();
        let after = served.handle.published();
        let traced = out.tracer.is_some() && i % 2 == 1;
        if let Some(t) = out.tracer.as_mut().filter(|_| traced) {
            t.record(kind.label(), start, end, (conn << 32) | i as u64);
        }
        let checked = resp
            .map_err(|e| format!("{kind:?}: {e}"))
            .and_then(|r| verify(kind, arg, r, oracle));
        match checked {
            Ok(pairs) => {
                out.ledger.op(Ok(()));
                out.samples
                    .push((kind, end.duration_since(start).as_secs_f64(), traced));
                phase.add(kind);
                let seeds = match request {
                    Request::Ppr { seeds, .. } => seeds,
                    _ => Vec::new(),
                };
                let sample = PprSample {
                    seeds,
                    reply: pairs,
                    epochs: (before, after),
                };
                match kind {
                    Kind::Approx => {
                        if n_approx % CHECK_EVERY == 0 && out.approx.len() < CHECK_MAX {
                            out.approx.push(sample);
                        }
                        n_approx += 1;
                    }
                    Kind::Exact => {
                        if n_exact % CHECK_EVERY == 0 && out.exact.len() < CHECK_MAX {
                            out.exact.push(sample);
                        }
                        n_exact += 1;
                    }
                    _ => {}
                }
            }
            Err(why) => out.ledger.op(Err(why)),
        }
        i += 1;
    }
    out
}

/// The ingest connection: sends a delta, then polls `published()` (sleeping
/// between polls) until its epoch is visible. Streams `deltas` deltas — more
/// only while the reader still lacks samples — then stops the phase.
fn ingest_conn(
    served: &Served,
    phase: &Phase,
    seed: u64,
    deltas: u64,
    origin: Option<Instant>,
) -> ConnOut {
    let mut out = ConnOut::traced(origin);
    match ServeClient::connect(served.addr()) {
        Ok(client) => ingest_stream(served, phase, seed, deltas, client, &mut out),
        Err(e) => out.ledger.op(Err(format!("ingest connect: {e}"))),
    }
    phase.stop();
    out
}

fn ingest_stream(
    served: &Served,
    phase: &Phase,
    seed: u64,
    deltas: u64,
    mut client: ServeClient,
    out: &mut ConnOut,
) {
    let mut producer = CrawlDeltaProducer::from_crawl(&served.crawl, producer_config(seed));
    let mut i = 0u64;
    while (i < deltas || !phase.enough()) && phase.start.elapsed() < INGEST_CAP {
        let delta = producer.next_delta();
        let start = Instant::now();
        let outcome = match client.ingest(&delta) {
            Ok(seq) if seq == i + 1 => loop {
                if served.handle.published() >= seq {
                    break Ok(());
                }
                if start.elapsed() > PUBLISH_TIMEOUT {
                    break Err(format!(
                        "delta {seq} not published within {PUBLISH_TIMEOUT:?}"
                    ));
                }
                std::thread::sleep(Duration::from_micros(200));
            },
            Ok(seq) => Err(format!("ingest returned seq {seq}, expected {}", i + 1)),
            Err(e) => Err(format!("ingest: {e}")),
        };
        let end = Instant::now();
        out.deltas.push(delta);
        i += 1;
        let failed = outcome.is_err();
        out.ledger.op(outcome);
        if failed {
            break;
        }
        let traced = out.tracer.is_some() && i.is_multiple_of(2);
        if let Some(t) = out.tracer.as_mut().filter(|_| traced) {
            t.record(Kind::Publish.label(), start, end, (1 << 40) | i);
        }
        out.samples.push((
            Kind::Publish,
            end.duration_since(start).as_secs_f64(),
            traced,
        ));
        phase.add(Kind::Publish);
    }
}

fn producer_config(seed: u64) -> ProducerConfig {
    ProducerConfig {
        seed: seed ^ PRODUCER_SALT,
        new_pages_per_delta: 32,
        new_links_per_delta: 96,
        removals_per_delta: 16,
        new_source_period: 3,
        spam_campaign_period: 4,
    }
}

/// Latencies of `kinds` in the given unit (`scale` per second), optionally
/// restricted to traced or untraced requests.
fn latencies(outs: &[ConnOut], kinds: &[Kind], scale: f64, traced: Option<bool>) -> Vec<f64> {
    outs.iter()
        .flat_map(|o| o.samples.iter())
        .filter(|(k, _, t)| kinds.contains(k) && traced.is_none_or(|want| *t == want))
        .map(|(_, s, _)| s * scale)
        .collect()
}

fn latency_metrics(
    report: &mut Report,
    outs: &[ConnOut],
    name: &str,
    unit: &'static str,
    kinds: &[Kind],
) {
    let scale = if unit == "us" { 1e6 } else { 1e3 };
    let v = latencies(outs, kinds, scale, None);
    let (p50, p90) = (percentile(&v, 50.0), percentile(&v, 90.0));
    report.detail(
        format!("{name}_p50_{unit}"),
        unit,
        p50.unwrap_or(f64::NAN),
        v.len(),
    );
    report.detail(
        format!("{name}_p90_{unit}"),
        unit,
        p90.unwrap_or(f64::NAN),
        v.len(),
    );
}

fn completed(outs: &[ConnOut], kinds: &[Kind]) -> usize {
    latencies(outs, kinds, 1.0, None).len()
}

/// Direct personalized PageRank of `seeds` over `graph`.
fn direct_ppr(graph: &CsrGraph, seeds: &[u32]) -> Result<RankVector, String> {
    let teleport = Teleport::try_over_seeds(graph.num_nodes(), seeds)
        .map_err(|e| format!("seeds {seeds:?}: {e}"))?;
    Ok(PageRank::builder().teleport(teleport).finish().rank(graph))
}

/// Sampled approx replies against the exact answer on the cache graph
/// (the crawl as served at epoch 0), within the engine's stated bound.
fn check_approx(report: &mut Report, served: &Served, samples: &[PprSample]) {
    let engine = &served.config.engine;
    let bound = approx_bound(
        served.config.approx_epsilon,
        engine.cache_walks,
        engine.cache_max_hops,
        engine.alpha,
        APPROX_DELTA,
    );
    for s in samples {
        report.op(direct_ppr(&served.crawl.pages, &s.seeds)
            .and_then(|exact| within_bound(&s.reply, exact.scores(), bound)));
    }
}

fn merge_conns(report: &mut Report, outs: Vec<ConnOut>) -> (Vec<ConnOut>, Tracer) {
    let mut tracer = Tracer::new();
    let outs = outs
        .into_iter()
        .map(|mut o| {
            report.absorb_ledger(std::mem::take(&mut o.ledger));
            if let Some(t) = o.tracer.take() {
                tracer.absorb(t);
            }
            o
        })
        .collect();
    (outs, tracer)
}

/// Point reads before any delta arrives, on two connections: the served
/// vectors are the dumped ones, so every lookup is checked against them.
/// Returns the connections' samples and the phase's wall time.
fn point_phase(
    served: &Served,
    oracle: &Oracle,
    args: &Args,
    origin: Option<Instant>,
) -> (Vec<ConnOut>, f64) {
    let point = Phase::new(
        args.seconds * POINT_SHARE,
        args.seconds * STRETCH,
        &[Kind::TopK],
    );
    std::thread::scope(|s| {
        let point = &point;
        let workers: Vec<_> = (0..2u64)
            .map(|c| {
                s.spawn(move || {
                    read_conn(
                        served,
                        point,
                        &POINT_CYCLE,
                        Some(oracle),
                        args.seed,
                        c,
                        origin,
                    )
                })
            })
            .collect();
        let outs: Vec<ConnOut> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect();
        (outs, point.start.elapsed().as_secs_f64())
    })
}

/// `serve_ingest`: a closed-loop ingest connection beside a personalized
/// reader (after a point phase in traced runs); after the stream, the
/// served vectors must equal an offline replay.
pub fn ingest(args: &Args, run_dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut served = start(args, run_dir, if args.trace { 1 } else { SETUP_REPS })?;
    let oracle = oracle(&served, &mut report)?;
    let origin = args.trace.then(Instant::now);
    let point = args
        .trace
        .then(|| point_phase(&served, &oracle, args, origin));

    let deltas = (DELTAS_PER_SECOND * args.seconds).round() as u64;
    let phase = Phase::new(f64::INFINITY, f64::INFINITY, &[Kind::Publish]);
    let outs = std::thread::scope(|s| {
        let (served, phase) = (&served, &phase);
        let writer = s.spawn(move || ingest_conn(served, phase, args.seed, deltas, origin));
        let reader =
            s.spawn(move || read_conn(served, phase, &PPR_CYCLE, None, args.seed, 4, origin));
        vec![
            writer.join().expect("ingest thread panicked"),
            reader.join().expect("reader thread panicked"),
        ]
    });
    let phase_s = phase.start.elapsed().as_secs_f64();
    let rss = host::peak_rss_mib().ok_or("VmHWM unavailable")?;
    let (outs, mut tracer) = merge_conns(&mut report, outs);
    let point = point.map(|(point_outs, point_s)| {
        let (point_outs, point_tracer) = merge_conns(&mut report, point_outs);
        tracer.absorb(point_tracer);
        (point_outs, point_s)
    });
    let deltas = &outs[0].deltas;

    // Every delta sent must publish; then the served vectors must equal an
    // offline replay of the same stream, bitwise.
    let mut stats_client =
        ServeClient::connect(served.addr()).map_err(|e| format!("stats connect: {e}"))?;
    let stats = stats_client.stats().map_err(|e| format!("stats: {e}"))?;
    report.op(
        if stats.applied_seq == deltas.len() as u64
            && served.handle.published() == deltas.len() as u64
        {
            Ok(())
        } else {
            Err(format!(
                "{} deltas sent, {} applied",
                deltas.len(),
                stats.applied_seq
            ))
        },
    );
    let served_vectors = dump(served.addr())?;
    // Walks never touch the four vectors; the replay skips the cache.
    let replay_cfg = EngineConfig {
        cache_walks: 0,
        ..served.config.engine.clone()
    };
    let (mut engine, seed_snap) = EpochEngine::seed(
        served.crawl.pages.clone(),
        &served.crawl.assignment,
        served.spam_seeds.clone(),
        &replay_cfg,
        &run_dir.join("replay.walks"),
    )
    .map_err(|e| format!("replay seed: {e}"))?;

    let mut exact: Vec<(PprSample, bool)> =
        outs[1].exact.iter().map(|s| (s.clone(), false)).collect();
    let check_epoch = |epoch: u64, pages: &CsrGraph, pending: &mut Vec<(PprSample, bool)>| {
        for (s, ok) in pending
            .iter_mut()
            .filter(|(s, ok)| !ok && s.epochs.0 <= epoch && epoch <= s.epochs.1)
        {
            *ok = direct_ppr(pages, &s.seeds)
                .is_ok_and(|v| ranked_matches(&s.reply, &v, TOP_K as usize).is_ok());
        }
    };
    check_epoch(0, &seed_snap.pages, &mut exact);
    let mut replica = if args.trace {
        Some(Replica::seed(&served, &seed_snap)?)
    } else {
        None
    };
    let walks = Arc::clone(&seed_snap.walks);
    let ring = SnapshotRing::new(seed_snap, served.config.snapshot_slots);
    let mut step_ms = Vec::with_capacity(deltas.len());
    let mut last = None;
    // Pool busy time over the writer path: the replay's steps, and in a
    // traced run the replica's stage-by-stage steps beside them.
    let busy = args.trace.then(host::BusyMeter::start);
    for (i, delta) in deltas.iter().enumerate() {
        let seq = i as u64 + 1;
        let start = Instant::now();
        let snap = engine
            .step(seq, delta)
            .map_err(|e| format!("replay step {seq}: {e}"))?;
        step_ms.push(start.elapsed().as_secs_f64() * 1e3);
        check_epoch(seq, &snap.pages, &mut exact);
        if let Some(r) = replica.as_mut().filter(|_| i < REPLICA_STEPS) {
            let prints = r.step(&mut tracer, seq, delta, &ring, &walks)?;
            report.op(if prints == snap_prints(&snap) {
                Ok(())
            } else {
                Err(format!(
                    "stage-by-stage replica differs from EpochEngine::step at seq {seq}"
                ))
            });
        }
        last = Some(snap);
    }
    let busy = busy.map(host::BusyMeter::finish);
    let last = last.ok_or("no delta was ingested")?;
    for (s, ok) in &exact {
        report.op(if *ok {
            Ok(())
        } else {
            Err(format!(
                "exact reply for {:?} matches no epoch in {:?}",
                s.seeds, s.epochs
            ))
        });
    }
    check_approx(&mut report, &served, &outs[1].approx);
    for (label, served_v, replay_v) in [
        ("pagerank", &served_vectors[0], &last.pagerank),
        ("resilient", &served_vectors[1], &last.resilient),
        ("sourcerank", &served_vectors[2], &last.sourcerank),
        ("proximity", &served_vectors[3], &last.proximity),
    ] {
        report.op(if same_bits(served_v, replay_v.scores()) {
            Ok(())
        } else {
            Err(format!("served {label} differs from the offline replay"))
        });
    }
    report.op(match served.handle.reader_stalls() {
        0 => Ok(()),
        n => Err(format!("{n} reader stalls")),
    });

    // The reads beside the writer, by class.
    latency_metrics(&mut report, &outs, "approx_ppr", "ms", &[Kind::Approx]);
    latency_metrics(&mut report, &outs, "exact_ppr", "ms", &[Kind::Exact]);
    let ppr_n = completed(&outs, &[Kind::Approx, Kind::Exact]);
    report.detail("ppr_qps", "1/s", ppr_n as f64 / phase_s, ppr_n);
    report.detail(
        "serve.step_ms",
        "ms",
        median_or_nan(&step_ms),
        step_ms.len(),
    );
    let Some((point_outs, point_s)) = point else {
        let publish = latencies(&outs, &[Kind::Publish], 1e3, None);
        report.end_to_end(&served.setup_s, &publish, rss);
        served.handle.shutdown();
        return Ok(report);
    };

    latency_metrics(
        &mut report,
        &point_outs,
        "lookup",
        "us",
        &[Kind::Rank, Kind::SourceScore],
    );
    latency_metrics(&mut report, &point_outs, "top_k", "ms", &[Kind::TopK]);
    let point_n = completed(&point_outs, &[Kind::Rank, Kind::SourceScore, Kind::TopK]);
    report.detail("point_qps", "1/s", point_n as f64 / point_s, point_n);
    trace_overhead(&mut report, &outs, &[Kind::Publish], 1e3);
    let all: Vec<ConnOut> = point_outs.into_iter().chain(outs).collect();
    let client_rank_p50 =
        percentile(&latencies(&all, &[Kind::Rank], 1e6, None), 50.0).unwrap_or(f64::NAN);
    let handler_rank_p50 = handler_layers(&mut report, &served, &all)?;
    report.detail(
        "serve.transport_p50_us",
        "us",
        client_rank_p50 - handler_rank_p50,
        1,
    );
    report.metric(
        "par.busy_frac",
        "ratio",
        busy.unwrap_or(f64::NAN),
        step_ms.len(),
    );
    let apply = tracer.durations_ms("core.incremental_apply");
    report.metric("core.solve_ms", "ms", median_or_nan(&apply), apply.len());
    for (metric, span, unit, scale) in [
        (
            "core.incremental_source_graph_ms",
            "core.incremental_source_graph",
            "ms",
            1.0,
        ),
        ("core.proximity_ms", "core.proximity", "ms", 1.0),
        ("graph.overlay_to_csr_ms", "graph.overlay_to_csr", "ms", 1.0),
        (
            "core.snapshot_publish_us",
            "core.snapshot_publish",
            "us",
            1e3,
        ),
    ] {
        let d: Vec<f64> = tracer
            .durations_ms(span)
            .iter()
            .map(|v| v * scale)
            .collect();
        report.detail(metric, unit, median_or_nan(&d), d.len());
    }
    let r = replica.as_ref().ok_or("traced run without a replica")?;
    report.metric(
        "core.solve_iters",
        "count",
        median_or_nan(&r.pagerank_iters),
        r.pagerank_iters.len(),
    );
    report.detail(
        "core.proximity_iters",
        "count",
        median_or_nan(&r.proximity_iters),
        r.proximity_iters.len(),
    );
    let covers: Vec<f64> = r.roots.iter().map(|&id| tracer.child_cover(id)).collect();
    report.metric(
        "trace.stage_sum_frac",
        "ratio",
        median_or_nan(&covers),
        covers.len(),
    );
    report.detail(
        "serve.reader_stalls",
        "count",
        served.handle.reader_stalls() as f64,
        1,
    );
    report.detail("serve.compactions", "count", stats.compactions as f64, 1);
    drop(ring);
    drop(engine);
    drop(replica);
    let (engine, snapshot_ring) = replica_layers(&mut report, &served, run_dir)?;
    drop(engine);
    let snap = snapshot_ring.load();
    let mut top = Vec::new();
    for _ in 0..20 {
        let start = Instant::now();
        std::hint::black_box(snap.pagerank.top_k(TOP_K as usize));
        top.push(start.elapsed().as_secs_f64() * 1e3);
    }
    report.detail("core.top_k_ms", "ms", median_or_nan(&top), top.len());
    let loads = 200_000u32;
    let start = Instant::now();
    for _ in 0..loads {
        std::hint::black_box(snapshot_ring.load());
    }
    report.detail(
        "core.snapshot_load_ns",
        "ns",
        start.elapsed().as_nanos() as f64 / f64::from(loads),
        loads as usize,
    );
    drop(snap);
    drop(snapshot_ring);
    let copy_bytes_s = host::block(&mut report);
    in_ram_sweep(&mut report, &served.crawl.pages, copy_bytes_s);
    write_trace(args, &tracer);
    served.handle.shutdown();
    Ok(report)
}

fn snap_prints(snap: &RankSnapshot) -> Vec<(u64, usize)> {
    [
        &snap.pagerank,
        &snap.sourcerank,
        &snap.resilient,
        &snap.proximity,
    ]
    .into_iter()
    .map(fingerprint)
    .collect()
}

/// `EpochEngine::step` re-run stage by stage through the public calls it
/// makes, each stage in its own span under one root per delta.
struct Replica {
    ranker: IncrementalRanker,
    prox: SpamProximity,
    spam_seeds: Vec<u32>,
    throttle_k: usize,
    cache_pages: Arc<CsrGraph>,
    roots: Vec<usize>,
    pagerank_iters: Vec<f64>,
    proximity_iters: Vec<f64>,
}

impl Replica {
    /// Seeds exactly as `EpochEngine::seed` does.
    fn seed(served: &Served, seed_snap: &RankSnapshot) -> Result<Self, String> {
        let cfg = &served.config.engine;
        let mut ranker = IncrementalRanker::new(
            served.crawl.pages.clone(),
            &served.crawl.assignment,
            IncrementalConfig {
                alpha: cfg.alpha,
                criteria: cfg.criteria,
                compact_threshold: cfg.compact_threshold,
                ..IncrementalConfig::default()
            },
        )
        .map_err(|e| format!("replica: {e}"))?;
        let prox = SpamProximity::new().beta(cfg.alpha).criteria(cfg.criteria);
        let proximity = prox
            .scores(&ranker.source_graph(), &served.spam_seeds)
            .map_err(|e| format!("replica proximity: {e}"))?;
        ranker.set_throttle(ThrottleVector::top_k_complete(
            proximity.scores(),
            cfg.throttle_k,
        ));
        ranker.rerank(None);
        Ok(Replica {
            ranker,
            prox,
            spam_seeds: served.spam_seeds.clone(),
            throttle_k: cfg.throttle_k,
            cache_pages: Arc::clone(&seed_snap.cache_pages),
            roots: Vec::new(),
            pagerank_iters: Vec::new(),
            proximity_iters: Vec::new(),
        })
    }

    /// One traced step; publishes its snapshot into `ring` and returns the
    /// fingerprints of its four vectors.
    fn step(
        &mut self,
        tr: &mut Tracer,
        seq: u64,
        delta: &CrawlDelta,
        ring: &SnapshotRing,
        walks: &Arc<sr_graph::WalkStore>,
    ) -> Result<Vec<(u64, usize)>, String> {
        let root = tr.begin("serve.replica_step", seq);
        let s = tr.begin("core.incremental_apply", seq);
        let out = self
            .ranker
            .apply(delta, None)
            .map_err(|e| format!("replica apply: {e}"))?;
        tr.end(s);
        let s = tr.begin("core.incremental_source_graph", seq);
        let sg = self.ranker.source_graph();
        tr.end(s);
        let s = tr.begin("core.proximity", seq);
        let proximity = self
            .prox
            .scores(&sg, &self.spam_seeds)
            .map_err(|e| format!("replica proximity: {e}"))?;
        tr.end(s);
        let s = tr.begin("core.throttle_refresh", seq);
        self.ranker.set_throttle(ThrottleVector::top_k_complete(
            proximity.scores(),
            self.throttle_k,
        ));
        tr.end(s);
        let s = tr.begin("graph.overlay_to_csr", seq);
        let pages = Arc::new(self.ranker.graph().to_csr());
        tr.end(s);
        let snap = RankSnapshot {
            epoch: seq,
            applied_seq: seq,
            pagerank: out.pagerank,
            sourcerank: out.sourcerank,
            resilient: out.resilient,
            proximity,
            pages,
            cache_pages: Arc::clone(&self.cache_pages),
            walks: Arc::clone(walks),
            compactions: u64::try_from(self.ranker.compactions()).unwrap_or(u64::MAX),
        };
        let prints = snap_prints(&snap);
        self.pagerank_iters
            .push(snap.pagerank.stats().iterations as f64);
        self.proximity_iters
            .push(snap.proximity.stats().iterations as f64);
        let s = tr.begin("core.snapshot_publish", seq);
        ring.publish(snap);
        tr.end(s);
        tr.end(root);
        self.roots.push(root);
        Ok(prints)
    }
}

/// Tracing overhead: p50 of traced requests over p50 of untraced requests
/// of the same classes in the same phase, minus one, in percent.
fn trace_overhead(report: &mut Report, outs: &[ConnOut], kinds: &[Kind], scale: f64) {
    let traced = latencies(outs, kinds, scale, Some(true));
    let plain = latencies(outs, kinds, scale, Some(false));
    let pct = (median_or_nan(&traced) / median_or_nan(&plain) - 1.0) * 100.0;
    report.metric("trace.overhead_pct", "%", pct, traced.len());
}

/// Server-side layers read from the running server: handler time per class,
/// recorder memory, codec cost and reply size per class, panel drains and
/// panel width. Returns the handler p50 of rank lookups in µs.
fn handler_layers(report: &mut Report, served: &Served, outs: &[ConnOut]) -> Result<f64, String> {
    let h = &served.handle;
    let mut samples = 0usize;
    let mut rank_p50 = f64::NAN;
    for class in QueryClass::ALL {
        let s = h.latency(class);
        samples += s.count();
        if class == QueryClass::Stats || s.count() == 0 {
            continue;
        }
        let p50 = s.percentile_us(50.0).unwrap_or(0) as f64;
        if class == QueryClass::Rank {
            rank_p50 = p50;
        }
        report.detail(
            format!("serve.handler_p50_us.{}", class.label()),
            "us",
            p50,
            s.count(),
        );
    }
    report.detail(
        "obs.latency_sample_bytes",
        "B",
        (samples * 8) as f64,
        samples,
    );

    let mut client =
        ServeClient::connect(served.addr()).map_err(|e| format!("codec connect: {e}"))?;
    for (label, request) in [
        ("rank", Request::Rank { page: 0 }),
        ("source_score", Request::SourceScore { source: 0 }),
        (
            "top_k",
            Request::TopK {
                domain: RankDomain::PageRank,
                k: TOP_K,
            },
        ),
        (
            "approx_ppr",
            Request::Ppr {
                mode: PprMode::Approx,
                top_m: TOP_K,
                seeds: vec![0],
            },
        ),
        (
            "exact_ppr",
            Request::Ppr {
                mode: PprMode::Exact,
                top_m: TOP_K,
                seeds: vec![0, 1],
            },
        ),
    ] {
        let reply = client
            .roundtrip(&request)
            .map_err(|e| format!("codec {label}: {e}"))?;
        let mut buf = Vec::new();
        encode_response(&reply, &mut buf);
        let bytes = buf.len();
        let reps = 2000u32;
        let start = Instant::now();
        for _ in 0..reps {
            buf.clear();
            encode_response(std::hint::black_box(&reply), &mut buf);
            std::hint::black_box(
                decode_response(&buf).map_err(|e| format!("decode {label}: {e:?}"))?,
            );
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / f64::from(reps);
        report.detail(format!("serve.codec_us.{label}"), "us", us, reps as usize);
        report.detail(format!("serve.reply_bytes.{label}"), "B", bytes as f64, 1);
    }
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let exact = completed(outs, &[Kind::Exact]) + 1;
    report.detail(
        "serve.panel_width",
        "ratio",
        exact as f64 / stats.panels_solved.max(1) as f64,
        exact,
    );

    let engine = &served.config.engine;
    let queue = PanelQueue::new(8, served.config.window_us, engine.alpha, engine.criteria);
    let mut rng = SplitMix::new(0x9a7e1, 0);
    for k in [1usize, 2, 8] {
        let mut times = Vec::new();
        for _ in 0..3 {
            let slots: Vec<_> = (0..k)
                .filter_map(|_| queue.submit(seed_pair(&mut rng, served.n0())))
                .collect();
            let start = Instant::now();
            queue.drain_once(&served.crawl.pages);
            times.push(start.elapsed().as_secs_f64() * 1e3);
            for slot in slots {
                report.op(slot.wait().map(drop));
            }
        }
        report.detail(
            format!("serve.panel_drain_ms.k{k}"),
            "ms",
            median_or_nan(&times),
            times.len(),
        );
    }
    Ok(rank_p50)
}

/// Set-up layers re-run on a replica of the served crawl: engine seed,
/// walk-cache build, walk-table decode, approx queries and the in-RAM
/// operator build. Returns the replica engine and a ring over its seed
/// snapshot.
fn replica_layers(
    report: &mut Report,
    served: &Served,
    run_dir: &Path,
) -> Result<(EpochEngine, SnapshotRing), String> {
    let cfg = &served.config.engine;
    report.metric("gen.input_s", "s", served.gen_s, 1);
    let start = Instant::now();
    let (engine, snapshot) = EpochEngine::seed(
        served.crawl.pages.clone(),
        &served.crawl.assignment,
        served.spam_seeds.clone(),
        cfg,
        &run_dir.join("replica.walks"),
    )
    .map_err(|e| format!("replica seed: {e}"))?;
    report.detail("serve.seed_s", "s", start.elapsed().as_secs_f64(), 1);

    let solver = PageRank::builder()
        .alpha(cfg.alpha)
        .criteria(cfg.criteria)
        .finish();
    let start = Instant::now();
    let store = solver
        .build_walk_cache(
            &served.crawl.pages,
            WalkCacheConfig {
                walks: cfg.cache_walks,
                max_hops: cfg.cache_max_hops,
                seed: cfg.cache_seed,
                ..WalkCacheConfig::default()
            },
            &run_dir.join("layer.walks"),
        )
        .map_err(|e| format!("walk cache: {e}"))?;
    report.detail(
        "core.walk_cache_build_s",
        "s",
        start.elapsed().as_secs_f64(),
        1,
    );
    let start = Instant::now();
    store.table().map_err(|e| format!("walk table: {e}"))?;
    report.detail(
        "graph.walk_table_decode_ms",
        "ms",
        start.elapsed().as_secs_f64() * 1e3,
        1,
    );

    let approx = solver
        .approx(&served.crawl.pages, &store)
        .map_err(|e| format!("approx: {e}"))?;
    let query = QueryConfig {
        epsilon: served.config.approx_epsilon,
        ..QueryConfig::default()
    };
    let mut rng = SplitMix::new(0xa9905, 0);
    let (mut times, mut rounds) = (Vec::new(), Vec::new());
    for _ in 0..20 {
        let start = Instant::now();
        let v = approx
            .query(&[rng.below(served.n0())], &query)
            .map_err(|e| format!("approx query: {e}"))?;
        times.push(start.elapsed().as_secs_f64() * 1e3);
        rounds.push(v.stats().iterations as f64);
    }
    report.detail(
        "core.approx_query_ms",
        "ms",
        median_or_nan(&times),
        times.len(),
    );
    report.detail(
        "core.approx_push_rounds",
        "count",
        median_or_nan(&rounds),
        rounds.len(),
    );

    let mut builds = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        std::hint::black_box(UniformTransition::new(&served.crawl.pages));
        builds.push(start.elapsed().as_secs_f64() * 1e3);
    }
    report.metric(
        "core.operator_build_ms",
        "ms",
        median_or_nan(&builds),
        builds.len(),
    );
    Ok((
        engine,
        SnapshotRing::new(snapshot, served.config.snapshot_slots),
    ))
}
