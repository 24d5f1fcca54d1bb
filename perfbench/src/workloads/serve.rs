//! `extract-serve`: the daemon (`rextract_serve::serve`) with 2 workers
//! and two installed wrappers. 2 client threads, one keep-alive
//! connection each, send pipelined bursts of 8 `POST /extract` requests
//! (closed loop); each burst names one wrapper, alternating by burst.
//!
//! Truth: every 200 or 422 must match the library result for its body
//! (`Wrapper::extract_target` on the same artifact, computed off the
//! clock); any other status is a failure.

use super::{PerItem, StoreDelta};
use crate::gen::{self, Family};
use crate::http::{self, json_u64, json_u64_array, Conn};
use crate::report::{ratio, Outcome};
use crate::spec::*;
use crate::stats::{median, percentile, Recorder};
use crate::trace::Tracer;
use crate::RunConfig;
use rextract_extraction::extract::{ExtractFailure, ExtractScratch, Extractor};
use rextract_extraction::query::JsonValue;
use rextract_html::tokenize;
use rextract_learn::perturb::Perturber;
use rextract_serve::http::parse_request;
use rextract_serve::{serve, ServeConfig, ServerHandle};
use rextract_wrapper::{Wrapper, WrapperError, WrapperScratch};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const FAMILIES: [Family; 2] = [Family::Search, Family::Listing];

/// What the library path says the daemon must answer for a body.
#[derive(Debug, Clone, PartialEq)]
enum Expect {
    Found(u64),
    Unprocessable(Vec<u64>),
}

/// The request pool: per wrapper, the bodies, their exact request bytes
/// and the expected answers.
struct Pool {
    bodies: [Vec<String>; 2],
    requests: [Vec<Vec<u8>>; 2],
    expect: [Vec<Expect>; 2],
}

fn expect_for(w: &Wrapper, body: &str) -> Result<Expect, String> {
    match w.extract_target(&tokenize(body)) {
        Ok(t) => Ok(Expect::Found(t as u64)),
        Err(WrapperError::Extract(ExtractFailure::NoMatch)) => {
            Ok(Expect::Unprocessable(Vec::new()))
        }
        Err(WrapperError::Extract(ExtractFailure::AmbiguousMatch(p))) => {
            Ok(Expect::Unprocessable(p.iter().map(|&x| x as u64).collect()))
        }
        Err(e) => Err(format!("library path failed outside extraction: {e}")),
    }
}

fn build_pool(seed: u64, wrappers: &[Wrapper; 2]) -> Result<Pool, String> {
    let mut g = gen::site(gen::mix(seed, 4));
    let mut p = Perturber::new(gen::mix(seed, 5));
    let mut pool = Pool {
        bodies: [Vec::new(), Vec::new()],
        requests: [Vec::new(), Vec::new()],
        expect: [Vec::new(), Vec::new()],
    };
    for (w, family) in FAMILIES.iter().enumerate() {
        for _ in 0..SERVE_BODIES {
            let body = gen::page(&mut g, &mut p, *family, SERVE_EDITS).html;
            pool.expect[w].push(expect_for(&wrappers[w], &body)?);
            pool.requests[w].push(http::request(
                "POST",
                &format!("/extract?wrapper={}", family.wrapper()),
                &body,
            ));
            pool.bodies[w].push(body);
        }
    }
    Ok(pool)
}

fn check(status: u16, body: &str, want: &Expect) -> Result<(), String> {
    let ok = match want {
        Expect::Found(p) => {
            status == 200
                && json_u64(body, "position") == Some(*p)
                && json_u64(body, "wrapper_revision") == Some(1)
        }
        Expect::Unprocessable(ps) => {
            status == 422 && json_u64_array(body, "positions").as_ref() == Some(ps)
        }
    };
    ok.then_some(())
        .ok_or_else(|| format!("status {status} body {body} but the library path says {want:?}"))
}

/// One answered request, as a client saw it.
struct Sent {
    start: Instant,
    end: Instant,
    wrapper: usize,
    body: usize,
    tokenize_us: u64,
    extract_us: u64,
}

enum Stop {
    At(Instant),
    Bursts(usize),
}

/// A client's closed loop. Burst `k` names wrapper `k % 2`; its bodies
/// are consecutive in that wrapper's pool, interleaved across clients.
fn client(addr: SocketAddr, c: usize, pool: &Pool, stop: &Stop, seen: &mut Seen) -> Outcome {
    let mut out = Outcome::default();
    let mut prev_end = seen.started.elapsed().as_secs_f64();
    let mut conn = None;
    let mut burst = Vec::new();
    for k in 0.. {
        match stop {
            Stop::At(t) if Instant::now() >= *t => break,
            Stop::Bursts(n) if k >= *n => break,
            _ => {}
        }
        let w = k % 2;
        let base = ((k / 2) * SERVE_CLIENTS + c) * SERVE_BURST;
        let picks: Vec<usize> = (0..SERVE_BURST)
            .map(|j| (base + j) % SERVE_BODIES)
            .collect();
        burst.clear();
        for &b in &picks {
            burst.extend_from_slice(&pool.requests[w][b]);
        }
        if conn.is_none() {
            match Conn::connect(addr) {
                Ok(c) => conn = Some(c),
                Err(e) => {
                    out.check(Err(format!("connect: {e}")));
                    break;
                }
            }
        }
        let c = conn.as_mut().expect("connected above");
        let start = Instant::now();
        if let Err(e) = c.send(&burst) {
            out.check(Err(format!("send: {e}")));
            conn_reset(&mut out, SERVE_BURST - 1);
            conn = None;
            continue;
        }
        for (j, &b) in picks.iter().enumerate() {
            match c.read_response() {
                Ok((status, body)) => {
                    let end = Instant::now();
                    out.check(check(status, &body, &pool.expect[w][b]));
                    // A client is always busy: its busy time per answer
                    // is the gap since its previous answer.
                    let end_s = (end - seen.started).as_secs_f64();
                    seen.rec
                        .record(end_s, 1.0, end_s - prev_end, gen::us(end - start));
                    prev_end = end_s;
                    if seen.keep {
                        seen.sent.push(Sent {
                            start,
                            end,
                            wrapper: w,
                            body: b,
                            tokenize_us: json_u64(&body, "tokenize_us").unwrap_or(0),
                            extract_us: json_u64(&body, "extract_us").unwrap_or(0),
                        });
                    }
                }
                Err(e) => {
                    out.check(Err(format!("read: {e}")));
                    conn_reset(&mut out, SERVE_BURST - 1 - j);
                    conn = None;
                    break;
                }
            }
        }
    }
    out
}

/// Count the rest of a torn burst as failed.
fn conn_reset(out: &mut Outcome, lost: usize) {
    for _ in 0..lost {
        out.check(Err("burst torn by a connection error".to_string()));
    }
}

/// What the clients of one load pass saw.
struct Seen {
    started: Instant,
    rec: Recorder,
    /// Keep every answered request (the traced pass replays them).
    keep: bool,
    sent: Vec<Sent>,
}

impl Seen {
    fn new(started: Instant, keep: bool) -> Seen {
        Seen {
            started,
            rec: Recorder::new(RATE_WINDOW_S),
            keep,
            sent: Vec::new(),
        }
    }
}

/// Run every client until `stop`; completion times count from `started`.
fn load(
    addr: SocketAddr,
    pool: &Pool,
    stop: Stop,
    keep: bool,
    started: Instant,
    out: &mut Outcome,
) -> Seen {
    let results: Vec<(Seen, Outcome)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SERVE_CLIENTS)
            .map(|c| {
                let stop = &stop;
                s.spawn(move || {
                    let mut seen = Seen::new(started, keep);
                    let o = client(addr, c, pool, stop, &mut seen);
                    (seen, o)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut all = Seen::new(started, keep);
    for (seen, o) in results {
        all.rec.merge(&seen.rec);
        all.sent.extend(seen.sent);
        out.attempted += o.attempted;
        out.failed += o.failed;
        for d in o.divergences {
            if out.divergences.len() < 5 {
                out.divergences.push(d);
            }
        }
    }
    all
}

/// Boot the daemon and install both wrappers: the serve setup.
fn boot(artifacts: &gen::Artifacts) -> Result<ServerHandle, String> {
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: SERVE_WORKERS,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("boot: {e}"))?;
    let mut admin = Conn::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    for (name, text) in [
        ("search", &artifacts.search),
        ("listing", &artifacts.listing),
    ] {
        let (status, body) = admin
            .exchange("POST", &format!("/wrappers/{name}"), text)
            .map_err(|e| format!("install {name}: {e}"))?;
        if status != 201 {
            return Err(format!("install {name}: status {status}: {body}"));
        }
    }
    Ok(handle)
}

/// Daemon counters from `GET /metrics`.
#[derive(Default, Clone, Copy)]
struct Counters {
    batches: f64,
    batched: f64,
    wakeups: f64,
    rejected: f64,
}

fn counters(addr: SocketAddr) -> Result<Counters, String> {
    let (status, body) = Conn::connect(addr)
        .and_then(|mut c| c.exchange("GET", "/metrics", ""))
        .map_err(|e| format!("GET /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics: status {status}"));
    }
    let json = JsonValue::parse(&body).map_err(|e| format!("GET /metrics: {e}"))?;
    let get = |path: &[&str]| -> f64 {
        let mut v = &json;
        for key in path {
            v = match v.as_obj().and_then(|o| o.iter().find(|(k, _)| k == key)) {
                Some((_, x)) => x,
                None => return 0.0,
            };
        }
        v.as_num().unwrap_or(0.0)
    };
    Ok(Counters {
        batches: get(&["batches_dispatched"]),
        batched: get(&["batch_size", "sum"]),
        wakeups: get(&["epoll_wakeups"]),
        rejected: get(&["rejected_total"]),
    })
}

pub fn run(cfg: &RunConfig) -> Result<(Outcome, Option<Tracer>), String> {
    let artifacts = gen::artifacts();
    let mut out = Outcome::default();

    // The library copies the truth is computed with; their import time
    // is the persist.import_us replay of the daemon's installs.
    let mut import_us = Vec::new();
    let mut library = Vec::new();
    for text in [&artifacts.search, &artifacts.listing] {
        let (w, times) = gen::timed_reps(IMPORT_REPS, || Wrapper::import(text));
        import_us.extend(times.iter().map(|s| s * 1e6));
        library.push(w.map_err(|e| e.to_string())?);
    }
    let library: [Wrapper; 2] = library.try_into().map_err(|_| "two wrappers".to_string())?;
    let pool = build_pool(cfg.seed, &library)?;

    // Setup: daemon boot + both installs.
    let daemon = boot(&artifacts)?;
    let addr = daemon.addr();
    let mut sampler = gen::SetupSampler::default();
    let result = measure(
        cfg,
        addr,
        &pool,
        &library,
        &artifacts,
        &mut sampler,
        &mut out,
    );
    daemon.shutdown();
    daemon.join();
    let tracer = result?;

    if !cfg.trace {
        out.e2e.insert("setup_s", median(&sampler.times));
        out.e2e.insert("peak_rss_mb", gen::peak_rss_mb());
    } else {
        out.layers.insert("persist.import_us", median(&import_us));
    }
    Ok((out, tracer))
}

fn measure(
    cfg: &RunConfig,
    addr: SocketAddr,
    pool: &Pool,
    library: &[Wrapper; 2],
    artifacts: &gen::Artifacts,
    sampler: &mut gen::SetupSampler,
    out: &mut Outcome,
) -> Result<Option<Tracer>, String> {
    // First pass, off the clock: every body once per client.
    let bursts = 2 * SERVE_BODIES.div_ceil(SERVE_BURST * SERVE_CLIENTS);
    let mut store = StoreDelta::default();
    store.measure(|| load(addr, pool, Stop::Bursts(bursts), false, Instant::now(), out));

    // The load runs in segments; between two, one setup repetition (a
    // second daemon booted, installed and shut down) runs alone.
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(cfg.measure_secs());
    let mut seen = Seen::new(started, false);
    while Instant::now() < deadline {
        let segment_end = (Instant::now() + Duration::from_secs_f64(SERVE_SEGMENT_S)).min(deadline);
        let part = load(addr, pool, Stop::At(segment_end), false, started, out);
        seen.rec.merge(&part.rec);
        if let Some(booted) = sampler.maybe(started.elapsed(), || boot(artifacts)) {
            let handle = booted?;
            handle.shutdown();
            handle.join();
        }
    }
    if !cfg.trace {
        // The window rate is one client's rate.
        out.e2e
            .insert("throughput_per_s", seen.rec.rate() * SERVE_CLIENTS as f64);
        out.e2e
            .insert("latency_p50_us", seen.rec.percentile_us(0.5));
        out.e2e
            .insert("latency_p90_us", seen.rec.percentile_us(0.9));
        return Ok(None);
    }

    let untraced = traced_pass(addr, pool, library, &mut Tracer::new(false), out)?;
    let mut tracer = Tracer::new(true);
    let before = counters(addr)?;
    let traced = traced_pass(addr, pool, library, &mut tracer, out)?;
    let after = counters(addr)?;
    let per = PerItem::new(tracer.spans(), traced.requests);

    let l = &mut out.layers;
    l.insert("serve.parse_us", per.dur_us("serve.parse"));
    l.insert("serve.server_tokenize_us", traced.server_tokenize_p50);
    l.insert("serve.server_extract_us", traced.server_extract_p50);
    l.insert(
        "serve.residue_us",
        traced.latency_p50
            - traced.parse_p50
            - traced.server_tokenize_p50
            - traced.server_extract_p50,
    );
    l.insert(
        "serve.avg_batch",
        ratio(
            after.batched - before.batched,
            after.batches - before.batches,
        ),
    );
    l.insert(
        "serve.wakeups_per_request",
        ratio(after.wakeups - before.wakeups, traced.requests as f64),
    );
    l.insert("serve.rejected", after.rejected - before.rejected);
    l.insert("html.tokenize_us", per.dur_us("html.tokenize"));
    l.insert(
        "html.tokenize_mb_per_s",
        ratio(traced.bytes as f64 * 1000.0, per.dur_ns("html.tokenize")),
    );
    l.insert(
        "html.tokens_per_page",
        ratio(traced.tokens as f64, traced.requests as f64),
    );
    l.insert("wrapper.abstract_us", per.self_us("wrapper.extract"));
    l.insert("scan.us", per.dur_us("scan"));
    l.insert(
        "scan.ns_per_token",
        ratio(per.dur_ns("scan"), traced.scanned as f64),
    );
    l.insert(
        "trace.overhead_ratio",
        ratio(traced.mean_latency, untraced.mean_latency) - 1.0,
    );
    let rows = [
        ("serve.parse_share", per.dur_us("serve.parse")),
        ("html.tokenize_share", per.dur_us("html.tokenize")),
        ("wrapper.abstract_share", per.self_us("wrapper.extract")),
        ("scan.share", per.dur_us("scan")),
    ];
    // The pass without replays ran just before the traced one, so both
    // see the same machine: its mean latency is the share denominator.
    out.set_shares(&rows, "serve.residue_share", untraced.mean_latency);
    store.report(out);
    Ok(Some(tracer))
}

#[derive(Default)]
struct Traced {
    requests: usize,
    bytes: usize,
    tokens: usize,
    scanned: usize,
    mean_latency: f64,
    latency_p50: f64,
    parse_p50: f64,
    server_tokenize_p50: f64,
    server_extract_p50: f64,
}

/// A fixed request list through the daemon, then (traced) each request's
/// layers replayed in this process on its exact bytes: HTTP parse,
/// tokenize, and extraction with its scan.
fn traced_pass(
    addr: SocketAddr,
    pool: &Pool,
    library: &[Wrapper; 2],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<Traced, String> {
    let seen = load(
        addr,
        pool,
        Stop::Bursts(2 * SERVE_TRACED_BURSTS),
        true,
        Instant::now(),
        out,
    );
    let sent = seen.sent;
    let mut t = Traced {
        requests: sent.len(),
        mean_latency: seen.rec.mean_us(),
        latency_p50: seen.rec.percentile_us(0.5),
        ..Traced::default()
    };
    if !tr.enabled() {
        return Ok(t);
    }
    let extractors: Vec<Extractor> = library
        .iter()
        .map(|w| Extractor::compile(w.expr()))
        .collect();
    let mut scratch: Vec<WrapperScratch> = library.iter().map(|_| WrapperScratch::new()).collect();
    let mut extract_scratch = ExtractScratch::new();
    let mut parse_us = Vec::with_capacity(sent.len());
    for (i, s) in sent.iter().enumerate() {
        let id = i as u32;
        let item = tr.record("request", None, id, false, s.start, s.end);
        let bytes = &pool.requests[s.wrapper][s.body];
        let (_, parse) = tr
            .replay("serve.parse", item, id, || parse_request(bytes))
            .expect("tracer enabled");
        parse_us.push(tr.spans()[parse].dur_ns() as f64 / 1000.0);
        let body = &pool.bodies[s.wrapper][s.body];
        let (tokens, _) = tr
            .replay("html.tokenize", item, id, || tokenize(body))
            .expect("tracer enabled");
        let sc = &mut scratch[s.wrapper];
        let (_, extract) = tr
            .replay("wrapper.extract", item, id, || {
                library[s.wrapper].extract_target_with(&tokens, sc)
            })
            .expect("tracer enabled");
        tr.replay("scan", extract, id, || {
            let _ = extractors[s.wrapper].extract_with(sc.word(), &mut extract_scratch);
        });
        t.bytes += body.len();
        t.tokens += tokens.len();
        t.scanned += sc.word().len();
    }
    t.parse_p50 = percentile(&parse_us, 0.5);
    let server = |f: fn(&Sent) -> u64| {
        percentile(&sent.iter().map(|s| f(s) as f64).collect::<Vec<_>>(), 0.5)
    };
    t.server_tokenize_p50 = server(|s| s.tokenize_us);
    t.server_extract_p50 = server(|s| s.extract_us);
    Ok(t)
}
