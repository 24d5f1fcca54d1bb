//! Experiment E9 — daemon throughput under concurrent load.
//!
//! A load generator, not a criterion microbenchmark: per worker count we
//! boot a fresh `rextract-serve` daemon on an ephemeral port, hammer it
//! from client threads doing `POST /extract` calls with perturbed site
//! pages, and report requests/second plus p50/p99 client-observed
//! latency. Every run must finish without a server error.
//!
//! Clients reuse one TCP connection per thread (HTTP/1.1 keep-alive) by
//! default, so the measured cost is request handling rather than
//! connect/close churn; a connection the server drops (drain, keep-alive
//! timeout) is transparently replaced and counted.
//!
//! With `SERVE_BENCH_PIPELINE=k` (k > 1) each client writes k requests
//! in one segment and then reads k responses — the HTTP/1.1 pipelining
//! mode the epoll core batches on. The pipelined sweep runs twice per
//! worker count: **same-wrapper** (every request names one wrapper, so
//! the event loop coalesces each burst into one batch and the workers
//! amortize a single `WrapperScratch` per batch) and **mixed** (requests
//! alternate between two wrappers, defeating coalescing — the control
//! column). Latency quantiles in pipelined mode are per *burst* of k,
//! not per request; the server-side batch-size histogram is printed
//! from `/metrics` after each run.
//!
//! Knobs (environment):
//!   SERVE_BENCH_CLIENTS     concurrent client threads   (default 16)
//!   SERVE_BENCH_REQUESTS    requests per client         (default 200)
//!   SERVE_BENCH_WORKERS     comma-separated sweep       (default 1,2,4,8)
//!   SERVE_BENCH_KEEPALIVE   1 = reuse connections       (default 1)
//!   SERVE_BENCH_PIPELINE    requests per burst          (default 8; 1 = off)

use rextract_automata::Store;
use rextract_extraction::json::JsonValue;
use rextract_html::writer;
use rextract_learn::perturb::Perturber;
use rextract_serve::{serve, ServeConfig};
use rextract_wrapper::site::{PageStyle, SiteConfig, SiteGenerator};
use rextract_wrapper::wrapper::{TrainPage, Wrapper, WrapperConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn artifact(seed: u64) -> String {
    let mut g = SiteGenerator::new(SiteConfig {
        seed,
        ..SiteConfig::default()
    });
    let pages = vec![
        TrainPage::from(&g.page_with_style(PageStyle::Plain)),
        TrainPage::from(&g.page_with_style(PageStyle::TableEmbedded)),
        TrainPage::from(&g.page_with_style(PageStyle::Busy)),
    ];
    Wrapper::train(&pages, WrapperConfig::default())
        .unwrap()
        .export()
}

/// Pre-rendered request bodies so client threads measure the daemon, not
/// page generation.
fn pages(n: usize, seed: u64) -> Vec<String> {
    let mut g = SiteGenerator::new(SiteConfig {
        seed,
        ..SiteConfig::default()
    });
    let mut p = Perturber::new(seed);
    (0..n)
        .map(|_| {
            let page = g.page();
            let edited = p.perturb(&page.tokens, page.target, 2);
            writer::write(&edited.tokens)
        })
        .collect()
}

/// A client that reuses its TCP connection across requests (HTTP/1.1
/// keep-alive). A connection the server closed — keep-alive timeout,
/// drain, mid-flight failure — is replaced and the request retried once,
/// counted in `reconnects`.
struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    keepalive: bool,
    reconnects: u64,
}

impl Client {
    fn new(addr: SocketAddr, keepalive: bool) -> Client {
        Client {
            addr,
            conn: None,
            keepalive,
            reconnects: 0,
        }
    }

    fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.set_nodelay(true).ok();
        BufReader::new(stream)
    }

    fn post(&mut self, path: &str, body: &str) -> (u16, String) {
        self.exchange("POST", path, body)
    }

    fn get(&mut self, path: &str) -> (u16, String) {
        self.exchange("GET", path, "")
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        let reused = self.conn.is_some();
        match self.try_exchange(method, path, body) {
            Some(r) => r,
            None if reused => {
                // The reused connection died between requests; one fresh
                // connection must succeed.
                self.conn = None;
                self.reconnects += 1;
                self.try_exchange(method, path, body)
                    .expect("request failed even on a fresh connection")
            }
            None => panic!("request failed on a fresh connection"),
        }
    }

    /// One exchange on the current connection; `None` means the
    /// connection is unusable (the caller decides whether to retry).
    fn try_exchange(&mut self, method: &str, path: &str, body: &str) -> Option<(u16, String)> {
        if self.conn.is_none() {
            self.conn = Some(Self::connect(self.addr));
        }
        let connection = if self.keepalive {
            "keep-alive"
        } else {
            "close"
        };
        let msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: {connection}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let reader = self.conn.as_mut().unwrap();
        reader.get_mut().write_all(msg.as_bytes()).ok()?;
        let (status, body, server_close) = Self::read_response(reader, !self.keepalive)?;
        if server_close {
            self.conn = None;
        }
        Some((status, body))
    }

    /// A pipelined burst: every request written in one segment, then all
    /// responses read back in order. `None` means the connection died
    /// mid-burst (the whole burst is retried on a fresh connection).
    fn post_burst(&mut self, paths: &[&str], bodies: &[&str]) -> Vec<u16> {
        let reused = self.conn.is_some();
        match self.try_burst(paths, bodies) {
            Some(s) => s,
            None if reused => {
                self.conn = None;
                self.reconnects += 1;
                self.try_burst(paths, bodies)
                    .expect("burst failed even on a fresh connection")
            }
            None => panic!("burst failed on a fresh connection"),
        }
    }

    fn try_burst(&mut self, paths: &[&str], bodies: &[&str]) -> Option<Vec<u16>> {
        if self.conn.is_none() {
            self.conn = Some(Self::connect(self.addr));
        }
        let mut msg = String::new();
        for (path, body) in paths.iter().zip(bodies) {
            msg.push_str(&format!(
                "POST {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ));
        }
        let reader = self.conn.as_mut().unwrap();
        reader.get_mut().write_all(msg.as_bytes()).ok()?;
        let mut statuses = Vec::with_capacity(paths.len());
        let mut server_close = false;
        for _ in 0..paths.len() {
            if server_close {
                return None; // fewer responses than requests: burst torn
            }
            let (status, _, close) = Self::read_response(reader, false)?;
            server_close = close;
            statuses.push(status);
        }
        if server_close {
            self.conn = None;
        }
        Some(statuses)
    }

    fn read_response(
        reader: &mut BufReader<TcpStream>,
        assume_close: bool,
    ) -> Option<(u16, String, bool)> {
        let mut status_line = String::new();
        if reader.read_line(&mut status_line).ok()? == 0 {
            return None; // clean server close
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())?;
        let mut content_length = 0usize;
        let mut server_close = assume_close;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).ok()?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            let lower = line.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap_or(0);
            }
            if lower == "connection: close" {
                server_close = true;
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).ok()?;
        Some((
            status,
            String::from_utf8_lossy(&body).into_owned(),
            server_close,
        ))
    }
}

fn quantile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx]
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// One request per exchange (the pre-pipelining protocol).
    Serial,
    /// Bursts of `k` pipelined requests, all naming one wrapper.
    PipelinedSame(usize),
    /// Bursts of `k` pipelined requests alternating between two
    /// wrappers — the anti-batching control.
    PipelinedMixed(usize),
}

impl Mode {
    fn label(self) -> String {
        match self {
            Mode::Serial => "serial      ".into(),
            Mode::PipelinedSame(k) => format!("pipe {k:>2} same"),
            Mode::PipelinedMixed(k) => format!("pipe {k:>2} mix "),
        }
    }
}

fn run_one(workers: usize, clients: usize, requests: usize, keepalive: bool, mode: Mode) {
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_capacity: 1024,
        wrapper_dir: None,
        keepalive_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    })
    .expect("boot daemon");
    let addr = handle.addr();
    let mut admin = Client::new(addr, true);
    let (status, _) = admin.post("/wrappers/bench", &artifact(7));
    assert_eq!(status, 201, "wrapper install failed");
    let (status, _) = admin.post("/wrappers/bench2", &artifact(8));
    assert_eq!(status, 201, "second wrapper install failed");

    let started = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let bodies = pages(requests, 100 + c as u64);
            std::thread::spawn(move || {
                let mut client = Client::new(addr, keepalive);
                let mut latencies_us = Vec::with_capacity(bodies.len());
                let mut failures = 0usize;
                let check = |status: u16, failures: &mut usize| {
                    // 422 = perturbation defeated the wrapper (fine);
                    // anything else non-200 is a server failure.
                    if status != 200 && status != 422 {
                        *failures += 1;
                    }
                };
                match mode {
                    Mode::Serial => {
                        for body in &bodies {
                            let t0 = Instant::now();
                            let (status, _) = client.post("/extract?wrapper=bench", body);
                            latencies_us.push(t0.elapsed().as_micros() as u64);
                            check(status, &mut failures);
                        }
                    }
                    Mode::PipelinedSame(k) | Mode::PipelinedMixed(k) => {
                        let mixed = matches!(mode, Mode::PipelinedMixed(_));
                        for burst in bodies.chunks(k) {
                            let paths: Vec<&str> = (0..burst.len())
                                .map(|i| {
                                    if mixed && i % 2 == 1 {
                                        "/extract?wrapper=bench2"
                                    } else {
                                        "/extract?wrapper=bench"
                                    }
                                })
                                .collect();
                            let refs: Vec<&str> = burst.iter().map(String::as_str).collect();
                            let t0 = Instant::now();
                            let statuses = client.post_burst(&paths, &refs);
                            latencies_us.push(t0.elapsed().as_micros() as u64);
                            for s in statuses {
                                check(s, &mut failures);
                            }
                        }
                    }
                }
                (latencies_us, failures, client.reconnects)
            })
        })
        .collect();

    let mut latencies_us = Vec::with_capacity(clients * requests);
    let mut failures = 0usize;
    let mut reconnects = 0u64;
    for t in threads {
        let (l, f, r) = t.join().expect("client thread");
        latencies_us.extend(l);
        failures += f;
        reconnects += r;
    }
    let wall = started.elapsed();
    latencies_us.sort_unstable();

    // Server-side batching truth, from the same daemon before it drains.
    let (_, metrics) = admin.get("/metrics");
    let metrics = JsonValue::parse(&metrics).expect("/metrics is JSON");
    let num = |path: &[&str]| {
        let v = path.iter().try_fold(&metrics, |v, k| v.get(k));
        v.and_then(JsonValue::as_num).unwrap_or(0.0) as u64
    };
    let batches = num(&["batches_dispatched"]);
    let batched_reqs = num(&["batch_size", "sum"]);
    let avg_batch = if batches > 0 {
        batched_reqs as f64 / batches as f64
    } else {
        0.0
    };

    let total = clients * requests;
    let rps = total as f64 / wall.as_secs_f64();
    let unit = if mode == Mode::Serial { "req" } else { "burst" };
    println!(
        "workers {workers:>2} | {} | {total:>6} reqs in {:>6.2}s | {rps:>8.0} req/s | p50/{unit} {:>6}us | p99/{unit} {:>6}us | avg batch {avg_batch:>4.1} | failures {failures} | reconnects {reconnects}",
        mode.label(),
        wall.as_secs_f64(),
        quantile(&latencies_us, 0.50),
        quantile(&latencies_us, 0.99),
    );
    assert_eq!(failures, 0, "server errors under load");

    handle.shutdown();
    handle.join();
}

fn main() {
    let clients = env_usize("SERVE_BENCH_CLIENTS", 16);
    let requests = env_usize("SERVE_BENCH_REQUESTS", 200);
    let keepalive = env_usize("SERVE_BENCH_KEEPALIVE", 1) != 0;
    let pipeline = env_usize("SERVE_BENCH_PIPELINE", 8).max(1);
    let workers: Vec<usize> = std::env::var("SERVE_BENCH_WORKERS")
        .unwrap_or_else(|_| "1,2,4,8".into())
        .split(',')
        .filter_map(|v| v.trim().parse().ok())
        .collect();
    println!(
        "serve/throughput — {} POST /extract load",
        if keepalive {
            "keep-alive (one connection per client)"
        } else {
            "connection-per-request"
        }
    );
    for &w in &workers {
        run_one(w, clients, requests, keepalive, Mode::Serial);
    }
    if pipeline > 1 {
        println!("serve/throughput — pipelined bursts of {pipeline} (same-wrapper batches vs mixed control)");
        for &w in &workers {
            run_one(w, clients, requests, true, Mode::PipelinedSame(pipeline));
            run_one(w, clients, requests, true, Mode::PipelinedMixed(pipeline));
        }
    }
    println!("store after sweep: {}", Store::stats().summary());
}
