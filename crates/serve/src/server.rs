//! The daemon: epoll readiness loop → batched queue → worker pool.
//!
//! ```text
//!                 ┌────────────────────────────────────────────┐
//!  TCP clients ─▶ │ event loop (1 thread, epoll, nonblocking)  │
//!                 │  accept → read-accumulate → parse *all*    │
//!                 │  complete requests (HTTP/1.1 pipelining)   │
//!                 │  → stage → coalesce same-wrapper /extract  │
//!                 │  into batches → respond in seq order →     │
//!                 │  write-drain (partial writes, EPOLLOUT)    │
//!                 └──────┬──────────────────────▲──────────────┘
//!                try_push│ full? 503            │ completions
//!                 ┌──────▼───────┐              │ (pipe waker)
//!                 │ JobQueue     │       ┌──────┴─────────────┐
//!                 │ <Batch>      │ pop   │ worker 0 … N-1     │
//!                 │ (bounded)    │ ────▶ │ one WrapperScratch │
//!                 └──────────────┘       │ per worker; one    │
//!                                        │ wrapper resolve    │
//!                                        │ per batch          │
//!                                        └────────────────────┘
//! ```
//!
//! The event loop owns every socket: connections are nonblocking, read
//! into a per-connection buffer, and parsed incrementally — every
//! complete request in the buffer is staged at once, so a pipelining
//! client gets its requests batched into the same queue trip. Responses
//! are serialized strictly in request order per connection (`seq`
//! numbers), whatever order batches complete in.
//!
//! Graceful shutdown (`POST /shutdown` or [`ServerHandle::shutdown`]):
//! the listener drops immediately (new connections are refused by the
//! OS), staged work is dispatched, the queue stops admitting, in-flight
//! responses are flushed with `Connection: close`, and the loop exits
//! once nothing is pending — or at [`ServeConfig::drain_timeout`], after
//! which wedged connections are abandoned, logged, and counted.
//!
//! The worker pool is **self-healing**: workers are watched by a
//! supervisor thread that reaps dead ones (a panic that escapes the
//! per-item `catch_unwind`, e.g. the `worker.panic.escape` failpoint)
//! and respawns replacements, keeping the pool at configured strength.
//! A dying worker's unprocessed batch items surface as
//! [`Completion::Abort`]s — the loop closes those connections, so no
//! request is ever silently dropped. `/healthz` reports `"degraded"`
//! while short-handed or within a second of a death.

use crate::drift::{run_repair, Attempt, Lifecycle, WrapperHealth};
use crate::epoll::{self, Epoll, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::http::{parse_request, Parse, ParseError, Request, Response};
use crate::metrics::{Counter, Endpoint, Metrics};
use crate::pool::{Batch, Completion, CompletionQueue, JobQueue, WorkItem};
use crate::queries::{QueryInstallError, QueryStore};
use crate::registry::{InstallError, LoadReport, Registry, ResolveError};
use crate::ServeConfig;
use rextract_automata::Store;
use rextract_corpus::{run_pipeline, CorpusSource, PageEvent, PageObserver, PipelineConfig};
use rextract_extraction::json;
use rextract_extraction::JoinStrategy;
use rextract_faults::fail_point;
use rextract_html::tokenize_spanned;
use rextract_html::tokenizer::tokenize;
use rextract_wrapper::evaluate_query_with;
use rextract_wrapper::wrapper::{Wrapper, WrapperError, WrapperScratch};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Supervisor sweep interval: how often dead workers are reaped and
/// replaced. Small enough that a respawn beats any healthz poll.
const SUPERVISE_EVERY: Duration = Duration::from_millis(5);

/// How long after a worker death `/healthz` keeps reporting
/// `"degraded"`. Respawn takes single-digit milliseconds; the window
/// keeps the incident observable to a poller.
const DEGRADED_WINDOW: Duration = Duration::from_secs(1);

/// Epoll cookie for the listening socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Epoll cookie for the completion/shutdown waker pipe.
const WAKER_TOKEN: u64 = u64::MAX - 1;

/// Cap on unanswered pipelined requests per connection. Past it the loop
/// stops reading the connection (interest-level backpressure: the
/// client's TCP window fills) until completions free slots.
const MAX_PIPELINE: usize = 64;

/// A connection with unflushed response bytes idle longer than this is a
/// stalled writer and gets dropped (the blocking core's write timeout,
/// restated for the readiness loop).
const WRITE_STALL: Duration = Duration::from_secs(10);

/// Shutdown coordination: a flag plus the event-loop waker that kicks
/// `epoll_wait` so the drain starts immediately.
struct Shutdown {
    draining: AtomicBool,
    waker: Arc<Waker>,
}

impl Shutdown {
    fn trigger(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            self.waker.wake();
        }
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

/// Everything a worker needs, shared and immutable.
struct Ctx {
    registry: Arc<Registry>,
    queries: Arc<QueryStore>,
    metrics: Arc<Metrics>,
    shutdown: Arc<Shutdown>,
    /// Every wrapper's tallies, drift window, health and repair evidence.
    lifecycle: Arc<Lifecycle>,
    /// The one per-page observer `/extract` and `/pipeline` both feed
    /// (see [`page_observer`]).
    observer: Arc<PageObserver>,
    keepalive: Duration,
    request_deadline: Duration,
    /// 503 drifted wrappers instead of serving best-effort.
    drift_strict: bool,
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<Shutdown>,
    registry: Arc<Registry>,
    metrics: Arc<Metrics>,
    event_loop: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Begin graceful shutdown: refuse new connections, drain the queue.
    /// Idempotent; returns immediately.
    pub fn shutdown(&self) {
        self.shutdown.trigger();
    }

    /// Block until the event loop has drained (or the drain timeout
    /// abandoned the stragglers) and the supervisor has exited.
    pub fn join(mut self) {
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

/// Boot a daemon per `config`. Binds, loads the wrapper directory, and
/// spawns event loop + workers.
pub fn start(config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    if let Some(dir) = &config.wrapper_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| io::Error::new(e.kind(), format!("creating wrapper dir: {e}")))?;
    }
    let registry = Arc::new(Registry::new(config.wrapper_dir.clone()));
    let boot_report = registry
        .load_dir()
        .map_err(|e| io::Error::new(e.kind(), format!("scanning wrapper dir: {e}")))?;
    for (file, err) in &boot_report.errors {
        eprintln!("rextract-serve: skipping {file}: {err}");
    }
    let queries = Arc::new(QueryStore::new(config.wrapper_dir.clone()));
    let (_, query_errors) = queries
        .load_dir()
        .map_err(|e| io::Error::new(e.kind(), format!("scanning query dir: {e}")))?;
    for (name, err) in &query_errors {
        eprintln!("rextract-serve: skipping query {name}: {err}");
    }

    let metrics = Arc::new(Metrics::new());
    record_scan(&metrics, &boot_report);

    let epoll = Epoll::new()?;
    let waker = Arc::new(Waker::new()?);
    epoll.add(&*waker, EPOLLIN, WAKER_TOKEN)?;
    epoll.add(&listener, EPOLLIN, LISTENER_TOKEN)?;

    let completions = Arc::new(CompletionQueue::new(Arc::clone(&waker)));
    let queue: Arc<JobQueue<Batch>> = Arc::new(JobQueue::new(config.queue_capacity));
    let shutdown = Arc::new(Shutdown {
        draining: AtomicBool::new(false),
        waker: Arc::clone(&waker),
    });
    let lifecycle = Arc::new(Lifecycle::new(config.drift_window, config.drift_threshold));
    let ctx = Arc::new(Ctx {
        registry: Arc::clone(&registry),
        queries: Arc::clone(&queries),
        metrics: Arc::clone(&metrics),
        shutdown: Arc::clone(&shutdown),
        observer: page_observer(Arc::clone(&lifecycle), Arc::clone(&metrics)),
        lifecycle,
        keepalive: config.keepalive_timeout,
        request_deadline: config.request_deadline,
        drift_strict: config.drift_strict,
    });

    let pool_size = config.workers.max(1);
    metrics.set(Counter::WorkersConfigured, pool_size as u64);
    let workers: Vec<JoinHandle<()>> = (0..pool_size)
        .map(|i| spawn_worker(i, &queue, &ctx))
        .collect();
    metrics.set(Counter::WorkersAlive, workers.len() as u64);

    let supervisor = {
        let queue = Arc::clone(&queue);
        let ctx = Arc::clone(&ctx);
        let drain_timeout = config.drain_timeout;
        std::thread::Builder::new()
            .name("rextract-supervisor".into())
            .spawn(move || supervisor_loop(&queue, &ctx, workers, drain_timeout))
            .expect("spawn supervisor thread")
    };

    let event_loop = {
        let el = EventLoop {
            epoll,
            listener: Some(listener),
            waker,
            completions,
            queue,
            conns: HashMap::new(),
            next_token: 0,
            staged: Vec::new(),
            drain_deadline: None,
            ctx: Arc::clone(&ctx),
            max_conns: config.queue_capacity + pool_size,
            batch_max: config.batch_max.max(1),
            drain_timeout: config.drain_timeout,
        };
        std::thread::Builder::new()
            .name("rextract-eventloop".into())
            .spawn(move || el.run())
            .expect("spawn event-loop thread")
    };

    Ok(ServerHandle {
        addr,
        shutdown,
        registry,
        metrics,
        event_loop: Some(event_loop),
        supervisor: Some(supervisor),
    })
}

/// Fold a directory-scan report into the metrics hub.
fn record_scan(metrics: &Metrics, report: &LoadReport) {
    metrics.add(Counter::CorruptArtifacts, report.quarantined.len() as u64);
    metrics.add(Counter::IoRetries, report.io_retries);
    metrics.add(Counter::ReloadSkippedUnchanged, report.skipped_unchanged);
}

/// The daemon's one per-page observer, built at boot: `/extract` calls
/// it after each page and `/pipeline` hands it to the corpus pipeline as
/// [`PipelineConfig::observer`], so both surfaces reach the same tallies,
/// drift windows and repair evidence one page at a time.
fn page_observer(lifecycle: Arc<Lifecycle>, metrics: Arc<Metrics>) -> Arc<PageObserver> {
    Arc::new(move |ev: PageEvent<'_>| {
        if lifecycle.observe(&ev, &metrics) {
            eprintln!(
                "rextract-serve: drift flagged on wrapper {:?} (window {}, threshold {:.2}); collecting repair evidence",
                ev.wrapper, lifecycle.window, lifecycle.threshold,
            );
        }
    })
}

fn spawn_worker(id: usize, queue: &Arc<JobQueue<Batch>>, ctx: &Arc<Ctx>) -> JoinHandle<()> {
    let queue = Arc::clone(queue);
    let ctx = Arc::clone(ctx);
    std::thread::Builder::new()
        .name(format!("rextract-worker-{id}"))
        .spawn(move || worker_loop(&queue, &ctx))
        .expect("spawn worker thread")
}

/// Keep the pool at strength: reap dead workers (join to collect the
/// panic), respawn replacements while serving, run the drift-repair
/// state machine, and enforce the drain deadline during shutdown.
fn supervisor_loop(
    queue: &Arc<JobQueue<Batch>>,
    ctx: &Arc<Ctx>,
    mut workers: Vec<JoinHandle<()>>,
    drain_timeout: Duration,
) {
    let mut next_id = workers.len();
    // At most one repair runs at a time: repairs retrain whole wrappers,
    // and serializing them keeps the CPU cost bounded no matter how many
    // wrappers drift at once.
    let mut repair: Option<(Arc<Attempt>, JoinHandle<bool>)> = None;
    while !ctx.shutdown.draining() {
        std::thread::sleep(SUPERVISE_EVERY);
        repair = supervise_repair(ctx, repair);
        let mut i = 0;
        while i < workers.len() {
            if !workers[i].is_finished() {
                i += 1;
                continue;
            }
            let dead = workers.swap_remove(i);
            let _ = dead.join();
            if ctx.shutdown.draining() {
                continue; // normal exit: the queue is closing under it
            }
            ctx.metrics.set(Counter::WorkersAlive, workers.len() as u64);
            ctx.metrics.record_worker_respawn();
            eprintln!(
                "rextract-serve: worker died (escaped panic); respawning (respawn #{})",
                ctx.metrics.get(Counter::WorkerRespawns)
            );
            workers.push(spawn_worker(next_id, queue, ctx));
            next_id += 1;
            ctx.metrics.set(Counter::WorkersAlive, workers.len() as u64);
        }
    }
    // Drain phase: give in-flight batches drain_timeout to finish, then
    // abandon the wedged workers instead of wedging shutdown itself.
    let deadline = Instant::now() + drain_timeout;
    loop {
        workers.retain(|w| !w.is_finished());
        ctx.metrics.set(Counter::WorkersAlive, workers.len() as u64);
        if workers.is_empty() {
            return;
        }
        if Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    ctx.metrics
        .add(Counter::AbandonedConnections, workers.len() as u64);
    eprintln!(
        "rextract-serve: drain deadline ({} ms) passed; abandoning {} wedged connection(s)",
        drain_timeout.as_millis(),
        workers.len()
    );
    // The threads are detached by dropping their handles; the process is
    // exiting anyway once the caller's join() returns.
}

/// One tick of the repair state machine: harvest a finished repair
/// thread (success, rejection, or panic) and, when idle, start the next
/// attempt for a Degraded wrapper with enough evidence.
fn supervise_repair(
    ctx: &Arc<Ctx>,
    repair: Option<(Arc<Attempt>, JoinHandle<bool>)>,
) -> Option<(Arc<Attempt>, JoinHandle<bool>)> {
    match repair {
        // A panicked thread joins to Err — the mid-repair crash case: the
        // old wrapper was never swapped out, so it just counts as a
        // failed attempt and the backoff retries.
        Some((attempt, handle)) if handle.is_finished() => {
            let healed = handle.join().unwrap_or(false);
            ctx.lifecycle.finish_repair(&attempt, healed, &ctx.metrics);
        }
        Some(busy) => return Some(busy),
        None => {}
    }
    let attempt = Arc::new(ctx.lifecycle.begin_repair(&ctx.registry, &ctx.metrics)?);
    let thread_ctx = Arc::clone(ctx);
    let thread_attempt = Arc::clone(&attempt);
    let handle = std::thread::Builder::new()
        .name("rextract-repair".into())
        .spawn(move || run_repair(&thread_attempt, &thread_ctx.registry));
    match handle {
        Ok(handle) => Some((attempt, handle)),
        Err(e) => {
            // Could not even spawn the thread: count it as a failed
            // attempt, retried after the backoff.
            eprintln!("rextract-serve: could not spawn repair thread: {e}");
            ctx.lifecycle.finish_repair(&attempt, false, &ctx.metrics);
            None
        }
    }
}

/// Post-accept admission gate. `accept()` succeeding does not mean the
/// daemon can take the connection further — duplicating the descriptor
/// into per-connection state can still fail under fd pressure (EMFILE
/// and friends). The failpoint injects exactly that class of error.
fn admit() -> Result<(), ()> {
    fail_point!("serve.accept.emfile", |_action| Err(()));
    Ok(())
}

/// Where a parsed response sits in a connection's pipeline slot.
enum SeqState {
    /// Dispatched to the worker pool; response not back yet.
    InFlight { wants_close: bool },
    /// Answered; waiting for every earlier `seq` to serialize first.
    Ready { resp: Response, wants_close: bool },
    /// The worker died before answering: close the connection.
    Aborted,
}

/// One nonblocking connection's state machine:
/// read-accumulate → parse → dispatch → respond-in-order → write-drain.
struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes (grows by reads, shrinks by parses).
    rbuf: Vec<u8>,
    /// Serialized-but-unflushed response bytes; `wpos` is the write
    /// cursor (partial writes leave `wpos < wbuf.len()`).
    wbuf: Vec<u8>,
    wpos: usize,
    /// Next request's pipeline position.
    next_seq: u64,
    /// Next position to serialize — responses go out strictly in order.
    next_write: u64,
    answers: BTreeMap<u64, SeqState>,
    /// No more requests will be read (peer EOF, `Connection: close`, or
    /// a parse error poisoned the byte stream).
    read_closed: bool,
    /// Close once `wbuf` is flushed (a serialized `Connection: close`).
    close_after_flush: bool,
    /// A worker died holding this connection's request: hard-close.
    aborted: bool,
    /// Unrecoverable socket error; reap at the next pump.
    dead: bool,
    last_active: Instant,
    /// Interest mask currently registered, to elide redundant MODs.
    cur_mask: u32,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            next_seq: 0,
            next_write: 0,
            answers: BTreeMap::new(),
            read_closed: false,
            close_after_flush: false,
            aborted: false,
            dead: false,
            last_active: Instant::now(),
            cur_mask: EPOLLIN | EPOLLRDHUP,
        }
    }

    /// Pull whatever the socket has into `rbuf` (bounded per tick so one
    /// flooding client cannot monopolize the loop).
    fn read_some(&mut self) {
        let mut tmp = [0u8; 16 * 1024];
        for _ in 0..16 {
            match self.stream.read(&mut tmp) {
                Ok(0) => {
                    self.read_closed = true;
                    return;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&tmp[..n]);
                    self.last_active = Instant::now();
                    if n < tmp.len() {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Serialize every answer that is next in pipeline order. Stops at
    /// the first gap (in-flight seq), an abort, or a closing response.
    fn serialize_ready(&mut self, draining: bool) {
        loop {
            match self.answers.get(&self.next_write) {
                Some(SeqState::Ready { .. }) => {}
                Some(SeqState::Aborted) => {
                    self.aborted = true;
                    return;
                }
                _ => return,
            }
            let Some(SeqState::Ready { resp, wants_close }) = self.answers.remove(&self.next_write)
            else {
                unreachable!("checked above");
            };
            self.next_write += 1;
            let close = resp.close || wants_close || draining;
            resp.write_bytes(&mut self.wbuf, close);
            self.last_active = Instant::now();
            if close {
                // Later pipelined requests are moot once we promise to
                // close: discard their slots (their completions, if any,
                // arrive for a seq we no longer track and are ignored).
                self.close_after_flush = true;
                self.read_closed = true;
                self.answers.clear();
                return;
            }
        }
    }

    /// Push `wbuf` out until the socket pushes back.
    fn flush(&mut self) {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.wpos += n;
                    self.last_active = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
    }

    fn flushed(&self) -> bool {
        self.wpos >= self.wbuf.len()
    }

    /// Work outstanding: a request awaiting its response, or response
    /// bytes awaiting the socket.
    fn has_pending(&self) -> bool {
        !self.answers.is_empty() || self.wpos < self.wbuf.len()
    }

    fn wants_read(&self) -> bool {
        !self.read_closed && self.answers.len() < MAX_PIPELINE
    }
}

/// The readiness loop: owns the listener, the epoll set, and every
/// connection; single-threaded, so connection state needs no locks.
struct EventLoop {
    epoll: Epoll,
    /// Dropped at the start of drain so the OS refuses new connections.
    listener: Option<TcpListener>,
    waker: Arc<Waker>,
    completions: Arc<CompletionQueue>,
    queue: Arc<JobQueue<Batch>>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Requests parsed this tick, awaiting batch grouping: the batching
    /// key (`Some(wrapper)` for coalescible `/extract`s) and the item.
    staged: Vec<(Option<String>, WorkItem)>,
    drain_deadline: Option<Instant>,
    ctx: Arc<Ctx>,
    /// Accept gate: beyond this many open connections, new ones get an
    /// immediate overload 503 — the readiness-loop restatement of the
    /// blocking core's queue-full rejection.
    max_conns: usize,
    batch_max: usize,
    drain_timeout: Duration,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = [epoll::Event::default(); 64];
        loop {
            let timeout = if self.drain_deadline.is_some() {
                Duration::from_millis(5)
            } else {
                Duration::from_millis(250)
            };
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("rextract-serve: epoll_wait failed: {e}");
                    std::thread::sleep(Duration::from_millis(5));
                    0
                }
            };
            if n > 0 {
                self.ctx.metrics.add(Counter::EpollWakeups, 1);
            }
            for ev in &events[..n] {
                let (tok, mask) = (ev.token(), ev.mask());
                match tok {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.waker.drain(),
                    _ => self.conn_event(tok, mask),
                }
            }
            self.apply_completions();
            if self.ctx.shutdown.draining() && self.drain_deadline.is_none() {
                self.begin_drain();
            }
            self.dispatch_staged();
            if let Some(deadline) = self.drain_deadline {
                let all_done = self.conns.values().all(|c| !c.has_pending());
                if all_done || Instant::now() >= deadline {
                    return;
                }
            }
            self.reap_stalled();
        }
    }

    /// Accept until the listener runs dry. Over-capacity connections get
    /// the overload 503 inline (blocking write, short timeout) so the
    /// backpressure signal is explicit, not a SYN-queue stall.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if admit().is_err() {
                        self.ctx.metrics.add(Counter::AcceptFailures, 1);
                        drop(stream);
                        continue;
                    }
                    if self.conns.len() >= self.max_conns {
                        reject_overloaded(stream, &self.ctx, self.queue.capacity());
                        continue;
                    }
                    if epoll::set_nonblocking(stream.as_raw_fd()).is_err() {
                        // A blocking socket would wedge the whole loop on
                        // its first read; refuse rather than risk it.
                        self.ctx.metrics.add(Counter::SockConfigFailures, 1);
                        continue;
                    }
                    if stream.set_nodelay(true).is_err() {
                        self.ctx.metrics.add(Counter::SockConfigFailures, 1);
                    }
                    let tok = self.next_token;
                    self.next_token += 1;
                    if self.epoll.add(&stream, EPOLLIN | EPOLLRDHUP, tok).is_err() {
                        self.ctx.metrics.add(Counter::AcceptFailures, 1);
                        continue;
                    }
                    self.conns.insert(tok, Conn::new(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transient EMFILE/ECONNABORTED must degrade — count
                    // it, return to the loop — never wedge accepting.
                    self.ctx.metrics.add(Counter::AcceptFailures, 1);
                    return;
                }
            }
        }
    }

    /// Readiness on one connection: drain the socket in the indicated
    /// direction, then run its state machine.
    fn conn_event(&mut self, tok: u64, mask: u32) {
        {
            let Some(conn) = self.conns.get_mut(&tok) else {
                return;
            };
            if mask & EPOLLERR != 0 {
                conn.dead = true;
            } else {
                if mask & EPOLLOUT != 0 {
                    conn.flush();
                }
                if mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 && !conn.read_closed {
                    conn.read_some();
                }
            }
        }
        self.pump(tok);
    }

    /// Advance one connection: parse newly-read requests, serialize and
    /// flush in-order answers, then retire or re-arm the connection.
    fn pump(&mut self, tok: u64) {
        self.parse_conn(tok);
        let draining = self.ctx.shutdown.draining();
        let Some(conn) = self.conns.get_mut(&tok) else {
            return;
        };
        if !conn.dead {
            conn.serialize_ready(draining);
            conn.flush();
        }
        let retire = conn.dead
            || conn.aborted
            || (conn.close_after_flush && conn.flushed())
            || (conn.read_closed && conn.answers.is_empty() && conn.flushed());
        if retire {
            if let Some(conn) = self.conns.remove(&tok) {
                let _ = self.epoll.delete(&conn.stream);
            }
        } else {
            self.update_interest(tok);
        }
    }

    /// Parse every complete request sitting in `rbuf` (the pipelining
    /// core): each one is staged for dispatch with its pipeline `seq`.
    /// A malformed request answers in-slot and poisons further reads,
    /// matching the blocking core's close-on-bad-request.
    fn parse_conn(&mut self, tok: u64) {
        if self.ctx.shutdown.draining() {
            return;
        }
        let Some(conn) = self.conns.get_mut(&tok) else {
            return;
        };
        if conn.dead || conn.aborted {
            return;
        }
        while !conn.close_after_flush && conn.answers.len() < MAX_PIPELINE && !conn.rbuf.is_empty()
        {
            match parse_request(&conn.rbuf) {
                Parse::Complete(req, used) => {
                    conn.rbuf.drain(..used);
                    if !conn.answers.is_empty() {
                        self.ctx.metrics.add(Counter::PipelinedRequests, 1);
                    }
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    let wants_close = req.wants_close();
                    conn.answers.insert(seq, SeqState::InFlight { wants_close });
                    let key = batch_key(&req);
                    self.staged.push((
                        key,
                        WorkItem {
                            conn: tok,
                            seq,
                            req,
                            arrived: Instant::now(),
                        },
                    ));
                    if wants_close {
                        conn.read_closed = true;
                        break;
                    }
                }
                Parse::Partial => break,
                Parse::Error(e) => {
                    let resp = match e {
                        ParseError::TooLarge => Response::error(413, "request too large"),
                        ParseError::Malformed(why) => {
                            Response::error(400, &format!("malformed request: {why}"))
                        }
                    };
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.answers.insert(
                        seq,
                        SeqState::Ready {
                            resp,
                            wants_close: true,
                        },
                    );
                    conn.read_closed = true;
                    conn.rbuf.clear();
                    break;
                }
            }
        }
    }

    /// Route worker verdicts back into their pipeline slots, then pump
    /// every touched connection. Completions for connections (or seqs)
    /// that no longer exist are dropped — the client already left.
    fn apply_completions(&mut self) {
        let completions = self.completions.drain();
        if completions.is_empty() {
            return;
        }
        let mut touched: Vec<u64> = Vec::with_capacity(completions.len());
        for c in completions {
            let tok = c.conn();
            let Some(conn) = self.conns.get_mut(&tok) else {
                continue;
            };
            match c {
                Completion::Response { seq, resp, .. } => {
                    if let Some(slot) = conn.answers.get_mut(&seq) {
                        if let SeqState::InFlight { wants_close } = *slot {
                            *slot = SeqState::Ready { resp, wants_close };
                            touched.push(tok);
                        }
                    }
                }
                Completion::Abort { seq, .. } => {
                    if let Some(slot) = conn.answers.get_mut(&seq) {
                        if matches!(slot, SeqState::InFlight { .. }) {
                            *slot = SeqState::Aborted;
                            touched.push(tok);
                        }
                    }
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for tok in touched {
            self.pump(tok);
        }
    }

    /// Group staged requests into batches and dispatch: `/extract`s
    /// naming the same wrapper coalesce (up to `batch_max` per batch);
    /// everything else rides alone. A full queue fails the whole batch
    /// with the overload 503 — answered, never silently dropped.
    fn dispatch_staged(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        let staged = std::mem::take(&mut self.staged);
        let mut batches: Vec<Batch> = Vec::new();
        let mut named: HashMap<String, usize> = HashMap::new();
        for (key, item) in staged {
            match key {
                Some(name) => {
                    let idx = match named.get(&name) {
                        Some(&i) => i,
                        None => {
                            batches.push(Batch::new(
                                Some(name.clone()),
                                Arc::clone(&self.completions),
                            ));
                            let i = batches.len() - 1;
                            named.insert(name.clone(), i);
                            i
                        }
                    };
                    batches[idx].push(item);
                    if batches[idx].len() >= self.batch_max {
                        named.remove(&name);
                    }
                }
                None => {
                    let mut b = Batch::new(None, Arc::clone(&self.completions));
                    b.push(item);
                    batches.push(b);
                }
            }
        }
        for batch in batches {
            let size = batch.len();
            match self.queue.try_push(batch) {
                Ok(depth) => {
                    self.ctx.metrics.record_batch(size as u64);
                    self.ctx.metrics.set(Counter::QueueDepth, depth as u64);
                }
                Err(batch) => {
                    self.ctx.metrics.add(Counter::Rejected, batch.len() as u64);
                    let cap = self.queue.capacity();
                    batch.fail_all(|_| overload_response(cap).closing());
                }
            }
        }
    }

    /// Enter drain: stop listening immediately, dispatch what's parsed,
    /// stop the queue admitting, and force-close every flushing response.
    fn begin_drain(&mut self) {
        self.drain_deadline = Some(Instant::now() + self.drain_timeout);
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.delete(&listener);
        }
        self.dispatch_staged();
        self.queue.close();
        let toks: Vec<u64> = self.conns.keys().copied().collect();
        for tok in toks {
            self.pump(tok);
        }
    }

    /// Re-register the interest mask the connection's state wants:
    /// `EPOLLIN` while it may read (not closed, pipeline not full),
    /// `EPOLLOUT` only while response bytes are unflushed.
    fn update_interest(&mut self, tok: u64) {
        let draining = self.ctx.shutdown.draining();
        let Some(conn) = self.conns.get_mut(&tok) else {
            return;
        };
        let mut mask = 0;
        if conn.wants_read() && !draining {
            mask |= EPOLLIN | EPOLLRDHUP;
        }
        if conn.wpos < conn.wbuf.len() {
            mask |= EPOLLOUT;
        }
        if mask != conn.cur_mask {
            if self.epoll.modify(&conn.stream, mask, tok).is_err() {
                conn.dead = true;
            } else {
                conn.cur_mask = mask;
            }
        }
    }

    /// Periodic reaping: dead sockets, idle keep-alive connections past
    /// the keepalive timeout, and stalled writers past [`WRITE_STALL`] —
    /// the readiness-loop restatement of the blocking core's socket
    /// timeouts.
    fn reap_stalled(&mut self) {
        let now = Instant::now();
        let keepalive = self.ctx.keepalive;
        let doomed: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                let idle = now.duration_since(c.last_active);
                c.dead
                    || (!c.flushed() && idle > WRITE_STALL)
                    || (!c.has_pending() && idle > keepalive)
            })
            .map(|(&tok, _)| tok)
            .collect();
        for tok in doomed {
            if let Some(conn) = self.conns.remove(&tok) {
                let _ = self.epoll.delete(&conn.stream);
            }
        }
    }
}

/// The batching key for a parsed request: `Some(wrapper)` for `/extract`
/// requests that name their wrapper (coalescible), `None` for everything
/// else (singleton batch; `/extract` without a name resolves via
/// [`Registry::sole`] inside [`route`]).
fn batch_key(req: &Request) -> Option<String> {
    if req.method == "POST" && req.path == "/extract" {
        req.query_param("wrapper").map(str::to_string)
    } else {
        None
    }
}

/// The backpressure 503, shared by the accept gate and queue-full
/// batch rejection.
fn overload_response(queue_capacity: usize) -> Response {
    Response::json(
        503,
        json::object(|o| {
            o.str("error", "server overloaded, retry later")
                .num("queue_capacity", queue_capacity as u64)
        }),
    )
}

/// Refuse an over-capacity connection with the overload 503. The stream
/// is still blocking (accepted sockets do not inherit the listener's
/// nonblocking flag on Linux); a short write timeout keeps a stalled
/// client from stalling the accept sweep.
fn reject_overloaded(stream: TcpStream, ctx: &Ctx, queue_capacity: usize) {
    ctx.metrics.add(Counter::Rejected, 1);
    if stream
        .set_write_timeout(Some(Duration::from_millis(250)))
        .is_err()
    {
        ctx.metrics.add(Counter::SockConfigFailures, 1);
    }
    let mut stream = stream;
    let _ = overload_response(queue_capacity).write_to(&mut stream, true);
}

/// Pop batches until the queue closes. One long-lived extraction scratch
/// per worker: every batch this worker serves reuses the same
/// abstraction/scan buffers, and a batch resolves its wrapper once —
/// that is the amortization batching buys. Safe under the per-item
/// `catch_unwind` in [`Batch::run`] — the buffers are cleared at the
/// start of each extraction, so a panicked item leaves no residue.
fn worker_loop(queue: &JobQueue<Batch>, ctx: &Ctx) {
    let mut scratch = WrapperScratch::new();
    while let Some((batch, depth)) = queue.pop() {
        // Deliberately OUTSIDE Batch::run's per-item guard: this
        // simulates the class of panic that kills the whole worker
        // thread so the supervisor has something to heal. The unwinding
        // batch aborts its items (connections close, nothing hangs).
        fail_point!("worker.panic.escape");
        ctx.metrics.set(Counter::QueueDepth, depth as u64);
        ctx.metrics.add(Counter::InFlight, 1);
        let resolved = batch.wrapper().map(|name| ctx.registry.resolve(Some(name)));
        batch.run(|item| {
            let started = Instant::now();
            let (endpoint, resp) = match &resolved {
                Some(Ok((name, wrapper))) => (
                    Endpoint::Extract,
                    handle_extract_resolved(
                        &item.req,
                        item.arrived,
                        name,
                        wrapper,
                        ctx,
                        &mut scratch,
                    ),
                ),
                Some(Err(e)) => (Endpoint::Extract, resolve_error_response(e, ctx)),
                None => route(&item.req, item.arrived, ctx, &mut scratch),
            };
            let elapsed_us = started.elapsed().as_micros() as u64;
            ctx.metrics.record(endpoint, resp.status, elapsed_us);
            if endpoint == Endpoint::Shutdown && resp.status == 200 {
                ctx.shutdown.trigger();
            }
            resp
        });
        ctx.metrics.sub(Counter::InFlight, 1);
    }
}

/// Dispatch a parsed request to its handler. `scratch` is the calling
/// worker's long-lived extraction scratch; `arrived` is when the request
/// finished parsing (the deadline runs from there, so queue time counts).
fn route(
    req: &Request,
    arrived: Instant,
    ctx: &Ctx,
    scratch: &mut WrapperScratch,
) -> (Endpoint, Response) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (Endpoint::Healthz, handle_healthz(ctx)),
        ("GET", "/metrics") => (Endpoint::Metrics, handle_metrics(ctx)),
        ("POST", "/extract") => (
            Endpoint::Extract,
            handle_extract(req, arrived, ctx, scratch),
        ),
        ("GET", "/wrappers") => (
            Endpoint::ListWrappers,
            Response::json(
                200,
                json::object(|o| {
                    o.strs("wrappers", ctx.registry.names().iter().map(String::as_str))
                }),
            ),
        ),
        ("POST", path) if path.strip_prefix("/wrappers/").is_some() => {
            let name = path.strip_prefix("/wrappers/").unwrap_or_default();
            (Endpoint::InstallWrapper, handle_install(name, req, ctx))
        }
        ("GET", "/queries") => (
            Endpoint::ListQueries,
            Response::json(
                200,
                json::object(|o| o.strs("queries", ctx.queries.names().iter().map(String::as_str))),
            ),
        ),
        ("POST", path) if path.strip_prefix("/queries/").is_some() => {
            let name = path.strip_prefix("/queries/").unwrap_or_default();
            (Endpoint::InstallQuery, handle_install_query(name, req, ctx))
        }
        ("POST", "/query") => (Endpoint::Query, handle_query(req, ctx, scratch)),
        ("POST", "/pipeline") => (Endpoint::Pipeline, handle_pipeline(req, ctx)),
        ("POST", "/reload") => (Endpoint::Reload, handle_reload(ctx)),
        ("POST", "/shutdown") => (
            Endpoint::Shutdown,
            Response::json(200, json::object(|o| o.bool("draining", true))).closing(),
        ),
        (
            _,
            "/healthz" | "/metrics" | "/extract" | "/wrappers" | "/pipeline" | "/reload"
            | "/shutdown" | "/queries" | "/query",
        ) => (Endpoint::Other, Response::error(405, "method not allowed")),
        _ => (
            Endpoint::Other,
            Response::error(404, &format!("no such endpoint {}", req.path)),
        ),
    }
}

/// `GET /metrics`, with each installed wrapper's extraction-engine size
/// (the number of symbol classes its extractor scans with).
fn handle_metrics(ctx: &Ctx) -> Response {
    let entries = ctx.registry.entries();
    let engines: Vec<(&str, u64)> = entries
        .iter()
        .map(|(name, w)| (name.as_str(), w.num_classes() as u64))
        .collect();
    Response::json(
        200,
        ctx.metrics
            .render_json(&Store::stats(), &engines, &ctx.lifecycle),
    )
}

fn handle_healthz(ctx: &Ctx) -> Response {
    let configured = ctx.metrics.get(Counter::WorkersConfigured);
    let alive = ctx.metrics.get(Counter::WorkersAlive);
    let recent_death = ctx
        .metrics
        .last_worker_death_age()
        .is_some_and(|age| age <= DEGRADED_WINDOW);
    let drifted = ctx.lifecycle.unhealthy();
    let status = if alive < configured || recent_death || !drifted.is_empty() {
        "degraded"
    } else {
        "ok"
    };
    Response::json(
        200,
        json::object(|o| {
            o.str("status", status)
                .num("wrappers", ctx.registry.len() as u64)
                .bool("draining", ctx.shutdown.draining())
                .obj("workers", |w| {
                    w.num("configured", configured)
                        .num("alive", alive)
                        .num("respawns", ctx.metrics.get(Counter::WorkerRespawns))
                })
                .obj("drifted_wrappers", |o| {
                    drifted
                        .iter()
                        .fold(o, |o, (name, health)| o.str(name, health.name()))
                })
        }),
    )
}

/// 503 for a request that outlived [`ServeConfig::request_deadline`].
///
/// [`ServeConfig::request_deadline`]: crate::ServeConfig::request_deadline
fn deadline_response(ctx: &Ctx) -> Response {
    ctx.metrics.add(Counter::DeadlineExceeded, 1);
    Response::json(
        503,
        json::object(|o| {
            o.str("error", "deadline exceeded")
                .num("deadline_ms", ctx.request_deadline.as_millis() as u64)
        }),
    )
}

/// The error body for a failed wrapper selection (unknown name, or no
/// name outside single-tenant deployments).
fn resolve_error_response(err: &ResolveError, ctx: &Ctx) -> Response {
    let (status, error) = match err {
        ResolveError::Unknown(name) => (404, format!("unknown wrapper {name:?}")),
        ResolveError::NoSelection => (
            400,
            "no wrapper selected: pass ?wrapper=NAME (required unless exactly one is installed)"
                .to_string(),
        ),
    };
    let names = ctx.registry.names();
    Response::json(
        status,
        json::object(|o| {
            o.str("error", &error)
                .strs("wrappers", names.iter().map(String::as_str))
        }),
    )
}

/// `POST /extract?wrapper=NAME` outside a coalesced batch: resolve the
/// wrapper here, then share the resolved path.
fn handle_extract(
    req: &Request,
    arrived: Instant,
    ctx: &Ctx,
    scratch: &mut WrapperScratch,
) -> Response {
    match ctx.registry.resolve(req.query_param("wrapper")) {
        Ok((name, wrapper)) => handle_extract_resolved(req, arrived, &name, &wrapper, ctx, scratch),
        Err(e) => resolve_error_response(&e, ctx),
    }
}

/// HTML body → tag sequence → extraction, against an already-resolved
/// wrapper (batches resolve once for the whole batch).
///
/// Enforces the per-request deadline cooperatively: std threads cannot
/// be preempted, so the wall clock is checked between pipeline stages
/// and the request is abandoned with 503 once over budget. `arrived` is
/// parse time, so time spent queued counts against the budget.
fn handle_extract_resolved(
    req: &Request,
    arrived: Instant,
    name: &str,
    wrapper: &Wrapper,
    ctx: &Ctx,
    scratch: &mut WrapperScratch,
) -> Response {
    // Simulates a stall (slow upstream parse, scheduling delay, …) ahead
    // of the first deadline checkpoint.
    fail_point!("extract.slow");
    if arrived.elapsed() >= ctx.request_deadline {
        return deadline_response(ctx);
    }
    if ctx.drift_strict {
        let health = ctx.lifecycle.health(name);
        if health != WrapperHealth::Healthy {
            return Response::json(
                503,
                json::object(|o| {
                    o.str("wrapper", name)
                        .str("error", "wrapper drifted; refusing best-effort extraction")
                        .str("health", health.name())
                }),
            );
        }
    }
    if req.body.is_empty() {
        return Response::error(400, "empty body: POST the HTML page");
    }
    let html = req.body_utf8();
    let started = Instant::now();
    let tokens = tokenize(&html);
    let tokenize_us = started.elapsed().as_micros() as u64;
    if arrived.elapsed() >= ctx.request_deadline {
        return deadline_response(ctx);
    }
    let extract_started = Instant::now();
    let result = wrapper.extract_page(&tokens, scratch);
    let extract_us = extract_started.elapsed().as_micros() as u64;
    (ctx.observer)(PageEvent::new(name, &tokens, &result));
    let (status, body) = match result.map(|t| t[0]) {
        Ok(idx) => (
            200,
            json::object(|o| {
                o.str("wrapper", name)
                    .num("wrapper_revision", u64::from(wrapper.revision()))
                    .num("position", idx as u64)
                    .nums("positions", [idx as u64])
                    .str("tag", tokens[idx].tag_name().unwrap_or("#text"))
                    .str("token", &tokens[idx].to_string())
                    .num("tokens", tokens.len() as u64)
                    .num("tokenize_us", tokenize_us)
                    .num("extract_us", extract_us)
            }),
        ),
        Err(WrapperError::Extract(failure)) => {
            use rextract_extraction::extract::ExtractFailure;
            let (why, positions) = match failure {
                ExtractFailure::NoMatch => {
                    ("no match: the wrapper does not parse this page", vec![])
                }
                ExtractFailure::AmbiguousMatch(p) => ("ambiguous: multiple positions match", p),
            };
            let body = json::object(|o| {
                o.str("wrapper", name)
                    .str("error", why)
                    .nums("positions", positions.iter().map(|&p| p as u64))
                    .num("tokens", tokens.len() as u64)
                    .num("tokenize_us", tokenize_us)
                    .num("extract_us", extract_us)
            });
            (422, body)
        }
        Err(e) => (
            422,
            json::object(|o| o.str("wrapper", name).str("error", &e.to_string())),
        ),
    };
    Response::json(status, body)
}

/// How many corpus worker threads one `/pipeline` request may spawn.
/// The request already occupies a daemon worker; this bounds its fan-out
/// so one batch job cannot starve interactive `/extract` traffic.
const PIPELINE_MAX_WORKERS: usize = 4;

/// `POST /pipeline?wrapper=NAME&workers=N`: body is a newline-delimited
/// manifest of server-local page paths (blank lines and `#` comments
/// ignored); the response streams the pipeline's NDJSON tuple lines in
/// strict manifest order, with error lines (unrouted / failed /
/// unreadable pages) inline — every manifest entry yields exactly one
/// line. Counters land in `/metrics` under `wrappers` and `pipeline`.
fn handle_pipeline(req: &Request, ctx: &Ctx) -> Response {
    let body = req.body_utf8();
    if body.trim().is_empty() {
        return Response::error(
            400,
            "empty body: POST a newline-delimited manifest of page paths",
        );
    }
    let wrappers = ctx.registry.entries();
    if wrappers.is_empty() {
        return Response::error(409, "no wrappers installed; train and install one first");
    }
    let workers = req
        .query_param("workers")
        .and_then(|w| w.parse::<usize>().ok())
        .unwrap_or(1)
        .clamp(1, PIPELINE_MAX_WORKERS);
    let cfg = PipelineConfig {
        workers,
        wrapper_override: req.query_param("wrapper").map(str::to_string),
        // Every routed page reaches the same tallies, drift window and
        // repair evidence as an `/extract` page, one page at a time.
        observer: Some(Arc::clone(&ctx.observer)),
        // Enumeration applies the manifest rule to the whole body.
        ..PipelineConfig::new(CorpusSource::Paths(vec![body]))
    };
    let mut out = Vec::new();
    match run_pipeline(&cfg, wrappers, &mut out, None) {
        Ok(report) => {
            ctx.metrics.add(Counter::PipelinePages, report.pages_total);
            ctx.metrics
                .add(Counter::PipelineUnrouted, report.pages_unrouted);
            ctx.metrics
                .add(Counter::PipelineReadErrors, report.read_errors);
            Response {
                status: 200,
                content_type: "application/x-ndjson",
                body: String::from_utf8_lossy(&out).into_owned(),
                close: false,
            }
        }
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// `POST /wrappers/{name}`: install or replace from an artifact body.
fn handle_install(name: &str, req: &Request, ctx: &Ctx) -> Response {
    let artifact = req.body_utf8();
    if artifact.is_empty() {
        return Response::error(400, "empty body: POST the wrapper artifact");
    }
    // A manual install supersedes any drift verdict: the evidence and
    // window described the replaced wrapper. Resetting them before the
    // swap means no repair can start against the new revision with them.
    match ctx
        .registry
        .install_with(name, &artifact, || ctx.lifecycle.reset(name))
    {
        Ok(wrapper) => Response::json(
            201,
            json::object(|o| {
                o.str("installed", name)
                    .num("revision", u64::from(wrapper.revision()))
                    .bool("maximized", wrapper.is_maximized())
                    .str("expr", &wrapper.expr().to_text())
                    .num("wrappers", ctx.registry.len() as u64)
            }),
        ),
        // The client sent a bad artifact vs. the server failed to persist
        // a good one: different status, different party to page.
        Err(InstallError::Invalid(e)) => Response::error(400, &e),
        Err(InstallError::Io(e)) => Response::error(500, &e),
    }
}

/// `POST /queries/{name}`: install or replace a span-relational query
/// from its JSON definition (sources + algebra plan). Wrapper references
/// are *not* resolved here — they bind at evaluation time, so a query
/// may be installed before the wrappers it names.
fn handle_install_query(name: &str, req: &Request, ctx: &Ctx) -> Response {
    let text = req.body_utf8();
    if text.trim().is_empty() {
        return Response::error(400, "empty body: POST the query definition JSON");
    }
    match ctx.queries.install(name, &text) {
        Ok(def) => Response::json(
            201,
            json::object(|o| {
                o.str("installed", name)
                    .num("sources", def.sources.len() as u64)
                    .strs("vars", def.sources.iter().map(|s| s.var.as_str()))
                    .num("queries", ctx.queries.len() as u64)
            }),
        ),
        Err(QueryInstallError::Invalid(e)) => Response::error(400, &e),
        Err(QueryInstallError::Io(e)) => Response::error(500, &e),
    }
}

/// `POST /query?query=NAME[&strategy=nested-loop]`: evaluate an
/// installed query against the HTML body. Sources ground on the posted
/// page (wrapper sources against the live registry), the plan joins
/// them, and each result row reports, per variable, the token position
/// plus the byte offsets and text it covers — a multi-field record with
/// provenance. Strategies render byte-identically (canonical relations),
/// so `?strategy=nested-loop` doubles as the sort-merge oracle check.
fn handle_query(req: &Request, ctx: &Ctx, scratch: &mut WrapperScratch) -> Response {
    let installed = |error: &str| {
        let names = ctx.queries.names();
        json::object(|o| {
            o.str("error", error)
                .strs("queries", names.iter().map(String::as_str))
        })
    };
    let Some(name) = req.query_param("query") else {
        return Response::json(400, installed("no query selected: pass ?query=NAME"));
    };
    let Some(def) = ctx.queries.get(name) else {
        return Response::json(404, installed(&format!("unknown query {name:?}")));
    };
    if req.body.is_empty() {
        return Response::error(400, "empty body: POST the HTML page");
    }
    let strategy_name = req.query_param("strategy").unwrap_or("sort-merge");
    let Some(strategy) = JoinStrategy::parse(strategy_name) else {
        return Response::error(
            400,
            &format!("unknown strategy {strategy_name:?} (want sort-merge or nested-loop)"),
        );
    };
    // Strict: the reported byte extents index the posted bytes, which a
    // lossy decode would shift past every replaced byte.
    let Ok(html) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "body is not valid UTF-8: POST the HTML page as UTF-8");
    };
    let started = Instant::now();
    let (tokens, byte_spans) = tokenize_spanned(html);
    let lookup = |n: &str| ctx.registry.get(n);
    // The worker's long-lived scratch: repeated queries reuse the page
    // abstraction and scan buffers instead of reallocating per request.
    match evaluate_query_with(&def, &tokens, &lookup, strategy, scratch) {
        Ok(rel) => {
            ctx.metrics.record_query(name, Some(rel.len() as u64));
            Response::json(
                200,
                json::object(|o| {
                    o.str("query", name)
                        .str("strategy", strategy.name())
                        .strs("vars", rel.vars().iter().map(String::as_str))
                        .num("rows", rel.len() as u64)
                        .arr("records", |a| {
                            rel.rows().iter().fold(a, |a, row| {
                                a.obj(|o| {
                                    rel.vars().iter().zip(row).fold(o, |o, (var, span)| {
                                        // Token-index span → byte extent on
                                        // the posted page.
                                        let lo = byte_spans[span.start].0;
                                        let hi = byte_spans[span.end - 1].1;
                                        o.obj(var, |o| {
                                            o.num("token", span.start as u64)
                                                .num("start", lo as u64)
                                                .num("end", hi as u64)
                                                .str("text", html[lo..hi].trim())
                                        })
                                    })
                                })
                            })
                        })
                        .num("tokens", tokens.len() as u64)
                        .num("eval_us", started.elapsed().as_micros() as u64)
                }),
            )
        }
        Err(e) => {
            ctx.metrics.record_query(name, None);
            Response::json(
                422,
                json::object(|o| o.str("query", name).str("error", &e.to_string())),
            )
        }
    }
}

/// `POST /reload`: rescan the wrapper directory.
fn handle_reload(ctx: &Ctx) -> Response {
    if ctx.registry.dir().is_none() {
        return Response::error(400, "no wrapper directory configured (--wrapper-dir)");
    }
    match ctx.registry.load_dir() {
        Ok(report) => {
            record_scan(&ctx.metrics, &report);
            Response::json(
                200,
                json::object(|o| {
                    o.strs("loaded", report.loaded.iter().map(String::as_str))
                        .arr("errors", |a| {
                            report.errors.iter().fold(a, |a, (file, err)| {
                                a.obj(|o| o.str("file", file).str("error", err))
                            })
                        })
                        .strs("quarantined", report.quarantined.iter().map(String::as_str))
                        .num("skipped_unchanged", report.skipped_unchanged)
                        .num("wrappers", ctx.registry.len() as u64)
                }),
            )
        }
        Err(e) => Response::error(400, &e.to_string()),
    }
}
