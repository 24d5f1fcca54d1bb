//! # rextract-serve — the extraction daemon
//!
//! A std-only (no async runtime, no HTTP framework — the build
//! environment has no network registry) multi-threaded HTTP/1.1 daemon
//! that serves trained wrappers at production lifetimes: the paper's
//! shopbot keeps extracting from a stream of changing pages, so the
//! wrapper-hosting runtime must bound its memory, expose its health, and
//! survive misbehaving requests.
//!
//! * **Event-driven core.** One readiness loop ([`epoll`], a std-only
//!   syscall shim) owns every nonblocking socket: it accepts, reads,
//!   parses **all** complete requests in a connection's buffer (HTTP/1.1
//!   pipelining) and answers strictly in order, handling partial reads
//!   and writes without dedicating a thread per connection.
//! * **Batched extraction + bounded queue.** Parsed requests are grouped
//!   into [`pool::Batch`]es — same-wrapper `/extract`s coalesce (up to
//!   [`ServeConfig::batch_max`]) so a worker resolves the wrapper once
//!   and amortizes one `WrapperScratch` across the whole batch — and
//!   flow through a fixed-capacity [`pool::JobQueue`]; a full queue
//!   answers `503` immediately (backpressure instead of unbounded
//!   buffering).
//! * **Wrapper registry.** [`registry::Registry`] loads persisted
//!   `wrapper::persist` artifacts from a directory at boot, installs
//!   replacements via `POST /wrappers/{name}`, and rescans on
//!   `POST /reload` — per-artifact validation (including the persist
//!   format version) keeps one stale file from taking the daemon down.
//! * **Bounded store.** [`ServeConfig::op_cache_capacity`] wires the
//!   language store's generation-based eviction
//!   ([`rextract_automata::Store::set_op_cache_capacity`]) so the op
//!   cache cannot grow without bound over weeks of traffic.
//! * **Live metrics.** `GET /metrics` reports per-endpoint request
//!   counts, latency histograms with p50/p90/p99, queue depth, rejected
//!   connections, epoll wakeups, pipelined requests, the batch-size
//!   histogram, per-wrapper page/tuple tallies (fed page by page by
//!   `/extract` and `/pipeline` through one observer), and the full
//!   `StoreStats` (hits, misses, evictions).
//! * **Graceful shutdown.** `POST /shutdown` (or
//!   [`server::ServerHandle::shutdown`]) closes the accept gate, drains
//!   admitted jobs, and lets in-flight requests finish — up to
//!   [`ServeConfig::drain_timeout`], after which wedged connections are
//!   abandoned (logged + counted) rather than wedging the shutdown.
//! * **Self-healing worker pool.** A supervisor thread detects worker
//!   deaths (a panic that escapes the per-connection guard), respawns
//!   them, and surfaces the incident: `/healthz` reports `"degraded"`
//!   while the pool is short-handed or within
//!   [`ServeConfig::degraded_window`] of the last death, and `/metrics`
//!   counts respawns.
//! * **Drift detection + online self-repair.** Per-wrapper sliding
//!   windows over `/extract` and `/pipeline` outcomes flag a wrapper
//!   `Degraded` when its failure or empty-result rate crosses
//!   [`ServeConfig::drift_threshold`]; the supervisor then retrains it
//!   online from retained evidence pages ([`drift`]) and hot-installs
//!   the healed artifact through the crash-safe install path, bumping
//!   its revision — all without a restart. `--drift-strict` turns
//!   best-effort serving of a drifted wrapper into `503`s.
//! * **Fault injection.** Built with `--features failpoints`, the daemon
//!   compiles in named failpoints (`worker.panic.escape`, `extract.slow`,
//!   `registry.read.transient`, `serve.drift.detect`,
//!   `serve.repair.train`, `serve.repair.install`, and the persistence
//!   layer's `persist.write.*`) that tests and `rextract serve --fault`
//!   can arm; without the feature they compile to nothing.
//!
//! ## Endpoints
//!
//! | Method & path | Purpose |
//! |---|---|
//! | `POST /extract?wrapper=NAME` | HTML body → tag sequence → extraction; JSON result with positions and timing |
//! | `POST /wrappers/{name}` | install/replace a wrapper from an artifact body |
//! | `GET /wrappers` | list installed wrapper names |
//! | `POST /pipeline?wrapper=NAME&workers=N` | manifest of server-local page paths → NDJSON tuple stream in manifest order (corpus pipeline) |
//! | `POST /reload` | rescan the wrapper directory |
//! | `GET /healthz` | liveness + wrapper count |
//! | `GET /metrics` | counters, histograms, queue depth, store stats |
//! | `POST /shutdown` | graceful drain |
//!
//! ## Quickstart
//!
//! ```no_run
//! use rextract_serve::{serve, ServeConfig};
//!
//! let handle = serve(ServeConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port; see handle.addr()
//!     ..ServeConfig::default()
//! }).unwrap();
//! println!("listening on http://{}", handle.addr());
//! handle.join(); // blocks until POST /shutdown
//! ```

pub mod drift;
pub mod epoll;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod queries;
pub mod registry;
pub mod server;

pub use metrics::{Counter, Endpoint, Metrics};
pub use queries::QueryStore;
pub use registry::Registry;
pub use server::ServerHandle;

use std::path::PathBuf;
use std::time::Duration;

/// Daemon configuration. `Default` suits local runs; the CLI maps
/// `rextract serve` flags onto these fields one-to-one.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Bounded job-queue capacity; connections beyond it get `503`.
    pub queue_capacity: usize,
    /// Most `/extract` requests coalesced into one batch. Larger batches
    /// amortize wrapper resolution and scratch reuse further but raise
    /// tail latency for the last document in a batch.
    pub batch_max: usize,
    /// Directory of `*.wrapper` artifacts to load at boot and on
    /// `POST /reload`; hot installs persist back here.
    pub wrapper_dir: Option<PathBuf>,
    /// Entry bound for the language store's op cache (`None` =
    /// unbounded). The daemon default keeps long runs memory-safe.
    pub op_cache_capacity: Option<usize>,
    /// Idle keep-alive read timeout per connection.
    pub keepalive_timeout: Duration,
    /// Per-request wall-clock budget for `/extract`; past it the handler
    /// answers `503` at its next cooperative checkpoint (std threads
    /// cannot be preempted, so enforcement is between pipeline stages).
    pub request_deadline: Duration,
    /// How long graceful shutdown waits for in-flight connections before
    /// abandoning the wedged ones (logged + `abandoned_connections`
    /// metric).
    pub drain_timeout: Duration,
    /// How long after a worker death `/healthz` keeps reporting
    /// `"degraded"`. Respawn takes single-digit milliseconds; the window
    /// keeps the incident observable to a poller.
    pub degraded_window: Duration,
    /// Sliding-window size (pages) for per-wrapper drift detection; `0`
    /// disables detection entirely.
    pub drift_window: usize,
    /// Failure or empty-result rate over the window that flags a wrapper
    /// as Degraded and starts the online repair loop.
    pub drift_threshold: f64,
    /// With `true`, a Degraded/Repairing/Quarantined wrapper answers
    /// `503` instead of serving best-effort.
    pub drift_strict: bool,
    /// Base backoff between failed repair attempts (doubles per attempt
    /// up to [`drift::MAX_REPAIR_ATTEMPTS`] attempts).
    pub repair_backoff: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            queue_capacity: 128,
            batch_max: 32,
            wrapper_dir: None,
            op_cache_capacity: Some(16_384),
            keepalive_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(10),
            drain_timeout: Duration::from_millis(5000),
            degraded_window: Duration::from_secs(1),
            // Conservative defaults: a wrapper has to fail (or match
            // nothing on) ≥ 90% of its last 32 pages before the daemon
            // declares drift and starts repairing.
            drift_window: 32,
            drift_threshold: 0.9,
            drift_strict: false,
            repair_backoff: Duration::from_millis(200),
        }
    }
}

/// Boot a daemon. Alias for [`server::start`].
pub fn serve(config: ServeConfig) -> std::io::Result<ServerHandle> {
    server::start(config)
}
