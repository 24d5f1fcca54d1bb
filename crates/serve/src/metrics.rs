//! Live daemon metrics: per-endpoint request counts and latency
//! histograms, queue depth, backpressure rejections, and the language
//! store's counters — lock-free atomics (plus one short-critical-section
//! mutex for the dynamically-keyed per-wrapper tallies), snapshotted by
//! `GET /metrics` without pausing workers.

use crate::json::{num_array, Obj};
use rextract_automata::StoreStats;
use rextract_faults::fail_point;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Upper bounds (µs) of the latency histogram buckets; one implicit
/// overflow bucket above the last bound. Log-ish spacing spanning 50µs
/// (cache-hot extraction) to 1s (pathological).
pub const LATENCY_BOUNDS_US: [u64; 14] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000,
];

const BUCKETS: usize = LATENCY_BOUNDS_US.len() + 1;

/// A fixed-bucket latency histogram (µs).
#[derive(Default)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
}

impl Histogram {
    pub fn record(&self, elapsed_us: u64) {
        let idx = LATENCY_BOUNDS_US
            .iter()
            .position(|&b| elapsed_us <= b)
            .unwrap_or(BUCKETS - 1);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(elapsed_us, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Upper-bound estimate of the `q`-quantile (0 < q ≤ 1): the bound of
    /// the bucket containing the `⌈q·n⌉`-th observation. Returns 0 when
    /// empty; the overflow bucket reports the last bound.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return LATENCY_BOUNDS_US
                    .get(i)
                    .copied()
                    .unwrap_or(LATENCY_BOUNDS_US[BUCKETS - 2]);
            }
        }
        LATENCY_BOUNDS_US[BUCKETS - 2]
    }

    pub fn mean_us(&self) -> u64 {
        self.sum_us
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    fn to_json(&self) -> String {
        Obj::new()
            .num("count", self.count())
            .num("mean_us", self.mean_us())
            .num("p50_us", self.quantile_us(0.50))
            .num("p90_us", self.quantile_us(0.90))
            .num("p99_us", self.quantile_us(0.99))
            .raw(
                "buckets",
                &num_array(self.counts.iter().map(|c| c.load(Ordering::Relaxed))),
            )
            .finish()
    }
}

/// Upper bounds of the batch-size histogram buckets; one implicit
/// overflow bucket above the last bound. Power-of-two spacing from
/// singleton batches up past the default `batch_max`.
pub const BATCH_BOUNDS: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// A fixed-bucket size histogram (batch sizes, not latencies): counts,
/// running sum (for the mean), and the max ever seen.
#[derive(Default)]
pub struct SizeHistogram {
    counts: [AtomicU64; BATCH_BOUNDS.len() + 1],
    sum: AtomicU64,
    max: AtomicU64,
}

impl SizeHistogram {
    pub fn record(&self, size: u64) {
        let idx = BATCH_BOUNDS
            .iter()
            .position(|&b| size <= b)
            .unwrap_or(BATCH_BOUNDS.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(size, Ordering::Relaxed);
        self.max.fetch_max(size, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    fn to_json(&self) -> String {
        Obj::new()
            .num("count", self.count())
            .num("sum", self.sum())
            .num("max", self.max())
            .raw("bounds", &num_array(BATCH_BOUNDS.iter().copied()))
            .raw(
                "buckets",
                &num_array(self.counts.iter().map(|c| c.load(Ordering::Relaxed))),
            )
            .finish()
    }
}

/// The daemon's request surfaces, as metric dimensions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    Extract,
    InstallWrapper,
    ListWrappers,
    Pipeline,
    Healthz,
    Metrics,
    Reload,
    Shutdown,
    InstallQuery,
    ListQueries,
    Query,
    Other,
}

impl Endpoint {
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Extract => "extract",
            Endpoint::InstallWrapper => "install_wrapper",
            Endpoint::ListWrappers => "list_wrappers",
            Endpoint::Pipeline => "pipeline",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Reload => "reload",
            Endpoint::Shutdown => "shutdown",
            Endpoint::InstallQuery => "install_query",
            Endpoint::ListQueries => "list_queries",
            Endpoint::Query => "query",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    pub fn all() -> [Endpoint; 12] {
        [
            Endpoint::Extract,
            Endpoint::InstallWrapper,
            Endpoint::ListWrappers,
            Endpoint::Pipeline,
            Endpoint::Healthz,
            Endpoint::Metrics,
            Endpoint::Reload,
            Endpoint::Shutdown,
            Endpoint::InstallQuery,
            Endpoint::ListQueries,
            Endpoint::Query,
            Endpoint::Other,
        ]
    }
}

#[derive(Default)]
struct EndpointMetrics {
    requests: AtomicU64,
    /// Responses with status ≥ 400.
    errors: AtomicU64,
    latency: Histogram,
}

/// Per-wrapper page and tuple tallies, shared by `/extract` (one page
/// per request) and `/pipeline` (a whole corpus per request).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WrapperCounters {
    /// Pages this wrapper extracted successfully.
    pub pages_ok: u64,
    /// Pages routed to this wrapper whose extraction failed (ambiguous
    /// match or other hard error — empty results are counted separately).
    pub pages_failed: u64,
    /// Pages where the wrapper parsed but matched nothing (`NoMatch`) —
    /// the paper's primary drift symptom, disjoint from `pages_failed`.
    pub results_empty: u64,
    /// Tuples emitted under this wrapper's name.
    pub tuples_emitted: u64,
}

/// Per-query evaluation tallies (the `POST /query` path), keyed by
/// installed query name.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct QueryCounters {
    /// Evaluations that produced a (possibly empty) result relation.
    pub evaluations: u64,
    /// Joined records emitted across those evaluations.
    pub records_emitted: u64,
    /// Evaluations that errored (unknown wrapper, bad page, plan error).
    pub failures: u64,
}

/// One page's extraction outcome, as the drift detector sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageOutcome {
    /// Target located.
    Ok,
    /// Wrapper ran but matched nothing (`NoMatch`) — the paper's primary
    /// drift symptom.
    Empty,
    /// Extraction failed hard (ambiguous match, bad page).
    Failed,
}

/// A wrapper's serving health in the drift/repair lifecycle:
/// `Healthy → Degraded → Repairing → Healthy` on a successful repair,
/// or `→ Quarantined` when repair attempts are exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WrapperHealth {
    /// Failure rates below threshold; serving normally.
    Healthy,
    /// Drift flagged: a sliding-window failure or empty-result rate
    /// crossed the threshold. Still serving best-effort (or 503 under
    /// `--drift-strict`) while repair evidence accumulates.
    Degraded,
    /// A supervisor-owned repair thread is retraining the wrapper.
    Repairing,
    /// Repair attempts exhausted; the wrapper stays installed (and keeps
    /// serving best-effort) but no further repairs are tried until a
    /// manual install resets it.
    Quarantined,
}

impl WrapperHealth {
    pub fn name(self) -> &'static str {
        match self {
            WrapperHealth::Healthy => "healthy",
            WrapperHealth::Degraded => "degraded",
            WrapperHealth::Repairing => "repairing",
            WrapperHealth::Quarantined => "quarantined",
        }
    }
}

/// Per-wrapper drift detector state: a sliding window of recent page
/// outcomes plus the wrapper's health.
#[derive(Debug)]
struct DriftState {
    recent: VecDeque<PageOutcome>,
    health: WrapperHealth,
}

impl Default for DriftState {
    fn default() -> Self {
        DriftState {
            recent: VecDeque::new(),
            health: WrapperHealth::Healthy,
        }
    }
}

/// Forced-detection hook: the `serve.drift.detect` failpoint (action
/// `return`) flags drift regardless of observed rates, making the
/// detect → repair path testable without minting hundreds of bad pages.
fn drift_detect_forced() -> bool {
    fail_point!("serve.drift.detect", |_action| true);
    false
}

/// Sentinel for [`Metrics::last_worker_death_ms`]: no worker has died.
const NEVER: u64 = u64::MAX;

/// Shared, lock-free metrics hub.
pub struct Metrics {
    started: Instant,
    endpoints: [EndpointMetrics; 12],
    /// Connections refused with 503 at the accept gate (queue full).
    rejected: AtomicU64,
    /// Connections currently waiting in the job queue.
    queue_depth: AtomicUsize,
    /// Connections a worker is actively serving.
    in_flight: AtomicUsize,
    /// Worker pool size the daemon was booted with.
    workers_configured: AtomicUsize,
    /// Workers currently running (dips below configured between a death
    /// and the supervisor's respawn).
    workers_alive: AtomicUsize,
    /// Workers the supervisor respawned after a death.
    worker_respawns: AtomicU64,
    /// Milliseconds since `started` of the most recent worker death;
    /// [`NEVER`] if none has died.
    last_worker_death_ms: AtomicU64,
    /// Artifacts quarantined (renamed to `*.corrupt`) by directory scans.
    corrupt_artifacts: AtomicU64,
    /// Transient artifact reads that were retried.
    io_retries: AtomicU64,
    /// Artifacts a rescan skipped because their on-disk signature was
    /// unchanged since the last clean import.
    reload_skipped_unchanged: AtomicU64,
    /// Accepted connections the daemon could not admit (EMFILE-style
    /// post-accept failures); the connection is dropped, accepting goes on.
    accept_failures: AtomicU64,
    /// Requests answered 503 because the per-request deadline passed.
    deadline_exceeded: AtomicU64,
    /// Connections abandoned because the drain deadline passed first.
    abandoned_connections: AtomicU64,
    /// Sockets whose timeout/nodelay configuration failed (served
    /// anyway, but without the usual stall protection).
    sock_config_failures: AtomicU64,
    /// `epoll_wait` returns that delivered at least one event. The ratio
    /// of requests to wakeups is the loop's amortization factor.
    epoll_wakeups: AtomicU64,
    /// Requests parsed while an earlier request on the same connection
    /// was still unanswered — the HTTP/1.1 pipelining win.
    pipelined_requests: AtomicU64,
    /// Batches handed to the worker pool.
    batches_dispatched: AtomicU64,
    /// Distribution of dispatched batch sizes.
    batch_size: SizeHistogram,
    /// Per-wrapper page/tuple tallies keyed by wrapper name — the one
    /// dynamically-keyed dimension, so it sits behind a mutex (taken for
    /// a few map operations per *page*, not per connection event).
    wrappers: Mutex<BTreeMap<String, WrapperCounters>>,
    /// Per-query evaluation tallies keyed by query name (same dynamic-key
    /// rationale as `wrappers`; touched once per `/query` request).
    queries: Mutex<BTreeMap<String, QueryCounters>>,
    /// Per-wrapper drift detector windows + health, fed by the same
    /// `/extract` and `/pipeline` outcome stream as the tallies above.
    drift: Mutex<BTreeMap<String, DriftState>>,
    /// Sliding-window size for drift detection (0 disables detection).
    drift_window: AtomicUsize,
    /// Failure/empty-rate threshold that flags drift, stored as `f64`
    /// bits so the hot path stays lock-free.
    drift_threshold_bits: AtomicU64,
    /// Wrappers flagged Degraded by the detector (counts transitions,
    /// not bad pages).
    drift_flagged: AtomicU64,
    /// Online repair attempts started by the supervisor.
    repairs_attempted: AtomicU64,
    /// Repairs that validated and hot-installed a healed wrapper.
    repairs_succeeded: AtomicU64,
    /// Repairs that failed (training error, validation miss, or panic).
    repairs_failed: AtomicU64,
    /// Pages enumerated by `/pipeline` runs.
    pipeline_pages: AtomicU64,
    /// `/pipeline` pages no wrapper matched.
    pipeline_unrouted: AtomicU64,
    /// `/pipeline` pages whose body could not be read.
    pipeline_read_errors: AtomicU64,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics {
            started: Instant::now(),
            endpoints: Default::default(),
            rejected: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            workers_configured: AtomicUsize::new(0),
            workers_alive: AtomicUsize::new(0),
            worker_respawns: AtomicU64::new(0),
            last_worker_death_ms: AtomicU64::new(NEVER),
            corrupt_artifacts: AtomicU64::new(0),
            io_retries: AtomicU64::new(0),
            reload_skipped_unchanged: AtomicU64::new(0),
            accept_failures: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            abandoned_connections: AtomicU64::new(0),
            sock_config_failures: AtomicU64::new(0),
            epoll_wakeups: AtomicU64::new(0),
            pipelined_requests: AtomicU64::new(0),
            batches_dispatched: AtomicU64::new(0),
            batch_size: SizeHistogram::default(),
            wrappers: Mutex::new(BTreeMap::new()),
            queries: Mutex::new(BTreeMap::new()),
            drift: Mutex::new(BTreeMap::new()),
            drift_window: AtomicUsize::new(0),
            drift_threshold_bits: AtomicU64::new(1.0f64.to_bits()),
            drift_flagged: AtomicU64::new(0),
            repairs_attempted: AtomicU64::new(0),
            repairs_succeeded: AtomicU64::new(0),
            repairs_failed: AtomicU64::new(0),
            pipeline_pages: AtomicU64::new(0),
            pipeline_unrouted: AtomicU64::new(0),
            pipeline_read_errors: AtomicU64::new(0),
        }
    }

    pub fn record(&self, endpoint: Endpoint, status: u16, elapsed_us: u64) {
        let m = &self.endpoints[endpoint.index()];
        m.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            m.errors.fetch_add(1, Ordering::Relaxed);
        }
        m.latency.record(elapsed_us);
    }

    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    pub fn enter_worker(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    pub fn exit_worker(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn requests(&self, endpoint: Endpoint) -> u64 {
        self.endpoints[endpoint.index()]
            .requests
            .load(Ordering::Relaxed)
    }

    pub fn set_workers_configured(&self, n: usize) {
        self.workers_configured.store(n, Ordering::Relaxed);
    }

    pub fn workers_configured(&self) -> usize {
        self.workers_configured.load(Ordering::Relaxed)
    }

    pub fn set_workers_alive(&self, n: usize) {
        self.workers_alive.store(n, Ordering::Relaxed);
    }

    pub fn workers_alive(&self) -> usize {
        self.workers_alive.load(Ordering::Relaxed)
    }

    /// A worker thread died (panic escaped the per-connection guard) and
    /// the supervisor is replacing it.
    pub fn record_worker_respawn(&self) {
        self.worker_respawns.fetch_add(1, Ordering::Relaxed);
        let now_ms = self.started.elapsed().as_millis() as u64;
        self.last_worker_death_ms.store(now_ms, Ordering::Relaxed);
    }

    pub fn worker_respawns(&self) -> u64 {
        self.worker_respawns.load(Ordering::Relaxed)
    }

    /// Time since the most recent worker death, or `None` if none ever
    /// died. Drives the `/healthz` "degraded" window.
    pub fn last_worker_death_age(&self) -> Option<std::time::Duration> {
        let at_ms = self.last_worker_death_ms.load(Ordering::Relaxed);
        if at_ms == NEVER {
            return None;
        }
        let now_ms = self.started.elapsed().as_millis() as u64;
        Some(std::time::Duration::from_millis(
            now_ms.saturating_sub(at_ms),
        ))
    }

    pub fn record_corrupt_artifacts(&self, n: u64) {
        self.corrupt_artifacts.fetch_add(n, Ordering::Relaxed);
    }

    pub fn corrupt_artifacts(&self) -> u64 {
        self.corrupt_artifacts.load(Ordering::Relaxed)
    }

    pub fn record_io_retries(&self, n: u64) {
        self.io_retries.fetch_add(n, Ordering::Relaxed);
    }

    pub fn io_retries(&self) -> u64 {
        self.io_retries.load(Ordering::Relaxed)
    }

    pub fn record_reload_skipped_unchanged(&self, n: u64) {
        self.reload_skipped_unchanged
            .fetch_add(n, Ordering::Relaxed);
    }

    pub fn reload_skipped_unchanged(&self) -> u64 {
        self.reload_skipped_unchanged.load(Ordering::Relaxed)
    }

    pub fn record_accept_failure(&self) {
        self.accept_failures.fetch_add(1, Ordering::Relaxed);
    }

    pub fn accept_failures(&self) -> u64 {
        self.accept_failures.load(Ordering::Relaxed)
    }

    pub fn record_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    pub fn deadline_exceeded(&self) -> u64 {
        self.deadline_exceeded.load(Ordering::Relaxed)
    }

    pub fn record_abandoned_connections(&self, n: u64) {
        self.abandoned_connections.fetch_add(n, Ordering::Relaxed);
    }

    pub fn abandoned_connections(&self) -> u64 {
        self.abandoned_connections.load(Ordering::Relaxed)
    }

    pub fn record_sock_config_failure(&self) {
        self.sock_config_failures.fetch_add(1, Ordering::Relaxed);
    }

    pub fn sock_config_failures(&self) -> u64 {
        self.sock_config_failures.load(Ordering::Relaxed)
    }

    pub fn record_epoll_wakeup(&self) {
        self.epoll_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    pub fn epoll_wakeups(&self) -> u64 {
        self.epoll_wakeups.load(Ordering::Relaxed)
    }

    pub fn record_pipelined_request(&self) {
        self.pipelined_requests.fetch_add(1, Ordering::Relaxed);
    }

    pub fn pipelined_requests(&self) -> u64 {
        self.pipelined_requests.load(Ordering::Relaxed)
    }

    /// One batch of `size` items was admitted to the worker queue.
    pub fn record_batch(&self, size: u64) {
        self.batches_dispatched.fetch_add(1, Ordering::Relaxed);
        self.batch_size.record(size);
    }

    pub fn batches_dispatched(&self) -> u64 {
        self.batches_dispatched.load(Ordering::Relaxed)
    }

    pub fn batch_size(&self) -> &SizeHistogram {
        &self.batch_size
    }

    fn wrappers_lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, WrapperCounters>> {
        self.wrappers.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn queries_lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, QueryCounters>> {
        self.queries.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// One `POST /query` evaluation under `name`: `Some(n)` emitted `n`
    /// joined records, `None` errored.
    pub fn record_query(&self, name: &str, records: Option<u64>) {
        let mut map = self.queries_lock();
        let c = map.entry(name.to_string()).or_default();
        match records {
            Some(n) => {
                c.evaluations += 1;
                c.records_emitted += n;
            }
            None => c.failures += 1,
        }
    }

    /// Snapshot of one query's counters (tests / observability).
    pub fn query_counters(&self, name: &str) -> QueryCounters {
        self.queries_lock().get(name).cloned().unwrap_or_default()
    }

    /// One page's extraction outcome under `name` (the `/extract` path:
    /// one page, zero or one tuple). Feeds both the per-wrapper tallies
    /// and the drift detector window; returns `true` when this page
    /// newly flagged the wrapper as Degraded.
    pub fn record_wrapper_outcome(&self, name: &str, outcome: PageOutcome, tuples: u64) -> bool {
        {
            let mut map = self.wrappers_lock();
            let c = map.entry(name.to_string()).or_default();
            match outcome {
                PageOutcome::Ok => c.pages_ok += 1,
                PageOutcome::Empty => c.results_empty += 1,
                PageOutcome::Failed => c.pages_failed += 1,
            }
            c.tuples_emitted += tuples;
        }
        self.drift_observe(name, &[(outcome, 1)])
    }

    /// Fold a batch of per-wrapper tallies in (the `/pipeline` path: a
    /// whole corpus per call). The aggregate outcomes feed the same drift
    /// windows as `/extract` traffic; returns `true` when the batch newly
    /// flagged the wrapper as Degraded.
    pub fn record_wrapper_tallies(
        &self,
        name: &str,
        ok: u64,
        failed: u64,
        empty: u64,
        tuples: u64,
    ) -> bool {
        if ok == 0 && failed == 0 && empty == 0 && tuples == 0 {
            return false; // don't mint zero rows for wrappers no page touched
        }
        {
            let mut map = self.wrappers_lock();
            let c = map.entry(name.to_string()).or_default();
            c.pages_ok += ok;
            c.pages_failed += failed;
            c.results_empty += empty;
            c.tuples_emitted += tuples;
        }
        self.drift_observe(
            name,
            &[
                (PageOutcome::Ok, ok),
                (PageOutcome::Failed, failed),
                (PageOutcome::Empty, empty),
            ],
        )
    }

    pub fn wrapper_counters(&self, name: &str) -> WrapperCounters {
        self.wrappers_lock().get(name).copied().unwrap_or_default()
    }

    fn drift_lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, DriftState>> {
        self.drift.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Configure drift detection: flag a wrapper Degraded when, over the
    /// last `window` pages, the hard-failure rate or the empty-result
    /// rate reaches `threshold`. `window == 0` disables detection.
    pub fn configure_drift(&self, window: usize, threshold: f64) {
        self.drift_window.store(window, Ordering::Relaxed);
        self.drift_threshold_bits
            .store(threshold.to_bits(), Ordering::Relaxed);
    }

    pub fn drift_window(&self) -> usize {
        self.drift_window.load(Ordering::Relaxed)
    }

    pub fn drift_threshold(&self) -> f64 {
        f64::from_bits(self.drift_threshold_bits.load(Ordering::Relaxed))
    }

    /// Push page outcomes into `name`'s sliding window and re-evaluate
    /// the drift predicate. Detection only ever *flags* (Healthy →
    /// Degraded); recovery goes through a successful repair or a manual
    /// install, never through the window quietly refilling with
    /// successes — a wrapper that was drifting stays visible until acted
    /// on. Returns `true` on a new flag.
    fn drift_observe(&self, name: &str, outcomes: &[(PageOutcome, u64)]) -> bool {
        let window = self.drift_window();
        if window == 0 {
            return false;
        }
        let mut map = self.drift_lock();
        let st = map.entry(name.to_string()).or_default();
        for &(outcome, n) in outcomes {
            // Only the last `window` entries matter; cap the pushes so a
            // million-page pipeline batch does O(window) work here.
            for _ in 0..n.min(window as u64) {
                if st.recent.len() == window {
                    st.recent.pop_front();
                }
                st.recent.push_back(outcome);
            }
        }
        if st.health != WrapperHealth::Healthy {
            return false;
        }
        let flagged = if drift_detect_forced() {
            !st.recent.is_empty()
        } else if st.recent.len() == window {
            let failed = st
                .recent
                .iter()
                .filter(|o| **o == PageOutcome::Failed)
                .count() as f64;
            let empty = st
                .recent
                .iter()
                .filter(|o| **o == PageOutcome::Empty)
                .count() as f64;
            let n = window as f64;
            let threshold = self.drift_threshold();
            failed / n >= threshold || empty / n >= threshold
        } else {
            false
        };
        if flagged {
            st.health = WrapperHealth::Degraded;
            self.drift_flagged.fetch_add(1, Ordering::Relaxed);
        }
        flagged
    }

    /// The wrapper's current health (Healthy if never observed).
    pub fn wrapper_health(&self, name: &str) -> WrapperHealth {
        self.drift_lock()
            .get(name)
            .map(|s| s.health)
            .unwrap_or(WrapperHealth::Healthy)
    }

    /// Transition a wrapper's health (the repair supervisor's lever);
    /// returns the previous state.
    pub fn set_wrapper_health(&self, name: &str, health: WrapperHealth) -> WrapperHealth {
        let mut map = self.drift_lock();
        let st = map.entry(name.to_string()).or_default();
        std::mem::replace(&mut st.health, health)
    }

    /// Reset a wrapper's drift state to Healthy with an empty window —
    /// called after a successful repair install or a manual
    /// `POST /wrappers/{name}`, both of which replace the wrapper the
    /// evidence was collected against.
    pub fn reset_wrapper_drift(&self, name: &str) {
        let mut map = self.drift_lock();
        let st = map.entry(name.to_string()).or_default();
        st.recent.clear();
        st.health = WrapperHealth::Healthy;
    }

    /// Every wrapper whose health is not Healthy, sorted by name — the
    /// repair supervisor's worklist and `/healthz`'s degradation signal.
    pub fn unhealthy_wrappers(&self) -> Vec<(String, WrapperHealth)> {
        self.drift_lock()
            .iter()
            .filter(|(_, s)| s.health != WrapperHealth::Healthy)
            .map(|(n, s)| (n.clone(), s.health))
            .collect()
    }

    pub fn drift_flagged(&self) -> u64 {
        self.drift_flagged.load(Ordering::Relaxed)
    }

    pub fn record_repair_attempted(&self) {
        self.repairs_attempted.fetch_add(1, Ordering::Relaxed);
    }

    pub fn repairs_attempted(&self) -> u64 {
        self.repairs_attempted.load(Ordering::Relaxed)
    }

    pub fn record_repair_succeeded(&self) {
        self.repairs_succeeded.fetch_add(1, Ordering::Relaxed);
    }

    pub fn repairs_succeeded(&self) -> u64 {
        self.repairs_succeeded.load(Ordering::Relaxed)
    }

    pub fn record_repair_failed(&self) {
        self.repairs_failed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn repairs_failed(&self) -> u64 {
        self.repairs_failed.load(Ordering::Relaxed)
    }

    /// Corpus-level counters from one `/pipeline` run.
    pub fn record_pipeline_run(&self, pages: u64, unrouted: u64, read_errors: u64) {
        self.pipeline_pages.fetch_add(pages, Ordering::Relaxed);
        self.pipeline_unrouted
            .fetch_add(unrouted, Ordering::Relaxed);
        self.pipeline_read_errors
            .fetch_add(read_errors, Ordering::Relaxed);
    }

    pub fn pipeline_pages(&self) -> u64 {
        self.pipeline_pages.load(Ordering::Relaxed)
    }

    /// The full `/metrics` document with an empty `engines` section.
    pub fn render_json(&self, store: &StoreStats) -> String {
        self.render_json_with(store, "{}")
    }

    /// The full `/metrics` document. `engines` is a pre-rendered JSON
    /// object mapping wrapper name → extraction-engine size (symbol
    /// classes); the server builds it from the live registry, so a hot
    /// install shows up without a restart.
    pub fn render_json_with(&self, store: &StoreStats, engines: &str) -> String {
        let mut endpoints = String::from("{");
        for (i, e) in Endpoint::all().into_iter().enumerate() {
            let m = &self.endpoints[e.index()];
            if i > 0 {
                endpoints.push(',');
            }
            let body = Obj::new()
                .num("requests", m.requests.load(Ordering::Relaxed))
                .num("errors", m.errors.load(Ordering::Relaxed))
                .raw("latency", &m.latency.to_json())
                .finish();
            endpoints.push_str(&format!("\"{}\":{}", e.name(), body));
        }
        endpoints.push('}');
        let mut wrappers = String::from("{");
        for (i, (name, c)) in self.wrappers_lock().iter().enumerate() {
            if i > 0 {
                wrappers.push(',');
            }
            let body = Obj::new()
                .num("pages_ok", c.pages_ok)
                .num("pages_failed", c.pages_failed)
                .num("results_empty", c.results_empty)
                .num("tuples_emitted", c.tuples_emitted)
                .str("health", self.wrapper_health(name).name())
                .finish();
            wrappers.push_str(&format!("{:?}:{}", name, body));
        }
        wrappers.push('}');
        let mut queries = String::from("{");
        for (i, (name, c)) in self.queries_lock().iter().enumerate() {
            if i > 0 {
                queries.push(',');
            }
            let body = Obj::new()
                .num("evaluations", c.evaluations)
                .num("records_emitted", c.records_emitted)
                .num("failures", c.failures)
                .finish();
            queries.push_str(&format!("{name:?}:{body}"));
        }
        queries.push('}');
        let drift = Obj::new()
            .num("window", self.drift_window() as u64)
            .float("threshold", self.drift_threshold())
            .num("flagged", self.drift_flagged())
            .num("repairs_attempted", self.repairs_attempted())
            .num("repairs_succeeded", self.repairs_succeeded())
            .num("repairs_failed", self.repairs_failed())
            .finish();
        let pipeline = Obj::new()
            .num("pages", self.pipeline_pages())
            .num("unrouted", self.pipeline_unrouted.load(Ordering::Relaxed))
            .num(
                "read_errors",
                self.pipeline_read_errors.load(Ordering::Relaxed),
            )
            .finish();
        let workers = Obj::new()
            .num("configured", self.workers_configured() as u64)
            .num("alive", self.workers_alive() as u64)
            .num("respawns", self.worker_respawns())
            .finish();
        #[cfg_attr(not(feature = "failpoints"), allow(unused_mut))]
        let mut obj = Obj::new()
            .num("uptime_ms", self.started.elapsed().as_millis() as u64)
            .num(
                "queue_depth",
                self.queue_depth.load(Ordering::Relaxed) as u64,
            )
            .num("in_flight", self.in_flight.load(Ordering::Relaxed) as u64)
            .num("rejected_total", self.rejected.load(Ordering::Relaxed))
            .raw("workers", &workers)
            .num("corrupt_artifacts", self.corrupt_artifacts())
            .num("io_retries", self.io_retries())
            .num("reload_skipped_unchanged", self.reload_skipped_unchanged())
            .num("accept_failures", self.accept_failures())
            .num("deadline_exceeded", self.deadline_exceeded())
            .num("abandoned_connections", self.abandoned_connections())
            .num("sock_config_failures", self.sock_config_failures())
            .num("epoll_wakeups", self.epoll_wakeups())
            .num("pipelined_requests", self.pipelined_requests())
            .num("batches_dispatched", self.batches_dispatched())
            .raw("batch_size", &self.batch_size.to_json())
            .raw(
                "latency_bucket_bounds_us",
                &num_array(LATENCY_BOUNDS_US.iter().copied()),
            )
            .raw("endpoints", &endpoints)
            .raw("wrappers", &wrappers)
            .raw("queries", &queries)
            .raw("drift", &drift)
            .raw("pipeline", &pipeline)
            .raw("engines", engines)
            .raw("store", &store_stats_json(store));
        #[cfg(feature = "failpoints")]
        {
            let mut arr = String::from("[");
            for (i, fp) in rextract_faults::snapshot().iter().enumerate() {
                if i > 0 {
                    arr.push(',');
                }
                arr.push_str(
                    &Obj::new()
                        .str("name", &fp.name)
                        .num("evals", fp.evals)
                        .num("fires", fp.fires)
                        .finish(),
                );
            }
            arr.push(']');
            obj = obj.raw("failpoints", &arr);
        }
        obj.finish()
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

/// Language-store counters as JSON (the serve-side view of `StoreStats`;
/// the automata crate stays presentation-free).
pub fn store_stats_json(s: &StoreStats) -> String {
    let mut per_op = String::from("{");
    let mut first = true;
    for o in &s.per_op {
        if o.hits + o.misses == 0 {
            continue;
        }
        if !first {
            per_op.push(',');
        }
        first = false;
        per_op.push_str(&format!(
            "\"{}\":{}",
            o.name,
            Obj::new()
                .num("hits", o.hits)
                .num("misses", o.misses)
                .finish()
        ));
    }
    per_op.push('}');
    let mut obj = Obj::new()
        .num("interned", s.interned)
        .num("dedup_hits", s.dedup_hits)
        .num("op_cache_size", s.op_cache_size)
        .num("hits", s.hits())
        .num("misses", s.misses())
        .float("hit_rate", s.hit_rate())
        .num("evictions", s.evictions)
        .num("sweeps", s.sweeps)
        .num("re_misses", s.re_misses)
        .num("shard_count", s.shards.len() as u64)
        .num("shard_contended", s.contended())
        .raw("shard_sizes", &num_array(s.shards.iter().map(|sh| sh.size)));
    obj = match s.op_cache_capacity {
        Some(cap) => obj.num("op_cache_capacity", cap),
        None => obj.raw("op_cache_capacity", "null"),
    };
    obj.raw("per_op", &per_op).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for us in [40, 60, 300, 2_000_000] {
            h.record(us);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile_us(0.25), 50); // 40 ≤ 50
        assert!(h.quantile_us(0.99) >= 500_000); // overflow bucket
        assert!(h.mean_us() > 0);
        let json = h.to_json();
        assert!(json.contains("\"count\":4"), "{json}");
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.mean_us(), 0);
    }

    #[test]
    fn metrics_render() {
        let m = Metrics::new();
        m.record(Endpoint::Extract, 200, 120);
        m.record(Endpoint::Extract, 422, 80);
        m.record_rejected();
        m.set_queue_depth(3);
        m.record_accept_failure();
        m.record_reload_skipped_unchanged(4);
        m.record_epoll_wakeup();
        m.record_pipelined_request();
        m.record_batch(1);
        m.record_batch(7);
        m.record_wrapper_outcome("demo", PageOutcome::Ok, 1);
        m.record_wrapper_outcome("demo", PageOutcome::Failed, 0);
        m.record_wrapper_outcome("demo", PageOutcome::Empty, 0);
        m.record_wrapper_tallies("demo", 3, 1, 0, 3);
        m.record_wrapper_tallies("idle", 0, 0, 0, 0);
        m.record_pipeline_run(10, 2, 1);
        let json = m.render_json(&StoreStats::default());
        assert!(json.contains("\"queue_depth\":3"), "{json}");
        assert!(json.contains("\"rejected_total\":1"));
        assert!(json.contains("\"extract\":{\"requests\":2,\"errors\":1"));
        assert!(json.contains("\"store\":{"));
        assert!(json.contains("\"accept_failures\":1"), "{json}");
        assert!(json.contains("\"reload_skipped_unchanged\":4"), "{json}");
        assert!(json.contains("\"epoll_wakeups\":1"), "{json}");
        assert!(json.contains("\"pipelined_requests\":1"), "{json}");
        assert!(json.contains("\"batches_dispatched\":2"), "{json}");
        assert!(
            json.contains("\"batch_size\":{\"count\":2,\"sum\":8,\"max\":7"),
            "{json}"
        );
        assert_eq!(m.requests(Endpoint::Extract), 2);
        // /extract and /pipeline tallies share one per-wrapper row;
        // untouched wrappers mint no row at all.
        assert!(
            json.contains(
                "\"demo\":{\"pages_ok\":4,\"pages_failed\":2,\"results_empty\":1,\
                 \"tuples_emitted\":4,\"health\":\"healthy\"}"
            ),
            "{json}"
        );
        assert!(!json.contains("\"idle\""), "{json}");
        assert!(json.contains("\"drift\":{\"window\":0"), "{json}");
        assert!(json.contains("\"repairs_attempted\":0"), "{json}");
        assert!(
            json.contains("\"pipeline\":{\"pages\":10,\"unrouted\":2,\"read_errors\":1}"),
            "{json}"
        );
        assert_eq!(
            m.wrapper_counters("demo"),
            WrapperCounters {
                pages_ok: 4,
                pages_failed: 2,
                results_empty: 1,
                tuples_emitted: 4
            }
        );
        assert_eq!(m.wrapper_counters("missing"), WrapperCounters::default());
        assert_eq!(m.pipeline_pages(), 10);
    }

    #[test]
    fn drift_flags_on_empty_rate_over_full_window() {
        let m = Metrics::new();
        m.configure_drift(4, 0.5);
        // Window not yet full: no flag even at 100% empty.
        assert!(!m.record_wrapper_outcome("w", PageOutcome::Empty, 0));
        assert!(!m.record_wrapper_outcome("w", PageOutcome::Empty, 0));
        assert!(!m.record_wrapper_outcome("w", PageOutcome::Ok, 1));
        assert_eq!(m.wrapper_health("w"), WrapperHealth::Healthy);
        // Fourth page fills the window at 3/4 empty ≥ 0.5: flag.
        assert!(m.record_wrapper_outcome("w", PageOutcome::Empty, 0));
        assert_eq!(m.wrapper_health("w"), WrapperHealth::Degraded);
        assert_eq!(m.drift_flagged(), 1);
        // Already flagged: no double count.
        assert!(!m.record_wrapper_outcome("w", PageOutcome::Empty, 0));
        assert_eq!(m.drift_flagged(), 1);
        assert_eq!(
            m.unhealthy_wrappers(),
            vec![("w".to_string(), WrapperHealth::Degraded)]
        );
    }

    #[test]
    fn drift_flags_on_failure_rate_and_resets_on_reinstall() {
        let m = Metrics::new();
        m.configure_drift(2, 1.0);
        m.record_wrapper_outcome("w", PageOutcome::Failed, 0);
        assert!(m.record_wrapper_outcome("w", PageOutcome::Failed, 0));
        assert_eq!(m.wrapper_health("w"), WrapperHealth::Degraded);
        m.reset_wrapper_drift("w");
        assert_eq!(m.wrapper_health("w"), WrapperHealth::Healthy);
        assert!(m.unhealthy_wrappers().is_empty());
        // The window was cleared too: one more failure is not enough.
        assert!(!m.record_wrapper_outcome("w", PageOutcome::Failed, 0));
    }

    #[test]
    fn flagged_health_is_sticky_under_later_successes() {
        let m = Metrics::new();
        m.configure_drift(2, 1.0);
        m.record_wrapper_outcome("w", PageOutcome::Empty, 0);
        m.record_wrapper_outcome("w", PageOutcome::Empty, 0);
        assert_eq!(m.wrapper_health("w"), WrapperHealth::Degraded);
        for _ in 0..8 {
            m.record_wrapper_outcome("w", PageOutcome::Ok, 1);
        }
        assert_eq!(
            m.wrapper_health("w"),
            WrapperHealth::Degraded,
            "recovery goes through repair, not through the window refilling"
        );
    }

    #[test]
    fn pipeline_tallies_feed_drift_window() {
        let m = Metrics::new();
        m.configure_drift(4, 0.5);
        assert!(m.record_wrapper_tallies("w", 1, 0, 100, 1));
        assert_eq!(m.wrapper_health("w"), WrapperHealth::Degraded);
    }

    #[test]
    fn drift_disabled_with_zero_window() {
        let m = Metrics::new();
        for _ in 0..100 {
            m.record_wrapper_outcome("w", PageOutcome::Failed, 0);
        }
        assert_eq!(m.wrapper_health("w"), WrapperHealth::Healthy);
        assert_eq!(m.drift_flagged(), 0);
    }

    #[test]
    fn health_transitions_and_repair_counters() {
        let m = Metrics::new();
        m.configure_drift(1, 1.0);
        m.record_wrapper_outcome("w", PageOutcome::Empty, 0);
        assert_eq!(
            m.set_wrapper_health("w", WrapperHealth::Repairing),
            WrapperHealth::Degraded
        );
        m.record_repair_attempted();
        m.record_repair_failed();
        m.record_repair_attempted();
        m.record_repair_succeeded();
        assert_eq!(m.repairs_attempted(), 2);
        assert_eq!(m.repairs_succeeded(), 1);
        assert_eq!(m.repairs_failed(), 1);
        // While Repairing, new bad pages don't re-flag.
        assert!(!m.record_wrapper_outcome("w", PageOutcome::Empty, 0));
        assert_eq!(m.drift_flagged(), 1);
    }

    #[test]
    fn batch_size_histogram_buckets() {
        let h = SizeHistogram::default();
        for size in [1, 1, 2, 32, 500] {
            h.record(size);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 536);
        assert_eq!(h.max(), 500);
        let json = h.to_json();
        // Two singletons in the first bucket, the oversize one overflows.
        assert!(json.contains("\"buckets\":[2,1,0,0,0,1,0,0,1]"), "{json}");
    }
}
