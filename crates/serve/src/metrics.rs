//! Live daemon metrics: one table of plain counters and gauges
//! ([`Counter`]), per-endpoint request counts and latency histograms,
//! the batch-size histogram, and the per-query tallies — atomics, plus
//! one short-critical-section mutex for the query-keyed map, snapshotted
//! by `GET /metrics` without pausing workers. `Metrics` holds no
//! per-wrapper state: the `wrappers` rows and the drift policy come from
//! the [`Lifecycle`] table it renders alongside.

use crate::drift::Lifecycle;
use rextract_automata::StoreStats;
use rextract_extraction::json::{self, Obj};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Declares a fieldless enum as a table: every variant carries its doc
/// comment and one entry of the given type, and `ALL` lists the
/// variants in declaration order — the order `/metrics` renders them in.
macro_rules! table {
    ($(#[$meta:meta])* pub enum $ty:ident: $entry:ty {
        $($(#[$vmeta:meta])* $variant:ident => $value:expr,)*
    }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $ty {
            $($(#[$vmeta])* $variant,)*
        }

        impl $ty {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$ty] = &[$($ty::$variant),*];

            fn entry(self) -> $entry {
                match self {
                    $($ty::$variant => $value,)*
                }
            }
        }
    };
}
pub(crate) use table;

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

    fn json<'a>(&self, o: Obj<'a>) -> Obj<'a> {
        o.num("count", self.count())
            .num("mean_us", self.mean_us())
            .num("p50_us", self.quantile_us(0.50))
            .num("p90_us", self.quantile_us(0.90))
            .num("p99_us", self.quantile_us(0.99))
            .nums(
                "buckets",
                self.counts.iter().map(|c| c.load(Ordering::Relaxed)),
            )
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

    fn json<'a>(&self, o: Obj<'a>) -> Obj<'a> {
        o.num("count", self.count())
            .num("sum", self.sum())
            .num("max", self.max())
            .nums("bounds", BATCH_BOUNDS)
            .nums(
                "buckets",
                self.counts.iter().map(|c| c.load(Ordering::Relaxed)),
            )
    }
}

table! {
    /// The daemon's request surfaces, as metric dimensions.
    pub enum Endpoint: &'static str {
        Extract => "extract",
        InstallWrapper => "install_wrapper",
        ListWrappers => "list_wrappers",
        Pipeline => "pipeline",
        Healthz => "healthz",
        Metrics => "metrics",
        Reload => "reload",
        Shutdown => "shutdown",
        InstallQuery => "install_query",
        ListQueries => "list_queries",
        Query => "query",
        Other => "other",
    }
}

impl Endpoint {
    pub fn name(self) -> &'static str {
        self.entry()
    }
}

/// Where a [`Counter`] renders in the `/metrics` document.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Section {
    /// Top level, ahead of the `workers` object.
    Head,
    /// The `workers` object.
    Workers,
    /// Top level, after the `workers` object.
    Body,
    /// The `drift` object, after its `window` and `threshold`.
    Drift,
    /// The `pipeline` object.
    Pipeline,
}

table! {
    /// Every plain counter and gauge the daemon keeps: one atomic each in
    /// [`Metrics`], written with [`Metrics::add`], [`Metrics::sub`] and
    /// [`Metrics::set`], read with [`Metrics::get`], and rendered into
    /// `/metrics` under its section and key.
    pub enum Counter: (Section, &'static str) {
        /// Connections currently waiting in the job queue (gauge).
        QueueDepth => (Section::Head, "queue_depth"),
        /// Batches a worker is actively serving (gauge).
        InFlight => (Section::Head, "in_flight"),
        /// Connections refused with 503 at the accept gate or on a full
        /// queue.
        Rejected => (Section::Head, "rejected_total"),
        /// Worker pool size the daemon was booted with (gauge).
        WorkersConfigured => (Section::Workers, "configured"),
        /// Workers currently running; dips below configured between a
        /// death and the supervisor's respawn (gauge).
        WorkersAlive => (Section::Workers, "alive"),
        /// Workers the supervisor respawned after a death.
        WorkerRespawns => (Section::Workers, "respawns"),
        /// Artifacts quarantined (renamed to `*.corrupt`) by directory
        /// scans.
        CorruptArtifacts => (Section::Body, "corrupt_artifacts"),
        /// Transient artifact reads that were retried.
        IoRetries => (Section::Body, "io_retries"),
        /// Artifacts a rescan skipped because their on-disk signature was
        /// unchanged since the last clean import.
        ReloadSkippedUnchanged => (Section::Body, "reload_skipped_unchanged"),
        /// Accepted connections the daemon could not admit (EMFILE-style
        /// post-accept failures); the connection is dropped, accepting
        /// goes on.
        AcceptFailures => (Section::Body, "accept_failures"),
        /// Requests answered 503 because the per-request deadline passed.
        DeadlineExceeded => (Section::Body, "deadline_exceeded"),
        /// Connections abandoned because the drain deadline passed first.
        AbandonedConnections => (Section::Body, "abandoned_connections"),
        /// Sockets whose timeout/nodelay configuration failed (served
        /// anyway, but without the usual stall protection).
        SockConfigFailures => (Section::Body, "sock_config_failures"),
        /// `epoll_wait` returns that delivered at least one event. The
        /// ratio of requests to wakeups is the loop's amortization factor.
        EpollWakeups => (Section::Body, "epoll_wakeups"),
        /// Requests parsed while an earlier request on the same
        /// connection was still unanswered — the HTTP/1.1 pipelining win.
        PipelinedRequests => (Section::Body, "pipelined_requests"),
        /// Batches handed to the worker pool.
        BatchesDispatched => (Section::Body, "batches_dispatched"),
        /// Wrappers flagged Degraded by the drift detector (counts
        /// transitions, not bad pages).
        DriftFlagged => (Section::Drift, "flagged"),
        /// Online repair attempts started by the supervisor.
        RepairsAttempted => (Section::Drift, "repairs_attempted"),
        /// Repairs that validated and hot-installed a healed wrapper.
        RepairsSucceeded => (Section::Drift, "repairs_succeeded"),
        /// Repairs that failed (training error, validation miss, or
        /// panic).
        RepairsFailed => (Section::Drift, "repairs_failed"),
        /// Pages enumerated by `/pipeline` runs.
        PipelinePages => (Section::Pipeline, "pages"),
        /// `/pipeline` pages no wrapper matched.
        PipelineUnrouted => (Section::Pipeline, "unrouted"),
        /// `/pipeline` pages whose body could not be read.
        PipelineReadErrors => (Section::Pipeline, "read_errors"),
    }
}

#[derive(Default)]
struct EndpointMetrics {
    requests: AtomicU64,
    /// Responses with status ≥ 400.
    errors: AtomicU64,
    latency: Histogram,
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

/// Take the query-tally lock; a panic elsewhere never poisons the
/// metrics.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Sentinel for `last_worker_death_ms`: no worker has died.
const NEVER: u64 = u64::MAX;

/// Shared metrics hub: atomics, plus one mutex for the per-query
/// tallies.
pub struct Metrics {
    started: Instant,
    /// One atomic per [`Counter`], indexed by variant.
    counters: [AtomicU64; Counter::ALL.len()],
    endpoints: [EndpointMetrics; Endpoint::ALL.len()],
    /// Milliseconds since `started` of the most recent worker death;
    /// [`NEVER`] if none has died.
    last_worker_death_ms: AtomicU64,
    /// Distribution of dispatched batch sizes.
    batch_size: SizeHistogram,
    /// Per-query evaluation tallies keyed by query name — dynamically
    /// keyed, so it sits behind a mutex (touched once per `/query`
    /// request).
    queries: Mutex<BTreeMap<String, QueryCounters>>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics {
            started: Instant::now(),
            counters: Default::default(),
            endpoints: Default::default(),
            last_worker_death_ms: AtomicU64::new(NEVER),
            batch_size: SizeHistogram::default(),
            queries: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Lower a gauge.
    pub fn sub(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_sub(n, Ordering::Relaxed);
    }

    pub fn set(&self, counter: Counter, value: u64) {
        self.counters[counter as usize].store(value, Ordering::Relaxed);
    }

    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    pub fn record(&self, endpoint: Endpoint, status: u16, elapsed_us: u64) {
        let m = &self.endpoints[endpoint as usize];
        m.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            m.errors.fetch_add(1, Ordering::Relaxed);
        }
        m.latency.record(elapsed_us);
    }

    /// A worker thread died (panic escaped the per-connection guard) and
    /// the supervisor is replacing it.
    pub fn record_worker_respawn(&self) {
        self.add(Counter::WorkerRespawns, 1);
        let now_ms = self.started.elapsed().as_millis() as u64;
        self.last_worker_death_ms.store(now_ms, Ordering::Relaxed);
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

    /// One batch of `size` items was admitted to the worker queue.
    pub fn record_batch(&self, size: u64) {
        self.add(Counter::BatchesDispatched, 1);
        self.batch_size.record(size);
    }

    /// One `POST /query` evaluation under `name`: `Some(n)` emitted `n`
    /// joined records, `None` errored.
    pub fn record_query(&self, name: &str, records: Option<u64>) {
        let mut map = lock(&self.queries);
        let c = map.entry(name.to_string()).or_default();
        match records {
            Some(n) => {
                c.evaluations += 1;
                c.records_emitted += n;
            }
            None => c.failures += 1,
        }
    }

    /// Write every [`Counter`] of `section`, in table order.
    fn counters<'a>(&self, o: Obj<'a>, section: Section) -> Obj<'a> {
        Counter::ALL
            .iter()
            .filter(|c| c.entry().0 == section)
            .fold(o, |o, &c| o.num(c.entry().1, self.get(c)))
    }

    /// The full `/metrics` document. `engines` maps each installed
    /// wrapper's name to its extraction-engine size (symbol classes);
    /// the server reads it from the live registry, so a hot install
    /// shows up without a restart. `lifecycle` gives the `wrappers` rows
    /// and the drift policy.
    pub fn render_json(
        &self,
        store: &StoreStats,
        engines: &[(&str, u64)],
        lifecycle: &Lifecycle,
    ) -> String {
        json::object(|o| {
            let o = o.num("uptime_ms", self.started.elapsed().as_millis() as u64);
            let o = self
                .counters(o, Section::Head)
                .obj("workers", |w| self.counters(w, Section::Workers));
            let o = self
                .counters(o, Section::Body)
                .obj("batch_size", |b| self.batch_size.json(b))
                .nums("latency_bucket_bounds_us", LATENCY_BOUNDS_US)
                .obj("endpoints", |o| {
                    Endpoint::ALL.iter().fold(o, |o, &e| {
                        let m = &self.endpoints[e as usize];
                        o.obj(e.name(), |o| {
                            o.num("requests", m.requests.load(Ordering::Relaxed))
                                .num("errors", m.errors.load(Ordering::Relaxed))
                                .obj("latency", |l| m.latency.json(l))
                        })
                    })
                })
                .obj("wrappers", |o| lifecycle.render(o))
                .obj("queries", |o| {
                    lock(&self.queries).iter().fold(o, |o, (name, c)| {
                        o.obj(name, |o| {
                            o.num("evaluations", c.evaluations)
                                .num("records_emitted", c.records_emitted)
                                .num("failures", c.failures)
                        })
                    })
                })
                .obj("drift", |d| {
                    let d = d
                        .num("window", lifecycle.window as u64)
                        .float("threshold", lifecycle.threshold);
                    self.counters(d, Section::Drift)
                })
                .obj("pipeline", |p| self.counters(p, Section::Pipeline))
                .obj("engines", |o| {
                    engines.iter().fold(o, |o, &(name, classes)| {
                        o.obj(name, |e| e.num("classes", classes))
                    })
                })
                .obj("store", |o| store_stats_json(store, o));
            #[cfg(feature = "failpoints")]
            let o = o.arr("failpoints", |a| {
                rextract_faults::snapshot().iter().fold(a, |a, fp| {
                    a.obj(|o| {
                        o.str("name", &fp.name)
                            .num("evals", fp.evals)
                            .num("fires", fp.fires)
                    })
                })
            });
            o
        })
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

/// Language-store counters as JSON fields (the serve-side view of
/// `StoreStats`; the automata crate stays presentation-free).
fn store_stats_json<'a>(s: &StoreStats, o: Obj<'a>) -> Obj<'a> {
    o.num("interned", s.interned)
        .num("dedup_hits", s.dedup_hits)
        .num("op_cache_size", s.op_cache_size)
        .num("hits", s.hits())
        .num("misses", s.misses())
        .float("hit_rate", s.hit_rate())
        .num("evictions", s.evictions)
        .obj("per_op", |o| {
            s.per_op
                .iter()
                .filter(|op| op.hits + op.misses > 0)
                .fold(o, |o, op| {
                    o.obj(op.name, |o| o.num("hits", op.hits).num("misses", op.misses))
                })
        })
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
        let json = json::object(|o| h.json(o));
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
        use rextract_corpus::PageEvent;
        use rextract_wrapper::PageOutcome;

        let m = Metrics::new();
        let life = Lifecycle::new(0, 1.0);
        m.record(Endpoint::Extract, 200, 120);
        m.record(Endpoint::Extract, 422, 80);
        m.add(Counter::Rejected, 1);
        m.set(Counter::QueueDepth, 3);
        m.add(Counter::AcceptFailures, 1);
        m.add(Counter::ReloadSkippedUnchanged, 4);
        m.add(Counter::EpollWakeups, 1);
        m.add(Counter::PipelinedRequests, 1);
        m.record_batch(1);
        m.record_batch(7);
        use PageOutcome::{Empty, Failed, Ok};
        for outcome in [Ok, Failed, Empty, Ok, Ok, Ok, Failed] {
            let targets: &[usize] = if outcome == Ok { &[0] } else { &[] };
            let page = PageEvent {
                wrapper: "demo",
                tokens: &[],
                outcome,
                targets,
            };
            life.observe(&page, &m);
        }
        m.add(Counter::PipelinePages, 10);
        m.add(Counter::PipelineUnrouted, 2);
        m.add(Counter::PipelineReadErrors, 1);
        let json = m.render_json(&StoreStats::default(), &[("demo", 5)], &life);
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
        // One row per wrapper a page touched; untouched wrappers mint no
        // row at all.
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
        assert!(
            json.contains("\"engines\":{\"demo\":{\"classes\":5}}"),
            "{json}"
        );
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
        let json = json::object(|o| h.json(o));
        // Two singletons in the first bucket, the oversize one overflows.
        assert!(json.contains("\"buckets\":[2,1,0,0,0,1,0,0,1]"), "{json}");
    }
}
