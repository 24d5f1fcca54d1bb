//! # rextract-corpus
//!
//! The corpus pipeline: batch ingest, signature-based wrapper routing,
//! and provenance-tagged tuple streams. This is the fleet-scale
//! counterpart of the one-page extraction paths — a heterogeneous corpus
//! of pages goes in, each page is matched to the wrapper trained for its
//! template family, and what comes out is an auditable NDJSON tuple
//! stream plus an exact accounting of every page that did *not* produce
//! a tuple.
//!
//! ```text
//!  CorpusSource ──enumerate──► jobs (seq-numbered, deterministic order)
//!       │                         │ claimed by index (lock-free)
//!       │                 ┌───────┴────────┐
//!       │            worker 0 …       worker N-1      each owns one
//!       │            read → tokenize → route → extract  WorkerScratch
//!       │                 └───────┬────────┘
//!       ▼                         ▼
//!  sidecar (error lines)  ◄─ ReorderSink ─► out (tuple lines, NDJSON)
//! ```
//!
//! * [`ingest`] — corpus enumeration (directory / manifest / in-memory)
//!   and page reading, with the `pipeline.read` failpoint,
//! * [`router`] — site signatures + probe-and-bind routing, with the
//!   `pipeline.route` failpoint,
//! * [`sink`] — tuple/error line formats and the seq-ordered reorder
//!   buffer,
//! * [`run_pipeline`] — the fan-out executor tying them together.
//!
//! Three invariants the tests pin down:
//!
//! 1. **Determinism** — output order equals ingest order for any worker
//!    count (reorder buffer; byte-identical runs).
//! 2. **Accounting** — `pages_total = pages_ok + pages_failed +
//!    results_empty + pages_unrouted + read_errors`; every non-tuple
//!    page produces an error line. Nothing is silently dropped, even
//!    mid-corpus I/O failures.
//! 3. **Allocation discipline** — the per-page route + extract core
//!    performs zero steady-state heap allocations (counting global
//!    allocator, `tests/pipeline_alloc.rs`).

pub mod ingest;
pub mod router;
pub mod sink;

pub use ingest::{CorpusSource, MemPage};
pub use router::{AnyWrapper, RouteOutcome, Router, RouterError, WorkerScratch, SIGNATURE_CFG};

use rextract_html::token::Token;
use rextract_html::tokenize_spanned;
use rextract_wrapper::{PageOutcome, TupleWrapper, Wrapper, WrapperError};
use sink::{error_line, tuple_line, PageLine, ReorderSink};
use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// One routed page, as the pipeline saw it — the hook through which a
/// host (the daemon) tallies per-wrapper outcomes, feeds its drift
/// windows and self-labels corpus pages as repair evidence. Unrouted and
/// unreadable pages produce no event: there is no wrapper to attribute
/// them to.
#[derive(Debug)]
pub struct PageEvent<'a> {
    /// Wrapper name.
    pub wrapper: &'a str,
    /// The page's token stream.
    pub tokens: &'a [Token],
    /// How extraction went.
    pub outcome: PageOutcome,
    /// Extracted token indices in page order: one for a single-target
    /// wrapper, `k` for a tuple wrapper, none unless `outcome` is `Ok`.
    pub targets: &'a [usize],
}

impl<'a> PageEvent<'a> {
    /// The event for one page `wrapper` ran on, from its page call's
    /// `result` — the one place a result becomes an observer event, for
    /// the pipeline and the daemon's `/extract` alike.
    pub fn new(
        wrapper: &'a str,
        tokens: &'a [Token],
        result: &Result<&'a [usize], WrapperError>,
    ) -> PageEvent<'a> {
        PageEvent {
            wrapper,
            tokens,
            outcome: PageOutcome::of(result),
            targets: result.as_ref().map_or(&[], |t| t),
        }
    }
}

/// Per-page hook (see [`PageEvent`]). Called on the worker thread as
/// each routed page finishes — so in page order when the run has one
/// worker — and must therefore be `Send + Sync`; it should be cheap —
/// anything expensive belongs behind a queue on the host side.
pub type PageObserver = dyn Fn(PageEvent<'_>) + Send + Sync;

/// Pipeline run configuration.
pub struct PipelineConfig {
    /// Where pages come from.
    pub source: CorpusSource,
    /// Worker thread count; `0` behaves as `1`.
    pub workers: usize,
    /// Route every page to this wrapper instead of by signature.
    pub wrapper_override: Option<String>,
    /// Sample pages registered up front (`--route-sample NAME=FILE`):
    /// each file's signature is pinned to the named wrapper via
    /// [`Router::register`] before any page is routed.
    pub route_samples: Vec<(String, std::path::PathBuf)>,
    /// Tuple wrappers joining the routing pool alongside the
    /// single-target set; pages routed here emit arity-k records.
    pub tuple_wrappers: Vec<(String, Arc<TupleWrapper>)>,
    /// Binding-table persistence (`--signatures FILE`): the dump is
    /// loaded before the run (if the file exists) and rewritten
    /// atomically after it, so repeated runs skip the probe entirely.
    pub signatures: Option<std::path::PathBuf>,
    /// Per-page labeling hook; see [`PageObserver`].
    pub observer: Option<Arc<PageObserver>>,
}

impl PipelineConfig {
    /// Minimal single-worker config over `source`; everything else off.
    pub fn new(source: CorpusSource) -> PipelineConfig {
        PipelineConfig {
            source,
            workers: 1,
            wrapper_override: None,
            route_samples: Vec::new(),
            tuple_wrappers: Vec::new(),
            signatures: None,
            observer: None,
        }
    }
}

impl std::fmt::Debug for PipelineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineConfig")
            .field("source", &self.source)
            .field("workers", &self.workers)
            .field("wrapper_override", &self.wrapper_override)
            .field("route_samples", &self.route_samples)
            .field(
                "tuple_wrappers",
                &self
                    .tuple_wrappers
                    .iter()
                    .map(|(n, _)| n.as_str())
                    .collect::<Vec<_>>(),
            )
            .field("signatures", &self.signatures)
            .field("observer", &self.observer.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

/// What a pipeline run did, page by page. The accounting invariant
/// `pages_total == pages_ok + pages_failed + results_empty +
/// pages_unrouted + read_errors` always holds — see
/// [`PipelineReport::accounted`].
#[derive(Debug, Default, Clone)]
pub struct PipelineReport {
    /// Pages enumerated from the source.
    pub pages_total: u64,
    /// Pages that produced a tuple.
    pub pages_ok: u64,
    /// Pages routed to a wrapper whose extraction failed hard.
    pub pages_failed: u64,
    /// Pages routed to a wrapper that matched no position (sidecar).
    pub results_empty: u64,
    /// Pages no wrapper matched (sidecar).
    pub pages_unrouted: u64,
    /// Pages whose body could not be read (sidecar).
    pub read_errors: u64,
    /// Total tuples written to the main stream.
    pub tuples_emitted: u64,
    /// Distinct site signatures bound during the run.
    pub signatures_bound: u64,
}

impl PipelineReport {
    /// Sum of the five per-page outcome counters; equals `pages_total`
    /// on every completed run (asserted by the chaos tests).
    pub fn accounted(&self) -> u64 {
        self.pages_ok
            + self.pages_failed
            + self.results_empty
            + self.pages_unrouted
            + self.read_errors
    }

    /// One-line human summary (CLI stderr, smoke scripts).
    pub fn summary(&self) -> String {
        format!(
            "pages {} ok {} failed {} empty {} unrouted {} read-errors {} tuples {} signatures {}",
            self.pages_total,
            self.pages_ok,
            self.pages_failed,
            self.results_empty,
            self.pages_unrouted,
            self.read_errors,
            self.tuples_emitted,
            self.signatures_bound,
        )
    }
}

/// Pipeline setup or output errors.
#[derive(Debug)]
pub enum PipelineError {
    /// Router construction failed (no wrappers / unknown override).
    Router(RouterError),
    /// Enumerating the corpus or writing an output stream failed.
    /// (Per-page read failures are *not* errors — they are counted and
    /// land in the sidecar.)
    Io(io::Error),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Router(e) => write!(f, "{e}"),
            PipelineError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<RouterError> for PipelineError {
    fn from(e: RouterError) -> Self {
        PipelineError::Router(e)
    }
}

impl From<io::Error> for PipelineError {
    fn from(e: io::Error) -> Self {
        PipelineError::Io(e)
    }
}

/// What one page adds to the report, sent from a worker to the
/// draining thread: a routed page's outcome, or a page no wrapper can be
/// charged for.
enum Tally {
    Routed(PageOutcome),
    Unrouted,
    Unreadable,
}

/// Run the full pipeline: enumerate `cfg.source`, fan pages out over
/// `cfg.workers` threads (each owning one [`WorkerScratch`]), route each
/// page through a probe-and-bind [`Router`] over `wrappers`, and write
/// provenance tuple lines to `out` in strict ingest order. Error lines
/// (unrouted / failed / unreadable pages) go to `sidecar`, or inline
/// into `out` when `sidecar` is `None` — order is deterministic either
/// way.
pub fn run_pipeline<'a>(
    cfg: &PipelineConfig,
    wrappers: Vec<(String, Arc<Wrapper>)>,
    out: &'a mut dyn Write,
    sidecar: Option<&'a mut dyn Write>,
) -> Result<PipelineReport, PipelineError> {
    let mut entries: Vec<(String, AnyWrapper)> = wrappers
        .into_iter()
        .map(|(n, w)| (n, AnyWrapper::Single(w)))
        .collect();
    entries.extend(
        cfg.tuple_wrappers
            .iter()
            .map(|(n, w)| (n.clone(), AnyWrapper::Tuple(Arc::clone(w)))),
    );
    let router = Router::from_entries(entries, cfg.wrapper_override.as_deref())?;
    for (name, path) in &cfg.route_samples {
        let html = std::fs::read_to_string(path)?;
        let tokens = rextract_html::tokenize(&html);
        router.register(name, &tokens)?;
    }
    if let Some(path) = &cfg.signatures {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                router.import_bindings(&text)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(PipelineError::Io(e)),
        }
    }
    let jobs = ingest::enumerate(&cfg.source)?;
    let workers = cfg.workers.max(1).min(jobs.len().max(1));

    let mut report = PipelineReport {
        pages_total: jobs.len() as u64,
        ..PipelineReport::default()
    };
    let mut sink = ReorderSink::new(out, sidecar);

    let next_job = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(u64, Tally, PageLine)>();
    let mut write_err: Option<io::Error> = None;

    let observer: Option<&PageObserver> = cfg.observer.as_deref();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let jobs = &jobs;
            let router = &router;
            let next_job = &next_job;
            s.spawn(move || {
                let mut scratch = WorkerScratch::new(router.wrappers().len());
                loop {
                    let i = next_job.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let msg = process_job(job, router, &mut scratch, observer);
                    if tx.send((i as u64, msg.0, msg.1)).is_err() {
                        break; // drain thread gave up (write error)
                    }
                }
            });
        }
        drop(tx);
        for (seq, tally, line) in rx {
            match tally {
                Tally::Routed(PageOutcome::Ok) => {
                    report.pages_ok += 1;
                    report.tuples_emitted += 1;
                }
                Tally::Routed(PageOutcome::Failed) => report.pages_failed += 1,
                Tally::Routed(PageOutcome::Empty) => report.results_empty += 1,
                Tally::Unrouted => report.pages_unrouted += 1,
                Tally::Unreadable => report.read_errors += 1,
            }
            if let Err(e) = sink.complete(seq, line) {
                write_err = Some(e);
                break; // dropping rx unblocks the workers' sends
            }
        }
    });

    if let Some(e) = write_err {
        return Err(PipelineError::Io(e));
    }
    report.signatures_bound = router.binding_count() as u64;
    if let Some(path) = &cfg.signatures {
        rextract_wrapper::persist::save_artifact(path, &router.export_bindings())?;
    }
    Ok(report)
}

/// Process one page end to end on a worker: read, tokenize with spans,
/// route + extract, format the output line. Every failure mode maps to
/// an accounted outcome — this function cannot lose a page.
fn process_job(
    job: &ingest::PageJob,
    router: &Router,
    scratch: &mut WorkerScratch,
    observer: Option<&PageObserver>,
) -> (Tally, PageLine) {
    let body = match ingest::read_page(job) {
        Ok(b) => b,
        Err(e) => {
            return (
                Tally::Unreadable,
                PageLine::Error(error_line(&job.source, &format!("read: {e}"))),
            )
        }
    };
    let (tokens, spans) = tokenize_spanned(&body);
    let Some((wrapper, result)) = router.route(&tokens, scratch) else {
        return (
            Tally::Unrouted,
            PageLine::Error(error_line(&job.source, "unrouted")),
        );
    };
    let (name, w) = &router.wrappers()[wrapper];
    let event = PageEvent::new(name, &tokens, &result);
    let outcome = event.outcome;
    if let Some(obs) = observer {
        obs(event);
    }
    let line = match result {
        Ok(targets) => {
            let offsets: Vec<(usize, usize)> = targets.iter().map(|&t| spans[t]).collect();
            let fields: Vec<&str> = offsets.iter().map(|&(s, e)| &body[s..e]).collect();
            PageLine::Tuple(tuple_line(
                &job.source,
                name,
                w.format_version(),
                w.revision(),
                &offsets,
                &fields,
            ))
        }
        Err(e) => {
            let verb = if outcome == PageOutcome::Empty {
                "extract empty"
            } else {
                "extract failed"
            };
            PageLine::Error(error_line(&job.source, &format!("{verb} ({name}): {e}")))
        }
    };
    (Tally::Routed(outcome), line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rextract_wrapper::{SiteConfig, SiteGenerator, TrainPage, WrapperConfig};

    fn trained(pages: &[TrainPage]) -> Arc<Wrapper> {
        Arc::new(Wrapper::train(pages, WrapperConfig::default()).unwrap())
    }

    fn wrappers_and_corpus(pages: usize) -> (Vec<(String, Arc<Wrapper>)>, Vec<MemPage>) {
        let mut g = SiteGenerator::new(SiteConfig {
            seed: 17,
            ..SiteConfig::default()
        });
        let search: Vec<TrainPage> = (0..3).map(|_| TrainPage::from(&g.page())).collect();
        let listing: Vec<TrainPage> = (0..4).map(|_| TrainPage::from(&g.listing_page())).collect();
        let wrappers = vec![
            ("search".to_string(), trained(&search)),
            ("listing".to_string(), trained(&listing)),
        ];
        let corpus = (0..pages)
            .map(|i| {
                let p = if i % 2 == 0 {
                    g.page()
                } else {
                    g.listing_page()
                };
                MemPage {
                    name: format!("mem/p{i:04}.html"),
                    html: p.html(),
                }
            })
            .collect();
        (wrappers, corpus)
    }

    #[test]
    fn pipeline_runs_and_accounts_for_every_page() {
        let (wrappers, corpus) = wrappers_and_corpus(24);
        let cfg = PipelineConfig {
            workers: 3,
            ..PipelineConfig::new(CorpusSource::Memory(corpus))
        };
        let mut out = Vec::new();
        let report = run_pipeline(&cfg, wrappers, &mut out, None).unwrap();
        assert_eq!(report.pages_total, 24);
        assert_eq!(report.accounted(), 24);
        assert_eq!(report.read_errors, 0);
        let lines = String::from_utf8(out).unwrap();
        assert_eq!(lines.lines().count(), 24, "one line per page, no drops");
        // Deterministic order: line i belongs to page i.
        for (i, line) in lines.lines().enumerate() {
            assert!(
                line.contains(&format!("\"mem/p{i:04}.html\"")),
                "line {i} out of order: {line}"
            );
        }
    }

    #[test]
    fn worker_count_does_not_change_output_bytes() {
        let (wrappers, corpus) = wrappers_and_corpus(30);
        let mut runs = Vec::new();
        for workers in [1, 2, 7] {
            let cfg = PipelineConfig {
                workers,
                ..PipelineConfig::new(CorpusSource::Memory(corpus.clone()))
            };
            let mut out = Vec::new();
            run_pipeline(&cfg, wrappers.clone(), &mut out, None).unwrap();
            runs.push(out);
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn empty_corpus_is_a_clean_noop() {
        let (wrappers, _) = wrappers_and_corpus(0);
        let cfg = PipelineConfig {
            workers: 4,
            ..PipelineConfig::new(CorpusSource::Memory(Vec::new()))
        };
        let mut out = Vec::new();
        let report = run_pipeline(&cfg, wrappers, &mut out, None).unwrap();
        assert_eq!(report.pages_total, 0);
        assert!(out.is_empty());
    }

    #[test]
    fn no_wrappers_is_a_setup_error() {
        let cfg = PipelineConfig::new(CorpusSource::Memory(Vec::new()));
        let mut out = Vec::new();
        match run_pipeline(&cfg, Vec::new(), &mut out, None) {
            Err(PipelineError::Router(RouterError::Empty)) => {}
            other => panic!("expected Router(Empty), got {other:?}"),
        }
    }

    /// Arity-2 tuple wrapper (FORM + INPUT) over search pages.
    fn tuple_trained(g: &mut SiteGenerator) -> Arc<TupleWrapper> {
        use rextract_wrapper::{MultiTrainPage, PageStyle};
        let pages: Vec<MultiTrainPage> = [PageStyle::Plain, PageStyle::TableEmbedded]
            .iter()
            .map(|&s| {
                let p = g.page_with_style(s);
                let form = p
                    .tokens
                    .iter()
                    .position(|t| t.tag_name() == Some("FORM"))
                    .unwrap();
                MultiTrainPage {
                    tokens: p.tokens.clone(),
                    targets: vec![form, p.target],
                }
            })
            .collect();
        Arc::new(TupleWrapper::train(&pages, WrapperConfig::default()).unwrap())
    }

    #[test]
    fn tuple_wrapper_emits_arity_2_records_with_offsets() {
        use rextract_wrapper::PageStyle;
        let mut g = SiteGenerator::new(SiteConfig {
            seed: 23,
            ..SiteConfig::default()
        });
        let tuple = tuple_trained(&mut g);
        let corpus: Vec<MemPage> = (0..6)
            .map(|i| MemPage {
                name: format!("mem/t{i}.html"),
                html: g.page_with_style(PageStyle::Plain).html(),
            })
            .collect();
        let cfg = PipelineConfig {
            workers: 2,
            tuple_wrappers: vec![("record".to_string(), tuple)],
            ..PipelineConfig::new(CorpusSource::Memory(corpus.clone()))
        };
        // The tuple pool alone carries the run: no single-target
        // wrappers are installed at all.
        let mut out = Vec::new();
        let report = run_pipeline(&cfg, Vec::new(), &mut out, None).unwrap();
        assert_eq!(report.pages_ok, 6);
        assert_eq!(report.tuples_emitted, 6);
        let text = String::from_utf8(out).unwrap();
        for (i, line) in text.lines().enumerate() {
            assert!(line.contains("\"wrapper\":\"record\""), "line {i}: {line}");
            // Two byte-offset pairs and two fields: an arity-2 record.
            let offsets = line.split("\"byte_offsets\":[[").nth(1).unwrap();
            assert!(offsets.contains("],["), "single offset on line {i}: {line}");
            // Both fields carry the page's bytes at the offsets: the
            // form tag and its text input.
            assert!(line.contains("<form"), "no form field on line {i}: {line}");
            assert!(
                line.contains("<input"),
                "no input field on line {i}: {line}"
            );
        }
    }

    #[test]
    fn signatures_file_round_trips_across_runs() {
        let (wrappers, corpus) = wrappers_and_corpus(12);
        let dir = std::env::temp_dir().join(format!("rextract-sigs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bindings.sigs");
        let _ = std::fs::remove_file(&path);

        let cfg = PipelineConfig {
            signatures: Some(path.clone()),
            ..PipelineConfig::new(CorpusSource::Memory(corpus.clone()))
        };
        let mut out = Vec::new();
        let first = run_pipeline(&cfg, wrappers.clone(), &mut out, None).unwrap();
        assert!(first.signatures_bound >= 2);
        let dump = std::fs::read_to_string(&path).unwrap();
        assert!(dump.starts_with(router::BINDINGS_HEADER));

        // Second run warm-starts from the dump: bindings are present
        // before any page routes, and the output is byte-identical.
        let mut out2 = Vec::new();
        let second = run_pipeline(&cfg, wrappers, &mut out2, None).unwrap();
        assert_eq!(second.signatures_bound, first.signatures_bound);
        assert_eq!(out, out2);

        // A corrupt dump is a loud setup error.
        std::fs::write(&path, "garbage\n").unwrap();
        let (wrappers, corpus) = wrappers_and_corpus(2);
        let cfg = PipelineConfig {
            signatures: Some(path.clone()),
            ..PipelineConfig::new(CorpusSource::Memory(corpus))
        };
        let mut out3 = Vec::new();
        match run_pipeline(&cfg, wrappers, &mut out3, None) {
            Err(PipelineError::Router(RouterError::BadBindings(_))) => {}
            other => panic!("expected BadBindings, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn observer_sees_every_routed_page() {
        use std::sync::Mutex;
        let (wrappers, corpus) = wrappers_and_corpus(10);
        type Seen = (String, PageOutcome, usize, Vec<usize>);
        let events: Arc<Mutex<Vec<Seen>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let observer: Arc<PageObserver> = Arc::new(move |ev: PageEvent<'_>| {
            sink.lock().unwrap().push((
                ev.wrapper.to_string(),
                ev.outcome,
                ev.tokens.len(),
                ev.targets.to_vec(),
            ));
        });
        let cfg = PipelineConfig {
            workers: 2,
            observer: Some(observer),
            ..PipelineConfig::new(CorpusSource::Memory(corpus))
        };
        let mut out = Vec::new();
        let report = run_pipeline(&cfg, wrappers, &mut out, None).unwrap();
        let events = events.lock().unwrap();
        let routed = report.pages_ok + report.pages_failed + report.results_empty;
        assert_eq!(events.len() as u64, routed);
        let ok = events.iter().filter(|(_, o, _, _)| *o == PageOutcome::Ok);
        assert_eq!(ok.clone().count() as u64, report.pages_ok);
        assert!(ok.clone().all(|(_, _, n, ts)| ts.len() == 1 && ts[0] < *n));
        assert!(ok.clone().any(|(w, ..)| w == "search"));
        assert!(ok.clone().any(|(w, ..)| w == "listing"));
    }
}
