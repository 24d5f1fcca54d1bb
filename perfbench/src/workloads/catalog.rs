//! `catalog-pipeline`: `rextract_corpus::run_pipeline` with 2 workers
//! over in-memory catalog batches.
//!
//! Truth: an undrifted page must produce its generator-truth tuple byte
//! for byte; a drifted page must produce a line the one-page library path
//! (`Wrapper::extract_target`, computed off the clock) allows for the
//! wrapper it names. Every batch must be byte-identical at 1 and 2
//! workers.

use super::{PerItem, StoreDelta};
use crate::check::check_lines;
use crate::gen::{self, Family, GenPage};
use crate::report::{ratio, Outcome};
use crate::spec::*;
use crate::stats::{median, Recorder};
use crate::trace::Tracer;
use crate::RunConfig;
use rextract_corpus::sink::{error_line, tuple_line};
use rextract_corpus::{
    run_pipeline, AnyWrapper, CorpusSource, MemPage, PipelineConfig, RouteOutcome, Router,
    WorkerScratch, SIGNATURE_CFG,
};
use rextract_extraction::extract::{ExtractScratch, Extractor};
use rextract_html::tokenize_spanned;
use rextract_learn::perturb::Perturber;
use rextract_wrapper::persist::FORMAT_VERSION;
use rextract_wrapper::{Wrapper, WrapperScratch};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Wrappers = Vec<(String, Arc<Wrapper>)>;

struct Batch {
    pages: Vec<MemPage>,
    expected: Vec<Vec<String>>,
}

/// Every line the library path allows for `page` under `wrappers`.
fn acceptable_lines(name: &str, page: &GenPage, wrappers: &Wrappers) -> Vec<String> {
    let (tokens, spans) = tokenize_spanned(&page.html);
    let tuple = |wrapper: &str, t: usize| {
        let (s, e) = spans[t];
        tuple_line(
            name,
            wrapper,
            FORMAT_VERSION,
            1,
            &[(s, e)],
            &[&page.html[s..e]],
        )
    };
    if let Some(t) = page.target {
        return vec![tuple(page.family.wrapper(), t)];
    }
    let mut lines = Vec::new();
    let mut any_ok = false;
    for (wname, w) in wrappers {
        match w.extract_target(&tokens) {
            Ok(t) => {
                any_ok = true;
                lines.push(tuple(wname, t));
            }
            Err(e) => {
                let verb = if e.is_no_match() {
                    "extract empty"
                } else {
                    "extract failed"
                };
                lines.push(error_line(name, &format!("{verb} ({wname}): {e}")));
            }
        }
    }
    if !any_ok {
        lines.push(error_line(name, "unrouted"));
    }
    lines
}

fn generate(seed: u64, wrappers: &Wrappers) -> Vec<Batch> {
    let mut g = gen::site(gen::mix(seed, 1));
    let mut p = Perturber::new(gen::mix(seed, 2));
    (0..CATALOG_BATCHES)
        .map(|b| {
            let mut pages = Vec::with_capacity(CATALOG_BATCH_PAGES);
            let mut expected = Vec::with_capacity(CATALOG_BATCH_PAGES);
            for i in 0..CATALOG_BATCH_PAGES {
                let family = if i % 2 == 0 {
                    Family::Search
                } else {
                    Family::Listing
                };
                let edits = if i % CATALOG_DRIFT_EVERY == CATALOG_DRIFT_EVERY - 1 {
                    CATALOG_DRIFT_EDITS
                } else {
                    0
                };
                let page = gen::page(&mut g, &mut p, family, edits);
                let name = format!("catalog/b{b}/p{i:05}.html");
                expected.push(acceptable_lines(&name, &page, wrappers));
                pages.push(MemPage {
                    name,
                    html: page.html,
                });
            }
            Batch { pages, expected }
        })
        .collect()
}

fn pipeline(pages: &[MemPage], wrappers: &Wrappers, workers: usize) -> Result<Vec<u8>, String> {
    let cfg = PipelineConfig {
        workers,
        ..PipelineConfig::new(CorpusSource::Memory(pages.to_vec()))
    };
    let mut out = Vec::new();
    run_pipeline(&cfg, wrappers.clone(), &mut out, None).map_err(|e| e.to_string())?;
    Ok(out)
}

pub fn run(cfg: &RunConfig) -> Result<(Outcome, Option<Tracer>), String> {
    let artifacts = gen::artifacts();
    let mut out = Outcome::default();

    // Setup: artifact import + router build.
    let mut import_us = Vec::new();
    let mut setup = || -> Result<Wrappers, String> {
        let mut ws = Wrappers::new();
        for (name, text) in [
            ("listing", &artifacts.listing),
            ("search", &artifacts.search),
        ] {
            let t0 = Instant::now();
            let w = Wrapper::import(text).map_err(|e| e.to_string())?;
            import_us.push(gen::us(t0.elapsed()));
            ws.push((name.to_string(), Arc::new(w)));
        }
        Router::new(ws.clone(), None).map_err(|e| e.to_string())?;
        Ok(ws)
    };
    let wrappers = setup()?;
    let batches = generate(cfg.seed, &wrappers);

    // First pass, off the clock: ground truth and worker-count identity.
    let mut store = StoreDelta::default();
    let mut reference = Vec::with_capacity(batches.len());
    for batch in &batches {
        let one = pipeline(&batch.pages, &wrappers, 1)?;
        let two = store.measure(|| pipeline(&batch.pages, &wrappers, CATALOG_WORKERS))?;
        let same = one == two;
        for r in check_lines(&String::from_utf8_lossy(&two), &batch.expected) {
            out.check(r.and_then(|()| {
                same.then_some(())
                    .ok_or_else(|| "output differs between 1 and 2 workers".to_string())
            }));
        }
        reference.push(two);
    }

    // Timed loop: one run_pipeline call per batch, cycling the batches.
    let measure = Duration::from_secs_f64(cfg.measure_secs());
    let mut rec = Recorder::new(RATE_WINDOW_S);
    let mut sampler = gen::SetupSampler::default();
    let started = Instant::now();
    for b in (0..batches.len()).cycle() {
        if started.elapsed() >= measure {
            break;
        }
        if let Some(Err(e)) = sampler.maybe(started.elapsed(), &mut setup) {
            return Err(e);
        }
        let source = CorpusSource::Memory(batches[b].pages.clone());
        let pcfg = PipelineConfig {
            workers: CATALOG_WORKERS,
            ..PipelineConfig::new(source)
        };
        let ws = wrappers.clone();
        let mut buf = Vec::with_capacity(reference[b].len());
        let t0 = Instant::now();
        let report = run_pipeline(&pcfg, ws, &mut buf, None).map_err(|e| e.to_string())?;
        let took = t0.elapsed();
        let end = started.elapsed().as_secs_f64();
        rec.record(
            end,
            report.pages_total as f64,
            took.as_secs_f64(),
            gen::us(took),
        );
        if buf == reference[b] {
            out.attempted += batches[b].pages.len() as u64;
        } else {
            for r in check_lines(&String::from_utf8_lossy(&buf), &batches[b].expected) {
                out.check(r);
            }
        }
    }
    if !cfg.trace {
        out.e2e.insert("throughput_per_s", rec.rate());
        out.e2e
            .insert("latency_p50_us", rec.window_percentile_us(0.5));
        out.e2e
            .insert("latency_p90_us", rec.window_percentile_us(0.9));
        out.e2e.insert("setup_s", median(&sampler.times));
        out.e2e.insert("peak_rss_mb", gen::peak_rss_mb());
        return Ok((out, None));
    }

    // The share denominator is worker time per page of the real pipeline,
    // measured in the same rounds as the replays so all see one machine.
    let configs: Vec<PipelineConfig> = batches
        .iter()
        .map(|b| PipelineConfig {
            workers: CATALOG_WORKERS,
            ..PipelineConfig::new(CorpusSource::Memory(b.pages.clone()))
        })
        .collect();
    let mut tracer = Tracer::new(true);
    let mut counts = Counts::default();
    let (mut untraced, mut traced, mut busy_us) = (0.0, 0.0, 0.0);
    for _ in 0..TRACE_ROUNDS {
        let mut spanless = Tracer::new(false);
        untraced += replay(
            &batches,
            &reference,
            &wrappers,
            &mut spanless,
            &mut Counts::default(),
            &mut out,
        );
        traced += replay(
            &batches,
            &reference,
            &wrappers,
            &mut tracer,
            &mut counts,
            &mut out,
        );
        for pcfg in &configs {
            let mut buf = Vec::new();
            let t0 = Instant::now();
            run_pipeline(pcfg, wrappers.clone(), &mut buf, None).map_err(|e| e.to_string())?;
            busy_us += gen::us(t0.elapsed());
        }
    }
    let per = PerItem::new(tracer.spans(), counts.pages);
    let worker_us = busy_us * CATALOG_WORKERS as f64 / counts.pages as f64;

    let l = &mut out.layers;
    l.insert("html.tokenize_us", per.dur_us("html.tokenize"));
    l.insert(
        "html.tokenize_mb_per_s",
        ratio(counts.bytes as f64 * 1000.0, per.dur_ns("html.tokenize")),
    );
    l.insert(
        "html.tokens_per_page",
        ratio(counts.tokens as f64, counts.pages as f64),
    );
    l.insert("router.signature_us", per.dur_us("router.signature"));
    l.insert("router.route_extract_us", per.dur_us("router.route"));
    l.insert(
        "router.probe_ratio",
        ratio(counts.probed as f64, counts.pages as f64),
    );
    l.insert("wrapper.abstract_us", per.self_us("wrapper.extract"));
    l.insert("scan.us", per.dur_us("scan"));
    l.insert(
        "scan.ns_per_token",
        ratio(per.dur_ns("scan"), counts.scanned as f64),
    );
    l.insert("sink.render_us", per.dur_us("sink.render"));
    l.insert("persist.import_us", median(&import_us));
    l.insert("trace.overhead_ratio", ratio(traced, untraced) - 1.0);
    let router_us = per.self_us("router.route") + per.dur_us("router.signature");
    let rows = [
        ("html.tokenize_share", per.dur_us("html.tokenize")),
        ("router.share", router_us),
        ("wrapper.abstract_share", per.self_us("wrapper.extract")),
        ("scan.share", per.dur_us("scan")),
        ("sink.share", per.dur_us("sink.render")),
    ];
    out.set_shares(&rows, "pipeline.residue_share", worker_us);
    store.report(&mut out);
    Ok((out, Some(tracer)))
}

#[derive(Default)]
struct Counts {
    pages: usize,
    bytes: usize,
    tokens: usize,
    probed: usize,
    scanned: usize,
}

/// Replay every page serially through the layer calls a pipeline worker
/// makes (tokenize, route + extract, render), one router per batch as
/// `run_pipeline` builds one per call, adding to `counts`. Returns the
/// mean item time of this pass in µs.
fn replay(
    batches: &[Batch],
    reference: &[Vec<u8>],
    wrappers: &Wrappers,
    tr: &mut Tracer,
    counts: &mut Counts,
    out: &mut Outcome,
) -> f64 {
    let mut item_us = 0.0;
    let mut items = 0usize;
    let mut sig_scratch = WrapperScratch::new();
    let mut extract_scratch = ExtractScratch::new();
    for (batch, reference) in batches.iter().zip(reference) {
        let router = Router::new(wrappers.clone(), None).expect("router over two wrappers");
        let sorted: Vec<Arc<Wrapper>> = router
            .wrappers()
            .iter()
            .map(|(_, w)| match w {
                AnyWrapper::Single(w) => Arc::clone(w),
                AnyWrapper::Tuple(_) => unreachable!("catalog installs single-target wrappers"),
            })
            .collect();
        let extractors: Vec<Extractor> = sorted
            .iter()
            .map(|w| Extractor::compile(w.expr()))
            .collect();
        let mut replay_scratch: Vec<WrapperScratch> =
            sorted.iter().map(|_| WrapperScratch::new()).collect();
        let mut ws = WorkerScratch::new(sorted.len());
        let expected = String::from_utf8_lossy(reference);
        for (page, want) in batch.pages.iter().zip(expected.lines()) {
            let id = counts.pages as u32;
            let t0 = Instant::now();
            let item = tr.begin("item", None, id);
            let ((tokens, spans), _) = tr.span("html.tokenize", Some(item), id, || {
                tokenize_spanned(&page.html)
            });
            let bound_before = router.binding_count();
            let (outcome, route) = tr.span("router.route", Some(item), id, || {
                router.route_and_extract(&tokens, &mut ws)
            });
            let (line, _) = tr.span("sink.render", Some(item), id, || {
                render(&router, page, &spans, &outcome)
            });
            tr.end(item);
            item_us += gen::us(t0.elapsed());

            items += 1;
            counts.pages += 1;
            counts.bytes += page.html.len();
            counts.tokens += tokens.len();
            if router.binding_count() > bound_before || outcome == RouteOutcome::Unrouted {
                counts.probed += 1;
            }
            tr.replay("router.signature", route, id, || {
                sig_scratch.skeleton_signature(&SIGNATURE_CFG, &tokens)
            });
            let wrapper = match &outcome {
                RouteOutcome::Extracted { wrapper, .. } | RouteOutcome::Failed { wrapper, .. } => {
                    Some(*wrapper)
                }
                _ => None,
            };
            if let Some(wi) = wrapper {
                let sc = &mut replay_scratch[wi];
                if let Some((_, extract)) = tr.replay("wrapper.extract", route, id, || {
                    sorted[wi].extract_target_with(&tokens, sc)
                }) {
                    counts.scanned += sc.word().len();
                    tr.replay("scan", extract, id, || {
                        let _ = extractors[wi].extract_with(sc.word(), &mut extract_scratch);
                    });
                }
            }
            if tr.enabled() && line != want {
                out.check(Err(format!(
                    "{}: replayed line differs from the pipeline's",
                    page.name
                )));
            }
        }
    }
    item_us / items.max(1) as f64
}

/// The line a pipeline worker renders for a routed page.
fn render(
    router: &Router,
    page: &MemPage,
    spans: &[(usize, usize)],
    outcome: &RouteOutcome,
) -> String {
    match outcome {
        RouteOutcome::Extracted { wrapper, target } => {
            let (name, w) = &router.wrappers()[*wrapper];
            let (s, e) = spans[*target];
            tuple_line(
                &page.name,
                name,
                w.format_version(),
                w.revision(),
                &[(s, e)],
                &[&page.html[s..e]],
            )
        }
        RouteOutcome::ExtractedTuple { wrapper, targets } => {
            let (name, w) = &router.wrappers()[*wrapper];
            let offsets: Vec<(usize, usize)> = targets.iter().map(|&t| spans[t]).collect();
            let fields: Vec<&str> = offsets.iter().map(|&(s, e)| &page.html[s..e]).collect();
            tuple_line(
                &page.name,
                name,
                w.format_version(),
                w.revision(),
                &offsets,
                &fields,
            )
        }
        RouteOutcome::Failed {
            wrapper,
            reason,
            empty,
        } => {
            let name = &router.wrappers()[*wrapper].0;
            let verb = if *empty {
                "extract empty"
            } else {
                "extract failed"
            };
            error_line(&page.name, &format!("{verb} ({name}): {reason}"))
        }
        RouteOutcome::Unrouted => error_line(&page.name, "unrouted"),
    }
}
