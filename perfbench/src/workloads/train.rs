//! `wrapper-train`: serial `Wrapper::train` / `TupleWrapper::train` over
//! sample sets from distinct generator seeds, in the order search,
//! listing, arity-2 tuple. The language store's op cache is emptied
//! before every training (off the clock), so each one pays the automata
//! work a fresh `rextract wrapper-train` process pays.
//!
//! Truth: every trained wrapper must extract the target on held-out
//! pages of its family and survive an `export` → `import` round trip;
//! retraining a set must reproduce the same artifact.

use super::{PerItem, StoreDelta};
use crate::gen;
use crate::report::{ratio, Outcome};
use crate::spec::*;
use crate::stats::{median, Recorder};
use crate::trace::Tracer;
use crate::RunConfig;
use rextract_automata::Store;
use rextract_corpus::SIGNATURE_CFG;
use rextract_extraction::extract::Extractor;
use rextract_html::seq::{to_names, Vocabulary};
use rextract_html::{tokenize, Token};
use rextract_learn::disambiguate::learn_unambiguous;
use rextract_learn::{merge_multi, MarkedSeq, MultiMarkedSeq};
use rextract_wrapper::wrapper::OTHER;
use rextract_wrapper::{
    MultiTrainPage, PageStyle, TrainPage, TupleWrapper, Wrapper, WrapperConfig, WrapperScratch,
};
use std::time::{Duration, Instant};

/// Candidate pages drawn per set while looking for held-out pages.
const HELD_OUT_ATTEMPTS: usize = 2000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Search,
    Listing,
    Tuple,
}

/// One sample set as generated: HTML pages with their target token
/// indices, plus held-out pages of the same family.
struct SampleSet {
    name: String,
    kind: Kind,
    samples: Vec<(String, Vec<usize>)>,
    held_out: Vec<(Vec<Token>, Vec<usize>)>,
}

/// A sample set loaded for training (the setup step).
struct Loaded {
    single: Vec<TrainPage>,
    multi: Vec<MultiTrainPage>,
}

enum Trained {
    Single(Box<Wrapper>),
    Tuple(TupleWrapper),
}

impl Trained {
    fn export(&self) -> String {
        match self {
            Trained::Single(w) => w.export(),
            Trained::Tuple(w) => w.export(),
        }
    }
}

fn marked(page: &rextract_wrapper::site::Page, kind: Kind) -> Vec<usize> {
    match kind {
        Kind::Tuple => {
            let form = page
                .tokens
                .iter()
                .position(|t| t.tag_name() == Some("FORM"))
                .expect("search pages have a form");
            vec![form, page.target]
        }
        _ => vec![page.target],
    }
}

fn generate(seed: u64) -> Vec<SampleSet> {
    (0..TRAIN_SETS)
        .map(|i| {
            let kind = [Kind::Search, Kind::Listing, Kind::Tuple][i % 3];
            let mut g = gen::site(gen::mix(seed, 100 + i as u64));
            let mut next = |k: usize| match kind {
                Kind::Search => {
                    let styles = [PageStyle::Plain, PageStyle::TableEmbedded, PageStyle::Busy];
                    g.page_with_style(styles[k.min(2)])
                }
                Kind::Listing => g.listing_page(),
                Kind::Tuple => {
                    g.page_with_style([PageStyle::Plain, PageStyle::TableEmbedded][k % 2])
                }
            };
            let n = match kind {
                Kind::Search => TRAIN_SEARCH_PAGES,
                Kind::Listing => TRAIN_LISTING_PAGES,
                Kind::Tuple => TRAIN_TUPLE_PAGES,
            };
            let mut sig = WrapperScratch::new();
            let mut templates = Vec::new();
            let samples = (0..n)
                .map(|k| {
                    let p = next(k);
                    templates.push(sig.skeleton_signature(&SIGNATURE_CFG, &p.tokens));
                    (p.html(), marked(&p, kind))
                })
                .collect();
            // Held-out pages are unseen pages of the sampled templates:
            // same tag skeleton (the corpus router's site signature) as
            // some sample, new text and row counts.
            let held_out = (0..)
                .map(|k| next(k % n))
                .take(HELD_OUT_ATTEMPTS)
                .filter(|p| templates.contains(&sig.skeleton_signature(&SIGNATURE_CFG, &p.tokens)))
                .take(TRAIN_HELD_OUT)
                .map(|p| {
                    let targets = marked(&p, kind);
                    (p.tokens, targets)
                })
                .collect();
            SampleSet {
                name: format!("set{i:02}-{kind:?}"),
                kind,
                samples,
                held_out,
            }
        })
        .collect()
}

/// Setup: tokenize every sample page into training input, as
/// `rextract wrapper-train` loads its page files.
fn load(sets: &[SampleSet]) -> Vec<Loaded> {
    sets.iter()
        .map(|set| {
            let mut loaded = Loaded {
                single: Vec::new(),
                multi: Vec::new(),
            };
            for (html, targets) in &set.samples {
                let tokens = tokenize(html);
                if set.kind == Kind::Tuple {
                    loaded.multi.push(MultiTrainPage {
                        tokens,
                        targets: targets.clone(),
                    });
                } else {
                    loaded.single.push(TrainPage {
                        tokens,
                        target: targets[0],
                    });
                }
            }
            loaded
        })
        .collect()
}

fn train(set: &SampleSet, loaded: &Loaded) -> Result<Trained, String> {
    let cfg = WrapperConfig::default();
    match set.kind {
        Kind::Tuple => TupleWrapper::train(&loaded.multi, cfg).map(Trained::Tuple),
        _ => Wrapper::train(&loaded.single, cfg).map(|w| Trained::Single(Box::new(w))),
    }
    .map_err(|e| format!("{}: training failed: {e}", set.name))
}

/// Held-out extraction and the export → import round trip.
fn check_trained(set: &SampleSet, trained: &Trained) -> Result<(), String> {
    let text = trained.export();
    let (reimported, again): (Trained, String) = match trained {
        Trained::Single(_) => {
            let w = Wrapper::import(&text).map_err(|e| format!("{}: import: {e}", set.name))?;
            let again = w.export();
            (Trained::Single(Box::new(w)), again)
        }
        Trained::Tuple(_) => {
            let w =
                TupleWrapper::import(&text).map_err(|e| format!("{}: import: {e}", set.name))?;
            let again = w.export();
            (Trained::Tuple(w), again)
        }
    };
    if again != text {
        return Err(format!(
            "{}: export → import → export changed the artifact",
            set.name
        ));
    }
    if set.held_out.len() < TRAIN_HELD_OUT {
        return Err(format!(
            "{}: only {} held-out pages generated",
            set.name,
            set.held_out.len()
        ));
    }
    for w in [trained, &reimported] {
        for (k, (tokens, targets)) in set.held_out.iter().enumerate() {
            let got = match w {
                Trained::Single(w) => w.extract_target(tokens).map(|t| vec![t]),
                Trained::Tuple(w) => w.extract_targets(tokens),
            };
            if got.as_ref() != Ok(targets) {
                return Err(format!(
                    "{}: held-out page {k}: got {got:?}, want {targets:?}",
                    set.name
                ));
            }
        }
    }
    Ok(())
}

pub fn run(cfg: &RunConfig) -> Result<(Outcome, Option<Tracer>), String> {
    let sets = generate(cfg.seed);
    let mut out = Outcome::default();
    let loaded = load(&sets);

    // First pass, off the clock: held-out truth and round trip; the
    // store counters of a cold process.
    let mut store = StoreDelta::default();
    let mut artifacts = Vec::with_capacity(sets.len());
    let mut trained_sets = Vec::with_capacity(sets.len());
    for (set, l) in sets.iter().zip(&loaded) {
        Store::reset_op_cache();
        let trained = store.measure(|| train(set, l))?;
        out.check(check_trained(set, &trained));
        artifacts.push(trained.export());
        trained_sets.push(trained);
    }

    // Timed loop: retrain the sets in order, each from an empty op cache.
    let measure = Duration::from_secs_f64(cfg.measure_secs());
    let mut rec = Recorder::new(RATE_WINDOW_S);
    let mut sampler = gen::SetupSampler::default();
    let started = Instant::now();
    for (i, (set, l)) in sets.iter().zip(&loaded).enumerate().cycle() {
        if started.elapsed() >= measure {
            break;
        }
        sampler.maybe(started.elapsed(), || load(&sets));
        Store::reset_op_cache();
        let t0 = Instant::now();
        let trained = train(set, l);
        let took = t0.elapsed();
        rec.record(
            started.elapsed().as_secs_f64(),
            1.0,
            took.as_secs_f64(),
            gen::us(took),
        );
        out.check(match trained {
            Ok(t) if t.export() == artifacts[i] => Ok(()),
            Ok(_) => Err(format!(
                "{}: retraining produced a different artifact",
                set.name
            )),
            Err(e) => Err(e),
        });
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

    // The replay covers the first sets only, which keeps the traced run
    // short; the set kinds still alternate within them.
    let n = TRAIN_TRACED_SETS.min(sets.len());
    let (sets, loaded, trained_sets) = (&sets[..n], &loaded[..n], &trained_sets[..n]);
    let mut tracer = Tracer::new(true);
    let (mut untraced, mut traced, mut maximized) = (0.0, 0.0, 0);
    for round in 0..TRACE_ROUNDS {
        let mut spanless = Tracer::new(false);
        untraced += replay(sets, loaded, trained_sets, round, &mut spanless, &mut out).0;
        let (t, m) = replay(sets, loaded, trained_sets, round, &mut tracer, &mut out);
        traced += t;
        maximized += m;
    }
    let items = n * TRACE_ROUNDS;
    let per = PerItem::new(tracer.spans(), items);
    let l = &mut out.layers;
    for (metric, span) in [
        ("train.abstract_us", "train.abstract"),
        ("train.merge_us", "train.merge"),
        ("train.maximize_us", "train.maximize"),
        ("train.compile_us", "train.compile"),
    ] {
        l.insert(metric, per.dur_us(span));
    }
    l.insert(
        "train.maximized_ratio",
        ratio(maximized as f64, items as f64),
    );
    l.insert("trace.overhead_ratio", ratio(traced, untraced) - 1.0);
    let rows = [
        ("train.abstract_share", per.dur_us("train.abstract")),
        ("train.merge_share", per.dur_us("train.merge")),
        ("train.maximize_share", per.dur_us("train.maximize")),
        ("train.compile_share", per.dur_us("train.compile")),
    ];
    out.set_shares(&rows, "train.residue_share", traced / TRACE_ROUNDS as f64);
    store.report(&mut out);
    Ok((out, Some(tracer)))
}

/// Replay each training as the steps `Wrapper::train` and
/// `TupleWrapper::train` run — abstract, merge, maximize, compile — each
/// its own span, checking the result against the trained wrapper.
/// Returns the mean item time in µs and how many sets maximized.
fn replay(
    sets: &[SampleSet],
    loaded: &[Loaded],
    trained: &[Trained],
    round: usize,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> (f64, usize) {
    let cfg = WrapperConfig::default();
    let mut item_us = 0.0;
    let mut maximized = 0;
    for (i, ((set, l), want)) in sets.iter().zip(loaded).zip(trained).enumerate() {
        let id = (round * sets.len() + i) as u32;
        Store::reset_op_cache();
        let t0 = Instant::now();
        let item = tr.begin("item", None, id);
        let same = match set.kind {
            Kind::Tuple => {
                let ((alphabet, samples), _) = tr.span("train.abstract", Some(item), id, || {
                    let mut vocab = Vocabulary::new();
                    vocab.observe_name(OTHER);
                    let samples: Vec<MultiMarkedSeq> = l
                        .multi
                        .iter()
                        .map(|p| {
                            let entries = to_names(&p.tokens, &cfg.seq);
                            let positions = p
                                .targets
                                .iter()
                                .map(|&t| {
                                    entries
                                        .iter()
                                        .position(|e| e.token_index == t)
                                        .expect("target represented")
                                })
                                .collect();
                            let names: Vec<String> = entries.into_iter().map(|e| e.name).collect();
                            for n in &names {
                                vocab.observe_name(n);
                            }
                            MultiMarkedSeq::new(names, positions)
                        })
                        .collect();
                    (vocab.alphabet(), samples)
                });
                let (merged, _) = tr.span("train.merge", Some(item), id, || {
                    merge_multi(&alphabet, &samples).expect("set trained before")
                });
                let ((expr, max), _) = tr.span("train.maximize", Some(item), id, || {
                    match merged.maximize() {
                        Ok(m) if m.is_unambiguous() => (m, true),
                        _ => (merged, false),
                    }
                });
                tr.span("train.compile", Some(item), id, || expr.compile());
                maximized += max as usize;
                matches!(want, Trained::Tuple(w) if w.expr().segments() == expr.segments() && w.is_maximized() == max)
            }
            _ => {
                let ((alphabet, samples), _) = tr.span("train.abstract", Some(item), id, || {
                    let mut vocab = Vocabulary::new();
                    vocab.observe_name(OTHER);
                    let samples: Vec<MarkedSeq> = l
                        .single
                        .iter()
                        .map(|p| {
                            MarkedSeq::from_tokens(&p.tokens, p.target, &cfg.seq)
                                .expect("target represented")
                        })
                        .collect();
                    for s in &samples {
                        for n in &s.names {
                            vocab.observe_name(n);
                        }
                    }
                    (vocab.alphabet(), samples)
                });
                let (learned, _) = tr.span("train.merge", Some(item), id, || {
                    learn_unambiguous(&alphabet, &samples).expect("set trained before")
                });
                let ((expr, max), _) =
                    tr.span("train.maximize", Some(item), id, || {
                        match learned.pivot.as_ref().map(|p| p.maximize()) {
                            Some(Ok(m)) => (m, true),
                            _ => (learned.expr, false),
                        }
                    });
                tr.span("train.compile", Some(item), id, || {
                    Extractor::compile(&expr)
                });
                maximized += max as usize;
                matches!(want, Trained::Single(w) if w.expr().to_text() == expr.to_text() && w.is_maximized() == max)
            }
        };
        tr.end(item);
        item_us += gen::us(t0.elapsed());
        if !same {
            out.check(Err(format!(
                "{}: replayed training steps disagree with train()",
                set.name
            )));
        }
    }
    (item_us / sets.len().max(1) as f64, maximized)
}
