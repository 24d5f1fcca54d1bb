//! `query-join`: the `rextract query` path run serially over listing
//! pages — `tokenize_spanned`, `evaluate_query_with` (sort-merge), then
//! one `query_line` per joined row.
//!
//! Truth: the rendered lines must equal those of the nested-loop oracle
//! (`JoinStrategy::NestedLoop`), computed off the clock.

use super::{PerItem, StoreDelta};
use crate::gen;
use crate::report::{ratio, Outcome};
use crate::spec::*;
use crate::stats::{median, Recorder};
use crate::trace::Tracer;
use crate::RunConfig;
use rextract_automata::Alphabet;
use rextract_corpus::sink::query_line;
use rextract_extraction::extract::{ExtractScratch, Extractor};
use rextract_extraction::{ExtractionExpr, JoinStrategy, QueryDef, SourceKind, Span, SpanRelation};
use rextract_html::seq::{to_names, SeqConfig};
use rextract_html::tokenize_spanned;
use rextract_wrapper::persist::fnv1a_64;
use rextract_wrapper::wrapper::OTHER;
use rextract_wrapper::{evaluate_query_with, Wrapper, WrapperScratch};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cells after the first price cell, each paired with every row that
/// starts before it: a wrapper source joined with two inline expressions.
const QUERY: &str = r#"{
  "sources": [
    {"var": "price", "wrapper": "listing"},
    {"var": "row", "alphabet": "TABLE /TABLE TR /TR TH /TH TD /TD", "expr": ".* <TR> .*"},
    {"var": "cell", "alphabet": "TABLE /TABLE TR /TR TH /TH TD /TD", "expr": ".* <TD> .*"}
  ],
  "plan": {
    "op": "project", "vars": ["price", "row", "cell"],
    "input": {
      "op": "join",
      "left": {
        "op": "join",
        "left": {"op": "leaf", "var": "row"},
        "right": {"op": "leaf", "var": "cell"},
        "preds": [{"pred": "before", "left": "row", "right": "cell"}]
      },
      "right": {"op": "leaf", "var": "price"},
      "preds": [{"pred": "before", "left": "price", "right": "cell"}]
    }
  }
}"#;

const QUERY_NAME: &str = "price-cells";

type Lookup<'a> = dyn Fn(&str) -> Option<Arc<Wrapper>> + 'a;

fn render(source: &str, html: &str, spans: &[(usize, usize)], rel: &SpanRelation) -> String {
    let vars: Vec<&str> = rel.vars().iter().map(String::as_str).collect();
    let mut out = String::new();
    for row in rel.rows() {
        let offsets: Vec<(usize, usize)> = row
            .iter()
            .map(|s| (spans[s.start].0, spans[s.end - 1].1))
            .collect();
        let fields: Vec<&str> = offsets.iter().map(|&(s, e)| &html[s..e]).collect();
        out.push_str(&query_line(source, QUERY_NAME, &vars, &offsets, &fields));
        out.push('\n');
    }
    out
}

/// One page through the query path; returns the rendered lines.
fn eval_page(
    def: &QueryDef,
    source: &str,
    html: &str,
    lookup: &Lookup<'_>,
    strategy: JoinStrategy,
    scratch: &mut WrapperScratch,
) -> Result<String, String> {
    let (tokens, spans) = tokenize_spanned(html);
    let rel =
        evaluate_query_with(def, &tokens, lookup, strategy, scratch).map_err(|e| e.to_string())?;
    Ok(render(source, html, &spans, &rel))
}

pub fn run(cfg: &RunConfig) -> Result<(Outcome, Option<Tracer>), String> {
    let artifacts = gen::artifacts();
    let mut out = Outcome::default();

    // Setup: query parse + wrapper import.
    let mut import_us = Vec::new();
    let mut setup = || -> Result<(QueryDef, Arc<Wrapper>), String> {
        let def = QueryDef::parse(QUERY).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let w = Wrapper::import(&artifacts.listing).map_err(|e| e.to_string())?;
        import_us.push(gen::us(t0.elapsed()));
        Ok((def, Arc::new(w)))
    };
    let (def, listing) = setup()?;
    let lookup = |name: &str| (name == "listing").then(|| Arc::clone(&listing));

    let pages: Vec<(String, String)> =
        gen::listing_pages_by_layout(gen::mix(cfg.seed, 3), QUERY_PAGES_PER_LAYOUT)
            .iter()
            .enumerate()
            .map(|(i, p)| (format!("query/p{i:04}.html"), p.html()))
            .collect();

    // First pass, off the clock: the nested-loop oracle's lines, and the
    // sort-merge path checked against them.
    let mut store = StoreDelta::default();
    let mut scratch = WrapperScratch::new();
    let mut expected = Vec::with_capacity(pages.len());
    for (name, html) in &pages {
        let got = store.measure(|| {
            eval_page(
                &def,
                name,
                html,
                &lookup,
                JoinStrategy::SortMerge,
                &mut scratch,
            )
        })?;
        let oracle = eval_page(
            &def,
            name,
            html,
            &lookup,
            JoinStrategy::NestedLoop,
            &mut WrapperScratch::new(),
        )?;
        out.check(
            (got == oracle)
                .then_some(())
                .ok_or_else(|| format!("{name}: sort-merge differs from nested loop")),
        );
        // The timed loop compares digests, which keeps the oracle's text
        // out of the working set it measures.
        expected.push(fnv1a_64(oracle.as_bytes()));
    }

    // Timed loop, serial, cycling the pages.
    let measure = Duration::from_secs_f64(cfg.measure_secs());
    let mut rec = Recorder::new(RATE_WINDOW_S);
    let mut sampler = gen::SetupSampler::default();
    let started = Instant::now();
    for (i, (name, html)) in pages.iter().enumerate().cycle() {
        if started.elapsed() >= measure {
            break;
        }
        if let Some(Err(e)) = sampler.maybe(started.elapsed(), &mut setup) {
            return Err(e);
        }
        let t0 = Instant::now();
        let got = eval_page(
            &def,
            name,
            html,
            &lookup,
            JoinStrategy::SortMerge,
            &mut scratch,
        );
        let took = t0.elapsed();
        rec.record(
            started.elapsed().as_secs_f64(),
            1.0,
            took.as_secs_f64(),
            gen::us(took),
        );
        out.check(match got {
            Ok(text) if fnv1a_64(text.as_bytes()) == expected[i] => Ok(()),
            Ok(_) => Err(format!(
                "{name}: output differs from the nested-loop oracle"
            )),
            Err(e) => Err(format!("{name}: {e}")),
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

    let mut tracer = Tracer::new(true);
    let mut counts = Counts::default();
    let (mut untraced, mut traced) = (0.0, 0.0);
    for _ in 0..TRACE_ROUNDS {
        let mut spanless = Tracer::new(false);
        untraced += replay(
            &def,
            &pages,
            &lookup,
            &listing,
            &mut spanless,
            &mut Counts::default(),
            &mut out,
        )?;
        traced += replay(
            &def,
            &pages,
            &lookup,
            &listing,
            &mut tracer,
            &mut counts,
            &mut out,
        )?;
    }
    let items = pages.len() * TRACE_ROUNDS;
    let per = PerItem::new(tracer.spans(), items);

    let l = &mut out.layers;
    l.insert("html.tokenize_us", per.dur_us("html.tokenize"));
    l.insert(
        "html.tokenize_mb_per_s",
        ratio(counts.bytes as f64 * 1000.0, per.dur_ns("html.tokenize")),
    );
    l.insert(
        "html.tokens_per_page",
        ratio(counts.tokens as f64, items as f64),
    );
    l.insert(
        "compile.us_per_expr",
        ratio(per.dur_ns("compile") / 1000.0, per.count("compile")),
    );
    l.insert("wrapper.abstract_us", per.self_us("wrapper.extract"));
    l.insert("scan.us", per.dur_us("scan"));
    l.insert(
        "scan.ns_per_token",
        ratio(per.dur_ns("scan"), counts.scanned as f64),
    );
    l.insert("algebra.us", per.dur_us("algebra"));
    l.insert("algebra.rows_in", counts.rows_in as f64);
    l.insert("algebra.rows_out", counts.rows_out as f64);
    l.insert("sink.render_us", per.dur_us("sink.render"));
    l.insert("persist.import_us", median(&import_us));
    l.insert("trace.overhead_ratio", ratio(traced, untraced) - 1.0);
    let rows = [
        ("html.tokenize_share", per.dur_us("html.tokenize")),
        ("compile.share", per.dur_us("compile")),
        ("wrapper.abstract_share", per.self_us("wrapper.extract")),
        ("scan.share", per.dur_us("scan")),
        ("algebra.share", per.dur_us("algebra")),
        ("sink.share", per.dur_us("sink.render")),
    ];
    out.set_shares(&rows, "query.residue_share", traced / TRACE_ROUNDS as f64);
    store.report(&mut out);
    Ok((out, Some(tracer)))
}

#[derive(Default)]
struct Counts {
    items: usize,
    bytes: usize,
    tokens: usize,
    scanned: usize,
    rows_in: usize,
    rows_out: usize,
}

/// The abstraction an inline-expression source scans: tags only, names
/// outside the source's alphabet mapped to `#other`, with the token
/// back-map. Built from the html crate's public `to_names`, it yields the
/// same symbols as the query path's own abstraction.
fn tags_only_word(
    alphabet: &Alphabet,
    tokens: &[rextract_html::Token],
) -> (Vec<rextract_automata::Symbol>, Vec<usize>) {
    let other = alphabet.sym(OTHER);
    to_names(tokens, &SeqConfig::tags_only())
        .into_iter()
        .map(|e| (alphabet.try_sym(&e.name).unwrap_or(other), e.token_index))
        .unzip()
}

/// The alphabet `evaluate_query_with` builds for an inline source.
fn source_alphabet(names: &str) -> Alphabet {
    let mut names: Vec<&str> = names.split_whitespace().collect();
    names.sort_unstable();
    names.dedup();
    if !names.contains(&OTHER) {
        names.push(OTHER);
    }
    Alphabet::new(names)
}

/// Replay every page through tokenize → evaluate → render, and (traced)
/// each source's layers re-run on the same page: wrapper relation and
/// its scan, inline compile and scan, and the plan over the replayed
/// relations, adding to `counts`. Returns the mean item time of this pass
/// in µs.
fn replay(
    def: &QueryDef,
    pages: &[(String, String)],
    lookup: &Lookup<'_>,
    listing: &Wrapper,
    tr: &mut Tracer,
    counts: &mut Counts,
    out: &mut Outcome,
) -> Result<f64, String> {
    let mut item_us = 0.0;
    let mut scratch = WrapperScratch::new();
    let mut replay_scratch = WrapperScratch::new();
    let mut extract_scratch = ExtractScratch::new();
    let listing_extractor = Extractor::compile(listing.expr());
    for (name, html) in pages {
        let id = counts.items as u32;
        counts.items += 1;
        let t0 = Instant::now();
        let item = tr.begin("item", None, id);
        let ((tokens, spans), _) =
            tr.span("html.tokenize", Some(item), id, || tokenize_spanned(html));
        let (rel, eval) = tr.span("query.eval", Some(item), id, || {
            evaluate_query_with(def, &tokens, lookup, JoinStrategy::SortMerge, &mut scratch)
        });
        let rel = rel.map_err(|e| format!("{name}: {e}"))?;
        tr.span("sink.render", Some(item), id, || {
            render(name, html, &spans, &rel)
        });
        tr.end(item);
        item_us += gen::us(t0.elapsed());
        counts.bytes += html.len();
        counts.tokens += tokens.len();
        if !tr.enabled() {
            continue;
        }

        let mut inputs: HashMap<String, SpanRelation> = HashMap::new();
        for src in &def.sources {
            let var = src.var.clone();
            let relation = match &src.kind {
                SourceKind::Wrapper(_) => {
                    let sc = &mut replay_scratch;
                    let (relation, wspan) = tr
                        .replay("wrapper.extract", eval, id, || {
                            listing.span_relation_with(var.clone(), &tokens, sc)
                        })
                        .expect("tracer enabled");
                    counts.scanned += sc.word().len();
                    tr.replay("scan", wspan, id, || {
                        listing_extractor
                            .spans_into(sc.word(), &mut extract_scratch)
                            .len()
                    });
                    relation
                }
                SourceKind::Expr { alphabet, expr } => {
                    let alphabet = source_alphabet(alphabet);
                    let (compiled, _) = tr
                        .replay("compile", eval, id, || {
                            ExtractionExpr::parse(&alphabet, expr).map(|e| Extractor::compile(&e))
                        })
                        .expect("tracer enabled");
                    let extractor = compiled.map_err(|e| format!("{var}: {e}"))?;
                    let (word, back) = tags_only_word(&alphabet, &tokens);
                    counts.scanned += word.len();
                    let (found, _) = tr
                        .replay("scan", eval, id, || {
                            extractor.spans_into(&word, &mut extract_scratch).to_vec()
                        })
                        .expect("tracer enabled");
                    SpanRelation::unary(
                        var.clone(),
                        found.iter().map(|s| Span::unit(back[s.start])),
                    )
                }
            };
            inputs.insert(var, relation);
        }
        counts.rows_in += inputs.values().map(SpanRelation::len).sum::<usize>();
        let (joined, _) = tr
            .replay("algebra", eval, id, || {
                def.plan.eval_with(&inputs, JoinStrategy::SortMerge)
            })
            .expect("tracer enabled");
        let joined = joined.map_err(|e| format!("{name}: {e}"))?;
        counts.rows_out += joined.len();
        if joined.vars() != rel.vars() || joined.rows() != rel.rows() {
            out.check(Err(format!(
                "{name}: replayed layers disagree with evaluate_query_with"
            )));
        }
    }
    Ok(item_us / pages.len().max(1) as f64)
}
