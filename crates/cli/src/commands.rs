//! Command implementations for the `rextract` binary.

use rextract_automata::Alphabet;
use rextract_extraction::maximality::MaximalityStatus;
use rextract_extraction::right_filter::maximize_one_sided;
use rextract_extraction::{ExtractScratch, ExtractionExpr, Extractor};
use rextract_html::seq::{to_names, SeqConfig, Vocabulary};
use rextract_html::tokenizer::tokenize as html_tokenize;
use rextract_learn::merge::merge_samples;
use rextract_learn::MarkedSeq;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set by `main` when `--stats` is passed: commands that compile an
/// extraction engine also print its symbol-class count to stderr.
static SHOW_STATS: AtomicBool = AtomicBool::new(false);

/// Record whether `--stats` was requested (called once by `main`).
pub fn set_show_stats(on: bool) {
    SHOW_STATS.store(on, Ordering::Relaxed);
}

/// `--stats` line for a compiled engine: `rextract: engine classes=3`.
fn eprint_engine_classes(num_classes: usize) {
    if SHOW_STATS.load(Ordering::Relaxed) {
        eprintln!("rextract: engine classes={num_classes}");
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
rextract — resilient data extraction (PODS 2000)

USAGE:
  rextract tokenize <file.html>
      Print the tag-sequence abstraction of an HTML file.

  rextract analyze <alphabet> <expression>
      Classify an extraction expression: unambiguity (with witness),
      maximality (with extension witness), marker bound.
      <alphabet>   whitespace-separated symbol names, e.g. \"p q FORM\"
      <expression> E1 <p> E2 syntax, e.g. \"(q p)* <p> .*\"

  rextract maximize <alphabet> <expression>
      Maximize a one-sided expression (E⟨p⟩Σ* or Σ*⟨p⟩E) via
      Algorithm 6.2 / its mirror; prints the maximal expression.

  rextract extract <alphabet> <expression> <document>
      Locate the marked object in a document (whitespace-separated
      symbol names). Prints the 0-based position.

  rextract learn <sample>...
      Merge two or more marked tag sequences (target in angle
      brackets, e.g. \"P FORM INPUT <INPUT>\") into a pivot-form
      expression, then maximize it. The alphabet is inferred.

  rextract wrapper-train [--tuple] <out.wrapper> <sample.html>...
      Train a resilient wrapper from HTML sample files and write it to
      <out.wrapper> (a small auditable text artifact). Mark the target
      element in each sample with a data-target attribute, e.g.
      <input type=\"text\" data-target>. With --tuple, mark SEVERAL
      elements per sample (the same record in each — e.g. the form AND
      its text input) and a multi-marker tuple wrapper is trained
      instead, extracting all fields of the record per page.

  rextract wrapper-extract <in.wrapper> <page.html>
      Run a trained wrapper on a page; prints the token index and the
      located tag.

  rextract pipeline --wrappers DIR (--corpus DIR | --manifest FILE)
                    [--workers N] [--wrapper NAME]
                    [--route-sample NAME=FILE]...
                    [--tuple-wrapper NAME=FILE]... [--signatures FILE]
                    [--out FILE] [--unrouted FILE]
      Batch-extract a corpus of pages. Loads every *.wrapper artifact
      from --wrappers, routes each page to the wrapper whose site
      signature (tag-skeleton hash) matches — or probes all wrappers on
      first sight of a signature and binds the best match — and writes
      one provenance-tagged NDJSON tuple per page to stdout (or --out)
      in strict corpus order: {source, wrapper, wrapper_version,
      wrapper_revision, byte_offsets, fields}. Pages no wrapper matched
      go to --unrouted (or inline as error lines); nothing is silently
      dropped. --wrapper forces every page through one wrapper;
      --route-sample pins the sample FILE's signature to wrapper NAME
      up front (repeatable), bypassing the probe for that template
      family; --workers (default 4) sets the fan-out. --tuple-wrapper
      adds a trained tuple wrapper (from wrapper-train --tuple) to the
      routing pool under NAME (repeatable); pages it wins emit arity-k
      records with one byte-offset/field pair per marker. --signatures
      persists the router's probe-and-bind table: bindings load from
      FILE when it exists (skipping the probe for known page families)
      and the table is written back after the run. The run summary
      prints to stderr.

  rextract query <query.json> <page.html>... [--wrappers DIR]
                 [--strategy sort-merge|nested-loop] [--out FILE]
      Evaluate a span-relational query against pages. The query file
      names sources — installed wrappers (\"wrapper\": NAME, resolved
      from --wrappers) or inline expressions (\"alphabet\" + \"expr\")
      — and an algebra plan of project/union/join over them, e.g.
        {\"sources\":[{\"var\":\"field\",\"wrapper\":\"search\"},
          {\"var\":\"form\",\"alphabet\":\"FORM /FORM\",
           \"expr\":\"[^FORM]* <FORM> .*\"}],
         \"plan\":{\"op\":\"join\",\"left\":{\"op\":\"leaf\",\"var\":\"form\"},
           \"right\":{\"op\":\"leaf\",\"var\":\"field\"},
           \"preds\":[{\"pred\":\"before\",\"left\":\"form\",\"right\":\"field\"}]}}
      Each result row prints as one NDJSON record to stdout (or --out)
      with byte-offset provenance per variable; failed pages yield
      inline error lines. --strategy picks the join algorithm (the two
      produce byte-identical output; nested-loop is the oracle).

  rextract serve [--addr HOST:PORT] [--workers N] [--queue N]
                 [--batch-max N] [--wrapper-dir DIR]
                 [--keepalive-ms N] [--deadline-ms N]
                 [--drain-timeout-ms N] [--drift-window N]
                 [--drift-threshold RATE] [--drift-strict]
                 [--fault NAME=SPEC]...
      Run the extraction daemon: POST /extract, POST /wrappers/{name},
      GET /healthz, GET /metrics, POST /shutdown. Loads *.wrapper
      artifacts from --wrapper-dir at boot and on POST /reload.
      The core is an epoll readiness loop: pipelined HTTP/1.1 requests
      are parsed together and same-wrapper /extract requests coalesce
      into batches of up to --batch-max documents per worker trip.
      Each wrapper's failure and empty-result rates are watched over a
      sliding window of --drift-window pages (0 disables); past
      --drift-threshold the wrapper is flagged Degraded and the daemon
      retrains it online from retained evidence pages, retrying with
      exponential backoff that starts at 200 ms. --drift-strict turns
      best-effort serving of a drifted wrapper into 503s.
      Defaults: 127.0.0.1:7878, workers = min(cores, 8), queue 128,
      batch max 32, keep-alive 5000 ms, request deadline 10000 ms,
      drain timeout 5000 ms, drift window 32, drift threshold 0.9.
      --fault arms a failpoint (e.g. 'extract.slow=prob(0.3,42):sleep(30)';
      repeatable) and needs a binary built with --features failpoints.

  rextract demo
      Run the paper's Section 7 worked example end to end.

OPTIONS:
  --stats
      After any command, print the interned language store's cache
      counters (hits, misses, interned languages, evictions) to
      stderr, with one hits/misses line per operation.
";

fn need<'a>(args: &'a [String], n: usize, what: &str) -> Result<&'a str, String> {
    args.get(n)
        .map(String::as_str)
        .ok_or_else(|| format!("missing argument: {what}\n\n{USAGE}"))
}

/// Reject arguments past the `n` a fixed-arity command takes, so a
/// typo'd flag fails instead of being dropped.
fn at_most(args: &[String], n: usize) -> Result<(), String> {
    match args.get(n) {
        Some(extra) => Err(format!(
            "unexpected argument {extra:?}; try `rextract help`"
        )),
        None => Ok(()),
    }
}

/// `rextract tokenize <file.html>`
pub fn tokenize(args: &[String]) -> Result<(), String> {
    at_most(args, 1)?;
    let path = need(args, 0, "<file.html>")?;
    let html = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let entries = to_names(&html_tokenize(&html), &SeqConfig::tags_only());
    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    println!("{}", names.join(" "));
    Ok(())
}

fn parse_expr(args: &[String]) -> Result<(Alphabet, ExtractionExpr), String> {
    let alphabet_text = need(args, 0, "<alphabet>")?;
    let expr_text = need(args, 1, "<expression>")?;
    let sigma = Alphabet::new(alphabet_text.split_whitespace().map(String::from));
    let expr = ExtractionExpr::parse(&sigma, expr_text).map_err(|e| e.to_string())?;
    Ok((sigma, expr))
}

/// `rextract analyze <alphabet> <expression>`
pub fn analyze(args: &[String]) -> Result<(), String> {
    at_most(args, 2)?;
    let (sigma, expr) = parse_expr(args)?;
    println!("expression : {}", expr.to_text());
    match expr.ambiguity_witness() {
        Some(w) => {
            println!("ambiguous  : yes");
            println!(
                "witness    : {:?} (marker at {} or {})",
                sigma.syms_to_str(&w.word),
                w.first_split,
                w.second_split
            );
            return Ok(());
        }
        None => println!("ambiguous  : no"),
    }
    match expr.maximality() {
        MaximalityStatus::Maximal => println!("maximal    : yes"),
        MaximalityStatus::NonMaximal(w) => println!(
            "maximal    : no ({:?} side can absorb {:?})",
            w.side,
            sigma.syms_to_str(&w.string)
        ),
        MaximalityStatus::Ambiguous => unreachable!("checked above"),
    }
    println!(
        "marker bound (left side): {:?}",
        expr.left().max_marker_count(expr.marker())
    );
    Ok(())
}

/// `rextract maximize <alphabet> <expression>`
pub fn maximize(args: &[String]) -> Result<(), String> {
    at_most(args, 2)?;
    let (_sigma, expr) = parse_expr(args)?;
    let out = maximize_one_sided(&expr).map_err(|e| e.to_string())?;
    println!("{}", out.to_text());
    Ok(())
}

/// `rextract extract <alphabet> <expression> <document>`
pub fn extract(args: &[String]) -> Result<(), String> {
    at_most(args, 3)?;
    let (sigma, expr) = parse_expr(args)?;
    let doc_text = need(args, 2, "<document>")?;
    let doc = sigma
        .str_to_syms(doc_text)
        .map_err(|bad| format!("unknown document symbol {bad:?}"))?;
    let extractor = Extractor::compile(&expr);
    eprint_engine_classes(extractor.num_classes());
    match extractor.extract_with(&doc, &mut ExtractScratch::new()) {
        Ok(hit) => {
            println!("{}", hit.position);
            Ok(())
        }
        Err(e) => Err(format!("{e:?}")),
    }
}

/// `rextract learn <sample>...`
pub fn learn(args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        return Err(format!("need at least one sample\n\n{USAGE}"));
    }
    let samples: Vec<MarkedSeq> = args
        .iter()
        .map(|a| {
            MarkedSeq::parse(a)
                .ok_or_else(|| format!("bad sample (need exactly one <target>): {a:?}"))
        })
        .collect::<Result<_, _>>()?;
    let mut vocab = Vocabulary::new();
    for s in &samples {
        for n in &s.names {
            vocab.observe_name(n);
        }
    }
    let sigma = vocab.alphabet();
    let merged = merge_samples(&sigma, &samples).map_err(|e| e.to_string())?;
    let expr = merged.to_expr();
    println!("merged     : {}", expr.to_text());
    println!("unambiguous: {}", expr.is_unambiguous());
    match merged.maximize() {
        Ok(maximal) => {
            println!("maximized  : {}", maximal.to_text());
            println!("maximal    : {}", maximal.is_maximal());
        }
        Err(e) => println!("maximized  : (failed: {e})"),
    }
    Ok(())
}

/// `rextract wrapper-train [--tuple] <out.wrapper> <sample.html>...`
pub fn wrapper_train(args: &[String]) -> Result<(), String> {
    use rextract_wrapper::wrapper::{TrainPage, Wrapper, WrapperConfig};
    use rextract_wrapper::{MultiTrainPage, TupleWrapper};
    let (tuple, args) = match args.first().map(String::as_str) {
        Some("--tuple") => (true, &args[1..]),
        _ => (false, args),
    };
    let out_path = need(args, 0, "<out.wrapper>")?;
    let sample_paths = &args[1..];
    if sample_paths.is_empty() {
        return Err(format!("need at least one sample file\n\n{USAGE}"));
    }
    let mut pages = Vec::with_capacity(sample_paths.len());
    for path in sample_paths {
        let html = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let tokens = html_tokenize(&html);
        let targets: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.attr("data-target").is_some())
            .map(|(i, _)| i)
            .collect();
        if targets.is_empty() {
            return Err(format!(
                "{path}: no element carries a data-target attribute"
            ));
        }
        if tuple {
            pages.push(MultiTrainPage { tokens, targets });
        } else {
            // Single-target training reads the first mark, as always.
            let target = targets[0];
            pages.push(MultiTrainPage {
                tokens,
                targets: vec![target],
            });
        }
    }
    let out = std::path::Path::new(out_path);
    if tuple {
        let arity = pages[0].targets.len();
        if let Some((i, p)) = pages
            .iter()
            .enumerate()
            .find(|(_, p)| p.targets.len() != arity)
        {
            return Err(format!(
                "{}: {} data-target marks, but {} has {arity} — every sample must mark the same record",
                sample_paths[i],
                p.targets.len(),
                sample_paths[0],
            ));
        }
        let wrapper = TupleWrapper::train(&pages, WrapperConfig::default())
            .map_err(|e| format!("training failed: {e}"))?;
        rextract_wrapper::persist::save_artifact(out, &wrapper.export())
            .map_err(|e| format!("writing {out_path}: {e}"))?;
        println!(
            "trained on {} samples (arity {})",
            pages.len(),
            wrapper.arity()
        );
        println!("maximized : {}", wrapper.is_maximized());
        println!("expression: {}", wrapper.expr().to_text());
        println!("saved to  : {out_path}");
    } else {
        let pages: Vec<TrainPage> = pages
            .into_iter()
            .map(|p| TrainPage {
                tokens: p.tokens,
                target: p.targets[0],
            })
            .collect();
        let wrapper = Wrapper::train(&pages, WrapperConfig::default())
            .map_err(|e| format!("training failed: {e}"))?;
        rextract_wrapper::persist::save_artifact(out, &wrapper.export())
            .map_err(|e| format!("writing {out_path}: {e}"))?;
        println!("trained on {} samples", pages.len());
        println!("maximized : {}", wrapper.is_maximized());
        println!("expression: {}", wrapper.expr().to_text());
        println!("saved to  : {out_path}");
    }
    Ok(())
}

/// `rextract wrapper-extract <in.wrapper> <page.html>`
pub fn wrapper_extract(args: &[String]) -> Result<(), String> {
    use rextract_wrapper::wrapper::Wrapper;
    at_most(args, 2)?;
    let wrapper_path = need(args, 0, "<in.wrapper>")?;
    let page_path = need(args, 1, "<page.html>")?;
    let artifact = std::fs::read_to_string(wrapper_path)
        .map_err(|e| format!("reading {wrapper_path}: {e}"))?;
    let wrapper = Wrapper::import(&artifact).map_err(|e| e.to_string())?;
    eprint_engine_classes(wrapper.num_classes());
    let html =
        std::fs::read_to_string(page_path).map_err(|e| format!("reading {page_path}: {e}"))?;
    let tokens = html_tokenize(&html);
    let idx = wrapper
        .extract_target(&tokens)
        .map_err(|e| format!("extraction failed: {e}"))?;
    println!("token {idx}: {}", tokens[idx]);
    Ok(())
}

/// `rextract pipeline --wrappers DIR (--corpus DIR | --manifest FILE)
/// [--workers N] [--wrapper NAME] [--route-sample NAME=FILE]...
/// [--tuple-wrapper NAME=FILE]... [--signatures FILE]
/// [--out FILE] [--unrouted FILE]`
pub fn pipeline(args: &[String]) -> Result<(), String> {
    use rextract_corpus::{run_pipeline, CorpusSource, PipelineConfig};
    use rextract_serve::Registry;
    use rextract_wrapper::TupleWrapper;
    use std::io::Write;
    use std::sync::Arc;

    let mut wrapper_dir: Option<String> = None;
    let mut source: Option<CorpusSource> = None;
    let mut workers = 4usize;
    let mut wrapper_override: Option<String> = None;
    let mut route_samples: Vec<(String, std::path::PathBuf)> = Vec::new();
    let mut tuple_wrappers: Vec<(String, Arc<TupleWrapper>)> = Vec::new();
    let mut signatures: Option<std::path::PathBuf> = None;
    let mut out_path: Option<String> = None;
    let mut unrouted_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value ({what})"))
        };
        match flag.as_str() {
            "--wrappers" => wrapper_dir = Some(value("directory of *.wrapper artifacts")?.into()),
            "--corpus" => source = Some(CorpusSource::Dir(value("directory of pages")?.into())),
            "--manifest" => {
                source = Some(CorpusSource::Manifest(
                    value("newline-delimited file")?.into(),
                ))
            }
            "--workers" => {
                workers = value("thread count")?
                    .parse::<usize>()
                    .map_err(|e| format!("--workers: {e}"))?
                    .max(1)
            }
            "--wrapper" => wrapper_override = Some(value("wrapper name")?.into()),
            "--route-sample" => {
                let spec = value("NAME=FILE")?;
                let (name, file) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--route-sample {spec:?}: expected NAME=FILE"))?;
                if name.is_empty() || file.is_empty() {
                    return Err(format!("--route-sample {spec:?}: expected NAME=FILE"));
                }
                route_samples.push((name.to_string(), file.into()));
            }
            "--tuple-wrapper" => {
                let spec = value("NAME=FILE")?;
                let (name, file) = spec
                    .split_once('=')
                    .filter(|(n, f)| !n.is_empty() && !f.is_empty())
                    .ok_or_else(|| format!("--tuple-wrapper {spec:?}: expected NAME=FILE"))?;
                let tw = TupleWrapper::load(std::path::Path::new(file))
                    .map_err(|e| format!("--tuple-wrapper {name}: {e}"))?;
                tuple_wrappers.push((name.to_string(), Arc::new(tw)));
            }
            "--signatures" => signatures = Some(value("signature bindings file")?.into()),
            "--out" => out_path = Some(value("output file")?.into()),
            "--unrouted" => unrouted_path = Some(value("sidecar file")?.into()),
            other => return Err(format!("unknown flag {other:?}; try `rextract help`")),
        }
    }
    let wrapper_dir = wrapper_dir.ok_or_else(|| format!("missing --wrappers DIR\n\n{USAGE}"))?;
    let source =
        source.ok_or_else(|| format!("missing --corpus DIR or --manifest FILE\n\n{USAGE}"))?;

    // Same loading path as the daemon: per-artifact validation, corrupt
    // files quarantined and reported, the rest served.
    let registry = Registry::new(Some(wrapper_dir.clone().into()));
    let scan = registry
        .load_dir()
        .map_err(|e| format!("scanning {wrapper_dir}: {e}"))?;
    for (file, err) in &scan.errors {
        eprintln!("rextract: skipping {file}: {err}");
    }
    let wrappers = registry.entries();
    if wrappers.is_empty() && tuple_wrappers.is_empty() {
        return Err(format!("no usable *.wrapper artifacts in {wrapper_dir}"));
    }

    let make_writer = |path: &str| -> Result<Box<dyn Write>, String> {
        let f = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        Ok(Box::new(std::io::BufWriter::new(f)))
    };
    let mut out: Box<dyn Write> = match &out_path {
        Some(p) => make_writer(p)?,
        None => Box::new(std::io::BufWriter::new(std::io::stdout())),
    };
    let mut sidecar: Option<Box<dyn Write>> = match &unrouted_path {
        Some(p) => Some(make_writer(p)?),
        None => None,
    };

    let cfg = PipelineConfig {
        workers,
        wrapper_override,
        route_samples,
        tuple_wrappers,
        signatures,
        ..PipelineConfig::new(source)
    };
    // The `as` casts re-coerce the boxes' `dyn Write + 'static` objects
    // down to the call's local lifetime (coercion does not see through
    // `Option`, so the closure does it per-element).
    let report = run_pipeline(
        &cfg,
        wrappers,
        &mut *out as &mut dyn Write,
        sidecar.as_deref_mut().map(|w| w as &mut dyn Write),
    )
    .map_err(|e| e.to_string())?;
    out.flush().map_err(|e| format!("flushing output: {e}"))?;
    if let Some(s) = &mut sidecar {
        s.flush().map_err(|e| format!("flushing sidecar: {e}"))?;
    }
    eprintln!("rextract pipeline: {}", report.summary());
    Ok(())
}

/// `rextract query <query.json> <page.html>... [--wrappers DIR]
/// [--strategy sort-merge|nested-loop] [--out FILE]`
pub fn query(args: &[String]) -> Result<(), String> {
    use rextract_corpus::sink::{error_line, query_line};
    use rextract_extraction::{JoinStrategy, QueryDef};
    use rextract_serve::Registry;
    use rextract_wrapper::{evaluate_query_with, WrapperScratch};
    use std::io::Write;

    let mut wrapper_dir: Option<String> = None;
    let mut strategy = JoinStrategy::SortMerge;
    let mut out_path: Option<String> = None;
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{arg} needs a value ({what})"))
        };
        match arg.as_str() {
            "--wrappers" => wrapper_dir = Some(value("directory of *.wrapper artifacts")?.into()),
            "--strategy" => {
                let name = value("sort-merge or nested-loop")?;
                strategy = JoinStrategy::parse(name)
                    .ok_or_else(|| format!("--strategy: unknown strategy {name:?}"))?;
            }
            "--out" => out_path = Some(value("output file")?.into()),
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag:?}; try `rextract help`"))
            }
            path => positional.push(path),
        }
    }
    let (&query_path, page_paths) = positional
        .split_first()
        .ok_or_else(|| format!("missing <query.json>\n\n{USAGE}"))?;
    if page_paths.is_empty() {
        return Err(format!("need at least one <page.html>\n\n{USAGE}"));
    }
    let text =
        std::fs::read_to_string(query_path).map_err(|e| format!("reading {query_path}: {e}"))?;
    let def = QueryDef::parse(&text).map_err(|e| format!("{query_path}: {e}"))?;
    let query_name = std::path::Path::new(query_path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(query_path);

    // Wrapper sources bind against the same registry scan the daemon and
    // pipeline use; expression-only queries need no --wrappers at all.
    let registry = Registry::new(wrapper_dir.as_ref().map(Into::into));
    if let Some(dir) = &wrapper_dir {
        let scan = registry
            .load_dir()
            .map_err(|e| format!("scanning {dir}: {e}"))?;
        for (file, err) in &scan.errors {
            eprintln!("rextract: skipping {file}: {err}");
        }
    }
    let lookup = |n: &str| registry.get(n);

    let mut out: Box<dyn Write> = match &out_path {
        Some(p) => {
            let f = std::fs::File::create(p).map_err(|e| format!("creating {p}: {e}"))?;
            Box::new(std::io::BufWriter::new(f))
        }
        None => Box::new(std::io::BufWriter::new(std::io::stdout())),
    };
    let (mut records, mut failures) = (0usize, 0usize);
    // One scratch across the whole page set: buffers and the tag memo
    // warm up on the first page and stay off the allocator after.
    let mut scratch = WrapperScratch::new();
    for &path in page_paths {
        // A bad page yields an inline error line, never a silent drop —
        // the pipeline's contract, kept for ad-hoc query runs.
        let html = match std::fs::read_to_string(path) {
            Ok(h) => h,
            Err(e) => {
                failures += 1;
                writeln!(out, "{}", error_line(path, &format!("read: {e}")))
                    .map_err(|e| format!("writing output: {e}"))?;
                continue;
            }
        };
        let (tokens, spans) = rextract_html::tokenize_spanned(&html);
        match evaluate_query_with(&def, &tokens, &lookup, strategy, &mut scratch) {
            Ok(rel) => {
                let vars: Vec<&str> = rel.vars().iter().map(String::as_str).collect();
                for row in rel.rows() {
                    let offsets: Vec<(usize, usize)> = row
                        .iter()
                        .map(|s| (spans[s.start].0, spans[s.end - 1].1))
                        .collect();
                    let fields: Vec<&str> = offsets.iter().map(|&(s, e)| &html[s..e]).collect();
                    writeln!(
                        out,
                        "{}",
                        query_line(path, query_name, &vars, &offsets, &fields)
                    )
                    .map_err(|e| format!("writing output: {e}"))?;
                    records += 1;
                }
            }
            Err(e) => {
                failures += 1;
                writeln!(out, "{}", error_line(path, &e.to_string()))
                    .map_err(|e| format!("writing output: {e}"))?;
            }
        }
    }
    out.flush().map_err(|e| format!("flushing output: {e}"))?;
    eprintln!(
        "rextract query: {} pages, {records} records, {failures} failures ({} join)",
        page_paths.len(),
        strategy.name(),
    );
    Ok(())
}

/// `rextract serve [--addr HOST:PORT] [--workers N] [--queue N]
/// [--wrapper-dir DIR] [--keepalive-ms N]`
pub fn serve(args: &[String]) -> Result<(), String> {
    use rextract_serve::ServeConfig;
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value ({what})"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("HOST:PORT")?.to_string(),
            "--workers" => {
                config.workers = value("thread count")?
                    .parse::<usize>()
                    .map_err(|e| format!("--workers: {e}"))?
                    .max(1)
            }
            "--queue" => {
                config.queue_capacity = value("queue capacity")?
                    .parse::<usize>()
                    .map_err(|e| format!("--queue: {e}"))?
                    .max(1)
            }
            "--batch-max" => {
                config.batch_max = value("documents per batch")?
                    .parse::<usize>()
                    .map_err(|e| format!("--batch-max: {e}"))?
                    .max(1)
            }
            "--wrapper-dir" => config.wrapper_dir = Some(value("directory")?.into()),
            "--keepalive-ms" => {
                config.keepalive_timeout = std::time::Duration::from_millis(
                    value("milliseconds")?
                        .parse()
                        .map_err(|e| format!("--keepalive-ms: {e}"))?,
                )
            }
            "--deadline-ms" => {
                config.request_deadline = std::time::Duration::from_millis(
                    value("milliseconds")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                )
            }
            "--drift-window" => {
                config.drift_window = value("page count (0 disables)")?
                    .parse::<usize>()
                    .map_err(|e| format!("--drift-window: {e}"))?
            }
            "--drift-threshold" => {
                let t = value("rate in (0,1]")?
                    .parse::<f64>()
                    .map_err(|e| format!("--drift-threshold: {e}"))?;
                if !(t > 0.0 && t <= 1.0) {
                    return Err(format!("--drift-threshold: {t} not in (0,1]"));
                }
                config.drift_threshold = t;
            }
            "--drift-strict" => config.drift_strict = true,
            "--drain-timeout-ms" => {
                config.drain_timeout = std::time::Duration::from_millis(
                    value("milliseconds")?
                        .parse()
                        .map_err(|e| format!("--drain-timeout-ms: {e}"))?,
                )
            }
            "--fault" => {
                let spec = value("NAME=TRIGGER:ACTION")?;
                if !rextract_faults::ENABLED {
                    return Err(format!(
                        "--fault {spec:?}: this binary was built without fault injection; \
                         rebuild with `cargo build -p rextract-cli --features failpoints`"
                    ));
                }
                rextract_faults::configure_spec(spec).map_err(|e| format!("--fault: {e}"))?;
                eprintln!("rextract: armed failpoint {spec}");
            }
            other => return Err(format!("unknown flag {other:?}; try `rextract help`")),
        }
    }
    let handle = rextract_serve::serve(config).map_err(|e| format!("starting daemon: {e}"))?;
    println!("listening on http://{}", handle.addr());
    println!("POST /shutdown (or SIGKILL) to stop");
    handle.join();
    println!("drained; bye");
    Ok(())
}

/// `rextract demo`
pub fn demo(args: &[String]) -> Result<(), String> {
    at_most(args, 0)?;
    let page1 = "P H1 /H1 P FORM INPUT <INPUT> BR INPUT INPUT /FORM /P";
    let page2 = "TABLE TR TH IMG /TH /TR TR TD H1 /H1 /TD /TR TR TD A /A /TD /TR \
                 TR TD FORM INPUT <INPUT> INPUT BR INPUT /FORM /TD /TR /TABLE";
    println!("Section 7 worked example (Figure 1 tag sequences)\n");
    println!("page 1: {page1}");
    println!("page 2: {page2}\n");
    learn(&[page1.to_string(), page2.to_string()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_classifies() {
        assert!(analyze(&["p q".into(), "(q p)* <p> .*".into()]).is_ok());
        assert!(analyze(&["p q".into(), "p* <p> p* q".into()]).is_ok());
        assert!(analyze(&["p q".into(), "<z>".into()]).is_err());
        assert!(analyze(&["p q".into()]).is_err());
        let typo = analyze(&["p q".into(), "(q p)* <p> .*".into(), "--stat".into()]);
        assert_eq!(
            typo.unwrap_err(),
            "unexpected argument \"--stat\"; try `rextract help`"
        );
    }

    #[test]
    fn maximize_handles_both_shapes() {
        assert!(maximize(&["p q".into(), "q p <p> .*".into()]).is_ok());
        assert!(maximize(&["p q".into(), ".* <p> q".into()]).is_ok());
        assert!(maximize(&["p q".into(), "q <p> q".into()]).is_err());
    }

    #[test]
    fn extract_prints_position_or_errors() {
        assert!(extract(&["p q".into(), "[^p]* <p> .*".into(), "q q p q".into()]).is_ok());
        assert!(extract(&["p q".into(), "[^p]* <p> .*".into(), "q q".into()]).is_err());
        assert!(extract(&["p q".into(), "[^p]* <p> .*".into(), "q z".into()]).is_err());
        let extra = ["p q", "q* <p> .*", "q q p", "extra", "junk"].map(String::from);
        assert!(extract(&extra).unwrap_err().contains("\"extra\""));
    }

    #[test]
    fn learn_merges_samples() {
        assert!(learn(&[
            "P FORM INPUT <INPUT>".into(),
            "TD FORM TD INPUT <INPUT>".into()
        ])
        .is_ok());
        assert!(learn(&[]).is_err());
        assert!(learn(&["no target here".into()]).is_err());
    }

    #[test]
    fn demo_runs() {
        assert!(demo(&[]).is_ok());
    }

    #[test]
    fn wrapper_train_and_extract_round_trip() {
        let dir = std::env::temp_dir().join("rextract-cli-wrapper-test");
        std::fs::create_dir_all(&dir).unwrap();
        let s1 = dir.join("s1.html");
        let s2 = dir.join("s2.html");
        let out = dir.join("site.wrapper");
        let page = dir.join("page.html");
        std::fs::write(
            &s1,
            "<p><h1>Shop</h1><form><input type=\"image\">\
             <input type=\"text\" data-target></form>",
        )
        .unwrap();
        std::fs::write(
            &s2,
            "<table><tr><td><form><input type=\"image\">\
             <input type=\"text\" data-target><input type=\"radio\"></form></td></tr></table>",
        )
        .unwrap();
        // New layout, no data-target marking.
        std::fs::write(
            &page,
            "<table><tr><td>ad</td></tr><tr><td><form><input type=\"image\">\
             <input type=\"text\"><input type=\"radio\"></form></td></tr></table>",
        )
        .unwrap();
        wrapper_train(&[
            out.display().to_string(),
            s1.display().to_string(),
            s2.display().to_string(),
        ])
        .unwrap();
        wrapper_extract(&[out.display().to_string(), page.display().to_string()]).unwrap();
        // Error paths.
        assert!(wrapper_train(&[out.display().to_string()]).is_err());
        assert!(wrapper_extract(&[out.display().to_string()]).is_err());
        assert!(
            wrapper_extract(&["/nonexistent.wrapper".into(), page.display().to_string()]).is_err()
        );
        // Sample without a data-target attribute is rejected.
        let bad = dir.join("bad.html");
        std::fs::write(&bad, "<p>no target</p>").unwrap();
        let err =
            wrapper_train(&[out.display().to_string(), bad.display().to_string()]).unwrap_err();
        assert!(err.contains("data-target"));
    }

    #[test]
    fn pipeline_end_to_end_over_trained_wrapper() {
        use rextract_wrapper::site::{SiteConfig, SiteGenerator};

        let dir = std::env::temp_dir().join(format!("rextract-cli-pipe-{}", std::process::id()));
        let wrappers = dir.join("wrappers");
        let corpus = dir.join("corpus");
        std::fs::create_dir_all(&wrappers).unwrap();
        std::fs::create_dir_all(&corpus).unwrap();

        // Train through the real wrapper-train path (data-target marks).
        let mut g = SiteGenerator::new(SiteConfig {
            seed: 7,
            ..SiteConfig::default()
        });
        let mut train_args = vec![wrappers.join("search.wrapper").display().to_string()];
        for i in 0..3 {
            let p = g.page();
            let mut html = p.html();
            // Mark the target token by splicing data-target into it.
            let (tokens, spans) = rextract_html::tokenize_spanned(&html);
            assert_eq!(tokens.len(), p.tokens.len());
            let (s, _) = spans[p.target];
            let insert = html[s..]
                .find(' ')
                .map(|o| s + o)
                .unwrap_or_else(|| html[s..].find('>').map(|o| s + o).unwrap());
            html.insert_str(insert, " data-target");
            let sample = dir.join(format!("sample{i}.html"));
            std::fs::write(&sample, html).unwrap();
            train_args.push(sample.display().to_string());
        }
        wrapper_train(&train_args).unwrap();

        for i in 0..8 {
            std::fs::write(corpus.join(format!("p{i}.html")), g.page().html()).unwrap();
        }
        let out = dir.join("tuples.ndjson");
        let side = dir.join("unrouted.ndjson");
        pipeline(&[
            "--wrappers".into(),
            wrappers.display().to_string(),
            "--corpus".into(),
            corpus.display().to_string(),
            "--workers".into(),
            "2".into(),
            "--out".into(),
            out.display().to_string(),
            "--unrouted".into(),
            side.display().to_string(),
        ])
        .unwrap();
        let tuples = std::fs::read_to_string(&out).unwrap();
        let side = std::fs::read_to_string(&side).unwrap();
        assert_eq!(
            tuples.lines().count() + side.lines().count(),
            8,
            "every page accounted: {tuples}{side}"
        );
        assert!(
            tuples.contains("\"wrapper\":\"search\"") && tuples.contains("\"byte_offsets\":"),
            "{tuples}"
        );

        // Flag errors fail before any I/O.
        assert!(pipeline(&[]).is_err());
        assert!(pipeline(&["--corpus".into(), corpus.display().to_string()]).is_err());
        assert!(pipeline(&["--bogus".into()]).is_err());
        let err = pipeline(&[
            "--wrappers".into(),
            corpus.display().to_string(), // no artifacts here
            "--corpus".into(),
            corpus.display().to_string(),
        ])
        .unwrap_err();
        assert!(err.contains("no usable"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Splice `data-target` marks into the page bytes at `targets`.
    fn marked(html: &str, targets: &[usize]) -> String {
        let mut html = html.to_string();
        let (_, spans) = rextract_html::tokenize_spanned(&html);
        let mut idxs: Vec<usize> = targets.to_vec();
        idxs.sort_unstable_by(|a, b| b.cmp(a)); // splice back-to-front
        for &t in &idxs {
            let (s, _) = spans[t];
            let end = s + html[s..].find('>').unwrap();
            let insert = html[s..end].find(' ').map(|o| s + o).unwrap_or(end);
            html.insert_str(insert, " data-target");
        }
        html
    }

    #[test]
    fn tuple_train_signature_dump_and_query_end_to_end() {
        use rextract_wrapper::site::{PageStyle, SiteConfig, SiteGenerator};
        let dir = std::env::temp_dir().join(format!("rextract-cli-query-{}", std::process::id()));
        let wrappers = dir.join("wrappers");
        let corpus = dir.join("corpus");
        let empty = dir.join("no-artifacts");
        for d in [&wrappers, &corpus, &empty] {
            std::fs::create_dir_all(d).unwrap();
        }
        let mut g = SiteGenerator::new(SiteConfig {
            seed: 31,
            ..SiteConfig::default()
        });

        // Train a tuple wrapper (FORM + INPUT marked) and a single-target
        // wrapper from the same pages, both through the real CLI path.
        let tuple_artifact = dir.join("record.tuple");
        let mut tuple_args = vec!["--tuple".to_string(), tuple_artifact.display().to_string()];
        let mut single_args = vec![wrappers.join("search.wrapper").display().to_string()];
        for (i, &style) in [PageStyle::Plain, PageStyle::TableEmbedded, PageStyle::Busy]
            .iter()
            .enumerate()
        {
            let p = g.page_with_style(style);
            let form = p
                .tokens
                .iter()
                .position(|t| t.tag_name() == Some("FORM"))
                .unwrap();
            let two = dir.join(format!("two{i}.html"));
            std::fs::write(&two, marked(&p.html(), &[form, p.target])).unwrap();
            tuple_args.push(two.display().to_string());
            let one = dir.join(format!("one{i}.html"));
            std::fs::write(&one, marked(&p.html(), &[p.target])).unwrap();
            single_args.push(one.display().to_string());
        }
        wrapper_train(&tuple_args).unwrap();
        wrapper_train(&single_args).unwrap();

        // Inconsistent mark counts across samples are rejected up front.
        let err = wrapper_train(&[
            "--tuple".into(),
            tuple_artifact.display().to_string(),
            tuple_args[2].clone(),
            single_args[1].clone(),
        ])
        .unwrap_err();
        assert!(err.contains("data-target marks"), "{err}");

        // Pipeline with the tuple wrapper alone: arity-2 records, and the
        // probe-and-bind table dumped to --signatures.
        let mut page_paths = Vec::new();
        for i in 0..6 {
            let path = corpus.join(format!("p{i}.html"));
            std::fs::write(&path, g.page().html()).unwrap();
            page_paths.push(path.display().to_string());
        }
        let sigs = dir.join("bindings.sig");
        let out = dir.join("tuples.ndjson");
        let run = |out: &std::path::Path| {
            pipeline(&[
                "--wrappers".into(),
                empty.display().to_string(),
                "--tuple-wrapper".into(),
                format!("record={}", tuple_artifact.display()),
                "--signatures".into(),
                sigs.display().to_string(),
                "--corpus".into(),
                corpus.display().to_string(),
                "--out".into(),
                out.display().to_string(),
            ])
            .unwrap();
            std::fs::read_to_string(out).unwrap()
        };
        let tuples = run(&out);
        assert!(
            tuples.contains("\"wrapper\":\"record\"") && tuples.contains("],["),
            "expected arity-2 records: {tuples}"
        );
        let dump = std::fs::read_to_string(&sigs).unwrap();
        assert!(dump.starts_with("rextract-signatures v1"), "{dump}");
        assert!(dump.contains("record"), "{dump}");
        // Warm start from the dump: byte-identical output.
        assert_eq!(tuples, run(&dir.join("tuples2.ndjson")));

        // A missing tuple artifact fails at flag-parse time.
        let err = pipeline(&[
            "--tuple-wrapper".into(),
            format!("ghost={}", dir.join("nope.tuple").display()),
        ])
        .unwrap_err();
        assert!(err.contains("--tuple-wrapper ghost"), "{err}");

        // Query: wrapper source + inline expression joined by document
        // order, evaluated over the corpus pages via the CLI.
        let qfile = dir.join("pair.json");
        std::fs::write(
            &qfile,
            r#"{
              "sources": [
                {"var": "field", "wrapper": "search"},
                {"var": "form", "alphabet": "FORM /FORM", "expr": "[^FORM]* <FORM> .*"}
              ],
              "plan": {
                "op": "join",
                "left": {"op": "leaf", "var": "form"},
                "right": {"op": "leaf", "var": "field"},
                "preds": [{"pred": "before", "left": "form", "right": "field"}]
              }
            }"#,
        )
        .unwrap();
        let qout = dir.join("records.ndjson");
        let mut qargs = vec![
            qfile.display().to_string(),
            "--wrappers".into(),
            wrappers.display().to_string(),
            "--out".into(),
            qout.display().to_string(),
        ];
        qargs.extend(page_paths.iter().cloned());
        qargs.push(dir.join("missing.html").display().to_string());
        query(&qargs).unwrap();
        let records = std::fs::read_to_string(&qout).unwrap();
        let rows: Vec<&str> = records.lines().collect();
        assert_eq!(rows.len(), 7, "6 pages + 1 read error: {records}");
        assert!(
            rows[0].contains("\"query\":\"pair\"")
                && rows[0].contains("\"vars\":[\"form\",\"field\"]")
                && rows[0].contains("<form"),
            "{records}"
        );
        assert!(rows[6].contains("\"error\":\"read:"), "{records}");

        // The nested-loop oracle renders byte-identical records.
        let oracle_out = dir.join("oracle.ndjson");
        let mut oargs = qargs.clone();
        let at = oargs.iter().position(|a| a == "--out").unwrap();
        oargs[at + 1] = oracle_out.display().to_string();
        oargs.push("--strategy".into());
        oargs.push("nested-loop".into());
        query(&oargs).unwrap();
        assert_eq!(records, std::fs::read_to_string(&oracle_out).unwrap());

        // Flag and argument errors.
        assert!(query(&[]).is_err());
        assert!(query(&[qfile.display().to_string()]).is_err(), "no pages");
        assert!(query(&["--strategy".into(), "zigzag".into()]).is_err());
        assert!(query(&["--bogus".into()]).is_err());
        assert!(query(&["/nonexistent.json".into(), "p.html".into()]).is_err());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_flag_errors_do_not_boot() {
        // Flag parsing fails before any socket is bound.
        assert!(serve(&["--workers".into()]).is_err());
        assert!(serve(&["--deadline-ms".into(), "abc".into()]).is_err());
        assert!(serve(&["--drain-timeout-ms".into()]).is_err());
        let err = serve(&["--repair-backoff-ms".into(), "5".into()]).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        // --fault: rejected outright without the feature, and a malformed
        // spec is rejected with it — either way serve() returns early.
        let err = serve(&["--fault".into(), "not-a-spec".into()]).unwrap_err();
        if rextract_faults::ENABLED {
            assert!(err.contains("--fault"), "{err}");
        } else {
            assert!(err.contains("failpoints"), "{err}");
        }
    }

    #[test]
    fn tokenize_reads_files() {
        let dir = std::env::temp_dir().join("rextract-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("page.html");
        std::fs::write(&path, "<p><form><input></form>").unwrap();
        assert!(tokenize(&[path.display().to_string()]).is_ok());
        assert!(tokenize(&["/nonexistent/file.html".into()]).is_err());
        assert!(tokenize(&[]).is_err());
    }
}
