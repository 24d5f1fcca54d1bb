//! Experiment E8 — extraction is linear time, and the dense engine's
//! constants.
//!
//! The Section 4 operational reading ("try splits until one succeeds") is
//! quadratic; both linear engines are O(|doc|). We sweep document length
//! 10²…10⁷ tokens comparing the **dense** engine (the one-pass sweep over
//! class-compressed premultiplied tables, reusable scratch) against the
//! **two-pass** reference engine (per-call `Vec<bool>`, full-|Σ| rows),
//! plus:
//!
//! * a class-collapse sweep (|Σ| ∈ {16, 64} with few distinct transition
//!   columns — the wrapper-alphabet shape where compression pays),
//! * a scratch-reuse row (reused [`ExtractScratch`] vs a fresh allocation
//!   per call),
//! * the one-shot compile cost, so compile-once/extract-many stays
//!   visible.
//!
//! Experiment E13 rides in the same binary ([`bench_scan_modes`]): the
//! one-pass sweep versus the two-pass engine on three workloads (one
//! match, dense matches, and a large `E1 × E2` product), on a
//! 10⁵…10⁷-token sweep with absolute tokens/sec, bytes/sec, and
//! per-token cycle-budget columns.
//!
//! Every benched document is first cross-checked: dense and two-pass
//! positions must agree (and match the quadratic naive engine on small
//! documents). `EXTRACT_BENCH_FAST=1` trims the sweep to make that
//! agreement check a cheap CI smoke (`scripts/check.sh`).

use bench::{alphabet_of, anchored_document, anchored_expr, print_table};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rextract_automata::{Alphabet, Regex, Symbol};
use rextract_extraction::{
    ExtractScratch, ExtractionExpr, Extractor, JoinStrategy, NaiveExtractor, SpanRelation,
    TwoPassExtractor,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn fast_mode() -> bool {
    std::env::var("EXTRACT_BENCH_FAST").is_ok_and(|v| v == "1")
}

/// Cross-check the engines on a bench document before timing it: the
/// numbers below are meaningless if the engines disagree, and in fast
/// mode this assertion IS the point of the run.
fn assert_engines_agree(expr: &ExtractionExpr, dense: &Extractor, doc: &[Symbol]) {
    let two_pass = TwoPassExtractor::compile(expr);
    let want = two_pass.positions(doc);
    assert_eq!(
        dense.positions(doc),
        want,
        "dense and two-pass engines disagree on a {}-token bench document",
        doc.len()
    );
    // The quadratic baseline only on small documents.
    if doc.len() <= 1_500 {
        assert_eq!(
            NaiveExtractor::compile(expr).positions(doc),
            want,
            "naive engine disagrees on a {}-token bench document",
            doc.len()
        );
    }
}

fn bench_throughput(c: &mut Criterion) {
    let alphabet = alphabet_of(16);
    let expr = anchored_expr(&alphabet, 4);
    let dense = Extractor::compile(&expr);
    let two_pass = TwoPassExtractor::compile(&expr);
    let mut scratch = ExtractScratch::new();
    let lens: &[usize] = if fast_mode() {
        &[100, 10_000, 100_000]
    } else {
        &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000]
    };
    let mut group = c.benchmark_group("extract/throughput");
    for &len in lens {
        // Scale noise so total length ≈ len: 4 gaps + tail + marker.
        let noise = len / 6;
        let doc = anchored_document(&alphabet, 4, noise, 42);
        assert_engines_agree(&expr, &dense, &doc);
        group.throughput(Throughput::Elements(doc.len() as u64));
        group.bench_with_input(BenchmarkId::new("dense", doc.len()), &doc, |b, d| {
            b.iter(|| black_box(dense.extract_with(d, &mut scratch)))
        });
        group.bench_with_input(BenchmarkId::new("two-pass", doc.len()), &doc, |b, d| {
            b.iter(|| black_box(two_pass.extract(d)))
        });
    }
    group.finish();
}

fn bench_class_collapse(c: &mut Criterion) {
    // Wrapper-alphabet shape: |Σ| tag names, but only the 4 anchors and
    // the marker have distinct transition columns, so the joint partition
    // collapses to a handful of classes. The dense engine's row size (and
    // cache footprint) follows the class count, not |Σ|.
    let mut group = c.benchmark_group("extract/class-collapse");
    let noise = if fast_mode() { 2_000 } else { 16_000 };
    for &sigma in &[16usize, 64] {
        let alphabet = alphabet_of(sigma);
        let expr = anchored_expr(&alphabet, 4);
        let dense = Extractor::compile(&expr);
        let two_pass = TwoPassExtractor::compile(&expr);
        let mut scratch = ExtractScratch::new();
        let doc = anchored_document(&alphabet, 4, noise, 11);
        assert_engines_agree(&expr, &dense, &doc);
        eprintln!(
            "extract/class-collapse: |Σ|={sigma} → {} classes",
            dense.num_classes()
        );
        group.throughput(Throughput::Elements(doc.len() as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("dense-sigma{sigma}"), doc.len()),
            &doc,
            |b, d| b.iter(|| black_box(dense.extract_with(d, &mut scratch))),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("two-pass-sigma{sigma}"), doc.len()),
            &doc,
            |b, d| b.iter(|| black_box(two_pass.extract(d))),
        );
    }
    group.finish();
}

fn bench_scratch_reuse(c: &mut Criterion) {
    // Same engine, same document: the only difference is whether the
    // scan buffers are reused or re-allocated per call.
    let alphabet = alphabet_of(16);
    let expr = anchored_expr(&alphabet, 4);
    let dense = Extractor::compile(&expr);
    let len = if fast_mode() { 10_000 } else { 100_000 };
    let doc = anchored_document(&alphabet, 4, len / 6, 42);
    assert_engines_agree(&expr, &dense, &doc);
    let mut group = c.benchmark_group("extract/scratch-reuse");
    group.throughput(Throughput::Elements(doc.len() as u64));
    let mut scratch = ExtractScratch::new();
    group.bench_with_input(BenchmarkId::new("reused", doc.len()), &doc, |b, d| {
        b.iter(|| black_box(dense.extract_with(d, &mut scratch)))
    });
    group.bench_with_input(BenchmarkId::new("fresh", doc.len()), &doc, |b, d| {
        b.iter(|| black_box(dense.extract(d)))
    });
    group.finish();
}

fn bench_linear_vs_naive_baseline(c: &mut Criterion) {
    // Ablation: the paper's operational "try every split" reading is
    // quadratic; the two-pass engines are linear. The crossover shape is
    // the point (naive is fine at 100 tokens, hopeless at 100k).
    let alphabet = alphabet_of(16);
    let expr = anchored_expr(&alphabet, 4);
    let dense = Extractor::compile(&expr);
    let naive = NaiveExtractor::compile(&expr);
    let mut scratch = ExtractScratch::new();
    let lens: &[usize] = if fast_mode() {
        &[100, 1_000]
    } else {
        &[100, 1_000, 10_000]
    };
    let mut group = c.benchmark_group("extract/linear-vs-naive");
    for &len in lens {
        let noise = len / 6;
        let doc = anchored_document(&alphabet, 4, noise, 42);
        group.throughput(Throughput::Elements(doc.len() as u64));
        group.bench_with_input(BenchmarkId::new("dense", doc.len()), &doc, |b, d| {
            b.iter(|| black_box(dense.extract_with(d, &mut scratch)))
        });
        group.bench_with_input(BenchmarkId::new("naive", doc.len()), &doc, |b, d| {
            b.iter(|| black_box(naive.extract(d)))
        });
    }
    group.finish();
}

/// `.* [anchors] <p> .*` — every position right after one of `anchors`
/// is a valid split, so the extractor yields a many-row span relation.
fn follows_expr(alphabet: &rextract_automata::Alphabet, anchors: &[&str]) -> ExtractionExpr {
    let p = alphabet.sym("p");
    let mut set = alphabet.empty_set();
    for a in anchors {
        set.insert(alphabet.sym(a));
    }
    ExtractionExpr::new(
        alphabet,
        Regex::concat([Regex::any(alphabet).star(), Regex::class(set)]),
        p,
        Regex::universe(alphabet),
    )
}

/// Every `stride`-th row — bounds the nested-loop baseline's quadratic
/// cost so both strategies bench the same bounded relations.
fn subsample(rel: &SpanRelation, max_rows: usize) -> SpanRelation {
    let stride = rel.len().div_ceil(max_rows).max(1);
    SpanRelation::from_rows(
        rel.vars().iter().cloned(),
        rel.rows().iter().step_by(stride).cloned(),
    )
}

/// xorshift64* stream for synthetic documents.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn bench_join(c: &mut Criterion) {
    // Two-expression join over one document: x = markers right after
    // t0, joined (shared variable) with markers after t0-or-t1. The
    // narrow set is a subset of the wide one, which gives an exact
    // ground truth for the join result before any timing. The document
    // alternates noise and markers so the candidate relations grow with
    // the document (anchored_document's single marker region would cap
    // them at a few dozen rows).
    let alphabet = alphabet_of(16);
    let doc_len = if fast_mode() { 10_000 } else { 100_000 };
    let p = alphabet.sym("p");
    let noise: Vec<Symbol> = alphabet.symbols().filter(|&s| s != p).collect();
    let mut next = xorshift(42);
    let mut doc = Vec::with_capacity(doc_len);
    while doc.len() + 2 <= doc_len {
        doc.push(noise[(next() % noise.len() as u64) as usize]);
        doc.push(p);
    }
    let narrow = Extractor::compile(&follows_expr(&alphabet, &["t0"]));
    let wide = Extractor::compile(&follows_expr(&alphabet, &["t0", "t1"]));
    let r = SpanRelation::unary("x", narrow.spans(&doc));
    let s = SpanRelation::unary("x", wide.spans(&doc));
    // Ground truth on the full relations: both strategies byte-identical,
    // and the natural join of a subset with its superset is the subset.
    let merged = r.join(&s, &[], JoinStrategy::SortMerge).unwrap();
    assert_eq!(
        merged,
        r.join(&s, &[], JoinStrategy::NestedLoop).unwrap(),
        "strategies disagree on the bench relations"
    );
    assert_eq!(merged, r, "narrow ⋈ wide must equal narrow");
    // Bench on bounded relations (the nested-loop baseline is quadratic);
    // both strategies see the same rows, so the comparison stays fair.
    let rb = subsample(&r, 2_048);
    let sb = subsample(&s, 4_096);
    eprintln!(
        "extract/join: doc {} tokens, |R|={} |S|={} (benched at {}x{})",
        doc.len(),
        r.len(),
        s.len(),
        rb.len(),
        sb.len()
    );
    let mut group = c.benchmark_group("extract/join");
    group.throughput(Throughput::Elements((rb.len() + sb.len()) as u64));
    group.bench_with_input(BenchmarkId::new("sort-merge", rb.len()), &(), |b, _| {
        b.iter(|| black_box(rb.join(&sb, &[], JoinStrategy::SortMerge).unwrap()))
    });
    group.bench_with_input(BenchmarkId::new("nested-loop", rb.len()), &(), |b, _| {
        b.iter(|| black_box(rb.join(&sb, &[], JoinStrategy::NestedLoop).unwrap()))
    });
    group.finish();
}

fn bench_compile_vs_extract(c: &mut Criterion) {
    let alphabet = alphabet_of(16);
    let expr = anchored_expr(&alphabet, 8);
    let doc = anchored_document(&alphabet, 8, 500, 7);
    let mut group = c.benchmark_group("extract/compile-vs-run");
    group.bench_function("compile", |b| {
        b.iter(|| black_box(Extractor::compile(&expr)))
    });
    let compiled = Extractor::compile(&expr);
    let mut scratch = ExtractScratch::new();
    group.bench_function("run", |b| {
        b.iter(|| black_box(compiled.extract_with(&doc, &mut scratch)))
    });
    group.bench_function("one-shot(compile+run)", |b| {
        b.iter(|| black_box(expr.extract(&doc)))
    });
    group.finish();
}

fn bench_alphabet_scaling(c: &mut Criterion) {
    // Per-token cost is a table lookup; alphabet size should only affect
    // compile time (and, post-compression, the class count), not
    // extraction throughput.
    let mut group = c.benchmark_group("extract/alphabet-scaling");
    let sigmas: &[usize] = if fast_mode() { &[4, 64] } else { &[4, 64, 256] };
    for &sigma in sigmas {
        let alphabet = alphabet_of(sigma);
        let expr = anchored_expr(&alphabet, 4);
        let extractor = Extractor::compile(&expr);
        let mut scratch = ExtractScratch::new();
        let doc = anchored_document(&alphabet, 4, 2_000, 11);
        group.throughput(Throughput::Elements(doc.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(sigma), &doc, |b, d| {
            b.iter(|| black_box(extractor.extract_with(d, &mut scratch)))
        });
    }
    group.finish();
}

/// Rough effective clock estimate for the cycle-budget column: six
/// dependent ~1-cycle ops per iteration (an xorshift64 step) form a
/// chain the compiler cannot fold across iterations, so wall time
/// ≈ 6·iters cycles. Good to maybe ±15% on a shared vCPU — it backs an
/// order-of-magnitude *estimate*, not a perf-counter reading.
fn estimate_ghz() -> f64 {
    let iters: u64 = if fast_mode() { 5_000_000 } else { 50_000_000 };
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let t = Instant::now();
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    let ns = t.elapsed().as_nanos().max(1) as f64;
    black_box(x);
    6.0 * iters as f64 / ns
}

/// Mean ns/token over whole-document scans: one untimed warm-up, then
/// repeat until the budget is spent (≥3 reps so one scheduler hiccup
/// cannot own the row).
fn time_scan(tokens: usize, mut f: impl FnMut()) -> f64 {
    f();
    let budget = Duration::from_millis(if fast_mode() { 40 } else { 250 });
    let mut reps = 0u32;
    let t = Instant::now();
    while t.elapsed() < budget || reps < 3 {
        f();
        reps += 1;
    }
    t.elapsed().as_nanos() as f64 / f64::from(reps) / tokens as f64
}

/// Experiment E13 — the one-pass sweep against the two-pass engine,
/// with absolute throughput columns.
///
/// The criterion stand-in reports only ns/iter, so this experiment times
/// manually and prints a table: ns/token, tokens/sec, bytes/sec (4-byte
/// symbols), and an estimated per-token cycle budget (ns/token × the
/// [`estimate_ghz`] calibration). Three workloads:
///
/// * `anchored` — the standard anchored expression (single match, `E2 =
///   Σ*`, a 6-state product);
/// * `dense-match` — every other position is a valid split, so every
///   marker is a candidate (they all merge into one bucket);
/// * `large-product` — `(. × 13)* <p> (. × 12)*` over {p, q}, a
///   156-state product where up to twelve buckets are live per token:
///   the sweep's worst case, where the two-pass engine's per-token cost
///   does not grow.
///
/// The sweep is cross-checked against the two-pass ground truth on every
/// document BEFORE timing.
fn bench_scan_modes(_c: &mut Criterion) {
    let alphabet = alphabet_of(16);
    let anchored = anchored_expr(&alphabet, 4);
    let p = alphabet.sym("p");
    let dense_match = follows_expr(&alphabet, &["t0", "t1"]);
    let noise: Vec<Symbol> = alphabet.symbols().filter(|&s| s != p).collect();
    let pq = Alphabet::new(["p", "q"]);
    let dots = |k: usize| vec!["."; k].join(" ");
    let large_product =
        ExtractionExpr::parse(&pq, &format!("({})* <p> ({})*", dots(13), dots(12))).unwrap();

    let lens: &[usize] = if fast_mode() {
        &[10_000]
    } else {
        &[100_000, 1_000_000, 10_000_000]
    };
    let ghz = estimate_ghz();
    let mut rows: Vec<Vec<String>> = Vec::new();

    for (workload, expr) in [
        ("anchored", &anchored),
        ("dense-match", &dense_match),
        ("large-product", &large_product),
    ] {
        let sweep = Extractor::compile(expr);
        let two_pass = TwoPassExtractor::compile(expr);
        for &len in lens {
            let doc: Vec<Symbol> = match workload {
                "anchored" => anchored_document(&alphabet, 4, len / 6, 42),
                "dense-match" => {
                    // Alternate noise and markers: ~half the positions split.
                    let mut next = xorshift(42);
                    let mut d = Vec::with_capacity(len);
                    while d.len() + 2 <= len {
                        d.push(noise[(next() % noise.len() as u64) as usize]);
                        d.push(p);
                    }
                    d
                }
                _ => {
                    let mut next = xorshift(7);
                    (0..len)
                        .map(|_| Symbol::from_index((next() >> 33) as usize % 2))
                        .collect()
                }
            };
            // Ground truth BEFORE timing: a fast wrong engine would
            // otherwise win every row.
            let want = two_pass.positions(&doc);
            let mut scratch = ExtractScratch::new();
            assert_eq!(
                sweep.positions_into(&doc, &mut scratch),
                want.as_slice(),
                "sweep disagrees with ground truth on {workload}/{len}"
            );
            let n = doc.len();
            let mut push_row = |name: &str, ns_per_tok: f64| {
                let toks_per_s = 1e9 / ns_per_tok;
                rows.push(vec![
                    format!("{workload}/{name}"),
                    format!("{n}"),
                    format!("{ns_per_tok:.3}"),
                    format!("{:.1}", toks_per_s / 1e6),
                    format!(
                        "{:.1}",
                        toks_per_s * std::mem::size_of::<Symbol>() as f64 / 1e6
                    ),
                    format!("{:.1}", ns_per_tok * ghz),
                ]);
            };
            push_row(
                "sweep",
                time_scan(n, || {
                    black_box(sweep.positions_into(&doc, &mut scratch));
                }),
            );
            push_row(
                "two-pass",
                time_scan(n, || {
                    black_box(two_pass.positions(&doc));
                }),
            );
        }
    }
    print_table(
        &format!("E13: one-pass sweep vs two-pass (est clock {ghz:.2} GHz, budget column ≈ ns/tok × clock — an estimate, not a counter reading)"),
        &["engine", "tokens", "ns/tok", "Mtok/s", "MB/s", "≈cyc/tok"],
        &rows,
    );
}

criterion_group!(
    benches,
    bench_throughput,
    bench_class_collapse,
    bench_scratch_reuse,
    bench_join,
    bench_linear_vs_naive_baseline,
    bench_compile_vs_extract,
    bench_alphabet_scaling,
    bench_scan_modes
);
criterion_main!(benches);
