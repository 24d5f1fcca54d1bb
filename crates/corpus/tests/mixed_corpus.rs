//! End-to-end mixed-corpus integration: 100 pages from two template
//! families (search forms and product listings) written to disk, two
//! wrappers trained from samples, the full pipeline run over the
//! directory — and **every emitted tuple cross-checked against the
//! generator's per-page ground truth**: right wrapper, right byte
//! offsets, and the `fields` value re-slices out of the original file.
//! Also pins the ordering guarantee: the output stream is byte-identical
//! across worker counts, and line `k` always refers to page `k` of the
//! ingest order.

use rextract_corpus::{run_pipeline, CorpusSource, PipelineConfig, PipelineReport};
use rextract_html::tokenize_spanned;
use rextract_wrapper::site::{Page, PageStyle, SiteConfig, SiteGenerator};
use rextract_wrapper::{TrainPage, Wrapper, WrapperConfig};
use std::path::Path;
use std::sync::Arc;

struct GroundTruth {
    source: String,
    family: &'static str,
    /// Expected tuple byte span in the written file.
    span: (usize, usize),
    /// Expected `fields[0]` — the raw bytes at `span`.
    field: String,
}

fn build_corpus(dir: &Path, pages: usize) -> (Vec<(String, Arc<Wrapper>)>, Vec<GroundTruth>) {
    let mut g = SiteGenerator::new(SiteConfig {
        seed: 271,
        ..SiteConfig::default()
    });
    let search: Vec<TrainPage> = [
        PageStyle::Plain,
        PageStyle::TableEmbedded,
        PageStyle::Busy,
        PageStyle::Busy,
    ]
    .iter()
    .map(|&s| TrainPage::from(&g.page_with_style(s)))
    .collect();
    let listing: Vec<TrainPage> = (0..6).map(|_| TrainPage::from(&g.listing_page())).collect();
    let trained = |p: &[TrainPage]| Arc::new(Wrapper::train(p, WrapperConfig::default()).unwrap());
    let wrappers = vec![
        ("search".to_string(), trained(&search)),
        ("listing".to_string(), trained(&listing)),
    ];

    std::fs::create_dir_all(dir).unwrap();
    let mut truth = Vec::with_capacity(pages);
    for i in 0..pages {
        let (page, family): (Page, &'static str) = if i % 2 == 0 {
            (g.page(), "search")
        } else {
            (g.listing_page(), "listing")
        };
        let html = page.html();
        let path = dir.join(format!("p{i:04}.html"));
        std::fs::write(&path, &html).unwrap();
        // Ground truth span: the generator's target token re-located in
        // the written bytes (site pages round-trip the tokenizer).
        let (tokens, spans) = tokenize_spanned(&html);
        assert_eq!(tokens, page.tokens, "page {i} did not round-trip");
        let (s, e) = spans[page.target];
        truth.push(GroundTruth {
            source: path.to_string_lossy().into_owned(),
            family,
            span: (s, e),
            field: html[s..e].to_string(),
        });
    }
    (wrappers, truth)
}

fn run(
    dir: &Path,
    wrappers: Vec<(String, Arc<Wrapper>)>,
    workers: usize,
) -> (PipelineReport, String, String) {
    let cfg = PipelineConfig {
        workers,
        ..PipelineConfig::new(CorpusSource::Dir(dir.to_path_buf()))
    };
    let (mut out, mut side) = (Vec::new(), Vec::new());
    let report = run_pipeline(&cfg, wrappers, &mut out, Some(&mut side)).unwrap();
    (
        report,
        String::from_utf8(out).unwrap(),
        String::from_utf8(side).unwrap(),
    )
}

#[test]
fn hundred_page_mixed_corpus_cross_checks_against_ground_truth() {
    let dir = std::env::temp_dir().join(format!("rextract-mixed-{}", std::process::id()));
    let (wrappers, truth) = build_corpus(&dir, 100);

    let (report, out, side) = run(&dir, wrappers.clone(), 4);

    // Accounting: every page lands somewhere, none silently dropped.
    assert_eq!(report.pages_total, 100);
    assert_eq!(report.accounted(), 100);
    assert_eq!(report.read_errors, 0);
    assert_eq!(
        out.lines().count() + side.lines().count(),
        100,
        "one output line per page"
    );
    assert_eq!(report.tuples_emitted, out.lines().count() as u64);

    // The two-family corpus must route overwhelmingly well; the odd
    // over-busy variant may legitimately fail extraction (it goes to
    // the sidecar, counted).
    assert!(
        report.pages_ok >= 90,
        "only {}/100 pages produced tuples: {}",
        report.pages_ok,
        report.summary()
    );

    // Cross-check every emitted tuple against ground truth. Emitted
    // lines are in ingest order, so match them up by source name.
    let mut emitted = 0;
    for line in out.lines() {
        let gt = truth
            .iter()
            .find(|t| line.contains(&format!("\"source\":{:?}", t.source)))
            .unwrap_or_else(|| panic!("tuple for unknown page: {line}"));
        let expected = rextract_corpus::sink::tuple_line(
            &gt.source,
            gt.family,
            rextract_wrapper::persist::FORMAT_VERSION,
            1, // freshly trained wrappers start at revision 1
            &[gt.span],
            &[&gt.field],
        );
        assert_eq!(line, expected, "tuple diverged from ground truth");
        emitted += 1;
    }
    assert_eq!(emitted as u64, report.tuples_emitted);

    // Ordering guarantee: identical bytes for any worker count.
    let (_, out1, side1) = run(&dir, wrappers.clone(), 1);
    let (_, out8, side8) = run(&dir, wrappers, 8);
    assert_eq!(out, out1, "1-worker run diverged");
    assert_eq!(out, out8, "8-worker run diverged");
    assert_eq!(side, side1);
    assert_eq!(side, side8);

    std::fs::remove_dir_all(&dir).unwrap();
}
