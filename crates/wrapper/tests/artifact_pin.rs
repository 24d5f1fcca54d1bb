//! Learned artifacts pinned across commits.
//!
//! Interning canonicalizes every language to its minimal DFA, so the
//! order in which training builds a language never shows in what it
//! learns: a refactor of the merge walk, the gap unions or the pivot
//! chains must leave every artifact byte-identical. Each constant below
//! is the FNV-1a hash of an exported artifact, or the text of a learned
//! expression, recorded before such a refactor; a mismatch means a
//! change altered what training learns, not just how it computes it.
//!
//! On a mismatch every case is printed with its current value, so a
//! deliberate change of the learned output can re-pin the table.

use rextract_html::seq::{to_names, SeqConfig, Vocabulary};
use rextract_html::xml::tokenize_xml;
use rextract_learn::dtd::{merge_samples_with_dtd, Dtd};
use rextract_learn::merge::merge_samples;
use rextract_learn::MarkedSeq;
use rextract_wrapper::persist::fnv1a_64;
use rextract_wrapper::site::Page;
use rextract_wrapper::{
    MultiTrainPage, PageStyle, SiteConfig, SiteGenerator, TrainPage, TupleWrapper, Wrapper,
    WrapperConfig,
};

/// Generator seeds the wrapper cases train from.
const SEEDS: [u64; 3] = [3, 17, 61];

fn generator(seed: u64) -> SiteGenerator {
    SiteGenerator::new(SiteConfig {
        seed,
        ..SiteConfig::default()
    })
}

fn config(maximize: bool) -> WrapperConfig {
    WrapperConfig {
        maximize,
        ..WrapperConfig::default()
    }
}

fn search_pages(seed: u64) -> Vec<TrainPage> {
    let mut g = generator(seed);
    [PageStyle::Plain, PageStyle::TableEmbedded, PageStyle::Busy]
        .into_iter()
        .map(|style| TrainPage::from(&g.page_with_style(style)))
        .collect()
}

fn listing_pages(seed: u64) -> Vec<TrainPage> {
    let mut g = generator(seed);
    (0..4).map(|_| TrainPage::from(&g.listing_page())).collect()
}

/// Search pages marked on their FORM and its target INPUT.
fn tuple_pages(seed: u64) -> Vec<MultiTrainPage> {
    let mut g = generator(seed);
    [PageStyle::Plain, PageStyle::TableEmbedded]
        .into_iter()
        .map(|style| {
            let p: Page = g.page_with_style(style);
            let form = p
                .tokens
                .iter()
                .position(|t| t.tag_name() == Some("FORM"))
                .expect("search pages have a form");
            MultiTrainPage {
                tokens: p.tokens,
                targets: vec![form, p.target],
            }
        })
        .collect()
}

fn export_hash(text: &str) -> String {
    format!("{:016x}", fnv1a_64(text.as_bytes()))
}

/// `(case, value)` for every trained wrapper: the hash of its export.
fn wrapper_cases() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for seed in SEEDS {
        for maximize in [true, false] {
            let tag = if maximize { "max" } else { "raw" };
            let search = Wrapper::train(&search_pages(seed), config(maximize)).unwrap();
            out.push((
                format!("search/{seed}/{tag}"),
                export_hash(&search.export()),
            ));
            let listing = Wrapper::train(&listing_pages(seed), config(maximize)).unwrap();
            out.push((
                format!("listing/{seed}/{tag}"),
                export_hash(&listing.export()),
            ));
            let tuple = TupleWrapper::train(&tuple_pages(seed), config(maximize)).unwrap();
            out.push((format!("tuple/{seed}/{tag}"), export_hash(&tuple.export())));
        }
    }
    out
}

const CATALOG_DTD: &str = r#"
    <!ELEMENT catalog (title, vendor?, item*)>
    <!ELEMENT item (name, price)>
    <!ELEMENT title (#PCDATA)>
    <!ELEMENT vendor (#PCDATA)>
    <!ELEMENT name (#PCDATA)>
    <!ELEMENT price (#PCDATA)>
"#;

const CATALOG_1: &str = r#"<catalog>
  <title>Spring Parts</title>
  <item><name>Bolt M4</name><price>0.12</price></item>
</catalog>"#;

const CATALOG_2: &str = r#"<catalog>
  <title>Spring Parts</title>
  <vendor>Virtual Supplier, Inc.</vendor>
  <item><name>Nut M4</name><price>0.09</price></item>
  <item><name>Washer</name><price>0.03</price></item>
</catalog>"#;

/// An XML catalog abstracted to tags, marked on its first `price`.
fn catalog_sample(xml: &str) -> MarkedSeq {
    let entries = to_names(&tokenize_xml(xml), &SeqConfig::tags_only());
    let target = entries
        .iter()
        .position(|e| e.name == "price")
        .expect("catalog has a price");
    MarkedSeq::new(entries.into_iter().map(|e| e.name).collect(), target)
}

/// `(case, value)` for the plain and DTD-guided merges of the XML
/// catalog samples: the merged and the maximized expression text.
fn catalog_cases() -> Vec<(String, String)> {
    let samples = [catalog_sample(CATALOG_1), catalog_sample(CATALOG_2)];
    let mut vocab = Vocabulary::new();
    for s in &samples {
        for n in &s.names {
            vocab.observe_name(n);
        }
    }
    let sigma = vocab.alphabet();
    let plain = merge_samples(&sigma, &samples).unwrap();
    let guided = merge_samples_with_dtd(&sigma, &samples, &Dtd::parse(CATALOG_DTD)).unwrap();
    let mut out = Vec::new();
    for (name, pe) in [("plain", plain), ("guided", guided)] {
        out.push((format!("catalog/{name}/merged"), pe.to_expr().to_text()));
        out.push((
            format!("catalog/{name}/maximized"),
            pe.maximize().unwrap().to_text(),
        ));
    }
    out
}

/// Compare `got` with the pinned table, printing every case on a
/// mismatch.
fn assert_pinned(got: &[(String, String)], pinned: &[(&str, &str)]) {
    let same = got.len() == pinned.len()
        && got
            .iter()
            .zip(pinned)
            .all(|((gc, gv), (pc, pv))| gc == pc && gv == pv);
    if !same {
        for (case, value) in got {
            eprintln!("    ({case:?}, {value:?}),");
        }
        panic!("learned artifacts differ from the pinned table (current values above)");
    }
}

const PINNED_WRAPPERS: &[(&str, &str)] = &[
    ("search/3/max", "5ea18a2ba184b438"),
    ("listing/3/max", "045b52b56e9fe67a"),
    ("tuple/3/max", "fbf0206d669c326a"),
    ("search/3/raw", "06ba4f272d2095d0"),
    ("listing/3/raw", "70b67c1d2d259f72"),
    ("tuple/3/raw", "996d2ea042502772"),
    ("search/17/max", "5ea18a2ba184b438"),
    ("listing/17/max", "4022d5ff642edc2e"),
    ("tuple/17/max", "95a363403b99684c"),
    ("search/17/raw", "b46b9ec49878c151"),
    ("listing/17/raw", "0591bd12d765d3eb"),
    ("tuple/17/raw", "8eedc070121f3213"),
    ("search/61/max", "5ea18a2ba184b438"),
    ("listing/61/max", "045b52b56e9fe67a"),
    ("tuple/61/max", "fbf0206d669c326a"),
    ("search/61/raw", "1bfa810ea1f4fbab"),
    ("listing/61/raw", "70b67c1d2d259f72"),
    ("tuple/61/raw", "989cff4ff3c991fa"),
];

const PINNED_CATALOG: &[(&str, &str)] = &[
    (
        "catalog/plain/merged",
        "catalog title /title (item | vendor /vendor item) name /name <price> .*",
    ),
    (
        "catalog/plain/maximized",
        "[^catalog]* catalog [^title]* title [^/title]* /title [^item]* item [^name]* name [^/name]* /name [^price]* <price> .*",
    ),
    (
        "catalog/guided/merged",
        "catalog title /title (item | vendor /vendor item) name /name <price> .*",
    ),
    (
        "catalog/guided/maximized",
        "[^catalog]* catalog [^title]* title [^/title]* /title [^name]* name [^/name]* /name [^price]* <price> .*",
    ),
];

#[test]
fn trained_wrapper_exports_match_the_pinned_hashes() {
    assert_pinned(&wrapper_cases(), PINNED_WRAPPERS);
}

#[test]
fn catalog_merges_match_the_pinned_expressions() {
    assert_pinned(&catalog_cases(), PINNED_CATALOG);
}
