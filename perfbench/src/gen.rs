//! Seeded input generation and small helpers shared by the workloads.
//! The program under test only ever sees what these functions produce.

use crate::spec::SETUP_EVERY_S;
use rextract_html::{writer, Token};
use rextract_learn::perturb::Perturber;
use rextract_wrapper::site::Page;
use rextract_wrapper::{PageStyle, SiteConfig, SiteGenerator, TrainPage, Wrapper, WrapperConfig};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Derive an independent stream seed from the run seed (SplitMix64).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)).max(1)
}

pub fn site(seed: u64) -> SiteGenerator {
    SiteGenerator::new(SiteConfig {
        seed,
        ..SiteConfig::default()
    })
}

/// Template family of a generated page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Search,
    Listing,
}

impl Family {
    pub fn wrapper(self) -> &'static str {
        match self {
            Family::Search => "search",
            Family::Listing => "listing",
        }
    }
}

/// One generated page as the program receives it, plus its truth.
#[derive(Debug, Clone)]
pub struct GenPage {
    pub html: String,
    pub family: Family,
    /// Generator-truth target token index; `None` for a drifted page,
    /// whose truth is the one-page library path instead.
    pub target: Option<usize>,
}

/// A fresh page of `family`, optionally perturbed by `edits` Section 3
/// edits (the perturbed page keeps no generator truth).
pub fn page(g: &mut SiteGenerator, p: &mut Perturber, family: Family, edits: usize) -> GenPage {
    let page = match family {
        Family::Search => g.page(),
        Family::Listing => g.listing_page(),
    };
    if edits == 0 {
        return GenPage {
            html: page.html(),
            family,
            target: Some(page.target),
        };
    }
    let edited = p.perturb(&page.tokens, page.target, edits);
    GenPage {
        html: writer::write(&edited.tokens),
        family,
        target: None,
    }
}

/// Number of listing layouts `SiteGenerator::listing_page` draws from:
/// title or not, header row or not, 1-6 product rows, 0-2 link rows.
pub const LISTING_LAYOUTS: usize = 2 * 2 * 6 * 3;

/// The layout of a generated listing page, as (title, header row,
/// product rows, link rows).
fn listing_layout(page: &Page) -> (bool, bool, usize, usize) {
    let starts = |tag: &str| {
        page.tokens
            .iter()
            .filter(|t| matches!(t, Token::StartTag { name, .. } if name == tag))
            .count()
    };
    let (title, header, links) = (starts("H1") > 0, starts("TH") > 0, starts("A"));
    (title, header, starts("TR") - header as usize - links, links)
}

/// Listing pages from `seed`, exactly `per_layout` of each of the
/// `LISTING_LAYOUTS` layouts, in generation order. Every seed gets the
/// same layout mix, so only the text varies by seed and the mean page
/// cost does not.
pub fn listing_pages_by_layout(seed: u64, per_layout: usize) -> Vec<Page> {
    let mut g = site(seed);
    let mut counts: HashMap<_, usize> = HashMap::new();
    let want = per_layout * LISTING_LAYOUTS;
    let mut pages = Vec::with_capacity(want);
    while pages.len() < want {
        let page = g.listing_page();
        let n = counts.entry(listing_layout(&page)).or_default();
        if *n < per_layout {
            *n += 1;
            pages.push(page);
        }
    }
    pages
}

/// The deployed wrappers of the page workloads, as exported artifacts.
/// They are trained from fixed generator seeds — a deployed wrapper does
/// not change with the page stream — so only the pages vary by run seed.
pub struct Artifacts {
    pub search: String,
    pub listing: String,
}

pub fn artifacts() -> Artifacts {
    let mut g = site(1101);
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
    let train = |pages: &[TrainPage]| {
        Wrapper::train(pages, WrapperConfig::default())
            .expect("the fixed training sets train")
            .export()
    };
    Artifacts {
        search: train(&search),
        listing: train(&listing),
    }
}

/// Repeats a workload's setup inside its timed loop, once per
/// `SETUP_EVERY_S` of loop time and off the item clock, so `setup_s` (the
/// median repetition) samples the machine over the whole run instead of
/// one instant.
#[derive(Debug, Default)]
pub struct SetupSampler {
    next: Duration,
    /// Duration of each repetition, seconds.
    pub times: Vec<f64>,
}

impl SetupSampler {
    /// Run and time `setup` if a repetition is due at loop time `elapsed`.
    pub fn maybe<T>(&mut self, elapsed: Duration, setup: impl FnOnce() -> T) -> Option<T> {
        if elapsed < self.next {
            return None;
        }
        self.next = elapsed + Duration::from_secs_f64(SETUP_EVERY_S);
        let t0 = Instant::now();
        let out = setup();
        self.times.push(t0.elapsed().as_secs_f64());
        Some(out)
    }
}

/// Run `f` `reps` times; returns the last result and each duration in
/// seconds.
pub fn timed_reps<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let v = f();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    (last.expect("at least one rep"), times)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Microseconds in `d`, as a float with all its digits.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64 / 1000.0
}
