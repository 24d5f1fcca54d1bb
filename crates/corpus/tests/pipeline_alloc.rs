//! Proof of the corpus worker's allocation discipline: once a worker's
//! [`WorkerScratch`] is warm and the corpus's site signatures are bound,
//! the per-page route + extract core (`Router::route`, the worker's
//! call) performs **zero** heap allocations per page — pages the wrapper
//! finds nothing on included.
//!
//! Same counting-`#[global_allocator]` idiom as
//! `crates/extraction/tests/zero_alloc.rs`: allocations are tallied only
//! on the test's own thread while a const-initialized thread-local gate
//! is up, so the libtest harness's other threads stay invisible.
//!
//! Tokenization is deliberately outside the gate — producing a
//! `Vec<Token>` from bytes allocates by nature and is a per-page input
//! cost, not part of the routing/extraction contract (the same scoping
//! as serve's `batch_alloc.rs`).

use rextract_corpus::{Router, WorkerScratch};
use rextract_html::token::Token;
use rextract_wrapper::site::{PageStyle, SiteConfig, SiteGenerator};
use rextract_wrapper::{TrainPage, Wrapper, WrapperConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_route_and_extract_does_not_allocate() {
    let mut g = SiteGenerator::new(SiteConfig {
        seed: 67,
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
    let trained =
        |pages: &[TrainPage]| Arc::new(Wrapper::train(pages, WrapperConfig::default()).unwrap());
    let wrappers = vec![
        ("search".to_string(), trained(&search)),
        ("listing".to_string(), trained(&listing)),
    ];
    let router = Router::new(wrappers.clone(), None).unwrap();
    // `--wrapper search`: every page goes to one wrapper, so a page it
    // does not parse is a failed page, not an unrouted one.
    let forced = Router::new(wrappers, Some("search")).unwrap();

    // A fixed interleaved corpus, pre-tokenized. Keep only pages that
    // route successfully; the no-match pages are a separate input.
    let mut scratch = WorkerScratch::new(router.wrappers().len());
    let pages: Vec<Vec<Token>> = (0..16)
        .map(|i| {
            if i % 2 == 0 {
                g.page().tokens
            } else {
                g.listing_page().tokens
            }
        })
        .filter(|tokens| matches!(router.route(tokens, &mut scratch), Some((_, Ok(_)))))
        .collect();
    assert!(
        pages.len() >= 12,
        "too few routable pages ({}) to exercise the steady state",
        pages.len()
    );
    let empty: Vec<Vec<Token>> = (0..16)
        .map(|i| rextract_html::tokenize(&format!("<blink>nothing here {i}</blink>")))
        .collect();
    let mut forced_scratch = WorkerScratch::new(forced.wrappers().len());

    // Warm-up: every signature bound, every scratch buffer at max size.
    for tokens in &pages {
        let _ = router.route(tokens, &mut scratch);
    }
    for tokens in &empty {
        let _ = forced.route(tokens, &mut forced_scratch);
    }
    let bindings_before = router.binding_count();

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    for _ in 0..50 {
        for tokens in &pages {
            if !matches!(router.route(tokens, &mut scratch), Some((_, Ok(_)))) {
                COUNTING.with(|c| c.set(false));
                panic!("warmed page stopped routing");
            }
        }
        for tokens in &empty {
            match forced.route(tokens, &mut forced_scratch) {
                Some((_, Err(e))) if e.is_no_match() => {}
                _ => {
                    COUNTING.with(|c| c.set(false));
                    panic!("no-match page stopped failing empty");
                }
            }
        }
    }
    COUNTING.with(|c| c.set(false));
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        allocs,
        0,
        "steady-state route+extract performed {allocs} heap allocations over {} pages",
        (pages.len() + empty.len()) * 50
    );
    assert_eq!(
        router.binding_count(),
        bindings_before,
        "steady state must not discover new signatures"
    );
}
