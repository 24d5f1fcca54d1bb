//! Proof of the batched-extraction contract: one `WrapperScratch`
//! amortized across a batch means a steady-state batch of K same-wrapper
//! documents performs **zero** extraction-path heap allocations — and so
//! does the daemon's per-page bookkeeping, once the wrapper's drift
//! window is full and its good-evidence ring holds its first pages.
//!
//! Same counting-`#[global_allocator]` idiom as the extraction crate's
//! `zero_alloc` test: a const-initialized thread-local gate makes the
//! tally blind to every other thread. Each document goes through
//! [`Wrapper::extract_page`] against one shared scratch and then
//! [`Lifecycle::observe`] — exactly what a daemon worker runs per batch
//! item. Training and tokenization stay outside the counted window, as
//! in the daemon, where tokenization is per-request but extraction reuses
//! the worker's scratch.

use rextract_corpus::PageEvent;
use rextract_serve::drift::Lifecycle;
use rextract_serve::{Metrics, ServeConfig};
use rextract_wrapper::site::{PageStyle, SiteConfig, SiteGenerator};
use rextract_wrapper::wrapper::{TrainPage, Wrapper, WrapperConfig, WrapperScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    // `try_with`: the allocator may run during TLS teardown.
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
fn steady_state_batch_does_not_allocate() {
    let mut g = SiteGenerator::new(SiteConfig {
        seed: 11,
        ..SiteConfig::default()
    });
    let train = vec![
        TrainPage::from(&g.page_with_style(PageStyle::Plain)),
        TrainPage::from(&g.page_with_style(PageStyle::TableEmbedded)),
    ];
    let wrapper = Wrapper::train(&train, WrapperConfig::default()).unwrap();

    // A batch of K documents, as the event loop would coalesce them.
    let docs: Vec<_> = (0..8)
        .map(|i| {
            g.page_with_style(if i % 2 == 0 {
                PageStyle::Plain
            } else {
                PageStyle::TableEmbedded
            })
        })
        .collect();
    let mut scratch = WrapperScratch::new();
    let config = ServeConfig::default();
    let lifecycle = Lifecycle::new(config.drift_window, config.drift_threshold);
    let metrics = Metrics::new();
    // Warm-up: grow the shared scratch to the largest document, fill the
    // drift window and copy the first 8 good pages — exactly what serving
    // the first pages does.
    for doc in docs.iter().cycle().take(config.drift_window.max(8)) {
        let got = wrapper.extract_page(&doc.tokens, &mut scratch);
        lifecycle.observe(&PageEvent::new("w", &doc.tokens, &got), &metrics);
        assert_eq!(got, Ok(&[doc.target][..]));
    }

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    let mut extracted = 0;
    for _ in 0..50 {
        for doc in &docs {
            let got = wrapper.extract_page(&doc.tokens, &mut scratch);
            lifecycle.observe(&PageEvent::new("w", &doc.tokens, &got), &metrics);
            if let Ok(targets) = got {
                extracted += usize::from(targets == [doc.target]);
            }
        }
    }
    COUNTING.with(|c| c.set(false));
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(extracted, 50 * docs.len());
    assert_eq!(
        allocs, 0,
        "steady-state same-wrapper batch and its bookkeeping performed {allocs} heap allocations"
    );
}
