//! Proof of the dense engine's zero-allocation contract: once an
//! [`ExtractScratch`]'s buffers have warmed up, steady-state
//! `extract_with` / `positions_into` calls never touch the allocator.
//!
//! A counting `#[global_allocator]` shim tallies every `alloc` /
//! `alloc_zeroed` / `realloc` made **on the test's own thread** while a
//! gate flag is up. The gate is a const-initialized thread-local (reads
//! never allocate, and the libtest harness's other threads — which do
//! allocate, e.g. for progress output — are invisible to it).

use rextract_automata::Alphabet;
use rextract_extraction::{ExtractScratch, ExtractionExpr, Extractor};
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

/// Run `work` once to warm the scratch up, then `reps` more times with
/// the counter armed; returns the number of allocations counted.
fn allocations_after_warmup(reps: usize, mut work: impl FnMut()) -> u64 {
    work();
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    for _ in 0..reps {
        work();
    }
    COUNTING.with(|c| c.set(false));
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_extraction_does_not_allocate() {
    let a = Alphabet::new(["p", "q", "r"]);
    let extractors = [
        Extractor::compile(&ExtractionExpr::parse(&a, "[^p]* <p> .*").unwrap()),
        Extractor::compile(&ExtractionExpr::parse(&a, "(q r)* <p> q*").unwrap()),
    ];

    // Documents exercising the success path, the dead-state early exit,
    // and the plain no-match path — none of which may allocate. (The
    // ambiguous-error path clones its positions and is exempt by design.)
    let mut matching = a.str_to_syms("q r q r").unwrap();
    matching.push(a.sym("p"));
    matching.extend(a.str_to_syms("q q q").unwrap());
    let mut long = Vec::new();
    for _ in 0..200 {
        long.extend(a.str_to_syms("q r").unwrap());
    }
    long.push(a.sym("p"));
    for _ in 0..100 {
        long.push(a.sym("q"));
    }
    let no_match = a.str_to_syms("r r r r r r").unwrap();
    let docs = [matching, long, no_match];

    // The warm-up grows every scratch buffer to the largest document.
    let mut scratch = ExtractScratch::new();
    let allocs = allocations_after_warmup(50, || {
        for x in &extractors {
            for d in &docs {
                let _ = x.extract_with(d, &mut scratch);
                let _ = x.positions_into(d, &mut scratch);
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state extract_with/positions_into performed {allocs} heap allocations"
    );
}

#[test]
fn steady_state_bucket_arena_does_not_allocate() {
    // Marker-dense documents keep two or more E2 states live at once, so
    // the sweep runs the double-buffered k ≥ 2 arena, not the register
    // regime the single-marker documents above stay in. Over a run of p:
    //
    // * `.* <p> (. .)*` — consecutive candidates sit in the two states of
    //   E2's parity DFA; every other position splits;
    // * `.* <p> . p .*` — each candidate passes through three E2 states,
    //   and older buckets merge into the accepting one every token; every
    //   position but the last two splits.
    //
    // Many positions split, so only the position-oriented entry point is
    // allocation-free here (the ambiguous extract_with error allocates
    // by design).
    let a = Alphabet::new(["p", "q"]);
    let parity = Extractor::compile(&ExtractionExpr::parse(&a, ".* <p> (. .)*").unwrap());
    let merging = Extractor::compile(&ExtractionExpr::parse(&a, ".* <p> . p .*").unwrap());
    let run = vec![a.sym("p"); 501];
    let mut short = vec![a.sym("p"); 64];
    short.push(a.sym("q"));
    let parity_run: Vec<usize> = (0..501).step_by(2).collect();
    let parity_short: Vec<usize> = (0..64).step_by(2).collect();
    let merging_run: Vec<usize> = (0..499).collect();
    let merging_short: Vec<usize> = (0..62).collect();

    let mut scratch = ExtractScratch::new();
    let allocs = allocations_after_warmup(50, || {
        assert_eq!(parity.positions_into(&run, &mut scratch), parity_run);
        assert_eq!(parity.positions_into(&short, &mut scratch), parity_short);
        assert_eq!(merging.positions_into(&run, &mut scratch), merging_run);
        assert_eq!(merging.positions_into(&short, &mut scratch), merging_short);
    });
    assert_eq!(
        allocs, 0,
        "steady-state k ≥ 2 bucket sweep performed {allocs} heap allocations"
    );
}
