//! The language store's op-cache bound.
//!
//! This lives in its own test binary on purpose: filling the
//! process-global op cache past its bound clears it, which would skew the
//! hit/miss assertions in `tests/store.rs`. Within this binary the tests
//! serialize on a mutex for the same reason.

use rextract::automata::store::OP_CACHE_BOUND;
use rextract::automata::{Alphabet, Lang, Store};
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests in this binary: each one fills the process-global
/// op cache past its bound and reads the counters the clear leaves.
static FILL_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    FILL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Decide `x ⊆ y` for every pair of 130 distinct literal languages through
/// the cached store: more distinct keys than the bound, so the insert that
/// finds the cache full clears it.
fn fill_past_bound() {
    let a = Alphabet::new(["t0", "t1"]);
    // 130 distinct words: 100..230 in 8 binary digits.
    let langs: Vec<Lang> = (100u32..230)
        .map(|n| {
            let word: Vec<_> = (0..8)
                .rev()
                .map(|bit| a.sym(if (n >> bit) & 1 == 1 { "t1" } else { "t0" }))
                .collect();
            Lang::literal(&a, &word)
        })
        .collect();
    assert!(langs.len() * langs.len() > OP_CACHE_BOUND);
    let s = Store::global();
    for x in &langs {
        for y in &langs {
            assert_eq!(s.is_subset(x, y), x == y);
        }
    }
}

/// Once more distinct keys than the bound have been cached, the insert
/// that finds the cache full clears it, the stats count the dropped
/// entries as evictions, and the cache ends below the bound.
#[test]
fn evictions_fire_at_the_configured_bound() {
    let _guard = lock();
    let before = Store::stats();
    fill_past_bound();
    let stats = Store::stats();
    assert!(
        stats.since(&before).evictions >= OP_CACHE_BOUND as u64,
        "a full cache must clear: {}",
        stats.summary()
    );
    assert!(
        stats.op_cache_size < OP_CACHE_BOUND as u64,
        "the cache ended at its bound: {}",
        stats.summary()
    );
    // The summary surfaces the eviction telemetry for operators.
    let summary = stats.summary();
    assert!(
        summary.contains("evicted"),
        "summary hides evictions: {summary}"
    );
}

/// Every operation, cached, before and after a clear of the full cache,
/// equals the uncached result: a cleared entry is recomputed from the
/// same canonical DFAs, so the clear is semantically invisible.
#[test]
fn eviction_is_semantically_invisible() {
    let _guard = lock();
    let a = Alphabet::new(["t0", "t1", "t2"]);
    let langs: Vec<Lang> = [
        "~",
        "t0",
        "t0* t1",
        "(t1 t0)*",
        "t2 (t0 | t1)* t2",
        "(t0 | ~) t1+",
        ".* t2 .*",
    ]
    .iter()
    .map(|r| Lang::parse(&a, r).unwrap())
    .collect();
    let cached = Store::global();
    let uncached = Store::uncached();
    // Each (x, y) pair's results through all binary and unary ops and the
    // decision procedures.
    let run = |s: Store| -> Vec<(Vec<Lang>, Vec<bool>)> {
        let mut out = Vec::new();
        for x in &langs {
            for y in &langs {
                let langs = vec![
                    s.union(x, y),
                    s.intersect(x, y),
                    s.difference(x, y),
                    s.concat(x, y),
                    s.complement(x),
                    s.star(x),
                    s.reversed(x),
                    s.right_quotient(x, y),
                    s.left_quotient(x, y),
                ];
                let decisions = vec![s.is_empty(x), s.is_universal(x), s.is_subset(x, y)];
                out.push((langs, decisions));
            }
        }
        out
    };

    let expected = run(uncached);
    assert_eq!(run(cached), expected, "cached before the clear");
    let before = Store::stats();
    fill_past_bound();
    assert!(
        Store::stats().since(&before).evictions > 0,
        "the fill did not clear the cache: {}",
        Store::stats().summary()
    );
    assert_eq!(run(cached), expected, "cached after the clear");
}
