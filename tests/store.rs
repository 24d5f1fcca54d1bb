//! Tests for the interned language store: the memoized operation cache
//! must be semantically invisible (cached and uncached paths agree on
//! every operation), hash-consing must identify equal languages, and the
//! statistics counters must behave sanely under real workloads.

use proptest::prelude::*;
use rextract::automata::{Alphabet, Lang, Regex, Store, Symbol};
use rextract::extraction::left_filter::left_filter_maximize;
use rextract::extraction::ExtractionExpr;

/// An alphabet of `n` symbols `t0..t(n-1)`.
fn alphabet_of(n: usize) -> Alphabet {
    Alphabet::new((0..n).map(|i| format!("t{i}")))
}

/// Random regex AST over an `n`-symbol alphabet (mirrors the generator in
/// `properties.rs`, parameterized by alphabet size).
fn arb_regex(n: usize) -> impl Strategy<Value = Regex> {
    let names: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
    let leaf = prop_oneof![
        1 => Just(Regex::Epsilon),
        6 => proptest::sample::subsequence(names, 1..=2).prop_map(move |picked| {
            let a = alphabet_of(n);
            let mut set = a.empty_set();
            for name in picked {
                set.insert(a.sym(&name));
            }
            Regex::class(set)
        }),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            3 => (inner.clone(), inner.clone())
                .prop_map(|(x, y)| Regex::concat([x, y])),
            3 => (inner.clone(), inner.clone()).prop_map(|(x, y)| Regex::alt([x, y])),
            2 => inner.clone().prop_map(Regex::star),
            1 => (inner.clone(), inner.clone()).prop_map(|(x, y)| x.diff(y)),
        ]
    })
}

/// Cross-check every store operation: the memoized path (`Store::global`)
/// and the cache-bypassing path (`Store::uncached`) must produce the same
/// interned language — equality here is an O(1) id compare, so agreement
/// means both paths landed on the *same* canonical DFA.
fn check_ops_agree(a: &Alphabet, x: &Regex, y: &Regex) {
    let cached = Store::global();
    let uncached = Store::uncached();
    let lx = Lang::from_regex(a, x);
    let ly = Lang::from_regex(a, y);

    assert_eq!(cached.union(&lx, &ly), uncached.union(&lx, &ly));
    assert_eq!(cached.intersect(&lx, &ly), uncached.intersect(&lx, &ly));
    assert_eq!(cached.difference(&lx, &ly), uncached.difference(&lx, &ly));
    assert_eq!(cached.concat(&lx, &ly), uncached.concat(&lx, &ly));
    assert_eq!(cached.complement(&lx), uncached.complement(&lx));
    assert_eq!(cached.star(&lx), uncached.star(&lx));
    assert_eq!(cached.reversed(&lx), uncached.reversed(&lx));
    assert_eq!(
        cached.right_quotient(&lx, &ly),
        uncached.right_quotient(&lx, &ly)
    );
    assert_eq!(
        cached.left_quotient(&lx, &ly),
        uncached.left_quotient(&lx, &ly)
    );
    assert_eq!(cached.is_empty(&lx), uncached.is_empty(&lx));
    assert_eq!(cached.is_universal(&lx), uncached.is_universal(&lx));
    assert_eq!(cached.is_subset(&lx, &ly), uncached.is_subset(&lx, &ly));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cached vs uncached agreement over a 2-symbol alphabet.
    #[test]
    fn cached_agrees_with_uncached_sigma2(x in arb_regex(2), y in arb_regex(2)) {
        check_ops_agree(&alphabet_of(2), &x, &y);
    }

    /// Cached vs uncached agreement over an 8-symbol alphabet.
    #[test]
    fn cached_agrees_with_uncached_sigma8(x in arb_regex(8), y in arb_regex(8)) {
        check_ops_agree(&alphabet_of(8), &x, &y);
    }
}

/// Hash-consing: syntactically different regexes denoting the same
/// language intern to the same id (and thus the same `Arc`'d DFA).
#[test]
fn equal_languages_intern_to_the_same_id() {
    let a = alphabet_of(2);
    let pairs = [
        ("(t0 | t1)*", ".*"),
        ("t0 t0*", "t0+"),
        ("(t0* t1*)*", ".*"),
        ("t0 | t1 t0", "(~ | t1) t0"),
    ];
    for (s1, s2) in pairs {
        let l1 = Lang::parse(&a, s1).unwrap();
        let l2 = Lang::parse(&a, s2).unwrap();
        assert_eq!(
            l1.id(),
            l2.id(),
            "{s1} and {s2} denote the same language but got distinct ids"
        );
    }
}

/// StoreStats across a left-filter maximization: counters are monotone,
/// the first run does real work (misses), and an identical second run is
/// answered from the cache (fresh hits).
#[test]
fn stats_are_monotone_and_plausible_across_a_left_filter_run() {
    let a = Alphabet::new(["p", "q", "r"]);
    let expr = ExtractionExpr::parse(&a, "q* p r <p> .*").unwrap();

    let s0 = Store::stats();
    let out1 = left_filter_maximize(&expr).unwrap();
    let s1 = Store::stats();

    // Monotone totals (other tests may run concurrently, so only ≥).
    assert!(s1.hits() >= s0.hits());
    assert!(s1.misses() >= s0.misses());
    assert!(s1.interned >= s0.interned);

    let first = s1.since(&s0);
    assert!(
        first.hits() + first.misses() > 0,
        "maximization must go through the op cache: {}",
        first.summary()
    );

    // The identical run again: every memoized operation now hits.
    let out2 = left_filter_maximize(&expr).unwrap();
    let second = Store::stats().since(&s1);
    assert_eq!(
        out1.left(),
        out2.left(),
        "maximization must be deterministic"
    );
    assert!(
        second.hits() > 0,
        "second identical run produced no cache hits: {}",
        second.summary()
    );
    // Per-op breakdown stays internally consistent.
    for op in &second.per_op {
        assert!(
            op.hits + op.misses >= op.hits,
            "counter overflow for {}",
            op.name
        );
    }
}

/// All twelve memoized ops on one pair, as `(lang results, bool results)`
/// — the unit of cross-checking for the concurrency hammer below.
fn op_results(store: Store, lx: &Lang, ly: &Lang) -> (Vec<Lang>, Vec<bool>) {
    (
        vec![
            store.union(lx, ly),
            store.intersect(lx, ly),
            store.difference(lx, ly),
            store.concat(lx, ly),
            store.complement(lx),
            store.star(lx),
            store.reversed(lx),
            store.right_quotient(lx, ly),
            store.left_quotient(lx, ly),
        ],
        vec![
            store.is_empty(lx),
            store.is_universal(lx),
            store.is_subset(lx, ly),
        ],
    )
}

/// A pair of operands plus the ground-truth results for every op on them.
type WorkItem = (Lang, Lang, (Vec<Lang>, Vec<bool>));

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The store under real contention: 8 worker threads — half
    /// replaying one shared op sequence (racing computations of the same
    /// entries), half on disjoint per-thread sequences (concurrent
    /// interner growth) — while a control thread hammers
    /// `Store::stats()`. Every result is checked against uncached ground
    /// truth computed up front.
    #[test]
    fn concurrent_hammer_agrees_with_uncached(
        shared in proptest::collection::vec(arb_regex(3), 2),
        disjoint in proptest::collection::vec(arb_regex(3), 4),
    ) {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let a = alphabet_of(3);
        let truth = Store::uncached();

        // Pair i with i+1 (wrapping) so every thread exercises binary ops.
        let pairs = |regexes: &[Regex]| -> Vec<WorkItem> {
            (0..regexes.len())
                .map(|i| {
                    let lx = Lang::from_regex(&a, &regexes[i]);
                    let ly = Lang::from_regex(&a, &regexes[(i + 1) % regexes.len()]);
                    let want = op_results(truth, &lx, &ly);
                    (lx, ly, want)
                })
                .collect()
        };
        let shared_work = Arc::new(pairs(&shared));
        // Each disjoint worker gets its own pair, unshared with the rest.
        let disjoint_work: Vec<_> = disjoint
            .iter()
            .map(|r| {
                let lx = Lang::from_regex(&a, r);
                let ly = Lang::from_regex(&a, &Regex::star(r.clone()));
                let want = op_results(truth, &lx, &ly);
                Arc::new(vec![(lx, ly, want)])
            })
            .collect();

        let done = Arc::new(AtomicBool::new(false));
        let control = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut last = Store::stats();
                while !done.load(Ordering::Relaxed) {
                    let now = Store::stats();
                    // Snapshots taken mid-flight: totals only grow.
                    assert!(now.hits() >= last.hits(), "hits went backwards");
                    assert!(now.misses() >= last.misses(), "misses went backwards");
                    assert!(now.interned >= last.interned, "interner shrank");
                    last = now;
                }
            })
        };

        let workers: Vec<_> = (0..8)
            .map(|t| {
                let work = if t < 4 {
                    Arc::clone(&shared_work)
                } else {
                    Arc::clone(&disjoint_work[t - 4])
                };
                std::thread::spawn(move || {
                    for _ in 0..12 {
                        for (lx, ly, want) in work.iter() {
                            assert_eq!(
                                &op_results(Store::global(), lx, ly),
                                want,
                                "concurrent result diverged from uncached ground truth"
                            );
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("hammer worker panicked");
        }
        done.store(true, Ordering::Relaxed);
        control.join().expect("control thread panicked");

        prop_assert_eq!(
            op_results(Store::global(), &shared_work[0].0, &shared_work[0].1),
            truth_results_clone(&shared_work[0].2)
        );
    }
}

/// Clone helper: `(Vec<Lang>, Vec<bool>)` is not `Copy`.
fn truth_results_clone(r: &(Vec<Lang>, Vec<bool>)) -> (Vec<Lang>, Vec<bool>) {
    (r.0.clone(), r.1.clone())
}

/// Eight threads released together intern one fresh language: the
/// store's lock makes the first intern win, so every thread gets the
/// same id and the same shared DFA.
#[test]
fn concurrent_interning_of_one_language_yields_one_id() {
    use std::sync::{Arc, Barrier};
    let a = alphabet_of(3);
    let start = Arc::new(Barrier::new(8));
    let langs: Vec<Lang> = (0..8)
        .map(|_| {
            let (a, start) = (a.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                Lang::parse(&a, "t2 (t0 t1)* t2 t2").unwrap()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("interning thread panicked"))
        .collect();
    for l in &langs[1..] {
        assert_eq!(l.id(), langs[0].id());
        assert!(std::ptr::eq(l.dfa(), langs[0].dfa()));
    }
}

/// A panicking worker thread must not wedge the global store: the daemon
/// keeps serving after any request thread dies mid-extraction. (The store
/// mutex recovers from poisoning — its state is a pure cache with no
/// invariants spanning a panic.)
#[test]
fn store_survives_panicking_worker_threads() {
    let a = alphabet_of(2);
    // Several workers hammer the store; half of them panic mid-flight.
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let a = a.clone();
            std::thread::spawn(move || {
                let x = Lang::parse(&a, "t0* t1").unwrap();
                let y = Lang::parse(&a, "(t1 t0)*").unwrap();
                let s = Store::global();
                let _ = s.union(&x, &y);
                let _ = s.is_subset(&x, &y);
                if i % 2 == 0 {
                    panic!("simulated request-handler crash");
                }
            })
        })
        .collect();
    let mut panics = 0;
    for h in handles {
        if h.join().is_err() {
            panics += 1;
        }
    }
    assert_eq!(panics, 4);
    // The store still answers — both cached and uncached paths.
    let x = Lang::parse(&a, "t0* t1").unwrap();
    let y = Lang::parse(&a, "(t1 t0)*").unwrap();
    assert_eq!(
        Store::global().union(&x, &y),
        Store::uncached().union(&x, &y)
    );
    assert!(Store::stats().hits() + Store::stats().misses() > 0);
}

/// The uncached store handle is observable as such and still interns.
#[test]
fn uncached_store_bypasses_cache_but_still_interns() {
    assert!(Store::global().is_cached());
    assert!(!Store::uncached().is_cached());
    let a = alphabet_of(2);
    let x = Lang::parse(&a, "t0*").unwrap();
    let u1 = Store::uncached().star(&x);
    let u2 = Store::uncached().star(&x);
    // Same canonical language → same interned id, even without the cache.
    assert_eq!(u1.id(), u2.id());
}

// ----- the one-construction constructors ------------------------------------

/// The one-word language of `word` as a regex, independent of
/// `Lang::words` (which `Lang::literal` and `Lang::sym` now route
/// through).
fn regex_word(a: &Alphabet, word: &[Symbol]) -> Lang {
    Lang::from_regex(a, &Regex::concat(word.iter().map(|&s| Regex::sym(a, s))))
}

/// `Lang::words` against the fold it replaces: one memoized `union` per
/// word, over literals compiled from regexes.
fn check_words_agree(a: &Alphabet, words: &[Vec<Symbol>]) {
    let mut fold = Lang::empty(a);
    for w in words {
        assert_eq!(Lang::literal(a, w), regex_word(a, w), "literal {w:?}");
        fold = fold.union(&regex_word(a, w));
    }
    assert_eq!(
        Lang::words(a, words.iter().map(Vec::as_slice)),
        fold,
        "words {words:?}"
    );
}

/// `Lang::chain` against the fold it replaces:
/// `parts[0]·sym(s1)·parts[1]·…` through the memoized binary `concat`.
fn check_chain_agrees(a: &Alphabet, parts: &[Lang], separators: &[Symbol]) {
    let mut fold = Lang::from_regex(a, &Regex::Epsilon);
    for (i, part) in parts.iter().enumerate() {
        if let Some(&s) = i.checked_sub(1).and_then(|j| separators.get(j)) {
            fold = fold.concat(&Lang::from_regex(a, &Regex::sym(a, s)));
        }
        fold = fold.concat(part);
    }
    assert_eq!(
        Lang::chain(a, parts, separators),
        fold,
        "{} parts, separators {separators:?}",
        parts.len()
    );
}

/// Random chains over an `n`-symbol alphabet: 0–4 regex parts, and the
/// separators between them when `separated` is 1.
fn check_random_chain(n: usize, parts: &[Regex], seps: &[usize], separated: usize) {
    let a = alphabet_of(n);
    let langs: Vec<Lang> = parts.iter().map(|r| Lang::from_regex(&a, r)).collect();
    let separators: Vec<Symbol> = match (separated, langs.len()) {
        (1, k) if k > 0 => seps[..k - 1]
            .iter()
            .map(|&i| a.sym(&format!("t{i}")))
            .collect(),
        _ => Vec::new(),
    };
    check_chain_agrees(&a, &langs, &separators);
}

fn check_random_words(n: usize, words: &[Vec<usize>]) {
    let a = alphabet_of(n);
    let words: Vec<Vec<Symbol>> = words
        .iter()
        .map(|w| w.iter().map(|&i| a.sym(&format!("t{i}"))).collect())
        .collect();
    check_words_agree(&a, &words);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chain_agrees_with_the_concat_fold_sigma2(
        parts in proptest::collection::vec(arb_regex(2), 0..5),
        seps in proptest::collection::vec(0..2usize, 4),
        separated in 0..2usize,
    ) {
        check_random_chain(2, &parts, &seps, separated);
    }

    #[test]
    fn chain_agrees_with_the_concat_fold_sigma8(
        parts in proptest::collection::vec(arb_regex(8), 0..5),
        seps in proptest::collection::vec(0..8usize, 4),
        separated in 0..2usize,
    ) {
        check_random_chain(8, &parts, &seps, separated);
    }

    #[test]
    fn words_agree_with_the_union_fold_sigma2(
        words in proptest::collection::vec(proptest::collection::vec(0..2usize, 0..4), 0..6),
    ) {
        check_random_words(2, &words);
    }

    #[test]
    fn words_agree_with_the_union_fold_sigma8(
        words in proptest::collection::vec(proptest::collection::vec(0..8usize, 0..4), 0..6),
    ) {
        check_random_words(8, &words);
    }
}

/// The contract's edge cases: no parts, empty parts and ε parts, with
/// and without separators.
#[test]
fn chain_edge_cases_agree_with_the_concat_fold() {
    let a = alphabet_of(2);
    let l = |s: &str| Lang::parse(&a, s).unwrap();
    let (t0, t1) = (a.sym("t0"), a.sym("t1"));
    assert_eq!(Lang::chain(&a, &[], &[]), l("~"));
    assert_eq!(Lang::chain(&a, &[l("~"), l("~")], &[t1]), l("t1"));
    assert!(Lang::chain(&a, &[l("t0*"), l("[]"), l("t1")], &[t0, t1]).is_empty());
    assert!(Lang::chain(&a, &[l("[]")], &[]).is_empty());
    let cases: [(&[&str], &[Symbol]); 7] = [
        (&[], &[]),
        (&["~"], &[]),
        (&["[]"], &[]),
        (&["~", "~"], &[]),
        (&["t0*", "[]", "t1"], &[]),
        (&["~", "t1*", "~"], &[t0, t0]),
        (&["(t0 t1)*", "t1?", "[]", ".*"], &[t1, t0, t1]),
    ];
    for (parts, separators) in cases {
        let parts: Vec<Lang> = parts.iter().map(|s| l(s)).collect();
        check_chain_agrees(&a, &parts, separators);
    }
}

/// The contract's edge cases: no words, the empty word, duplicates and
/// words that are prefixes of each other.
#[test]
fn words_edge_cases_agree_with_the_union_fold() {
    let a = alphabet_of(2);
    let w = |s: &str| a.str_to_syms(s).unwrap();
    assert!(Lang::words(&a, []).is_empty());
    assert_eq!(Lang::words(&a, [&[][..]]), Lang::parse(&a, "~").unwrap());
    let cases = [
        vec![],
        vec![w("")],
        vec![w(""), w("")],
        vec![w("t0 t1"), w("t0 t1")],
        vec![w("t0"), w("t0 t1"), w("t0 t1 t1"), w("")],
        vec![w("t1 t1 t0"), w("t1"), w("t0 t0"), w("t1 t1")],
    ];
    for words in &cases {
        check_words_agree(&a, words);
    }
}
