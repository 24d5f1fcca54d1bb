//! The interned language store: hash-consed DFAs + memoized operations.
//!
//! All [`Lang`] values are handles into one process-global store. The
//! store has two layers:
//!
//! 1. an interner of canonical minimal DFAs (never cleared — ids stay
//!    valid for the life of the process), and
//! 2. a **memoized operation cache** keyed by `(op, lhs_id, rhs_id)` for
//!    binary operations (`rhs_id = u32::MAX` for unary ones), mapping to
//!    either a result language or a decision-procedure boolean.
//!
//! The paper's algorithms (Props. 5.4/5.5, Cor. 5.8, Alg. 6.2) apply the
//! same small algebra to overlapping subexpressions over and over; with
//! the cache, each distinct `(op, operands)` pair pays the automaton
//! construction once while its entry is cached.
//!
//! [`Store`] itself is a copyable policy handle: [`Store::global`]
//! consults the cache, [`Store::uncached`] recomputes every operation
//! from the DFAs (still interning results, so cached and uncached results
//! remain comparable by id — that is the cross-check tests' lever).
//! Commutative operations (union, intersection) normalize their key so
//! `a ∪ b` and `b ∪ a` share one entry.
//!
//! ## Concurrency: one lock
//!
//! The interner, the memo table and the per-op counters are plain data
//! behind one process-global `Mutex`. Training and analysis call the
//! store, and compiling an inline query expression interns through it;
//! extraction runs an extractor compiled once and evaluated per
//! document, so `/extract` and `/pipeline` never take this lock.
//! The expensive part of a call — the automaton construction and its
//! minimization — runs outside the lock. A cold call takes the lock
//! twice: once for the lookup and the miss count, once to intern the
//! result and insert it. Concurrent threads may race-compute the same
//! entry, which is benign: both intern to the same id, and the second
//! insert overwrites an equal value. The memo holds the result [`Lang`]
//! itself, so a hit is one map probe.
//!
//! ## The bound
//!
//! The op cache holds at most [`OP_CACHE_BOUND`] entries, in every
//! process. An insert into a full cache clears it and counts the dropped
//! entries in [`StoreStats::evictions`]. The cache grows with the number
//! of distinct languages a process computes with, not with repeated
//! work, so a clear is rare. It never touches the interner: live [`Lang`]
//! handles are unaffected, and recomputed results re-intern to their
//! original ids. The interner itself is unbounded.
//!
//! ## Lock poisoning
//!
//! The lock guards a pure cache whose every update leaves it valid, so
//! every acquisition recovers from poisoning: a thread that panics
//! mid-operation must not wedge every later training or analysis in a
//! daemon that keeps serving. The `store.memo.insert` failpoint exists
//! precisely to inject such panics under test.

use crate::dfa::Dfa;
use crate::fxhash::FxHashMap;
use crate::intern::{Interner, LangId};
use crate::lang::Lang;
use crate::nfa::Nfa;
use rextract_faults::fail_point;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Operations the store memoizes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    Union,
    Intersect,
    Difference,
    Concat,
    Complement,
    Star,
    Reverse,
    RightQuotient,
    LeftQuotient,
    IsEmpty,
    IsUniversal,
    IsSubset,
}

const OP_COUNT: usize = 12;

impl Op {
    fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name for stats rendering.
    pub fn name(self) -> &'static str {
        match self {
            Op::Union => "union",
            Op::Intersect => "intersect",
            Op::Difference => "difference",
            Op::Concat => "concat",
            Op::Complement => "complement",
            Op::Star => "star",
            Op::Reverse => "reverse",
            Op::RightQuotient => "right_quotient",
            Op::LeftQuotient => "left_quotient",
            Op::IsEmpty => "is_empty",
            Op::IsUniversal => "is_universal",
            Op::IsSubset => "is_subset",
        }
    }

    fn all() -> [Op; OP_COUNT] {
        [
            Op::Union,
            Op::Intersect,
            Op::Difference,
            Op::Concat,
            Op::Complement,
            Op::Star,
            Op::Reverse,
            Op::RightQuotient,
            Op::LeftQuotient,
            Op::IsEmpty,
            Op::IsUniversal,
            Op::IsSubset,
        ]
    }
}

/// Sentinel rhs for unary operations.
const NO_RHS: u32 = u32::MAX;

/// Most entries the op cache holds. Serial wrapper training from an
/// empty cache stays far below it; a process that outgrows it loses the
/// whole cache at once (see the [module docs](self)).
pub const OP_CACHE_BOUND: usize = 16_384;

type Key = (Op, u32, u32);

#[derive(Clone)]
enum Entry {
    Lang(Lang),
    Bool(bool),
}

/// Everything the store's one lock guards.
#[derive(Default)]
struct State {
    interner: Interner,
    memo: FxHashMap<Key, Entry>,
    /// Per-op tallies since the last [`Store::reset_op_cache`].
    hits: [u64; OP_COUNT],
    misses: [u64; OP_COUNT],
    /// Entries dropped by clears of the full memo since the last reset.
    evictions: u64,
}

impl State {
    /// Look `key` up, counting a hit or a miss for its op.
    fn lookup(&mut self, key: &Key) -> Option<Entry> {
        let found = self.memo.get(key).cloned();
        if found.is_some() {
            self.hits[key.0.index()] += 1;
        } else {
            self.misses[key.0.index()] += 1;
        }
        found
    }

    /// Memoize `entry` under `key`, clearing the memo first when full.
    fn insert(&mut self, key: Key, entry: Entry) {
        // Injects panics while the lock is held: the poisoning-recovery
        // story under test.
        fail_point!("store.memo.insert");
        if self.memo.len() >= OP_CACHE_BOUND {
            self.evictions += self.memo.len() as u64;
            self.memo.clear();
        }
        self.memo.insert(key, entry);
    }
}

/// Lock the process-global store, recovering from poisoning.
fn lock() -> MutexGuard<'static, State> {
    static STORE: OnceLock<Mutex<State>> = OnceLock::new();
    STORE
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Minimize `dfa` and hash its canonical form, outside the lock.
fn canonical(dfa: Dfa) -> (u64, Dfa) {
    let minimal = dfa.minimized();
    (minimal.canonical_hash(), minimal)
}

/// Copyable policy handle over the process-global language store.
#[derive(Clone, Copy, Debug)]
pub struct Store {
    cached: bool,
}

impl Store {
    /// The default handle: memoized operations.
    pub fn global() -> Store {
        Store { cached: true }
    }

    /// Escape hatch: recompute every operation from the DFAs, bypassing
    /// the op cache (results are still interned, so they compare by id
    /// against cached results). For tests and benchmarks.
    pub fn uncached() -> Store {
        Store { cached: false }
    }

    /// Whether this handle consults the op cache.
    pub fn is_cached(&self) -> bool {
        self.cached
    }

    /// Minimize and intern a DFA, yielding the canonical handle for its
    /// language. Every `Lang` comes into existence through the interner,
    /// here or as the result of a store operation.
    pub fn intern_dfa(dfa: Dfa) -> Lang {
        let (hash, minimal) = canonical(dfa);
        lock().interner.intern(hash, minimal)
    }

    /// Snapshot the store's counters. Counters are monotone between
    /// [`Store::reset_op_cache`] calls.
    pub fn stats() -> StoreStats {
        let state = lock();
        StoreStats {
            interned: state.interner.len(),
            dedup_hits: state.interner.dedup_hits,
            op_cache_size: state.memo.len() as u64,
            evictions: state.evictions,
            per_op: Op::all()
                .iter()
                .map(|&op| OpStats {
                    name: op.name(),
                    hits: state.hits[op.index()],
                    misses: state.misses[op.index()],
                })
                .collect(),
        }
    }

    /// Clear the memoized operation cache and its hit/miss/eviction
    /// counters. The interner is deliberately untouched: live
    /// [`LangId`]s must stay valid. Benches use this to compare cold and
    /// warm runs.
    pub fn reset_op_cache() {
        let mut state = lock();
        state.memo.clear();
        state.hits = [0; OP_COUNT];
        state.misses = [0; OP_COUNT];
        state.evictions = 0;
    }

    // ----- the memoized algebra --------------------------------------------

    pub fn union(&self, a: &Lang, b: &Lang) -> Lang {
        self.binary_commutative(Op::Union, a, b, |x, y| x.union(y))
    }

    pub fn intersect(&self, a: &Lang, b: &Lang) -> Lang {
        self.binary_commutative(Op::Intersect, a, b, |x, y| x.intersect(y))
    }

    pub fn difference(&self, a: &Lang, b: &Lang) -> Lang {
        self.binary(Op::Difference, a, b, |x, y| x.difference(y))
    }

    pub fn concat(&self, a: &Lang, b: &Lang) -> Lang {
        self.binary(Op::Concat, a, b, |x, y| {
            Dfa::from_nfa(&Nfa::chain(x.alphabet(), &[x, y], &[]))
        })
    }

    pub fn complement(&self, a: &Lang) -> Lang {
        self.unary(Op::Complement, a, |x| x.complement())
    }

    pub fn star(&self, a: &Lang) -> Lang {
        self.unary(Op::Star, a, |x| Dfa::from_nfa(&nfa_star(Nfa::from_dfa(x))))
    }

    pub fn reversed(&self, a: &Lang) -> Lang {
        self.unary(Op::Reverse, a, |x| {
            Dfa::from_nfa(&Nfa::from_dfa(x).reversed())
        })
    }

    pub fn right_quotient(&self, a: &Lang, by: &Lang) -> Lang {
        self.binary(Op::RightQuotient, a, by, |x, y| x.right_quotient(y))
    }

    pub fn left_quotient(&self, a: &Lang, by: &Lang) -> Lang {
        self.binary(Op::LeftQuotient, a, by, |x, y| x.left_quotient(y))
    }

    // ----- memoized decision procedures ------------------------------------

    pub fn is_empty(&self, a: &Lang) -> bool {
        self.decide(Op::IsEmpty, a.id(), NO_RHS, || a.dfa().is_empty_lang())
    }

    pub fn is_universal(&self, a: &Lang) -> bool {
        self.decide(Op::IsUniversal, a.id(), NO_RHS, || a.dfa().is_universal())
    }

    pub fn is_subset(&self, a: &Lang, b: &Lang) -> bool {
        self.decide(Op::IsSubset, a.id(), b.id().0, || {
            a.dfa().is_subset_of(b.dfa())
        })
    }

    // ----- plumbing --------------------------------------------------------

    fn binary_commutative(
        &self,
        op: Op,
        a: &Lang,
        b: &Lang,
        compute: impl FnOnce(&Dfa, &Dfa) -> Dfa,
    ) -> Lang {
        // One cache entry serves both argument orders.
        let (lo, hi) = if a.id() <= b.id() {
            (a.id().0, b.id().0)
        } else {
            (b.id().0, a.id().0)
        };
        self.memoized_lang(op, lo, hi, || compute(a.dfa(), b.dfa()))
    }

    fn binary(&self, op: Op, a: &Lang, b: &Lang, compute: impl FnOnce(&Dfa, &Dfa) -> Dfa) -> Lang {
        self.memoized_lang(op, a.id().0, b.id().0, || compute(a.dfa(), b.dfa()))
    }

    fn unary(&self, op: Op, a: &Lang, compute: impl FnOnce(&Dfa) -> Dfa) -> Lang {
        self.memoized_lang(op, a.id().0, NO_RHS, || compute(a.dfa()))
    }

    /// Cache-or-compute for operations producing a language. The compute
    /// closure and the minimization run *outside* the lock (see the
    /// [module docs](self) for the two-acquisition cold path).
    fn memoized_lang(&self, op: Op, lhs: u32, rhs: u32, compute: impl FnOnce() -> Dfa) -> Lang {
        let key = (op, lhs, rhs);
        if self.cached {
            if let Some(Entry::Lang(hit)) = lock().lookup(&key) {
                return hit;
            }
        }
        let (hash, minimal) = canonical(compute());
        let mut state = lock();
        let lang = state.interner.intern(hash, minimal);
        if self.cached {
            state.insert(key, Entry::Lang(lang.clone()));
        }
        lang
    }

    /// Cache-or-compute for decision procedures. Same two-acquisition
    /// cold path as [`Store::memoized_lang`].
    fn decide(&self, op: Op, lhs: LangId, rhs: u32, compute: impl FnOnce() -> bool) -> bool {
        if !self.cached {
            return compute();
        }
        let key = (op, lhs.0, rhs);
        if let Some(Entry::Bool(hit)) = lock().lookup(&key) {
            return hit;
        }
        let value = compute();
        lock().insert(key, Entry::Bool(value));
        value
    }
}

// ----- statistics -----------------------------------------------------------

/// Per-operation hit/miss counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpStats {
    pub name: &'static str,
    pub hits: u64,
    pub misses: u64,
}

/// A snapshot of the store's counters (see [`Store::stats`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct languages interned since process start (never resets).
    pub interned: u64,
    /// Intern calls answered by an existing canonical DFA (never resets).
    pub dedup_hits: u64,
    /// Current number of memoized operation entries.
    pub op_cache_size: u64,
    /// Entries dropped by clears of the full op cache since the last
    /// reset (see [`OP_CACHE_BOUND`]).
    pub evictions: u64,
    /// Hit/miss counters per operation since the last
    /// [`Store::reset_op_cache`].
    pub per_op: Vec<OpStats>,
}

impl StoreStats {
    /// Total op-cache hits across operations.
    pub fn hits(&self) -> u64 {
        self.per_op.iter().map(|o| o.hits).sum()
    }

    /// Total op-cache misses across operations.
    pub fn misses(&self) -> u64 {
        self.per_op.iter().map(|o| o.misses).sum()
    }

    /// Hits / (hits + misses), or 0 when no operations ran.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Counter deltas relative to an `earlier` snapshot (counters are
    /// monotone between resets, so deltas are well-defined; the gauge
    /// `op_cache_size` is reported at `self`'s time).
    pub fn since(&self, earlier: &StoreStats) -> StoreStats {
        let per_op = self
            .per_op
            .iter()
            .map(|o| {
                let before = earlier
                    .per_op
                    .iter()
                    .find(|e| e.name == o.name)
                    .copied()
                    .unwrap_or(OpStats {
                        name: o.name,
                        hits: 0,
                        misses: 0,
                    });
                OpStats {
                    name: o.name,
                    hits: o.hits.saturating_sub(before.hits),
                    misses: o.misses.saturating_sub(before.misses),
                }
            })
            .collect();
        StoreStats {
            interned: self.interned.saturating_sub(earlier.interned),
            dedup_hits: self.dedup_hits.saturating_sub(earlier.dedup_hits),
            op_cache_size: self.op_cache_size,
            evictions: self.evictions.saturating_sub(earlier.evictions),
            per_op,
        }
    }

    /// One-line summary, e.g. for bench tables.
    pub fn summary(&self) -> String {
        format!(
            "{} hits / {} misses ({:.1}% hit rate), {} langs interned ({} deduped), {} cache entries ({} evicted)",
            self.hits(),
            self.misses(),
            self.hit_rate() * 100.0,
            self.interned,
            self.dedup_hits,
            self.op_cache_size,
            self.evictions
        )
    }

    /// Multi-line per-operation breakdown (operations that never ran are
    /// omitted).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("store: {}\n", self.summary()));
        for o in &self.per_op {
            if o.hits + o.misses == 0 {
                continue;
            }
            let rate = o.hits as f64 / (o.hits + o.misses) as f64 * 100.0;
            out.push_str(&format!(
                "  {:<16} {:>8} hits {:>8} misses  ({:>5.1}%)\n",
                o.name, o.hits, o.misses, rate
            ));
        }
        out
    }
}

// ----- raw NFA composition used by star --------------------------------------

/// NFA Kleene star: fresh accepting hub with ε to starts and from accepts.
fn nfa_star(inner: Nfa) -> Nfa {
    let alphabet = inner.alphabet().clone();
    let hub = inner.num_states() as u32;
    let mut edges = Vec::new();
    let mut eps = Vec::new();
    let mut accepting = vec![hub];
    for q in 0..inner.num_states() as u32 {
        for (set, t) in inner.transitions(q) {
            edges.push((q, set.clone(), t));
        }
        for t in inner.eps_transitions(q) {
            eps.push((q, t));
        }
        if inner.is_accepting(q) {
            accepting.push(q);
            eps.push((q, hub));
        }
    }
    for &s in inner.starts() {
        eps.push((hub, s));
    }
    Nfa::assemble(alphabet, hub + 1, edges, eps, vec![hub], accepting)
}
