//! The interned language store: hash-consed DFAs + memoized operations.
//!
//! All [`Lang`] values are handles into one process-global store. The
//! store has two layers:
//!
//! 1. an interner of canonical minimal DFAs (never cleared — ids stay
//!    valid for the life of the process), and
//! 2. a **memoized operation cache** keyed by `(op, lhs_id, rhs_id)` for
//!    binary operations (`rhs_id = u32::MAX` for unary ones), mapping to
//!    either a result language id or a decision-procedure boolean.
//!
//! The paper's algorithms (Props. 5.4/5.5, Cor. 5.8, Alg. 6.2) apply the
//! same small algebra to overlapping subexpressions over and over; with
//! the cache, each distinct `(op, operands)` pair pays the automaton
//! construction exactly once per process.
//!
//! [`Store`] itself is a copyable policy handle: [`Store::global`]
//! consults the cache, [`Store::uncached`] recomputes every operation
//! from the DFAs (still interning results, so cached and uncached results
//! remain comparable by id — that is the cross-check tests' lever).
//! Commutative operations (union, intersection) normalize their key so
//! `a ∪ b` and `b ∪ a` share one entry.
//!
//! ## Concurrency: sharded cache, read-mostly interner, atomic stats
//!
//! The daemon's worker pool drives this store from many threads at once,
//! and in the steady state nearly every call is a cache hit — so the
//! store must not serialize hits on one lock. Three mechanisms:
//!
//! * **Sharded op cache.** The memoized cache is split into
//!   [`SHARD_COUNT`] independently locked shards; a key's shard is a
//!   cheap multiplicative mix of `(op, lhs, rhs)`. Each shard carries its
//!   own generation stamp, its own slice of the configured capacity, and
//!   its own evicted-key ledger, so eviction runs per shard with no
//!   cross-shard coordination. Lock acquisitions that would block are
//!   counted per shard (`try_lock` first), surfacing contention in
//!   [`StoreStats::shards`].
//! * **Read-mostly interner.** Id → DFA resolution — the tail of every
//!   cache hit — reads a lock-free append-only table; interning probes
//!   under a read lock and takes the write lock only to append a new
//!   language (see [`intern`](crate::intern)).
//! * **Atomic statistics.** Per-op hit/miss counters and the
//!   eviction/sweep/re-miss counters are plain `AtomicU64`s (`Relaxed` —
//!   they are monotone telemetry, not synchronization), and each shard
//!   mirrors its entry count into an atomic gauge after every mutation.
//!   [`Store::stats`] therefore takes **no lock at all**: a daemon
//!   scraping `/metrics` never stalls the workers. Snapshots are
//!   per-counter consistent, not cross-counter consistent — a snapshot
//!   taken mid-operation may see the miss already counted and the insert
//!   not yet applied, which is fine for telemetry.
//!
//! The compute-outside-lock discipline is unchanged from the single-lock
//! design: concurrent threads may race-compute the same entry, which is
//! benign (both intern to the same id; the second insert overwrites with
//! an equal value).
//!
//! ## Eviction (long-running services)
//!
//! By default the op cache grows without bound — fine for CLI and bench
//! lifetimes. A long-running daemon sets a capacity with
//! [`Store::set_op_cache_capacity`], which switches the cache to a
//! **generation-based** policy, applied per shard: every entry is stamped
//! with its shard's current generation on insert and on each hit; when an
//! insert pushes a shard past its capacity share, a *sweep* evicts every
//! entry in that shard not touched in the current generation and then
//! advances the shard's generation. Entries in active use are re-stamped
//! on every hit and survive sweeps indefinitely; cold entries survive at
//! most one full generation of their shard. If a sweep cannot get below
//! the share (everything was touched recently), arbitrary surplus entries
//! are dropped so the configured bound is a hard ceiling. The total
//! capacity is split exactly across shards (`total/N` rounded, never
//! exceeding `total` in sum), so the global bound the daemon configures
//! is the global bound it gets; tiny capacities leave some shards with a
//! zero share, where inserts are immediately swept out — still recorded
//! in the ledger so the re-miss signal survives. Evictions, sweeps, and
//! *re-misses* (a miss on a key that was previously evicted — the cost
//! signal of an undersized cache) are reported in [`StoreStats`].
//! Eviction never touches the interner, so live [`Lang`] handles are
//! unaffected and re-computed results re-intern to their original ids.
//!
//! ## Lock poisoning
//!
//! Shard mutexes guard pure cache state (no invariants span a panic), so
//! every acquisition recovers from poisoning: a worker thread that panics
//! mid-operation must not wedge every subsequent extraction in a daemon
//! that keeps serving. The `store.evict.sweep` failpoint exists precisely
//! to inject such panics under test.

use crate::dfa::Dfa;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::intern::{Interner, LangId};
use crate::lang::Lang;
use crate::nfa::Nfa;
use rextract_faults::fail_point;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, TryLockError};

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

#[derive(Clone, Copy)]
enum CacheEntry {
    Lang(u32),
    Bool(bool),
}

type CacheKey = (Op, u32, u32);

/// A cached result stamped with the generation of its last use.
#[derive(Clone, Copy)]
struct CacheSlot {
    entry: CacheEntry,
    stamp: u64,
}

/// Number of op-cache shards. A power of two so routing is a mask; 16 is
/// comfortably above the daemon's worker-pool ceiling (8), so even a
/// fully loaded pool rarely has two workers wanting one shard at once,
/// while keeping per-shard capacity shares non-trivial for realistic
/// cache bounds (the daemon default of 16 384 gives each shard 1 024).
pub const SHARD_COUNT: usize = 16;

/// Sentinel for "unbounded" in the atomic capacity mirror.
const UNBOUNDED: usize = usize::MAX;

/// The mutable state of one op-cache shard.
struct ShardState {
    op_cache: FxHashMap<CacheKey, CacheSlot>,
    /// Per-op hit/miss tallies, updated under the shard lock (plain adds)
    /// and mirrored into the shard's atomics on every update — so the hot
    /// path pays a plain store instead of an atomic RMW, and `stats()`
    /// still reads without any lock.
    hits: [u64; OP_COUNT],
    misses: [u64; OP_COUNT],
    /// This shard's slice of the configured capacity (`None` = unbounded).
    capacity: Option<usize>,
    /// This shard's generation; advanced by every sweep of this shard.
    generation: u64,
    /// Keys evicted from this shard since the last reset, for re-miss
    /// attribution. Bounded: drained wholesale when it outgrows the shard
    /// share several times over, so re-miss counts are a (documented)
    /// lower bound, never a leak.
    evicted_keys: FxHashSet<CacheKey>,
}

/// One op-cache shard: a mutex over the map plus lock-free mirrors read
/// by the stats path. Cache-line aligned so shards do not false-share.
#[repr(align(64))]
struct Shard {
    state: Mutex<ShardState>,
    /// Entry-count gauge, updated after every mutation under the lock.
    len: AtomicUsize,
    /// Acquisitions that found the shard locked and had to block.
    contended: AtomicU64,
    /// Mirrors of `ShardState::{hits,misses}` — written (relaxed stores)
    /// only by the lock holder, read lock-free by `stats()`.
    hits: [AtomicU64; OP_COUNT],
    misses: [AtomicU64; OP_COUNT],
}

impl Shard {
    fn new() -> Shard {
        Shard {
            state: Mutex::new(ShardState {
                op_cache: FxHashMap::default(),
                hits: [0; OP_COUNT],
                misses: [0; OP_COUNT],
                capacity: None,
                generation: 0,
                evicted_keys: FxHashSet::default(),
            }),
            len: AtomicUsize::new(0),
            contended: AtomicU64::new(0),
            hits: std::array::from_fn(|_| AtomicU64::new(0)),
            misses: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Lock this shard, counting contention and recovering poisoning.
    fn lock(&self) -> MutexGuard<'_, ShardState> {
        match self.state.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.state.lock().unwrap_or_else(|e| e.into_inner())
            }
        }
    }
}

/// The process-global store: interner + shards + atomic counters.
struct Shared {
    interner: Interner,
    shards: [Shard; SHARD_COUNT],
    /// Mirror of the configured total capacity ([`UNBOUNDED`] = none),
    /// so `op_cache_capacity()`/`stats()` need no lock.
    capacity: AtomicUsize,
    evictions: AtomicU64,
    sweeps: AtomicU64,
    re_misses: AtomicU64,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            interner: Interner::new(),
            shards: std::array::from_fn(|_| Shard::new()),
            capacity: AtomicUsize::new(UNBOUNDED),
            evictions: AtomicU64::new(0),
            sweeps: AtomicU64::new(0),
            re_misses: AtomicU64::new(0),
        }
    }
}

fn shared() -> &'static Shared {
    static STORE: OnceLock<Shared> = OnceLock::new();
    STORE.get_or_init(Shared::new)
}

/// Route a cache key to its shard: one multiply-mix over the packed key.
#[inline]
fn shard_index(key: &CacheKey) -> usize {
    let (op, l, r) = *key;
    let mut h = (((l as u64) << 32) | r as u64) ^ (op as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    (h as usize) & (SHARD_COUNT - 1)
}

/// Shard `i`'s slice of a total capacity: exact split, so the per-shard
/// bounds sum to the configured total (small totals leave later shards
/// with a zero share).
fn shard_share(total: usize, i: usize) -> usize {
    total / SHARD_COUNT + usize::from(i < total % SHARD_COUNT)
}

/// Insert `entry` under `key` into an already-locked shard, sweeping that
/// shard if its capacity share is exceeded.
fn insert_bounded(
    global: &Shared,
    shard: &Shard,
    state: &mut ShardState,
    key: CacheKey,
    entry: CacheEntry,
) {
    let stamp = state.generation;
    state.op_cache.insert(key, CacheSlot { entry, stamp });
    if let Some(cap) = state.capacity {
        if state.op_cache.len() > cap {
            // Sweep: drop everything not touched in this shard's current
            // generation. The failpoint injects sweep-time panics/delays
            // while the shard lock is held — the poisoning-recovery story
            // under test.
            fail_point!("store.evict.sweep");
            global.sweeps.fetch_add(1, Ordering::Relaxed);
            let gen = state.generation;
            let before = state.op_cache.len();
            let evicted: Vec<CacheKey> = state
                .op_cache
                .iter()
                .filter(|(_, s)| s.stamp < gen)
                .map(|(k, _)| *k)
                .collect();
            for k in &evicted {
                state.op_cache.remove(k);
                state.evicted_keys.insert(*k);
            }
            state.generation += 1;
            // Hard ceiling: if the whole shard was hot, drop arbitrary
            // surplus.
            if state.op_cache.len() > cap {
                let surplus: Vec<CacheKey> = {
                    let n = state.op_cache.len() - cap;
                    state.op_cache.keys().take(n).copied().collect()
                };
                for k in surplus {
                    state.op_cache.remove(&k);
                    state.evicted_keys.insert(k);
                }
            }
            global
                .evictions
                .fetch_add((before - state.op_cache.len()) as u64, Ordering::Relaxed);
            // Keep the re-miss ledger bounded relative to the shard itself.
            if state.evicted_keys.len() > cap.saturating_mul(8).max(1024 / SHARD_COUNT) {
                state.evicted_keys.clear();
            }
        }
    }
    shard.len.store(state.op_cache.len(), Ordering::Relaxed);
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
    /// language. This is the single entry point through which every
    /// `Lang` comes into existence. Touches only the interner — no op-
    /// cache shard lock.
    pub fn intern_dfa(dfa: Dfa) -> Lang {
        let (id, dfa) = shared().interner.intern(dfa.minimized());
        Lang::from_store(id, dfa)
    }

    /// Snapshot the store's counters. Counters are monotone between
    /// [`Store::reset_op_cache`] calls. **Lock-free**: reads only atomics
    /// (per-counter consistent, not cross-counter consistent), so metrics
    /// scrapes never stall workers.
    pub fn stats() -> StoreStats {
        let g = shared();
        let per_op = Op::all()
            .iter()
            .map(|&op| OpStats {
                name: op.name(),
                hits: g
                    .shards
                    .iter()
                    .map(|s| s.hits[op.index()].load(Ordering::Relaxed))
                    .sum(),
                misses: g
                    .shards
                    .iter()
                    .map(|s| s.misses[op.index()].load(Ordering::Relaxed))
                    .sum(),
            })
            .collect();
        let shards: Vec<ShardStats> = g
            .shards
            .iter()
            .map(|s| ShardStats {
                size: s.len.load(Ordering::Relaxed) as u64,
                contended: s.contended.load(Ordering::Relaxed),
            })
            .collect();
        let capacity = g.capacity.load(Ordering::Relaxed);
        StoreStats {
            interned: g.interner.len() as u64,
            dedup_hits: g.interner.dedup_hits(),
            op_cache_size: shards.iter().map(|s| s.size).sum(),
            op_cache_capacity: (capacity != UNBOUNDED).then_some(capacity as u64),
            evictions: g.evictions.load(Ordering::Relaxed),
            sweeps: g.sweeps.load(Ordering::Relaxed),
            re_misses: g.re_misses.load(Ordering::Relaxed),
            per_op,
            shards,
        }
    }

    /// Bound the op cache to at most `capacity` entries (`None` restores
    /// the unbounded default). See the [module docs](self) for the
    /// generation-based per-shard sweep policy. A `capacity` of 0 is
    /// clamped to 1. An over-full shard is trimmed down to its share of
    /// the new bound immediately.
    pub fn set_op_cache_capacity(capacity: Option<usize>) {
        let g = shared();
        let clamped = capacity.map(|c| c.max(1));
        g.capacity
            .store(clamped.unwrap_or(UNBOUNDED), Ordering::Relaxed);
        for (i, shard) in g.shards.iter().enumerate() {
            let mut state = shard.lock();
            state.capacity = clamped.map(|total| shard_share(total, i));
            if let Some(cap) = state.capacity {
                // Enforce the new bound now rather than on the next insert.
                if state.op_cache.len() > cap {
                    let surplus: Vec<CacheKey> = {
                        let n = state.op_cache.len() - cap;
                        state.op_cache.keys().take(n).copied().collect()
                    };
                    for k in surplus {
                        state.op_cache.remove(&k);
                        state.evicted_keys.insert(k);
                        g.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            shard.len.store(state.op_cache.len(), Ordering::Relaxed);
        }
    }

    /// The configured op-cache entry bound (`None` = unbounded).
    /// Lock-free.
    pub fn op_cache_capacity() -> Option<usize> {
        let capacity = shared().capacity.load(Ordering::Relaxed);
        (capacity != UNBOUNDED).then_some(capacity)
    }

    /// Clear the memoized operation cache and its hit/miss/eviction
    /// counters (including per-shard contention). The interner is
    /// deliberately untouched: live [`LangId`]s must stay valid. The
    /// configured capacity also survives. Benches use this to compare
    /// cold and warm runs.
    pub fn reset_op_cache() {
        let g = shared();
        for shard in &g.shards {
            let mut state = shard.lock();
            state.op_cache.clear();
            state.hits = [0; OP_COUNT];
            state.misses = [0; OP_COUNT];
            state.generation = 0;
            state.evicted_keys.clear();
            shard.len.store(0, Ordering::Relaxed);
            shard.contended.store(0, Ordering::Relaxed);
            for mirror in shard.hits.iter().chain(shard.misses.iter()) {
                mirror.store(0, Ordering::Relaxed);
            }
        }
        g.evictions.store(0, Ordering::Relaxed);
        g.sweeps.store(0, Ordering::Relaxed);
        g.re_misses.store(0, Ordering::Relaxed);
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
            Dfa::from_nfa(&nfa_concat2(Nfa::from_dfa(x), Nfa::from_dfa(y)))
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
    /// closure runs *outside* any shard lock; concurrent threads may
    /// race-compute the same entry, which is benign (both intern to the
    /// same id and the second insert overwrites with an equal value).
    ///
    /// The cold path takes exactly two shard acquisitions: one for the
    /// lookup + miss bookkeeping, one for the insert (the intern in
    /// between synchronizes on the interner, not on any shard).
    fn memoized_lang(&self, op: Op, lhs: u32, rhs: u32, compute: impl FnOnce() -> Dfa) -> Lang {
        let key = (op, lhs, rhs);
        let g = shared();
        if self.cached {
            let shard = &g.shards[shard_index(&key)];
            let mut state = shard.lock();
            let gen = state.generation;
            if let Some(slot) = state.op_cache.get_mut(&key) {
                if let CacheEntry::Lang(id) = slot.entry {
                    slot.stamp = gen; // keep hot entries across sweeps
                    state.hits[op.index()] += 1;
                    shard.hits[op.index()].store(state.hits[op.index()], Ordering::Relaxed);
                    drop(state);
                    let id = LangId(id);
                    return Lang::from_store(id, g.interner.get(id));
                }
            }
            // Miss bookkeeping under the same acquisition as the lookup.
            state.misses[op.index()] += 1;
            shard.misses[op.index()].store(state.misses[op.index()], Ordering::Relaxed);
            if state.evicted_keys.remove(&key) {
                g.re_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        let minimal = compute().minimized();
        let (id, dfa) = g.interner.intern(minimal);
        if self.cached {
            let shard = &g.shards[shard_index(&key)];
            let mut state = shard.lock();
            insert_bounded(g, shard, &mut state, key, CacheEntry::Lang(id.0));
        }
        Lang::from_store(id, dfa)
    }

    /// Cache-or-compute for decision procedures. Same two-acquisition
    /// cold path as [`Store::memoized_lang`].
    fn decide(&self, op: Op, lhs: LangId, rhs: u32, compute: impl FnOnce() -> bool) -> bool {
        let key = (op, lhs.0, rhs);
        let g = shared();
        if self.cached {
            let shard = &g.shards[shard_index(&key)];
            let mut state = shard.lock();
            let gen = state.generation;
            if let Some(slot) = state.op_cache.get_mut(&key) {
                if let CacheEntry::Bool(v) = slot.entry {
                    slot.stamp = gen;
                    state.hits[op.index()] += 1;
                    shard.hits[op.index()].store(state.hits[op.index()], Ordering::Relaxed);
                    return v;
                }
            }
            state.misses[op.index()] += 1;
            shard.misses[op.index()].store(state.misses[op.index()], Ordering::Relaxed);
            if state.evicted_keys.remove(&key) {
                g.re_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        let value = compute();
        if self.cached {
            let shard = &g.shards[shard_index(&key)];
            let mut state = shard.lock();
            insert_bounded(g, shard, &mut state, key, CacheEntry::Bool(value));
        }
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

/// Per-shard gauge/counter pair (see [`StoreStats::shards`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Current number of entries in this shard (gauge).
    pub size: u64,
    /// Lock acquisitions on this shard that had to block (monotone
    /// between resets). A hot shard under a cold store points at skewed
    /// key routing; uniformly rising counts point at an overloaded store.
    pub contended: u64,
}

/// A snapshot of the store's counters (see [`Store::stats`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct languages interned since process start (never resets).
    pub interned: u64,
    /// Intern calls answered by an existing canonical DFA (never resets).
    pub dedup_hits: u64,
    /// Current number of memoized operation entries (sum over shards).
    pub op_cache_size: u64,
    /// Configured entry bound (`None` = unbounded).
    pub op_cache_capacity: Option<u64>,
    /// Entries evicted by the generation sweeper since the last reset.
    pub evictions: u64,
    /// Generation sweeps run since the last reset.
    pub sweeps: u64,
    /// Misses on previously-evicted keys since the last reset (a lower
    /// bound — the evicted-key ledger is itself bounded). High re-miss
    /// counts mean the configured capacity is too small for the workload.
    pub re_misses: u64,
    /// Hit/miss counters per operation since the last
    /// [`Store::reset_op_cache`].
    pub per_op: Vec<OpStats>,
    /// Per-shard sizes and contention counts, indexed by shard.
    pub shards: Vec<ShardStats>,
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

    /// Total blocked shard-lock acquisitions across shards.
    pub fn contended(&self) -> u64 {
        self.shards.iter().map(|s| s.contended).sum()
    }

    /// Counter deltas relative to an `earlier` snapshot (counters are
    /// monotone between resets, so deltas are well-defined; gauges like
    /// `op_cache_size` and per-shard sizes are reported at `self`'s time).
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
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardStats {
                size: s.size,
                contended: s
                    .contended
                    .saturating_sub(earlier.shards.get(i).map_or(0, |e| e.contended)),
            })
            .collect();
        StoreStats {
            interned: self.interned.saturating_sub(earlier.interned),
            dedup_hits: self.dedup_hits.saturating_sub(earlier.dedup_hits),
            op_cache_size: self.op_cache_size,
            op_cache_capacity: self.op_cache_capacity,
            evictions: self.evictions.saturating_sub(earlier.evictions),
            sweeps: self.sweeps.saturating_sub(earlier.sweeps),
            re_misses: self.re_misses.saturating_sub(earlier.re_misses),
            per_op,
            shards,
        }
    }

    /// One-line summary, e.g. for bench tables.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} hits / {} misses ({:.1}% hit rate), {} langs interned ({} deduped), {} cache entries",
            self.hits(),
            self.misses(),
            self.hit_rate() * 100.0,
            self.interned,
            self.dedup_hits,
            self.op_cache_size
        );
        if let Some(cap) = self.op_cache_capacity {
            s.push_str(&format!(
                " (cap {cap}, {} evicted in {} sweeps, {} re-misses)",
                self.evictions, self.sweeps, self.re_misses
            ));
        }
        s
    }

    /// Multi-line per-operation breakdown (operations that never ran are
    /// omitted), followed by per-shard size/contention columns.
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
        if !self.shards.is_empty() {
            let sizes: Vec<String> = self.shards.iter().map(|s| s.size.to_string()).collect();
            let contention: Vec<String> = self
                .shards
                .iter()
                .map(|s| s.contended.to_string())
                .collect();
            out.push_str(&format!(
                "  shard sizes      [{}]\n  shard contention [{}] ({} blocked total)\n",
                sizes.join(" "),
                contention.join(" "),
                self.contended()
            ));
        }
        out
    }
}

// ----- raw NFA compositions used by concat/star ------------------------------

/// NFA concatenation of two NFAs (helper for [`Store::concat`]).
fn nfa_concat2(n1: Nfa, n2: Nfa) -> Nfa {
    let alphabet = n1.alphabet().clone();
    let off = n1.num_states() as u32;
    let mut edges = Vec::new();
    let mut eps = Vec::new();
    let mut accepting = Vec::new();
    for q in 0..n1.num_states() as u32 {
        for (set, t) in n1.transitions(q) {
            edges.push((q, set.clone(), t));
        }
        for t in n1.eps_transitions(q) {
            eps.push((q, t));
        }
        if n1.is_accepting(q) {
            for &s2 in n2.starts() {
                eps.push((q, s2 + off));
            }
        }
    }
    for q in 0..n2.num_states() as u32 {
        for (set, t) in n2.transitions(q) {
            edges.push((q + off, set.clone(), t + off));
        }
        for t in n2.eps_transitions(q) {
            eps.push((q + off, t + off));
        }
        if n2.is_accepting(q) {
            accepting.push(q + off);
        }
    }
    let starts = n1.starts().to_vec();
    Nfa::assemble(
        alphabet,
        off + n2.num_states() as u32,
        edges,
        eps,
        starts,
        accepting,
    )
}

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

#[cfg(test)]
mod tests {
    use super::{shard_index, shard_share, Op, SHARD_COUNT};

    #[test]
    fn shard_shares_sum_exactly_to_the_total() {
        for total in [1, 2, 4, 8, 15, 16, 17, 100, 16_384] {
            let sum: usize = (0..SHARD_COUNT).map(|i| shard_share(total, i)).sum();
            assert_eq!(sum, total, "shares must partition total={total}");
        }
    }

    #[test]
    fn shard_routing_spreads_distinct_keys() {
        // Sequential ids (the realistic key distribution) must not all
        // collapse onto a few shards.
        let mut used = [false; SHARD_COUNT];
        for l in 0..64u32 {
            for r in 0..4u32 {
                used[shard_index(&(Op::Union, l, r))] = true;
            }
        }
        let hit = used.iter().filter(|&&u| u).count();
        assert!(
            hit >= SHARD_COUNT / 2,
            "only {hit}/{SHARD_COUNT} shards used"
        );
    }
}
