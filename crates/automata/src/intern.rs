//! Hash-consing of canonical minimal DFAs — concurrent, read-mostly.
//!
//! Every [`Lang`](crate::lang::Lang) in the process is a handle into one
//! `Interner`: canonical minimal DFAs are bucketed by
//! [`Dfa::canonical_hash`], confirmed with [`Dfa::same_canonical`], and
//! deduplicated behind [`Arc`]. Interning two different constructions of
//! the same language yields the same [`LangId`], which is what makes
//! language equality an O(1) id compare.
//!
//! Ids are never recycled: a [`LangId`] stays valid for the life of the
//! process, so the interner only grows (the memoized *operation* cache in
//! [`store`](crate::store) is the resettable part).
//!
//! ## Concurrency
//!
//! The interner is split so the hot read path never blocks on writers:
//!
//! * **id → DFA** resolution (`Interner::get`, which backs every op-cache
//!   hit) reads an *append-only chunk table* with no lock at all — a
//!   `Release` store of the table length publishes each new entry, and an
//!   `Acquire` load on the reader side observes it.
//! * **interning** (`Interner::intern`) takes a read lock on the hash
//!   buckets for the common already-interned probe, upgrading to the write
//!   lock only to append a genuinely new language. Concurrent interns of
//!   the same DFA are resolved by re-probing under the write lock, so each
//!   canonical DFA still gets exactly one id.
//!
//! The chunk table doubles geometrically (1024, 2048, 4096, … entries per
//! chunk), so existing entries are never moved — a reader holding an index
//! is immune to concurrent growth, which is what makes the lock-free read
//! sound without hazard pointers or epochs.

use crate::dfa::Dfa;
use crate::fxhash::FxHashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Identity of an interned language. Equal ids ⟺ equal languages (over
/// compatible alphabets).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LangId(pub(crate) u32);

impl LangId {
    /// Dense index into the interner's DFA table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Entries per chunk 0; chunk `k` holds `BASE << k` entries, so 23 chunks
/// cover the full `u32` id space (1024 · (2²³ − 1) > 2³²).
const BASE: usize = 1024;
const CHUNKS: usize = 23;

/// Lock-free append-only `id → Arc<Dfa>` table.
///
/// Invariants: slots `[0, len)` are fully initialized; `push` runs under
/// the interner's bucket write lock (single appender at a time) and
/// publishes with `len.store(Release)`; `get` validates against
/// `len.load(Acquire)` via the caller holding a minted id.
struct AppendOnlyTable {
    chunks: [Chunk; CHUNKS],
    len: AtomicUsize,
}

/// One lazily allocated block of the table: `BASE << k` slots, each
/// written exactly once by `push`.
type Chunk = OnceLock<Box<[OnceLock<Arc<Dfa>>]>>;

/// Chunk index and offset for entry `i`.
fn locate(i: usize) -> (usize, usize) {
    let b = i / BASE + 1;
    let k = (usize::BITS - 1 - b.leading_zeros()) as usize;
    (k, i - BASE * ((1 << k) - 1))
}

impl AppendOnlyTable {
    fn new() -> AppendOnlyTable {
        AppendOnlyTable {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Append `dfa`, returning its index. Caller must hold the bucket
    /// write lock (sole appender).
    fn push(&self, dfa: Arc<Dfa>) -> usize {
        let i = self.len.load(Ordering::Relaxed);
        let (k, off) = locate(i);
        let chunk =
            self.chunks[k].get_or_init(|| (0..(BASE << k)).map(|_| OnceLock::new()).collect());
        chunk[off]
            .set(dfa)
            .unwrap_or_else(|_| unreachable!("append slot written twice"));
        // Publish: readers that Acquire a len > i see slot i initialized.
        self.len.store(i + 1, Ordering::Release);
        i
    }

    /// The shared DFA at `i`. Panics if `i` was never published — callers
    /// only hold indices minted by `push`.
    fn get(&self, i: usize) -> Arc<Dfa> {
        debug_assert!(i < self.len.load(Ordering::Acquire));
        let (k, off) = locate(i);
        let chunk = self.chunks[k].get().expect("chunk published");
        Arc::clone(chunk[off].get().expect("slot published"))
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }
}

/// Deduplicating table of canonical minimal DFAs. Shared by reference
/// across threads; all methods take `&self`.
pub(crate) struct Interner {
    /// canonical hash → candidate ids (collisions resolved by
    /// `same_canonical`). Read-locked on the probe path, write-locked only
    /// to append.
    by_hash: RwLock<FxHashMap<u64, Vec<u32>>>,
    /// id → shared canonical DFA (lock-free reads).
    dfas: AppendOnlyTable,
    /// Intern calls answered by an already-present DFA.
    dedup_hits: AtomicU64,
}

impl Interner {
    pub(crate) fn new() -> Interner {
        Interner {
            by_hash: RwLock::new(FxHashMap::default()),
            dfas: AppendOnlyTable::new(),
            dedup_hits: AtomicU64::new(0),
        }
    }

    /// Probe `bucket` for a DFA canonically equal to `dfa`.
    fn probe(&self, bucket: &[u32], dfa: &Dfa) -> Option<(LangId, Arc<Dfa>)> {
        for &id in bucket {
            let candidate = self.dfas.get(id as usize);
            if candidate.same_canonical(dfa) {
                return Some((LangId(id), candidate));
            }
        }
        None
    }

    /// Intern a **canonical minimal** DFA (the caller minimizes first),
    /// returning its id and the shared automaton.
    pub(crate) fn intern(&self, dfa: Dfa) -> (LangId, Arc<Dfa>) {
        let hash = dfa.canonical_hash();
        // Fast path: already interned — read lock only.
        {
            let buckets = self.by_hash.read().unwrap_or_else(|e| e.into_inner());
            if let Some(found) = buckets.get(&hash).and_then(|b| self.probe(b, &dfa)) {
                self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                return found;
            }
        }
        // Slow path: append under the write lock, re-probing first — a
        // racing intern of the same DFA may have won between the locks.
        let mut buckets = self.by_hash.write().unwrap_or_else(|e| e.into_inner());
        if let Some(found) = buckets.get(&hash).and_then(|b| self.probe(b, &dfa)) {
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
            return found;
        }
        let shared = Arc::new(dfa);
        let index = self.dfas.push(Arc::clone(&shared));
        let id = u32::try_from(index).expect("interner overflow");
        buckets.entry(hash).or_default().push(id);
        (LangId(id), shared)
    }

    /// The shared DFA for an id minted by this interner. Lock-free.
    pub(crate) fn get(&self, id: LangId) -> Arc<Dfa> {
        self.dfas.get(id.index())
    }

    /// Number of distinct languages interned so far.
    pub(crate) fn len(&self) -> usize {
        self.dfas.len()
    }

    pub(crate) fn dedup_hits(&self) -> u64 {
        self.dedup_hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::locate;

    #[test]
    fn chunk_layout_is_dense_and_in_bounds() {
        // Walk the boundaries of the first few chunks: indices map to
        // consecutive (chunk, offset) pairs with no gaps or overlaps.
        let mut expect_next = 0usize;
        for k in 0..6 {
            let cap = super::BASE << k;
            let base = super::BASE * ((1 << k) - 1);
            assert_eq!(
                base,
                expect_next,
                "chunk {k} starts where {} ended",
                k.max(1) - 1
            );
            assert_eq!(locate(base), (k, 0));
            assert_eq!(locate(base + cap - 1), (k, cap - 1));
            expect_next = base + cap;
        }
        // 22 chunks cover the whole u32 id space.
        let (k, off) = locate(u32::MAX as usize);
        assert!(k < super::CHUNKS);
        assert!(off < super::BASE << k);
    }
}
