//! Hash-consing of canonical minimal DFAs.
//!
//! Every [`Lang`] in the process is a handle into one `Interner`:
//! canonical minimal DFAs are bucketed by [`Dfa::canonical_hash`],
//! confirmed with [`Dfa::same_canonical`], and deduplicated behind an
//! `Arc`. Interning two different constructions of the same language
//! yields the same [`LangId`], which is what makes language equality an
//! O(1) id compare.
//!
//! Ids are never recycled: a [`LangId`] stays valid for the life of the
//! process, so the interner only grows (the memoized *operation* cache in
//! [`store`](crate::store) is the resettable part). The interner is plain
//! data: it lives under the store's one lock, which is what gives each
//! canonical DFA exactly one id when threads intern it concurrently.

use crate::dfa::Dfa;
use crate::fxhash::FxHashMap;
use crate::lang::Lang;
use std::sync::Arc;

/// Identity of an interned language. Equal ids ⟺ equal languages (over
/// compatible alphabets).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LangId(pub(crate) u32);

impl LangId {
    /// Dense index of the language in interning order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Deduplicating table of canonical minimal DFAs.
#[derive(Default)]
pub(crate) struct Interner {
    /// canonical hash → the languages with that hash (collisions resolved
    /// by `same_canonical`).
    by_hash: FxHashMap<u64, Vec<Lang>>,
    /// Number of distinct languages interned so far; the next id.
    len: u32,
    /// Intern calls answered by an already-present DFA.
    pub(crate) dedup_hits: u64,
}

impl Interner {
    /// Intern a **canonical minimal** DFA (the caller minimizes first)
    /// whose [`Dfa::canonical_hash`] is `hash`, returning its canonical
    /// handle. Callers compute `hash` before taking the store lock.
    pub(crate) fn intern(&mut self, hash: u64, dfa: Dfa) -> Lang {
        let bucket = self.by_hash.entry(hash).or_default();
        if let Some(found) = bucket.iter().find(|l| l.dfa().same_canonical(&dfa)) {
            self.dedup_hits += 1;
            return found.clone();
        }
        let id = LangId(self.len);
        self.len = self.len.checked_add(1).expect("interner overflow");
        let lang = Lang::from_store(id, Arc::new(dfa));
        bucket.push(lang.clone());
        lang
    }

    /// Number of distinct languages interned so far.
    pub(crate) fn len(&self) -> u64 {
        u64::from(self.len)
    }
}
