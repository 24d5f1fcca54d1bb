//! `Lang`: a regular language as a cheap interned handle.
//!
//! [`Lang`] is a handle into the process-global [`Store`]: it carries the
//! [`LangId`] of its hash-consed canonical minimal DFA plus a shared
//! [`Arc`] to the automaton itself. The whole algebra the paper uses —
//! boolean operations, quotients, concatenation, star, reversal, decision
//! procedures — routes through the store's memoized operation cache, so
//! repeated subexpressions are computed once per process.
//!
//! Consequences of the handle representation:
//! * **Clone is O(1)** (an `Arc` bump + id copy).
//! * **`==` is an O(1) id compare** — hash-consing guarantees equal
//!   languages over compatible alphabets intern to the same id.
//! * `Lang` implements [`Hash`] (by id), so languages key hash maps.
//!
//! `Lang` is `Send + Sync` and freely shared across threads: the handle
//! carries its DFA, so reading it takes no lock, and the algebra takes
//! the store's one lock only around cache lookups and inserts, never
//! around automaton construction.
//!
//! Two constructors build a language in one automaton construction and
//! stand outside the memo: [`Lang::words`] (a finite language, as one
//! trie) and [`Lang::chain`] (a concatenation chain, as one NFA).
//!
//! This is the type the extraction layer computes with; raw [`Dfa`]/
//! [`Nfa`] stay internal to hot paths.

use crate::alphabet::Alphabet;
use crate::dfa::{Dfa, StateId};
use crate::intern::LangId;
use crate::nfa::Nfa;
use crate::regex::Regex;
use crate::store::Store;
use crate::symbol::Symbol;
use std::fmt;
use std::sync::Arc;

/// A regular language over an explicit alphabet: an interned handle to a
/// canonical minimal DFA. Cloning is O(1); equality is an O(1) id
/// compare.
#[derive(Clone)]
pub struct Lang {
    id: LangId,
    dfa: Arc<Dfa>,
}

impl Lang {
    /// The empty language `∅`.
    pub fn empty(alphabet: &Alphabet) -> Lang {
        Lang::from_dfa(Dfa::empty_lang(alphabet))
    }

    /// The language `{ε}`.
    pub fn epsilon(alphabet: &Alphabet) -> Lang {
        Lang::words(alphabet, [&[][..]])
    }

    /// `Σ*`.
    pub fn universe(alphabet: &Alphabet) -> Lang {
        Lang::from_dfa(Dfa::universal(alphabet))
    }

    /// The singleton language `{sym}`.
    pub fn sym(alphabet: &Alphabet, sym: Symbol) -> Lang {
        Lang::words(alphabet, [&[sym][..]])
    }

    /// The singleton language containing exactly `word`.
    pub fn literal(alphabet: &Alphabet, word: &[Symbol]) -> Lang {
        Lang::words(alphabet, [word])
    }

    /// The finite language of `words`, built as one trie and minimized
    /// once (a fold of [`Lang::union`]s pays a product and a minimization
    /// per word). No words give `∅`; the empty word is allowed.
    pub fn words<'w>(alphabet: &Alphabet, words: impl IntoIterator<Item = &'w [Symbol]>) -> Lang {
        // State 0 is the dead state and state 1 the root; each new trie
        // node appends a row of transitions to the dead state.
        let sigma = alphabet.len();
        let mut table = vec![0; 2 * sigma];
        let mut accepting = vec![false, false];
        for word in words {
            let mut q = 1;
            for sym in word {
                assert!(sym.index() < sigma, "symbol outside the alphabet");
                let slot = q * sigma + sym.index();
                if table[slot] == 0 {
                    table[slot] = accepting.len() as StateId;
                    accepting.push(false);
                    table.resize(table.len() + sigma, 0);
                }
                q = table[slot] as usize;
            }
            accepting[q] = true;
        }
        Lang::from_dfa(Dfa::from_parts(alphabet.clone(), table, accepting, 1))
    }

    /// The chain `parts[0]·s1·parts[1]·…·sk·parts[k]`, built with one
    /// NFA ([`Nfa::chain`]), one subset construction and one minimization
    /// where a fold of binary [`Lang::concat`]s pays one of each per
    /// step. Empty `separators` concatenate the parts plainly; otherwise
    /// there is exactly one between each pair of neighbouring parts. No
    /// parts give `{ε}`; an empty part gives `∅`. Unlike the binary
    /// operations it is not memoized: each chain is built once.
    pub fn chain(alphabet: &Alphabet, parts: &[Lang], separators: &[Symbol]) -> Lang {
        let dfas: Vec<&Dfa> = parts.iter().map(Lang::dfa).collect();
        Lang::from_dfa(Dfa::from_nfa(&Nfa::chain(alphabet, &dfas, separators)))
    }

    /// Compile a regex (extended operators included).
    pub fn from_regex(alphabet: &Alphabet, regex: &Regex) -> Lang {
        Lang::from_dfa(Dfa::from_regex(alphabet, regex))
    }

    /// Parse-and-compile (convenience for tests/examples).
    pub fn parse(alphabet: &Alphabet, text: &str) -> Result<Lang, crate::regex::ParseError> {
        Ok(Lang::from_regex(alphabet, &Regex::parse(alphabet, text)?))
    }

    /// Wrap a DFA: minimize, hash-cons, and return the canonical handle.
    pub fn from_dfa(dfa: Dfa) -> Lang {
        Store::intern_dfa(dfa)
    }

    /// Store-internal constructor: `dfa` is the interned automaton `id`
    /// refers to.
    pub(crate) fn from_store(id: LangId, dfa: Arc<Dfa>) -> Lang {
        Lang { id, dfa }
    }

    /// The interned identity of this language. Equal ids ⟺ equal
    /// languages.
    pub fn id(&self) -> LangId {
        self.id
    }

    /// The alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        self.dfa.alphabet()
    }

    /// The canonical minimal DFA.
    pub fn dfa(&self) -> &Dfa {
        &self.dfa
    }

    /// Number of states of the canonical DFA — the natural size measure for
    /// reporting (benches plot against it).
    pub fn num_states(&self) -> usize {
        self.dfa.num_states()
    }

    /// Membership.
    pub fn contains(&self, word: &[Symbol]) -> bool {
        self.dfa.accepts(word)
    }

    // ----- boolean algebra (memoized) --------------------------------------

    /// `self ∪ other`.
    pub fn union(&self, other: &Lang) -> Lang {
        Store::global().union(self, other)
    }

    /// `self ∩ other`.
    pub fn intersect(&self, other: &Lang) -> Lang {
        Store::global().intersect(self, other)
    }

    /// `self − other`.
    pub fn difference(&self, other: &Lang) -> Lang {
        Store::global().difference(self, other)
    }

    /// `Σ* − self`.
    pub fn complement(&self) -> Lang {
        Store::global().complement(self)
    }

    // ----- rational operations (memoized) ----------------------------------

    /// Concatenation `self · other`.
    pub fn concat(&self, other: &Lang) -> Lang {
        Store::global().concat(self, other)
    }

    /// Kleene star `self*`.
    pub fn star(&self) -> Lang {
        Store::global().star(self)
    }

    /// Reversal `{ wᴿ | w ∈ self }`.
    pub fn reversed(&self) -> Lang {
        Store::global().reversed(self)
    }

    // ----- quotients (Definition 5.1, memoized) -----------------------------

    /// Suffix factorization `self / by = { α | ∃β ∈ by, α·β ∈ self }`.
    pub fn right_quotient(&self, by: &Lang) -> Lang {
        Store::global().right_quotient(self, by)
    }

    /// Prefix factorization `by \ self = { α | ∃β ∈ by, β·α ∈ self }`.
    pub fn left_quotient(&self, by: &Lang) -> Lang {
        Store::global().left_quotient(self, by)
    }

    // ----- decision procedures (memoized) -----------------------------------

    /// Is the language empty?
    pub fn is_empty(&self) -> bool {
        Store::global().is_empty(self)
    }

    /// Is the language `Σ*`? (Lemma 5.9's test; exponential only through the
    /// regex→DFA step, linear here.)
    pub fn is_universal(&self) -> bool {
        Store::global().is_universal(self)
    }

    /// `self ⊆ other`.
    pub fn is_subset_of(&self, other: &Lang) -> bool {
        Store::global().is_subset(self, other)
    }

    /// Does ε belong to the language? (O(1) on the canonical DFA — not
    /// worth a cache entry.)
    pub fn is_nullable(&self) -> bool {
        self.dfa.accepts(&[])
    }

    // ----- analyses on the shared DFA ---------------------------------------

    /// A shortest member, or `None` when empty. Deterministic.
    pub fn shortest_member(&self) -> Option<Vec<Symbol>> {
        self.dfa.shortest_member()
    }

    /// A shortest string in the symmetric difference with `other`.
    pub fn difference_witness(&self, other: &Lang) -> Option<Vec<Symbol>> {
        self.dfa.difference_witness(&other.dfa)
    }

    /// Largest number of `marker` occurrences in any member; `None` if
    /// unbounded. See [`Dfa::max_marker_count`].
    pub fn max_marker_count(&self, marker: Symbol) -> Option<usize> {
        self.dfa.max_marker_count(marker)
    }

    /// Is the language finite?
    pub fn is_finite(&self) -> bool {
        self.dfa.is_finite_lang()
    }

    /// Number of members, or `None` when infinite (saturating at
    /// `u64::MAX`).
    pub fn count_members(&self) -> Option<u64> {
        self.dfa.count_members()
    }

    /// A regex denoting this language (state elimination + simplification).
    pub fn to_regex(&self) -> Regex {
        self.dfa.to_regex()
    }

    /// Render via [`Lang::to_regex`].
    pub fn to_text(&self) -> String {
        self.to_regex().to_text(self.alphabet())
    }
}

impl PartialEq for Lang {
    /// O(1): hash-consing guarantees equal languages share an id.
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Lang {}

impl std::hash::Hash for Lang {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl fmt::Debug for Lang {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lang#{}({})", self.id.index(), self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> Alphabet {
        Alphabet::new(["p", "q"])
    }

    fn l(s: &str) -> Lang {
        Lang::parse(&ab(), s).unwrap()
    }

    #[test]
    fn equality_is_language_equality() {
        assert_eq!(l("p p*"), l("p+"));
        assert_eq!(l("(p | q)*"), l(".*"));
        assert_ne!(l("p*"), l("p+"));
    }

    #[test]
    fn equal_languages_share_one_interned_id() {
        let a = l("p p*");
        let b = l("p+");
        assert_eq!(a.id(), b.id());
        assert!(
            Arc::ptr_eq(&a.dfa, &b.dfa),
            "hash-consing must share the DFA"
        );
        assert_ne!(l("p*").id(), l("p+").id());
    }

    #[test]
    fn clone_shares_the_same_automaton() {
        let x = l("(p q)* p?");
        let y = x.clone();
        assert_eq!(x.id(), y.id());
        assert!(Arc::ptr_eq(&x.dfa, &y.dfa));
    }

    #[test]
    fn algebra_laws() {
        let x = l("(p q)* p?");
        let y = l("q .*");
        assert_eq!(x.union(&y), y.union(&x));
        assert_eq!(x.intersect(&x), x);
        assert_eq!(x.difference(&x), l("[]"));
        assert_eq!(x.complement().complement(), x);
        assert_eq!(x.union(&x.complement()), l(".*"));
    }

    #[test]
    fn concat_and_star() {
        assert_eq!(l("p").concat(&l("q")), l("p q"));
        assert_eq!(l("p | ~").concat(&l("q*")), l("p? q*"));
        assert_eq!(l("p q").star(), l("(p q)*"));
        assert_eq!(l("[]").star(), l("~"));
    }

    #[test]
    fn reversal() {
        assert_eq!(l("p q q").reversed(), l("q q p"));
        assert_eq!(l("(p q)*").reversed(), l("(q p)*"));
        assert_eq!(l(".*").reversed(), l(".*"));
    }

    #[test]
    fn quotients_via_lang() {
        // (qp)* / (p·Σ*) = (qp)* q  (see quotient module tests)
        let e = l("(q p)*");
        assert_eq!(e.right_quotient(&l("p .*")), l("(q p)* q"));
        // left quotient: (pq) \ (p q p q) = p q
        assert_eq!(l("p q p q").left_quotient(&l("p q")), l("p q"));
    }

    #[test]
    fn decision_procedures() {
        assert!(l("[]").is_empty());
        assert!(!l("~").is_empty());
        assert!(l(".*").is_universal());
        assert!(l("(p q)+").is_subset_of(&l("(p q)*")));
        assert!(l("p*").is_nullable());
        assert!(!l("p+").is_nullable());
    }

    #[test]
    fn cached_ops_agree_with_uncached() {
        let x = l("(p q)* p?");
        let y = l("q .*");
        let u = Store::uncached();
        assert_eq!(x.union(&y), u.union(&x, &y));
        assert_eq!(x.intersect(&y), u.intersect(&x, &y));
        assert_eq!(x.difference(&y), u.difference(&x, &y));
        assert_eq!(x.concat(&y), u.concat(&x, &y));
        assert_eq!(x.complement(), u.complement(&x));
        assert_eq!(x.star(), u.star(&x));
        assert_eq!(x.reversed(), u.reversed(&x));
        assert_eq!(x.right_quotient(&y), u.right_quotient(&x, &y));
        assert_eq!(x.left_quotient(&y), u.left_quotient(&x, &y));
        assert_eq!(x.is_empty(), u.is_empty(&x));
        assert_eq!(x.is_universal(), u.is_universal(&x));
        assert_eq!(x.is_subset_of(&y), u.is_subset(&x, &y));
    }

    #[test]
    fn literal_and_membership() {
        let a = ab();
        let w = a.str_to_syms("p q p").unwrap();
        let lit = Lang::literal(&a, &w);
        assert!(lit.contains(&w));
        assert!(!lit.contains(&a.str_to_syms("p q").unwrap()));
        assert_eq!(lit.shortest_member(), Some(w));
    }

    #[test]
    fn marker_count_passthrough() {
        let a = ab();
        assert_eq!(l("q* p q* p q*").max_marker_count(a.sym("p")), Some(2));
        assert_eq!(l("(q p)*").max_marker_count(a.sym("p")), None);
    }

    #[test]
    fn finiteness_and_cardinality() {
        assert!(l("[]").is_finite());
        assert_eq!(l("[]").count_members(), Some(0));
        assert_eq!(l("~").count_members(), Some(1));
        assert_eq!(l("p | q q | q p q").count_members(), Some(3));
        assert_eq!(l("(p | q) (p | q)").count_members(), Some(4));
        assert_eq!(l("p? q?").count_members(), Some(4));
        assert!(!l("p*").is_finite());
        assert_eq!(l("p*").count_members(), None);
        // A cycle outside the useful subgraph does not make it infinite:
        // (p p)* q & q has a p-cycle that never reaches acceptance.
        assert_eq!(l("((p p)* q) & q").count_members(), Some(1));
    }

    #[test]
    fn debug_shows_regex() {
        let s = format!("{:?}", l("p q"));
        assert!(s.starts_with("Lang#"), "{s}");
    }
}
