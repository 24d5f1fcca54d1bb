//! Boolean combinations of DFAs via the product construction, plus
//! complement.
//!
//! Only the part of the product reachable from the joint start is built.
//! All results are complete (inputs are complete); callers that need
//! canonical form chain [`Dfa::minimized`].

use super::{Dfa, StateId};
use std::collections::HashMap;

impl Dfa {
    /// Complement relative to `Σ*`. O(n): flips acceptance on the complete
    /// automaton.
    pub fn complement(&self) -> Dfa {
        let accepting = self.accepting_slice().iter().map(|&b| !b).collect();
        self.with_accepting(accepting)
    }

    /// `L(self) ∩ L(other)`.
    pub fn intersect(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a && b)
    }

    /// `L(self) ∪ L(other)`.
    pub fn union(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a || b)
    }

    /// `L(self) − L(other)` — the paper's `E1 − E2`.
    pub fn difference(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a && !b)
    }

    /// Symmetric difference; empty iff the languages are equal. Used for
    /// equivalence witnesses.
    pub fn symmetric_difference(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a != b)
    }

    /// Reachable product automaton with acceptance combined by `accept`.
    pub fn product(&self, other: &Dfa, accept: impl Fn(bool, bool) -> bool) -> Dfa {
        assert!(
            self.alphabet().compatible(other.alphabet()),
            "product over incompatible alphabets"
        );
        let sigma = self.alphabet().len();
        let mut index: HashMap<(StateId, StateId), StateId> = HashMap::new();
        let mut pairs: Vec<(StateId, StateId)> = Vec::new();
        let mut table: Vec<StateId> = Vec::new();
        let mut accepting: Vec<bool> = Vec::new();

        let mut intern = |pair: (StateId, StateId),
                          pairs: &mut Vec<(StateId, StateId)>,
                          accepting: &mut Vec<bool>| {
            *index.entry(pair).or_insert_with(|| {
                let id = pairs.len() as StateId;
                pairs.push(pair);
                accepting.push(accept(
                    self.is_accepting(pair.0),
                    other.is_accepting(pair.1),
                ));
                id
            })
        };

        let start = intern((self.start(), other.start()), &mut pairs, &mut accepting);
        let mut cursor = 0usize;
        while cursor < pairs.len() {
            let (q1, q2) = pairs[cursor];
            debug_assert_eq!(table.len(), cursor * sigma);
            for sym in self.alphabet().symbols() {
                let t = (self.next(q1, sym), other.next(q2, sym));
                let id = intern(t, &mut pairs, &mut accepting);
                table.push(id);
            }
            cursor += 1;
        }
        Dfa::from_parts(self.alphabet().clone(), table, accepting, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::regex::Regex;
    use crate::symbol::Symbol;

    fn ab() -> Alphabet {
        Alphabet::new(["p", "q"])
    }

    fn d(s: &str) -> Dfa {
        let a = ab();
        Dfa::from_regex(&a, &Regex::parse(&a, s).unwrap())
    }

    fn all_strings(a: &Alphabet, max_len: usize) -> Vec<Vec<Symbol>> {
        let mut out: Vec<Vec<Symbol>> = vec![vec![]];
        let mut layer: Vec<Vec<Symbol>> = vec![vec![]];
        for _ in 0..max_len {
            let mut next = Vec::new();
            for w in &layer {
                for s in a.symbols() {
                    let mut w2 = w.clone();
                    w2.push(s);
                    next.push(w2);
                }
            }
            out.extend(next.iter().cloned());
            layer = next;
        }
        out
    }

    #[test]
    fn boolean_ops_agree_with_definitions() {
        let a = ab();
        let x = d("(p q)* p?");
        let y = d("p .* | q");
        let inter = x.intersect(&y);
        let uni = x.union(&y);
        let diff = x.difference(&y);
        let sym = x.symmetric_difference(&y);
        let comp = x.complement();
        for w in all_strings(&a, 6) {
            let (ix, iy) = (x.accepts(&w), y.accepts(&w));
            assert_eq!(inter.accepts(&w), ix && iy);
            assert_eq!(uni.accepts(&w), ix || iy);
            assert_eq!(diff.accepts(&w), ix && !iy);
            assert_eq!(sym.accepts(&w), ix != iy);
            assert_eq!(comp.accepts(&w), !ix);
        }
    }

    #[test]
    fn de_morgan() {
        let a = ab();
        let x = d("p* q");
        let y = d("(q p)*");
        let lhs = x.union(&y).complement().minimized();
        let rhs = x.complement().intersect(&y.complement()).minimized();
        assert!(lhs.same_canonical(&rhs));
        let _ = a;
    }

    #[test]
    fn complement_is_involution() {
        let x = d("(p | q q)*");
        assert!(x
            .complement()
            .complement()
            .minimized()
            .same_canonical(&x.minimized()));
    }

    #[test]
    fn difference_with_self_is_empty() {
        let x = d("(p q)+");
        let diff = x.difference(&x).minimized();
        assert!(diff.same_canonical(&d("[]")));
    }

    #[test]
    #[should_panic(expected = "incompatible alphabets")]
    fn rejects_incompatible_alphabets() {
        let a1 = Alphabet::new(["p", "q"]);
        let a2 = Alphabet::new(["p"]);
        let x = Dfa::universal(&a1);
        let y = Dfa::universal(&a2);
        let _ = x.intersect(&y);
    }
}
