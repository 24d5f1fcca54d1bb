//! Complete deterministic finite automata.
//!
//! Every [`Dfa`] in this crate is **complete** (a transition for every
//! state × symbol, with an explicit dead state where needed) and carries its
//! [`Alphabet`]. Completeness makes complement a bit-flip and universality a
//! reachability scan — the operations the paper's maximality test
//! (Corollary 5.8) leans on.
//!
//! Submodules:
//! * [`determinize`] — subset construction from [`Nfa`],
//! * [`minimize`] — Hopcroft minimization + canonical state numbering (so
//!   equivalent languages produce structurally identical automata),
//! * [`product`] — boolean combinations (∩, ∪, −, symmetric difference) and
//!   complement,
//! * [`quotient`] — prefix/suffix factoring (Definition 5.1),
//! * [`analysis`] — emptiness, universality, inclusion, equivalence,
//!   witnesses, trimming, bounded-marker analysis,
//! * [`to_regex`] — state elimination back to a [`Regex`] for display,
//! * [`dense`] — class-compressed, premultiplied scan tables for the
//!   extraction hot path.

pub mod analysis;
pub mod dense;
pub mod determinize;
pub mod dot;
pub mod minimize;
pub mod product;
pub mod quotient;
pub mod to_regex;

use crate::alphabet::Alphabet;
use crate::nfa::Nfa;
use crate::regex::Regex;
use crate::symbol::Symbol;

/// DFA state id (dense index).
pub type StateId = u32;

/// A complete deterministic finite automaton over an explicit alphabet.
#[derive(Debug, Clone)]
pub struct Dfa {
    alphabet: Alphabet,
    /// Row-major transition table: `table[q * |Σ| + sym]`.
    table: Vec<StateId>,
    accepting: Vec<bool>,
    start: StateId,
}

impl Dfa {
    /// Construct from raw parts. Validates completeness and ranges.
    pub fn from_parts(
        alphabet: Alphabet,
        table: Vec<StateId>,
        accepting: Vec<bool>,
        start: StateId,
    ) -> Dfa {
        let n = accepting.len();
        assert!(n > 0, "a complete DFA needs at least one state");
        assert_eq!(
            table.len(),
            n * alphabet.len(),
            "transition table size mismatch"
        );
        assert!((start as usize) < n, "start state out of range");
        assert!(
            table.iter().all(|&t| (t as usize) < n),
            "transition target out of range"
        );
        Dfa {
            alphabet,
            table,
            accepting,
            start,
        }
    }

    /// The automaton for the empty language `∅`: one non-accepting sink.
    pub fn empty_lang(alphabet: &Alphabet) -> Dfa {
        Dfa {
            alphabet: alphabet.clone(),
            table: vec![0; alphabet.len()],
            accepting: vec![false],
            start: 0,
        }
    }

    /// The automaton for `Σ*`: one accepting sink.
    pub fn universal(alphabet: &Alphabet) -> Dfa {
        Dfa {
            alphabet: alphabet.clone(),
            table: vec![0; alphabet.len()],
            accepting: vec![true],
            start: 0,
        }
    }

    /// Compile a regex — including extended operators — to a minimal DFA.
    ///
    /// The Thompson fragment goes NFA → subset construction; `And`/`Not`/
    /// `Diff` nodes are lowered with automata products; mixed nodes splice
    /// DFA subresults back into NFA composition. The result is minimized and
    /// canonically numbered.
    pub fn from_regex(alphabet: &Alphabet, regex: &Regex) -> Dfa {
        let nfa = compile_nfa(alphabet, regex);
        determinize::determinize(&nfa).minimized()
    }

    /// The alphabet.
    #[inline]
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states (including any dead state).
    #[inline]
    pub fn num_states(&self) -> usize {
        self.accepting.len()
    }

    /// The start state.
    #[inline]
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Whether `q` is accepting.
    #[inline]
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.accepting[q as usize]
    }

    /// The successor of `q` on `sym`.
    #[inline]
    pub fn next(&self, q: StateId, sym: Symbol) -> StateId {
        self.table[q as usize * self.alphabet.len() + sym.index()]
    }

    /// Run from `q` over `input`, returning the final state.
    pub fn run_from(&self, q: StateId, input: &[Symbol]) -> StateId {
        let mut cur = q;
        for &s in input {
            cur = self.next(cur, s);
        }
        cur
    }

    /// Membership test.
    pub fn accepts(&self, input: &[Symbol]) -> bool {
        self.is_accepting(self.run_from(self.start, input))
    }

    /// Replace the accepting set (same structure). Used by quotients.
    pub(crate) fn with_accepting(&self, accepting: Vec<bool>) -> Dfa {
        assert_eq!(accepting.len(), self.num_states());
        Dfa {
            alphabet: self.alphabet.clone(),
            table: self.table.clone(),
            accepting,
            start: self.start,
        }
    }

    pub(crate) fn accepting_slice(&self) -> &[bool] {
        &self.accepting
    }
}

/// Recursively compile a regex to an NFA, lowering extended operators via
/// DFA products.
fn compile_nfa(alphabet: &Alphabet, regex: &Regex) -> Nfa {
    if !regex.has_extended_ops() {
        return Nfa::thompson(alphabet, regex);
    }
    match regex {
        Regex::And(parts) => {
            let mut acc: Option<Dfa> = None;
            for p in parts {
                let d = Dfa::from_regex(alphabet, p);
                acc = Some(match acc {
                    None => d,
                    Some(a) => a.intersect(&d),
                });
            }
            Nfa::from_dfa(&acc.expect("And is non-empty by construction"))
        }
        Regex::Not(inner) => Nfa::from_dfa(&Dfa::from_regex(alphabet, inner).complement()),
        Regex::Diff(a, b) => {
            let da = Dfa::from_regex(alphabet, a);
            let db = Dfa::from_regex(alphabet, b);
            Nfa::from_dfa(&da.difference(&db))
        }
        Regex::Concat(parts) => {
            nfa_concat(alphabet, parts.iter().map(|p| compile_nfa(alphabet, p)))
        }
        Regex::Alt(parts) => nfa_alt(alphabet, parts.iter().map(|p| compile_nfa(alphabet, p))),
        Regex::Star(inner) => nfa_star(compile_nfa(alphabet, inner)),
        Regex::Plus(inner) => nfa_plus(compile_nfa(alphabet, inner)),
        Regex::Opt(inner) => nfa_opt(compile_nfa(alphabet, inner)),
        // has_extended_ops() returned true, so one of the above matched.
        Regex::Empty | Regex::Epsilon | Regex::Class(_) => unreachable!(),
    }
}

/// Disjoint-union helper: copy `src` into `dst` with a state offset and
/// return (offset starts, offset accepting states).
fn splice(dst: &mut NfaBuilder, src: &Nfa) -> (Vec<u32>, Vec<u32>) {
    let offset = dst.states;
    for _ in 0..src.num_states() {
        dst.push_state();
    }
    let mut accepts = Vec::new();
    for q in 0..src.num_states() as u32 {
        if src.is_accepting(q) {
            accepts.push(q + offset);
        }
        for (set, t) in src.transitions(q) {
            dst.edges.push((q + offset, set.clone(), t + offset));
        }
        for t in src.eps_transitions(q) {
            dst.eps.push((q + offset, t + offset));
        }
    }
    let starts = src.starts().iter().map(|&s| s + offset).collect();
    (starts, accepts)
}

/// Minimal mutable NFA assembly buffer; converted to [`Nfa`] at the end.
struct NfaBuilder {
    alphabet: Alphabet,
    states: u32,
    edges: Vec<(u32, crate::alphabet::SymbolSet, u32)>,
    eps: Vec<(u32, u32)>,
    starts: Vec<u32>,
    accepting: Vec<u32>,
}

impl NfaBuilder {
    fn new(alphabet: &Alphabet) -> Self {
        NfaBuilder {
            alphabet: alphabet.clone(),
            states: 0,
            edges: Vec::new(),
            eps: Vec::new(),
            starts: Vec::new(),
            accepting: Vec::new(),
        }
    }

    fn push_state(&mut self) -> u32 {
        let id = self.states;
        self.states += 1;
        id
    }

    fn build(self) -> Nfa {
        Nfa::assemble(
            self.alphabet,
            self.states,
            self.edges,
            self.eps,
            self.starts,
            self.accepting,
        )
    }
}

fn nfa_concat(alphabet: &Alphabet, parts: impl IntoIterator<Item = Nfa>) -> Nfa {
    let mut b = NfaBuilder::new(alphabet);
    let mut prev_accepts: Option<Vec<u32>> = None;
    let mut first_starts: Option<Vec<u32>> = None;
    let mut last_accepts: Vec<u32> = Vec::new();
    let mut any = false;
    for part in parts {
        any = true;
        let (starts, accepts) = splice(&mut b, &part);
        match prev_accepts.take() {
            None => first_starts = Some(starts),
            Some(pa) => {
                for &a in &pa {
                    for &s in &starts {
                        b.eps.push((a, s));
                    }
                }
            }
        }
        prev_accepts = Some(accepts.clone());
        last_accepts = accepts;
    }
    if !any {
        // Empty concatenation is ε.
        let mut b = NfaBuilder::new(alphabet);
        let s = b.push_state();
        b.starts.push(s);
        b.accepting.push(s);
        return b.build();
    }
    b.starts = first_starts.expect("non-empty concat");
    b.accepting = last_accepts;
    b.build()
}

fn nfa_alt(alphabet: &Alphabet, parts: impl IntoIterator<Item = Nfa>) -> Nfa {
    let mut b = NfaBuilder::new(alphabet);
    for part in parts {
        let (starts, accepts) = splice(&mut b, &part);
        b.starts.extend(starts);
        b.accepting.extend(accepts);
    }
    b.build()
}

fn nfa_star(inner: Nfa) -> Nfa {
    let mut b = NfaBuilder::new(inner.alphabet());
    let (starts, accepts) = splice(&mut b, &inner);
    let hub = b.push_state();
    for &s in &starts {
        b.eps.push((hub, s));
    }
    for &a in &accepts {
        b.eps.push((a, hub));
    }
    b.starts = vec![hub];
    b.accepting = accepts;
    b.accepting.push(hub);
    b.build()
}

fn nfa_plus(inner: Nfa) -> Nfa {
    let mut b = NfaBuilder::new(inner.alphabet());
    let (starts, accepts) = splice(&mut b, &inner);
    let hub = b.push_state();
    for &a in &accepts {
        b.eps.push((a, hub));
    }
    for &s in &starts {
        b.eps.push((hub, s));
    }
    b.starts = starts;
    b.accepting = accepts;
    b.build()
}

fn nfa_opt(inner: Nfa) -> Nfa {
    let mut b = NfaBuilder::new(inner.alphabet());
    let (starts, accepts) = splice(&mut b, &inner);
    let hub = b.push_state();
    b.starts = starts;
    b.starts.push(hub);
    b.accepting = accepts;
    b.accepting.push(hub);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;

    fn ab() -> Alphabet {
        Alphabet::new(["p", "q"])
    }

    fn dfa(s: &str) -> Dfa {
        let a = ab();
        Dfa::from_regex(&a, &Regex::parse(&a, s).unwrap())
    }

    fn accepts(d: &Dfa, s: &str) -> bool {
        d.accepts(&d.alphabet().str_to_syms(s).unwrap())
    }

    #[test]
    fn thompson_fragment_compiles() {
        let d = dfa("(p q)* p .*");
        assert!(accepts(&d, "p"));
        assert!(accepts(&d, "p q p q q"));
        assert!(!accepts(&d, "q"));
        assert!(!accepts(&d, ""));
    }

    #[test]
    fn constants() {
        let a = ab();
        let empty = Dfa::empty_lang(&a);
        let univ = Dfa::universal(&a);
        assert!(!empty.accepts(&[]));
        assert!(univ.accepts(&[]));
        assert!(univ.accepts(&a.str_to_syms("p q p").unwrap()));
    }

    #[test]
    fn extended_complement() {
        let d = dfa("!(p*)");
        assert!(!accepts(&d, ""));
        assert!(!accepts(&d, "p p"));
        assert!(accepts(&d, "q"));
        assert!(accepts(&d, "p q"));
    }

    #[test]
    fn extended_difference_matches_paper_notation() {
        // (Σ−p)* − q : nonempty-q-free strings except the single "q"… wait,
        // [^p]* - q = q-strings of length ≠ 1 over {q}. Concretely over
        // {p,q}: strings without p, minus the string "q".
        let d = dfa("[^p]* - q");
        assert!(accepts(&d, ""));
        assert!(!accepts(&d, "q"));
        assert!(accepts(&d, "q q"));
        assert!(!accepts(&d, "p"));
    }

    #[test]
    fn extended_ops_nested_in_thompson_context() {
        // Concatenation containing a complement subterm.
        let d = dfa("(!(p*)) q");
        assert!(accepts(&d, "q q"));
        assert!(!accepts(&d, "p q")); // "p" ∈ p*, so !(p*) rejects "p"
        assert!(accepts(&d, "p q q"));
        // Star over a difference.
        let d = dfa("(. - p)*");
        assert!(accepts(&d, ""));
        assert!(accepts(&d, "q q"));
        assert!(!accepts(&d, "q p"));
    }

    #[test]
    fn intersection() {
        let d = dfa("(p .*) & (.* q)");
        assert!(accepts(&d, "p q"));
        assert!(accepts(&d, "p p q"));
        assert!(!accepts(&d, "p"));
        assert!(!accepts(&d, "q q"));
    }

    #[test]
    fn run_from_and_next_agree_with_accepts() {
        let a = ab();
        let d = dfa("p q p");
        let input = a.str_to_syms("p q p").unwrap();
        let mut q = d.start();
        for &s in &input {
            q = d.next(q, s);
        }
        assert_eq!(q, d.run_from(d.start(), &input));
        assert!(d.is_accepting(q));
    }

    #[test]
    fn minimality_of_from_regex() {
        // p | p p | p p p over {p,q}: minimal DFA has 5 states
        // (0,1,2,3 p's seen ≥... plus dead). Just sanity-check smallness.
        let d = dfa("p | p p | p p p");
        assert!(
            d.num_states() <= 5,
            "not minimized: {} states",
            d.num_states()
        );
        // Σ* must be the one-state automaton.
        assert_eq!(dfa(".*").num_states(), 1);
        assert_eq!(dfa("[]").num_states(), 1);
    }
}
