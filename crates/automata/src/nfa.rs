//! Nondeterministic finite automata with ε-transitions.
//!
//! NFAs are the intermediate representation between regexes and DFAs:
//! the Thompson fragment of [`Regex`] compiles here structurally
//! ([`Nfa::thompson`]), DFAs convert trivially ([`Nfa::from_dfa`]) and
//! join into one concatenation chain ([`Nfa::chain`]), and reversal
//! ([`Nfa::reversed`]) plus multi-start construction support the
//! quotient operations of [`crate::dfa::quotient`].
//!
//! Transitions are labeled by [`SymbolSet`]s so a `[^p]` class is one edge,
//! not `|Σ|−1` edges.

use crate::alphabet::{Alphabet, SymbolSet};
use crate::dfa::Dfa;
use crate::regex::Regex;
use crate::symbol::Symbol;

/// NFA state id (dense index).
pub type StateId = u32;

#[derive(Debug, Clone, Default)]
struct State {
    /// Labeled transitions: taking any symbol in the set moves to target.
    trans: Vec<(SymbolSet, StateId)>,
    /// ε-transitions.
    eps: Vec<StateId>,
    accepting: bool,
}

/// A nondeterministic finite automaton with ε-moves and a *set* of start
/// states (multi-start is needed for left quotients).
#[derive(Debug, Clone)]
pub struct Nfa {
    alphabet: Alphabet,
    states: Vec<State>,
    starts: Vec<StateId>,
}

impl Nfa {
    /// An NFA with no states: the empty language.
    pub fn empty(alphabet: Alphabet) -> Self {
        Nfa {
            alphabet,
            states: Vec::new(),
            starts: Vec::new(),
        }
    }

    /// The alphabet this automaton ranges over.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The start-state set.
    pub fn starts(&self) -> &[StateId] {
        &self.starts
    }

    /// Whether `s` is accepting.
    pub fn is_accepting(&self, s: StateId) -> bool {
        self.states[s as usize].accepting
    }

    /// Iterate the labeled transitions of `s`.
    pub fn transitions(&self, s: StateId) -> impl Iterator<Item = (&SymbolSet, StateId)> + '_ {
        self.states[s as usize]
            .trans
            .iter()
            .map(|(set, t)| (set, *t))
    }

    /// Iterate the ε-transitions of `s`.
    pub fn eps_transitions(&self, s: StateId) -> impl Iterator<Item = StateId> + '_ {
        self.states[s as usize].eps.iter().copied()
    }

    fn add_state(&mut self) -> StateId {
        let id = self.states.len() as StateId;
        self.states.push(State::default());
        id
    }

    fn add_edge(&mut self, from: StateId, label: SymbolSet, to: StateId) {
        if !label.is_empty() {
            self.states[from as usize].trans.push((label, to));
        }
    }

    fn add_eps(&mut self, from: StateId, to: StateId) {
        self.states[from as usize].eps.push(to);
    }

    /// Assemble an NFA from flat part lists (used by the NFA composition
    /// layer in [`crate::dfa`]). Duplicate accepting ids are tolerated.
    pub fn assemble(
        alphabet: Alphabet,
        num_states: u32,
        edges: Vec<(StateId, SymbolSet, StateId)>,
        eps: Vec<(StateId, StateId)>,
        starts: Vec<StateId>,
        accepting: Vec<StateId>,
    ) -> Nfa {
        let mut nfa = Nfa::empty(alphabet);
        for _ in 0..num_states {
            nfa.add_state();
        }
        for (from, set, to) in edges {
            nfa.add_edge(from, set, to);
        }
        for (from, to) in eps {
            nfa.add_eps(from, to);
        }
        for a in accepting {
            nfa.states[a as usize].accepting = true;
        }
        nfa.starts = starts;
        nfa
    }

    /// Thompson construction for the classical fragment of [`Regex`].
    ///
    /// # Panics
    ///
    /// Panics if the regex contains an extended operator (`And`, `Not`,
    /// `Diff`); compile those through [`crate::dfa::Dfa::from_regex`], which
    /// lowers them via automata products.
    pub fn thompson(alphabet: &Alphabet, regex: &Regex) -> Nfa {
        let mut nfa = Nfa::empty(alphabet.clone());
        let accept = nfa.add_state();
        nfa.states[accept as usize].accepting = true;
        let start = nfa.build_fragment(regex, accept);
        nfa.starts = vec![start];
        nfa
    }

    /// Build a fragment whose final state is `to`; returns its entry state.
    fn build_fragment(&mut self, regex: &Regex, to: StateId) -> StateId {
        match regex {
            Regex::Empty => self.add_state(), // fresh state with no way to `to`
            Regex::Epsilon => {
                let s = self.add_state();
                self.add_eps(s, to);
                s
            }
            Regex::Class(set) => {
                let s = self.add_state();
                self.add_edge(s, set.clone(), to);
                s
            }
            Regex::Concat(parts) => {
                let mut next = to;
                for part in parts.iter().rev() {
                    next = self.build_fragment(part, next);
                }
                next
            }
            Regex::Alt(parts) => {
                let s = self.add_state();
                for part in parts {
                    let entry = self.build_fragment(part, to);
                    self.add_eps(s, entry);
                }
                s
            }
            Regex::Star(inner) => {
                let s = self.add_state();
                let entry = self.build_fragment(inner, s);
                self.add_eps(s, entry);
                self.add_eps(s, to);
                s
            }
            Regex::Plus(inner) => {
                // inner · inner*
                let loop_hub = self.add_state();
                let entry_rep = self.build_fragment(inner, loop_hub);
                self.add_eps(loop_hub, entry_rep);
                self.add_eps(loop_hub, to);

                self.build_fragment(inner, loop_hub)
            }
            Regex::Opt(inner) => {
                let s = self.add_state();
                let entry = self.build_fragment(inner, to);
                self.add_eps(s, entry);
                self.add_eps(s, to);
                s
            }
            Regex::And(_) | Regex::Not(_) | Regex::Diff(_, _) => {
                panic!("Nfa::thompson cannot compile extended operators; use Dfa::from_regex")
            }
        }
    }

    /// View a DFA as an NFA (needed when an extended-operator subresult is
    /// spliced back into Thompson compilation, and for reversal).
    pub fn from_dfa(dfa: &Dfa) -> Nfa {
        let mut nfa = Nfa::empty(dfa.alphabet().clone());
        nfa.splice_dfa(dfa, &vec![true; dfa.num_states()]);
        for q in 0..dfa.num_states() {
            nfa.states[q].accepting = dfa.is_accepting(q as StateId);
        }
        nfa.starts = vec![dfa.start()];
        nfa
    }

    /// The chain `parts[0]·s1·parts[1]·…·sk·parts[k]` as one NFA. Each
    /// part contributes only its useful states, so the parts' dead states
    /// never enter the subsets of the determinized chain. A separator is
    /// one edge from a part's accepting states to the next part's start;
    /// with no separators the parts are joined by ε-moves (plain
    /// concatenation). No parts give `{ε}`; an empty part gives `∅`.
    ///
    /// # Panics
    ///
    /// Panics unless `separators` is empty or holds exactly one symbol
    /// between each pair of neighbouring parts.
    pub fn chain(alphabet: &Alphabet, parts: &[&Dfa], separators: &[Symbol]) -> Nfa {
        assert!(
            separators.is_empty() || separators.len() + 1 == parts.len(),
            "a chain takes one separator between each pair of neighbouring parts"
        );
        let mut nfa = Nfa::empty(alphabet.clone());
        let start = nfa.add_state();
        nfa.starts.push(start);
        // The states the next part is entered from: the chain's start,
        // then each part's accepting states.
        let mut exits = vec![start];
        for (i, part) in parts.iter().enumerate() {
            let useful = part.useful_states();
            if !useful[part.start() as usize] {
                return Nfa::empty(alphabet.clone());
            }
            let ids = nfa.splice_dfa(part, &useful);
            let entry = ids[part.start() as usize].expect("the start is useful");
            let separator = i.checked_sub(1).and_then(|j| separators.get(j));
            for &exit in &exits {
                match separator {
                    Some(&sep) => nfa.add_edge(exit, alphabet.singleton(sep), entry),
                    None => nfa.add_eps(exit, entry),
                }
            }
            exits = (0..part.num_states())
                .filter(|&q| part.is_accepting(q as StateId))
                .filter_map(|q| ids[q])
                .collect();
        }
        for exit in exits {
            nfa.states[exit as usize].accepting = true;
        }
        nfa
    }

    /// Copy the states of `dfa` that `keep` marks, with the edges between
    /// them, one edge per target. Returns each state's id here (`None`
    /// for a dropped state); accepting flags are left to the caller.
    fn splice_dfa(&mut self, dfa: &Dfa, keep: &[bool]) -> Vec<Option<StateId>> {
        let ids: Vec<Option<StateId>> = keep.iter().map(|&k| k.then(|| self.add_state())).collect();
        let alphabet = dfa.alphabet();
        let mut edges: Vec<(StateId, SymbolSet)> = Vec::new();
        for (q, from) in ids.iter().enumerate() {
            let Some(from) = *from else { continue };
            for sym in alphabet.symbols() {
                let Some(to) = ids[dfa.next(q as StateId, sym) as usize] else {
                    continue;
                };
                match edges.iter_mut().find(|(t, _)| *t == to) {
                    Some((_, set)) => set.insert(sym),
                    None => edges.push((to, alphabet.singleton(sym))),
                }
            }
            for (to, set) in edges.drain(..) {
                self.add_edge(from, set, to);
            }
        }
        ids
    }

    /// The reversal: accepts `wᴿ` iff `self` accepts `w`. Starts become
    /// accepting states and vice versa; every edge flips direction.
    pub fn reversed(&self) -> Nfa {
        let mut rev = Nfa::empty(self.alphabet.clone());
        for _ in 0..self.states.len() {
            rev.add_state();
        }
        for (i, st) in self.states.iter().enumerate() {
            for (set, t) in &st.trans {
                rev.add_edge(*t, set.clone(), i as StateId);
            }
            for &t in &st.eps {
                rev.add_eps(t, i as StateId);
            }
            if st.accepting {
                rev.starts.push(i as StateId);
            }
        }
        for &s in &self.starts {
            rev.states[s as usize].accepting = true;
        }
        rev
    }

    /// Replace the start-state set (used by quotient constructions).
    pub fn with_starts(mut self, starts: Vec<StateId>) -> Nfa {
        assert!(
            starts.iter().all(|&s| (s as usize) < self.states.len()),
            "start state out of range"
        );
        self.starts = starts;
        self
    }

    /// ε-closure of a state set, returned as a sorted, deduplicated vec.
    pub fn eps_closure(&self, set: &[StateId]) -> Vec<StateId> {
        let mut seen = vec![false; self.states.len()];
        let mut stack: Vec<StateId> = Vec::with_capacity(set.len());
        for &s in set {
            if !seen[s as usize] {
                seen[s as usize] = true;
                stack.push(s);
            }
        }
        let mut out = stack.clone();
        while let Some(s) = stack.pop() {
            for &t in &self.states[s as usize].eps {
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push(t);
                    out.push(t);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Direct NFA membership test by subset simulation. Mostly for tests —
    /// production matching goes through a compiled [`Dfa`].
    pub fn accepts(&self, input: &[Symbol]) -> bool {
        let mut cur = self.eps_closure(&self.starts);
        for &sym in input {
            let mut next: Vec<StateId> = Vec::new();
            for &s in &cur {
                for (set, t) in &self.states[s as usize].trans {
                    if set.contains(sym) && !next.contains(t) {
                        next.push(*t);
                    }
                }
            }
            cur = self.eps_closure(&next);
            if cur.is_empty() {
                return false;
            }
        }
        cur.iter().any(|&s| self.states[s as usize].accepting)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;

    fn ab() -> Alphabet {
        Alphabet::new(["p", "q"])
    }

    fn nfa(s: &str) -> Nfa {
        let a = ab();
        Nfa::thompson(&a, &Regex::parse(&a, s).unwrap())
    }

    fn accepts(n: &Nfa, s: &str) -> bool {
        n.accepts(&n.alphabet().str_to_syms(s).unwrap())
    }

    #[test]
    fn literal_and_epsilon() {
        let n = nfa("p q");
        assert!(accepts(&n, "p q"));
        assert!(!accepts(&n, "p"));
        assert!(!accepts(&n, "p q p"));
        let e = nfa("~");
        assert!(accepts(&e, ""));
        assert!(!accepts(&e, "p"));
        let empty = nfa("[]");
        assert!(!accepts(&empty, ""));
        assert!(!accepts(&empty, "p"));
    }

    #[test]
    fn star_plus_opt() {
        let n = nfa("p*");
        assert!(accepts(&n, ""));
        assert!(accepts(&n, "p p p"));
        assert!(!accepts(&n, "q"));
        let n = nfa("p+");
        assert!(!accepts(&n, ""));
        assert!(accepts(&n, "p"));
        assert!(accepts(&n, "p p"));
        let n = nfa("p?");
        assert!(accepts(&n, ""));
        assert!(accepts(&n, "p"));
        assert!(!accepts(&n, "p p"));
    }

    #[test]
    fn alternation_and_classes() {
        let n = nfa("(p q)* p");
        assert!(accepts(&n, "p"));
        assert!(accepts(&n, "p q p"));
        assert!(accepts(&n, "p q p q p"));
        assert!(!accepts(&n, "p q"));
        let n = nfa("[^p]* p .*");
        assert!(accepts(&n, "q q p q p"));
        assert!(!accepts(&n, "q q"));
    }

    #[test]
    fn plus_requires_two_copies_semantics() {
        // (p q)+ must not accept ε or interleave wrongly.
        let n = nfa("(p q)+");
        assert!(!accepts(&n, ""));
        assert!(accepts(&n, "p q"));
        assert!(accepts(&n, "p q p q"));
        assert!(!accepts(&n, "p q p"));
    }

    #[test]
    fn reversal_reverses_language() {
        let n = nfa("p q q");
        let r = n.reversed();
        assert!(accepts(&r, "q q p"));
        assert!(!accepts(&r, "p q q"));
        // reversal is an involution on the language
        let rr = r.reversed();
        assert!(accepts(&rr, "p q q"));
        assert!(!accepts(&rr, "q q p"));
    }

    #[test]
    fn eps_closure_is_transitive() {
        // p? q? has chained epsilon moves from the start.
        let n = nfa("p? q?");
        let closure = n.eps_closure(n.starts());
        // must include an accepting state because ε is in the language
        assert!(closure.iter().any(|&s| n.is_accepting(s)));
    }

    #[test]
    #[should_panic(expected = "extended operators")]
    fn thompson_rejects_extended_ops() {
        let a = ab();
        let r = Regex::parse(&a, "!p").unwrap();
        Nfa::thompson(&a, &r);
    }
}
