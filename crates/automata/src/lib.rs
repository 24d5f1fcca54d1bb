//! # rextract-automata
//!
//! A self-contained toolkit for regular languages over **explicit finite
//! alphabets**, built as the substrate for the PODS 2000 paper
//! *"Computational Aspects of Resilient Data Extraction from Semistructured
//! Sources"* (Davulcu, Yang, Kifer, Ramakrishnan).
//!
//! The paper manipulates regular languages in ways general-purpose regex
//! engines do not support:
//!
//! * **complement and difference** relative to a finite alphabet `Σ`
//!   (expressions such as `(Σ − p)*`),
//! * **prefix/suffix factoring** (left and right quotients, Definition 5.1),
//! * **universality** tests (`L = Σ*`, Lemma 5.9) used by the maximality
//!   characterization (Corollary 5.8),
//! * **bounded-marker analysis** (`E‖ⁿ_p = ∅` for some `n`, the precondition
//!   of the left-filtering maximization algorithm 6.2).
//!
//! This crate therefore provides, from scratch:
//!
//! * interned [`Symbol`]s and shared [`Alphabet`]s ([`symbol`], [`alphabet`]),
//! * a regular-expression AST with extended operators (intersection,
//!   complement, difference) plus a parser, printer and simplifier
//!   ([`regex`]),
//! * Thompson-construction NFAs ([`nfa`]),
//! * complete deterministic automata with subset construction, Hopcroft
//!   minimization, boolean products, reversal, quotients, decision
//!   procedures, and DFA→regex state elimination ([`dfa`]),
//! * an interned language store hash-consing canonical minimal DFAs with
//!   a memoized operation cache ([`intern`], [`store`]),
//! * a high-level [`lang::Lang`] facade — a cheap interned handle whose
//!   algebra routes through the store ([`lang`]),
//! * bounded enumeration and random sampling of language members
//!   ([`sample`]).
//!
//! ## Quick tour
//!
//! ```
//! use rextract_automata::prelude::*;
//!
//! let ab = Alphabet::new(["p", "q"]);
//!
//! // (Σ - p)* p Σ*   — "everything before the first p, then anything".
//! let re = Regex::parse(&ab, "[^p]* p .*").unwrap();
//! let lang = Lang::from_regex(&ab, &re);
//!
//! assert!(lang.contains(&ab.str_to_syms("q q p q").unwrap()));
//! assert!(!lang.contains(&ab.str_to_syms("q q").unwrap()));
//!
//! // Universality and complement relative to Σ:
//! let everything = lang.union(&lang.complement());
//! assert!(everything.is_universal());
//! ```

pub mod alphabet;
pub mod dfa;
mod fxhash;
pub mod intern;
pub mod lang;
pub mod nfa;
pub mod regex;
pub mod sample;
pub mod store;
pub mod symbol;

/// Convenient glob-import of the most frequently used types.
pub mod prelude {
    pub use crate::alphabet::{Alphabet, SymbolSet};
    pub use crate::dfa::Dfa;
    pub use crate::intern::LangId;
    pub use crate::lang::Lang;
    pub use crate::nfa::Nfa;
    pub use crate::regex::Regex;
    pub use crate::store::{Store, StoreStats};
    pub use crate::symbol::Symbol;
}

pub use alphabet::{Alphabet, SymbolSet};
pub use dfa::Dfa;
pub use intern::LangId;
pub use lang::Lang;
pub use nfa::Nfa;
pub use regex::Regex;
pub use store::{Store, StoreStats};
pub use symbol::Symbol;
