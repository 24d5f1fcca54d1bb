//! Regular expressions over a finite alphabet.
//!
//! The AST supports the classical operators (union, concatenation, Kleene
//! star/plus, option) **and** the extended operators the paper uses freely:
//! intersection (`&`), complement (`!`, relative to `Σ*`) and difference
//! (`E1 - E2`, Section 4: "the regular expression that recognizes
//! `L(E1) − L(E2)`"). Extended operators are compiled via automata products;
//! see [`crate::dfa`].
//!
//! Submodules:
//! * [`parser`] — a small text syntax used by tests, examples and docs,
//! * [`display`] — pretty-printing with minimal parentheses (inverse of the
//!   parser),
//! * [`simplify`] — algebraic simplification, mainly to keep the regexes
//!   produced by DFA state elimination readable,
//! * [`props`] — cheap structural properties (size, nullability, symbol
//!   usage).

pub mod derivative;
pub mod display;
pub mod parser;
pub mod props;
pub mod simplify;

use crate::alphabet::{Alphabet, SymbolSet};
use crate::symbol::Symbol;

pub use parser::ParseError;

/// A regular expression. See the [module docs](self) for the operator set.
///
/// Invariants maintained by the constructors (and assumed by consumers):
/// `Concat`/`Alt`/`And` vectors are flattened (no directly nested node of the
/// same kind) and never have fewer than two elements.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Regex {
    /// `∅` — the empty language.
    Empty,
    /// `ε` — the language containing only the empty string.
    Epsilon,
    /// A single-symbol class: matches any one symbol in the set. A singleton
    /// class is an ordinary alphabet symbol; `Class(∅)` is equivalent to
    /// `Empty` (the constructors normalize it away).
    Class(SymbolSet),
    /// Concatenation `r1 · r2 · … · rn`.
    Concat(Vec<Regex>),
    /// Union `r1 | r2 | … | rn`.
    Alt(Vec<Regex>),
    /// Kleene star `r*`.
    Star(Box<Regex>),
    /// Kleene plus `r+` (kept distinct from `r·r*` for readability).
    Plus(Box<Regex>),
    /// Option `r?`.
    Opt(Box<Regex>),
    /// Intersection `r1 & r2 & … & rn` (extended operator).
    And(Vec<Regex>),
    /// Complement `!r` relative to `Σ*` (extended operator).
    Not(Box<Regex>),
    /// Difference `r1 - r2` (extended operator).
    Diff(Box<Regex>, Box<Regex>),
}

impl Regex {
    /// A single symbol.
    pub fn sym(alphabet: &Alphabet, s: Symbol) -> Regex {
        Regex::Class(alphabet.singleton(s))
    }

    /// A character class; normalizes the empty class to `Empty`.
    pub fn class(set: SymbolSet) -> Regex {
        if set.is_empty() {
            Regex::Empty
        } else {
            Regex::Class(set)
        }
    }

    /// Any single symbol: the class `Σ`.
    pub fn any(alphabet: &Alphabet) -> Regex {
        Regex::class(alphabet.full_set())
    }

    /// Any single symbol except `s`: the paper's `Σ − s` (as a one-symbol
    /// class; the paper's `(Σ−p)*` is `Regex::not_sym(..).star()`).
    pub fn not_sym(alphabet: &Alphabet, s: Symbol) -> Regex {
        Regex::class(alphabet.without(s))
    }

    /// `Σ*` — every string.
    pub fn universe(alphabet: &Alphabet) -> Regex {
        Regex::any(alphabet).star()
    }

    /// Concatenation with flattening and unit/zero normalization.
    pub fn concat(parts: impl IntoIterator<Item = Regex>) -> Regex {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Regex::Epsilon => {}
                Regex::Empty => return Regex::Empty,
                Regex::Concat(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Regex::Epsilon,
            1 => out.pop().expect("len checked"),
            _ => Regex::Concat(out),
        }
    }

    /// Union with flattening, `∅` elimination and duplicate removal.
    pub fn alt(parts: impl IntoIterator<Item = Regex>) -> Regex {
        let mut out: Vec<Regex> = Vec::new();
        let push = |r: Regex, out: &mut Vec<Regex>| {
            if !out.contains(&r) {
                out.push(r);
            }
        };
        for p in parts {
            match p {
                Regex::Empty => {}
                Regex::Alt(inner) => {
                    for i in inner {
                        push(i, &mut out);
                    }
                }
                other => push(other, &mut out),
            }
        }
        match out.len() {
            0 => Regex::Empty,
            1 => out.pop().expect("len checked"),
            _ => Regex::Alt(out),
        }
    }

    /// Intersection with flattening.
    pub fn and(parts: impl IntoIterator<Item = Regex>) -> Regex {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Regex::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => panic!(
                "intersection of zero regexes is Σ*, which needs an alphabet; use Regex::universe"
            ),
            1 => out.pop().expect("len checked"),
            _ => Regex::And(out),
        }
    }

    /// Kleene star, normalizing `∅* = ε* = ε` and `(r*)* = r*`.
    pub fn star(self) -> Regex {
        match self {
            Regex::Empty | Regex::Epsilon => Regex::Epsilon,
            s @ Regex::Star(_) => s,
            Regex::Plus(r) | Regex::Opt(r) => Regex::Star(r),
            other => Regex::Star(Box::new(other)),
        }
    }

    /// Kleene plus, normalizing degenerate operands.
    pub fn plus(self) -> Regex {
        match self {
            Regex::Empty => Regex::Empty,
            Regex::Epsilon => Regex::Epsilon,
            s @ Regex::Star(_) => s,
            p @ Regex::Plus(_) => p,
            Regex::Opt(r) => Regex::Star(r),
            other => Regex::Plus(Box::new(other)),
        }
    }

    /// Option, normalizing degenerate operands.
    pub fn opt(self) -> Regex {
        match self {
            Regex::Empty | Regex::Epsilon => Regex::Epsilon,
            s @ Regex::Star(_) => s,
            Regex::Plus(r) => Regex::Star(r),
            o @ Regex::Opt(_) => o,
            other => Regex::Opt(Box::new(other)),
        }
    }

    /// Complement relative to `Σ*`, normalizing double negation.
    /// (Named `not` to match the `!` surface syntax; this is a by-value
    /// builder like `star`/`plus`, not an `ops::Not` impl.)
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Regex {
        match self {
            Regex::Not(r) => *r,
            other => Regex::Not(Box::new(other)),
        }
    }

    /// Difference `self − other`.
    pub fn diff(self, other: Regex) -> Regex {
        match (&self, &other) {
            (Regex::Empty, _) => Regex::Empty,
            (_, Regex::Empty) => self,
            _ => Regex::Diff(Box::new(self), Box::new(other)),
        }
    }

    /// `self` repeated exactly `n` times.
    pub fn repeat(&self, n: usize) -> Regex {
        Regex::concat(std::iter::repeat_n(self.clone(), n))
    }

    /// True if this node uses an extended operator (`And`/`Not`/`Diff`)
    /// anywhere, i.e. cannot be compiled by pure Thompson construction.
    pub fn has_extended_ops(&self) -> bool {
        match self {
            Regex::Empty | Regex::Epsilon | Regex::Class(_) => false,
            Regex::Concat(v) | Regex::Alt(v) => v.iter().any(Regex::has_extended_ops),
            Regex::Star(r) | Regex::Plus(r) | Regex::Opt(r) => r.has_extended_ops(),
            Regex::And(_) | Regex::Not(_) | Regex::Diff(_, _) => true,
        }
    }
}

impl std::fmt::Debug for Regex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Debug prints the structural form; Display (in `display`) prints the
        // surface syntax and needs an alphabet for symbol names.
        match self {
            Regex::Empty => write!(f, "Empty"),
            Regex::Epsilon => write!(f, "Epsilon"),
            Regex::Class(s) => write!(f, "Class{s:?}"),
            Regex::Concat(v) => f.debug_tuple("Concat").field(v).finish(),
            Regex::Alt(v) => f.debug_tuple("Alt").field(v).finish(),
            Regex::Star(r) => f.debug_tuple("Star").field(r).finish(),
            Regex::Plus(r) => f.debug_tuple("Plus").field(r).finish(),
            Regex::Opt(r) => f.debug_tuple("Opt").field(r).finish(),
            Regex::And(v) => f.debug_tuple("And").field(v).finish(),
            Regex::Not(r) => f.debug_tuple("Not").field(r).finish(),
            Regex::Diff(a, b) => f.debug_tuple("Diff").field(a).field(b).finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> Alphabet {
        Alphabet::new(["p", "q"])
    }

    #[test]
    fn concat_normalizes() {
        let a = ab();
        let p = Regex::sym(&a, a.sym("p"));
        let q = Regex::sym(&a, a.sym("q"));
        assert_eq!(
            Regex::concat([p.clone(), Regex::Epsilon, q.clone()]),
            Regex::Concat(vec![p.clone(), q.clone()])
        );
        assert_eq!(Regex::concat([p.clone(), Regex::Empty]), Regex::Empty);
        assert_eq!(Regex::concat([] as [Regex; 0]), Regex::Epsilon);
        assert_eq!(Regex::concat([p.clone()]), p.clone());
        // flattening
        let nested = Regex::concat([Regex::concat([p.clone(), q.clone()]), p.clone()]);
        assert_eq!(nested, Regex::Concat(vec![p.clone(), q.clone(), p]));
    }

    #[test]
    fn alt_normalizes() {
        let a = ab();
        let p = Regex::sym(&a, a.sym("p"));
        let q = Regex::sym(&a, a.sym("q"));
        assert_eq!(Regex::alt([Regex::Empty, p.clone()]), p.clone());
        assert_eq!(Regex::alt([] as [Regex; 0]), Regex::Empty);
        assert_eq!(Regex::alt([p.clone(), p.clone()]), p.clone());
        let nested = Regex::alt([Regex::alt([p.clone(), q.clone()]), q.clone()]);
        assert_eq!(nested, Regex::Alt(vec![p, q]));
    }

    #[test]
    fn star_normalizes() {
        let a = ab();
        let p = Regex::sym(&a, a.sym("p"));
        assert_eq!(Regex::Empty.star(), Regex::Epsilon);
        assert_eq!(Regex::Epsilon.star(), Regex::Epsilon);
        assert_eq!(p.clone().star().star(), p.clone().star());
        assert_eq!(p.clone().plus().star(), p.clone().star());
        assert_eq!(p.clone().opt().star(), p.star());
    }

    #[test]
    fn plus_opt_not_normalize() {
        let a = ab();
        let p = Regex::sym(&a, a.sym("p"));
        assert_eq!(Regex::Empty.plus(), Regex::Empty);
        assert_eq!(Regex::Epsilon.opt(), Regex::Epsilon);
        assert_eq!(p.clone().star().opt(), p.clone().star());
        assert_eq!(p.clone().not().not(), p.clone());
        assert_eq!(p.clone().opt().plus(), p.star());
    }

    #[test]
    fn empty_class_is_empty() {
        let a = ab();
        assert_eq!(Regex::class(a.empty_set()), Regex::Empty);
    }

    #[test]
    fn extended_op_detection() {
        let a = ab();
        let p = Regex::sym(&a, a.sym("p"));
        assert!(!p.clone().star().has_extended_ops());
        assert!(p.clone().not().has_extended_ops());
        assert!(Regex::concat([p.clone(), p.clone().not()]).has_extended_ops());
        assert!(p.clone().diff(p).has_extended_ops());
    }

    #[test]
    fn repeat_builds_powers() {
        let a = ab();
        let p = Regex::sym(&a, a.sym("p"));
        assert_eq!(p.repeat(0), Regex::Epsilon);
        assert_eq!(p.repeat(1), p);
        assert_eq!(
            p.repeat(3),
            Regex::Concat(vec![p.clone(), p.clone(), p.clone()])
        );
    }
}
