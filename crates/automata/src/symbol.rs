//! Interned alphabet symbols.
//!
//! A [`Symbol`] is a dense index into an [`Alphabet`](crate::alphabet::Alphabet).
//! The paper's languages range over token alphabets (HTML tags such as
//! `FORM`, `INPUT`, `/TD`), so symbols carry no character semantics — they
//! are opaque, totally ordered identifiers that print via their alphabet.

use std::fmt;

/// An interned symbol: a dense index into its owning alphabet.
///
/// Symbols are meaningful only relative to the [`Alphabet`](crate::alphabet::Alphabet) that created
/// them. Two symbols from different alphabets must never be mixed; the
/// higher-level types ([`Lang`](crate::lang::Lang),
/// [`Dfa`](crate::dfa::Dfa)) enforce this by checking alphabet identity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub(crate) u32);

impl Symbol {
    /// Construct a symbol from a raw index.
    ///
    /// Prefer [`Alphabet::sym`](crate::alphabet::Alphabet::sym); this is for
    /// loops over `0..alphabet.len()`.
    #[inline]
    pub fn from_index(ix: usize) -> Self {
        Symbol(u32::try_from(ix).expect("alphabet index exceeds u32"))
    }

    /// The dense index of this symbol within its alphabet.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_index() {
        let s = Symbol::from_index(7);
        assert_eq!(s.index(), 7);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(Symbol::from_index(1) < Symbol::from_index(2));
        assert_eq!(Symbol::from_index(3), Symbol::from_index(3));
    }

    #[test]
    fn debug_is_compact() {
        assert_eq!(format!("{:?}", Symbol::from_index(4)), "s4");
    }
}
