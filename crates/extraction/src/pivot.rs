//! Pivot maximization — Propositions 6.6, 6.7 and 6.8.
//!
//! An expression `E⟨p⟩Σ*` is *pivot-maximizable* when `E` can be written
//! `E1·q1·E2·q2·…·En·qn·E(n+1)` such that each `Ei⟨qi⟩Σ*` (and
//! `E(n+1)⟨p⟩Σ*`) is unambiguous and maximizable. Each `qi` is a **pivot**:
//! a landmark symbol the document is anchored on (in the paper's HTML
//! example, `FORM` and `INPUT`).
//!
//! Composition facts:
//! * Proposition 6.6 — unambiguous ∘ unambiguous ⇒ `(E1·q·E2)⟨p⟩Σ*`
//!   unambiguous;
//! * Proposition 6.7 — maximal ∘ maximal ⇒ maximal;
//! * Proposition 6.8 — maximizing every piece with Algorithm 6.2 and
//!   concatenating yields a maximal unambiguous generalization of the
//!   original.
//!
//! Pivot maximization is *strictly more powerful* than plain
//! left-filtering: only the tail must have a bounded marker count, so the
//! whole left context may contain unboundedly many `p`'s (e.g. the paper's
//! final Section 7 expression matches any number of earlier `INPUT`s
//! before the anchored `FORM`).

use crate::error::ExtractionError;
use crate::expr::ExtractionExpr;
use crate::left_filter::left_filter_maximize_lang;
use rextract_automata::{Alphabet, Lang, Regex, Symbol};

/// A pivot decomposition `E1·q1·…·En·qn·E(n+1) ⟨p⟩ Σ*`.
#[derive(Clone)]
pub struct PivotExpr {
    alphabet: Alphabet,
    /// `(Ei, qi)` pairs, in order.
    segments: Vec<(Lang, Symbol)>,
    /// `E(n+1)` — the part between the last pivot and the marker.
    tail: Lang,
    /// The marked symbol `p`.
    marker: Symbol,
}

impl PivotExpr {
    /// Build from explicit parts.
    pub fn new(
        alphabet: &Alphabet,
        segments: Vec<(Lang, Symbol)>,
        tail: Lang,
        marker: Symbol,
    ) -> PivotExpr {
        PivotExpr {
            alphabet: alphabet.clone(),
            segments,
            tail,
            marker,
        }
    }

    /// Heuristic decomposition of a top-level concatenation: scan parts
    /// left to right; whenever a part is a single symbol `q` and the
    /// segment accumulated so far is unambiguous and bounded with respect
    /// to `q`, close the segment with pivot `q`. Leftover parts form the
    /// tail.
    ///
    /// Returns `None` when the regex is not a concatenation shape at all
    /// (a bare symbol counts as a trivial concatenation).
    pub fn decompose(alphabet: &Alphabet, regex: &Regex, marker: Symbol) -> Option<PivotExpr> {
        let parts: Vec<Regex> = match regex {
            Regex::Concat(v) => v.clone(),
            other => vec![other.clone()],
        };
        let mut segments: Vec<(Lang, Symbol)> = Vec::new();
        let mut current: Vec<Regex> = Vec::new();
        for part in parts {
            if let Some(q) = singleton_symbol(&part) {
                let seg = Lang::from_regex(alphabet, &Regex::concat(current.clone()));
                if segment_ok(&seg, q) {
                    segments.push((seg, q));
                    current.clear();
                    continue;
                }
            }
            current.push(part);
        }
        let tail = Lang::from_regex(alphabet, &Regex::concat(current));
        Some(PivotExpr {
            alphabet: alphabet.clone(),
            segments,
            tail,
            marker,
        })
    }

    /// The alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The `(Ei, qi)` segments.
    pub fn segments(&self) -> &[(Lang, Symbol)] {
        &self.segments
    }

    /// The tail `E(n+1)`.
    pub fn tail(&self) -> &Lang {
        &self.tail
    }

    /// The marker `p`.
    pub fn marker(&self) -> Symbol {
        self.marker
    }

    /// Reassemble the (unmaximized) extraction expression
    /// `E1·q1·…·En·qn·E(n+1) ⟨p⟩ Σ*`.
    pub fn to_expr(&self) -> ExtractionExpr {
        let mut parts: Vec<Lang> = self.segments.iter().map(|(l, _)| l.clone()).collect();
        parts.push(self.tail.clone());
        self.assemble(&parts)
    }

    /// Pivot maximization (Proposition 6.8): left-filter-maximize every
    /// segment against its pivot and the tail against the marker, then
    /// concatenate. The result is maximal and unambiguous and generalizes
    /// [`PivotExpr::to_expr`].
    ///
    /// ```
    /// use rextract_automata::{Alphabet, Lang};
    /// use rextract_extraction::PivotExpr;
    ///
    /// // r · q · r ⟨p⟩ Σ*, pivoting on q.
    /// let sigma = Alphabet::new(["p", "q", "r"]);
    /// let pe = PivotExpr::new(
    ///     &sigma,
    ///     vec![(Lang::parse(&sigma, "r").unwrap(), sigma.sym("q"))],
    ///     Lang::parse(&sigma, "r").unwrap(),
    ///     sigma.sym("p"),
    /// );
    /// let maximal = pe.maximize().unwrap();
    /// assert!(maximal.is_maximal());
    /// ```
    pub fn maximize(&self) -> Result<ExtractionExpr, ExtractionError> {
        let pieces = self.segments.iter().map(|(l, q)| (l, *q));
        let maxed = maximize_pieces(pieces.chain([(&self.tail, self.marker)]))?;
        Ok(self.assemble(&maxed))
    }

    /// `parts[0]·q1·…·parts[n−1]·qn·parts[n] ⟨p⟩ Σ*`: the pivots chain
    /// the `n` segment languages and the tail in one construction.
    fn assemble(&self, parts: &[Lang]) -> ExtractionExpr {
        let pivots: Vec<Symbol> = self.segments.iter().map(|(_, q)| *q).collect();
        ExtractionExpr::from_langs(
            Lang::chain(&self.alphabet, parts, &pivots),
            self.marker,
            Lang::universe(&self.alphabet),
        )
    }
}

/// The piecewise step of Proposition 6.8, shared by pivot and tuple
/// maximization: left-filter-maximize each piece against the symbol
/// after it (Algorithm 6.2). An error names the failing piece by its
/// position.
pub(crate) fn maximize_pieces<'a>(
    pieces: impl IntoIterator<Item = (&'a Lang, Symbol)>,
) -> Result<Vec<Lang>, ExtractionError> {
    pieces
        .into_iter()
        .enumerate()
        .map(|(index, (piece, next))| {
            left_filter_maximize_lang(piece, next).map_err(|e| ExtractionError::PivotSegment {
                index,
                source: Box::new(e),
            })
        })
        .collect()
}

impl std::fmt::Debug for PivotExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PivotExpr(")?;
        for (seg, q) in &self.segments {
            write!(f, "{} {} · ", seg.to_text(), self.alphabet.name(*q))?;
        }
        write!(
            f,
            "{} <{}> .*)",
            self.tail.to_text(),
            self.alphabet.name(self.marker)
        )
    }
}

/// If the regex is a single-symbol class, return the symbol.
fn singleton_symbol(r: &Regex) -> Option<Symbol> {
    match r {
        Regex::Class(s) if s.len() == 1 => s.first(),
        _ => None,
    }
}

/// Precondition of Algorithm 6.2 for a segment: `seg⟨q⟩Σ*` unambiguous
/// (i.e. `seg/(q·Σ*) ∩ seg = ∅`) and bounded `q`-count. Shared with the
/// learning layer, which validates candidate pivots the same way.
pub fn segment_ok(seg: &Lang, q: Symbol) -> bool {
    let sigma = seg.alphabet();
    let q_sigma = Lang::sym(sigma, q).concat(&Lang::universe(sigma));
    seg.right_quotient(&q_sigma).intersect(seg).is_empty() && seg.max_marker_count(q).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maximality::MaximalityStatus;

    fn ab() -> Alphabet {
        Alphabet::new(["p", "q", "r"])
    }

    fn lang(s: &str) -> Lang {
        Lang::parse(&ab(), s).unwrap()
    }

    #[test]
    fn proposition_6_6_composition_preserves_unambiguity() {
        let a = ab();
        // E1⟨q⟩Σ* unambiguous, E2⟨p⟩Σ* unambiguous ⇒ (E1·q·E2)⟨p⟩Σ* too.
        let cases = [
            ("r*", "q", "r*", "p"),
            ("[^q]*", "q", "[^p]*", "p"),
            ("p*", "q", "q*", "p"),
        ];
        for (e1, q, e2, p) in cases {
            let e1x = ExtractionExpr::parse(&a, &format!("{e1} <{q}> .*")).unwrap();
            let e2x = ExtractionExpr::parse(&a, &format!("{e2} <{p}> .*")).unwrap();
            assert!(e1x.is_unambiguous() && e2x.is_unambiguous(), "bad case");
            let composed = ExtractionExpr::parse(&a, &format!("{e1} {q} {e2} <{p}> .*")).unwrap();
            assert!(
                composed.is_unambiguous(),
                "composition broke unambiguity: {e1} {q} {e2} <{p}>"
            );
        }
    }

    #[test]
    fn proposition_6_7_composition_preserves_maximality() {
        let a = ab();
        // Maximal pieces: [^q]*⟨q⟩Σ* and [^p]*⟨p⟩Σ*.
        let composed = ExtractionExpr::parse(&a, "[^q]* q [^p]* <p> .*").unwrap();
        assert_eq!(composed.maximality(), MaximalityStatus::Maximal);
        // Same with q = p (the proposition allows it).
        let composed = ExtractionExpr::parse(&a, "[^p]* p [^p]* <p> .*").unwrap();
        assert_eq!(composed.maximality(), MaximalityStatus::Maximal);
    }

    #[test]
    fn maximize_simple_two_pivot_expression() {
        let a = ab();
        // E = r · q · r ⟨p⟩ Σ* with pivot q: segments ("r", q), tail "r".
        let pe = PivotExpr::new(&a, vec![(lang("r"), a.sym("q"))], lang("r"), a.sym("p"));
        let input = pe.to_expr();
        let out = pe.maximize().unwrap();
        assert!(out.generalizes(&input));
        assert!(out.is_unambiguous());
        assert_eq!(out.maximality(), MaximalityStatus::Maximal);
    }

    #[test]
    fn pivot_handles_unbounded_marker_in_prefix() {
        let a = ab();
        // E = (p|r)* q r ⟨p⟩ Σ*: plain left-filtering fails (unbounded p in
        // E), but with pivot q the segments are fine.
        let pe = PivotExpr::new(
            &a,
            vec![(lang("(p | r)*"), a.sym("q"))],
            lang("r"),
            a.sym("p"),
        );
        let input = pe.to_expr();
        // Plain left-filtering on the whole left language must fail…
        let whole_left = input.left().clone();
        assert!(matches!(
            crate::left_filter::left_filter_maximize_lang(&whole_left, a.sym("p")),
            Err(ExtractionError::UnboundedMarkers)
        ));
        // …while pivot maximization succeeds and is maximal.
        let out = pe.maximize().unwrap();
        assert!(out.generalizes(&input));
        assert_eq!(out.maximality(), MaximalityStatus::Maximal);
    }

    #[test]
    fn maximize_reports_failing_segment() {
        let a = ab();
        // Segment (q·Σ-ish with unbounded q) breaks the precondition:
        // (r q)* has unbounded q-count.
        let pe = PivotExpr::new(
            &a,
            vec![(lang("(r q)*"), a.sym("q"))],
            lang("r*"),
            a.sym("p"),
        );
        match pe.maximize() {
            Err(ExtractionError::PivotSegment { index, source }) => {
                assert_eq!(index, 0);
                assert_eq!(*source, ExtractionError::UnboundedMarkers);
            }
            other => panic!("expected PivotSegment error, got {other:?}"),
        }
    }

    #[test]
    fn decompose_finds_pivots_in_concatenation() {
        let a = ab();
        // r q r r q r ⟨p⟩: on a literal every symbol qualifies as a pivot
        // (each accumulated segment is empty, trivially unambiguous and
        // bounded), so greedy decomposition anchors on all six.
        let re = Regex::parse(&a, "r q r r q r").unwrap();
        let pe = PivotExpr::decompose(&a, &re, a.sym("p")).unwrap();
        assert_eq!(pe.segments().len(), 6);
        let pivots: Vec<&str> = pe.segments().iter().map(|(_, q)| a.name(*q)).collect();
        assert_eq!(pivots, ["r", "q", "r", "r", "q", "r"]);
        assert_eq!(pe.tail(), &lang("~"));
        let out = pe.maximize().unwrap();
        assert_eq!(out.maximality(), MaximalityStatus::Maximal);
        // The maximized form generalizes the literal input.
        assert!(out.generalizes(&pe.to_expr()));
    }

    #[test]
    fn decompose_skips_invalid_pivot_positions() {
        let a = ab();
        // q* q: the q-leaf follows q*, and segment "q*" with pivot q makes
        // q*⟨q⟩Σ* ambiguous — so that q must not be used as a pivot.
        let re = Regex::parse(&a, "q* q").unwrap();
        let pe = PivotExpr::decompose(&a, &re, a.sym("p")).unwrap();
        assert!(pe.segments().is_empty(), "q after q* must not pivot");
        assert_eq!(pe.tail(), &lang("q* q"));
        // With a trailing r the r *is* a legitimate pivot (its segment has
        // no r at all), so decomposition anchors on it.
        let re = Regex::parse(&a, "q* q r").unwrap();
        let pe = PivotExpr::decompose(&a, &re, a.sym("p")).unwrap();
        assert_eq!(pe.segments().len(), 1);
        assert_eq!(pe.segments()[0].1, a.sym("r"));
    }

    #[test]
    fn to_expr_round_trips_structure() {
        let a = ab();
        let pe = PivotExpr::new(&a, vec![(lang("r*"), a.sym("q"))], lang("~"), a.sym("p"));
        let ex = pe.to_expr();
        assert_eq!(ex.left(), &lang("r* q"));
        assert_eq!(ex.marker(), a.sym("p"));
    }
}
