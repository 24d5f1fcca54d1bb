//! Multi-marker extraction expressions — tuple extraction.
//!
//! The paper marks a single occurrence; real wrappers usually need a
//! *tuple* per page (product name **and** price; the form **and** its
//! text field). This module extends the model to
//!
//! ```text
//! E0 ⟨p1⟩ E1 ⟨p2⟩ E2 … ⟨pk⟩ Ek
//! ```
//!
//! with `k` marked occurrences. The paper's single-marker theory lifts
//! cleanly:
//!
//! * **Unambiguity** reduces to `k` single-marker checks: the multi
//!   expression is unambiguous iff for every `i` the *collapsed*
//!   expression `(E0·p1·…·E(i−1)) ⟨pi⟩ (Ei·p(i+1)·…·Ek)` is unambiguous.
//!   (⇐: two distinct tuples on one string first differ at some `i`,
//!   giving two splits of collapsed `i`; ⇒: two splits of collapsed `i`
//!   extend to two tuples.)
//! * **Extraction** runs the linear one-pass engine once per marker:
//!   O(k·|doc|).
//! * **Generalization**: when `Ek = Σ*` and every earlier segment
//!   satisfies Algorithm 6.2's preconditions against its *following*
//!   marker, maximizing each segment componentwise preserves unambiguity
//!   (Proposition 6.6 inductively, plus the fact that shrinking a side
//!   never creates splits). Whether the result is globally maximal is the
//!   multi-marker analogue of the paper's open problem; we guarantee and
//!   test componentwise-maximal + unambiguous + generalizes.

use crate::error::ExtractionError;
use crate::expr::ExtractionExpr;
use crate::extract::{ExtractFailure, ExtractScratch, Extractor};
use crate::pivot::maximize_pieces;
use rextract_automata::{Alphabet, Lang, Symbol};

/// A multi-marker extraction expression `E0⟨p1⟩E1⟨p2⟩…⟨pk⟩Ek`.
#[derive(Clone)]
pub struct MultiExtractionExpr {
    alphabet: Alphabet,
    /// `k+1` segment languages.
    segments: Vec<Lang>,
    /// `k` markers.
    markers: Vec<Symbol>,
}

impl MultiExtractionExpr {
    /// Build from parts. `segments.len()` must be `markers.len() + 1` and
    /// at least one marker is required.
    pub fn new(alphabet: &Alphabet, segments: Vec<Lang>, markers: Vec<Symbol>) -> Self {
        assert!(!markers.is_empty(), "need at least one marker");
        assert_eq!(
            segments.len(),
            markers.len() + 1,
            "need exactly markers+1 segments"
        );
        MultiExtractionExpr {
            alphabet: alphabet.clone(),
            segments,
            markers,
        }
    }

    /// Parse `"E0 <p1> E1 <p2> E2"` textual form (segments may be empty).
    pub fn parse(alphabet: &Alphabet, text: &str) -> Result<Self, ExtractionError> {
        let mut segments = Vec::new();
        let mut markers = Vec::new();
        let mut rest = text;
        loop {
            match rest.find('<') {
                Some(open) => {
                    let close = rest[open..]
                        .find('>')
                        .map(|c| open + c)
                        .ok_or_else(|| ExtractionError::MarkerSyntax(text.to_string()))?;
                    let seg_text = &rest[..open];
                    let marker_name = rest[open + 1..close].trim();
                    let marker = alphabet.try_sym(marker_name).ok_or_else(|| {
                        ExtractionError::Regex(format!("unknown marker {marker_name:?}"))
                    })?;
                    segments.push(parse_segment(alphabet, seg_text)?);
                    markers.push(marker);
                    rest = &rest[close + 1..];
                }
                None => {
                    segments.push(parse_segment(alphabet, rest)?);
                    break;
                }
            }
        }
        if markers.is_empty() {
            return Err(ExtractionError::MarkerSyntax(text.to_string()));
        }
        Ok(MultiExtractionExpr {
            alphabet: alphabet.clone(),
            segments,
            markers,
        })
    }

    /// The alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of markers `k`.
    pub fn arity(&self) -> usize {
        self.markers.len()
    }

    /// The markers, in order.
    pub fn markers(&self) -> &[Symbol] {
        &self.markers
    }

    /// The segments, in order (`k+1` of them).
    pub fn segments(&self) -> &[Lang] {
        &self.segments
    }

    /// The parsed language `L(E0·p1·E1·…·pk·Ek)`.
    pub fn language(&self) -> Lang {
        Lang::chain(&self.alphabet, &self.segments, &self.markers)
    }

    /// All `k` collapsed single-marker expressions
    /// `(E0·p1·…·E(i−1)) ⟨pi⟩ (Ei·p(i+1)·…·Ek)`, in marker order. Each side
    /// is one [`Lang::chain`], so a collapsed expression costs two
    /// automaton constructions whatever `k` is.
    pub fn collapsed_all(&self) -> Vec<ExtractionExpr> {
        (0..self.arity())
            .map(|i| {
                ExtractionExpr::from_langs(
                    Lang::chain(&self.alphabet, &self.segments[..=i], &self.markers[..i]),
                    self.markers[i],
                    Lang::chain(
                        &self.alphabet,
                        &self.segments[i + 1..],
                        &self.markers[i + 1..],
                    ),
                )
            })
            .collect()
    }

    /// Unambiguity: every parsed string admits exactly one marker tuple.
    pub fn is_unambiguous(&self) -> bool {
        self.collapsed_all().iter().all(|c| c.is_unambiguous())
    }

    /// Compile the `k` collapsed extractors for repeated extraction.
    /// Equivalent to [`MultiExtractor::compile`].
    pub fn compile(&self) -> MultiExtractor {
        MultiExtractor::compile(self)
    }

    /// Extract the unique marker tuple from `doc`.
    ///
    /// One-shot convenience: compiles all `k` extractors **per call**.
    /// For repeated extraction compile once with
    /// [`MultiExtractionExpr::compile`] and reuse a scratch through
    /// [`MultiExtractor::extract_into`].
    pub fn extract(&self, doc: &[Symbol]) -> Result<Vec<usize>, ExtractFailure> {
        self.compile().extract(doc)
    }

    /// Componentwise order: `other ≼ self` iff same markers and every
    /// segment language is included. (The natural lift of Definition 4.4.)
    pub fn generalizes(&self, other: &MultiExtractionExpr) -> bool {
        self.markers == other.markers
            && self
                .segments
                .iter()
                .zip(&other.segments)
                .all(|(s, o)| o.is_subset_of(s))
    }

    /// Componentwise maximization (see the [module docs](self)): requires
    /// the final segment to be `Σ*`; left-filter-maximizes segment `i`
    /// against marker `p(i+1)`. The result is unambiguous and generalizes
    /// `self`.
    pub fn maximize(&self) -> Result<MultiExtractionExpr, ExtractionError> {
        let univ = Lang::universe(&self.alphabet);
        assert_eq!(
            self.segments.last().expect("segments non-empty"),
            &univ,
            "componentwise maximization requires the final segment to be Σ*"
        );
        // Zipping stops at the last marker, so the Σ* tail is left as is.
        let mut segments = maximize_pieces(self.segments.iter().zip(self.markers.iter().copied()))?;
        segments.push(univ);
        Ok(MultiExtractionExpr {
            alphabet: self.alphabet.clone(),
            segments,
            markers: self.markers.clone(),
        })
    }

    /// Render as `E0 <p1> E1 … <pk> Ek`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (i, seg) in self.segments.iter().enumerate() {
            let seg_text = seg.to_text();
            if !seg_text.is_empty() {
                out.push_str(&seg_text);
                out.push(' ');
            }
            if i < self.markers.len() {
                out.push('<');
                out.push_str(self.alphabet.name(self.markers[i]));
                out.push_str("> ");
            }
        }
        out.trim_end().to_string()
    }
}

/// The `k` collapsed single-marker [`Extractor`]s of a
/// [`MultiExtractionExpr`], compiled once. Tuple extraction is then
/// O(k·|doc|) and allocation-free at steady state when the caller reuses
/// an [`ExtractScratch`] and an output buffer via
/// [`MultiExtractor::extract_into`].
pub struct MultiExtractor {
    extractors: Vec<Extractor>,
}

impl MultiExtractor {
    /// Compile all collapsed expressions (two automaton constructions
    /// each, via [`MultiExtractionExpr::collapsed_all`]).
    pub fn compile(expr: &MultiExtractionExpr) -> MultiExtractor {
        MultiExtractor {
            extractors: expr
                .collapsed_all()
                .iter()
                .map(Extractor::compile)
                .collect(),
        }
    }

    /// Number of markers `k`.
    pub fn arity(&self) -> usize {
        self.extractors.len()
    }

    /// The compiled per-marker extractors, in marker order.
    pub fn extractors(&self) -> &[Extractor] {
        &self.extractors
    }

    /// Extract the tuple into `out` (cleared first), reusing `scratch`
    /// for every per-marker scan. Allocation-free at steady state on the
    /// success and no-match paths.
    pub fn extract_into(
        &self,
        doc: &[Symbol],
        scratch: &mut ExtractScratch,
        out: &mut Vec<usize>,
    ) -> Result<(), ExtractFailure> {
        out.clear();
        for x in &self.extractors {
            out.push(x.extract_with(doc, scratch)?.position);
        }
        debug_assert!(out.windows(2).all(|w| w[0] < w[1]), "tuple must be ordered");
        Ok(())
    }

    /// Extract the tuple, allocating a fresh scratch and output; repeated
    /// extraction should reuse both through [`MultiExtractor::extract_into`].
    pub fn extract(&self, doc: &[Symbol]) -> Result<Vec<usize>, ExtractFailure> {
        let mut out = Vec::with_capacity(self.arity());
        self.extract_into(doc, &mut ExtractScratch::new(), &mut out)?;
        Ok(out)
    }
}

impl std::fmt::Debug for MultiExtractionExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MultiExtractionExpr({})", self.to_text())
    }
}

fn parse_segment(alphabet: &Alphabet, text: &str) -> Result<Lang, ExtractionError> {
    if text.trim().is_empty() {
        Ok(Lang::epsilon(alphabet))
    } else {
        Lang::parse(alphabet, text).map_err(|e| ExtractionError::Regex(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> Alphabet {
        Alphabet::new(["p", "q", "r"])
    }

    fn m(s: &str) -> MultiExtractionExpr {
        MultiExtractionExpr::parse(&ab(), s).unwrap()
    }

    #[test]
    fn parse_and_render() {
        let e = m("q* <p> r <q> .*");
        assert_eq!(e.arity(), 2);
        assert_eq!(e.markers(), &[ab().sym("p"), ab().sym("q")]);
        assert_eq!(e.segments().len(), 3);
        // round trip
        let e2 = MultiExtractionExpr::parse(&ab(), &e.to_text()).unwrap();
        assert_eq!(e.language(), e2.language());
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            MultiExtractionExpr::parse(&ab(), "p q"),
            Err(ExtractionError::MarkerSyntax(_))
        ));
        assert!(matches!(
            MultiExtractionExpr::parse(&ab(), "<z>"),
            Err(ExtractionError::Regex(_))
        ));
    }

    #[test]
    fn single_marker_degenerates_to_extraction_expr() {
        let multi = m("q* <p> q*");
        let single = ExtractionExpr::parse(&ab(), "q* <p> q*").unwrap();
        assert_eq!(multi.language(), single.language());
        assert_eq!(multi.is_unambiguous(), single.is_unambiguous());
        let a = ab();
        let doc = a.str_to_syms("q p q").unwrap();
        assert_eq!(multi.extract(&doc).unwrap(), vec![1]);
    }

    #[test]
    fn tuple_extraction() {
        let a = ab();
        // first p, then first q after it, anything else after.
        let e = m("[^p]* <p> [^q]* <q> .*");
        assert!(e.is_unambiguous());
        let doc = a.str_to_syms("r r p r r q p q").unwrap();
        assert_eq!(e.extract(&doc).unwrap(), vec![2, 5]);
    }

    #[test]
    fn ambiguity_detected_at_any_marker() {
        // Second marker side ambiguous: q can slide.
        let e = m("[^p]* <p> q* <q> q*");
        assert!(!e.is_unambiguous());
        // And a fully clean one.
        let e = m("[^p]* <p> [^q]* <q> [^q]*");
        assert!(e.is_unambiguous());
    }

    #[test]
    fn extraction_failures_propagate() {
        let a = ab();
        let e = m("[^p]* <p> [^q]* <q> .*");
        // no q after the p
        let doc = a.str_to_syms("r p r r").unwrap();
        assert_eq!(e.extract(&doc), Err(ExtractFailure::NoMatch));
        // ambiguous expression reports AmbiguousMatch
        let e = m("q* <q> q* <q> q*");
        let doc = a.str_to_syms("q q q").unwrap();
        assert!(matches!(
            e.extract(&doc),
            Err(ExtractFailure::AmbiguousMatch(_))
        ));
    }

    #[test]
    fn componentwise_maximization_contract() {
        let input = m("r <p> r r <q> .*");
        assert!(input.is_unambiguous());
        let out = input.maximize().unwrap();
        assert!(out.is_unambiguous(), "maximized must stay unambiguous");
        assert!(out.generalizes(&input));
        // Each collapsed piece against Σ* must be maximal (componentwise
        // guarantee).
        for (i, seg) in out.segments()[..out.segments().len() - 1]
            .iter()
            .enumerate()
        {
            let piece =
                ExtractionExpr::from_langs(seg.clone(), out.markers()[i], Lang::universe(&ab()));
            assert!(piece.is_maximal(), "segment {i} not maximal");
        }
    }

    #[test]
    fn maximized_tuple_survives_document_change() {
        let a = ab();
        let input = m("r <p> r <q> .*");
        let out = input.maximize().unwrap();
        // Original document: r p r q …
        let doc = a.str_to_syms("r p r q r").unwrap();
        assert_eq!(out.extract(&doc).unwrap(), vec![1, 3]);
        // Redesigned: extra rubble before each anchor.
        let doc = a.str_to_syms("r r r p q r q r").unwrap();
        let got = out.extract(&doc).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(doc[got[0]], a.sym("p"));
        assert_eq!(doc[got[1]], a.sym("q"));
        // The unmaximized expression fails on it.
        assert!(input.extract(&doc).is_err());
    }

    #[test]
    fn collapsed_all_agrees_with_written_out_expressions() {
        let e = m("q* <p> r <q> [^r]* <r> .*");
        let written = [
            "q* <p> r q [^r]* r .*",
            "q* p r <q> [^r]* r .*",
            "q* p r q [^r]* <r> .*",
        ];
        let all = e.collapsed_all();
        assert_eq!(all.len(), written.len());
        for (i, (c, text)) in all.iter().zip(written).enumerate() {
            let want = ExtractionExpr::parse(&ab(), text).unwrap();
            assert_eq!(c.left(), want.left(), "left mismatch at marker {i}");
            assert_eq!(c.marker(), want.marker());
            assert_eq!(c.right(), want.right(), "right mismatch at marker {i}");
        }
    }

    #[test]
    fn generalizes_is_componentwise() {
        let small = m("r <p> r <q> r");
        let big = m("r* <p> r* <q> .*");
        assert!(big.generalizes(&small));
        assert!(!small.generalizes(&big));
        // different markers are incomparable
        let other = m("r <q> r <p> r");
        assert!(!big.generalizes(&other));
    }

    #[test]
    #[should_panic(expected = "final segment to be Σ*")]
    fn maximize_requires_universal_tail() {
        let _ = m("r <p> r <q> r").maximize();
    }

    #[test]
    fn compiled_multi_extractor_matches_one_shot() {
        let a = ab();
        let e = m("[^p]* <p> [^q]* <q> .*");
        let compiled = e.compile();
        assert_eq!(compiled.arity(), 2);
        let mut scratch = ExtractScratch::new();
        let mut out = Vec::new();
        for d in ["r r p r r q p q", "r p q", "r p r r", "p q"] {
            let doc = a.str_to_syms(d).unwrap();
            let one_shot = e.extract(&doc);
            match compiled.extract_into(&doc, &mut scratch, &mut out) {
                Ok(()) => assert_eq!(one_shot.as_deref(), Ok(out.as_slice()), "{d}"),
                Err(err) => assert_eq!(one_shot, Err(err), "{d}"),
            }
            assert_eq!(compiled.extract(&doc), e.extract(&doc), "{d}");
        }
    }
}
