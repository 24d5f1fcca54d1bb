//! The left-to-right merging heuristic — Section 7.
//!
//! > "…a simple left-to-right merging heuristic, which tries to find a
//! > sequence of tags common to the two strings and takes the union of
//! > everything in-between."
//!
//! Given marked samples (same target symbol), the heuristic:
//!
//! 1. computes the common subsequence of the sample *prefixes* (the parts
//!    before the target) — candidate **pivots**;
//! 2. embeds it leftmost into every sample and takes, for each pivot, the
//!    union of the literal gap strings as the segment language (one
//!    [`Lang::words`] trie, not a fold of unions);
//! 3. keeps a pivot only if its segment satisfies the left-filtering
//!    precondition (`seg⟨q⟩Σ*` unambiguous with bounded `q`-count) —
//!    otherwise the pivot symbol is folded into the surrounding gap;
//! 4. the gap between the last pivot and the target becomes the tail.
//!
//! The result is a [`PivotExpr`] `E1·q1·…·En·qn·tail ⟨p⟩ Σ*` that parses
//! every training sample and is *geared towards the pivot maximization
//! framework* (the paper's phrase) — `PivotExpr::maximize` finishes the
//! job.
//!
//! One walk serves both merges: [`merge_samples`] lets every anchor try
//! to become a pivot, and the DTD-guided merge of [`crate::dtd`] passes
//! an eligibility predicate that admits only elements the DTD declares
//! non-repeatable (step 3 then applies to the anchors it admits).

use crate::align::{common_subsequence, leftmost_embedding};
use crate::sample::MarkedSeq;
use rextract_automata::{Alphabet, Lang, Symbol};
use rextract_extraction::pivot::segment_ok;
use rextract_extraction::PivotExpr;
use std::fmt;

/// Errors from [`merge_samples`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LearnError {
    /// No training samples were given.
    NoSamples,
    /// Samples disagree on the target symbol.
    TargetMismatch(String, String),
    /// A sample uses a name absent from the alphabet.
    UnknownSymbol(String),
}

impl fmt::Display for LearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnError::NoSamples => write!(f, "no training samples"),
            LearnError::TargetMismatch(a, b) => {
                write!(f, "samples mark different targets: {a} vs {b}")
            }
            LearnError::UnknownSymbol(s) => write!(f, "symbol {s:?} not in alphabet"),
        }
    }
}

impl std::error::Error for LearnError {}

/// Run the merging heuristic over `samples`, producing a pivot-form
/// extraction expression over `alphabet`.
pub fn merge_samples(alphabet: &Alphabet, samples: &[MarkedSeq]) -> Result<PivotExpr, LearnError> {
    merge_walk(alphabet, samples, |_| true)
}

/// The anchor walk behind [`merge_samples`] and the DTD-guided merge
/// ([`crate::dtd::merge_samples_with_dtd`]): an anchor becomes a pivot
/// only if `eligible` accepts its name and its segment passes
/// [`segment_ok`].
pub(crate) fn merge_walk(
    alphabet: &Alphabet,
    samples: &[MarkedSeq],
    eligible: impl Fn(&str) -> bool,
) -> Result<PivotExpr, LearnError> {
    let first = samples.first().ok_or(LearnError::NoSamples)?;
    let target_name = first.target_name();
    for s in samples {
        if s.target_name() != target_name {
            return Err(LearnError::TargetMismatch(
                target_name.to_string(),
                s.target_name().to_string(),
            ));
        }
    }
    let marker = symbol(alphabet, target_name)?;
    // Each prefix as symbols, converted once.
    let words: Vec<Vec<Symbol>> = samples
        .iter()
        .map(|s| s.prefix().iter().map(|n| symbol(alphabet, n)).collect())
        .collect::<Result<_, _>>()?;

    // Candidate anchors: common subsequence of the prefixes.
    let prefixes: Vec<&[String]> = samples.iter().map(|s| s.prefix()).collect();
    let anchors = common_subsequence(&prefixes);

    // Leftmost embedding of the anchors into each prefix.
    let embeddings: Vec<Vec<usize>> = prefixes
        .iter()
        .map(|p| leftmost_embedding(&anchors, p).expect("common subsequence must embed"))
        .collect();

    // Walk anchors left to right, validating each as a pivot. A segment
    // is the finite union of the samples' literal gaps before the anchor.
    let mut segments: Vec<(Lang, Symbol)> = Vec::new();
    let mut gap_start: Vec<usize> = vec![0; samples.len()];
    for (j, anchor) in anchors.iter().enumerate() {
        if !eligible(anchor) {
            continue;
        }
        let q = words[0][embeddings[0][j]];
        let gaps = words
            .iter()
            .zip(&embeddings)
            .zip(&gap_start)
            .map(|((w, emb), &start)| &w[start..emb[j]]);
        let seg = Lang::words(alphabet, gaps);
        if segment_ok(&seg, q) {
            segments.push((seg, q));
            for (start, emb) in gap_start.iter_mut().zip(&embeddings) {
                *start = emb[j] + 1;
            }
        }
        // else: anchor folded into the ongoing gap — gap_start unchanged.
    }

    // Tail: the gaps between the last accepted pivot and the target.
    let tails = words.iter().zip(&gap_start).map(|(w, &start)| &w[start..]);
    let tail = Lang::words(alphabet, tails);
    Ok(PivotExpr::new(alphabet, segments, tail, marker))
}

/// The symbol `name` stands for, or [`LearnError::UnknownSymbol`].
pub(crate) fn symbol(alphabet: &Alphabet, name: &str) -> Result<Symbol, LearnError> {
    alphabet
        .try_sym(name)
        .ok_or_else(|| LearnError::UnknownSymbol(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alphabet() -> Alphabet {
        Alphabet::new([
            "P", "H1", "/H1", "FORM", "/FORM", "INPUT", "TABLE", "/TABLE", "TR", "/TR", "TD",
            "/TD", "A", "/A", "IMG", "TH", "/TH", "BR",
        ])
    }

    fn seq(s: &str) -> MarkedSeq {
        MarkedSeq::parse(s).unwrap()
    }

    #[test]
    fn single_sample_yields_literal_pivot_chain() {
        let a = alphabet();
        let s = seq("FORM INPUT <INPUT> /FORM");
        let pe = merge_samples(&a, std::slice::from_ref(&s)).unwrap();
        let expr = pe.to_expr();
        // Must parse the sample with the right split.
        let word: Vec<_> = s.names.iter().map(|n| a.sym(n)).collect();
        assert_eq!(expr.extract(&word).map(|e| e.position), Ok(s.target),);
    }

    #[test]
    fn merges_the_papers_two_documents() {
        let a = alphabet();
        // Section 7's two tag sequences, target = 2nd INPUT of the form.
        let doc1 = seq("P H1 /H1 P FORM INPUT <INPUT>");
        let doc2 = seq("TABLE TR TD /TD /TR TR TD /TD /TR FORM TR TD INPUT /TD TD <INPUT>");
        let pe = merge_samples(&a, &[doc1.clone(), doc2.clone()]).unwrap();
        // FORM and INPUT must be among the pivots.
        let pivot_names: Vec<&str> = pe.segments().iter().map(|(_, q)| a.name(*q)).collect();
        assert!(pivot_names.contains(&"FORM"), "pivots: {pivot_names:?}");
        assert!(pivot_names.contains(&"INPUT"), "pivots: {pivot_names:?}");
        // The merged expression parses both documents at the right target.
        let expr = pe.to_expr();
        for doc in [&doc1, &doc2] {
            let word: Vec<_> = doc.names.iter().map(|n| a.sym(n)).collect();
            assert_eq!(
                expr.extract(&word).map(|e| e.position),
                Ok(doc.target),
                "failed on {}",
                doc.to_text()
            );
        }
        // And it is unambiguous, like the paper's Expression (10).
        assert!(expr.is_unambiguous());
    }

    #[test]
    fn merged_expression_is_pivot_maximizable_on_paper_docs() {
        let a = alphabet();
        let doc1 = seq("P H1 /H1 P FORM INPUT <INPUT>");
        let doc2 = seq("TABLE TR TD /TD /TR TR TD /TD /TR FORM TR TD INPUT /TD TD <INPUT>");
        let pe = merge_samples(&a, &[doc1, doc2]).unwrap();
        let maximal = pe.maximize().expect("pivot maximization applies");
        assert!(maximal.is_maximal());
        assert!(maximal.generalizes(&pe.to_expr()));
    }

    #[test]
    fn identical_samples_merge_to_themselves() {
        let a = alphabet();
        let s = seq("P FORM <INPUT> /FORM");
        let pe = merge_samples(&a, &[s.clone(), s.clone()]).unwrap();
        let expr = pe.to_expr();
        let word: Vec<_> = s.names.iter().map(|n| a.sym(n)).collect();
        assert!(expr.parses(&word));
    }

    #[test]
    fn error_cases() {
        let a = alphabet();
        assert!(matches!(merge_samples(&a, &[]), Err(LearnError::NoSamples)));
        let s1 = seq("FORM <INPUT>");
        let s2 = seq("FORM INPUT <TD>");
        match merge_samples(&a, &[s1, s2]) {
            Err(LearnError::TargetMismatch(x, y)) => {
                assert_eq!(x, "INPUT");
                assert_eq!(y, "TD");
            }
            other => panic!("expected TargetMismatch, got {other:?}"),
        }
        let s3 = MarkedSeq::new(vec!["ZZZ".into(), "INPUT".into()], 1);
        assert!(matches!(
            merge_samples(&a, &[s3]),
            Err(LearnError::UnknownSymbol(z)) if z == "ZZZ"
        ));
    }

    #[test]
    fn pivot_folding_when_anchor_repeats_in_gap() {
        let a = alphabet();
        // The anchor TR appears in one sample's gap too; merging must not
        // produce an invalid pivot (segment containing its own pivot in a
        // way that breaks the precondition is folded instead).
        let s1 = seq("TR TD <INPUT>");
        let s2 = seq("TR TR TD <INPUT>");
        let pe = merge_samples(&a, &[s1.clone(), s2.clone()]).unwrap();
        let expr = pe.to_expr();
        for doc in [&s1, &s2] {
            let word: Vec<_> = doc.names.iter().map(|n| a.sym(n)).collect();
            assert_eq!(expr.extract(&word).map(|e| e.position), Ok(doc.target));
        }
    }
}
