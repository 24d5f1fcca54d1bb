//! Multi-target merging: learn a [`MultiExtractionExpr`] from samples
//! with several marked positions (tuple extraction).
//!
//! The single-target merging heuristic (Section 7) generalizes
//! region-wise: the `k` targets cut every sample into `k` *regions*
//! (before the 1st target, between consecutive targets); each region is
//! generalized to the union of its literal strings across samples, and
//! everything after the last target becomes `Σ*`. Regions are finite
//! unions, so they always have bounded marker counts — the componentwise
//! maximization of [`MultiExtractionExpr::maximize`] applies whenever the
//! per-region unambiguity precondition holds.
//!
//! Unlike the single-target path, regions are *not* further subdivided at
//! intra-region pivots; the markers themselves are the pivots. (Nested
//! pivoting inside regions is a possible refinement, at the cost of a
//! nested expression type.)

use crate::merge::{symbol, LearnError};
use rextract_automata::{Alphabet, Lang, Symbol};
use rextract_extraction::MultiExtractionExpr;

/// A training sample with several marked positions (strictly increasing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiMarkedSeq {
    /// Abstract symbol names.
    pub names: Vec<String>,
    /// Marked indices, strictly increasing.
    pub targets: Vec<usize>,
}

impl MultiMarkedSeq {
    /// Construct with validation.
    pub fn new(names: Vec<String>, targets: Vec<usize>) -> MultiMarkedSeq {
        assert!(!targets.is_empty(), "need at least one target");
        assert!(
            targets.windows(2).all(|w| w[0] < w[1]),
            "targets must be strictly increasing"
        );
        assert!(
            *targets.last().expect("non-empty") < names.len(),
            "target out of range"
        );
        MultiMarkedSeq { names, targets }
    }

    /// Parse a whitespace-separated sequence with targets in angle
    /// brackets, e.g. `"FORM <INPUT> BR <INPUT> /FORM"`.
    pub fn parse(text: &str) -> Option<MultiMarkedSeq> {
        let mut names = Vec::new();
        let mut targets = Vec::new();
        for word in text.split_whitespace() {
            if let Some(inner) = word.strip_prefix('<').and_then(|w| w.strip_suffix('>')) {
                targets.push(names.len());
                names.push(inner.to_string());
            } else {
                names.push(word.to_string());
            }
        }
        if targets.is_empty() {
            return None;
        }
        Some(MultiMarkedSeq { names, targets })
    }

    /// The marked symbol names, in order.
    pub fn target_names(&self) -> Vec<&str> {
        self.targets
            .iter()
            .map(|&t| self.names[t].as_str())
            .collect()
    }
}

/// Merge multi-target samples into a [`MultiExtractionExpr`] over
/// `alphabet`. All samples must mark the same number of targets with the
/// same symbols, in the same order.
pub fn merge_multi(
    alphabet: &Alphabet,
    samples: &[MultiMarkedSeq],
) -> Result<MultiExtractionExpr, LearnError> {
    let first = samples.first().ok_or(LearnError::NoSamples)?;
    let arity = first.targets.len();
    let target_names: Vec<String> = first.target_names().into_iter().map(String::from).collect();
    for s in samples {
        if s.targets.len() != arity
            || s.target_names() != target_names.iter().map(String::as_str).collect::<Vec<_>>()
        {
            return Err(LearnError::TargetMismatch(
                target_names.join(","),
                s.target_names().join(","),
            ));
        }
    }
    let markers: Vec<Symbol> = target_names
        .iter()
        .map(|n| symbol(alphabet, n))
        .collect::<Result<_, _>>()?;
    // Each sample as symbols up to its last target, converted once.
    let words: Vec<Vec<Symbol>> = samples
        .iter()
        .map(|s| {
            s.names[..s.targets[arity - 1]]
                .iter()
                .map(|n| symbol(alphabet, n))
                .collect()
        })
        .collect::<Result<_, _>>()?;

    // Region `r` lies strictly between target `r−1` and target `r`
    // (region 0 starts at the beginning); its segment is the finite
    // union of the samples' region strings.
    let mut segments = Vec::with_capacity(arity + 1);
    for r in 0..arity {
        let regions = samples.iter().zip(&words).map(|(s, w)| {
            let start = if r == 0 { 0 } else { s.targets[r - 1] + 1 };
            &w[start..s.targets[r]]
        });
        segments.push(Lang::words(alphabet, regions));
    }
    segments.push(Lang::universe(alphabet));
    Ok(MultiExtractionExpr::new(alphabet, segments, markers))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alphabet() -> Alphabet {
        Alphabet::new(["P", "FORM", "/FORM", "INPUT", "BR", "TD", "/TD", "TR"])
    }

    fn seq(s: &str) -> MultiMarkedSeq {
        MultiMarkedSeq::parse(s).unwrap()
    }

    #[test]
    fn parse_multi_marked() {
        let s = seq("FORM <INPUT> BR <INPUT> /FORM");
        assert_eq!(s.targets, vec![1, 3]);
        assert_eq!(s.target_names(), ["INPUT", "INPUT"]);
        assert!(MultiMarkedSeq::parse("FORM INPUT").is_none());
    }

    #[test]
    fn merges_two_target_samples() {
        let a = alphabet();
        let samples = [
            seq("P <FORM> INPUT <INPUT> /FORM"),
            seq("TR TD <FORM> TR INPUT <INPUT> /FORM /TD"),
        ];
        let e = merge_multi(&a, &samples).unwrap();
        assert_eq!(e.arity(), 2);
        assert!(e.is_unambiguous());
        for s in &samples {
            let doc: Vec<_> = s.names.iter().map(|n| a.sym(n)).collect();
            assert_eq!(e.extract(&doc).unwrap(), s.targets, "{}", s.names.join(" "));
        }
    }

    #[test]
    fn merged_multi_maximizes_and_survives_change() {
        let a = alphabet();
        let samples = [
            seq("P <FORM> INPUT <INPUT> /FORM"),
            seq("TR TD <FORM> TR INPUT <INPUT> /FORM"),
        ];
        let e = merge_multi(&a, &samples).unwrap();
        let maxed = e.maximize().expect("componentwise maximization applies");
        assert!(maxed.is_unambiguous());
        assert!(maxed.generalizes(&e));
        // A new layout neither sample showed:
        let doc: Vec<_> = "TD TD P P FORM BR TR INPUT INPUT /FORM"
            .split_whitespace()
            .map(|n| a.sym(n))
            .collect();
        let got = maxed.extract(&doc).unwrap();
        assert_eq!(doc[got[0]], a.sym("FORM"));
        assert_eq!(doc[got[1]], a.sym("INPUT"));
        // Componentwise maximization widened the FORM→INPUT gap to any
        // INPUT-free block, so the marked INPUT is the *first* INPUT after
        // the form here (the training gap "INPUT" became optional context,
        // not a required second occurrence).
        assert_eq!(got, vec![4, 7]);
        // The unmaximized expression cannot cope.
        assert!(e.extract(&doc).is_err());
    }

    #[test]
    fn error_cases() {
        let a = alphabet();
        assert!(matches!(merge_multi(&a, &[]), Err(LearnError::NoSamples)));
        let s1 = seq("P <FORM> <INPUT>");
        let s2 = seq("P <INPUT> <FORM>");
        assert!(matches!(
            merge_multi(&a, &[s1, s2]),
            Err(LearnError::TargetMismatch(_, _))
        ));
        let s3 = MultiMarkedSeq::new(vec!["ZZ".into(), "FORM".into()], vec![1]);
        assert!(matches!(
            merge_multi(&a, &[s3]),
            Err(LearnError::UnknownSymbol(z)) if z == "ZZ"
        ));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn new_validates_monotonicity() {
        MultiMarkedSeq::new(vec!["P".into(), "FORM".into()], vec![1, 1]);
    }
}
