//! Extraction expressions `E1⟨p⟩E2` — Definition 4.1.
//!
//! An extraction expression is an ordinary regular expression of the form
//! `E1 · p · E2` with one *marked* occurrence `⟨p⟩` of an alphabet symbol.
//! It parses the language `L(E1 · p · E2)` and *extracts* the marked `p`
//! from a string `ρ = α·p·β` whenever `α ∈ L(E1)` and `β ∈ L(E2)`.
//!
//! [`ExtractionExpr`] keeps both the syntactic sides (as [`Regex`], for
//! display) and the compiled sides (as [`Lang`], for decision procedures).
//! The textual form uses angle brackets: `"(p q)* <p> .*"`.

use crate::error::ExtractionError;
use rextract_automata::{Alphabet, Lang, Regex, Symbol};

/// An extraction expression `E1⟨p⟩E2` over a finite alphabet (Definition
/// 4.1). Immutable; all algorithms produce new expressions.
#[derive(Clone)]
pub struct ExtractionExpr {
    alphabet: Alphabet,
    left_re: Regex,
    right_re: Regex,
    marker: Symbol,
    left: Lang,
    right: Lang,
}

impl ExtractionExpr {
    /// Build from regex sides and a marker symbol.
    pub fn new(alphabet: &Alphabet, left: Regex, marker: Symbol, right: Regex) -> ExtractionExpr {
        let left_lang = Lang::from_regex(alphabet, &left);
        let right_lang = Lang::from_regex(alphabet, &right);
        ExtractionExpr {
            alphabet: alphabet.clone(),
            left_re: left,
            right_re: right,
            marker,
            left: left_lang,
            right: right_lang,
        }
    }

    /// Build directly from compiled languages (used by the synthesis
    /// algorithms, which work on automata). The syntactic sides are
    /// recovered by state elimination for display.
    pub fn from_langs(left: Lang, marker: Symbol, right: Lang) -> ExtractionExpr {
        assert!(
            left.alphabet().compatible(right.alphabet()),
            "extraction expression sides over incompatible alphabets"
        );
        let alphabet = left.alphabet().clone();
        ExtractionExpr {
            left_re: left.to_regex(),
            right_re: right.to_regex(),
            alphabet,
            marker,
            left,
            right,
        }
    }

    /// Parse the textual form `"E1 <p> E2"`. `E1`/`E2` default to `ε` when
    /// omitted (e.g. `"<p> .*"`).
    pub fn parse(alphabet: &Alphabet, text: &str) -> Result<ExtractionExpr, ExtractionError> {
        let open = text.find('<');
        let close = text.find('>');
        let (open, close) = match (open, close) {
            (Some(o), Some(c)) if o < c => (o, c),
            _ => return Err(ExtractionError::MarkerSyntax(text.to_string())),
        };
        if text[close + 1..].contains('<') {
            return Err(ExtractionError::MarkerSyntax(text.to_string()));
        }
        let marker_name = text[open + 1..close].trim();
        let marker = alphabet
            .try_sym(marker_name)
            .ok_or_else(|| ExtractionError::Regex(format!("unknown marker {marker_name:?}")))?;
        let parse_side = |s: &str| -> Result<Regex, ExtractionError> {
            if s.trim().is_empty() {
                Ok(Regex::Epsilon)
            } else {
                Regex::parse(alphabet, s).map_err(|e| ExtractionError::Regex(e.to_string()))
            }
        };
        let left = parse_side(&text[..open])?;
        let right = parse_side(&text[close + 1..])?;
        Ok(ExtractionExpr::new(alphabet, left, marker, right))
    }

    /// The alphabet `Σ`.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The marked symbol `p`.
    pub fn marker(&self) -> Symbol {
        self.marker
    }

    /// The left language `L(E1)` (compiled).
    pub fn left(&self) -> &Lang {
        &self.left
    }

    /// The right language `L(E2)` (compiled).
    pub fn right(&self) -> &Lang {
        &self.right
    }

    /// The syntactic left side `E1`.
    pub fn left_regex(&self) -> &Regex {
        &self.left_re
    }

    /// The syntactic right side `E2`.
    pub fn right_regex(&self) -> &Regex {
        &self.right_re
    }

    /// The parsed language `L(E1⟨p⟩E2) = L(E1 · p · E2)`.
    pub fn language(&self) -> Lang {
        let p = Lang::sym(&self.alphabet, self.marker);
        self.left.concat(&p).concat(&self.right)
    }

    /// Does the expression parse `word`? (Membership in
    /// [`ExtractionExpr::language`], without computing splits.)
    pub fn parses(&self, word: &[Symbol]) -> bool {
        self.language().contains(word)
    }

    /// Number of canonical DFA states across both sides — the size measure
    /// used when reporting synthesis outputs.
    pub fn state_size(&self) -> usize {
        self.left.num_states() + self.right.num_states()
    }

    /// Render as `E1 <p> E2`.
    pub fn to_text(&self) -> String {
        let l = self.left_re.to_text(&self.alphabet);
        let r = self.right_re.to_text(&self.alphabet);
        format!("{l} <{}> {r}", self.alphabet.name(self.marker))
    }

    /// Same parsed language *and* same extraction behaviour — i.e. same
    /// marker and equal side languages. (Stronger than language equality:
    /// the paper notes `p⟨p⟩ppp` and `pp⟨p⟩pp` parse the same language but
    /// extract different objects.)
    pub fn same_extraction(&self, other: &ExtractionExpr) -> bool {
        self.marker == other.marker && self.left == other.left && self.right == other.right
    }
}

impl std::fmt::Debug for ExtractionExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ExtractionExpr({})", self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rextract_automata::regex::parser::MAX_NESTING;

    fn ab() -> Alphabet {
        Alphabet::new(["p", "q"])
    }

    #[test]
    fn parse_textual_form() {
        let a = ab();
        let e = ExtractionExpr::parse(&a, "(p q)* <p> .*").unwrap();
        assert_eq!(e.marker(), a.sym("p"));
        assert_eq!(e.left(), &Lang::parse(&a, "(p q)*").unwrap());
        assert_eq!(e.right(), &Lang::parse(&a, ".*").unwrap());
    }

    #[test]
    fn parse_empty_sides_default_to_epsilon() {
        let a = ab();
        let e = ExtractionExpr::parse(&a, "<p>").unwrap();
        assert_eq!(e.left(), &Lang::epsilon(&a));
        assert_eq!(e.right(), &Lang::epsilon(&a));
        assert!(e.parses(&a.str_to_syms("p").unwrap()));
        assert!(!e.parses(&a.str_to_syms("p p").unwrap()));
    }

    #[test]
    fn parse_errors() {
        let a = ab();
        assert!(matches!(
            ExtractionExpr::parse(&a, "p q"),
            Err(ExtractionError::MarkerSyntax(_))
        ));
        assert!(matches!(
            ExtractionExpr::parse(&a, "<p> q <p>"),
            Err(ExtractionError::MarkerSyntax(_))
        ));
        assert!(matches!(
            ExtractionExpr::parse(&a, "<z> q"),
            Err(ExtractionError::Regex(_))
        ));
        assert!(matches!(
            ExtractionExpr::parse(&a, "(p <p> q"),
            Err(ExtractionError::Regex(_))
        ));
    }

    #[test]
    fn deeply_nested_sides_fail_to_parse_instead_of_aborting() {
        // A daemon worker's 2 MiB stack, where these used to overflow.
        let results = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let a = ab();
                let n = 100_000;
                let parens = format!("{}q{} <p> .*", "(".repeat(n), ")".repeat(n));
                let bangs = format!(".* <p> {}q", "!".repeat(n));
                // At the limit the side still compiles: alternating alt
                // and concat keep the tree as deep as the text.
                let deep = MAX_NESTING;
                let limit = format!("{}q{} <p> .*", "(q | p ".repeat(deep), ")".repeat(deep));
                [parens, bangs, limit].map(|text| ExtractionExpr::parse(&a, &text).map(|_| ()))
            })
            .unwrap()
            .join()
            .unwrap();
        assert!(matches!(&results[0], Err(ExtractionError::Regex(m)) if m.contains("nested")));
        assert!(matches!(&results[1], Err(ExtractionError::Regex(m)) if m.contains("nested")));
        assert_eq!(results[2], Ok(()));
    }

    #[test]
    fn language_is_concatenation_with_marker() {
        let a = ab();
        let e = ExtractionExpr::parse(&a, "q* <p> q*").unwrap();
        assert!(e.parses(&a.str_to_syms("p").unwrap()));
        assert!(e.parses(&a.str_to_syms("q p q q").unwrap()));
        assert!(!e.parses(&a.str_to_syms("q q").unwrap()));
        assert!(!e.parses(&a.str_to_syms("p p").unwrap()));
        assert_eq!(e.language(), Lang::parse(&a, "q* p q*").unwrap());
    }

    #[test]
    fn paper_example_same_language_different_extraction() {
        // p⟨p⟩ppp and pp⟨p⟩pp parse the same language but extract
        // different occurrences (Section 4, after Definition 4.4).
        let a = ab();
        let e1 = ExtractionExpr::parse(&a, "p <p> p p p").unwrap();
        let e2 = ExtractionExpr::parse(&a, "p p <p> p p").unwrap();
        assert_eq!(e1.language(), e2.language());
        assert!(!e1.same_extraction(&e2));
        assert!(e1.same_extraction(&e1));
    }

    #[test]
    fn round_trip_display() {
        let a = ab();
        let e = ExtractionExpr::parse(&a, "(p q)* <p> q*").unwrap();
        let text = e.to_text();
        let e2 = ExtractionExpr::parse(&a, &text).unwrap();
        assert!(e.same_extraction(&e2));
    }

    #[test]
    fn from_langs_recovers_syntax() {
        let a = ab();
        let left = Lang::parse(&a, "[^p]*").unwrap();
        let right = Lang::universe(&a);
        let e = ExtractionExpr::from_langs(left.clone(), a.sym("p"), right.clone());
        // Rebuilt syntax must denote the same languages.
        assert_eq!(Lang::from_regex(&a, e.left_regex()), left);
        assert_eq!(Lang::from_regex(&a, e.right_regex()), right);
    }

    #[test]
    fn state_size_is_positive() {
        let a = ab();
        let e = ExtractionExpr::parse(&a, "[^p]* <p> .*").unwrap();
        assert!(e.state_size() >= 2);
    }
}
