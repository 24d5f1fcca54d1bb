//! DTD-guided learning — Section 8: "One interesting issue here is using
//! DTDs to guide the learning algorithms."
//!
//! A DTD tells the learner which elements can *repeat* inside their
//! parent (`(item*)`, `(row+)`) and which occur a bounded number of times
//! (`(title, price?)`). Repeatable elements are **unsafe pivots**: a
//! redesign can insert more of them, and a pivot anchored on "the first
//! `item`" may silently shift meaning. The DTD-guided merge restricts
//! pivot candidates to elements the DTD declares non-repeatable, keeping
//! the learned expression stable under list growth — precisely the
//! dynamic-table changes Section 3 worries about. It is the merge walk of
//! [`crate::merge`] with that eligibility predicate; nothing else
//! differs.
//!
//! Supported declaration subset (enough for catalog-shaped DTDs):
//!
//! ```text
//! <!ELEMENT catalog (title, vendor?, item*)>
//! <!ELEMENT item (name, price)>
//! <!ELEMENT price (#PCDATA)>
//! ```

use crate::merge::{merge_walk, LearnError};
use crate::sample::MarkedSeq;
use rextract_automata::Alphabet;
use rextract_extraction::PivotExpr;
use std::collections::{HashMap, HashSet};

/// Occurrence class of a child element within its parent's content model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Occurrence {
    /// Exactly once (no modifier).
    One,
    /// `?` — at most once.
    Optional,
    /// `*` or `+` — unbounded.
    Repeatable,
}

/// A parsed DTD (the supported subset): element → children with
/// occurrence classes.
#[derive(Debug, Clone, Default)]
pub struct Dtd {
    children: HashMap<String, Vec<(String, Occurrence)>>,
}

impl Dtd {
    /// Parse `<!ELEMENT …>` declarations out of DTD text. Unsupported
    /// constructs (entities, attlists, alternation groups) are skipped —
    /// guidance is best-effort by design.
    pub fn parse(text: &str) -> Dtd {
        let mut dtd = Dtd::default();
        let mut rest = text;
        while let Some(start) = rest.find("<!ELEMENT") {
            let Some(end) = rest[start..].find('>') else {
                break;
            };
            let decl = &rest[start + 9..start + end];
            rest = &rest[start + end + 1..];
            let mut parts = decl.trim().splitn(2, char::is_whitespace);
            let Some(name) = parts.next() else { continue };
            let Some(model) = parts.next() else { continue };
            let model = model.trim();
            let mut kids = Vec::new();
            if model.starts_with('(') {
                for raw in model
                    .trim_start_matches('(')
                    .trim_end_matches(')')
                    .split(',')
                {
                    let child = raw.trim();
                    if child.is_empty() || child == "#PCDATA" {
                        continue;
                    }
                    let (base, occ) = match child.chars().last() {
                        Some('*') | Some('+') => {
                            (&child[..child.len() - 1], Occurrence::Repeatable)
                        }
                        Some('?') => (&child[..child.len() - 1], Occurrence::Optional),
                        _ => (child, Occurrence::One),
                    };
                    kids.push((base.trim().to_string(), occ));
                }
            }
            dtd.children.insert(name.to_string(), kids);
        }
        dtd
    }

    /// Is `element` declared repeatable inside **any** parent? A declared
    /// element that never appears as a repeatable child is safe; this
    /// includes root elements (declared as parents, children of no one).
    /// Elements the DTD does not mention at all are conservatively
    /// treated as repeatable (unsafe).
    pub fn is_repeatable(&self, element: &str) -> bool {
        let mut known = self.children.contains_key(element);
        for kids in self.children.values() {
            for (child, occ) in kids {
                if child == element {
                    known = true;
                    if *occ == Occurrence::Repeatable {
                        return true;
                    }
                }
            }
        }
        !known
    }

    /// Element names the DTD declares (as parents or children).
    pub fn declared(&self) -> HashSet<String> {
        let mut out: HashSet<String> = self.children.keys().cloned().collect();
        for kids in self.children.values() {
            for (c, _) in kids {
                out.insert(c.clone());
            }
        }
        out
    }
}

/// DTD-guided merge: the walk of [`crate::merge::merge_samples`] with
/// one more condition on pivots — a candidate anchor qualifies only if
/// the DTD marks it non-repeatable (start tags; close tags inherit their
/// element's class). The usual left-filtering precondition still applies
/// on top.
pub fn merge_samples_with_dtd(
    alphabet: &Alphabet,
    samples: &[MarkedSeq],
    dtd: &Dtd,
) -> Result<PivotExpr, LearnError> {
    merge_walk(alphabet, samples, |anchor| {
        !dtd.is_repeatable(anchor.strip_prefix('/').unwrap_or(anchor))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const CATALOG_DTD: &str = r#"
        <!ELEMENT catalog (title, vendor?, item*)>
        <!ELEMENT item (name, price)>
        <!ELEMENT title (#PCDATA)>
        <!ELEMENT vendor (#PCDATA)>
        <!ELEMENT name (#PCDATA)>
        <!ELEMENT price (#PCDATA)>
    "#;

    fn alphabet() -> Alphabet {
        Alphabet::new([
            "catalog", "/catalog", "title", "/title", "vendor", "/vendor", "item", "/item", "name",
            "/name", "price", "/price",
        ])
    }

    fn seq(s: &str) -> MarkedSeq {
        MarkedSeq::parse(s).unwrap()
    }

    #[test]
    fn parses_occurrence_classes() {
        let dtd = Dtd::parse(CATALOG_DTD);
        assert!(dtd.is_repeatable("item"));
        assert!(!dtd.is_repeatable("title"));
        assert!(!dtd.is_repeatable("vendor"));
        assert!(!dtd.is_repeatable("price")); // once within item
                                              // Unknown elements are conservatively repeatable.
        assert!(dtd.is_repeatable("banner"));
        assert!(!dtd.is_repeatable("catalog")); // declared root
        assert!(dtd.declared().contains("catalog"));
    }

    #[test]
    fn dtd_guidance_rejects_repeatable_pivots() {
        let a = alphabet();
        let dtd = Dtd::parse(CATALOG_DTD);
        // Target: the price of the FIRST item; the samples happen to have
        // one and two items before it respectively… here both samples put
        // the target in the first item, but an `item` anchor would also
        // exist. DTD guidance must not pivot on item or /item.
        let s1 = seq("catalog title /title item name /name <price>");
        let s2 = seq("catalog title /title vendor /vendor item name /name <price>");
        let pe = merge_samples_with_dtd(&a, &[s1.clone(), s2.clone()], &dtd).unwrap();
        let pivots: Vec<&str> = pe.segments().iter().map(|(_, q)| a.name(*q)).collect();
        assert!(
            !pivots.iter().any(|p| *p == "item" || *p == "/item"),
            "repeatable element used as pivot: {pivots:?}"
        );
        assert!(pivots.contains(&"title"), "{pivots:?}");
        // Expression still resolves both samples.
        let expr = pe.to_expr();
        for s in [&s1, &s2] {
            let word: Vec<_> = s.names.iter().map(|n| a.sym(n)).collect();
            assert_eq!(expr.extract(&word).map(|e| e.position), Ok(s.target));
        }
    }

    #[test]
    fn guided_maximization_survives_item_list_growth() {
        let a = alphabet();
        let dtd = Dtd::parse(CATALOG_DTD);
        // Mark the FIRST price on the page (inside the first item).
        let s1 = seq("catalog title /title item name /name <price>");
        let s2 = seq("catalog title /title vendor /vendor item name /name <price>");
        let guided = merge_samples_with_dtd(&a, &[s1, s2], &dtd)
            .unwrap()
            .maximize()
            .expect("guided pivots maximize");
        assert!(guided.is_maximal());
        // A grown catalog: two items; the target is still the first price.
        let doc: Vec<_> =
            "catalog title /title item name /name price /price /item item name /name price"
                .split_whitespace()
                .map(|n| a.sym(n))
                .collect();
        let got = guided.extract(&doc).map(|e| e.position);
        assert_eq!(got, Ok(6), "guided expression must find the FIRST price");
    }

    #[test]
    fn unguided_merge_can_anchor_on_items() {
        // Contrast: without the DTD the plain merge may pivot on `item`,
        // which is legal but anchors semantics to item positions.
        let a = alphabet();
        let s1 = seq("catalog title /title item name /name <price>");
        let s2 = seq("catalog title /title vendor /vendor item name /name <price>");
        let pe = crate::merge::merge_samples(&a, &[s1, s2]).unwrap();
        let pivots: Vec<&str> = pe.segments().iter().map(|(_, q)| a.name(*q)).collect();
        assert!(pivots.contains(&"item"), "{pivots:?}");
    }

    #[test]
    fn dtd_parser_is_permissive() {
        let dtd = Dtd::parse("<!ELEMENT broken");
        assert!(dtd.children.is_empty());
        let dtd = Dtd::parse("<!ATTLIST x y CDATA #IMPLIED><!ELEMENT a (b+)>");
        assert!(dtd.is_repeatable("b"));
        let dtd = Dtd::parse("not a dtd at all");
        assert!(dtd.children.is_empty());
    }
}
