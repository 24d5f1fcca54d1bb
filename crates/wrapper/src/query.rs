//! Query evaluation: span-relational queries over live pages.
//!
//! A [`QueryDef`] names its inputs — installed wrappers or inline
//! extraction expressions — and an algebra plan (π/∪/⋈) over them. This
//! module grounds those inputs against one tokenized page: every source
//! becomes a [`SpanRelation`] in **token-index** space, and the plan
//! evaluates to the joined result. A wrapper source contributes *all*
//! candidate positions (no uniqueness demanded — the join is the
//! disambiguating step); an expression source scans with the compiled
//! form its parsed query keeps ([`QuerySource::compiled`]: its closed
//! alphabet and extractor, built at the query's first evaluation or by
//! [`QueryDef::compile`]) over the plain tags-only abstraction. Wrapper
//! sources resolve by name on every evaluation, because drift repair
//! swaps the installed wrapper.
//!
//! [`QuerySource::compiled`]: rextract_extraction::QuerySource::compiled

use crate::wrapper::{Wrapper, WrapperScratch};
use rextract_extraction::{AlgebraError, JoinStrategy, QueryDef, SourceKind, SpanRelation};
use rextract_html::seq::SeqConfig;
use rextract_html::token::Token;
use std::collections::HashMap;
use std::sync::Arc;

/// Why a query could not be evaluated against a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryEvalError {
    /// A wrapper source names a wrapper that is not installed.
    UnknownWrapper(String),
    /// An expression source failed to parse over its alphabet (a query
    /// that went through [`QueryDef::compile`] never reports this).
    BadExpr {
        /// The source's variable.
        var: String,
        /// The parse error.
        error: String,
    },
    /// The plan itself failed (unknown input, predicate var, …).
    Algebra(AlgebraError),
}

impl std::fmt::Display for QueryEvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryEvalError::UnknownWrapper(name) => write!(f, "unknown wrapper {name:?}"),
            QueryEvalError::BadExpr { var, error } => {
                write!(f, "source {var:?}: bad expression: {error}")
            }
            QueryEvalError::Algebra(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryEvalError {}

/// Ground every source of `def` against `tokens` and evaluate the plan
/// under `strategy`. `lookup` resolves wrapper sources by name (the
/// daemon passes its registry; the CLI a loaded file set). The result
/// relation is in token-index space, canonical (rows sorted, deduped) —
/// so two strategies evaluating the same query render byte-identically.
///
/// Allocating convenience wrapper over [`evaluate_query_with`]: builds a
/// fresh [`WrapperScratch`] per call. Repeated evaluation (the daemon's
/// `POST /query`, `rextract query` over a page set) should hold one
/// scratch and call [`evaluate_query_with`] instead.
pub fn evaluate_query(
    def: &QueryDef,
    tokens: &[Token],
    lookup: &dyn Fn(&str) -> Option<Arc<Wrapper>>,
    strategy: JoinStrategy,
) -> Result<SpanRelation, QueryEvalError> {
    evaluate_query_with(def, tokens, lookup, strategy, &mut WrapperScratch::new())
}

/// [`evaluate_query`] with a caller-owned scratch: page abstraction, the
/// tag memo, and every extractor scan reuse `scratch`'s buffers. Each
/// inline-expression source is compiled once per parsed `def`, at its
/// first evaluation unless [`QueryDef::compile`] ran first, and every
/// later page scans with the kept extractor. Building the relations and
/// the plan's result still allocates.
pub fn evaluate_query_with(
    def: &QueryDef,
    tokens: &[Token],
    lookup: &dyn Fn(&str) -> Option<Arc<Wrapper>>,
    strategy: JoinStrategy,
    scratch: &mut WrapperScratch,
) -> Result<SpanRelation, QueryEvalError> {
    let mut inputs: HashMap<String, SpanRelation> = HashMap::new();
    for src in &def.sources {
        let rel = match &src.kind {
            SourceKind::Wrapper(name) => {
                let w = lookup(name).ok_or_else(|| QueryEvalError::UnknownWrapper(name.clone()))?;
                w.span_relation_with(src.var.clone(), tokens, scratch)
            }
            SourceKind::Expr { .. } => {
                let (alphabet, extractor) = src
                    .compiled()
                    .expect("an inline source has a compiled form")
                    .map_err(|error| QueryEvalError::BadExpr {
                        var: src.var.clone(),
                        error: error.to_string(),
                    })?;
                let cfg = SeqConfig::tags_only();
                scratch.candidates(src.var.as_str(), alphabet, &cfg, extractor, tokens)
            }
        };
        inputs.insert(src.var.clone(), rel);
    }
    def.plan
        .eval_with(&inputs, strategy)
        .map_err(QueryEvalError::Algebra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::{PageStyle, SiteConfig, SiteGenerator};
    use crate::wrapper::{TrainPage, WrapperConfig};
    use rextract_extraction::Span;

    fn gen(seed: u64) -> SiteGenerator {
        SiteGenerator::new(SiteConfig {
            seed,
            ..SiteConfig::default()
        })
    }

    fn trained_search(g: &mut SiteGenerator) -> Arc<Wrapper> {
        let pages: Vec<TrainPage> = [PageStyle::Plain, PageStyle::TableEmbedded]
            .iter()
            .map(|&s| TrainPage::from(&g.page_with_style(s)))
            .collect();
        Arc::new(Wrapper::train(&pages, WrapperConfig::default()).unwrap())
    }

    #[test]
    fn wrapper_and_expr_sources_join_on_order() {
        let mut g = gen(3);
        let w = trained_search(&mut g);
        // field: the installed wrapper's candidates (the INPUT).
        // form: an inline expression finding the FORM start tag, with
        // a `before` predicate tying the two in document order.
        let def = QueryDef::parse(
            r#"{
              "sources": [
                {"var": "field", "wrapper": "search"},
                {"var": "form", "alphabet": "FORM /FORM", "expr": "[^FORM]* <FORM> .*"}
              ],
              "plan": {
                "op": "join",
                "left": {"op": "leaf", "var": "form"},
                "right": {"op": "leaf", "var": "field"},
                "preds": [{"pred": "before", "left": "form", "right": "field"}]
              }
            }"#,
        )
        .unwrap();
        let lookup = move |name: &str| (name == "search").then(|| Arc::clone(&w));
        for _ in 0..5 {
            let p = g.page_with_style(PageStyle::Plain);
            let form = p
                .tokens
                .iter()
                .position(|t| t.tag_name() == Some("FORM"))
                .unwrap();
            let rel = evaluate_query(&def, &p.tokens, &lookup, JoinStrategy::SortMerge).unwrap();
            assert_eq!(rel.vars(), ["form".to_string(), "field".to_string()]);
            assert_eq!(rel.rows(), [vec![Span::unit(form), Span::unit(p.target)]]);
            // Both strategies agree byte for byte (canonical form).
            let nested =
                evaluate_query(&def, &p.tokens, &lookup, JoinStrategy::NestedLoop).unwrap();
            assert_eq!(rel.rows(), nested.rows());
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch_across_pages() {
        let mut g = gen(11);
        let w = trained_search(&mut g);
        let def = QueryDef::parse(
            r#"{
              "sources": [
                {"var": "field", "wrapper": "search"},
                {"var": "form", "alphabet": "FORM /FORM", "expr": "[^FORM]* <FORM> .*"}
              ],
              "plan": {
                "op": "join",
                "left": {"op": "leaf", "var": "form"},
                "right": {"op": "leaf", "var": "field"},
                "preds": [{"pred": "before", "left": "form", "right": "field"}]
              }
            }"#,
        )
        .unwrap();
        let lookup = move |name: &str| (name == "search").then(|| Arc::clone(&w));
        // One long-lived scratch across pages of varying shape must give
        // byte-identical relations to a fresh scratch per page.
        let mut scratch = WrapperScratch::new();
        for style in [PageStyle::Plain, PageStyle::TableEmbedded, PageStyle::Plain] {
            let p = g.page_with_style(style);
            let reused = evaluate_query_with(
                &def,
                &p.tokens,
                &lookup,
                JoinStrategy::SortMerge,
                &mut scratch,
            )
            .unwrap();
            let fresh = evaluate_query(&def, &p.tokens, &lookup, JoinStrategy::SortMerge).unwrap();
            assert_eq!(reused.vars(), fresh.vars());
            assert_eq!(reused.rows(), fresh.rows());
        }
    }

    #[test]
    fn first_use_from_four_threads_matches_serial_evaluation() {
        const QUERY: &str = r#"{
          "sources": [
            {"var": "field", "wrapper": "search"},
            {"var": "form", "alphabet": "FORM /FORM", "expr": "[^FORM]* <FORM> .*"},
            {"var": "input", "alphabet": "INPUT FORM", "expr": ".* <INPUT> .*"}
          ],
          "plan": {
            "op": "join",
            "left": {"op": "leaf", "var": "form"},
            "right": {
              "op": "join",
              "left": {"op": "leaf", "var": "field"},
              "right": {"op": "leaf", "var": "input"}
            },
            "preds": [{"pred": "before", "left": "form", "right": "input"}]
          }
        }"#;
        let mut g = gen(5);
        let w = trained_search(&mut g);
        let lookup = move |name: &str| (name == "search").then(|| Arc::clone(&w));
        let pages: Vec<Vec<Token>> = [PageStyle::Plain, PageStyle::TableEmbedded]
            .iter()
            .cycle()
            .take(6)
            .map(|&s| g.page_with_style(s).tokens)
            .collect();
        let serial_def = QueryDef::parse(QUERY).unwrap();
        let serial: Vec<SpanRelation> = pages
            .iter()
            .map(|p| evaluate_query(&serial_def, p, &lookup, JoinStrategy::SortMerge).unwrap())
            .collect();
        assert!(serial.iter().any(|r| !r.is_empty()), "the query must match");

        // Never compiled before the threads race to its first use.
        let shared = Arc::new(QueryDef::parse(QUERY).unwrap());
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    let mut scratch = WrapperScratch::new();
                    for (p, want) in pages.iter().zip(&serial) {
                        let got = evaluate_query_with(
                            &shared,
                            p,
                            &lookup,
                            JoinStrategy::SortMerge,
                            &mut scratch,
                        )
                        .unwrap();
                        assert_eq!(got.vars(), want.vars());
                        assert_eq!(got.rows(), want.rows());
                    }
                });
            }
        });
    }

    #[test]
    fn unknown_wrapper_and_bad_expr_are_reported() {
        let g = &mut gen(9);
        let p = g.page();
        let def = QueryDef::parse(
            r#"{"sources":[{"var":"x","wrapper":"ghost"}],"plan":{"op":"leaf","var":"x"}}"#,
        )
        .unwrap();
        let lookup = |_: &str| None;
        assert_eq!(
            evaluate_query(&def, &p.tokens, &lookup, JoinStrategy::SortMerge).unwrap_err(),
            QueryEvalError::UnknownWrapper("ghost".to_string())
        );
        let def = QueryDef::parse(
            r#"{"sources":[{"var":"x","alphabet":"A","expr":"((("}],"plan":{"op":"leaf","var":"x"}}"#,
        )
        .unwrap();
        match evaluate_query(&def, &p.tokens, &lookup, JoinStrategy::SortMerge) {
            Err(QueryEvalError::BadExpr { var, .. }) => assert_eq!(var, "x"),
            other => panic!("expected BadExpr, got {other:?}"),
        }
    }
}
