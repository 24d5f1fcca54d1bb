//! Query evaluation: span-relational queries over live pages.
//!
//! A [`QueryDef`] names its inputs — installed wrappers or inline
//! extraction expressions — and an algebra plan (π/∪/⋈) over them. This
//! module grounds those inputs against one tokenized page: every source
//! becomes a [`SpanRelation`] in **token-index** space, and the plan
//! evaluates to the joined result. A wrapper source contributes *all*
//! candidate positions (no uniqueness demanded — the join is the
//! disambiguating step); an expression source compiles on the fly over
//! its own alphabet and the plain tags-only abstraction.

use crate::wrapper::{Wrapper, WrapperScratch, OTHER};
use rextract_automata::Alphabet;
use rextract_extraction::{
    AlgebraError, ExtractionExpr, Extractor, JoinStrategy, QueryDef, SourceKind, SpanRelation,
};
use rextract_html::seq::SeqConfig;
use rextract_html::token::Token;
use std::collections::HashMap;
use std::sync::Arc;

/// Why a query could not be evaluated against a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryEvalError {
    /// A wrapper source names a wrapper that is not installed.
    UnknownWrapper(String),
    /// An expression source failed to parse over its alphabet.
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
/// tag memo, and every extractor scan reuse `scratch`'s buffers, so
/// steady-state evaluation of wrapper sources stays off the allocator
/// (inline-expression sources still compile per call by design — they
/// are ad-hoc by nature; the relation building also allocates).
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
            SourceKind::Expr { alphabet, expr } => {
                expr_relation(&src.var, alphabet, expr, tokens, scratch)?
            }
        };
        inputs.insert(src.var.clone(), rel);
    }
    def.plan
        .eval_with(&inputs, strategy)
        .map_err(QueryEvalError::Algebra)
}

/// Ground one inline-expression source: build its alphabet (always
/// closed with `#other`), parse and compile the expression, abstract the
/// page tags-only, scan, and map every match back to token indices.
fn expr_relation(
    var: &str,
    alphabet_names: &str,
    expr_text: &str,
    tokens: &[Token],
    scratch: &mut WrapperScratch,
) -> Result<SpanRelation, QueryEvalError> {
    let mut names: Vec<&str> = alphabet_names.split_whitespace().collect();
    names.sort_unstable();
    names.dedup();
    if !names.contains(&OTHER) {
        names.push(OTHER);
    }
    let alphabet = Alphabet::new(names);
    let expr =
        ExtractionExpr::parse(&alphabet, expr_text).map_err(|e| QueryEvalError::BadExpr {
            var: var.to_string(),
            error: e.to_string(),
        })?;
    let extractor = Extractor::compile(&expr);
    Ok(scratch.candidates(var, &alphabet, &SeqConfig::tags_only(), &extractor, tokens))
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
