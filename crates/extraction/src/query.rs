//! Query descriptions: named span sources plus an algebra plan, with a
//! JSON wire format.
//!
//! A [`QueryDef`] is what the registry stores, the daemon's `POST /query`
//! evaluates, and `rextract query` loads from disk: a list of *sources*
//! (each binding a variable to either an installed wrapper name or an
//! inline extraction expression) and a [`Plan`] tree over those
//! variables. The extraction crate defines the format and validation;
//! resolving a wrapper name to an actual extractor is the caller's job
//! (the daemon resolves against its registry, the CLI against a wrapper
//! directory), which keeps this crate dependency-free.
//!
//! The wire format is JSON:
//!
//! ```json
//! {
//!   "sources": [
//!     {"var": "title", "wrapper": "titles"},
//!     {"var": "price", "alphabet": "p q", "expr": "[^p]* <p> .*"}
//!   ],
//!   "plan": {
//!     "op": "join",
//!     "left": {"op": "leaf", "var": "title"},
//!     "right": {"op": "leaf", "var": "price"},
//!     "preds": [{"pred": "before", "left": "title", "right": "price"}]
//!   }
//! }
//! ```
//!
//! Plan nodes: `leaf` (`var`), `project` (`vars`, `input`), `union`
//! (`left`, `right`), `join` (`left`, `right`, optional `preds`). Parsing
//! and rendering go through the crate's one JSON module, [`crate::json`].
//!
//! ## The compiled form of an inline source
//!
//! A parsed query is compiled once and then evaluated on many pages, the
//! way a document spanner is. Each inline-expression source keeps one
//! compiled form, [`QuerySource::compiled`]: its closed alphabet and its
//! [`Extractor`]. It is built on first use and kept in the source, so
//! every later evaluation of the same parsed query scans with it. A bad
//! expression is kept as its error, so it is parsed once too.
//!
//! The alphabet is closed by one rule: the source's names are split on
//! whitespace, sorted and deduplicated, and [`OTHER`] (`#other`) is added
//! when missing. A page name outside the list then abstracts to
//! `#other`, as it does for a trained wrapper.
//!
//! [`QueryDef::parse`] stays a parse and compiles nothing.
//! [`QueryDef::compile`] forces every inline source's compile and
//! reports the first bad expression: the daemon calls it before it
//! installs or loads a query, and `rextract query` when it loads one.
//! Equality, `Debug` and [`QueryDef::to_json`] are defined by the query
//! text and plan alone; the compiled form is not part of them.

use crate::algebra::{Plan, Pred, PredOp};
use crate::expr::ExtractionExpr;
use crate::extract::Extractor;
use crate::json::{self, Obj};
use rextract_automata::Alphabet;
use std::fmt;
use std::sync::OnceLock;

pub use crate::json::JsonValue;

/// The symbol every inline alphabet is closed with, and every trained
/// wrapper's alphabet holds: a page name outside the alphabet abstracts
/// to it.
pub const OTHER: &str = "#other";

/// Errors from parsing, validating or compiling a query description.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The body is not well-formed JSON.
    Json(String),
    /// Well-formed JSON, but not a valid query description.
    Shape(String),
    /// An inline-expression source does not parse over its alphabet.
    BadExpr {
        /// The source's variable.
        var: String,
        /// The parser's message.
        error: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Json(e) => write!(f, "invalid JSON: {e}"),
            QueryError::Shape(e) => write!(f, "invalid query: {e}"),
            QueryError::BadExpr { var, error } => {
                write!(f, "source {var:?}: bad expression: {error}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

fn shape(msg: impl Into<String>) -> QueryError {
    QueryError::Shape(msg.into())
}

/// What a query variable is bound to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceKind {
    /// An installed wrapper, resolved by the evaluator's registry; its
    /// candidate target positions become a unary span relation.
    Wrapper(String),
    /// An inline extraction expression over an explicit alphabet
    /// (space-separated symbol names), for symbol-level documents.
    Expr { alphabet: String, expr: String },
}

/// One named span source.
#[derive(Clone)]
pub struct QuerySource {
    /// The variable this source binds (a plan leaf name).
    pub var: String,
    pub kind: SourceKind,
    /// An inline source's compiled form or its parser message, filled
    /// by the first [`QuerySource::compiled`] call.
    compiled: OnceLock<Result<(Alphabet, Extractor), String>>,
}

impl QuerySource {
    /// A source binding `var`, not compiled yet.
    fn new(var: impl Into<String>, kind: SourceKind) -> QuerySource {
        QuerySource {
            var: var.into(),
            kind,
            compiled: OnceLock::new(),
        }
    }

    /// An inline-expression source's compiled form: its closed alphabet
    /// (see the [module docs](self)) and its extractor, or the parser's
    /// message. The first call builds it and every later call returns
    /// the kept result, from any thread. `None` for a wrapper source.
    pub fn compiled(&self) -> Option<Result<(&Alphabet, &Extractor), &str>> {
        let SourceKind::Expr { alphabet, expr } = &self.kind else {
            return None;
        };
        let compiled = self.compiled.get_or_init(|| {
            let alphabet = closed_alphabet(alphabet);
            let expr = ExtractionExpr::parse(&alphabet, expr).map_err(|e| e.to_string())?;
            let extractor = Extractor::compile(&expr);
            Ok((alphabet, extractor))
        });
        Some(
            compiled
                .as_ref()
                .map(|(a, x)| (a, x))
                .map_err(String::as_str),
        )
    }
}

impl PartialEq for QuerySource {
    fn eq(&self, other: &QuerySource) -> bool {
        self.var == other.var && self.kind == other.kind
    }
}

impl Eq for QuerySource {}

impl fmt::Debug for QuerySource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuerySource")
            .field("var", &self.var)
            .field("kind", &self.kind)
            .finish()
    }
}

/// An inline source's alphabet: `names` split on whitespace, sorted,
/// deduplicated, and closed with [`OTHER`].
fn closed_alphabet(names: &str) -> Alphabet {
    let mut names: Vec<&str> = names.split_whitespace().collect();
    names.sort_unstable();
    names.dedup();
    if !names.contains(&OTHER) {
        names.push(OTHER);
    }
    Alphabet::new(names)
}

/// A complete query: sources plus the algebra plan over them.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryDef {
    pub sources: Vec<QuerySource>,
    pub plan: Plan,
}

impl QueryDef {
    /// Parse and validate the JSON wire format.
    pub fn parse(text: &str) -> Result<QueryDef, QueryError> {
        let value = JsonValue::parse(text).map_err(QueryError::Json)?;
        if value.as_obj().is_none() {
            return Err(shape("top level must be an object"));
        }
        let sources_v = value
            .get("sources")
            .ok_or_else(|| shape("missing \"sources\""))?
            .as_arr()
            .ok_or_else(|| shape("\"sources\" must be an array"))?;
        if sources_v.is_empty() {
            return Err(shape("\"sources\" must not be empty"));
        }
        let mut sources = Vec::with_capacity(sources_v.len());
        for so in sources_v {
            if so.as_obj().is_none() {
                return Err(shape("each source must be an object"));
            }
            let var = str_field(so, "var")?;
            let kind = match (so.get("wrapper"), so.get("expr")) {
                (Some(w), None) => SourceKind::Wrapper(
                    w.as_str()
                        .ok_or_else(|| shape("\"wrapper\" must be a string"))?
                        .to_string(),
                ),
                (None, Some(_)) => SourceKind::Expr {
                    alphabet: str_field(so, "alphabet")?,
                    expr: str_field(so, "expr")?,
                },
                _ => {
                    return Err(shape(format!(
                        "source {var:?} needs exactly one of \"wrapper\" or \"expr\""
                    )))
                }
            };
            if sources.iter().any(|s: &QuerySource| s.var == var) {
                return Err(shape(format!("duplicate source variable {var:?}")));
            }
            sources.push(QuerySource::new(var, kind));
        }
        let plan = parse_plan(value.get("plan").ok_or_else(|| shape("missing \"plan\""))?)?;
        let def = QueryDef { sources, plan };
        def.validate()?;
        Ok(def)
    }

    /// Compile every inline-expression source now instead of at its
    /// first evaluation, and report the first that does not parse. The
    /// compiled forms are kept, so evaluation reuses them.
    pub fn compile(&self) -> Result<(), QueryError> {
        for src in &self.sources {
            if let Some(Err(error)) = src.compiled() {
                return Err(QueryError::BadExpr {
                    var: src.var.clone(),
                    error: error.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Check internal consistency: every plan leaf names a source.
    pub fn validate(&self) -> Result<(), QueryError> {
        for leaf in self.plan.leaves() {
            if !self.sources.iter().any(|s| s.var == leaf) {
                return Err(shape(format!("plan references unknown source {leaf:?}")));
            }
        }
        Ok(())
    }

    /// The source binding `var`, if any.
    pub fn source(&self, var: &str) -> Option<&QuerySource> {
        self.sources.iter().find(|s| s.var == var)
    }

    /// Render back to the JSON wire format (round-trips through
    /// [`QueryDef::parse`]).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.arr("sources", |a| {
                self.sources.iter().fold(a, |a, s| {
                    a.obj(|o| {
                        let o = o.str("var", &s.var);
                        match &s.kind {
                            SourceKind::Wrapper(name) => o.str("wrapper", name),
                            SourceKind::Expr { alphabet, expr } => {
                                o.str("alphabet", alphabet).str("expr", expr)
                            }
                        }
                    })
                })
            })
            .obj("plan", |o| plan_json(&self.plan, o))
        })
    }
}

fn parse_plan(v: &JsonValue) -> Result<Plan, QueryError> {
    if v.as_obj().is_none() {
        return Err(shape("plan node must be an object"));
    }
    let child = |key: &str, what: &str| {
        v.get(key)
            .ok_or_else(|| shape(format!("{what} needs \"{key}\"")))
            .and_then(parse_plan)
            .map(Box::new)
    };
    let op = str_field(v, "op")?;
    match op.as_str() {
        "leaf" => Ok(Plan::Leaf(str_field(v, "var")?)),
        "project" => {
            let vars_v = v
                .get("vars")
                .ok_or_else(|| shape("project needs \"vars\""))?
                .as_arr()
                .ok_or_else(|| shape("\"vars\" must be an array"))?;
            let mut vars = Vec::with_capacity(vars_v.len());
            for vv in vars_v {
                vars.push(
                    vv.as_str()
                        .ok_or_else(|| shape("\"vars\" entries must be strings"))?
                        .to_string(),
                );
            }
            Ok(Plan::Project {
                vars,
                input: child("input", "project")?,
            })
        }
        "union" => Ok(Plan::Union(
            child("left", "union")?,
            child("right", "union")?,
        )),
        "join" => {
            let mut preds = Vec::new();
            if let Some(pv) = v.get("preds") {
                let arr = pv
                    .as_arr()
                    .ok_or_else(|| shape("\"preds\" must be an array"))?;
                for p in arr {
                    if p.as_obj().is_none() {
                        return Err(shape("each pred must be an object"));
                    }
                    let name = str_field(p, "pred")?;
                    let op = PredOp::parse(&name)
                        .ok_or_else(|| shape(format!("unknown predicate {name:?}")))?;
                    preds.push(Pred::new(op, str_field(p, "left")?, str_field(p, "right")?));
                }
            }
            Ok(Plan::Join {
                left: child("left", "join")?,
                right: child("right", "join")?,
                preds,
            })
        }
        other => Err(shape(format!("unknown plan op {other:?}"))),
    }
}

/// Write `plan`'s fields into the node object `o`.
fn plan_json<'a>(plan: &Plan, o: Obj<'a>) -> Obj<'a> {
    match plan {
        Plan::Leaf(name) => o.str("op", "leaf").str("var", name),
        Plan::Project { vars, input } => o
            .str("op", "project")
            .strs("vars", vars.iter().map(String::as_str))
            .obj("input", |o| plan_json(input, o)),
        Plan::Union(l, r) => o
            .str("op", "union")
            .obj("left", |o| plan_json(l, o))
            .obj("right", |o| plan_json(r, o)),
        Plan::Join { left, right, preds } => {
            let o = o
                .str("op", "join")
                .obj("left", |o| plan_json(left, o))
                .obj("right", |o| plan_json(right, o));
            if preds.is_empty() {
                return o;
            }
            o.arr("preds", |a| {
                preds.iter().fold(a, |a, p| {
                    a.obj(|o| {
                        o.str("pred", p.op.name())
                            .str("left", &p.left)
                            .str("right", &p.right)
                    })
                })
            })
        }
    }
}

fn str_field(obj: &JsonValue, key: &str) -> Result<String, QueryError> {
    obj.get(key)
        .ok_or_else(|| shape(format!("missing \"{key}\"")))?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| shape(format!("\"{key}\" must be a string")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const JOIN_QUERY: &str = r#"{
        "sources": [
            {"var": "title", "wrapper": "titles"},
            {"var": "price", "alphabet": "p q", "expr": "[^p]* <p> .*"}
        ],
        "plan": {
            "op": "join",
            "left": {"op": "leaf", "var": "title"},
            "right": {"op": "leaf", "var": "price"},
            "preds": [{"pred": "before", "left": "title", "right": "price"}]
        }
    }"#;

    #[test]
    fn parses_the_documented_query() {
        let q = QueryDef::parse(JOIN_QUERY).unwrap();
        assert_eq!(q.sources.len(), 2);
        assert_eq!(
            q.source("title").unwrap().kind,
            SourceKind::Wrapper("titles".into())
        );
        assert!(matches!(
            q.source("price").unwrap().kind,
            SourceKind::Expr { .. }
        ));
        match &q.plan {
            Plan::Join { preds, .. } => {
                assert_eq!(preds, &[Pred::new(PredOp::Before, "title", "price")]);
            }
            other => panic!("expected join, got {other:?}"),
        }
    }

    #[test]
    fn json_round_trip() {
        let q = QueryDef::parse(JOIN_QUERY).unwrap();
        let rendered = q.to_json();
        // The format of persisted `.query` files, byte for byte.
        assert_eq!(
            rendered,
            r#"{"sources":[{"var":"title","wrapper":"titles"},{"var":"price","alphabet":"p q","expr":"[^p]* <p> .*"}],"plan":{"op":"join","left":{"op":"leaf","var":"title"},"right":{"op":"leaf","var":"price"},"preds":[{"pred":"before","left":"title","right":"price"}]}}"#
        );
        let q2 = QueryDef::parse(&rendered).unwrap();
        assert_eq!(q, q2);
        assert_eq!(q2.to_json(), rendered, "rendering is a fixed point");
    }

    #[test]
    fn nested_plans_round_trip() {
        let text = r#"{
            "sources": [{"var": "a", "wrapper": "w1"}, {"var": "b", "wrapper": "w2"}],
            "plan": {"op": "project", "vars": ["a"],
                     "input": {"op": "union",
                               "left": {"op": "join",
                                        "left": {"op": "leaf", "var": "a"},
                                        "right": {"op": "leaf", "var": "b"}},
                               "right": {"op": "join",
                                         "left": {"op": "leaf", "var": "a"},
                                         "right": {"op": "leaf", "var": "b"},
                                         "preds": [{"pred": "contains", "left": "a", "right": "b"}]}}}
        }"#;
        let q = QueryDef::parse(text).unwrap();
        assert_eq!(QueryDef::parse(&q.to_json()).unwrap(), q);
    }

    #[test]
    fn rejects_malformed_queries() {
        // Not JSON at all.
        assert!(matches!(
            QueryDef::parse("<html>"),
            Err(QueryError::Json(_))
        ));
        // Leaf referencing an unknown source.
        let bad = r#"{"sources": [{"var": "a", "wrapper": "w"}],
                      "plan": {"op": "leaf", "var": "b"}}"#;
        let err = QueryDef::parse(bad).unwrap_err();
        assert!(err.to_string().contains("unknown source"), "{err}");
        // A source with both kinds.
        let both = r#"{"sources": [{"var": "a", "wrapper": "w", "alphabet": "p", "expr": "x"}],
                       "plan": {"op": "leaf", "var": "a"}}"#;
        assert!(QueryDef::parse(both).is_err());
        // Duplicate source vars.
        let dup = r#"{"sources": [{"var": "a", "wrapper": "w"}, {"var": "a", "wrapper": "v"}],
                      "plan": {"op": "leaf", "var": "a"}}"#;
        assert!(QueryDef::parse(dup)
            .unwrap_err()
            .to_string()
            .contains("duplicate"));
        // Unknown predicate.
        let badpred = r#"{"sources": [{"var": "a", "wrapper": "w"}],
            "plan": {"op": "join", "left": {"op": "leaf", "var": "a"},
                     "right": {"op": "leaf", "var": "a"},
                     "preds": [{"pred": "overlaps", "left": "a", "right": "a"}]}}"#;
        assert!(QueryDef::parse(badpred)
            .unwrap_err()
            .to_string()
            .contains("overlaps"));
        // Empty sources.
        assert!(QueryDef::parse(r#"{"sources": [], "plan": {"op": "leaf", "var": "a"}}"#).is_err());
    }

    #[test]
    fn compile_is_kept_and_outside_equality() {
        let q = QueryDef::parse(JOIN_QUERY).unwrap();
        // `parse` compiles nothing.
        assert!(q.sources.iter().all(|s| s.compiled.get().is_none()));
        let fresh = q.clone();
        q.compile().unwrap();
        assert!(q.source("title").unwrap().compiled().is_none());
        let (alphabet, extractor) = q.source("price").unwrap().compiled().unwrap().unwrap();
        // The `#other` rule: sorted names, then `#other`.
        let names: Vec<&str> = alphabet.symbols().map(|s| alphabet.name(s)).collect();
        assert_eq!(names, ["p", "q", OTHER]);
        assert_eq!(extractor.marker(), alphabet.sym("p"));
        // Equality, `Debug` and the wire format ignore the compiled form.
        assert_eq!(q, fresh);
        assert_eq!(format!("{q:?}"), format!("{fresh:?}"));
        assert_eq!(q.to_json(), fresh.to_json());
        assert!(
            format!("{:?}", q.sources[1]).starts_with("QuerySource { var: \"price\", kind: Expr")
        );
    }

    #[test]
    fn compile_reports_the_first_bad_expression_and_keeps_it() {
        let q = QueryDef::parse(
            r#"{"sources": [{"var": "ok", "alphabet": "A", "expr": "<A> .*"},
                            {"var": "f", "alphabet": "A", "expr": "((( <A> .*"},
                            {"var": "g", "alphabet": "A", "expr": "<B>"}],
                "plan": {"op": "leaf", "var": "ok"}}"#,
        )
        .unwrap();
        let err = q.compile().unwrap_err();
        assert!(
            matches!(&err, QueryError::BadExpr { var, .. } if var == "f"),
            "{err:?}"
        );
        assert!(
            err.to_string()
                .starts_with("source \"f\": bad expression: "),
            "{err}"
        );
        assert_eq!(q.compile().unwrap_err(), err, "the error is kept");
        let message = q.source("g").unwrap().compiled().unwrap().err().unwrap();
        assert!(message.contains("unknown marker"), "{message}");
    }

    #[test]
    fn deep_nesting_is_a_json_error() {
        // Objects count toward the parser's nesting bound too.
        let n = crate::json::MAX_JSON_NESTING + 1;
        let objects = format!("{}1{}", r#"{"a":"#.repeat(n), "}".repeat(n));
        assert!(matches!(
            QueryDef::parse(&objects),
            Err(QueryError::Json(m)) if m.contains("nesting deeper")
        ));
    }

    #[test]
    fn escaped_strings_round_trip_through_rendering() {
        let q = QueryDef {
            sources: vec![QuerySource::new(
                "v",
                SourceKind::Expr {
                    alphabet: "p q".into(),
                    expr: "\"quoted\" \\ tab\there".into(),
                },
            )],
            plan: Plan::leaf("v"),
        };
        assert_eq!(QueryDef::parse(&q.to_json()).unwrap(), q);
    }
}
