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
//! (`left`, `right`), `join` (`left`, `right`, optional `preds`). The
//! build environment has no JSON dependency, so parsing is a small
//! recursive-descent parser over a generic [`JsonValue`] — strict enough
//! to reject the malformed bodies an HTTP endpoint will inevitably see.

use crate::algebra::{Plan, Pred, PredOp};
use std::fmt;

/// Errors from parsing or validating a query description.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The body is not well-formed JSON.
    Json(String),
    /// Well-formed JSON, but not a valid query description.
    Shape(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Json(e) => write!(f, "invalid JSON: {e}"),
            QueryError::Shape(e) => write!(f, "invalid query: {e}"),
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySource {
    /// The variable this source binds (a plan leaf name).
    pub var: String,
    pub kind: SourceKind,
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
        let obj = value
            .as_obj()
            .ok_or_else(|| shape("top level must be an object"))?;
        let sources_v = get(obj, "sources")
            .ok_or_else(|| shape("missing \"sources\""))?
            .as_arr()
            .ok_or_else(|| shape("\"sources\" must be an array"))?;
        if sources_v.is_empty() {
            return Err(shape("\"sources\" must not be empty"));
        }
        let mut sources = Vec::with_capacity(sources_v.len());
        for sv in sources_v {
            let so = sv
                .as_obj()
                .ok_or_else(|| shape("each source must be an object"))?;
            let var = str_field(so, "var")?;
            let kind = match (get(so, "wrapper"), get(so, "expr")) {
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
            sources.push(QuerySource { var, kind });
        }
        let plan = parse_plan(get(obj, "plan").ok_or_else(|| shape("missing \"plan\""))?)?;
        let def = QueryDef { sources, plan };
        def.validate()?;
        Ok(def)
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
        let mut out = String::from("{\"sources\":[");
        for (i, s) in self.sources.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"var\":");
            out.push_str(&json_string(&s.var));
            match &s.kind {
                SourceKind::Wrapper(name) => {
                    out.push_str(",\"wrapper\":");
                    out.push_str(&json_string(name));
                }
                SourceKind::Expr { alphabet, expr } => {
                    out.push_str(",\"alphabet\":");
                    out.push_str(&json_string(alphabet));
                    out.push_str(",\"expr\":");
                    out.push_str(&json_string(expr));
                }
            }
            out.push('}');
        }
        out.push_str("],\"plan\":");
        plan_to_json(&self.plan, &mut out);
        out.push('}');
        out
    }
}

fn parse_plan(v: &JsonValue) -> Result<Plan, QueryError> {
    let obj = v
        .as_obj()
        .ok_or_else(|| shape("plan node must be an object"))?;
    let op = str_field(obj, "op")?;
    match op.as_str() {
        "leaf" => Ok(Plan::Leaf(str_field(obj, "var")?)),
        "project" => {
            let vars_v = get(obj, "vars")
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
                input: Box::new(parse_plan(
                    get(obj, "input").ok_or_else(|| shape("project needs \"input\""))?,
                )?),
            })
        }
        "union" => Ok(Plan::Union(
            Box::new(parse_plan(
                get(obj, "left").ok_or_else(|| shape("union needs \"left\""))?,
            )?),
            Box::new(parse_plan(
                get(obj, "right").ok_or_else(|| shape("union needs \"right\""))?,
            )?),
        )),
        "join" => {
            let mut preds = Vec::new();
            if let Some(pv) = get(obj, "preds") {
                let arr = pv
                    .as_arr()
                    .ok_or_else(|| shape("\"preds\" must be an array"))?;
                for p in arr {
                    let po = p
                        .as_obj()
                        .ok_or_else(|| shape("each pred must be an object"))?;
                    let name = str_field(po, "pred")?;
                    let op = PredOp::parse(&name)
                        .ok_or_else(|| shape(format!("unknown predicate {name:?}")))?;
                    preds.push(Pred::new(
                        op,
                        str_field(po, "left")?,
                        str_field(po, "right")?,
                    ));
                }
            }
            Ok(Plan::Join {
                left: Box::new(parse_plan(
                    get(obj, "left").ok_or_else(|| shape("join needs \"left\""))?,
                )?),
                right: Box::new(parse_plan(
                    get(obj, "right").ok_or_else(|| shape("join needs \"right\""))?,
                )?),
                preds,
            })
        }
        other => Err(shape(format!("unknown plan op {other:?}"))),
    }
}

fn plan_to_json(plan: &Plan, out: &mut String) {
    match plan {
        Plan::Leaf(name) => {
            out.push_str("{\"op\":\"leaf\",\"var\":");
            out.push_str(&json_string(name));
            out.push('}');
        }
        Plan::Project { vars, input } => {
            out.push_str("{\"op\":\"project\",\"vars\":[");
            for (i, v) in vars.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(v));
            }
            out.push_str("],\"input\":");
            plan_to_json(input, out);
            out.push('}');
        }
        Plan::Union(l, r) => {
            out.push_str("{\"op\":\"union\",\"left\":");
            plan_to_json(l, out);
            out.push_str(",\"right\":");
            plan_to_json(r, out);
            out.push('}');
        }
        Plan::Join { left, right, preds } => {
            out.push_str("{\"op\":\"join\",\"left\":");
            plan_to_json(left, out);
            out.push_str(",\"right\":");
            plan_to_json(right, out);
            if !preds.is_empty() {
                out.push_str(",\"preds\":[");
                for (i, p) in preds.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"pred\":");
                    out.push_str(&json_string(p.op.name()));
                    out.push_str(",\"left\":");
                    out.push_str(&json_string(&p.left));
                    out.push_str(",\"right\":");
                    out.push_str(&json_string(&p.right));
                    out.push('}');
                }
                out.push(']');
            }
            out.push('}');
        }
    }
}

fn get<'v>(obj: &'v [(String, JsonValue)], key: &str) -> Option<&'v JsonValue> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn str_field(obj: &[(String, JsonValue)], key: &str) -> Result<String, QueryError> {
    get(obj, key)
        .ok_or_else(|| shape(format!("missing \"{key}\"")))?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| shape(format!("\"{key}\" must be a string")))
}

/// Escape a string into a JSON literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The parser
/// and everything that walks a parsed value recurse once per level, so
/// this bound keeps a hostile body from overflowing a 2 MiB worker stack;
/// query definitions nest a few levels per plan operator.
pub const MAX_JSON_NESTING: usize = 128;

/// A parsed JSON value — the minimal generic layer under the query
/// format. Object fields keep document order (duplicates: first wins via
/// [`get`]).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse one JSON document (trailing garbage rejected).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(o) => Some(o),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct JsonParser<'t> {
    bytes: &'t [u8],
    pos: usize,
    /// Arrays/objects currently open, bounded by [`MAX_JSON_NESTING`].
    depth: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected {word:?} at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_JSON_NESTING => Err(format!(
                "nesting deeper than {MAX_JSON_NESTING} levels at byte {}",
                self.pos
            )),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| JsonValue::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parse one array or object one nesting level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the run up to the next escape or quote.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.pos += 4;
                            // Surrogate pairs: read the low half if present.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos..self.pos + 2) == Some(b"\\u") {
                                    let hex2 = self
                                        .bytes
                                        .get(self.pos + 2..self.pos + 6)
                                        .and_then(|h| std::str::from_utf8(h).ok())
                                        .ok_or_else(|| "truncated \\u escape".to_string())?;
                                    let low = u32::from_str_radix(hex2, 16)
                                        .map_err(|_| format!("bad \\u escape {hex2:?}"))?;
                                    self.pos += 6;
                                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                } else {
                                    return Err("lone high surrogate".to_string());
                                }
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(c)
                                    .ok_or_else(|| format!("invalid code point {c:#x}"))?,
                            );
                        }
                        other => {
                            return Err(format!("bad escape \\{}", other as char));
                        }
                    }
                }
                Some(_) => return Err("control character in string".to_string()),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
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
    fn json_parser_handles_escapes_and_rejects_garbage() {
        assert_eq!(
            JsonValue::parse(r#""a\"b\\c\ndA😀""#).unwrap(),
            JsonValue::Str("a\"b\\c\ndA😀".to_string())
        );
        assert_eq!(JsonValue::parse("-12.5e1").unwrap(), JsonValue::Num(-125.0));
        assert_eq!(
            JsonValue::parse("[true, false, null]").unwrap(),
            JsonValue::Arr(vec![
                JsonValue::Bool(true),
                JsonValue::Bool(false),
                JsonValue::Null
            ])
        );
        for bad in ["{", "[1,]", "\"unterminated", "{} trailing", "nul", "+5"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // A daemon worker's 2 MiB stack, where 9,000 `[` used to abort.
        let err = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| JsonValue::parse(&"[".repeat(1 << 20)).unwrap_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(err.contains("nesting deeper"), "{err}");
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(JsonValue::parse(&arrays(MAX_JSON_NESTING)).is_ok());
        assert!(JsonValue::parse(&arrays(MAX_JSON_NESTING + 1)).is_err());
        // Objects count too, and the query parser reports a JSON error.
        let n = MAX_JSON_NESTING + 1;
        let objects = format!("{}1{}", r#"{"a":"#.repeat(n), "}".repeat(n));
        assert!(matches!(
            QueryDef::parse(&objects),
            Err(QueryError::Json(m)) if m.contains("nesting deeper")
        ));
    }

    #[test]
    fn escaped_strings_round_trip_through_rendering() {
        let q = QueryDef {
            sources: vec![QuerySource {
                var: "v".into(),
                kind: SourceKind::Expr {
                    alphabet: "p q".into(),
                    expr: "\"quoted\" \\ tab\there".into(),
                },
            }],
            plan: Plan::leaf("v"),
        };
        assert_eq!(QueryDef::parse(&q.to_json()).unwrap(), q);
    }
}
