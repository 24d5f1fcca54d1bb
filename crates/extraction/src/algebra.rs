//! Relational algebra over span relations: projection, union, and
//! natural join with ordering predicates.
//!
//! This is the evaluation layer of the spanner reading of extraction
//! (Freydenberger, Kimelfeld & Peterfreund, "Joining Extractions of
//! Regular Expressions"): each extraction expression contributes a
//! [`SpanRelation`] of candidate spans, and a [`Plan`] tree combines
//! them —
//!
//! * **π (project)** — keep a subset of the variables;
//! * **∪ (union)** — same schema (up to column order), tuple-set union;
//! * **⋈ (join)** — natural join on shared-variable span equality, plus
//!   optional *ordering predicates* (`before`, `contains`) across
//!   variables of the combined row. With disjoint schemas the natural
//!   join is a predicate-filtered cross product — the multi-field
//!   record-assembly workload.
//!
//! Two join strategies share one contract: the production **sort-merge**
//! path sorts both sides by their shared-variable key and merges equal
//! groups (O(n·log n + output) instead of O(n·m) whenever the key is
//! selective), and a **nested-loop** oracle implements the definition
//! literally. Canonical form ([`SpanRelation`] rows sorted + deduped)
//! makes the two byte-comparable, which the proptests and the daemon's
//! `/query` acceptance test exploit.
//!
//! Complexity: for relations of n and m rows, sort-merge join costs
//! O(n·log n + m·log m + |output|) group-merge work; the nested-loop
//! oracle is Θ(n·m). Projection and union are O(n·log n) (re-sorting
//! after the row rewrite). No operator looks at the document — by the
//! time algebra runs, extraction has already collapsed the page to its
//! candidate spans.

use crate::span::{Span, SpanRelation};
use std::collections::HashMap;
use std::fmt;

/// Ordering predicates available in join conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredOp {
    /// `left` ends at or before `right` starts ([`Span::before`]).
    Before,
    /// `left` contains `right` ([`Span::contains`]).
    Contains,
}

impl PredOp {
    /// Wire name, as used in the JSON query format.
    pub fn name(self) -> &'static str {
        match self {
            PredOp::Before => "before",
            PredOp::Contains => "contains",
        }
    }

    /// Parse a wire name.
    pub fn parse(name: &str) -> Option<PredOp> {
        match name {
            "before" => Some(PredOp::Before),
            "contains" => Some(PredOp::Contains),
            _ => None,
        }
    }
}

/// One ordering predicate between two variables of a joined row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pred {
    pub op: PredOp,
    /// Variable on the left of the predicate.
    pub left: String,
    /// Variable on the right of the predicate.
    pub right: String,
}

impl Pred {
    pub fn new(op: PredOp, left: impl Into<String>, right: impl Into<String>) -> Pred {
        Pred {
            op,
            left: left.into(),
            right: right.into(),
        }
    }

    /// Whether the predicate holds on one bound pair of spans.
    pub fn holds(&self, left: &Span, right: &Span) -> bool {
        match self.op {
            PredOp::Before => left.before(right),
            PredOp::Contains => left.contains(right),
        }
    }
}

/// Why an algebra evaluation was rejected. Every variant is a schema or
/// plan error — evaluation itself cannot fail on well-formed inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgebraError {
    /// A plan leaf references an input relation that was not provided.
    UnknownInput(String),
    /// A projection or predicate references a variable not in scope.
    UnknownVar(String),
    /// Union operands whose schemas are not the same variable set.
    SchemaMismatch {
        left: Vec<String>,
        right: Vec<String>,
    },
    /// A projection listed the same variable twice.
    DuplicateVar(String),
}

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgebraError::UnknownInput(name) => write!(f, "unknown input relation {name:?}"),
            AlgebraError::UnknownVar(var) => write!(f, "unknown variable {var:?}"),
            AlgebraError::SchemaMismatch { left, right } => write!(
                f,
                "union schema mismatch: {left:?} vs {right:?} (must be the same variable set)"
            ),
            AlgebraError::DuplicateVar(var) => write!(f, "duplicate variable {var:?}"),
        }
    }
}

impl std::error::Error for AlgebraError {}

/// Join evaluation strategy. `SortMerge` is the production path;
/// `NestedLoop` implements the definition literally and exists as the
/// testing baseline every optimization must stay byte-identical to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    #[default]
    SortMerge,
    NestedLoop,
}

impl JoinStrategy {
    /// Wire name, as used by `rextract query --strategy` and the
    /// daemon's `?strategy=`.
    pub fn name(self) -> &'static str {
        match self {
            JoinStrategy::SortMerge => "sort-merge",
            JoinStrategy::NestedLoop => "nested-loop",
        }
    }

    /// Parse a wire name.
    pub fn parse(name: &str) -> Option<JoinStrategy> {
        match name {
            "sort-merge" => Some(JoinStrategy::SortMerge),
            "nested-loop" => Some(JoinStrategy::NestedLoop),
            _ => None,
        }
    }
}

impl SpanRelation {
    /// π: keep `vars` (in the requested order), deduplicating the
    /// narrowed rows.
    pub fn project(&self, vars: &[impl AsRef<str>]) -> Result<SpanRelation, AlgebraError> {
        let mut cols = Vec::with_capacity(vars.len());
        for v in vars {
            let v = v.as_ref();
            if cols.iter().any(|&c: &usize| self.vars()[c] == v) {
                return Err(AlgebraError::DuplicateVar(v.to_string()));
            }
            cols.push(
                self.column(v)
                    .ok_or_else(|| AlgebraError::UnknownVar(v.to_string()))?,
            );
        }
        let mut out = SpanRelation::empty(vars.iter().map(|v| v.as_ref().to_string()));
        out.set_rows(
            self.rows()
                .iter()
                .map(|row| cols.iter().map(|&c| row[c]).collect())
                .collect(),
        );
        Ok(out)
    }

    /// ∪: tuple-set union. Schemas must be the same variable *set*; the
    /// right operand's columns are reordered to match the left's.
    pub fn union(&self, other: &SpanRelation) -> Result<SpanRelation, AlgebraError> {
        let mismatch = || AlgebraError::SchemaMismatch {
            left: self.vars().to_vec(),
            right: other.vars().to_vec(),
        };
        if self.arity() != other.arity() {
            return Err(mismatch());
        }
        let mut remap = Vec::with_capacity(self.arity());
        for v in self.vars() {
            remap.push(other.column(v).ok_or_else(mismatch)?);
        }
        let mut rows: Vec<Vec<Span>> = self.rows().to_vec();
        rows.extend(
            other
                .rows()
                .iter()
                .map(|row| remap.iter().map(|&c| row[c]).collect::<Vec<Span>>()),
        );
        let mut out = SpanRelation::empty(self.vars().iter().cloned());
        out.set_rows(rows);
        Ok(out)
    }

    /// ⋈: natural join on shared-variable span equality, then filter by
    /// `preds` over the combined row. Output schema is the left schema
    /// followed by the right-only variables. Dispatches on `strategy`;
    /// both strategies produce identical (canonical) relations.
    pub fn join(
        &self,
        other: &SpanRelation,
        preds: &[Pred],
        strategy: JoinStrategy,
    ) -> Result<SpanRelation, AlgebraError> {
        // Shared key: columns of each side holding the common variables,
        // in left-schema order (any fixed order works; this one is
        // deterministic).
        let mut key_left = Vec::new();
        let mut key_right = Vec::new();
        for (c, v) in self.vars().iter().enumerate() {
            if let Some(rc) = other.column(v) {
                key_left.push(c);
                key_right.push(rc);
            }
        }
        let right_only: Vec<usize> = (0..other.arity())
            .filter(|c| !key_right.contains(c))
            .collect();
        let out_vars: Vec<String> = self
            .vars()
            .iter()
            .cloned()
            .chain(right_only.iter().map(|&c| other.vars()[c].clone()))
            .collect();
        // Resolve predicate variables against the output schema once.
        let resolved: Vec<(usize, usize, &Pred)> = preds
            .iter()
            .map(|p| {
                let find = |v: &str| {
                    out_vars
                        .iter()
                        .position(|o| o == v)
                        .ok_or_else(|| AlgebraError::UnknownVar(v.to_string()))
                };
                Ok((find(&p.left)?, find(&p.right)?, p))
            })
            .collect::<Result<_, AlgebraError>>()?;

        let emit = |l: &[Span], r: &[Span], rows: &mut Vec<Vec<Span>>| {
            let mut row: Vec<Span> = l.to_vec();
            row.extend(right_only.iter().map(|&c| r[c]));
            if resolved.iter().all(|&(a, b, p)| p.holds(&row[a], &row[b])) {
                rows.push(row);
            }
        };

        let mut rows = Vec::new();
        match strategy {
            JoinStrategy::NestedLoop => {
                // The definition, literally: every pair of rows whose
                // shared variables bind equal spans.
                for l in self.rows() {
                    for r in other.rows() {
                        let matches = key_left
                            .iter()
                            .zip(&key_right)
                            .all(|(&lc, &rc)| l[lc] == r[rc]);
                        if matches {
                            emit(l, r, &mut rows);
                        }
                    }
                }
            }
            JoinStrategy::SortMerge => {
                let key_of = |row: &[Span], cols: &[usize]| -> Vec<Span> {
                    cols.iter().map(|&c| row[c]).collect()
                };
                let mut left_idx: Vec<usize> = (0..self.len()).collect();
                let mut right_idx: Vec<usize> = (0..other.len()).collect();
                left_idx.sort_unstable_by_key(|&i| key_of(&self.rows()[i], &key_left));
                right_idx.sort_unstable_by_key(|&i| key_of(&other.rows()[i], &key_right));
                let (mut i, mut j) = (0, 0);
                while i < left_idx.len() && j < right_idx.len() {
                    let lk = key_of(&self.rows()[left_idx[i]], &key_left);
                    let rk = key_of(&other.rows()[right_idx[j]], &key_right);
                    match lk.cmp(&rk) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            // Group boundaries: runs of equal keys on
                            // both sides; cross product within the group.
                            let i_end = (i..left_idx.len())
                                .find(|&x| key_of(&self.rows()[left_idx[x]], &key_left) != lk)
                                .unwrap_or(left_idx.len());
                            let j_end = (j..right_idx.len())
                                .find(|&x| key_of(&other.rows()[right_idx[x]], &key_right) != rk)
                                .unwrap_or(right_idx.len());
                            for &li in &left_idx[i..i_end] {
                                for &rj in &right_idx[j..j_end] {
                                    emit(&self.rows()[li], &other.rows()[rj], &mut rows);
                                }
                            }
                            i = i_end;
                            j = j_end;
                        }
                    }
                }
            }
        }
        let mut out = SpanRelation::empty(out_vars);
        out.set_rows(rows);
        Ok(out)
    }
}

/// An algebra expression tree. Leaves name input relations; interior
/// nodes are π/∪/⋈.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// A named input relation (a query source variable).
    Leaf(String),
    /// π over the input.
    Project { vars: Vec<String>, input: Box<Plan> },
    /// ∪ of two subplans.
    Union(Box<Plan>, Box<Plan>),
    /// ⋈ of two subplans under ordering predicates.
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        preds: Vec<Pred>,
    },
}

impl Plan {
    /// Convenience constructors for tests and builders.
    pub fn leaf(name: impl Into<String>) -> Plan {
        Plan::Leaf(name.into())
    }

    pub fn project(vars: impl IntoIterator<Item = impl Into<String>>, input: Plan) -> Plan {
        Plan::Project {
            vars: vars.into_iter().map(Into::into).collect(),
            input: Box::new(input),
        }
    }

    pub fn union(left: Plan, right: Plan) -> Plan {
        Plan::Union(Box::new(left), Box::new(right))
    }

    pub fn join(left: Plan, right: Plan, preds: Vec<Pred>) -> Plan {
        Plan::Join {
            left: Box::new(left),
            right: Box::new(right),
            preds,
        }
    }

    /// Every leaf name, in first-occurrence order, deduplicated — the
    /// input relations an evaluator must provide.
    pub fn leaves(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves<'p>(&'p self, out: &mut Vec<&'p str>) {
        match self {
            Plan::Leaf(name) => {
                if !out.contains(&name.as_str()) {
                    out.push(name);
                }
            }
            Plan::Project { input, .. } => input.collect_leaves(out),
            Plan::Union(l, r)
            | Plan::Join {
                left: l, right: r, ..
            } => {
                l.collect_leaves(out);
                r.collect_leaves(out);
            }
        }
    }

    /// Evaluate against named input relations with the production
    /// sort-merge join.
    pub fn eval(
        &self,
        inputs: &HashMap<String, SpanRelation>,
    ) -> Result<SpanRelation, AlgebraError> {
        self.eval_with(inputs, JoinStrategy::SortMerge)
    }

    /// Evaluate with an explicit join strategy ([`JoinStrategy::NestedLoop`]
    /// is the oracle the production path is verified against).
    pub fn eval_with(
        &self,
        inputs: &HashMap<String, SpanRelation>,
        strategy: JoinStrategy,
    ) -> Result<SpanRelation, AlgebraError> {
        match self {
            Plan::Leaf(name) => inputs
                .get(name)
                .cloned()
                .ok_or_else(|| AlgebraError::UnknownInput(name.clone())),
            Plan::Project { vars, input } => input.eval_with(inputs, strategy)?.project(vars),
            Plan::Union(l, r) => l
                .eval_with(inputs, strategy)?
                .union(&r.eval_with(inputs, strategy)?),
            Plan::Join { left, right, preds } => left.eval_with(inputs, strategy)?.join(
                &right.eval_with(inputs, strategy)?,
                preds,
                strategy,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(var: &str, positions: &[usize]) -> SpanRelation {
        SpanRelation::unary(var, positions.iter().map(|&p| Span::unit(p)))
    }

    #[test]
    fn project_narrows_and_dedups() {
        let rel = SpanRelation::from_rows(
            ["x", "y"],
            [
                vec![Span::unit(1), Span::unit(5)],
                vec![Span::unit(1), Span::unit(7)],
                vec![Span::unit(2), Span::unit(5)],
            ],
        );
        let p = rel.project(&["x"]).unwrap();
        assert_eq!(p.vars(), ["x".to_string()]);
        assert_eq!(p.len(), 2, "two x-rows collapsed into one");
        // Reordering columns is projection too.
        let swapped = rel.project(&["y", "x"]).unwrap();
        assert_eq!(swapped.vars(), ["y".to_string(), "x".to_string()]);
        assert_eq!(swapped.len(), 3);
        assert_eq!(
            rel.project(&["z"]),
            Err(AlgebraError::UnknownVar("z".into()))
        );
        assert_eq!(
            rel.project(&["x", "x"]),
            Err(AlgebraError::DuplicateVar("x".into()))
        );
    }

    #[test]
    fn union_merges_and_reorders_columns() {
        let a = SpanRelation::from_rows(["x", "y"], [vec![Span::unit(1), Span::unit(2)]]);
        let b = SpanRelation::from_rows(["y", "x"], [vec![Span::unit(2), Span::unit(1)]]);
        let merged = a.union(&b).unwrap();
        assert_eq!(merged.len(), 1, "same tuple under reordered schema");
        let c = SpanRelation::from_rows(["y", "x"], [vec![Span::unit(9), Span::unit(8)]]);
        let merged2 = a.union(&c).unwrap();
        assert_eq!(merged2.len(), 2);
        assert_eq!(merged2.vars(), ["x".to_string(), "y".to_string()]);
        assert!(matches!(
            a.union(&u("z", &[1])),
            Err(AlgebraError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn disjoint_join_is_filtered_cross_product() {
        let titles = u("title", &[2, 10]);
        let prices = u("price", &[5, 12]);
        let before = vec![Pred::new(PredOp::Before, "title", "price")];
        let joined = titles
            .join(&prices, &before, JoinStrategy::SortMerge)
            .unwrap();
        assert_eq!(joined.vars(), ["title".to_string(), "price".to_string()]);
        // (2,5) (2,12) (10,12) pass; (10,5) fails before.
        assert_eq!(joined.len(), 3);
        let oracle = titles
            .join(&prices, &before, JoinStrategy::NestedLoop)
            .unwrap();
        assert_eq!(joined, oracle);
    }

    #[test]
    fn shared_var_join_is_intersection() {
        let a = u("x", &[1, 2, 3]);
        let b = u("x", &[2, 3, 4]);
        let j = a.join(&b, &[], JoinStrategy::SortMerge).unwrap();
        assert_eq!(j, u("x", &[2, 3]));
        assert_eq!(j, a.join(&b, &[], JoinStrategy::NestedLoop).unwrap());
    }

    #[test]
    fn join_on_partially_shared_schemas() {
        let ab = SpanRelation::from_rows(
            ["a", "b"],
            [
                vec![Span::unit(1), Span::unit(2)],
                vec![Span::unit(1), Span::unit(3)],
                vec![Span::unit(5), Span::unit(6)],
            ],
        );
        let bc = SpanRelation::from_rows(
            ["b", "c"],
            [
                vec![Span::unit(2), Span::unit(9)],
                vec![Span::unit(3), Span::unit(7)],
                vec![Span::unit(8), Span::unit(1)],
            ],
        );
        let j = ab.join(&bc, &[], JoinStrategy::SortMerge).unwrap();
        assert_eq!(
            j.vars(),
            ["a".to_string(), "b".to_string(), "c".to_string()]
        );
        assert_eq!(j.len(), 2, "b=2 and b=3 match, b∈{{6,8}} don't");
        assert_eq!(j, ab.join(&bc, &[], JoinStrategy::NestedLoop).unwrap());
    }

    #[test]
    fn contains_predicate_filters() {
        let regions = SpanRelation::unary("region", [Span::new(0, 10), Span::new(20, 30)]);
        let points = u("pt", &[5, 25, 40]);
        let preds = vec![Pred::new(PredOp::Contains, "region", "pt")];
        let j = regions
            .join(&points, &preds, JoinStrategy::SortMerge)
            .unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(
            j,
            regions
                .join(&points, &preds, JoinStrategy::NestedLoop)
                .unwrap()
        );
    }

    #[test]
    fn join_pred_unknown_var_is_rejected() {
        let a = u("x", &[1]);
        let b = u("y", &[2]);
        assert_eq!(
            a.join(
                &b,
                &[Pred::new(PredOp::Before, "x", "nope")],
                JoinStrategy::SortMerge
            ),
            Err(AlgebraError::UnknownVar("nope".into()))
        );
    }

    #[test]
    fn plan_eval_and_leaves() {
        let plan = Plan::project(
            ["title", "price"],
            Plan::join(
                Plan::leaf("title"),
                Plan::union(Plan::leaf("price"), Plan::leaf("price")),
                vec![Pred::new(PredOp::Before, "title", "price")],
            ),
        );
        assert_eq!(plan.leaves(), ["title", "price"]);
        let mut inputs = HashMap::new();
        inputs.insert("title".to_string(), u("title", &[1]));
        inputs.insert("price".to_string(), u("price", &[4, 0]));
        let out = plan.eval(&inputs).unwrap();
        assert_eq!(out.len(), 1, "price 0 is not after title 1");
        assert_eq!(
            out,
            plan.eval_with(&inputs, JoinStrategy::NestedLoop).unwrap()
        );
        inputs.remove("price");
        assert_eq!(
            plan.eval(&inputs),
            Err(AlgebraError::UnknownInput("price".into()))
        );
    }
}
