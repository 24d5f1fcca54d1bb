//! # rextract-extraction
//!
//! The primary contribution of *"Computational Aspects of Resilient Data
//! Extraction from Semistructured Sources"* (PODS 2000): **extraction
//! expressions** `E1⟨p⟩E2` and the decision procedures and synthesis
//! algorithms around them.
//!
//! | Paper item | Module |
//! |---|---|
//! | Definition 4.1 (extraction expression) | [`expr`] |
//! | Definition 4.2 / Props. 5.4–5.5 / Thm. 5.6 (unambiguity) | [`ambiguity`] |
//! | Definition 4.4 (resilience order `≼`) | [`order`] |
//! | Definitions 4.5–4.7 / Props. 5.7, 5.11 / Cor. 5.8 / Thm. 5.12 (maximality) | [`maximality`] |
//! | Definition 6.1 (finite sequence filtering `E‖ⁿ_p`) | [`filtering`] |
//! | Algorithm 6.2 / Prop. 6.5 (left-filtering maximization) | [`left_filter`] |
//! | Props. 6.6–6.8 (pivot maximization framework) | [`pivot`] |
//! | "we try such splits until we succeed" (Section 4) — but in linear time | [`extract`] |
//!
//! [`oracle`] holds brute-force definitional checkers used by tests and by
//! EXPERIMENTS.md cross-validation; they enumerate small languages and
//! should not be used on production-sized inputs.
//!
//! Beyond the paper, the **span-relational layer** ([`span`], [`algebra`],
//! [`query`]) recasts extraction results as document spanners in the sense
//! of Freydenberger–Kimelfeld–Peterfreund: every engine result is a
//! [`SpanRelation`], and projection/union/natural-join (with `before` /
//! `contains` ordering predicates) assemble multi-field records from
//! independent expressions over the same document. [`json`] is the
//! workspace's one JSON implementation: the query format's parser and
//! the append-only writer every wire format renders through.
//!
//! ## Example: the paper's running `p`/`q` expressions
//!
//! ```
//! use rextract_automata::Alphabet;
//! use rextract_extraction::ExtractionExpr;
//!
//! let ab = Alphabet::new(["p", "q"]);
//!
//! // Example 4.3: (pq)*⟨p⟩Σ* is ambiguous…
//! let e = ExtractionExpr::parse(&ab, "(p q)* <p> .*").unwrap();
//! assert!(e.is_ambiguous());
//!
//! // …while (Σ−p)*⟨p⟩Σ* is unambiguous, and in fact maximal (Example 4.6).
//! let m = ExtractionExpr::parse(&ab, "[^p]* <p> .*").unwrap();
//! assert!(!m.is_ambiguous());
//! assert!(m.is_maximal());
//! ```

pub mod algebra;
pub mod ambiguity;
pub mod error;
pub mod expr;
pub mod extract;
pub mod filtering;
pub mod json;
pub mod left_filter;
pub mod maximality;
pub mod multi;
pub mod oracle;
pub mod order;
pub mod pivot;
pub mod query;
pub mod refine;
pub mod right_filter;
pub mod span;

pub use algebra::{AlgebraError, JoinStrategy, Plan, Pred, PredOp};
pub use error::ExtractionError;
pub use expr::ExtractionExpr;
pub use extract::{ExtractScratch, Extractor, NaiveExtractor, TwoPassExtractor};
pub use multi::{MultiExtractionExpr, MultiExtractor};
pub use pivot::segment_ok;
pub use pivot::PivotExpr;
pub use query::{QueryDef, QueryError, QuerySource, SourceKind, OTHER};
pub use span::{Span, SpanRelation};
