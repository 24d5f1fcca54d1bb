//! # rextract-wrapper
//!
//! The end-to-end resilient wrapper the paper's "web-based information
//! harvesting system" needed (Sections 1, 3 and 7), assembled from the
//! other crates:
//!
//! ```text
//! sample pages + marked target
//!         │  (html: tokenize + abstract)
//!         ▼
//! marked tag sequences ──(learn: merge heuristic)──► pivot expression
//!         │                                              │
//!         │                        (extraction: pivot maximization)
//!         ▼                                              ▼
//!   initial wrapper                              resilient wrapper
//! ```
//!
//! * [`wrapper`] — the [`wrapper::Wrapper`] train/extract API,
//! * [`site`] — a synthetic catalog-site generator standing in for the
//!   paper's live vendor pages (see DESIGN.md, substitutions),
//! * [`report`] — the resilience experiment harness (paper's "preliminary
//!   experiments" claim, experiment E5).

pub mod locator;
pub mod persist;
pub mod query;
pub mod report;
pub mod site;
pub mod tuple;
pub mod wrapper;

pub use locator::{LrLocator, TargetLocator};
pub use query::{evaluate_query, evaluate_query_with, QueryEvalError};
pub use site::{PageStyle, SiteConfig, SiteGenerator};
pub use tuple::{MultiTrainPage, TupleWrapper};
pub use wrapper::{PageOutcome, TrainPage, Wrapper, WrapperConfig, WrapperError, WrapperScratch};
