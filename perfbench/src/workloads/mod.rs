//! The four workloads. Each `run` returns the checked outcome and, for a
//! traced run, the tracer holding its spans.

pub mod catalog;
pub mod query;
pub mod serve;
pub mod train;

use crate::report::{ratio, Outcome};
use crate::trace::{totals_by_name, Span};
use rextract_automata::Store;
use std::collections::BTreeMap;

/// Language-store counter deltas over a pass, summable across op-cache
/// resets.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreDelta {
    hits: u64,
    misses: u64,
    interned: u64,
    dedup_hits: u64,
    evictions: u64,
}

impl StoreDelta {
    /// Run `f` and add the store counter deltas it causes.
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = Store::stats();
        let out = f();
        let d = Store::stats().since(&before);
        self.hits += d.hits();
        self.misses += d.misses();
        self.interned += d.interned;
        self.dedup_hits += d.dedup_hits;
        self.evictions += d.evictions;
        out
    }

    /// The `store.*` metrics.
    pub fn report(&self, out: &mut Outcome) {
        let l = &mut out.layers;
        l.insert(
            "store.op_hit_ratio",
            ratio(self.hits as f64, (self.hits + self.misses) as f64),
        );
        l.insert("store.op_misses", self.misses as f64);
        l.insert("store.langs_interned", self.interned as f64);
        l.insert(
            "store.dedupe_ratio",
            ratio(
                self.dedup_hits as f64,
                (self.interned + self.dedup_hits) as f64,
            ),
        );
        l.insert("store.evictions", self.evictions as f64);
    }
}

/// Self and total time per span name over a traced pass, in µs per item.
pub struct PerItem {
    totals: BTreeMap<&'static str, (u64, u64, u64)>,
    items: f64,
}

impl PerItem {
    pub fn new(spans: &[Span], items: usize) -> PerItem {
        PerItem {
            totals: totals_by_name(spans),
            items: items as f64,
        }
    }

    /// Mean self time of `name` per item, µs.
    pub fn self_us(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |t| t.0 as f64 / 1000.0 / self.items)
    }

    /// Mean duration of `name` per item, µs.
    pub fn dur_us(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |t| t.1 as f64 / 1000.0 / self.items)
    }

    /// Total duration of `name`, ns.
    pub fn dur_ns(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.1 as f64)
    }

    /// How many `name` spans were recorded.
    pub fn count(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.2 as f64)
    }
}
