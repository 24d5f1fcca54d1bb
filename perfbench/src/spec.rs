//! The benchmark's definition: workloads, their generator parameters,
//! and every metric with its unit and bound. `BENCHMARK.json` is rendered
//! from this module (`perfbench manifest --write`), so names live in one
//! place.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "throughput_per_s",
        unit: "items/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
    },
];

/// A per-layer metric from the traced run (no bound).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher as H, Lower as L};

pub const PER_LAYER: &[PerLayer] = &[
    layer("html.tokenize_us", "us", L),
    layer("html.tokenize_share", "ratio", L),
    layer("html.tokenize_mb_per_s", "MB/s", H),
    layer("html.tokens_per_page", "count", L),
    layer("router.signature_us", "us", L),
    layer("router.route_extract_us", "us", L),
    layer("router.probe_ratio", "ratio", L),
    layer("router.share", "ratio", L),
    layer("wrapper.abstract_us", "us", L),
    layer("wrapper.abstract_share", "ratio", L),
    layer("scan.us", "us", L),
    layer("scan.ns_per_token", "ns", L),
    layer("scan.share", "ratio", L),
    layer("compile.us_per_expr", "us", L),
    layer("compile.share", "ratio", L),
    layer("algebra.us", "us", L),
    layer("algebra.rows_in", "count", L),
    layer("algebra.rows_out", "count", L),
    layer("algebra.share", "ratio", L),
    layer("sink.render_us", "us", L),
    layer("sink.share", "ratio", L),
    layer("pipeline.residue_share", "ratio", L),
    layer("query.residue_share", "ratio", L),
    layer("serve.parse_us", "us", L),
    layer("serve.server_tokenize_us", "us", L),
    layer("serve.server_extract_us", "us", L),
    layer("serve.residue_us", "us", L),
    layer("serve.avg_batch", "count", H),
    layer("serve.wakeups_per_request", "ratio", L),
    layer("serve.rejected", "count", L),
    layer("store.op_hit_ratio", "ratio", H),
    layer("store.op_misses", "count", L),
    layer("store.langs_interned", "count", L),
    layer("store.dedupe_ratio", "ratio", H),
    layer("store.evictions", "count", L),
    layer("train.abstract_us", "us", L),
    layer("train.merge_us", "us", L),
    layer("train.maximize_us", "us", L),
    layer("train.compile_us", "us", L),
    layer("train.abstract_share", "ratio", L),
    layer("train.merge_share", "ratio", L),
    layer("train.maximize_share", "ratio", L),
    layer("train.compile_share", "ratio", L),
    layer("train.residue_share", "ratio", L),
    layer("train.maximized_ratio", "ratio", H),
    layer("persist.import_us", "us", L),
    layer("trace.overhead_ratio", "ratio", L),
];

/// Window length of the windowed throughput (see `stats::windowed_rate`).
pub const RATE_WINDOW_S: f64 = 0.25;

/// The traced run alternates this many untraced and traced replay passes,
/// so both sample the same phases of a noisy machine.
pub const TRACE_ROUNDS: usize = 5;

/// Loop time between two setup repetitions (see `gen::SetupSampler`).
pub const SETUP_EVERY_S: f64 = 0.25;

/// `Wrapper::import` repetitions behind `persist.import_us` on
/// extract-serve, whose own imports happen inside the daemon.
pub const IMPORT_REPS: usize = 25;

// ---- catalog-pipeline ---------------------------------------------------
pub const CATALOG_WORKERS: usize = 2;
pub const CATALOG_BATCH_PAGES: usize = 1000;
pub const CATALOG_BATCHES: usize = 4;
pub const CATALOG_DRIFT_EVERY: usize = 20;
pub const CATALOG_DRIFT_EDITS: usize = 3;

// ---- extract-serve ------------------------------------------------------
pub const SERVE_WORKERS: usize = 2;
pub const SERVE_CLIENTS: usize = 2;
pub const SERVE_BURST: usize = 8;
pub const SERVE_BODIES: usize = 256;
pub const SERVE_EDITS: usize = 1;
pub const SERVE_TRACED_BURSTS: usize = 64;
/// Length of one load segment; a setup repetition runs between two.
pub const SERVE_SEGMENT_S: f64 = 1.0;

// ---- query-join ---------------------------------------------------------
pub const QUERY_PAGES_PER_LAYOUT: usize = 2;

// ---- wrapper-train ------------------------------------------------------
pub const TRAIN_SETS: usize = 600;
/// Sets the traced run replays layer by layer.
pub const TRAIN_TRACED_SETS: usize = 150;
pub const TRAIN_SEARCH_PAGES: usize = 4;
pub const TRAIN_LISTING_PAGES: usize = 6;
pub const TRAIN_TUPLE_PAGES: usize = 2;
pub const TRAIN_HELD_OUT: usize = 4;

/// One workload: its name, why it is in the benchmark, and the generator
/// parameters that shape it (name, value, reason).
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub params: fn() -> Vec<(&'static str, String, &'static str)>,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "catalog-pipeline",
        why: "Batch path: run_pipeline, 2 workers, search and listing pages with 5% drifted ones; tokenizer-bound, and the drifted share drives the probe and failure paths.",
        params: || {
            vec![
                ("workers", CATALOG_WORKERS.to_string(), "one per vCPU of the 2-vCPU reference box"),
                ("batch_pages", CATALOG_BATCH_PAGES.to_string(), "pages per run_pipeline call; one call is one latency sample"),
                ("batches", CATALOG_BATCHES.to_string(), "distinct batches cycled by the timed loop"),
                ("drifted_share", format!("1/{CATALOG_DRIFT_EVERY}"), "a small fixed share of perturbed pages exercises the failure and fresh-signature probe paths"),
                ("drift_edits", CATALOG_DRIFT_EDITS.to_string(), "enough Section 3 edits that some drifted pages fail or route fresh"),
            ]
        },
    },
    Workload {
        name: "extract-serve",
        why: "Only workload through the daemon's serve core (HTTP parse, epoll, queue, same-wrapper batching, JSON): 2 keep-alive clients pipeline bursts of 8 POST /extract.",
        params: || {
            vec![
                ("daemon_workers", SERVE_WORKERS.to_string(), "one per vCPU of the 2-vCPU reference box"),
                ("clients", SERVE_CLIENTS.to_string(), "closed loop, one keep-alive connection each"),
                ("burst", SERVE_BURST.to_string(), "pipelined requests per burst; each burst names one wrapper so it can coalesce"),
                ("bodies_per_wrapper", SERVE_BODIES.to_string(), "distinct request bodies per wrapper, cycled"),
                ("edits", SERVE_EDITS.to_string(), "lightly perturbed pages: mostly 200 with some 422"),
                ("traced_bursts", SERVE_TRACED_BURSTS.to_string(), "bursts per client in the traced pass"),
            ]
        },
    },
    Workload {
        name: "query-join",
        why: "The rextract query path run serially over listing pages: a wrapper source joined with inline-expression sources, so inline compile and the span algebra dominate.",
        params: || {
            vec![
                ("pages_per_layout", QUERY_PAGES_PER_LAYOUT.to_string(), "distinct listing pages of each of the 72 layouts (title, header, 1-6 product rows, 0-2 link rows), cycled; the same layout mix for every seed keeps page cost seed-independent"),
                ("strategy", "sort-merge".to_string(), "the production join; nested-loop is the oracle"),
            ]
        },
    },
    Workload {
        name: "wrapper-train",
        why: "Serial Wrapper::train and TupleWrapper::train over sample sets from distinct seeds, each from an empty op cache: the paper's merge and maximization.",
        params: || {
            vec![
                ("sample_sets", TRAIN_SETS.to_string(), "cycled in order search, listing, arity-2 tuple; each set from its own generator seed; enough sets that their mean cost barely moves with the run seed"),
                ("traced_sets", TRAIN_TRACED_SETS.to_string(), "the first sets, replayed layer by layer in the traced run"),
                ("search_pages", TRAIN_SEARCH_PAGES.to_string(), "plain, table-embedded and two busy layouts"),
                ("listing_pages", TRAIN_LISTING_PAGES.to_string(), "listing layouts vary in title, header row and row count"),
                ("tuple_pages", TRAIN_TUPLE_PAGES.to_string(), "plain and table-embedded pages marked FORM + INPUT"),
                ("held_out_pages", TRAIN_HELD_OUT.to_string(), "per set: unseen pages of the sampled templates, checked off the clock"),
                ("op_cache", "reset before each training".to_string(), "every training pays the automata work a fresh process pays"),
            ]
        },
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 25;

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `BENCHMARK.json` document.
pub fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--quiet",
        "--release",
        "--offline",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
    ];
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"command\": [{}],\n",
        command.map(json_str).join(", ")
    ));
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"workloads\": [\n{}\n  ],\n",
        workloads.join(",\n")
    ));
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.name()),
                m.bound
            )
        })
        .collect();
    out.push_str(&format!("  \"end_to_end\": [\n{}\n  ],\n", e2e.join(",\n")));
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.name())
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"per_layer\": [\n{}\n  ]\n}}\n",
        layers.join(",\n")
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_are_within_the_manifest_rules() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(valid_name(n), "{n}");
            assert!(seen.insert(n), "duplicate name {n}");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{u}"
            );
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn committed_manifest_matches_the_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `cargo run --release --manifest-path perfbench/Cargo.toml -- manifest --write`"
        );
    }
}
