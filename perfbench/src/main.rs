//! perfbench — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench compare PARENT.ndjson CHANGE.ndjson
//! perfbench manifest [--write]
//! perfbench params
//! ```
//!
//! A run builds its inputs from the seed, sets the program up, checks
//! every output against ground truth, measures for `S` seconds and prints
//! one JSON result line last on stdout: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. Each run also appends
//! its record to `bench-out/records.ndjson` (and a traced run its spans
//! to `bench-out/trace-<workload>-<seed>.tsv`) for the compare mode.
//! See `perfbench/README.md`.

mod check;
mod compare;
mod gen;
mod http;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

/// Settings of one workload run.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl RunConfig {
    /// Length of the untraced measuring loop. A traced run spends half of
    /// its time measuring the untraced per-item time the layer shares
    /// divide by, and the rest replaying a fixed item list with spans.
    pub fn measure_secs(&self) -> f64 {
        if self.trace {
            (self.seconds as f64 / 2.0).max(1.0)
        } else {
            self.seconds as f64
        }
    }
}

const OUT_DIR: &str = "bench-out";

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n       \
         perfbench compare PARENT.ndjson CHANGE.ndjson\n       \
         perfbench manifest [--write]\n       \
         perfbench params\n\nworkloads: {}",
        spec::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => match compare::run(Path::new(a), Path::new(b)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench compare: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => usage(),
        },
        Some("manifest") => {
            let text = spec::manifest();
            if args.get(1).map(String::as_str) == Some("--write") {
                if let Err(e) = std::fs::write("BENCHMARK.json", &text) {
                    eprintln!("perfbench manifest: writing BENCHMARK.json: {e}");
                    return ExitCode::FAILURE;
                }
            } else {
                print!("{text}");
            }
            ExitCode::SUCCESS
        }
        Some("params") => {
            for w in spec::WORKLOADS {
                println!("{}: {}", w.name, w.why);
                for (name, value, why) in (w.params)() {
                    println!("  {name} = {value}  ({why})");
                }
            }
            ExitCode::SUCCESS
        }
        _ => run_workload(&args),
    }
}

fn run_workload(args: &[String]) -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(),
        }
    }
    let (Some(name), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let Some(w) = spec::workload(&name) else {
        eprintln!("perfbench: unknown workload {name:?}");
        return usage();
    };
    let cfg = RunConfig {
        seed,
        seconds,
        trace,
    };
    eprintln!(
        "perfbench: {} seed {seed}, {seconds}s, trace {}",
        w.name, trace as u8
    );
    for (param, value, _) in (w.params)() {
        eprintln!("  {param} = {value}");
    }
    let result = match w.name {
        "catalog-pipeline" => workloads::catalog::run(&cfg),
        "extract-serve" => workloads::serve::run(&cfg),
        "query-join" => workloads::query::run(&cfg),
        "wrapper-train" => workloads::train::run(&cfg),
        other => Err(format!("workload {other} has no runner")),
    };
    let (outcome, spans) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    report::print_human(w.name, trace, &outcome);
    if let Err(e) = save(w.name, &cfg, &outcome, spans.as_ref()) {
        eprintln!("perfbench: writing {OUT_DIR}/: {e}");
    }
    println!("{}", report::result_line(&outcome, trace));
    ExitCode::SUCCESS
}

/// Append the run's record and write the trace, under `bench-out/`.
fn save(
    name: &str,
    cfg: &RunConfig,
    outcome: &report::Outcome,
    spans: Option<&trace::Tracer>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let mut records = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(Path::new(OUT_DIR).join("records.ndjson"))?;
    writeln!(
        records,
        "{}",
        report::record_line(name, cfg.seed, cfg.seconds, cfg.trace, outcome)
    )?;
    if let Some(tracer) = spans {
        let path = Path::new(OUT_DIR).join(format!("trace-{name}-{}.tsv", cfg.seed));
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        tracer.write_tsv(&mut f)?;
        f.flush()?;
    }
    Ok(())
}
