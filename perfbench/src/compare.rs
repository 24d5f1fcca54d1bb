//! Compare mode: two sets of result records (parent vs change), one
//! verdict per workload × end-to-end metric against the benchmark's own
//! bounds.
//!
//! Verdicts, for a metric with bound `b` and parent median `m`:
//! * `worse` — the change's median is worse than `m` by more than `b·m`;
//! * `unresolved` — not `worse`, but the parent's own quartile spread
//!   exceeds `b·m`, so "unchanged" cannot be told apart from noise;
//! * `better` — better than `m` by more than `b·m` (a hint, not a
//!   claimed gain: a gain needs paired runs, see the README);
//! * `same` — otherwise.

use crate::spec::{Better, END_TO_END};
use crate::stats::{median, quartiles};
use rextract_extraction::query::JsonValue;
use std::collections::BTreeMap;
use std::path::Path;

/// workload → metric → values, from untraced records of correct runs.
type Records = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &Path) -> Result<(Records, usize), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut records = Records::new();
    let mut incorrect = 0;
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = JsonValue::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let field = |k: &str| {
            v.as_obj()
                .and_then(|o| o.iter().find(|(key, _)| key == k).map(|(_, x)| x))
        };
        if field("trace").and_then(JsonValue::as_num) != Some(0.0) {
            continue;
        }
        if field("correct") != Some(&JsonValue::Bool(true)) {
            incorrect += 1;
            continue;
        }
        let workload = field("workload")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), n + 1))?;
        let metrics = field("metrics").and_then(JsonValue::as_obj).unwrap_or(&[]);
        for (name, m) in metrics {
            let value = m
                .as_obj()
                .and_then(|o| o.iter().find(|(k, _)| k == "value"))
                .and_then(|(_, x)| x.as_num());
            if let Some(value) = value {
                records
                    .entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok((records, incorrect))
}

/// The verdict for one metric (see the module docs).
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> &'static str {
    let (m, c) = (median(parent), median(change));
    let worse_by = match better {
        Better::Higher => m - c,
        Better::Lower => c - m,
    };
    let spread = quartiles(parent).map_or(0.0, |q| q[2] - q[0]);
    if worse_by > bound * m {
        "worse"
    } else if spread > bound * m {
        "unresolved"
    } else if -worse_by > bound * m {
        "better"
    } else {
        "same"
    }
}

fn summary(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, q2, q3]) => format!("{q2:.5e} [{q1:.5e}, {q3:.5e}] n={}", values.len()),
        None => format!("{:.5e} n={}", median(values), values.len()),
    }
}

pub fn run(parent: &Path, change: &Path) -> Result<(), String> {
    let (a, bad_a) = load(parent)?;
    let (b, bad_b) = load(change)?;
    if bad_a + bad_b > 0 {
        println!("skipped incorrect runs: parent {bad_a}, change {bad_b}");
    }
    println!("workload | metric | parent median [q1, q3] | change median [q1, q3] | change/parent | verdict (bound)");
    for (workload, pa) in &a {
        let Some(pb) = b.get(workload) else {
            println!("{workload} | - | present | missing | - | unresolved");
            continue;
        };
        for m in END_TO_END {
            let (Some(x), Some(y)) = (pa.get(m.name), pb.get(m.name)) else {
                continue;
            };
            println!(
                "{workload} | {} ({}) | {} | {} | {:+.2}% | {} ({})",
                m.name,
                m.unit,
                summary(x),
                summary(y),
                (median(y) / median(x) - 1.0) * 100.0,
                verdict(x, y, m.better, m.bound),
                m.bound
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound() {
        let parent = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(
            verdict(&parent, &[80.0, 81.0, 79.0], Better::Higher, 0.1),
            "worse"
        );
        assert_eq!(
            verdict(&parent, &[95.0, 96.0, 94.0], Better::Higher, 0.1),
            "same"
        );
        assert_eq!(
            verdict(&parent, &[120.0, 121.0], Better::Higher, 0.1),
            "better"
        );
        assert_eq!(
            verdict(&parent, &[120.0, 121.0], Better::Lower, 0.1),
            "worse"
        );
        let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(
            verdict(&noisy, &[95.0, 96.0], Better::Higher, 0.1),
            "unresolved"
        );
    }

    #[test]
    fn loads_only_untraced_correct_records() {
        let dir = std::env::temp_dir().join(format!("perfbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.ndjson");
        let rec = |trace: u8, correct: bool, v: f64| {
            format!(
                "{{\"workload\":\"w\",\"seed\":1,\"seconds\":1,\"trace\":{trace},\"correct\":{correct},\"attempted\":1,\"failed\":0,\"metrics\":{{\"setup_s\":{{\"value\":{v},\"unit\":\"s\"}}}}}}\n"
            )
        };
        let text =
            rec(0, true, 1.5) + &rec(1, true, 9.0) + &rec(0, false, 7.0) + &rec(0, true, 2.5);
        std::fs::write(&path, text).unwrap();
        let (records, incorrect) = load(&path).unwrap();
        assert_eq!(records["w"]["setup_s"], [1.5, 2.5]);
        assert_eq!(incorrect, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
