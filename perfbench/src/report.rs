//! What a run produces, and how it is printed and recorded.

use crate::spec::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::io::Write;

/// Result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Items whose output was checked.
    pub attempted: u64,
    /// Items whose output was missing, wrong, or had an unexpected status.
    pub failed: u64,
    /// End-to-end metrics (untraced runs).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced runs). Layers a workload does not
    /// exercise are absent and print as 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Layer share rows of the traced run (name, share of per-item time);
    /// the last row is the residue, so the rows sum to 1.
    pub shares: Vec<(&'static str, f64)>,
    /// The first few divergences, for the operator.
    pub divergences: Vec<String>,
}

impl Outcome {
    /// Count one checked item; `Err` carries the divergence.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.divergences.len() < 5 {
                self.divergences.push(why);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Set the share rows (and their per-layer metrics) from per-layer
    /// self times in µs per item over the per-item time `item_us`; the
    /// residue row closes the sum.
    pub fn set_shares(
        &mut self,
        rows: &[(&'static str, f64)],
        residue: &'static str,
        item_us: f64,
    ) {
        self.shares.clear();
        let mut covered = 0.0;
        for &(name, us) in rows {
            let share = ratio(us, item_us);
            covered += share;
            self.shares.push((name, share));
        }
        self.shares.push((residue, 1.0 - covered));
        for &(name, share) in &self.shares {
            self.layers.insert(name, share);
        }
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A finite number as JSON (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The `metrics` object for the given mode.
fn metrics_json(out: &Outcome, trace: bool) -> String {
    let entries: Vec<String> = if trace {
        PER_LAYER
            .iter()
            .map(|m| {
                let v = out.layers.get(m.name).copied().unwrap_or(0.0);
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    num(v),
                    m.unit
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let v = out.e2e.get(m.name).copied().unwrap_or(0.0);
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    num(v),
                    m.unit
                )
            })
            .collect()
    };
    format!("{{{}}}", entries.join(","))
}

/// The result line: the last line the benchmark prints on stdout.
pub fn result_line(out: &Outcome, trace: bool) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics_json(out, trace)
    )
}

/// One record for the compare mode: the result line plus the run's
/// identity.
pub fn record_line(workload: &str, seed: u64, seconds: u64, trace: bool, out: &Outcome) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        trace as u8,
        out.correct(),
        out.attempted,
        out.failed,
        metrics_json(out, trace)
    )
}

/// Human-readable summary on stderr: every metric by name with its unit,
/// the layer share table of a traced run, and any divergences.
pub fn print_human(workload: &str, trace: bool, out: &Outcome) {
    let mut err = std::io::stderr().lock();
    let _ = writeln!(
        err,
        "{workload}: correct={} attempted={} failed={} fail_ratio={:.6}",
        out.correct(),
        out.attempted,
        out.failed,
        ratio(out.failed as f64, out.attempted as f64)
    );
    if trace {
        for m in PER_LAYER {
            if let Some(v) = out.layers.get(m.name) {
                let _ = writeln!(err, "  {:<28} {:>14.4} {}", m.name, v, m.unit);
            }
        }
        if !out.shares.is_empty() {
            let _ = writeln!(err, "  layer shares of per-item time:");
            for (name, share) in &out.shares {
                let _ = writeln!(err, "    {:<26} {:>7.2}%", name, share * 100.0);
            }
            let total: f64 = out.shares.iter().map(|(_, s)| s).sum();
            let _ = writeln!(err, "    {:<26} {:>7.2}%", "total", total * 100.0);
        }
    } else {
        for m in END_TO_END {
            let v = out.e2e.get(m.name).copied().unwrap_or(0.0);
            let _ = writeln!(err, "  {:<28} {:>14.4} {}", m.name, v, m.unit);
        }
    }
    for d in &out.divergences {
        let _ = writeln!(err, "  divergence: {d}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        out.check(Ok(()));
        out.e2e.insert("throughput_per_s", 1234.5);
        let line = result_line(&out, false);
        let v = rextract_extraction::query::JsonValue::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"throughput_per_s\":{\"value\":1234.5,\"unit\":\"items/s\"}"));
        let traced = result_line(&out, true);
        assert!(traced.contains("\"trace.overhead_ratio\":{\"value\":0,\"unit\":\"ratio\"}"));
    }

    #[test]
    fn shares_close_with_the_residue() {
        let mut out = Outcome::default();
        out.set_shares(&[("a", 2.0), ("b", 5.0)], "pipeline.residue_share", 10.0);
        let total: f64 = out.shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((out.layers["pipeline.residue_share"] - 0.3).abs() < 1e-12);
    }
}
