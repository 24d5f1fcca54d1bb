//! In-memory span tracing for the traced run.
//!
//! Spans are recorded from the benchmark's own code around the calls it
//! makes into each layer's public functions; nothing inside the program
//! is instrumented. A span has a name, start and end (nanoseconds since
//! the tracer was created), a parent and an item id. Spans stay in memory
//! and are written out as TSV when the run ends.
//!
//! Some layers run inside a single public call and cannot be timed there
//! from outside (the scan inside `Wrapper::extract_target_with`, the
//! compile inside `evaluate_query_with`). The benchmark re-runs such a
//! layer's own public function on the same input right after the item
//! and records it as a **replay** span whose parent is the span that
//! contains that work. Replays run outside every item span, so they add
//! nothing to item time; their duration is charged to their parent.
//!
//! Self time of a span = its duration − the part of its interval covered
//! by its direct (non-replay) children − the durations of its replay
//! children, floored at zero.

use std::io::Write;
use std::time::Instant;

/// Span id: index into the tracer's span list.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub item: u32,
    pub replay: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled tracer records nothing and returns
/// [`SpanId::MAX`] from every call, so the same replay code runs as the
/// untraced baseline of the overhead measurement.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished interval.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        item: u32,
        replay: bool,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::MAX;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            item,
            replay,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span that encloses later spans; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, item: u32) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, item, false, now, now)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = Instant::now()
                .saturating_duration_since(self.epoch)
                .as_nanos() as u64;
        }
    }

    /// Time `f` as a (non-replay) span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        item: u32,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, parent, item, false, start, Instant::now());
        (out, id)
    }

    /// Time `f` as a replay span charged to `parent`. Skipped entirely
    /// (returns `None`) when the tracer is disabled.
    pub fn replay<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        item: u32,
        f: impl FnOnce() -> T,
    ) -> Option<(T, SpanId)> {
        if !self.enabled {
            return None;
        }
        let start = Instant::now();
        let out = f();
        let id = self.record(name, Some(parent), item, true, start, Instant::now());
        Some((out, id))
    }

    /// Write every span as one TSV line:
    /// `id name item parent replay start_ns end_ns self_ns`.
    pub fn write_tsv(&self, out: &mut dyn Write) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        writeln!(
            out,
            "id\tname\titem\tparent\treplay\tstart_ns\tend_ns\tself_ns"
        )?;
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{}\t{own}",
                s.name, s.item, s.replay as u8, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span (see the module docs).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            if p < spans.len() {
                children[p].push(i);
            }
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut intervals: Vec<(u64, u64)> = Vec::new();
            let mut replayed = 0u64;
            for &k in kids {
                let c = &spans[k];
                if c.replay {
                    replayed += c.dur_ns();
                } else {
                    let lo = c.start_ns.max(s.start_ns);
                    let hi = c.end_ns.min(s.end_ns);
                    if hi > lo {
                        intervals.push((lo, hi));
                    }
                }
            }
            s.dur_ns()
                .saturating_sub(covered(&mut intervals))
                .saturating_sub(replayed)
        })
        .collect()
}

/// Total length of the union of `intervals`.
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(lo, hi) in intervals.iter() {
        cur = match cur {
            Some((a, b)) if lo <= b => Some((a, b.max(hi))),
            Some((a, b)) => {
                total += b - a;
                Some((lo, hi))
            }
            None => Some((lo, hi)),
        };
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

/// Per-name totals over a span list: (summed self ns, summed duration ns,
/// span count).
pub fn totals_by_name(spans: &[Span]) -> std::collections::BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out = std::collections::BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_insert((0, 0, 0));
        e.0 += own;
        e.1 += s.dur_ns();
        e.2 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        replay: bool,
    ) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            item: 0,
            replay,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span("item", 0, 100, None, false),
            span("a", 10, 30, Some(0), false),
            // Overlaps `a`: the union 10..40 is covered once, not twice.
            span("b", 20, 40, Some(0), false),
            span("c", 90, 120, Some(0), false), // clipped to the parent
            span("a.inner", 12, 18, Some(1), false),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 30 - 10);
        assert_eq!(selfs[1], 20 - 6);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[3], 30);
        assert_eq!(selfs[4], 6);
    }

    #[test]
    fn replay_children_are_charged_by_duration() {
        let spans = vec![
            span("item", 0, 50, None, false),
            span("extract", 10, 40, Some(0), false),
            // Replays run after the item; their durations come off the
            // parent they attribute to, wherever they sit in time.
            span("scan", 60, 65, Some(1), true),
            span("signature", 70, 100, Some(1), true),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 20);
        assert_eq!(selfs[1], 0, "30 ns span minus 35 ns of replays floors at 0");
        assert_eq!(selfs[2], 5);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["scan"], (5, 5, 1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, id) = t.span("x", None, 0, || 7);
        assert_eq!(v, 7);
        assert_eq!(id, SpanId::MAX);
        assert!(t.replay("y", 0, 0, || ()).is_none());
        assert!(t.spans().is_empty());
        let mut on = Tracer::new(true);
        let (_, id) = on.span("x", None, 3, || ());
        on.replay("y", id, 3, || ()).unwrap();
        let mut tsv = Vec::new();
        on.write_tsv(&mut tsv).unwrap();
        assert_eq!(String::from_utf8(tsv).unwrap().lines().count(), 3);
    }
}
