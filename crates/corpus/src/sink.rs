//! The provenance-tagged sink: NDJSON tuple lines in deterministic
//! order.
//!
//! Workers finish pages out of order; the sink holds completions in a
//! seq-keyed reorder buffer (`BTreeMap`, the same idiom as the serve
//! event loop's pipelining map) and writes each page's line exactly when
//! it becomes the next sequence number. Output order therefore equals
//! ingest order regardless of worker count — byte-identical runs are an
//! asserted property (`scripts/pipeline_smoke.sh`, `corpus_throughput`).
//!
//! Tuple lines carry full provenance:
//!
//! ```json
//! {"source":"pages/p07.html","wrapper":"search","wrapper_version":2,
//!  "wrapper_revision":1,"byte_offsets":[[212,258]],
//!  "fields":["<input type=\"text\" ...>"]}
//! ```
//!
//! `byte_offsets` are spans into the **raw source bytes** (from
//! [`rextract_html::tokenize_spanned`]) and `fields` the exact bytes at
//! those spans — an auditor can re-slice the stored page and get the
//! same value back. Non-tuple outcomes (unrouted, read error, failed
//! extraction) become error lines `{"source":...,"error":...}` on the
//! sidecar stream, or inline in the main stream when no sidecar is
//! given: a page is never silently dropped.

use rextract_extraction::json::{self, Obj};
use std::collections::BTreeMap;
use std::io::{self, Write};

/// A line buffer sized for the fixed keys (under 128 bytes) plus the
/// variable text, so a line without escapes renders without regrowing.
fn line_buffer(names: &[&str], fields: &[&str]) -> String {
    let text: usize = names.iter().chain(fields).map(|s| s.len()).sum();
    String::with_capacity(128 + text)
}

/// The `byte_offsets` and `fields` pair every record line ends with.
fn provenance<'a>(o: Obj<'a>, byte_offsets: &[(usize, usize)], fields: &[&str]) -> Obj<'a> {
    o.arr("byte_offsets", |a| {
        byte_offsets
            .iter()
            .fold(a, |a, &(s, e)| a.arr(|p| p.num(s as u64).num(e as u64)))
    })
    .strs("fields", fields.iter().copied())
}

/// Format one provenance tuple line (no trailing newline).
/// `wrapper_revision` is the install generation of the wrapper that
/// produced the tuple — it climbs every time the daemon hot-installs a
/// replacement (manual or self-repair), so a healed wrapper's tuples are
/// distinguishable from its pre-drift output.
pub fn tuple_line(
    source: &str,
    wrapper: &str,
    wrapper_version: u32,
    wrapper_revision: u32,
    byte_offsets: &[(usize, usize)],
    fields: &[&str],
) -> String {
    debug_assert_eq!(byte_offsets.len(), fields.len());
    let mut out = line_buffer(&[source, wrapper], fields);
    json::write_object(&mut out, |o| {
        let o = o
            .str("source", source)
            .str("wrapper", wrapper)
            .num("wrapper_version", wrapper_version.into())
            .num("wrapper_revision", wrapper_revision.into());
        provenance(o, byte_offsets, fields)
    });
    out
}

/// Format one joined query record line (no trailing newline): a row of
/// a span relation rendered with the same byte-offset provenance as
/// [`tuple_line`] — `vars[i]` names the value at `byte_offsets[i]` /
/// `fields[i]`, so an arity-k join yields k parallel entries.
pub fn query_line(
    source: &str,
    query: &str,
    vars: &[&str],
    byte_offsets: &[(usize, usize)],
    fields: &[&str],
) -> String {
    debug_assert_eq!(byte_offsets.len(), fields.len());
    debug_assert_eq!(vars.len(), fields.len());
    let mut out = line_buffer(&[source, query], fields);
    json::write_object(&mut out, |o| {
        let o = o
            .str("source", source)
            .str("query", query)
            .strs("vars", vars.iter().copied());
        provenance(o, byte_offsets, fields)
    });
    out
}

/// Format one error line (unrouted / read failure / failed extraction).
pub fn error_line(source: &str, error: &str) -> String {
    let mut out = line_buffer(&[source], &[error]);
    json::write_object(&mut out, |o| o.str("source", source).str("error", error));
    out
}

/// A completed page, ready to write.
#[derive(Debug)]
pub enum PageLine {
    /// A tuple line for the main stream.
    Tuple(String),
    /// An error line for the sidecar stream (or the main stream when no
    /// sidecar is configured).
    Error(String),
}

/// Seq-numbered reorder buffer over two output streams.
pub struct ReorderSink<'a> {
    out: &'a mut dyn Write,
    sidecar: Option<&'a mut dyn Write>,
    pending: BTreeMap<u64, PageLine>,
    next_write: u64,
}

impl<'a> ReorderSink<'a> {
    /// A sink writing tuples to `out` and error lines to `sidecar`
    /// (falling back to `out` when `sidecar` is `None`).
    pub fn new(out: &'a mut dyn Write, sidecar: Option<&'a mut dyn Write>) -> ReorderSink<'a> {
        ReorderSink {
            out,
            sidecar,
            pending: BTreeMap::new(),
            next_write: 0,
        }
    }

    /// Accept completion `seq` and drain every line that is now ready.
    /// Lines are written strictly in seq order; a completion arriving
    /// early parks in the buffer.
    pub fn complete(&mut self, seq: u64, line: PageLine) -> io::Result<()> {
        self.pending.insert(seq, line);
        while let Some(line) = self.pending.remove(&self.next_write) {
            match &line {
                PageLine::Tuple(l) => {
                    self.out.write_all(l.as_bytes())?;
                    self.out.write_all(b"\n")?;
                }
                PageLine::Error(l) => {
                    let w: &mut dyn Write = match &mut self.sidecar {
                        Some(s) => *s,
                        None => self.out,
                    };
                    w.write_all(l.as_bytes())?;
                    w.write_all(b"\n")?;
                }
            }
            self.next_write += 1;
        }
        Ok(())
    }

    /// Completions buffered ahead of the next writable seq.
    pub fn parked(&self) -> usize {
        self.pending.len()
    }

    /// Pages written so far (== completions drained in order).
    pub fn written(&self) -> u64 {
        self.next_write
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_line_escapes_and_formats() {
        let line = tuple_line("a\"b.html", "search", 2, 3, &[(3, 9)], &["<x \"q\">"]);
        assert_eq!(
            line,
            r#"{"source":"a\"b.html","wrapper":"search","wrapper_version":2,"wrapper_revision":3,"byte_offsets":[[3,9]],"fields":["<x \"q\">"]}"#
        );
        assert_eq!(
            error_line("p.html", "unrouted"),
            r#"{"source":"p.html","error":"unrouted"}"#
        );
    }

    #[test]
    fn query_line_pairs_vars_with_provenance() {
        let line = query_line(
            "p.html",
            "pair",
            &["form", "field"],
            &[(3, 9), (12, 20)],
            &["<form>", "<input>"],
        );
        assert_eq!(
            line,
            r#"{"source":"p.html","query":"pair","vars":["form","field"],"byte_offsets":[[3,9],[12,20]],"fields":["<form>","<input>"]}"#
        );
    }

    #[test]
    fn lines_parse_back_to_the_values_passed_in() {
        use rextract_extraction::json::JsonValue;
        // Every C0 control, the JSON specials, DEL, U+2028 and non-BMP
        // characters, in sources, names and fields alike.
        let nasty: String = ('\0'..='\u{1f}')
            .chain(['"', '\\', '\u{7f}', '\u{2028}', '😀', '\u{10ffff}'])
            .collect();
        let strs =
            |v: &[&str]| JsonValue::Arr(v.iter().map(|s| JsonValue::Str(s.to_string())).collect());
        let str_at = |line: &str, key: &str| {
            let v = JsonValue::parse(line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            v.get(key).cloned()
        };
        let fields = [nasty.as_str(), "<a href=\"x\">"];
        let tuple = tuple_line(&nasty, &nasty, 2, 1, &[(0, 3), (4, 9)], &fields);
        assert_eq!(
            str_at(&tuple, "source"),
            Some(JsonValue::Str(nasty.clone()))
        );
        assert_eq!(
            str_at(&tuple, "wrapper"),
            Some(JsonValue::Str(nasty.clone()))
        );
        assert_eq!(str_at(&tuple, "fields"), Some(strs(&fields)));
        let query = query_line(&nasty, "q", &[&nasty, "b"], &[(0, 3), (4, 9)], &fields);
        assert_eq!(str_at(&query, "vars"), Some(strs(&[&nasty, "b"])));
        assert_eq!(str_at(&query, "fields"), Some(strs(&fields)));
        let error = error_line(&nasty, &nasty);
        assert_eq!(str_at(&error, "error"), Some(JsonValue::Str(nasty.clone())));
    }

    #[test]
    fn reorder_buffer_writes_in_seq_order() {
        let mut out = Vec::new();
        let mut sink = ReorderSink::new(&mut out, None);
        sink.complete(2, PageLine::Tuple("two".into())).unwrap();
        sink.complete(1, PageLine::Error("one".into())).unwrap();
        assert_eq!(sink.written(), 0);
        assert_eq!(sink.parked(), 2);
        sink.complete(0, PageLine::Tuple("zero".into())).unwrap();
        assert_eq!(sink.written(), 3);
        assert_eq!(String::from_utf8(out).unwrap(), "zero\none\ntwo\n");
    }

    #[test]
    fn sidecar_splits_error_lines() {
        let (mut out, mut side) = (Vec::new(), Vec::new());
        let mut sink = ReorderSink::new(&mut out, Some(&mut side));
        sink.complete(0, PageLine::Tuple("t".into())).unwrap();
        sink.complete(1, PageLine::Error("e".into())).unwrap();
        drop(sink);
        assert_eq!(out, b"t\n");
        assert_eq!(side, b"e\n");
    }
}
