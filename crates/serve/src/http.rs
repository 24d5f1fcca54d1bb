//! Hand-rolled HTTP/1.1 message framing.
//!
//! The daemon deliberately avoids async runtimes and HTTP frameworks (the
//! build environment has no network registry, and the workload — small
//! requests, CPU-bound extraction — fits an event loop plus a CPU worker
//! pool). This module implements exactly the subset the daemon speaks:
//! request line + headers + `Content-Length` bodies in, status + headers
//! + body out, with keep-alive per HTTP/1.1 defaults.
//!
//! The core is [`parse_request`], an **incremental** parser over a byte
//! buffer: it either yields a complete request plus the number of bytes
//! it consumed, asks for more bytes, or rejects the prefix. Incremental
//! parsing is what makes the epoll serve core work — a request may arrive
//! split across arbitrary read boundaries, and a pipelining client may
//! put several requests into one segment; the caller just accumulates
//! bytes and parses in a loop.
//!
//! Hard limits are explicit and enforced during parsing, before any
//! allocation proportional to the claimed size: total header block bytes,
//! header count, body bytes, and exactly one `Content-Length` (duplicates
//! are smuggling vectors and are rejected outright).

use std::io::{self, Write};

/// Hard limits keeping a hostile or confused client from ballooning
/// memory: total header block and body size caps.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Maximum accepted request body (HTML pages and wrapper artifacts are
/// well under this; anything bigger gets 413).
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Maximum number of header lines in one request; more is 413.
pub const MAX_HEADERS: usize = 64;

/// A parsed request.
#[derive(Debug, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    /// Path component only (query string split off).
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// True when the request was HTTP/1.0 or sent `Connection: close`.
    close: bool,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection must close after this exchange.
    pub fn wants_close(&self) -> bool {
        self.close
    }

    pub fn body_utf8(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Why a buffered prefix cannot become a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Header block, header count, or claimed body over the hard limits.
    TooLarge,
    /// Anything that does not parse as HTTP; carries a short reason.
    Malformed(&'static str),
}

/// Outcome of [`parse_request`] over a byte buffer.
#[derive(Debug)]
pub enum Parse {
    /// A complete request occupying the first `usize` bytes of the buffer.
    Complete(Request, usize),
    /// The buffer holds a valid proper prefix; feed more bytes.
    Partial,
    /// The prefix can never become a valid request.
    Error(ParseError),
}

/// Percent-decode a query component (`+` as space, `%XX` bytes).
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                let hex = [bytes[i + 1], bytes[i + 2]];
                match std::str::from_utf8(&hex)
                    .ok()
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                {
                    Some(v) => {
                        out.push(v);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            (percent_decode(k), percent_decode(v))
        })
        .collect()
}

/// Split the next `\n`-terminated line off `buf` (tolerating `\r\n`),
/// returning the line content and the remainder. `None` = no newline yet.
fn next_line(buf: &[u8]) -> Option<(&[u8], &[u8])> {
    let nl = buf.iter().position(|&b| b == b'\n')?;
    let line = if nl > 0 && buf[nl - 1] == b'\r' {
        &buf[..nl - 1]
    } else {
        &buf[..nl]
    };
    Some((line, &buf[nl + 1..]))
}

/// Strict `Content-Length` value: ASCII digits only, bounded magnitude.
/// Anything fancier (signs, whitespace padding beyond the header trim,
/// thousands of leading zeros) is rejected — a framing field is not a
/// place for leniency.
fn parse_content_length(v: &str) -> Result<usize, ParseError> {
    if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
        return Err(ParseError::Malformed("bad content-length"));
    }
    // 12 digits cap the value below 10^12 without u64 overflow games;
    // anything that long is far over MAX_BODY_BYTES anyway.
    if v.len() > 12 {
        return Err(ParseError::TooLarge);
    }
    let n: u64 = v
        .parse()
        .map_err(|_| ParseError::Malformed("bad content-length"))?;
    if n > MAX_BODY_BYTES as u64 {
        return Err(ParseError::TooLarge);
    }
    Ok(n as usize)
}

/// Incrementally parse one request from the front of `buf`.
///
/// Returns [`Parse::Complete`] with the request and the number of bytes
/// it occupies (request line + headers + body) — the caller drops exactly
/// that many and may parse again for a pipelined successor — or
/// [`Parse::Partial`] when more bytes are needed, or [`Parse::Error`]
/// when the prefix is hopeless.
pub fn parse_request(buf: &[u8]) -> Parse {
    // ---- request line --------------------------------------------------
    let Some((line, mut rest)) = next_line(buf) else {
        return if buf.len() > MAX_HEADER_BYTES {
            Parse::Error(ParseError::TooLarge)
        } else {
            Parse::Partial
        };
    };
    if line.len() > MAX_HEADER_BYTES {
        return Parse::Error(ParseError::TooLarge);
    }
    let Ok(line) = std::str::from_utf8(line) else {
        return Parse::Error(ParseError::Malformed("non-utf8 request line"));
    };
    let mut parts = line.split_whitespace();
    let Some(method) = parts.next() else {
        return Parse::Error(ParseError::Malformed("empty request line"));
    };
    let Some(target) = parts.next() else {
        return Parse::Error(ParseError::Malformed("missing request target"));
    };
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Parse::Error(ParseError::Malformed("unsupported HTTP version"));
    }
    let http10 = version == "HTTP/1.0";
    let (path, query_str) = target.split_once('?').unwrap_or((target, ""));

    // ---- headers -------------------------------------------------------
    let mut headers: Vec<(String, String)> = Vec::new();
    let mut content_length: Option<usize> = None;
    let mut close: Option<bool> = None;
    let body_start = loop {
        let consumed_so_far = buf.len() - rest.len();
        let Some((line, tail)) = next_line(rest) else {
            return if consumed_so_far + rest.len() > MAX_HEADER_BYTES {
                Parse::Error(ParseError::TooLarge)
            } else {
                Parse::Partial
            };
        };
        if consumed_so_far + line.len() > MAX_HEADER_BYTES {
            return Parse::Error(ParseError::TooLarge);
        }
        rest = tail;
        if line.is_empty() {
            break buf.len() - rest.len();
        }
        if headers.len() >= MAX_HEADERS {
            return Parse::Error(ParseError::TooLarge);
        }
        let Ok(line) = std::str::from_utf8(line) else {
            return Parse::Error(ParseError::Malformed("non-utf8 header"));
        };
        let Some((name, value)) = line.split_once(':') else {
            return Parse::Error(ParseError::Malformed("header without colon"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        match name.as_str() {
            // Two Content-Lengths are a request-smuggling classic; even a
            // repeated identical value is rejected rather than reconciled.
            "content-length" if content_length.is_some() => {
                return Parse::Error(ParseError::Malformed("duplicate content-length"));
            }
            "content-length" => match parse_content_length(&value) {
                Ok(n) => content_length = Some(n),
                Err(e) => return Parse::Error(e),
            },
            "connection" => {
                close = match value.to_ascii_lowercase().as_str() {
                    "close" => Some(true),
                    "keep-alive" => Some(false),
                    _ => close,
                };
            }
            _ => {}
        }
        headers.push((name, value));
    };

    // ---- body ----------------------------------------------------------
    let content_length = content_length.unwrap_or(0);
    if buf.len() - body_start < content_length {
        return Parse::Partial;
    }
    let body = buf[body_start..body_start + content_length].to_vec();

    Parse::Complete(
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: parse_query(query_str),
            headers,
            body,
            close: close.unwrap_or(http10),
        },
        body_start + content_length,
    )
}

/// An outgoing response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: String,
    /// Force `Connection: close` on this exchange.
    pub close: bool,
}

impl Response {
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
            close: false,
        }
    }

    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            close: false,
        }
    }

    pub fn closing(mut self) -> Response {
        self.close = true;
        self
    }

    /// Append the serialized exchange to `out`. `close` is the final
    /// connection decision (the caller folds in request preferences and
    /// shutdown state). This is the event loop's path: responses are
    /// staged into a connection's write buffer and drained as the socket
    /// accepts them.
    pub fn write_bytes(&self, out: &mut Vec<u8>, close: bool) {
        let conn = if close { "close" } else { "keep-alive" };
        out.extend_from_slice(
            format!(
                "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
                self.status,
                status_text(self.status),
                self.content_type,
                self.body.len(),
                conn
            )
            .as_bytes(),
        );
        out.extend_from_slice(self.body.as_bytes());
    }

    /// Serialize to `w` directly (blocking callers: the accept-gate 503,
    /// tests).
    pub fn write_to(&self, w: &mut impl Write, close: bool) -> io::Result<()> {
        let mut out = Vec::with_capacity(self.body.len() + 128);
        self.write_bytes(&mut out, close);
        w.write_all(&out)?;
        w.flush()
    }
}

/// Reason phrases for the statuses the daemon emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-shot parse of a whole request; a `Partial` result means the
    /// input ended mid-request.
    fn parse(raw: &str) -> Result<Request, ParseError> {
        match parse_request(raw.as_bytes()) {
            Parse::Complete(req, used) => {
                assert_eq!(used, raw.len(), "trailing bytes after the request");
                Ok(req)
            }
            Parse::Partial => Err(ParseError::Malformed("eof mid-request")),
            Parse::Error(e) => Err(e),
        }
    }

    #[test]
    fn parses_request_with_body_and_query() {
        let req = parse(
            "POST /extract?wrapper=demo&x=a%20b HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/extract");
        assert_eq!(req.query_param("wrapper"), Some("demo"));
        assert_eq!(req.query_param("x"), Some("a b"));
        assert_eq!(req.body, b"hello");
        assert!(!req.wants_close());
    }

    #[test]
    fn connection_close_and_http10() {
        assert!(parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .wants_close());
        assert!(parse("GET / HTTP/1.0\r\n\r\n").unwrap().wants_close());
        assert!(!parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .wants_close());
    }

    #[test]
    fn malformed_and_incomplete() {
        assert!(matches!(parse_request(b""), Parse::Partial));
        assert!(matches!(parse_request(b"GARBAGE"), Parse::Partial));
        assert!(matches!(
            parse("GARBAGE\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/2\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"),
            Err(ParseError::Malformed(_)) | Err(ParseError::TooLarge)
        ));
    }

    #[test]
    fn duplicate_and_bogus_content_length_rejected() {
        for raw in [
            "GET / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc",
            "GET / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 7\r\n\r\nabc",
            "GET / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc",
            "GET / HTTP/1.1\r\nContent-Length: 3x\r\n\r\nabc",
            "GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
            "GET / HTTP/1.1\r\nContent-Length:\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(ParseError::Malformed(_))),
                "accepted {raw:?}"
            );
        }
        // Overlong values are a size violation, not a syntax one.
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nContent-Length: 999999999999999999\r\n\r\n"),
            Err(ParseError::TooLarge)
        ));
    }

    #[test]
    fn header_bounds_enforced() {
        let mut many = String::from("GET / HTTP/1.1\r\n");
        for i in 0..MAX_HEADERS + 1 {
            many.push_str(&format!("X-H{i}: v\r\n"));
        }
        many.push_str("\r\n");
        assert!(matches!(parse(&many), Err(ParseError::TooLarge)));

        let long = format!(
            "GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n",
            "a".repeat(MAX_HEADER_BYTES)
        );
        assert!(matches!(parse(&long), Err(ParseError::TooLarge)));

        // An unterminated header block over the cap is rejected even
        // before its newline arrives.
        let torrent = "a".repeat(MAX_HEADER_BYTES + 2);
        assert!(matches!(
            parse_request(torrent.as_bytes()),
            Parse::Error(ParseError::TooLarge)
        ));
    }

    #[test]
    fn incremental_parse_completes_only_at_the_end() {
        let raw = b"POST /x?a=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nwxyz";
        for cut in 0..raw.len() {
            assert!(
                matches!(parse_request(&raw[..cut]), Parse::Partial),
                "prefix of {cut} bytes should be partial"
            );
        }
        match parse_request(raw) {
            Parse::Complete(req, used) => {
                assert_eq!(used, raw.len());
                assert_eq!(req.body, b"wxyz");
            }
            other => panic!("expected complete, got {other:?}"),
        }
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nok";
        let Parse::Complete(first, used) = parse_request(raw) else {
            panic!("first request incomplete");
        };
        assert_eq!(first.path, "/a");
        let Parse::Complete(second, used2) = parse_request(&raw[used..]) else {
            panic!("second request incomplete");
        };
        assert_eq!(second.path, "/b");
        assert_eq!(second.body, b"ok");
        assert_eq!(used + used2, raw.len());
    }

    #[test]
    fn response_serializes() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}".into())
            .write_to(&mut out, true)
            .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"), "{s}");
        assert!(s.contains("Content-Length: 11\r\n"));
        assert!(s.contains("Connection: close"));
        assert!(s.ends_with("{\"ok\":true}"));
    }
}
