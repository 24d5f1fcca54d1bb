//! Framing robustness: a request must parse to the *same* value no
//! matter how the bytes arrive — one segment, byte by byte, or split at
//! arbitrary boundaries. This is the property the epoll core depends on:
//! [`parse_request`] is re-run over a growing buffer after every
//! readiness event, and the result must only ever move from `Partial`
//! to the one complete parse.
//!
//! Requests are generated structurally (method/path/query/headers/body),
//! serialized, then re-fed two ways: one-shot `parse_request` over every
//! prefix, and an event-loop-style accumulate-and-drain loop over a
//! pipelined pair split at arbitrary boundaries.

use proptest::prelude::*;
use rextract_serve::http::{parse_request, Parse, Request};

/// Structural request generator. Header names avoid the framing headers
/// (`content-length`, `connection`), which are emitted separately so the
/// serialization stays self-consistent.
#[derive(Debug, Clone)]
struct GenReq {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    http10: bool,
    connection: Option<bool>, // Some(true) = close, Some(false) = keep-alive
}

impl GenReq {
    fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(self.method.as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.path.as_bytes());
        if !self.query.is_empty() {
            out.push(b'?');
            let qs: Vec<String> = self.query.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.extend_from_slice(qs.join("&").as_bytes());
        }
        out.extend_from_slice(if self.http10 {
            b" HTTP/1.0\r\n"
        } else {
            b" HTTP/1.1\r\n"
        });
        for (n, v) in &self.headers {
            out.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
        }
        if let Some(close) = self.connection {
            let v = if close { "close" } else { "keep-alive" };
            out.extend_from_slice(format!("Connection: {v}\r\n").as_bytes());
        }
        if !self.body.is_empty() {
            out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

fn arb_request() -> impl Strategy<Value = GenReq> {
    // The framing headers are emitted separately by `serialize`, so any
    // generated name colliding with them gets an `x-` prefix.
    let header = ("[A-Za-z][A-Za-z0-9-]{0,9}", "[a-zA-Z0-9 ,;=/_.-]{0,16}").prop_map(
        |(n, v): (String, String)| {
            let lower = n.to_ascii_lowercase();
            if lower == "content-length" || lower == "connection" {
                (format!("x-{n}"), v)
            } else {
                (n, v)
            }
        },
    );
    (
        (
            "[A-Z]{1,7}",
            "/[a-zA-Z0-9_./-]{0,12}",
            proptest::collection::vec(("[a-z][a-z0-9]{0,4}", "[a-zA-Z0-9._-]{0,8}"), 0..4),
        ),
        (
            proptest::collection::vec(header, 0..6),
            proptest::collection::vec((0usize..256).prop_map(|b| b as u8), 0..64),
        ),
        (
            (0usize..2).prop_map(|v| v == 1),
            // None / keep-alive / close, as an explicit Connection header.
            (0usize..3).prop_map(|v| match v {
                0 => None,
                1 => Some(false),
                _ => Some(true),
            }),
        ),
    )
        .prop_map(
            |((method, path, query), (headers, body), (http10, connection))| GenReq {
                method,
                path,
                query,
                headers,
                body,
                http10,
                connection,
            },
        )
}

/// One-shot parse; panics if the serialized request is not Complete over
/// exactly its own bytes (a generator bug, not a parser one).
fn oneshot(raw: &[u8]) -> Request {
    match parse_request(raw) {
        Parse::Complete(req, used) => {
            assert_eq!(used, raw.len(), "parse did not consume the whole request");
            req
        }
        other => panic!("generated request did not parse: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every proper prefix of a valid request is `Partial` — the parser
    /// never commits early and never rejects a prefix it will later
    /// accept — and the full buffer yields exactly one parse.
    #[test]
    fn byte_by_byte_prefixes_stay_partial(req in arb_request()) {
        let raw = req.serialize();
        let full = oneshot(&raw);
        for cut in 0..raw.len() {
            prop_assert!(
                matches!(parse_request(&raw[..cut]), Parse::Partial),
                "prefix of {} bytes was not Partial", cut
            );
        }
        // The request the full buffer yields carries the serialized body.
        prop_assert_eq!(full.body, req.body);
    }

    /// The event-loop path: two pipelined requests accumulated chunk by
    /// chunk into one buffer, drained with the parse-in-a-loop idiom the
    /// connection state machine uses. Both requests come out identical
    /// to their one-shot parses, in order, regardless of chunking.
    #[test]
    fn pipelined_pair_survives_any_chunking(
        a in arb_request(),
        b in arb_request(),
        cuts in proptest::collection::vec(0usize..8192, 0..12),
    ) {
        let mut raw = a.serialize();
        let raw_b = b.serialize();
        let expect = vec![oneshot(&raw), oneshot(&raw_b)];
        raw.extend_from_slice(&raw_b);

        let mut boundaries: Vec<usize> =
            cuts.into_iter().map(|c| c % raw.len()).filter(|&c| c > 0).collect();
        boundaries.sort_unstable();
        boundaries.dedup();
        boundaries.push(raw.len());

        let mut rbuf: Vec<u8> = Vec::new();
        let mut got: Vec<Request> = Vec::new();
        let mut fed = 0;
        for &stop in &boundaries {
            rbuf.extend_from_slice(&raw[fed..stop]);
            fed = stop;
            loop {
                match parse_request(&rbuf) {
                    Parse::Complete(req, used) => {
                        rbuf.drain(..used);
                        got.push(req);
                    }
                    Parse::Partial => break,
                    Parse::Error(e) => prop_assert!(false, "unexpected error: {e:?}"),
                }
            }
        }
        prop_assert!(rbuf.is_empty(), "bytes left unparsed");
        prop_assert_eq!(got, expect);
    }
}
