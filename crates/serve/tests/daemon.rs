//! End-to-end daemon tests over real `TcpStream`s: boot on an ephemeral
//! port, install a wrapper over HTTP, extract from perturbed pages,
//! sustain concurrent clients, exercise backpressure, and shut down
//! gracefully.

mod common;

use common::*;
use rextract_extraction::json::JsonValue;
use rextract_learn::perturb::Perturber;
use rextract_serve::{serve, ServeConfig};
use rextract_wrapper::site::{PageStyle, SiteConfig, SiteGenerator};
use rextract_wrapper::wrapper::Wrapper;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// `GET path`, parsed as one JSON document.
fn get_json(addr: SocketAddr, path: &str) -> JsonValue {
    let (status, body) = request(addr, "GET", path, "");
    assert_eq!(status, 200, "{body}");
    JsonValue::parse(&body).unwrap_or_else(|e| panic!("{path}: {e}: {body}"))
}

/// The value at `path` (object keys) under `v`.
fn at<'v>(v: &'v JsonValue, path: &[&str]) -> &'v JsonValue {
    path.iter().fold(v, |v, k| {
        v.get(k).unwrap_or_else(|| panic!("no {k:?} in {v:?}"))
    })
}

fn num_at(v: &JsonValue, path: &[&str]) -> f64 {
    at(v, path)
        .as_num()
        .unwrap_or_else(|| panic!("{path:?} is not a number"))
}

/// The keys of the object at `path`, in document order, space-separated.
fn keys_at(v: &JsonValue, path: &[&str]) -> String {
    let obj = at(v, path)
        .as_obj()
        .unwrap_or_else(|| panic!("{path:?} is not an object"));
    obj.iter()
        .map(|(k, _)| k.as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

// ----- fixtures --------------------------------------------------------------

fn boot(cfg: ServeConfig) -> rextract_serve::ServerHandle {
    serve(cfg).expect("daemon boots")
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_capacity: 64,
        wrapper_dir: None,
        keepalive_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    }
}

// ----- tests -----------------------------------------------------------------

#[test]
fn install_extract_metrics_shutdown_end_to_end() {
    let handle = boot(test_config());
    let addr = handle.addr();

    // Health before any wrapper.
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"wrappers\":0"), "{body}");

    // Extract without a wrapper: a clear 400, not a hang.
    let (status, body) = request(addr, "POST", "/extract", "<p>x</p>");
    assert_eq!(status, 400, "{body}");

    // Install over HTTP.
    let (artifact, mut gen) = trained_artifact(21);
    let (status, body) = request(addr, "POST", "/wrappers/demo", &artifact);
    assert_eq!(status, 201, "{body}");
    assert!(body.contains("\"installed\":\"demo\""), "{body}");

    // A stale-version artifact fails loudly with the version diagnosis.
    let stale = artifact.replacen("v2", "v7", 1);
    let (status, body) = request(addr, "POST", "/wrappers/stale", &stale);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("v7") && body.contains("v2"), "{body}");

    // Extract from a perturbed page over the wire. Perturber seed chosen
    // so the page round-trips token-for-token through writer→tokenizer
    // AND the wrapper's match lands on the tracked target — then the
    // daemon must report exactly that position.
    let mut perturber = Perturber::new(1);
    let page = gen.page_with_style(PageStyle::Busy);
    let edited = perturber.perturb(&page.tokens, page.target, 3);
    let html = rextract_html::writer::write(&edited.tokens);
    let (status, body) = request(addr, "POST", "/extract?wrapper=demo", &html);
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        json_num(&body, "position"),
        Some(edited.target as u64),
        "{body}"
    );
    assert!(
        body.contains("\"tag\":\"input\"") || body.contains("\"tag\":\"INPUT\""),
        "{body}"
    );
    assert!(json_num(&body, "extract_us").is_some(), "{body}");

    // Unknown wrapper → 404 listing what exists.
    let (status, body) = request(addr, "POST", "/extract?wrapper=nope", &html);
    assert_eq!(status, 404);
    assert!(body.contains("\"demo\""), "{body}");

    // Single-tenant convenience: exactly one wrapper → no param needed.
    let (status, _) = request(addr, "POST", "/extract", &html);
    assert_eq!(status, 200);

    // An ambiguous match reports token indices, like a 200 does: the
    // abstracted word drops the text token, so the two INPUTs are word
    // positions 3 and 4 but tokens 4 and 5.
    let body = "rextract-wrapper v2\nseq include_text=false include_end_tags=true\n\
                alphabet #other /FORM /P FORM INPUT P\nmaximized false\nexpr .* <INPUT> .*\n";
    let sum = rextract_wrapper::persist::fnv1a_64(body.as_bytes());
    let ambiguous = format!("{body}checksum fnv1a {sum:016x}\n");
    assert_eq!(request(addr, "POST", "/wrappers/amb", &ambiguous).0, 201);
    let page = "<p>hello</p><form><input><input></form>";
    let (status, body) = request(addr, "POST", "/extract?wrapper=amb", page);
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("\"positions\":[4,5]"), "{body}");

    // Metrics: non-zero request counts and latency histograms, store stats.
    let (status, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(json_num(&body, "uptime_ms").is_some(), "{body}");
    let extract_section = body.split("\"extract\":").nth(1).expect("extract section");
    assert!(
        json_num(extract_section, "requests").unwrap() >= 3,
        "{body}"
    );
    assert!(
        json_num(extract_section, "count").unwrap() >= 3,
        "latency histogram empty: {body}"
    );
    assert!(body.contains("\"store\":{"), "{body}");

    // Unknown endpoint and wrong method.
    assert_eq!(request(addr, "GET", "/nope", "").0, 404);
    assert_eq!(request(addr, "DELETE", "/extract", "").0, 405);

    // Graceful shutdown over HTTP; afterwards the port refuses.
    let (status, body) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"draining\":true"), "{body}");
    handle.join();
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_err(),
        "daemon still accepting after shutdown"
    );
}

#[test]
fn sustains_32_concurrent_clients_with_zero_drops() {
    let mut cfg = test_config();
    cfg.workers = 8;
    cfg.queue_capacity = 256;
    let handle = boot(cfg);
    let addr = handle.addr();

    let (artifact, _) = trained_artifact(33);
    let (status, _) = request(addr, "POST", "/wrappers/site", &artifact);
    assert_eq!(status, 201);

    // Each client renders its own perturbed pages (deterministic per
    // seed), computes the expected answer with a local copy of the same
    // wrapper, and requires the daemon to agree exactly. "Zero dropped
    // correct extractions" = every request is answered and every answer
    // matches the library run bit-for-bit.
    const CLIENTS: usize = 32;
    const REQUESTS_PER_CLIENT: usize = 8;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let artifact = artifact.clone();
            std::thread::spawn(move || {
                let local = Wrapper::import(&artifact).expect("client-side import");
                let mut gen = SiteGenerator::new(SiteConfig {
                    seed: 1000 + c as u64,
                    ..SiteConfig::default()
                });
                let mut perturber = Perturber::new(500 + c as u64);
                let mut ok = 0;
                for _ in 0..REQUESTS_PER_CLIENT {
                    let page = gen.page();
                    let edited = perturber.perturb(&page.tokens, page.target, 2);
                    let html = rextract_html::writer::write(&edited.tokens);
                    let expected = local.extract_target(&rextract_html::tokenizer::tokenize(&html));
                    let (status, body) = request(addr, "POST", "/extract?wrapper=site", &html);
                    match expected {
                        Ok(idx) => {
                            assert_eq!(status, 200, "expected a match: {body}");
                            assert_eq!(
                                json_num(&body, "position"),
                                Some(idx as u64),
                                "daemon disagrees with library: {body}"
                            );
                            ok += 1;
                        }
                        // Heavy perturbation may legitimately defeat the
                        // wrapper; then the daemon must say 422, never
                        // hang, drop, or 5xx.
                        Err(_) => assert_eq!(status, 422, "expected 422: {body}"),
                    }
                }
                ok
            })
        })
        .collect();
    let total_ok: usize = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .sum();
    // The wrapper is maximized: the overwhelming majority of 2-edit pages
    // still extract. (Exact count is deterministic given the seeds.)
    assert!(
        total_ok * 10 >= CLIENTS * REQUESTS_PER_CLIENT * 8,
        "only {total_ok}/{} extractions succeeded",
        CLIENTS * REQUESTS_PER_CLIENT
    );

    let (_, body) = request(addr, "GET", "/metrics", "");
    let extract_section = body.split("\"extract\":").nth(1).unwrap();
    assert!(
        json_num(extract_section, "requests").unwrap() >= (CLIENTS * REQUESTS_PER_CLIENT) as u64,
        "{body}"
    );
    assert_eq!(
        json_num(&body, "rejected_total"),
        Some(0),
        "queue overflowed: {body}"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn backpressure_rejects_with_503_when_queue_full() {
    let mut cfg = test_config();
    cfg.workers = 1;
    cfg.queue_capacity = 1;
    cfg.keepalive_timeout = Duration::from_secs(5);
    let handle = boot(cfg);
    let addr = handle.addr();

    // Occupy the only worker with a keep-alive connection mid-session.
    let mut held = TcpStream::connect(addr).unwrap();
    held.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    send_request(&mut held, "GET", "/healthz", "", false).unwrap();
    let mut held_reader = BufReader::new(held.try_clone().unwrap());
    let (status, _) = read_response(&mut held_reader).expect("response");
    assert_eq!(status, 200);
    // The worker is now parked on this connection awaiting request #2.

    // Fill the queue with an idle connection (admitted, never popped).
    let queued = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // Subsequent connections must be refused with 503, not buffered.
    let mut saw_503 = false;
    for _ in 0..3 {
        let s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // The 503 is written at the accept gate without reading a request.
        let mut r = BufReader::new(s.try_clone().unwrap());
        let mut line = String::new();
        if r.read_line(&mut line).is_ok() && line.contains("503") {
            saw_503 = true;
            break;
        }
    }
    assert!(saw_503, "full queue never answered 503");

    // Metrics expose the rejection. Release the worker (dropped streams
    // read as EOF, so both pending connections finish fast).
    drop(held_reader);
    drop(held);
    drop(queued);
    std::thread::sleep(Duration::from_millis(100));
    let (status, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(json_num(&body, "rejected_total").unwrap() >= 1, "{body}");

    handle.shutdown();
    handle.join();
}

#[test]
fn graceful_shutdown_drains_admitted_work() {
    let mut cfg = test_config();
    cfg.workers = 2;
    cfg.keepalive_timeout = Duration::from_millis(300);
    let handle = boot(cfg);
    let addr = handle.addr();

    let (artifact, mut gen) = trained_artifact(55);
    let (status, _) = request(addr, "POST", "/wrappers/d", &artifact);
    assert_eq!(status, 201);

    // Open connections and send requests, then trigger shutdown from the
    // handle side; the admitted requests must still be answered.
    let page = gen.page();
    let html = page.html();
    let mut streams: Vec<BufReader<TcpStream>> = (0..4)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            send_request(&mut s, "POST", "/extract?wrapper=d", &html, true).unwrap();
            BufReader::new(s)
        })
        .collect();
    // Let the acceptor admit all four (connections still in the OS backlog
    // when the listener drops would be reset, which is not a drain bug).
    std::thread::sleep(Duration::from_millis(200));
    handle.shutdown();
    let mut answered = 0;
    for reader in &mut streams {
        // Drain semantics: every admitted connection gets a real response;
        // none may hang or be dropped.
        let (status, _) = read_response(reader).expect("response");
        assert!(status == 200 || status == 422, "status {status}");
        answered += 1;
    }
    assert_eq!(answered, 4, "shutdown dropped admitted requests");
    handle.join();
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_err(),
        "daemon still accepting after drain"
    );
}

#[test]
fn hot_reload_from_directory() {
    let dir = std::env::temp_dir().join(format!("rextract-serve-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut cfg = test_config();
    cfg.wrapper_dir = Some(dir.clone());
    let handle = boot(cfg);
    let addr = handle.addr();

    // Nothing at boot; write an artifact externally, reload, see it.
    assert!(request(addr, "GET", "/wrappers", "")
        .1
        .contains("\"wrappers\":[]"));
    let (artifact, mut gen) = trained_artifact(70);
    std::fs::write(dir.join("ext.wrapper"), &artifact).unwrap();
    // A stale artifact alongside must be reported, not fatal.
    std::fs::write(dir.join("old.wrapper"), artifact.replacen("v2", "v9", 1)).unwrap();
    let (status, body) = request(addr, "POST", "/reload", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"loaded\":[\"ext\"]"), "{body}");
    assert!(
        body.contains("old.wrapper") && body.contains("v9"),
        "{body}"
    );

    let page = gen.page();
    let (status, _) = request(addr, "POST", "/extract?wrapper=ext", &page.html());
    assert_eq!(status, 200);

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// HTTP/1.1 pipelining: several requests written in one segment on one
/// connection come back as exactly one response each, in request order,
/// and the daemon's pipelining counter sees them.
#[test]
fn pipelined_requests_answered_in_order() {
    let handle = boot(test_config());
    let addr = handle.addr();

    let (artifact, mut gen) = trained_artifact(77);
    let (status, _) = request(addr, "POST", "/wrappers/demo", &artifact);
    assert_eq!(status, 201);
    let w = Wrapper::import(&artifact).unwrap();
    let (page, want) = (0..50)
        .find_map(|_| {
            let p = gen.page();
            w.extract_target(&p.tokens)
                .ok()
                .map(|idx| (p.html(), idx as u64))
        })
        .expect("no cleanly-extracting page in 50 draws");

    // Distinguishable endpoints prove ordering: the responses can only
    // line up if the daemon answers in request order.
    let mut msg = String::new();
    msg.push_str("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    msg.push_str(&format!(
        "POST /extract?wrapper=demo HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{page}",
        page.len()
    ));
    msg.push_str("GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
    msg.push_str("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(msg.as_bytes()).expect("pipelined write");
    let mut reader = BufReader::new(stream);

    let (s1, b1) = read_response(&mut reader).expect("response");
    assert_eq!(s1, 200, "{b1}");
    assert!(b1.contains("\"status\""), "{b1}");

    let (s2, b2) = read_response(&mut reader).expect("response");
    assert_eq!(s2, 200, "{b2}");
    assert_eq!(json_num(&b2, "position"), Some(want), "{b2}");

    let (s3, b3) = read_response(&mut reader).expect("response");
    assert_eq!(s3, 404, "{b3}");

    let (s4, b4) = read_response(&mut reader).expect("response");
    assert_eq!(s4, 200, "{b4}");
    assert!(
        json_num(&b4, "pipelined_requests").is_some_and(|n| n >= 1),
        "pipelining not counted: {b4}"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn pipeline_endpoint_streams_tuples_and_feeds_metrics() {
    let handle = boot(test_config());
    let addr = handle.addr();

    // Setup errors are clean JSON, not stream output.
    let (status, body) = request(addr, "POST", "/pipeline", "");
    assert_eq!(status, 400, "{body}");
    let (status, body) = request(addr, "POST", "/pipeline", "/tmp/nope.html");
    assert_eq!(status, 409, "no wrappers installed yet: {body}");

    let (artifact, mut g) = trained_artifact(99);
    let (status, _) = request(addr, "POST", "/wrappers/search", &artifact);
    assert_eq!(status, 201);

    // A small on-disk corpus plus a manifest naming it — with a comment
    // line and one nonexistent path, which must surface as an inline
    // error line, not abort the run.
    let dir = std::env::temp_dir().join(format!("rextract-serve-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Six generated pages and one the wrapper finds nothing on.
    let htmls: Vec<String> = (0..6)
        .map(|_| g.page().html())
        .chain(["<blink>nothing here</blink>".to_string()])
        .collect();
    let pages = htmls.len();
    let mut manifest = String::new();
    for (i, html) in htmls.iter().enumerate() {
        let path = dir.join(format!("p{i}.html"));
        std::fs::write(&path, html).unwrap();
        manifest.push_str(&format!("{}\n", path.display()));
    }
    manifest.push_str("# not a page\n");
    manifest.push_str(&format!("{}\n", dir.join("missing.html").display()));

    let (status, body) = request(
        addr,
        "POST",
        "/pipeline?wrapper=search&workers=2",
        &manifest,
    );
    assert_eq!(status, 200, "{body}");
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), pages + 1, "one line per manifest page: {body}");
    for (i, line) in lines.iter().take(pages).enumerate() {
        assert!(
            line.contains(&format!("p{i}.html")),
            "line {i} out of manifest order: {line}"
        );
    }
    // `/extract` agrees page by page: the same target, as the same byte
    // extent, or the same no-match.
    for (html, line) in htmls.iter().zip(&lines) {
        let (status, extracted) = request(addr, "POST", "/extract?wrapper=search", html);
        match status {
            200 => {
                let (_, spans) = rextract_html::tokenize_spanned(html);
                let (s, e) = spans[json_num(&extracted, "position").unwrap() as usize];
                let offsets = format!("\"byte_offsets\":[[{s},{e}]]");
                assert!(line.contains(&offsets), "{line} vs {extracted}");
            }
            422 => assert!(
                line.contains("\"error\":\"extract empty (search): "),
                "{line} vs {extracted}"
            ),
            _ => panic!("{status}: {extracted}"),
        }
    }
    assert!(
        body.contains("\"wrapper\":\"search\"") && body.contains("\"wrapper_version\":"),
        "tuples lack provenance: {body}"
    );
    assert!(
        lines.last().unwrap().contains("\"error\":\"read:"),
        "missing page must yield a read-error line: {}",
        lines.last().unwrap()
    );

    let (status, m) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(m.contains("\"search\":{\"pages_ok\":"), "{m}");
    assert!(
        m.contains(&format!("\"pipeline\":{{\"pages\":{}", pages + 1)),
        "{m}"
    );
    assert!(
        m.contains("\"pipeline\":{\"requests\":3"),
        "endpoint counter should see all three /pipeline calls: {m}"
    );

    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The `records` array of a `/query` response body — the part that must
/// be byte-identical across join strategies.
fn records_of(body: &str) -> &str {
    let at = body.find("\"records\":").expect("records field") + "\"records\":".len();
    let end = body[at..].find(",\"tokens\"").expect("tokens field");
    &body[at..at + end]
}

#[test]
fn deeply_nested_bodies_are_rejected_and_the_daemon_survives() {
    let handle = boot(test_config());
    let addr = handle.addr();

    // 10,000 `[` overflowed a worker's stack in the JSON parser — an
    // abort the per-item catch_unwind cannot contain.
    let (status, body) = request(addr, "POST", "/queries/deep", &"[".repeat(10_000));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting deeper"), "{body}");
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    // A query whose inline expression nests 2,000 groups is refused at
    // install with the regex parser's error, and is not installed.
    let nested = format!("{}FORM{}", "(".repeat(2_000), ")".repeat(2_000));
    let def = format!(
        r#"{{"sources":[{{"var":"f","alphabet":"FORM","expr":"{nested} <FORM> .*"}}],
            "plan":{{"op":"leaf","var":"f"}}}}"#
    );
    let (status, body) = request(addr, "POST", "/queries/nested", &def);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains(r#"source \"f\": bad expression"#), "{body}");
    assert!(body.contains("nested deeper"), "{body}");
    let (status, body) = request(addr, "GET", "/queries", "");
    assert_eq!(status, 200);
    assert!(!body.contains("nested"), "{body}");
    let (status, body) = request(addr, "POST", "/query?query=nested", "<form></form>");
    assert_eq!(status, 404, "{body}");
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join();
}

#[test]
fn query_endpoint_joins_sources_with_strategy_agreement() {
    let handle = boot(test_config());
    let addr = handle.addr();

    // Install the wrapper the query will reference.
    let (artifact, mut g) = trained_artifact(7);
    let (status, _) = request(addr, "POST", "/wrappers/search", &artifact);
    assert_eq!(status, 201);

    // Install a two-source query: the wrapper's candidates joined (by
    // document order) with an inline expression locating the FORM tag.
    let def = r#"{
      "sources": [
        {"var": "field", "wrapper": "search"},
        {"var": "form", "alphabet": "FORM /FORM", "expr": "[^FORM]* <FORM> .*"}
      ],
      "plan": {
        "op": "join",
        "left": {"op": "leaf", "var": "form"},
        "right": {"op": "leaf", "var": "field"},
        "preds": [{"pred": "before", "left": "form", "right": "field"}]
      }
    }"#;
    let (status, body) = request(addr, "POST", "/queries/pair", def);
    assert_eq!(status, 201, "{body}");
    assert!(body.contains("\"sources\":2"), "{body}");
    let (status, body) = request(addr, "GET", "/queries", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"pair\""), "{body}");

    // Guard rails: bad definition, missing/unknown query, empty page.
    let (status, _) = request(addr, "POST", "/queries/broken", "{");
    assert_eq!(status, 400);
    let (status, _) = request(addr, "POST", "/query", "<p>x</p>");
    assert_eq!(status, 400, "no ?query=NAME");
    let (status, body) = request(addr, "POST", "/query?query=ghost", "<p>x</p>");
    assert_eq!(status, 404);
    assert!(body.contains("\"pair\""), "404 should list queries: {body}");
    let (status, _) = request(addr, "POST", "/query?query=pair", "");
    assert_eq!(status, 400, "empty body");

    // Evaluate over the wire; the joined record carries both fields with
    // byte-offset provenance into the posted page.
    let page = g.page_with_style(PageStyle::Plain);
    let html = page.html();
    let (status, body) = request(addr, "POST", "/query?query=pair", &html);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_num(&body, "rows"), Some(1), "{body}");
    assert!(body.contains("\"strategy\":\"sort-merge\""), "{body}");
    let records = records_of(&body);
    assert!(
        records.contains("\"form\":{") && records.contains("\"field\":{"),
        "{body}"
    );
    // Provenance check: the reported byte spans must slice the posted
    // HTML back to the tags the spans name.
    assert!(records.contains("<form"), "{body}");
    assert!(records.contains("<input"), "{body}");
    // Extents count the posted bytes: a two-byte `é` before the form
    // shifts them by two. A body that is not UTF-8 has no such extents
    // and is refused instead of re-decoded.
    let accented = html.replacen("<form", "<!-- é --><form", 1);
    let (status, body) = request(addr, "POST", "/query?query=pair", &accented);
    assert_eq!(status, 200, "{body}");
    let form = accented.find("<form").unwrap() as u64;
    assert_eq!(json_num(records_of(&body), "start"), Some(form), "{body}");
    let invalid = b"<p>\xff</p><form action=x></form>";
    let (status, body) = request_bytes(addr, "POST", "/query?query=pair", invalid);
    assert_eq!(status, 400, "{body}");

    // The sort-merge result is byte-identical to the nested-loop oracle.
    let (status, oracle) = request(
        addr,
        "POST",
        "/query?query=pair&strategy=nested-loop",
        &html,
    );
    assert_eq!(status, 200, "{oracle}");
    assert_eq!(records, records_of(&oracle), "strategies disagree");
    let (status, _) = request(addr, "POST", "/query?query=pair&strategy=zigzag", &html);
    assert_eq!(status, 400, "unknown strategy");

    // A query naming a missing wrapper fails at evaluation, not install.
    let ghost = r#"{"sources":[{"var":"x","wrapper":"ghost"}],"plan":{"op":"leaf","var":"x"}}"#;
    let (status, _) = request(addr, "POST", "/queries/orphan", ghost);
    assert_eq!(status, 201, "wrappers bind at evaluation time");
    let (status, body) = request(addr, "POST", "/query?query=orphan", &html);
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("unknown wrapper"), "{body}");

    // Per-query counters surface in /metrics.
    let (status, m) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let pair = m.split("\"pair\":").nth(1).expect("pair counters");
    assert_eq!(json_num(pair, "evaluations"), Some(3), "{m}");
    assert_eq!(json_num(pair, "records_emitted"), Some(3), "{m}");
    let orphan = m.split("\"orphan\":").nth(1).expect("orphan counters");
    assert_eq!(json_num(orphan, "failures"), Some(1), "{m}");

    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join();
}

#[test]
fn metrics_and_healthz_bodies_have_their_full_key_lists() {
    let handle = boot(test_config());
    let addr = handle.addr();
    let (artifact, mut g) = trained_artifact(99);
    assert_eq!(request(addr, "POST", "/wrappers/search", &artifact).0, 201);
    let (status, body) = request(addr, "POST", "/extract?wrapper=search", &g.page().html());
    assert_eq!(status, 200, "{body}");

    let m = get_json(addr, "/metrics");
    let top = "uptime_ms queue_depth in_flight rejected_total workers corrupt_artifacts \
        io_retries reload_skipped_unchanged accept_failures deadline_exceeded \
        abandoned_connections sock_config_failures epoll_wakeups pipelined_requests \
        batches_dispatched batch_size latency_bucket_bounds_us endpoints wrappers queries \
        drift pipeline engines store";
    let failpoints = if cfg!(feature = "failpoints") {
        " failpoints"
    } else {
        ""
    };
    assert_eq!(keys_at(&m, &[]), format!("{top}{failpoints}"));
    let nested = [
        (&["workers"][..], "configured alive respawns"),
        (
            &["drift"],
            "window threshold flagged repairs_attempted repairs_succeeded repairs_failed",
        ),
        (&["pipeline"], "pages unrouted read_errors"),
        (&["batch_size"], "count sum max bounds buckets"),
        (&["endpoints", "extract"], "requests errors latency"),
        (
            &["endpoints", "extract", "latency"],
            "count mean_us p50_us p90_us p99_us buckets",
        ),
        (
            &["wrappers", "search"],
            "pages_ok pages_failed results_empty tuples_emitted health",
        ),
        (
            &["store"],
            "interned dedup_hits op_cache_size hits misses hit_rate evictions per_op",
        ),
    ];
    for (path, keys) in nested {
        assert_eq!(keys_at(&m, path), keys, "{path:?}");
    }
    assert_eq!(at(&m, &["endpoints"]).as_obj().unwrap().len(), 12);
    // The worker rendering this body is itself in flight.
    assert!(num_at(&m, &["in_flight"]) >= 1.0);
    assert_eq!(num_at(&m, &["sock_config_failures"]), 0.0);
    assert_eq!(num_at(&m, &["drift", "threshold"]), 0.9);
    assert!(num_at(&m, &["engines", "search", "classes"]) > 0.0);
    assert_eq!(num_at(&m, &["wrappers", "search", "pages_ok"]), 1.0);

    let h = get_json(addr, "/healthz");
    assert_eq!(
        keys_at(&h, &[]),
        "status wrappers draining workers drifted_wrappers"
    );
    assert_eq!(keys_at(&h, &["workers"]), "configured alive respawns");
    assert_eq!(at(&h, &["status"]).as_str(), Some("ok"));

    request(addr, "POST", "/shutdown", "");
    handle.join();
}

#[test]
fn pipeline_pages_reach_the_drift_window_one_at_a_time() {
    // Default drift settings: flag at a 90% empty or failed rate over
    // the last 32 pages.
    let handle = boot(test_config());
    let addr = handle.addr();
    let (artifact, mut g) = trained_artifact(99);
    assert_eq!(request(addr, "POST", "/wrappers/search", &artifact).0, 201);
    let dir = std::env::temp_dir().join(format!("rextract-serve-drift-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = |name: &str, n: usize, page: &mut dyn FnMut(usize) -> String| {
        let mut manifest = String::new();
        for i in 0..n {
            let path = dir.join(format!("{name}{i:03}.html"));
            std::fs::write(&path, page(i)).unwrap();
            manifest.push_str(&format!("{}\n", path.display()));
        }
        manifest
    };
    let blank = "<blink>nothing here</blink>".to_string();

    // Every 10th page matches nothing: a 10% empty rate, far under the
    // threshold, however the pages batch up.
    let mixed = manifest("mixed", 300, &mut |i| {
        if i % 10 == 9 {
            blank.clone()
        } else {
            g.page().html()
        }
    });
    let (status, body) = request(addr, "POST", "/pipeline?wrapper=search", &mixed);
    assert_eq!(status, 200, "{body}");
    let h = get_json(addr, "/healthz");
    assert_eq!(at(&h, &["status"]).as_str(), Some("ok"), "{h:?}");
    let m = get_json(addr, "/metrics");
    assert_eq!(num_at(&m, &["drift", "flagged"]), 0.0);
    assert_eq!(num_at(&m, &["drift", "repairs_attempted"]), 0.0);
    let row = |m: &JsonValue, k: &str| num_at(m, &["wrappers", "search", k]);
    let pages = row(&m, "pages_ok") + row(&m, "pages_failed") + row(&m, "results_empty");
    assert_eq!(
        pages, 300.0,
        "every pipeline page lands in the wrapper's row"
    );
    assert_eq!(row(&m, "results_empty"), 30.0);

    // A run of pages the wrapper cannot parse still flags it.
    let drifted = manifest("blank", 40, &mut |_| blank.clone());
    assert_eq!(
        request(addr, "POST", "/pipeline?wrapper=search", &drifted).0,
        200
    );
    let m = get_json(addr, "/metrics");
    assert_eq!(num_at(&m, &["drift", "flagged"]), 1.0);
    assert_eq!(row(&m, "results_empty"), 70.0);

    request(addr, "POST", "/shutdown", "");
    handle.join();
    std::fs::remove_dir_all(&dir).unwrap();
}
