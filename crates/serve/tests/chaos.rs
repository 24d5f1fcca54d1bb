//! Chaos tests: boot the real daemon with failpoints armed and verify the
//! resilience story end to end — torn installs never corrupt the served
//! wrapper, a panic storm is healed by the supervisor, slow requests hit
//! the deadline, transient reads are retried, and a wedged connection
//! cannot wedge shutdown.
//!
//! The failpoint registry is process-global, so every test takes one
//! mutex and clears the registry on entry and (via drop guard) on exit.
#![cfg(feature = "failpoints")]

mod common;

use common::*;
use rextract_faults as faults;
use rextract_html::tokenizer::tokenize;
use rextract_serve::{serve, ServeConfig};
use rextract_wrapper::site::SiteGenerator;
use rextract_wrapper::wrapper::Wrapper;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

// ----- fixtures --------------------------------------------------------------

/// A page the artifact's wrapper extracts cleanly, plus the expected
/// position — the ground truth every post-fault extract is checked
/// against.
fn ground_truth(artifact: &str, gen: &mut SiteGenerator) -> (String, u64) {
    let w = Wrapper::import(artifact).expect("fixture artifact imports");
    for _ in 0..50 {
        let p = gen.page();
        let html = p.html();
        if let Ok(idx) = w.extract_target(&tokenize(&html)) {
            return (html, idx as u64);
        }
    }
    panic!("no cleanly-extracting page in 50 draws");
}

fn chaos_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 64,
        wrapper_dir: None,
        op_cache_capacity: Some(4096),
        keepalive_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rextract-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ----- scenarios -------------------------------------------------------------

/// A crash mid-install (torn write) must never reach the served wrapper
/// or the scanned artifact: the old version keeps serving, the old file
/// stays intact, and the torn residue is an unscanned temp file. A torn
/// artifact planted by an external writer is quarantined on reload.
#[test]
fn torn_install_never_corrupts_served_wrapper() {
    let _faults = arm_faults();
    let dir = temp_dir("torn");
    let mut cfg = chaos_config();
    cfg.wrapper_dir = Some(dir.clone());
    let handle = serve(cfg).unwrap();
    let addr = handle.addr();

    let (artifact_a, mut gen) = trained_artifact(100);
    let (page, want) = ground_truth(&artifact_a, &mut gen);
    let (status, _) = request(addr, "POST", "/wrappers/demo", &artifact_a);
    assert_eq!(status, 201);
    let (status, body) = request(addr, "POST", "/extract?wrapper=demo", &page);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_num(&body, "position"), Some(want), "{body}");

    // Crash 24 bytes into writing the replacement artifact.
    faults::configure_spec("persist.write.partial=once:partial(24)").unwrap();
    let (artifact_b, _) = trained_artifact(101);
    let (status, body) = request(addr, "POST", "/wrappers/demo", &artifact_b);
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("persisting"), "{body}");

    // Served wrapper: still artifact A, same ground truth.
    let (status, body) = request(addr, "POST", "/extract?wrapper=demo", &page);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_num(&body, "position"), Some(want), "{body}");
    // On disk: the scanned file still holds artifact A in full; the torn
    // bytes live in an unscanned temp file.
    assert_eq!(
        std::fs::read_to_string(dir.join("demo.wrapper")).unwrap(),
        artifact_a
    );
    let tmp_files = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .count();
    assert_eq!(tmp_files, 1, "torn residue expected");
    // A rescan is untroubled by the residue; demo.wrapper is unchanged on
    // disk (the torn install never got far enough to record a new
    // signature), so it is skipped rather than re-read.
    let (status, body) = request(addr, "POST", "/reload", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"loaded\":[]"), "{body}");
    assert!(body.contains("\"skipped_unchanged\":1"), "{body}");
    assert!(body.contains("\"quarantined\":[]"), "{body}");

    // An external trainer crashes mid-write (no atomic rename): its torn
    // artifact is quarantined by the next reload, with the metric to match.
    std::fs::write(
        dir.join("planted.wrapper"),
        &artifact_a[..artifact_a.len() / 2],
    )
    .unwrap();
    let (status, body) = request(addr, "POST", "/reload", "");
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"quarantined\":[\"planted.wrapper\"]"),
        "{body}"
    );
    assert!(!dir.join("planted.wrapper").exists());
    assert!(dir.join("planted.wrapper.corrupt").exists());
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(
        json_num(&metrics, "corrupt_artifacts"),
        Some(1),
        "{metrics}"
    );
    assert!(metrics.contains("\"failpoints\":["), "{metrics}");

    request(addr, "POST", "/shutdown", "");
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Eight consecutive worker-killing panics: the supervisor respawns every
/// one, `/healthz` dips to "degraded" and recovers to "ok", and the
/// daemon still serves the ground-truth extraction afterwards.
#[test]
fn panic_storm_is_healed_by_the_supervisor() {
    let _faults = arm_faults();
    let mut cfg = chaos_config();
    cfg.degraded_window = Duration::from_millis(600);
    let handle = serve(cfg).unwrap();
    let addr = handle.addr();

    let (artifact, mut gen) = trained_artifact(110);
    let (page, want) = ground_truth(&artifact, &mut gen);
    let (status, _) = request(addr, "POST", "/wrappers/demo", &artifact);
    assert_eq!(status, 201);

    faults::configure_spec("worker.panic.escape=times(8):panic").unwrap();
    // Each of these connections is eaten by a dying worker; the client
    // sees a reset, never a wrong answer.
    for _ in 0..8 {
        let _ = try_request(addr, "GET", "/healthz", "");
    }
    assert!(
        poll_until(
            || faults::fires("worker.panic.escape") == 8,
            Duration::from_secs(5)
        ),
        "panic failpoint fired {} of 8 times",
        faults::fires("worker.panic.escape")
    );
    // The incident is visible: healthz reports degraded within the
    // post-death window…
    assert!(
        poll_until(
            || try_request(addr, "GET", "/healthz", "")
                .is_some_and(|(_, b)| b.contains("\"status\":\"degraded\"")),
            Duration::from_secs(2)
        ),
        "healthz never reported degraded"
    );
    // …and heals: all workers respawned, status back to ok.
    assert!(
        poll_until(
            || try_request(addr, "GET", "/healthz", "")
                .is_some_and(|(_, b)| b.contains("\"status\":\"ok\"")),
            Duration::from_secs(5)
        ),
        "healthz never recovered to ok"
    );
    let (_, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(json_num(&health, "configured"), Some(2), "{health}");
    assert_eq!(json_num(&health, "alive"), Some(2), "{health}");
    // Metrics agree with the injected ground truth: one respawn per fire.
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(
        json_num(&metrics, "respawns"),
        Some(faults::fires("worker.panic.escape")),
        "{metrics}"
    );
    assert_eq!(json_num(&metrics, "respawns"), Some(8), "{metrics}");

    let (status, body) = request(addr, "POST", "/extract?wrapper=demo", &page);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_num(&body, "position"), Some(want), "{body}");

    request(addr, "POST", "/shutdown", "");
    handle.join();
}

/// A worker panic mid-batch costs exactly the in-flight document: that
/// one is answered 503, every other document in the batch is still
/// extracted, and nothing is silently dropped — the client gets one
/// response per request, in order.
#[test]
fn batch_panic_costs_only_the_in_flight_document() {
    let _faults = arm_faults();
    let handle = serve(chaos_config()).unwrap();
    let addr = handle.addr();

    let (artifact, mut gen) = trained_artifact(140);
    let (page, want) = ground_truth(&artifact, &mut gen);
    let (status, _) = request(addr, "POST", "/wrappers/demo", &artifact);
    assert_eq!(status, 201);

    faults::configure_spec("serve.batch.panic=once:panic").unwrap();

    // Pipeline N same-wrapper extracts in ONE write on one connection so
    // the event loop coalesces them into a batch.
    const N: usize = 6;
    let mut msg = String::new();
    for _ in 0..N {
        msg.push_str(&format!(
            "POST /extract?wrapper=demo HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{page}",
            page.len()
        ));
    }
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(msg.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);

    // Every request gets exactly one response (a drop would hang the
    // read and fail the expect), and only the panicked item pays.
    let mut panicked = 0;
    for i in 0..N {
        let (status, body) =
            read_response(&mut reader).unwrap_or_else(|| panic!("response {i} dropped"));
        if status == 503 {
            assert!(body.contains("worker panicked"), "{body}");
            panicked += 1;
        } else {
            assert_eq!(status, 200, "{body}");
            assert_eq!(json_num(&body, "position"), Some(want), "{body}");
        }
    }
    assert_eq!(panicked, 1, "exactly one document pays for the panic");
    assert_eq!(faults::fires("serve.batch.panic"), 1);

    // The worker survived (per-item catch_unwind, not a worker death):
    // no respawns, and batching is visible in the metrics.
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(json_num(&metrics, "respawns"), Some(0), "{metrics}");
    assert!(
        json_num(&metrics, "batches_dispatched").is_some_and(|n| n >= 1),
        "{metrics}"
    );

    request(addr, "POST", "/shutdown", "");
    handle.join();
}

/// A stalled extract crosses the per-request deadline and is answered
/// 503; the next request is unaffected.
#[test]
fn slow_extract_hits_the_deadline() {
    let _faults = arm_faults();
    let mut cfg = chaos_config();
    cfg.request_deadline = Duration::from_millis(50);
    let handle = serve(cfg).unwrap();
    let addr = handle.addr();

    let (artifact, mut gen) = trained_artifact(120);
    let (page, want) = ground_truth(&artifact, &mut gen);
    let (status, _) = request(addr, "POST", "/wrappers/demo", &artifact);
    assert_eq!(status, 201);

    faults::configure_spec("extract.slow=once:sleep(120)").unwrap();
    let (status, body) = request(addr, "POST", "/extract?wrapper=demo", &page);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("deadline exceeded"), "{body}");
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(
        json_num(&metrics, "deadline_exceeded"),
        Some(1),
        "{metrics}"
    );

    // One fire only: the follow-up request is inside budget.
    let (status, body) = request(addr, "POST", "/extract?wrapper=demo", &page);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_num(&body, "position"), Some(want), "{body}");

    request(addr, "POST", "/shutdown", "");
    handle.join();
}

/// Transient read errors during a directory scan are retried with
/// backoff, not surfaced as failures.
#[test]
fn transient_artifact_reads_are_retried() {
    let _faults = arm_faults();
    let dir = temp_dir("transient");
    let (artifact, _) = trained_artifact(130);
    std::fs::write(dir.join("good.wrapper"), &artifact).unwrap();
    let mut cfg = chaos_config();
    cfg.wrapper_dir = Some(dir.clone());
    let handle = serve(cfg).unwrap();
    let addr = handle.addr();

    // Touch the artifact so the rescan actually re-reads it (an unchanged
    // signature would be skipped without any I/O to inject into).
    std::fs::write(dir.join("good.wrapper"), &artifact).unwrap();
    // First two reads of the rescan hit injected EINTR; the third lands.
    faults::configure_spec("registry.read.transient=times(2):return").unwrap();
    let (status, body) = request(addr, "POST", "/reload", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"loaded\":[\"good\"]"), "{body}");
    assert!(body.contains("\"errors\":[]"), "{body}");
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(json_num(&metrics, "io_retries"), Some(2), "{metrics}");
    assert_eq!(faults::fires("registry.read.transient"), 2);

    request(addr, "POST", "/shutdown", "");
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Injected EMFILE-style post-accept failures: the acceptor drops the
/// doomed connections, counts them, and keeps serving everyone else —
/// fd-pressure at the accept gate degrades, never wedges.
#[test]
fn accept_failures_degrade_not_wedge() {
    let _faults = arm_faults();
    let handle = serve(chaos_config()).unwrap();
    let addr = handle.addr();

    let (artifact, mut gen) = trained_artifact(160);
    let (page, want) = ground_truth(&artifact, &mut gen);
    let (status, _) = request(addr, "POST", "/wrappers/demo", &artifact);
    assert_eq!(status, 201);

    faults::configure_spec("serve.accept.emfile=times(3):return").unwrap();
    // Each doomed connection is closed without a byte: the client sees a
    // dead socket, never a hang or a wrong answer.
    for _ in 0..3 {
        assert_eq!(try_request(addr, "GET", "/healthz", ""), None);
    }
    assert!(
        poll_until(
            || faults::fires("serve.accept.emfile") == 3,
            Duration::from_secs(2)
        ),
        "accept failpoint fired {} of 3 times",
        faults::fires("serve.accept.emfile")
    );

    // The acceptor survived: the very next connection is served, and the
    // incident is visible in the metrics.
    let (status, body) = request(addr, "POST", "/extract?wrapper=demo", &page);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_num(&body, "position"), Some(want), "{body}");
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(json_num(&metrics, "accept_failures"), Some(3), "{metrics}");

    request(addr, "POST", "/shutdown", "");
    handle.join();
}

/// A panic injected into the store's eviction sweep poisons one shard of
/// the process-global op cache. The daemon must degrade — the one
/// computation dies with its thread — rather than wedge: `/metrics`
/// (lock-free stats) keeps answering, extraction keeps returning ground
/// truth, and later store traffic through the recovered shard is still
/// correct.
#[test]
fn store_sweep_panic_degrades_not_wedges() {
    use rextract_automata::{Alphabet, Lang, Store};
    let _faults = arm_faults();
    let mut cfg = chaos_config();
    // A tiny bound leaves most shards with a zero share, so almost every
    // cold insert runs an eviction sweep.
    cfg.op_cache_capacity = Some(2);
    let handle = serve(cfg).unwrap();
    let addr = handle.addr();

    let (artifact, mut gen) = trained_artifact(150);
    let (page, want) = ground_truth(&artifact, &mut gen);
    let (status, _) = request(addr, "POST", "/wrappers/demo", &artifact);
    assert_eq!(status, 201);

    // Ground truth for the store traffic, computed before any fault.
    let a = Alphabet::new(["x".to_string(), "y".to_string()]);
    let l1 = Lang::parse(&a, "x* y").unwrap();
    let l2 = Lang::parse(&a, "(x | y)* x").unwrap();
    let want_union = Store::uncached().union(&l1, &l2);
    Store::reset_op_cache();

    faults::configure_spec("store.evict.sweep=once:panic").unwrap();
    // A worker-shaped thread eats the injected panic mid-sweep, leaving
    // its shard mutex poisoned.
    let (v1, v2) = (l1.clone(), l2.clone());
    let victim = std::thread::spawn(move || {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let s = Store::global();
            let u = s.union(&v1, &v2);
            let _ = s.intersect(&v1, &v2);
            let _ = s.difference(&v2, &v1);
            let _ = s.star(&u);
            let _ = s.complement(&v1);
        }));
    });
    victim.join().unwrap();
    assert!(
        faults::fires("store.evict.sweep") >= 1,
        "sweep failpoint never fired"
    );

    // Lock-free stats: /metrics answers even with a poisoned shard.
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(metrics.contains("\"shard_count\":"), "{metrics}");
    // The poisoned shard recovers: the same op through the global store
    // still agrees with uncached ground truth.
    assert_eq!(Store::global().union(&l1, &l2), want_union);
    // And the daemon keeps serving extractions.
    let (status, body) = request(addr, "POST", "/extract?wrapper=demo", &page);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_num(&body, "position"), Some(want), "{body}");

    request(addr, "POST", "/shutdown", "");
    handle.join();
}

/// A connection wedged in a handler cannot wedge graceful shutdown: the
/// drain deadline abandons it, logged and counted.
#[test]
fn drain_deadline_abandons_wedged_connections() {
    let _faults = arm_faults();
    let mut cfg = chaos_config();
    cfg.drain_timeout = Duration::from_millis(200);
    let handle = serve(cfg).unwrap();
    let addr = handle.addr();

    let (artifact, mut gen) = trained_artifact(140);
    let (page, _) = ground_truth(&artifact, &mut gen);
    let (status, _) = request(addr, "POST", "/wrappers/demo", &artifact);
    assert_eq!(status, 201);

    // Wedge one worker for far longer than the drain deadline.
    faults::configure_spec("extract.slow=once:sleep(1500)").unwrap();
    let wedged = std::thread::spawn(move || {
        let _ = try_request(addr, "POST", "/extract?wrapper=demo", &page);
    });
    assert!(
        poll_until(
            || faults::fires("extract.slow") == 1,
            Duration::from_secs(2)
        ),
        "wedge request never reached the handler"
    );

    let metrics = std::sync::Arc::clone(handle.metrics());
    request(addr, "POST", "/shutdown", "");
    let started = Instant::now();
    handle.join();
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_millis(1200),
        "join took {waited:?}; drain deadline did not bite"
    );
    assert_eq!(
        metrics.get(rextract_serve::Counter::AbandonedConnections),
        1
    );
    wedged.join().unwrap();
}
