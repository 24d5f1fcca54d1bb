//! Drift + self-repair integration tests: boot the real daemon, perturb
//! a synthetic catalog site live (the paper's Section 3 change taxonomy,
//! via `rextract_learn::perturb`), and prove the daemon detects the
//! drift, retrains the wrapper online from retained evidence pages, and
//! hot-installs the healed artifact — restoring ground-truth extraction
//! quality without a restart. The failpoint-armed variants additionally
//! prove that a mid-repair panic leaves the old wrapper serving and the
//! repair is retried with backoff.
//!
//! The failpoint registry is process-global, so every test takes one
//! mutex and clears the registry on entry and (via drop guard) on exit —
//! same idiom as `tests/chaos.rs`.
#![cfg(feature = "failpoints")]

mod common;

use common::*;
use rextract_faults as faults;
use rextract_html::tokenizer::tokenize;
use rextract_learn::perturb::Perturber;
use rextract_serve::{serve, ServeConfig};
use rextract_wrapper::site::{PageStyle, SiteConfig, SiteGenerator};
use rextract_wrapper::wrapper::{TrainPage, Wrapper, WrapperConfig};
use std::net::SocketAddr;
use std::time::Duration;

// ----- fixtures --------------------------------------------------------------

/// A catalog wrapper trained on the generator's Plain and TableEmbedded
/// layouts, exported as an installable artifact.
fn catalog_artifact(seed: u64) -> (String, SiteGenerator) {
    let mut g = SiteGenerator::new(SiteConfig {
        seed,
        ..SiteConfig::default()
    });
    let pages = vec![
        TrainPage::from(&g.page_with_style(PageStyle::Plain)),
        TrainPage::from(&g.page_with_style(PageStyle::TableEmbedded)),
        TrainPage::from(&g.page_with_style(PageStyle::Plain)),
    ];
    let w = Wrapper::train(&pages, WrapperConfig::default()).unwrap();
    (w.export(), g)
}

fn drift_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        wrapper_dir: None,
        // Tight loop so the tests observe detection and repair quickly:
        // 8-page window, half of it failing flags drift, retries 10 ms
        // apart.
        drift_window: 8,
        drift_threshold: 0.5,
        repair_backoff: Duration::from_millis(10),
        ..ServeConfig::default()
    }
}

/// POST good pages (both trained layouts) until `want` of them return
/// 200 with the generator's ground-truth position. Returns one
/// (html, position) pair for post-repair re-checks.
fn serve_good_pages(addr: SocketAddr, g: &mut SiteGenerator, want: usize) -> (String, u64) {
    let mut kept = None;
    let mut got = 0;
    for i in 0..100 {
        let style = if i % 2 == 0 {
            PageStyle::Plain
        } else {
            PageStyle::TableEmbedded
        };
        let p = g.page_with_style(style);
        let html = p.html();
        let (status, body) = request(addr, "POST", "/extract?wrapper=cat", &html);
        if status == 200 {
            assert_eq!(json_num(&body, "position"), Some(p.target as u64), "{body}");
            kept = Some((html, p.target as u64));
            got += 1;
            if got >= want {
                break;
            }
        }
    }
    assert!(got >= want, "only {got}/{want} good pages served");
    kept.expect("at least one good page")
}

/// Simulate live template drift: perturb Plain catalog pages (10 edits
/// each from a shared deterministic [`Perturber`]) and POST exactly the
/// `want` pages the old wrapper can no longer extract — a maximized
/// wrapper absorbs most benign edits (that is the resilience story), so
/// the pages that *do* break it are the drift the daemon must notice.
/// Returns the failing (html, truth) pairs; perturbation preserves the
/// target token, so `truth` is the ground-truth position in the drifted
/// page.
fn serve_drifted_pages(
    addr: SocketAddr,
    g: &mut SiteGenerator,
    old: &Wrapper,
    perturber: &mut Perturber,
    want: usize,
) -> Vec<(String, u64)> {
    let mut failing: Vec<(String, u64)> = Vec::new();
    for _ in 0..300 {
        if failing.len() >= want {
            break;
        }
        let p = g.page_with_style(PageStyle::Plain);
        let edited = perturber.perturb(&p.tokens, p.target, 10);
        let html = rextract_html::writer::write(&edited.tokens);
        // Only pages that round-trip the tokenizer keep a meaningful
        // ground-truth index; skip the rare ones that do not.
        if tokenize(&html) != edited.tokens {
            continue;
        }
        if old.extract_target(&edited.tokens).is_ok() {
            continue;
        }
        let (status, _) = request(addr, "POST", "/extract?wrapper=cat", &html);
        assert_eq!(status, 422, "page that fails locally must fail served");
        failing.push((html, edited.target as u64));
    }
    assert!(
        failing.len() >= want,
        "only {}/{want} drifted pages failed",
        failing.len()
    );
    failing
}

// ----- scenarios -------------------------------------------------------------

/// Headline chaos test: a live template change degrades the catalog
/// wrapper; the daemon flags the drift, retrains from retained evidence,
/// hot-installs the healed wrapper (revision 2), and the previously
/// failing pages extract their ground-truth targets again — all without
/// a restart.
#[test]
fn daemon_detects_drift_and_self_repairs_live() {
    let _faults = arm_faults();
    let handle = serve(drift_config()).unwrap();
    let addr = handle.addr();

    let (artifact, mut g) = catalog_artifact(61);
    let (status, _) = request(addr, "POST", "/wrappers/cat", &artifact);
    assert_eq!(status, 201);

    let (good_html, good_want) = serve_good_pages(addr, &mut g, 4);
    let local = Wrapper::import(&artifact).unwrap();
    let mut perturber = Perturber::new(13);
    let failing = serve_drifted_pages(addr, &mut g, &local, &mut perturber, 4);

    // Detection: with a window of [4 ok, 4 empty] the empty rate hits
    // the 0.5 threshold exactly on the fourth failing page.
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(json_num(&metrics, "flagged"), Some(1), "{metrics}");

    // Repair: the supervisor's repair thread retrains, validates, and
    // installs; counters reconcile exactly with the one injected drift.
    assert!(
        poll_until(
            || {
                let (_, m) = request(addr, "GET", "/metrics", "");
                json_num(&m, "repairs_succeeded") == Some(1)
            },
            Duration::from_secs(15),
        ),
        "repair never succeeded"
    );
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(json_num(&metrics, "flagged"), Some(1), "{metrics}");
    assert_eq!(
        json_num(&metrics, "repairs_attempted"),
        Some(1),
        "{metrics}"
    );
    assert_eq!(json_num(&metrics, "repairs_failed"), Some(0), "{metrics}");
    assert!(metrics.contains("\"health\":\"healthy\""), "{metrics}");

    // Healed quality: the good layout still extracts its ground truth,
    // at the bumped revision…
    let (status, body) = request(addr, "POST", "/extract?wrapper=cat", &good_html);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_num(&body, "position"), Some(good_want), "{body}");
    assert_eq!(json_num(&body, "wrapper_revision"), Some(2), "{body}");

    // …and the drifted pages that failed before the repair now extract
    // their ground-truth targets (perturbation preserves the target
    // token, so the truth is known exactly).
    let mut healed_ok = 0;
    let mut healed_exact = 0;
    for (html, want) in &failing {
        let (status, body) = request(addr, "POST", "/extract?wrapper=cat", html);
        if status == 200 {
            healed_ok += 1;
            if json_num(&body, "position") == Some(*want) {
                healed_exact += 1;
            }
        }
    }
    assert!(
        healed_ok >= 3,
        "only {healed_ok}/{} drifted pages extract after repair",
        failing.len()
    );
    assert!(
        healed_exact * 2 >= failing.len(),
        "only {healed_exact}/{} drifted pages hit ground truth after repair",
        failing.len()
    );

    let (_, health) = request(addr, "GET", "/healthz", "");
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    request(addr, "POST", "/shutdown", "");
    handle.join();
}

/// A panic in the middle of retraining (the `serve.repair.train`
/// failpoint) must not take the daemon or the old wrapper down: the
/// failed attempt is counted, the wrapper keeps serving best-effort, and
/// the supervisor retries after backoff until the repair lands.
#[test]
fn mid_repair_panic_keeps_old_wrapper_serving_and_retries() {
    let _faults = arm_faults();
    faults::configure_spec("serve.repair.train=once:panic").unwrap();

    let handle = serve(drift_config()).unwrap();
    let addr = handle.addr();

    let (artifact, mut g) = catalog_artifact(71);
    let (status, _) = request(addr, "POST", "/wrappers/cat", &artifact);
    assert_eq!(status, 201);

    let (good_html, good_want) = serve_good_pages(addr, &mut g, 4);
    let local = Wrapper::import(&artifact).unwrap();
    let mut perturber = Perturber::new(19);
    serve_drifted_pages(addr, &mut g, &local, &mut perturber, 4);

    // First attempt panics (injected); the old wrapper still answers
    // best-effort in the meantime.
    let (status, body) = request(addr, "POST", "/extract?wrapper=cat", &good_html);
    assert_eq!(status, 200, "{body}");

    assert!(
        poll_until(
            || {
                let (_, m) = request(addr, "GET", "/metrics", "");
                json_num(&m, "repairs_succeeded") == Some(1)
            },
            Duration::from_secs(15),
        ),
        "repair never succeeded after injected panic"
    );
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    let attempted = json_num(&metrics, "repairs_attempted").unwrap();
    let failed = json_num(&metrics, "repairs_failed").unwrap();
    assert!(attempted >= 2, "panicked attempt not retried: {metrics}");
    assert!(failed >= 1, "panicked attempt not counted: {metrics}");
    assert_eq!(
        attempted,
        failed + 1,
        "counters do not reconcile: {metrics}"
    );

    let (status, body) = request(addr, "POST", "/extract?wrapper=cat", &good_html);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_num(&body, "position"), Some(good_want), "{body}");
    assert_eq!(json_num(&body, "wrapper_revision"), Some(2), "{body}");
    request(addr, "POST", "/shutdown", "");
    handle.join();
}

/// `--drift-strict`: once flagged, a drifted wrapper answers 503 instead
/// of best-effort results. With no good evidence retained the repair
/// loop cannot start, so the wrapper stays Degraded until a manual
/// reinstall — which resets the drift verdict and restores service.
#[test]
fn strict_mode_refuses_drifted_wrapper_until_reinstall() {
    let _faults = arm_faults();
    let mut cfg = drift_config();
    cfg.drift_window = 4;
    cfg.drift_strict = true;
    let handle = serve(cfg).unwrap();
    let addr = handle.addr();

    let (artifact, mut g) = catalog_artifact(81);
    let (status, _) = request(addr, "POST", "/wrappers/cat", &artifact);
    assert_eq!(status, 201);

    // Only drifted traffic — a total redesign the wrapper cannot parse
    // at all, so every page is a guaranteed empty result. With zero good
    // evidence retained, the repair loop can never become ready and the
    // wrapper stays Degraded deterministically.
    let mut refused = false;
    for i in 0..20 {
        let redesigned = format!("<html><ul><li>item {i}</li><li>item {i}b</li></ul></html>");
        let (status, _) = request(addr, "POST", "/extract?wrapper=cat", &redesigned);
        if status == 503 {
            refused = true;
            break;
        }
        assert_eq!(status, 422, "pre-flag pages are served best-effort");
    }
    assert!(refused, "strict daemon never started refusing");
    let (_, health) = request(addr, "GET", "/healthz", "");
    assert!(health.contains("\"status\":\"degraded\""), "{health}");
    assert!(health.contains("\"cat\":\"degraded\""), "{health}");

    // Strict mode: even a perfectly good page is refused while drifted.
    let p = g.page_with_style(PageStyle::Plain);
    let (status, body) = request(addr, "POST", "/extract?wrapper=cat", &p.html());
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("refusing best-effort"), "{body}");

    // Manual reinstall supersedes the drift verdict.
    let (status, body) = request(addr, "POST", "/wrappers/cat", &artifact);
    assert_eq!(status, 201, "{body}");
    assert_eq!(json_num(&body, "revision"), Some(2), "{body}");
    let (status, body) = request(addr, "POST", "/extract?wrapper=cat", &p.html());
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_num(&body, "position"), Some(p.target as u64), "{body}");
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(
        json_num(&metrics, "repairs_attempted"),
        Some(0),
        "{metrics}"
    );
    let (_, health) = request(addr, "GET", "/healthz", "");
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    request(addr, "POST", "/shutdown", "");
    handle.join();
}

/// The `serve.drift.detect` failpoint forces a drift verdict without
/// waiting for a full window — the hook the smoke script uses to drive
/// the detection path deterministically.
#[test]
fn forced_detection_flags_after_a_single_page() {
    let _faults = arm_faults();
    faults::configure_spec("serve.drift.detect=once:return").unwrap();

    let handle = serve(drift_config()).unwrap();
    let addr = handle.addr();

    let (artifact, mut g) = catalog_artifact(91);
    let (status, _) = request(addr, "POST", "/wrappers/cat", &artifact);
    assert_eq!(status, 201);

    serve_good_pages(addr, &mut g, 1);
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(json_num(&metrics, "flagged"), Some(1), "{metrics}");
    let (_, health) = request(addr, "GET", "/healthz", "");
    assert!(health.contains("\"status\":\"degraded\""), "{health}");
    request(addr, "POST", "/shutdown", "");
    handle.join();
}
