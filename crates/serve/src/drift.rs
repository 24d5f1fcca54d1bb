//! The wrapper lifecycle: one table of every wrapper's serving state, and
//! the supervisor-owned online repair that acts on it.
//!
//! [`Lifecycle`] keeps each wrapper's page tallies, drift window, health,
//! repair evidence and repair attempts in one entry behind one mutex: the
//! per-page observer takes it once per page ([`Lifecycle::observe`]), and
//! each health transition is one critical section. A wrapper turns
//! `Degraded` when its failure or empty-result rate over a full window
//! reaches the threshold; what the daemon then does follows Ferrara &
//! Baumgartner's adaptable-wrapper loop:
//!
//! 1. **Evidence.** The first 8 pages the serving revision extracted are
//!    kept as self-labeled samples (the served extraction result is the
//!    label), and the last 16 failing pages as the drift witnesses. Any
//!    page a revision served labels it as well as any other, so the good
//!    ring fills once per revision and a steady-state page copies nothing.
//!    A page over `MAX_EVIDENCE_TOKENS` (4,096) tokens is tallied but never
//!    kept, since aligning it would need a quadratic LCS table; a wrapper
//!    whose pages all exceed the bound stays `Degraded` without an
//!    attempt.
//! 2. **Relabel.** Artifacts carry no training samples, so the repair
//!    recovers labels for the failing pages by sequence alignment: the
//!    LCS between a failing page's tag sequence and a known-good page's
//!    embeds the good page's target position into the failing page
//!    ([`lcs`] + [`leftmost_embedding`] — the same left-to-right
//!    machinery the merging heuristic is built from).
//! 3. **Retrain + validate.** [`Wrapper::train`] re-runs the merging
//!    heuristic and left-filtering maximization over good + relabeled
//!    pages; the candidate must still extract every good page to its
//!    known target *and* succeed on held-back failing pages it never
//!    trained on, or the repair is rejected.
//! 4. **Install.** An attempt repairs one revision, the one serving when
//!    [`Lifecycle::begin_repair`] started it: the healed artifact goes
//!    through [`Registry::install_over`]'s crash-safe path (checksummed v2
//!    artifact, tmp→fsync→rename, atomic `Arc` swap) only while that
//!    revision still serves. A manual install in the meantime wins, and
//!    [`Lifecycle::finish_repair`] drops the attempt's verdict.
//!
//! The repair runs on a supervisor-owned thread: a panic mid-repair
//! (e.g. the `serve.repair.train` failpoint) leaves the old wrapper
//! serving untouched, and the attempt is retried with exponential
//! backoff (200 ms, doubling) until [`MAX_REPAIR_ATTEMPTS`], after which
//! the wrapper is `Quarantined` (still serving best-effort; a manual
//! install resets it).
//!
//! Lock order: install lock ([`Registry::install_with`]) → lifecycle lock
//! → registry read lock ([`Lifecycle::begin_repair`]), never the reverse.

use rextract_corpus::PageEvent;
use rextract_extraction::json::Obj;
use rextract_faults::fail_point;
use rextract_html::seq::{to_names, SeqConfig};
use rextract_html::token::Token;
use rextract_learn::align::{lcs, leftmost_embedding};
use rextract_wrapper::wrapper::{TrainPage, Wrapper, WrapperConfig};
use rextract_wrapper::PageOutcome;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::metrics::{table, Counter, Metrics};
use crate::registry::Registry;

/// Successful pages kept per revision as self-labeled samples.
const GOOD_CAP: usize = 8;
/// Failing pages retained per wrapper as repair evidence.
const FAILING_CAP: usize = 16;
/// Largest page, in tokens, kept as repair evidence. A repair aligns
/// pages through `(n+1)×(m+1)` `u32` LCS tables, so at this size one
/// table holds at most 4,097² entries (≈64 MiB). A larger page still
/// counts in the tallies and the drift window.
const MAX_EVIDENCE_TOKENS: usize = 4096;
/// Repair attempts before a wrapper is quarantined.
pub const MAX_REPAIR_ATTEMPTS: u32 = 5;
/// How long after an attempt starts the next may start; doubles per
/// attempt.
const REPAIR_BACKOFF: Duration = Duration::from_millis(200);
/// A relabeling is only trusted when the common subsequence covers at
/// least this fraction of the good page's tag sequence — below it the
/// pages are too dissimilar for the alignment to carry the label over.
const MIN_LCS_RATIO: f64 = 0.5;

/// Per-wrapper page and tuple tallies, fed page by page by `/extract`
/// and `/pipeline` alike.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct WrapperCounters {
    /// Pages this wrapper extracted successfully.
    pages_ok: u64,
    /// Pages routed to this wrapper whose extraction failed (ambiguous
    /// match or other hard error — empty results are counted separately).
    pages_failed: u64,
    /// Pages where the wrapper parsed but matched nothing (`NoMatch`) —
    /// the paper's primary drift symptom, disjoint from `pages_failed`.
    results_empty: u64,
    /// Tuples emitted under this wrapper's name.
    tuples_emitted: u64,
}

table! {
    /// A wrapper's serving health in the drift/repair lifecycle:
    /// `Healthy → Degraded → Repairing → Healthy` on a successful repair,
    /// or `→ Quarantined` when repair attempts are exhausted.
    #[derive(Default)]
    pub enum WrapperHealth: &'static str {
        /// Failure rates below threshold; serving normally.
        #[default]
        Healthy => "healthy",
        /// Drift flagged: a sliding-window failure or empty-result rate
        /// crossed the threshold. Still serving best-effort (or 503 under
        /// `--drift-strict`) while repair evidence accumulates.
        Degraded => "degraded",
        /// A supervisor-owned repair thread is retraining the wrapper.
        Repairing => "repairing",
        /// Repair attempts exhausted; the wrapper stays installed (and
        /// keeps serving best-effort) but no further repairs are tried
        /// until a manual install resets it.
        Quarantined => "quarantined",
    }
}

impl WrapperHealth {
    pub fn name(self) -> &'static str {
        self.entry()
    }
}

/// Forced-detection hook: the `serve.drift.detect` failpoint (action
/// `return`) flags drift regardless of observed rates, making the
/// detect → repair path testable without minting hundreds of bad pages.
fn drift_detect_forced() -> bool {
    fail_point!("serve.drift.detect", |_action| true);
    false
}

/// One wrapper's serving state: everything the daemon knows about it
/// besides the artifact itself.
#[derive(Default)]
struct WrapperState {
    counters: WrapperCounters,
    /// Outcomes of the last `window` pages, oldest first.
    recent: VecDeque<PageOutcome>,
    health: WrapperHealth,
    /// The first `GOOD_CAP` pages the serving revision extracted, as
    /// `(tokens, target token index)`: what the wrapper served is the
    /// label.
    good: Vec<(Vec<Token>, usize)>,
    /// The last `FAILING_CAP` failing pages (no match or hard failure).
    failing: VecDeque<Vec<Token>>,
    /// Repair attempts since the wrapper was last installed.
    attempts: u32,
    /// Earliest time the next attempt may start (exponential backoff).
    not_before: Option<Instant>,
    /// The revision an attempt is repairing right now.
    repairing: Option<u32>,
}

impl WrapperState {
    /// A new revision serves: keep the tallies, drop everything that
    /// described the replaced one.
    fn reset(&mut self) {
        let counters = self.counters;
        *self = WrapperState {
            counters,
            ..WrapperState::default()
        };
    }
}

/// One repair attempt as [`Lifecycle::begin_repair`] started it: the
/// serving wrapper, whose revision is the one it may replace, and a
/// snapshot of the evidence to train on without the lifecycle lock.
pub struct Attempt {
    name: String,
    /// 1 for the first attempt since the wrapper was installed.
    number: u32,
    wrapper: Arc<Wrapper>,
    good: Vec<(Vec<Token>, usize)>,
    failing: Vec<Vec<Token>>,
}

/// The daemon's one table of per-wrapper serving state (see the module
/// docs), with the drift policy it was booted with.
pub struct Lifecycle {
    /// Sliding-window size in pages; `0` turns drift detection off.
    pub window: usize,
    /// Failure or empty-result rate over a full window that flags drift.
    pub threshold: f64,
    wrappers: Mutex<BTreeMap<String, WrapperState>>,
}

impl Lifecycle {
    pub fn new(window: usize, threshold: f64) -> Lifecycle {
        Lifecycle {
            window,
            threshold,
            wrappers: Mutex::new(BTreeMap::new()),
        }
    }

    /// Take the table lock; every update leaves each entry valid, so a
    /// panic elsewhere never poisons the table.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, WrapperState>> {
        self.wrappers.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// One page under `ev.wrapper`, from `/extract` or `/pipeline` alike:
    /// tally it (a successful page emits one tuple), keep it as evidence
    /// if a ring wants it and it has at most `MAX_EVIDENCE_TOKENS`
    /// tokens, and push its outcome into the drift window.
    /// Detection only ever *flags* (Healthy → Degraded), so a drifting
    /// wrapper stays visible until a repair or a manual install acts on
    /// it. Returns `true` when this page newly flagged the wrapper.
    pub fn observe(&self, ev: &PageEvent<'_>, metrics: &Metrics) -> bool {
        let mut map = self.lock();
        // Allocate the name only on the wrapper's first page.
        if !map.contains_key(ev.wrapper) {
            map.insert(ev.wrapper.to_string(), WrapperState::default());
        }
        let st = map.get_mut(ev.wrapper).expect("inserted above");
        let c = &mut st.counters;
        match ev.outcome {
            PageOutcome::Ok => {
                c.pages_ok += 1;
                c.tuples_emitted += 1;
            }
            PageOutcome::Empty => c.results_empty += 1,
            PageOutcome::Failed => c.pages_failed += 1,
        }
        match ev.targets.first() {
            // Too large to align in a repair: tallied, never copied.
            _ if ev.tokens.len() > MAX_EVIDENCE_TOKENS => {}
            Some(&target) => {
                if st.good.len() < GOOD_CAP {
                    st.good.push((ev.tokens.to_vec(), target));
                }
            }
            // Failing pages keep rolling: they are the drift witnesses,
            // and rare while the wrapper is healthy.
            None => {
                if st.failing.len() == FAILING_CAP {
                    st.failing.pop_front();
                }
                st.failing.push_back(ev.tokens.to_vec());
            }
        }
        if self.window == 0 {
            return false;
        }
        if st.recent.len() == self.window {
            st.recent.pop_front();
        }
        st.recent.push_back(ev.outcome);
        if st.health != WrapperHealth::Healthy {
            return false;
        }
        let rate = |o: PageOutcome| {
            st.recent.iter().filter(|&&r| r == o).count() as f64 / self.window as f64
        };
        let flagged = drift_detect_forced()
            || (st.recent.len() == self.window
                && (rate(PageOutcome::Failed) >= self.threshold
                    || rate(PageOutcome::Empty) >= self.threshold));
        if flagged {
            st.health = WrapperHealth::Degraded;
            metrics.add(Counter::DriftFlagged, 1);
        }
        flagged
    }

    /// The wrapper's current health (Healthy if never observed).
    pub fn health(&self, name: &str) -> WrapperHealth {
        self.lock()
            .get(name)
            .map_or(WrapperHealth::Healthy, |st| st.health)
    }

    /// Every wrapper whose health is not Healthy, sorted by name —
    /// `/healthz`'s degradation signal.
    pub fn unhealthy(&self) -> Vec<(String, WrapperHealth)> {
        self.lock()
            .iter()
            .filter(|(_, st)| st.health != WrapperHealth::Healthy)
            .map(|(name, st)| (name.clone(), st.health))
            .collect()
    }

    /// `name` was replaced by a manual install: keep its tallies, and
    /// clear its window, health, evidence and attempts, which described
    /// the replaced wrapper. A running attempt's verdict is then dropped.
    pub fn reset(&self, name: &str) {
        if let Some(st) = self.lock().get_mut(name) {
            st.reset();
        }
    }

    /// Start the next repair: the first `Degraded` wrapper past its
    /// backoff that holds enough evidence (≥ 1 good page to carry labels,
    /// ≥ 2 failing pages so one can be held back for validation). In one
    /// critical section this marks it `Repairing`, counts the attempt,
    /// arms the backoff for the next one, and snapshots the evidence and
    /// the serving wrapper into the returned [`Attempt`].
    pub fn begin_repair(&self, registry: &Registry, metrics: &Metrics) -> Option<Attempt> {
        let now = Instant::now();
        let attempt = {
            let mut map = self.lock();
            let (name, st, wrapper) = map.iter_mut().find_map(|(name, st)| {
                let ready = st.health == WrapperHealth::Degraded
                    && st.not_before.is_none_or(|t| now >= t)
                    && !st.good.is_empty()
                    && st.failing.len() >= 2;
                if !ready {
                    return None;
                }
                Some((name, st, registry.get(name)?))
            })?;
            st.health = WrapperHealth::Repairing;
            st.attempts += 1;
            st.not_before = Some(now + REPAIR_BACKOFF * 2u32.saturating_pow(st.attempts - 1));
            st.repairing = Some(wrapper.revision());
            Attempt {
                name: name.clone(),
                number: st.attempts,
                wrapper,
                good: st.good.clone(),
                failing: st.failing.iter().cloned().collect(),
            }
        };
        metrics.add(Counter::RepairsAttempted, 1);
        eprintln!(
            "rextract-serve: drift repair of wrapper {:?} starting (attempt {})",
            attempt.name, attempt.number
        );
        Some(attempt)
    }

    /// Count a finished attempt as succeeded or failed, and apply its
    /// verdict only while its wrapper still repairs the attempt's
    /// revision: healed, the wrapper starts over `Healthy` at its new
    /// revision; failed, it goes back to `Degraded` for a retry, or to
    /// `Quarantined` once [`MAX_REPAIR_ATTEMPTS`] have failed. After a
    /// manual install the verdict describes a replaced wrapper, and
    /// nothing changes.
    pub fn finish_repair(&self, attempt: &Attempt, healed: bool, metrics: &Metrics) {
        let ledger = if healed {
            Counter::RepairsSucceeded
        } else {
            Counter::RepairsFailed
        };
        metrics.add(ledger, 1);
        let (name, number) = (&attempt.name, attempt.number);
        let mut map = self.lock();
        let repairing = Some(attempt.wrapper.revision());
        let Some(st) = map.get_mut(name).filter(|st| st.repairing == repairing) else {
            drop(map);
            eprintln!("rextract-serve: repair of wrapper {name:?} (attempt {number}) superseded by a newer install");
            return;
        };
        if healed {
            st.reset();
            return;
        }
        st.repairing = None;
        let (health, next) = if st.attempts >= MAX_REPAIR_ATTEMPTS {
            let next = "quarantined, serving best-effort until reinstalled";
            (WrapperHealth::Quarantined, next)
        } else {
            (WrapperHealth::Degraded, "will retry with backoff")
        };
        st.health = health;
        drop(map);
        eprintln!("rextract-serve: repair of wrapper {name:?} failed (attempt {number}; {next})");
    }

    /// The `/metrics` `wrappers` rows: one per wrapper a page reached,
    /// sorted by name.
    pub fn render<'a>(&self, o: Obj<'a>) -> Obj<'a> {
        self.lock().iter().fold(o, |o, (name, st)| {
            let c = &st.counters;
            o.obj(name, |o| {
                o.num("pages_ok", c.pages_ok)
                    .num("pages_failed", c.pages_failed)
                    .num("results_empty", c.results_empty)
                    .num("tuples_emitted", c.tuples_emitted)
                    .str("health", st.health.name())
            })
        })
    }
}

/// Carry a known label from a good page onto a failing page by sequence
/// alignment: embed the LCS of the two tag sequences into both pages
/// leftmost; the LCS element sitting on the good page's target position
/// lands on the failing page's corresponding token. Returns the best
/// relabeling across all good pages (longest LCS wins), or `None` when
/// no good page aligns well enough ([`MIN_LCS_RATIO`]) or the target is
/// not on the common subsequence.
fn relabel(good: &[(Vec<Token>, usize)], cfg: &SeqConfig, failing: &[Token]) -> Option<TrainPage> {
    let entries_f = to_names(failing, cfg);
    let names_f: Vec<String> = entries_f.iter().map(|e| e.name.clone()).collect();
    let mut best: Option<(usize, usize)> = None; // (lcs len, failing target token)
    for (tokens_g, target_g) in good {
        let entries_g = to_names(tokens_g, cfg);
        let Some(pos_g) = entries_g.iter().position(|e| e.token_index == *target_g) else {
            continue;
        };
        let names_g: Vec<String> = entries_g.iter().map(|e| e.name.clone()).collect();
        let common = lcs(&names_g, &names_f);
        if (common.len() as f64) < MIN_LCS_RATIO * names_g.len() as f64 {
            continue;
        }
        let (Some(emb_g), Some(emb_f)) = (
            leftmost_embedding(&common, &names_g),
            leftmost_embedding(&common, &names_f),
        ) else {
            continue;
        };
        // The target must itself lie on the common subsequence, or the
        // alignment says nothing about where it went.
        let Some(k) = emb_g.iter().position(|&i| i == pos_g) else {
            continue;
        };
        let target_f = entries_f[emb_f[k]].token_index;
        if best.is_none_or(|(len, _)| common.len() > len) {
            best = Some((common.len(), target_f));
        }
    }
    best.map(|(_, target)| TrainPage {
        tokens: failing.to_vec(),
        target,
    })
}

/// One repair attempt: relabel → retrain → validate → hot-install.
/// Returns `true` only when a healed wrapper was installed. Runs on a
/// supervisor-owned thread; a panic anywhere in here (including the
/// armed `serve.repair.train` / `serve.repair.install` failpoints)
/// surfaces as a failed attempt while the old wrapper keeps serving —
/// the `Arc` swap in [`Registry::install_over`] is the last step, so
/// there is no partially-repaired state to observe.
pub fn run_repair(attempt: &Attempt, registry: &Registry) -> bool {
    // Covers the training stage: `panic` simulates a crash mid-repair,
    // `return` a training failure.
    fail_point!("serve.repair.train", |_action| false);
    let Attempt {
        name,
        wrapper,
        good,
        failing,
        ..
    } = attempt;
    // Hold back every other failing page: the candidate must generalize
    // to failing pages it never saw, not just memorize the evidence.
    let mut train_evidence = Vec::new();
    let mut holdout = Vec::new();
    for (i, page) in failing.iter().enumerate() {
        if i % 2 == 0 {
            train_evidence.push(page);
        } else {
            holdout.push(page);
        }
    }
    let cfg = wrapper.seq_config().clone();
    let mut samples: Vec<TrainPage> = good
        .iter()
        .map(|(tokens, target)| TrainPage {
            tokens: tokens.clone(),
            target: *target,
        })
        .collect();
    let mut relabeled = 0usize;
    for page in &train_evidence {
        if let Some(sample) = relabel(good, &cfg, page) {
            samples.push(sample);
            relabeled += 1;
        }
    }
    if relabeled == 0 {
        // No failing page aligned: retraining would reproduce the old
        // wrapper, so don't burn the attempt on a no-op install.
        return false;
    }
    let Ok(candidate) = Wrapper::train(
        &samples,
        WrapperConfig {
            seq: cfg,
            ..WrapperConfig::default()
        },
    ) else {
        return false;
    };
    // Validation gate 1: every self-labeled good page must still extract
    // to its known target (the repair must not regress working layouts).
    for (tokens, target) in good {
        if candidate.extract_target(tokens) != Ok(*target) {
            return false;
        }
    }
    // Validation gate 2: the held-back failing pages — which the
    // candidate never trained on — must now extract.
    for page in &holdout {
        if candidate.extract_target(page).is_err() {
            return false;
        }
    }
    // Covers the install stage: `panic` simulates a crash between
    // validation and the atomic swap, `return` an install refusal.
    fail_point!("serve.repair.install", |_action| false);
    match registry.install_over(name, &candidate.export(), wrapper.revision()) {
        Ok(Some(installed)) => {
            eprintln!(
                "rextract-serve: repaired wrapper {name:?} (revision {}, trained on {} good + {} relabeled pages, {} holdout validated)",
                installed.revision(),
                good.len(),
                relabeled,
                holdout.len(),
            );
            true
        }
        Ok(None) => {
            eprintln!(
                "rextract-serve: repair of {name:?} not installed: revision {} no longer serves",
                wrapper.revision()
            );
            false
        }
        Err(e) => {
            eprintln!("rextract-serve: repair install of {name:?} failed: {e}");
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rextract_html::tokenizer::tokenize;
    use rextract_wrapper::site::{PageStyle, SiteConfig, SiteGenerator};

    fn site(seed: u64) -> SiteGenerator {
        SiteGenerator::new(SiteConfig {
            seed,
            ..SiteConfig::default()
        })
    }

    /// A page under `name` with `outcome` and no tokens; a successful one
    /// served token 0.
    fn page(name: &str, outcome: PageOutcome) -> PageEvent<'_> {
        let targets: &[usize] = if outcome == PageOutcome::Ok {
            &[0]
        } else {
            &[]
        };
        PageEvent {
            wrapper: name,
            tokens: &[],
            outcome,
            targets,
        }
    }

    /// A registry serving a catalog wrapper under `name` at revision 1.
    fn registry_with(name: &str) -> Registry {
        let mut g = site(41);
        let train = [PageStyle::Plain, PageStyle::TableEmbedded]
            .map(|style| TrainPage::from(&g.page_with_style(style)));
        let w = Wrapper::train(&train, WrapperConfig::default()).unwrap();
        let registry = Registry::new(None);
        registry.install(name, &w.export()).unwrap();
        registry
    }

    /// Let `name`'s backoff run out without sleeping through it.
    fn expire_backoff(life: &Lifecycle, name: &str) {
        life.lock().get_mut(name).unwrap().not_before = Some(Instant::now());
    }

    #[test]
    fn drift_flags_on_empty_rate_over_full_window() {
        let m = Metrics::new();
        let life = Lifecycle::new(4, 0.5);
        // Window not yet full: no flag even at 100% empty.
        assert!(!life.observe(&page("w", PageOutcome::Empty), &m));
        assert!(!life.observe(&page("w", PageOutcome::Empty), &m));
        assert!(!life.observe(&page("w", PageOutcome::Ok), &m));
        assert_eq!(life.health("w"), WrapperHealth::Healthy);
        // Fourth page fills the window at 3/4 empty ≥ 0.5: flag.
        assert!(life.observe(&page("w", PageOutcome::Empty), &m));
        assert_eq!(life.health("w"), WrapperHealth::Degraded);
        assert_eq!(m.get(Counter::DriftFlagged), 1);
        // Already flagged: no double count.
        assert!(!life.observe(&page("w", PageOutcome::Empty), &m));
        assert_eq!(m.get(Counter::DriftFlagged), 1);
        assert_eq!(
            life.unhealthy(),
            vec![("w".to_string(), WrapperHealth::Degraded)]
        );
    }

    #[test]
    fn drift_flags_on_failure_rate_and_resets_on_reinstall() {
        let m = Metrics::new();
        let life = Lifecycle::new(2, 1.0);
        life.observe(&page("w", PageOutcome::Failed), &m);
        assert!(life.observe(&page("w", PageOutcome::Failed), &m));
        assert_eq!(life.health("w"), WrapperHealth::Degraded);
        life.reset("w");
        assert_eq!(life.health("w"), WrapperHealth::Healthy);
        assert!(life.unhealthy().is_empty());
        // The window was cleared too: one more failure is not enough.
        assert!(!life.observe(&page("w", PageOutcome::Failed), &m));
    }

    #[test]
    fn flagged_health_is_sticky_under_later_successes() {
        let m = Metrics::new();
        let life = Lifecycle::new(2, 1.0);
        life.observe(&page("w", PageOutcome::Empty), &m);
        life.observe(&page("w", PageOutcome::Empty), &m);
        assert_eq!(life.health("w"), WrapperHealth::Degraded);
        for _ in 0..8 {
            life.observe(&page("w", PageOutcome::Ok), &m);
        }
        assert_eq!(
            life.health("w"),
            WrapperHealth::Degraded,
            "recovery goes through repair, not through the window refilling"
        );
    }

    #[test]
    fn drift_disabled_with_zero_window() {
        let m = Metrics::new();
        let life = Lifecycle::new(0, 1.0);
        for _ in 0..100 {
            life.observe(&page("w", PageOutcome::Failed), &m);
        }
        assert_eq!(life.health("w"), WrapperHealth::Healthy);
        assert_eq!(m.get(Counter::DriftFlagged), 0);
    }

    #[test]
    fn health_transitions_and_repair_counters() {
        let m = Metrics::new();
        let registry = registry_with("w");
        let life = Lifecycle::new(1, 1.0);
        life.observe(&page("w", PageOutcome::Ok), &m);
        life.observe(&page("w", PageOutcome::Empty), &m);
        life.observe(&page("w", PageOutcome::Empty), &m);
        assert_eq!(life.health("w"), WrapperHealth::Degraded);
        let attempt = life.begin_repair(&registry, &m).unwrap();
        assert_eq!((attempt.name.as_str(), attempt.number), ("w", 1));
        assert_eq!(life.health("w"), WrapperHealth::Repairing);
        // While Repairing, new bad pages don't re-flag.
        assert!(!life.observe(&page("w", PageOutcome::Empty), &m));
        assert_eq!(m.get(Counter::DriftFlagged), 1);
        life.finish_repair(&attempt, false, &m);
        assert_eq!(life.health("w"), WrapperHealth::Degraded);
        assert_eq!(m.get(Counter::RepairsAttempted), 1);
        assert_eq!(m.get(Counter::RepairsFailed), 1);
    }

    #[test]
    fn hub_rings_are_bounded_and_resettable() {
        let m = Metrics::new();
        let life = Lifecycle::new(0, 1.0);
        let pages: Vec<Vec<Token>> = (0..GOOD_CAP + 5)
            .map(|i| tokenize(&format!("<p>{i}</p>")))
            .collect();
        for tokens in &pages {
            let ok = PageEvent {
                tokens,
                ..page("w", PageOutcome::Ok)
            };
            life.observe(&ok, &m);
        }
        let failing = tokenize("<ul></ul>");
        for _ in 0..FAILING_CAP + 5 {
            let failed = PageEvent {
                tokens: &failing,
                ..page("w", PageOutcome::Failed)
            };
            life.observe(&failed, &m);
        }
        {
            let map = life.lock();
            let st = &map["w"];
            let kept: Vec<&Vec<Token>> = st.good.iter().map(|(tokens, _)| tokens).collect();
            let first: Vec<&Vec<Token>> = pages[..GOOD_CAP].iter().collect();
            assert_eq!(kept, first, "the first successes stay");
            assert_eq!(st.failing.len(), FAILING_CAP);
        }
        life.reset("w");
        let map = life.lock();
        let st = &map["w"];
        assert!(st.good.is_empty() && st.failing.is_empty());
        let want = WrapperCounters {
            pages_ok: 13,
            pages_failed: 21,
            results_empty: 0,
            tuples_emitted: 13,
        };
        assert_eq!(st.counters, want, "reset keeps the tallies");
    }

    #[test]
    fn pages_over_the_evidence_bound_are_tallied_but_not_kept() {
        let m = Metrics::new();
        let life = Lifecycle::new(2, 1.0);
        let big: Vec<Token> = (0..=MAX_EVIDENCE_TOKENS)
            .map(|_| Token::start("a"))
            .collect();
        assert_eq!(big.len(), MAX_EVIDENCE_TOKENS + 1);
        for outcome in [PageOutcome::Ok, PageOutcome::Empty] {
            let ev = PageEvent {
                tokens: &big,
                ..page("w", outcome)
            };
            life.observe(&ev, &m);
        }
        let map = life.lock();
        let st = &map["w"];
        assert!(st.good.is_empty() && st.failing.is_empty());
        let want = WrapperCounters {
            pages_ok: 1,
            pages_failed: 0,
            results_empty: 1,
            tuples_emitted: 1,
        };
        assert_eq!(st.counters, want);
        assert_eq!(
            st.recent,
            [PageOutcome::Ok, PageOutcome::Empty],
            "both pages entered the drift window"
        );
    }

    #[test]
    fn ready_needs_evidence_attempts_and_backoff() {
        let m = Metrics::new();
        let registry = registry_with("w");
        let life = Lifecycle::new(1, 1.0);
        assert!(
            life.begin_repair(&registry, &m).is_none(),
            "no evidence yet"
        );
        life.observe(&page("w", PageOutcome::Ok), &m);
        life.observe(&page("w", PageOutcome::Empty), &m);
        assert_eq!(life.health("w"), WrapperHealth::Degraded);
        assert!(
            life.begin_repair(&registry, &m).is_none(),
            "one failing page is not enough"
        );
        life.observe(&page("w", PageOutcome::Empty), &m);
        let attempt = life.begin_repair(&registry, &m).unwrap();
        assert!(
            life.begin_repair(&registry, &m).is_none(),
            "already repairing"
        );
        life.finish_repair(&attempt, false, &m);
        assert_eq!(life.health("w"), WrapperHealth::Degraded);
        assert!(life.begin_repair(&registry, &m).is_none(), "backoff armed");
        expire_backoff(&life, "w");
        let attempt = life.begin_repair(&registry, &m).unwrap();
        assert_eq!(attempt.number, 2);

        // A manual install resets the wrapper: the running attempt's
        // verdict is dropped, and its attempts no longer count.
        life.reset("w");
        life.finish_repair(&attempt, false, &m);
        assert_eq!(life.health("w"), WrapperHealth::Healthy);
        assert_eq!(life.lock()["w"].attempts, 0);
    }

    #[test]
    fn attempts_exhausted_quarantine() {
        let m = Metrics::new();
        let registry = registry_with("w");
        let life = Lifecycle::new(1, 1.0);
        life.observe(&page("w", PageOutcome::Ok), &m);
        life.observe(&page("w", PageOutcome::Empty), &m);
        life.observe(&page("w", PageOutcome::Empty), &m);
        for number in 1..=MAX_REPAIR_ATTEMPTS {
            expire_backoff(&life, "w");
            let attempt = life.begin_repair(&registry, &m).unwrap();
            assert_eq!(attempt.number, number);
            life.finish_repair(&attempt, false, &m);
        }
        assert_eq!(life.health("w"), WrapperHealth::Quarantined);
        expire_backoff(&life, "w");
        assert!(
            life.begin_repair(&registry, &m).is_none(),
            "no sixth attempt"
        );
        assert_eq!(
            life.unhealthy(),
            vec![("w".to_string(), WrapperHealth::Quarantined)]
        );
    }

    #[test]
    fn relabel_carries_target_across_an_inserted_wrapper_tag() {
        let cfg = SeqConfig::tags_only();
        let good_tokens = tokenize("<html><table><tr><td><b>$9</b></td></tr></table></html>");
        // The target is the <b> start tag.
        let target = good_tokens
            .iter()
            .position(|t| t.tag_name() == Some("B"))
            .unwrap();
        // The drifted layout wraps the table in a new DIV — every
        // original tag survives, so the LCS covers the whole good page.
        let drifted =
            tokenize("<html><div><table><tr><td><b>$12</b></td></tr></table></div></html>");
        let sample = relabel(&[(good_tokens, target)], &cfg, &drifted).unwrap();
        assert_eq!(drifted[sample.target].tag_name(), Some("B"));
    }

    #[test]
    fn relabel_rejects_unrelated_pages() {
        let cfg = SeqConfig::tags_only();
        let good_tokens = tokenize("<table><tr><td><b>$9</b></td></tr></table>");
        let target = good_tokens
            .iter()
            .position(|t| t.tag_name() == Some("B"))
            .unwrap();
        let unrelated = tokenize("<ul><li>a</li><li>b</li></ul>");
        assert!(relabel(&[(good_tokens, target)], &cfg, &unrelated).is_none());
    }

    #[test]
    fn run_repair_heals_a_drifted_catalog() {
        use rextract_learn::perturb::Perturber;

        let mut g = site(41);
        let train = vec![
            TrainPage::from(&g.page_with_style(PageStyle::Plain)),
            TrainPage::from(&g.page_with_style(PageStyle::TableEmbedded)),
        ];
        let old = Wrapper::train(&train, WrapperConfig::default()).unwrap();

        let registry = Registry::new(None);
        let m = Metrics::new();
        // Flag on the first failing page.
        let life = Lifecycle::new(1, 1.0);
        let installed = registry.install("cat", &old.export()).unwrap();

        // Serve some good pages (self-labeling), then heavily perturbed
        // ones until a few fail — those are the drift evidence.
        // Good traffic covers both layouts the wrapper was trained on,
        // so the retrained candidate keeps covering them too.
        let mut scratch = rextract_wrapper::WrapperScratch::default();
        for i in 0..4 {
            let style = if i % 2 == 0 {
                PageStyle::Plain
            } else {
                PageStyle::TableEmbedded
            };
            let p = g.page_with_style(style);
            let got = installed.extract_page(&p.tokens, &mut scratch);
            assert!(got.is_ok());
            life.observe(&PageEvent::new("cat", &p.tokens, &got), &m);
        }
        let mut perturber = Perturber::new(7);
        let mut drifted = 0;
        let mut tries = 0;
        while drifted < 4 && tries < 200 {
            tries += 1;
            let p = g.page_with_style(PageStyle::Plain);
            let edited = perturber.perturb(&p.tokens, p.target, 6);
            let got = installed.extract_page(&edited.tokens, &mut scratch);
            if got.is_err() {
                life.observe(&PageEvent::new("cat", &edited.tokens, &got), &m);
                drifted += 1;
            }
        }
        assert!(drifted >= 2, "could not produce failing evidence");
        let attempt = life.begin_repair(&registry, &m).unwrap();
        assert!(run_repair(&attempt, &registry));
        life.finish_repair(&attempt, true, &m);
        assert_eq!(life.health("cat"), WrapperHealth::Healthy);
        let healed = registry.get("cat").unwrap();
        assert_eq!(healed.revision(), 2, "repair bumps the install revision");
        // The healed wrapper still serves the original layouts.
        for p in &train {
            assert_eq!(healed.extract_target(&p.tokens), Ok(p.target));
        }
        // The attempt repaired revision 1, which no longer serves: running
        // it again installs nothing.
        assert!(!run_repair(&attempt, &registry));
        assert_eq!(registry.get("cat").unwrap().revision(), 2);
    }
}
