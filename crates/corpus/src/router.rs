//! Signature-based wrapper routing.
//!
//! Every page gets a **site signature** — the hash of its
//! tag-abstraction skeleton, computed by
//! [`WrapperScratch::skeleton_signature`] (content-text invariant,
//! repeated-row invariant). The router keeps a signature → wrapper
//! binding table:
//!
//! * **Bound signature**: the page goes straight to the bound wrapper —
//!   one hash lookup, one extraction, no probing. This is the steady
//!   state for template-generated corpora, where thousands of pages
//!   share a handful of signatures.
//! * **Unbound signature**: the router probes *every* installed wrapper
//!   and binds the signature to the best structural fit among the
//!   successful extractions — the wrapper whose training alphabet
//!   covers the page with the fewest `#other` symbols, ties broken by
//!   name order. Success alone is too weak a signal: a maximized
//!   wrapper is deliberately permissive (that is the resilience story),
//!   so a busy table-styled search page can *satisfy* a listing
//!   wrapper's expression — but half its tags fall outside the listing
//!   alphabet, and coverage exposes that. The probe is total and
//!   deterministic regardless of which worker sees a signature first.
//! * **No probe succeeds**: the page is *unrouted* — never dropped, it
//!   lands in the sidecar and the counters (acceptance criterion).
//!
//! Signatures can also be **registered** up front from sample pages
//! ([`Router::register`]; CLI `--route-sample NAME=FILE`), pinning a
//! template family to a wrapper without spending a probe — and
//! overriding what probing would have picked.
//!
//! An explicit override (`--wrapper NAME` / `?wrapper=NAME`) skips
//! signatures entirely: every page is extracted with the named wrapper
//! and failures count as failures, not unrouted pages.

use rextract_automata::Alphabet;
use rextract_html::seq::SeqConfig;
use rextract_html::token::Token;
use rextract_wrapper::{TupleWrapper, Wrapper, WrapperError, WrapperScratch};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use rextract_faults::fail_point;

/// An installed wrapper of either kind. Single-target wrappers emit one
/// field per page; tuple wrappers emit arity-k records. Both participate
/// identically in signature routing and probing.
#[derive(Debug, Clone)]
pub enum AnyWrapper {
    /// A single-target [`Wrapper`].
    Single(Arc<Wrapper>),
    /// A multi-marker [`TupleWrapper`] (arity-k records).
    Tuple(Arc<TupleWrapper>),
}

impl AnyWrapper {
    /// The training alphabet (both kinds include `#other`).
    pub fn alphabet(&self) -> &Alphabet {
        match self {
            AnyWrapper::Single(w) => w.alphabet(),
            AnyWrapper::Tuple(w) => w.alphabet(),
        }
    }

    /// Artifact format version for provenance lines: the build's
    /// [`FORMAT_VERSION`](rextract_wrapper::persist::FORMAT_VERSION) for
    /// both kinds, since the importer accepts no other and tuple wrappers
    /// use the same text format.
    pub fn format_version(&self) -> u32 {
        rextract_wrapper::persist::FORMAT_VERSION
    }

    /// Wrapper revision for provenance lines (tuple wrappers do not
    /// track revisions yet and always report `1`).
    pub fn revision(&self) -> u32 {
        match self {
            AnyWrapper::Single(w) => w.revision(),
            AnyWrapper::Tuple(_) => 1,
        }
    }

    /// The page call of either kind ([`Wrapper::extract_page`],
    /// [`TupleWrapper::extract_page`]): token indices in page order, left
    /// in `scratch`.
    pub fn extract_page<'s>(
        &self,
        tokens: &[Token],
        scratch: &'s mut WrapperScratch,
    ) -> Result<&'s [usize], WrapperError> {
        match self {
            AnyWrapper::Single(w) => w.extract_page(tokens, scratch),
            AnyWrapper::Tuple(w) => w.extract_page(tokens, scratch),
        }
    }
}

/// Where a page ended up after routing + extraction: [`Router::route`]'s
/// result as an owned value, split by wrapper kind (see
/// [`Router::route_and_extract`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteOutcome {
    /// Routed and extracted: `wrapper` (index into the router's sorted
    /// wrapper list) found the target at token index `target`. Emitted
    /// for single-target wrappers.
    Extracted { wrapper: usize, target: usize },
    /// Routed to a tuple wrapper and extracted an arity-k record.
    ExtractedTuple { wrapper: usize, targets: Vec<usize> },
    /// Routed — by binding or override — but extraction failed.
    /// `empty` distinguishes a clean no-match (the wrapper ran but no
    /// position satisfied it — the classic drift symptom) from a hard
    /// failure such as an ambiguous match.
    Failed {
        wrapper: usize,
        reason: String,
        empty: bool,
    },
    /// No binding and no probe succeeded (or the `pipeline.route`
    /// failpoint forced a miss).
    Unrouted,
}

/// Per-worker scratch: one [`WrapperScratch`] per wrapper (each wrapper
/// has its own alphabet, and the tag memo inside a scratch is only valid
/// for one alphabet at a time) plus one for signature hashing. Keeping
/// them separate is what makes the steady-state page loop allocation-free
/// even on a corpus that interleaves wrappers.
pub struct WorkerScratch {
    sig: WrapperScratch,
    per_wrapper: Vec<WrapperScratch>,
}

impl WorkerScratch {
    /// Scratch sized for a router over `wrapper_count` wrappers.
    pub fn new(wrapper_count: usize) -> WorkerScratch {
        WorkerScratch {
            sig: WrapperScratch::new(),
            per_wrapper: (0..wrapper_count).map(|_| WrapperScratch::new()).collect(),
        }
    }
}

/// The abstraction level signatures are computed under: text runs are
/// part of the skeleton (as an anonymous marker — never their content),
/// end tags too. Fixed router-wide so a page has *one* signature no
/// matter which wrappers are installed.
pub const SIGNATURE_CFG: SeqConfig = SeqConfig {
    include_text: true,
    include_end_tags: true,
    refine_attrs: Vec::new(),
};

/// Routing errors at construction time.
#[derive(Debug, PartialEq, Eq)]
pub enum RouterError {
    /// `--wrapper NAME` named a wrapper that is not installed.
    UnknownOverride(String),
    /// No wrappers installed at all.
    Empty,
    /// A bindings dump ([`Router::import_bindings`]) was malformed.
    BadBindings(String),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::UnknownOverride(name) => write!(f, "unknown wrapper {name:?}"),
            RouterError::Empty => write!(f, "no wrappers installed"),
            RouterError::BadBindings(why) => write!(f, "bad bindings dump: {why}"),
        }
    }
}

impl std::error::Error for RouterError {}

/// Header line of the bindings dump format (`--signatures FILE`).
pub const BINDINGS_HEADER: &str = "rextract-signatures v1";

/// The signature router. Shared (behind `&self`) by every worker.
#[derive(Debug)]
pub struct Router {
    /// Installed wrappers, sorted by name — the probe order.
    wrappers: Vec<(String, AnyWrapper)>,
    /// Forced wrapper index (`--wrapper` override), if any.
    override_idx: Option<usize>,
    /// signature → wrapper index, grown by probe-and-bind.
    bindings: RwLock<HashMap<u64, usize>>,
}

impl Router {
    /// Build a router over single-target `wrappers` (sorted by name here;
    /// input order does not matter). `override_name` forces every page to
    /// one wrapper.
    pub fn new(
        wrappers: Vec<(String, Arc<Wrapper>)>,
        override_name: Option<&str>,
    ) -> Result<Router, RouterError> {
        Router::from_entries(
            wrappers
                .into_iter()
                .map(|(n, w)| (n, AnyWrapper::Single(w)))
                .collect(),
            override_name,
        )
    }

    /// Build a router over a mixed wrapper set — single-target and tuple
    /// wrappers share one name space and one binding table.
    pub fn from_entries(
        mut wrappers: Vec<(String, AnyWrapper)>,
        override_name: Option<&str>,
    ) -> Result<Router, RouterError> {
        if wrappers.is_empty() {
            return Err(RouterError::Empty);
        }
        wrappers.sort_by(|a, b| a.0.cmp(&b.0));
        let override_idx = match override_name {
            Some(name) => Some(
                wrappers
                    .iter()
                    .position(|(n, _)| n == name)
                    .ok_or_else(|| RouterError::UnknownOverride(name.to_string()))?,
            ),
            None => None,
        };
        Ok(Router {
            wrappers,
            override_idx,
            bindings: RwLock::new(HashMap::new()),
        })
    }

    /// The sorted wrapper list (the index space of [`Router::route`]).
    pub fn wrappers(&self) -> &[(String, AnyWrapper)] {
        &self.wrappers
    }

    /// Signatures currently bound (observability / tests).
    pub fn binding_count(&self) -> usize {
        self.bindings
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Register a sample page's signature for `wrapper`: pages hashing
    /// to the same tag skeleton route there directly, bypassing the
    /// probe (and overriding any probe-and-bind result for that
    /// signature). Returns the bound signature.
    pub fn register(&self, wrapper: &str, tokens: &[Token]) -> Result<u64, RouterError> {
        let idx = self
            .wrappers
            .iter()
            .position(|(n, _)| n == wrapper)
            .ok_or_else(|| RouterError::UnknownOverride(wrapper.to_string()))?;
        let mut scratch = WrapperScratch::new();
        let sig = scratch.skeleton_signature(&SIGNATURE_CFG, tokens);
        self.bindings
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(sig, idx);
        Ok(sig)
    }

    /// Route a tokenized page and extract its targets: the index of the
    /// wrapper that took the page and its page call's result, or `None`
    /// when the page is unrouted (no binding and no probe succeeded, or
    /// the `pipeline.route` failpoint forced a miss). This is the worker
    /// hot loop's core: at steady state — warmed scratch, signature
    /// already bound — it performs zero heap allocations, failed pages
    /// included (proved by the counting-allocator test in
    /// `tests/pipeline_alloc.rs`). Probing and binding only happen the
    /// first time a signature is seen.
    pub fn route<'s>(
        &self,
        tokens: &[Token],
        scratch: &'s mut WorkerScratch,
    ) -> Option<(usize, Result<&'s [usize], WrapperError>)> {
        fail_point!("pipeline.route", |_action| None);
        let i = match self.override_idx {
            Some(i) => i,
            None => {
                let sig = scratch.sig.skeleton_signature(&SIGNATURE_CFG, tokens);
                let bound = self
                    .bindings
                    .read()
                    .unwrap_or_else(|e| e.into_inner())
                    .get(&sig)
                    .copied();
                match bound {
                    Some(i) => i,
                    None => {
                        let i = self.probe(tokens, scratch)?;
                        self.bindings
                            .write()
                            .unwrap_or_else(|e| e.into_inner())
                            .insert(sig, i);
                        // The winner's probe already extracted the page.
                        return Some((i, Ok(scratch.per_wrapper[i].targets())));
                    }
                }
            }
        };
        let sc = &mut scratch.per_wrapper[i];
        Some((i, self.wrappers[i].1.extract_page(tokens, sc)))
    }

    /// [`Router::route`] as an owned [`RouteOutcome`]: the tuple copied
    /// out of the scratch, a failure's message formatted.
    pub fn route_and_extract(&self, tokens: &[Token], scratch: &mut WorkerScratch) -> RouteOutcome {
        let Some((wrapper, result)) = self.route(tokens, scratch) else {
            return RouteOutcome::Unrouted;
        };
        match (result, &self.wrappers[wrapper].1) {
            (Ok(targets), AnyWrapper::Single(_)) => RouteOutcome::Extracted {
                wrapper,
                target: targets[0],
            },
            (Ok(targets), AnyWrapper::Tuple(_)) => RouteOutcome::ExtractedTuple {
                wrapper,
                targets: targets.to_vec(),
            },
            (Err(e), _) => RouteOutcome::Failed {
                wrapper,
                reason: e.to_string(),
                empty: e.is_no_match(),
            },
        }
    }

    /// Probe every wrapper on an unbound page and pick, among the
    /// successes, the best alphabet coverage (strict `>` keeps the lowest
    /// name on ties). Total and order-independent, so two workers racing
    /// the same fresh signature bind the same winner. The probe may
    /// allocate (it runs once per fresh signature, not per page).
    fn probe(&self, tokens: &[Token], scratch: &mut WorkerScratch) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, (_, w)) in self.wrappers.iter().enumerate() {
            let sc = &mut scratch.per_wrapper[i];
            if w.extract_page(tokens, sc).is_ok() {
                let cov = Self::coverage_of(w, sc);
                if best.map_or(true, |(_, b)| cov > b) {
                    best = Some((i, cov));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Fraction of the just-abstracted page (left in `sc` by the
    /// extraction) that `w`'s training alphabet knows — i.e. symbols
    /// that are not `#other`. The probe's structural-fit score.
    fn coverage_of(w: &AnyWrapper, sc: &WrapperScratch) -> f64 {
        let other = w.alphabet().try_sym(rextract_wrapper::wrapper::OTHER);
        let word = sc.word();
        if word.is_empty() {
            return 0.0;
        }
        let known = word.iter().filter(|&&s| Some(s) != other).count();
        known as f64 / word.len() as f64
    }

    /// Serialize the binding table as a line-oriented dump:
    /// a header line, then `<signature-hex> <wrapper-name>` per binding,
    /// sorted by signature. Names — not indices — so the dump survives a
    /// changed wrapper set.
    pub fn export_bindings(&self) -> String {
        let map = self.bindings.read().unwrap_or_else(|e| e.into_inner());
        let mut rows: Vec<(u64, &str)> = map
            .iter()
            .map(|(&sig, &i)| (sig, self.wrappers[i].0.as_str()))
            .collect();
        rows.sort_unstable();
        let mut out = String::with_capacity(24 + rows.len() * 32);
        out.push_str(BINDINGS_HEADER);
        out.push('\n');
        for (sig, name) in rows {
            out.push_str(&format!("{sig:016x} {name}\n"));
        }
        out
    }

    /// Load a binding dump produced by [`Router::export_bindings`].
    /// Bindings naming wrappers that are no longer installed are skipped
    /// (stale entries from a previous run — the probe will re-bind);
    /// anything malformed is an error. Returns how many bindings loaded.
    pub fn import_bindings(&self, text: &str) -> Result<usize, RouterError> {
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h.trim_end() == BINDINGS_HEADER => {}
            other => {
                return Err(RouterError::BadBindings(format!(
                    "expected header {BINDINGS_HEADER:?}, got {:?}",
                    other.unwrap_or_default()
                )))
            }
        }
        let mut loaded = 0;
        let mut map = self.bindings.write().unwrap_or_else(|e| e.into_inner());
        for (n, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (sig_hex, name) = line.split_once(' ').ok_or_else(|| {
                RouterError::BadBindings(format!("line {}: missing separator", n + 2))
            })?;
            let sig = u64::from_str_radix(sig_hex, 16).map_err(|_| {
                RouterError::BadBindings(format!("line {}: bad signature {sig_hex:?}", n + 2))
            })?;
            if let Some(idx) = self.wrappers.iter().position(|(w, _)| w == name) {
                map.insert(sig, idx);
                loaded += 1;
            }
        }
        Ok(loaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rextract_wrapper::{SiteConfig, SiteGenerator, TrainPage, WrapperConfig};

    fn trained(pages: &[TrainPage]) -> Arc<Wrapper> {
        Arc::new(Wrapper::train(pages, WrapperConfig::default()).unwrap())
    }

    fn two_wrapper_router() -> (Router, SiteGenerator) {
        use rextract_wrapper::PageStyle;
        let mut g = SiteGenerator::new(SiteConfig {
            seed: 41,
            ..SiteConfig::default()
        });
        // One sample per style: the search wrapper must generalize
        // across the whole family, or un-extractable variants inflate
        // the unrouted count below.
        let search: Vec<TrainPage> = [
            PageStyle::Plain,
            PageStyle::TableEmbedded,
            PageStyle::Busy,
            PageStyle::Busy,
        ]
        .iter()
        .map(|&s| TrainPage::from(&g.page_with_style(s)))
        .collect();
        let listing: Vec<TrainPage> = (0..6).map(|_| TrainPage::from(&g.listing_page())).collect();
        let router = Router::new(
            vec![
                ("search".to_string(), trained(&search)),
                ("listing".to_string(), trained(&listing)),
            ],
            None,
        )
        .unwrap();
        (router, g)
    }

    #[test]
    fn probe_binds_and_routes_both_families() {
        let (router, mut g) = two_wrapper_router();
        // Wrapper indices follow sorted-name order.
        assert_eq!(router.wrappers()[0].0, "listing");
        let mut scratch = WorkerScratch::new(2);
        let (mut ok, mut unrouted) = (0, 0);
        let trials = 40;
        for i in 0..trials {
            let (p, family) = if i % 2 == 0 {
                (g.listing_page(), "listing")
            } else {
                (g.page(), "search")
            };
            match router.route(&p.tokens, &mut scratch) {
                Some((wrapper, Ok(targets))) => {
                    // An emitted tuple must never be a misroute or a
                    // wrong target — failures are tolerated, lies not.
                    assert_eq!(router.wrappers()[wrapper].0, family);
                    assert_eq!(targets, [p.target]);
                    ok += 1;
                }
                Some((_, Err(_))) | None => unrouted += 1,
            }
        }
        assert!(
            ok >= trials * 9 / 10,
            "routed only {ok}/{trials} ({unrouted} unrouted/failed)"
        );
        assert!(router.binding_count() >= 2);
    }

    #[test]
    fn registered_signature_pins_a_template_family() {
        let (router, mut g) = two_wrapper_router();
        let sample = g.listing_page();
        let sig = router.register("listing", &sample.tokens).unwrap();
        // Same-signature pages go straight to the registered wrapper.
        let mut scratch = WorkerScratch::new(2);
        let mut probe_scratch = WrapperScratch::new();
        let mut hits = 0;
        for _ in 0..20 {
            let p = g.listing_page();
            if probe_scratch.skeleton_signature(&SIGNATURE_CFG, &p.tokens) != sig {
                continue; // different variant (e.g. header row toggled)
            }
            hits += 1;
            match router.route(&p.tokens, &mut scratch) {
                Some((wrapper, Ok(_))) => assert_eq!(router.wrappers()[wrapper].0, "listing"),
                other => panic!("registered page not routed: {other:?}"),
            }
        }
        assert!(hits > 0, "no generated page shared the sample signature");
        assert!(
            router.register("nope", &sample.tokens).is_err(),
            "registering to an unknown wrapper must fail"
        );
    }

    #[test]
    fn unroutable_page_reports_unrouted() {
        let (router, _) = two_wrapper_router();
        let tokens = rextract_html::tokenize("<blink>nothing to see</blink>");
        let mut scratch = WorkerScratch::new(2);
        assert_eq!(router.route(&tokens, &mut scratch), None);
        assert_eq!(
            router.route_and_extract(&tokens, &mut scratch),
            RouteOutcome::Unrouted
        );
    }

    #[test]
    fn override_skips_routing_and_surfaces_failures() {
        let (router_base, mut g) = two_wrapper_router();
        let wrappers = router_base.wrappers().to_vec();
        let router = Router::from_entries(wrappers, Some("listing")).unwrap();
        let mut scratch = WorkerScratch::new(2);
        // A plain search page (no tables, so no TD for the listing
        // wrapper to find) forced through the listing wrapper must fail
        // loudly, not fall back to routing.
        let p = g.page_with_style(rextract_wrapper::PageStyle::Plain);
        let err = match router.route(&p.tokens, &mut scratch) {
            Some((wrapper, Err(e))) => {
                assert_eq!(router.wrappers()[wrapper].0, "listing");
                e
            }
            other => panic!("expected a failed page call, got {other:?}"),
        };
        // The adapter carries the same failure, formatted.
        assert_eq!(
            router.route_and_extract(&p.tokens, &mut scratch),
            RouteOutcome::Failed {
                wrapper: 0,
                reason: err.to_string(),
                empty: err.is_no_match(),
            }
        );
        let p = g.listing_page();
        assert!(matches!(
            router.route(&p.tokens, &mut scratch),
            Some((0, Ok(_)))
        ));
    }

    #[test]
    fn unknown_override_is_rejected() {
        let (router_base, _) = two_wrapper_router();
        let err = Router::from_entries(router_base.wrappers().to_vec(), Some("nope")).unwrap_err();
        assert_eq!(err, RouterError::UnknownOverride("nope".to_string()));
        assert!(matches!(
            Router::new(Vec::new(), None),
            Err(RouterError::Empty)
        ));
    }

    /// Train an arity-2 tuple wrapper (FORM + INPUT) on search pages.
    fn tuple_trained(g: &mut SiteGenerator) -> Arc<TupleWrapper> {
        use rextract_wrapper::{MultiTrainPage, PageStyle};
        let pages: Vec<MultiTrainPage> = [PageStyle::Plain, PageStyle::TableEmbedded]
            .iter()
            .map(|&s| {
                let p = g.page_with_style(s);
                let form = p
                    .tokens
                    .iter()
                    .position(|t| t.tag_name() == Some("FORM"))
                    .unwrap();
                MultiTrainPage {
                    tokens: p.tokens.clone(),
                    targets: vec![form, p.target],
                }
            })
            .collect();
        Arc::new(TupleWrapper::train(&pages, WrapperConfig::default()).unwrap())
    }

    #[test]
    fn tuple_wrapper_routes_and_emits_arity_2_records() {
        use rextract_wrapper::PageStyle;
        let mut g = SiteGenerator::new(SiteConfig {
            seed: 77,
            ..SiteConfig::default()
        });
        let listing: Vec<TrainPage> = (0..6).map(|_| TrainPage::from(&g.listing_page())).collect();
        let tuple = tuple_trained(&mut g);
        let router = Router::from_entries(
            vec![
                ("listing".to_string(), AnyWrapper::Single(trained(&listing))),
                ("record".to_string(), AnyWrapper::Tuple(tuple)),
            ],
            None,
        )
        .unwrap();
        let mut scratch = WorkerScratch::new(2);
        let mut ok = 0;
        for _ in 0..10 {
            let p = g.page_with_style(PageStyle::Plain);
            let form = p
                .tokens
                .iter()
                .position(|t| t.tag_name() == Some("FORM"))
                .unwrap();
            match router.route_and_extract(&p.tokens, &mut scratch) {
                RouteOutcome::ExtractedTuple { wrapper, targets } => {
                    assert_eq!(router.wrappers()[wrapper].0, "record");
                    assert_eq!(targets, vec![form, p.target]);
                    ok += 1;
                }
                other => panic!("search page not tuple-routed: {other:?}"),
            }
        }
        assert_eq!(ok, 10);
        // Listing pages still go to the single-target wrapper.
        let p = g.listing_page();
        match router.route_and_extract(&p.tokens, &mut scratch) {
            RouteOutcome::Extracted { wrapper, target } => {
                assert_eq!(router.wrappers()[wrapper].0, "listing");
                assert_eq!(target, p.target);
            }
            other => panic!("listing page misrouted: {other:?}"),
        }
    }

    #[test]
    fn bindings_round_trip_by_name() {
        let (router, mut g) = two_wrapper_router();
        let mut scratch = WorkerScratch::new(2);
        for _ in 0..6 {
            let p = g.listing_page();
            router.route(&p.tokens, &mut scratch);
            let p = g.page();
            router.route(&p.tokens, &mut scratch);
        }
        let dump = router.export_bindings();
        assert!(dump.starts_with(BINDINGS_HEADER));
        let bound = router.binding_count();
        assert!(bound >= 2);

        // A fresh router over the same wrappers starts cold and warms
        // entirely from the dump.
        let fresh = Router::from_entries(router.wrappers().to_vec(), None).unwrap();
        assert_eq!(fresh.binding_count(), 0);
        assert_eq!(fresh.import_bindings(&dump).unwrap(), bound);
        assert_eq!(fresh.binding_count(), bound);
        assert_eq!(fresh.export_bindings(), dump);

        // Dumps are name-keyed: a router missing one wrapper skips its
        // stale bindings instead of mis-binding by index.
        let only_listing = Router::from_entries(
            router
                .wrappers()
                .iter()
                .filter(|(n, _)| n == "listing")
                .cloned()
                .collect(),
            None,
        )
        .unwrap();
        let loaded = only_listing.import_bindings(&dump).unwrap();
        assert!(loaded < bound);
        assert_eq!(only_listing.binding_count(), loaded);

        // Malformed dumps are loud errors, not silent cold starts.
        assert!(matches!(
            router.import_bindings("not a dump\n"),
            Err(RouterError::BadBindings(_))
        ));
        let garbled = format!("{BINDINGS_HEADER}\nzzzz listing\n");
        assert!(matches!(
            router.import_bindings(&garbled),
            Err(RouterError::BadBindings(_))
        ));
    }
}
