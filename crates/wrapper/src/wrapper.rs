//! The trainable, resilient wrapper.
//!
//! [`Wrapper::train`] runs the full pipeline of Section 7:
//! tokenize/abstract the sample pages, merge them into a pivot-form
//! extraction expression (Section 7's heuristic), optionally maximize it
//! (Algorithm 6.2 through the pivot framework), and compile a linear-time
//! extractor. [`Wrapper::extract_target`] then locates the marked object
//! on unseen page variants.
//!
//! Tags never seen in training map to a reserved `#other` symbol, so the
//! wrapper's alphabet is closed under arbitrary new content — essential
//! for resilience (a maximized `(Σ−p)*`-style context absorbs `#other`
//! tokens for free).

use crate::site::Page;
use rextract_automata::{Alphabet, Symbol};
use rextract_extraction::extract::{ExtractFailure, ExtractScratch, Extractor};
use rextract_extraction::{ExtractionError, ExtractionExpr, Span, SpanRelation};
use rextract_html::seq::{SeqConfig, Vocabulary};
use rextract_html::token::Token;
use rextract_learn::disambiguate::learn_unambiguous;
use rextract_learn::{LearnError, MarkedSeq};
use std::fmt;

/// Reserved symbol name for tags unseen during training.
pub use rextract_extraction::OTHER;

/// A training page: tokens plus the token index of the target.
#[derive(Debug, Clone)]
pub struct TrainPage {
    /// Token stream of the page.
    pub tokens: Vec<Token>,
    /// Token index of the marked target.
    pub target: usize,
}

impl From<&Page> for TrainPage {
    fn from(p: &Page) -> TrainPage {
        TrainPage {
            tokens: p.tokens.clone(),
            target: p.target,
        }
    }
}

/// Wrapper training configuration.
#[derive(Debug, Clone)]
pub struct WrapperConfig {
    /// Abstraction level for the tag-sequence representation.
    pub seq: SeqConfig,
    /// Run pivot maximization after learning (the paper's resilience
    /// step). With `false` the wrapper uses the raw merged expression —
    /// the baseline the resilience experiments compare against.
    pub maximize: bool,
}

impl Default for WrapperConfig {
    fn default() -> Self {
        WrapperConfig {
            seq: SeqConfig::tags_only(),
            maximize: true,
        }
    }
}

/// Errors from training or extraction.
#[derive(Debug, PartialEq, Eq)]
pub enum WrapperError {
    /// The target token of a sample is not representable in the chosen
    /// abstraction (e.g. a text node with `include_text = false`).
    TargetNotRepresentable { sample: usize },
    /// Learning failed.
    Learn(LearnError),
    /// Maximization failed and fallback was disabled.
    Maximize(ExtractionError),
    /// Extraction failed on a page.
    Extract(ExtractFailure),
}

impl fmt::Display for WrapperError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WrapperError::TargetNotRepresentable { sample } => {
                write!(
                    f,
                    "sample {sample}: target not representable in abstraction"
                )
            }
            WrapperError::Learn(e) => write!(f, "learning failed: {e}"),
            WrapperError::Maximize(e) => write!(f, "maximization failed: {e}"),
            WrapperError::Extract(e) => write!(f, "extraction failed: {e:?}"),
        }
    }
}

impl std::error::Error for WrapperError {}

impl WrapperError {
    /// True when extraction ran to completion but matched no position —
    /// the *empty result* outcome. Consumers (the daemon's drift
    /// detector, the corpus pipeline) count it separately from hard
    /// failures like ambiguous matches: an empty result is the classic
    /// symptom of a drifted page that the wrapper's language no longer
    /// covers.
    pub fn is_no_match(&self) -> bool {
        matches!(self, WrapperError::Extract(ExtractFailure::NoMatch))
    }
}

/// One page's extraction outcome — what the daemon's per-wrapper
/// counters and drift windows tally, whichever surface served the page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageOutcome {
    /// Target located.
    Ok,
    /// The wrapper ran but matched nothing — the paper's primary drift
    /// symptom.
    Empty,
    /// Extraction failed hard (ambiguous match, bad page).
    Failed,
}

impl PageOutcome {
    /// Classify one page's extraction result; the one place a
    /// [`WrapperError`] becomes an outcome.
    pub fn of<T>(result: &Result<T, WrapperError>) -> PageOutcome {
        match result {
            Ok(_) => PageOutcome::Ok,
            Err(e) if e.is_no_match() => PageOutcome::Empty,
            Err(_) => PageOutcome::Failed,
        }
    }
}

/// A trained wrapper.
pub struct Wrapper {
    alphabet: Alphabet,
    expr: ExtractionExpr,
    extractor: Extractor,
    seq_cfg: SeqConfig,
    maximized: bool,
    revision: u32,
}

impl Wrapper {
    /// Train on sample pages. See the [module docs](self) for the pipeline.
    ///
    /// When `cfg.maximize` is set and pivot maximization fails on the
    /// learned expression (its preconditions are heuristic), training
    /// falls back to the unmaximized expression rather than erroring —
    /// a wrapper that works on the training layouts beats no wrapper.
    pub fn train(pages: &[TrainPage], cfg: WrapperConfig) -> Result<Wrapper, WrapperError> {
        // Abstract every page, collecting the vocabulary.
        let mut vocab = Vocabulary::new();
        vocab.observe_name(OTHER);
        let mut samples = Vec::with_capacity(pages.len());
        for (i, page) in pages.iter().enumerate() {
            let seq = MarkedSeq::from_tokens(&page.tokens, page.target, &cfg.seq)
                .ok_or(WrapperError::TargetNotRepresentable { sample: i })?;
            samples.push(seq);
        }
        for s in &samples {
            for n in &s.names {
                vocab.observe_name(n);
            }
        }
        let alphabet = vocab.alphabet();

        // Learn an unambiguous pivot expression.
        let learned = learn_unambiguous(&alphabet, &samples).map_err(WrapperError::Learn)?;

        // Maximize (with graceful fallback).
        let (expr, maximized) = if cfg.maximize {
            match learned.pivot.as_ref().map(|p| p.maximize()) {
                Some(Ok(maximal)) => (maximal, true),
                _ => (learned.expr, false),
            }
        } else {
            (learned.expr, false)
        };

        let extractor = Extractor::compile(&expr);
        Ok(Wrapper {
            alphabet,
            expr,
            extractor,
            seq_cfg: cfg.seq,
            maximized,
            revision: 1,
        })
    }

    /// Assemble a wrapper from pre-built parts (the import path of
    /// [`crate::persist`]; training is bypassed entirely).
    pub(crate) fn from_parts(
        alphabet: Alphabet,
        expr: ExtractionExpr,
        extractor: Extractor,
        seq_cfg: SeqConfig,
        maximized: bool,
    ) -> Wrapper {
        Wrapper {
            alphabet,
            expr,
            extractor,
            seq_cfg,
            maximized,
            revision: 1,
        }
    }

    /// The abstraction configuration this wrapper applies to pages.
    pub fn seq_config(&self) -> &SeqConfig {
        &self.seq_cfg
    }

    /// The learned extraction expression.
    pub fn expr(&self) -> &ExtractionExpr {
        &self.expr
    }

    /// The training alphabet (includes `#other`).
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Whether the wrapper holds a maximized expression.
    pub fn is_maximized(&self) -> bool {
        self.maximized
    }

    /// The runtime install revision of this wrapper instance. Starts at 1
    /// for a freshly trained or imported wrapper; a serving registry bumps
    /// it on every hot install of the same name (including online repairs)
    /// so provenance records can tell which generation of a wrapper
    /// produced a tuple. Not persisted in the artifact — it is a property
    /// of the running process, not of the on-disk format.
    pub fn revision(&self) -> u32 {
        self.revision
    }

    /// Set the install revision (see [`Wrapper::revision`]). Takes
    /// `&mut self`, so it can only be applied before the wrapper is
    /// shared (e.g. by a registry just before wrapping it in an `Arc`).
    pub fn set_revision(&mut self, revision: u32) {
        self.revision = revision;
    }

    /// Number of symbol classes the compiled extractor scans with —
    /// surfaced by `--stats` and `/metrics`.
    pub fn num_classes(&self) -> usize {
        self.extractor.num_classes()
    }

    /// The page call: locate the target on a page, reusing `scratch` for
    /// the abstracted word, back-map, tag memo, and the extractor's scan
    /// buffers; returns the target's **token index**, a one-element slice
    /// of `scratch`. This is the serve hot path: the tag memo persists
    /// across pages of the same wrapper (validated by [`Alphabet::uid`]),
    /// so at steady state — e.g. a batch of documents for one wrapper —
    /// extraction performs **zero** heap allocations; only a tag name
    /// never seen under this alphabet adds a memo entry.
    pub fn extract_page<'s>(
        &self,
        tokens: &[Token],
        scratch: &'s mut WrapperScratch,
    ) -> Result<&'s [usize], WrapperError> {
        let scan = |word: &[_], extract: &mut _, out: &mut Vec<usize>| {
            self.extractor
                .extract_with(word, extract)
                .map(|hit| out.push(hit.position))
        };
        scratch.page_call(&self.alphabet, &self.seq_cfg, tokens, scan)
    }

    /// Locate the target on a page, reusing `scratch`; returns its
    /// **token index** — [`Wrapper::extract_page`]'s one target.
    pub fn extract_target_with(
        &self,
        tokens: &[Token],
        scratch: &mut WrapperScratch,
    ) -> Result<usize, WrapperError> {
        self.extract_page(tokens, scratch).map(|t| t[0])
    }

    /// Locate the target on a page; returns its **token index**.
    /// Allocating convenience wrapper over
    /// [`Wrapper::extract_target_with`].
    pub fn extract_target(&self, tokens: &[Token]) -> Result<usize, WrapperError> {
        self.extract_target_with(tokens, &mut WrapperScratch::new())
    }

    /// All candidate target positions on a page as a unary
    /// [`SpanRelation`] binding `var`, in **token-index** space (unit
    /// spans mapped through the abstraction's back-map).
    ///
    /// This is the wrapper's entry into the span-relational algebra:
    /// unlike [`Wrapper::extract_page`] it does not demand
    /// uniqueness — zero candidates yield an empty relation and several
    /// candidates several rows — because a query join is itself the
    /// disambiguating step (Freydenberger–Kimelfeld–Peterfreund's
    /// reading, where each expression is a span extractor whose results
    /// compose relationally).
    pub fn span_relation_with(
        &self,
        var: impl Into<String>,
        tokens: &[Token],
        scratch: &mut WrapperScratch,
    ) -> SpanRelation {
        scratch.candidates(var, &self.alphabet, &self.seq_cfg, &self.extractor, tokens)
    }
}

/// Memo entries beyond this count fall back to direct alphabet lookups;
/// real sites have far fewer distinct tag names.
const MEMO_CAP: usize = 64;

/// Reusable buffers for the wrapper hot path: the abstracted symbol word,
/// its token back-map, a per-alphabet tag-name memo, and the extraction
/// engine's [`ExtractScratch`]. Keep one per worker thread.
#[derive(Debug, Default)]
pub struct WrapperScratch {
    /// The abstracted page as wrapper symbols.
    word: Vec<Symbol>,
    /// `back[i]` = source token index of `word[i]`.
    back: Vec<usize>,
    /// Tag-name memo: `(is_end_tag, tag_name) → symbol`, so repeated tags
    /// resolve with a short linear probe instead of a hash lookup (and,
    /// for end tags, without re-building the `/NAME` string). Valid for
    /// the alphabet identified by `memo_uid` and kept across pages — the
    /// reason a warmed same-wrapper batch extracts without allocating.
    memo: Vec<(bool, String, Symbol)>,
    /// [`Alphabet::uid`] the memo was built against; a different alphabet
    /// (another wrapper on the same worker) invalidates it wholesale.
    memo_uid: Option<u64>,
    /// Scan buffers for the extraction engine.
    extract: ExtractScratch,
    /// Token indices found by the last page call.
    targets: Vec<usize>,
    /// Per-token hash sequence for [`WrapperScratch::skeleton_signature`].
    sig: Vec<u64>,
    /// Double buffer for the signature's tandem-repeat collapse passes.
    sig_tmp: Vec<u64>,
}

impl WrapperScratch {
    /// Fresh, empty scratch. Buffers grow on first use and are then
    /// reused.
    pub fn new() -> WrapperScratch {
        WrapperScratch::default()
    }

    /// The abstracted word of the most recent page (testing/observability).
    pub fn word(&self) -> &[Symbol] {
        &self.word
    }

    /// The token indices the most recent page call returned, e.g.
    /// [`Wrapper::extract_page`]; empty if it failed.
    pub fn targets(&self) -> &[usize] {
        &self.targets
    }

    /// The page call both wrapper kinds share: abstract `tokens`, let
    /// `scan` push word positions, map them back to token indices — an
    /// ambiguous match's positions too, so every unique-target surface
    /// answers in token space.
    pub(crate) fn page_call<S>(
        &mut self,
        alphabet: &Alphabet,
        cfg: &SeqConfig,
        tokens: &[Token],
        scan: S,
    ) -> Result<&[usize], WrapperError>
    where
        S: FnOnce(&[Symbol], &mut ExtractScratch, &mut Vec<usize>) -> Result<(), ExtractFailure>,
    {
        abstract_page_into(alphabet, cfg, tokens, self);
        self.targets.clear();
        let back = &self.back;
        match scan(&self.word, &mut self.extract, &mut self.targets) {
            Ok(()) => {
                for t in &mut self.targets {
                    *t = back[*t];
                }
                Ok(&self.targets)
            }
            Err(mut failure) => {
                self.targets.clear();
                if let ExtractFailure::AmbiguousMatch(positions) = &mut failure {
                    for p in positions {
                        *p = back[*p];
                    }
                }
                Err(WrapperError::Extract(failure))
            }
        }
    }

    /// Every candidate position of `extractor` on `tokens`, unique or
    /// not, as a unary relation binding `var` in token-index space: the
    /// page call of a query's wrapper and inline-expression sources.
    pub(crate) fn candidates(
        &mut self,
        var: impl Into<String>,
        alphabet: &Alphabet,
        cfg: &SeqConfig,
        extractor: &Extractor,
        tokens: &[Token],
    ) -> SpanRelation {
        abstract_page_into(alphabet, cfg, tokens, self);
        let spans = extractor.spans_into(&self.word, &mut self.extract);
        SpanRelation::unary(var, spans.iter().map(|s| Span::unit(self.back[s.start])))
    }

    /// A structural fingerprint of a page: the hash of its
    /// **tag-abstraction skeleton** under `cfg`, invariant to content
    /// text and to how many times a repeating block (e.g. a table row)
    /// repeats.
    ///
    /// This is the corpus router's site signature (after Ferrara &
    /// Baumgartner's adaptable-wrapper fingerprints): two pages produced
    /// from the same template hash equal even when their text differs
    /// and their result tables have different row counts, while any
    /// change to the tag skeleton itself — a new tag name, a reordered
    /// construct — changes the hash.
    ///
    /// Mechanics: each token maps to a `u64` — start tags hash their
    /// name (salted), end tags likewise when `cfg.include_end_tags`,
    /// non-blank text maps to one fixed marker when `cfg.include_text`
    /// (content invariance by construction), comments/doctypes are
    /// skipped, and `cfg.refine_attrs` is deliberately ignored
    /// (attribute values vary per page). Adjacent duplicated blocks
    /// (`s[i..i+L] == s[i+L..i+2L]`) are then collapsed to one copy
    /// until fixpoint — so `k ≥ 1` repetitions of a row all produce the
    /// same collapsed skeleton — and the collapsed sequence is FNV-1a
    /// hashed. Deterministic, wrapper-independent, and allocation-free
    /// at steady state (the hash sequence lives in reusable scratch
    /// buffers).
    pub fn skeleton_signature(&mut self, cfg: &SeqConfig, tokens: &[Token]) -> u64 {
        // Distinct salts keep `<p>` and `</p>` (and a text run) from
        // colliding; arbitrary odd 64-bit constants.
        const START_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
        const END_SALT: u64 = 0xc2b2_ae3d_27d4_eb4f;
        const TEXT_MARK: u64 = 0x1656_67b1_9e37_79f9;
        self.sig.clear();
        for tok in tokens {
            let h = match tok {
                Token::StartTag { name, .. } => {
                    crate::persist::fnv1a_64(name.as_bytes()) ^ START_SALT
                }
                Token::EndTag { name } if cfg.include_end_tags => {
                    crate::persist::fnv1a_64(name.as_bytes()) ^ END_SALT
                }
                Token::Text(_) if cfg.include_text && !tok.is_blank_text() => TEXT_MARK,
                _ => continue,
            };
            self.sig.push(h);
        }
        collapse_tandem_repeats(&mut self.sig, &mut self.sig_tmp);
        // FNV-1a over the collapsed sequence's little-endian bytes,
        // folded incrementally so no byte buffer is materialized.
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        for &h in &self.sig {
            for b in h.to_le_bytes() {
                acc ^= u64::from(b);
                acc = acc.wrapping_mul(0x100_0000_01b3);
            }
        }
        acc
    }
}

/// Repeat blocks longer than this are not collapsed; real templates
/// repeat short constructs (table rows, list items), and an uncollapsed
/// long block merely yields a more specific — still deterministic —
/// signature.
const MAX_REPEAT_BLOCK: usize = 32;

/// Collapse adjacent duplicated blocks (`seq[i..i+L] == seq[i+L..i+2L]`,
/// smallest `L` first) to one copy, repeating the pass until a fixpoint:
/// `k` back-to-back repetitions of a block reduce to a single copy for
/// every `k ≥ 1`. `tmp` is the double buffer; both vectors only ever
/// grow, so a warmed scratch collapses without allocating.
fn collapse_tandem_repeats(seq: &mut Vec<u64>, tmp: &mut Vec<u64>) {
    loop {
        let mut changed = false;
        tmp.clear();
        let mut i = 0;
        while i < seq.len() {
            let max_l = ((seq.len() - i) / 2).min(MAX_REPEAT_BLOCK);
            let repeat = (1..=max_l).find(|&l| seq[i..i + l] == seq[i + l..i + 2 * l]);
            match repeat {
                Some(l) => {
                    // Keep the first copy, drop the duplicate.
                    tmp.extend_from_slice(&seq[i..i + l]);
                    i += 2 * l;
                    changed = true;
                }
                None => {
                    tmp.push(seq[i]);
                    i += 1;
                }
            }
        }
        std::mem::swap(seq, tmp);
        if !changed {
            return;
        }
    }
}

/// Resolve one tag name through the per-page memo, falling back to (and
/// memoizing) an alphabet hash lookup on miss.
fn memo_resolve(
    alphabet: &Alphabet,
    memo: &mut Vec<(bool, String, Symbol)>,
    is_end: bool,
    name: &str,
    other: Symbol,
) -> Symbol {
    if let Some((_, _, sym)) = memo.iter().find(|(end, n, _)| *end == is_end && n == name) {
        return *sym;
    }
    let sym = if is_end {
        alphabet.try_sym(&format!("/{name}")).unwrap_or(other)
    } else {
        alphabet.try_sym(name).unwrap_or(other)
    };
    if memo.len() < MEMO_CAP {
        memo.push((is_end, name.to_string(), sym));
    }
    sym
}

/// Abstract a page under `cfg` directly into `scratch` (word + back-map),
/// mapping names to `alphabet` symbols with `#other` for names unseen at
/// training time. Produces exactly the output of
/// [`to_names`](rextract_html::seq::to_names) followed by per-entry symbol
/// lookup (equivalence-tested), but resolves repeated tag names through a
/// per-page memo and builds no intermediate name strings on the memo-hit
/// path. Shared by the page call and the candidates helper, so both
/// wrapper kinds and every query source abstract the same way.
fn abstract_page_into(
    alphabet: &Alphabet,
    cfg: &SeqConfig,
    tokens: &[Token],
    scratch: &mut WrapperScratch,
) {
    let other = alphabet.sym(OTHER);
    // `#text` resolves once per page, not once per text run.
    let text_sym = if cfg.include_text {
        alphabet.try_sym("#text").unwrap_or(other)
    } else {
        other
    };
    scratch.word.clear();
    scratch.back.clear();
    // The memo survives page-to-page as long as the alphabet does:
    // consecutive pages for one wrapper (the batched serve path) resolve
    // every repeated tag allocation-free.
    if scratch.memo_uid != Some(alphabet.uid()) {
        scratch.memo.clear();
        scratch.memo_uid = Some(alphabet.uid());
    }
    for (i, tok) in tokens.iter().enumerate() {
        let sym = match tok {
            Token::StartTag { name, .. } => {
                let refined = cfg
                    .refine_attrs
                    .iter()
                    .find(|(t, a)| t == name && tok.attr(a).is_some());
                match refined {
                    // Rare refined path: build the `NAME@attr=value` name
                    // exactly as `to_names` does and resolve it directly
                    // (values vary too much to be worth memoizing).
                    Some((t, a)) => {
                        let value = tok.attr(a).expect("checked present");
                        let clean: String = value
                            .chars()
                            .map(|c| {
                                if c.is_alphanumeric() || matches!(c, '_' | '/' | ':' | '#') {
                                    c
                                } else {
                                    '_'
                                }
                            })
                            .collect();
                        let refined_name = format!("{t}@{a}={clean}");
                        alphabet.try_sym(&refined_name).unwrap_or(other)
                    }
                    None => memo_resolve(alphabet, &mut scratch.memo, false, name, other),
                }
            }
            Token::EndTag { name } if cfg.include_end_tags => {
                memo_resolve(alphabet, &mut scratch.memo, true, name, other)
            }
            Token::Text(_) if cfg.include_text && !tok.is_blank_text() => text_sym,
            Token::EndTag { .. } | Token::Text(_) | Token::Comment(_) | Token::Doctype(_) => {
                continue
            }
        };
        scratch.word.push(sym);
        scratch.back.push(i);
    }
}

/// Allocating convenience wrapper over [`abstract_page_into`].
#[cfg(test)]
pub(crate) fn abstract_page_with(
    alphabet: &Alphabet,
    cfg: &SeqConfig,
    tokens: &[Token],
) -> (Vec<Symbol>, Vec<usize>) {
    let mut scratch = WrapperScratch::new();
    abstract_page_into(alphabet, cfg, tokens, &mut scratch);
    (scratch.word, scratch.back)
}

impl fmt::Debug for Wrapper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Wrapper(maximized={}, |Σ|={}, expr={})",
            self.maximized,
            self.alphabet.len(),
            self.expr.to_text()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::{PageStyle, SiteConfig, SiteGenerator};
    use rextract_learn::perturb::Perturber;

    fn gen(seed: u64) -> SiteGenerator {
        SiteGenerator::new(SiteConfig {
            seed,
            ..SiteConfig::default()
        })
    }

    fn train_pages(seed: u64) -> Vec<TrainPage> {
        let mut g = gen(seed);
        vec![
            TrainPage::from(&g.page_with_style(PageStyle::Plain)),
            TrainPage::from(&g.page_with_style(PageStyle::TableEmbedded)),
        ]
    }

    #[test]
    fn trains_and_extracts_on_training_pages() {
        let pages = train_pages(2);
        let w = Wrapper::train(&pages, WrapperConfig::default()).unwrap();
        for p in &pages {
            assert_eq!(w.extract_target(&p.tokens).unwrap(), p.target);
        }
        assert!(w.expr().is_unambiguous());
    }

    #[test]
    fn maximized_wrapper_is_maximal() {
        let pages = train_pages(7);
        let w = Wrapper::train(&pages, WrapperConfig::default()).unwrap();
        assert!(w.is_maximized());
        assert!(w.expr().is_maximal());
    }

    #[test]
    fn unmaximized_config_skips_maximization() {
        let pages = train_pages(7);
        let w = Wrapper::train(
            &pages,
            WrapperConfig {
                maximize: false,
                ..WrapperConfig::default()
            },
        )
        .unwrap();
        assert!(!w.is_maximized());
    }

    #[test]
    fn extracts_on_unseen_styles() {
        // Train on plain + table, extract on busy pages (new rows, links).
        let pages = train_pages(11);
        let w = Wrapper::train(&pages, WrapperConfig::default()).unwrap();
        let mut g = gen(99);
        let mut ok = 0;
        let total = 20;
        for _ in 0..total {
            let p = g.page_with_style(PageStyle::Busy);
            if w.extract_target(&p.tokens) == Ok(p.target) {
                ok += 1;
            }
        }
        assert!(
            ok >= total * 9 / 10,
            "only {ok}/{total} busy pages extracted"
        );
    }

    #[test]
    fn maximized_beats_unmaximized_under_perturbation() {
        let pages = train_pages(5);
        let maxed = Wrapper::train(&pages, WrapperConfig::default()).unwrap();
        let raw = Wrapper::train(
            &pages,
            WrapperConfig {
                maximize: false,
                ..WrapperConfig::default()
            },
        )
        .unwrap();
        let mut g = gen(123);
        let mut p = Perturber::new(77);
        let (mut max_ok, mut raw_ok, mut trials) = (0, 0, 0);
        for _ in 0..40 {
            let page = g.page();
            let edited = p.perturb(&page.tokens, page.target, 3);
            trials += 1;
            if maxed.extract_target(&edited.tokens) == Ok(edited.target) {
                max_ok += 1;
            }
            if raw.extract_target(&edited.tokens) == Ok(edited.target) {
                raw_ok += 1;
            }
        }
        assert!(
            max_ok >= raw_ok,
            "maximized {max_ok}/{trials} < raw {raw_ok}/{trials}"
        );
        assert!(max_ok > trials / 2, "maximized too weak: {max_ok}/{trials}");
    }

    #[test]
    fn unknown_tags_map_to_other() {
        let pages = train_pages(3);
        let w = Wrapper::train(&pages, WrapperConfig::default()).unwrap();
        // Inject a tag never seen in training.
        let mut tokens = pages[1].tokens.clone();
        tokens.insert(0, Token::start("marquee"));
        tokens.insert(1, Token::end("marquee"));
        let got = w.extract_target(&tokens).unwrap();
        assert_eq!(got, pages[1].target + 2);
    }

    /// The definitional abstraction: `to_names` followed by per-entry
    /// alphabet lookup — exactly what `abstract_page_with` did before the
    /// memoized rewrite. The memo path must match it entry for entry.
    fn abstract_via_to_names(
        alphabet: &Alphabet,
        cfg: &SeqConfig,
        tokens: &[Token],
    ) -> (Vec<Symbol>, Vec<usize>) {
        let other = alphabet.sym(OTHER);
        let entries = rextract_html::seq::to_names(tokens, cfg);
        let mut word = Vec::with_capacity(entries.len());
        let mut back = Vec::with_capacity(entries.len());
        for e in entries {
            word.push(alphabet.try_sym(&e.name).unwrap_or(other));
            back.push(e.token_index);
        }
        (word, back)
    }

    #[test]
    fn memoized_abstraction_matches_to_names_path() {
        use rextract_html::tokenizer::tokenize;
        let html = r#"<!DOCTYPE html><!-- c --><p>Price: $4</p><table>
            <tr><td><input type="radio"><input type="text"><input></td></tr>
            <tr><td>  </td><td><marquee>new</marquee></td></tr>
            </table><p>again</p>"#;
        let tokens = tokenize(html);
        // Vocabulary that misses MARQUEE (→ #other) and one input
        // refinement, under every abstraction level.
        let mut vocab = Vocabulary::new();
        vocab.observe_name(OTHER);
        for n in [
            "P",
            "/P",
            "TABLE",
            "/TABLE",
            "TR",
            "/TR",
            "TD",
            "/TD",
            "INPUT",
            "#text",
            "INPUT@type=radio",
        ] {
            vocab.observe_name(n);
        }
        let alphabet = vocab.alphabet();
        let configs = [
            SeqConfig::tags_only(),
            SeqConfig::with_text(),
            SeqConfig::with_text().refine("input", "type"),
        ];
        let mut scratch = WrapperScratch::new();
        for cfg in &configs {
            let want = abstract_via_to_names(&alphabet, cfg, &tokens);
            // Scratch reuse across configs must not leak stale state.
            abstract_page_into(&alphabet, cfg, &tokens, &mut scratch);
            assert_eq!((scratch.word.clone(), scratch.back.clone()), want);
            assert_eq!(abstract_page_with(&alphabet, cfg, &tokens), want);
        }
    }

    #[test]
    fn span_relation_reports_all_candidates_in_token_space() {
        let pages = train_pages(19);
        let w = Wrapper::train(&pages, WrapperConfig::default()).unwrap();
        let mut scratch = WrapperScratch::new();
        for p in &pages {
            let rel = w.span_relation_with("target", &p.tokens, &mut scratch);
            assert_eq!(rel.vars(), ["target".to_string()]);
            // The unique-extraction path and the relation must agree:
            // exactly one candidate, at the target's token index.
            assert_eq!(
                rel.rows(),
                [vec![rextract_extraction::Span::unit(p.target)]]
            );
        }
        // A page the wrapper cannot parse yields an empty relation, not
        // an error.
        let junk = rextract_html::tokenizer::tokenize("<blink>nothing</blink>");
        let rel = w.span_relation_with("target", &junk, &mut scratch);
        assert!(rel.is_empty());
    }

    /// A hand-built artifact of `kind` whose `expr` may be ambiguous
    /// (training never produces one), with its checksum trailer.
    fn artifact(kind: &str, expr: &str) -> String {
        let body = format!(
            "rextract-{kind} v2\nseq include_text=false include_end_tags=true\n\
             alphabet #other /FORM /P FORM INPUT P\nmaximized false\nexpr {expr}\n"
        );
        let sum = crate::persist::fnv1a_64(body.as_bytes());
        format!("{body}checksum fnv1a {sum:016x}\n")
    }

    #[test]
    fn ambiguous_matches_report_token_indices() {
        // The word drops the text token, so the two INPUTs are word
        // positions 3 and 4 but tokens 4 and 5.
        let tokens = rextract_html::tokenizer::tokenize("<p>hello</p><form><input><input></form>");
        let want = WrapperError::Extract(ExtractFailure::AmbiguousMatch(vec![4, 5]));
        let single = Wrapper::import(&artifact("wrapper", ".* <INPUT> .*")).unwrap();
        assert_eq!(single.extract_target(&tokens).unwrap_err(), want);
        let tuple = crate::tuple::TupleWrapper::import(&artifact(
            "tuple-wrapper",
            ".* <FORM> .* <INPUT> .*",
        ))
        .unwrap();
        assert_eq!(tuple.extract_targets(&tokens).unwrap_err(), want);
        // A failed page call leaves no stale targets behind.
        let pages = train_pages(2);
        let w = Wrapper::train(&pages, WrapperConfig::default()).unwrap();
        let mut scratch = WrapperScratch::new();
        assert_eq!(
            w.extract_page(&pages[0].tokens, &mut scratch),
            Ok(&[pages[0].target][..])
        );
        assert!(single.extract_page(&tokens, &mut scratch).is_err());
        assert!(scratch.targets().is_empty());
    }

    #[test]
    fn scratch_reuse_matches_fresh_extraction() {
        let pages = train_pages(13);
        let w = Wrapper::train(&pages, WrapperConfig::default()).unwrap();
        let mut g = gen(31);
        let mut scratch = WrapperScratch::new();
        for _ in 0..10 {
            let p = g.page_with_style(PageStyle::Busy);
            assert_eq!(
                w.extract_target_with(&p.tokens, &mut scratch),
                w.extract_target(&p.tokens)
            );
        }
    }

    #[test]
    fn tandem_collapse_reduces_repeats_to_one_copy() {
        let cases: [(&[u64], &[u64]); 5] = [
            (&[1, 2, 1, 2, 1, 2], &[1, 2]),          // 3 reps of a pair
            (&[7, 7, 7, 9], &[7, 9]),                // run of singles
            (&[1, 2, 3], &[1, 2, 3]),                // no repeats
            (&[], &[]),                              // empty
            (&[5, 1, 2, 1, 2, 6, 6], &[5, 1, 2, 6]), // interior repeats
        ];
        let mut tmp = Vec::new();
        for (input, want) in cases {
            let mut seq = input.to_vec();
            collapse_tandem_repeats(&mut seq, &mut tmp);
            assert_eq!(seq, want, "collapse of {input:?}");
        }
    }

    #[test]
    fn skeleton_signature_invariants() {
        let cfg = SeqConfig::with_text();
        let mut scratch = WrapperScratch::new();
        let listing = |rows: usize, label: &str| -> Vec<Token> {
            let mut toks = vec![Token::start("table")];
            for i in 0..rows {
                toks.push(Token::start("tr"));
                toks.push(Token::start("td"));
                toks.push(Token::Text(format!("{label} #{i}")));
                toks.push(Token::end("td"));
                toks.push(Token::end("tr"));
            }
            toks.push(Token::end("table"));
            toks
        };
        let base = scratch.skeleton_signature(&cfg, &listing(1, "Widget"));
        // Row-count invariance: k repeated rows collapse to one.
        for rows in 2..=6 {
            assert_eq!(
                scratch.skeleton_signature(&cfg, &listing(rows, "Widget")),
                base,
                "{rows}-row listing diverged"
            );
        }
        // Content invariance: text, attributes, comments don't matter.
        let mut restyled = listing(3, "Completely different text!");
        restyled.insert(0, Token::Comment("generated".into()));
        restyled[1] = Token::start_with(
            "table",
            vec![rextract_html::token::Attribute::new("border", "1")],
        );
        assert_eq!(scratch.skeleton_signature(&cfg, &restyled), base);
        // Skeleton sensitivity: a novel tag changes the hash.
        let mut novel = listing(2, "Widget");
        novel.insert(1, Token::start("blink"));
        assert_ne!(scratch.skeleton_signature(&cfg, &novel), base);
        // Start and end tags of the same name must not collide.
        let open_only = vec![Token::start("p"), Token::start("p")];
        let balanced = vec![Token::start("p"), Token::end("p")];
        assert_ne!(
            scratch.skeleton_signature(&cfg, &open_only),
            scratch.skeleton_signature(&cfg, &balanced)
        );
    }

    #[test]
    fn revision_defaults_to_one_and_is_settable() {
        let mut w = Wrapper::train(&train_pages(2), WrapperConfig::default()).unwrap();
        assert_eq!(w.revision(), 1);
        w.set_revision(4);
        assert_eq!(w.revision(), 4);
    }

    #[test]
    fn target_not_representable_error() {
        let tokens = rextract_html::tokenizer::tokenize("<p>price</p>");
        let page = TrainPage { tokens, target: 1 }; // the text node
        let err = Wrapper::train(&[page], WrapperConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            WrapperError::TargetNotRepresentable { sample: 0 }
        ));
    }
}
