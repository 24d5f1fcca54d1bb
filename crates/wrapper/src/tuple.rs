//! Tuple wrappers: extract several related objects per page.
//!
//! The single-target [`Wrapper`](crate::wrapper::Wrapper) locates one
//! token; shopbots usually need a record — here, the search **FORM**
//! together with its text **INPUT** (so the robot can both address the
//! form and fill the right field). [`TupleWrapper`] trains a
//! [`MultiExtractionExpr`] from multi-marked pages via the region-wise
//! merging of [`rextract_learn::multi_merge`] and componentwise
//! maximization.

use crate::wrapper::{TrainPage, WrapperConfig, WrapperError, WrapperScratch, OTHER};
use rextract_automata::Alphabet;
use rextract_extraction::{MultiExtractionExpr, MultiExtractor};
use rextract_html::seq::{to_names, SeqConfig, Vocabulary};
use rextract_html::token::Token;
use rextract_learn::multi_merge::{merge_multi, MultiMarkedSeq};

/// A training page with several target token indices (strictly
/// increasing).
#[derive(Debug, Clone)]
pub struct MultiTrainPage {
    /// Token stream of the page.
    pub tokens: Vec<Token>,
    /// Token indices of the marked targets, in document order.
    pub targets: Vec<usize>,
}

impl MultiTrainPage {
    /// Adapt a single-target page (arity-1 tuple).
    pub fn from_single(page: &TrainPage) -> MultiTrainPage {
        MultiTrainPage {
            tokens: page.tokens.clone(),
            targets: vec![page.target],
        }
    }
}

/// A trained tuple wrapper.
pub struct TupleWrapper {
    alphabet: Alphabet,
    expr: MultiExtractionExpr,
    extractor: MultiExtractor,
    seq_cfg: SeqConfig,
    maximized: bool,
}

impl TupleWrapper {
    /// Train on multi-marked pages. Mirrors
    /// [`Wrapper::train`](crate::wrapper::Wrapper::train): abstraction →
    /// region-wise merge → componentwise maximization with graceful
    /// fallback.
    pub fn train(
        pages: &[MultiTrainPage],
        cfg: WrapperConfig,
    ) -> Result<TupleWrapper, WrapperError> {
        let mut vocab = Vocabulary::new();
        vocab.observe_name(OTHER);
        let mut samples = Vec::with_capacity(pages.len());
        for (i, page) in pages.iter().enumerate() {
            let entries = to_names(&page.tokens, &cfg.seq);
            let positions: Option<Vec<usize>> = page
                .targets
                .iter()
                .map(|&t| entries.iter().position(|e| e.token_index == t))
                .collect();
            let positions = positions.ok_or(WrapperError::TargetNotRepresentable { sample: i })?;
            let names: Vec<String> = entries.into_iter().map(|e| e.name).collect();
            for n in &names {
                vocab.observe_name(n);
            }
            samples.push(MultiMarkedSeq::new(names, positions));
        }
        let alphabet = vocab.alphabet();

        let merged = merge_multi(&alphabet, &samples).map_err(WrapperError::Learn)?;
        // The maximized expression is kept only if it is unambiguous;
        // one build of its collapsed chains decides that and compiles it.
        let maximized = if cfg.maximize {
            merged
                .maximize()
                .ok()
                .and_then(|m| m.compile_unambiguous().map(|x| (m, x)))
        } else {
            None
        };
        let (expr, extractor, maximized) = match maximized {
            Some((m, extractor)) => (m, extractor, true),
            None => {
                let extractor = merged.compile();
                (merged, extractor, false)
            }
        };
        Ok(TupleWrapper {
            alphabet,
            expr,
            extractor,
            seq_cfg: cfg.seq,
            maximized,
        })
    }

    /// Assemble a tuple wrapper from pre-built parts (the import path of
    /// [`crate::persist`]; training is bypassed entirely).
    pub(crate) fn from_parts(
        alphabet: Alphabet,
        expr: MultiExtractionExpr,
        extractor: MultiExtractor,
        seq_cfg: SeqConfig,
        maximized: bool,
    ) -> TupleWrapper {
        TupleWrapper {
            alphabet,
            expr,
            extractor,
            seq_cfg,
            maximized,
        }
    }

    /// The learned multi-marker expression.
    pub fn expr(&self) -> &MultiExtractionExpr {
        &self.expr
    }

    /// The training alphabet (includes `#other`).
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The abstraction configuration this wrapper applies to pages.
    pub fn seq_config(&self) -> &SeqConfig {
        &self.seq_cfg
    }

    /// Number of markers `k` (fields per record).
    pub fn arity(&self) -> usize {
        self.expr.arity()
    }

    /// Whether componentwise maximization succeeded.
    pub fn is_maximized(&self) -> bool {
        self.maximized
    }

    /// The page call: locate the target tuple, reusing `scratch` for the
    /// abstraction and every per-marker scan; returns **token indices**
    /// in page order as a slice of `scratch` (also left in
    /// [`WrapperScratch::targets`]). Allocation-free at steady state, like
    /// [`Wrapper::extract_page`](crate::wrapper::Wrapper::extract_page).
    pub fn extract_page<'s>(
        &self,
        tokens: &[Token],
        scratch: &'s mut WrapperScratch,
    ) -> Result<&'s [usize], WrapperError> {
        let scan = |word: &[_], extract: &mut _, out: &mut _| {
            self.extractor.extract_into(word, extract, out)
        };
        scratch.page_call(&self.alphabet, &self.seq_cfg, tokens, scan)
    }

    /// Locate the target tuple; returns **token indices** in page order.
    /// Allocating convenience wrapper over
    /// [`TupleWrapper::extract_page`].
    pub fn extract_targets(&self, tokens: &[Token]) -> Result<Vec<usize>, WrapperError> {
        self.extract_page(tokens, &mut WrapperScratch::new())
            .map(<[usize]>::to_vec)
    }
}

impl std::fmt::Debug for TupleWrapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TupleWrapper(arity={}, maximized={}, expr={})",
            self.expr.arity(),
            self.maximized,
            self.expr.to_text()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::{Page, PageStyle, SiteConfig, SiteGenerator};
    use rextract_learn::perturb::Perturber;

    fn gen(seed: u64) -> SiteGenerator {
        SiteGenerator::new(SiteConfig {
            seed,
            ..SiteConfig::default()
        })
    }

    /// Mark the FORM and its 2nd INPUT (the paper's record, arity 2).
    fn multi_page(p: &Page) -> MultiTrainPage {
        let form = p
            .tokens
            .iter()
            .position(|t| t.tag_name() == Some("FORM"))
            .expect("page has a form");
        MultiTrainPage {
            tokens: p.tokens.clone(),
            targets: vec![form, p.target],
        }
    }

    fn train(maximize: bool, seed: u64) -> TupleWrapper {
        let mut g = gen(seed);
        let pages = vec![
            multi_page(&g.page_with_style(PageStyle::Plain)),
            multi_page(&g.page_with_style(PageStyle::TableEmbedded)),
        ];
        TupleWrapper::train(
            &pages,
            WrapperConfig {
                maximize,
                ..WrapperConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn extracts_form_and_field_on_training_pages() {
        let mut g = gen(5);
        let pages = vec![
            multi_page(&g.page_with_style(PageStyle::Plain)),
            multi_page(&g.page_with_style(PageStyle::TableEmbedded)),
        ];
        let w = TupleWrapper::train(&pages, WrapperConfig::default()).unwrap();
        for p in &pages {
            assert_eq!(w.extract_targets(&p.tokens).unwrap(), p.targets);
        }
        assert!(w.expr().is_unambiguous());
    }

    #[test]
    fn generalizes_to_unseen_layouts() {
        let w = train(true, 7);
        assert!(w.is_maximized());
        let mut g = gen(900);
        let mut ok = 0;
        for _ in 0..20 {
            let p = g.page_with_style(PageStyle::Busy);
            let mp = multi_page(&p);
            if w.extract_targets(&mp.tokens).ok() == Some(mp.targets.clone()) {
                ok += 1;
            }
        }
        assert!(ok >= 18, "only {ok}/20 busy pages");
    }

    #[test]
    fn maximized_tuple_wrapper_survives_edits_better() {
        let maxed = train(true, 11);
        let raw = train(false, 11);
        let mut g = gen(123);
        let mut perturber = Perturber::new(3);
        let (mut ok_max, mut ok_raw) = (0, 0);
        for _ in 0..30 {
            let p = g.page();
            let mp = multi_page(&p);
            // Perturb while tracking the second target (the INPUT); the
            // FORM position shifts identically through insertions before
            // it, so re-derive it from the edited tokens.
            let edited = perturber.perturb(&mp.tokens, mp.targets[1], 2);
            let form = edited
                .tokens
                .iter()
                .position(|t| t.tag_name() == Some("FORM"))
                .expect("form survives");
            let want = vec![form, edited.target];
            if maxed.extract_targets(&edited.tokens).ok() == Some(want.clone()) {
                ok_max += 1;
            }
            if raw.extract_targets(&edited.tokens).ok() == Some(want) {
                ok_raw += 1;
            }
        }
        assert!(ok_max >= ok_raw, "maximized {ok_max} < raw {ok_raw}");
        assert!(ok_max >= 15, "tuple resilience collapsed: {ok_max}/30");
    }

    #[test]
    fn arity_one_agrees_with_single_wrapper() {
        let mut g = gen(17);
        let p1 = g.page_with_style(PageStyle::Plain);
        let p2 = g.page_with_style(PageStyle::TableEmbedded);
        let singles = [TrainPage::from(&p1), TrainPage::from(&p2)];
        let multis: Vec<MultiTrainPage> = singles.iter().map(MultiTrainPage::from_single).collect();
        let tw = TupleWrapper::train(&multis, WrapperConfig::default()).unwrap();
        for p in [&p1, &p2] {
            assert_eq!(tw.extract_targets(&p.tokens).unwrap(), vec![p.target]);
        }
    }

    #[test]
    fn unrepresentable_target_is_reported() {
        let tokens = rextract_html::tokenizer::tokenize("<p>hello</p>");
        let page = MultiTrainPage {
            tokens,
            targets: vec![1], // the text node under tags_only
        };
        let err = TupleWrapper::train(&[page], WrapperConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            WrapperError::TargetNotRepresentable { sample: 0 }
        ));
    }
}
