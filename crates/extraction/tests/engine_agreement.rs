//! Engine agreement under random expressions and documents.
//!
//! The one-pass sweep ([`Extractor`]) must agree with the two-pass
//! engine ([`TwoPassExtractor`]), the paper's operational baseline
//! ([`NaiveExtractor`]), and the definitional oracle
//! (`brute_split_positions`) on every word — members and non-members
//! alike — over both a tiny alphabet (Σ = {p, q}, maximal class
//! collapse) and a wider one (|Σ| = 8, where class compression and the
//! `#other`-style column sharing actually kick in). A seeded test pins
//! the sweep on an expression whose `E1 × E2` product is large, where
//! many `E2` states are live at once on long documents.

use proptest::prelude::*;
use rextract_automata::{Alphabet, Lang, Regex, Symbol};
use rextract_extraction::oracle::brute_split_positions;
use rextract_extraction::{
    ExtractScratch, ExtractionExpr, Extractor, NaiveExtractor, Span, SpanRelation, TwoPassExtractor,
};

const SIGMA2: &[&str] = &["p", "q"];
const SIGMA8: &[&str] = &["p", "t0", "t1", "t2", "t3", "t4", "t5", "t6"];

/// Random regex AST over `names`, mirroring the generator in
/// `tests/properties.rs` (extended operators omitted: concat/alt/star
/// already exercise every engine path, and each extra operator costs a
/// determinization per case).
fn arb_regex(names: &'static [&'static str]) -> impl Strategy<Value = Regex> {
    let max_pick = names.len().min(3);
    let leaf = prop_oneof![
        1 => Just(Regex::Epsilon),
        6 => proptest::sample::subsequence(names.to_vec(), 1..=max_pick).prop_map(
            move |picked| {
                let a = Alphabet::new(names.iter().copied());
                let mut set = a.empty_set();
                for n in picked {
                    set.insert(a.sym(n));
                }
                Regex::class(set)
            }
        ),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            3 => (inner.clone(), inner.clone()).prop_map(|(x, y)| Regex::concat([x, y])),
            3 => (inner.clone(), inner.clone()).prop_map(|(x, y)| Regex::alt([x, y])),
            2 => inner.clone().prop_map(Regex::star),
            1 => inner.clone().prop_map(Regex::opt),
        ]
    })
}

/// A random word over an alphabet of `n` symbols.
fn arb_word(n: usize, max_len: usize) -> impl Strategy<Value = Vec<Symbol>> {
    proptest::collection::vec(0usize..n, 0..max_len)
        .prop_map(|ixs| ixs.into_iter().map(Symbol::from_index).collect())
}

/// Assert the sweep, both reference engines and the oracle agree on `w`
/// (panics report through proptest).
fn check_agreement(names: &'static [&'static str], left: &Regex, right: &Regex, w: &[Symbol]) {
    let a = Alphabet::new(names.iter().copied());
    let expr = ExtractionExpr::from_langs(
        Lang::from_regex(&a, left),
        a.sym("p"),
        Lang::from_regex(&a, right),
    );
    let oracle = brute_split_positions(&expr, w);

    let sweep = Extractor::compile(&expr);
    let two_pass = TwoPassExtractor::compile(&expr);
    let naive = NaiveExtractor::compile(&expr);

    let mut scratch = ExtractScratch::new();
    assert_eq!(
        sweep.positions_into(w, &mut scratch),
        oracle.as_slice(),
        "sweep disagrees with oracle"
    );
    assert_eq!(
        sweep.positions(w),
        oracle,
        "sweep allocating path disagrees"
    );
    assert_eq!(two_pass.positions(w), oracle, "two-pass engine disagrees");
    assert_eq!(naive.positions(w), oracle, "naive engine disagrees");
    // The Result-typed APIs must map identically too.
    assert_eq!(sweep.extract_with(w, &mut scratch), two_pass.extract(w));
    assert_eq!(two_pass.extract(w), naive.extract(w));
    // Span agreement: every engine's positions, lifted to unit spans,
    // must produce the same span relation the sweep's span scan does —
    // the contract the whole span-relational layer rests on.
    let unit_spans: Vec<Span> = oracle.iter().map(|&p| Span::unit(p)).collect();
    assert_eq!(
        sweep.spans_into(w, &mut scratch),
        unit_spans.as_slice(),
        "sweep span scan disagrees with the unit spans of the oracle"
    );
    assert_eq!(sweep.spans(w), unit_spans, "allocating span path disagrees");
    let as_relation =
        |positions: Vec<usize>| SpanRelation::unary("x", positions.into_iter().map(Span::unit));
    let sweep_rel = SpanRelation::unary("x", sweep.spans(w));
    assert_eq!(sweep_rel, as_relation(two_pass.positions(w)));
    assert_eq!(sweep_rel, as_relation(naive.positions(w)));
    assert_eq!(sweep_rel, as_relation(oracle));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Σ = {p, q}: every symbol is load-bearing, classes rarely collapse.
    #[test]
    fn engines_agree_on_sigma_2(
        left in arb_regex(SIGMA2),
        right in arb_regex(SIGMA2),
        w in arb_word(2, 13),
    ) {
        check_agreement(SIGMA2, &left, &right, &w);
    }

    /// |Σ| = 8: regexes mention ≤3 symbols per class leaf, so most columns
    /// coincide and the joint partition genuinely compresses.
    #[test]
    fn engines_agree_on_sigma_8(
        left in arb_regex(SIGMA8),
        right in arb_regex(SIGMA8),
        w in arb_word(8, 13),
    ) {
        check_agreement(SIGMA8, &left, &right, &w);
    }
}

/// `(. × 13)* <p> (. × 12)*` over {p, q}: a candidate splits iff its
/// prefix length is a multiple of 13 and its suffix length a multiple of
/// 12. The minimal DFAs have 13 and 12 states and the reachable product
/// all 156 pairs, so on a long random document up to twelve `E2` states
/// are live at once and the bucket arena merges and drops constantly.
#[test]
fn sweep_agrees_on_a_large_product() {
    let a = Alphabet::new(SIGMA2.iter().copied());
    let dots = |k: usize| vec!["."; k].join(" ");
    let text = format!("({})* <p> ({})*", dots(13), dots(12));
    let expr = ExtractionExpr::parse(&a, &text).unwrap();
    let product = expr.left().dfa().product(expr.right().dfa(), |x, _| x);
    assert_eq!(product.num_states(), 156, "{text}");

    let sweep = Extractor::compile(&expr);
    let two_pass = TwoPassExtractor::compile(&expr);
    let naive = NaiveExtractor::compile(&expr);
    let mut scratch = ExtractScratch::new();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut random_doc = |len: usize| -> Vec<Symbol> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                Symbol::from_index((state >> 32) as usize % 2)
            })
            .collect()
    };
    // Short documents against the quadratic naive engine.
    for len in [157, 300, 469, 625] {
        let doc = random_doc(len);
        let want = naive.positions(&doc);
        assert_eq!(sweep.positions_into(&doc, &mut scratch), want, "len {len}");
        assert_eq!(two_pass.positions(&doc), want, "len {len}");
    }
    // Long documents against the linear two-pass engine.
    for len in [1_000, 10_000, 99_997, 100_000] {
        let doc = random_doc(len);
        let want = two_pass.positions(&doc);
        assert!(want.len() >= len / 1_000, "len {len}: too few splits");
        assert_eq!(sweep.positions_into(&doc, &mut scratch), want, "len {len}");
    }
}
