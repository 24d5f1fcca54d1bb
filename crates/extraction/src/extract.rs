//! The extraction engine: locate the marked object in a document.
//!
//! Section 4 describes extraction operationally — "we try such splits until
//! we either succeed on some split or fail on all candidates". A naive
//! implementation is O(|ρ|²) membership tests. [`Extractor`] does it in
//! **one forward sweep**: it runs the DFA of `E1` over the document and,
//! for every marker position `i` with `ρ[..i] ∈ L(E1)`, simulates the
//! forward DFA of `E2` over the suffix `ρ[i+1..]`. Candidates whose `E2`
//! runs sit in the same state share one **bucket**, so the work per token
//! is bounded by the number of live `E2` states, not by the number of
//! candidates. Position `i` is a valid split iff its bucket accepts at the
//! end of the document. For an unambiguous expression at most one position
//! survives; the engine returns *all* surviving positions so ambiguity is
//! observable (and the unambiguity invariant testable).
//!
//! Both DFAs are the store's canonical minimal automata, recompiled into
//! the dense tables of [`rextract_automata::dfa::dense`]:
//!
//! * they share one **joint symbol-class partition** with the marker in a
//!   class of its own, so each token costs one class-map load, one table
//!   load per live automaton, and a class-id compare for "is this the
//!   marker?";
//! * the dead-state numbering lets the sweep stop the moment `E1` is dead
//!   and no candidate is alive, and drop a bucket the moment its `E2` run
//!   dies;
//! * every buffer lives in a caller-owned [`ExtractScratch`], so
//!   steady-state [`Extractor::extract_with`] performs **zero heap
//!   allocations** (property-tested with a counting allocator in
//!   `tests/zero_alloc.rs`).
//!
//! Compilation is the class partition plus two table builds — no subset
//! construction at request time. Per-token work is O(live `E2` states) ≤
//! O(|Q2|), and the bucket scratch is two (double-buffered) slots per
//! entry of `E2`'s dense table plus one arena entry per candidate.
//!
//! Two reference engines back the agreement tests and benches:
//! [`TwoPassExtractor`] (a forward `E1` pass plus a backward pass of the
//! raw reversed-`E2` subset construction, generic `Dfa::next` stepping)
//! and [`NaiveExtractor`] (the paper's quadratic reading, literally).

use crate::expr::ExtractionExpr;
use crate::span::Span;
use rextract_automata::dfa::dense::{DenseDfa, SymbolClasses};
use rextract_automata::dfa::Dfa;
use rextract_automata::nfa::Nfa;
use rextract_automata::Symbol;

/// Sentinel for "no next candidate" in the bucket linked lists.
const NIL: u32 = u32::MAX;

/// Reusable buffers for allocation-free extraction.
///
/// One scratch serves any number of [`Extractor`]s (each call re-sizes the
/// buffers to its own document/automaton); keep one per worker thread and
/// steady-state extraction never touches the allocator.
#[derive(Debug, Default)]
pub struct ExtractScratch {
    /// The canonical scan output: valid splits as unit spans, in
    /// document order. Single-marker extractions are unit spans today;
    /// the representation leaves room for region-valued extractors.
    spans: Vec<Span>,
    /// Marker indices derived from `spans` on the position-oriented
    /// entry points ([`Extractor::positions_into`]).
    positions: Vec<usize>,
    /// Arena of candidate split positions, one entry per surviving
    /// candidate seen this scan.
    cand_pos: Vec<usize>,
    /// Parallel arena of intra-bucket links ([`NIL`] terminates a list).
    cand_next: Vec<u32>,
    /// Double-buffered per-`E2`-state bucket heads/tails (arena indices).
    /// Validity is gated by `bucket_stamp`, so contents never need
    /// clearing.
    bucket_head: [Vec<u32>; 2],
    bucket_tail: [Vec<u32>; 2],
    /// The epoch at which each bucket slot was last written. A slot is
    /// live iff its stamp equals the current epoch.
    bucket_stamp: [Vec<u64>; 2],
    /// The occupied bucket states of each buffer, for O(live) iteration
    /// instead of O(|Q2|).
    occupied: [Vec<u32>; 2],
    /// Monotone epoch counter (one tick per token scanned with two or
    /// more live buckets, never reset), so stale stamps from earlier
    /// documents can never read as live.
    epoch: u64,
}

impl ExtractScratch {
    /// Fresh, empty scratch. Buffers grow on first use and are then
    /// reused.
    pub fn new() -> ExtractScratch {
        ExtractScratch::default()
    }
}

/// A compiled, reusable extractor for one extraction expression.
///
/// Compilation cost is paid once (`E1` and `E2` dense tables over a joint
/// class partition); each extraction is then one forward sweep with no
/// allocation when a scratch is reused.
///
/// ```
/// use rextract_automata::Alphabet;
/// use rextract_extraction::{ExtractScratch, ExtractionExpr, Extractor};
///
/// let sigma = Alphabet::new(["p", "q"]);
/// let expr = ExtractionExpr::parse(&sigma, "[^p]* <p> .*").unwrap();
/// let extractor = Extractor::compile(&expr);
/// let mut scratch = ExtractScratch::new();
/// let doc = sigma.str_to_syms("q q p q p").unwrap();
/// assert_eq!(extractor.extract_with(&doc, &mut scratch).unwrap().position, 2);
/// ```
pub struct Extractor {
    classes: SymbolClasses,
    left: DenseDfa,
    right: DenseDfa,
    marker: Symbol,
    /// The marker's (singleton, see compile) class: the sweep tests "is
    /// this position the marker?" against class ids, never raw symbols.
    marker_class: u32,
}

/// Result of a successful unambiguous extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extraction {
    /// Index of the extracted marker occurrence.
    pub position: usize,
}

/// Failure modes of [`Extractor::extract`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractFailure {
    /// No split works: the expression does not parse the document.
    NoMatch,
    /// More than one split works (the expression is ambiguous on this
    /// document); all valid positions are reported.
    AmbiguousMatch(Vec<usize>),
}

impl Extractor {
    /// Compile `expr` for repeated extraction.
    pub fn compile(expr: &ExtractionExpr) -> Extractor {
        let (left, right) = (expr.left().dfa(), expr.right().dfa());
        let marker = expr.marker();
        let mut classes = SymbolClasses::compute(&[left, right]);
        classes.isolate(marker);
        Extractor {
            left: DenseDfa::compile(left, &classes),
            right: DenseDfa::compile(right, &classes),
            marker_class: classes.class_of(marker),
            classes,
            marker,
        }
    }

    /// The marker this extractor locates.
    pub fn marker(&self) -> Symbol {
        self.marker
    }

    /// Number of symbol classes the document is compressed into (the
    /// joint partition over both DFAs), surfaced by `--stats`,
    /// `/metrics` and the E8 bench.
    pub fn num_classes(&self) -> usize {
        self.classes.num_classes()
    }

    /// The one-pass sweep, filling `scratch.spans` (unit spans, in
    /// increasing order); allocation-free once the scratch has warmed up.
    ///
    /// Candidates are grouped into one bucket per dense `E2` state,
    /// stored as linked lists in an arena so two buckets stepping into
    /// the same state merge in O(1); buckets stepping into the dead state
    /// drop their candidates wholesale.
    ///
    /// Sequencing per position `i` (class `c`):
    /// 1. `E1` acceptance is read *before* stepping, so it reflects
    ///    `doc[..i]`;
    /// 2. existing buckets step by `c` (their suffixes contain `doc[i]`);
    /// 3. a marker at `i` with the prefix ok becomes a new candidate in
    ///    the (post-step) start-state bucket — its suffix starts at
    ///    `i+1`, so it must *not* consume `doc[i]`;
    /// 4. `E1` steps.
    ///
    /// At end of document a candidate's bucket state has consumed
    /// exactly `doc[i+1..]`, so acceptance there ⇔ `doc[i+1..] ∈ L(E2)`:
    /// accepting buckets' candidates are the valid splits. Lists carry
    /// no ordering guarantee across merges, so the collected positions
    /// are sorted in place (allocation-free) at the end.
    ///
    /// Bucket slots are validated by epoch stamps (`epoch` ticks once
    /// per general-regime token and never resets), so neither buffer is
    /// ever cleared — a scan touches only the slots it writes.
    fn scan(&self, doc: &[Symbol], scratch: &mut ExtractScratch) {
        scratch.spans.clear();
        let (left, right) = (&self.left, &self.right);
        // Dense states are premultiplied row offsets; sizing the bucket
        // arrays to the full table height lets them index directly.
        let slots = right.num_states() * right.num_classes();
        for b in 0..2 {
            scratch.bucket_head[b].resize(slots, NIL);
            scratch.bucket_tail[b].resize(slots, NIL);
            scratch.bucket_stamp[b].resize(slots, 0);
            scratch.occupied[b].clear();
        }
        scratch.cand_pos.clear();
        scratch.cand_next.clear();

        let start2 = right.start();
        let start2_dead = right.is_dead(start2);
        let mut q = left.start();
        let mut cur = 0usize;
        // Live-bucket population regimes. Documents spend nearly every
        // token with zero or one live bucket, so k ∈ {0, 1} runs out of
        // registers — no epoch ticks, no double buffering (a lone bucket
        // cannot collide with anything but a freshly minted candidate,
        // which is an O(1) list append). The general arena engages only
        // while k ≥ 2 and demotes itself as soon as the population
        // collapses again.
        let mut single: Option<(u32, u32, u32)> = None; // (E2 state, head, tail)
        let mut general = false;
        for (i, &sym) in doc.iter().enumerate() {
            let class = self.classes.class_of(sym);
            if !general {
                // (1) E1 acceptance read before stepping (step 3's
                // candidate needs the prefix strictly before `i`).
                let minting = class == self.marker_class && !start2_dead && left.is_accepting(q);
                match single.take() {
                    None => {
                        if left.is_dead(q) {
                            // No candidate exists and none can ever be
                            // created.
                            break;
                        }
                        if minting {
                            let id = scratch.cand_pos.len() as u32;
                            scratch.cand_pos.push(i);
                            scratch.cand_next.push(NIL);
                            single = Some((start2, id, id));
                        }
                    }
                    Some((s, head, tail)) => {
                        // (2) step the lone bucket.
                        let ns = right.next(s, class);
                        let ns_dead = right.is_dead(ns);
                        if !minting {
                            if !ns_dead {
                                single = Some((ns, head, tail));
                            }
                        } else {
                            // (3) new candidate at E2's (post-step) start
                            // state.
                            let id = scratch.cand_pos.len() as u32;
                            scratch.cand_pos.push(i);
                            scratch.cand_next.push(NIL);
                            if ns_dead {
                                single = Some((start2, id, id));
                            } else if ns == start2 {
                                // Collision: append (lists are unordered;
                                // harvest sorts).
                                scratch.cand_next[tail as usize] = id;
                                single = Some((ns, head, id));
                            } else {
                                // Two distinct buckets: spill into the
                                // arena's current buffer and promote to
                                // the general regime.
                                scratch.bucket_head[cur][ns as usize] = head;
                                scratch.bucket_tail[cur][ns as usize] = tail;
                                scratch.occupied[cur].push(ns);
                                scratch.bucket_head[cur][start2 as usize] = id;
                                scratch.bucket_tail[cur][start2 as usize] = id;
                                scratch.occupied[cur].push(start2);
                                general = true;
                            }
                        }
                    }
                }
                // (4) step E1.
                q = left.next(q, class);
                continue;
            }
            let nxt = 1 - cur;
            scratch.epoch += 1;
            let epoch = scratch.epoch;
            // Split the double buffers into (cur, nxt) halves; the
            // destructuring keeps the borrows disjoint.
            let [h0, h1] = &mut scratch.bucket_head;
            let [t0, t1] = &mut scratch.bucket_tail;
            let [s0, s1] = &mut scratch.bucket_stamp;
            let [o0, o1] = &mut scratch.occupied;
            let (head_c, head_n, tail_c, tail_n, stamp_n, occ_c, occ_n) = if cur == 0 {
                (&*h0, h1, &*t0, t1, s1, &*o0, o1)
            } else {
                (&*h1, h0, &*t1, t0, s0, &*o1, o0)
            };
            // (2) step live buckets, merging collisions in O(1).
            for &s in occ_c {
                let s = s as usize;
                let ns = right.next(s as u32, class) as usize;
                if right.is_dead(ns as u32) {
                    continue; // the whole bucket can never match
                }
                if stamp_n[ns] == epoch {
                    scratch.cand_next[tail_n[ns] as usize] = head_c[s];
                    tail_n[ns] = tail_c[s];
                } else {
                    stamp_n[ns] = epoch;
                    head_n[ns] = head_c[s];
                    tail_n[ns] = tail_c[s];
                    occ_n.push(ns as u32);
                }
            }
            // (3) marker with prefix ok: new candidate at E2's start.
            if class == self.marker_class && left.is_accepting(q) && !start2_dead {
                let s = start2 as usize;
                let id = scratch.cand_pos.len() as u32;
                scratch.cand_pos.push(i);
                scratch.cand_next.push(NIL);
                if stamp_n[s] == epoch {
                    scratch.cand_next[tail_n[s] as usize] = id;
                    tail_n[s] = id;
                } else {
                    stamp_n[s] = epoch;
                    head_n[s] = id;
                    tail_n[s] = id;
                    occ_n.push(s as u32);
                }
            }
            // (4) step E1; the cur list is spent.
            q = left.next(q, class);
            scratch.occupied[cur].clear();
            cur = nxt;
            // Demote as soon as the population collapses back to ≤1.
            let k = scratch.occupied[cur].len();
            if k <= 1 {
                if k == 1 {
                    let s = scratch.occupied[cur][0];
                    single = Some((
                        s,
                        scratch.bucket_head[cur][s as usize],
                        scratch.bucket_tail[cur][s as usize],
                    ));
                    scratch.occupied[cur].clear();
                }
                general = false;
            }
        }
        // Harvest: candidates sitting in accepting buckets are the valid
        // splits; restore document order in place.
        let mut harvest = |s: u32, head: u32| {
            if right.is_accepting(s) {
                let mut id = head;
                while id != NIL {
                    scratch
                        .spans
                        .push(Span::unit(scratch.cand_pos[id as usize]));
                    id = scratch.cand_next[id as usize];
                }
            }
        };
        if general {
            for &s in &scratch.occupied[cur] {
                harvest(s, scratch.bucket_head[cur][s as usize]);
            }
        } else if let Some((s, head, _)) = single {
            harvest(s, head);
        }
        scratch.spans.sort_unstable_by_key(|sp| sp.start);
    }

    /// All valid splits in `doc` as unit spans, in document order,
    /// written into `scratch` and returned as a slice. O(|doc|),
    /// allocation-free at steady state. This is the span-relational
    /// layer's entry point: wrap the slice in a
    /// [`crate::span::SpanRelation`] to feed [`crate::algebra`].
    pub fn spans_into<'s>(&self, doc: &[Symbol], scratch: &'s mut ExtractScratch) -> &'s [Span] {
        self.scan(doc, scratch);
        &scratch.spans
    }

    /// All valid split positions in `doc`, in increasing order, written
    /// into `scratch` and returned as a slice. O(|doc|), allocation-free
    /// at steady state. Positions are the `start`s of the unit spans the
    /// scan produces ([`Extractor::spans_into`]).
    pub fn positions_into<'s>(
        &self,
        doc: &[Symbol],
        scratch: &'s mut ExtractScratch,
    ) -> &'s [usize] {
        self.scan(doc, scratch);
        scratch.positions.clear();
        scratch
            .positions
            .extend(scratch.spans.iter().map(|s| s.start));
        &scratch.positions
    }

    /// Extract the unique marked object, or explain why not.
    /// Allocation-free at steady state on the success and no-match paths
    /// (the ambiguous error clones the offending positions).
    pub fn extract_with(
        &self,
        doc: &[Symbol],
        scratch: &mut ExtractScratch,
    ) -> Result<Extraction, ExtractFailure> {
        self.scan(doc, scratch);
        match scratch.spans.as_slice() {
            [] => Err(ExtractFailure::NoMatch),
            [span] => Ok(Extraction {
                position: span.start,
            }),
            many => Err(ExtractFailure::AmbiguousMatch(
                many.iter().map(|s| s.start).collect(),
            )),
        }
    }

    /// All valid splits as unit spans, in document order. O(|doc|).
    /// Allocating convenience wrapper over [`Extractor::spans_into`].
    pub fn spans(&self, doc: &[Symbol]) -> Vec<Span> {
        let mut scratch = ExtractScratch::new();
        self.scan(doc, &mut scratch);
        scratch.spans
    }

    /// All valid split positions in `doc`, in increasing order. O(|doc|).
    /// Allocating convenience wrapper over [`Extractor::positions_into`].
    pub fn positions(&self, doc: &[Symbol]) -> Vec<usize> {
        let mut scratch = ExtractScratch::new();
        self.positions_into(doc, &mut scratch);
        scratch.positions
    }

    /// Extract the unique marked object, or explain why not. Allocating
    /// convenience wrapper over [`Extractor::extract_with`].
    pub fn extract(&self, doc: &[Symbol]) -> Result<Extraction, ExtractFailure> {
        self.extract_with(doc, &mut ExtractScratch::new())
    }
}

impl ExtractionExpr {
    /// One-shot extraction: compiles an [`Extractor`] **per call**. For
    /// anything repeated, compile once with [`Extractor::compile`] and
    /// reuse an [`ExtractScratch`] through
    /// [`Extractor::extract_with`] / [`Extractor::positions_into`] —
    /// that path is O(|doc|) with zero steady-state allocations.
    pub fn extract(&self, doc: &[Symbol]) -> Result<Extraction, ExtractFailure> {
        Extractor::compile(self).extract(doc)
    }
}

/// The two-pass linear engine, kept as the reference the sweep is
/// checked against on large documents: a forward `E1` pass recording
/// per-call `Vec<bool>` prefix flags, then a backward pass of the raw
/// (unminimized) subset-construction reversed-`E2`, both via generic
/// [`Dfa::next`] stepping with no dead-state early exit. Same contract
/// and same results as [`Extractor`] (property-tested); only the
/// algorithm differs.
pub struct TwoPassExtractor {
    fwd_left: Dfa,
    bwd_right: Dfa,
    marker: Symbol,
}

impl TwoPassExtractor {
    /// Compile `expr`: the `E1` DFA plus the subset construction of
    /// reversed `E2`.
    pub fn compile(expr: &ExtractionExpr) -> TwoPassExtractor {
        TwoPassExtractor {
            fwd_left: expr.left().dfa().clone(),
            bwd_right: Dfa::from_nfa(&Nfa::from_dfa(expr.right().dfa()).reversed()),
            marker: expr.marker(),
        }
    }

    /// All valid split positions in `doc`, in increasing order. O(|doc|).
    pub fn positions(&self, doc: &[Symbol]) -> Vec<usize> {
        let n = doc.len();
        if n == 0 {
            return Vec::new();
        }
        let mut prefix_ok = vec![false; n];
        let mut q = self.fwd_left.start();
        for i in 0..n {
            prefix_ok[i] = self.fwd_left.is_accepting(q);
            q = self.fwd_left.next(q, doc[i]);
        }
        let mut out = Vec::new();
        let mut r = self.bwd_right.start();
        for i in (0..n).rev() {
            if doc[i] == self.marker && prefix_ok[i] && self.bwd_right.is_accepting(r) {
                out.push(i);
            }
            r = self.bwd_right.next(r, doc[i]);
        }
        out.reverse();
        out
    }

    /// Extract the unique marked object, or explain why not.
    pub fn extract(&self, doc: &[Symbol]) -> Result<Extraction, ExtractFailure> {
        let pos = self.positions(doc);
        match pos.len() {
            0 => Err(ExtractFailure::NoMatch),
            1 => Ok(Extraction { position: pos[0] }),
            _ => Err(ExtractFailure::AmbiguousMatch(pos)),
        }
    }
}

/// The paper's *operational* extraction baseline — Section 4's "we try
/// such splits until we either succeed on some split or fail on all
/// candidates" — implemented literally: for every marker position, test
/// prefix membership in `E1` and suffix membership in `E2` from scratch.
///
/// O(|doc|²) versus the linear engines. Exists as the ablation baseline
/// for the `extract_throughput` bench; all engines must always agree
/// (property-tested).
pub struct NaiveExtractor {
    left: Dfa,
    right: Dfa,
    marker: Symbol,
}

impl NaiveExtractor {
    /// Compile the baseline.
    pub fn compile(expr: &ExtractionExpr) -> NaiveExtractor {
        NaiveExtractor {
            left: expr.left().dfa().clone(),
            right: expr.right().dfa().clone(),
            marker: expr.marker(),
        }
    }

    /// All valid split positions (quadratic scan).
    pub fn positions(&self, doc: &[Symbol]) -> Vec<usize> {
        (0..doc.len())
            .filter(|&i| {
                doc[i] == self.marker
                    && self.left.accepts(&doc[..i])
                    && self.right.accepts(&doc[i + 1..])
            })
            .collect()
    }

    /// Extract the unique marked object, or explain why not.
    pub fn extract(&self, doc: &[Symbol]) -> Result<Extraction, ExtractFailure> {
        let pos = self.positions(doc);
        match pos.len() {
            0 => Err(ExtractFailure::NoMatch),
            1 => Ok(Extraction { position: pos[0] }),
            _ => Err(ExtractFailure::AmbiguousMatch(pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::brute_split_positions;
    use rextract_automata::sample::{enumerate_upto, Sampler};
    use rextract_automata::Alphabet;

    fn ab() -> Alphabet {
        Alphabet::new(["p", "q"])
    }

    fn e(s: &str) -> ExtractionExpr {
        ExtractionExpr::parse(&ab(), s).unwrap()
    }

    #[test]
    fn finds_the_unique_split() {
        let a = ab();
        let ex = e("[^p]* <p> .*");
        let x = Extractor::compile(&ex);
        let doc = a.str_to_syms("q q p q p").unwrap();
        assert_eq!(x.extract(&doc), Ok(Extraction { position: 2 }));
    }

    #[test]
    fn reports_no_match() {
        let a = ab();
        let ex = e("q <p> q");
        let x = Extractor::compile(&ex);
        assert_eq!(
            x.extract(&a.str_to_syms("q q q").unwrap()),
            Err(ExtractFailure::NoMatch)
        );
        assert_eq!(x.extract(&[]), Err(ExtractFailure::NoMatch));
    }

    #[test]
    fn reports_ambiguity_with_all_positions() {
        let a = ab();
        // Section 4: p*⟨p⟩p*q on pppq — three valid positions.
        let ex = e("p* <p> p* q");
        let x = Extractor::compile(&ex);
        assert_eq!(
            x.extract(&a.str_to_syms("p p p q").unwrap()),
            Err(ExtractFailure::AmbiguousMatch(vec![0, 1, 2]))
        );
    }

    #[test]
    fn agrees_with_brute_force_on_enumerated_members() {
        let exprs = [
            "[^p]* <p> .*",
            "(q p)* <p> .*",
            "p* <p> p* q",
            "(p | p p) <p> (p | p p)",
            "q* <p> q*",
            "p <p> p p p",
        ];
        for s in exprs {
            let ex = e(s);
            let x = Extractor::compile(&ex);
            for w in enumerate_upto(&ex.language(), 7) {
                assert_eq!(
                    x.positions(&w),
                    brute_split_positions(&ex, &w),
                    "mismatch for {s} on {:?}",
                    ab().syms_to_str(&w)
                );
            }
        }
    }

    #[test]
    fn agrees_with_brute_force_on_random_non_members_too() {
        let a = ab();
        let ex = e("(q p)* <p> q*");
        let x = Extractor::compile(&ex);
        let universe = rextract_automata::Lang::universe(&a);
        let mut sampler = Sampler::new(&universe, 99, 12);
        for _ in 0..300 {
            let w = sampler.sample().unwrap();
            assert_eq!(x.positions(&w), brute_split_positions(&ex, &w));
        }
    }

    #[test]
    fn unambiguous_expressions_never_report_ambiguity_on_members() {
        let ex = e("(q p)* <p> .*");
        assert!(ex.is_unambiguous());
        let x = Extractor::compile(&ex);
        for w in enumerate_upto(&ex.language(), 8) {
            assert!(x.extract(&w).is_ok(), "member failed to extract uniquely");
        }
    }

    #[test]
    fn marker_at_document_edges() {
        let a = ab();
        let ex = e("<p> .*");
        let x = Extractor::compile(&ex);
        assert_eq!(
            x.extract(&a.str_to_syms("p q q").unwrap()),
            Ok(Extraction { position: 0 })
        );
        let ex = e(".* <p>");
        let x = Extractor::compile(&ex);
        assert_eq!(
            x.extract(&a.str_to_syms("q q p").unwrap()),
            Ok(Extraction { position: 2 })
        );
    }

    #[test]
    fn scratch_reuse_across_documents_and_extractors() {
        let a = ab();
        let mut scratch = ExtractScratch::new();
        let x1 = Extractor::compile(&e("[^p]* <p> .*"));
        let x2 = Extractor::compile(&e("p* <p> p* q"));
        // Long then short then long again: stale buffer contents from a
        // previous (longer) document must never leak into a later scan.
        let docs = ["q q p q p", "p", "q q q q q q p q q", "p p p q"];
        for d in docs {
            let doc = a.str_to_syms(d).unwrap();
            assert_eq!(x1.positions_into(&doc, &mut scratch), x1.positions(&doc));
            assert_eq!(x2.positions_into(&doc, &mut scratch), x2.positions(&doc));
        }
    }

    #[test]
    fn dead_left_dfa_short_circuits_to_no_match() {
        let a = ab();
        // L(E1) = {q}: the left DFA dies on the second symbol of any
        // document starting q q…, so the scan must bail out all-false.
        let ex = e("q <p> .*");
        let x = Extractor::compile(&ex);
        let mut doc = a.str_to_syms("q q").unwrap();
        doc.extend(a.str_to_syms("q p q p q p").unwrap());
        assert_eq!(x.extract(&doc), Err(ExtractFailure::NoMatch));
        // And the same engine still finds the split when E1 stays alive.
        let doc = a.str_to_syms("q p q").unwrap();
        assert_eq!(x.extract(&doc), Ok(Extraction { position: 1 }));
    }

    #[test]
    fn dead_right_dfa_drops_its_candidates() {
        let a = ab();
        // L(E2) = {q}: every candidate's E2 run dies unless exactly one q
        // follows it, so all but the last marker must be rejected.
        let ex = e(".* <p> q");
        let x = Extractor::compile(&ex);
        let doc = a.str_to_syms("p q p p q p q").unwrap();
        assert_eq!(x.positions(&doc), vec![5]);
        assert_eq!(
            x.positions(&doc),
            brute_split_positions(&ex, &doc),
            "dead-state exit changed the result"
        );
    }

    #[test]
    fn naive_baseline_agrees_with_linear_engine() {
        let a = ab();
        for s in [
            "[^p]* <p> .*",
            "(q p)* <p> q*",
            "p* <p> p* q",
            "(p | p p) <p> (p | p p)",
        ] {
            let ex = e(s);
            let fast = Extractor::compile(&ex);
            let two_pass = TwoPassExtractor::compile(&ex);
            let naive = NaiveExtractor::compile(&ex);
            for w in enumerate_upto(&rextract_automata::Lang::universe(&a), 7) {
                assert_eq!(fast.positions(&w), naive.positions(&w), "{s}");
                assert_eq!(two_pass.positions(&w), naive.positions(&w), "{s}");
            }
        }
    }

    #[test]
    fn naive_extract_reports_same_failures() {
        let a = ab();
        let ex = e("p* <p> p* q");
        let naive = NaiveExtractor::compile(&ex);
        assert_eq!(
            naive.extract(&a.str_to_syms("p p p q").unwrap()),
            Err(ExtractFailure::AmbiguousMatch(vec![0, 1, 2]))
        );
        assert_eq!(
            naive.extract(&a.str_to_syms("q q").unwrap()),
            Err(ExtractFailure::NoMatch)
        );
    }

    #[test]
    fn spans_are_unit_spans_of_positions() {
        // The span surface and the position surface are two views of one
        // scan: spans must be exactly the unit spans of the positions,
        // for members and non-members alike, across all three engines.
        let a = ab();
        for s in ["[^p]* <p> .*", "(q p)* <p> q*", "p* <p> p* q"] {
            let ex = e(s);
            let x = Extractor::compile(&ex);
            let two_pass = TwoPassExtractor::compile(&ex);
            let naive = NaiveExtractor::compile(&ex);
            let mut scratch = ExtractScratch::new();
            for w in enumerate_upto(&rextract_automata::Lang::universe(&a), 7) {
                let spans = x.spans_into(&w, &mut scratch).to_vec();
                let from_spans: Vec<usize> = spans.iter().map(|sp| sp.start).collect();
                assert!(spans.iter().all(|sp| sp.len() == 1), "{s}: non-unit span");
                assert_eq!(from_spans, x.positions(&w), "{s}");
                assert_eq!(from_spans, brute_split_positions(&ex, &w), "{s}");
                assert_eq!(from_spans, two_pass.positions(&w), "{s}");
                assert_eq!(from_spans, naive.positions(&w), "{s}");
            }
        }
    }

    #[test]
    fn positions_into_matches_spans_into_after_interleaved_calls() {
        // positions_into derives from the span buffer; interleaving the
        // two entry points across documents must never cross wires.
        let a = ab();
        let x = Extractor::compile(&e("p* <p> p* q"));
        let mut scratch = ExtractScratch::new();
        let d1 = a.str_to_syms("p p p q").unwrap();
        let d2 = a.str_to_syms("q q").unwrap();
        assert_eq!(x.spans_into(&d1, &mut scratch).len(), 3);
        assert_eq!(x.positions_into(&d2, &mut scratch), &[] as &[usize]);
        assert_eq!(x.positions_into(&d1, &mut scratch), [0, 1, 2]);
        assert_eq!(
            x.spans_into(&d1, &mut scratch),
            [Span::unit(0), Span::unit(1), Span::unit(2)]
        );
    }

    #[test]
    fn one_shot_convenience_matches_compiled_path() {
        let a = ab();
        let ex = e("[^p]* <p> .*");
        let doc = a.str_to_syms("q p q").unwrap();
        assert_eq!(ex.extract(&doc), Extractor::compile(&ex).extract(&doc));
    }

    #[test]
    fn sweep_and_two_pass_agree_with_oracle_on_all_short_words() {
        // Every word up to length 8 — members and non-members — against
        // the definitional oracle, over expressions that exercise dead
        // left and right DFAs and multi-state E2s. The last two keep
        // several buckets live whose E2 runs then meet in one state, so
        // the arena's O(1) list merge decides their result.
        let a = ab();
        let exprs = [
            "[^p]* <p> .*",
            "(q p)* <p> q*",
            "p* <p> p* q",
            ".* <p> (q q | p)*",
            "q* <p> (p q)* q",
            "q <p> .*",
            ".* <p> q",
            ".* <p> . p .*",
            ".* <p> (q | p q) .*",
        ];
        let mut scratch = ExtractScratch::new();
        for s in exprs {
            let ex = e(s);
            let sweep = Extractor::compile(&ex);
            let two_pass = TwoPassExtractor::compile(&ex);
            for w in enumerate_upto(&rextract_automata::Lang::universe(&a), 8) {
                let oracle = brute_split_positions(&ex, &w);
                assert_eq!(sweep.positions_into(&w, &mut scratch), oracle, "{s}");
                assert_eq!(two_pass.positions(&w), oracle, "{s}");
            }
        }
    }

    #[test]
    fn scratch_survives_interleaving_extractors_of_different_sizes() {
        // One scratch alternating between a 1-state and a 6-state E2 (so
        // the bucket buffers are resized between calls) and between
        // document lengths: stale bucket stamps must never leak.
        let a = ab();
        let small = e("p* <p> .*");
        let large = e("p* <p> (p p p p)* q");
        let x_small = Extractor::compile(&small);
        let x_large = Extractor::compile(&large);
        assert!(small.right().num_states() < large.right().num_states());
        let mut scratch = ExtractScratch::new();
        let docs = [
            "p p p q",
            "q",
            "p q",
            "p p p p p p p p p q",
            "p p p p p q",
            "p p p q",
        ];
        for d in docs {
            let doc = a.str_to_syms(d).unwrap();
            for (ex, x) in [(&large, &x_large), (&small, &x_small)] {
                let oracle = brute_split_positions(ex, &doc);
                assert_eq!(x.positions_into(&doc, &mut scratch), oracle, "{d}");
            }
        }
    }
}
