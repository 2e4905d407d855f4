//! Co-reporting analysis (paper §VI-B/C, Tables IV–V, Fig 7).
//!
//! For members `i`, `j` of a small key universe — the countries of the
//! registry (Table V) or a chosen list of publishers (the input of the
//! media-group clustering) — the co-reporting factor is the Jaccard
//! index of their event sets: `c_ij = e_ij / (e_i + e_j − e_ij)`, with
//! `e_i` the events member `i` reported on and `e_ij` those both did.
//! [`CoReport`] is the one builder: a constructor maps each source to
//! its member (its country, or its slot in the publisher list; none for
//! the rest), and one flat pass over the mention rows ORs the member
//! bits of each event into a mask and counts the masks.
//!
//! The paper builds the *global* source matrix densely (~1.8 GB for all
//! 21 k sources): an event with `k` reporters performs `k(k−1)/2`
//! updates, and dense random increments beat any sparse structure. No
//! analysis here reads that global matrix, only submatrices of a few
//! dozen members, so none is built. The paper's argument is why the
//! hash-based global [`SparseCoReport`] stays a test oracle only: it
//! sorts each event's reporters and hashes every one of its pair updates.

use crate::chunk::{event_scan, for_each_event, mention_rows, rows_of};
use crate::exec::{ExecContext, Merge};
use crate::matrix::Matrix;
use gdelt_columnar::Dataset;
use gdelt_model::ids::SourceId;
use std::collections::HashMap;

/// [`SparseCoReport::build`]'s cost a mention on one thread: 35–37 ns.
const SPARSE_ROW_NS: f64 = 36.0;

/// What [`CoReport::build`] costs a mention on one thread: 2.9–3.5 ns
/// over 64 countries or the top-10 publishers.
const MASK_ROW_NS: f64 = 3.1;

/// Sparse co-reporting counts over all sources (hash-based) — the
/// global matrix the paper stores densely. The test oracle
/// [`CoReport`] is checked against.
#[derive(Debug, Clone, Default)]
pub struct SparseCoReport {
    /// `(i, j)` with `i < j` → `e_ij`.
    pub pairs: HashMap<(u32, u32), u32>,
    /// Per-source event counts.
    pub event_counts: Vec<u64>,
}

impl SparseCoReport {
    /// Build with per-thread hash maps merged at the end.
    // analyze: no_panic
    pub fn build(ctx: &ExecContext, d: &Dataset) -> Self {
        let n = d.sources.len();
        let offsets = &d.event_index.offsets;
        let merged = event_scan(
            ctx,
            offsets,
            SPARSE_ROW_NS,
            |events| {
                let mut pairs: HashMap<(u32, u32), u32> = HashMap::new();
                let mut counts = vec![0u64; n];
                let mut distinct: Vec<u32> = Vec::with_capacity(16);
                for_each_event(offsets, events, |_, rows| {
                    // The event's reporters, each once.
                    distinct.clear();
                    distinct.extend_from_slice(d.mentions.source.get(rows).unwrap_or(&[]));
                    distinct.sort_unstable();
                    distinct.dedup();
                    for (a, &i) in distinct.iter().enumerate() {
                        if let Some(e) = counts.get_mut(i as usize) {
                            *e += 1;
                        }
                        for &j in distinct.get(a + 1..).unwrap_or(&[]) {
                            *pairs.entry((i, j)).or_insert(0) += 1;
                        }
                    }
                });
                (pairs, counts)
            },
            |(mut pa, mut ea), (pb, eb)| {
                for (k, v) in pb {
                    *pa.entry(k).or_insert(0) += v;
                }
                for (a, b) in ea.iter_mut().zip(eb) {
                    *a += b;
                }
                (pa, ea)
            },
        );
        match merged {
            Some((pairs, event_counts)) => SparseCoReport { pairs, event_counts },
            None => SparseCoReport { pairs: HashMap::new(), event_counts: vec![0; n] },
        }
    }

    /// Pair count `e_ij`.
    pub fn pair_count(&self, i: usize, j: usize) -> u64 {
        let key = if i < j { (i as u32, j as u32) } else { (j as u32, i as u32) };
        u64::from(self.pairs.get(&key).copied().unwrap_or(0))
    }

    /// Jaccard factor of two sources, as [`CoReport::jaccard`] of two
    /// slots.
    pub fn jaccard(&self, i: usize, j: usize) -> f64 {
        jaccard_of(self.pair_count(i, j), self.event_counts[i], self.event_counts[j])
    }
}

/// Co-reporting over a small universe of members: `e_i` = events with at
/// least one reporting source of member `i`, `e_ij` = events covered by
/// both. The members are the registry's countries (Table V, where
/// countries are super-sources) or a list of publishers (the clustering
/// input).
#[derive(Debug, Clone, PartialEq)]
pub struct CoReport {
    /// Pair counts (full symmetric matrix, zero diagonal).
    pub pairs: Matrix<u64>,
    /// Per-member event counts.
    pub event_counts: Vec<u64>,
}

impl Merge for CoReport {
    /// Elementwise addition: per-event logic never crosses a partition.
    fn merge(&mut self, other: Self) {
        self.pairs.merge(other.pairs);
        self.event_counts.merge(other.event_counts);
    }
}

impl CoReport {
    /// Co-reporting between the first `n_countries` countries: member
    /// `c` is the sources of `CountryId(c)`.
    // analyze: no_panic
    pub fn countries(ctx: &ExecContext, d: &Dataset, n_countries: usize) -> Self {
        let place: Vec<(usize, u64)> =
            d.sources.country.iter().map(|&c| mask_place(usize::from(c), n_countries)).collect();
        Self::build(ctx, d, &place, n_countries)
    }

    /// Co-reporting between publishers: member `i` is source
    /// `subset[i]` (each source listed once), and the sources off the
    /// list count for none.
    // analyze: no_panic
    pub fn publishers(ctx: &ExecContext, d: &Dataset, subset: &[SourceId]) -> Self {
        let mut place = vec![(0, 0); d.sources.len()];
        for (slot, s) in subset.iter().enumerate() {
            if let Some(p) = place.get_mut(s.index()) {
                *p = mask_place(slot, subset.len());
            }
        }
        Self::build(ctx, d, &place, subset.len())
    }

    /// Build with per-thread dense partials over `n` members, `place`
    /// giving each source its member's [`mask_place`].
    ///
    /// A partition is taken [`MASK_BLOCK_EVENTS`] events at a time: one
    /// pass over the block's mention rows ORs each mention's member bit
    /// into its event's mask (⌈n / 64⌉ words, indexed by `event_row`
    /// less the block's first event; a source of no member ORs
    /// nothing), then one pass over the masks counts. A mask of at most
    /// one member — most events — is one add, into a spare slot when it
    /// is empty; only the others walk their pairs.
    // analyze: no_panic
    fn build(ctx: &ExecContext, d: &Dataset, place: &[(usize, u64)], n: usize) -> Self {
        let offsets = &d.event_index.offsets;
        let mentions: (&[u32], &[u32]) = (&d.mentions.event_row, &d.mentions.source);
        let partial = |events| mask_partition(offsets, events, mentions, place, n);
        let merged = event_scan(ctx, offsets, MASK_ROW_NS, partial, Merge::merged);
        merged.unwrap_or_else(|| CoReport { pairs: Matrix::zeros(n, n), event_counts: vec![0; n] })
    }

    /// Jaccard co-reporting between members `i` and `j` (0 when either
    /// reported nothing, and for `i == j`).
    pub fn jaccard(&self, i: usize, j: usize) -> f64 {
        jaccard_of(self.pairs.get(i, j), self.event_counts[i], self.event_counts[j])
    }

    /// The `n × n` Jaccard matrix of all members, diagonal zeroed (the
    /// clustering input).
    pub fn jaccard_matrix(&self) -> Matrix<f64> {
        let n = self.event_counts.len();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                m.set(i, j, self.jaccard(i, j));
            }
        }
        m
    }
}

/// `c_ij = e_ij / (e_i + e_j − e_ij)`, 0 when the denominator is.
fn jaccard_of(e_ij: u64, e_i: u64, e_j: u64) -> f64 {
    let e_ij = e_ij as f64;
    let denom = e_i as f64 + e_j as f64 - e_ij;
    if denom <= 0.0 {
        0.0
    } else {
        e_ij / denom
    }
}

/// Where member `m` of `n` sits in a block's masks: the offset of its
/// word and its bit, `(0, 0)` (no member) when `m` is not in `0..n`.
fn mask_place(m: usize, n: usize) -> (usize, u64) {
    if m < n {
        (m / 64 * MASK_BLOCK_EVENTS, 1 << (m % 64))
    } else {
        (0, 0)
    }
}

/// Events a [`CoReport`] mask block covers: 4 096 one-word masks are
/// 32 KiB, an L1's worth, and the block's mention rows are the CSR range
/// of its events.
pub const MASK_BLOCK_EVENTS: usize = 4096;

/// One [`event_scan`] partition of [`CoReport::build`]. The masks of a
/// block are word-major — word `w` of the block's `e`-th event is
/// `masks[w · MASK_BLOCK_EVENTS + e]` — and `place` gives each source
/// that offset and its bit (`(0, 0)` for no member in `0..n`).
// analyze: no_panic
fn mask_partition(
    offsets: &[u64],
    events: std::ops::Range<usize>,
    (event_rows, sources): (&[u32], &[u32]),
    place: &[(usize, u64)],
    n: usize,
) -> CoReport {
    let mut pairs = Matrix::<u64>::zeros(n, n);
    // The spare slot `n` counts the words that hold no member.
    let mut event_counts = vec![0u64; n + 1];
    let mut masks = vec![0u64; n.div_ceil(64) * MASK_BLOCK_EVENTS];
    for start in events.clone().step_by(MASK_BLOCK_EVENTS) {
        let end = (start + MASK_BLOCK_EVENTS).min(events.end);
        let rows = mention_rows(offsets, start..end);
        masks.fill(0);
        for (&event, &src) in rows_of(event_rows, &rows).iter().zip(rows_of(sources, &rows)) {
            let (word, bit) = place.get(src as usize).copied().unwrap_or((0, 0));
            if let Some(mask) = masks.get_mut(word + (event as usize).wrapping_sub(start)) {
                *mask |= bit;
            }
        }
        for (w, word) in masks.chunks(MASK_BLOCK_EVENTS).enumerate() {
            let word = word.get(..end - start).unwrap_or(&[]);
            count_word(word, 64 * w, &mut pairs, &mut event_counts);
            for (v, later) in masks.chunks(MASK_BLOCK_EVENTS).enumerate().skip(w + 1) {
                for (&a, &b) in word.iter().zip(later) {
                    if a != 0 && b != 0 {
                        add_pairs((a, 64 * w), (b, 64 * v), &mut pairs);
                    }
                }
            }
        }
    }
    event_counts.truncate(n);
    CoReport { pairs, event_counts }
}

/// Count one mask word of every event of a block (member `base + b` for
/// bit `b`): a word of at most one member is one add — into the spare
/// slot, the last of `event_counts`, when it is empty — and only the
/// others walk their members and pairs.
// analyze: no_panic
fn count_word(word: &[u64], base: usize, pairs: &mut Matrix<u64>, event_counts: &mut [u64]) {
    let spare = event_counts.len().saturating_sub(1);
    for &m in word {
        if m & m.wrapping_sub(1) == 0 {
            let only = if m == 0 { spare } else { base + m.trailing_zeros() as usize };
            if let Some(e) = event_counts.get_mut(only) {
                *e += 1;
            }
            continue;
        }
        let mut rest = m;
        while rest != 0 {
            let i = base + rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if let Some(e) = event_counts.get_mut(i) {
                *e += 1;
            }
            add_pairs((1, i), (rest, base), pairs);
        }
    }
}

/// Both cells of every pair of a member of `a` with a member of `b`: each
/// is a mask word with the member its bit 0 stands for.
// analyze: no_panic
fn add_pairs((a, a_base): (u64, usize), (b, b_base): (u64, usize), pairs: &mut Matrix<u64>) {
    let mut rest_a = a;
    while rest_a != 0 {
        let i = a_base + rest_a.trailing_zeros() as usize;
        rest_a &= rest_a - 1;
        let mut rest_b = b;
        while rest_b != 0 {
            let j = b_base + rest_b.trailing_zeros() as usize;
            rest_b &= rest_b - 1;
            pairs.bump(i, j);
            pairs.bump(j, i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdelt_columnar::DatasetBuilder;
    use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
    use gdelt_model::event::{ActionGeo, EventRecord};
    use gdelt_model::ids::EventId;
    use gdelt_model::mention::{MentionRecord, MentionType};
    use gdelt_model::time::{DateTime, GDELT_EPOCH};

    /// Three events: e1 covered by {a, b}, e2 by {a, b, c}, e3 by {a}.
    /// (a = a.com, b = b.co.uk, c = c.com.au)
    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new();
        for id in 1..=3u64 {
            b.add_event(EventRecord {
                id: EventId(id),
                day: GDELT_EPOCH,
                root: CameoRoot::new(1).unwrap(),
                event_code: "010".into(),
                actor1_country: String::new(),
                actor2_country: String::new(),
                quad_class: QuadClass::VerbalCooperation,
                goldstein: Goldstein::new(0.0).unwrap(),
                num_mentions: 0,
                num_sources: 0,
                num_articles: 0,
                avg_tone: 0.0,
                geo: ActionGeo::default(),
                date_added: DateTime::midnight(GDELT_EPOCH),
                source_url: "u".into(),
            });
        }
        let m = |event: u64, src: &str, delay: u32| MentionRecord {
            event_id: EventId(event),
            event_time: DateTime::midnight(GDELT_EPOCH),
            mention_time: DateTime::from_unix_seconds(
                DateTime::midnight(GDELT_EPOCH).to_unix_seconds() + i64::from(delay) * 900,
            ),
            mention_type: MentionType::Web,
            source_name: src.into(),
            url: format!("https://{src}/{event}"),
            confidence: 50,
            doc_tone: 0.0,
        };
        b.add_mention(m(1, "a.com", 0));
        b.add_mention(m(1, "b.co.uk", 1));
        b.add_mention(m(2, "a.com", 0));
        b.add_mention(m(2, "a.com", 5)); // duplicate article, must dedup
        b.add_mention(m(2, "b.co.uk", 2));
        b.add_mention(m(2, "c.com.au", 3));
        b.add_mention(m(3, "a.com", 0));
        b.build().0
    }

    /// The fixture's sources a, b, c, in that order.
    fn abc(d: &Dataset) -> [SourceId; 3] {
        ["a.com", "b.co.uk", "c.com.au"].map(|name| d.sources.lookup(name).unwrap())
    }

    fn ctx() -> ExecContext {
        ExecContext::builder().threads(2).build()
    }

    #[test]
    fn dense_counts_and_jaccard() {
        let d = dataset();
        let cr = CoReport::publishers(&ctx(), &d, &abc(&d));
        assert_eq!(cr.event_counts, vec![3, 2, 1]);
        assert_eq!(cr.pairs.get(0, 1), 2);
        assert_eq!(cr.pairs.get(1, 0), 2);
        assert_eq!(cr.pairs.get(0, 2), 1);
        // c_ab = 2 / (3 + 2 - 2) = 2/3.
        assert!((cr.jaccard(0, 1) - 2.0 / 3.0).abs() < 1e-12);
        // c_bc = 1 / (2 + 1 - 1) = 0.5.
        assert!((cr.jaccard(1, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicate_articles_count_once_per_event() {
        let d = dataset();
        let [a, _, _] = abc(&d);
        let cr = CoReport::publishers(&ctx(), &d, &[a]);
        // a.com published twice on event 2 but e_a counts events.
        assert_eq!(cr.event_counts, vec![3]);
    }

    #[test]
    fn sparse_matches_dense() {
        let d = gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(8)).0;
        let sparse = SparseCoReport::build(&ctx(), &d);
        // Every other source, from the last down: slot i is source s[i].
        let s: Vec<SourceId> = (0..d.sources.len() as u32).rev().step_by(2).map(SourceId).collect();
        let cr = CoReport::publishers(&ctx(), &d, &s);
        for (i, si) in s.iter().enumerate() {
            assert_eq!(cr.event_counts[i], sparse.event_counts[si.index()]);
            for (j, sj) in s.iter().enumerate().filter(|&(j, _)| j != i) {
                assert_eq!(cr.pairs.get(i, j), sparse.pair_count(si.index(), sj.index()));
                assert_eq!(cr.jaccard(i, j), sparse.jaccard(si.index(), sj.index()));
            }
        }
    }

    #[test]
    fn jaccard_submatrix_shape() {
        let d = dataset();
        let [a, b, _] = abc(&d);
        let sub = CoReport::publishers(&ctx(), &d, &[a, b]).jaccard_matrix();
        assert_eq!((sub.rows(), sub.cols()), (2, 2));
        assert_eq!((sub.get(0, 0), sub.get(1, 1)), (0.0, 0.0)); // diagonal zeroed
        assert!((sub.get(0, 1) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(sub.get(0, 1), sub.get(1, 0));
    }

    #[test]
    fn country_coreport_jaccard() {
        let d = dataset();
        let reg = gdelt_model::country::CountryRegistry::new();
        let cc = CoReport::countries(&ctx(), &d, reg.len());
        let us = reg.by_name("USA").index(); // a.com
        let uk = reg.by_name("UK").index(); // b.co.uk
        let au = reg.by_name("Australia").index(); // c.com.au
        assert_eq!(cc.event_counts[us], 3);
        assert_eq!(cc.event_counts[uk], 2);
        // e_us_uk = 2 → 2 / (3 + 2 - 2).
        assert!((cc.jaccard(us, uk) - 2.0 / 3.0).abs() < 1e-12);
        assert!((cc.jaccard(uk, au) - 0.5).abs() < 1e-12);
        assert_eq!(cc.jaccard(au, us), cc.jaccard(us, au));
    }

    // The registry has 64 countries, so no stored source reaches a second
    // mask word: give the sources of a synthetic corpus countries up to
    // 130 (and none) and count against sets, within a word, across
    // words, and across a partition edge.
    #[test]
    fn country_masks_span_words() {
        let mut d = gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(5)).0;
        const COUNTRIES: [u16; 8] = [u16::MAX, 0, 63, 64, 65, 127, 129, 130];
        for (s, c) in d.sources.country.iter_mut().enumerate() {
            *c = COUNTRIES[s % COUNTRIES.len()];
        }
        for n in [0usize, 1, 64, 65, 128, 130, 131] {
            let mut pairs = Matrix::<u64>::zeros(n, n);
            let mut event_counts = vec![0u64; n];
            for e in 0..d.events.len() {
                let countries: std::collections::BTreeSet<usize> = d
                    .mentions_of(e)
                    .map(|r| usize::from(d.sources.country[d.mentions.source[r] as usize]))
                    .filter(|&c| c < n)
                    .collect();
                for &i in &countries {
                    event_counts[i] += 1;
                    for &j in countries.iter().filter(|&&j| j != i) {
                        pairs.bump(i, j);
                    }
                }
            }
            let want = CoReport { pairs, event_counts };
            assert!(n < 65 || want.pairs.as_slice().iter().skip(64 * n).any(|&v| v > 0));
            for threads in [1, 3] {
                let ctx = ExecContext::builder().threads(threads).build();
                assert_eq!(CoReport::countries(&ctx, &d, n), want, "{n} countries");
            }
        }
    }

    #[test]
    fn empty_dataset_builds() {
        let d = Dataset::default();
        let sp = SparseCoReport::build(&ctx(), &d);
        assert!(sp.pairs.is_empty());
        assert_eq!(CoReport::publishers(&ctx(), &d, &[]).event_counts, Vec::<u64>::new());
        // A source the directory does not hold is a silent slot.
        let cr = CoReport::publishers(&ctx(), &d, &[SourceId(0), SourceId(7)]);
        assert_eq!(cr, CoReport { pairs: Matrix::zeros(2, 2), event_counts: vec![0; 2] });
        let cc = CoReport::countries(&ctx(), &d, 4);
        assert_eq!(cc.event_counts, vec![0; 4]);
    }

    #[test]
    fn jaccard_zero_for_silent_sources() {
        // Jaccard of a silent pair is 0 (denominator 0).
        let sp = SparseCoReport { pairs: HashMap::new(), event_counts: vec![0, 0] };
        assert_eq!(sp.jaccard(0, 1), 0.0);
        let d = dataset();
        let [a, _, _] = abc(&d);
        let cr = CoReport::publishers(&ctx(), &d, &[a, SourceId(u32::MAX)]);
        assert_eq!(cr.event_counts, vec![3, 0]);
        assert_eq!(cr.jaccard(0, 1), 0.0);
        assert_eq!(cr.jaccard(1, 1), 0.0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let d = gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(9)).0;
        let all: Vec<SourceId> = (0..d.sources.len() as u32).map(SourceId).collect();
        let build = |threads| {
            CoReport::publishers(&ExecContext::builder().threads(threads).build(), &d, &all)
        };
        assert_eq!(build(1), build(3));
    }
}
