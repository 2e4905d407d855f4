//! Co-reporting analysis (paper §VI-B/C, Tables IV–V, Fig 7).
//!
//! For sources `i`, `j` the co-reporting factor is the Jaccard index of
//! their event sets: `c_ij = e_ij / (e_i + e_j − e_ij)`. The paper's key
//! storage decision is a **dense** pair matrix (~1.8 GB for all 21 k
//! sources) because each event with `k` reporters performs `k(k−1)/2`
//! updates and dense random increments beat any sparse structure. The
//! sparse structure stays as [`SparseCoReport`]: the oracle the dense
//! [`CoReport::build`] is checked against, and what the time-sliced
//! assembly of [`crate::sliced`] produces.
//!
//! Every builder takes its events from the CSR partitions of
//! [`crate::chunk::event_scan`]. What it does with them depends on the
//! universe of the set it needs: over the source directory (thousands of
//! ids, a handful per event) the distinct reporters of each event
//! ([`crate::chunk::for_each_event`]) are found by sort + dedup of its
//! slice ([`distinct_sources`]); over the country registry they are the
//! bits of one mask per event, built by a flat pass over the mention
//! rows that has no per-event loop ([`CountryCoReport::build`]).

use crate::chunk::{event_scan, for_each_event, mention_rows, rows_of};
use crate::exec::{ExecContext, Merge};
use crate::matrix::Matrix;
use gdelt_columnar::Dataset;
use gdelt_model::ids::{CountryId, SourceId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Dense co-reporting counts over all sources.
#[derive(Debug, Clone, PartialEq)]
pub struct CoReport {
    n: usize,
    /// Upper-triangle pair counts `e_ij` (i < j), row-major full matrix
    /// with only `i < j` cells populated.
    pairs: Matrix<u32>,
    /// Per-source event counts `e_i` (events the source reported on).
    pub event_counts: Vec<u64>,
}

impl CoReport {
    /// Build the dense matrix with one shared atomic accumulator — the
    /// strategy that scales to the full source population (relaxed
    /// increments, no cross-thread ordering needed).
    // analyze: no_panic
    pub fn build(ctx: &ExecContext, d: &Dataset) -> Self {
        let n = d.sources.len();
        let pairs: Vec<AtomicU32> = (0..n * n).map(|_| AtomicU32::new(0)).collect();
        let events_of: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();

        let offsets = &d.event_index.offsets;
        let count_events = |events| {
            let mut scratch: Vec<u32> = Vec::with_capacity(16);
            for_each_event(offsets, events, |_, rows| {
                let distinct = distinct_sources(&mut scratch, d.mentions.source.get(rows));
                for (a, &i) in distinct.iter().enumerate() {
                    // Relaxed: pure counters; the join that ends the scan
                    // publishes all increments before the loads below.
                    if let Some(e) = events_of.get(i as usize) {
                        e.fetch_add(1, Ordering::Relaxed);
                    }
                    for &j in distinct.get(a + 1..).unwrap_or(&[]) {
                        if let Some(pair) = pairs.get(i as usize * n + j as usize) {
                            pair.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        };
        event_scan(ctx, offsets, count_events, |(), ()| ());

        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                // analyze: allow(panic_path): i, j < n and pairs.len() = n * n, so i * n + j < pairs.len()
                m.set(i, j, pairs[i * n + j].load(Ordering::Relaxed));
            }
        }
        CoReport {
            n,
            pairs: m,
            event_counts: events_of.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
        }
    }

    /// Number of sources covered.
    pub fn n_sources(&self) -> usize {
        self.n
    }

    /// Pair count `e_ij` (symmetric; diagonal = `e_i`).
    #[inline]
    pub fn pair_count(&self, i: usize, j: usize) -> u64 {
        if i == j {
            self.event_counts[i]
        } else {
            let (a, b) = if i < j { (i, j) } else { (j, i) };
            u64::from(self.pairs.get(a, b))
        }
    }

    /// Jaccard co-reporting factor `c_ij` (0 when either source reported
    /// nothing).
    pub fn jaccard(&self, i: usize, j: usize) -> f64 {
        let e_ij = self.pair_count(i, j) as f64;
        let denom = self.event_counts[i] as f64 + self.event_counts[j] as f64 - e_ij;
        if denom <= 0.0 {
            0.0
        } else {
            e_ij / denom
        }
    }

    /// Jaccard submatrix for a source selection (Table IV companion /
    /// clustering input).
    pub fn jaccard_submatrix(&self, subset: &[SourceId]) -> Matrix<f64> {
        let k = subset.len();
        let mut m = Matrix::zeros(k, k);
        for (a, &sa) in subset.iter().enumerate() {
            for (b, &sb) in subset.iter().enumerate() {
                if a != b {
                    m.set(a, b, self.jaccard(sa.index(), sb.index()));
                }
            }
        }
        m
    }
}

/// Sparse co-reporting counts (hash-based) — the alternative the paper
/// rejects for the global matrix. It is the oracle [`CoReport::build`]
/// is checked against and the target of [`crate::sliced::assemble`],
/// the time-sliced strategy of §VI-B.
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
            |events| {
                let mut pairs: HashMap<(u32, u32), u32> = HashMap::new();
                let mut counts = vec![0u64; n];
                let mut scratch: Vec<u32> = Vec::with_capacity(16);
                for_each_event(offsets, events, |_, rows| {
                    let distinct = distinct_sources(&mut scratch, d.mentions.source.get(rows));
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

    /// Jaccard factor, identical semantics to the dense variant.
    pub fn jaccard(&self, i: usize, j: usize) -> f64 {
        let e_ij = self.pair_count(i, j) as f64;
        let denom = self.event_counts[i] as f64 + self.event_counts[j] as f64 - e_ij;
        if denom <= 0.0 {
            0.0
        } else {
            e_ij / denom
        }
    }
}

/// Country-level co-reporting (Table V): countries are super-sources;
/// `e_A` = events with at least one source from country `A`, `e_AB` =
/// events covered by both countries, combined as a Jaccard index.
#[derive(Debug, Clone, PartialEq)]
pub struct CountryCoReport {
    /// Pair counts (full symmetric matrix).
    pub pairs: Matrix<u64>,
    /// Per-country event counts.
    pub event_counts: Vec<u64>,
}

impl Merge for CountryCoReport {
    /// Elementwise addition: per-event logic never crosses a partition.
    fn merge(&mut self, other: Self) {
        self.pairs.merge(other.pairs);
        self.event_counts.merge(other.event_counts);
    }
}

impl CountryCoReport {
    /// Build with per-thread dense partials (country count is small).
    ///
    /// A partition is taken [`MASK_BLOCK_EVENTS`] events at a time: one
    /// pass over the block's mention rows ORs each mention's country bit
    /// into its event's mask (⌈n / 64⌉ words, indexed by `event_row`
    /// less the block's first event; a source of no country in `0..n`
    /// ORs nothing), then one pass over the masks counts. A mask of at
    /// most one country — most events — is one add, into a spare slot
    /// when it is empty; only the others walk their pairs.
    // analyze: no_panic
    pub fn build(ctx: &ExecContext, d: &Dataset, n_countries: usize) -> Self {
        let n = n_countries;
        let offsets = &d.event_index.offsets;
        // Per source: where its country's mask word starts, and its bit.
        let place: Vec<(usize, u64)> = d
            .sources
            .country
            .iter()
            .map(|&c| usize::from(c))
            .map(|c| if c < n { (c / 64 * MASK_BLOCK_EVENTS, 1 << (c % 64)) } else { (0, 0) })
            .collect();
        let mentions: (&[u32], &[u32]) = (&d.mentions.event_row, &d.mentions.source);
        let partial = |events| country_partition(offsets, events, mentions, &place, n);
        let merged = event_scan(ctx, offsets, partial, Merge::merged);
        merged.unwrap_or_else(|| CountryCoReport {
            pairs: Matrix::zeros(n, n),
            event_counts: vec![0; n],
        })
    }

    /// Jaccard co-reporting between two countries.
    pub fn jaccard(&self, a: CountryId, b: CountryId) -> f64 {
        let (i, j) = (a.index(), b.index());
        let e_ij = self.pairs.get(i, j) as f64;
        let denom = self.event_counts[i] as f64 + self.event_counts[j] as f64 - e_ij;
        if denom <= 0.0 {
            0.0
        } else {
            e_ij / denom
        }
    }
}

/// Events a [`CountryCoReport`] mask block covers: 4 096 one-word masks
/// are 32 KiB, an L1's worth, and the block's mention rows are the CSR
/// range of its events.
pub const MASK_BLOCK_EVENTS: usize = 4096;

/// One [`event_scan`] partition of [`CountryCoReport::build`]. The masks
/// of a block are word-major — word `w` of the block's `e`-th event is
/// `masks[w · MASK_BLOCK_EVENTS + e]` — and `place` gives each source
/// that offset and its bit (`(0, 0)` for no country in `0..n`).
// analyze: no_panic
fn country_partition(
    offsets: &[u64],
    events: std::ops::Range<usize>,
    (event_rows, sources): (&[u32], &[u32]),
    place: &[(usize, u64)],
    n: usize,
) -> CountryCoReport {
    let mut pairs = Matrix::<u64>::zeros(n, n);
    // The spare slot `n` counts the words that hold no country.
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
    CountryCoReport { pairs, event_counts }
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

/// One event's distinct reporters, ascending: its slice of the source
/// column sorted and deduplicated into `scratch` (whose capacity the
/// caller keeps across events).
// analyze: no_panic
pub(crate) fn distinct_sources<'a>(
    scratch: &'a mut Vec<u32>,
    sources: Option<&[u32]>,
) -> &'a [u32] {
    scratch.clear();
    scratch.extend_from_slice(sources.unwrap_or(&[]));
    scratch.sort_unstable();
    scratch.dedup();
    scratch
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

    fn ids(d: &Dataset) -> (usize, usize, usize) {
        (
            d.sources.lookup("a.com").unwrap().index(),
            d.sources.lookup("b.co.uk").unwrap().index(),
            d.sources.lookup("c.com.au").unwrap().index(),
        )
    }

    fn ctx() -> ExecContext {
        ExecContext::builder().threads(2).build()
    }

    #[test]
    fn dense_counts_and_jaccard() {
        let d = dataset();
        let (a, b, c) = ids(&d);
        let cr = CoReport::build(&ctx(), &d);
        assert_eq!(cr.event_counts[a], 3);
        assert_eq!(cr.event_counts[b], 2);
        assert_eq!(cr.event_counts[c], 1);
        assert_eq!(cr.pair_count(a, b), 2);
        assert_eq!(cr.pair_count(b, a), 2);
        assert_eq!(cr.pair_count(a, c), 1);
        // c_ab = 2 / (3 + 2 - 2) = 2/3.
        assert!((cr.jaccard(a, b) - 2.0 / 3.0).abs() < 1e-12);
        // c_bc = 1 / (2 + 1 - 1) = 0.5.
        assert!((cr.jaccard(b, c) - 0.5).abs() < 1e-12);
        assert_eq!(cr.n_sources(), 3);
    }

    #[test]
    fn duplicate_articles_count_once_per_event() {
        let d = dataset();
        let (a, _, _) = ids(&d);
        let cr = CoReport::build(&ctx(), &d);
        // a.com published twice on event 2 but e_a counts events.
        assert_eq!(cr.event_counts[a], 3);
    }

    #[test]
    fn sparse_matches_dense() {
        let d = dataset();
        let (a, b, c) = ids(&d);
        let dense = CoReport::build(&ctx(), &d);
        let sparse = SparseCoReport::build(&ctx(), &d);
        for &(i, j) in &[(a, b), (a, c), (b, c)] {
            assert_eq!(dense.pair_count(i, j), sparse.pair_count(i, j));
            assert!((dense.jaccard(i, j) - sparse.jaccard(i, j)).abs() < 1e-12);
        }
        assert_eq!(dense.event_counts, sparse.event_counts);
    }

    #[test]
    fn jaccard_submatrix_shape() {
        let d = dataset();
        let (a, b, _) = ids(&d);
        let cr = CoReport::build(&ctx(), &d);
        let sub = cr.jaccard_submatrix(&[SourceId(a as u32), SourceId(b as u32)]);
        assert_eq!(sub.rows(), 2);
        assert_eq!(sub.get(0, 0), 0.0); // diagonal zeroed
        assert!((sub.get(0, 1) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(sub.get(0, 1), sub.get(1, 0));
    }

    #[test]
    fn country_coreport_jaccard() {
        let d = dataset();
        let reg = gdelt_model::country::CountryRegistry::new();
        let cc = CountryCoReport::build(&ctx(), &d, reg.len());
        let us = reg.by_name("USA"); // a.com
        let uk = reg.by_name("UK"); // b.co.uk
        let au = reg.by_name("Australia"); // c.com.au
        assert_eq!(cc.event_counts[us.index()], 3);
        assert_eq!(cc.event_counts[uk.index()], 2);
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
            let want = CountryCoReport { pairs, event_counts };
            assert!(n < 65 || want.pairs.as_slice().iter().skip(64 * n).any(|&v| v > 0));
            for threads in [1, 3] {
                let ctx = ExecContext::builder().threads(threads).build();
                assert_eq!(CountryCoReport::build(&ctx, &d, n), want, "{n} countries");
            }
        }
    }

    #[test]
    fn empty_dataset_builds() {
        let d = Dataset::default();
        let cr = CoReport::build(&ctx(), &d);
        assert_eq!(cr.n_sources(), 0);
        let sp = SparseCoReport::build(&ctx(), &d);
        assert!(sp.pairs.is_empty());
        let cc = CountryCoReport::build(&ctx(), &d, 4);
        assert_eq!(cc.event_counts, vec![0; 4]);
    }

    #[test]
    fn jaccard_zero_for_silent_sources() {
        let d = dataset();
        let cr = CoReport::build(&ctx(), &d);
        // Jaccard with oneself of a silent pair is 0 (denominator 0).
        let sp = SparseCoReport { pairs: HashMap::new(), event_counts: vec![0, 0] };
        assert_eq!(sp.jaccard(0, 1), 0.0);
        let (a, _, _) = ids(&d);
        // Self-Jaccard is 1 by definition here (e_ii = e_i).
        assert!((cr.jaccard(a, a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_matches_sequential() {
        let d = dataset();
        let seq = CoReport::build(&ExecContext::builder().threads(1).build(), &d);
        let par = CoReport::build(&ctx(), &d);
        assert_eq!(seq, par);
    }
}
