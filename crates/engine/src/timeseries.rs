//! Quarterly time series — the aggregation behind Figs 3–6, 10 and 11.
//!
//! Events and LateArticles are one [`partition_scan`] each over the
//! table they count. Articles, ActiveSources and the per-publisher
//! series (Fig 6) scan nothing: they read the dataset's mentions per
//! (quarter, source) ([`Dataset::source_quarters`], counted once per
//! dataset and extended by appends), O(sources · quarters) cells a
//! query. Every partial is anchored at the dataset's quarter span
//! ([`Dataset::quarter_span`], found once per dataset over both tables),
//! so the partitions of one dataset merge slot by slot; shard partials,
//! each at its own shard's span, align in the merge.

use crate::aggregate::DenseLanes;
use crate::chunk::{chunks_of, partition_scan, rows_of, SelMask, CHUNK_ROWS};
use crate::exec::{ExecContext, Merge};
use crate::filter::Bitmap;
use gdelt_columnar::Dataset;
use gdelt_model::ids::SourceId;
use gdelt_model::time::Quarter;
use std::ops::Range;

/// A per-quarter series anchored at `base`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarterlySeries {
    /// Quarter of `values[0]`.
    pub base: Quarter,
    /// One value per consecutive quarter.
    pub values: Vec<f64>,
}

impl Default for QuarterlySeries {
    /// The empty series, at the kernels' empty-dataset anchor.
    fn default() -> Self {
        QuarterlySeries { base: Quarter { year: 2015, q: 1 }, values: Vec::new() }
    }
}

impl QuarterlySeries {
    /// Iterate `(quarter, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Quarter, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (Quarter::from_linear(self.base.linear() + i as i32), v))
    }

    /// Number of quarters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the series has no quarters.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Fold per-quarter `other` (anchored at linear quarter `other_base`)
/// into `slots` (anchored at `*base`), first widening `slots` with
/// `blank()` to the union of the two spans. An empty side is the
/// identity — the one alignment rule behind every quarterly merge.
fn merge_aligned<T>(
    (base, slots): (&mut i32, &mut Vec<T>),
    (other_base, other): (i32, Vec<T>),
    blank: impl Fn() -> T,
    fold: impl Fn(&mut T, T),
) {
    if other.is_empty() {
        return;
    }
    if slots.is_empty() {
        (*base, *slots) = (other_base, other);
        return;
    }
    let lead = (*base - other_base).max(0) as usize;
    slots.splice(0..0, (0..lead).map(|_| blank()));
    *base -= lead as i32;
    let at = (other_base - *base) as usize;
    if slots.len() < at + other.len() {
        slots.resize_with(at + other.len(), &blank);
    }
    for (slot, v) in slots.iter_mut().skip(at).zip(other) {
        fold(slot, v);
    }
}

impl Merge for QuarterlySeries {
    /// Base-aligned addition of two count series. Values are
    /// integer-valued f64 counts, so the sum is exact and does not
    /// depend on merge order.
    fn merge(&mut self, other: Self) {
        let mut base = self.base.linear();
        let theirs = (other.base.linear(), other.values);
        merge_aligned((&mut base, &mut self.values), theirs, || 0.0, |a, b| *a += b);
        self.base = Quarter::from_linear(base);
    }
}

fn series_from_counts(base: u16, counts: Vec<u64>) -> QuarterlySeries {
    QuarterlySeries {
        base: Quarter::from_linear(i32::from(base)),
        values: counts.into_iter().map(|c| c as f64).collect(),
    }
}

/// The count-series kernel: `count` fills the lanes from its `rows`
/// rows of the counted table at `row_ns` each, slot 0 being quarter
/// `base`, the first of the dataset's span. A dataset with no quarter
/// in either table answers the merge identity.
// analyze: no_panic
fn count_quarters(
    ctx: &ExecContext,
    d: &Dataset,
    rows: usize,
    row_ns: f64,
    count: impl Fn(&mut DenseLanes, usize, Range<usize>) + Sync + Send,
) -> QuarterlySeries {
    let Some((base, n)) = d.quarter_span() else { return QuarterlySeries::default() };
    let fill = |rows| {
        let mut lanes = DenseLanes::new(n);
        count(&mut lanes, usize::from(base), rows);
        series_from_counts(base, lanes.sums())
    };
    partition_scan(ctx, rows, row_ns, fill, Merge::merged)
}

/// Events observed per quarter (Fig 4).
pub(crate) fn events_per_quarter(ctx: &ExecContext, d: &Dataset) -> QuarterlySeries {
    // 0.06–0.11 ns an event on one thread.
    count_quarters(ctx, d, d.events.len(), 0.08, |lanes, base, rows| {
        lanes.count(rows_of(&d.events.quarter, &rows), base);
    })
}

/// Articles (mentions) observed per quarter (Fig 5): the row sums of
/// the dataset's [`SourceQuarters`](gdelt_columnar::SourceQuarters),
/// placed in its quarter span.
pub(crate) fn articles_per_quarter(d: &Dataset) -> QuarterlySeries {
    let Some((base, n)) = d.quarter_span() else { return QuarterlySeries::default() };
    let mut counts = vec![0u64; n];
    for (q, articles) in d.source_quarters().per_quarter() {
        if let Some(count) = counts.get_mut(usize::from(q.wrapping_sub(base))) {
            *count += articles;
        }
    }
    series_from_counts(base, counts)
}

/// The ActiveSources partial: one source bitmap per quarter. Distinct
/// counts cannot be summed across disjoint row sets; sets can be
/// unioned, and [`ActiveSourcesPartial::finalize`] counts them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ActiveSourcesPartial {
    /// Linear quarter index of `quarters[0]` (meaningless when empty).
    pub base: i32,
    /// One bitmap over the source directory per quarter.
    pub quarters: Vec<Bitmap>,
}

impl ActiveSourcesPartial {
    /// Distinct sources per quarter.
    pub fn finalize(&self) -> QuarterlySeries {
        if self.quarters.is_empty() {
            return QuarterlySeries::default();
        }
        QuarterlySeries {
            base: Quarter::from_linear(self.base),
            values: self.quarters.iter().map(|bm| bm.count() as f64).collect(),
        }
    }
}

impl Merge for ActiveSourcesPartial {
    /// Base-aligned OR.
    fn merge(&mut self, other: Self) {
        let n_sources = self.quarters.first().map_or(0, Bitmap::len);
        let theirs = (other.base, other.quarters);
        let blank = || Bitmap::new(n_sources);
        merge_aligned((&mut self.base, &mut self.quarters), theirs, blank, |a, b| a.or(&b));
    }
}

/// Which sources published in each quarter — the ActiveSources kernel:
/// the nonzero cells of the dataset's
/// [`SourceQuarters`](gdelt_columnar::SourceQuarters), one source
/// bitmap per quarter of its span. With no mentions at all the events
/// still span their quarters.
pub(crate) fn active_sources_partial(d: &Dataset) -> ActiveSourcesPartial {
    let Some((base, n)) = d.quarter_span() else { return ActiveSourcesPartial::default() };
    let n_sources = d.sources.len();
    let mut quarters = vec![Bitmap::new(n_sources); n];
    for (q, row) in d.source_quarters().by_source() {
        let Some(active) = quarters.get_mut(usize::from(q.wrapping_sub(base))) else { continue };
        // The row's nonzero cells, a chunk of words at a time.
        let mut words = Vec::with_capacity(n_sources.div_ceil(64));
        for cells in row.chunks(CHUNK_ROWS) {
            let nonzero = SelMask::select(cells, |c| c > 0);
            words.extend(nonzero.words().iter().take(cells.len().div_ceil(64)));
        }
        *active = Bitmap::from_words(words, n_sources);
    }
    ActiveSourcesPartial { base: i32::from(base), quarters }
}

/// Article counts per quarter for a selection of publishers (Fig 6):
/// their columns of the dataset's
/// [`SourceQuarters`](gdelt_columnar::SourceQuarters), in its quarter
/// span. Returns one series per requested source, in request order.
pub fn publisher_series(d: &Dataset, publishers: &[SourceId]) -> Vec<QuarterlySeries> {
    let Some((base, n)) = d.quarter_span() else {
        // An empty dataset still answers with one (empty) series per request.
        return vec![QuarterlySeries::default(); publishers.len()];
    };
    let mut counts = vec![vec![0u64; n]; publishers.len()];
    for (q, row) in d.source_quarters().by_source() {
        let at = usize::from(q.wrapping_sub(base));
        for (series, s) in counts.iter_mut().zip(publishers) {
            if let (Some(count), Some(&c)) = (series.get_mut(at), row.get(s.index())) {
                *count += c;
            }
        }
    }
    counts.into_iter().map(|c| series_from_counts(base, c)).collect()
}

/// Articles per quarter with a publishing delay above `threshold`
/// intervals (Fig 11 uses 96 = 24 h).
pub(crate) fn late_articles_per_quarter(
    ctx: &ExecContext,
    d: &Dataset,
    threshold: u32,
) -> QuarterlySeries {
    // Fused chunk pass: one branchless selection over the delay column,
    // then the quarter count weighted by its words, while the chunk is
    // in L1.
    // 0.33–0.44 ns a mention on one thread.
    count_quarters(ctx, d, d.mentions.len(), 0.4, |lanes, base, rows| {
        for c in chunks_of(rows) {
            let late = SelMask::select(c.slice(&d.mentions.delay), |dl| dl > threshold);
            lanes.count_selected(c.slice(&d.mentions.quarter), base, &late);
        }
    })
}

/// Delays below this many intervals are counted per quarter in a dense
/// window; the rest (≈ 1.4 % on the calibrated corpora) are kept as
/// `(quarter, delay)` pairs and sorted once the partials are merged —
/// the window and sort of [`crate::delay`]'s histograms, so a partial is
/// a few KiB a quarter and not a year of cells.
const DELAY_WINDOW: usize = 1024;

/// One row range's delays by quarter slot: the window counts, the
/// delays past it, and each quarter's sum and count.
#[derive(Default)]
struct QuarterDelays {
    /// `window[q · DELAY_WINDOW + delay]` for `delay < DELAY_WINDOW`.
    window: Vec<u64>,
    /// `(quarter slot, delay)` of every delay at or past the window.
    late: Vec<(u32, u32)>,
    sum: Vec<u64>,
    count: Vec<u64>,
}

impl QuarterDelays {
    /// Count the co-sliced `quarters` / `delays` rows into `n` quarter
    /// slots from `base`; a quarter outside them is dropped.
    // analyze: no_panic
    fn of_rows(base: u16, n: usize, quarters: &[u16], delays: &[u32]) -> Self {
        let mut h = QuarterDelays {
            window: vec![0; n * DELAY_WINDOW],
            late: Vec::new(),
            sum: vec![0; n],
            count: vec![0; n],
        };
        for (&q, &dl) in quarters.iter().zip(delays) {
            let qi = usize::from(q.wrapping_sub(base));
            let (Some(sum), Some(count)) = (h.sum.get_mut(qi), h.count.get_mut(qi)) else {
                continue;
            };
            *sum += u64::from(dl);
            *count += 1;
            match h.window.get_mut(qi * DELAY_WINDOW + dl as usize) {
                Some(cell) if (dl as usize) < DELAY_WINDOW => *cell += 1,
                _ => h.late.push((qi as u32, dl)),
            }
        }
        h
    }

    /// The lower-middle median of quarter `qi`, clamped to
    /// [`crate::delay::MAX_TRACKED_DELAY`]: the window's cells first,
    /// then `late`, the quarter's delays past the window in order.
    // analyze: no_panic
    fn median(&self, qi: usize, late: &[(u32, u32)]) -> u32 {
        let target = self.count.get(qi).map_or(0, |c| c.saturating_sub(1) / 2);
        let cells = self.window.get(qi * DELAY_WINDOW..(qi + 1) * DELAY_WINDOW).unwrap_or(&[]);
        let mut seen = 0u64;
        for (dl, &c) in cells.iter().enumerate() {
            seen += c;
            if seen > target {
                return dl as u32;
            }
        }
        let past = target.saturating_sub(seen) as usize;
        late.get(past).map_or(0, |&(_, dl)| dl.min(crate::delay::MAX_TRACKED_DELAY))
    }
}

impl Merge for QuarterDelays {
    /// Cellwise addition; a range with no rows (an empty partial) is
    /// the identity.
    fn merge(&mut self, other: Self) {
        if self.window.is_empty() {
            *self = other;
            return;
        }
        for (a, b) in self.window.iter_mut().zip(other.window) {
            *a += b;
        }
        self.late.extend(other.late);
        self.sum.merge(other.sum);
        self.count.merge(other.count);
    }
}

/// Average and median publishing delay per quarter (Fig 10a / 10b).
/// Medians are exact (delays clamped at
/// [`crate::delay::MAX_TRACKED_DELAY`]): one [`partition_scan`] counts
/// each range's delays per quarter, and the delays past the window are
/// sorted once after the merge.
pub fn delay_per_quarter(ctx: &ExecContext, d: &Dataset) -> (QuarterlySeries, QuarterlySeries) {
    let Some((base, n)) = d.quarter_span() else {
        return Default::default();
    };
    let of_rows = |rows: Range<usize>| {
        let (quarters, delays) =
            (rows_of(&d.mentions.quarter, &rows), rows_of(&d.mentions.delay, &rows));
        QuarterDelays::of_rows(base, n, quarters, delays)
    };
    // 2.8–3.1 ns a mention on one thread.
    let mut acc = partition_scan(ctx, d.mentions.len(), 3.0, of_rows, Merge::merged);
    acc.late.sort_unstable();

    let (mut avg, mut med) = (vec![0f64; n], vec![0f64; n]);
    let mut late = acc.late.as_slice();
    for (qi, ((avg, med), (&sum, &count))) in
        avg.iter_mut().zip(&mut med).zip(acc.sum.iter().zip(&acc.count)).enumerate()
    {
        let (mine, rest) = late.split_at(late.partition_point(|&(q, _)| q as usize == qi));
        late = rest;
        if count > 0 {
            *avg = sum as f64 / count as f64;
            *med = f64::from(acc.median(qi, mine));
        }
    }
    let base_q = Quarter::from_linear(i32::from(base));
    (QuarterlySeries { base: base_q, values: avg }, QuarterlySeries { base: base_q, values: med })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdelt_columnar::DatasetBuilder;
    use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
    use gdelt_model::event::{ActionGeo, EventRecord};
    use gdelt_model::ids::EventId;
    use gdelt_model::mention::{MentionRecord, MentionType};
    use gdelt_model::time::{Date, DateTime};

    /// Small dataset: events in 2015Q2 and 2015Q3, mentions with known
    /// delays and sources.
    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new();
        let mk_event = |id: u64, day: Date| EventRecord {
            id: EventId(id),
            day,
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
            date_added: DateTime::midnight(day),
            source_url: "u".into(),
        };
        let mk_mention = |id: u64, day: Date, delay_iv: u32, src: &str| MentionRecord {
            event_id: EventId(id),
            event_time: DateTime::midnight(day),
            mention_time: DateTime::from_unix_seconds(
                DateTime::midnight(day).to_unix_seconds() + i64::from(delay_iv) * 900,
            ),
            mention_type: MentionType::Web,
            source_name: src.into(),
            url: format!("https://{src}/{id}"),
            confidence: 50,
            doc_tone: 0.0,
        };
        let q2 = Date { year: 2015, month: 5, day: 10 };
        let q3 = Date { year: 2015, month: 8, day: 10 };
        b.add_event(mk_event(1, q2));
        b.add_event(mk_event(2, q2));
        b.add_event(mk_event(3, q3));
        b.add_mention(mk_mention(1, q2, 0, "a.com"));
        b.add_mention(mk_mention(1, q2, 10, "b.co.uk"));
        b.add_mention(mk_mention(2, q2, 20, "a.com"));
        b.add_mention(mk_mention(3, q3, 100, "a.com"));
        b.add_mention(mk_mention(3, q3, 200, "c.com.au"));
        b.build().0
    }

    fn ctx() -> ExecContext {
        ExecContext::builder().threads(2).build()
    }

    #[test]
    fn quarter_range_spans_data() {
        let d = dataset();
        let (base, n) = d.quarter_span().unwrap();
        assert_eq!(Quarter::from_linear(i32::from(base)), Quarter { year: 2015, q: 2 });
        assert_eq!(n, 2);
    }

    #[test]
    fn events_per_quarter_counts() {
        let d = dataset();
        let s = events_per_quarter(&ctx(), &d);
        assert_eq!(s.values, vec![2.0, 1.0]);
        assert_eq!(s.base, Quarter { year: 2015, q: 2 });
        let pairs: Vec<(Quarter, f64)> = s.iter().collect();
        assert_eq!(pairs[1].0, Quarter { year: 2015, q: 3 });
    }

    #[test]
    fn articles_per_quarter_counts() {
        let d = dataset();
        let s = articles_per_quarter(&d);
        assert_eq!(s.values, vec![3.0, 2.0]);
    }

    #[test]
    fn active_sources_counts_distinct() {
        let d = dataset();
        let s = active_sources_partial(&d).finalize();
        // Q2: a.com + b.co.uk; Q3: a.com + c.com.au.
        assert_eq!(s.values, vec![2.0, 2.0]);
    }

    #[test]
    fn active_partial_merge_unions_over_the_joint_span() {
        let bits = |set: &[usize]| {
            let mut bm = Bitmap::new(3);
            set.iter().for_each(|&i| bm.set(i));
            bm
        };
        let late = ActiveSourcesPartial { base: 7, quarters: vec![bits(&[0]), bits(&[1])] };
        let early = ActiveSourcesPartial { base: 4, quarters: vec![bits(&[2]), bits(&[])] };
        let overlap = ActiveSourcesPartial { base: 7, quarters: vec![bits(&[0, 2])] };
        let expect = ActiveSourcesPartial {
            base: 4,
            quarters: vec![bits(&[2]), bits(&[]), bits(&[]), bits(&[0, 2]), bits(&[1])],
        };
        // Every merge order widens to the same span and the same sets.
        for order in
            [[&late, &early, &overlap], [&overlap, &late, &early], [&early, &overlap, &late]]
        {
            let mut acc = ActiveSourcesPartial::default();
            for p in order {
                acc.merge(p.clone());
            }
            assert_eq!(acc, expect);
        }
        assert_eq!(expect.finalize().values, vec![1.0, 0.0, 0.0, 2.0, 1.0]);
        assert_eq!(expect.finalize().base, Quarter::from_linear(4));
    }

    #[test]
    fn active_partial_spans_event_quarters_without_mentions() {
        let mut d = dataset();
        d.mentions = Default::default();
        let p = active_sources_partial(&d);
        assert_eq!(p.quarters.len(), 2);
        assert_eq!(p.finalize().values, vec![0.0, 0.0]);
        assert!(ActiveSourcesPartial::default().finalize().is_empty());
    }

    #[test]
    fn publisher_series_selects_sources() {
        let d = dataset();
        let a = d.sources.lookup("a.com").unwrap();
        let c = d.sources.lookup("c.com.au").unwrap();
        let series = publisher_series(&d, &[a, c]);
        assert_eq!(series[0].values, vec![2.0, 1.0]);
        assert_eq!(series[1].values, vec![0.0, 1.0]);
    }

    #[test]
    fn late_articles_threshold() {
        let d = dataset();
        let s = late_articles_per_quarter(&ctx(), &d, 96);
        assert_eq!(s.values, vec![0.0, 2.0]);
        let s = late_articles_per_quarter(&ctx(), &d, 15);
        assert_eq!(s.values, vec![1.0, 2.0]);
    }

    #[test]
    fn delay_series_mean_and_median() {
        let d = dataset();
        let (avg, med) = delay_per_quarter(&ctx(), &d);
        // Q2 delays: 0, 10, 20 → mean 10, median 10.
        assert!((avg.values[0] - 10.0).abs() < 1e-9);
        assert_eq!(med.values[0], 10.0);
        // Q3 delays: 100, 200 → mean 150, median (lower-middle) 100.
        assert!((avg.values[1] - 150.0).abs() < 1e-9);
        assert_eq!(med.values[1], 100.0);
    }

    /// The previous `delay_per_quarter`, one thread and one dense
    /// histogram of every clamped delay per quarter: the oracle.
    fn dense_delay_per_quarter(d: &Dataset) -> (QuarterlySeries, QuarterlySeries) {
        let (base, n) = d.quarter_span().unwrap();
        let cap = crate::delay::MAX_TRACKED_DELAY as usize;
        let mut hist = vec![vec![0u64; cap + 1]; n];
        let (mut sum, mut count) = (vec![0u64; n], vec![0u64; n]);
        for (&q, &dl) in d.mentions.quarter.iter().zip(d.mentions.delay.iter()) {
            let qi = usize::from(q - base);
            hist[qi][(dl as usize).min(cap)] += 1;
            sum[qi] += u64::from(dl);
            count[qi] += 1;
        }
        let (mut avg, mut med) = (vec![0f64; n], vec![0f64; n]);
        for q in (0..n).filter(|&q| count[q] > 0) {
            avg[q] = sum[q] as f64 / count[q] as f64;
            let mut seen = 0;
            let at = hist[q].iter().position(|&c| {
                seen += c;
                seen > (count[q] - 1) / 2
            });
            med[q] = at.unwrap() as f64;
        }
        let base = Quarter::from_linear(i32::from(base));
        (QuarterlySeries { base, values: avg }, QuarterlySeries { base, values: med })
    }

    #[test]
    fn delay_series_on_the_scan_driver_match_the_dense_histograms() {
        // Ranges that merge: per quarter a different mix of window
        // delays, delays past the window and past a year, and one
        // quarter with no mentions at all.
        let rows = 22_345;
        let mut d = Dataset::default();
        let quarter = |r: usize| [40u16, 41, 43, 44, 45][r * 7 % 5];
        let delay = |r: usize| match (r * 31 + r / 1_000) % 97 {
            0 => 35_135 + (r % 3) as u32 * 40_000,
            1..=3 => 1_024 + (r % 5_000) as u32,
            4 => 1_023,
            v if usize::from(quarter(r)) == 45 => 2_000 + v as u32,
            v => (v % 96) as u32,
        };
        d.mentions.event_row = (0..rows).map(|_| 0).collect();
        d.mentions.quarter = (0..rows).map(quarter).collect();
        d.mentions.delay = (0..rows).map(delay).collect();
        let want = dense_delay_per_quarter(&d);
        assert_eq!(want.0.values[2], 0.0, "quarter 42 has no mentions");
        assert!(want.1.values[5] > 1_024.0, "quarter 45's median is past the window");
        for threads in 1..=3 {
            let ctx = ExecContext::builder().threads(threads).build();
            assert_eq!(delay_per_quarter(&ctx, &d), want, "{threads} thread(s)");
        }
        // On the small corpus, too.
        let small = dataset();
        assert_eq!(delay_per_quarter(&ctx(), &small), dense_delay_per_quarter(&small));
    }

    #[test]
    fn empty_dataset_yields_empty_series() {
        let d = Dataset::default();
        assert!(events_per_quarter(&ctx(), &d).is_empty());
        assert!(articles_per_quarter(&d).is_empty());
        assert!(active_sources_partial(&d).finalize().is_empty());
        let (a, m) = delay_per_quarter(&ctx(), &d);
        assert!(a.is_empty() && m.is_empty());
    }

    #[test]
    fn parallel_matches_sequential() {
        let d = dataset();
        let seq = ExecContext::builder().threads(1).build();
        assert_eq!(events_per_quarter(&seq, &d), events_per_quarter(&ctx(), &d));
        assert_eq!(delay_per_quarter(&seq, &d), delay_per_quarter(&ctx(), &d));
    }
}
