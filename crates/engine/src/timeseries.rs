//! Quarterly time series — the aggregation behind Figs 3–6, 10 and 11.

use crate::chunk::{chunked_scan, SelMask};
use crate::exec::{ExecContext, Merge};
use crate::filter::Bitmap;
use gdelt_columnar::Dataset;
use gdelt_model::ids::SourceId;
use gdelt_model::time::Quarter;

/// A per-quarter series anchored at `base`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarterlySeries {
    /// Quarter of `values[0]`.
    pub base: Quarter,
    /// One value per consecutive quarter.
    pub values: Vec<f64>,
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

/// Inclusive linear-quarter range `(base, count)` covered by the dataset
/// (union of events and mentions), or `None` when empty.
///
/// Every time-series kernel calls this first, so it is one fused
/// min+max pass per column (branchless lane-wise reduction the
/// compiler autovectorizes) instead of separate `min()` and `max()`
/// traversals.
pub fn quarter_range(d: &Dataset) -> Option<(u16, usize)> {
    fn min_max(col: &[u16]) -> Option<(u16, u16)> {
        if col.is_empty() {
            return None;
        }
        let mut lo = u16::MAX;
        let mut hi = u16::MIN;
        for &q in col {
            lo = lo.min(q);
            hi = hi.max(q);
        }
        Some((lo, hi))
    }
    let spans = [min_max(&d.events.quarter), min_max(&d.mentions.quarter)];
    let lo = spans.iter().flatten().map(|s| s.0).min()?;
    let hi = spans.iter().flatten().map(|s| s.1).max()?;
    Some((lo, (hi - lo) as usize + 1))
}

fn series_from_counts(base: u16, counts: Vec<u64>) -> QuarterlySeries {
    QuarterlySeries {
        base: Quarter::from_linear(i32::from(base)),
        values: counts.into_iter().map(|c| c as f64).collect(),
    }
}

/// Chunked quarter histogram: counts rows per `quarters[row] - base`
/// slot directly from the column, without materializing a shifted key
/// column first. Quarters outside `base..base + n` are ignored.
// analyze: no_panic
fn count_quarters(ctx: &ExecContext, quarters: &[u16], base: u16, n: usize) -> Vec<u64> {
    let acc: Vec<u64> = chunked_scan(ctx, quarters.len(), |acc: &mut Vec<u64>, c| {
        if acc.is_empty() {
            acc.resize(n, 0);
        }
        for &q in c.slice(quarters) {
            if let Some(slot) = acc.get_mut(q.wrapping_sub(base) as usize) {
                *slot += 1;
            }
        }
    });
    if acc.is_empty() {
        vec![0; n]
    } else {
        acc
    }
}

/// Events observed per quarter (Fig 4).
pub fn events_per_quarter(ctx: &ExecContext, d: &Dataset) -> QuarterlySeries {
    let Some((base, n)) = quarter_range(d) else {
        return QuarterlySeries { base: Quarter { year: 2015, q: 1 }, values: Vec::new() };
    };
    series_from_counts(base, count_quarters(ctx, &d.events.quarter, base, n))
}

/// Articles (mentions) observed per quarter (Fig 5).
pub fn articles_per_quarter(ctx: &ExecContext, d: &Dataset) -> QuarterlySeries {
    let Some((base, n)) = quarter_range(d) else {
        return QuarterlySeries { base: Quarter { year: 2015, q: 1 }, values: Vec::new() };
    };
    series_from_counts(base, count_quarters(ctx, &d.mentions.quarter, base, n))
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
            // The kernels' empty-dataset anchor.
            return QuarterlySeries { base: Quarter { year: 2015, q: 1 }, values: Vec::new() };
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

/// Which sources published in each quarter — the ActiveSources kernel.
// analyze: no_panic
pub fn active_sources_partial(ctx: &ExecContext, d: &Dataset) -> ActiveSourcesPartial {
    let Some((base, n)) = quarter_range(d) else {
        return ActiveSourcesPartial::default();
    };
    let n_sources = d.sources.len();
    let blank = || ActiveSourcesPartial {
        base: i32::from(base),
        quarters: (0..n).map(|_| Bitmap::new(n_sources)).collect(),
    };
    let quarters = &d.mentions.quarter;
    let sources = &d.mentions.source;
    let scanned = chunked_scan(ctx, d.mentions.len(), |a: &mut ActiveSourcesPartial, c| {
        if a.quarters.is_empty() {
            *a = blank();
        }
        for (&q, &s) in c.slice(quarters).iter().zip(c.slice(sources)) {
            if let Some(bm) = a.quarters.get_mut(q.wrapping_sub(base) as usize) {
                bm.set(s as usize);
            }
        }
    });
    // Over the full span even with no mentions at all: the events still
    // cover `n` quarters.
    blank().merged(scanned)
}

/// Sources that published at least once in each quarter (Fig 3: only
/// about a third of tracked sources are active at a time).
pub fn active_sources_per_quarter(ctx: &ExecContext, d: &Dataset) -> QuarterlySeries {
    active_sources_partial(ctx, d).finalize()
}

/// Article counts per quarter for a selection of publishers (Fig 6).
/// Returns one series per requested source, in request order.
pub fn publisher_series(
    ctx: &ExecContext,
    d: &Dataset,
    publishers: &[SourceId],
) -> Vec<QuarterlySeries> {
    let Some((base, n)) = quarter_range(d) else {
        return publishers
            .iter()
            .map(|_| QuarterlySeries { base: Quarter { year: 2015, q: 1 }, values: Vec::new() })
            .collect();
    };
    // Map source id → slot; combined key = slot * n_quarters + quarter.
    let mut slot_of = std::collections::HashMap::new();
    for (i, s) in publishers.iter().enumerate() {
        slot_of.insert(s.0, i);
    }
    let quarters = &d.mentions.quarter;
    let sources = &d.mentions.source;
    let flat: Vec<u64> = chunked_scan(ctx, d.mentions.len(), |acc: &mut Vec<u64>, c| {
        if acc.is_empty() {
            acc.resize(publishers.len() * n, 0);
        }
        for (&q, &s) in c.slice(quarters).iter().zip(c.slice(sources)) {
            if let Some(&slot) = slot_of.get(&s) {
                if let Some(cell) = acc.get_mut(slot * n + q.wrapping_sub(base) as usize) {
                    *cell += 1;
                }
            }
        }
    });
    let flat = if flat.is_empty() { vec![0; publishers.len() * n] } else { flat };
    (0..publishers.len())
        .map(|slot| series_from_counts(base, flat[slot * n..(slot + 1) * n].to_vec()))
        .collect()
}

/// Articles per quarter with a publishing delay above `threshold`
/// intervals (Fig 11 uses 96 = 24 h).
pub fn late_articles_per_quarter(
    ctx: &ExecContext,
    d: &Dataset,
    threshold: u32,
) -> QuarterlySeries {
    let Some((base, n)) = quarter_range(d) else {
        return QuarterlySeries { base: Quarter { year: 2015, q: 1 }, values: Vec::new() };
    };
    // Fused chunk pass: one branchless selection over the delay column,
    // then a trailing-zeros walk bumping the quarter histogram — the
    // delay and quarter columns are each touched exactly once.
    let quarters = &d.mentions.quarter;
    let delays = &d.mentions.delay;
    let counts: Vec<u64> = chunked_scan(ctx, d.mentions.len(), |acc: &mut Vec<u64>, c| {
        if acc.is_empty() {
            acc.resize(n, 0);
        }
        let qs = c.slice(quarters);
        let m = SelMask::select(c.slice(delays), |dl| dl > threshold);
        m.for_each(|i| {
            if let Some(&q) = qs.get(i) {
                if let Some(slot) = acc.get_mut(q.wrapping_sub(base) as usize) {
                    *slot += 1;
                }
            }
        });
    });
    let counts = if counts.is_empty() { vec![0; n] } else { counts };
    series_from_counts(base, counts)
}

/// Average and median publishing delay per quarter (Fig 10a / 10b).
/// Medians are exact, computed from per-quarter delay histograms.
pub fn delay_per_quarter(ctx: &ExecContext, d: &Dataset) -> (QuarterlySeries, QuarterlySeries) {
    let empty = || QuarterlySeries { base: Quarter { year: 2015, q: 1 }, values: Vec::new() };
    let Some((base, n)) = quarter_range(d) else {
        return (empty(), empty());
    };
    let cap = crate::delay::MAX_TRACKED_DELAY as usize;

    #[derive(Default)]
    struct Hists {
        // hist[q][delay] (delay clamped to cap), plus per-quarter sums.
        hist: Vec<Vec<u32>>,
        sum: Vec<u64>,
        count: Vec<u64>,
    }
    impl Merge for Hists {
        fn merge(&mut self, o: Self) {
            if self.hist.is_empty() {
                *self = o;
                return;
            }
            if o.hist.is_empty() {
                return;
            }
            for (a, b) in self.hist.iter_mut().zip(o.hist) {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            }
            for (a, b) in self.sum.iter_mut().zip(o.sum) {
                *a += b;
            }
            for (a, b) in self.count.iter_mut().zip(o.count) {
                *a += b;
            }
        }
    }

    let quarters = &d.mentions.quarter;
    let delays = &d.mentions.delay;
    // One partial per thread (histograms are sizeable).
    let parts = gdelt_columnar::partition::partitions(d.mentions.len(), ctx.n_threads());
    let acc = ctx
        .map_reduce(
            parts,
            |p| {
                let mut h = Hists {
                    hist: vec![vec![0u32; cap + 1]; n],
                    sum: vec![0; n],
                    count: vec![0; n],
                };
                for c in crate::chunk::chunks_of(p.range()) {
                    for (&q, &dl) in c.slice(quarters).iter().zip(c.slice(delays)) {
                        let qi = q.wrapping_sub(base) as usize;
                        let (Some(hist), Some(sum), Some(count)) =
                            (h.hist.get_mut(qi), h.sum.get_mut(qi), h.count.get_mut(qi))
                        else {
                            continue;
                        };
                        if let Some(bucket) = hist.get_mut((dl as usize).min(cap)) {
                            *bucket += 1;
                        }
                        *sum += u64::from(dl);
                        *count += 1;
                    }
                }
                h
            },
            |mut a, b| {
                a.merge(b);
                a
            },
        )
        .unwrap_or_default();

    let (mut avg, mut med) = (vec![0f64; n], vec![0f64; n]);
    if !acc.hist.is_empty() {
        for q in 0..n {
            if acc.count[q] == 0 {
                continue;
            }
            avg[q] = acc.sum[q] as f64 / acc.count[q] as f64;
            // Lower-middle median from the cumulative histogram.
            let target = (acc.count[q] - 1) / 2;
            let mut seen = 0u64;
            for (dl, &c) in acc.hist[q].iter().enumerate() {
                seen += u64::from(c);
                if seen > target {
                    med[q] = dl as f64;
                    break;
                }
            }
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
        let (base, n) = quarter_range(&d).unwrap();
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
        let s = articles_per_quarter(&ctx(), &d);
        assert_eq!(s.values, vec![3.0, 2.0]);
    }

    #[test]
    fn active_sources_counts_distinct() {
        let d = dataset();
        let s = active_sources_per_quarter(&ctx(), &d);
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
        let p = active_sources_partial(&ctx(), &d);
        assert_eq!(p.quarters.len(), 2);
        assert_eq!(p.finalize().values, vec![0.0, 0.0]);
        assert!(ActiveSourcesPartial::default().finalize().is_empty());
    }

    #[test]
    fn publisher_series_selects_sources() {
        let d = dataset();
        let a = d.sources.lookup("a.com").unwrap();
        let c = d.sources.lookup("c.com.au").unwrap();
        let series = publisher_series(&ctx(), &d, &[a, c]);
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

    #[test]
    fn empty_dataset_yields_empty_series() {
        let d = Dataset::default();
        assert!(events_per_quarter(&ctx(), &d).is_empty());
        assert!(articles_per_quarter(&ctx(), &d).is_empty());
        assert!(active_sources_per_quarter(&ctx(), &d).is_empty());
        let (a, m) = delay_per_quarter(&ctx(), &d);
        assert!(a.is_empty() && m.is_empty());
    }

    #[test]
    fn parallel_matches_sequential() {
        let d = dataset();
        let seq = ExecContext::builder().threads(1).build();
        assert_eq!(events_per_quarter(&seq, &d), events_per_quarter(&ctx(), &d));
        assert_eq!(articles_per_quarter(&seq, &d), articles_per_quarter(&ctx(), &d));
        assert_eq!(delay_per_quarter(&seq, &d), delay_per_quarter(&ctx(), &d));
    }
}
