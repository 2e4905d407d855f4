//! Restricted dataset views: time windows and row predicates.
//!
//! The paper motivates the system with ad-hoc investigations ("a simple
//! test query looking for mentions of a politician in a short span of
//! time" cost a terabyte scan on BigQuery, §II). The engine's answer is
//! a cheap, reusable *view*: a bitmap of selected mention rows plus the
//! quarter window it came from, against which the aggregate operators
//! run without copying any column data.

use crate::aggregate::MinMaxSum;
use crate::exec::ExecContext;
use crate::filter::Bitmap;
use gdelt_columnar::table::NO_EVENT_ROW;
use gdelt_columnar::Dataset;
use gdelt_model::ids::{CountryId, SourceId};
use gdelt_model::time::Quarter;

/// A selection of mention rows over a dataset.
pub struct MentionView<'a> {
    /// The underlying dataset.
    pub dataset: &'a Dataset,
    /// Selected rows.
    pub rows: Bitmap,
}

impl<'a> MentionView<'a> {
    /// Everything — the trivial view.
    pub fn all(ctx: &ExecContext, dataset: &'a Dataset) -> Self {
        let rows = Bitmap::fill(ctx, dataset.mentions.len(), |_| true);
        MentionView { dataset, rows }
    }

    /// Mentions scraped within `[from, to]` (inclusive quarters) — a
    /// direct word-level range scan over the quarter column.
    pub fn time_window(
        ctx: &ExecContext,
        dataset: &'a Dataset,
        from: Quarter,
        to: Quarter,
    ) -> Self {
        let (lo, hi) = (from.linear() as u16, to.linear() as u16);
        let rows = Bitmap::fill_range(ctx, &dataset.mentions.quarter, lo, hi);
        MentionView { dataset, rows }
    }

    /// Arbitrary predicate view.
    pub fn filter(
        ctx: &ExecContext,
        dataset: &'a Dataset,
        pred: impl Fn(usize) -> bool + Sync + Send,
    ) -> Self {
        let rows = Bitmap::fill(ctx, dataset.mentions.len(), pred);
        MentionView { dataset, rows }
    }

    /// Intersect with another predicate (e.g. stack a confidence floor
    /// on a time window).
    pub fn and(mut self, ctx: &ExecContext, pred: impl Fn(usize) -> bool + Sync + Send) -> Self {
        let extra = Bitmap::fill(ctx, self.dataset.mentions.len(), pred);
        self.rows.and(&extra);
        self
    }

    /// Selected row count.
    pub fn len(&self) -> usize {
        self.rows.count()
    }

    /// True if nothing selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Articles per source within the view — a masked word-walk over
    /// the selection, touching only selected rows of the source column.
    pub fn articles_by_source(&self, ctx: &ExecContext) -> Vec<u64> {
        let sources = &self.dataset.mentions.source;
        let rows = &self.rows;
        let n_sources = self.dataset.sources.len();
        let counts: Vec<u64> = ctx.scan(self.dataset.mentions.len(), |p| {
            let mut acc = vec![0u64; n_sources];
            rows.for_each_in(p.range(), |r| {
                if let Some(&s) = sources.get(r) {
                    if let Some(slot) = acc.get_mut(s as usize) {
                        *slot += 1;
                    }
                }
            });
            acc
        });
        if counts.is_empty() {
            vec![0; n_sources]
        } else {
            counts
        }
    }

    /// The most productive sources within the view.
    pub fn top_publishers(&self, ctx: &ExecContext, k: usize) -> Vec<(SourceId, u64)> {
        crate::topk::ranked_publishers(&self.articles_by_source(ctx), k)
    }

    /// Delay summary (min/max/mean) over the selected articles.
    pub fn delay_summary(&self, ctx: &ExecContext) -> MinMaxSum {
        let delays = &self.dataset.mentions.delay;
        let rows = &self.rows;
        ctx.scan(self.dataset.mentions.len(), |p| {
            let mut acc = MinMaxSum::default();
            rows.for_each_in(p.range(), |r| {
                if let Some(&dl) = delays.get(r) {
                    acc.push(dl);
                }
            });
            acc
        })
    }

    /// Articles about events located in each country, within the view
    /// (the "politician in a short span" style investigation).
    pub fn articles_by_event_country(&self, ctx: &ExecContext, n_countries: usize) -> Vec<u64> {
        let rows = &self.rows;
        let event_rows = &self.dataset.mentions.event_row;
        let country = &self.dataset.events.country;
        let counts: Vec<u64> = ctx.scan(self.dataset.mentions.len(), |p| {
            let mut acc = vec![0u64; n_countries];
            rows.for_each_in(p.range(), |r| {
                let Some(&er) = event_rows.get(r) else { return };
                if er == NO_EVENT_ROW {
                    return;
                }
                let Some(&c) = country.get(er as usize) else { return };
                if let Some(slot) = acc.get_mut(c as usize) {
                    *slot += 1;
                }
            });
            acc
        });
        if counts.is_empty() {
            vec![0; n_countries]
        } else {
            counts
        }
    }

    /// Articles about events in one country, within the view.
    pub fn articles_about(&self, ctx: &ExecContext, country: CountryId) -> u64 {
        let rows = &self.rows;
        let event_rows = &self.dataset.mentions.event_row;
        let countries = &self.dataset.events.country;
        ctx.scan(self.dataset.mentions.len(), |p| {
            let mut n = 0u64;
            rows.for_each_in(p.range(), |r| {
                let Some(&er) = event_rows.get(r) else { return };
                if er != NO_EVENT_ROW && countries.get(er as usize) == Some(&country.0) {
                    n += 1;
                }
            });
            n
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdelt_model::country::CountryRegistry;

    fn dataset() -> Dataset {
        gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(91)).0
    }

    fn ctx() -> ExecContext {
        ExecContext::builder().threads(2).build()
    }

    #[test]
    fn all_view_selects_everything() {
        let d = dataset();
        let v = MentionView::all(&ctx(), &d);
        assert_eq!(v.len(), d.mentions.len());
        assert!(!v.is_empty());
        let by_source = v.articles_by_source(&ctx());
        assert_eq!(by_source.iter().sum::<u64>(), d.mentions.len() as u64);
    }

    #[test]
    fn time_window_restricts_rows() {
        let d = dataset();
        let q = Quarter { year: 2015, q: 3 };
        let v = MentionView::time_window(&ctx(), &d, q, q);
        assert!(!v.is_empty(), "no articles in 2015Q3");
        assert!(v.len() < d.mentions.len());
        // Every selected row is in the window.
        for r in v.rows.iter() {
            assert_eq!(d.mentions.quarter[r], q.linear() as u16);
        }
        // Windows tile: sum over all quarters = total.
        let (base, n) = crate::timeseries::quarter_range(&d).unwrap();
        let mut total = 0usize;
        for i in 0..n {
            let q = Quarter::from_linear(i32::from(base) + i as i32);
            total += MentionView::time_window(&ctx(), &d, q, q).len();
        }
        assert_eq!(total, d.mentions.len());
    }

    #[test]
    fn stacked_predicates_intersect() {
        let d = dataset();
        let q = Quarter { year: 2015, q: 2 };
        let conf = d.mentions.confidence.as_slice().to_vec();
        let v = MentionView::time_window(&ctx(), &d, q, Quarter { year: 2016, q: 4 })
            .and(&ctx(), move |r| conf[r] >= 60);
        for r in v.rows.iter() {
            assert!(d.mentions.confidence[r] >= 60);
            assert!(d.mentions.quarter[r] >= q.linear() as u16);
        }
    }

    #[test]
    fn windowed_top_publishers_subset_of_global_activity() {
        let d = dataset();
        let v = MentionView::time_window(
            &ctx(),
            &d,
            Quarter { year: 2015, q: 1 },
            Quarter { year: 2015, q: 4 },
        );
        let top = v.top_publishers(&ctx(), 5);
        let global = v.articles_by_source(&ctx());
        for (s, n) in top {
            assert_eq!(global[s.index()], n);
            assert!(n > 0 || v.is_empty());
        }
    }

    #[test]
    fn delay_summary_matches_filtered_scan() {
        let d = dataset();
        let v = MentionView::filter(&ctx(), &d, |r| r % 3 == 0);
        let s = v.delay_summary(&ctx());
        let expect: Vec<u32> =
            (0..d.mentions.len()).filter(|r| r % 3 == 0).map(|r| d.mentions.delay[r]).collect();
        assert_eq!(s.count, expect.len() as u64);
        assert_eq!(s.min, *expect.iter().min().unwrap());
        assert_eq!(s.max, *expect.iter().max().unwrap());
    }

    #[test]
    fn country_investigation_consistency() {
        let d = dataset();
        let reg = CountryRegistry::new();
        let v = MentionView::all(&ctx(), &d);
        let by_country = v.articles_by_event_country(&ctx(), reg.len());
        let us = reg.by_name("USA");
        assert_eq!(by_country[us.index()], v.articles_about(&ctx(), us));
        // Totals bounded by view size (untagged events drop out).
        assert!(by_country.iter().sum::<u64>() <= v.len() as u64);
    }

    #[test]
    fn empty_window_is_empty() {
        let d = dataset();
        let q = Quarter { year: 1999, q: 1 };
        let v = MentionView::time_window(&ctx(), &d, q, q);
        assert!(v.is_empty());
        assert_eq!(v.top_publishers(&ctx(), 3).iter().filter(|&&(_, n)| n > 0).count(), 0);
        assert_eq!(v.delay_summary(&ctx()).count, 0);
    }
}
