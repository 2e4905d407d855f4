//! Restricted dataset views: time windows.
//!
//! The paper motivates the system with ad-hoc investigations ("a simple
//! test query looking for mentions of a politician in a short span of
//! time" cost a terabyte scan on BigQuery, §II). The engine's answer is
//! a cheap, reusable *view*: a bitmap of selected mention rows from a
//! quarter window, against which the aggregate operators run without
//! copying any column data.

use crate::chunk::partition_scan;
use crate::exec::{ExecContext, Merge};
use crate::filter::Bitmap;
use gdelt_columnar::Dataset;
use gdelt_model::time::Quarter;

/// A selection of mention rows over a dataset.
pub struct MentionView<'a> {
    /// The underlying dataset.
    pub dataset: &'a Dataset,
    /// Selected rows.
    pub rows: Bitmap,
}

impl<'a> MentionView<'a> {
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
        let n_sources = self.dataset.sources.len();
        let count_rows = |rows| {
            let mut acc = vec![0u64; n_sources];
            self.rows.for_each_in(rows, |r| {
                if let Some(slot) = sources.get(r).and_then(|&s| acc.get_mut(s as usize)) {
                    *slot += 1;
                }
            });
            acc
        };
        partition_scan(ctx, self.dataset.mentions.len(), count_rows, Merge::merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::count_by;
    use crate::topk::ranked_publishers;

    fn dataset() -> Dataset {
        gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(91)).0
    }

    fn ctx() -> ExecContext {
        ExecContext::builder().threads(2).build()
    }

    #[test]
    fn all_view_selects_everything() {
        // The window over every quarter of the corpus.
        let d = dataset();
        let (base, n) = d.quarter_span().unwrap();
        let quarter = |i: usize| Quarter::from_linear(i32::from(base) + i as i32);
        let v = MentionView::time_window(&ctx(), &d, quarter(0), quarter(n - 1));
        assert_eq!(v.len(), d.mentions.len());
        assert!(!v.is_empty());
        let by_source = v.articles_by_source(&ctx());
        assert_eq!(by_source, count_by(&ctx(), &d.mentions.source, d.sources.len()));
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
        let (base, n) = d.quarter_span().unwrap();
        let mut total = 0usize;
        for i in 0..n {
            let q = Quarter::from_linear(i32::from(base) + i as i32);
            total += MentionView::time_window(&ctx(), &d, q, q).len();
        }
        assert_eq!(total, d.mentions.len());
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
        let global = v.articles_by_source(&ctx());
        for (s, n) in ranked_publishers(&global, 5) {
            assert_eq!(global[s.index()], n);
            assert!(n > 0 || v.is_empty());
        }
    }

    #[test]
    fn empty_window_is_empty() {
        let d = dataset();
        let q = Quarter { year: 1999, q: 1 };
        let v = MentionView::time_window(&ctx(), &d, q, q);
        assert!(v.is_empty());
        let top = ranked_publishers(&v.articles_by_source(&ctx()), 3);
        assert_eq!(top.iter().filter(|&&(_, n)| n > 0).count(), 0);
    }
}
