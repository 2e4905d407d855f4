//! Publishing-delay statistics (paper §VI-E, Fig 9, Table VIII).
//!
//! Delays are measured in 15-minute capture intervals, the paper's best
//! available proxy for publication time. Per-source statistics are exact:
//! mentions are grouped by source with one counting sort, each source's
//! slice is reduced in parallel to a [`DelayHist`], and min / max / mean
//! / true median are read off the histogram.

use crate::aggregate::count_by;
use crate::exec::{ExecContext, Merge};
use gdelt_columnar::Dataset;
use rayon::prelude::*;

/// Delays at or above one year are clamped when histogramming — the
/// paper's observed maximum is 35 135 intervals (366 days − 15 min).
pub const MAX_TRACKED_DELAY: u32 = 35_135;

/// Exact delay statistics for one source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayStats {
    /// Articles published by the source.
    pub count: u64,
    /// Minimum delay (intervals).
    pub min: u32,
    /// Maximum delay (intervals).
    pub max: u32,
    /// Mean delay.
    pub mean: f64,
    /// Exact median delay (lower-middle for even counts).
    pub median: u32,
}

impl DelayStats {
    /// Stats of a source that published nothing.
    pub fn empty() -> Self {
        DelayStats { count: 0, min: 0, max: 0, mean: 0.0, median: 0 }
    }
}

/// The paper's three speed groups (§VI-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpeedGroup {
    /// Median delay below two hours.
    Fast,
    /// Median delay within the 24 h news cycle.
    Average,
    /// Median delay beyond 24 h.
    Slow,
}

/// Classify a source by its median delay.
pub fn classify(stats: &DelayStats) -> SpeedGroup {
    if stats.median < 8 {
        SpeedGroup::Fast
    } else if stats.median <= 96 {
        SpeedGroup::Average
    } else {
        SpeedGroup::Slow
    }
}

/// One source's delay multiset as `(delay, count)` runs ascending by
/// delay — the Delay family's partial. Medians and means do not merge,
/// multisets do: the runs of two disjoint row sets union with equal
/// delays adding, and [`DelayHist::finalize`] reads count / min / max /
/// mean / median off the merged runs exactly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DelayHist {
    /// Sorted `(delay, occurrences)` runs.
    pub runs: Vec<(u32, u64)>,
}

impl DelayHist {
    /// Run-length encode an already-sorted delay slice.
    pub fn from_sorted_delays(delays: &[u32]) -> DelayHist {
        let runs = delays.chunk_by(|a, b| a == b);
        DelayHist { runs: runs.filter_map(|run| Some((*run.first()?, run.len() as u64))).collect() }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.runs.iter().map(|&(_, c)| c).sum()
    }

    /// The exact [`DelayStats`] of the multiset.
    pub fn finalize(&self) -> DelayStats {
        let count = self.count();
        if count == 0 {
            return DelayStats::empty();
        }
        let min = self.runs.first().map_or(0, |r| r.0);
        let max = self.runs.last().map_or(0, |r| r.0);
        let sum: u64 = self.runs.iter().map(|&(dl, c)| u64::from(dl) * c).sum();
        // Integer sums below 2^53 convert to f64 exactly, so the mean
        // does not depend on how the rows were split or merged.
        let mean = sum as f64 / count as f64;
        // Lower-middle median.
        let target = (count - 1) / 2;
        let mut seen = 0u64;
        let mut median = 0u32;
        for &(dl, c) in &self.runs {
            seen += c;
            if seen > target {
                median = dl;
                break;
            }
        }
        DelayStats { count, min, max, mean, median }
    }
}

impl Merge for DelayHist {
    /// Multiset union. Both sides are sorted, and the stable sort finds
    /// and merges the two runs in one linear pass.
    fn merge(&mut self, other: DelayHist) {
        if other.runs.is_empty() {
            return;
        }
        self.runs.extend(other.runs);
        self.runs.sort_by_key(|&(dl, _)| dl);
        self.runs.dedup_by(|later, kept| {
            later.0 == kept.0 && {
                kept.1 += later.1;
                true
            }
        });
    }
}

/// A source's slice is counted rather than sorted when its largest
/// delay is below this many times its length: counting is one pass over
/// the rows plus one over `0..=max`, so it wins while the value span
/// stays comparable to the row count. A handful of mentions spread over
/// a year of intervals sorts instead.
const DENSE_SPAN_PER_ROW: usize = 4;

/// Reduce one source's delays to its histogram, choosing between the
/// counting pass (into `counts`, reused across the worker's sources)
/// and sort + run-length encode from the slice alone.
// analyze: no_panic
fn hist_of(delays: &mut [u32], counts: &mut Vec<u64>) -> DelayHist {
    let Some(&max) = delays.iter().max() else {
        return DelayHist::default();
    };
    let span = max as usize + 1;
    if span > delays.len().saturating_mul(DENSE_SPAN_PER_ROW) {
        delays.sort_unstable();
        return DelayHist::from_sorted_delays(delays);
    }
    counts.clear();
    counts.resize(span, 0);
    for &dl in delays.iter() {
        if let Some(c) = counts.get_mut(dl as usize) {
            *c += 1;
        }
    }
    let runs = counts.iter().enumerate().filter(|&(_, &c)| c != 0);
    DelayHist { runs: runs.map(|(dl, &c)| (dl as u32, c)).collect() }
}

/// Per-source delay histograms for every source in the directory — the
/// Delay kernel.
///
/// One parallel counting pass sizes the groups, one sequential scatter
/// fills them (memory-bandwidth bound), and the per-source reductions
/// run in parallel over the disjoint slices, in place.
// analyze: no_panic
pub fn per_source_delay_hists(ctx: &ExecContext, d: &Dataset) -> Vec<DelayHist> {
    let n_sources = d.sources.len();
    if n_sources == 0 {
        return Vec::new();
    }
    let counts = count_by(ctx, &d.mentions.source, n_sources);

    // Scatter cursors: the exclusive prefix sum of the group sizes.
    let starts = counts.iter().scan(0usize, |next, &c| {
        let at = *next;
        *next += c as usize;
        Some(at)
    });
    let mut cursor: Vec<usize> = starts.collect();
    let mut grouped = vec![0u32; d.mentions.len()];
    for c in crate::chunk::chunks_of(0..d.mentions.len()) {
        for (&s, &dl) in c.slice(&d.mentions.source).iter().zip(c.slice(&d.mentions.delay)) {
            // Source ids are dense directory indices; each counted row
            // scatters exactly once, so a cursor never leaves its group.
            let Some(cur) = cursor.get_mut(s as usize) else { continue };
            if let Some(slot) = grouped.get_mut(*cur) {
                *slot = dl;
            }
            *cur += 1;
        }
    }

    let mut rest = grouped.as_mut_slice();
    let groups: Vec<&mut [u32]> = counts
        .iter()
        .map(|&c| {
            let (group, tail) =
                std::mem::take(&mut rest).split_at_mut_checked(c as usize).unwrap_or_default();
            rest = tail;
            group
        })
        .collect();
    ctx.install(|| {
        groups.into_par_iter().map_init(Vec::new, |scratch, g| hist_of(g, scratch)).collect()
    })
}

/// Exact per-source delay statistics for every source in the directory:
/// [`DelayHist::finalize`] over [`per_source_delay_hists`].
pub fn per_source_delay_stats(ctx: &ExecContext, d: &Dataset) -> Vec<DelayStats> {
    per_source_delay_hists(ctx, d).iter().map(DelayHist::finalize).collect()
}

/// Delay of the *first* article on each event — the paper flags this as
/// the key signal for wildfire detection follow-up work (§VI-E). With
/// mentions time-sorted within each event, this is the first CSR entry.
// analyze: no_panic
pub fn first_report_delay(ctx: &ExecContext, d: &Dataset) -> Vec<u32> {
    let n_events = d.events.len();
    let offsets = &d.event_index.offsets;
    let delays = &d.mentions.delay;
    ctx.install(|| {
        (0..n_events)
            .into_par_iter()
            .map(|e| {
                // analyze: allow(panic_path): e < n_events and offsets.len() == n_events + 1
                let lo = offsets[e] as usize;
                // analyze: allow(panic_path): e < n_events and offsets.len() == n_events + 1
                let hi = offsets[e + 1] as usize;
                if lo == hi {
                    0
                } else {
                    // analyze: allow(panic_path): lo < hi ≤ mentions.len() (CSR invariant)
                    delays[lo]
                }
            })
            .collect()
    })
}

/// Sources per speed group (§VI-E's population split).
pub fn speed_group_counts(stats: &[DelayStats]) -> [(SpeedGroup, usize); 3] {
    let mut fast = 0;
    let mut avg = 0;
    let mut slow = 0;
    for s in stats.iter().filter(|s| s.count > 0) {
        match classify(s) {
            SpeedGroup::Fast => fast += 1,
            SpeedGroup::Average => avg += 1,
            SpeedGroup::Slow => slow += 1,
        }
    }
    [(SpeedGroup::Fast, fast), (SpeedGroup::Average, avg), (SpeedGroup::Slow, slow)]
}

/// Per-source ranked delay metric histogram on log-ish buckets, for
/// Fig 9's four panels. Returns `(bucket_upper_bounds, counts)` where
/// `counts[i]` is the number of sources whose metric falls in bucket `i`.
pub fn metric_histogram(
    stats: &[DelayStats],
    metric: impl Fn(&DelayStats) -> u32,
) -> (Vec<u32>, Vec<u64>) {
    // Buckets aligned with the paper's discussion: within 15 min, 2 h,
    // 8 h, 24 h, 2 d, 1 w, 1 m, 3 m, 1 y⁺.
    let bounds: Vec<u32> = vec![1, 8, 32, 96, 192, 672, 2_880, 8_640, MAX_TRACKED_DELAY + 1];
    let mut counts = vec![0u64; bounds.len()];
    for s in stats.iter().filter(|s| s.count > 0) {
        let v = metric(s);
        let idx = bounds.iter().position(|&b| v < b).unwrap_or(bounds.len() - 1);
        counts[idx] += 1;
    }
    (bounds, counts)
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

    /// Dataset where source "a.com" has delays [0, 10, 20] and "b.co.uk"
    /// has [4].
    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new();
        for (id, hour) in [(1u64, 0u8), (2, 6)] {
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
                date_added: DateTime::new(GDELT_EPOCH, hour, 0, 0).unwrap(),
                source_url: "u".into(),
            });
        }
        let m = |event: u64, event_hour: u8, delay: u32, src: &str| MentionRecord {
            event_id: EventId(event),
            event_time: DateTime::new(GDELT_EPOCH, event_hour, 0, 0).unwrap(),
            mention_time: DateTime::from_unix_seconds(
                DateTime::new(GDELT_EPOCH, event_hour, 0, 0).unwrap().to_unix_seconds()
                    + i64::from(delay) * 900,
            ),
            mention_type: MentionType::Web,
            source_name: src.into(),
            url: format!("https://{src}/{event}"),
            confidence: 50,
            doc_tone: 0.0,
        };
        b.add_mention(m(1, 0, 0, "a.com"));
        b.add_mention(m(1, 0, 10, "a.com"));
        b.add_mention(m(2, 6, 20, "a.com"));
        b.add_mention(m(2, 6, 4, "b.co.uk"));
        b.build().0
    }

    fn ctx() -> ExecContext {
        ExecContext::builder().threads(2).build()
    }

    #[test]
    fn per_source_stats_are_exact() {
        let d = dataset();
        let stats = per_source_delay_stats(&ctx(), &d);
        let a = d.sources.lookup("a.com").unwrap();
        let b = d.sources.lookup("b.co.uk").unwrap();
        let sa = stats[a.index()];
        assert_eq!((sa.count, sa.min, sa.max, sa.median), (3, 0, 20, 10));
        assert!((sa.mean - 10.0).abs() < 1e-12);
        let sb = stats[b.index()];
        assert_eq!((sb.count, sb.min, sb.max, sb.median), (1, 4, 4, 4));
    }

    #[test]
    fn empty_dataset_stats() {
        let d = Dataset::default();
        assert!(per_source_delay_stats(&ctx(), &d).is_empty());
        assert!(first_report_delay(&ctx(), &d).is_empty());
    }

    #[test]
    fn first_report_delay_uses_time_sorted_csr() {
        let d = dataset();
        let frd = first_report_delay(&ctx(), &d);
        // Event 1 first article delay 0; event 2: b.co.uk at 4 beats 20.
        assert_eq!(frd, vec![0, 4]);
    }

    #[test]
    fn classification_thresholds() {
        let s = |median| DelayStats { count: 1, min: 0, max: 0, mean: 0.0, median };
        assert_eq!(classify(&s(0)), SpeedGroup::Fast);
        assert_eq!(classify(&s(7)), SpeedGroup::Fast);
        assert_eq!(classify(&s(8)), SpeedGroup::Average);
        assert_eq!(classify(&s(96)), SpeedGroup::Average);
        assert_eq!(classify(&s(97)), SpeedGroup::Slow);
    }

    #[test]
    fn speed_group_counts_skip_empty_sources() {
        let stats = vec![
            DelayStats { count: 5, min: 0, max: 10, mean: 2.0, median: 2 },
            DelayStats::empty(),
            DelayStats { count: 5, min: 0, max: 500, mean: 200.0, median: 200 },
        ];
        let counts = speed_group_counts(&stats);
        assert_eq!(counts[0].1, 1); // fast
        assert_eq!(counts[1].1, 0); // average
        assert_eq!(counts[2].1, 1); // slow
    }

    #[test]
    fn metric_histogram_buckets() {
        let stats = vec![
            DelayStats { count: 1, min: 0, max: 0, mean: 0.0, median: 0 },
            DelayStats { count: 1, min: 100, max: 0, mean: 0.0, median: 0 },
            DelayStats { count: 1, min: 40_000, max: 0, mean: 0.0, median: 0 },
        ];
        let (bounds, counts) = metric_histogram(&stats, |s| s.min);
        assert_eq!(counts.iter().sum::<u64>(), 3);
        assert_eq!(counts[0], 1); // min 0 < 1
        let day_idx = bounds.iter().position(|&b| b == 192).unwrap();
        assert_eq!(counts[day_idx], 1); // 100 lands in the 2-day bucket
        assert_eq!(*counts.last().unwrap(), 1); // 40 000 beyond a year
    }

    /// The reference reducer: exact stats off a sorted copy of the slice.
    fn reference_stats(delays: &[u32]) -> DelayStats {
        let mut sorted = delays.to_vec();
        sorted.sort_unstable();
        let (Some(&min), Some(&max)) = (sorted.first(), sorted.last()) else {
            return DelayStats::empty();
        };
        DelayStats {
            count: sorted.len() as u64,
            min,
            max,
            mean: sorted.iter().map(|&v| f64::from(v)).sum::<f64>() / sorted.len() as f64,
            median: sorted[(sorted.len() - 1) / 2],
        }
    }

    #[test]
    fn hist_of_matches_reference_on_both_sides_of_the_dense_choice() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![7],                                   // one mention
            vec![MAX_TRACKED_DELAY],                   // one mention, sparse
            vec![4, 4, 4, 4, 4],                       // all equal
            vec![0, 0, 0, 0],                          // all zero
            vec![2, MAX_TRACKED_DELAY, 1],             // one year-long outlier among three
            vec![1, 2, 3, 4],                          // even count: lower-middle median
            vec![9, 1],                                // even count, two rows
            vec![0, 96, 96, 0],                        // even count straddling two runs
            (0..500).map(|i| (i * 37) % 97).collect(), // dense, many repeats
            (0..40).map(|i| i * 800).collect(),        // sparse, all distinct
        ];
        let mut counts = Vec::new();
        for delays in cases {
            let dense =
                (*delays.iter().max().unwrap_or(&0) as usize) < delays.len() * DENSE_SPAN_PER_ROW;
            let hist = hist_of(&mut delays.clone(), &mut counts);
            let mut sorted = delays.clone();
            sorted.sort_unstable();
            assert_eq!(hist, DelayHist::from_sorted_delays(&sorted), "{delays:?} (dense={dense})");
            assert_eq!(hist.finalize(), reference_stats(&delays), "{delays:?} (dense={dense})");
        }
    }

    #[test]
    fn dense_choice_is_made_from_the_slice() {
        // Same three rows, one value apart: the span decides, nothing else.
        let mut counts = vec![99; 8];
        let span_limit = (3 * DENSE_SPAN_PER_ROW) as u32;
        let _ = hist_of(&mut [0, 1, span_limit - 1], &mut counts);
        assert_eq!(counts.len(), span_limit as usize, "dense side counts into the scratch");
        let mut sparse = [span_limit, 1, 0];
        let _ = hist_of(&mut sparse, &mut counts);
        assert_eq!(sparse, [0, 1, span_limit], "sparse side sorts in place");
        assert_eq!(counts.len(), span_limit as usize, "and leaves the scratch alone");
    }

    #[test]
    fn delay_hist_merge_equals_concatenation() {
        let mut a = DelayHist::from_sorted_delays(&[1, 1, 4, 8]);
        let b = DelayHist::from_sorted_delays(&[0, 4, 4, 9]);
        a.merge(b);
        assert_eq!(a, DelayHist::from_sorted_delays(&[0, 1, 1, 4, 4, 4, 8, 9]));
        // Empty is the identity on both sides.
        let mut e = DelayHist::default();
        e.merge(a.clone());
        assert_eq!(e, a);
        let mut a2 = a.clone();
        a2.merge(DelayHist::default());
        assert_eq!(a2, a);
    }

    #[test]
    fn merged_hists_finalize_like_the_concatenated_rows() {
        let (left, right) = ([5u32, 0, 5, 9], [9u32, 9, 2, 35_135]);
        let mut counts = Vec::new();
        let mut merged = hist_of(&mut left.clone(), &mut counts);
        merged.merge(hist_of(&mut right.clone(), &mut counts));
        let all: Vec<u32> = left.iter().chain(&right).copied().collect();
        assert_eq!(merged.finalize(), reference_stats(&all));
    }

    #[test]
    fn hists_cover_every_directory_source() {
        let d = dataset();
        let hists = per_source_delay_hists(&ctx(), &d);
        assert_eq!(hists.len(), d.sources.len());
        assert_eq!(hists.iter().map(DelayHist::count).sum::<u64>(), d.mentions.len() as u64);
        let a = d.sources.lookup("a.com").unwrap();
        assert_eq!(hists[a.index()].runs, vec![(0, 1), (10, 1), (20, 1)]);
    }

    #[test]
    fn parallel_matches_sequential() {
        let d = dataset();
        assert_eq!(
            per_source_delay_stats(&ExecContext::builder().threads(1).build(), &d),
            per_source_delay_stats(&ctx(), &d)
        );
    }
}
