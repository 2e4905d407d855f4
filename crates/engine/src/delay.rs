//! Publishing-delay statistics (paper §VI-E, Fig 9, Table VIII).
//!
//! Delays are measured in 15-minute capture intervals, the paper's best
//! available proxy for publication time. Per-source statistics are exact:
//! every row range groups its delays by source in parallel, then every
//! source's groups reduce to its [`DelayHist`] in parallel — the delays
//! below [`WINDOW`] intervals, which is nearly all of them, counted in a
//! window-sized scratch and the rest sorted — and min / max / mean /
//! true median come from the histogram. Scratch is one `u32` per mention
//! and one cursor per source and row range, whatever the size of the
//! source directory.

use crate::aggregate::{DenseLanes, LANES};
use crate::chunk::{event_scan, for_each_event, partition_scan, rows_of};
use crate::exec::{ExecContext, Merge};
use gdelt_columnar::Dataset;

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
    /// `(delay, occurrences)` runs, strictly ascending by delay.
    pub runs: Vec<(u32, u64)>,
}

impl DelayHist {
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
    /// Multiset union of two strictly ascending run lists — as every
    /// kernel builds them and every decoded wire reply is — in one linear
    /// pass: the smaller delay goes first, equal delays add.
    fn merge(&mut self, other: DelayHist) {
        if other.runs.is_empty() {
            return;
        }
        if self.runs.is_empty() {
            self.runs = other.runs;
            return;
        }
        let mut merged = Vec::with_capacity(self.runs.len() + other.runs.len());
        let mut mine = std::mem::take(&mut self.runs).into_iter().peekable();
        let mut theirs = other.runs.into_iter().peekable();
        while let (Some(&(a, n)), Some(&(b, m))) = (mine.peek(), theirs.peek()) {
            merged.push(match a.cmp(&b) {
                std::cmp::Ordering::Less => (a, n),
                std::cmp::Ordering::Greater => (b, m),
                std::cmp::Ordering::Equal => (a, n + m),
            });
            if a <= b {
                mine.next();
            }
            if b <= a {
                theirs.next();
            }
        }
        merged.extend(mine);
        merged.extend(theirs);
        self.runs = merged;
    }
}

/// Delays below this many 15-minute intervals (10 ⅔ days) are counted
/// densely when a source's histogram is built. On the calibrated corpora
/// 98.6 % of delays are; the paper's fast and average speed groups end
/// at 96. The counting scratch is this long whatever a source's largest
/// delay is — one year-old outlier costs one sorted entry, not a
/// year-wide span.
const WINDOW: usize = 1024;

/// A source is counted through the window when it has at least one row
/// per this many window cells, and sorted otherwise: counting is one
/// pass over the rows plus one over the [`WINDOW`] cells, so it wins
/// while the rows are comparable to the cells. A handful of mentions
/// sorts instead.
const CELLS_PER_ROW: usize = 4;

/// What one source's histogram costs before its first row — an
/// allocation, a call of the sort — in rows of the reduction (some
/// 200 ns against 3 ns a row). It keeps a directory of many small
/// sources from landing on the worker that draws the tail.
const SOURCE_ROWS: u64 = 64;

/// One row range's delays grouped by source: the counting sort of the
/// range on its source column.
#[derive(Debug, Default)]
struct Grouped {
    /// Source `s` owns `delays[ends[s - 1]..ends[s]]` (from 0 for the
    /// first): the scatter cursors, where the scatter left them.
    ends: Vec<usize>,
    delays: Vec<u32>,
}

impl Grouped {
    /// Group the co-sliced `sources` / `delays` rows of one partition.
    /// A source id outside the directory has no group and is dropped.
    // analyze: no_panic
    fn of_rows(n_sources: usize, sources: &[u32], delays: &[u32]) -> Self {
        let mut lanes = DenseLanes::new(n_sources);
        lanes.count(sources, 0);
        let starts = lanes
            .sums()
            .into_iter()
            .scan(0usize, |next, count| Some(std::mem::replace(next, *next + count as usize)));
        let mut cursor: Vec<usize> = starts.collect();
        let mut grouped = vec![0u32; sources.len()];
        for (&s, &dl) in sources.iter().zip(delays) {
            // Each counted row scatters exactly once, so a cursor never
            // leaves its group.
            let Some(cur) = cursor.get_mut(s as usize) else { continue };
            if let Some(slot) = grouped.get_mut(*cur) {
                *slot = dl;
            }
            *cur += 1;
        }
        Grouped { ends: cursor, delays: grouped }
    }

    /// Rows of this range grouped under sources `0..=s`.
    // analyze: no_panic
    fn end_of(&self, s: usize) -> usize {
        self.ends.get(s).copied().unwrap_or(0)
    }

    /// The delays of source `s` in this range.
    // analyze: no_panic
    fn of_source(&self, s: usize) -> &[u32] {
        let begin = s.checked_sub(1).map_or(0, |before| self.end_of(before));
        self.delays.get(begin..self.end_of(s)).unwrap_or(&[])
    }
}

/// One worker's scratch for [`hist_of`]: the counting window — every
/// cell [`LANES`] times, as in [`DenseLanes`], because a source's
/// delays repeat and a lone cell would have each row wait on the store
/// of the row before — and the delays that go through a sort instead.
struct HistScratch {
    window: Vec<[u64; LANES]>,
    sorted: Vec<u32>,
}

impl HistScratch {
    fn new() -> Self {
        HistScratch { window: vec![[0; LANES]; WINDOW], sorted: Vec::new() }
    }
}

/// Reduce one source's `rows` delays, handed as one slice per scanned
/// row range, to its histogram. With enough rows to be worth a pass over
/// the window's cells, the delays below [`WINDOW`] are counted in it and
/// only the rest are sorted; a source of a few rows sorts them all.
/// Either way the scratch is as large as the window and the source's
/// own rows, never as its largest delay.
// analyze: no_panic
fn hist_of<'a>(
    groups: impl Iterator<Item = &'a [u32]>,
    rows: usize,
    scratch: &mut HistScratch,
) -> DelayHist {
    let counted = if rows.saturating_mul(CELLS_PER_ROW) < WINDOW { 0 } else { WINDOW };
    let window = scratch.window.get_mut(..counted).unwrap_or_default();
    scratch.sorted.clear();
    for group in groups {
        for (row, &dl) in group.iter().enumerate() {
            match window.get_mut(dl as usize).and_then(|cell| cell.get_mut(row % LANES)) {
                Some(count) => *count += 1,
                None => scratch.sorted.push(dl),
            }
        }
    }
    let mut hist = DelayHist::default();
    for (dl, cell) in window.iter_mut().enumerate() {
        let count: u64 = std::mem::take(cell).iter().sum();
        if count != 0 {
            hist.runs.push((dl as u32, count));
        }
    }
    // Whatever was not counted lies above everything that was.
    scratch.sorted.sort_unstable();
    let runs = scratch.sorted.chunk_by(|a, b| a == b);
    // Most sources are a few rows: one allocation of the exact size each.
    hist.runs.reserve_exact(runs.clone().count());
    hist.runs.extend(runs.filter_map(|run| Some((*run.first()?, run.len() as u64))));
    hist
}

/// Per-source delay histograms for every source in the directory — the
/// Delay kernel, two parallel stages and no serial one. Every row range
/// groups its own delays by source ([`Grouped`], scratch: one `u32` per
/// mention and one cursor per source and range); then the sources, cut
/// into ranges of near-equal mention weight by the same walker that cuts
/// events, each reduce their groups of every row range ([`hist_of`]).
// analyze: no_panic
pub(crate) fn per_source_delay_hists(ctx: &ExecContext, d: &Dataset) -> Vec<DelayHist> {
    let n_sources = d.sources.len();
    let group_rows = |rows: std::ops::Range<usize>| {
        let (sources, delays) =
            (rows_of(&d.mentions.source, &rows), rows_of(&d.mentions.delay, &rows));
        vec![Grouped::of_rows(n_sources, sources, delays)]
    };
    // The two stages cost 4.3–6.9 ns a mention on one thread.
    let ranges: Vec<Grouped> = partition_scan(ctx, d.mentions.len(), 2.0, group_rows, concat);

    // Cut and walk the sources like events, by weight: a source weighs
    // its rows plus what its histogram costs before the first row.
    let weight_through = |s: usize| {
        (s as u64 + 1) * SOURCE_ROWS + ranges.iter().map(|g| g.end_of(s) as u64).sum::<u64>()
    };
    let weights: Vec<u64> = std::iter::once(0).chain((0..n_sources).map(weight_through)).collect();
    let reduce_sources = |sources: std::ops::Range<usize>| {
        let mut scratch = HistScratch::new();
        let mut hists = Vec::with_capacity(sources.len());
        for_each_event(&weights, sources, |s, weight| {
            let rows = weight.len().saturating_sub(SOURCE_ROWS as usize);
            hists.push(hist_of(ranges.iter().map(|g| g.of_source(s)), rows, &mut scratch));
        });
        hists
    };
    event_scan(ctx, &weights, 2.0, reduce_sources, concat).unwrap_or_default()
}

/// Partials that are lists in partition order: append.
fn concat<T>(mut all: Vec<T>, next: Vec<T>) -> Vec<T> {
    all.extend(next);
    all
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

    /// Per-source stats, as the Delay query finalizes them.
    fn per_source_stats(ctx: &ExecContext, d: &Dataset) -> Vec<DelayStats> {
        per_source_delay_hists(ctx, d).iter().map(DelayHist::finalize).collect()
    }

    #[test]
    fn per_source_stats_are_exact() {
        let d = dataset();
        let stats = per_source_stats(&ctx(), &d);
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
        assert!(per_source_stats(&ctx(), &d).is_empty());
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

    /// The reference histogram: run-length encode a sorted delay slice.
    fn hist_of_sorted(delays: &[u32]) -> DelayHist {
        let runs = delays.chunk_by(|a, b| a == b);
        DelayHist { runs: runs.map(|run| (run[0], run.len() as u64)).collect() }
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

    /// One source's delays, cut into row ranges at `cuts`, through
    /// grouping and reduction.
    fn hist_of_ranges(delays: &[u32], cuts: &[usize]) -> DelayHist {
        let edges: Vec<usize> =
            std::iter::once(0).chain(cuts.iter().copied()).chain([delays.len()]).collect();
        let ranges: Vec<Grouped> = edges
            .windows(2)
            .map(|w| Grouped::of_rows(1, &vec![0; w[1] - w[0]], &delays[w[0]..w[1]]))
            .collect();
        let mut scratch = HistScratch::new();
        let hist = hist_of(ranges.iter().map(|g| g.of_source(0)), delays.len(), &mut scratch);
        assert!(scratch.window.iter().all(|c| *c == [0; LANES]), "the window is handed back clear");
        hist
    }

    fn hist_of_all(delays: &[u32]) -> DelayHist {
        hist_of_ranges(delays, &[])
    }

    #[test]
    fn counted_and_sorted_delays_match_reference_on_both_sides_of_the_edge() {
        let edge = WINDOW as u32;
        // Each case once as it is (a few rows: all sorted) and once
        // repeated until the source is counted through the window.
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![7],                                                 // one mention
            vec![MAX_TRACKED_DELAY],       // one mention, above the window
            vec![4, 4, 4, 4, 4],           // all equal
            vec![0, 0, 0, 0],              // all zero
            vec![2, MAX_TRACKED_DELAY, 1], // one year-long outlier among three
            vec![1, 2, 3, 4],              // even count: lower-middle median
            vec![9, 1],                    // even count, two rows
            vec![0, 96, 96, 0],            // even count straddling two runs
            vec![edge - 1, edge, edge + 1, edge, 3], // the last window cell, the first delays above it
            vec![edge, 2 * edge, edge, MAX_TRACKED_DELAY, 2 * edge], // all outliers, repeated
            (0..500).map(|i| (i * 37) % 97).collect(), // dense, many repeats
            (0..40).map(|i| i * 800).collect(),      // mostly above the window, all distinct
        ];
        for case in cases {
            for copies in [1, WINDOW / CELLS_PER_ROW] {
                let delays = case.repeat(copies);
                let hist = hist_of_all(&delays);
                let mut sorted = delays.clone();
                sorted.sort_unstable();
                assert_eq!(hist, hist_of_sorted(&sorted), "{case:?} × {copies}");
                assert_eq!(hist.finalize(), reference_stats(&delays), "{case:?} × {copies}");
                // Cut into row ranges: the same multiset, the same answer.
                let cuts = [delays.len() / 3, delays.len() / 3, delays.len() * 2 / 3];
                assert_eq!(hist_of_ranges(&delays, &cuts), hist, "{case:?} × {copies}");
            }
        }
    }

    #[test]
    fn the_row_count_decides_between_counting_and_sorting() {
        // One row short of the cut sorts everything; at the cut only the
        // delays at and above the window edge are sorted.
        let cut = WINDOW / CELLS_PER_ROW;
        for (rows, sorted) in [(cut - 1, cut - 1), (cut, 2)] {
            let mut delays: Vec<u32> = (0..rows as u32 - 2).map(|i| i % 96).collect();
            delays.extend([WINDOW as u32, MAX_TRACKED_DELAY]);
            let ranges = [Grouped::of_rows(1, &vec![0; rows], &delays)];
            let mut scratch = HistScratch::new();
            let hist = hist_of(ranges.iter().map(|g| g.of_source(0)), delays.len(), &mut scratch);
            assert_eq!(scratch.sorted.len(), sorted, "{rows} rows");
            assert_eq!(hist.count(), rows as u64);
            assert_eq!(hist.runs.last(), Some(&(MAX_TRACKED_DELAY, 1)));
        }
    }

    #[test]
    fn one_outlier_costs_one_sorted_entry() {
        // Thousands of delays below 96 and one a year out: the scratch is
        // the window every source gets, and the sort sees one row.
        let mut delays: Vec<u32> = (0..5_000).map(|i| i % 96).collect();
        delays.push(MAX_TRACKED_DELAY);
        let ranges = [Grouped::of_rows(1, &vec![0; delays.len()], &delays)];
        let mut scratch = HistScratch::new();
        let hist = hist_of(ranges.iter().map(|g| g.of_source(0)), delays.len(), &mut scratch);
        assert_eq!((scratch.window.len(), scratch.sorted.len()), (WINDOW, 1));
        let stats = hist.finalize();
        assert_eq!(
            (stats.count, stats.min, stats.max, stats.median),
            (5_001, 0, MAX_TRACKED_DELAY, 47)
        );
    }

    #[test]
    fn groups_tile_the_range_and_drop_unknown_sources() {
        // Source 1 three times, source 0 once, source 2 never, source 5
        // not in a three-source directory.
        let g = Grouped::of_rows(3, &[1, 5, 1, 0, 1, 5], &[3, 1, 9, 2_000, 3, 4_000]);
        assert_eq!(g.of_source(0), &[2_000]);
        assert_eq!(g.of_source(1), &[3, 9, 3]);
        assert!(g.of_source(2).is_empty());
        assert!(g.of_source(3).is_empty() && g.of_source(5).is_empty());
        assert_eq!((g.end_of(0), g.end_of(1), g.end_of(2), g.end_of(3)), (1, 4, 4, 0));
        // No sources, no rows.
        assert!(Grouped::of_rows(0, &[0, 1], &[5, 6]).of_source(0).is_empty());
        assert!(Grouped::of_rows(2, &[], &[]).of_source(1).is_empty());
        assert!(Grouped::default().of_source(0).is_empty());
    }

    #[test]
    fn delay_hist_merge_equals_concatenation() {
        let mut a = hist_of_sorted(&[1, 1, 4, 8]);
        let b = hist_of_sorted(&[0, 4, 4, 9]);
        a.merge(b);
        assert_eq!(a, hist_of_sorted(&[0, 1, 1, 4, 4, 4, 8, 9]));
        // Empty is the identity on both sides.
        let mut e = DelayHist::default();
        e.merge(a.clone());
        assert_eq!(e, a);
        let mut a2 = a.clone();
        a2.merge(DelayHist::default());
        assert_eq!(a2, a);
    }

    /// The merge of the previous design: concatenate, sort, add equal
    /// delays.
    fn merge_by_sorting(a: &DelayHist, b: &DelayHist) -> DelayHist {
        let mut runs: Vec<(u32, u64)> = a.runs.iter().chain(&b.runs).copied().collect();
        runs.sort_by_key(|&(dl, _)| dl);
        runs.dedup_by(|later, kept| {
            later.0 == kept.0 && {
                kept.1 += later.1;
                true
            }
        });
        DelayHist { runs }
    }

    #[test]
    fn linear_merge_equals_the_sorting_merge() {
        // Interleaved, disjoint, nested and identical run lists, with the
        // extreme delays and counts.
        let lists: Vec<Vec<(u32, u64)>> = vec![
            vec![],
            vec![(0, 1)],
            vec![(u32::MAX, u64::MAX / 2)],
            vec![(0, 3), (5, 1), (9, 2), (u32::MAX, 1)],
            vec![(1, 1), (5, 4), (6, 1), (1_024, 7)],
            (0..200).map(|i| (i * 3, u64::from(i) + 1)).collect(),
            (0..200).map(|i| (i * 5 + 1, 2)).collect(),
            (100..120).map(|i| (i, 1)).collect(),
        ];
        for a in &lists {
            for b in &lists {
                let (a, b) = (DelayHist { runs: a.clone() }, DelayHist { runs: b.clone() });
                let want = merge_by_sorting(&a, &b);
                assert_eq!(a.clone().merged(b.clone()), want, "{a:?} + {b:?}");
                assert!(want.runs.windows(2).all(|w| w[0].0 < w[1].0));
            }
        }
    }

    #[test]
    fn merged_hists_finalize_like_the_concatenated_rows() {
        let (left, right) = ([5u32, 0, 5, 9], [9u32, 9, 2, 35_135]);
        let mut merged = hist_of_all(&left);
        merged.merge(hist_of_all(&right));
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
            per_source_stats(&ExecContext::builder().threads(1).build(), &d),
            per_source_stats(&ctx(), &d)
        );
    }
}
