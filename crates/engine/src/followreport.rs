//! Follow-reporting analysis (paper §VI-B, Table IV, Fig 7).
//!
//! `f_ij = n_ij / n_j` where `n_ij` counts articles by site `j` on events
//! that site `i` had published on *before* (strictly earlier capture
//! interval), and `n_j` is `j`'s total article count. Unlike co-reporting
//! the matrix is asymmetric and has a meaningful diagonal: `f_jj` is the
//! rate at which a site follows up on its own reporting.
//!
//! The paper evaluates this for the Top-10 (Table IV) and Top-50 (Fig 7)
//! publishers; the implementation computes the submatrix for any source
//! selection in one pass over the time-sorted event→mentions CSR.
//!
//! Each [`crate::chunk::event_scan`] partition streams its mention rows
//! `offsets[begin]..offsets[end]` once per 64 selected sources, as three
//! zipped columns (`event_row`, `source`, `mention_interval`), with no
//! loop per event. Two words over the selection ride along: `seen`, the
//! selected sources met so far in the current event, and `prior`, those
//! met in a strictly earlier interval of it. Every mention applies two
//! masks — all ones when `event_row` changed (both words cleared), all
//! ones when the interval changed (`prior |= seen`) — so an event
//! boundary costs what any other row costs; then the mention's source
//! `j` takes one count for each member `i` of `prior`. Those counts are
//! byte lanes: column `j` keeps ⌈leaders / 8⌉ words, whose byte `b` of
//! word `w` counts leader `8w + b`; a mention adds `SPREAD` of each byte
//! of `prior` to them, and a column is flushed into the `k × k` partial
//! before any lane can pass 255. The walk is monomorphised over that
//! lane-word count (1 to 8), chosen once per 64-leader word, so the
//! adds are a fixed-width loop. Unselected sources write into a spare
//! column whose counts are dropped, which keeps the loop free of a
//! branch on the source too.
//!
//! `articles` is not walked: `n_j` is source `j`'s degree, which the
//! dataset counts once over `mentions.source` and keeps
//! ([`Dataset::source_degrees`], orphans included), the same vector the
//! ranking round that picks the selection reads.

use crate::chunk::{event_scan, mention_rows, rows_of};
use crate::exec::{ExecContext, Merge};
use crate::matrix::Matrix;
use gdelt_columnar::Dataset;
use gdelt_model::ids::SourceId;

/// Bit `i` of a byte spread to byte `i` of a word: adding `SPREAD[b]` to
/// a word of eight byte counters counts one for every member of `b`.
const SPREAD: [u64; 256] = spread_table();

const fn spread_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut bit = 0;
        while bit < 8 {
            table[byte] |= ((byte as u64 >> bit) & 1) << (8 * bit);
            bit += 1;
        }
        byte += 1;
    }
    table
}

/// Adds a byte lane takes before it must be flushed: one more could
/// carry into its neighbour.
const LANE_MAX: u64 = 255;

/// Follow-reporting result for a source selection.
#[derive(Debug, Clone, PartialEq)]
pub struct FollowReport {
    /// The selection, in request order (row/column order of `f`).
    pub subset: Vec<SourceId>,
    /// Raw follow counts `n_ij`.
    pub follow_counts: Matrix<u64>,
    /// Total articles `n_j` per selected source (all events).
    pub articles: Vec<u64>,
}

impl Merge for FollowReport {
    /// Elementwise addition — follow edges are intra-event. Both sides
    /// must be over the same subset.
    fn merge(&mut self, other: Self) {
        // Mismatched subsets are a planning bug, the same contract as
        // `Matrix::merge` on a shape mismatch.
        assert_eq!(self.subset, other.subset, "follow partials must agree on the subset");
        self.follow_counts.merge(other.follow_counts);
        self.articles.merge(other.articles);
    }
}

impl FollowReport {
    /// Compute the follow submatrix for `subset`.
    // analyze: no_panic
    pub fn build(ctx: &ExecContext, d: &Dataset, subset: &[SourceId]) -> Self {
        let k = subset.len();
        // Source id → slot; everyone else gets `k`, the spare column.
        let mut slot_of = vec![k; d.sources.len()];
        for (i, s) in subset.iter().enumerate() {
            if let Some(slot) = slot_of.get_mut(s.index()) {
                *slot = i;
            }
        }

        let offsets = &d.event_index.offsets;
        // 2.8–5.7 ns a mention on one thread, the top 10 selected.
        let follow_counts = event_scan(
            ctx,
            offsets,
            3.1,
            |events| {
                let mut counts = Matrix::<u64>::zeros(k, k);
                let rows = mention_rows(offsets, events);
                let mentions = (
                    rows_of(&d.mentions.event_row, &rows),
                    rows_of(&d.mentions.source, &rows),
                    rows_of(&d.mentions.mention_interval, &rows),
                );
                for word in 0..k.div_ceil(64) {
                    let walk = match k.saturating_sub(64 * word).min(64).div_ceil(8) {
                        1 => follow_word::<1>,
                        2 => follow_word::<2>,
                        3 => follow_word::<3>,
                        4 => follow_word::<4>,
                        5 => follow_word::<5>,
                        6 => follow_word::<6>,
                        7 => follow_word::<7>,
                        _ => follow_word::<8>,
                    };
                    walk(mentions, &slot_of, word, &mut counts);
                }
                counts
            },
            Merge::merged,
        )
        .unwrap_or_else(|| Matrix::zeros(k, k));
        let degrees = d.source_degrees();
        let articles =
            subset.iter().map(|s| degrees.get(s.index()).copied().unwrap_or(0)).collect();
        FollowReport { subset: subset.to_vec(), follow_counts, articles }
    }

    /// The normalized follow matrix `f_ij = n_ij / n_j` (column `j`
    /// normalized by `j`'s article count; 0 where `n_j = 0`).
    pub fn f_matrix(&self) -> Matrix<f64> {
        let k = self.subset.len();
        let mut m = Matrix::zeros(k, k);
        for i in 0..k {
            for j in 0..k {
                let nj = self.articles[j];
                if nj > 0 {
                    m.set(i, j, self.follow_counts.get(i, j) as f64 / nj as f64);
                }
            }
        }
        m
    }

    /// Column sums of `f` — the Table IV "Sum" row: the fraction of a
    /// publisher's articles that follow any of the selected sources.
    pub fn column_sums(&self) -> Vec<f64> {
        self.f_matrix().col_sums_f()
    }
}

/// One column of [`follow_word`]'s lanes: `LW` words of byte counters
/// and the adds they have taken since the last flush.
#[derive(Clone, Copy)]
struct LaneColumn<const LW: usize> {
    lanes: [u64; LW],
    adds: u64,
}

/// One pass over a partition's `(event_row, source, mention_interval)`
/// rows for the leaders `64 · word ..` of the selection, `LW` lane words
/// (⌈leaders / 8⌉) per column: `slot_of` maps a source to its slot
/// (`k` = unselected, the spare column), the counts land in rows
/// `64 · word ..` of `counts`.
// analyze: no_panic
fn follow_word<const LW: usize>(
    (events, sources, times): (&[u32], &[u32], &[u32]),
    slot_of: &[usize],
    word: usize,
    counts: &mut Matrix<u64>,
) {
    let k = counts.cols();
    let mut columns = vec![LaneColumn { lanes: [0u64; LW], adds: 0 }; k + 1];
    // Per slot: its bit in this word of `seen`, if it has one there.
    let bit_of: Vec<u64> =
        (0..=k).map(|j| u64::from((j < k) & (j / 64 == word)) << (j % 64)).collect();
    let (mut prior, mut seen) = (0u64, 0u64);
    let (mut last_event, mut last_time) = (u32::MAX, u32::MAX);
    for ((&event, &src), &t) in events.iter().zip(sources).zip(times) {
        let new_event = 0u64.wrapping_sub(u64::from(event != last_event));
        let new_time = 0u64.wrapping_sub(u64::from(t != last_time));
        (last_event, last_time) = (event, t);
        seen &= !new_event;
        prior = (prior & !new_event) | (seen & new_time);
        let j = slot_of.get(src as usize).copied().unwrap_or(k);
        seen |= bit_of.get(j).copied().unwrap_or(0);
        let Some(column) = columns.get_mut(j) else { continue };
        for (lane, byte) in column.lanes.iter_mut().zip(prior.to_le_bytes()) {
            *lane += SPREAD.get(usize::from(byte)).copied().unwrap_or(0);
        }
        column.adds += 1;
        if column.adds == LANE_MAX {
            flush(column, counts, 64 * word, j);
        }
    }
    for (j, column) in columns.iter_mut().enumerate() {
        flush(column, counts, 64 * word, j);
    }
}

/// Add column `j`'s byte lanes (leader `first + 8w + b` in byte `b` of
/// word `w`) into `counts` and clear it; the spare column `j = k`, and
/// lanes past the last leader, are dropped.
// analyze: no_panic
fn flush<const LW: usize>(
    column: &mut LaneColumn<LW>,
    counts: &mut Matrix<u64>,
    first: usize,
    j: usize,
) {
    for (w, lane) in column.lanes.iter().enumerate() {
        for (b, n) in lane.to_le_bytes().into_iter().enumerate() {
            let i = first + 8 * w + b;
            if i < counts.rows() && j < counts.cols() {
                *counts.get_mut(i, j) += u64::from(n);
            }
        }
    }
    *column = LaneColumn { lanes: [0; LW], adds: 0 };
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

    /// Event 1 timeline: a(t0), b(t1), a(t2), c(t1).
    /// Event 2 timeline: b(t0), a(t0) — tie, nobody follows.
    fn dataset() -> Dataset {
        let mut bld = DatasetBuilder::new();
        for id in [1u64, 2] {
            bld.add_event(EventRecord {
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
            url: format!("https://{src}/{event}/{delay}"),
            confidence: 50,
            doc_tone: 0.0,
        };
        bld.add_mention(m(1, "a.com", 0));
        bld.add_mention(m(1, "b.co.uk", 1));
        bld.add_mention(m(1, "a.com", 2));
        bld.add_mention(m(1, "c.com.au", 1));
        bld.add_mention(m(2, "b.co.uk", 0));
        bld.add_mention(m(2, "a.com", 0));
        bld.build().0
    }

    fn subset(d: &Dataset) -> Vec<SourceId> {
        vec![
            d.sources.lookup("a.com").unwrap(),
            d.sources.lookup("b.co.uk").unwrap(),
            d.sources.lookup("c.com.au").unwrap(),
        ]
    }

    fn ctx() -> ExecContext {
        ExecContext::builder().threads(2).build()
    }

    #[test]
    fn follow_counts_respect_time_order() {
        let d = dataset();
        let fr = FollowReport::build(&ctx(), &d, &subset(&d));
        let (a, b, c) = (0, 1, 2);
        // b follows a once (event 1, t1 after t0).
        assert_eq!(fr.follow_counts.get(a, b), 1);
        // c follows a once (event 1, t1 after t0).
        assert_eq!(fr.follow_counts.get(a, c), 1);
        // a's second article follows b and c (t2 > t1) and itself (t0).
        assert_eq!(fr.follow_counts.get(b, a), 1);
        assert_eq!(fr.follow_counts.get(c, a), 1);
        assert_eq!(fr.follow_counts.get(a, a), 1, "self-follow diagonal");
        // Ties (event 2, both t0) produce no follows.
        assert_eq!(fr.follow_counts.get(b, c), 0);
        assert_eq!(fr.follow_counts.get(c, b), 0);
    }

    #[test]
    fn article_totals() {
        let d = dataset();
        let fr = FollowReport::build(&ctx(), &d, &subset(&d));
        assert_eq!(fr.articles, vec![3, 2, 1]);
    }

    #[test]
    fn f_matrix_normalizes_by_column() {
        let d = dataset();
        let fr = FollowReport::build(&ctx(), &d, &subset(&d));
        let f = fr.f_matrix();
        // f[a][b] = n_ab / n_b = 1/2.
        assert!((f.get(0, 1) - 0.5).abs() < 1e-12);
        // f[a][a] = 1/3 (one self-follow out of three articles).
        assert!((f.get(0, 0) - 1.0 / 3.0).abs() < 1e-12);
        let sums = fr.column_sums();
        assert_eq!(sums.len(), 3);
        // Column a: (1 self + 1 from b + 1 from c) / 3 articles = 1.0.
        assert!((sums[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn subset_order_defines_axes() {
        let d = dataset();
        let mut sel = subset(&d);
        sel.reverse();
        let fr = FollowReport::build(&ctx(), &d, &sel);
        // Now c is row/col 0 and a is 2: f_counts[c→a] position moves.
        assert_eq!(fr.follow_counts.get(0, 2), 1); // c followed by a
        assert_eq!(fr.articles, vec![1, 2, 3]);
    }

    #[test]
    fn unselected_sources_are_invisible() {
        let d = dataset();
        let only_a = vec![d.sources.lookup("a.com").unwrap()];
        let fr = FollowReport::build(&ctx(), &d, &only_a);
        assert_eq!(fr.follow_counts.get(0, 0), 1); // self-follow remains
        assert_eq!(fr.articles, vec![3]);
    }

    #[test]
    fn empty_subset_and_empty_dataset() {
        let d = dataset();
        let fr = FollowReport::build(&ctx(), &d, &[]);
        assert_eq!(fr.follow_counts.rows(), 0);
        assert!(fr.articles.is_empty());
        let empty = Dataset::default();
        let fr = FollowReport::build(&ctx(), &empty, &[]);
        assert!(fr.column_sums().is_empty());
    }

    #[test]
    fn spread_puts_bit_i_in_byte_i() {
        for (byte, &lanes) in SPREAD.iter().enumerate() {
            let want: Vec<u8> = (0..8).map(|i| (byte >> i) as u8 & 1).collect();
            assert_eq!(lanes.to_le_bytes().to_vec(), want, "byte {byte:#04x}");
        }
    }

    // One leader, then 300 articles by each of two followers an interval
    // later, on events that meet at a shared source and interval: a
    // column past the lane limit, and state that only the change of
    // event may clear.
    #[test]
    fn lanes_flush_and_events_clear() {
        let mut bld = DatasetBuilder::new();
        let event = |id: u64| EventRecord {
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
        };
        let mention = |event: u64, src: &str, delay: u32, n: usize| MentionRecord {
            event_id: EventId(event),
            event_time: DateTime::midnight(GDELT_EPOCH),
            mention_time: DateTime::from_unix_seconds(
                DateTime::midnight(GDELT_EPOCH).to_unix_seconds() + i64::from(delay) * 900,
            ),
            mention_type: MentionType::Web,
            source_name: src.into(),
            url: format!("https://{src}/{event}/{n}"),
            confidence: 50,
            doc_tone: 0.0,
        };
        for id in 1..=2 {
            bld.add_event(event(id));
        }
        bld.add_mention(mention(1, "a.com", 0, 0));
        for n in 0..300 {
            bld.add_mention(mention(1, "b.co.uk", 1, n));
        }
        // Event 2 opens with b in the interval event 1 closed with.
        bld.add_mention(mention(2, "b.co.uk", 1, 300));
        for n in 0..300 {
            bld.add_mention(mention(2, "c.com.au", 2, n));
        }
        let d = bld.build().0;
        // Both events in one partition, and one each.
        let one_partition = ExecContext::builder().threads(1).build();
        for ctx in [one_partition, ctx()] {
            let fr = FollowReport::build(&ctx, &d, &subset(&d));
            let (a, b, c) = (0, 1, 2);
            assert_eq!(fr.follow_counts.get(a, b), 300);
            assert_eq!(fr.follow_counts.get(b, c), 300);
            assert_eq!(fr.follow_counts.get(a, c), 0, "a is not on event 2");
            assert_eq!(fr.follow_counts.total(), 600);
        }
    }

    /// 140 sources over 400 events, skewed so the leading columns flush
    /// many times inside one partition, in one to five intervals per
    /// event; then mentions of 30 events that are not in the table.
    fn lane_corpus() -> Dataset {
        let mut bld = DatasetBuilder::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for id in 1..=400u64 {
            bld.add_event(EventRecord {
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
        for (n, event) in (1..=430u64).flat_map(|e| std::iter::repeat_n(e, 50)).enumerate() {
            // Source `s` with probability ∝ √(s + 1) − √s: a heavy head.
            let r = next(1_000);
            let source = r * r * 140 / 1_000_000;
            bld.add_mention(MentionRecord {
                event_id: EventId(event),
                event_time: DateTime::midnight(GDELT_EPOCH),
                mention_time: DateTime::from_unix_seconds(
                    DateTime::midnight(GDELT_EPOCH).to_unix_seconds() + next(5) as i64 * 900,
                ),
                mention_type: MentionType::Web,
                source_name: format!("s{source}.com"),
                url: format!("https://s{source}.com/{event}/{n}"),
                confidence: 50,
                doc_tone: 0.0,
            });
        }
        bld.build().0
    }

    /// The oracle, [`crate::coreport::SparseCoReport`]-style: per event a
    /// map of each source's first interval, then every article of a
    /// selected source counts the selected leaders that came strictly
    /// earlier; `articles` is a count of the whole source column.
    fn sparse_follow(d: &Dataset, subset: &[SourceId]) -> FollowReport {
        use std::collections::HashMap;
        let k = subset.len();
        let slot: HashMap<u32, usize> = subset.iter().enumerate().map(|(i, s)| (s.0, i)).collect();
        let mut by_event: HashMap<u32, Vec<usize>> = HashMap::new();
        for (row, &er) in d.mentions.event_row.iter().enumerate() {
            if er != gdelt_columnar::table::NO_EVENT_ROW {
                by_event.entry(er).or_default().push(row);
            }
        }
        let mut follow_counts = Matrix::zeros(k, k);
        for rows in by_event.values() {
            let mut first: HashMap<u32, u32> = HashMap::new();
            for &r in rows {
                let at = first.entry(d.mentions.source[r]).or_insert(u32::MAX);
                *at = (*at).min(d.mentions.mention_interval[r]);
            }
            for &r in rows {
                let Some(&j) = slot.get(&d.mentions.source[r]) else { continue };
                for (&leader, &at) in &first {
                    if let (Some(&i), true) =
                        (slot.get(&leader), at < d.mentions.mention_interval[r])
                    {
                        *follow_counts.get_mut(i, j) += 1;
                    }
                }
            }
        }
        let mut articles = vec![0u64; k];
        for src in d.mentions.source.iter() {
            if let Some(&j) = slot.get(src) {
                articles[j] += 1;
            }
        }
        FollowReport { subset: subset.to_vec(), follow_counts, articles }
    }

    #[test]
    fn every_lane_width_matches_the_sparse_oracle_with_an_orphan_tail() {
        let d = lane_corpus();
        let joined = *d.event_index.offsets.last().unwrap() as usize;
        assert_eq!(d.mentions.len() - joined, 30 * 50, "the orphan tail");
        assert!(d.sources.len() >= 130, "{} sources", d.sources.len());
        // Sources by descending article count, as the ranking round picks
        // them, so the heavy head leads and the columns flush.
        let mut ranked: Vec<SourceId> = (0..d.sources.len() as u32).map(SourceId).collect();
        let counts = crate::aggregate::count_by(&ctx(), &d.mentions.source, d.sources.len());
        ranked.sort_by_key(|s| (std::cmp::Reverse(counts[s.index()]), s.0));
        assert!(counts[ranked[0].index()] > 4 * LANE_MAX, "the leading column flushes");
        for top_k in [0usize, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 130] {
            let subset = &ranked[..top_k.min(ranked.len())];
            let want = sparse_follow(&d, subset);
            for threads in 1..=3 {
                let ctx = ExecContext::builder().threads(threads).build();
                let got = FollowReport::build(&ctx, &d, subset);
                assert_eq!(got, want, "top_k {top_k}, {threads} thread(s)");
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let d = dataset();
        let sel = subset(&d);
        let seq = FollowReport::build(&ExecContext::builder().threads(1).build(), &d, &sel);
        let par = FollowReport::build(&ctx(), &d, &sel);
        assert_eq!(seq, par);
    }
}
