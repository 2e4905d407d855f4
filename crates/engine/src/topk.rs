//! Top-k selection: most productive publishers, most reported events.
//!
//! One streaming selector under [`top_k`] and the event ranking: a
//! single pass that keeps the `k` best entries seen so far and the value
//! a newcomer has to beat, so its scratch is O(k) whatever the input
//! length. Values arrive in blocks of `RANK_BLOCK` (64); once `k` entries
//! are held, a block whose maximum does not beat that floor (one
//! vectorised fold) is passed over without a heap probe per value.
//! Event degrees are read straight off the CSR offsets, per partition,
//! and partition rankings merge under the same `(Reverse(value), index)`
//! order that shard partials merge under ([`merge_ranked`]).

use crate::chunk::{partition_scan, rows_of};
use crate::exec::ExecContext;
use gdelt_columnar::Dataset;
use gdelt_model::ids::SourceId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Values per block of the selector's skip test.
const RANK_BLOCK: usize = 64;

/// The `k` most productive sources with their article counts, descending
/// (ties broken by source id for determinism), from per-source article
/// counts. This is the paper's Fig 6 / Table IV / Table VIII selection.
// analyze: no_panic
pub fn ranked_publishers(counts: &[u64], k: usize) -> Vec<(SourceId, u64)> {
    top_k(counts, k).into_iter().map(|(i, n)| (SourceId(i as u32), n)).collect()
}

/// What [`top_events`] costs an event on one thread at `k` = 10:
/// 0.35–0.49 ns.
const RANK_ROW_NS: f64 = 0.4;

/// The `k` most mentioned events as `(event_row, mentions)` (Table III).
// analyze: no_panic
pub(crate) fn top_events(ctx: &ExecContext, d: &Dataset, k: usize) -> Vec<(usize, u64)> {
    let offsets = &d.event_index.offsets;
    let n_events = offsets.len().saturating_sub(1);
    let rank_rows = |rows: std::ops::Range<usize>| {
        // Event `e`'s mentions are `offsets[e]..offsets[e + 1]`.
        let (lo, hi) = (rows_of(offsets, &rows), rows_of(offsets, &(rows.start + 1..rows.end + 1)));
        let mut best = Ranker::new(k, rows.len());
        let ((lo_blocks, lo_rest), (hi_blocks, hi_rest)) =
            (lo.as_chunks::<RANK_BLOCK>(), hi.as_chunks::<RANK_BLOCK>());
        let blocks = lo_blocks.iter().map(|b| &b[..]).zip(hi_blocks.iter().map(|b| &b[..]));
        for (b, (lo, hi)) in blocks.chain([(lo_rest, hi_rest)]).enumerate() {
            let pairs = lo.iter().zip(hi);
            // The skip test reads each degree wrapping: a descending pair,
            // which no valid index holds, reads at or past 2⁶³ and is walked.
            let test = pairs.clone().map(|(&lo, &hi)| hi.wrapping_sub(lo));
            let degrees = pairs.map(|(&lo, &hi)| hi.saturating_sub(lo));
            best.offer_block(rows.start + b * RANK_BLOCK, test, degrees);
        }
        best.ranked()
    };
    partition_scan(ctx, n_events, RANK_ROW_NS, rank_rows, |a, b| merge_ranked(a, b, k))
}

/// The `k` largest of `vals` as `(index, value)`, descending, ties by
/// ascending index — in one pass with O(k) scratch.
// analyze: no_panic
pub fn top_k(vals: &[u64], k: usize) -> Vec<(usize, u64)> {
    let mut best = Ranker::new(k, vals.len());
    let (blocks, rest) = vals.as_chunks::<RANK_BLOCK>();
    for (b, block) in blocks.iter().map(|b| &b[..]).chain([rest]).enumerate() {
        best.offer_block(b * RANK_BLOCK, block.iter().copied(), block.iter().copied());
    }
    best.ranked()
}

/// The streaming selector under [`top_k`] and [`top_events`]: blocks of
/// values offered in ascending index order, the best `k` kept.
struct Ranker {
    k: usize,
    /// Min-heap of the best so far: its top is the entry a newcomer must
    /// beat — the smallest value, and among equals the latest index.
    best: BinaryHeap<Reverse<(u64, Reverse<usize>)>>,
}

impl Ranker {
    /// An empty ranking of `k` places, expecting about `hint` values.
    fn new(k: usize, hint: usize) -> Self {
        Ranker { k, best: BinaryHeap::with_capacity(k.min(hint)) }
    }

    /// Offer `vals`, value `i` at index `first + i` (above every index
    /// offered before). `test` yields the same values, or one at or
    /// past 2⁶³ where the block must be walked whatever the floor.
    // analyze: no_panic
    #[inline(always)]
    fn offer_block(
        &mut self,
        first: usize,
        test: impl Iterator<Item = u64>,
        vals: impl Iterator<Item = u64>,
    ) {
        // Indexes ascend, so a value equal to the floor never displaces:
        // a block whose maximum does not beat it changes nothing.
        let floor = self.best.peek().filter(|_| self.best.len() == self.k);
        if self.k == 0 || floor.is_some_and(|&Reverse((floor, _))| !may_beat(test, floor)) {
            return;
        }
        for (i, v) in vals.enumerate() {
            if self.best.len() == self.k {
                if self.best.peek().is_some_and(|&Reverse((floor, _))| v <= floor) {
                    continue;
                }
                self.best.pop();
            }
            self.best.push(Reverse((v, Reverse(first + i))));
        }
    }

    /// The ranking: descending values, ties by ascending index.
    fn ranked(self) -> Vec<(usize, u64)> {
        self.best.into_sorted_vec().into_iter().map(|Reverse((v, Reverse(i)))| (i, v)).collect()
    }
}

/// Whether the maximum of `vals` may beat `floor`: false only if it
/// does not. `floor − v` borrows into the top bit exactly when a value
/// `v` below 2⁶³ exceeds a floor below 2⁶³, so one OR of subtractions
/// (with the values themselves, to catch any at or past 2⁶³) answers
/// without the compares a `u64` maximum needs, which SSE2 lacks.
// analyze: no_panic
#[inline(always)]
fn may_beat(vals: impl Iterator<Item = u64>, floor: u64) -> bool {
    vals.fold(floor, |acc, v| acc | v | floor.wrapping_sub(v)) >> 63 != 0
}

/// Sorted merge of two rankings under `(Reverse(value), index)`,
/// truncated to `k`. Indexes are whatever the two sides agree on: local
/// event rows across partitions, global ones across shards.
// analyze: no_panic
pub fn merge_ranked<I: Ord + Copy>(
    mut a: Vec<(I, u64)>,
    b: Vec<(I, u64)>,
    k: usize,
) -> Vec<(I, u64)> {
    a.extend(b);
    a.sort_by_key(|&(i, v)| (Reverse(v), i));
    a.truncate(k);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{run_query, Query, QueryResult, TopKKind};
    use gdelt_columnar::index::EventIndex;
    use gdelt_columnar::partition::fork_pieces;

    fn top_publishers(ctx: &ExecContext, d: &Dataset, k: u32) -> Vec<(SourceId, u64)> {
        let q = Query::TopK { kind: TopKKind::Publishers, k };
        let QueryResult::TopPublishers(top) = run_query(ctx, d, &q) else {
            unreachable!("TopK Publishers query yields a TopPublishers result");
        };
        top
    }

    /// The oracle: sort everything by `(Reverse(value), index)`.
    fn ranked(vals: &[u64], k: usize) -> Vec<(usize, u64)> {
        let mut all: Vec<(usize, u64)> = vals.iter().copied().enumerate().collect();
        all.sort_by_key(|&(i, v)| (Reverse(v), i));
        all.truncate(k);
        all
    }

    /// A dataset that is nothing but a CSR index with these degrees.
    fn with_degrees(degrees: &[u64]) -> Dataset {
        let mut offsets = vec![0u64];
        for d in degrees {
            offsets.push(offsets[offsets.len() - 1] + d);
        }
        let mut d = Dataset::default();
        d.event_index = EventIndex { offsets: offsets.as_slice().into() };
        d
    }

    #[test]
    fn top_k_orders_descending() {
        let vals = [5u64, 9, 1, 9, 7];
        assert_eq!(top_k(&vals, 3), vec![(1, 9), (3, 9), (4, 7)]);
        assert_eq!(top_k(&vals, 0), vec![]);
        assert_eq!(top_k(&vals, 10), vec![(1, 9), (3, 9), (4, 7), (0, 5), (2, 1)]);
    }

    #[test]
    fn ties_break_by_index() {
        assert_eq!(top_k(&[3u64, 3, 3], 2), vec![(0, 3), (1, 3)]);
    }

    #[test]
    fn streaming_top_k_equals_full_sort() {
        let noisy: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(2_654_435_761) % 23).collect();
        let ascending: Vec<u64> = (0..300).collect(); // every value displaces one
        let one_giant: Vec<u64> = (0..200).map(|i| if i == 77 { 5_234 } else { 2 }).collect();
        for vals in [&noisy[..], &ascending, &one_giant, &[7; 40], &[]] {
            for k in [0, 1, 2, 10, vals.len(), vals.len() + 3, usize::MAX] {
                assert_eq!(top_k(vals, k), ranked(vals, k), "k={k}");
            }
        }
    }

    #[test]
    fn rankings_merge_across_partitions_with_ties_on_the_kth_place() {
        // Rows 1 and 5 tie for second place; the cut falls between them.
        let vals = [1u64, 4, 9, 0, 2, 4, 3];
        for cut in 0..=vals.len() {
            let (a, b) = vals.split_at(cut);
            for k in [0, 1, 2, 3, 7, 9] {
                let right = top_k(b, k).into_iter().map(|(i, v)| (cut + i, v));
                let merged = merge_ranked(top_k(a, k), right.collect(), k);
                assert_eq!(merged, ranked(&vals, k), "cut {cut}, k {k}");
            }
        }
    }

    #[test]
    fn top_events_streams_partitions_above_the_cut_off() {
        // Degrees 1..=3 in a pattern no partition boundary lines up with,
        // a 5 234-mention event, and two rows tying for second place in
        // the first and the last partition of every thread count below;
        // events enough that two threads fork.
        let n = 404_321;
        assert!(fork_pieces(n, RANK_ROW_NS, 2) > 1);
        let mut degrees: Vec<u64> = (0..n as u64).map(|i| 1 + i % 3).collect();
        degrees[n / 2 + 1] = 5_234;
        degrees[17] = 900;
        degrees[n - 5] = 900;
        let d = with_degrees(&degrees);
        for threads in [1, 2, 3, 5] {
            let ctx = ExecContext::builder().threads(threads).build();
            for k in [0, 1, 2, 3, 10, 1_000] {
                assert_eq!(
                    top_events(&ctx, &d, k),
                    ranked(&degrees, k),
                    "{threads} threads, k={k}"
                );
            }
        }
        // All degrees equal: the first k rows, in row order.
        let flat = with_degrees(&vec![2; n]);
        let ctx = ExecContext::builder().threads(3).build();
        assert_eq!(top_events(&ctx, &flat, 4), vec![(0, 2), (1, 2), (2, 2), (3, 2)]);
        // More places than events.
        let few = with_degrees(&[3, 1, 3]);
        assert_eq!(top_events(&ctx, &few, 10), vec![(0, 3), (2, 3), (1, 1)]);
    }

    #[test]
    fn blocks_skipped_at_the_floor_keep_every_tie_in_index_order() {
        // Runs of equal degrees that straddle the 64-event blocks, so a
        // full ranking meets whole blocks equal to its floor (skipped),
        // blocks whose only entry above the floor is their last, and a
        // floor that rises mid-block.
        let n = 5 * RANK_BLOCK + 17;
        let patterns: [&dyn Fn(usize) -> u64; 4] = [
            &|i| 3 + u64::from(i % 97 == 96),
            &|i| if i < RANK_BLOCK + 5 { 4 } else { 4 + u64::from(i % RANK_BLOCK == 63) },
            &|i| (i / 40) as u64 % 3,
            &|i| 9 - (i / RANK_BLOCK) as u64,
        ];
        for (p, pattern) in patterns.iter().enumerate() {
            let degrees: Vec<u64> = (0..n).map(pattern).collect();
            let d = with_degrees(&degrees);
            for k in [1, 63, 64, 65, 100, 128, 129, n - 1, n, n + 1, n + 100] {
                assert_eq!(top_k(&degrees, k), ranked(&degrees, k), "pattern {p}, k={k}");
                for threads in [1, 3] {
                    let ctx = ExecContext::builder().threads(threads).build();
                    let got = top_events(&ctx, &d, k);
                    assert_eq!(got, ranked(&degrees, k), "pattern {p}, k={k}, {threads} threads");
                }
            }
        }
        // Partitions cut inside blocks: every degree ties but one per
        // 1 000 events.
        let n = 9_031;
        let degrees: Vec<u64> = (0..n).map(|i| 2 + u64::from(i % 1_000 == 999)).collect();
        let d = with_degrees(&degrees);
        let ctx = ExecContext::builder().threads(3).build();
        for k in [64, 65, 100, 1_000] {
            assert_eq!(top_events(&ctx, &d, k), ranked(&degrees, k), "k={k}");
        }
    }

    #[test]
    fn the_skip_test_is_exact_below_the_top_bit_and_never_skips_above_it() {
        let top = 1u64 << 63;
        for (block, floor, beats) in [
            (&[3u64, 7, 2][..], 7, false),
            (&[3, 8, 2], 7, true),
            (&[], 0, false),
            (&[0], 0, false),
            (&[top - 1], top - 2, true),
            (&[top - 1], top - 1, false),
            (&[top], top, true), // at the top bit: walked, not skipped
            (&[1], u64::MAX, true),
        ] {
            assert_eq!(may_beat(block.iter().copied(), floor), beats, "{block:?} against {floor}");
        }
        // Rankings over values on both sides of the top bit.
        let vals: Vec<u64> = (0..300u64).map(|i| (i * 7_919 % 13) << (i % 3 * 31)).collect();
        for k in [1, 10, 64, 65, 299, 300] {
            assert_eq!(top_k(&vals, k), ranked(&vals, k), "k={k}");
        }
    }

    #[test]
    fn top_publishers_and_events_on_synthetic_data() {
        use gdelt_columnar::DatasetBuilder;
        use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
        use gdelt_model::event::{ActionGeo, EventRecord};
        use gdelt_model::ids::EventId;
        use gdelt_model::mention::{MentionRecord, MentionType};
        use gdelt_model::time::{DateTime, GDELT_EPOCH};

        let mut b = DatasetBuilder::new();
        for id in 1..=2u64 {
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
        let m = |event: u64, src: &str, k: u32| MentionRecord {
            event_id: EventId(event),
            event_time: DateTime::midnight(GDELT_EPOCH),
            mention_time: DateTime::midnight(GDELT_EPOCH),
            mention_type: MentionType::Web,
            source_name: src.into(),
            url: format!("https://{src}/{event}/{k}"),
            confidence: 50,
            doc_tone: 0.0,
        };
        // busy.com: 3 articles; quiet.com: 1; other.com: 1.
        b.add_mention(m(1, "busy.com", 0));
        b.add_mention(m(1, "busy.com", 1));
        b.add_mention(m(2, "busy.com", 2));
        b.add_mention(m(1, "quiet.com", 0));
        b.add_mention(m(2, "other.com", 0));
        let (d, _) = b.build();

        let ctx = ExecContext::builder().threads(2).build();
        let pubs = top_publishers(&ctx, &d, 2);
        assert_eq!(pubs.len(), 2);
        assert_eq!(d.sources.name(pubs[0].0), "busy.com");
        assert_eq!(pubs[0].1, 3);

        let events = top_events(&ctx, &d, 1);
        // Event row 0 (id 1) has 3 mentions, row 1 has 2.
        assert_eq!(events, vec![(0, 3)]);
    }

    #[test]
    fn empty_dataset_top_k() {
        let d = gdelt_columnar::Dataset::default();
        let ctx = ExecContext::builder().threads(1).build();
        assert!(top_publishers(&ctx, &d, 5).is_empty());
        assert!(top_events(&ctx, &d, 5).is_empty());
    }
}
