//! Property tests for the query engine: every parallel operator must
//! agree exactly with its obvious sequential definition, for arbitrary
//! inputs and thread counts — the fundamental correctness contract of
//! the partition/merge execution model.

use gdelt_columnar::partition::event_partitions;
use gdelt_engine::aggregate::count_by;
use gdelt_engine::chunk::{for_each_event, SelMask, CHUNK_ROWS};
use gdelt_engine::filter::Bitmap;
use gdelt_engine::matrix::Matrix;
use gdelt_engine::topk::top_k;
use gdelt_engine::ExecContext;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn count_by_matches_sequential_definition(
        keys in prop::collection::vec(0u32..50, 0..2_000),
        threads in 1usize..8,
    ) {
        let ctx = ExecContext::builder().threads(threads).build();
        let got = count_by(&ctx, &keys, 50);
        let mut expect = vec![0u64; 50];
        for &k in &keys {
            expect[k as usize] += 1;
        }
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn top_k_matches_full_sort(vals in prop::collection::vec(0u64..1_000, 0..500), k in 0usize..50) {
        let got = top_k(&vals, k);
        let mut full: Vec<(usize, u64)> = vals.iter().copied().enumerate().collect();
        full.sort_by_key(|&(i, v)| (std::cmp::Reverse(v), i));
        full.truncate(k);
        prop_assert_eq!(got, full);
    }

    #[test]
    fn matrix_merge_is_elementwise_addition(
        a in prop::collection::vec(0u64..100, 16),
        b in prop::collection::vec(0u64..100, 16),
    ) {
        use gdelt_engine::exec::Merge;
        let mut ma = Matrix::<u64>::zeros(4, 4);
        let mut mb = Matrix::<u64>::zeros(4, 4);
        for i in 0..16 {
            ma.set(i / 4, i % 4, a[i]);
            mb.set(i / 4, i % 4, b[i]);
        }
        let (ra, ca) = (ma.row_sums(), ma.col_sums());
        ma.merge(mb);
        for i in 0..16 {
            prop_assert_eq!(ma.get(i / 4, i % 4), a[i] + b[i]);
        }
        // Row/col sums are additive too.
        let _ = (ra, ca);
        prop_assert_eq!(ma.total(), a.iter().sum::<u64>() + b.iter().sum::<u64>());
    }

    #[test]
    fn bitmap_set_ops_behave_like_sets(
        xs in prop::collection::vec(0usize..256, 0..64),
        ys in prop::collection::vec(0usize..256, 0..64),
    ) {
        use std::collections::BTreeSet;
        let mut a = Bitmap::new(256);
        let mut b = Bitmap::new(256);
        let sa: BTreeSet<usize> = xs.iter().copied().collect();
        let sb: BTreeSet<usize> = ys.iter().copied().collect();
        for &x in &sa {
            a.set(x);
        }
        for &y in &sb {
            b.set(y);
        }
        a.or(&b);
        prop_assert_eq!(
            (0..256).filter(|&i| a.get(i)).collect::<Vec<_>>(),
            sa.union(&sb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(a.count(), sa.union(&sb).count());
    }

    // ---- word-level selection vectors --------------------------------
    // The vectorized forms (64 lanes per u64 word) must agree with the
    // obvious one-bit-at-a-time reference for every length, including
    // lengths that leave a partial tail word.

    #[test]
    fn word_level_fill_matches_per_bit_reference(
        col in prop::collection::vec(0u16..40, 0..CHUNK_ROWS + 100),
        lo in 0u16..40,
        span in 0u16..10,
    ) {
        let hi = lo.saturating_add(span);
        let m = SelMask::select(&col, |v| lo <= v && v <= hi);
        // Per-bit reference; rows past a chunk stay unselected.
        let mut reference = [0u64; CHUNK_ROWS / 64];
        for (i, &v) in col.iter().enumerate().take(CHUNK_ROWS) {
            reference[i / 64] |= u64::from(lo <= v && v <= hi) << (i % 64);
        }
        prop_assert_eq!(m.words(), &reference);
        prop_assert_eq!(m.rows(), col.len().min(CHUNK_ROWS));
        prop_assert_eq!(m.count(), reference.iter().map(|w| w.count_ones() as usize).sum::<usize>());
    }

    #[test]
    fn word_iteration_agrees_with_bit_iteration(
        xs in prop::collection::vec(0usize..700, 0..128),
        n in 1usize..700,
    ) {
        let mut bm = Bitmap::new(n);
        for &x in xs.iter().filter(|&&x| x < n) {
            bm.set(x);
        }
        // A trailing-zeros walk of the words yields exactly the set bits.
        let mut from_words = Vec::new();
        for (w, &word) in bm.words().iter().enumerate() {
            let mut word = word;
            while word != 0 {
                from_words.push(w * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
        prop_assert_eq!(from_words, (0..n).filter(|&i| bm.get(i)).collect::<Vec<_>>());
        prop_assert_eq!(bm.words().len(), n.div_ceil(64));
    }

    #[test]
    fn word_level_set_ops_match_per_bit_ops(
        aw in prop::collection::vec(any::<u64>(), 0..12),
        bw in prop::collection::vec(any::<u64>(), 0..12),
        n in 0usize..700,
    ) {
        let a = Bitmap::from_words(aw, n);
        let b = Bitmap::from_words(bw, n);
        let mut or = a.clone();
        or.or(&b);
        for i in 0..n {
            prop_assert_eq!(or.get(i), a.get(i) || b.get(i));
        }
        prop_assert_eq!(or.count(), (0..n).filter(|&i| or.get(i)).count());
    }

    // The CSR partitioner: whatever the degree distribution — mostly one
    // mention, a few dozens, now and then thousands, as in GDELT — the
    // event ranges tile the index, every edge is an event boundary (an
    // offset of the CSR), and no range outweighs its fair share of the
    // mentions by as much as the heaviest single event.
    #[test]
    fn event_partitions_tile_the_events_and_balance_the_mentions(
        degrees in prop::collection::vec(
            prop_oneof![12 => 0u64..3, 3 => 0u64..40, 1 => 4_000u64..6_000],
            0..300,
        ),
        n_parts in 1usize..40,
    ) {
        let mut offsets = vec![0u64];
        for deg in &degrees {
            offsets.push(offsets[offsets.len() - 1] + deg);
        }
        let parts = event_partitions(&offsets, n_parts);
        prop_assert!(parts.len() <= n_parts);
        prop_assert_eq!(parts.is_empty(), degrees.is_empty());
        let mut next = 0;
        for p in &parts {
            prop_assert_eq!(p.begin, next);
            prop_assert!(p.end > p.begin && p.end <= degrees.len());
            next = p.end;
        }
        prop_assert_eq!(next, degrees.len());

        let total = offsets[degrees.len()];
        let n = n_parts.min(degrees.len().max(1)) as u64;
        let heaviest = degrees.iter().copied().max().unwrap_or(0);
        for p in &parts {
            let (lo, hi) = (offsets[p.begin], offsets[p.end]);
            prop_assert!(offsets.binary_search(&lo).is_ok() && offsets.binary_search(&hi).is_ok());
            prop_assert!(
                hi - lo < total.div_ceil(n) + heaviest.max(1),
                "events {}..{} weigh {} of {} in {} parts, heaviest event {}",
                p.begin, p.end, hi - lo, total, n, heaviest
            );
        }
        // The walker visits exactly the partition's events and rows.
        for p in &parts {
            let mut seen = Vec::new();
            for_each_event(&offsets, p.range(), |e, rows| seen.push((e, rows)));
            prop_assert_eq!(seen.len(), p.len());
            prop_assert_eq!(seen.first().map(|(e, rows)| (*e, rows.start as u64)), Some((p.begin, offsets[p.begin])));
            prop_assert_eq!(seen.last().map(|(e, rows)| (*e + 1, rows.end as u64)), Some((p.end, offsets[p.end])));
            prop_assert!(seen.windows(2).all(|w| w[0].1.end == w[1].1.start && w[0].0 + 1 == w[1].0));
        }
    }
}
