//! Property tests for the query engine: every parallel operator must
//! agree exactly with its obvious sequential definition, for arbitrary
//! inputs and thread counts — the fundamental correctness contract of
//! the partition/merge execution model.

use gdelt_engine::aggregate::count_by;
use gdelt_engine::chunk::{event_partitions, for_each_event};
use gdelt_engine::filter::Bitmap;
use gdelt_engine::matrix::Matrix;
use gdelt_engine::stats::percentile_u32;
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
    fn bitmap_fill_equals_predicate(
        n in 0usize..3_000,
        modulus in 1usize..13,
        threads in 1usize..8,
    ) {
        let ctx = ExecContext::builder().threads(threads).build();
        let bm = Bitmap::fill(&ctx, n, |i| i % modulus == 1);
        for i in 0..n {
            prop_assert_eq!(bm.get(i), i % modulus == 1);
        }
        prop_assert_eq!(bm.count(), (0..n).filter(|i| i % modulus == 1).count());
        prop_assert_eq!(bm.iter().count(), bm.count());
    }

    #[test]
    fn percentile_is_monotone(mut vals in prop::collection::vec(0u32..10_000, 1..200)) {
        let p25 = percentile_u32(&mut vals, 25.0);
        let p50 = percentile_u32(&mut vals, 50.0);
        let p75 = percentile_u32(&mut vals, 75.0);
        let p100 = percentile_u32(&mut vals, 100.0);
        prop_assert!(p25 <= p50 && p50 <= p75 && p75 <= p100);
        prop_assert_eq!(p100, *vals.iter().max().unwrap());
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
        let mut and = a.clone();
        and.and(&b);
        let mut or = a.clone();
        or.or(&b);
        prop_assert_eq!(
            and.iter().collect::<Vec<_>>(),
            sa.intersection(&sb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            or.iter().collect::<Vec<_>>(),
            sa.union(&sb).copied().collect::<Vec<_>>()
        );
    }

    // ---- word-level selection-vector API ------------------------------
    // The vectorized entry points (64 lanes per u64 word) must agree
    // with the obvious one-bit-at-a-time reference for every length,
    // including lengths that leave a partial tail word.

    #[test]
    fn word_level_fill_matches_per_bit_reference(
        n in 0usize..700,
        modulus in 1usize..13,
        threads in 1usize..8,
    ) {
        let ctx = ExecContext::builder().threads(threads).build();
        let bm = Bitmap::fill(&ctx, n, |i| i % modulus == 0);
        // Per-bit reference built with set() only.
        let mut reference = Bitmap::new(n);
        for i in (0..n).step_by(modulus) {
            reference.set(i);
        }
        prop_assert_eq!(bm.count(), reference.count());
        prop_assert_eq!(bm.words(), reference.words());
        // The physical tail beyond `len` stays zero.
        if let (Some(&last), true) = (bm.words().last(), n % 64 != 0) {
            prop_assert_eq!(last & !((1u64 << (n % 64)) - 1), 0);
        }
    }

    #[test]
    fn fill_range_and_eq_match_naive_scan(
        col in prop::collection::vec(0u16..40, 0..700),
        lo in 0u16..40,
        span in 0u16..10,
        threads in 1usize..8,
    ) {
        let ctx = ExecContext::builder().threads(threads).build();
        let hi = lo.saturating_add(span);
        let bm = Bitmap::fill_range(&ctx, &col, lo, hi);
        let naive: Vec<usize> =
            (0..col.len()).filter(|&i| lo <= col[i] && col[i] <= hi).collect();
        prop_assert_eq!(bm.iter().collect::<Vec<_>>(), naive);
        let eq = Bitmap::fill_eq(&ctx, &col, lo);
        let naive_eq: Vec<usize> = (0..col.len()).filter(|&i| col[i] == lo).collect();
        prop_assert_eq!(eq.iter().collect::<Vec<_>>(), naive_eq);
    }

    #[test]
    fn word_iteration_agrees_with_bit_iteration(
        xs in prop::collection::vec(0usize..700, 0..128),
        n in 1usize..700,
        a in 0usize..700,
        b in 0usize..700,
    ) {
        let mut bm = Bitmap::new(n);
        for &x in xs.iter().filter(|&&x| x < n) {
            bm.set(x);
        }
        // iter_set_words reconstructs exactly the set rows.
        let mut from_words = Vec::new();
        for (w, mut word) in bm.iter_set_words() {
            prop_assert!(word != 0, "iter_set_words must skip zero words");
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                from_words.push(w * 64 + bit);
            }
        }
        prop_assert_eq!(from_words, bm.iter().collect::<Vec<_>>());
        // for_each_in over any window equals the filtered iteration.
        let (lo, hi) = (a.min(b), a.max(b));
        let mut masked = Vec::new();
        bm.for_each_in(lo..hi, |i| masked.push(i));
        let expect: Vec<usize> = bm.iter().filter(|&i| (lo..hi).contains(&i)).collect();
        prop_assert_eq!(masked, expect);
    }

    #[test]
    fn word_level_set_ops_match_per_bit_ops(
        aw in prop::collection::vec(any::<u64>(), 0..12),
        bw in prop::collection::vec(any::<u64>(), 0..12),
        n in 0usize..700,
    ) {
        let a = Bitmap::from_words(aw, n);
        let b = Bitmap::from_words(bw, n);
        let mut and = a.clone();
        and.and(&b);
        let mut or = a.clone();
        or.or(&b);
        for i in 0..n {
            prop_assert_eq!(and.get(i), a.get(i) && b.get(i));
            prop_assert_eq!(or.get(i), a.get(i) || b.get(i));
        }
        prop_assert_eq!(and.count(), (0..n).filter(|&i| and.get(i)).count());
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
