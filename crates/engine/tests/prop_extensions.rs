//! Property tests for the engine extensions: for arbitrary generator
//! seeds and structural parameters, the alternative execution strategies
//! (publisher co-reports against the sparse oracle, partition-range
//! pieces merged through the execution algebra) must agree exactly with
//! the canonical single-pass operators, and windows must decompose totals.

use gdelt_columnar::degraded::restrict_to_partitions;
use gdelt_engine::aggregate::articles_by_source_in;
use gdelt_engine::coreport::{CoReport, SparseCoReport};
use gdelt_engine::partial::{execute, run_shard_query, ShardPartial};
use gdelt_engine::{run_query, ExecContext, Query, SeriesKind, TopKKind};
use gdelt_model::ids::SourceId;
use gdelt_model::time::Quarter;
use proptest::prelude::*;

fn corpus(seed: u64, n_events: usize, n_quarters: usize) -> gdelt_columnar::Dataset {
    let mut cfg = gdelt_synth::scenario::tiny(seed);
    cfg.n_events = n_events;
    cfg.n_quarters = n_quarters;
    cfg.quarter_weights = vec![1.0; n_quarters];
    gdelt_synth::generate_dataset(&cfg).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Publisher co-reports over arbitrary unsorted subsets — empty, one
    // source, either side of a mask word (63, 64, 65) and the whole
    // directory — equal the global sparse oracle restricted to them.
    #[test]
    fn publishers_always_equal_sparse(
        seed in 0u64..1000,
        n_events in 150usize..300,
        shuffle in any::<u64>(),
    ) {
        let mut cfg = gdelt_synth::scenario::tiny(seed);
        cfg.n_sources = 200;
        cfg.n_events = n_events;
        let d = gdelt_synth::generate_dataset(&cfg).0;
        let n = d.sources.len();
        let mut order: Vec<SourceId> = (0..n as u32).map(SourceId).collect();
        order.sort_by_key(|s| (u64::from(s.0) ^ shuffle).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let sparse = SparseCoReport::build(&ExecContext::builder().threads(2).build(), &d);
        for size in [0, 1, 63, 64, 65, n] {
            let subset = &order[..size.min(n)];
            for threads in [1, 3] {
                let ctx = ExecContext::builder().threads(threads).build();
                let cr = CoReport::publishers(&ctx, &d, subset);
                prop_assert_eq!(cr.event_counts.len(), subset.len());
                for (i, si) in subset.iter().enumerate() {
                    prop_assert_eq!(cr.event_counts[i], sparse.event_counts[si.index()]);
                    for (j, sj) in subset.iter().enumerate() {
                        // The oracle holds no (s, s) pair: the diagonal reads 0.
                        let want = sparse.pair_count(si.index(), sj.index());
                        prop_assert_eq!(cr.pairs.get(i, j), want, "{} of {}", size, n);
                    }
                }
            }
        }
    }

    // Event-disjoint pieces merge to the whole, for every way of
    // cutting eight store partitions into 1..=8 contiguous ranges
    // (uneven ones included) — the theorem an MPI port must preserve.
    #[test]
    fn partition_pieces_always_merge_to_single_node(
        seed in 0u64..1000,
        n_events in 50usize..150,
        shards in 1u32..9,
        k in 1u32..12,
    ) {
        const PARTS: u32 = 8;
        let d = corpus(seed, n_events, 4);
        let ctx = ExecContext::builder().threads(2).build();
        let mut pieces = Vec::new();
        let mut ev_base = 0u64;
        for s in 0..shards {
            let (lo, hi) = (s * PARTS / shards, (s + 1) * PARTS / shards);
            let dropped: Vec<u32> = (0..PARTS).filter(|p| *p < lo || *p >= hi).collect();
            let piece = restrict_to_partitions(&d, PARTS, &dropped).expect("restrict");
            let events = piece.events.len() as u64;
            pieces.push((piece, ev_base));
            ev_base += events;
        }
        prop_assert_eq!(ev_base, d.events.len() as u64);
        prop_assert_eq!(pieces.iter().map(|(p, _)| p.mentions.len()).sum::<usize>(), d.mentions.len());
        for q in [
            Query::CoReport,
            Query::FollowReport { top_k: k },
            Query::CrossCountry,
            Query::Delay,
            Query::TimeSeries(SeriesKind::ActiveSources),
            Query::TopK { kind: TopKKind::Events, k },
        ] {
            let merged = execute(&q, |sq| {
                let partials = pieces.iter().map(|(p, base)| run_shard_query(&ctx, p, sq, *base));
                partials.reduce(ShardPartial::merge).ok_or("no pieces")
            });
            prop_assert_eq!(merged, Ok(run_query(&ctx, &d, &q)), "{} over {} pieces", q, shards);
        }
    }

    #[test]
    fn quarter_views_partition_the_corpus(
        seed in 0u64..1000,
        n_events in 50usize..200,
        n_quarters in 2usize..8,
    ) {
        let d = corpus(seed, n_events, n_quarters);
        let Some((base, n)) = d.quarter_span() else {
            return Ok(());
        };
        let mut total_by_source = vec![0u64; d.sources.len()];
        for i in 0..n {
            let q = Quarter::from_linear(i32::from(base) + i as i32);
            for (t, c) in total_by_source.iter_mut().zip(articles_by_source_in(&d, q, q)) {
                *t += c;
            }
        }
        prop_assert_eq!(total_by_source, d.source_degrees());
    }
}
