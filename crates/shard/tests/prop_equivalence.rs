//! The execution algebra's laws, proptest-pinned on the one path every
//! query takes: for every query family, on seeded synthetic stores —
//! built in one go or grown by `append_batch` — split 1/2/4/8 ways by
//! contiguous partition range, or lopsidedly with shards that hold no
//! events at all, merging the shard partials in **any permutation**
//! (and any association — linear or tree) yields a result bit-identical
//! to single-process `run_query` over the unsharded dataset, and the
//! partial of the whole equals the merge of the partials of its pieces.
//! Each partial additionally round-trips through the wire codec on its
//! way to the merge, so the equality covers the framed bytes, not just
//! the in-memory structs.

use gdelt_columnar::degraded::restrict_to_partitions;
use gdelt_columnar::incremental::append_batch;
use gdelt_columnar::{Dataset, DatasetBuilder};
use gdelt_engine::partial::{execute, plan, run_shard_query, ShardPartial, ShardPlan, ShardQuery};
use gdelt_engine::{run_query, ExecContext, Query, QueryResult, SeriesKind, TopKKind};
use gdelt_model::ids::SourceId;
use gdelt_shard::shard_range;
use gdelt_shard::wire::Frame;
use proptest::prelude::*;

const PARTS: u32 = 8;

fn all_queries(k: u32, threshold: u32) -> Vec<Query> {
    vec![
        Query::CoReport,
        Query::FollowReport { top_k: k },
        Query::CrossCountry,
        Query::Delay,
        Query::TimeSeries(SeriesKind::Events),
        Query::TimeSeries(SeriesKind::Articles),
        Query::TimeSeries(SeriesKind::ActiveSources),
        Query::TimeSeries(SeriesKind::LateArticles { threshold }),
        Query::TopK { kind: TopKKind::Publishers, k },
        Query::TopK { kind: TopKKind::Events, k },
    ]
}

/// The seeded corpus, either built in one go or as half a corpus grown
/// by one `append_batch` (so the store under the split carries appended
/// events, late mentions of old events and sources interned mid-life).
/// The half is asked TopK Publishers first, so the appended dataset
/// answers from degrees the append extended while every shard split
/// off it counts its own.
fn corpus(seed: u64, appended: bool) -> Dataset {
    let cfg = gdelt_synth::scenario::tiny(seed);
    if !appended {
        return gdelt_synth::generate_dataset(&cfg).0;
    }
    let data = gdelt_synth::generate(&cfg);
    let (ev_half, m_half) = (data.events.len() / 2, data.mentions.len() / 2);
    let mut b = DatasetBuilder::new();
    data.events[..ev_half].iter().cloned().for_each(|e| b.add_event(e));
    data.mentions[..m_half].iter().cloned().for_each(|m| b.add_mention(m));
    let half = b.build().0;
    let ctx = ExecContext::builder().threads(1).build();
    run_query(&ctx, &half, &Query::TopK { kind: TopKKind::Publishers, k: 1 });
    append_batch(&half, data.events[ev_half..].to_vec(), data.mentions[m_half..].to_vec()).0
}

/// The balanced `n_shards`-way partition ranges.
fn balanced(n_shards: u32) -> Vec<(u32, u32)> {
    (0..n_shards).map(|s| shard_range(PARTS, n_shards, s)).collect()
}

/// A cut with empty ranges first, in the middle and last: shards that
/// keep the source directory but hold no events — their partials must
/// be merge identities.
const LOPSIDED: [(u32, u32); 5] = [(0, 0), (0, 5), (5, 5), (5, 8), (8, 8)];

/// Contiguous partition-range split; returns each shard's dataset and
/// its global event-row base.
fn split(d: &Dataset, ranges: &[(u32, u32)]) -> Vec<(Dataset, u64)> {
    let mut shards = Vec::new();
    let mut ev_base = 0u64;
    for &(lo, hi) in ranges {
        let quarantined: Vec<u32> = (0..PARTS).filter(|p| *p < lo || *p >= hi).collect();
        let shard = restrict_to_partitions(d, PARTS, &quarantined).expect("split");
        let events = shard.events.len() as u64;
        shards.push((shard, ev_base));
        ev_base += events;
    }
    shards
}

/// Permutation of `0..n` from a Lehmer code seeded by `seed` — lets
/// proptest range over every ordering without a shuffle primitive.
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    let mut out = Vec::with_capacity(n);
    for remaining in (1..=n).rev() {
        let idx = (seed % remaining as u64) as usize;
        seed /= remaining as u64;
        out.push(pool.remove(idx));
    }
    out
}

/// Push one partial through the wire codec (Reply frame) and back.
fn through_wire(p: ShardPartial) -> ShardPartial {
    let bytes = Frame::Reply { generation: 1, partial: p, flight: Vec::new() }.encode();
    let (frame, _) = Frame::decode(&bytes).expect("reply frame decodes");
    match frame {
        Frame::Reply { partial, .. } => partial,
        other => panic!("wrong frame back: {other:?}"),
    }
}

/// Merge partials in the permuted order, optionally as a balanced
/// tree instead of a left fold.
fn merge_in_order(partials: &[ShardPartial], order: &[usize], tree: bool) -> ShardPartial {
    let picked: Vec<ShardPartial> = order.iter().map(|&i| partials[i].clone()).collect();
    if !tree {
        return picked.into_iter().reduce(ShardPartial::merge).expect("nonempty");
    }
    let mut layer = picked;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        let mut it = layer.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(a.merge(b)),
                None => next.push(a),
            }
        }
        layer = next;
    }
    layer.into_iter().next().expect("nonempty")
}

/// One wire-round-tripped partial per shard for `sq`.
fn round(ctx: &ExecContext, shards: &[(Dataset, u64)], sq: &ShardQuery) -> Vec<ShardPartial> {
    shards.iter().map(|(d, base)| through_wire(run_shard_query(ctx, d, sq, *base))).collect()
}

/// Full scatter-gather for `q` through the shared plan driver, with a
/// chosen merge order/shape.
fn scatter(
    ctx: &ExecContext,
    shards: &[(Dataset, u64)],
    q: &Query,
    order: &[usize],
    tree: bool,
) -> QueryResult {
    let merged = |sq: &ShardQuery| {
        Ok::<_, std::convert::Infallible>(merge_in_order(&round(ctx, shards, sq), order, tree))
    };
    match execute(q, merged) {
        Ok(result) => result,
        Err(never) => match never {},
    }
}

/// Every request a shard can be sent for `all_queries(k, threshold)`,
/// both follow-report rounds included.
fn all_shard_queries(k: u32, threshold: u32) -> Vec<ShardQuery> {
    let mut out = vec![ShardQuery::FollowReportWith { sources: (0..k).map(SourceId).collect() }];
    for q in all_queries(k, threshold) {
        match plan(&q) {
            ShardPlan::Direct(sq) => out.push(sq),
            ShardPlan::PublishersThenFollow { .. } => out.push(ShardQuery::PublisherCounts),
        }
    }
    out
}

proptest! {
    // Each case builds a corpus, splits it three ways and runs every
    // family twice per split — keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn any_merge_permutation_matches_single_process(
        seed in 0u64..10_000,
        appended in any::<bool>(),
        threads in 1usize..4,
        k in 1u32..20,
        threshold in 1u32..800,
        perm_seed in any::<u64>(),
        tree in any::<bool>(),
    ) {
        let d = corpus(seed, appended);
        let ctx = ExecContext::builder().threads(threads).build();
        let cuts = [balanced(1), balanced(2), balanced(4), balanced(8), LOPSIDED.to_vec()];
        for ranges in cuts {
            let shards = split(&d, &ranges);
            let order = permutation(shards.len(), perm_seed);
            for q in all_queries(k, threshold) {
                let expect = run_query(&ctx, &d, &q);
                let got = scatter(&ctx, &shards, &q, &order, tree);
                prop_assert_eq!(
                    got,
                    expect,
                    "{} over {:?}, order {:?}, tree={}, appended={}",
                    q,
                    &ranges,
                    &order,
                    tree,
                    appended
                );
            }
        }
    }

    /// The law itself, below plan and finalize:
    /// `partial(d) == merge(partial(d|A), partial(d|B), …)` for every
    /// request, and a shard with no events contributes the identity.
    #[test]
    fn partial_of_the_whole_is_the_merge_of_its_pieces(
        seed in 0u64..10_000,
        appended in any::<bool>(),
        k in 1u32..20,
        perm_seed in any::<u64>(),
    ) {
        let d = corpus(seed, appended);
        let ctx = ExecContext::builder().threads(2).build();
        for ranges in [balanced(2), balanced(8), LOPSIDED.to_vec()] {
            let shards = split(&d, &ranges);
            let order = permutation(shards.len(), perm_seed);
            for sq in all_shard_queries(k, 96) {
                let whole = run_shard_query(&ctx, &d, &sq, 0);
                let pieces = round(&ctx, &shards, &sq);
                for p in &pieces {
                    prop_assert!(sq.accepts(p), "{:?} rejects its own answer", &sq);
                    prop_assert!(whole.compatible(p) && p.compatible(&whole), "{:?}", &sq);
                }
                prop_assert_eq!(
                    merge_in_order(&pieces, &order, false),
                    whole.clone(),
                    "{:?} over {:?}",
                    &sq,
                    &ranges
                );
                for ((shard, _), p) in shards.iter().zip(&pieces).filter(|((s, _), _)| s.events.is_empty()) {
                    prop_assert!(shard.mentions.is_empty());
                    prop_assert_eq!(whole.clone().merge(p.clone()), whole.clone(), "{:?}: right identity", &sq);
                    prop_assert_eq!(p.clone().merge(whole.clone()), whole.clone(), "{:?}: left identity", &sq);
                }
            }
        }
    }

    /// Merge really is commutative pairwise, not just end-to-end:
    /// `a.merge(b) == b.merge(a)` for every adjacent shard pair.
    #[test]
    fn pairwise_merge_commutes(seed in 0u64..10_000, k in 1u32..20) {
        let d = corpus(seed, false);
        let ctx = ExecContext::builder().threads(2).build();
        let shards = split(&d, &balanced(4));
        for sq in all_shard_queries(k, 96) {
            let q = &sq;
            let ps = round(&ctx, &shards, &sq);
            for w in ps.windows(2) {
                let ab = w[0].clone().merge(w[1].clone());
                let ba = w[1].clone().merge(w[0].clone());
                prop_assert_eq!(ab, ba, "{:?} pairwise commutativity", q);
            }
        }
    }
}
