//! Integration tests for the two system extensions: the 15-minute
//! incremental update path (batch appends must equal a full rebuild)
//! and distributed execution (partition-range pieces answered
//! separately and merged through the execution algebra must equal
//! single-node results on a realistic synthetic corpus).

use gdelt::columnar::degraded::restrict_to_partitions;
use gdelt::columnar::incremental::append_batch;
use gdelt::engine::partial::{execute, run_shard_query, ShardPartial};
use gdelt::engine::{SeriesKind, TopKKind};
use gdelt::prelude::*;

fn corpus() -> (Vec<gdelt::model::EventRecord>, Vec<gdelt::model::MentionRecord>) {
    let cfg = gdelt::synth::scenario::tiny(131);
    let data = gdelt::synth::generate(&cfg);
    (data.events, data.mentions)
}

fn build(
    events: Vec<gdelt::model::EventRecord>,
    mentions: Vec<gdelt::model::MentionRecord>,
) -> Dataset {
    let mut b = DatasetBuilder::new();
    for e in events {
        b.add_event(e);
    }
    for m in mentions {
        b.add_mention(m);
    }
    b.build().0
}

fn serialized(d: &Dataset) -> Vec<u8> {
    let mut buf = Vec::new();
    gdelt::columnar::binfmt::write_dataset(&mut buf, d).expect("serialize");
    buf
}

#[test]
fn quarter_hour_batches_equal_full_rebuild() {
    let (events, mentions) = corpus();

    // Replay the corpus as five chronological batches, the way GDELT
    // actually arrives. The full-rebuild reference consumes the same
    // stream order (ingestion order is the tie-breaker for identical
    // (event, interval) mentions, so byte-equality requires it).
    let mut sorted_events = events;
    sorted_events.sort_by_key(|e| e.date_added);
    let mut sorted_mentions = mentions;
    sorted_mentions.sort_by_key(|a| a.mention_time);
    let full = build(sorted_events.clone(), sorted_mentions.clone());

    let chunks = 5;
    let e_step = sorted_events.len().div_ceil(chunks);
    let m_step = sorted_mentions.len().div_ceil(chunks);
    let mut current = build(sorted_events[..e_step].to_vec(), sorted_mentions[..m_step].to_vec());
    for i in 1..chunks {
        let e_lo = (i * e_step).min(sorted_events.len());
        let e_hi = ((i + 1) * e_step).min(sorted_events.len());
        let m_lo = (i * m_step).min(sorted_mentions.len());
        let m_hi = ((i + 1) * m_step).min(sorted_mentions.len());
        let (next, stats, _) = append_batch(
            &current,
            sorted_events[e_lo..e_hi].to_vec(),
            sorted_mentions[m_lo..m_hi].to_vec(),
        );
        assert!(stats.new_events > 0 || e_lo == e_hi);
        next.validate().expect("intermediate dataset valid");
        current = next;
    }

    assert_eq!(current.events.len(), full.events.len());
    assert_eq!(current.mentions.len(), full.mentions.len());
    assert_eq!(serialized(&current), serialized(&full), "incremental != rebuild");
}

#[test]
fn incremental_updates_preserve_query_results() {
    let (events, mentions) = corpus();
    let half_e = events.len() / 2;
    let half_m = mentions.len() / 2;
    let base = build(events[..half_e].to_vec(), mentions[..half_m].to_vec());
    let (updated, _, _) =
        append_batch(&base, events[half_e..].to_vec(), mentions[half_m..].to_vec());
    let full = build(events, mentions);

    let ctx = ExecContext::builder().threads(2).build();
    for q in [Query::CrossCountry, Query::CoReport] {
        assert_eq!(run_query(&ctx, &updated, &q), run_query(&ctx, &full, &q), "{q}");
    }
}

/// Partitions in the store image the pieces are cut from.
const STORE_PARTITIONS: u32 = 8;

/// `d` as `n` event-disjoint pieces (contiguous partition ranges), each
/// with the global row of its first event.
fn pieces(d: &Dataset, n: u32) -> Vec<(Dataset, u64)> {
    let mut out = Vec::new();
    let mut ev_base = 0u64;
    for s in 0..n {
        let (lo, hi) = (s * STORE_PARTITIONS / n, (s + 1) * STORE_PARTITIONS / n);
        let dropped: Vec<u32> = (0..STORE_PARTITIONS).filter(|p| *p < lo || *p >= hi).collect();
        let piece = restrict_to_partitions(d, STORE_PARTITIONS, &dropped).expect("restrict");
        let events = piece.events.len() as u64;
        out.push((piece, ev_base));
        ev_base += events;
    }
    out
}

/// Answer `q` piece by piece and merge — what a router does, in process.
fn distributed(ctx: &ExecContext, pieces: &[(Dataset, u64)], q: &Query) -> QueryResult {
    execute(q, |sq| {
        let partials = pieces.iter().map(|(d, base)| run_shard_query(ctx, d, sq, *base));
        partials.reduce(ShardPartial::merge).ok_or("no pieces")
    })
    .expect("at least one piece")
}

fn every_family() -> [Query; 10] {
    [
        Query::CoReport,
        Query::FollowReport { top_k: 6 },
        Query::CrossCountry,
        Query::Delay,
        Query::TimeSeries(SeriesKind::Events),
        Query::TimeSeries(SeriesKind::Articles),
        Query::TimeSeries(SeriesKind::ActiveSources),
        Query::TimeSeries(SeriesKind::LateArticles { threshold: 96 }),
        Query::TopK { kind: TopKKind::Publishers, k: 6 },
        Query::TopK { kind: TopKKind::Events, k: 6 },
    ]
}

#[test]
fn distributed_execution_matches_single_node_on_synthetic_corpus() {
    let (events, mentions) = corpus();
    let d = build(events, mentions);
    let ctx = ExecContext::builder().threads(2).build();

    for n in [2u32, 3, 8] {
        let cut = pieces(&d, n);
        assert_eq!(cut.iter().map(|(p, _)| p.events.len()).sum::<usize>(), d.events.len());
        assert_eq!(cut.iter().map(|(p, _)| p.mentions.len()).sum::<usize>(), d.mentions.len());
        for q in every_family() {
            assert_eq!(distributed(&ctx, &cut, &q), run_query(&ctx, &d, &q), "{q}, pieces={n}");
        }
    }
}

#[test]
fn distributing_an_updated_dataset_is_consistent() {
    // Combine both extensions: update a dataset, then cut it; the
    // distributed answers must still match the single-node ones.
    let (events, mentions) = corpus();
    let half = events.len() / 2;
    let base = build(events[..half].to_vec(), mentions[..mentions.len() / 2].to_vec());
    let (updated, _, _) =
        append_batch(&base, events[half..].to_vec(), mentions[mentions.len() / 2..].to_vec());

    let ctx = ExecContext::builder().threads(2).build();
    let cut = pieces(&updated, 4);
    for q in every_family() {
        assert_eq!(distributed(&ctx, &cut, &q), run_query(&ctx, &updated, &q), "{q}");
    }
}
