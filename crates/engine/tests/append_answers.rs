//! A dataset extended by appends answers every query as a fresh build
//! of the same rows does: over arbitrary batch splits, with quarters
//! before, inside and after what the base had filled, new sources,
//! mentions of dropped duplicate events and orphans, on projected bases
//! too. The derived values an append extends (the quarter span and the
//! source × quarter counts, `Dataset::source_quarters`) equal their
//! recounts, and the ten `Query` answers equal those over a fresh
//! build, whose cache starts empty, at 1 and 3 threads — below the fork
//! size of the fill and of the scans, and above it.

use gdelt_columnar::incremental::{append_batch, APPEND_COLUMNS};
use gdelt_columnar::{Column, ColumnSet, Dataset, DatasetBuilder};
use gdelt_engine::{run_query, ExecContext, Query, SeriesKind, TopKKind};
use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
use gdelt_model::event::{ActionGeo, EventRecord};
use gdelt_model::ids::EventId;
use gdelt_model::mention::{MentionRecord, MentionType};
use gdelt_model::time::{DateTime, GDELT_EPOCH};
use proptest::prelude::*;

/// An event `days` after the epoch, captured at that day's midnight.
fn event(id: u64, days: i64) -> EventRecord {
    let day = GDELT_EPOCH.add_days(days);
    EventRecord {
        id: EventId(id),
        day,
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
        date_added: DateTime::midnight(day),
        source_url: format!("https://u/{id}"),
    }
}

/// A mention of event `id` (captured `event_days` after the epoch),
/// published `days` after the epoch.
fn mention(id: u64, event_days: i64, days: i64, src: usize) -> MentionRecord {
    MentionRecord {
        event_id: EventId(id),
        event_time: DateTime::midnight(GDELT_EPOCH.add_days(event_days)),
        mention_time: DateTime::midnight(GDELT_EPOCH.add_days(days)),
        mention_type: MentionType::Web,
        source_name: format!("pub{src}.com"),
        url: format!("https://pub{src}.com/{id}/{days}"),
        confidence: 50,
        doc_tone: 0.0,
    }
}

fn build(events: Vec<EventRecord>, mentions: Vec<MentionRecord>) -> Dataset {
    let mut b = DatasetBuilder::new();
    events.into_iter().for_each(|e| b.add_event(e));
    mentions.into_iter().for_each(|m| b.add_mention(m));
    b.build().0
}

/// Read both derived values of `d`.
fn read_derived(d: &Dataset) {
    d.quarter_span();
    d.source_quarters();
}

/// Mentions per (quarter, source) of `d` counted row by row, as
/// `(quarter, per-source counts)` rows from the least quarter to the
/// greatest.
fn matrix_oracle(d: &Dataset) -> Vec<(u16, Vec<u64>)> {
    let (Some(&lo), Some(&hi)) = (d.mentions.quarter.iter().min(), d.mentions.quarter.iter().max())
    else {
        return Vec::new();
    };
    let mut rows: Vec<(u16, Vec<u64>)> = (lo..=hi).map(|q| (q, vec![0; d.sources.len()])).collect();
    for (&q, &s) in d.mentions.quarter.iter().zip(d.mentions.source.iter()) {
        rows[usize::from(q - lo)].1[s as usize] += 1;
    }
    rows
}

/// One query of every variant.
fn all_queries() -> [Query; 10] {
    [
        Query::CoReport,
        Query::FollowReport { top_k: 4 },
        Query::CrossCountry,
        Query::Delay,
        Query::TimeSeries(SeriesKind::Events),
        Query::TimeSeries(SeriesKind::Articles),
        Query::TimeSeries(SeriesKind::ActiveSources),
        Query::TimeSeries(SeriesKind::LateArticles { threshold: 96 }),
        Query::TopK { kind: TopKKind::Publishers, k: 5 },
        Query::TopK { kind: TopKKind::Events, k: 5 },
    ]
}

/// The projections a base is appended under: none, and bases missing
/// `events.quarter`, `mentions.source` or `mentions.quarter`.
fn projection(pick: usize) -> ColumnSet {
    use Column::*;
    let with = |cs: &[Column]| APPEND_COLUMNS.union(ColumnSet::of(cs));
    match pick {
        0 => ColumnSet::ALL,
        1 => with(&[MentionsQuarter, MentionsSource, MentionsDelay]),
        2 => with(&[EventsQuarter, MentionsQuarter]),
        _ => with(&[EventsQuarter, MentionsSource]),
    }
}

/// `d`, appended to batch by batch, against a fresh build of the same
/// records projected alike: the cached values equal their recounts
/// (the deep audit, the oracles and a refill) and every query the
/// projection can answer answers alike at 1 and 3 threads.
fn assert_extends_like_a_fresh_build(
    d: &Dataset,
    events: Vec<EventRecord>,
    mentions: Vec<MentionRecord>,
    held: ColumnSet,
    what: &str,
) {
    // The cached values against their recounts: the deep audit's
    // row-at-a-time loops, a refill over a clone, and the oracle.
    let report = d.deep_validate();
    assert!(report.is_ok(), "{what}: {report}");
    assert_eq!(d.source_quarters(), d.clone().source_quarters(), "{what}: refilled");
    let mut degrees = vec![0u64; d.sources.len()];
    d.mentions.source.iter().for_each(|&s| degrees[s as usize] += 1);
    assert_eq!(d.source_degrees(), degrees, "{what}: degrees");
    if held.contains_all(ColumnSet::of(&[Column::MentionsQuarter, Column::MentionsSource])) {
        let rows: Vec<(u16, Vec<u64>)> =
            d.source_quarters().by_source().map(|(q, row)| (q, row.to_vec())).collect();
        assert_eq!(rows, matrix_oracle(d), "{what}: matrix");
    }
    let fresh = build(events, mentions).project(&held);
    for threads in [1, 3] {
        let ctx = ExecContext::builder().threads(threads).build();
        for q in all_queries().iter().filter(|q| held.contains_all(q.columns())) {
            let want = run_query(&ctx, &fresh.clone(), q);
            assert_eq!(run_query(&ctx, d, q), want, "{what}: {q}, {threads} thread(s)");
        }
    }
}

/// A record set drawn from `draws`: events over days 200..800 (about
/// seven quarters), each with a few mentions published up to two years
/// before or after them from 12 sources, a tenth of the mentions
/// orphans, and a fifth of the events repeated later with another day
/// (the repeat is dropped, its mentions kept).
fn records(draws: &[(u16, u16, u8, u8)]) -> (Vec<EventRecord>, Vec<MentionRecord>) {
    let (mut events, mut mentions) = (Vec::new(), Vec::new());
    for (i, &(day, offset, src, kind)) in draws.iter().enumerate() {
        let id = i as u64 + 1;
        let day = 200 + i64::from(day % 600);
        match kind % 10 {
            0 => mentions.push(mention(
                10_000 + id,
                day,
                day + i64::from(offset % 30),
                usize::from(src % 12),
            )),
            1 | 2 if id > 2 => {
                let of = id / 2;
                events.push(event(of, day + 1_500));
                mentions.push(mention(of, day + 1_500, day + 1_501, usize::from(src % 12)));
            }
            _ => {
                events.push(event(id, day));
                let published = day - 700 + i64::from(offset % 1_400);
                for k in 0..=u64::from(kind % 3) {
                    mentions.push(mention(
                        id,
                        day,
                        published + k as i64,
                        ((u64::from(src) + k) % 12) as usize,
                    ));
                }
            }
        }
    }
    (events, mentions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn appends_extend_the_matrix_like_a_fresh_build(
        draws in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>(), any::<u8>()), 4..60),
        cuts in prop::collection::vec((0usize..100, 0usize..100), 1..4),
        pick in 0usize..4,
        reads in any::<u8>(),
    ) {
        let (events, mentions) = records(&draws);
        let held = projection(pick);
        // The base is the records' first part; each batch takes the next
        // slices of events and mentions, cut at independent points.
        let mut cuts: Vec<(usize, usize)> = cuts
            .iter()
            .map(|&(e, m)| (e * events.len() / 100, m * mentions.len() / 100))
            .collect();
        cuts.sort_unstable();
        cuts.push((events.len(), mentions.len()));
        let (mut e_at, mut m_at) = cuts[0];
        let mut d = build(events[..e_at].to_vec(), mentions[..m_at.min(mentions.len())].to_vec())
            .project(&held);
        m_at = m_at.min(mentions.len());
        for (step, &(e_to, m_to)) in cuts.iter().enumerate().skip(1) {
            let m_to = m_to.max(m_at);
            if reads & (1 << step) != 0 {
                read_derived(&d);
            }
            let (events, mentions) = (events[e_at..e_to].to_vec(), mentions[m_at..m_to].to_vec());
            d = append_batch(&d, events, mentions).0;
            (e_at, m_at) = (e_to, m_to);
        }
        assert_extends_like_a_fresh_build(&d, events, mentions, held, &format!("{held}"));
    }
}

// Above the fork size of the fill (≈ 133 k mentions at 1.2 ns each, a
// piece per core) and of the report scans (≈ 60 k mention rows): a
// filled base and two batches, one of them bringing sources and
// quarters new to the base.
#[test]
fn an_append_above_the_fork_size_extends_like_a_fresh_build() {
    let mut cfg = gdelt_synth::scenario::paper_calibrated(0.0003, 3);
    cfg.n_quarters = 8;
    let data = gdelt_synth::generate(&cfg);
    let (events, mentions) = (data.events, data.mentions);
    assert!(mentions.len() > 150_000, "{} mentions", mentions.len());
    let (e_cut, m_cut) = (events.len() * 9 / 10, mentions.len() * 9 / 10);
    let mut batch = mentions[m_cut..].to_vec();
    let last = events.last().unwrap().id.0;
    batch.push(mention(last, 0, 1_700, 500));
    batch.push(mention(u64::MAX - 1, 0, -60, 501));
    let base = build(events[..e_cut].to_vec(), mentions[..m_cut].to_vec());
    read_derived(&base);
    let (once, _, _) =
        append_batch(&base, events[e_cut..].to_vec(), batch[..batch.len() / 2].to_vec());
    let (twice, _, _) = append_batch(&once, Vec::new(), batch[batch.len() / 2..].to_vec());
    let all: Vec<MentionRecord> = mentions[..m_cut].iter().cloned().chain(batch).collect();
    assert_extends_like_a_fresh_build(&twice, events, all, ColumnSet::ALL, "above the fork size");
}
