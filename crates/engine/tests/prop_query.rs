//! Property tests for the unified query API. `run_query` is the only
//! execution path, so nothing in production cross-checks it any more;
//! the check is an independent oracle: every `Query` variant, driven
//! through `run_query`, must agree bit-for-bit with a row-at-a-time
//! reference written here against the raw columns with maps and sorts,
//! sharing no code with the kernels, the partials or the merge.

use gdelt_columnar::degraded::restrict_to_partitions;
use gdelt_columnar::incremental::append_batch;
use gdelt_columnar::partition::event_partitions;
use gdelt_columnar::table::NO_EVENT_ROW;
use gdelt_columnar::{Column, ColumnSet, Dataset, DatasetBuilder};
use gdelt_engine::aggregate::articles_by_source_in;
use gdelt_engine::coreport::{CoReport, MASK_BLOCK_EVENTS};
use gdelt_engine::crossreport::CrossReport;
use gdelt_engine::delay::DelayStats;
use gdelt_engine::followreport::FollowReport;
use gdelt_engine::query::{run_query, Query, QueryResult, SeriesKind, TopKKind};
use gdelt_engine::timeseries::{self, QuarterlySeries};
use gdelt_engine::{ExecContext, Matrix};
use gdelt_model::country::CountryRegistry;
use gdelt_model::ids::SourceId;
use gdelt_model::time::Quarter;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn all_queries(k: u32, threshold: u32) -> [Query; 10] {
    [
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

/// The `k` largest entries of `vals` as `(index, value)`, descending,
/// ties by ascending index — by sorting everything.
fn ranked(vals: &[u64], k: u32) -> Vec<(usize, u64)> {
    let mut all: Vec<(usize, u64)> = vals.iter().copied().enumerate().collect();
    all.sort_by_key(|&(i, v)| (std::cmp::Reverse(v), i));
    all.truncate(k as usize);
    all
}

/// Mention rows of each known event, in table order.
fn rows_by_event(d: &Dataset) -> BTreeMap<u32, Vec<usize>> {
    let mut by_event: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (row, &er) in d.mentions.event_row.iter().enumerate() {
        if er != NO_EVENT_ROW {
            by_event.entry(er).or_default().push(row);
        }
    }
    by_event
}

fn articles_by_source(d: &Dataset) -> Vec<u64> {
    let mut counts = vec![0u64; d.sources.len()];
    for &s in d.mentions.source.iter() {
        counts[s as usize] += 1;
    }
    counts
}

fn reference_series(d: &Dataset, kind: SeriesKind) -> QuarterlySeries {
    let quarters = || d.events.quarter.iter().chain(d.mentions.quarter.iter()).copied();
    let (Some(lo), Some(hi)) = (quarters().min(), quarters().max()) else {
        return QuarterlySeries { base: Quarter { year: 2015, q: 1 }, values: Vec::new() };
    };
    let mut counts = vec![0u64; (hi - lo) as usize + 1];
    let mut active: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); counts.len()];
    match kind {
        SeriesKind::Events => {
            for &q in d.events.quarter.iter() {
                counts[(q - lo) as usize] += 1;
            }
        }
        _ => {
            for row in 0..d.mentions.len() {
                let slot = (d.mentions.quarter[row] - lo) as usize;
                match kind {
                    SeriesKind::LateArticles { threshold } => {
                        counts[slot] += u64::from(d.mentions.delay[row] > threshold)
                    }
                    SeriesKind::ActiveSources => {
                        active[slot].insert(d.mentions.source[row]);
                        counts[slot] = active[slot].len() as u64;
                    }
                    _ => counts[slot] += 1,
                }
            }
        }
    }
    QuarterlySeries {
        base: Quarter::from_linear(i32::from(lo)),
        values: counts.into_iter().map(|c| c as f64).collect(),
    }
}

fn reference_delay(d: &Dataset) -> Vec<DelayStats> {
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); d.sources.len()];
    for row in 0..d.mentions.len() {
        groups[d.mentions.source[row] as usize].push(d.mentions.delay[row]);
    }
    let stats = |mut g: Vec<u32>| {
        if g.is_empty() {
            return DelayStats::empty();
        }
        g.sort_unstable();
        DelayStats {
            count: g.len() as u64,
            min: g[0],
            max: g[g.len() - 1],
            mean: g.iter().map(|&v| f64::from(v)).sum::<f64>() / g.len() as f64,
            median: g[(g.len() - 1) / 2],
        }
    };
    groups.into_iter().map(stats).collect()
}

fn reference_crosscountry(d: &Dataset, n_countries: usize) -> CrossReport {
    let mut counts = Matrix::<u64>::zeros(n_countries, n_countries);
    let mut articles_by_publisher = vec![0u64; n_countries];
    let mut events_by_country = vec![0u64; n_countries];
    for row in 0..d.mentions.len() {
        let sc = d.sources.country[d.mentions.source[row] as usize] as usize;
        if sc >= n_countries {
            continue;
        }
        articles_by_publisher[sc] += 1;
        let er = d.mentions.event_row[row];
        if er == NO_EVENT_ROW {
            continue;
        }
        let ec = d.events.country[er as usize] as usize;
        if ec < n_countries {
            counts.set(ec, sc, counts.get(ec, sc) + 1);
        }
    }
    for &c in d.events.country.iter() {
        if (c as usize) < n_countries {
            events_by_country[c as usize] += 1;
        }
    }
    CrossReport { counts, articles_by_publisher, events_by_country }
}

fn reference_coreport(d: &Dataset, n_countries: usize) -> CoReport {
    let mut pairs = Matrix::<u64>::zeros(n_countries, n_countries);
    let mut event_counts = vec![0u64; n_countries];
    for rows in rows_by_event(d).values() {
        let countries: BTreeSet<usize> = rows
            .iter()
            .map(|&r| d.sources.country[d.mentions.source[r] as usize] as usize)
            .filter(|&c| c < n_countries)
            .collect();
        for &i in &countries {
            event_counts[i] += 1;
            for &j in countries.iter().filter(|&&j| j != i) {
                pairs.set(i, j, pairs.get(i, j) + 1);
            }
        }
    }
    CoReport { pairs, event_counts }
}

/// Events of at most this many mentions are answered by the naive
/// "scan the event's other rows for every article" oracle, unchanged
/// since it was written; larger ones (the 5 234-mention event) only by
/// its first-report form, which is checked against the naive one on
/// every small event.
const NAIVE_ORACLE_ROWS: usize = 100;

/// `n_ij`: articles by `j` on an event `i` had already published on in
/// a strictly earlier capture interval — found by scanning the event's
/// other rows for every article; equivalently, an article later than
/// the earliest interval any of the event's rows has `i` in.
fn reference_followreport(d: &Dataset, top_k: u32) -> FollowReport {
    let totals = articles_by_source(d);
    let subset: Vec<SourceId> =
        ranked(&totals, top_k).into_iter().map(|(s, _)| SourceId(s as u32)).collect();
    let k = subset.len();
    let mut follow_counts = Matrix::<u64>::zeros(k, k);
    for rows in rows_by_event(d).values() {
        let mut first_report: BTreeMap<u32, u32> = BTreeMap::new();
        for &e in rows {
            let at = first_report.entry(d.mentions.source[e]).or_insert(u32::MAX);
            *at = (*at).min(d.mentions.mention_interval[e]);
        }
        for &r in rows {
            let Some(j) = subset.iter().position(|s| s.0 == d.mentions.source[r]) else {
                continue;
            };
            for (i, leader) in subset.iter().enumerate() {
                let led = first_report
                    .get(&leader.0)
                    .is_some_and(|&at| at < d.mentions.mention_interval[r]);
                if rows.len() <= NAIVE_ORACLE_ROWS {
                    let naive = rows.iter().any(|&e| {
                        d.mentions.source[e] == leader.0
                            && d.mentions.mention_interval[e] < d.mentions.mention_interval[r]
                    });
                    assert_eq!(led, naive, "row {r}, leader {}", leader.0);
                }
                if led {
                    follow_counts.set(i, j, follow_counts.get(i, j) + 1);
                }
            }
        }
    }
    let articles = subset.iter().map(|s| totals[s.index()]).collect();
    FollowReport { subset, follow_counts, articles }
}

/// The oracle: `q` answered one row at a time.
fn reference(d: &Dataset, q: &Query) -> QueryResult {
    let n_countries = CountryRegistry::new().len();
    match *q {
        Query::CoReport => QueryResult::CoReport(reference_coreport(d, n_countries)),
        Query::FollowReport { top_k } => {
            QueryResult::FollowReport(reference_followreport(d, top_k))
        }
        Query::CrossCountry => QueryResult::CrossCountry(reference_crosscountry(d, n_countries)),
        Query::Delay => QueryResult::Delay(reference_delay(d)),
        Query::TimeSeries(kind) => QueryResult::TimeSeries(reference_series(d, kind)),
        Query::TopK { kind: TopKKind::Publishers, k } => QueryResult::TopPublishers(
            ranked(&articles_by_source(d), k)
                .into_iter()
                .map(|(s, n)| (SourceId(s as u32), n))
                .collect(),
        ),
        Query::TopK { kind: TopKKind::Events, k } => {
            let mut degree = vec![0u64; d.events.len()];
            for (&er, rows) in &rows_by_event(d) {
                degree[er as usize] = rows.len() as u64;
            }
            QueryResult::TopEvents(ranked(&degree, k))
        }
    }
}

use gdelt_model::event::EventRecord;
use gdelt_model::mention::MentionRecord;
use gdelt_model::time::Date;

fn event_record(id: u64, day: Date) -> EventRecord {
    use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
    use gdelt_model::event::ActionGeo;
    use gdelt_model::ids::EventId;
    use gdelt_model::time::DateTime;
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
        source_url: "u".into(),
    }
}

/// `e`, located in the country with FIPS code `fips`.
fn located(mut e: EventRecord, fips: &str) -> EventRecord {
    use gdelt_model::event::{ActionGeo, GeoType};
    e.geo =
        ActionGeo { geo_type: GeoType::Country, country_fips: fips.into(), lat: None, lon: None };
    e
}

/// `source`'s `n`-th article on `event`, `delay` 15-minute intervals
/// after midnight of the event's `day`.
fn mention_record(event: u64, day: Date, delay: u32, source: &str, n: usize) -> MentionRecord {
    use gdelt_model::ids::EventId;
    use gdelt_model::mention::MentionType;
    use gdelt_model::time::DateTime;
    let event_time = DateTime::midnight(day);
    MentionRecord {
        event_id: EventId(event),
        event_time,
        mention_time: DateTime::from_unix_seconds(
            event_time.to_unix_seconds() + i64::from(delay) * 900,
        ),
        mention_type: MentionType::Web,
        source_name: source.into(),
        url: format!("https://{source}/{event}/{n}"),
        confidence: 50,
        doc_tone: 0.0,
    }
}

/// A hand-built corpus aimed at the Delay reducer's edges and at ties:
/// per-source delays are listed in the table below; `late.org` reports
/// only on the last event, so the pieces of a partition split leave it
/// (and others) in the directory with no mentions at all.
fn adversarial() -> Dataset {
    const EVENTS: u64 = 8;
    let day = |id: u64| Date { year: 2015, month: if id <= 4 { 5 } else { 8 }, day: 10 };
    let mut b = DatasetBuilder::new();
    for id in 1..=EVENTS {
        b.add_event(event_record(id, day(id)));
    }
    // (source, [(event, delay in 15-minute intervals)])
    let table: [(&str, &[(u64, u32)]); 7] = [
        ("one.com", &[(1, 7)]),                                     // one mention
        ("equal.co.uk", &[(1, 4), (2, 4), (3, 4), (5, 4), (6, 4)]), // all-equal delays
        ("outlier.com", &[(1, 1), (2, 2), (3, 35_135)]),            // sparse side of the choice
        ("even.com.au", &[(1, 1), (2, 2), (5, 3), (6, 4)]),         // even count: lower-middle
        ("pair.com", &[(4, 9), (7, 1)]),                            // even count, two rows
        // Dense, repeated values. Totals tie pair.com with late.org at 2;
        // degrees tie events 3 and 8 at 3 and events 4-7 at 2.
        ("busy.com", &[(1, 0), (1, 2), (2, 0), (2, 2), (3, 2), (4, 3), (7, 0), (8, 1)]),
        ("late.org", &[(8, 96), (8, 97)]),
    ];
    for (source, mentions) in table {
        for (n, &(event, delay)) in mentions.iter().enumerate() {
            b.add_mention(mention_record(event, day(event), delay, source, n));
        }
    }
    b.build().0
}

/// Mentions of the heavy event of [`csr_edges`].
const HEAVY: usize = 5_234;

/// Publisher `i` of [`csr_edges`], in registry country `i % 64`.
fn publisher(i: usize) -> String {
    let registry = CountryRegistry::new();
    let country = registry.iter().nth(i % registry.len()).expect("registry country").1;
    format!("p{i}.{}", country.tld)
}

/// A hand-built corpus aimed at the CSR kernels' shortcuts: events of 0,
/// 1, 2, 37 and [`HEAVY`] mentions (one without mentions last, past the
/// final partition target); 140 publishing sources `p<i>` whose
/// countries cycle through the whole registry, first id to last, so a
/// selection or a country set crosses a mask word; sources of unknown
/// country (`.zz`), alone on an event and mixed with known ones; an
/// event whose mentions share one interval; a source twice in one
/// interval and again later; two mentions of events that are not in the
/// table; and delay multisets around the Delay window's edge.
fn csr_edges() -> Dataset {
    let day = Date { year: 2015, month: 5, day: 10 };
    let p = publisher;
    let last_country = CountryRegistry::new().len() - 1;
    // (event id, location, its reports)
    type Reports = Vec<(String, u32)>; // (source, delay)
    let mut events: Vec<(u64, &str, Reports)> = vec![
        (1, "US", vec![]),
        (2, "UK", vec![(p(0), 4)]),
        (3, "", vec![(p(1), 0), (p(2), 1)]),
        (4, "KN", vec![(p(1), 5), (p(2), 5)]), // a tie: nobody follows
        (5, "US", (0..5).map(|i| (p(i), 2)).collect()), // one interval
        // p0 twice at once and again later: one self-follow, not two.
        (6, "UK", vec![(p(0), 0), (p(0), 0), (p(1), 0), (p(0), 3)]),
        (7, "ZZ", (0..37).map(|i| (p(i * 3 % 140), i as u32 / 5)).collect()),
        (8, "", vec![]),
        (9, "US", vec![]), // the heavy one, filled below
        (10, "UK", vec![("u0.zz".into(), 0), ("u1.zz".into(), 1)]),
        // First and last registry country with an unknown one between.
        (11, "AS", vec![("u0.zz".into(), 0), (p(last_country), 1), (p(0), 1), (p(64), 2)]),
        (12, "US", vec![("u1.zz".into(), 7)]),
        // Delay edges: the last window cell, the first delay above it, a
        // year-long outlier — all by a source with rows enough to be
        // counted through the window; `outliers.org` never reports inside
        // it, and has the few rows that sort instead.
        (13, "", vec![("steady.com".into(), 1_023), ("steady.com".into(), 1_024)]),
        (14, "UK", vec![("steady.com".into(), 35_135), ("outliers.org".into(), 35_135)]),
        (15, "US", vec![("outliers.org".into(), 2_000), ("outliers.org".into(), 1_024)]),
        (16, "", vec![("outliers.org".into(), 2_000)]),
        (17, "UK", vec![]),
    ];
    // Twenty articles by each of the 140 publishers in turn and a few
    // more by the first seventeen — rankings with both ties and gaps —
    // then `steady.com` alone, all below 96 intervals.
    let heavy = (0..HEAVY).map(|m| {
        let source = match m {
            0..2_800 => p(m % 140),
            2_800..3_000 => p(m % 17),
            _ => "steady.com".into(),
        };
        (source, (m % 96) as u32)
    });
    events[8].2 = heavy.collect();
    let mut b = DatasetBuilder::new();
    for (id, fips, _) in &events {
        let e = event_record(*id, day);
        b.add_event(if fips.is_empty() { e } else { located(e, fips) });
    }
    for (id, _, mentions) in &events {
        for (n, (source, delay)) in mentions.iter().enumerate() {
            b.add_mention(mention_record(*id, day, *delay, source, n));
        }
    }
    // Events 100 and 101 are not in the table.
    b.add_mention(mention_record(100, day, 3, &p(0), 0));
    b.add_mention(mention_record(101, day, 9, "u0.zz", 0));
    b.build().0
}

/// Selection sizes that cross a byte lane (8 / 9) or a mask word (63 /
/// 64 / 65, 130).
const WIDTHS: [u32; 8] = [0, 1, 8, 9, 63, 64, 65, 130];

/// Every query at the selection sizes that cross a byte lane or a mask
/// word, and the two country kernels at the country counts that do.
fn assert_matches_reference_at_every_width(ctx: &ExecContext, d: &Dataset, what: &str) {
    for k in WIDTHS {
        for q in all_queries(k, 96) {
            assert_eq!(run_query(ctx, d, &q), reference(d, &q), "{q}, {what}");
        }
    }
    for n in [0usize, 1, 63, 64, 65] {
        assert_eq!(
            CoReport::countries(ctx, d, n),
            reference_coreport(d, n),
            "{n} countries, {what}"
        );
        assert_eq!(
            CrossReport::build(ctx, d, n),
            reference_crosscountry(d, n),
            "{n} countries, {what}"
        );
    }
}

#[test]
fn csr_edge_corpus_matches_reference_at_every_width_and_partition_edge() {
    let d = csr_edges();
    // The corpus is what its description says.
    let degrees: BTreeSet<u64> = d.event_index.offsets.windows(2).map(|w| w[1] - w[0]).collect();
    assert!([0, 1, 2, 37, HEAVY as u64].iter().all(|deg| degrees.contains(deg)), "{degrees:?}");
    assert_eq!(d.event_index.offsets.windows(2).last().map(|w| w[1] - w[0]), Some(0));
    assert_eq!(d.mentions.event_row.iter().filter(|&&er| er == NO_EVENT_ROW).count(), 2);
    let registry = CountryRegistry::new();
    assert_eq!(registry.len(), 64, "one mask word holds the registry exactly");
    let publishing = articles_by_source(&d).iter().filter(|&&n| n > 0).count();
    assert!(publishing >= 130 && d.sources.country.contains(&u16::MAX));
    assert!(d.sources.country.contains(&0) && d.sources.country.contains(&63));

    // Orphans count as articles of their source and publisher country,
    // and nowhere else.
    let ctx = ExecContext::builder().threads(2).build();
    let p0 = d.sources.lookup(&publisher(0)).expect("p0");
    let home = d.sources.country[p0.index()];
    let by_event = rows_by_event(&d);
    let on_events = by_event.values().flatten().filter(|&&r| d.mentions.source[r] == p0.0);
    let whole_directory = Query::FollowReport { top_k: 130 };
    let QueryResult::FollowReport(follow) = run_query(&ctx, &d, &whole_directory) else {
        unreachable!("FollowReport query yields a FollowReport result");
    };
    let slot = follow.subset.iter().position(|&s| s == p0).expect("p0 is selected");
    assert_eq!(follow.articles[slot], on_events.count() as u64 + 1);
    let cross = CrossReport::build(&ctx, &d, registry.len());
    let from_home = |r: &usize| d.sources.country[d.mentions.source[*r] as usize] == home;
    let by_home = (0..d.mentions.len()).filter(from_home).count() as u64;
    assert_eq!(cross.articles_by_publisher[usize::from(home)], by_home);
    let located = by_home - 1 - untagged_articles(&d, home);
    assert_eq!(cross.counts.col_sums()[usize::from(home)], located);

    // One thread, a few partitions, and a partition edge on every event
    // boundary (more partitions than events; no more OS threads).
    let every_edge = ExecContext::builder().threads(128).build();
    assert!(every_edge.make_partitions(d.events.len()).len() == d.events.len());
    let contexts = [
        (ExecContext::builder().threads(1).build(), "1 thread"),
        (ExecContext::builder().threads(3).build(), "3 threads"),
        (every_edge, "an edge on every event boundary"),
    ];
    for (ctx, what) in &contexts {
        assert_matches_reference_at_every_width(ctx, &d, what);
    }
    // In pieces: the heavy event is most of one, others hold an event or
    // two, and every piece keeps the whole source directory.
    for (i, piece) in pieces(&d, 4).iter().enumerate() {
        assert_matches_reference_at_every_width(&contexts[1].0, piece, &format!("piece {i}"));
    }
}

/// Events of [`lanes_and_blocks`]: four whole country-mask blocks and
/// part of a fifth.
const BLOCKED_EVENTS: usize = 4 * MASK_BLOCK_EVENTS + 500;

/// Adds the follow lanes of one column take in [`lanes_and_blocks`]: one
/// short of a lane's limit, at it, one past it, and several times it.
const COLUMN_ADDS: [usize; 4] = [254, 255, 256, 600];

/// Follower `i` of [`lanes_and_blocks`], with `COLUMN_ADDS[i]` articles.
fn follower(i: usize) -> String {
    format!("f{}.com", COLUMN_ADDS[i])
}

/// A hand-built corpus aimed at the flat CSR kernels' state: the follow
/// words that must clear where `event_row` changes, the byte lanes that
/// must flush before they carry, and the country masks kept
/// [`MASK_BLOCK_EVENTS`] events at a time.
///
/// * Events 1 and 2 are adjacent, and the last mention of 1 and the
///   first of 2 are the same source in the same interval, so nothing but
///   the change of event separates their follow state: `f256` follows
///   `f600` on the first and `f600` follows `f256` on the second.
/// * In each of four events, `lead.com` reports first and one follower
///   then reports [`COLUMN_ADDS`] times, one interval later: a column of
///   254, 255, 256 and 600 adds, each inside the one partition that
///   holds its event. `lead.com` also reports 700 times at once on one
///   event, so the leader and the followers are the five most published
///   sources (and selected from `top_k` 5 on).
/// * The other events, [`BLOCKED_EVENTS`] in all, are reported by one to
///   three of 140 publishers whose countries cycle through the registry,
///   so events of one, two and three countries sit on both sides of every
///   block edge.
fn lanes_and_blocks() -> Dataset {
    let day = Date { year: 2015, month: 5, day: 10 };
    let lead = "lead.com".to_string();
    let mut reports: Vec<Vec<(String, u32)>> = vec![Vec::new(); BLOCKED_EVENTS];
    reports[0] = vec![(follower(3), 0), (follower(2), 1)];
    reports[1] = vec![(follower(2), 1), (follower(3), 2)];
    reports[2] = (0..700).map(|_| (lead.clone(), 0)).collect();
    for (i, &adds) in COLUMN_ADDS.iter().enumerate() {
        // Spread over the corpus, and one of them next to a block edge.
        let event = [3, MASK_BLOCK_EVENTS - 1, 2 * MASK_BLOCK_EVENTS + 7, BLOCKED_EVENTS - 2][i];
        reports[event] =
            std::iter::once((lead.clone(), 0)).chain((0..adds).map(|_| (follower(i), 1))).collect();
    }
    for (e, r) in reports.iter_mut().enumerate().filter(|(_, r)| r.is_empty()) {
        *r = (0..1 + e % 3).map(|m| (publisher((e * 11 + m * 13) % 140), m as u32)).collect();
    }
    let mut b = DatasetBuilder::new();
    for id in 1..=BLOCKED_EVENTS as u64 {
        b.add_event(event_record(id, day));
    }
    for (id, r) in (1u64..).zip(&reports) {
        for (n, (source, delay)) in r.iter().enumerate() {
            b.add_mention(mention_record(id, day, *delay, source, n));
        }
    }
    b.build().0
}

#[test]
fn lane_and_block_edges_match_reference_at_one_to_three_threads() {
    let d = lanes_and_blocks();
    let offsets = &d.event_index.offsets;
    assert_eq!(d.events.len(), BLOCKED_EVENTS);
    // The leader and the followers rank first, and the follower columns
    // take the adds they are named after.
    let totals = articles_by_source(&d);
    let top: Vec<String> = ranked(&totals, 5)
        .into_iter()
        .map(|(s, _)| d.sources.name(SourceId(s as u32)).to_string())
        .collect();
    assert_eq!(top, ["lead.com", "f600.com", "f256.com", "f255.com", "f254.com"]);
    let one = ExecContext::builder().threads(1).build();
    let QueryResult::FollowReport(follow) = run_query(&one, &d, &Query::FollowReport { top_k: 5 })
    else {
        unreachable!("FollowReport query yields a FollowReport result");
    };
    assert_eq!(follow.follow_counts.row(0), &[0, 600, 256, 255, 254]);
    assert_eq!(follow.follow_counts.get(1, 2), 1, "f256 follows f600 on the first event");
    assert_eq!(follow.follow_counts.get(2, 1), 1, "f600 follows f256 on the second");
    assert_eq!(follow.follow_counts.total(), 600 + 256 + 255 + 254 + 2);

    let want: Vec<(Query, QueryResult)> =
        WIDTHS.iter().flat_map(|&k| all_queries(k, 96)).map(|q| (q, reference(&d, &q))).collect();
    let countries: Vec<(usize, CoReport)> =
        [0usize, 1, 63, 64, 65].into_iter().map(|n| (n, reference_coreport(&d, n))).collect();
    // Up to three partitions, so every partition spans a block edge of
    // its own, and more, so edges fall between them.
    for threads in [1usize, 2, 3, 4, 8, 12] {
        let ctx = ExecContext::builder().threads(threads).build();
        let parts = event_partitions(offsets, threads);
        if threads <= 3 {
            assert!(parts.iter().all(|p| p.len() > MASK_BLOCK_EVENTS));
        }
        if threads > 1 {
            assert!(parts.iter().skip(1).any(|p| p.begin % MASK_BLOCK_EVENTS != 0));
        }
        let what = format!("{threads} thread(s)");
        for (q, want) in &want {
            assert_eq!(&run_query(&ctx, &d, q), want, "{q}, {what}");
        }
        for (n, want) in &countries {
            assert_eq!(&CoReport::countries(&ctx, &d, *n), want, "{n} countries, {what}");
        }
    }
}

/// Articles by sources of country `c` on events that are in the table
/// but not located in a registry country.
fn untagged_articles(d: &Dataset, c: u16) -> u64 {
    let n = CountryRegistry::new().len();
    let rows = rows_by_event(d);
    let untagged = rows.iter().filter(|(&er, _)| d.events.country[er as usize] as usize >= n);
    let by_c = |r: &&usize| d.sources.country[d.mentions.source[**r] as usize] == c;
    untagged.flat_map(|(_, rows)| rows).filter(by_c).count() as u64
}

// The follow edges of the hand-built events, spelled out.
#[test]
fn follow_edges_of_ties_and_repeats_are_spelled_out() {
    let d = csr_edges();
    let ctx = ExecContext::builder().threads(2).build();
    // `event` alone, followed among publishers 0 to 2: the report and
    // each publisher's slot in it.
    let only = |event: u64| {
        let day = Date { year: 2015, month: 5, day: 10 };
        let mut b = DatasetBuilder::new();
        b.add_event(event_record(event, day));
        let row = d.events.id.iter().position(|&id| id == event).expect("event in corpus");
        for r in d.mentions_of(row) {
            let source = d.sources.name(SourceId(d.mentions.source[r]));
            b.add_mention(mention_record(event, day, d.mentions.delay[r], source, r));
        }
        let piece = b.build().0;
        let subset: Vec<SourceId> =
            (0..3).filter_map(|i| piece.sources.lookup(&publisher(i))).collect();
        let slots = [0, 1, 2].map(|i| {
            let id = piece.sources.lookup(&publisher(i));
            id.and_then(|id| subset.iter().position(|&s| s == id))
        });
        (FollowReport::build(&ctx, &piece, &subset), slots)
    };
    // Event 3: p2 follows p1. Event 4: a tie. Event 5: one interval.
    let (three, [_, p1, p2]) = only(3);
    assert_eq!(three.follow_counts.get(p1.expect("p1"), p2.expect("p2")), 1);
    assert_eq!(three.follow_counts.total(), 1);
    assert_eq!(only(4).0.follow_counts.total(), 0);
    assert_eq!(only(5).0.follow_counts.total(), 0);
    // Event 6: p0's late article follows p0 (once, though p0 led twice)
    // and p1; nothing else follows anything.
    let (six, [p0, p1, _]) = only(6);
    let (p0, p1) = (p0.expect("p0"), p1.expect("p1"));
    assert_eq!(six.follow_counts.get(p0, p0), 1, "self-follow once");
    assert_eq!(six.follow_counts.get(p1, p0), 1);
    assert_eq!(six.follow_counts.total(), 2);
    assert_eq!(six.articles[p0], 3);
}

/// A deterministic corpus of `n_events` events: ids ascend with time
/// over `days` days (quarter runs, as in GDELT), every third event is
/// reported twice and every seventh a third time with a delay that
/// carries it into a later quarter, and 41 sources — a fifth of them of
/// unknown country — cycle out of step with all of that. Half the events
/// are located in a registry country. One event in the middle has
/// [`HEAVY`] mentions (several times a partition's fair share of events
/// at five threads) with delays on both sides of the Delay window's
/// edge, one has 37, and a few mentions report on events that are not
/// in the table.
fn scan_corpus(n_events: u64, days: u64) -> Dataset {
    const TLDS: [&str; 5] = ["com", "co.uk", "com.au", "de", "zz"];
    const FIPS: [&str; 4] = ["US", "", "UK", "ZZ"];
    let source = |i: u64| format!("s{}.{}", i % 41, TLDS[(i % 41 % 5) as usize]);
    let day =
        |id: u64| Date { year: 2015, month: 3, day: 1 }.add_days((id * days / n_events) as i64);
    let mut b = DatasetBuilder::new();
    for id in 0..n_events {
        let fips = FIPS[(id % 4) as usize];
        let e = event_record(id + 1, day(id));
        b.add_event(if fips.is_empty() { e } else { located(e, fips) });
    }
    for id in 0..n_events {
        let n_mentions = match id {
            _ if id == n_events / 2 => HEAVY as u64,
            _ if id == n_events / 3 => 37,
            _ => 1 + u64::from(id % 3 == 0) + u64::from(id % 7 == 0),
        };
        for n in 0..n_mentions {
            let delay = match n {
                0 | 1 => (id % 50 * 5) as u32,
                2 => 96 * 100,
                // 1 024, the first delay outside the window, included.
                _ => (n % 1_100) as u32,
            };
            b.add_mention(mention_record(
                id + 1,
                day(id),
                delay,
                &source(id * 3 + n * 11),
                n as usize,
            ));
        }
    }
    for n in 0..3 {
        b.add_mention(mention_record(n_events + 9, day(0), 35_135, &source(n), n as usize));
    }
    b.build().0
}

/// The fused LateArticles kernel, through the public path.
fn late_articles(ctx: &ExecContext, d: &Dataset, threshold: u32) -> QuarterlySeries {
    let q = Query::TimeSeries(SeriesKind::LateArticles { threshold });
    let QueryResult::TimeSeries(series) = run_query(ctx, d, &q) else {
        unreachable!("TimeSeries query yields a TimeSeries result");
    };
    series
}

/// LateArticles one row at a time: test the delay, count the quarter.
fn unfused_late_articles(d: &Dataset, threshold: u32) -> Vec<f64> {
    let Some((base, n_quarters)) = d.quarter_span() else {
        return Vec::new();
    };
    let mut counts = vec![0.0; n_quarters];
    for (&q, &delay) in d.mentions.quarter.iter().zip(d.mentions.delay.iter()) {
        if delay > threshold {
            counts[usize::from(q - base)] += 1.0;
        }
    }
    counts
}

/// `d` cut into `parts` contiguous partition ranges, one dataset each.
fn pieces(d: &Dataset, parts: u32) -> Vec<Dataset> {
    (0..parts)
        .map(|keep| {
            let quarantined: Vec<u32> = (0..parts).filter(|&p| p != keep).collect();
            restrict_to_partitions(d, parts, &quarantined).expect("restrict")
        })
        .collect()
}

// Publisher rankings read the dataset's source degrees. Over a dataset
// whose degrees were read before an append, the degrees the append
// extended rank like the oracle's row-at-a-time count, with a source
// the batch brings and the mentions of an event the batch repeats.
#[test]
fn publisher_rankings_after_an_append_match_reference() {
    let base = adversarial();
    let may = Date { year: 2015, month: 5, day: 10 };
    let events = vec![event_record(1, may), event_record(9, may)];
    let mentions = vec![
        mention_record(1, may, 5, "new.com", 0),
        mention_record(9, may, 1, "new.com", 1),
        mention_record(9, may, 3, "busy.com", 9),
        mention_record(9, may, 4, "new.com", 2),
    ];
    let ctx = ExecContext::builder().threads(2).build();
    for k in [1u32, 3, 50] {
        let queries =
            [Query::TopK { kind: TopKKind::Publishers, k }, Query::FollowReport { top_k: k }];
        for asked in &queries {
            let base = base.clone();
            run_query(&ctx, &base, asked);
            let (out, stats, _) = append_batch(&base, events.clone(), mentions.clone());
            assert_eq!((stats.duplicate_events, stats.new_sources, stats.new_mentions), (1, 1, 4));
            for q in &queries {
                assert_eq!(run_query(&ctx, &out, q), reference(&out, q), "{q} after {asked}");
            }
        }
    }
}

#[test]
fn adversarial_corpus_matches_reference_whole_and_in_pieces() {
    let d = adversarial();
    let stats_of = |d: &Dataset, name: &str| {
        let id = d.sources.lookup(name).expect("source in directory");
        let ctx = ExecContext::builder().threads(2).build();
        let QueryResult::Delay(stats) = run_query(&ctx, d, &Query::Delay) else {
            unreachable!("Delay query yields a Delay result");
        };
        stats[id.index()]
    };
    // The cases the table was built for, spelled out.
    assert_eq!(
        stats_of(&d, "one.com"),
        DelayStats { count: 1, min: 7, max: 7, mean: 7.0, median: 7 }
    );
    let equal = stats_of(&d, "equal.co.uk");
    assert_eq!((equal.count, equal.min, equal.max, equal.median, equal.mean), (5, 4, 4, 4, 4.0));
    let outlier = stats_of(&d, "outlier.com");
    assert_eq!((outlier.count, outlier.min, outlier.max, outlier.median), (3, 1, 35_135, 2));
    assert_eq!(stats_of(&d, "even.com.au").median, 2);
    assert_eq!(stats_of(&d, "pair.com").median, 1);

    let cut = pieces(&d, 4);
    assert_eq!(cut.iter().map(|p| p.mentions.len()).sum::<usize>(), d.mentions.len());
    // A source with no mentions: late.org only reports on the last event.
    assert_eq!(stats_of(&cut[0], "late.org"), DelayStats::empty());

    for threads in [1usize, 3] {
        let ctx = ExecContext::builder().threads(threads).build();
        for (i, piece) in std::iter::once(&d).chain(&cut).enumerate() {
            for k in [1u32, 3, 50] {
                for q in all_queries(k, 3) {
                    let got = run_query(&ctx, piece, &q);
                    assert_eq!(got, reference(piece, &q), "{q}, input {i}, {threads} thread(s)");
                }
            }
        }
    }
}

// A corpus above the fork cut-off of the report scans and below that
// of the cheap ones: at two threads and more, CoReport, FollowReport,
// CrossCountry and Delay fork (≈ 86 k mention rows at 2–3 ns each),
// while the events scans and LateArticles fold their partitions on the
// caller. All ten variants against the oracle at 1 / 2 / 3 / 5
// threads, over partitions whose edges fall inside blocks and chunks.
#[test]
fn corpus_above_the_cut_off_matches_reference_at_every_thread_count() {
    // Sized so that no partition of either table starts on a block edge
    // at any thread count used here (asserted below).
    let d = scan_corpus(55_031, 1_826);
    assert!(d.mentions.len() > 82_000, "{} mentions", d.mentions.len());
    let queries = all_queries(6, 96);
    let want: Vec<QueryResult> = queries.iter().map(|q| reference(&d, q)).collect();
    for threads in [1usize, 2, 3, 5] {
        let ctx = ExecContext::builder().threads(threads).build();
        for n_rows in [d.events.len(), d.mentions.len()] {
            let parts = ctx.make_partitions(n_rows);
            assert!(parts.len() == threads && parts.iter().skip(1).all(|p| p.begin % 64 != 0));
        }
        for (q, want) in queries.iter().zip(&want) {
            assert_eq!(&run_query(&ctx, &d, q), want, "{q}, {threads} thread(s)");
        }
        // Fig 6's per-publisher series ride the same scan: each equals
        // the Articles reference restricted to that source's rows.
        let picks = [SourceId(0), SourceId(7), SourceId(40)];
        let got = timeseries::publisher_series(&d, &picks);
        let whole = reference_series(&d, SeriesKind::Articles);
        for (pick, series) in picks.iter().zip(&got) {
            let mut of_pick = vec![0.0; whole.len()];
            for (&q, &s) in d.mentions.quarter.iter().zip(d.mentions.source.iter()) {
                if s == pick.0 {
                    of_pick[(i32::from(q) - whole.base.linear()) as usize] += 1.0;
                }
            }
            let want = QuarterlySeries { base: whole.base, values: of_pick };
            assert_eq!(series, &want, "{pick:?}, {threads} thread(s)");
        }
        // The fused selection + count against the two separate passes,
        // at a threshold only the delayed third reports clear.
        let fused = late_articles(&ctx, &d, 300);
        assert_eq!(fused.values, unfused_late_articles(&d, 300), "{threads} thread(s)");
        // So does the windowed count, over the two middle quarters.
        let (base, n) = d.quarter_span().expect("span");
        let window = |i: usize| Quarter::from_linear(i32::from(base) + i as i32);
        let (from, to) = (window(n / 2 - 1), window(n / 2));
        let mut want = vec![0u64; d.sources.len()];
        for (&q, &s) in d.mentions.quarter.iter().zip(d.mentions.source.iter()) {
            if (from.linear()..=to.linear()).contains(&i32::from(q)) {
                want[s as usize] += 1;
            }
        }
        let got = articles_by_source_in(&d, from, to);
        assert_eq!(got, want, "{from}..={to}, {threads} thread(s)");
    }
}

// Twenty-five years of quarters, 100 in all: each source's quarter
// mask in ActiveSources is two words, and the series run past a `u64`
// of slots. The four series and TopK Events against the oracle.
#[test]
fn corpus_over_more_than_64_quarters_matches_reference_at_every_thread_count() {
    let queries = [
        Query::TimeSeries(SeriesKind::Events),
        Query::TimeSeries(SeriesKind::Articles),
        Query::TimeSeries(SeriesKind::ActiveSources),
        Query::TimeSeries(SeriesKind::LateArticles { threshold: 96 }),
        Query::TopK { kind: TopKKind::Events, k: 1 },
        Query::TopK { kind: TopKKind::Events, k: 64 },
        Query::TopK { kind: TopKKind::Events, k: 65 },
    ];
    let d = scan_corpus(4_000, 9_131);
    let (_, n_quarters) = d.quarter_span().expect("a span");
    assert!(n_quarters > 64, "{n_quarters} quarters");
    for threads in [1usize, 2, 3, 5] {
        let ctx = ExecContext::builder().threads(threads).build();
        for q in &queries {
            assert_eq!(run_query(&ctx, &d, q), reference(&d, q), "{q}, {threads} thread(s)");
        }
    }
}

// ActiveSources at the paper's 20 996 sources: each row's source picks
// its mask by a stride through 20 996 of them, and the masks turn into
// bitmaps of 329 words a quarter. Below the fill's fork cut-off (≈ 133 k
// rows at 1.2 ns each) and above it.
#[test]
fn active_sources_at_the_papers_source_count_match_reference() {
    const SOURCES: u32 = 20_996;
    for rows in [65_536, 139_857] {
        let mut d = Dataset::default();
        for s in 0..SOURCES {
            d.sources.names.intern(&format!("s{s}.com"));
            d.sources.country.push(u16::MAX);
        }
        // Quarters in runs, as the table is grouped by time; sources
        // out of step with them, so each quarter sees a different set.
        d.mentions.event_row = (0..rows).map(|_| NO_EVENT_ROW).collect();
        d.mentions.quarter = (0..rows).map(|r| 40 + (r * 9 / rows) as u16).collect();
        d.mentions.source =
            (0..rows as u32).map(|r| r.wrapping_mul(2_654_435_761) % SOURCES).collect();
        let q = Query::TimeSeries(SeriesKind::ActiveSources);
        let want = reference(&d, &q);
        let QueryResult::TimeSeries(series) = &want else { unreachable!("a series") };
        assert_eq!(series.len(), 9);
        assert!(series.values.iter().all(|&v| v > 1_000.0), "{:?}", series.values);
        for threads in [1usize, 2, 3] {
            let ctx = ExecContext::builder().threads(threads).build();
            assert_eq!(run_query(&ctx, &d, &q), want, "{rows} rows, {threads} thread(s)");
        }
    }
}

// A generated corpus over the paper's 20 996 sources, of which the
// directory holds those that publish: the per-source readers of the source × quarter counts
// (Articles, ActiveSources, publisher rankings and FollowReport's
// totals) against the oracle, filled on one thread and on three.
#[test]
fn a_corpus_over_the_papers_source_count_matches_reference() {
    let mut cfg = gdelt_synth::scenario::tiny(17);
    cfg.n_sources = 20_996;
    let d = gdelt_synth::generate_dataset(&cfg).0;
    assert!(d.sources.len() > 5_000, "{} sources", d.sources.len());
    let queries = [
        Query::TimeSeries(SeriesKind::Articles),
        Query::TimeSeries(SeriesKind::ActiveSources),
        Query::TopK { kind: TopKKind::Publishers, k: 10 },
        Query::FollowReport { top_k: 10 },
    ];
    for threads in [1usize, 3] {
        let ctx = ExecContext::builder().threads(threads).build();
        let fresh = d.clone();
        for q in &queries {
            assert_eq!(run_query(&ctx, &fresh, q), reference(&d, q), "{q}, {threads} thread(s)");
        }
    }
}

// `Query::columns` is enough: dropping any column it declares, keys
// aside, makes `run_query` refuse the dataset and name that column.
#[test]
fn run_query_names_the_column_a_projection_dropped() {
    let d = gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(5)).0;
    let ctx = ExecContext::builder().threads(2).build();
    for q in all_queries(5, 96) {
        let scanned = q.columns().difference(ColumnSet::KEYS);
        if q == (Query::TopK { kind: TopKKind::Events, k: 5 }) {
            assert!(scanned.is_empty(), "event degrees come off the CSR offsets alone");
        } else {
            assert!(!scanned.is_empty(), "{q} scans a column besides the keys");
        }
        for c in scanned.iter() {
            let short = d.clone().project(&ColumnSet::ALL.difference(ColumnSet::of(&[c])));
            assert!(!short.columns.contains(c) && short.validate().is_ok(), "{q}: {c}");
            let refused = std::panic::catch_unwind(|| run_query(&ctx, &short, &q))
                .expect_err("a dataset without a read column is refused");
            let message = refused.downcast_ref::<String>().map_or("", String::as_str);
            assert!(message.contains(c.name()), "{q} without {c} panicked with {message:?}");
        }
    }
    // The union a server holds, spelled out: 20 B per event, 18 per mention.
    let served = Query::SERVED_COLUMNS.difference(ColumnSet::KEYS);
    assert_eq!(
        served.iter().collect::<Vec<_>>(),
        [
            Column::EventsQuarter,
            Column::EventsCountry,
            Column::MentionsMentionInterval,
            Column::MentionsDelay,
            Column::MentionsSource,
            Column::MentionsQuarter
        ]
    );
}

#[test]
fn empty_dataset_matches_reference() {
    let d = Dataset::default();
    let ctx = ExecContext::builder().threads(2).build();
    for q in all_queries(5, 96) {
        assert_eq!(run_query(&ctx, &d, &q), reference(&d, &q), "{q}");
    }
}

proptest! {
    // Each case builds a corpus from scratch, so keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Chunking, partitioning, partial merging and finalizing are
    // traversal strategy, never a semantics change: all ten variants
    // through `run_query` equal the scalar reference, ranking tie order
    // included, on the whole corpus and on one partition-range piece of
    // it (sources with no mentions, a shorter quarter span).
    #[test]
    fn vectorized_kernels_match_scalar_reference(
        seed in 0u64..10_000,
        threads in 1usize..6,
        k in 1u32..40,
        threshold in 1u32..800,
        keep in 0u32..8,
    ) {
        let d = gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(seed)).0;
        let piece = pieces(&d, 8).swap_remove(keep as usize);
        let ctx = ExecContext::builder().threads(threads).build();
        for input in [&d, &piece] {
            for q in all_queries(k, threshold) {
                prop_assert_eq!(run_query(&ctx, input, &q), reference(input, &q), "{}", q);
            }
        }
    }

    // Each variant on a dataset projected to exactly its `columns()`
    // answers what it answers on the full dataset, and what the oracle
    // does: the declaration names every column the kernels read.
    #[test]
    fn each_variant_answers_from_its_declared_columns(
        seed in 0u64..10_000,
        threads in 1usize..4,
        k in 1u32..40,
        threshold in 1u32..800,
    ) {
        let d = gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(seed)).0;
        let ctx = ExecContext::builder().threads(threads).build();
        for q in all_queries(k, threshold) {
            let projected = d.clone().project(&q.columns());
            prop_assert_eq!(projected.columns, q.columns());
            prop_assert_eq!(projected.validate(), Ok(()));
            let got = run_query(&ctx, &projected, &q);
            prop_assert_eq!(&got, &run_query(&ctx, &d, &q), "{}", q);
            prop_assert_eq!(&got, &reference(&d, &q), "{}", q);
        }
    }

    #[test]
    fn run_query_is_thread_count_invariant(seed in 0u64..10_000, threads in 2usize..6) {
        let d = gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(seed)).0;
        let seq = ExecContext::builder().threads(1).build();
        let par = ExecContext::builder().threads(threads).build();
        for q in all_queries(10, 96) {
            prop_assert_eq!(run_query(&seq, &d, &q), run_query(&par, &d, &q));
        }
    }

    // Fused selection+aggregation passes must equal the unfused
    // two-pass composition: build the selection bitmap first, then
    // aggregate under the mask.
    #[test]
    fn fused_pass_equals_separate_passes(
        seed in 0u64..10_000,
        threads in 1usize..6,
        threshold in 1u32..800,
    ) {
        let d = gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(seed)).0;
        let ctx = ExecContext::builder().threads(threads).build();
        let fused = late_articles(&ctx, &d, threshold);
        prop_assert_eq!(fused.values, unfused_late_articles(&d, threshold));
    }
}
