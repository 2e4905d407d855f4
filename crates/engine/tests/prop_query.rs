//! Property tests for the unified query API. `run_query` is the only
//! execution path, so nothing in production cross-checks it any more;
//! the check is an independent oracle: every `Query` variant, driven
//! through `run_query`, must agree bit-for-bit with a row-at-a-time
//! reference written here against the raw columns with maps and sorts,
//! sharing no code with the kernels, the partials or the merge.

use gdelt_columnar::degraded::restrict_to_partitions;
use gdelt_columnar::table::NO_EVENT_ROW;
use gdelt_columnar::{Dataset, DatasetBuilder};
use gdelt_engine::chunk::SEQUENTIAL_SCAN_ROWS;
use gdelt_engine::coreport::CountryCoReport;
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

fn reference_coreport(d: &Dataset, n_countries: usize) -> CountryCoReport {
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
    CountryCoReport { pairs, event_counts }
}

/// `n_ij`: articles by `j` on an event `i` had already published on in
/// a strictly earlier capture interval — found by scanning the event's
/// other rows for every article.
fn reference_followreport(d: &Dataset, top_k: u32) -> FollowReport {
    let totals = articles_by_source(d);
    let subset: Vec<SourceId> =
        ranked(&totals, top_k).into_iter().map(|(s, _)| SourceId(s as u32)).collect();
    let k = subset.len();
    let mut follow_counts = Matrix::<u64>::zeros(k, k);
    for rows in rows_by_event(d).values() {
        for &r in rows {
            let Some(j) = subset.iter().position(|s| s.0 == d.mentions.source[r]) else {
                continue;
            };
            for (i, leader) in subset.iter().enumerate() {
                let led = rows.iter().any(|&e| {
                    d.mentions.source[e] == leader.0
                        && d.mentions.mention_interval[e] < d.mentions.mention_interval[r]
                });
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

/// A deterministic corpus with more events, and more mentions, than
/// `SEQUENTIAL_SCAN_ROWS`, so every scan fans out: ids ascend with time
/// over five years (quarter runs, as in GDELT), every third event is
/// reported twice and every seventh a third time with a delay that
/// carries it into a later quarter, and 41 sources cycle out of step
/// with all of that.
fn above_the_cut_off() -> Dataset {
    // Sized so that no partition of either table starts on a block edge
    // at any thread count the test below uses (it asserts that).
    let n_events = SEQUENTIAL_SCAN_ROWS as u64 + 1_031;
    const TLDS: [&str; 4] = ["com", "co.uk", "com.au", "de"];
    let source = |i: u64| format!("s{}.{}", i % 41, TLDS[(i % 41 % 4) as usize]);
    let day =
        |id: u64| Date { year: 2015, month: 3, day: 1 }.add_days((id * 1_826 / n_events) as i64);
    let mut b = DatasetBuilder::new();
    for id in 0..n_events {
        b.add_event(event_record(id + 1, day(id)));
    }
    for id in 0..n_events {
        let n_mentions = 1 + u64::from(id % 3 == 0) + u64::from(id % 7 == 0);
        for n in 0..n_mentions {
            let delay = if n == 2 { 96 * 100 } else { (id % 50 * 5) as u32 };
            b.add_mention(mention_record(
                id + 1,
                day(id),
                delay,
                &source(id * 3 + n * 11),
                n as usize,
            ));
        }
    }
    b.build().0
}

/// LateArticles in two separate passes: materialize the late-article
/// selection, then count per quarter under the mask.
fn unfused_late_articles(ctx: &ExecContext, d: &Dataset, threshold: u32) -> Vec<f64> {
    use gdelt_engine::filter::Bitmap;
    let Some((base, n_quarters)) = timeseries::quarter_range(d) else {
        return Vec::new();
    };
    let late = Bitmap::fill_range(ctx, &d.mentions.delay, threshold + 1, u32::MAX);
    let mut counts = vec![0u64; n_quarters];
    late.for_each_in(0..d.mentions.len(), |r| {
        counts[(d.mentions.quarter[r] - base) as usize] += 1;
    });
    counts.iter().map(|&c| c as f64).collect()
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

#[test]
fn adversarial_corpus_matches_reference_whole_and_in_pieces() {
    let d = adversarial();
    let stats_of = |d: &Dataset, name: &str| {
        let id = d.sources.lookup(name).expect("source in directory");
        let ctx = ExecContext::builder().threads(2).build();
        run_query(&ctx, d, &Query::Delay).as_delay().expect("delay result")[id.index()]
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

// The partition + merge branch of every scan, which the small corpora
// never reach: all ten variants against the oracle at 1 / 2 / 3 / 5
// threads, over partitions whose edges fall inside blocks and chunks.
#[test]
fn corpus_above_the_cut_off_matches_reference_at_every_thread_count() {
    let d = above_the_cut_off();
    assert!(d.events.len() > SEQUENTIAL_SCAN_ROWS && d.mentions.len() > d.events.len());
    let queries = all_queries(6, 96);
    let want: Vec<QueryResult> = queries.iter().map(|q| reference(&d, q)).collect();
    for threads in [1usize, 2, 3, 5] {
        let ctx = ExecContext::builder().threads(threads).build();
        for n_rows in [d.events.len(), d.mentions.len()] {
            let parts = ctx.make_partitions(n_rows);
            assert!(parts.len() >= 4 && parts.iter().skip(1).all(|p| p.begin % 64 != 0));
        }
        for (q, want) in queries.iter().zip(&want) {
            assert_eq!(&run_query(&ctx, &d, q), want, "{q}, {threads} thread(s)");
        }
        // Fig 6's per-publisher series ride the same scan: each equals
        // the Articles reference restricted to that source's rows.
        let picks = [SourceId(0), SourceId(7), SourceId(40)];
        let got = timeseries::publisher_series(&ctx, &d, &picks);
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
        let fused = timeseries::late_articles_per_quarter(&ctx, &d, 300);
        assert_eq!(fused.values, unfused_late_articles(&ctx, &d, 300), "{threads} thread(s)");
    }
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
        let fused = timeseries::late_articles_per_quarter(&ctx, &d, threshold);
        prop_assert_eq!(fused.values, unfused_late_articles(&ctx, &d, threshold));
    }
}
