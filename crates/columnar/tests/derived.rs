//! What a dataset derives from its own columns — the quarter span
//! (`Dataset::quarter_span`) and the mentions per (quarter, source)
//! (`Dataset::source_quarters`, whose column sums are
//! `Dataset::source_degrees`) — is read once and kept: after every way
//! a dataset comes to be — a build, a strict, projected or degraded
//! load, an append, a restriction to partitions, a clone — each equals
//! one recomputed from its columns, whether the dataset inherited a
//! filled value (an append to a base that read its own) or fills it on
//! first read.

use gdelt_columnar::degraded::{load_degraded, restrict_to_partitions};
use gdelt_columnar::incremental::{append_batch, APPEND_COLUMNS};
use gdelt_columnar::{binfmt, Column, ColumnSet, Dataset, DatasetBuilder};
use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
use gdelt_model::event::{ActionGeo, EventRecord};
use gdelt_model::ids::EventId;
use gdelt_model::mention::{MentionRecord, MentionType};
use gdelt_model::time::{Date, DateTime, GDELT_EPOCH};

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

/// Events over three quarters, mentions running a year past them, and
/// one orphan mention (of event 99) earlier than any event.
fn base() -> Dataset {
    let day = |id: u64| 300 + id as i64 * 7;
    let events = (1..=30).map(|id| event(id, day(id))).collect();
    let mut mentions: Vec<MentionRecord> = (1..=30)
        .map(|id| mention(id, day(id), day(id) + id as i64 * 12, id as usize % 5))
        .collect();
    mentions.push(mention(99, 5, 20, 0));
    build(events, mentions)
}

/// The span of the quarter columns, from the columns alone.
fn oracle(d: &Dataset) -> Option<(u16, usize)> {
    let all = d.events.quarter.iter().chain(d.mentions.quarter.iter());
    let lo = *all.clone().min()?;
    let hi = *all.max()?;
    Some((lo, usize::from(hi - lo) + 1))
}

/// Mentions per source of the directory, counted row by row.
fn degree_oracle(d: &Dataset) -> Vec<u64> {
    let mut degrees = vec![0u64; d.sources.len()];
    for &s in d.mentions.source.iter() {
        degrees[s as usize] += 1;
    }
    degrees
}

/// Mentions per (quarter, source) of `d`, counted row by row: the
/// first quarter and one row of per-source counts per quarter through
/// the last, or `None` without mentions.
fn matrix_oracle(d: &Dataset) -> Option<(u16, Vec<Vec<u64>>)> {
    let (lo, hi) = (*d.mentions.quarter.iter().min()?, *d.mentions.quarter.iter().max()?);
    let mut rows = vec![vec![0u64; d.sources.len()]; usize::from(hi - lo) + 1];
    for (&q, &s) in d.mentions.quarter.iter().zip(d.mentions.source.iter()) {
        rows[usize::from(q - lo)][s as usize] += 1;
    }
    Some((lo, rows))
}

/// `d`'s matrix as the oracle's shape: its per-source rows, if any.
fn matrix(d: &Dataset) -> Option<(u16, Vec<Vec<u64>>)> {
    let m = d.source_quarters();
    let (lo, _) = m.span()?;
    Some((lo, m.by_source().map(|(_, row)| row.to_vec()).collect()))
}

/// Read both derived values of `d`.
fn read_derived(d: &Dataset) {
    d.quarter_span();
    d.source_quarters();
}

/// `d`'s span and degrees, read twice and from a clone, equal the
/// oracles', and the deep audit (which compares filled values with
/// their columns) passes.
fn assert_derived(d: &Dataset, what: &str) {
    let (span, degrees) = (oracle(d), degree_oracle(d));
    assert_eq!(d.quarter_span(), span, "{what}");
    assert_eq!(d.source_degrees(), degrees, "{what}: degrees");
    if d.columns.contains_all(ColumnSet::of(&[Column::MentionsQuarter, Column::MentionsSource])) {
        assert_eq!(matrix(d), matrix_oracle(d), "{what}: matrix");
    }
    assert_eq!(d.quarter_span(), span, "{what}, read again");
    assert_eq!(d.source_degrees(), degrees, "{what}: degrees, read again");
    let copy = d.clone();
    assert_eq!(copy.quarter_span(), span, "{what}, cloned");
    assert_eq!(copy.source_degrees(), degrees, "{what}: degrees, cloned");
    assert_eq!(copy.source_quarters(), d.source_quarters(), "{what}: refilled");
    let report = d.deep_validate();
    assert!(report.is_ok(), "{what}: {report}");
}

fn temp_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("derived-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("store.gdhpc")
}

#[test]
fn derived_values_match_the_columns_after_every_constructor() {
    let d = base();
    assert_derived(&d, "build");
    let (lo, n) = d.quarter_span().unwrap();
    // The orphan mention precedes every event; mentions outrun them.
    assert!(usize::from(lo) < usize::from(d.events.quarter[0]));
    assert!(usize::from(lo) + n - 1 > usize::from(*d.events.quarter.iter().max().unwrap()));
    assert_derived(&Dataset::default(), "empty");
    assert_eq!(Dataset::default().quarter_span(), None);

    let path = temp_store("loads");
    binfmt::save(&path, &d).unwrap();
    assert_derived(&binfmt::load(&path).unwrap(), "strict load");
    assert_derived(&load_degraded(&path).unwrap().dataset, "degraded load");
    for held in
        [&[Column::MentionsQuarter][..], &[Column::EventsQuarter], &[Column::MentionsSource], &[]]
    {
        let projected = binfmt::load_projected(&path, &ColumnSet::of(held)).unwrap();
        assert_derived(&projected, &format!("projected load of {held:?}"));
        assert_derived(&d.clone().project(&ColumnSet::of(held)), &format!("project to {held:?}"));
    }
    // A projection drops what was read over a column it drops.
    let read = base();
    read_derived(&read);
    let mentions_only = read.project(&ColumnSet::of(&[Column::MentionsQuarter]));
    assert_derived(&mentions_only, "project after both were read");
    assert!(mentions_only.source_degrees().iter().all(|&n| n == 0), "mentions.source dropped");
    let _ = std::fs::remove_dir_all(path.parent().unwrap());

    for quarantined in [&[][..], &[0], &[1, 2]] {
        let filled = base();
        read_derived(&filled);
        let restricted = restrict_to_partitions(&filled, 3, quarantined).unwrap();
        assert_derived(&restricted, &format!("restrict, quarantine {quarantined:?}"));
    }
}

#[test]
fn an_append_extends_what_its_base_read_by_the_rows_it_keeps() {
    // A batch event later than every quarter, a duplicate of event 1 at
    // a day years away (dropped, so its quarter must not count, but its
    // mention is kept: it joins the base's event 1), a late mention of a
    // base event, a mention that re-matches the orphan, and two sources
    // new to the directory (`pub7`, `pub8`).
    let batch_events = || vec![event(40, 900), event(1, 3_000), event(99, 5)];
    let batch_mentions = || {
        vec![
            mention(2, 314, 1_200, 7),
            mention(40, 900, 905, 8),
            mention(1, 3_000, 400, 3),
            mention(99, 5, 30, 0),
        ]
    };
    for read_first in [false, true] {
        let base = base();
        if read_first {
            read_derived(&base);
        }
        let (out, stats, _) = append_batch(&base, batch_events(), batch_mentions());
        assert_eq!((stats.duplicate_events, stats.new_sources), (1, 2));
        assert_eq!(out.mentions.len(), base.mentions.len() + 4, "every batch mention is kept");
        assert_derived(&out, &format!("append, base read: {read_first}"));
        let far = Date::from_days(GDELT_EPOCH.to_days() + 3_000).quarter().linear() as u16;
        let (lo, n) = out.quarter_span().unwrap();
        assert!(usize::from(lo) + n - 1 < usize::from(far), "a dropped duplicate's quarter");
        // Appending to the append carries both on, through one more
        // new source.
        let (again, _, _) = append_batch(&out, vec![event(50, 1)], vec![mention(50, 1, 2, 9)]);
        assert_derived(&again, &format!("second append, base read: {read_first}"));
    }

    // A projected base that holds neither `events.quarter` nor
    // `mentions.source`: the batch's event quarters and sources are not
    // its columns' and must widen neither the span nor a degree.
    let held = APPEND_COLUMNS.union(ColumnSet::of(&[Column::MentionsQuarter]));
    let projected = base().project(&held);
    read_derived(&projected);
    let (out, _, _) =
        append_batch(&projected, vec![event(60, 5_000)], vec![mention(60, 5_000, 5_001, 6)]);
    assert!(out.events.quarter.is_empty() && out.mentions.source.is_empty());
    assert_derived(&out, "append to a projected base");
}
