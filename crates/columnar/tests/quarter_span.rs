//! `Dataset::quarter_span` is read once and kept: after every way a
//! dataset comes to be — a build, a strict, projected or degraded load,
//! an append, a restriction to partitions, a clone — the span it answers
//! equals one recomputed from its quarter columns, whether the dataset
//! inherited a filled span (an append to a base that read its own) or
//! fills it on first read.

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

/// `d`'s span, read twice and from a clone, equals the oracle's, and the
/// deep audit (which compares a filled span with its columns) passes.
fn assert_span(d: &Dataset, what: &str) {
    let want = oracle(d);
    assert_eq!(d.quarter_span(), want, "{what}");
    assert_eq!(d.quarter_span(), want, "{what}, read again");
    assert_eq!(d.clone().quarter_span(), want, "{what}, cloned");
    let report = d.deep_validate();
    assert!(report.is_ok(), "{what}: {report}");
}

fn temp_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("quarter-span-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("store.gdhpc")
}

#[test]
fn the_span_covers_both_tables_after_every_constructor() {
    let d = base();
    assert_span(&d, "build");
    let (lo, n) = d.quarter_span().unwrap();
    // The orphan mention precedes every event; mentions outrun them.
    assert!(usize::from(lo) < usize::from(d.events.quarter[0]));
    assert!(usize::from(lo) + n - 1 > usize::from(*d.events.quarter.iter().max().unwrap()));
    assert_span(&Dataset::default(), "empty");
    assert_eq!(Dataset::default().quarter_span(), None);

    let path = temp_store("loads");
    binfmt::save(&path, &d).unwrap();
    assert_span(&binfmt::load(&path).unwrap(), "strict load");
    assert_span(&load_degraded(&path).unwrap().dataset, "degraded load");
    for held in [&[Column::MentionsQuarter][..], &[Column::EventsQuarter], &[]] {
        let projected = binfmt::load_projected(&path, &ColumnSet::of(held)).unwrap();
        assert_span(&projected, &format!("projected load of {held:?}"));
        assert_span(&d.clone().project(&ColumnSet::of(held)), &format!("project to {held:?}"));
    }
    // A projection drops a span read over a column it drops.
    let read = base();
    read.quarter_span();
    let mentions_only = read.project(&ColumnSet::of(&[Column::MentionsQuarter]));
    assert_span(&mentions_only, "project after the span was read");
    let _ = std::fs::remove_dir_all(path.parent().unwrap());

    for quarantined in [&[][..], &[0], &[1, 2]] {
        let filled = base();
        filled.quarter_span();
        let restricted = restrict_to_partitions(&filled, 3, quarantined).unwrap();
        assert_span(&restricted, &format!("restrict, quarantine {quarantined:?}"));
    }
}

#[test]
fn an_append_extends_a_read_span_by_the_rows_it_keeps() {
    // A batch event later than every quarter, a duplicate of event 1 at
    // a day years away (dropped, so its quarter must not count), a late
    // mention of a base event and a mention that re-matches the orphan.
    let batch_events = || vec![event(40, 900), event(1, 3_000), event(99, 5)];
    let batch_mentions = || vec![mention(2, 314, 1_200, 7), mention(40, 900, 905, 8)];
    for read_first in [false, true] {
        let base = base();
        if read_first {
            base.quarter_span();
        }
        let (out, stats, _) = append_batch(&base, batch_events(), batch_mentions());
        assert_eq!(stats.duplicate_events, 1);
        assert_span(&out, &format!("append, base span read: {read_first}"));
        let far = Date::from_days(GDELT_EPOCH.to_days() + 3_000).quarter().linear() as u16;
        let (lo, n) = out.quarter_span().unwrap();
        assert!(usize::from(lo) + n - 1 < usize::from(far), "a dropped duplicate's quarter");
        // Appending to the append carries the span on.
        let (again, _, _) = append_batch(&out, vec![event(50, 1)], vec![]);
        assert_span(&again, &format!("second append, base span read: {read_first}"));
    }

    // A projected base that does not hold `events.quarter`: the batch's
    // event quarters are not its columns' and must not widen the span.
    let held = APPEND_COLUMNS.union(ColumnSet::of(&[Column::MentionsQuarter]));
    let projected = base().project(&held);
    projected.quarter_span();
    let (out, _, _) = append_batch(&projected, vec![event(60, 5_000)], vec![]);
    assert!(out.events.quarter.is_empty());
    assert_span(&out, "append to a projected base");
}
