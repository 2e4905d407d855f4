//! Incremental batch ingestion — GDELT's 15-minute update cycle.
//!
//! The system is read-only *between* updates (paper §IV), but the
//! archive itself grows by two files every quarter hour. Rebuilding a
//! multi-year dataset to absorb one 15-minute batch would defeat the
//! purpose, so this module appends a built batch to an existing
//! [`Dataset`] by copying runs of rows, never row by row:
//!
//! * sources: the dictionary only grows — existing ids are stable;
//! * events: the two id-sorted tables merge into runs, base and batch
//!   alternating; a batch id the base holds is dropped (existing wins);
//! * mentions: base mentions keep their order (the event merge is
//!   monotone in rows), so batch mentions, and base orphans a batch
//!   event now matches, are placed into it by binary search on (event
//!   row, scrape interval), and the base rows between two places are
//!   runs with one event-row shift each. A placed mention's delay is
//!   derived anew from the capture of the event it joins, as a full
//!   build derives it;
//! * the CSR index is rebuilt by counting (linear).
//!
//! One append costs about one copy of the base at memcpy speed
//! ([`EventsTable::from_runs`], [`MentionsTable::from_runs`]) plus
//! O(batch · log n) placement, whatever the batch's shape. The result is
//! *identical* to a from-scratch build over the union of records —
//! asserted by tests and by `Dataset::validate`.

use std::ops::Range;

use crate::builder::DatasetBuilder;
use crate::columns::{Column, ColumnSet};
use crate::derived::Derived;
use crate::index::EventIndex;
use crate::table::{
    Dataset, EventRows, EventsTable, MentionRun, MentionsTable, SourceDirectory, NO_EVENT_ROW,
};
use gdelt_csv::clean::CleanReport;
use gdelt_model::event::EventRecord;
use gdelt_model::ids::row_u32;
use gdelt_model::mention::MentionRecord;

/// Accounting for one applied batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Events added.
    pub new_events: usize,
    /// Batch events dropped as duplicates of existing ids.
    pub duplicate_events: usize,
    /// Mentions added.
    pub new_mentions: usize,
    /// Sources first seen in this batch.
    pub new_sources: usize,
    /// Pre-existing unknown-event mentions that matched a batch event.
    pub rematched_mentions: usize,
    /// Mentions this append joined to an event (re-matched base orphans
    /// and batch mentions of base events) whose own event time is not
    /// that event's capture: the [`CleanReport::inconsistent_event_time`]
    /// a build over both could count but the batch's build could not.
    /// (A batch mention its build joined is counted there, against the
    /// batch's event: a batch that repeats an event id the base holds
    /// with another `DATEADDED` has those mentions counted against its
    /// own copy.)
    pub inconsistent_event_time: u64,
}

/// Append one parsed batch to `base`, returning the updated dataset,
/// batch accounting, and the cleaning report for the batch records
/// (with [`BatchStats::inconsistent_event_time`] added in, so the
/// reports of a base and its batches sum to a full build's).
pub fn append_batch(
    base: &Dataset,
    events: Vec<EventRecord>,
    mentions: Vec<MentionRecord>,
) -> (Dataset, BatchStats, CleanReport) {
    let mut builder = DatasetBuilder::new();
    for e in events {
        builder.add_event(e);
    }
    for m in mentions {
        builder.add_mention(m);
    }
    let (batch, mut clean) = builder.build();
    let (out, stats) = append_dataset(base, batch);
    clean.inconsistent_event_time += stats.inconsistent_event_time;
    (out, stats, clean)
}

/// The columns besides the keys an append reads off its base:
/// `mentions.mention_interval` places the batch's mentions,
/// `events.capture` is the event time their delays count from, and
/// `mentions.orphan_interval` is a re-matched orphan's own event time.
pub const APPEND_COLUMNS: ColumnSet = ColumnSet::of(&[
    Column::EventsCapture,
    Column::MentionsMentionInterval,
    Column::MentionsOrphanInterval,
]);

/// Append a batch already built into a [`Dataset`] (by
/// [`DatasetBuilder`], from records or raw text) to `base`: the dataset a
/// build over the base's records followed by the batch's would give.
///
/// The result holds the columns `base` holds, so a projected base
/// ([`Dataset::project`]) stays projected: the append equals a full
/// build projected the same way. `batch` must hold them too, and the
/// base must hold [`APPEND_COLUMNS`].
pub fn append_dataset(base: &Dataset, batch: Dataset) -> (Dataset, BatchStats) {
    assert!(
        batch.columns.contains_all(base.columns) && base.columns.contains_all(APPEND_COLUMNS),
        "append_dataset: a base holding {} cannot take a batch holding {}",
        base.columns,
        batch.columns
    );
    let mut stats = BatchStats::default();
    let (sources, source_map) = merge_sources(&base.sources, &batch.sources, &mut stats);
    let runs = merge_ids(&base.events.id, &batch.events.id, &mut stats);
    let table = |run: &Run| if run.from_batch { &batch.events } else { &base.events };
    let event_runs: Vec<_> = runs.iter().map(|run| (table(run), run.rows.clone())).collect();
    let events = EventsTable::from_runs(&event_runs, base.columns);
    let mentions = merge_mentions(base, &batch, &events, &runs, &source_map, &mut stats);
    let event_index = EventIndex::build(events.len(), &mentions);
    // The merge keeps every base row, every batch mention and the batch
    // events that are not duplicates: the rows its derived values gain.
    let held = |c: Column| base.columns.contains(c);
    let kept = runs.iter().filter(|run| run.from_batch && held(Column::EventsQuarter));
    let mut quarters: Vec<&[u16]> =
        kept.map(|run| batch.events.quarter.get(run.rows.clone()).unwrap_or_default()).collect();
    if held(Column::MentionsQuarter) {
        quarters.push(&batch.mentions.quarter);
    }
    let derived = Derived::extended(base, &quarters, &batch.mentions, &source_map, sources.len());
    let out = Dataset { events, mentions, sources, event_index, columns: base.columns, derived };
    debug_assert_eq!(out.validate(), Ok(()));
    #[cfg(debug_assertions)]
    {
        let report = out.deep_validate();
        debug_assert!(report.is_ok(), "append_batch produced invalid dataset:\n{report}");
    }
    (out, stats)
}

/// The base directory with the batch's unseen sources appended, and the
/// batch-local → merged id map.
fn merge_sources(
    base: &SourceDirectory,
    batch: &SourceDirectory,
    stats: &mut BatchStats,
) -> (SourceDirectory, Vec<u32>) {
    let mut out = base.clone();
    let mut map = Vec::with_capacity(batch.len());
    for ((_, name), &country) in batch.names.iter().zip(batch.country.iter()) {
        map.push(out.names.lookup(name).unwrap_or_else(|| {
            stats.new_sources += 1;
            out.country.push(country);
            out.names.intern(name)
        }));
    }
    (out, map)
}

/// Consecutive rows of the base or the batch table.
struct Run {
    from_batch: bool,
    rows: Range<usize>,
}

/// The merge of two ascending id columns as runs, base and batch
/// alternating. A batch id the base already holds is dropped.
fn merge_ids(base: &[u64], batch: &[u64], stats: &mut BatchStats) -> Vec<Run> {
    let mut runs = Vec::new();
    let (mut i, mut j) = (0, 0);
    while let Some(&next) = batch.get(j) {
        let until = i + base[i..].partition_point(|&id| id < next);
        if i < until {
            runs.push(Run { from_batch: false, rows: i..until });
        }
        i = until;
        let stop = match base.get(i) {
            Some(&id) if id == next => {
                stats.duplicate_events += 1; // duplicate capture: existing wins
                j += 1;
                continue;
            }
            Some(&id) => j + batch[j..].partition_point(|&b| b < id),
            None => batch.len(),
        };
        stats.new_events += stop - j;
        runs.push(Run { from_batch: true, rows: j..stop });
        j = stop;
    }
    if i < base.len() {
        runs.push(Run { from_batch: false, rows: i..base.len() });
    }
    runs
}

/// A mention that joins the base order at a place found by binary
/// search: a batch mention, or a base orphan (a mention of an unknown
/// event) that a batch event now matches. The order is a full build's:
/// by (event row, interval), then base before batch, then by row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Placed {
    event_row: u32,
    interval: u32,
    from_batch: bool,
    row: u32,
}

/// The merged mentions table: the base rows in order, as runs with one
/// event-row shift each, cut where placed mentions go in.
fn merge_mentions(
    base: &Dataset,
    batch: &Dataset,
    events: &EventsTable,
    runs: &[Run],
    source_map: &[u32],
    stats: &mut BatchStats,
) -> MentionsTable {
    let (old, new) = (&base.mentions, &batch.mentions);
    let known = old.joined();
    let off = |event: usize| base.event_index.offsets.get(event).map_or(known, |&o| o as usize);
    let base_run = |rows, event_row| MentionRun { src: old, rows, event_row, source_map: None };
    let mut pieces = Vec::with_capacity(runs.len() + 1);
    let mut at = 0;
    for run in runs {
        if !run.from_batch {
            let shift = EventRows::Shift { from: row_u32(run.rows.start), to: row_u32(at) };
            pieces.push(base_run(off(run.rows.start)..off(run.rows.end), shift));
        }
        at += run.rows.len();
    }

    // Every mention re-joins by id: a batch mention's event may be a
    // batch event, a base one (a late mention, or a duplicate's) or none.
    let row_of = |id: u64| events.id.binary_search(&id).map_or(NO_EVENT_ROW, row_u32);
    let orphans = |rows| base_run(rows, EventRows::Shift { from: 0, to: 0 });
    let mut placed = Vec::with_capacity(new.len());
    let mut start = known;
    for (row, &id) in (known..).zip(old.orphan_id.iter()) {
        let (event_row, interval) = (row_of(id), old.mention_interval[row]);
        if event_row != NO_EVENT_ROW {
            placed.push(Placed { event_row, interval, from_batch: false, row: row_u32(row) });
            pieces.push(orphans(start..row));
            start = row + 1;
        }
    }
    pieces.push(orphans(start..old.len()));
    stats.rematched_mentions = placed.len();
    placed.extend((0..new.len()).map(|row| Placed {
        event_row: row_of(batch.mention_event_id(row).0),
        interval: new.mention_interval[row],
        from_batch: true,
        row: row_u32(row),
    }));
    stats.new_mentions = new.len();
    // A placed mention that was an orphan in its own table carries its
    // own event time: count it against the capture of the event it now
    // joins, as a full build would.
    let own_time = |p: &Placed| {
        let t = if p.from_batch { new } else { old };
        t.orphan_interval.get((p.row as usize).checked_sub(t.joined())?).copied()
    };
    let disagrees = |p: &&Placed| {
        let capture = events.capture.get(p.event_row as usize);
        capture.is_some_and(|&c| own_time(p).is_some_and(|own| own != c))
    };
    stats.inconsistent_event_time = placed.iter().filter(disagrees).count() as u64;
    placed.sort_unstable();

    // Each placed mention goes before the first base row whose (event
    // row, interval) is greater than its own.
    let after = |rows: Range<usize>, iv: u32| {
        let intervals = old.mention_interval.chunk_view(rows.start, rows.end);
        rows.start + intervals.partition_point(|&t| t <= iv)
    };
    let place = |p: &Placed| match events.id.get(p.event_row as usize) {
        None => after(known..old.len(), p.interval), // unknown event: the tail
        Some(id) => match base.events.id.binary_search(id) {
            Ok(event) => after(off(event)..off(event + 1), p.interval),
            Err(event) => off(event), // a batch event: before the next base one
        },
    };
    let placed: Vec<(Placed, usize)> = placed.into_iter().map(|p| (p, place(&p))).collect();

    // Interleave: base rows up to each place, then the run placed there.
    let event_rows: Vec<u32> = placed.iter().map(|(p, _)| p.event_row).collect();
    let mut out = Vec::with_capacity(pieces.len() + 2 * placed.len());
    let (mut next, mut k) = (0, 0);
    let same_run = |(a, at): &(Placed, usize), (b, bt): &(Placed, usize)| {
        at == bt && a.from_batch == b.from_batch && b.row == a.row.wrapping_add(1)
    };
    for group in placed.chunk_by(same_run) {
        let Some(&(first, at)) = group.first() else { continue };
        take_until(&mut pieces, &mut next, at, &mut out);
        let row = first.row as usize;
        out.push(MentionRun {
            src: if first.from_batch { new } else { old },
            rows: row..row + group.len(),
            event_row: EventRows::Given(&event_rows[k..k + group.len()]),
            source_map: first.from_batch.then_some(source_map),
        });
        k += group.len();
    }
    take_until(&mut pieces, &mut next, usize::MAX, &mut out);
    MentionsTable::from_runs(&out, base.columns, &events.capture)
}

/// Move the rows of `pieces[*next..]` before base row `until` to `out`,
/// advancing past the pieces used up.
fn take_until<'a>(
    pieces: &mut [MentionRun<'a>],
    next: &mut usize,
    until: usize,
    out: &mut Vec<MentionRun<'a>>,
) {
    while let Some(piece) = pieces.get_mut(*next) {
        let stop = piece.rows.end.min(until);
        if piece.rows.start < stop {
            out.push(MentionRun { rows: piece.rows.start..stop, ..piece.clone() });
            piece.rows.start = stop;
        }
        if piece.rows.start < piece.rows.end {
            return;
        }
        *next += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
    use gdelt_model::event::ActionGeo;
    use gdelt_model::ids::EventId;
    use gdelt_model::mention::MentionType;
    use gdelt_model::time::{DateTime, GDELT_EPOCH};

    fn event(id: u64, hour: u8) -> EventRecord {
        EventRecord {
            id: EventId(id),
            day: GDELT_EPOCH,
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
            date_added: DateTime::new(GDELT_EPOCH, hour, 0, 0).unwrap(),
            source_url: format!("https://u/{id}"),
        }
    }

    fn mention(event: u64, event_hour: u8, delay: u32, src: &str) -> MentionRecord {
        let t = DateTime::new(GDELT_EPOCH, event_hour, 0, 0).unwrap();
        MentionRecord {
            event_id: EventId(event),
            event_time: t,
            mention_time: DateTime::from_unix_seconds(t.to_unix_seconds() + i64::from(delay) * 900),
            mention_type: MentionType::Web,
            source_name: src.into(),
            url: format!("https://{src}/{event}"),
            confidence: 50,
            doc_tone: 0.0,
        }
    }

    fn build(events: Vec<EventRecord>, mentions: Vec<MentionRecord>) -> Dataset {
        let mut b = DatasetBuilder::new();
        for e in events {
            b.add_event(e);
        }
        for m in mentions {
            b.add_mention(m);
        }
        b.build().0
    }

    /// Byte-level equality via the binary format (NaN-safe).
    fn assert_datasets_equal(a: &Dataset, b: &Dataset) {
        let mut ba = Vec::new();
        crate::binfmt::write_dataset(&mut ba, a).unwrap();
        let mut bb = Vec::new();
        crate::binfmt::write_dataset(&mut bb, b).unwrap();
        assert_eq!(ba, bb, "datasets differ");
    }

    #[test]
    fn append_matches_full_rebuild() {
        let base_events = vec![event(10, 1), event(30, 2)];
        let base_mentions = vec![
            mention(10, 1, 0, "a.com"),
            mention(30, 2, 5, "b.co.uk"),
            mention(30, 2, 2, "a.com"),
        ];
        let batch_events = vec![event(20, 3), event(40, 4)];
        let batch_mentions = vec![
            mention(20, 3, 0, "c.com.au"),
            mention(40, 4, 7, "a.com"),
            mention(20, 3, 1, "b.co.uk"),
        ];

        let base = build(base_events.clone(), base_mentions.clone());
        let (updated, stats, _) = append_batch(&base, batch_events.clone(), batch_mentions.clone());
        assert_eq!(updated.validate(), Ok(()));
        assert_eq!(stats.new_events, 2);
        assert_eq!(stats.new_mentions, 3);
        assert_eq!(stats.duplicate_events, 0);

        let all_events: Vec<_> = base_events.into_iter().chain(batch_events).collect();
        let all_mentions: Vec<_> = base_mentions.into_iter().chain(batch_mentions).collect();
        let full = build(all_events, all_mentions);
        assert_datasets_equal(&updated, &full);
    }

    #[test]
    fn duplicate_batch_events_are_dropped() {
        let base = build(vec![event(10, 1)], vec![mention(10, 1, 0, "a.com")]);
        let (updated, stats, _) = append_batch(&base, vec![event(10, 9), event(11, 2)], vec![]);
        assert_eq!(stats.duplicate_events, 1);
        assert_eq!(stats.new_events, 1);
        assert_eq!(updated.events.len(), 2);
        // The surviving copy is the original (capture hour 1, not 9).
        let row = updated.events.row_of(EventId(10)).unwrap();
        assert_eq!(updated.events.capture[row], 4); // 01:00 = interval 4
    }

    #[test]
    fn unknown_mentions_rematch_when_event_arrives() {
        // Base has a mention of event 99 before event 99 exists.
        let base =
            build(vec![event(1, 0)], vec![mention(99, 5, 3, "a.com"), mention(1, 0, 0, "a.com")]);
        assert_eq!(base.event_index.total_mentions(), 1);
        let (updated, stats, _) = append_batch(&base, vec![event(99, 5)], vec![]);
        assert_eq!(stats.rematched_mentions, 1);
        assert_eq!(updated.event_index.total_mentions(), 2);
        let row = updated.events.row_of(EventId(99)).unwrap();
        assert_eq!(updated.mentions_of(row).len(), 1);
    }

    #[test]
    fn new_sources_extend_dictionary_stably() {
        let base = build(vec![event(1, 0)], vec![mention(1, 0, 0, "a.com")]);
        let a_id = base.sources.lookup("a.com").unwrap();
        let (updated, stats, _) = append_batch(
            &base,
            vec![event(2, 1)],
            vec![mention(2, 1, 0, "z.co.uk"), mention(2, 1, 1, "a.com")],
        );
        assert_eq!(stats.new_sources, 1);
        // Existing id unchanged; new source appended after.
        assert_eq!(updated.sources.lookup("a.com"), Some(a_id));
        assert!(updated.sources.lookup("z.co.uk").unwrap() > a_id);
        assert_eq!(updated.validate(), Ok(()));
    }

    #[test]
    fn chained_batches_match_full_rebuild_on_synthetic_corpus() {
        let cfg = gdelt_synth_free_tiny();
        let data = cfg;
        // Split records into three chronological batches.
        let n = data.0.len();
        let (e1, rest) = data.0.split_at(n / 3);
        let (e2, e3) = rest.split_at(n / 3);
        let m = data.1.len();
        let (m1, mrest) = data.1.split_at(m / 3);
        let (m2, m3) = mrest.split_at(m / 3);

        let base = build(e1.to_vec(), m1.to_vec());
        let (step1, _, _) = append_batch(&base, e2.to_vec(), m2.to_vec());
        let (step2, _, _) = append_batch(&step1, e3.to_vec(), m3.to_vec());

        let full = build(data.0.clone(), data.1.clone());
        assert_datasets_equal(&step2, &full);
    }

    /// Small synthetic record set without depending on gdelt-synth
    /// (which would create a dependency cycle): hand-rolled variety.
    fn gdelt_synth_free_tiny() -> (Vec<EventRecord>, Vec<MentionRecord>) {
        let mut events = Vec::new();
        let mut mentions = Vec::new();
        for id in 1..=30u64 {
            events.push(event(id, (id % 24) as u8));
            for k in 0..(id % 4) {
                mentions.push(mention(
                    id,
                    (id % 24) as u8,
                    (k * 7 + id % 5) as u32,
                    ["a.com", "b.co.uk", "c.com.au", "d.org"][(id as usize + k as usize) % 4],
                ));
            }
        }
        // A few mentions of events that never arrive.
        mentions.push(mention(500, 1, 2, "a.com"));
        mentions.push(mention(501, 2, 3, "b.co.uk"));
        (events, mentions)
    }

    #[test]
    fn empty_batch_is_identity() {
        let base = build(vec![event(1, 0), event(2, 1)], vec![mention(1, 0, 0, "a.com")]);
        let (updated, stats, _) = append_batch(&base, vec![], vec![]);
        assert_eq!(stats, BatchStats::default());
        assert_datasets_equal(&updated, &base);
    }
}
