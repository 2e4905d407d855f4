//! Property test: applying arbitrary batch splits incrementally always
//! produces the byte-identical dataset a full rebuild would, and the
//! run-copy assembly behind `append_batch` and `restrict_to_partitions`
//! equals the row-at-a-time loops it replaced (kept below as [`oracle`])
//! byte for byte — on duplicate ids across base and batch, on mentions
//! whose own event time is not their event's capture, and on any
//! quarantine set. Both keep a projected dataset projected: they
//! commute with `Dataset::project`. Batches that deliver mentions
//! before their events grow the orphan tail, and the batch that brings
//! the events shrinks it again.

use gdelt_columnar::degraded::restrict_to_partitions;
use gdelt_columnar::incremental::{append_batch, APPEND_COLUMNS};
use gdelt_columnar::table::NO_EVENT_ROW;
use gdelt_columnar::{binfmt, Column, ColumnSet, Dataset, DatasetBuilder};
use gdelt_csv::clean::CleanReport;
use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
use gdelt_model::event::{ActionGeo, EventRecord};
use gdelt_model::ids::EventId;
use gdelt_model::mention::{MentionRecord, MentionType};
use gdelt_model::time::{DateTime, GDELT_EPOCH};
use proptest::prelude::*;

fn event(id: u64, hour: u8) -> EventRecord {
    EventRecord {
        id: EventId(id),
        day: GDELT_EPOCH,
        root: CameoRoot::new((id % 20 + 1) as u8).unwrap(),
        event_code: "010".into(),
        actor1_country: String::new(),
        actor2_country: String::new(),
        quad_class: QuadClass::from_u8((id % 4 + 1) as u8).unwrap(),
        goldstein: Goldstein::new(0.0).unwrap(),
        num_mentions: 0,
        num_sources: 0,
        num_articles: 0,
        avg_tone: 0.0,
        geo: ActionGeo::default(),
        date_added: DateTime::new(GDELT_EPOCH, hour % 24, 0, 0).unwrap(),
        source_url: format!("https://u/{id}"),
    }
}

fn mention(event_id: u64, delay: u32, src: usize) -> MentionRecord {
    let t = DateTime::midnight(GDELT_EPOCH);
    MentionRecord {
        event_id: EventId(event_id),
        event_time: t,
        mention_time: DateTime::from_unix_seconds(t.to_unix_seconds() + i64::from(delay) * 900),
        mention_type: MentionType::Web,
        source_name: format!("pub{src}.co.uk"),
        url: format!("https://pub{src}.co.uk/{event_id}"),
        confidence: 50,
        doc_tone: 0.0,
    }
}

fn build(events: &[EventRecord], mentions: &[MentionRecord]) -> Dataset {
    build_reported(events, mentions).0
}

fn build_reported(events: &[EventRecord], mentions: &[MentionRecord]) -> (Dataset, CleanReport) {
    let mut b = DatasetBuilder::new();
    for e in events {
        b.add_event(e.clone());
    }
    for m in mentions {
        b.add_mention(m.clone());
    }
    b.build()
}

/// The reports of a build and the batches appended to it, summed class
/// by class: what one build over all of their records reports.
fn summed(reports: &[CleanReport]) -> CleanReport {
    let mut t = CleanReport::default();
    for r in reports {
        t.malformed_masterlist += r.malformed_masterlist;
        t.missing_archives += r.missing_archives;
        t.missing_source_url += r.missing_source_url;
        t.future_event_date += r.future_event_date;
        t.bad_event_lines += r.bad_event_lines;
        t.bad_mention_lines += r.bad_mention_lines;
        t.mention_before_event += r.mention_before_event;
        t.inconsistent_event_time += r.inconsistent_event_time;
    }
    t
}

fn bytes(d: &Dataset) -> Vec<u8> {
    let mut buf = Vec::new();
    binfmt::write_dataset(&mut buf, d).unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_batch_split_equals_full_rebuild(
        // Events with possibly-duplicated ids and mentions possibly
        // referencing absent events.
        event_specs in prop::collection::vec((1u64..40, 0u8..24), 1..40),
        mention_specs in prop::collection::vec((1u64..45, 0u32..200, 0usize..6), 0..80),
        split_e in 0.0f64..1.0,
        split_m in 0.0f64..1.0,
    ) {
        // Deduplicate event ids within the stream (the builder keeps the
        // first; split-position-dependent winners would make the
        // comparison ill-defined otherwise).
        let mut seen = std::collections::HashSet::new();
        let events: Vec<EventRecord> = event_specs
            .into_iter()
            .filter(|&(id, _)| seen.insert(id))
            .map(|(id, h)| event(id, h))
            .collect();
        let mentions: Vec<MentionRecord> =
            mention_specs.into_iter().map(|(id, d, s)| mention(id, d, s)).collect();

        let e_cut = (events.len() as f64 * split_e) as usize;
        let m_cut = (mentions.len() as f64 * split_m) as usize;

        let (base, base_report) = build_reported(&events[..e_cut], &mentions[..m_cut]);
        let (updated, stats, batch_report) =
            append_batch(&base, events[e_cut..].to_vec(), mentions[m_cut..].to_vec());
        prop_assert_eq!(updated.validate(), Ok(()));
        prop_assert_eq!(stats.new_events, events.len() - e_cut);
        prop_assert_eq!(stats.new_mentions, mentions.len() - m_cut);

        let (full, full_report) = build_reported(&events, &mentions);
        prop_assert_eq!(bytes(&updated), bytes(&full), "split {}/{} diverged", e_cut, m_cut);
        // Every mention's own event time is midnight and most captures
        // are not: the inconsistent ones are counted once, by whichever
        // step joins them.
        prop_assert_eq!(summed(&[base_report, batch_report]), full_report);
    }

    #[test]
    fn three_way_chains_compose(
        ids in prop::collection::vec(1u64..30, 3..30),
        cuts in (0.0f64..0.5, 0.5f64..1.0),
    ) {
        let mut seen = std::collections::HashSet::new();
        let events: Vec<EventRecord> = ids
            .iter()
            .filter(|&&id| seen.insert(id))
            .map(|&id| event(id, (id % 24) as u8))
            .collect();
        let mentions: Vec<MentionRecord> =
            events.iter().map(|e| mention(e.id.raw(), 3, 1)).collect();

        let a = (events.len() as f64 * cuts.0) as usize;
        let b = ((events.len() as f64 * cuts.1) as usize).max(a);

        let base = build(&events[..a], &mentions[..a]);
        let (mid, _, _) = append_batch(&base, events[a..b].to_vec(), mentions[a..b].to_vec());
        let (fin, _, _) = append_batch(&mid, events[b..].to_vec(), mentions[b..].to_vec());
        let full = build(&events, &mentions);
        prop_assert_eq!(bytes(&fin), bytes(&full));
    }
}

/// The row-at-a-time assembly `append_batch` and `restrict_to_partitions`
/// used before tables were assembled by runs: every row pushed column by
/// column, every URL copied as a string.
mod oracle {
    use gdelt_columnar::binfmt::partition_extents;
    use gdelt_columnar::index::EventIndex;
    use gdelt_columnar::table::{Dataset, EventsTable, MentionsTable, NO_EVENT_ROW};
    use gdelt_model::ids::row_u32;

    fn copy_event_row(dst: &mut EventsTable, src: &EventsTable, row: usize) {
        dst.id.push(src.id[row]);
        dst.day.push(src.day[row]);
        dst.capture.push(src.capture[row]);
        dst.quarter.push(src.quarter[row]);
        dst.quad.push(src.quad[row]);
        dst.actor1.push(src.actor1[row]);
        dst.actor2.push(src.actor2[row]);
        dst.avg_tone.push(src.avg_tone[row]);
        dst.country.push(src.country[row]);
        dst.urls.push(src.url(row));
    }

    /// Copy mention `row` of `src` as one joining event row `er` with
    /// `source` and `delay`, its orphan side columns along if `er` is
    /// none.
    fn copy_mention_row(
        dst: &mut MentionsTable,
        src: &MentionsTable,
        row: usize,
        er: u32,
        source: u32,
        delay: u32,
    ) {
        dst.event_row.push(er);
        if er == NO_EVENT_ROW {
            dst.orphan_id.push(src.orphan_id[row - src.joined()]);
            dst.orphan_interval.push(src.orphan_interval[row - src.joined()]);
        }
        dst.mention_interval.push(src.mention_interval[row]);
        dst.delay.push(delay);
        dst.source.push(source);
        dst.quarter.push(src.quarter[row]);
        dst.mention_type.push(src.mention_type[row]);
        dst.confidence.push(src.confidence[row]);
        dst.doc_tone.push(src.doc_tone[row]);
    }

    /// `append_batch` after the batch is built: a two-pointer event
    /// merge, then a merge of the re-keyed base mentions with the sorted
    /// batch (and re-matched) mentions.
    pub fn append(base: &Dataset, batch: &Dataset) -> Dataset {
        let mut out = Dataset::default();
        out.sources = base.sources.clone();
        let mut source_map = vec![0u32; batch.sources.len()];
        for (i, map) in source_map.iter_mut().enumerate() {
            let name = batch.sources.names.get(i as u32);
            *map = match out.sources.names.lookup(name) {
                Some(id) => id,
                None => {
                    let id = out.sources.names.intern(name);
                    out.sources.country.push(batch.sources.country[i]);
                    id
                }
            };
        }
        let mut base_row_map = vec![0u32; base.events.len()];
        let mut batch_row_map = vec![NO_EVENT_ROW; batch.events.len()];
        let (a, b) = (&base.events, &batch.events);
        let (mut i, mut j, mut next) = (0usize, 0usize, 0u32);
        while i < a.len() || j < b.len() {
            let take_base = match (a.id.get(i), b.id.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    j += 1;
                    continue;
                }
                (Some(&x), Some(&y)) => x < y,
                (Some(_), None) => true,
                _ => false,
            };
            if take_base {
                copy_event_row(&mut out.events, a, i);
                base_row_map[i] = next;
                i += 1;
            } else {
                copy_event_row(&mut out.events, b, j);
                batch_row_map[j] = next;
                j += 1;
            }
            next += 1;
        }
        let search = |id: u64| match out.events.id.binary_search(&id) {
            Ok(r) => row_u32(r),
            Err(_) => NO_EVENT_ROW,
        };
        let mut batch_run: Vec<(u32, u32, bool, u32)> = Vec::new();
        let mut base_run: Vec<(u32, u32, bool, u32)> = Vec::new();
        for row in 0..base.mentions.len() {
            let er = base.mentions.event_row[row];
            let new_er = if er != NO_EVENT_ROW {
                base_row_map[er as usize]
            } else {
                search(base.mention_event_id(row).0)
            };
            let rec = (new_er, base.mentions.mention_interval[row], false, row_u32(row));
            if er == NO_EVENT_ROW && new_er != NO_EVENT_ROW {
                batch_run.push(rec);
            } else {
                base_run.push(rec);
            }
        }
        for row in 0..batch.mentions.len() {
            let er = batch.mentions.event_row[row];
            let mut new_er =
                if er != NO_EVENT_ROW { batch_row_map[er as usize] } else { NO_EVENT_ROW };
            if new_er == NO_EVENT_ROW {
                new_er = search(batch.mention_event_id(row).0);
            }
            batch_run.push((new_er, batch.mentions.mention_interval[row], true, row_u32(row)));
        }
        batch_run.sort_unstable();
        let (mut bi, mut bj) = (0usize, 0usize);
        while bi + bj < base_run.len() + batch_run.len() {
            let take_base = match (base_run.get(bi), batch_run.get(bj)) {
                (Some(x), Some(y)) => (x.0, x.1) <= (y.0, y.1),
                (Some(_), None) => true,
                _ => false,
            };
            let (er, _, is_batch, row) = if take_base { base_run[bi] } else { batch_run[bj] };
            if take_base {
                bi += 1;
            } else {
                bj += 1;
            }
            let src = if is_batch { &batch.mentions } else { &base.mentions };
            let row = row as usize;
            let source = src.source[row];
            let source = if is_batch { source_map[source as usize] } else { source };
            // A mention that joins its event here counts from its capture.
            let rejoined = (is_batch || src.event_row[row] == NO_EVENT_ROW) && er != NO_EVENT_ROW;
            let delay = if rejoined {
                src.mention_interval[row].saturating_sub(out.events.capture[er as usize])
            } else {
                src.delay[row]
            };
            copy_mention_row(&mut out.mentions, src, row, er, source, delay);
        }
        out.event_index = EventIndex::build(out.events.len(), &out.mentions);
        out
    }

    /// `restrict_to_partitions`: the live partitions' rows, one at a
    /// time, with event rows shifted down by the rows dropped before.
    pub fn restrict(d: &Dataset, n_parts: u32, quarantined: &[u32]) -> Dataset {
        let exts =
            partition_extents(d.events.len(), d.mentions.len(), &d.event_index.offsets, n_parts);
        let mut out = Dataset::default();
        out.sources = d.sources.clone();
        let mut ev_base = 0u64;
        for (p, ext) in exts.iter().enumerate() {
            if quarantined.contains(&(p as u32)) {
                continue;
            }
            for row in ext.ev_begin as usize..ext.ev_end as usize {
                copy_event_row(&mut out.events, &d.events, row);
            }
            for row in ext.m_begin as usize..ext.m_end as usize {
                let er = d.mentions.event_row[row];
                let er = if er == NO_EVENT_ROW {
                    er
                } else {
                    (u64::from(er) - ext.ev_begin + ev_base) as u32
                };
                let (m, source, delay) =
                    (&d.mentions, d.mentions.source[row], d.mentions.delay[row]);
                copy_mention_row(&mut out.mentions, m, row, er, source, delay);
            }
            ev_base += ext.ev_end - ext.ev_begin;
        }
        out.event_index = EventIndex::build(out.events.len(), &out.mentions);
        out
    }
}

/// The columns whose bits are set in `mask`, in [`Column::ALL`] order.
fn columns_of(mask: u32) -> ColumnSet {
    let picked: Vec<Column> =
        Column::ALL.into_iter().filter(|&c| mask >> c as u8 & 1 == 1).collect();
    ColumnSet::of(&picked)
}

/// Column-by-column equality of two datasets, projected ones included
/// (which cannot be written to compare bytes); `Debug` keeps a `NaN`
/// tone equal to itself.
fn same(a: &Dataset, b: &Dataset) -> bool {
    a.columns == b.columns
        && format!("{:?}", a.events) == format!("{:?}", b.events)
        && a.mentions == b.mentions
        && a.event_index == b.event_index
        && a.sources.names.pool() == b.sources.names.pool()
        && a.sources.country == b.sources.country
}

/// Events whose URLs repeat every third id, so a shared pool shares.
fn events_sharing_urls(specs: &[(u64, u8)]) -> Vec<EventRecord> {
    specs
        .iter()
        .map(|&(id, h)| EventRecord { source_url: format!("https://u/{}", id % 3), ..event(id, h) })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn duplicate_batch_ids_keep_the_existing_row(
        event_specs in prop::collection::vec((1u64..30, 0u8..24), 1..40),
        mention_specs in prop::collection::vec((1u64..35, 0u32..200, 0usize..6), 0..80),
        split_e in 0.0f64..1.0,
        split_m in 0.0f64..1.0,
    ) {
        // No de-duplication: base and batch share ids, and the batch
        // repeats its own.
        let events: Vec<EventRecord> = event_specs.iter().map(|&(id, h)| event(id, h)).collect();
        let mentions: Vec<MentionRecord> =
            mention_specs.into_iter().map(|(id, d, s)| mention(id, d, s)).collect();
        let e_cut = (events.len() as f64 * split_e) as usize;
        let m_cut = (mentions.len() as f64 * split_m) as usize;

        let base = build(&events[..e_cut], &mentions[..m_cut]);
        let batch = build(&events[e_cut..], &mentions[m_cut..]);
        let (updated, stats, _) =
            append_batch(&base, events[e_cut..].to_vec(), mentions[m_cut..].to_vec());
        let dups = batch.events.id.iter().filter(|id| base.events.id.binary_search(id).is_ok());
        prop_assert_eq!(stats.duplicate_events, dups.count());
        prop_assert_eq!(stats.new_events + stats.duplicate_events, batch.events.len());
        prop_assert_eq!(bytes(&updated), bytes(&oracle::append(&base, &batch)));
        prop_assert_eq!(bytes(&updated), bytes(&build(&events, &mentions)));
    }

    // A chain of appends onto a projected base is the full build
    // projected the same way (an append needs the base's scrape
    // intervals, which place the batch's mentions, and the events'
    // captures, which their delays count from).
    #[test]
    fn chained_appends_onto_a_projected_base_equal_the_projected_build(
        event_specs in prop::collection::vec((1u64..60, 0u8..24), 1..60),
        mention_specs in prop::collection::vec((1u64..70, 0u32..200, 0usize..6), 0..120),
        cuts in (0.0f64..1.0, 0.0f64..1.0),
        mask in any::<u32>(),
    ) {
        let columns = columns_of(mask).union(APPEND_COLUMNS);
        let events = events_sharing_urls(&event_specs);
        let mentions: Vec<MentionRecord> =
            mention_specs.into_iter().map(|(id, d, s)| mention(id, d, s)).collect();
        let (lo, hi) = if cuts.0 <= cuts.1 { cuts } else { (cuts.1, cuts.0) };
        let at = |n: usize, f: f64| (n as f64 * f) as usize;
        let (e1, e2) = (at(events.len(), lo), at(events.len(), hi));
        let (m1, m2) = (at(mentions.len(), lo), at(mentions.len(), hi));

        let base = build(&events[..e1], &mentions[..m1]).project(&columns);
        let (step, _, _) = append_batch(&base, events[e1..e2].to_vec(), mentions[m1..m2].to_vec());
        let (step, _, _) = append_batch(&step, events[e2..].to_vec(), mentions[m2..].to_vec());
        prop_assert_eq!(step.columns, columns.to_hold());
        prop_assert_eq!(step.validate(), Ok(()));
        prop_assert!(same(&step, &build(&events, &mentions).project(&columns)));
    }

    #[test]
    fn restrict_commutes_with_project(
        event_specs in prop::collection::vec((1u64..120, 0u8..24), 0..100),
        mention_specs in prop::collection::vec((1u64..130, 0u32..200, 0usize..6), 0..200),
        parts in 1u32..12,
        mask in any::<u16>(),
        columns in any::<u32>(),
    ) {
        let columns = columns_of(columns);
        let events = events_sharing_urls(&event_specs);
        let mentions: Vec<MentionRecord> =
            mention_specs.into_iter().map(|(id, d, s)| mention(id, d, s)).collect();
        let d = build(&events, &mentions);
        let quarantined: Vec<u32> = (0..parts).filter(|p| mask >> p & 1 == 1).collect();
        let projected = d.clone().project(&columns);
        let restricted = restrict_to_partitions(&projected, parts, &quarantined).expect("restrict");
        prop_assert_eq!(restricted.validate(), Ok(()));
        let whole = restrict_to_partitions(&d, parts, &quarantined).expect("restrict");
        prop_assert!(same(&restricted, &whole.project(&columns)));
    }

    #[test]
    fn restrict_equals_the_row_at_a_time_oracle(
        event_specs in prop::collection::vec((1u64..200, 0u8..24), 0..120),
        mention_specs in prop::collection::vec((1u64..220, 0u32..200, 0usize..6), 0..300),
        parts in 1u32..12,
        mask in any::<u16>(),
    ) {
        let events: Vec<EventRecord> = event_specs.iter().map(|&(id, h)| event(id, h)).collect();
        let mentions: Vec<MentionRecord> =
            mention_specs.into_iter().map(|(id, d, s)| mention(id, d, s)).collect();
        let d = build(&events, &mentions);
        let quarantined: Vec<u32> = (0..parts).filter(|p| mask >> p & 1 == 1).collect();
        let restricted = restrict_to_partitions(&d, parts, &quarantined).expect("restrict");
        prop_assert_eq!(restricted.validate(), Ok(()));
        prop_assert_eq!(bytes(&restricted), bytes(&oracle::restrict(&d, parts, &quarantined)));
    }
}

/// A mention of `event_id` whose own event time is `event_hour` on the
/// epoch day — not necessarily the event's capture — scraped `delay`
/// intervals after it.
fn mention_at(event_id: u64, event_hour: u8, delay: u32, src: usize) -> MentionRecord {
    let t = DateTime::new(GDELT_EPOCH, event_hour, 0, 0).unwrap();
    MentionRecord {
        event_time: t,
        mention_time: DateTime::from_unix_seconds(t.to_unix_seconds() + i64::from(delay) * 900),
        ..mention(event_id, 0, src)
    }
}

/// Every delay of `d` counts from the event's capture, or from an
/// orphan's own event time.
fn delays_derived(d: &Dataset) -> bool {
    let m = &d.mentions;
    (0..m.len()).all(|row| {
        let from = match m.event_row[row] {
            NO_EVENT_ROW => m.orphan_interval[row - m.joined()],
            er => d.events.capture[er as usize],
        };
        m.delay[row] == m.mention_interval[row].saturating_sub(from)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Batch `k` brings the events of slice `k` and the mentions of
    // slice `k + 1`'s events, ahead of them — as `gdelt-cli chaos`
    // storms deliver them. After every append the orphan tail holds
    // exactly the mentions whose event has not arrived, with their own
    // ids and event times; the batch that brings the events re-matches
    // them, with delays counted from the capture; and every step equals
    // the from-scratch build of what arrived so far.
    #[test]
    fn mentions_ahead_of_their_events_ride_the_orphan_tail(
        hours in prop::collection::vec(0u8..24, 1..40),
        mention_specs in prop::collection::vec((0usize..40, 0u8..24, 0u32..200, 0usize..6), 0..80),
        batches in 1usize..5,
    ) {
        let n = hours.len();
        let slice = |id: u64| (id as usize - 1) * batches / n;
        let events: Vec<EventRecord> =
            (1..=n as u64).map(|id| event(id, hours[id as usize - 1])).collect();
        let mentions: Vec<MentionRecord> = mention_specs
            .iter()
            .map(|&(e, hour, delay, src)| mention_at((e % n) as u64 + 1, hour, delay, src))
            .collect();
        let events_of = |k: usize| -> Vec<EventRecord> {
            events.iter().filter(|e| slice(e.id.raw()) == k).cloned().collect()
        };
        let mentions_of = |k: usize| -> Vec<MentionRecord> {
            mentions.iter().filter(|m| slice(m.event_id.raw()) == k).cloned().collect()
        };

        let (mut arrived_events, mut arrived_mentions) = (events_of(0), mentions_of(0));
        arrived_mentions.extend(mentions_of(1));
        let (mut d, report) = build_reported(&arrived_events, &arrived_mentions);
        let mut reports = vec![report];
        for k in 1..=batches {
            let ahead = mentions_of(k);
            prop_assert_eq!(d.mentions.orphan_id.len(), ahead.len());
            let mut want: Vec<u64> = ahead.iter().map(|m| m.event_id.raw()).collect();
            let mut got = d.mentions.orphan_id.to_vec();
            want.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, want);
            prop_assert!(delays_derived(&d));

            let (batch_events, batch_mentions) = (events_of(k), mentions_of(k + 1));
            arrived_events.extend(batch_events.iter().cloned());
            arrived_mentions.extend(batch_mentions.iter().cloned());
            let (next, stats, report) = append_batch(&d, batch_events, batch_mentions);
            prop_assert_eq!(stats.rematched_mentions, ahead.len());
            prop_assert!(delays_derived(&next));
            let (full, full_report) = build_reported(&arrived_events, &arrived_mentions);
            prop_assert_eq!(bytes(&next), bytes(&full));
            reports.push(report);
            prop_assert_eq!(summed(&reports), full_report);
            d = next;
        }
        prop_assert!(d.mentions.orphan_id.is_empty() && d.mentions.orphan_interval.is_empty());
    }
}

#[test]
fn a_rematched_orphan_leaves_the_tail_with_its_capture_delay() {
    // Mentions of event 7 arrive first, claiming it happened at 02:00;
    // event 7 is captured at 05:00.
    let base = build(&[event(1, 0)], &[mention_at(1, 0, 1, 0), mention_at(7, 2, 20, 1)]);
    assert_eq!(base.mentions.orphan_id.as_slice(), &[7]);
    assert_eq!(base.mentions.orphan_interval.as_slice(), &[8]);
    assert_eq!(base.mentions.delay[1], 20);

    let (grown, _, _) = append_batch(&base, vec![], vec![mention_at(9, 1, 3, 2)]);
    assert_eq!(grown.mentions.orphan_id.as_slice(), &[9, 7], "tail sorted by scrape time");
    assert_eq!(grown.mentions.orphan_interval.as_slice(), &[4, 8]);

    let (joined, stats, report) = append_batch(&grown, vec![event(7, 5)], vec![]);
    assert_eq!(stats.rematched_mentions, 1);
    // Its own event time (interval 8) is not event 7's capture (20).
    assert_eq!((stats.inconsistent_event_time, report.inconsistent_event_time), (1, 1));
    assert_eq!(joined.mentions.orphan_id.as_slice(), &[9]);
    assert_eq!(joined.mentions.orphan_interval.as_slice(), &[4]);
    let row = joined.mentions_of(1).start;
    // Scraped at 8 + 20 = 28; event 7's capture is 20.
    assert_eq!((joined.mentions.mention_interval[row], joined.mentions.delay[row]), (28, 8));
    let full = build(
        &[event(1, 0), event(7, 5)],
        &[mention_at(1, 0, 1, 0), mention_at(7, 2, 20, 1), mention_at(9, 1, 3, 2)],
    );
    assert_eq!(bytes(&joined), bytes(&full));
}
