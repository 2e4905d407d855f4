//! Incremental batch ingestion — GDELT's 15-minute update cycle.
//!
//! The system is read-only *between* updates (paper §IV), but the
//! archive itself grows by two files every quarter hour. Rebuilding a
//! multi-year dataset to absorb one 15-minute batch would defeat the
//! purpose, so this module appends a parsed batch to an existing
//! [`Dataset`] with merge passes instead of re-sorts:
//!
//! * events: one merge of two id-sorted runs (existing columns + the
//!   sorted batch), deduplicating against existing ids;
//! * sources: the dictionary only grows — existing ids are stable;
//! * mentions: existing rows keep their relative order (the event merge
//!   is monotone in row numbers), so the combined table is again a
//!   two-run merge; mentions that previously referenced unknown events
//!   are re-matched against the batch;
//! * the CSR index is rebuilt by counting (linear).
//!
//! The result is *identical* to a from-scratch build over the union of
//! records — asserted by tests and by `Dataset::validate`.

use crate::builder::DatasetBuilder;
use crate::index::EventIndex;
use crate::table::{Dataset, EventsTable, MentionsTable, NO_EVENT_ROW};
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
}

/// Append one parsed batch to `base`, returning the updated dataset,
/// batch accounting, and the cleaning report for the batch records.
pub fn append_batch(
    base: &Dataset,
    events: Vec<EventRecord>,
    mentions: Vec<MentionRecord>,
) -> (Dataset, BatchStats, CleanReport) {
    // Convert the batch through the normal preprocessing path, with the
    // existing dictionary pre-seeded so source ids stay stable.
    let mut builder = DatasetBuilder::new();
    for e in events {
        builder.add_event(e);
    }
    for m in mentions {
        builder.add_mention(m);
    }
    let (batch, clean) = builder.build();

    let mut stats = BatchStats::default();
    // Sources: keep base ids, append unseen batch sources below.
    let mut out = Dataset { sources: base.sources.clone(), ..Default::default() };
    // batch-local id → merged id
    let mut source_map = vec![0u32; batch.sources.len()];
    for (i, map) in source_map.iter_mut().enumerate() {
        let name = batch.sources.names.get(i as u32);
        *map = match out.sources.names.lookup(name) {
            Some(id) => id,
            None => {
                stats.new_sources += 1;
                let id = out.sources.names.intern(name);
                out.sources.country.push(batch.sources.country[i]);
                id
            }
        };
    }

    // --- Events: merge two id-sorted runs, skipping duplicates. ---
    // old row → merged row, and batch row → merged row (or NO_EVENT_ROW
    // for dropped duplicates).
    let mut base_row_map = vec![0u32; base.events.len()];
    let mut batch_row_map = vec![NO_EVENT_ROW; batch.events.len()];
    {
        let (a, b) = (&base.events, &batch.events);
        out.events.urls.reserve(a.len() + b.len(), a.urls.payload_bytes() + b.urls.payload_bytes());
        let (mut i, mut j) = (0usize, 0usize);
        let mut next = 0u32;
        while i < a.len() || j < b.len() {
            let take_base = match (a.id.get(i), b.id.get(j)) {
                (Some(&x), Some(&y)) => {
                    if x == y {
                        // Duplicate capture: existing wins.
                        stats.duplicate_events += 1;
                        batch_row_map[j] = NO_EVENT_ROW;
                        j += 1;
                        continue;
                    }
                    x < y
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_base {
                copy_event_row(&mut out.events, a, i);
                base_row_map[i] = next;
                i += 1;
            } else {
                copy_event_row(&mut out.events, b, j);
                batch_row_map[j] = next;
                stats.new_events += 1;
                j += 1;
            }
            next += 1;
        }
    }

    // --- Mentions: re-key both runs, then merge. ---
    // Base mentions keep relative order under the monotone row map, but
    // formerly-unknown mentions may now match a batch event; those move
    // into the batch run (they need re-positioning).
    let remap_base = |row: usize| -> u32 {
        let er = base.mentions.event_row[row];
        if er != NO_EVENT_ROW {
            return base_row_map[er as usize];
        }
        // Try to match against the merged event table.
        match out.events.id.binary_search(&base.mentions.event_id[row]) {
            Ok(r) => r as u32,
            Err(_) => NO_EVENT_ROW,
        }
    };

    // (merged_event_row, interval, origin, origin_row)
    let mut batch_run: Vec<(u32, u32, bool, u32)> = Vec::new();
    let mut base_run: Vec<(u32, u32, bool, u32)> = Vec::with_capacity(base.mentions.len());
    for row in 0..base.mentions.len() {
        let er = base.mentions.event_row[row];
        let new_er = remap_base(row);
        let rec = (new_er, base.mentions.mention_interval[row], false, row_u32(row));
        if er == NO_EVENT_ROW && new_er != NO_EVENT_ROW {
            stats.rematched_mentions += 1;
            batch_run.push(rec); // re-sorted below
        } else {
            base_run.push(rec);
        }
    }
    for row in 0..batch.mentions.len() {
        let er = batch.mentions.event_row[row];
        let new_er = if er != NO_EVENT_ROW {
            batch_row_map[er as usize]
        } else {
            match out.events.id.binary_search(&batch.mentions.event_id[row]) {
                Ok(r) => r as u32,
                Err(_) => NO_EVENT_ROW,
            }
        };
        // Batch mentions of events deduplicated away re-match to the
        // surviving copy via the binary search above when needed.
        let new_er = if new_er == NO_EVENT_ROW {
            match out.events.id.binary_search(&batch.mentions.event_id[row]) {
                Ok(r) => r as u32,
                Err(_) => NO_EVENT_ROW,
            }
        } else {
            new_er
        };
        stats.new_mentions += 1;
        batch_run.push((new_er, batch.mentions.mention_interval[row], true, row_u32(row)));
    }
    batch_run.sort_unstable();

    // Merge the two (event_row, interval)-sorted runs.
    let total = base_run.len() + batch_run.len();
    let mut bi = 0usize;
    let mut bj = 0usize;
    let push = |src_is_batch: bool, origin_row: u32, er: u32, out: &mut MentionsTable| {
        let (src, row) = if src_is_batch {
            (&batch.mentions, origin_row as usize)
        } else {
            (&base.mentions, origin_row as usize)
        };
        out.event_id.push(src.event_id[row]);
        out.event_row.push(er);
        out.event_interval.push(src.event_interval[row]);
        out.mention_interval.push(src.mention_interval[row]);
        out.delay.push(src.delay[row]);
        let source =
            if src_is_batch { source_map[src.source[row] as usize] } else { src.source[row] };
        out.source.push(source);
        out.quarter.push(src.quarter[row]);
        out.mention_type.push(src.mention_type[row]);
        out.confidence.push(src.confidence[row]);
        out.doc_tone.push(src.doc_tone[row]);
    };
    while bi + bj < total {
        let take_base = match (base_run.get(bi), batch_run.get(bj)) {
            (Some(a), Some(b)) => (a.0, a.1) <= (b.0, b.1),
            (Some(_), None) => true,
            _ => false,
        };
        if take_base {
            let (er, _, is_batch, row) = base_run[bi];
            push(is_batch, row, er, &mut out.mentions);
            bi += 1;
        } else {
            let (er, _, is_batch, row) = batch_run[bj];
            push(is_batch, row, er, &mut out.mentions);
            bj += 1;
        }
    }

    out.event_index = EventIndex::build(out.events.len(), &out.mentions);
    debug_assert_eq!(out.validate(), Ok(()));
    #[cfg(debug_assertions)]
    {
        let report = out.deep_validate();
        debug_assert!(report.is_ok(), "append_batch produced invalid dataset:\n{report}");
    }
    (out, stats, clean)
}

fn copy_event_row(dst: &mut EventsTable, src: &EventsTable, row: usize) {
    dst.id.push(src.id[row]);
    dst.day.push(src.day[row]);
    dst.capture.push(src.capture[row]);
    dst.quarter.push(src.quarter[row]);
    dst.root.push(src.root[row]);
    dst.quad.push(src.quad[row]);
    dst.actor1.push(src.actor1[row]);
    dst.actor2.push(src.actor2[row]);
    dst.goldstein.push(src.goldstein[row]);
    dst.num_mentions.push(src.num_mentions[row]);
    dst.num_sources.push(src.num_sources[row]);
    dst.num_articles.push(src.num_articles[row]);
    dst.avg_tone.push(src.avg_tone[row]);
    dst.country.push(src.country[row]);
    dst.lat.push(src.lat[row]);
    dst.lon.push(src.lon[row]);
    let url_id = dst.urls.push(src.urls.get(src.source_url[row]));
    dst.source_url.push(url_id);
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
