//! Corruption property tests for the deep validator.
//!
//! The contract under test: [`Dataset::deep_validate`] accepts every
//! dataset the builder produces, and rejects *any* single structural
//! corruption — truncated columns, flipped CSR offsets, broken joins,
//! ragged orphan tails, stale derived columns, dangling dictionary
//! references, out-of-range index bounds. Each case builds a pristine dataset from arbitrary
//! records, applies one randomly chosen corruption, and requires at
//! least one violation (cases where the chosen corruption is not
//! applicable to the generated data are skipped).
//!
//! A separate property drives the partitioner directly: swapping two
//! distinct partition boundaries must always break partition
//! soundness, which `deep_validate`'s `partitions.boundaries` check
//! relies on.
//!
//! The load gate, [`Dataset::validate`], decides in one fused pass and
//! names a failure by running the deep validator: it must accept the
//! same builder output, and refuse every corruption above that it
//! checks (all but the stale derived quarter, a deep-audit-only check)
//! with an error naming the right check.
//!
//! On a projected dataset the gate skips the checks that read an absent
//! column, and only those.
//!
//! The final group corrupts the *serialized* store: truncated files,
//! flipped checksum bytes and repeated sections must be refused by the
//! loader, semantic corruption smuggled past the checksums (payload
//! mutated, checksum recomputed) must be caught by the deep validator
//! (or, for a string offset inside a character, refused by every
//! loader), and an untouched store must read back equal to what was
//! written.

use gdelt_columnar::binfmt::{self, checksum64};
use gdelt_columnar::degraded::read_dataset_degraded;
use gdelt_columnar::partition::{event_partitions, Partition};
use gdelt_columnar::table::NO_EVENT_ROW;
use gdelt_columnar::{Column, ColumnSet, Dataset, DatasetBuilder};
use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
use gdelt_model::event::{ActionGeo, EventRecord};
use gdelt_model::ids::EventId;
use gdelt_model::mention::{MentionRecord, MentionType};
use gdelt_model::time::{DateTime, GDELT_EPOCH};
use proptest::prelude::*;

fn arb_event(max_id: u64) -> impl Strategy<Value = EventRecord> {
    (1..=max_id, 0i64..40, 0u8..24).prop_map(|(id, day, hour)| EventRecord {
        id: EventId(id),
        day: GDELT_EPOCH.add_days(day),
        root: CameoRoot::new((id % 20 + 1) as u8).unwrap(),
        event_code: "010".into(),
        actor1_country: String::new(),
        actor2_country: String::new(),
        quad_class: QuadClass::from_u8((id % 4 + 1) as u8).unwrap(),
        goldstein: Goldstein::new(0.0).unwrap(),
        num_mentions: 1,
        num_sources: 1,
        num_articles: 1,
        avg_tone: 0.0,
        geo: ActionGeo::default(),
        date_added: DateTime::new(GDELT_EPOCH.add_days(day), hour, 0, 0).unwrap(),
        // Multi-byte chars in the pool so offset corruptions can land
        // mid-character.
        source_url: format!("https://müller{id}.de/{id}"),
    })
}

fn arb_mention(max_id: u64) -> impl Strategy<Value = MentionRecord> {
    (1..=max_id + 2, 0i64..40, 0u32..2_000, 0usize..8).prop_map(|(id, day, delay, src)| {
        let event_time = DateTime::midnight(GDELT_EPOCH.add_days(day));
        MentionRecord {
            event_id: EventId(id),
            event_time,
            mention_time: DateTime::from_unix_seconds(
                event_time.to_unix_seconds() + i64::from(delay) * 900,
            ),
            mention_type: MentionType::Web,
            source_name: format!("außenpolitik{src}.example"),
            url: format!("https://außenpolitik{src}.example/{id}"),
            confidence: 50,
            doc_tone: 0.0,
        }
    })
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

/// Apply corruption `op` to `d`. Returns the names of the checks
/// allowed to report it, or `None` when the op does not apply to this
/// particular dataset (e.g. no mentions to corrupt).
fn corrupt(d: &mut Dataset, op: usize, pick: usize) -> Option<&'static [&'static str]> {
    let n_events = d.events.len();
    let n_mentions = d.mentions.len();
    match op {
        // Truncate a mentions column.
        0 => {
            if n_mentions == 0 {
                return None;
            }
            d.mentions.delay.resize(n_mentions - 1, 0);
            Some(&["mentions.columns"])
        }
        // Truncate an events column.
        1 => {
            if n_events == 0 {
                return None;
            }
            d.events.quarter.resize(n_events - 1, 0);
            Some(&["events.columns"])
        }
        // Flip two adjacent, distinct CSR offsets.
        2 => {
            let offs = &mut d.event_index.offsets;
            let pos = offs.windows(2).position(|w| w[0] < w[1])?;
            offs.swap(pos, pos + 1);
            Some(&["index.monotone", "partitions.boundaries"])
        }
        // Push the final CSR offset past the mentions table.
        3 => {
            let last = d.event_index.offsets.last_mut()?;
            *last += 5;
            // Which check fires depends on how many unmatched mentions
            // sit past the covered region: none → bounds; >= 5 → the
            // stretched final range swallows NO_EVENT_ROW rows.
            Some(&["index.bounds", "index.coverage", "index.monotone", "index.ranges"])
        }
        // Swap two adjacent distinct event ids (breaks sort order).
        4 => {
            let pos = d.events.id.windows(2).position(|w| w[0] != w[1])?;
            d.events.id.as_mut_slice().swap(pos, pos + 1);
            Some(&["events.sorted", "mentions.join", "mentions.grouping", "index.ranges"])
        }
        // Point a mention at a different event row than it joins.
        5 => {
            if n_mentions == 0 || n_events < 2 {
                return None;
            }
            let i = pick % n_mentions;
            let old = d.mentions.event_row[i];
            let new = if old == NO_EVENT_ROW || old as usize == 0 { 1 } else { old - 1 };
            d.mentions.event_row[i] = new;
            Some(&["mentions.orphans", "mentions.grouping", "index.ranges", "index.coverage"])
        }
        // Stale derived delay column.
        6 => {
            if n_mentions == 0 {
                return None;
            }
            let i = pick % n_mentions;
            d.mentions.delay[i] = d.mentions.delay[i].wrapping_add(1);
            Some(&["mentions.delay"])
        }
        // Stale derived quarter column.
        7 => {
            if n_mentions == 0 {
                return None;
            }
            let i = pick % n_mentions;
            d.mentions.quarter[i] = d.mentions.quarter[i].wrapping_add(1);
            Some(&["mentions.quarter"])
        }
        // An orphan side column longer than the orphan tail.
        8 => {
            if pick.is_multiple_of(2) {
                d.mentions.orphan_id.push(u64::MAX);
            } else {
                d.mentions.orphan_interval.push(0);
            }
            Some(&["mentions.orphans"])
        }
        // Dangling mention source reference.
        _ => {
            if n_mentions == 0 {
                return None;
            }
            let i = pick % n_mentions;
            d.mentions.source[i] = u32::MAX - 1;
            Some(&["mentions.source_ref"])
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The builder never produces a dataset the deep validator rejects.
    #[test]
    fn pristine_datasets_are_accepted(
        events in prop::collection::vec(arb_event(30), 0..40),
        mentions in prop::collection::vec(arb_mention(30), 0..80),
    ) {
        let d = build(events, mentions);
        let report = d.deep_validate();
        prop_assert!(report.is_ok(), "pristine dataset rejected:\n{report}");
        prop_assert!(report.checks_run >= 20, "expected a real audit, ran {}", report.checks_run);
    }

    /// Any single corruption is rejected, and by the right check.
    #[test]
    fn corrupted_datasets_are_rejected(
        events in prop::collection::vec(arb_event(30), 1..40),
        mentions in prop::collection::vec(arb_mention(30), 1..80),
        op in 0usize..10,
        pick in 0usize..1024,
    ) {
        let mut d = build(events, mentions);
        let Some(expected) = corrupt(&mut d, op, pick) else {
            // This op does not apply to this dataset shape.
            return Ok(());
        };
        let report = d.deep_validate();
        prop_assert!(!report.is_ok(), "corruption op {op} went undetected");
        prop_assert!(
            report.violations.iter().any(|v| expected.contains(&v.check)),
            "op {op} detected only by unexpected checks: {report}"
        );
    }

    /// The fused load gate accepts every builder output too.
    #[test]
    fn pristine_datasets_pass_the_load_gate(
        events in prop::collection::vec(arb_event(30), 0..40),
        mentions in prop::collection::vec(arb_mention(30), 0..80),
    ) {
        prop_assert_eq!(build(events, mentions).validate(), Ok(()));
    }

    /// The fused load gate refuses every corruption it checks, with an
    /// error that names the check (the deep validator's report).
    #[test]
    fn load_gate_refuses_and_names_corruption(
        events in prop::collection::vec(arb_event(30), 1..40),
        mentions in prop::collection::vec(arb_mention(30), 1..80),
        op in 0usize..10,
        pick in 0usize..1024,
    ) {
        // Op 7 (a stale derived quarter) is a deep-audit-only check.
        prop_assume!(op != 7);
        let mut d = build(events, mentions);
        let Some(expected) = corrupt(&mut d, op, pick) else {
            return Ok(());
        };
        let verdict = d.validate();
        prop_assert!(verdict.is_err(), "corruption op {op} passed the load gate");
        let err = verdict.unwrap_err();
        prop_assert!(
            expected.iter().any(|check| err.contains(check)),
            "op {op} refused without naming {expected:?}: {err}"
        );
    }

    /// Swapping two distinct partition boundaries always breaks
    /// partition soundness.
    #[test]
    fn swapped_partition_bounds_are_unsound(
        mut bounds in prop::collection::vec(0u64..10_000, 3..40),
        parts in 1usize..9,
        pick in 0usize..1024,
    ) {
        bounds.sort_unstable();
        bounds.dedup();
        prop_assume!(bounds.len() >= 3);
        // Normalize to a plausible CSR: starts at 0.
        bounds[0] = 0;
        prop_assert!(partitions_sound(&event_partitions(&bounds, parts), &bounds));

        // Swap two adjacent interior boundaries (all distinct after
        // dedup): event `i`'s rows then run backwards, in whichever
        // partition holds it.
        let i = 1 + pick % (bounds.len() - 2);
        bounds.swap(i, i + 1);
        prop_assert!(
            !partitions_sound(&event_partitions(&bounds, parts), &bounds),
            "swapped bounds at {i} still produced sound partitions"
        );
    }
}

/// Events 1..=4 (rows 0..4), each reported three times (mention rows
/// `3e..3e + 3`, in scrape order) by two sources.
fn three_per_event() -> Dataset {
    let event_time = DateTime::midnight(GDELT_EPOCH);
    let mut b = DatasetBuilder::new();
    for id in 1..=4u64 {
        b.add_event(EventRecord {
            id: EventId(id),
            day: GDELT_EPOCH,
            root: CameoRoot::new(1).unwrap(),
            event_code: "010".into(),
            actor1_country: String::new(),
            actor2_country: String::new(),
            quad_class: QuadClass::VerbalCooperation,
            goldstein: Goldstein::new(0.0).unwrap(),
            num_mentions: 3,
            num_sources: 2,
            num_articles: 3,
            avg_tone: 0.0,
            geo: ActionGeo::default(),
            date_added: event_time,
            source_url: format!("https://e{id}.example/"),
        });
        for delay in 1..=3 {
            b.add_mention(MentionRecord {
                event_id: EventId(id),
                event_time,
                mention_time: DateTime::from_unix_seconds(
                    event_time.to_unix_seconds() + delay * 900,
                ),
                mention_type: MentionType::Web,
                source_name: format!("s{}.example", delay % 2),
                url: String::new(),
                confidence: 50,
                doc_tone: 0.0,
            });
        }
    }
    b.build().0
}

/// Without `events.capture` the gate cannot check a joined row's
/// delay, and it still checks everything else — the source range,
/// which the fused pass once zipped beside it, included. A decreasing
/// `event_row` that keeps every CSR range's ends intact (the middle
/// rows of events 0 and 2 swapped) is refused as well, also without
/// `mentions.mention_interval`, which the grouping check once zipped
/// beside it.
#[test]
fn load_gate_skips_only_the_checks_of_absent_columns() {
    let d = three_per_event();
    let without =
        |dropped: &[Column]| d.clone().project(&ColumnSet::ALL.difference(ColumnSet::of(dropped)));
    let no_event_at = without(&[Column::EventsCapture]);
    assert_eq!(no_event_at.validate(), Ok(()));
    let mut stale = no_event_at.clone();
    stale.mentions.delay.as_mut_slice()[4] += 1;
    assert_eq!(stale.validate(), Ok(()), "no capture, no delay check");
    let mut dangling = no_event_at.clone();
    dangling.mentions.source.as_mut_slice()[4] = 99;
    let err = dangling.validate().expect_err("a source outside the directory is refused");
    assert!(err.contains("mentions.source_ref"), "{err}");

    let no_intervals = without(&[Column::EventsCapture, Column::MentionsMentionInterval]);
    for d in [no_event_at, no_intervals] {
        let mut swapped = d.clone();
        swapped.mentions.event_row.as_mut_slice().swap(1, 7);
        assert_eq!(swapped.mentions.event_row.as_slice()[..9], [0, 2, 0, 1, 1, 1, 2, 0, 2]);
        let err = swapped.validate().expect_err("a decreasing event_row is refused");
        assert!(err.contains("mentions.grouping"), "{err}");
    }
}

/// Append an orphan mention of event `id`, which the dataset lacks,
/// scraped at its own event time.
fn push_orphan(d: &mut Dataset, id: u64) {
    let m = &mut d.mentions;
    m.event_row.push(NO_EVENT_ROW);
    m.orphan_id.push(id);
    m.orphan_interval.push(0);
    m.mention_interval.push(0);
    m.delay.push(0);
    m.source.push(0);
    m.quarter.push(m.quarter[0]);
    m.mention_type.push(1);
    m.confidence.push(50);
    m.doc_tone.push(0.0);
}

/// The gate refuses an orphan side column that is not as long as the
/// orphan tail, and a joined row whose delay does not count from its
/// event's capture — here one counted from a later event time.
#[test]
fn load_gate_refuses_a_ragged_orphan_tail_and_a_delay_not_from_the_capture() {
    let mut d = three_per_event();
    push_orphan(&mut d, 99);
    assert_eq!(d.validate(), Ok(()));
    let ragged: [fn(&mut Dataset); 4] = [
        |d| d.mentions.orphan_id.push(98),
        |d| d.mentions.orphan_id.resize(0, 0),
        |d| d.mentions.orphan_interval.push(0),
        |d| d.mentions.orphan_interval.resize(0, 0),
    ];
    for damage in ragged {
        let mut bad = d.clone();
        damage(&mut bad);
        let err = bad.validate().expect_err("a ragged orphan tail is refused");
        assert!(err.contains("mentions.orphans"), "{err}");
    }

    let mut late = three_per_event();
    let (capture, at) = (late.events.capture[0], late.mentions.mention_interval[0]);
    assert_eq!(late.mentions.delay[0], at - capture);
    late.mentions.delay.as_mut_slice()[0] = 0;
    let err = late.validate().expect_err("a delay not from the capture is refused");
    assert!(err.contains("mentions.delay"), "{err}");
}

/// One section of a serialized store, for byte-level surgery.
struct RawSection {
    name: String,
    payload: Vec<u8>,
}

/// Split a serialized store into its header and section list.
fn split_store(bytes: &[u8]) -> (Vec<u8>, Vec<RawSection>) {
    let header = bytes[..12].to_vec(); // 8-byte magic + u32 section count
    let mut sections = Vec::new();
    let mut at = 12;
    while at < bytes.len() {
        let name_len = u16::from_le_bytes(bytes[at..at + 2].try_into().unwrap()) as usize;
        at += 2;
        let name = String::from_utf8(bytes[at..at + name_len].to_vec()).unwrap();
        at += name_len;
        let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        at += 16; // length + stored checksum
        let payload = bytes[at..at + len].to_vec();
        at += len;
        sections.push(RawSection { name, payload });
    }
    (header, sections)
}

/// Reassemble a store, recomputing every section checksum.
fn join_store(header: &[u8], sections: &[RawSection]) -> Vec<u8> {
    let mut out = header.to_vec();
    for s in sections {
        out.extend_from_slice(&(s.name.len() as u16).to_le_bytes());
        out.extend_from_slice(s.name.as_bytes());
        out.extend_from_slice(&(s.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum64(&s.payload).to_le_bytes());
        out.extend_from_slice(&s.payload);
    }
    out
}

fn serialize(d: &Dataset) -> Vec<u8> {
    let mut bytes = Vec::new();
    binfmt::write_dataset(&mut bytes, d).expect("writing to Vec cannot fail");
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A truncated store file is refused by the loader at any cut.
    #[test]
    fn truncated_store_is_refused(
        events in prop::collection::vec(arb_event(20), 1..20),
        mentions in prop::collection::vec(arb_mention(20), 1..40),
        cut in 0usize..4096,
    ) {
        let bytes = serialize(&build(events, mentions));
        let cut = cut % bytes.len().max(1);
        prop_assume!(cut < bytes.len());
        let result = binfmt::read_dataset(&bytes[..cut]);
        prop_assert!(result.is_err(), "store truncated to {cut}/{} bytes still loaded", bytes.len());
    }

    /// A flipped payload byte is refused by the checksum pass.
    #[test]
    fn checksum_catches_flipped_byte(
        events in prop::collection::vec(arb_event(20), 1..20),
        mentions in prop::collection::vec(arb_mention(20), 1..40),
        pick in 0usize..4096,
    ) {
        let d = build(events, mentions);
        let mut corrupted = serialize(&d);
        let (_, sections) = split_store(&corrupted);
        // Flip one payload byte in one non-empty section, keeping the
        // stored checksum — the loader must notice.
        let dirty: Vec<usize> =
            (0..sections.len()).filter(|&i| !sections[i].payload.is_empty()).collect();
        prop_assume!(!dirty.is_empty());
        let s = dirty[pick % dirty.len()];
        // Byte offset of section s's payload within the file.
        let payload_at = corrupted.len() - total_tail_len(&sections[s..])
            + 2
            + sections[s].name.len()
            + 16;
        let i = payload_at + pick % sections[s].payload.len();
        corrupted[i] ^= 0x40;
        let result = binfmt::read_dataset_unchecked(&corrupted);
        prop_assert!(result.is_err(), "flipped byte in section {s} passed the checksum");
    }

    /// Semantic corruption that *recomputes* checksums gets past the
    /// loader — and is then caught by the deep validator.
    #[test]
    fn recomputed_checksum_corruption_is_caught_by_deep_validate(
        events in prop::collection::vec(arb_event(20), 2..20),
        mentions in prop::collection::vec(arb_mention(20), 2..40),
        which in 0usize..4,
    ) {
        let d = build(events, mentions);
        let bytes = serialize(&d);
        let (header, mut sections) = split_store(&bytes);
        let find = |sections: &[RawSection], name: &str| {
            sections.iter().position(|s| s.name == name).expect("section present")
        };
        match which {
            // Flip two adjacent distinct CSR offsets inside the
            // serialized index section.
            0 => {
                let s = find(&sections, "index.offsets");
                let words: Vec<u64> = sections[s]
                    .payload
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                let Some(pos) = words.windows(2).position(|w| w[0] < w[1]) else {
                    return Ok(());
                };
                let mut words = words;
                words.swap(pos, pos + 1);
                sections[s].payload =
                    words.iter().flat_map(|w| w.to_le_bytes()).collect();
            }
            // Truncate the delay column by one element.
            1 => {
                let s = find(&sections, "mentions.delay");
                let len = sections[s].payload.len();
                sections[s].payload.truncate(len - 4);
            }
            // Truncate the join column by one element: it sets the
            // mentions table's length, so every other mentions column
            // is now one row longer than the table.
            2 => {
                let s = find(&sections, "mentions.event_row");
                let len = sections[s].payload.len();
                sections[s].payload.truncate(len - 4);
            }
            // Stale quarter value on the first event.
            _ => {
                let s = find(&sections, "events.quarter");
                sections[s].payload[0] = sections[s].payload[0].wrapping_add(1);
            }
        }
        let corrupted = join_store(&header, &sections);
        // Checksums are valid again, so the unchecked loader accepts…
        let Ok(loaded) = binfmt::read_dataset_unchecked(&corrupted) else {
            // …unless per-section structure already refused it (e.g. a
            // truncation that breaks offsets/pool totals) — also a pass.
            return Ok(());
        };
        let report = loaded.deep_validate();
        prop_assert!(!report.is_ok(), "semantic corruption {which} survived the deep audit");
        // The checked loader refuses every one but the stale quarter (a
        // deep-audit-only check) with a typed error, not a panic.
        if which < 3 {
            let err = binfmt::read_dataset(&corrupted).expect_err("the load gate refuses it");
            prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
    }

    /// Any data section cut short by 8 bytes, checksum recomputed, is
    /// refused by the checked loader with a typed error and reported by
    /// the deep audit: a column shorter than its table never panics a
    /// reader. (`partitions.meta` is read only by the degraded loader.)
    #[test]
    fn a_short_section_with_a_recomputed_checksum_is_refused(
        events in prop::collection::vec(arb_event(20), 2..20),
        mentions in prop::collection::vec(arb_mention(20), 2..40),
        pick in 0usize..64,
    ) {
        let bytes = serialize(&build(events, mentions));
        let (header, mut sections) = split_store(&bytes);
        let long: Vec<usize> =
            (0..sections.len())
                .filter(|&i| sections[i].payload.len() >= 8 && sections[i].name != binfmt::META_SECTION)
                .collect();
        let s = long[pick % long.len()];
        let len = sections[s].payload.len();
        sections[s].payload.truncate(len - 8);
        let corrupted = join_store(&header, &sections);
        let name = &sections[s].name;
        let result = binfmt::read_dataset(&corrupted);
        prop_assert!(result.is_err(), "{name} cut short by 8 bytes loaded");
        let err = result.unwrap_err();
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{}", err);
        if let Ok(loaded) = binfmt::read_dataset_unchecked(&corrupted) {
            prop_assert!(!loaded.deep_validate().is_ok(), "{name} cut short passed the audit");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A URL offset moved into the `ü` of its URL, checksum recomputed:
    /// the whole pool is still UTF-8, but the string before it ends
    /// mid-character. The checked, the unchecked (what `gdelt-cli
    /// validate` opens) and the degraded loader all refuse the store
    /// with a typed error naming the damage; none of them panics.
    #[test]
    fn a_pool_offset_inside_a_character_is_refused_by_every_loader(
        events in prop::collection::vec(arb_event(20), 2..20),
        mentions in prop::collection::vec(arb_mention(20), 1..40),
        pick in 0usize..64,
    ) {
        let bytes = serialize(&build(events, mentions));
        let (header, mut sections) = split_store(&bytes);
        let s = sections.iter().position(|s| s.name == "events.urls.offsets").expect("url offsets");
        let mut offsets: Vec<u64> = sections[s]
            .payload
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let interior = offsets.len() - 2;
        prop_assume!(interior > 0);
        // "https://m" is 9 bytes: byte 10 of every URL is the ü's second.
        offsets[1 + pick % interior] += 10;
        sections[s].payload = offsets.iter().flat_map(|o| o.to_le_bytes()).collect();
        let corrupted = join_store(&header, &sections);
        let refused = [
            binfmt::read_dataset(&corrupted).err(),
            binfmt::read_dataset_unchecked(&corrupted).err(),
            read_dataset_degraded(&corrupted).err(),
        ];
        for err in refused {
            let err = err.expect("a split character is refused");
            prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            prop_assert!(err.to_string().contains("splits a UTF-8 character"), "{}", err);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An untouched store reads back equal to what was written — empty
    /// tables and zero-length sections included. Events compare through
    /// their serialization: a `NaN` tone never `==` itself.
    #[test]
    fn store_round_trips(
        events in prop::collection::vec(arb_event(30), 0..40),
        mentions in prop::collection::vec(arb_mention(30), 0..80),
    ) {
        let d = build(events, mentions);
        let bytes = serialize(&d);
        let back = binfmt::read_dataset(&bytes).expect("a written store loads");
        prop_assert!(serialize(&back) == bytes, "reloaded dataset serializes differently");
        prop_assert_eq!(&back.mentions, &d.mentions);
        prop_assert_eq!(&back.event_index, &d.event_index);
        prop_assert_eq!(&back.sources.country, &d.sources.country);
        prop_assert_eq!(back.sources.names.pool(), d.sources.names.pool());
    }

    /// A store that repeats a section name — here a zeroed copy with a
    /// valid checksum appended, as a second `mentions.source` once made
    /// every answer attribute all mentions to source 0 — is refused by
    /// both strict loaders and by the degraded one.
    #[test]
    fn repeated_section_is_refused(
        events in prop::collection::vec(arb_event(20), 0..20),
        mentions in prop::collection::vec(arb_mention(20), 0..40),
        pick in 0usize..64,
    ) {
        let bytes = serialize(&build(events, mentions));
        let (mut header, mut sections) = split_store(&bytes);
        let copy = &sections[pick % sections.len()];
        let name = copy.name.clone();
        let payload = vec![0u8; copy.payload.len()];
        sections.push(RawSection { name: name.clone(), payload });
        header[8..12].copy_from_slice(&(sections.len() as u32).to_le_bytes());
        let repeated = join_store(&header, &sections);
        for err in [
            binfmt::read_dataset(&repeated).unwrap_err(),
            binfmt::read_dataset_unchecked(&repeated).unwrap_err(),
        ] {
            prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            prop_assert!(err.to_string().contains(&format!("duplicate section {name}")), "{err}");
        }
        let degraded = read_dataset_degraded(&repeated);
        prop_assert!(degraded.is_err(), "{name} repeated, degraded load passed");
    }
}

/// Serialized length of the given tail of sections (headers + payloads).
fn total_tail_len(tail: &[RawSection]) -> usize {
    tail.iter().map(|s| 2 + s.name.len() + 16 + s.payload.len()).sum()
}

/// Partition soundness over the CSR `offsets`: the event ranges tile
/// the events, and every event of a range covers its rows forwards.
fn partitions_sound(ps: &[Partition], offsets: &[u64]) -> bool {
    let n_events = offsets.len().saturating_sub(1);
    let mut next = 0;
    for p in ps {
        if p.begin != next || p.end <= p.begin {
            return false;
        }
        next = p.end;
    }
    next == n_events && ps.iter().all(|p| offsets[p.begin..=p.end].windows(2).all(|w| w[0] <= w[1]))
}
