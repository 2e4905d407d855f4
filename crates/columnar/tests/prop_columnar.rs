//! Property tests for the storage layer: arbitrary record streams build
//! valid datasets, the binary format round-trips exactly, and the
//! partitioner/string-pool invariants hold for all inputs.

use gdelt_columnar::partition::{event_partitions, partitions};
use gdelt_columnar::strings::{StringDict, StringPool};
use gdelt_columnar::{binfmt, DatasetBuilder};
use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
use gdelt_model::event::{ActionGeo, EventRecord, GeoType};
use gdelt_model::ids::EventId;
use gdelt_model::mention::{MentionRecord, MentionType};
use gdelt_model::time::{DateTime, GDELT_EPOCH};
use proptest::prelude::*;

/// Compact generator: events with small ids so mentions often hit them.
fn arb_event(max_id: u64) -> impl Strategy<Value = EventRecord> {
    (1..=max_id, 0i64..60, 0u8..24, prop::bool::ANY).prop_map(|(id, day, hour, tagged)| {
        EventRecord {
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
            geo: if tagged {
                ActionGeo {
                    geo_type: GeoType::Country,
                    country_fips: "US".into(),
                    lat: None,
                    lon: None,
                }
            } else {
                ActionGeo::default()
            },
            date_added: DateTime::new(GDELT_EPOCH.add_days(day), hour, 0, 0).unwrap(),
            source_url: format!("https://src{id}.com/{id}"),
        }
    })
}

fn arb_mention(max_id: u64) -> impl Strategy<Value = MentionRecord> {
    (1..=max_id + 2, 0i64..60, 0u32..5_000, 0usize..12).prop_map(|(id, day, delay, src)| {
        let event_time = DateTime::midnight(GDELT_EPOCH.add_days(day));
        MentionRecord {
            event_id: EventId(id),
            event_time,
            mention_time: DateTime::from_unix_seconds(
                event_time.to_unix_seconds() + i64::from(delay) * 900,
            ),
            mention_type: MentionType::Web,
            source_name: format!("pub{src}.co.uk"),
            url: format!("https://pub{src}.co.uk/{id}"),
            confidence: 50,
            doc_tone: 0.0,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn built_datasets_always_validate(
        events in prop::collection::vec(arb_event(40), 0..60),
        mentions in prop::collection::vec(arb_mention(40), 0..120),
    ) {
        let mut b = DatasetBuilder::new();
        for e in events {
            b.add_event(e);
        }
        for m in mentions {
            b.add_mention(m);
        }
        let (d, _) = b.build();
        prop_assert_eq!(d.validate(), Ok(()));
        // CSR covers exactly the known-event mentions.
        let known = d.mentions.event_row.iter()
            .filter(|&&r| r != gdelt_columnar::table::NO_EVENT_ROW)
            .count() as u64;
        prop_assert_eq!(d.event_index.total_mentions(), known);
    }

    #[test]
    fn binfmt_round_trip_is_exact(
        events in prop::collection::vec(arb_event(30), 1..40),
        mentions in prop::collection::vec(arb_mention(30), 1..80),
    ) {
        let mut b = DatasetBuilder::new();
        for e in events {
            b.add_event(e);
        }
        for m in mentions {
            b.add_mention(m);
        }
        let (d, _) = b.build();
        let mut buf = Vec::new();
        binfmt::write_dataset(&mut buf, &d).unwrap();
        let d2 = binfmt::read_dataset(&buf).unwrap();
        // Bit-exact comparison via re-serialization (struct equality
        // would trip over a NaN tone cell).
        let mut buf2 = Vec::new();
        binfmt::write_dataset(&mut buf2, &d2).unwrap();
        prop_assert_eq!(buf, buf2);
        prop_assert_eq!(d.event_index, d2.event_index);
        prop_assert_eq!(d.sources.country, d2.sources.country);
    }

    #[test]
    fn single_corrupted_byte_never_yields_wrong_data(
        events in prop::collection::vec(arb_event(10), 1..10),
        flip_frac in 0.0f64..1.0,
    ) {
        let mut b = DatasetBuilder::new();
        for e in events {
            b.add_event(e);
        }
        let (d, _) = b.build();
        let mut buf = Vec::new();
        binfmt::write_dataset(&mut buf, &d).unwrap();
        let pos = ((buf.len() - 1) as f64 * flip_frac) as usize;
        buf[pos] ^= 0x01;
        // Either detected as an error, or (if the flip hit a section the
        // loader ignores, which cannot happen here since all are used)
        // the result still validates. Panics are the only failure.
        if let Ok(d2) = binfmt::read_dataset(&buf) { prop_assert!(d2.validate().is_ok()) }
    }

    #[test]
    fn partitions_tile_any_range(n in 0usize..10_000, parts in 1usize..64) {
        let ps = partitions(n, parts);
        prop_assert_eq!(ps.len(), parts);
        prop_assert_eq!(ps.iter().map(|p| p.len()).sum::<usize>(), n);
        let mut cursor = 0;
        for p in &ps {
            prop_assert_eq!(p.begin, cursor);
            cursor = p.end;
        }
        prop_assert_eq!(cursor, n);
        // Near-even: sizes differ by at most one.
        let min = ps.iter().map(|p| p.len()).min().unwrap();
        let max = ps.iter().map(|p| p.len()).max().unwrap();
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn boundary_partitions_respect_group_edges(
        sizes in prop::collection::vec(0u64..20, 0..200),
        parts in 1usize..16,
    ) {
        let mut offsets = vec![0u64];
        for s in &sizes {
            offsets.push(offsets.last().unwrap() + s);
        }
        // Event ranges that tile the events keep every group whole.
        let ps = event_partitions(&offsets, parts);
        prop_assert_eq!(ps.is_empty(), sizes.is_empty());
        let mut next = 0;
        for p in &ps {
            prop_assert_eq!(p.begin, next);
            prop_assert!(p.end > p.begin);
            next = p.end;
        }
        prop_assert_eq!(next, sizes.len());
    }

    #[test]
    fn string_pool_round_trips_any_strings(strings in prop::collection::vec(".{0,40}", 0..50)) {
        let mut pool = StringPool::new();
        let ids: Vec<u32> = strings.iter().map(|s| pool.push(s)).collect();
        for (id, s) in ids.iter().zip(&strings) {
            prop_assert_eq!(pool.get(*id), s.as_str());
        }
        prop_assert_eq!(pool.len(), strings.len());
        prop_assert_eq!(
            pool.payload_bytes(),
            strings.iter().map(|s| s.len()).sum::<usize>()
        );
        prop_assert_eq!(pool.iter().count(), strings.len());
    }

    #[test]
    fn dict_interning_is_idempotent(strings in prop::collection::vec("[a-z]{0,12}", 0..60)) {
        let mut dict = StringDict::new();
        let first: Vec<u32> = strings.iter().map(|s| dict.intern(s)).collect();
        let second: Vec<u32> = strings.iter().map(|s| dict.intern(s)).collect();
        prop_assert_eq!(&first, &second);
        // Distinct strings get distinct ids.
        let mut uniq: Vec<&String> = strings.iter().collect();
        uniq.sort();
        uniq.dedup();
        prop_assert_eq!(dict.len(), uniq.len());
        // Rebuild from pool preserves lookups.
        let rebuilt = StringDict::from_pool(dict.pool().clone());
        for s in &strings {
            prop_assert_eq!(rebuilt.lookup(s), dict.lookup(s));
        }
    }
}
