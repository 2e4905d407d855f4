//! Property tests: arbitrary valid records survive the TSV writer →
//! parser round trip bit-exactly, and the parsers never panic on
//! malformed input.

use gdelt_csv::events::{parse_event_line, EventRow};
use gdelt_csv::fields::{Line, LineScratch, Separator};
use gdelt_csv::mentions::{parse_mention_line, MentionRow};
use gdelt_csv::writer::{write_event_line, write_mention_line};
use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
use gdelt_model::event::{ActionGeo, EventRecord, GeoType};
use gdelt_model::ids::EventId;
use gdelt_model::mention::{MentionRecord, MentionType};
use gdelt_model::time::{DateTime, GDELT_EPOCH};
use proptest::prelude::*;

/// Field text that GDELT's unquoted TSV can carry (no tabs/newlines).
fn arb_field() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9:/._-]{0,40}"
}

fn arb_datetime() -> impl Strategy<Value = DateTime> {
    (0i64..1_700, 0u8..24, 0u8..60, 0u8..60)
        .prop_map(|(d, h, m, s)| DateTime::new(GDELT_EPOCH.add_days(d), h, m, s).unwrap())
}

prop_compose! {
    fn arb_event()(
        id in 1u64..u64::MAX / 2,
        day_off in 0i64..1_700,
        root in 1u8..=20,
        quad in 1u8..=4,
        goldstein in -10.0f32..=10.0,
        counts in (0u32..10_000, 0u32..1_000, 0u32..10_000),
        tone in -20.0f32..=20.0,
        tagged in any::<bool>(),
        lat in -90.0f32..=90.0,
        lon in -180.0f32..=180.0,
        date_added in arb_datetime(),
        url in arb_field(),
    ) -> EventRecord {
        EventRecord {
            id: EventId(id),
            day: GDELT_EPOCH.add_days(day_off),
            root: CameoRoot::new(root).unwrap(),
            event_code: format!("{root:02}0"),
            actor1_country: String::new(),
            actor2_country: String::new(),
            quad_class: QuadClass::from_u8(quad).unwrap(),
            goldstein: Goldstein::new(goldstein).unwrap(),
            num_mentions: counts.0,
            num_sources: counts.1,
            num_articles: counts.2,
            avg_tone: tone,
            geo: if tagged {
                ActionGeo {
                    geo_type: GeoType::Country,
                    country_fips: "US".into(),
                    lat: Some(lat),
                    lon: Some(lon),
                }
            } else {
                ActionGeo::default()
            },
            date_added,
            source_url: url,
        }
    }
}

prop_compose! {
    fn arb_mention()(
        id in 1u64..u64::MAX / 2,
        event_time in arb_datetime(),
        delay_secs in 0i64..40_000_000,
        mt in 1u8..=6,
        source in "[a-z0-9-]{1,20}\\.[a-z]{2,6}",
        url in arb_field(),
        confidence in 0u8..=100,
        tone in -20.0f32..=20.0,
    ) -> MentionRecord {
        MentionRecord {
            event_id: EventId(id),
            event_time,
            mention_time: DateTime::from_unix_seconds(
                event_time.to_unix_seconds() + delay_secs
            ),
            mention_type: MentionType::from_u8(mt).unwrap(),
            source_name: source,
            url,
            confidence,
            doc_tone: tone,
        }
    }
}

proptest! {
    #[test]
    fn event_round_trip(e in arb_event()) {
        let line = write_event_line(&e);
        let parsed = parse_event_line(&line).unwrap();
        prop_assert_eq!(parsed, e);
    }

    #[test]
    fn mention_round_trip(m in arb_mention()) {
        let line = write_mention_line(&m);
        let parsed = parse_mention_line(&line).unwrap();
        prop_assert_eq!(parsed, m);
    }

    #[test]
    fn borrowed_event_row_agrees_with_the_owned_record(e in arb_event(), crlf in any::<bool>()) {
        // Decoded straight from the line: nothing of the row is owned.
        let line = write_event_line(&e);
        let mut scratch = LineScratch::default();
        let row = EventRow::decode(&Line::split(line.as_bytes(), Separator::Tab, &mut scratch)).unwrap();
        prop_assert_eq!(row.id, e.id);
        prop_assert_eq!(row.day, e.day);
        prop_assert_eq!(row.root, e.root);
        prop_assert_eq!(row.event_code, e.event_code.as_bytes());
        prop_assert_eq!(row.actor1_country, e.actor1_country.as_str());
        prop_assert_eq!(row.actor2_country, e.actor2_country.as_str());
        prop_assert_eq!(row.quad_class, e.quad_class);
        prop_assert_eq!(row.goldstein, e.goldstein);
        prop_assert_eq!(
            (row.num_mentions, row.num_sources, row.num_articles),
            (e.num_mentions, e.num_sources, e.num_articles)
        );
        prop_assert_eq!(row.avg_tone.to_bits(), e.avg_tone.to_bits());
        prop_assert_eq!(row.geo_type, e.geo.geo_type);
        prop_assert_eq!(row.country_fips, e.geo.country_fips.as_str());
        prop_assert_eq!((row.lat, row.lon), (e.geo.lat, e.geo.lon));
        prop_assert_eq!(row.date_added, e.date_added);
        prop_assert_eq!(row.source_url, e.source_url.as_str());
        prop_assert_eq!(row.is_geo_tagged(), e.geo.is_tagged());
        prop_assert_eq!(row.day_in_future(), e.day_in_future());
        // The record is the row made owned, and views back as the row.
        prop_assert_eq!(row.to_record(), e.clone());
        prop_assert_eq!(EventRow::of(&e), row);
        // The whole-file parser reads the same record out of a file.
        let file = format!("\n{line}{}", if crlf { "\r\n" } else { "\n" });
        prop_assert_eq!(gdelt_csv::events::parse_events(&file, |_, _, _| {}), vec![e]);
    }

    #[test]
    fn borrowed_mention_row_agrees_with_the_owned_record(m in arb_mention(), crlf in any::<bool>()) {
        let line = write_mention_line(&m);
        let mut scratch = LineScratch::default();
        let row = MentionRow::decode(&Line::split(line.as_bytes(), Separator::Tab, &mut scratch)).unwrap();
        prop_assert_eq!(row.event_id, m.event_id);
        prop_assert_eq!((row.event_time, row.mention_time), (m.event_time, m.mention_time));
        prop_assert_eq!(row.mention_type, m.mention_type);
        prop_assert_eq!(row.source_name, m.source_name.as_str());
        prop_assert_eq!(row.url, m.url.as_bytes());
        prop_assert_eq!(row.confidence, m.confidence);
        prop_assert_eq!(row.doc_tone.to_bits(), m.doc_tone.to_bits());
        prop_assert_eq!(row.to_record(), m.clone());
        prop_assert_eq!(MentionRow::of(&m), row);
        let file = format!("{line}{}", if crlf { "\r\n" } else { "" });
        prop_assert_eq!(gdelt_csv::mentions::parse_mentions(&file, |_, _, _| {}), vec![m]);
    }

    #[test]
    fn event_parser_never_panics(line in "[^\t]{0,200}(\t[^\t]{0,30}){0,70}") {
        let _ = parse_event_line(&line);
    }

    #[test]
    fn mention_parser_never_panics(line in "[^\t]{0,200}(\t[^\t]{0,30}){0,20}") {
        let _ = parse_mention_line(&line);
    }

    #[test]
    fn masterlist_parser_never_panics(line in ".{0,200}") {
        let _ = gdelt_csv::masterlist::parse_masterlist_line(&line);
    }

    #[test]
    fn written_line_has_exact_column_count(e in arb_event(), m in arb_mention()) {
        prop_assert_eq!(write_event_line(&e).split('\t').count(), 61);
        prop_assert_eq!(write_mention_line(&m).split('\t').count(), 16);
    }
}
