//! The text path against the record path, on hostile text.
//!
//! A generated corpus is rendered to TSV and then damaged the ways real
//! exports are (and a few they are not): events out of order, duplicate
//! ids, mentions of events that never arrive, timestamps before the
//! GDELT epoch, integers with a `+` or twenty digits, date fields a digit
//! or more too long, `NaN` and exponent floats, untagged geography, lines
//! a column short or long, blank lines, CRLF terminators, a last line
//! without a terminator or with a lone `\r`. Whatever the text — handed
//! over whole or file by file, as the 15-minute exports arrive — staging
//! it must give the dataset and the problem report that `parse_*_line` +
//! `add_*`, one line at a time, give.

mod hostile;

use gdelt_columnar::{binfmt, DatasetBuilder};
use gdelt_csv::writer::{write_event_line, write_mention_line};
use gdelt_csv::{parse_event_line, parse_mention_line, CleanReport};
use gdelt_model::ids::EventId;
use gdelt_model::mention::MentionRecord;
use gdelt_model::time::DateTime;
use hostile::{damaged_event_line, damaged_mention_line, event, line_specs, mention, render};
use proptest::prelude::*;

/// What one line at a time through the record parsers gives.
fn by_records(events: &str, mentions: &str) -> (Vec<u8>, CleanReport) {
    let mut b = DatasetBuilder::new();
    let (mut bad_events, mut bad_mentions) = (0, 0);
    for line in events.lines().filter(|l| !l.is_empty()) {
        match parse_event_line(line) {
            Ok(e) => b.add_event(e),
            Err(_) => bad_events += 1,
        }
    }
    for line in mentions.lines().filter(|l| !l.is_empty()) {
        match parse_mention_line(line) {
            Ok(m) => b.add_mention(m),
            Err(_) => bad_mentions += 1,
        }
    }
    let (image, mut report) = image(b);
    report.bad_event_lines += bad_events;
    report.bad_mention_lines += bad_mentions;
    (image, report)
}

/// What the text path gives when each text arrives as `files`
/// consecutive files of whole lines.
fn by_text(events: &str, mentions: &str, files: usize) -> (Vec<u8>, CleanReport) {
    let mut b = DatasetBuilder::new();
    whole_line_pieces(events, files).for_each(|file| b.ingest_events_text(file));
    whole_line_pieces(mentions, files).for_each(|file| b.ingest_mentions_text(file));
    image(b)
}

/// `text` cut after the line end nearest below each `k / n` of its
/// length (so some pieces may be empty).
fn whole_line_pieces(text: &str, n: usize) -> impl Iterator<Item = &str> {
    let cut = move |k: usize| match k {
        _ if k == n => text.len(),
        _ => {
            let below = &text.as_bytes()[..text.len() * k / n];
            below.iter().rposition(|&b| b == b'\n').map_or(0, |at| at + 1)
        }
    };
    (0..n).map(move |k| &text[cut(k)..cut(k + 1)])
}

/// The store image (bit-exact, `NaN` tones included) and the report.
fn image(b: DatasetBuilder) -> (Vec<u8>, CleanReport) {
    let (d, report) = b.build();
    let mut bytes = Vec::new();
    binfmt::write_dataset(&mut bytes, &d).unwrap();
    (bytes, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hostile_text_equals_line_by_line_records(
        event_specs in line_specs(40),
        mention_specs in line_specs(90),
        endings in (0u8..4, 0u8..4),
    ) {
        let events = render(&event_specs, damaged_event_line, endings.0);
        let mentions = render(&mention_specs, damaged_mention_line, endings.1);
        let want = by_records(&events, &mentions);
        for files in [1, 2, 3, 7] {
            let got = by_text(&events, &mentions, files);
            prop_assert!(
                got == want,
                "{files} files:\n{events:?}\n{mentions:?}\n{:?}\n{:?}", got.1, want.1
            );
        }
    }
}

/// The Las Vegas shooting drew 5 234 articles (paper §VI-A): one event
/// whose mentions arrive newest first, so the sort runs, from sources
/// that keep appearing.
#[test]
fn an_event_with_5234_mentions() {
    let events: String =
        [7, 3, 5].iter().map(|&id| write_event_line(&event(id, 11)) + "\n").collect();
    let mentions: String = (0..5_234u32)
        .rev()
        .map(|k| {
            let mut m = mention(3, 1 + 16 * (k % 500));
            m.event_id = EventId(103);
            m.source_name = format!("outlet{}.com", k / 40);
            write_mention_line(&m) + "\n"
        })
        .collect();
    let want = by_records(&events, &mentions);
    for files in [1, 7] {
        assert!(by_text(&events, &mentions, files) == want, "{files} files");
    }
    let (d, _) = {
        let mut b = DatasetBuilder::new();
        b.ingest_events_text(&events);
        b.ingest_mentions_text(&mentions);
        b.build()
    };
    assert_eq!(d.mentions_of(0).len(), 5_234);
    assert_eq!(d.sources.len(), 131);
}

/// `line` with column `k` replaced by `bytes`.
fn with_column(line: &str, k: usize, bytes: &[u8]) -> Vec<u8> {
    let mut cols: Vec<&[u8]> = line.as_bytes().split(|&b| b == b'\t').collect();
    cols[k] = bytes;
    let mut out = cols.join(&b'\t');
    out.push(b'\n');
    out
}

/// A byte that is not UTF-8 costs the line it is on only if the store
/// keeps the column it is in.
#[test]
fn undecodable_bytes_cost_at_most_their_line() {
    let line = write_event_line(&event(1, 5));
    let events = [
        with_column(&line, 6, b"Fran\xe7ois Hollande"), // Actor1Name in Latin-1: not kept
        with_column(&line, 60, b"https://example.fr/\xe9lys\xe9e"), // SOURCEURL: kept
        with_column(&line, 26, b"\xff\xfe"),            // EventCode: not kept
        with_column(&line, 7, b"\xc3"),                 // Actor1CountryCode: kept
        with_column(&line, 53, b"U\x80"),               // ActionGeo_CountryCode: kept
    ]
    .concat();
    let line = write_mention_line(&mention(1, 5));
    let mentions = [
        with_column(&line, 5, b"https://x/\xe9"), // MentionIdentifier: not kept
        with_column(&line, 4, b"p\xe9riodique.fr"), // MentionSourceName: kept
        with_column(&line, 15, b"\x80\x81"),      // Extras: not kept
    ]
    .concat();

    let mut b = DatasetBuilder::new();
    b.ingest_events_bytes(&events);
    b.ingest_mentions_bytes(&mentions);
    assert_eq!((b.staged_events(), b.staged_mentions()), (2, 2));
    let (d, report) = b.build();
    assert_eq!((report.bad_event_lines, report.bad_mention_lines), (3, 1));
    // The same event twice: the first line won, Latin-1 name and all.
    assert_eq!((d.events.len(), d.mentions.len()), (1, 2));
    assert_eq!(d.events.url(0), event(1, 5).source_url);

    // The record parsers take the same bytes, and keep what the store
    // does not as text with U+FFFD.
    let mut bad = 0;
    let parsed = gdelt_csv::events::parse_events(&events, |_, _, _| bad += 1);
    assert_eq!((parsed.len(), bad), (2, 3));
    assert_eq!(parsed[1].event_code, "\u{fffd}\u{fffd}");
    let parsed = gdelt_csv::mentions::parse_mentions(&mentions, |n, _, _| bad += n);
    assert_eq!((parsed.len(), bad), (2, 3 + 2));
    assert_eq!(parsed[0].url, "https://x/\u{fffd}");
}

/// A mention whose `EventTimeDate` is a day before its event's
/// `DATEADDED` gives the same store and the same report through the
/// text and the record path: it is kept, counted once as an
/// inconsistent event time, and its delay counts from the capture, as
/// its twin's that agrees does.
#[test]
fn an_event_time_that_disagrees_with_the_capture() {
    let e = event(1, 5);
    let at = |t: &DateTime, secs: i64| DateTime::from_unix_seconds(t.to_unix_seconds() + secs);
    let agrees = MentionRecord {
        event_id: e.id,
        event_time: e.date_added,
        mention_time: at(&e.date_added, 2 * 3_600),
        ..mention(1, 5)
    };
    let disagrees = MentionRecord { event_time: at(&e.date_added, -86_400), ..agrees.clone() };

    let mut text = DatasetBuilder::new();
    text.ingest_events_bytes((write_event_line(&e) + "\n").as_bytes());
    let lines = [&agrees, &disagrees].map(|m| write_mention_line(m) + "\n").concat();
    text.ingest_mentions_bytes(lines.as_bytes());
    let mut records = DatasetBuilder::new();
    records.add_event(e);
    records.add_mention(agrees);
    records.add_mention(disagrees);

    let (by_text, by_records) = (image(text), image(records));
    assert!(by_text == by_records, "{:?}\n{:?}", by_text.1, by_records.1);
    assert_eq!(by_text.1.inconsistent_event_time, 1);
    assert_eq!(by_text.1.total(), 1);
    let d = binfmt::read_dataset(&by_text.0).unwrap();
    assert_eq!(d.mentions.delay.as_slice(), &[8, 8], "two hours after the capture");
    assert!(d.mentions.orphan_id.is_empty());
}
