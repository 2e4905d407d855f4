//! A whole corpus — 33 MB of text — through the text path and through
//! the record path. Generating and deep-validating that much costs
//! seconds in a debug build, and it is the optimised decoder (word-wide
//! delimiter scan, decimal fast path) that ships, so this runs where CI
//! runs it: `cargo test --release -p gdelt-columnar`.
#![cfg(not(debug_assertions))]

use gdelt_columnar::{binfmt, Dataset, DatasetBuilder};
use gdelt_csv::CleanReport;
use gdelt_synth::{emit::to_tsv, generate, paper_calibrated};

fn image(d: &Dataset) -> Vec<u8> {
    let mut bytes = Vec::new();
    binfmt::write_dataset(&mut bytes, d).expect("serialize");
    bytes
}

fn by_text(masterlist: &str, events: &str, mentions: &str) -> (Dataset, CleanReport) {
    let mut b = DatasetBuilder::new();
    b.ingest_masterlist(masterlist);
    b.ingest_events_text(events);
    b.ingest_mentions_text(mentions);
    b.build()
}

/// The text against the records it was rendered from, added one at a
/// time.
#[test]
fn corpus_text_builds_what_its_records_build() {
    let data = generate(&paper_calibrated(0.0002, 77));
    let (events, mentions) = to_tsv(&data);
    let (from_text, text_report) = by_text(&data.masterlist, &events, &mentions);

    let mut b = DatasetBuilder::new();
    b.ingest_masterlist(&data.masterlist);
    data.events.iter().cloned().for_each(|e| b.add_event(e));
    data.mentions.iter().cloned().for_each(|m| b.add_mention(m));
    let (from_records, record_report) = b.build();

    assert_eq!(text_report, record_report);
    assert!(image(&from_text) == image(&from_records));
    assert!(from_text.deep_validate().is_ok());
}

/// The same corpus with its lines in reverse order, every tenth line
/// twice: both sorts and the de-duplication run, and the store is still
/// the one the ordered text gives.
#[test]
fn reversed_text_with_duplicates_builds_the_same_store() {
    let data = generate(&paper_calibrated(0.0002, 78));
    let (events, mentions) = to_tsv(&data);
    let reversed = |text: &str| {
        let mut out = String::with_capacity(text.len() * 11 / 10);
        for (i, line) in text.lines().rev().enumerate() {
            out.push_str(line);
            out.push_str(if i % 3 == 0 { "\r\n" } else { "\n" });
        }
        out
    };
    let (ordered, ordered_report) = by_text(&data.masterlist, &events, &mentions);

    // Events: reversed, and a second copy of every tenth line after it
    // (from the sixth on: the lines the generator plants Table II
    // problems in are counted once per copy, as they always were).
    let mut shuffled_events = reversed(&events);
    let repeats: String = events.lines().skip(5).step_by(10).map(|l| format!("{l}\n")).collect();
    shuffled_events.push_str(&repeats);
    let (shuffled, shuffled_report) =
        by_text(&data.masterlist, &shuffled_events, &reversed(&mentions));

    assert_eq!(shuffled_report, ordered_report);
    assert!(shuffled.deep_validate().is_ok());
    assert!(image(&events_only(&shuffled)) == image(&events_only(&ordered)));
    // Source ids follow first appearance and mentions tied on (event,
    // interval) follow arrival, so those differ; what they say must not.
    assert!(mention_facts(&shuffled) == mention_facts(&ordered));
}

/// `d` with nothing but its events (bit-exact through [`image`]: `NaN`
/// tones never compare equal).
fn events_only(d: &Dataset) -> Dataset {
    let mut out = Dataset::default();
    out.events = d.events.clone();
    out
}

/// Every mention as (event, scrape interval, delay, source name, type,
/// confidence, tone bits), sorted.
fn mention_facts(d: &Dataset) -> Vec<(u64, u32, u32, &str, u8, u8, u32)> {
    let m = &d.mentions;
    let mut facts: Vec<_> = (0..m.len())
        .map(|row| {
            let name = d.sources.names.get(m.source[row]);
            let tone = m.doc_tone[row].to_bits();
            (
                d.mention_event_id(row).0,
                m.mention_interval[row],
                m.delay[row],
                name,
                m.mention_type[row],
                m.confidence[row],
                tone,
            )
        })
        .collect();
    facts.sort_unstable();
    facts
}
