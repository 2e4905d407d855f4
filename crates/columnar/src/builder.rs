//! Conversion from raw text or parsed records to the indexed columnar
//! [`Dataset`].
//!
//! This is the paper's "preprocessing tool": it consumes Events/Mentions
//! rows (decoded from raw text by `gdelt-csv`, or handed over as records
//! by the synthetic generator and the incremental path), resolves
//! countries, interns source names, sorts events by id and mentions by
//! (event row, scrape time), precomputes the delay column and the
//! event→mentions CSR index, and reports every data problem it saw
//! (Table II).
//!
//! Rows are staged **as columns**, never as records: every row, whichever
//! way it arrives, is pushed field by field into a [`StagedEvents`] /
//! [`StagedMentions`] — the tables of the eventual [`Dataset`], in
//! arrival order. [`build`](DatasetBuilder::build) then only has to put
//! them in order, and input that already is in order (ids ascending,
//! mentions grouped by event and time — what GDELT's own exports and the
//! generator emit) is handed over as staged, without a sort or a copy.
//!
//! Raw text is decoded by the calling thread, top to bottom. Cutting it
//! into per-core chunks is not done here: see DESIGN.md "Ingest
//! architecture" for what that needs first.

use crate::aligned::AlignedBuf;
use crate::index::EventIndex;
use crate::table::{Dataset, EventsTable, MentionsTable, SourceDirectory, NO_EVENT_ROW};
use gdelt_csv::clean::{CleanReport, Cleaner};
use gdelt_csv::events::EventRow;
use gdelt_csv::fields::{for_each_line, Separator};
use gdelt_csv::masterlist::MasterList;
use gdelt_csv::mentions::MentionRow;
use gdelt_model::country::CountryRegistry;
use gdelt_model::event::EventRecord;
use gdelt_model::mention::MentionRecord;
use gdelt_model::time::CaptureInterval;

/// `src[i]` for every `i` of `rows`, in that order.
fn gather<T: Copy>(src: &[T], rows: &[u32]) -> AlignedBuf<T> {
    let mut out = AlignedBuf::with_capacity(rows.len());
    out.extend_from_iter(rows.iter().filter_map(|&i| src.get(i as usize).copied()));
    out
}

/// Event rows in arrival order, already in column form.
#[derive(Debug, Default)]
struct StagedEvents {
    /// `source_url[i] == i`: every row brings its own URL.
    table: EventsTable,
    /// Rows whose `DATEADDED` has no capture interval (before the GDELT
    /// epoch), ascending. Whether such a row is a bad line or a dropped
    /// duplicate depends on the other rows with its id, so `finish`
    /// decides.
    no_capture: Vec<u32>,
}

impl StagedEvents {
    // analyze: no_panic
    fn push(&mut self, registry: &CountryRegistry, cleaner: &mut Cleaner, e: &EventRow<'_>) {
        cleaner.admit_event(e);
        let t = &mut self.table;
        let capture = match CaptureInterval::from_datetime(e.date_added) {
            Ok(capture) => capture.0,
            Err(_) => {
                self.no_capture.push(t.len() as u32);
                0
            }
        };
        t.id.push(e.id.0);
        t.day.push(e.day.to_yyyymmdd());
        t.capture.push(capture);
        t.quarter.push(e.day.quarter().linear() as u16);
        t.root.push(e.root.0);
        t.quad.push(e.quad_class.as_u8());
        t.actor1.push(registry.by_cameo(e.actor1_country).0);
        t.actor2.push(registry.by_cameo(e.actor2_country).0);
        t.goldstein.push(e.goldstein.0);
        t.num_mentions.push(e.num_mentions);
        t.num_sources.push(e.num_sources);
        t.num_articles.push(e.num_articles);
        t.avg_tone.push(e.avg_tone);
        let country = if e.is_geo_tagged() { registry.by_fips(e.country_fips).0 } else { u16::MAX };
        t.country.push(country);
        t.lat.push(e.lat.unwrap_or(f32::NAN));
        t.lon.push(e.lon.unwrap_or(f32::NAN));
        let url_id = t.urls.push(e.source_url);
        t.source_url.push(url_id);
    }

    /// Decode and stage every line of `text`.
    // analyze: no_panic
    fn stage_text(&mut self, registry: &CountryRegistry, cleaner: &mut Cleaner, text: &[u8]) {
        for_each_line(text, Separator::Tab, |_, line| match EventRow::decode(&line) {
            Ok(row) => self.push(registry, cleaner, &row),
            Err(_) => cleaner.bad_event_line(),
        });
    }

    /// The events table: rows by ascending id, the first-staged row of
    /// an id winning, rows without a capture interval counted as bad
    /// lines and dropped.
    fn finish(self, cleaner: &mut Cleaner) -> EventsTable {
        let t = self.table;
        if self.no_capture.is_empty() && t.id.windows(2).all(|w| w[0] < w[1]) {
            return t;
        }
        let mut order: Vec<(u64, u32)> = t.id.iter().copied().zip(0u32..).collect();
        order.sort_unstable();
        let mut keep: Vec<u32> = Vec::with_capacity(order.len());
        let mut last_id = None;
        for &(id, row) in &order {
            if last_id == Some(id) {
                continue; // duplicate capture of the same event
            }
            if self.no_capture.binary_search(&row).is_ok() {
                cleaner.bad_event_line();
                continue;
            }
            last_id = Some(id);
            keep.push(row);
        }
        EventsTable {
            id: gather(&t.id, &keep),
            day: gather(&t.day, &keep),
            capture: gather(&t.capture, &keep),
            quarter: gather(&t.quarter, &keep),
            root: gather(&t.root, &keep),
            quad: gather(&t.quad, &keep),
            actor1: gather(&t.actor1, &keep),
            actor2: gather(&t.actor2, &keep),
            goldstein: gather(&t.goldstein, &keep),
            num_mentions: gather(&t.num_mentions, &keep),
            num_sources: gather(&t.num_sources, &keep),
            num_articles: gather(&t.num_articles, &keep),
            avg_tone: gather(&t.avg_tone, &keep),
            country: gather(&t.country, &keep),
            lat: gather(&t.lat, &keep),
            lon: gather(&t.lon, &keep),
            source_url: (0..keep.len() as u32).collect(),
            urls: t.urls.gather(&keep),
        }
    }
}

/// Mention rows in arrival order, already in column form.
#[derive(Debug, Default)]
struct StagedMentions {
    /// Every column but `event_row`, which `finish` joins.
    table: MentionsTable,
    /// Sources in order of first appearance.
    sources: SourceDirectory,
    /// Rows offered, including those dropped for a timestamp before the
    /// epoch (which are counted as bad lines).
    seen: usize,
}

impl StagedMentions {
    // analyze: no_panic
    fn push(&mut self, registry: &CountryRegistry, cleaner: &mut Cleaner, m: &MentionRow<'_>) {
        self.seen += 1;
        cleaner.admit_mention(m);
        let (Ok(event_iv), Ok(mention_iv)) = (
            CaptureInterval::from_datetime(m.event_time),
            CaptureInterval::from_datetime(m.mention_time),
        ) else {
            cleaner.bad_mention_line();
            return;
        };
        let source = match self.sources.names.lookup(m.source_name) {
            Some(id) => id,
            None => {
                self.sources.country.push(registry.assign_source_country(m.source_name).0);
                self.sources.names.intern(m.source_name)
            }
        };
        let t = &mut self.table;
        t.event_id.push(m.event_id.0);
        t.event_interval.push(event_iv.0);
        t.mention_interval.push(mention_iv.0);
        t.delay.push(mention_iv.delay_since(event_iv));
        t.source.push(source);
        t.quarter.push(Dataset::interval_quarter(mention_iv));
        // analyze: allow(id_cast): enum discriminant with u8 repr, not an id
        t.mention_type.push(m.mention_type as u8);
        t.confidence.push(m.confidence);
        t.doc_tone.push(m.doc_tone);
    }

    /// Decode and stage every line of `text`.
    // analyze: no_panic
    fn stage_text(&mut self, registry: &CountryRegistry, cleaner: &mut Cleaner, text: &[u8]) {
        for_each_line(text, Separator::Tab, |_, line| match MentionRow::decode(&line) {
            Ok(row) => self.push(registry, cleaner, &row),
            Err(_) => cleaner.bad_mention_line(),
        });
    }

    /// The mentions table joined to `event_ids` (ascending): rows by
    /// (event row, scrape interval, arrival), mentions of unknown events
    /// last.
    fn finish(self, event_ids: &[u64]) -> (MentionsTable, SourceDirectory) {
        let mut t = self.table;
        // Consecutive mentions mostly report on the same event or the
        // next one; only a jump pays for a binary search.
        let mut at = 0usize;
        let mut event_row = AlignedBuf::with_capacity(t.len());
        event_row.extend_from_iter(t.event_id.iter().map(|id| {
            if event_ids.get(at) != Some(id) {
                if event_ids.get(at + 1) == Some(id) {
                    at += 1;
                } else {
                    match event_ids.binary_search(id) {
                        Ok(row) => at = row,
                        Err(_) => return NO_EVENT_ROW,
                    }
                }
            }
            at as u32
        }));
        t.event_row = event_row;

        let key = |row: u32, interval: u32| u64::from(row) << 32 | u64::from(interval);
        let keys = || t.event_row.iter().zip(t.mention_interval.iter()).map(|(&r, &iv)| key(r, iv));
        if keys().zip(keys().skip(1)).all(|(a, b)| a <= b) {
            return (t, self.sources);
        }
        let mut order: Vec<(u64, u32)> = keys().zip(0u32..).collect();
        order.sort_unstable();
        let rows: Vec<u32> = order.iter().map(|&(_, row)| row).collect();
        drop(order);
        let sorted = MentionsTable {
            event_id: gather(&t.event_id, &rows),
            event_row: gather(&t.event_row, &rows),
            event_interval: gather(&t.event_interval, &rows),
            mention_interval: gather(&t.mention_interval, &rows),
            delay: gather(&t.delay, &rows),
            source: gather(&t.source, &rows),
            quarter: gather(&t.quarter, &rows),
            mention_type: gather(&t.mention_type, &rows),
            confidence: gather(&t.confidence, &rows),
            doc_tone: gather(&t.doc_tone, &rows),
        };
        (sorted, self.sources)
    }
}

/// Builder accumulating rows before the one-time conversion.
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    registry: CountryRegistry,
    events: StagedEvents,
    mentions: StagedMentions,
    cleaner: Cleaner,
}

impl DatasetBuilder {
    /// Fresh builder with the default country registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one parsed event.
    pub fn add_event(&mut self, e: EventRecord) {
        self.events.push(&self.registry, &mut self.cleaner, &EventRow::of(&e));
    }

    /// Add one parsed mention.
    pub fn add_mention(&mut self, m: MentionRecord) {
        self.mentions.push(&self.registry, &mut self.cleaner, &MentionRow::of(&m));
    }

    /// Ingest a raw events file (tab-separated text); parse failures are
    /// counted, not fatal.
    pub fn ingest_events_text(&mut self, text: &str) {
        self.ingest_events_bytes(text.as_bytes());
    }

    /// Ingest a raw events file that need not be UTF-8: a line whose
    /// `Actor*CountryCode`, `ActionGeo_CountryCode` or `SOURCEURL` is not
    /// counts as one bad line, and bytes of the columns the store does
    /// not keep are never inspected.
    pub fn ingest_events_bytes(&mut self, text: &[u8]) {
        let _s = gdelt_obs::span_args("ingest", "parse_events", "bytes", text.len() as u64);
        let (rows, bad) = (self.events.table.len(), self.cleaner.report().bad_event_lines);
        self.events.stage_text(&self.registry, &mut self.cleaner, text);
        let bad = self.cleaner.report().bad_event_lines - bad;
        let rows = (self.events.table.len() - rows) as u64;
        gdelt_obs::global().counter("ingest_bad_event_lines_total").add(bad);
        gdelt_obs::global().counter("ingest_event_rows_total").add(rows);
    }

    /// Ingest a raw mentions file.
    pub fn ingest_mentions_text(&mut self, text: &str) {
        self.ingest_mentions_bytes(text.as_bytes());
    }

    /// Ingest a raw mentions file that need not be UTF-8: a line whose
    /// `MentionSourceName` is not counts as one bad line, and bytes of
    /// the columns the store does not keep are never inspected.
    pub fn ingest_mentions_bytes(&mut self, text: &[u8]) {
        let _s = gdelt_obs::span_args("ingest", "parse_mentions", "bytes", text.len() as u64);
        let (rows, bad) = (self.mentions.seen, self.cleaner.report().bad_mention_lines);
        self.mentions.stage_text(&self.registry, &mut self.cleaner, text);
        let bad = self.cleaner.report().bad_mention_lines - bad;
        let rows = (self.mentions.seen - rows) as u64;
        gdelt_obs::global().counter("ingest_bad_mention_lines_total").add(bad);
        gdelt_obs::global().counter("ingest_mention_rows_total").add(rows);
    }

    /// Absorb a master file list (malformed entries + archive gaps).
    pub fn ingest_masterlist(&mut self, text: &str) {
        let ml = MasterList::parse(text);
        self.cleaner.check_masterlist(&ml);
    }

    /// Number of events staged so far.
    pub fn staged_events(&self) -> usize {
        self.events.table.len()
    }

    /// Number of mentions staged so far.
    pub fn staged_mentions(&self) -> usize {
        self.mentions.seen
    }

    /// Run the conversion. Returns the queryable dataset and the cleaning
    /// report.
    pub fn build(self) -> (Dataset, CleanReport) {
        let DatasetBuilder { events, mentions, mut cleaner, .. } = self;
        let _build = gdelt_obs::span_args("ingest", "build", "events", events.table.len() as u64)
            .arg("mentions", mentions.seen as u64);
        let stage = gdelt_obs::span("ingest", "events_columns");
        let events = events.finish(&mut cleaner);
        drop(stage);
        let stage = gdelt_obs::span("ingest", "mentions_columns");
        let (mentions, sources) = mentions.finish(&events.id);
        drop(stage);
        let stage = gdelt_obs::span("ingest", "csr_index");
        let event_index = EventIndex::build(events.len(), &mentions);
        drop(stage);
        let dataset = Dataset { events, mentions, sources, event_index };
        debug_assert_eq!(dataset.validate(), Ok(()));
        #[cfg(debug_assertions)]
        {
            let report = dataset.deep_validate();
            debug_assert!(report.is_ok(), "builder produced invalid dataset:\n{report}");
        }
        (dataset, cleaner.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
    use gdelt_model::event::{ActionGeo, GeoType};
    use gdelt_model::ids::EventId;
    use gdelt_model::mention::MentionType;
    use gdelt_model::time::{DateTime, GDELT_EPOCH};

    pub(crate) fn event(id: u64, hour: u8, fips: &str, url: &str) -> EventRecord {
        EventRecord {
            id: EventId(id),
            day: GDELT_EPOCH,
            root: CameoRoot::new(19).unwrap(),
            event_code: "190".into(),
            actor1_country: String::new(),
            actor2_country: String::new(),
            quad_class: QuadClass::MaterialConflict,
            goldstein: Goldstein::new(-2.0).unwrap(),
            num_mentions: 1,
            num_sources: 1,
            num_articles: 1,
            avg_tone: 0.0,
            geo: ActionGeo {
                geo_type: if fips.is_empty() { GeoType::None } else { GeoType::Country },
                country_fips: fips.into(),
                lat: None,
                lon: None,
            },
            date_added: DateTime::new(GDELT_EPOCH, hour, 0, 0).unwrap(),
            source_url: url.into(),
        }
    }

    pub(crate) fn mention(
        event_id: u64,
        event_hour: u8,
        mention_hour: u8,
        source: &str,
    ) -> MentionRecord {
        MentionRecord {
            event_id: EventId(event_id),
            event_time: DateTime::new(GDELT_EPOCH, event_hour, 0, 0).unwrap(),
            mention_time: DateTime::new(GDELT_EPOCH, mention_hour, 0, 0).unwrap(),
            mention_type: MentionType::Web,
            source_name: source.into(),
            url: format!("https://{source}/a"),
            confidence: 60,
            doc_tone: -1.0,
        }
    }

    #[test]
    fn builds_sorted_indexed_dataset() {
        let mut b = DatasetBuilder::new();
        b.add_event(event(20, 2, "US", "https://x.com/20"));
        b.add_event(event(10, 1, "UK", "https://y.co.uk/10"));
        b.add_mention(mention(20, 2, 4, "a.com"));
        b.add_mention(mention(10, 1, 1, "b.co.uk"));
        b.add_mention(mention(20, 2, 3, "b.co.uk"));
        let (d, report) = b.build();
        assert!(d.validate().is_ok());
        assert_eq!(report.total(), 0);
        assert_eq!(d.events.len(), 2);
        assert_eq!(d.events.id.as_slice(), &[10, 20]);
        // Event row 0 (id 10): one mention; row 1 (id 20): two, time-sorted.
        assert_eq!(d.mentions_of(0).len(), 1);
        let r = d.mentions_of(1);
        assert_eq!(r.len(), 2);
        let ivs: Vec<u32> = r.clone().map(|i| d.mentions.mention_interval[i]).collect();
        assert!(ivs[0] <= ivs[1]);
        // Sources were interned and countries assigned via TLD.
        assert_eq!(d.sources.len(), 2);
        let b_id = d.sources.lookup("b.co.uk").unwrap();
        let reg = CountryRegistry::new();
        assert_eq!(d.sources.country_id(b_id), reg.by_name("UK"));
    }

    #[test]
    fn duplicate_events_keep_first() {
        let mut b = DatasetBuilder::new();
        b.add_event(event(5, 1, "US", "first"));
        b.add_event(event(5, 2, "US", "second"));
        let (d, _) = b.build();
        assert_eq!(d.events.len(), 1);
        assert_eq!(d.events.url(0), "first");
    }

    #[test]
    fn pre_epoch_capture_is_a_bad_line_unless_it_is_a_duplicate() {
        use gdelt_model::time::Date;
        let early = |id: u64, url: &str| {
            let mut e = event(id, 1, "US", url);
            e.date_added = DateTime::midnight(Date { year: 2015, month: 1, day: 1 });
            e
        };
        let mut b = DatasetBuilder::new();
        b.add_event(event(9, 1, "US", "nine"));
        b.add_event(early(5, "five, too early")); // no row of its id kept before it: bad
        b.add_event(event(5, 2, "US", "five"));
        b.add_event(event(6, 1, "US", "six"));
        b.add_event(early(6, "six again, too early")); // a duplicate: dropped, not counted
        b.add_event(early(7, "seven, too early")); // bad
        b.add_event(early(7, "seven again, too early")); // and so is this one
        assert_eq!(b.staged_events(), 7);
        let (d, report) = b.build();
        assert_eq!(report.bad_event_lines, 3);
        assert_eq!(d.events.id.as_slice(), &[5, 6, 9]);
        let urls: Vec<&str> = (0..3).map(|row| d.events.url(row)).collect();
        assert_eq!(urls, ["five", "six", "nine"]);
        assert_eq!(d.events.source_url.as_slice(), &[0, 1, 2]);
    }

    #[test]
    fn unsorted_mentions_group_by_event_then_time_then_arrival() {
        let mut b = DatasetBuilder::new();
        b.add_event(event(2, 1, "US", "two"));
        b.add_event(event(1, 1, "US", "one"));
        for (id, hour, source) in [
            (2, 9, "late.com"),
            (7, 3, "orphan.com"),
            (1, 5, "b.com"),
            (2, 4, "x.com"),
            (1, 5, "a.com"),
        ] {
            b.add_mention(mention(id, 1, hour, source));
        }
        let (d, _) = b.build();
        let names: Vec<&str> = d.mentions.source.iter().map(|&s| d.sources.names.get(s)).collect();
        // Event 1 (row 0): the two 05:00 mentions in arrival order; then
        // event 2 by time; the mention of no known event last.
        assert_eq!(names, ["b.com", "a.com", "x.com", "late.com", "orphan.com"]);
        assert_eq!(d.mentions.event_row.as_slice(), &[0, 0, 1, 1, NO_EVENT_ROW]);
        assert_eq!(d.sources.names.get(0), "late.com"); // ids by first appearance
    }

    #[test]
    fn mention_of_unknown_event_goes_to_tail() {
        let mut b = DatasetBuilder::new();
        b.add_event(event(1, 1, "US", "u"));
        b.add_mention(mention(999, 1, 2, "a.com"));
        b.add_mention(mention(1, 1, 2, "a.com"));
        let (d, _) = b.build();
        assert!(d.validate().is_ok());
        assert_eq!(d.mentions.len(), 2);
        assert_eq!(d.mentions.event_row[1], NO_EVENT_ROW);
        assert_eq!(d.event_index.total_mentions(), 1);
    }

    #[test]
    fn problems_are_reported() {
        let mut b = DatasetBuilder::new();
        b.add_event(event(1, 1, "US", "")); // missing URL
        let mut future = event(2, 1, "US", "u");
        future.day = GDELT_EPOCH.add_days(10);
        b.add_event(future);
        b.ingest_events_text("not a valid line\n");
        let (_, report) = b.build();
        assert_eq!(report.missing_source_url, 1);
        assert_eq!(report.future_event_date, 1);
        assert_eq!(report.bad_event_lines, 1);
    }

    #[test]
    fn untagged_event_has_unknown_country() {
        let mut b = DatasetBuilder::new();
        b.add_event(event(1, 1, "", "u"));
        let (d, _) = b.build();
        assert!(d.events.country_id(0).is_unknown());
    }

    #[test]
    fn ingest_round_trip_through_raw_text() {
        use gdelt_csv::writer::{write_events, write_mentions};
        let evs =
            vec![event(1, 1, "US", "https://a.com/1"), event(2, 2, "UK", "https://b.co.uk/2")];
        let mns = vec![mention(1, 1, 3, "a.com"), mention(2, 2, 2, "b.co.uk")];
        let mut etext = String::new();
        write_events(&mut etext, &evs);
        let mut mtext = String::new();
        write_mentions(&mut mtext, &mns);

        let mut b = DatasetBuilder::new();
        b.ingest_events_text(&etext);
        b.ingest_mentions_text(&mtext);
        assert_eq!(b.staged_events(), 2);
        assert_eq!(b.staged_mentions(), 2);
        let (d, report) = b.build();
        assert_eq!(report.total(), 0);
        assert_eq!(d.events.len(), 2);
        assert_eq!(d.mentions.len(), 2);
        assert_eq!(d.mentions.delay[d.mentions_of(0).start], 8); // 2 hours
    }
}
