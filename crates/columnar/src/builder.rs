//! Conversion from raw text or parsed records to the indexed columnar
//! [`Dataset`].
//!
//! This is the paper's "preprocessing tool": it consumes Events/Mentions
//! rows (decoded from raw text by `gdelt-csv`, or handed over as records
//! by the synthetic generator and the incremental path), resolves
//! countries, interns source names, sorts events by id and mentions by
//! (event row, scrape time), precomputes the delay column and the
//! event→mentions CSR index, and reports every data problem it saw
//! (Table II). A joined mention's delay counts from its event's capture
//! (a disagreeing `EventTimeDate` is counted in
//! [`CleanReport::inconsistent_event_time`]); only an orphan keeps its
//! own event id and time.
//!
//! Rows are staged **as columns**, never as records: every row, whichever
//! way it arrives, is pushed field by field into a [`StagedEvents`] /
//! [`StagedMentions`] — the tables of the eventual [`Dataset`], in
//! arrival order. [`build`](DatasetBuilder::build) then only has to put
//! them in order, and input that already is in order (ids ascending,
//! mentions grouped by event and time — what GDELT's own exports and the
//! generator emit) is handed over as staged, without a sort or a copy.
//!
//! Raw text is cut at line starts into as many pieces as its bytes pay
//! for, one a core at most ([`partition::fork_pieces`]). The calling thread stages
//! the first piece straight into the builder and every other piece is
//! staged on the fork pool ([`partition::fork_join`]) into a
//! staging area and a [`Cleaner`] of its own; the pieces are then
//! absorbed in order, which gives the columns, the source ids and the
//! report one thread gives.

use crate::aligned::AlignedBuf;
use crate::columns::Column;
use crate::index::EventIndex;
use crate::partition;
use crate::table::{Dataset, EventsTable, MentionsTable, SourceDirectory, NO_EVENT_ROW};
use gdelt_csv::clean::{CleanReport, Cleaner};
use gdelt_csv::events::EventRow;
use gdelt_csv::fields::{for_each_line, line_start, Separator};
use gdelt_csv::masterlist::MasterList;
use gdelt_csv::mentions::MentionRow;
use gdelt_model::country::CountryRegistry;
use gdelt_model::event::EventRecord;
use gdelt_model::ids::row_u32;
use gdelt_model::mention::MentionRecord;
use gdelt_model::time::CaptureInterval;

/// What staging costs a byte of text on one thread: 1.6–3.0 ns (the
/// events and mentions text of scales 0.0002 and 0.002).
const STAGE_BYTE_NS: f64 = 2.0;

/// Where to cut `len` bytes of text into the pieces they pay for
/// ([`partition::fork_pieces`]): evenly, before each line start is
/// looked for.
fn even_cuts(len: usize) -> Vec<usize> {
    let n = partition::fork_pieces(len, STAGE_BYTE_NS, partition::cores());
    (1..n).map(|k| k * (len / n)).collect()
}

/// A staging area rows of text are decoded into: the events' or the
/// mentions'.
trait Staging: Default + Send {
    /// Decode and stage every line of `text`.
    fn stage_text(&mut self, registry: &CountryRegistry, cleaner: &mut Cleaner, text: &[u8]);

    /// Append `pieces`, in order, each staged from its own piece of the
    /// text that follows this one's: what staging their text here would
    /// have staged.
    fn absorb(&mut self, pieces: Vec<Self>);
}

/// Stage `text` into `staged`, cut at the first line start at or after
/// each of `cuts`: the first piece on the calling thread, every other
/// non-empty one on the fork pool, absorbed in order.
fn stage_pieces<S: Staging>(
    staged: &mut S,
    registry: &CountryRegistry,
    cleaner: &mut Cleaner,
    text: &[u8],
    cuts: &[usize],
) {
    let mut starts: Vec<usize> = cuts.iter().map(|&at| line_start(text, at)).collect();
    starts.push(text.len());
    let mut from = 0;
    let mut pieces: Vec<&[u8]> = Vec::with_capacity(starts.len());
    for to in starts {
        let to = to.max(from);
        pieces.push(text.get(from..to).unwrap_or(&[]));
        from = to;
    }
    let first = pieces.remove(0);
    pieces.retain(|piece| !piece.is_empty());
    if pieces.is_empty() {
        return staged.stage_text(registry, cleaner, first);
    }
    let stage_alone = |piece: &[u8]| {
        let (mut staged, mut cleaner) = (S::default(), Cleaner::new());
        staged.stage_text(registry, &mut cleaner, piece);
        (staged, cleaner.finish())
    };
    let ((), rest) =
        partition::fork_join(pieces, stage_alone, || staged.stage_text(registry, cleaner, first));
    let (rest, reports): (Vec<S>, Vec<CleanReport>) = rest.into_iter().unzip();
    staged.absorb(rest);
    reports.iter().for_each(|report| cleaner.absorb(report));
}

/// Event rows in arrival order, already in column form.
#[derive(Debug, Default)]
struct StagedEvents {
    /// Every row brings its own URL: string `i` of the pool.
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
        t.quad.push(e.quad_class.as_u8());
        t.actor1.push(registry.by_cameo(e.actor1_country).0);
        t.actor2.push(registry.by_cameo(e.actor2_country).0);
        t.avg_tone.push(e.avg_tone);
        let country = if e.is_geo_tagged() { registry.by_fips(e.country_fips).0 } else { u16::MAX };
        t.country.push(country);
        t.urls.push(e.source_url);
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
        let mut kept = EventsTable { urls: t.urls.gather(&keep), ..EventsTable::default() };
        for (_, get, get_mut) in &EventsTable::FIXED {
            get_mut(&mut kept).gather(get(&t), &keep);
        }
        kept
    }
}

impl Staging for StagedEvents {
    // analyze: no_panic
    fn stage_text(&mut self, registry: &CountryRegistry, cleaner: &mut Cleaner, text: &[u8]) {
        for_each_line(text, Separator::Tab, |_, line| match EventRow::decode(&line) {
            Ok(row) => self.push(registry, cleaner, &row),
            Err(_) => cleaner.bad_event_line(),
        });
    }

    fn absorb(&mut self, pieces: Vec<Self>) {
        let t = &mut self.table;
        for (_, get, get_mut) in &EventsTable::FIXED {
            get_mut(t).reserve(pieces.iter().map(|p| get(&p.table).len()).sum());
        }
        let url_bytes = pieces.iter().map(|p| p.table.urls.bytes_in(0..p.table.urls.len())).sum();
        t.urls.reserve(pieces.iter().map(|p| p.table.urls.len()).sum(), url_bytes);
        for piece in pieces {
            let first_row = row_u32(t.len());
            for (_, get, get_mut) in &EventsTable::FIXED {
                let src = get(&piece.table);
                get_mut(t).extend_rows(src, 0..src.len());
            }
            t.urls.extend_range(&piece.table.urls, 0..piece.table.urls.len());
            self.no_capture.extend(piece.no_capture.iter().map(|&row| first_row + row));
        }
    }
}

/// Mention rows in arrival order, already in column form.
#[derive(Debug, Default)]
struct StagedMentions {
    /// The columns `finish` does not derive from the join. Until then
    /// the orphan side columns hold *every* row's `GlobalEventID` and
    /// own `EventTimeDate` interval.
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
        t.orphan_id.push(m.event_id.0);
        t.orphan_interval.push(event_iv.0);
        t.mention_interval.push(mention_iv.0);
        t.source.push(source);
        t.quarter.push(Dataset::interval_quarter(mention_iv));
        // analyze: allow(id_cast): enum discriminant with u8 repr, not an id
        t.mention_type.push(m.mention_type as u8);
        t.confidence.push(m.confidence);
        t.doc_tone.push(m.doc_tone);
    }

    /// The mentions table joined to `events`: rows by (event row, scrape
    /// interval, arrival), mentions of unknown events last with their
    /// own ids and event times; every delay derived, and every joined
    /// row whose own event time is not its event's capture counted.
    fn finish(
        self,
        events: &EventsTable,
        cleaner: &mut Cleaner,
    ) -> (MentionsTable, SourceDirectory) {
        let StagedMentions { mut table, sources, .. } = self;
        let event_ids = events.id.as_slice();
        // Consecutive mentions mostly report on the same event or the
        // next one; only a jump pays for a binary search.
        let mut at = 0usize;
        table.event_row = AlignedBuf::with_capacity(table.orphan_id.len());
        table.event_row.extend_from_iter(table.orphan_id.iter().map(|id| {
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

        let key = |row: u32, interval: u32| u64::from(row) << 32 | u64::from(interval);
        let t = &table;
        let keys = || t.event_row.iter().zip(t.mention_interval.iter()).map(|(&r, &iv)| key(r, iv));
        let mut t = if keys().zip(keys().skip(1)).all(|(a, b)| a <= b) {
            table
        } else {
            let mut order: Vec<(u64, u32)> = keys().zip(0u32..).collect();
            order.sort_unstable();
            let rows: Vec<u32> = order.iter().map(|&(_, row)| row).collect();
            drop(order);
            // The staged delay column is empty: it gathers to an empty
            // column, to be derived below.
            let mut sorted = MentionsTable::default();
            for (_, get, get_mut) in &MentionsTable::FIXED {
                get_mut(&mut sorted).gather(get(t), &rows);
            }
            sorted
        };

        let mut inconsistent = 0;
        let rows = t.event_row.iter().zip(t.mention_interval.iter()).zip(t.orphan_interval.iter());
        t.delay = AlignedBuf::with_capacity(t.len());
        t.delay.extend_from_iter(rows.map(|((&er, &scraped), &own)| {
            let from = events.capture.get(er as usize).copied().unwrap_or(own);
            inconsistent += u64::from(from != own);
            scraped.saturating_sub(from)
        }));
        cleaner.inconsistent_event_times(inconsistent);
        let joined = t.event_row.partition_point(|&er| er != NO_EVENT_ROW);
        t.orphan_id = t.orphan_id.chunk_view(joined, t.len()).into();
        t.orphan_interval = t.orphan_interval.chunk_view(joined, t.len()).into();
        (t, sources)
    }
}

impl Staging for StagedMentions {
    // analyze: no_panic
    fn stage_text(&mut self, registry: &CountryRegistry, cleaner: &mut Cleaner, text: &[u8]) {
        for_each_line(text, Separator::Tab, |_, line| match MentionRow::decode(&line) {
            Ok(row) => self.push(registry, cleaner, &row),
            Err(_) => cleaner.bad_mention_line(),
        });
    }

    /// A piece's source ids become the builder's in the piece's id
    /// order, which is the order its sources first appear in: a source
    /// no earlier text named gets the next id, as on one thread.
    fn absorb(&mut self, pieces: Vec<Self>) {
        for (_, get, get_mut) in &MentionsTable::FIXED {
            get_mut(&mut self.table).reserve(pieces.iter().map(|p| get(&p.table).len()).sum());
        }
        for piece in pieces {
            for (c, get, get_mut) in &MentionsTable::FIXED {
                let src = get(&piece.table);
                if *c != Column::MentionsSource {
                    get_mut(&mut self.table).extend_rows(src, 0..src.len());
                }
            }
            let sources = &mut self.sources;
            let ids: Vec<u32> = (0..row_u32(piece.sources.len()))
                .map(|local| {
                    let name = piece.sources.names.get(local);
                    sources.names.lookup(name).unwrap_or_else(|| {
                        let country = piece.sources.country.get(local as usize);
                        sources.country.push(country.copied().unwrap_or(u16::MAX));
                        sources.names.intern(name)
                    })
                })
                .collect();
            let source = piece.table.source.iter();
            self.table.source.extend_from_iter(
                source.map(|&local| ids.get(local as usize).copied().unwrap_or(local)),
            );
            self.seen += piece.seen;
        }
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
        self.ingest_events_cut(text, &even_cuts(text.len()));
    }

    /// [`ingest_events_bytes`](Self::ingest_events_bytes), the text cut
    /// into pieces at the first line start at or after each of `cuts`.
    pub(crate) fn ingest_events_cut(&mut self, text: &[u8], cuts: &[usize]) {
        let _s = gdelt_obs::span_args("ingest", "parse_events", "bytes", text.len() as u64);
        let (rows, bad) = (self.events.table.len(), self.cleaner.report().bad_event_lines);
        stage_pieces(&mut self.events, &self.registry, &mut self.cleaner, text, cuts);
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
        self.ingest_mentions_cut(text, &even_cuts(text.len()));
    }

    /// [`ingest_mentions_bytes`](Self::ingest_mentions_bytes), the text
    /// cut into pieces at the first line start at or after each of
    /// `cuts`.
    pub(crate) fn ingest_mentions_cut(&mut self, text: &[u8], cuts: &[usize]) {
        let _s = gdelt_obs::span_args("ingest", "parse_mentions", "bytes", text.len() as u64);
        let (rows, bad) = (self.mentions.seen, self.cleaner.report().bad_mention_lines);
        stage_pieces(&mut self.mentions, &self.registry, &mut self.cleaner, text, cuts);
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
        let (mentions, sources) = mentions.finish(&events, &mut cleaner);
        drop(stage);
        let stage = gdelt_obs::span("ingest", "csr_index");
        let event_index = EventIndex::build(events.len(), &mentions);
        drop(stage);
        let dataset = Dataset { events, mentions, sources, event_index, ..Dataset::default() };
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
#[path = "../tests/hostile/mod.rs"]
mod hostile;

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
        assert_eq!(d.events.urls.len(), 3);
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

    /// The store image and the report of `events` then `mentions`, each
    /// cut at the first line start at or after each of its cuts.
    fn cut_image(
        (events, event_cuts): (&[u8], &[usize]),
        (mentions, mention_cuts): (&[u8], &[usize]),
    ) -> (Vec<u8>, CleanReport) {
        let mut b = DatasetBuilder::new();
        b.ingest_events_cut(events, event_cuts);
        b.ingest_mentions_cut(mentions, mention_cuts);
        let (d, report) = b.build();
        let mut bytes = Vec::new();
        crate::binfmt::write_dataset(&mut bytes, &d).unwrap();
        (bytes, report)
    }

    /// Cuts that make `n` even pieces of `len` bytes before alignment.
    fn even(len: usize, n: usize) -> Vec<usize> {
        (1..n).map(|k| k * len / n).collect()
    }

    /// Every offset worth cutting `text` at: its first and last byte,
    /// its end, and every line's start, second byte and middle.
    fn cut_points(text: &[u8]) -> Vec<usize> {
        let mut at = vec![0, text.len().saturating_sub(1), text.len()];
        let mut start = 0;
        for end in (0..text.len()).filter(|&i| text[i] == b'\n').chain([text.len()]) {
            at.extend([start, start + 1, (start + end) / 2].map(|i| i.min(text.len())));
            start = end + 1;
        }
        at.sort_unstable();
        at.dedup();
        at
    }

    fn hostile_text() -> (String, String) {
        // Every damage, each line with and without CRLF, a blank line
        // before every third; no terminator at the end of the mentions.
        let specs: Vec<hostile::LineSpec> = (0..52u32)
            .map(|k| (u64::from(k % 24), (k % 26) as u8, k < 26, k % 3 == 0, k))
            .collect();
        (
            hostile::render(&specs, hostile::damaged_event_line, 3),
            hostile::render(&specs, hostile::damaged_mention_line, 1),
        )
    }

    #[test]
    fn every_cut_of_hostile_text_stages_what_one_piece_stages() {
        let (events, mentions) = hostile_text();
        let (events, mentions) = (events.as_bytes(), mentions.as_bytes());
        let whole = cut_image((events, &[]), (mentions, &[]));
        assert!(whole.1.bad_event_lines > 0 && whole.1.bad_mention_lines > 0);
        for at in cut_points(events) {
            assert!(cut_image((events, &[at]), (mentions, &[])) == whole, "events cut at {at}");
        }
        for at in cut_points(mentions) {
            assert!(cut_image((events, &[]), (mentions, &[at])) == whole, "mentions cut at {at}");
        }
        let (all_events, all_mentions) = (cut_points(events), cut_points(mentions));
        assert!(cut_image((events, &all_events), (mentions, &all_mentions)) == whole);
        for n in [1, 2, 3, 7, 64] {
            let cuts = (even(events.len(), n), even(mentions.len(), n));
            assert!(cut_image((events, &cuts.0), (mentions, &cuts.1)) == whole, "{n} pieces");
        }
    }

    /// `line` with column `k` replaced by `bytes`, and a terminator.
    fn with_column(line: &str, k: usize, bytes: &[u8]) -> Vec<u8> {
        let mut cols: Vec<&[u8]> = line.as_bytes().split(|&b| b == b'\t').collect();
        cols[k] = bytes;
        let mut out = cols.join(&b'\t');
        out.push(b'\n');
        out
    }

    #[test]
    fn pieces_hand_on_duplicates_early_captures_bad_bytes_and_new_sources() {
        use gdelt_csv::writer::{write_event_line, write_mention_line};
        let line = |id: u64, early: bool| {
            let mut e = hostile::event(id, 7);
            if early {
                e.date_added =
                    DateTime::midnight(gdelt_model::time::Date::new(2015, 1, 1).unwrap());
            }
            write_event_line(&e)
        };
        // One line a piece: ids 105 and 106 each come twice, once before
        // the epoch, in different pieces.
        let events = [
            with_column(&line(9, false), 6, b"Fran\xe7ois"), // Latin-1, not kept
            with_column(&line(5, true), 0, b"105"),
            with_column(&line(6, false), 0, b"106"),
            with_column(&line(5, false), 0, b"105"),
            with_column(&line(6, true), 0, b"106"),
            with_column(&line(7, false), 60, b"https://x.fr/\xe9"), // Latin-1, kept
        ]
        .concat();
        let mention = |id: u64, source: &[u8]| {
            with_column(&write_mention_line(&hostile::mention(id, 9)), 4, source)
        };
        let mentions = [
            mention(9, b"a.com"),
            mention(5, b"late.example"),
            mention(6, b"a.com"),
            mention(5, b"p\xe9riodique.fr"),
            mention(9, b"later.example"),
            mention(6, b"late.example"),
        ]
        .concat();
        let whole = cut_image((&events, &[]), (&mentions, &[]));
        let every_line = (cut_points(&events), cut_points(&mentions));
        assert!(cut_image((&events, &every_line.0), (&mentions, &every_line.1)) == whole);
        assert!(cut_image((&events, &[events.len() / 2]), (&mentions, &[1])) == whole);

        let (bytes, report) = whole;
        assert_eq!((report.bad_event_lines, report.bad_mention_lines), (2, 1));
        let d = crate::binfmt::read_dataset(&bytes).unwrap();
        assert_eq!(d.events.id.as_slice(), &[105, 106, 109]);
        let names: Vec<&str> = d.sources.names.iter().map(|(_, name)| name).collect();
        assert_eq!(names, ["a.com", "late.example", "later.example"]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn cut_text_stages_what_one_piece_stages(
            event_specs in hostile::line_specs(40),
            mention_specs in hostile::line_specs(90),
            endings in (0u8..4, 0u8..4),
            cuts in proptest::prelude::prop::collection::vec(0usize..1 << 14, 0..9),
        ) {
            let events = hostile::render(&event_specs, hostile::damaged_event_line, endings.0);
            let mentions = hostile::render(&mention_specs, hostile::damaged_mention_line, endings.1);
            let (events, mentions) = (events.as_bytes(), mentions.as_bytes());
            let whole = cut_image((events, &[]), (mentions, &[]));
            for n in [2, 3, 7, 64] {
                let cuts = (even(events.len(), n), even(mentions.len(), n));
                let got = cut_image((events, &cuts.0), (mentions, &cuts.1));
                proptest::prop_assert!(got == whole, "{n} pieces: {:?} / {:?}", got.1, whole.1);
            }
            let mut cuts = cuts;
            cuts.sort_unstable();
            let at = |len: usize| cuts.iter().map(|&c| c % (len + 1)).collect::<Vec<_>>();
            let got = cut_image((events, &at(events.len())), (mentions, &at(mentions.len())));
            proptest::prop_assert!(got == whole, "cuts {cuts:?}");
        }
    }
}
