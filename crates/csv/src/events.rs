//! Parser for the 61-column GDELT 2.0 *Events* export.
//!
//! Column layout (GDELT 2.0 Event codebook):
//!
//! | idx | column | idx | column |
//! |---|---|---|---|
//! | 0 | GlobalEventID | 29 | QuadClass |
//! | 1 | Day (SQLDATE) | 30 | GoldsteinScale |
//! | 2 | MonthYear | 31 | NumMentions |
//! | 3 | Year | 32 | NumSources |
//! | 4 | FractionDate | 33 | NumArticles |
//! | 5–14 | Actor1 (10 cols) | 34 | AvgTone |
//! | 15–24 | Actor2 (10 cols) | 35–42 | Actor1Geo (8 cols) |
//! | 25 | IsRootEvent | 43–50 | Actor2Geo (8 cols) |
//! | 26 | EventCode | 51–58 | ActionGeo (8 cols) |
//! | 27 | EventBaseCode | 59 | DATEADDED |
//! | 28 | EventRootCode | 60 | SOURCEURL |
//!
//! The system projects this into [`EventRecord`], which keeps exactly the
//! fields the paper's analyses touch.

use crate::error::{CsvError, CsvResult};
use crate::fields::{
    for_each_line, parse_date, parse_datetime, parse_f32, parse_opt_f32, parse_str, parse_u32,
    parse_u64, parse_u8, parse_u8_or_zero, wrong_width, Line, LineScratch, Separator,
};
use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
use gdelt_model::event::{ActionGeo, EventRecord, GeoType};
use gdelt_model::ids::EventId;
use gdelt_model::time::{Date, DateTime};

/// Number of columns in a GDELT 2.0 events line.
pub const EVENT_COLUMNS: usize = 61;

/// Column indexes used by the projection.
mod col {
    pub const GLOBAL_EVENT_ID: usize = 0;
    pub const DAY: usize = 1;
    pub const ACTOR1_COUNTRY: usize = 7;
    pub const ACTOR2_COUNTRY: usize = 17;
    pub const EVENT_CODE: usize = 26;
    pub const EVENT_ROOT_CODE: usize = 28;
    pub const QUAD_CLASS: usize = 29;
    pub const GOLDSTEIN: usize = 30;
    pub const NUM_MENTIONS: usize = 31;
    pub const NUM_SOURCES: usize = 32;
    pub const NUM_ARTICLES: usize = 33;
    pub const AVG_TONE: usize = 34;
    pub const ACTION_GEO_TYPE: usize = 51;
    pub const ACTION_GEO_COUNTRY: usize = 53;
    pub const ACTION_GEO_LAT: usize = 56;
    pub const ACTION_GEO_LON: usize = 57;
    pub const DATE_ADDED: usize = 59;
    pub const SOURCE_URL: usize = 60;
}

/// The projection of one events line, borrowing its text: what
/// [`EventRecord`] holds, without owning a byte. The text path stages
/// these straight into columns; [`EventRow::to_record`] is the owned
/// form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRow<'a> {
    /// GDELT `GlobalEventID`.
    pub id: EventId,
    /// `SQLDATE`.
    pub day: Date,
    /// CAMEO root category parsed from `EventRootCode`.
    pub root: CameoRoot,
    /// `EventCode`, raw: the store does not keep it, so it is not
    /// inspected.
    pub event_code: &'a [u8],
    /// `Actor1CountryCode`.
    pub actor1_country: &'a str,
    /// `Actor2CountryCode`.
    pub actor2_country: &'a str,
    /// GDELT's four-way rollup.
    pub quad_class: QuadClass,
    /// Goldstein impact score.
    pub goldstein: Goldstein,
    /// `NumMentions`.
    pub num_mentions: u32,
    /// `NumSources`.
    pub num_sources: u32,
    /// `NumArticles`.
    pub num_articles: u32,
    /// `AvgTone`.
    pub avg_tone: f32,
    /// `ActionGeo_Type`.
    pub geo_type: GeoType,
    /// `ActionGeo_CountryCode` (FIPS 10-4), empty if untagged.
    pub country_fips: &'a str,
    /// `ActionGeo_Lat`, if resolved.
    pub lat: Option<f32>,
    /// `ActionGeo_Long`, if resolved.
    pub lon: Option<f32>,
    /// `DATEADDED`.
    pub date_added: DateTime,
    /// `SOURCEURL`. May be empty — one of the Table II data problems.
    pub source_url: &'a str,
}

impl<'a> EventRow<'a> {
    /// Decode the kept columns of one events line. The 44 other columns
    /// are not looked at.
    // analyze: no_panic
    pub fn decode(line: &Line<'a, '_>) -> CsvResult<Self> {
        if line.width() != EVENT_COLUMNS {
            return Err(wrong_width("events", EVENT_COLUMNS, line));
        }
        let id = EventId(parse_u64(line.field(col::GLOBAL_EVENT_ID), "GlobalEventID")?);
        let day = parse_date(line.field(col::DAY), "Day")?;

        let root_raw = parse_u8(line.field(col::EVENT_ROOT_CODE), "EventRootCode")?;
        let root = CameoRoot::new(root_raw).map_err(CsvError::Model)?;

        let quad_raw = parse_u8(line.field(col::QUAD_CLASS), "QuadClass")?;
        let quad_class = QuadClass::from_u8(quad_raw).map_err(CsvError::Model)?;

        let goldstein = Goldstein::new(parse_f32(line.field(col::GOLDSTEIN), "GoldsteinScale")?)
            .map_err(CsvError::Model)?;

        let geo_type_field = line.field(col::ACTION_GEO_TYPE);
        let geo_type = GeoType::from_u8(parse_u8_or_zero(geo_type_field, "ActionGeo_Type")?)
            .ok_or_else(|| CsvError::field("ActionGeo_Type", geo_type_field, "expected 0-5"))?;

        let date_added = parse_datetime(line.field(col::DATE_ADDED), "DATEADDED")?;

        Ok(EventRow {
            id,
            day,
            root,
            event_code: line.field(col::EVENT_CODE),
            actor1_country: parse_str(line.field(col::ACTOR1_COUNTRY), "Actor1CountryCode")?,
            actor2_country: parse_str(line.field(col::ACTOR2_COUNTRY), "Actor2CountryCode")?,
            quad_class,
            goldstein,
            num_mentions: parse_u32(line.field(col::NUM_MENTIONS), "NumMentions")?,
            num_sources: parse_u32(line.field(col::NUM_SOURCES), "NumSources")?,
            num_articles: parse_u32(line.field(col::NUM_ARTICLES), "NumArticles")?,
            avg_tone: parse_f32(line.field(col::AVG_TONE), "AvgTone")?,
            geo_type,
            country_fips: parse_str(line.field(col::ACTION_GEO_COUNTRY), "ActionGeo_CountryCode")?,
            lat: parse_opt_f32(line.field(col::ACTION_GEO_LAT), "ActionGeo_Lat")?,
            lon: parse_opt_f32(line.field(col::ACTION_GEO_LON), "ActionGeo_Long")?,
            date_added,
            source_url: parse_str(line.field(col::SOURCE_URL), "SOURCEURL")?,
        })
    }

    /// The row view of an owned record.
    pub fn of(e: &'a EventRecord) -> Self {
        EventRow {
            id: e.id,
            day: e.day,
            root: e.root,
            event_code: e.event_code.as_bytes(),
            actor1_country: &e.actor1_country,
            actor2_country: &e.actor2_country,
            quad_class: e.quad_class,
            goldstein: e.goldstein,
            num_mentions: e.num_mentions,
            num_sources: e.num_sources,
            num_articles: e.num_articles,
            avg_tone: e.avg_tone,
            geo_type: e.geo.geo_type,
            country_fips: &e.geo.country_fips,
            lat: e.geo.lat,
            lon: e.geo.lon,
            date_added: e.date_added,
            source_url: &e.source_url,
        }
    }

    /// The owned record (an `EventCode` that is not UTF-8 is kept with
    /// U+FFFD in place of the offending bytes).
    pub fn to_record(&self) -> EventRecord {
        EventRecord {
            id: self.id,
            day: self.day,
            root: self.root,
            event_code: String::from_utf8_lossy(self.event_code).into_owned(),
            actor1_country: self.actor1_country.to_owned(),
            actor2_country: self.actor2_country.to_owned(),
            quad_class: self.quad_class,
            goldstein: self.goldstein,
            num_mentions: self.num_mentions,
            num_sources: self.num_sources,
            num_articles: self.num_articles,
            avg_tone: self.avg_tone,
            geo: ActionGeo {
                geo_type: self.geo_type,
                country_fips: self.country_fips.to_owned(),
                lat: self.lat,
                lon: self.lon,
            },
            date_added: self.date_added,
            source_url: self.source_url.to_owned(),
        }
    }

    /// True if the event has any geographic tag
    /// ([`ActionGeo::is_tagged`]).
    #[inline]
    pub fn is_geo_tagged(&self) -> bool {
        self.geo_type != GeoType::None && !self.country_fips.is_empty()
    }

    /// Whether the recorded event day lies after the day it was added
    /// ([`EventRecord::day_in_future`]).
    #[inline]
    pub fn day_in_future(&self) -> bool {
        self.day.to_days() > self.date_added.date.to_days()
    }
}

/// Parse one raw events line into an [`EventRecord`].
pub fn parse_event_line(line: &str) -> CsvResult<EventRecord> {
    let mut scratch = LineScratch::default();
    EventRow::decode(&Line::split(line.as_bytes(), Separator::Tab, &mut scratch))
        .map(|row| row.to_record())
}

/// Parse a whole events file — text or raw bytes, one record per line,
/// blank lines skipped — invoking `on_error` with the number and bytes of
/// each bad line and returning the good records.
pub fn parse_events<'a, T: AsRef<[u8]> + ?Sized>(
    text: &'a T,
    mut on_error: impl FnMut(usize, &'a [u8], CsvError),
) -> Vec<EventRecord> {
    let mut out = Vec::new();
    for_each_line(text.as_ref(), Separator::Tab, |lineno, line| match EventRow::decode(&line) {
        Ok(row) => out.push(row.to_record()),
        Err(err) => on_error(lineno, line.bytes(), err),
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_event_line;
    use gdelt_model::time::GDELT_EPOCH;

    /// Column vector for a synthetic raw line with the projection columns
    /// populated; tests mutate individual columns before joining.
    fn raw_cols() -> Vec<String> {
        let mut cols = vec![String::new(); EVENT_COLUMNS];
        cols[col::GLOBAL_EVENT_ID] = "410000001".into();
        cols[col::DAY] = "20150218".into();
        cols[2] = "201502".into();
        cols[3] = "2015".into();
        cols[4] = "2015.1315".into();
        cols[col::ACTOR1_COUNTRY] = "USA".into();
        cols[col::ACTOR2_COUNTRY] = "GBR".into();
        cols[25] = "1".into();
        cols[col::EVENT_CODE] = "190".into();
        cols[27] = "190".into();
        cols[col::EVENT_ROOT_CODE] = "19".into();
        cols[col::QUAD_CLASS] = "4".into();
        cols[col::GOLDSTEIN] = "-10.0".into();
        cols[col::NUM_MENTIONS] = "12".into();
        cols[col::NUM_SOURCES] = "4".into();
        cols[col::NUM_ARTICLES] = "10".into();
        cols[col::AVG_TONE] = "-4.25".into();
        cols[col::ACTION_GEO_TYPE] = "1".into();
        cols[col::ACTION_GEO_COUNTRY] = "US".into();
        cols[col::ACTION_GEO_LAT] = "28.54".into();
        cols[col::ACTION_GEO_LON] = "-81.38".into();
        cols[col::DATE_ADDED] = "20150218063000".into();
        cols[col::SOURCE_URL] = "https://example.com/article".into();
        cols
    }

    fn raw_line() -> String {
        raw_cols().join("\t")
    }

    #[test]
    fn parses_projection_fields() {
        let e = parse_event_line(&raw_line()).unwrap();
        assert_eq!(e.id, EventId(410_000_001));
        assert_eq!(e.day, GDELT_EPOCH);
        assert_eq!(e.root, CameoRoot::new(19).unwrap());
        assert_eq!(e.quad_class, QuadClass::MaterialConflict);
        assert_eq!(e.num_articles, 10);
        assert_eq!(e.geo.country_fips, "US");
        assert_eq!(e.geo.lat, Some(28.54));
        assert_eq!(e.date_added.hour, 6);
        assert_eq!(e.source_url, "https://example.com/article");
    }

    #[test]
    fn empty_geo_is_untagged() {
        let mut cols = raw_cols();
        cols[col::ACTION_GEO_TYPE].clear();
        cols[col::ACTION_GEO_COUNTRY].clear();
        cols[col::ACTION_GEO_LAT].clear();
        cols[col::ACTION_GEO_LON].clear();
        let line = cols.join("\t");
        let e = parse_event_line(&line).unwrap();
        assert!(!e.geo.is_tagged());
        assert_eq!(e.geo.lat, None);
    }

    #[test]
    fn rejects_wrong_width() {
        assert!(matches!(
            parse_event_line("1\t2\t3"),
            Err(CsvError::WrongColumnCount { table: "events", .. })
        ));
    }

    #[test]
    fn rejects_bad_quad_class() {
        let mut cols = raw_cols();
        cols[col::QUAD_CLASS] = "7".into();
        assert!(parse_event_line(&cols.join("\t")).is_err());
    }

    #[test]
    fn rejects_bad_date() {
        let mut cols = raw_cols();
        cols[col::DAY] = "20159999".into();
        assert!(parse_event_line(&cols.join("\t")).is_err());
    }

    #[test]
    fn rejects_date_fields_of_the_wrong_length() {
        // A nine-digit Day used to be the year 99999, stored as 1695 Q1.
        for (column, value) in [
            (col::DAY, "999990101"),
            (col::DAY, "+20150218"),
            (col::DAY, "2015021"),
            (col::DATE_ADDED, "4315117514063000"),
            (col::DATE_ADDED, "+20150218063000"),
            (col::DATE_ADDED, "020150218063000"),
        ] {
            let mut cols = raw_cols();
            cols[column] = value.into();
            let err = parse_event_line(&cols.join("\t")).unwrap_err();
            assert!(err.to_string().contains(" digits ("), "{value}: {err}");
        }
    }

    #[test]
    fn round_trips_through_writer() {
        let e = parse_event_line(&raw_line()).unwrap();
        let written = write_event_line(&e);
        let e2 = parse_event_line(&written).unwrap();
        assert_eq!(e, e2);
    }

    #[test]
    fn parse_events_collects_errors() {
        let good = raw_line();
        let text = format!("{good}\nbroken line\n\n{good}\n");
        let mut errors = Vec::new();
        let events = parse_events(&text, |lineno, _, err| errors.push((lineno, err)));
        assert_eq!(events.len(), 2);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].0, 2);
    }
}
