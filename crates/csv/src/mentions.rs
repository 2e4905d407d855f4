//! Parser for the 16-column GDELT 2.0 *Mentions* export.
//!
//! Column layout (GDELT 2.0 Mentions codebook):
//!
//! | idx | column |
//! |---|---|
//! | 0 | GlobalEventID |
//! | 1 | EventTimeDate (`YYYYMMDDHHMMSS`) |
//! | 2 | MentionTimeDate (`YYYYMMDDHHMMSS`) |
//! | 3 | MentionType |
//! | 4 | MentionSourceName |
//! | 5 | MentionIdentifier (URL) |
//! | 6 | SentenceID |
//! | 7 | Actor1CharOffset |
//! | 8 | Actor2CharOffset |
//! | 9 | ActionCharOffset |
//! | 10 | InRawText |
//! | 11 | Confidence |
//! | 12 | MentionDocLen |
//! | 13 | MentionDocTone |
//! | 14 | MentionDocTranslationInfo |
//! | 15 | Extras |

use crate::error::{CsvError, CsvResult};
use crate::fields::{
    for_each_line, parse_datetime, parse_f32, parse_str, parse_u64, parse_u8, wrong_width, Line,
    LineScratch, Separator,
};
use gdelt_model::ids::EventId;
use gdelt_model::mention::{MentionRecord, MentionType};
use gdelt_model::time::DateTime;

/// Number of columns in a GDELT 2.0 mentions line.
pub const MENTION_COLUMNS: usize = 16;

mod col {
    pub const GLOBAL_EVENT_ID: usize = 0;
    pub const EVENT_TIME: usize = 1;
    pub const MENTION_TIME: usize = 2;
    pub const MENTION_TYPE: usize = 3;
    pub const SOURCE_NAME: usize = 4;
    pub const IDENTIFIER: usize = 5;
    pub const CONFIDENCE: usize = 11;
    pub const DOC_TONE: usize = 13;
}

/// The projection of one mentions line, borrowing its text: what
/// [`MentionRecord`] holds, without owning a byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MentionRow<'a> {
    /// The event this article reports on.
    pub event_id: EventId,
    /// `EventTimeDate`.
    pub event_time: DateTime,
    /// `MentionTimeDate`.
    pub mention_time: DateTime,
    /// Document kind.
    pub mention_type: MentionType,
    /// Publisher domain (`MentionSourceName`).
    pub source_name: &'a str,
    /// Article URL (`MentionIdentifier`), raw: the store does not keep
    /// it, so it is not inspected.
    pub url: &'a [u8],
    /// GDELT's 0–100 confidence.
    pub confidence: u8,
    /// Document tone of the mentioning article.
    pub doc_tone: f32,
}

impl<'a> MentionRow<'a> {
    /// Decode the kept columns of one mentions line. The nine other
    /// columns are not looked at.
    // analyze: no_panic
    pub fn decode(line: &Line<'a, '_>) -> CsvResult<Self> {
        if line.width() != MENTION_COLUMNS {
            return Err(wrong_width("mentions", MENTION_COLUMNS, line));
        }
        let event_id = EventId(parse_u64(line.field(col::GLOBAL_EVENT_ID), "GlobalEventID")?);
        let event_time = parse_datetime(line.field(col::EVENT_TIME), "EventTimeDate")?;
        let mention_time = parse_datetime(line.field(col::MENTION_TIME), "MentionTimeDate")?;

        let mention_type_field = line.field(col::MENTION_TYPE);
        let mention_type = MentionType::from_u8(parse_u8(mention_type_field, "MentionType")?)
            .ok_or_else(|| CsvError::field("MentionType", mention_type_field, "expected 1-6"))?;

        let confidence_field = line.field(col::CONFIDENCE);
        let confidence = parse_u8(confidence_field, "Confidence")?;
        if confidence > 100 {
            return Err(CsvError::field("Confidence", confidence_field, "expected 0-100"));
        }

        Ok(MentionRow {
            event_id,
            event_time,
            mention_time,
            mention_type,
            source_name: parse_str(line.field(col::SOURCE_NAME), "MentionSourceName")?,
            url: line.field(col::IDENTIFIER),
            confidence,
            doc_tone: parse_f32(line.field(col::DOC_TONE), "MentionDocTone")?,
        })
    }

    /// The row view of an owned record.
    pub fn of(m: &'a MentionRecord) -> Self {
        MentionRow {
            event_id: m.event_id,
            event_time: m.event_time,
            mention_time: m.mention_time,
            mention_type: m.mention_type,
            source_name: &m.source_name,
            url: m.url.as_bytes(),
            confidence: m.confidence,
            doc_tone: m.doc_tone,
        }
    }

    /// The owned record (a URL that is not UTF-8 is kept with U+FFFD in
    /// place of the offending bytes).
    pub fn to_record(&self) -> MentionRecord {
        MentionRecord {
            event_id: self.event_id,
            event_time: self.event_time,
            mention_time: self.mention_time,
            mention_type: self.mention_type,
            source_name: self.source_name.to_owned(),
            url: String::from_utf8_lossy(self.url).into_owned(),
            confidence: self.confidence,
            doc_tone: self.doc_tone,
        }
    }
}

/// Parse one raw mentions line into a [`MentionRecord`].
pub fn parse_mention_line(line: &str) -> CsvResult<MentionRecord> {
    let mut scratch = LineScratch::default();
    MentionRow::decode(&Line::split(line.as_bytes(), Separator::Tab, &mut scratch))
        .map(|row| row.to_record())
}

/// Parse a whole mentions file — text or raw bytes, one record per line,
/// blank lines skipped — invoking `on_error` with the number and bytes of
/// each bad line and returning the good records.
pub fn parse_mentions<'a, T: AsRef<[u8]> + ?Sized>(
    text: &'a T,
    mut on_error: impl FnMut(usize, &'a [u8], CsvError),
) -> Vec<MentionRecord> {
    let mut out = Vec::new();
    for_each_line(text.as_ref(), Separator::Tab, |lineno, line| match MentionRow::decode(&line) {
        Ok(row) => out.push(row.to_record()),
        Err(err) => on_error(lineno, line.bytes(), err),
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_mention_line;

    fn raw_cols() -> Vec<String> {
        let mut cols = vec![String::new(); MENTION_COLUMNS];
        cols[col::GLOBAL_EVENT_ID] = "410000001".into();
        cols[col::EVENT_TIME] = "20150218063000".into();
        cols[col::MENTION_TIME] = "20150218073000".into();
        cols[col::MENTION_TYPE] = "1".into();
        cols[col::SOURCE_NAME] = "example.co.uk".into();
        cols[col::IDENTIFIER] = "https://example.co.uk/news/1".into();
        cols[6] = "3".into();
        cols[7] = "-1".into();
        cols[8] = "120".into();
        cols[9] = "85".into();
        cols[10] = "1".into();
        cols[col::CONFIDENCE] = "70".into();
        cols[12] = "2931".into();
        cols[col::DOC_TONE] = "-2.5".into();
        cols
    }

    #[test]
    fn parses_projection_fields() {
        let m = parse_mention_line(&raw_cols().join("\t")).unwrap();
        assert_eq!(m.event_id, EventId(410_000_001));
        assert_eq!(m.source_name, "example.co.uk");
        assert_eq!(m.mention_type, MentionType::Web);
        assert_eq!(m.confidence, 70);
        assert_eq!(m.publishing_delay().unwrap(), 4); // one hour
    }

    #[test]
    fn rejects_wrong_width() {
        assert!(matches!(
            parse_mention_line("1\t2"),
            Err(CsvError::WrongColumnCount { table: "mentions", .. })
        ));
    }

    #[test]
    fn rejects_bad_mention_type() {
        let mut cols = raw_cols();
        cols[col::MENTION_TYPE] = "9".into();
        assert!(parse_mention_line(&cols.join("\t")).is_err());
    }

    #[test]
    fn rejects_overlarge_confidence() {
        let mut cols = raw_cols();
        cols[col::CONFIDENCE] = "120".into();
        assert!(parse_mention_line(&cols.join("\t")).is_err());
    }

    #[test]
    fn rejects_bad_timestamp() {
        let mut cols = raw_cols();
        cols[col::MENTION_TIME] = "20150218256000".into();
        assert!(parse_mention_line(&cols.join("\t")).is_err());
    }

    #[test]
    fn rejects_stamps_that_are_not_fourteen_digits() {
        // Sixteen digits used to wrap, in a u32, into 2015-02-18 06:30.
        for stamp in ["4315117514063000", "020150218063000", "+20150218063000", "2015021806300"] {
            for column in [col::EVENT_TIME, col::MENTION_TIME] {
                let mut cols = raw_cols();
                cols[column] = stamp.into();
                let err = parse_mention_line(&cols.join("\t")).unwrap_err();
                assert!(err.to_string().contains("expected 14 digits"), "{stamp}: {err}");
            }
        }
    }

    #[test]
    fn round_trips_through_writer() {
        let m = parse_mention_line(&raw_cols().join("\t")).unwrap();
        let m2 = parse_mention_line(&write_mention_line(&m)).unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn parse_mentions_collects_errors() {
        let good = raw_cols().join("\t");
        let text = format!("bad\n{good}\n{good}\n");
        let mut n_err = 0;
        let ms = parse_mentions(&text, |_, _, _| n_err += 1);
        assert_eq!(ms.len(), 2);
        assert_eq!(n_err, 1);
    }
}
