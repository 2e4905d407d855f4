//! Data cleaning and validation.
//!
//! Converting GDELT to the binary format "requires cleaning and checking
//! the data" (paper §V); the problems found are reported in Table II:
//!
//! | problem | paper count |
//! |---|---|
//! | Malformed master-list entries | 53 |
//! | Missing archives | 8 |
//! | Missing event source URL | 1 |
//! | Event date in the future of its first article | 4 |
//!
//! [`Cleaner`] accumulates the same report while streaming records, and
//! additionally counts per-table parse failures so nothing is dropped
//! silently.

use crate::events::EventRow;
use crate::masterlist::{ArchiveKind, MasterList};
use crate::mentions::MentionRow;
use std::fmt;

/// The problem counters of Table II, plus parse-failure accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CleanReport {
    /// Malformed master-list lines.
    pub malformed_masterlist: u64,
    /// Archives missing from the 15-minute sequence.
    pub missing_archives: u64,
    /// Events with an empty `SOURCEURL`.
    pub missing_source_url: u64,
    /// Events whose recorded day postdates their `DATEADDED` capture.
    pub future_event_date: u64,
    /// Event lines that failed to parse.
    pub bad_event_lines: u64,
    /// Mention lines that failed to parse.
    pub bad_mention_lines: u64,
    /// Mentions whose scrape time precedes the event capture time.
    pub mention_before_event: u64,
    /// Mentions whose `EventTimeDate` is not their event's `DATEADDED`
    /// capture interval. They are kept; their delay counts from the
    /// event's capture, the one event time the store holds.
    pub inconsistent_event_time: u64,
}

impl CleanReport {
    /// Total problems across all classes.
    pub fn total(&self) -> u64 {
        self.malformed_masterlist
            + self.missing_archives
            + self.missing_source_url
            + self.future_event_date
            + self.bad_event_lines
            + self.bad_mention_lines
            + self.mention_before_event
            + self.inconsistent_event_time
    }

    /// Add `other`'s counts to these: the report of two texts from the
    /// reports of each.
    pub fn merge(&mut self, other: &CleanReport) {
        let CleanReport {
            malformed_masterlist,
            missing_archives,
            missing_source_url,
            future_event_date,
            bad_event_lines,
            bad_mention_lines,
            mention_before_event,
            inconsistent_event_time,
        } = other;
        self.malformed_masterlist += malformed_masterlist;
        self.missing_archives += missing_archives;
        self.missing_source_url += missing_source_url;
        self.future_event_date += future_event_date;
        self.bad_event_lines += bad_event_lines;
        self.bad_mention_lines += bad_mention_lines;
        self.mention_before_event += mention_before_event;
        self.inconsistent_event_time += inconsistent_event_time;
    }
}

impl fmt::Display for CleanReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Problems found during the dataset analysis")?;
        writeln!(f, "  Missformatted dataset master list entries  {}", self.malformed_masterlist)?;
        writeln!(f, "  Missing archives for dataset chunks        {}", self.missing_archives)?;
        writeln!(f, "  Missing event source URL                   {}", self.missing_source_url)?;
        writeln!(f, "  Event date in future of first article      {}", self.future_event_date)?;
        writeln!(f, "  Unparseable event lines                    {}", self.bad_event_lines)?;
        writeln!(f, "  Unparseable mention lines                  {}", self.bad_mention_lines)?;
        writeln!(f, "  Mentions scraped before event capture      {}", self.mention_before_event)?;
        write!(f, "  Mentions with inconsistent event time      {}", self.inconsistent_event_time)
    }
}

/// Streaming validator: feed it rows as they decode and it accumulates
/// a [`CleanReport`]. Cleaning never drops records for soft problems
/// (missing URL, odd dates) — the paper keeps them too and just reports —
/// but the `admit_*` methods return whether the record is usable at all.
#[derive(Debug, Default)]
pub struct Cleaner {
    report: CleanReport,
}

impl Cleaner {
    /// Fresh cleaner with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb master-list accounting (malformed lines + archive gaps).
    pub fn check_masterlist(&mut self, ml: &MasterList) {
        self.report.malformed_masterlist += ml.malformed;
        self.report.missing_archives += ml.missing_intervals(ArchiveKind::Events).len() as u64
            + ml.missing_intervals(ArchiveKind::Mentions).len() as u64;
    }

    /// Record a parse failure on the events table.
    pub fn bad_event_line(&mut self) {
        self.report.bad_event_lines += 1;
    }

    /// Record a parse failure on the mentions table.
    pub fn bad_mention_line(&mut self) {
        self.report.bad_mention_lines += 1;
    }

    /// Validate an event row. Always admits; counts soft problems.
    #[inline]
    pub fn admit_event(&mut self, e: &EventRow<'_>) -> bool {
        if e.source_url.is_empty() {
            self.report.missing_source_url += 1;
        }
        if e.day_in_future() {
            self.report.future_event_date += 1;
        }
        true
    }

    /// Validate a mention row. Always admits; counts soft problems.
    #[inline]
    pub fn admit_mention(&mut self, m: &MentionRow<'_>) -> bool {
        if m.mention_time < m.event_time {
            self.report.mention_before_event += 1;
        }
        true
    }

    /// Record `n` joined mentions whose own event time is not their
    /// event's capture interval.
    pub fn inconsistent_event_times(&mut self, n: u64) {
        self.report.inconsistent_event_time += n;
    }

    /// Count the problems another cleaner found, in `report`.
    pub fn absorb(&mut self, report: &CleanReport) {
        self.report.merge(report);
    }

    /// Finish and take the report.
    pub fn finish(self) -> CleanReport {
        self.report
    }

    /// Peek at the report so far.
    pub fn report(&self) -> &CleanReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
    use gdelt_model::event::{ActionGeo, EventRecord};
    use gdelt_model::ids::EventId;
    use gdelt_model::mention::{MentionRecord, MentionType};
    use gdelt_model::time::{DateTime, GDELT_EPOCH};

    fn event(url: &str, day_offset: i64) -> EventRecord {
        EventRecord {
            id: EventId(1),
            day: GDELT_EPOCH.add_days(day_offset),
            root: CameoRoot::new(1).unwrap(),
            event_code: "010".into(),
            actor1_country: String::new(),
            actor2_country: String::new(),
            quad_class: QuadClass::VerbalCooperation,
            goldstein: Goldstein::new(0.0).unwrap(),
            num_mentions: 1,
            num_sources: 1,
            num_articles: 1,
            avg_tone: 0.0,
            geo: ActionGeo::default(),
            date_added: DateTime::midnight(GDELT_EPOCH),
            source_url: url.into(),
        }
    }

    fn mention(event_h: u8, mention_h: u8) -> MentionRecord {
        MentionRecord {
            event_id: EventId(1),
            event_time: DateTime::new(GDELT_EPOCH, event_h, 0, 0).unwrap(),
            mention_time: DateTime::new(GDELT_EPOCH, mention_h, 0, 0).unwrap(),
            mention_type: MentionType::Web,
            source_name: "a.com".into(),
            url: "https://a.com/1".into(),
            confidence: 50,
            doc_tone: 0.0,
        }
    }

    #[test]
    fn counts_missing_url_and_future_date() {
        let mut c = Cleaner::new();
        assert!(c.admit_event(&EventRow::of(&event("https://ok", 0))));
        assert!(c.admit_event(&EventRow::of(&event("", 0))));
        assert!(c.admit_event(&EventRow::of(&event("https://ok", 5))));
        let r = c.finish();
        assert_eq!(r.missing_source_url, 1);
        assert_eq!(r.future_event_date, 1);
        assert_eq!(r.total(), 2);
    }

    #[test]
    fn counts_pre_event_mentions() {
        let mut c = Cleaner::new();
        assert!(c.admit_mention(&MentionRow::of(&mention(6, 8))));
        assert!(c.admit_mention(&MentionRow::of(&mention(8, 6))));
        assert_eq!(c.report().mention_before_event, 1);
    }

    #[test]
    fn counts_parse_failures() {
        let mut c = Cleaner::new();
        c.bad_event_line();
        c.bad_event_line();
        c.bad_mention_line();
        let r = c.finish();
        assert_eq!(r.bad_event_lines, 2);
        assert_eq!(r.bad_mention_lines, 1);
    }

    #[test]
    fn absorbs_masterlist_problems() {
        let md5 = "0123456789abcdef0123456789abcdef";
        let text = format!(
            "garbage\n\
             100 {md5} http://a/20150218230000.export.CSV.zip\n\
             100 {md5} http://a/20150218233000.export.CSV.zip\n"
        );
        let ml = MasterList::parse(&text);
        let mut c = Cleaner::new();
        c.check_masterlist(&ml);
        let r = c.finish();
        assert_eq!(r.malformed_masterlist, 1);
        assert_eq!(r.missing_archives, 1); // 23:15 missing between 23:00 and 23:30
    }

    #[test]
    fn merge_adds_every_counter() {
        let a = CleanReport {
            malformed_masterlist: 1,
            missing_archives: 2,
            missing_source_url: 3,
            future_event_date: 4,
            bad_event_lines: 5,
            bad_mention_lines: 6,
            mention_before_event: 7,
            inconsistent_event_time: 8,
        };
        let mut sum = a.clone();
        sum.merge(&a);
        assert_eq!(sum.total(), 2 * a.total());
        assert_eq!((sum.malformed_masterlist, sum.inconsistent_event_time), (2, 16));
        let mut c = Cleaner::new();
        c.bad_event_line();
        c.absorb(&a);
        assert_eq!(c.finish().bad_event_lines, 6);
    }

    #[test]
    fn display_lists_all_classes() {
        let r = CleanReport {
            malformed_masterlist: 53,
            missing_archives: 8,
            missing_source_url: 1,
            future_event_date: 4,
            ..Default::default()
        };
        let s = r.to_string();
        assert!(s.contains("53") && s.contains("8") && s.contains("master list"));
        assert_eq!(r.total(), 66);
    }
}
