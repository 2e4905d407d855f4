//! The event→mentions CSR adjacency.
//!
//! Co-reporting and follow-reporting both iterate "all articles of one
//! event" for every event. With mentions stored grouped by event row,
//! a single offsets array turns that into a contiguous slice per event —
//! the core of the paper's "indexed" binary format. Within an event the
//! mentions are sorted by scrape interval, so follow-reporting (who
//! published first) is a linear walk.

use crate::aligned::AlignedBuf;
use crate::table::{MentionsTable, NO_EVENT_ROW};

/// CSR offsets: `offsets[i]..offsets[i+1]` are the mention rows of event
/// row `i`. Length is `n_events + 1`. Mentions of unknown events (if any)
/// lie past `offsets[n_events]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventIndex {
    /// Offset array, ascending, `len = n_events + 1` (empty when the
    /// dataset is empty).
    pub offsets: AlignedBuf<u64>,
}

impl EventIndex {
    /// Build from a mentions table already grouped by `event_row`
    /// (unknowns last), for `n_events` event rows.
    // analyze: no_panic
    pub fn build(n_events: usize, mentions: &MentionsTable) -> Self {
        let mut offsets = AlignedBuf::new();
        offsets.resize(n_events + 1, 0u64);
        // Count per event row.
        for &er in mentions.event_row.iter() {
            if er != NO_EVENT_ROW {
                // analyze: allow(panic_path): grouped tables carry event rows < n_events
                offsets[er as usize + 1] += 1;
            }
        }
        // Prefix sum.
        for i in 1..offsets.len() {
            // analyze: allow(panic_path): 1 ≤ i < offsets.len(), so i - 1 and i are in bounds
            offsets[i] += offsets[i - 1];
        }
        EventIndex { offsets }
    }

    /// Number of events covered.
    #[inline]
    pub fn n_events(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Mention-row range of event row `i`.
    // analyze: no_panic
    #[inline]
    pub fn range(&self, event_row: usize) -> std::ops::Range<usize> {
        // analyze: allow(panic_path): event_row < n_events caller contract; offsets.len() = n_events + 1
        self.offsets[event_row] as usize..self.offsets[event_row + 1] as usize
    }

    /// Number of mentions of event row `i`.
    // analyze: no_panic
    #[inline]
    pub fn degree(&self, event_row: usize) -> usize {
        // analyze: allow(panic_path): event_row < n_events caller contract; offsets.len() = n_events + 1
        (self.offsets[event_row + 1] - self.offsets[event_row]) as usize
    }

    /// Total mentions covered by the index (excludes unknown-event rows).
    #[inline]
    pub fn total_mentions(&self) -> u64 {
        self.offsets.last().copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Dataset;

    /// Minimal mentions table with given (event_row, interval) pairs,
    /// of events captured at interval 0; an orphan's event is event
    /// 1 000 000, captured when it is scraped.
    fn mentions(rows: &[(u32, u32)]) -> MentionsTable {
        let mut m = MentionsTable::default();
        for &(er, iv) in rows {
            m.event_row.push(er);
            if er == NO_EVENT_ROW {
                m.orphan_id.push(1_000_000);
                m.orphan_interval.push(iv);
            }
            m.mention_interval.push(iv);
            m.delay.push(if er == NO_EVENT_ROW { 0 } else { iv });
            m.source.push(0);
            m.quarter.push(0);
            m.mention_type.push(1);
            m.confidence.push(50);
            m.doc_tone.push(0.0);
        }
        m
    }

    /// `n_events` events with ids `0..n_events` and one source around
    /// `mentions`, indexed by [`EventIndex::build`].
    fn dataset(n_events: u32, mentions: MentionsTable) -> Dataset {
        let mut d = Dataset { mentions, ..Dataset::default() };
        for id in 0..n_events {
            d.events.push_test_row(u64::from(id));
        }
        d.sources.names.intern("s");
        d.sources.country.push(0);
        d.event_index = EventIndex::build(n_events as usize, &d.mentions);
        d
    }

    #[test]
    fn builds_ranges_for_grouped_mentions() {
        // Event 0: 2 mentions; event 1: none; event 2: 3 mentions.
        let d = dataset(3, mentions(&[(0, 5), (0, 9), (2, 1), (2, 2), (2, 3)]));
        let idx = &d.event_index;
        assert_eq!(idx.range(0), 0..2);
        assert_eq!(idx.range(1), 2..2);
        assert_eq!(idx.range(2), 2..5);
        assert_eq!(idx.degree(0), 2);
        assert_eq!(idx.degree(1), 0);
        assert_eq!(idx.total_mentions(), 5);
        assert_eq!(idx.n_events(), 3);
        assert_eq!(d.validate(), Ok(()));
    }

    #[test]
    fn unknown_event_rows_excluded() {
        let d = dataset(1, mentions(&[(0, 5), (NO_EVENT_ROW, 1), (NO_EVENT_ROW, 2)]));
        assert_eq!(d.event_index.range(0), 0..1);
        assert_eq!(d.event_index.total_mentions(), 1);
        assert_eq!(d.validate(), Ok(()));
    }

    #[test]
    fn validate_catches_misgrouped_rows() {
        // Mentions claim grouping (1, 0) but index built for grouped data.
        let d = dataset(2, mentions(&[(1, 5), (0, 9)]));
        let err = d.validate().unwrap_err();
        assert!(err.contains("mentions.grouping") && err.contains("index.ranges"), "{err}");
    }

    #[test]
    fn validate_catches_a_range_holding_a_foreign_row() {
        // Grouped and joined, but the index hands event 0's row to event 1.
        let mut d = dataset(2, mentions(&[(0, 5), (1, 9)]));
        d.event_index.offsets.as_mut_slice()[1] = 0;
        let err = d.validate().unwrap_err();
        assert!(err.contains("index.ranges"), "{err}");
    }

    #[test]
    fn validate_catches_a_known_row_past_the_index() {
        let mut d = dataset(1, mentions(&[(0, 5), (0, 9)]));
        d.event_index.offsets.as_mut_slice()[1] = 1;
        let err = d.validate().unwrap_err();
        assert!(err.contains("index.coverage"), "{err}");
    }

    #[test]
    fn validate_catches_wrong_length() {
        let mut d = dataset(1, mentions(&[(0, 1)]));
        d.event_index = EventIndex { offsets: (&[0, 1, 1][..]).into() };
        let err = d.validate().unwrap_err();
        assert!(err.contains("index.shape"), "{err}");
    }

    #[test]
    fn empty_index_for_empty_dataset() {
        let idx = EventIndex::default();
        assert_eq!(idx.n_events(), 0);
        assert_eq!(idx.total_mentions(), 0);
        assert_eq!(Dataset::default().validate(), Ok(()));
    }
}
