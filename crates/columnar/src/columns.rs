//! The store's schema: its logical columns, declared once, and sets of
//! them.
//!
//! A [`Column`] is one fixed-width column, one string pool (its bytes
//! and offsets) or the whole source directory; its name is the store
//! section it is written to (a pool's sections add `.bytes` /
//! `.offsets`, the directory's start with `sources.`). `SCHEMA` declares
//! each one's name and [`Layout`] in store order, for every reader and
//! writer of the store to loop over; each table's `FIXED` list is where a
//! fixed-width column meets its struct field. A [`ColumnSet`] is a
//! bitset of columns: what a query reads (`Query::columns` in
//! `gdelt-engine`), what a [`Dataset`](crate::Dataset) holds and what
//! [`binfmt::load_projected`](crate::binfmt::load_projected) reads off
//! disk. [`ColumnSet::KEYS`] are held by every dataset.

use std::fmt;

/// One logical column of the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)] // each variant is named by its store section
pub enum Column {
    EventsId,
    EventsDay,
    EventsCapture,
    EventsQuarter,
    EventsQuad,
    EventsActor1,
    EventsActor2,
    EventsAvgTone,
    EventsCountry,
    /// The source URL pool: row `i`'s URL is string `i`.
    EventsUrls,
    MentionsEventRow,
    /// The event id of each orphan mention (of an event the events
    /// table lacks), in the orphan tail's row order.
    MentionsOrphanId,
    /// The `EventTimeDate` interval of each orphan mention, likewise.
    MentionsOrphanInterval,
    MentionsMentionInterval,
    MentionsDelay,
    MentionsSource,
    MentionsQuarter,
    MentionsMentionType,
    MentionsConfidence,
    MentionsDocTone,
    /// The source directory: interned names and their countries.
    Sources,
    /// The event → mentions CSR offsets.
    IndexOffsets,
}

/// How a column is stored: its row space and element width, the
/// declaration every reader, writer and assembler of the store loops
/// over. A fixed-width column's one section is named like the column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One element of this many bytes per event row.
    Event(usize),
    /// One element of this many bytes per mention row.
    Mention(usize),
    /// One element of this many bytes per mention of the orphan tail.
    Orphan(usize),
    /// One string per event row: sections `<name>.bytes` and
    /// `<name>.offsets` (one `u64` per event row plus one).
    Pool,
    /// One `u64` per event row plus one: a CSR offsets array.
    Offsets,
    /// Not row-addressed: sections `<name>.*` that no partition owns.
    Global,
}

/// The store's schema, in store order: each column's section name and
/// layout. The one place a column is declared.
const SCHEMA: [(Column, &str, Layout); 22] = {
    use Column::*;
    use Layout::*;
    [
        (EventsId, "events.id", Event(8)),
        (EventsDay, "events.day", Event(4)),
        (EventsCapture, "events.capture", Event(4)),
        (EventsQuarter, "events.quarter", Event(2)),
        (EventsQuad, "events.quad", Event(1)),
        (EventsActor1, "events.actor1", Event(2)),
        (EventsActor2, "events.actor2", Event(2)),
        (EventsAvgTone, "events.avg_tone", Event(4)),
        (EventsCountry, "events.country", Event(2)),
        (EventsUrls, "events.urls", Pool),
        (MentionsEventRow, "mentions.event_row", Mention(4)),
        (MentionsOrphanId, "mentions.orphan_id", Orphan(8)),
        (MentionsOrphanInterval, "mentions.orphan_interval", Orphan(4)),
        (MentionsMentionInterval, "mentions.mention_interval", Mention(4)),
        (MentionsDelay, "mentions.delay", Mention(4)),
        (MentionsSource, "mentions.source", Mention(4)),
        (MentionsQuarter, "mentions.quarter", Mention(2)),
        (MentionsMentionType, "mentions.mention_type", Mention(1)),
        (MentionsConfidence, "mentions.confidence", Mention(1)),
        (MentionsDocTone, "mentions.doc_tone", Mention(4)),
        (Sources, "sources", Global),
        (IndexOffsets, "index.offsets", Offsets),
    ]
};

impl Column {
    /// Every column, in store order.
    pub const ALL: [Column; 22] = {
        let mut all = [Column::EventsId; 22];
        let mut i = 0;
        while i < all.len() {
            all[i] = SCHEMA[i].0;
            // `name` and `layout` index the schema by discriminant.
            assert!(all[i] as usize == i, "SCHEMA out of variant order");
            i += 1;
        }
        all
    };

    /// The column's name: its store section, or the prefix of its
    /// sections.
    pub const fn name(self) -> &'static str {
        SCHEMA[self as usize].1
    }

    /// How the column is stored.
    pub const fn layout(self) -> Layout {
        SCHEMA[self as usize].2
    }

    /// The column a store section belongs to: the one named like it,
    /// or whose name is its prefix up to a `.` (`events.urls.bytes`,
    /// `sources.country`). `None` for sections that are no column
    /// (`partitions.meta`, or one a later writer added).
    pub fn of_section(section: &str) -> Option<Column> {
        Column::ALL.into_iter().find(|c| {
            section
                .strip_prefix(c.name())
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
        })
    }

    const fn bit(self) -> u32 {
        1 << self as u8
    }
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of [`Column`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSet(u32);

impl ColumnSet {
    /// No column.
    pub const EMPTY: ColumnSet = ColumnSet(0);
    /// Every column: what a full load or a build holds.
    pub const ALL: ColumnSet = ColumnSet::of(&Column::ALL);
    /// The columns every dataset holds, projected or not: `events.id`
    /// and `mentions.event_row` set the tables' lengths and are, with
    /// the CSR offsets, the join; the orphan ids re-join orphan mentions
    /// on append; the source directory sizes every per-source answer.
    pub const KEYS: ColumnSet = ColumnSet::of(&[
        Column::EventsId,
        Column::MentionsEventRow,
        Column::MentionsOrphanId,
        Column::IndexOffsets,
        Column::Sources,
    ]);

    /// The set of `columns`.
    pub const fn of(columns: &[Column]) -> ColumnSet {
        let mut bits = 0;
        let mut i = 0;
        while i < columns.len() {
            bits |= columns[i].bit();
            i += 1;
        }
        ColumnSet(bits)
    }

    /// Columns in either set.
    pub const fn union(self, other: ColumnSet) -> ColumnSet {
        ColumnSet(self.0 | other.0)
    }

    /// Columns in both sets.
    pub const fn intersection(self, other: ColumnSet) -> ColumnSet {
        ColumnSet(self.0 & other.0)
    }

    /// Columns of `self` not in `other`.
    pub const fn difference(self, other: ColumnSet) -> ColumnSet {
        ColumnSet(self.0 & !other.0)
    }

    /// True when `c` is in the set.
    pub const fn contains(self, c: Column) -> bool {
        self.0 & c.bit() != 0
    }

    /// True when every column of `other` is in the set.
    pub const fn contains_all(self, other: ColumnSet) -> bool {
        other.0 & !self.0 == 0
    }

    /// True when the set holds no column.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of columns in the set.
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The columns of the set, in store order.
    pub fn iter(self) -> impl Iterator<Item = Column> {
        Column::ALL.into_iter().filter(move |&c| self.contains(c))
    }

    /// What a dataset asked to hold this set holds: the set and the
    /// [`KEYS`](Self::KEYS).
    pub const fn to_hold(self) -> ColumnSet {
        self.union(ColumnSet::KEYS)
    }

    /// True when store section `section` is read under this set: its
    /// column is in it, or it is no column at all.
    pub fn reads_section(self, section: &str) -> bool {
        Column::of_section(section).is_none_or(|c| self.contains(c))
    }
}

/// The column names, comma-separated.
impl fmt::Display for ColumnSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(c.name())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_store_section_has_its_column() {
        let sections = [
            ("events.urls.bytes", Some(Column::EventsUrls)),
            ("events.urls.offsets", Some(Column::EventsUrls)),
            ("mentions.orphan_id", Some(Column::MentionsOrphanId)),
            ("mentions.orphan_interval", Some(Column::MentionsOrphanInterval)),
            ("sources.names.bytes", Some(Column::Sources)),
            ("sources.country", Some(Column::Sources)),
            ("index.offsets", Some(Column::IndexOffsets)),
            ("partitions.meta", None),
            ("events.idx", None),
        ];
        for (section, column) in sections {
            assert_eq!(Column::of_section(section), column, "{section}");
        }
        for c in Column::ALL {
            assert_eq!(Column::of_section(c.name()), Some(c));
        }
    }

    #[test]
    fn set_algebra_and_display() {
        let s = ColumnSet::of(&[Column::MentionsDelay, Column::EventsQuarter]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.to_string(), "events.quarter, mentions.delay");
        assert!(ColumnSet::ALL.contains_all(s) && !s.contains_all(ColumnSet::ALL));
        assert_eq!(s.union(ColumnSet::KEYS).difference(ColumnSet::KEYS), s);
        assert_eq!(ColumnSet::ALL.len(), Column::ALL.len());
        assert_eq!(ColumnSet::ALL.iter().collect::<Vec<_>>(), Column::ALL);
        assert!(s.intersection(ColumnSet::KEYS).is_empty());
        assert!(s.reads_section("partitions.meta") && !s.reads_section("events.day"));
        let urls = ColumnSet::of(&[Column::EventsUrls]).to_hold();
        assert_eq!(urls.difference(ColumnSet::KEYS), ColumnSet::of(&[Column::EventsUrls]));
    }
}
