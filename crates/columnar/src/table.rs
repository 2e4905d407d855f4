//! The columnar Events and Mentions tables and the source directory.
//!
//! Layout mirrors the paper's indexed binary format: every field some
//! consumer reads is a fixed-width column; all text is dictionary-encoded
//! (source names) or pooled (event source URLs). Events are stored sorted
//! by `GlobalEventID`; mentions are stored grouped by their event's row
//! (and by scrape time within an event), which makes the co-/follow-
//! reporting scans contiguous.
//!
//! Nothing the join already implies is stored twice: a joined mention's
//! event id and event time are its event's `id` and `capture`, and row
//! `i`'s URL is string `i` of the pool. Only the *orphan tail* — the
//! mentions of events the table lacks, sorted last — keeps its event id
//! and time, in side columns as long as the tail.

use crate::aligned::{AlignedBuf, Scalar};
use crate::columns::{Column, ColumnSet, Layout};
use crate::derived::{quarter_span_of, Derived, SourceQuarters};
use crate::index::EventIndex;
use crate::partition::{cores, fork_join, fork_pieces};
use crate::strings::{StringDict, StringPool};
use gdelt_model::ids::{row_u32, CountryId, EventId, SourceId};
use gdelt_model::time::{CaptureInterval, Date};
use std::any::Any;
use std::io;
use std::ops::Range;

/// Sentinel for "mention's event not present in the events table".
pub const NO_EVENT_ROW: u32 = u32::MAX;

/// A fixed-width column with its element type erased: what the code
/// that loops over the schema does to every column alike, a whole
/// column (or run of one) per call. Implemented once, for [`AlignedBuf`].
pub(crate) trait FixedColumn {
    /// Number of elements.
    fn len(&self) -> usize;
    /// Resident payload bytes of the elements.
    fn byte_len(&self) -> usize;
    /// The little-endian store payload of the column.
    fn encode(&self) -> Vec<u8>;
    /// Become the column a store section's payload holds.
    fn decode(&mut self, payload: AlignedBuf<u8>, section: &str) -> io::Result<()>;
    /// Drop the buffer, leaving an empty column.
    fn clear(&mut self);
    /// Make room for `rows` more elements.
    fn reserve(&mut self, rows: usize);
    /// Append rows `rows` of `src`, a column of the same element type
    /// (one of another type contributes nothing).
    fn extend_rows(&mut self, src: &dyn FixedColumn, rows: Range<usize>);
    /// Become `src[i]` for every `i` of `rows` that `src`, a column of
    /// the same element type, holds.
    fn gather(&mut self, src: &dyn FixedColumn, rows: &[u32]);
    /// The column as [`Any`], for the typed view of a source column.
    fn as_any(&self) -> &dyn Any;
}

impl<T: Scalar> FixedColumn for AlignedBuf<T> {
    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn byte_len(&self) -> usize {
        std::mem::size_of_val(self.as_slice())
    }

    fn encode(&self) -> Vec<u8> {
        crate::binfmt::encode(self)
    }

    fn decode(&mut self, payload: AlignedBuf<u8>, section: &str) -> io::Result<()> {
        crate::binfmt::into_column(payload, section).map(|column| *self = column)
    }

    fn clear(&mut self) {
        *self = AlignedBuf::new();
    }

    fn reserve(&mut self, rows: usize) {
        AlignedBuf::reserve(self, rows);
    }

    fn extend_rows(&mut self, src: &dyn FixedColumn, rows: Range<usize>) {
        if let Some(src) = src.as_any().downcast_ref::<Self>() {
            self.extend_from_slice(src.chunk_view(rows.start, rows.end));
        }
    }

    fn gather(&mut self, src: &dyn FixedColumn, rows: &[u32]) {
        let Some(src) = src.as_any().downcast_ref::<Self>() else { return };
        let mut out = AlignedBuf::with_capacity(rows.len().min(src.len()));
        out.extend_from_iter(rows.iter().filter_map(|&i| src.get(i as usize).copied()));
        *self = out;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A table's fixed-width column: which one, and its buffer in a table
/// of type `T`, shared and mutable.
pub(crate) type Field<T> = (Column, fn(&T) -> &dyn FixedColumn, fn(&mut T) -> &mut dyn FixedColumn);

/// Columnar GDELT *Events* table, sorted by event id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventsTable {
    /// `GlobalEventID`, ascending.
    pub id: AlignedBuf<u64>,
    /// Event day packed as `YYYYMMDD`.
    pub day: AlignedBuf<u32>,
    /// Capture interval of `DATEADDED`: the event time of every mention
    /// of the event.
    pub capture: AlignedBuf<u32>,
    /// Linear quarter index of the event day (`Quarter::linear`).
    pub quarter: AlignedBuf<u16>,
    /// QuadClass (1–4).
    pub quad: AlignedBuf<u8>,
    /// Actor1 country resolved from its CAMEO code (`u16::MAX` =
    /// unresolved/absent).
    pub actor1: AlignedBuf<u16>,
    /// Actor2 country resolved from its CAMEO code (`u16::MAX` =
    /// unresolved/absent — most events are one-actor).
    pub actor2: AlignedBuf<u16>,
    /// Average tone.
    pub avg_tone: AlignedBuf<f32>,
    /// `ActionGeo` country resolved to a [`CountryId`] (`u16::MAX` =
    /// untagged/unknown).
    pub country: AlignedBuf<u16>,
    /// Source URL of each row: row `i`'s is string `i` (empty for the
    /// missing-URL records of Table II).
    pub urls: StringPool,
}

impl EventsTable {
    /// Number of events.
    #[inline]
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// True if the table holds no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// Binary-search the row of an event id.
    #[inline]
    pub fn row_of(&self, id: EventId) -> Option<usize> {
        self.id.binary_search(&id.0).ok()
    }

    /// Event id at `row`.
    #[inline]
    pub fn event_id(&self, row: usize) -> EventId {
        EventId(self.id[row])
    }

    /// URL string at `row`.
    #[inline]
    pub fn url(&self, row: usize) -> &str {
        self.urls.get(row_u32(row))
    }

    /// Country of the event action at `row`.
    #[inline]
    pub fn country_id(&self, row: usize) -> CountryId {
        CountryId(self.country[row])
    }

    /// The fixed-width columns, in store order.
    pub(crate) const FIXED: [Field<Self>; 9] = {
        use Column::*;
        [
            (EventsId, |t| &t.id, |t| &mut t.id),
            (EventsDay, |t| &t.day, |t| &mut t.day),
            (EventsCapture, |t| &t.capture, |t| &mut t.capture),
            (EventsQuarter, |t| &t.quarter, |t| &mut t.quarter),
            (EventsQuad, |t| &t.quad, |t| &mut t.quad),
            (EventsActor1, |t| &t.actor1, |t| &mut t.actor1),
            (EventsActor2, |t| &t.actor2, |t| &mut t.actor2),
            (EventsAvgTone, |t| &t.avg_tone, |t| &mut t.avg_tone),
            (EventsCountry, |t| &t.country, |t| &mut t.country),
        ]
    };

    /// Every column but `id`, which sets the table's length the others
    /// must match (when held), with its length.
    pub(crate) fn column_lens(&self) -> impl Iterator<Item = (Column, usize)> + '_ {
        let fixed = Self::FIXED.iter().filter(|(c, ..)| *c != Column::EventsId);
        let urls = (Column::EventsUrls, self.urls.len());
        fixed.map(|(c, get, _)| (*c, get(self).len())).chain([urls])
    }

    /// The table of rows `runs` of their tables, in that order — with
    /// [`MentionsTable::from_runs`], the one way a table is assembled
    /// from existing tables. Only the `held` columns are copied (every
    /// run's table holds them), each reserved once at its final length
    /// and copied run by run, a run's URLs as one byte range.
    pub(crate) fn from_runs(runs: &[(&EventsTable, Range<usize>)], held: ColumnSet) -> EventsTable {
        let rows: usize = runs.iter().map(|(_, rows)| rows.len()).sum();
        let mut t = EventsTable::default();
        for (_, get, get_mut) in Self::FIXED.iter().filter(|(c, ..)| held.contains(*c)) {
            let col = get_mut(&mut t);
            col.reserve(rows);
            for (src, r) in runs {
                col.extend_rows(get(src), r.clone());
            }
        }
        if held.contains(Column::EventsUrls) {
            let url_bytes = runs.iter().map(|(src, r)| src.urls.bytes_in(r.clone())).sum();
            t.urls.reserve(rows, url_bytes);
            for (src, r) in runs {
                t.urls.extend_range(&src.urls, r.clone());
            }
        }
        t
    }
}

/// How a run of mentions' `event_row` values change on their way into
/// an assembled table ([`MentionsTable::from_runs`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum EventRows<'a> {
    /// The events the run joins moved as one block: event row `from + k`
    /// becomes `to + k`. [`NO_EVENT_ROW`] stays as it is, and so does
    /// every row's delay.
    Shift {
        /// First event row of the block in the source table.
        from: u32,
        /// Its row in the assembled table.
        to: u32,
    },
    /// The new value of each row of the run, in order. A row it joins
    /// to an event gets its delay derived anew from that event's
    /// capture: the event it joined before, if any, may be another one.
    Given(&'a [u32]),
}

/// A run of consecutive rows of a mentions table, and how its
/// references change in the table being assembled.
#[derive(Debug, Clone)]
pub(crate) struct MentionRun<'a> {
    /// The table the rows come from.
    pub(crate) src: &'a MentionsTable,
    /// Rows of `src`.
    pub(crate) rows: Range<usize>,
    /// New `event_row` values.
    pub(crate) event_row: EventRows<'a>,
    /// `source` id map, for rows whose source directory is not the
    /// assembled table's (`None`: ids kept).
    pub(crate) source_map: Option<&'a [u32]>,
}

/// Columnar GDELT *Mentions* table, grouped by event row (then by scrape
/// interval within the event). Mentions of events absent from the events
/// table — the *orphan tail* — sort to the end with [`NO_EVENT_ROW`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MentionsTable {
    /// Row of the event reported on in the [`EventsTable`]
    /// ([`NO_EVENT_ROW`] if absent) — the join, computed at conversion
    /// time. The event's id and time are that row's `id` and `capture`.
    pub event_row: AlignedBuf<u32>,
    /// `GlobalEventID` of each orphan: entry `k` is row
    /// [`joined`](Self::joined)` + k`'s.
    pub orphan_id: AlignedBuf<u64>,
    /// Capture interval of each orphan's own `EventTimeDate`, indexed
    /// like `orphan_id`.
    pub orphan_interval: AlignedBuf<u32>,
    /// Capture interval the article was scraped (`MentionTimeDate`).
    pub mention_interval: AlignedBuf<u32>,
    /// Publishing delay in intervals (precomputed, saturating at 0):
    /// from the event's capture, or an orphan's own event time.
    pub delay: AlignedBuf<u32>,
    /// Publisher ([`SourceId`] into the source directory).
    pub source: AlignedBuf<u32>,
    /// Linear quarter index of the mention interval.
    pub quarter: AlignedBuf<u16>,
    /// `MentionType` (1–6).
    pub mention_type: AlignedBuf<u8>,
    /// GDELT confidence (0–100).
    pub confidence: AlignedBuf<u8>,
    /// Document tone.
    pub doc_tone: AlignedBuf<f32>,
}

impl MentionsTable {
    /// Number of mentions (articles).
    #[inline]
    pub fn len(&self) -> usize {
        self.event_row.len()
    }

    /// True if the table holds no mentions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.event_row.is_empty()
    }

    /// Rows of joined mentions, the ones before the orphan tail.
    #[inline]
    pub fn joined(&self) -> usize {
        self.len().saturating_sub(self.orphan_id.len())
    }

    /// Source id at `row`.
    #[inline]
    pub fn source_id(&self, row: usize) -> SourceId {
        SourceId(self.source[row])
    }

    /// The fixed-width columns, in store order.
    pub(crate) const FIXED: [Field<Self>; 10] = {
        use Column::*;
        [
            (MentionsEventRow, |t| &t.event_row, |t| &mut t.event_row),
            (MentionsOrphanId, |t| &t.orphan_id, |t| &mut t.orphan_id),
            (MentionsOrphanInterval, |t| &t.orphan_interval, |t| &mut t.orphan_interval),
            (MentionsMentionInterval, |t| &t.mention_interval, |t| &mut t.mention_interval),
            (MentionsDelay, |t| &t.delay, |t| &mut t.delay),
            (MentionsSource, |t| &t.source, |t| &mut t.source),
            (MentionsQuarter, |t| &t.quarter, |t| &mut t.quarter),
            (MentionsMentionType, |t| &t.mention_type, |t| &mut t.mention_type),
            (MentionsConfidence, |t| &t.confidence, |t| &mut t.confidence),
            (MentionsDocTone, |t| &t.doc_tone, |t| &mut t.doc_tone),
        ]
    };

    /// Every column as long as the table but `event_row`, which sets
    /// the length the others must match (when held), with its length.
    pub(crate) fn column_lens(&self) -> impl Iterator<Item = (Column, usize)> + '_ {
        let fixed = Self::FIXED.iter().filter(|(c, ..)| matches!(c.layout(), Layout::Mention(_)));
        fixed
            .filter(|(c, ..)| *c != Column::MentionsEventRow)
            .map(|(c, get, _)| (*c, get(self).len()))
    }

    /// The table of the mention `runs`, in that order, joined to events
    /// whose capture column is `capture`: every `held` column (every
    /// run's table holds them; the others stay empty) reserved once at
    /// its final length and copied run by run with `extend_from_slice`,
    /// except where a run's `event_row`, `source` or `delay` values
    /// change (one mapped pass over the run). A row that is an orphan
    /// in the result was one in its run's table, and brings its side
    /// columns along.
    pub(crate) fn from_runs(
        runs: &[MentionRun<'_>],
        held: ColumnSet,
        capture: &[u32],
    ) -> MentionsTable {
        let rows: usize = runs.iter().map(|run| run.rows.len()).sum();
        let mut t = MentionsTable::default();
        // Every held mention-row column is reserved once; those whose
        // values no run changes are copied here, run by run.
        const MAPPED: ColumnSet = ColumnSet::of(&[
            Column::MentionsEventRow,
            Column::MentionsSource,
            Column::MentionsDelay,
        ]);
        let per_row = |c: Column| held.contains(c) && matches!(c.layout(), Layout::Mention(_));
        for (c, get, get_mut) in Self::FIXED.iter().filter(|(c, ..)| per_row(*c)) {
            let col = get_mut(&mut t);
            col.reserve(rows);
            if MAPPED.contains(*c) {
                continue;
            }
            for run in runs {
                col.extend_rows(get(run.src), run.rows.clone());
            }
        }
        let (source_held, delay_held) =
            (held.contains(Column::MentionsSource), held.contains(Column::MentionsDelay));
        let orphan_interval_held = held.contains(Column::MentionsOrphanInterval);
        for run in runs {
            let (src, r) = (run.src, &run.rows);
            let event_row = src.event_row.chunk_view(r.start, r.end);
            match run.event_row {
                EventRows::Shift { from, to } if from == to => {
                    t.event_row.extend_from_slice(event_row)
                }
                EventRows::Shift { from, to } => {
                    t.event_row.extend_from_iter(event_row.iter().map(|&er| {
                        if er == NO_EVENT_ROW {
                            er
                        } else {
                            er.wrapping_sub(from).wrapping_add(to)
                        }
                    }))
                }
                EventRows::Given(rows) => t.event_row.extend_from_slice(rows),
            }
            let delay = src.delay.chunk_view(r.start, r.end);
            match run.event_row {
                _ if !delay_held => {}
                EventRows::Shift { .. } => t.delay.extend_from_slice(delay),
                EventRows::Given(rows) => {
                    let at = src.mention_interval.chunk_view(r.start, r.end);
                    t.delay.extend_from_iter(rows.iter().zip(at).zip(delay).map(
                        |((&er, &at), &d)| {
                            capture.get(er as usize).map_or(d, |&c| at.saturating_sub(c))
                        },
                    ));
                }
            }
            // The run's rows that stay orphans bring their side columns.
            let first_orphan = src.joined();
            for row in r.start.max(first_orphan)..r.end {
                if let EventRows::Given(rows) = run.event_row {
                    if rows[row - r.start] != NO_EVENT_ROW {
                        continue;
                    }
                }
                t.orphan_id.push(src.orphan_id[row - first_orphan]);
                if orphan_interval_held {
                    t.orphan_interval.push(src.orphan_interval[row - first_orphan]);
                }
            }
            if !source_held {
                continue;
            }
            let source = src.source.chunk_view(r.start, r.end);
            match run.source_map {
                None => t.source.extend_from_slice(source),
                Some(map) => t.source.extend_from_iter(
                    source.iter().map(|&s| map.get(s as usize).copied().unwrap_or(s)),
                ),
            }
        }
        t
    }
}

/// Directory of news sources: interned names plus per-source metadata.
#[derive(Debug, Clone, Default)]
pub struct SourceDirectory {
    /// Interned source domain names; [`SourceId`] = dictionary id.
    pub names: StringDict,
    /// Country assigned from the TLD (paper §VI-C heuristic);
    /// `u16::MAX` = unknown.
    pub country: AlignedBuf<u16>,
}

impl SourceDirectory {
    /// Number of distinct sources.
    #[inline]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no sources registered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Domain name of a source.
    #[inline]
    pub fn name(&self, id: SourceId) -> &str {
        self.names.get(id.0)
    }

    /// Country of a source.
    #[inline]
    pub fn country_id(&self, id: SourceId) -> CountryId {
        CountryId(self.country[id.index()])
    }

    /// Look a source up by domain name.
    #[inline]
    pub fn lookup(&self, name: &str) -> Option<SourceId> {
        self.names.lookup(name).map(SourceId)
    }
}

/// The complete in-memory dataset: both tables, the source directory and
/// the event→mentions adjacency. This is what the engine queries and what
/// the binary format serializes.
///
/// A dataset may be *projected* ([`Dataset::project`],
/// [`binfmt::load_projected`](crate::binfmt::load_projected)): it then
/// holds only `columns` — always a superset of [`ColumnSet::KEYS`] —
/// and every other column is an empty buffer.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Events table (sorted by id).
    pub events: EventsTable,
    /// Mentions table (grouped by event row).
    pub mentions: MentionsTable,
    /// Source directory.
    pub sources: SourceDirectory,
    /// CSR adjacency from event rows to mention row ranges.
    pub event_index: EventIndex,
    /// The columns the dataset holds: [`ColumnSet::ALL`] unless
    /// projected.
    pub columns: ColumnSet,
    /// What the dataset has computed from its own columns.
    pub(crate) derived: Derived,
}

/// The empty dataset, holding every column.
impl Default for Dataset {
    fn default() -> Self {
        Dataset {
            events: EventsTable::default(),
            mentions: MentionsTable::default(),
            sources: SourceDirectory::default(),
            event_index: EventIndex::default(),
            columns: ColumnSet::ALL,
            derived: Derived::default(),
        }
    }
}

impl Dataset {
    /// The dataset holding only the columns it holds of `columns`
    /// ([`ColumnSet::to_hold`]: with the keys): every other column's
    /// buffer is dropped, none is copied.
    pub fn project(mut self, columns: &ColumnSet) -> Dataset {
        let keep = self.columns.intersection(columns.to_hold());
        self.for_each_fixed_mut(|c, col| {
            if !keep.contains(c) {
                col.clear();
            }
        });
        if !keep.contains(Column::EventsUrls) {
            self.events.urls = StringPool::new();
        }
        self.columns = keep;
        self.derived = Derived::default();
        self
    }

    /// Column `c` if it is a fixed-width one: a table's, or the CSR
    /// offsets.
    pub(crate) fn fixed(&self, c: Column) -> Option<&dyn FixedColumn> {
        let events = EventsTable::FIXED.iter().find(|f| f.0 == c).map(|f| f.1(&self.events));
        let mentions = MentionsTable::FIXED.iter().find(|f| f.0 == c).map(|f| f.1(&self.mentions));
        let index: &dyn FixedColumn = &self.event_index.offsets;
        events.or(mentions).or((c == Column::IndexOffsets).then_some(index))
    }

    /// Call `f` on every fixed-width column, mutably, in store order
    /// (the CSR offsets last).
    pub(crate) fn for_each_fixed_mut(&mut self, mut f: impl FnMut(Column, &mut dyn FixedColumn)) {
        for (c, _, get_mut) in &EventsTable::FIXED {
            f(*c, get_mut(&mut self.events));
        }
        for (c, _, get_mut) in &MentionsTable::FIXED {
            f(*c, get_mut(&mut self.mentions));
        }
        f(Column::IndexOffsets, &mut self.event_index.offsets);
    }

    /// Resident payload bytes of column `c`: its elements, or a pool's
    /// bytes and offsets (the directory adds its country column); 0 for
    /// a column the dataset does not hold.
    pub(crate) fn column_bytes(&self, c: Column) -> usize {
        use std::mem::size_of_val as b;
        if !self.columns.contains(c) {
            return 0;
        }
        let pool = |p: &StringPool| {
            let (bytes, offsets) = p.raw_parts();
            b(bytes) + b(offsets)
        };
        match c {
            Column::EventsUrls => pool(&self.events.urls),
            Column::Sources => pool(self.sources.names.pool()) + b(self.sources.country.as_slice()),
            c => self.fixed(c).map_or(0, |col| col.byte_len()),
        }
    }

    /// `GlobalEventID` of the event the mention at `row` reports on:
    /// its event's id, or an orphan's own.
    pub fn mention_event_id(&self, row: usize) -> EventId {
        let m = &self.mentions;
        match m.event_row[row] {
            NO_EVENT_ROW => EventId(m.orphan_id[row - m.joined()]),
            er => self.events.event_id(er as usize),
        }
    }

    /// Mentions (articles) reporting on the event at `event_row`, as a
    /// contiguous range of mention rows sorted by scrape interval.
    #[inline]
    pub fn mentions_of(&self, event_row: usize) -> std::ops::Range<usize> {
        self.event_index.range(event_row)
    }

    /// Distinct capture intervals present in the mentions table
    /// (Table I's "capture intervals" statistic).
    pub fn distinct_capture_intervals(&self) -> usize {
        let mut iv: Vec<u32> = self.mentions.mention_interval.iter().copied().collect();
        iv.sort_unstable();
        iv.dedup();
        iv.len()
    }

    /// Inclusive linear-quarter range `(base, count)` covered by the
    /// held quarter columns of both tables (events and mentions), or
    /// `None` when neither has a row. Every quarterly series is anchored
    /// at `base`. Computed by the first call, one min+max pass per
    /// column, and kept for the dataset's life.
    pub fn quarter_span(&self) -> Option<(u16, usize)> {
        *self
            .derived
            .span
            .get_or_init(|| quarter_span_of(&[&self.events.quarter, &self.mentions.quarter]))
    }

    /// Mentions per (mention quarter, source) ([`SourceQuarters`]):
    /// what articles per quarter, active sources, publisher series and
    /// publisher rankings read. Counted by the first call, one pass over
    /// `mentions.quarter` and `mentions.source`, and kept for the
    /// dataset's life; an append extends it.
    pub fn source_quarters(&self) -> &SourceQuarters {
        self.derived.source_quarters.get_or_init(|| SourceQuarters::of_columns(self))
    }

    /// Mentions per source of the directory, orphans included (zeros
    /// when `mentions.source` is not held): the source-side twin of the
    /// event index's degrees, which publisher rankings read. The column
    /// sums of [`Dataset::source_quarters`].
    pub fn source_degrees(&self) -> &[u64] {
        self.source_quarters().degrees()
    }

    /// Check every invariant a load relies on: column lengths, sorted
    /// and in-range event columns, mentions grouped by event row and
    /// time-sorted within one, in-range references, an orphan tail no
    /// event joins, the precomputed delay, and a CSR index whose ranges
    /// hold exactly their event's rows. Run after every load (and by
    /// debug builds after every build).
    ///
    /// It *decides* in one pass ([`Dataset::invariants_hold`]); only a
    /// dataset that fails pays for the deep auditor
    /// ([`validate_dataset`](crate::validate::validate_dataset), whose
    /// checks are a superset), which names every broken invariant in
    /// the error.
    pub fn validate(&self) -> Result<(), String> {
        if self.invariants_hold() {
            return Ok(());
        }
        let report = crate::validate::validate_dataset(self);
        Err(if report.is_ok() { "dataset invariants violated".into() } else { report.to_string() })
    }

    /// The fused decision behind [`Dataset::validate`]. After an O(1)
    /// shape check, each column is streamed once, in blocks of
    /// [`VALIDATE_BLOCK`] rows that every check of the block reads
    /// while they are in L1, and each check is a branch-free reduction
    /// over the block (no early exit, no indexing that can panic). A
    /// check reads only its own columns, so an absent (empty) column
    /// skips the checks that read it and no other. The CSR ranges are
    /// checked at their first and last rows only: the mentions pass
    /// proves `event_row` non-decreasing, so a range whose ends carry
    /// its event holds only that event's rows, and every row past the
    /// ranges is an orphan.
    fn invariants_hold(&self) -> bool {
        // The rows the CSR index covers: the joined ones, if it holds.
        let covered = self.event_index.offsets.last().copied().unwrap_or(0);
        let joined = usize::try_from(covered).unwrap_or(usize::MAX);
        let check = |k: usize| match k {
            0 => mentions_hold(&self.mentions, &self.events, joined, self.sources.len()),
            1 => events_hold(&self.events),
            _ => index_holds(&self.event_index.offsets, &self.mentions.event_row),
        };
        // Held bytes that pay for a fork: checks 1 and 2 are jobs of one
        // fork while the caller runs the mentions pass.
        let bytes = Column::ALL.iter().map(|&c| self.column_bytes(c)).sum();
        let mine = if fork_pieces(bytes, VALIDATE_BYTE_NS, cores()) > 1 { 1 } else { 3 };
        self.shape_holds(joined) && {
            let (ok, theirs) = fork_join((mine..3).collect(), check, || (0..mine).all(check));
            ok && theirs.into_iter().all(|ok| ok)
        }
    }

    /// Every held column as long as its table and every other one
    /// empty (the orphan side columns as long as the rows past the
    /// `joined` ones), the keys held, one source country per source
    /// name, and an index of `n_events + 1` offsets from 0 (or none at
    /// all for an empty events table).
    fn shape_holds(&self, joined: usize) -> bool {
        let (e, m) = (&self.events, &self.mentions);
        let offsets = &self.event_index.offsets;
        let rows = |c: Column, len: usize| if self.columns.contains(c) { len } else { 0 };
        let orphans = m.len().checked_sub(joined);
        self.columns.to_hold() == self.columns
            && e.column_lens().all(|(c, n)| n == rows(c, e.len()))
            && m.column_lens().all(|(c, n)| n == rows(c, m.len()))
            && orphans == Some(m.orphan_id.len())
            && orphans.map(|n| rows(Column::MentionsOrphanInterval, n))
                == Some(m.orphan_interval.len())
            && self.sources.country.len() == self.sources.names.len()
            && (offsets.len() == e.len() + 1 || (e.is_empty() && offsets.is_empty()))
            && offsets.first().copied().unwrap_or(0) == 0
    }

    /// Convenience: capture interval → quarter, used by builders.
    pub fn interval_quarter(iv: CaptureInterval) -> u16 {
        iv.quarter().linear() as u16
    }

    /// Convenience: packed day → quarter linear index.
    pub fn day_quarter(day_packed: u32) -> u16 {
        Date::from_yyyymmdd(day_packed).map(|d| d.quarter().linear() as u16).unwrap_or(0)
    }
}

/// Rows per block of [`Dataset::validate`]'s fused pass: the block of
/// every mentions column it reads (28 KiB) stays in L1 while the
/// block's checks run.
const VALIDATE_BLOCK: usize = 1024;

/// What [`Dataset::validate`] costs a byte of its store on one thread:
/// 0.04–0.06 ns (the 8.8 and 88 MB stores of scales 0.0002 and 0.002).
const VALIDATE_BYTE_NS: f64 = 0.05;

/// True when `bad` holds for any item. Unlike [`Iterator::any`] it
/// evaluates every item — a branch-free reduction the compiler can
/// vectorize, which is faster than an early exit when, as on every
/// valid load, nothing is found.
#[inline]
fn any_row<I: Iterator>(items: I, bad: impl Fn(I::Item) -> bool) -> bool {
    items.fold(false, |found, item| found | bad(item))
}

/// Ids strictly ascending; quad class in range.
fn events_hold(e: &EventsTable) -> bool {
    let mut bad = false;
    for begin in (0..e.len()).step_by(VALIDATE_BLOCK) {
        let end = begin + VALIDATE_BLOCK;
        // One row past the block, so the pair straddling it is checked.
        let id = e.id.chunk_view(begin, end + 1);
        bad |= any_row(id.iter().zip(id.iter().skip(1)), |(a, b)| a >= b);
        bad |= any_row(e.quad.chunk_view(begin, end).iter(), |&q| q.wrapping_sub(1) >= 4);
    }
    !bad
}

/// Grouped by event row (orphans last) and time-sorted within an
/// event; sources in range; the precomputed delay right — from the
/// event's capture for the `joined` rows, from an orphan's own event
/// time past them; and no orphan id an event of the table holds.
fn mentions_hold(m: &MentionsTable, e: &EventsTable, joined: usize, n_sources: usize) -> bool {
    let n_sources = n_sources as u64;
    let mut bad = false;
    for begin in (0..m.len()).step_by(VALIDATE_BLOCK) {
        let end = begin + VALIDATE_BLOCK;
        let row = m.event_row.chunk_view(begin, end + 1);
        bad |= any_row(row.iter().zip(row.iter().skip(1)), |(r0, r1)| r0 > r1);
        let at = m.mention_interval.chunk_view(begin, end + 1);
        bad |= any_row(
            row.iter().zip(row.iter().skip(1)).zip(at.iter().zip(at.iter().skip(1))),
            |((&r0, &r1), (&t0, &t1))| (r0 == r1) & (r0 != NO_EVENT_ROW) & (t0 > t1),
        );
        let source = m.source.chunk_view(begin, end);
        bad |= any_row(source.iter(), |&s| u64::from(s) >= n_sources);
        // `event_row` is non-decreasing, so this gather walks forward.
        let end = end.min(joined);
        let (row, at, delay) = (
            m.event_row.chunk_view(begin, end),
            m.mention_interval.chunk_view(begin, end),
            m.delay.chunk_view(begin, end),
        );
        if !e.capture.is_empty() {
            bad |= any_row(row.iter().zip(at).zip(delay), |((&r, &t), &d)| {
                e.capture.get(r as usize).is_none_or(|&c| d != t.saturating_sub(c))
            });
        }
    }
    let (at, delay) =
        (m.mention_interval.chunk_view(joined, m.len()), m.delay.chunk_view(joined, m.len()));
    bad |= any_row(m.orphan_interval.iter().zip(at).zip(delay), |((&e, &t), &d)| {
        d != t.saturating_sub(e)
    });
    bad |= m.orphan_id.iter().any(|id| e.id.binary_search(id).is_ok());
    !bad
}

/// Offsets non-decreasing and within the mentions table; each
/// non-empty range starting and ending on a row of its own event; the
/// first row past the covered prefix, if any, an orphan. Given a
/// non-decreasing `event_row` (checked by [`mentions_hold`]) that is
/// every row of every range, and every row past the prefix.
fn index_holds(offsets: &[u64], event_row: &[u32]) -> bool {
    let row_of = |i: u64| usize::try_from(i).ok().and_then(|i| event_row.get(i)).copied();
    let covered = offsets.last().copied().unwrap_or(0);
    let mut bad = covered > event_row.len() as u64;
    bad |= row_of(covered).is_some_and(|r| r != NO_EVENT_ROW);
    let ranges = offsets.iter().zip(offsets.iter().skip(1));
    bad |= any_row((0u64..).zip(ranges), |(event, (&lo, &hi))| {
        let holds = |row: Option<u32>| row.map(u64::from) == Some(event);
        (lo > hi) | ((lo < hi) & !(holds(row_of(lo)) & holds(row_of(hi.wrapping_sub(1)))))
    });
    !bad
}

#[cfg(test)]
impl EventsTable {
    /// Append one in-range event row with id `id` (test fixtures).
    pub(crate) fn push_test_row(&mut self, id: u64) {
        self.id.push(id);
        self.day.push(20_150_218);
        self.capture.push(0);
        self.quarter.push(0);
        self.quad.push(1);
        self.actor1.push(u16::MAX);
        self.actor2.push(u16::MAX);
        self.avg_tone.push(0.0);
        self.country.push(u16::MAX);
        self.urls.push("u");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdelt_model::time::Quarter;

    /// The error `Dataset::validate` refuses `d` with (`d` must be invalid).
    fn refusal(d: &Dataset) -> String {
        d.validate().expect_err("corruption must be refused")
    }

    #[test]
    fn empty_tables_validate() {
        let d = Dataset::default();
        assert!(d.validate().is_ok());
        assert!(d.events.is_empty());
        assert!(d.mentions.is_empty());
        assert!(d.sources.is_empty());
        assert_eq!(d.quarter_span(), None);
        assert_eq!(d.distinct_capture_intervals(), 0);
    }

    #[test]
    fn events_validate_catches_unsorted_ids() {
        let mut d = Dataset::default();
        for id in [3u64, 1] {
            d.events.push_test_row(id);
        }
        d.event_index = EventIndex::build(2, &d.mentions);
        assert!(refusal(&d).contains("events.sorted"));
        d.events.id.as_mut_slice().swap(0, 1);
        assert_eq!(d.validate(), Ok(()));
    }

    #[test]
    fn events_validate_catches_ragged_columns() {
        let mut d = Dataset::default();
        d.events.id.push(1);
        d.event_index = EventIndex::build(1, &d.mentions);
        assert!(refusal(&d).contains("events.columns"));
    }

    #[test]
    fn mentions_validate_catches_bad_delay() {
        let mut d = Dataset::default();
        d.sources.names.intern("s");
        d.sources.country.push(0);
        let m = &mut d.mentions;
        m.event_row.push(NO_EVENT_ROW);
        m.orphan_id.push(1);
        m.orphan_interval.push(10);
        m.mention_interval.push(14);
        m.delay.push(3); // should be 4
        m.source.push(0);
        m.quarter.push(Dataset::interval_quarter(CaptureInterval(14)));
        m.mention_type.push(1);
        m.confidence.push(50);
        m.doc_tone.push(0.0);
        assert!(refusal(&d).contains("mentions.delay"));
        d.mentions.delay.as_mut_slice()[0] = 4;
        assert_eq!(d.validate(), Ok(()));
    }

    #[test]
    fn source_directory_lookup() {
        let mut d = Dataset::default();
        let s = &mut d.sources;
        let id = s.names.intern("bbc.co.uk");
        s.country.push(0);
        assert_eq!(s.lookup("bbc.co.uk"), Some(SourceId(id)));
        assert_eq!(s.name(SourceId(id)), "bbc.co.uk");
        assert_eq!(s.country_id(SourceId(id)), CountryId(0));
        assert_eq!(d.validate(), Ok(()));
        d.sources.names.intern("other.com");
        // The country column is now short.
        assert!(refusal(&d).contains("sources.columns"));
    }

    #[test]
    fn day_quarter_helper() {
        assert_eq!(
            Dataset::day_quarter(20_150_218),
            (Quarter { year: 2015, q: 1 }).linear() as u16
        );
    }
}
