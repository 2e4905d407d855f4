//! What a dataset computes from its own columns and keeps beside them:
//! the quarter span ([`Dataset::quarter_span`]) and the mentions per
//! (mention quarter, source) ([`Dataset::source_quarters`]), whose
//! per-source sums are the source degrees
//! ([`Dataset::source_degrees`]).
//!
//! Neither is a column: `memsize` does not count them, a store does not
//! hold them, and a clone, a projection, a restriction to partitions
//! and a load start empty. Each is filled by its first read and kept
//! for the dataset's life; an append extends what its base had filled
//! by the rows it adds ([`Derived::extended`]). A column changed in
//! place after a value was read leaves it stale, which
//! [`Dataset::deep_validate`] reports (`dataset.quarter_span`,
//! `dataset.source_quarters`).

use crate::columns::{Column, ColumnSet};
use crate::partition::{cores, fork_join, fork_pieces};
use crate::table::{Dataset, MentionsTable};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::OnceLock;

/// The derived values of one dataset, each filled on first use.
#[derive(Debug, Default)]
pub(crate) struct Derived {
    pub(crate) span: OnceLock<Option<(u16, usize)>>,
    pub(crate) source_quarters: OnceLock<SourceQuarters>,
}

impl Clone for Derived {
    fn clone(&self) -> Self {
        Derived::default()
    }
}

/// Exact mention counts per (mention quarter, source): one row per
/// quarter that `mentions.quarter` spans, from its least value through
/// its greatest, and one cell per source of the directory in each,
/// quarter-major. Every quarterly article count is a function of it:
/// articles per quarter are its row sums, the active sources of a
/// quarter its nonzero cells, a publisher's series its column, and the
/// source degrees its column sums. It costs `8 · n · Q` bytes (3.9 MB
/// at the paper's 20 996 sources × 23 quarters).
///
/// Mentions whose source is outside the directory are not counted. A
/// dataset that does not hold `mentions.source` keeps one cell a row
/// (every mention of the quarter) and no per-source rows; one that
/// does not hold `mentions.quarter` keeps one row of every mention and
/// no quarterly rows, so its degrees stay exact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SourceQuarters {
    /// Linear quarter of row 0 and the number of rows; `None` when no
    /// row is dated (no mentions, or `mentions.quarter` not held).
    pub(crate) span: Option<(u16, usize)>,
    /// Whether the cells of a row are per source (`mentions.source`
    /// held) or one total.
    pub(crate) sourced: bool,
    /// Cells per row: the directory's sources, or 1.
    pub(crate) width: usize,
    /// The counts, row after row.
    pub(crate) cells: Vec<u64>,
    /// Per-source sums of the cells (zeros when not `sourced`), one per
    /// source of the directory.
    pub(crate) degrees: Vec<u64>,
}

impl SourceQuarters {
    /// Linear quarter of the first row and the number of rows, or
    /// `None` when no mention is dated.
    pub fn span(&self) -> Option<(u16, usize)> {
        self.span
    }

    /// Mentions per source of the directory, orphans included (zeros
    /// when `mentions.source` is not held): the column sums.
    pub fn degrees(&self) -> &[u64] {
        &self.degrees
    }

    /// `(quarter, mentions)` of every row, in quarter order: the row
    /// sums.
    pub fn per_quarter(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        self.rows().map(|(q, row)| (q, row.iter().sum()))
    }

    /// `(quarter, mentions per source)` of every row, in quarter order;
    /// nothing when `mentions.source` is not held.
    pub fn by_source(&self) -> impl Iterator<Item = (u16, &[u64])> + '_ {
        self.rows().filter(|_| self.sourced)
    }

    /// `(quarter, cells)` of every dated row.
    fn rows(&self) -> impl Iterator<Item = (u16, &[u64])> + '_ {
        let (first, n) = self.span.unwrap_or_default();
        let rows = self.cells.chunks(self.width.max(1)).take(n);
        (first..).zip(rows)
    }

    /// The zeroed matrix of `width` cells a row over `rows` mentions
    /// whose quarters span `span` (`None`: one row, if any mentions).
    fn zeroed(span: Option<(u16, usize)>, sourced: bool, width: usize, rows: usize) -> Self {
        // An undated dataset keeps all its mentions in one row.
        let n_rows = span.map_or(usize::from(rows > 0), |(_, n)| n);
        SourceQuarters { span, sourced, width, cells: vec![0; n_rows * width], degrees: Vec::new() }
    }

    /// Set `degrees` to the column sums over a directory of `n`.
    fn sum_columns(mut self, n: usize) -> Self {
        let mut degrees = vec![0u64; n];
        if self.sourced {
            for row in self.cells.chunks(self.width.max(1)) {
                degrees.iter_mut().zip(row).for_each(|(d, &c)| *d += c);
            }
        }
        self.degrees = degrees;
        self
    }

    /// The matrix of `d`'s columns: one pass over `mentions.quarter`
    /// and `mentions.source`, cut into the pieces their rows pay for
    /// ([`fork_pieces`]). A piece takes the span of its quarters, then
    /// counts every row straight into its cell of a matrix of that
    /// span. One piece's matrix is the answer; the matrices of several
    /// are added into one of their joint span.
    pub(crate) fn of_columns(d: &Dataset) -> Self {
        let m = &d.mentions;
        let rows = m.len();
        // A column not held (or not as long as the table) reads as one
        // constant key.
        let held = |c: Column, len: usize| d.columns.contains(c) && len == rows;
        let (dated, sourced) = (
            held(Column::MentionsQuarter, m.quarter.len()),
            held(Column::MentionsSource, m.source.len()),
        );
        let quarters: Cow<[u16]> =
            if dated { Cow::from(&m.quarter[..]) } else { vec![0; rows].into() };
        let sources: Cow<[u32]> =
            if sourced { Cow::from(&m.source[..]) } else { vec![0; rows].into() };
        let width = if sourced { d.sources.len() } else { 1 };
        let count = |r: Range<usize>| {
            let (quarters, sources) = (quarters.get(r.clone()), sources.get(r));
            let (quarters, sources) = (quarters.unwrap_or_default(), sources.unwrap_or_default());
            let span = quarter_span_of(&[quarters]);
            let (lo, n) = span.unwrap_or_default();
            let mut cells = vec![0u64; n * width];
            for (&q, &s) in quarters.iter().zip(sources) {
                // A source past the directory is dropped.
                if (s as usize) < width {
                    let at = usize::from(q.wrapping_sub(lo)) * width + s as usize;
                    if let Some(cell) = cells.get_mut(at) {
                        *cell += 1;
                    }
                }
            }
            (span, cells)
        };
        let piece = rows.div_ceil(fork_pieces(rows, FILL_ROW_NS, cores())).max(1);
        let mut pieces = (0..rows).step_by(piece).map(|at| at..(at + piece).min(rows));
        let mine = pieces.next().unwrap_or_default();
        let (mine, theirs) = fork_join(pieces.collect(), count, || count(mine));
        let (span, cells) = if theirs.is_empty() { mine } else { joined(mine, theirs, width) };
        // Undated: one row of every mention, at no quarter.
        let span = span.filter(|_| dated);
        SourceQuarters { span, sourced, width, cells, degrees: Vec::new() }
            .sum_columns(d.sources.len())
    }

    /// This matrix with the mentions of `added` counted in: their
    /// quarters and sources where `held` holds the column (a source
    /// through `source_map`, batch-local to merged, into a directory of
    /// `n_sources`). The rows widen to the union of the two spans and
    /// the cells to the new directory; the old cells are copied over
    /// and the added rows counted one at a time.
    pub(crate) fn extended(
        &self,
        added: &MentionsTable,
        held: ColumnSet,
        source_map: &[u32],
        n_sources: usize,
    ) -> Self {
        let quarters = held.contains(Column::MentionsQuarter).then_some(&added.quarter[..]);
        let sources = held.contains(Column::MentionsSource).then_some(&added.source[..]);
        let sourced = sources.is_some();
        let width = if sourced { n_sources } else { 1 };
        let added_span = quarters.and_then(|q| quarter_span_of(&[q]));
        let ends = |span: Option<(u16, usize)>| span.map(|(lo, n)| [lo, lo + (n - 1) as u16]);
        let (old_ends, added_ends) = (ends(self.span), ends(added_span));
        let columns: Vec<&[u16]> =
            [&old_ends, &added_ends].into_iter().flatten().map(|e| &e[..]).collect();
        let mut out = match quarters {
            Some(_) => SourceQuarters::zeroed(quarter_span_of(&columns), sourced, width, 0),
            // Undated: one row, if there are any mentions.
            None => SourceQuarters::zeroed(None, sourced, width, self.cells.len() + added.len()),
        };
        let first = out.span.map_or(0, |(first, _)| first);
        let row_of = |q: u16| usize::from(q.wrapping_sub(first));
        // An undated base (or an empty one) has at most its one row.
        let shift = self.span.map_or(0, |(lo, _)| row_of(lo));
        for (r, row) in self.cells.chunks(self.width.max(1)).enumerate() {
            if let Some(to) = out.cells.get_mut((r + shift) * width..) {
                to.iter_mut().zip(row).for_each(|(to, &c)| *to += c);
            }
        }
        for i in 0..added.len() {
            let r = quarters.and_then(|q| q.get(i)).map_or(0, |&q| row_of(q));
            let s = match sources {
                Some(s) => s
                    .get(i)
                    .and_then(|&s| source_map.get(s as usize))
                    .map_or(usize::MAX, |&m| m as usize),
                None => 0,
            };
            if s < width {
                if let Some(cell) = out.cells.get_mut(r * width + s) {
                    *cell += 1;
                }
            }
        }
        out.sum_columns(n_sources)
    }
}

/// A fill piece's quarter span and its counts over that span.
type Counts = (Option<(u16, usize)>, Vec<u64>);

/// The counts of fill pieces, each over its own quarter span, added
/// into one matrix over their joint span.
fn joined(first: Counts, rest: Vec<Counts>, width: usize) -> Counts {
    let pieces: Vec<_> = std::iter::once(first).chain(rest).collect();
    let ends: Vec<[u16; 2]> = pieces
        .iter()
        .filter_map(|(span, _)| span.map(|(lo, n)| [lo, lo + (n - 1) as u16]))
        .collect();
    let span = quarter_span_of(&ends.iter().map(|e| &e[..]).collect::<Vec<_>>());
    let (lo, n) = span.unwrap_or_default();
    let mut cells = vec![0u64; n * width];
    for (piece_span, piece) in pieces {
        let at = piece_span.map_or(0, |(p, _)| usize::from(p - lo) * width);
        let to = cells.get_mut(at..).unwrap_or_default();
        to.iter_mut().zip(piece).for_each(|(cell, c)| *cell += c);
    }
    (span, cells)
}

/// What the fill costs a mention on one thread: 1.1–1.2 ns at 120
/// sources (scales 0.0002 and 0.002).
const FILL_ROW_NS: f64 = 1.2;

impl Derived {
    /// The cache of a dataset that holds exactly `base`'s rows and the
    /// added ones: each entry `base` has filled, extended by what was
    /// added (the added rows are all that is read); the others empty.
    /// `quarters` are the added quarter columns of both tables;
    /// `mentions` the added mentions, whose batch-local sources
    /// `source_map` carries into the merged directory of `n_sources`.
    pub(crate) fn extended(
        base: &Dataset,
        quarters: &[&[u16]],
        mentions: &MentionsTable,
        source_map: &[u32],
        n_sources: usize,
    ) -> Self {
        let span = base.derived.span.get().map(|span| {
            // The base span enters as a column of its two ends.
            let ends = span.map(|(lo, n)| [lo, lo + (n - 1) as u16]);
            let columns: Vec<&[u16]> =
                quarters.iter().copied().chain(ends.as_ref().map(|e| &e[..])).collect();
            quarter_span_of(&columns)
        });
        let source_quarters = base
            .derived
            .source_quarters
            .get()
            .map(|sq| sq.extended(mentions, base.columns, source_map, n_sources));
        Derived {
            span: span.map(OnceLock::from).unwrap_or_default(),
            source_quarters: source_quarters.map(OnceLock::from).unwrap_or_default(),
        }
    }
}

/// Inclusive linear-quarter range `(base, count)` of the union of
/// `columns`, or `None` when all are empty: one fused min+max pass per
/// column, a branchless lane-wise reduction the compiler autovectorizes.
pub(crate) fn quarter_span_of(columns: &[&[u16]]) -> Option<(u16, usize)> {
    let mut span: Option<(u16, u16)> = None;
    for col in columns.iter().filter(|col| !col.is_empty()) {
        let (lo, hi) = col.iter().fold((u16::MAX, u16::MIN), |(lo, hi), &q| (lo.min(q), hi.max(q)));
        span = Some(span.map_or((lo, hi), |(l, h)| (l.min(lo), h.max(hi))));
    }
    span.map(|(lo, hi)| (lo, usize::from(hi - lo) + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dataset of `sources` × `quarters` mention rows over a directory
    /// of `n` sources, and nothing else.
    fn mentions(quarters: Vec<u16>, sources: Vec<u32>, n: usize) -> Dataset {
        let mut d = Dataset::default();
        for s in 0..n {
            d.sources.names.intern(&format!("s{s}"));
            d.sources.country.push(u16::MAX);
        }
        d.mentions.event_row = quarters.iter().map(|_| crate::table::NO_EVENT_ROW).collect();
        d.mentions.quarter = quarters.into_iter().collect();
        d.mentions.source = sources.into_iter().collect();
        d
    }

    /// The matrix one row at a time: `(first quarter, rows of counts)`.
    fn naive(quarters: &[u16], sources: &[u32], n: usize) -> Option<(u16, Vec<Vec<u64>>)> {
        let lo = *quarters.iter().min()?;
        let hi = *quarters.iter().max()?;
        let mut rows = vec![vec![0u64; n]; usize::from(hi - lo) + 1];
        for (&q, &s) in quarters.iter().zip(sources) {
            if let Some(cell) = rows[usize::from(q - lo)].get_mut(s as usize) {
                *cell += 1;
            }
        }
        Some((lo, rows))
    }

    #[test]
    fn source_quarter_counts_are_the_same_in_any_number_of_pieces() {
        // Rows enough for a piece per core. Quarters in runs, with one
        // row in 97 months or years away (before and after every run),
        // and ids past the directory (130, about one row in 131), which
        // are dropped.
        let rows = 400_000u32;
        let quarters: Vec<u16> = (0..rows)
            .map(|i| match i.wrapping_mul(2_654_435_761) % 97 {
                0 => 8_050,
                1 => 8_090 + (i % 3) as u16,
                _ => 8_060 + (i / 23_456) as u16,
            })
            .collect();
        let sources: Vec<u32> = (0..rows).map(|i| i.wrapping_mul(40_503) % 131).collect();
        for rows in [rows as usize, 0, 1, 3, 4, 5, 63, 64, 65, 1_000] {
            let (q, s) = (&quarters[..rows], &sources[..rows]);
            let got = SourceQuarters::of_columns(&mentions(q.to_vec(), s.to_vec(), 130));
            let want = naive(q, s, 130);
            assert_eq!(got.span(), want.as_ref().map(|(lo, r)| (*lo, r.len())), "{rows} rows");
            let got_rows: Vec<(u16, Vec<u64>)> =
                got.by_source().map(|(q, row)| (q, row.to_vec())).collect();
            let want_rows: Vec<(u16, Vec<u64>)> =
                want.map(|(lo, r)| (lo..).zip(r).collect()).unwrap_or_default();
            assert_eq!(got_rows, want_rows, "{rows} rows");
            let mut degrees = vec![0u64; 130];
            for &s in s.iter().filter(|&&s| s < 130) {
                degrees[s as usize] += 1;
            }
            assert_eq!(got.degrees(), degrees, "{rows} rows");
        }
    }

    #[test]
    fn a_column_not_held_reads_as_one_key() {
        let d = mentions(vec![5, 7, 7, 9], vec![0, 1, 1, 2], 3);
        // Without sources: one total a quarter, no per-source rows.
        let totals = SourceQuarters::of_columns(
            &d.clone().project(&ColumnSet::of(&[Column::MentionsQuarter])),
        );
        assert_eq!(
            totals.per_quarter().collect::<Vec<_>>(),
            [(5, 1), (6, 0), (7, 2), (8, 0), (9, 1)]
        );
        assert_eq!(totals.by_source().count(), 0);
        assert_eq!(totals.degrees(), [0, 0, 0]);
        // Without quarters: exact degrees, no quarterly rows.
        let undated =
            SourceQuarters::of_columns(&d.project(&ColumnSet::of(&[Column::MentionsSource])));
        assert_eq!((undated.span(), undated.per_quarter().count()), (None, 0));
        assert_eq!(undated.degrees(), [1, 2, 1]);
        // A quarter met only with a source past the directory still
        // widens the span, as it widens the column's.
        let dropped = SourceQuarters::of_columns(&mentions(vec![5, 5, 9], vec![0, 0, 7], 3));
        assert_eq!(dropped.span(), Some((5, 5)));
        assert_eq!(
            dropped.per_quarter().collect::<Vec<_>>(),
            [(5, 2), (6, 0), (7, 0), (8, 0), (9, 0)]
        );
    }
}
