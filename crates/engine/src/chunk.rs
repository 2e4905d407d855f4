//! Chunked column traversal: the unit of work for vectorized kernels.
//!
//! Kernels do not walk whole partitions row-by-row; they walk *chunks* —
//! fixed, power-of-two row windows aligned to global [`CHUNK_ROWS`]
//! boundaries. Because `AlignedBuf` columns start on a cache-line
//! boundary (`COLUMN_ALIGN`), every aligned chunk start is also
//! cache-line aligned, so a chunk's column slices stream through the
//! cache predictably and the compiler sees short, fixed-bound inner
//! loops it can autovectorize.
//!
//! [`partition_scan`] is the driver under the streaming kernels: one row
//! range per thread, mapped on the fork pool when the scan's rows at
//! its declared cost pay for a fork (`partition::fork_pieces`) and
//! folded in order on the caller otherwise. The rule decides where the
//! ranges run, never where they are cut.
//!
//! The rest of the module is kernel *fusion*: [`SelMask`] is a
//! stack-allocated selection vector for one chunk, evaluated branchlessly
//! (64 lanes per `u64` word) and consumed a word at a time — one pass
//! over a chunk can evaluate a predicate and feed an accumulator without
//! re-scanning the columns per analysis.
//!
//! Kernels whose unit is the *event*, not the row, take their groups
//! from the CSR offsets: [`event_scan`] cuts the events into
//! [`event_partitions`] of near-equal mention weight. A kernel either
//! streams a partition's [`mention_rows`] flat, finding event boundaries
//! in `event_row` itself (co- and follow-reporting over countries and a
//! publisher selection, whose per-event state is a few mask words), or
//! has [`for_each_event`] hand it each event's row and mention rows.

use crate::exec::ExecContext;
use gdelt_columnar::partition::{event_partitions, fork_pieces};

/// Rows per chunk. 4096 rows keeps the widest hot column (u32, 16 KiB)
/// inside L1 alongside an accumulator, and is a multiple of 64 so chunk
/// boundaries never split a selection word.
pub const CHUNK_ROWS: usize = 4096;

/// Selection words per full chunk.
pub const CHUNK_WORDS: usize = CHUNK_ROWS / 64;

/// A half-open row window `[begin, end)` over table columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First row of the chunk.
    pub begin: usize,
    /// One past the last row.
    pub end: usize,
}

impl Chunk {
    /// Rows covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.begin)
    }

    /// True when the chunk covers no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.end <= self.begin
    }

    /// The row range.
    #[inline]
    pub fn range(&self) -> std::ops::Range<usize> {
        self.begin..self.end
    }

    /// This chunk's window of a column (clamped to the column).
    // analyze: no_panic
    #[inline]
    pub fn slice<'a, T>(&self, col: &'a [T]) -> &'a [T] {
        rows_of(col, &self.range())
    }
}

/// Split a row range into chunks aligned to global [`CHUNK_ROWS`]
/// boundaries: the first chunk may be short (up to the next boundary),
/// every interior chunk is exactly `CHUNK_ROWS` rows starting on a
/// boundary, and the last stops at `range.end`.
// analyze: no_panic
pub fn chunks_of(range: std::ops::Range<usize>) -> impl Iterator<Item = Chunk> {
    let mut begin = range.start;
    let end = range.end;
    std::iter::from_fn(move || {
        if begin >= end {
            return None;
        }
        let boundary = (begin / CHUNK_ROWS + 1) * CHUNK_ROWS;
        let c = Chunk { begin, end: boundary.min(end) };
        begin = c.end;
        Some(c)
    })
}

/// `rows` of a column, clamped to the column.
// analyze: no_panic
#[inline]
pub fn rows_of<'a, T>(col: &'a [T], rows: &std::ops::Range<usize>) -> &'a [T] {
    col.get(rows.start..rows.end.min(col.len())).unwrap_or(&[])
}

/// Partitioned scan: `map` sees one row range per thread of `ctx`, on
/// the fork pool when `n_rows` at `row_ns` each pay for a fork, and
/// `reduce` folds the partials in partition order.
// analyze: no_panic
pub fn partition_scan<T>(
    ctx: &ExecContext,
    n_rows: usize,
    row_ns: f64,
    map: impl Fn(std::ops::Range<usize>) -> T + Sync + Send,
    reduce: impl FnMut(T, T) -> T,
) -> T
where
    T: Send + Default,
{
    let fork = fork_pieces(n_rows, row_ns, ctx.n_threads()) > 1;
    ctx.fold(ctx.make_partitions(n_rows), fork, |p| map(p.range()), reduce).unwrap_or_default()
}

/// A stack-allocated selection vector for one chunk: bit `i` of word
/// `i / 64` selects local row `i` (add `chunk.begin` for the global
/// row). Built branchlessly, consumed a word at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelMask {
    words: [u64; CHUNK_WORDS],
    rows: usize,
}

impl SelMask {
    /// Nothing selected over `rows` local rows (clamped to
    /// [`CHUNK_ROWS`]).
    // analyze: no_panic
    pub fn none(rows: usize) -> Self {
        SelMask { words: [0; CHUNK_WORDS], rows: rows.min(CHUNK_ROWS) }
    }

    /// Everything selected over `rows` local rows (clamped to
    /// [`CHUNK_ROWS`]).
    // analyze: no_panic
    pub fn all(rows: usize) -> Self {
        let mut m = SelMask { words: [!0u64; CHUNK_WORDS], rows: rows.min(CHUNK_ROWS) };
        m.mask_tail();
        m
    }

    /// Evaluate `pred` over a chunk's column slice, 64 lanes per word.
    /// Rows beyond the slice (or beyond [`CHUNK_ROWS`]) are unselected.
    ///
    /// Each word is built in two branchless steps the compiler
    /// vectorises: one 0/1 byte per lane, then eight lanes at a time
    /// packed into bits by a multiply (byte `i` of the product's top
    /// byte-sum lands on bit `56 + i`). Shifting each lane's bit into a
    /// `u64` directly is a 64-step serial OR chain, three times slower.
    // analyze: no_panic
    pub fn select<T: Copy>(col: &[T], pred: impl Fn(T) -> bool) -> Self {
        const PACK: u64 = 0x0102_0408_1020_4080;
        let mut m = SelMask::none(col.len());
        for (dst, lanes) in m.words.iter_mut().zip(col.chunks(64)) {
            let mut flags = [0u8; 64];
            for (flag, &v) in flags.iter_mut().zip(lanes) {
                *flag = u8::from(pred(v));
            }
            let (eights, _) = flags.as_chunks::<8>();
            for (i, eight) in eights.iter().enumerate() {
                *dst |= (u64::from_le_bytes(*eight).wrapping_mul(PACK) >> 56) << (8 * i);
            }
        }
        m
    }

    /// Local rows covered by the mask.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The selection words: bit `i % 64` of word `i / 64` is local row
    /// `i`; bits at and beyond [`SelMask::rows`] are zero.
    #[inline]
    pub fn words(&self) -> &[u64; CHUNK_WORDS] {
        &self.words
    }

    /// Number of selected rows.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Intersect with another mask (row counts need not match; the
    /// shorter mask's tail zeros win).
    pub fn and(&mut self, other: &SelMask) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
        self.rows = self.rows.min(other.rows);
    }

    /// Clear bits at local rows `>= rows`.
    // analyze: no_panic
    fn mask_tail(&mut self) {
        let full = self.rows / 64;
        let tail = self.rows % 64;
        for (w, word) in self.words.iter_mut().enumerate() {
            if w > full || (w == full && tail == 0) {
                *word = 0;
            } else if w == full {
                *word &= (1u64 << tail) - 1;
            }
        }
    }
}

/// The one event walker: call `f(event_row, mention_rows)` for every
/// event of `events`, in order, reading each boundary once from the CSR
/// `offsets` (`mention_rows` is empty for an event nobody reported on).
/// Returns without calling `f` when `events` reaches past the index.
// analyze: no_panic
#[inline]
pub fn for_each_event(
    offsets: &[u64],
    events: std::ops::Range<usize>,
    mut f: impl FnMut(usize, std::ops::Range<usize>),
) {
    let Some(edges) = offsets.get(events.start..events.end.saturating_add(1)) else { return };
    let mut edges = edges.iter().map(|&o| o as usize);
    let Some(mut lo) = edges.next() else { return };
    for (event, hi) in (events.start..).zip(edges) {
        f(event, lo..hi);
        lo = hi;
    }
}

/// The mention rows of `events`, `offsets[start]..offsets[end]` — what
/// a kernel that streams a partition flat reads (empty when `events`
/// reaches past the index).
// analyze: no_panic
#[inline]
pub fn mention_rows(offsets: &[u64], events: std::ops::Range<usize>) -> std::ops::Range<usize> {
    let row = |event| offsets.get(event).map_or(0, |&o| o as usize);
    row(events.start)..row(events.end)
}

/// The driver under every kernel that groups mentions by event: `map`
/// folds one of `ctx`'s [`event_partitions`] (walking it with
/// [`for_each_event`], or streaming its mention rows), on the fork pool
/// when the mention rows at `row_ns` each pay for a fork, and `reduce`
/// merges the partials in event order. `None` when the index holds no
/// events.
// analyze: no_panic
pub fn event_scan<T: Send>(
    ctx: &ExecContext,
    offsets: &[u64],
    row_ns: f64,
    map: impl Fn(std::ops::Range<usize>) -> T + Sync + Send,
    reduce: impl FnMut(T, T) -> T,
) -> Option<T> {
    let rows = offsets.last().map_or(0, |&rows| rows as usize);
    let fork = fork_pieces(rows, row_ns, ctx.n_threads()) > 1;
    ctx.fold(event_partitions(offsets, ctx.n_threads()), fork, |p| map(p.range()), reduce)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_align_to_global_boundaries() {
        let chunks: Vec<Chunk> = chunks_of(100..CHUNK_ROWS * 2 + 50).collect();
        assert_eq!(chunks.first(), Some(&Chunk { begin: 100, end: CHUNK_ROWS }));
        assert_eq!(chunks.get(1), Some(&Chunk { begin: CHUNK_ROWS, end: CHUNK_ROWS * 2 }));
        assert_eq!(chunks.last(), Some(&Chunk { begin: CHUNK_ROWS * 2, end: CHUNK_ROWS * 2 + 50 }));
        // Chunks tile the range exactly.
        assert_eq!(chunks.iter().map(Chunk::len).sum::<usize>(), CHUNK_ROWS * 2 - 50);
        for w in chunks.windows(2) {
            assert_eq!(w[0].end, w[1].begin);
        }
        assert_eq!(chunks_of(5..5).count(), 0);
    }

    #[test]
    fn chunk_slice_clamps() {
        let col: Vec<u32> = (0..100).collect();
        let c = Chunk { begin: 90, end: 200 };
        assert_eq!(c.slice(&col), &col[90..100]);
        let past = Chunk { begin: 200, end: 300 };
        assert!(past.slice(&col).is_empty());
    }

    #[test]
    fn partition_scan_visits_every_row_once() {
        let ctx = ExecContext::builder().threads(3).build();
        let sum_rows =
            |rows| chunks_of(rows).flat_map(|c| c.range()).map(|r| r as u64).sum::<u64>();
        // Rows free (folded on the caller) and dear (forked).
        for row_ns in [0.0, 1e6] {
            for n in [5, CHUNK_ROWS * 3 + 123] {
                let sum = partition_scan(&ctx, n, row_ns, sum_rows, |a, b| a + b);
                assert_eq!(sum, (n as u64 - 1) * n as u64 / 2);
            }
            assert_eq!(partition_scan(&ctx, 0, row_ns, sum_rows, |a, b| a + b), 0);
        }
    }

    #[test]
    fn select_matches_naive_predicate() {
        let col: Vec<u32> = (0..1000u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let m = SelMask::select(&col, |v| v % 3 == 0);
        let naive: Vec<usize> = (0..col.len()).filter(|&i| col[i].is_multiple_of(3)).collect();
        assert_eq!(m.count(), naive.len());
        let got: Vec<usize> =
            (0..CHUNK_ROWS).filter(|i| m.words()[i / 64] >> (i % 64) & 1 == 1).collect();
        assert_eq!(got, naive);
    }

    #[test]
    fn all_and_none_mask_tails() {
        let a = SelMask::all(70);
        assert_eq!(a.count(), 70);
        assert_eq!(a.rows(), 70);
        assert_eq!(SelMask::none(70).count(), 0);
        assert_eq!(SelMask::all(CHUNK_ROWS + 5).rows(), CHUNK_ROWS);
        assert_eq!(SelMask::all(CHUNK_ROWS).count(), CHUNK_ROWS);
        assert_eq!(SelMask::all(0).count(), 0);
    }

    #[test]
    fn and_intersects() {
        let col: Vec<u32> = (0..200).collect();
        let mut a = SelMask::select(&col, |v| v % 2 == 0);
        let b = SelMask::select(&col, |v| v % 3 == 0);
        a.and(&b);
        assert_eq!(a.count(), 34); // multiples of 6 in 0..200
    }

    #[test]
    fn walker_hands_every_event_its_rows() {
        // Degrees 3, 0, 2, 1, 0: an empty event in the middle and one last.
        let offsets = [0u64, 3, 3, 5, 6, 6];
        let walk = |events| {
            let mut seen = Vec::new();
            for_each_event(&offsets, events, |e, rows| seen.push((e, rows)));
            seen
        };
        assert_eq!(walk(0..5), vec![(0, 0..3), (1, 3..3), (2, 3..5), (3, 5..6), (4, 6..6)]);
        // An event range starts at its own first offset.
        assert_eq!(walk(2..4), vec![(2, 3..5), (3, 5..6)]);
        assert!(walk(3..3).is_empty());
        // A range that reaches past the index is a no-op; so is no index.
        assert!(walk(0..6).is_empty());
        for_each_event(&[], 0..1, |_, _| panic!("must not be called"));
        for_each_event(&[0], 0..0, |_, _| panic!("must not be called"));
    }

    #[test]
    fn event_partitions_weigh_mentions_not_events() {
        // 1 000 one-mention events, one 5 234-mention event, 1 000 more:
        // equal event counts would give one of four workers 5 734 of the
        // 7 234 rows.
        let degrees = (0..2_001).map(|e| if e == 1_000 { 5_234u64 } else { 1 });
        let offsets: Vec<u64> = std::iter::once(0)
            .chain(degrees.scan(0, |at, deg| {
                *at += deg;
                Some(*at)
            }))
            .collect();
        let parts = event_partitions(&offsets, 4);
        assert_eq!(parts.first().map(|p| p.begin), Some(0));
        assert_eq!(parts.last().map(|p| p.end), Some(2_001));
        assert!(parts.windows(2).all(|w| w[0].end == w[1].begin));
        let weights: Vec<u64> = parts.iter().map(|p| offsets[p.end] - offsets[p.begin]).collect();
        assert_eq!(weights, vec![6_234, 1_000]);
    }

    #[test]
    fn event_scan_folds_every_event_once_at_any_thread_count() {
        let offsets: Vec<u64> = (0..=1_000u64).map(|e| e * (e + 1) / 2).collect();
        for (threads, row_ns) in [1, 2, 3, 5].into_iter().flat_map(|t| [(t, 0.0), (t, 1e6)]) {
            let ctx = ExecContext::builder().threads(threads).build();
            let count = |events| {
                let mut seen = (0u64, 0u64);
                for_each_event(&offsets, events, |_, rows| {
                    seen = (seen.0 + 1, seen.1 + rows.len() as u64)
                });
                seen
            };
            let total = event_scan(&ctx, &offsets, row_ns, count, |a, b| (a.0 + b.0, a.1 + b.1));
            assert_eq!(total, Some((1_000, 500_500)), "{threads} threads, {row_ns} ns a row");
        }
        let ctx = ExecContext::builder().threads(2).build();
        assert_eq!(event_scan(&ctx, &[], 1e6, |_| 1u64, |a, b| a + b), None);
    }
}
