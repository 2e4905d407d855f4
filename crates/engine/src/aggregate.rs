//! Parallel grouped aggregation (count / sum by dense key).
//!
//! All grouping keys in this system are small dense integers (source ids,
//! country ids, quarter indexes), so a per-thread accumulator indexed by
//! key — merged at the end — beats any hash-based group-by. This is the
//! OpenMP `reduction(+: counts[:n])` idiom.
//!
//! The per-row form of that idiom, `acc[key] += 1`, is a
//! read-modify-write whose next iteration waits on the previous store
//! whenever two consecutive rows share a key (≈ 5 cycles per row through
//! the store buffer) — and GDELT's columns are run-shaped: ids ascend
//! with time and mentions are grouped by event. [`DenseLanes`] is the one
//! counting primitive under the series and ranking kernels; it decides
//! per [`BLOCK_ROWS`] block from the keys it sees. A block whose keys
//! are all equal (one vectorised compare) adds its weight to one slot; a
//! mixed block spreads consecutive rows over [`LANES`] independent
//! copies of the slots, folded once at the end, so no row waits on the
//! row before it. DESIGN.md "Kernel cost model" has the measurements.

use crate::chunk::{partition_scan, rows_of, SelMask};
use crate::exec::{ExecContext, Merge};
use gdelt_columnar::Dataset;
use gdelt_model::time::Quarter;

/// Key types usable as dense accumulator indexes.
pub trait DenseKey: Copy + PartialEq + Send + Sync {
    /// The dense index of the key.
    fn index(self) -> usize;
}

impl DenseKey for u16 {
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

impl DenseKey for u32 {
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Rows per block of the dense-count primitive: the unit that is either
/// counted at once or lane-split. One [`SelMask`] word.
pub const BLOCK_ROWS: usize = 64;

/// Independent copies of every slot; consecutive rows of a mixed block
/// go to consecutive lanes.
pub const LANES: usize = 4;

/// The key every row of `block` holds, if they all hold the same one.
// analyze: no_panic
#[inline]
fn uniform_key<K: DenseKey>(block: &[K]) -> Option<K> {
    let (&first, rest) = block.split_first()?;
    // Unordered keys (source ids) differ at once; run-shaped ones
    // (quarters) go on to one compare-and-fold with no early exit,
    // which vectorises at the key's width.
    if rest.first().is_some_and(|&k| k != first) {
        return None;
    }
    rest.iter().fold(true, |same, &k| same & (k == first)).then_some(first)
}

/// `n` dense `u64` slots, [`LANES`] copies of each: the accumulator of
/// the block rule in the module doc. Keys map to slot `key - base`;
/// keys outside `base..base + n` are ignored (sentinel convention, e.g.
/// unknown country).
#[derive(Debug)]
pub struct DenseLanes {
    slots: Vec<[u64; LANES]>,
}

impl DenseLanes {
    /// `n` zeroed slots.
    pub fn new(n: usize) -> Self {
        DenseLanes { slots: vec![[0; LANES]; n] }
    }

    // analyze: no_panic
    #[inline]
    fn lanes_of<K: DenseKey>(&mut self, k: K, base: usize) -> Option<&mut [u64; LANES]> {
        self.slots.get_mut(k.index().wrapping_sub(base))
    }

    /// Count every row of `keys`.
    // analyze: no_panic
    pub fn count<K: DenseKey>(&mut self, keys: &[K], base: usize) {
        // Full blocks and full quads are fixed-size arrays inlined into
        // the helpers, so the compiler sees every trip count: it
        // vectorises the compare and unrolls the lanes.
        let (blocks, rest) = keys.as_chunks::<BLOCK_ROWS>();
        for block in blocks {
            self.count_block(block, base);
        }
        self.count_block(rest, base);
    }

    // analyze: no_panic
    #[inline(always)]
    fn count_block<K: DenseKey>(&mut self, block: &[K], base: usize) {
        if let Some(k) = uniform_key(block) {
            if let Some([count, ..]) = self.lanes_of(k, base) {
                *count += block.len() as u64;
            }
            return;
        }
        let (quads, rest) = block.as_chunks::<LANES>();
        for quad in quads {
            self.count_quad(quad, base);
        }
        self.count_quad(rest, base);
    }

    // analyze: no_panic
    #[inline(always)]
    fn count_quad<K: DenseKey>(&mut self, quad: &[K], base: usize) {
        for (lane, &k) in quad.iter().enumerate() {
            if let Some(count) = self.lanes_of(k, base).and_then(|l| l.get_mut(lane)) {
                *count += 1;
            }
        }
    }

    /// Count the rows of one chunk's `keys` that `sel` selects: a
    /// uniform block adds the popcount of its selection word, a mixed
    /// one walks the set bits.
    // analyze: no_panic
    pub fn count_selected<K: DenseKey>(&mut self, keys: &[K], base: usize, sel: &SelMask) {
        let (blocks, rest) = keys.as_chunks::<BLOCK_ROWS>();
        let mut words = sel.words().iter();
        for (block, &word) in blocks.iter().zip(&mut words) {
            self.count_block_selected(block, base, word);
        }
        if let Some(&word) = words.next() {
            // A short last block owns only its low bits.
            self.count_block_selected(rest, base, word & !(!0u64).unbounded_shl(rest.len() as u32));
        }
    }

    // analyze: no_panic
    #[inline(always)]
    fn count_block_selected<K: DenseKey>(&mut self, block: &[K], base: usize, mut word: u64) {
        if word == 0 {
            return;
        }
        if let Some(k) = uniform_key(block) {
            if let Some([count, ..]) = self.lanes_of(k, base) {
                *count += u64::from(word.count_ones());
            }
            return;
        }
        let mut lane = 0;
        while word != 0 {
            let k = block.get(word.trailing_zeros() as usize);
            let lanes = k.and_then(|&k| self.lanes_of(k, base));
            if let Some(count) = lanes.and_then(|l| l.get_mut(lane % LANES)) {
                *count += 1;
            }
            word &= word - 1;
            lane += 1;
        }
    }

    /// Per-slot sum over the lanes: the counts.
    pub fn sums(&self) -> Vec<u64> {
        self.slots.iter().map(|lanes| lanes.iter().sum()).collect()
    }
}

/// What [`count_by`] costs a row on one thread: 0.6–0.9 ns over
/// mention sources, 2.7–3.2 over event countries (EXPERIMENTS.md "One
/// fork rule", as every engine cost below).
const COUNT_ROW_NS: f64 = 1.0;

/// Count occurrences of each key in `keys`, producing a dense vector of
/// length `domain`. Keys `>= domain` are ignored (sentinel convention,
/// e.g. unknown country).
// analyze: no_panic
pub fn count_by<K: DenseKey>(ctx: &ExecContext, keys: &[K], domain: usize) -> Vec<u64> {
    let count_rows = |rows| {
        let mut lanes = DenseLanes::new(domain);
        lanes.count(rows_of(keys, &rows), 0);
        lanes.sums()
    };
    partition_scan(ctx, keys.len(), COUNT_ROW_NS, count_rows, Merge::merged)
}

/// Articles per source among the mentions scraped in quarters
/// `from..=to` (the paper's "mentions … in a short span of time", §II):
/// the sum of the window's rows of the dataset's
/// [`SourceQuarters`](gdelt_columnar::SourceQuarters). A window the
/// corpus does not reach, or with `to` before `from`, selects nothing.
pub fn articles_by_source_in(d: &Dataset, from: Quarter, to: Quarter) -> Vec<u64> {
    let window = from.linear()..=to.linear();
    let mut counts = vec![0u64; d.sources.len()];
    for (q, row) in d.source_quarters().by_source() {
        if window.contains(&i32::from(q)) {
            counts.iter_mut().zip(row).for_each(|(count, &c)| *count += c);
        }
    }
    counts
}

/// Sum an `f32` column grouped by dense key, returning `(sum, count)`
/// per key — the building block for grouped means (tone analyses).
pub fn mean_f32_by<K: DenseKey>(
    ctx: &ExecContext,
    keys: &[K],
    vals: &[f32],
    domain: usize,
) -> Vec<(f64, u64)> {
    assert_eq!(keys.len(), vals.len(), "keys/vals length mismatch");
    let sum_rows = |rows| {
        let mut acc = vec![(0.0, 0); domain];
        for (k, &v) in rows_of(keys, &rows).iter().zip(rows_of(vals, &rows)) {
            if let Some((sum, count)) = acc.get_mut(k.index()) {
                *sum += f64::from(v);
                *count += 1;
            }
        }
        acc
    };
    let add = |mut a: Vec<(f64, u64)>, b: Vec<(f64, u64)>| {
        for ((sum, count), (s, c)) in a.iter_mut().zip(b) {
            *sum += s;
            *count += c;
        }
        a
    };
    // 2.8–3.0 ns a row on one thread (event countries and tones).
    partition_scan(ctx, keys.len(), 2.8, sum_rows, add)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{chunks_of, CHUNK_ROWS};
    use gdelt_columnar::partition::fork_pieces;

    fn ctx() -> ExecContext {
        ExecContext::builder().threads(4).build()
    }

    /// One `acc[key - base] += 1` per row.
    fn naive_counts<K: DenseKey>(keys: &[K], base: usize, n: usize) -> Vec<u64> {
        let mut acc = vec![0u64; n];
        for k in keys {
            if let Some(slot) = k.index().checked_sub(base).and_then(|i| acc.get_mut(i)) {
                *slot += 1;
            }
        }
        acc
    }

    fn lane_counts<K: DenseKey>(keys: &[K], base: usize, n: usize) -> Vec<u64> {
        let mut lanes = DenseLanes::new(n);
        lanes.count(keys, base);
        lanes.sums()
    }

    /// Key columns that bite the block rule, as `u32` (all fit `u16`).
    fn edge_columns() -> Vec<(&'static str, Vec<u32>)> {
        let len = 2 * CHUNK_ROWS + 100;
        let mut cols = vec![
            ("all equal", vec![7; len]),
            ("alternating", (0..len as u32).map(|i| 5 + i % 2).collect()),
            ("increasing", (0..len as u32).collect()),
            (
                "out of window",
                (0..len as u32).map(|i| [0, 3, 40, 999, 8][i as usize % 5]).collect(),
            ),
        ];
        // One run boundary at, just before and just after a block edge
        // and a chunk edge.
        for edge in [BLOCK_ROWS, CHUNK_ROWS] {
            for at in [edge - 1, edge, edge + 1] {
                cols.push(("run boundary", (0..len).map(|i| if i < at { 6 } else { 9 }).collect()));
            }
        }
        for n in [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1] {
            cols.push(("short uniform", vec![11; n]));
            cols.push(("short mixed", (0..n as u32).map(|i| 10 + i % 3).collect()));
        }
        cols
    }

    #[test]
    fn dense_lanes_count_like_a_row_at_a_time_loop() {
        for (name, col) in edge_columns() {
            let narrow: Vec<u16> = col.iter().map(|&k| k as u16).collect();
            // A window that leaves keys on both sides out, from an
            // aligned and from an unaligned first row.
            for (base, n) in [(0, 4_200), (3, 38), (6, 1)] {
                for skip in [0, 3.min(col.len())] {
                    let what =
                        format!("{name} ({} rows), base {base}, n {n}, skip {skip}", col.len());
                    let (wide, narrow) = (&col[skip..], &narrow[skip..]);
                    assert_eq!(
                        lane_counts(wide, base, n),
                        naive_counts(wide, base, n),
                        "u32 {what}"
                    );
                    assert_eq!(
                        lane_counts(narrow, base, n),
                        naive_counts(narrow, base, n),
                        "u16 {what}"
                    );
                }
            }
        }
    }

    #[test]
    fn mixed_blocks_fold_every_lane() {
        // Two alternating keys: no block is uniform, so each key's count
        // is spread over the lanes and only the fold sees all of it.
        let keys: Vec<u16> = (0..BLOCK_ROWS as u16 * 3).map(|i| i % 2).collect();
        let mut lanes = DenseLanes::new(2);
        lanes.count(&keys, 0);
        assert!(lanes.slots.iter().all(|slot| slot.iter().filter(|&&c| c > 0).count() > 1));
        assert_eq!(lanes.sums(), vec![96, 96]);
        // A uniform block lands on one lane.
        let mut lanes = DenseLanes::new(2);
        lanes.count(&[1u16; BLOCK_ROWS], 0);
        assert_eq!(lanes.slots, vec![[0; LANES], [BLOCK_ROWS as u64, 0, 0, 0]]);
    }

    #[test]
    fn selected_counts_equal_a_walk_of_the_selection() {
        let flags: Vec<u32> =
            (0..3 * CHUNK_ROWS as u32 + 77).map(|i| i.wrapping_mul(2_654_435_761) >> 7).collect();
        for (name, col) in edge_columns() {
            for modulus in [1, 2, 17, 1_000_000] {
                // Selects everything, half, a few, (almost) nothing.
                let pred = |f: u32| f.is_multiple_of(modulus);
                let mut want = vec![0u64; 38];
                for (&k, &f) in col.iter().zip(&flags) {
                    if let Some(slot) = (k as usize).checked_sub(3).and_then(|i| want.get_mut(i)) {
                        *slot += u64::from(pred(f));
                    }
                }
                let mut lanes = DenseLanes::new(38);
                for c in chunks_of(0..col.len()) {
                    lanes.count_selected(c.slice(&col), 3, &SelMask::select(c.slice(&flags), pred));
                }
                assert_eq!(lanes.sums(), want, "{name} ({} rows), 1 in {modulus}", col.len());
            }
        }
    }

    #[test]
    fn count_by_matches_manual() {
        let keys: Vec<u16> = (0..1000u16).map(|i| i % 7).collect();
        let counts = count_by(&ctx(), &keys, 7);
        assert_eq!(counts.iter().sum::<u64>(), 1000);
        assert_eq!(counts[0], 143);
        assert_eq!(counts[6], 142);
    }

    #[test]
    fn count_by_ignores_out_of_domain() {
        let keys: Vec<u16> = vec![0, 1, u16::MAX, 1];
        let counts = count_by(&ctx(), &keys, 2);
        assert_eq!(counts, vec![1, 2]);
    }

    #[test]
    fn mean_f32_by_groups_sums_and_counts() {
        let keys: Vec<u16> = vec![0, 1, 0, 1, 2];
        let vals: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0, -1.0];
        let out = mean_f32_by(&ctx(), &keys, &vals, 3);
        assert_eq!(out[0], (4.0, 2));
        assert_eq!(out[1], (6.0, 2));
        assert_eq!(out[2], (-1.0, 1));
    }

    #[test]
    fn mean_f32_by_ignores_out_of_domain_and_handles_empty() {
        let keys: Vec<u16> = vec![5];
        let vals: Vec<f32> = vec![9.0];
        let out = mean_f32_by(&ctx(), &keys, &vals, 2);
        assert_eq!(out, vec![(0.0, 0), (0.0, 0)]);
        let out = mean_f32_by(&ctx(), &[] as &[u16], &[], 2);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn count_by_partitions_match_a_row_at_a_time_loop_above_the_cut_off() {
        // Rows enough that two threads fork (and three, and five).
        let n: u32 = 172_345;
        assert!(fork_pieces(n as usize, COUNT_ROW_NS, 2) > 1);
        let keys: Vec<u32> = (0..n).map(|i| i.wrapping_mul(2_654_435_761) % 97).collect();
        let want = naive_counts(&keys, 0, 90);
        for threads in [1, 2, 3, 5] {
            let ctx = ExecContext::builder().threads(threads).build();
            assert_eq!(count_by(&ctx, &keys, 90), want, "{threads} threads");
        }
    }

    fn corpus() -> Dataset {
        gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(91)).0
    }

    /// `articles_by_source_in`, one row at a time.
    fn window_reference(d: &Dataset, from: Quarter, to: Quarter) -> Vec<u64> {
        let mut want = vec![0u64; d.sources.len()];
        for (&q, &s) in d.mentions.quarter.iter().zip(d.mentions.source.iter()) {
            if (from.linear()..=to.linear()).contains(&i32::from(q)) {
                want[s as usize] += 1;
            }
        }
        want
    }

    #[test]
    fn a_window_over_the_span_counts_every_mention() {
        let d = corpus();
        let (base, n) = d.quarter_span().unwrap();
        let quarter = |i: usize| Quarter::from_linear(i32::from(base) + i as i32);
        let all = count_by(&ctx(), &d.mentions.source, d.sources.len());
        assert_eq!(articles_by_source_in(&d, quarter(0), quarter(n - 1)), all);
        // Quarter indexes far outside `u16` neither wrap nor truncate.
        let (min, max) = (Quarter { year: i16::MIN, q: 1 }, Quarter { year: i16::MAX, q: 4 });
        assert_eq!(articles_by_source_in(&d, min, max), all);
    }

    #[test]
    fn one_quarter_windows_match_a_row_at_a_time_loop_and_tile_the_corpus() {
        let d = corpus();
        let (base, n) = d.quarter_span().unwrap();
        assert!(n > 1);
        let mut total = vec![0u64; d.sources.len()];
        for i in 0..n {
            let q = Quarter::from_linear(i32::from(base) + i as i32);
            let got = articles_by_source_in(&d, q, q);
            assert_eq!(got, window_reference(&d, q, q), "{q}");
            total.iter_mut().zip(got).for_each(|(t, c)| *t += c);
        }
        assert_eq!(total, count_by(&ctx(), &d.mentions.source, d.sources.len()));
    }

    #[test]
    fn windows_outside_the_span_or_reversed_select_nothing() {
        let d = corpus();
        let (base, n) = d.quarter_span().unwrap();
        let first = Quarter::from_linear(i32::from(base));
        let last = Quarter::from_linear(i32::from(base) + n as i32 - 1);
        let before = Quarter::from_linear(i32::from(base) - 1);
        for (from, to) in [(before, before), (last.next(), last.next().next()), (last, first)] {
            let got = articles_by_source_in(&d, from, to);
            assert_eq!(got, vec![0; d.sources.len()], "{from}..={to}");
        }
    }
}
