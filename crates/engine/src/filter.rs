//! Selection bitmaps: vectorized predicate evaluation producing row
//! masks.
//!
//! Queries that restrict by time range, country, or confidence evaluate
//! the predicate in one parallel column scan and carry the result as a
//! [`Bitmap`] — a selection vector in the vectorized-execution sense.
//! Predicates are evaluated 64 rows per `u64` word with branchless
//! lane writes (`(pred as u64) << lane`), and consumers walk the
//! selected rows word-at-a-time via trailing-zeros ([`Bitmap::iter`],
//! [`Bitmap::for_each_in`]) instead of testing every row index.

use crate::exec::ExecContext;

/// A row-selection bitmap: bit `i` of word `i / 64` is row `i`.
///
/// Bits past `len` (the tail of the last word) are always zero — every
/// constructor masks the tail, so word-level consumers (`count`,
/// [`Bitmap::iter_set_words`], fused kernels) never see ghost rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bitmap {
    bits: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-false bitmap over `len` rows.
    pub fn new(len: usize) -> Self {
        Bitmap { bits: vec![0; len.div_ceil(64)], len }
    }

    /// Build from raw selection words (bit `i % 64` of `words[i / 64]`
    /// selects row `i`). The word vector is resized to cover exactly
    /// `len` rows and the tail bits beyond `len` are cleared.
    // analyze: no_panic
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        words.resize(len.div_ceil(64), 0);
        let mut bm = Bitmap { bits: words, len };
        bm.mask_tail();
        bm
    }

    /// Clear any bits at positions `>= len` in the last word.
    // analyze: no_panic
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.bits.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of rows covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap covers no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw selection words. `words()[i / 64] >> (i % 64) & 1` is
    /// row `i`; tail bits beyond [`Bitmap::len`] are zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Set row `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        // analyze: allow(panic_path): i < len ⇒ i/64 < bits.len() (sized at construction)
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// Test row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        // analyze: allow(panic_path): i < len ⇒ i/64 < bits.len() (sized at construction)
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of selected rows.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Intersect with another bitmap of the same length.
    pub fn and(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= b;
        }
    }

    /// Union with another bitmap of the same length.
    pub fn or(&mut self, other: &Bitmap) {
        // Deliberate API contract: mismatched lengths are a caller bug.
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Iterate the non-zero selection words as `(word_index, word)`
    /// pairs — the primitive consumers use to walk set rows at word
    /// granularity (row = `word_index * 64 + lane`).
    pub fn iter_set_words(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.bits.iter().copied().enumerate().filter(|&(_, w)| w != 0)
    }

    /// Iterate selected row indexes in order — a thin per-index wrapper
    /// over [`Bitmap::iter_set_words`]; hot paths should walk the words
    /// directly (or use [`Bitmap::for_each_in`]).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.iter_set_words().flat_map(|(w, word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                if word == 0 {
                    None
                } else {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    Some(w * 64 + bit)
                }
            })
        })
    }

    /// Call `f` for each selected row in `range` (clamped to the
    /// bitmap), in order. This is the masked-scan primitive: partitions
    /// walk their row range word-at-a-time via trailing-zeros, with the
    /// boundary words masked so neighbours are untouched.
    // analyze: no_panic
    pub fn for_each_in(&self, range: std::ops::Range<usize>, mut f: impl FnMut(usize)) {
        let lo = range.start.min(self.len);
        let hi = range.end.min(self.len);
        if lo >= hi {
            return;
        }
        let first_word = lo / 64;
        let last_word = (hi - 1) / 64;
        for (w, &bits) in self.bits.iter().enumerate().take(last_word + 1).skip(first_word) {
            let mut word = bits;
            if w == first_word {
                word &= !0u64 << (lo % 64);
            }
            if w == last_word {
                let used = hi - w * 64; // 1..=64: w*64 <= hi-1 < hi
                if used < 64 {
                    word &= (1u64 << used) - 1;
                }
            }
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                f(w * 64 + bit);
            }
        }
    }

    /// Evaluate one selection word per call of `word_fn` in parallel:
    /// the word space is partitioned across the context's workers, each
    /// partition produces its contiguous run of words, and the runs are
    /// concatenated in partition order. This is the engine every
    /// predicate fill routes through — no per-row bitmap writes, no
    /// full-size per-partition scratch bitmaps.
    // analyze: no_panic
    pub fn fill_words(
        ctx: &ExecContext,
        len: usize,
        word_fn: impl Fn(usize) -> u64 + Sync + Send,
    ) -> Self {
        let n_words = len.div_ceil(64);
        let words = ctx
            .map_reduce(
                ctx.make_partitions(n_words),
                |p| p.range().map(&word_fn).collect::<Vec<u64>>(),
                |mut a, b| {
                    a.extend(b);
                    a
                },
            )
            .unwrap_or_default();
        Self::from_words(words, len)
    }

    /// Evaluate `pred` over `0..len` rows in parallel, 64 lanes per
    /// selection word with branchless bit writes.
    // analyze: no_panic
    pub fn fill(ctx: &ExecContext, len: usize, pred: impl Fn(usize) -> bool + Sync + Send) -> Self {
        Self::fill_words(ctx, len, |w| {
            let base = w * 64;
            let lanes = (len - base).min(64); // w < ceil(len/64) ⇒ base < len
            let mut word = 0u64;
            for lane in 0..lanes {
                word |= u64::from(pred(base + lane)) << lane;
            }
            word
        })
    }

    /// Typed range filter: select rows of `col` with `lo <= v <= hi`.
    /// The date/country/CAMEO filters are all instances of this shape
    /// (equality is `lo == hi`); the inner loop compares a 64-element
    /// column slice lane-by-lane with no branches, which the compiler
    /// autovectorizes for primitive column types.
    // analyze: no_panic
    pub fn fill_range<T>(ctx: &ExecContext, col: &[T], lo: T, hi: T) -> Self
    where
        T: Copy + PartialOrd + Sync,
    {
        Self::fill_words(ctx, col.len(), |w| {
            let base = w * 64;
            let mut word = 0u64;
            if let Some(lanes) = col.get(base..col.len().min(base + 64)) {
                for (lane, &v) in lanes.iter().enumerate() {
                    word |= u64::from(lo <= v && v <= hi) << lane;
                }
            }
            word
        })
    }

    /// Typed equality filter — [`Bitmap::fill_range`] with `lo == hi`.
    // analyze: no_panic
    pub fn fill_eq<T>(ctx: &ExecContext, col: &[T], value: T) -> Self
    where
        T: Copy + PartialOrd + Sync,
    {
        Self::fill_range(ctx, col, value, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ExecContext {
        ExecContext::builder().threads(4).build()
    }

    #[test]
    fn set_get_count() {
        let mut b = Bitmap::new(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert_eq!(b.count(), 3);
    }

    #[test]
    fn iter_yields_set_rows_in_order() {
        let mut b = Bitmap::new(200);
        for i in [3usize, 64, 65, 199] {
            b.set(i);
        }
        let got: Vec<usize> = b.iter().collect();
        assert_eq!(got, vec![3, 64, 65, 199]);
    }

    #[test]
    fn iter_set_words_skips_zero_words() {
        let mut b = Bitmap::new(300);
        b.set(0);
        b.set(130);
        let words: Vec<(usize, u64)> = b.iter_set_words().collect();
        assert_eq!(words, vec![(0, 1), (2, 1 << (130 - 128))]);
    }

    #[test]
    fn from_words_masks_the_tail() {
        let b = Bitmap::from_words(vec![!0u64, !0u64], 70);
        assert_eq!(b.count(), 70);
        assert_eq!(b.words().len(), 2);
        assert_eq!(b.words()[1], (1 << 6) - 1);
        // Short word vectors are zero-extended.
        let b = Bitmap::from_words(vec![1], 200);
        assert_eq!(b.words().len(), 4);
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn and_or_combinators() {
        let mut a = Bitmap::new(10);
        a.set(1);
        a.set(2);
        let mut b = Bitmap::new(10);
        b.set(2);
        b.set(3);
        let mut both = a.clone();
        both.and(&b);
        assert_eq!(both.iter().collect::<Vec<_>>(), vec![2]);
        a.or(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_rejects_length_mismatch() {
        let mut a = Bitmap::new(10);
        a.and(&Bitmap::new(11));
    }

    #[test]
    fn parallel_fill_matches_sequential() {
        let b = Bitmap::fill(&ctx(), 1000, |i| i % 7 == 0);
        assert_eq!(b.count(), 143);
        for i in 0..1000 {
            assert_eq!(b.get(i), i % 7 == 0);
        }
    }

    #[test]
    fn fill_empty_range() {
        let ctx = ExecContext::builder().threads(1).build();
        let b = Bitmap::fill(&ctx, 0, |_| true);
        assert_eq!(b.count(), 0);
        assert!(b.is_empty());
    }

    #[test]
    fn fill_range_matches_per_row_predicate() {
        let col: Vec<u16> = (0..1000u16).map(|i| i.wrapping_mul(2654435761u32 as u16)).collect();
        let (lo, hi) = (1000u16, 40000u16);
        let fast = Bitmap::fill_range(&ctx(), &col, lo, hi);
        let slow = Bitmap::fill(&ctx(), col.len(), |r| (lo..=hi).contains(&col[r]));
        assert_eq!(fast, slow);
        assert!(fast.count() > 0);
    }

    #[test]
    fn fill_eq_selects_exact_matches() {
        let col: Vec<u8> = (0..300u32).map(|i| (i % 5) as u8).collect();
        let b = Bitmap::fill_eq(&ctx(), &col, 3u8);
        assert_eq!(b.count(), 60);
        for r in b.iter() {
            assert_eq!(col[r], 3);
        }
    }

    #[test]
    fn for_each_in_masks_partition_boundaries() {
        let mut b = Bitmap::new(200);
        for i in [0usize, 63, 64, 100, 128, 199] {
            b.set(i);
        }
        let collect = |range: std::ops::Range<usize>| {
            let mut got = Vec::new();
            b.for_each_in(range, |i| got.push(i));
            got
        };
        assert_eq!(collect(0..200), vec![0, 63, 64, 100, 128, 199]);
        assert_eq!(collect(1..64), vec![63]);
        assert_eq!(collect(64..129), vec![64, 100, 128]);
        assert_eq!(collect(100..100), Vec::<usize>::new());
        // Out-of-range clamps instead of panicking.
        assert_eq!(collect(150..10_000), vec![199]);
    }
}
