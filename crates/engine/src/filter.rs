//! Source sets: one bit per entry of the source directory.
//!
//! [`Bitmap`] is the set a distinct count unions across partitions and
//! shards (the ActiveSources partial keeps one per quarter, and the wire
//! codec ships its words as they are) and the set
//! `ShardQuery::fits` checks a follow subset against. Rows are not
//! selected through it: a kernel selects the rows of one chunk with
//! [`crate::chunk::SelMask`] and counts under the mask in the same pass.

/// A bitmap over `len` entries: bit `i % 64` of word `i / 64` is entry
/// `i`.
///
/// Bits past `len` (the tail of the last word) are always zero — every
/// constructor masks the tail, so [`Bitmap::count`] and the wire codec
/// never see ghost entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bitmap {
    bits: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-false bitmap over `len` entries.
    pub fn new(len: usize) -> Self {
        Bitmap { bits: vec![0; len.div_ceil(64)], len }
    }

    /// Build from raw words (bit `i % 64` of `words[i / 64]` is entry
    /// `i`). The word vector is resized to cover exactly `len` entries
    /// and the tail bits beyond `len` are cleared.
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

    /// Number of entries covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap covers no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw words. `words()[i / 64] >> (i % 64) & 1` is entry `i`;
    /// tail bits beyond [`Bitmap::len`] are zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Set entry `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        // analyze: allow(panic_path): i < len ⇒ i/64 < bits.len() (sized at construction)
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// Test entry `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        // analyze: allow(panic_path): i < len ⇒ i/64 < bits.len() (sized at construction)
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of set entries.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Union with another bitmap of the same length.
    pub fn or(&mut self, other: &Bitmap) {
        // Deliberate API contract: mismatched lengths are a caller bug.
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn or_unions() {
        let mut a = Bitmap::new(70);
        a.set(1);
        a.set(2);
        let mut b = Bitmap::new(70);
        b.set(2);
        b.set(69);
        a.or(&b);
        assert_eq!((0..70).filter(|&i| a.get(i)).collect::<Vec<_>>(), vec![1, 2, 69]);
        assert_eq!(a.count(), 3);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn or_rejects_length_mismatch() {
        let mut a = Bitmap::new(10);
        a.or(&Bitmap::new(11));
    }
}
