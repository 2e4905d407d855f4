//! String pool and interning dictionary.
//!
//! All variable-length text (source names, URLs, CAMEO code strings) is
//! stored once in an append-only pool of concatenated UTF-8 bytes with an
//! offsets array; columns then hold fixed-width integer references. The
//! dictionary adds a hash index for interning during the build phase —
//! after conversion the engine never hashes a string again.

use crate::aligned::AlignedBuf;
use std::collections::HashMap;

/// Append-only pool of strings addressed by dense `u32` ids. Both parts
/// are column buffers, so a store load reads them in place.
///
/// Invariant: the offsets start at 0, never descend, end at the payload
/// length and each falls on a character boundary of UTF-8 bytes, so
/// every string is UTF-8 on its own. The fields are private and every
/// constructor keeps it: `push` takes a `&str`, `gather` and
/// `extend_range` copy whole strings, and `from_raw_parts` refuses any
/// other shape. No audit after construction can find a broken pool.
#[derive(Debug, Clone, PartialEq)]
pub struct StringPool {
    /// Concatenated UTF-8 bytes of every string.
    bytes: AlignedBuf<u8>,
    /// `offsets[i]..offsets[i+1]` is string `i`; length = count + 1.
    offsets: AlignedBuf<u64>,
}

impl Default for StringPool {
    fn default() -> Self {
        Self::new()
    }
}

impl StringPool {
    /// New pool containing no strings.
    pub fn new() -> Self {
        StringPool { bytes: AlignedBuf::new(), offsets: AlignedBuf::from(&[0][..]) }
    }

    /// Append a string, returning its id. Does not deduplicate — use
    /// [`StringDict`] for interning.
    pub fn push(&mut self, s: &str) -> u32 {
        let id = self.len() as u32;
        self.bytes.extend_from_slice(s.as_bytes());
        self.offsets.push(self.bytes.len() as u64);
        id
    }

    /// Number of strings in the pool.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if no strings stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Get string `id`. Panics if out of range (ids come from the pool
    /// itself, so this indicates corruption).
    #[inline]
    pub fn get(&self, id: u32) -> &str {
        let i = id as usize;
        // analyze: allow(panic_path): ids come from the pool; out-of-range means corruption (documented panic)
        let lo = self.offsets[i] as usize;
        // analyze: allow(panic_path): ids come from the pool; out-of-range means corruption (documented panic)
        let hi = self.offsets[i + 1] as usize;
        // analyze: allow(no_panic): pool bytes are UTF-8-validated at build and load
        // analyze: allow(panic_path): lo ≤ hi ≤ bytes.len() (offsets are ascending by construction)
        std::str::from_utf8(&self.bytes[lo..hi]).expect("pool corruption: invalid UTF-8")
    }

    /// Total bytes of string payload.
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Make room for `strings` more strings of `bytes` bytes in all.
    /// The buffers are aligned, so growth copies (no `realloc`): a
    /// caller that knows the final size should say so.
    pub(crate) fn reserve(&mut self, strings: usize, bytes: usize) {
        self.offsets.reserve(strings);
        self.bytes.reserve(bytes);
    }

    /// A pool of the strings `ids` name, in that order; an id the pool
    /// does not hold contributes nothing. Each run of consecutive ids —
    /// most of them, for the URLs of mostly ordered rows — is one
    /// byte-range copy.
    pub(crate) fn gather(&self, ids: &[u32]) -> StringPool {
        let n = self.len();
        let runs: Vec<std::ops::Range<usize>> = ids
            .chunk_by(|&a, &b| a.checked_add(1) == Some(b))
            .map(|run| {
                let start = (run[0] as usize).min(n);
                start..(start + run.len()).min(n)
            })
            .collect();
        let mut out = StringPool::new();
        out.reserve(ids.len(), runs.iter().map(|run| self.bytes_in(run.clone())).sum());
        for run in runs {
            out.extend_range(self, run);
        }
        out
    }

    /// Payload bytes of the strings `ids` (a range the pool holds).
    pub(crate) fn bytes_in(&self, ids: std::ops::Range<usize>) -> usize {
        (self.offsets[ids.end] - self.offsets[ids.start]) as usize
    }

    /// Append the strings `ids` of `src` (a range it holds), in order:
    /// one byte-range copy plus rebased offsets.
    pub(crate) fn extend_range(&mut self, src: &StringPool, ids: std::ops::Range<usize>) {
        let (lo, hi) = (src.offsets[ids.start], src.offsets[ids.end]);
        let base = self.bytes.len() as u64;
        self.bytes.extend_from_slice(src.bytes.chunk_view(lo as usize, hi as usize));
        let ends = src.offsets.chunk_view(ids.start + 1, ids.end + 1);
        self.offsets.extend_from_iter(ends.iter().map(|&end| end - lo + base));
    }

    /// Raw parts for serialization.
    pub(crate) fn raw_parts(&self) -> (&[u8], &[u64]) {
        (&self.bytes, &self.offsets)
    }

    /// Rebuild from raw parts, validating structure — every offset on a
    /// character boundary, so each string is UTF-8 on its own — and,
    /// unless the caller already found them to be (`utf8`), UTF-8 bytes.
    pub(crate) fn from_raw_parts(
        bytes: AlignedBuf<u8>,
        offsets: AlignedBuf<u64>,
        utf8: bool,
    ) -> Result<Self, &'static str> {
        if offsets.is_empty() || offsets[0] != 0 {
            return Err("offsets must start at 0");
        }
        if offsets.last().copied() != Some(bytes.len() as u64) {
            return Err("final offset must equal payload length");
        }
        // One pass: ascending, and no offset on a UTF-8 continuation
        // byte (0b10xx_xxxx) — the final one is the payload's end.
        let (mut descends, mut splits, mut prev) = (false, false, 0);
        for &at in offsets.iter() {
            descends |= at < prev;
            splits |= bytes.get(at as usize).is_some_and(|&b| b & 0xC0 == 0x80);
            prev = at;
        }
        if descends {
            return Err("offsets must be non-decreasing");
        }
        if splits {
            return Err("a string offset splits a UTF-8 character");
        }
        if !utf8 {
            std::str::from_utf8(&bytes).map_err(|_| "pool payload is not UTF-8")?;
        }
        Ok(StringPool { bytes, offsets })
    }

    /// Iterate all strings in id order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.len() as u32).map(move |i| self.get(i))
    }
}

/// An interning dictionary: pool + reverse hash index.
///
/// The hash index exists only during the build phase; serialized form is
/// just the pool, and the index is rebuilt on load.
#[derive(Debug, Clone, Default)]
pub struct StringDict {
    pool: StringPool,
    index: HashMap<String, u32>,
}

impl StringDict {
    /// New empty dictionary.
    pub fn new() -> Self {
        StringDict { pool: StringPool::new(), index: HashMap::new() }
    }

    /// Rebuild the dictionary (including the hash index) from a pool.
    pub fn from_pool(pool: StringPool) -> Self {
        let mut index = HashMap::with_capacity(pool.len());
        for (i, s) in pool.iter().enumerate() {
            index.entry(s.to_owned()).or_insert(i as u32);
        }
        StringDict { pool, index }
    }

    /// Intern `s`, returning its stable id.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        let id = self.pool.push(s);
        self.index.insert(s.to_owned(), id);
        id
    }

    /// Look up without inserting.
    #[inline]
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// Resolve an id back to its string.
    #[inline]
    pub fn get(&self, id: u32) -> &str {
        self.pool.get(id)
    }

    /// Number of distinct strings.
    #[inline]
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// Borrow the underlying pool (for serialization).
    pub fn pool(&self) -> &StringPool {
        &self.pool
    }

    /// Iterate `(id, string)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.pool.iter().enumerate().map(|(i, s)| (i as u32, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_round_trips_strings() {
        let mut p = StringPool::new();
        let a = p.push("bbc.co.uk");
        let b = p.push("");
        let c = p.push("ünïcode.news");
        assert_eq!(p.get(a), "bbc.co.uk");
        assert_eq!(p.get(b), "");
        assert_eq!(p.get(c), "ünïcode.news");
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn pool_does_not_dedup() {
        let mut p = StringPool::new();
        let a = p.push("x");
        let b = p.push("x");
        assert_ne!(a, b);
    }

    #[test]
    fn pool_iter_in_order() {
        let mut p = StringPool::new();
        p.push("a");
        p.push("bb");
        let v: Vec<&str> = p.iter().collect();
        assert_eq!(v, vec!["a", "bb"]);
    }

    #[test]
    fn pool_gather() {
        let mut a = StringPool::new();
        for s in ["x", "", "yy", "ü"] {
            a.push(s);
        }
        let g = a.gather(&[3, 0, 0, 9, 1]);
        assert_eq!(g.iter().collect::<Vec<_>>(), vec!["ü", "x", "x", ""]);
        // Runs of consecutive ids, one of them running past the pool.
        let runs = a.gather(&[1, 2, 3, 0, 3, 4, 5, 2]);
        assert_eq!(runs.iter().collect::<Vec<_>>(), vec!["", "yy", "ü", "x", "ü", "yy"]);
        let (bytes, offsets) = runs.raw_parts();
        assert_eq!(StringPool::from_raw_parts(bytes.into(), offsets.into(), false).unwrap(), runs);
        let (bytes, offsets) = g.raw_parts();
        assert_eq!(StringPool::from_raw_parts(bytes.into(), offsets.into(), false).unwrap(), g);
    }

    #[test]
    fn pool_raw_round_trip() {
        let mut p = StringPool::new();
        p.push("hello");
        p.push("world");
        let (bytes, offsets) = p.raw_parts();
        let p2 = StringPool::from_raw_parts(bytes.into(), offsets.into(), false).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn pool_raw_validation() {
        // Each shape the pool invariant rules out, refused by name.
        let raw = |b: &[u8], o: &[u64]| StringPool::from_raw_parts(b.into(), o.into(), false);
        assert_eq!(raw(b"", &[]), Err("offsets must start at 0"));
        assert_eq!(raw(b"", &[1]), Err("offsets must start at 0"));
        assert_eq!(raw(b"a", &[0, 2]), Err("final offset must equal payload length"));
        assert_eq!(raw(b"ab", &[0, 2, 1, 2]), Err("offsets must be non-decreasing"));
        assert_eq!(raw(&[0xFF, 0xFE], &[0, 2]), Err("pool payload is not UTF-8"));
        assert!(raw(b"ok", &[0, 2]).is_ok());
        // "é" is two bytes: an offset between them splits it, whatever
        // the loader found of the payload as a whole.
        assert!(raw("aé".as_bytes(), &[0, 1, 3]).is_ok());
        for utf8 in [false, true] {
            let split =
                StringPool::from_raw_parts("aé".as_bytes().into(), (&[0, 2, 3][..]).into(), utf8);
            assert_eq!(split, Err("a string offset splits a UTF-8 character"));
        }
    }

    #[test]
    fn dict_interns() {
        let mut d = StringDict::new();
        let a = d.intern("reuters.com");
        let b = d.intern("bbc.co.uk");
        let a2 = d.intern("reuters.com");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
        assert_eq!(d.get(a), "reuters.com");
        assert_eq!(d.lookup("bbc.co.uk"), Some(b));
        assert_eq!(d.lookup("nope"), None);
    }

    #[test]
    fn dict_rebuilds_from_pool() {
        let mut d = StringDict::new();
        d.intern("a");
        d.intern("b");
        d.intern("c");
        let d2 = StringDict::from_pool(d.pool().clone());
        assert_eq!(d2.lookup("b"), Some(1));
        assert_eq!(d2.len(), 3);
        let pairs: Vec<(u32, &str)> = d2.iter().collect();
        assert_eq!(pairs, vec![(0, "a"), (1, "b"), (2, "c")]);
    }

    #[test]
    fn dict_ids_are_dense_and_stable() {
        let mut d = StringDict::new();
        for i in 0..100 {
            assert_eq!(d.intern(&format!("s{i}")), i as u32);
        }
        for i in 0..100 {
            assert_eq!(d.intern(&format!("s{i}")), i as u32);
        }
    }
}
