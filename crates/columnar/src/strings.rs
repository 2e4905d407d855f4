//! String pool and interning dictionary.
//!
//! All variable-length text (source names, URLs, CAMEO code strings) is
//! stored once in an append-only pool of concatenated UTF-8 bytes with an
//! offsets array; columns then hold fixed-width integer references. The
//! dictionary adds a hash index for interning during the build phase —
//! after conversion the engine never hashes a string again.

use std::collections::HashMap;

/// Append-only pool of strings addressed by dense `u32` ids.
#[derive(Debug, Clone, PartialEq)]
pub struct StringPool {
    /// Concatenated UTF-8 bytes of every string.
    bytes: Vec<u8>,
    /// `offsets[i]..offsets[i+1]` is string `i`; length = count + 1.
    offsets: Vec<u64>,
}

impl Default for StringPool {
    fn default() -> Self {
        Self::new()
    }
}

impl StringPool {
    /// New pool containing no strings.
    pub fn new() -> Self {
        StringPool { bytes: Vec::new(), offsets: vec![0] }
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

    /// A pool of the strings `ids` name, in that order; an id the pool
    /// does not hold contributes nothing.
    pub(crate) fn gather(&self, ids: &[u32]) -> StringPool {
        let mut out = StringPool::new();
        out.offsets.reserve(ids.len());
        for &id in ids {
            let range = self.offsets.get(id as usize).zip(self.offsets.get(id as usize + 1));
            let Some(s) = range.and_then(|(&lo, &hi)| self.bytes.get(lo as usize..hi as usize))
            else {
                continue;
            };
            out.bytes.extend_from_slice(s);
            out.offsets.push(out.bytes.len() as u64);
        }
        out
    }

    /// Raw parts for serialization.
    pub(crate) fn raw_parts(&self) -> (&[u8], &[u64]) {
        (&self.bytes, &self.offsets)
    }

    /// Rebuild from raw parts, validating structure and UTF-8.
    pub(crate) fn from_raw_parts(bytes: Vec<u8>, offsets: Vec<u64>) -> Result<Self, &'static str> {
        if offsets.is_empty() || offsets[0] != 0 {
            return Err("offsets must start at 0");
        }
        if offsets.last().copied() != Some(bytes.len() as u64) {
            return Err("final offset must equal payload length");
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets must be non-decreasing");
        }
        std::str::from_utf8(&bytes).map_err(|_| "pool payload is not UTF-8")?;
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
        let (bytes, offsets) = g.raw_parts();
        assert_eq!(StringPool::from_raw_parts(bytes.to_vec(), offsets.to_vec()).unwrap(), g);
    }

    #[test]
    fn pool_raw_round_trip() {
        let mut p = StringPool::new();
        p.push("hello");
        p.push("world");
        let (bytes, offsets) = p.raw_parts();
        let p2 = StringPool::from_raw_parts(bytes.to_vec(), offsets.to_vec()).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn pool_raw_validation() {
        assert!(StringPool::from_raw_parts(vec![], vec![]).is_err());
        assert!(StringPool::from_raw_parts(vec![], vec![1]).is_err());
        assert!(StringPool::from_raw_parts(vec![b'a'], vec![0, 2]).is_err());
        assert!(StringPool::from_raw_parts(vec![b'a', b'b'], vec![0, 2, 1, 2]).is_err());
        assert!(StringPool::from_raw_parts(vec![0xFF, 0xFE], vec![0, 2]).is_err());
        assert!(StringPool::from_raw_parts(vec![b'o', b'k'], vec![0, 2]).is_ok());
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
