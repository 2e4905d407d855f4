//! Unsafe-path exercises for [`AlignedBuf`], written to run under Miri.
//!
//! `cargo xtask miri` runs exactly this target with
//! `-Zmiri-strict-provenance`; it also runs under plain `cargo test`
//! so the cases are continuously exercised even where the Miri
//! component is unavailable. Every test here is shaped to hit a
//! specific unsafe site in `crates/columnar/src/aligned.rs`:
//! allocation, growth-with-copy, in-place fill, slice construction,
//! clone's fresh allocation, deallocation on drop, and the store-load
//! pair: the zeroed allocation `read_from` reads into and the in-place
//! byte-to-column `cast` (whose `Drop` must free with the layout the
//! bytes were allocated with).
//!
//! Sizes are kept small (Miri executes ~1000x slower than native) but
//! chosen to force at least two reallocations per growth test.

use gdelt_columnar::aligned::AlignedBuf;
use std::io::{self, Read};

/// Alignment contract: every allocation lands on a 64-byte boundary.
fn assert_aligned<T: Copy>(b: &AlignedBuf<T>) {
    if !b.is_empty() {
        assert_eq!(b.as_slice().as_ptr() as usize % 64, 0);
    }
}

#[test]
fn new_is_empty_and_drops_without_alloc() {
    let b: AlignedBuf<u64> = AlignedBuf::new();
    assert!(b.is_empty());
    assert_eq!(b.len(), 0);
    // Dropping a never-allocated buffer must not free anything.
}

#[test]
fn push_grows_through_reallocations() {
    let mut b = AlignedBuf::new();
    for i in 0..100u64 {
        b.push(i * 3);
        assert_aligned(&b);
    }
    assert_eq!(b.len(), 100);
    assert!(b.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
}

#[test]
fn with_capacity_then_push_stays_in_place() {
    let mut b = AlignedBuf::with_capacity(64);
    let cap = b.capacity();
    for i in 0..64u32 {
        b.push(i);
    }
    assert_eq!(b.capacity(), cap, "no realloc within reserved capacity");
    assert_eq!(b.as_slice().len(), 64);
}

#[test]
fn extend_from_iter_appends_staged_blocks_across_growth() {
    // 600 items: one full 512-element stage block plus a partial one,
    // through an iterator whose size hint is too low to pre-size.
    let mut b: AlignedBuf<u16> = AlignedBuf::new();
    b.push(9);
    b.extend_from_iter((0..600u16).filter(|_| true));
    assert_aligned(&b);
    assert_eq!(b.len(), 601);
    assert!(b[1..].iter().copied().eq(0..600));
}

#[test]
fn extend_from_slice_copies_across_growth() {
    let mut b: AlignedBuf<u16> = AlignedBuf::new();
    let chunk: Vec<u16> = (0..37).collect();
    for _ in 0..5 {
        b.extend_from_slice(&chunk);
    }
    assert_eq!(b.len(), 37 * 5);
    assert_eq!(&b[37..74], chunk.as_slice());
}

#[test]
fn resize_fills_and_shrinks() {
    let mut b = AlignedBuf::new();
    b.resize(50, 7u8);
    assert!(b.iter().all(|&v| v == 7));
    b.resize(10, 0);
    assert_eq!(b.len(), 10);
    // Grow again over the previously-truncated region.
    b.resize(30, 9);
    assert_eq!(&b[..10], &[7u8; 10]);
    assert_eq!(&b[10..], &[9u8; 20]);
}

#[test]
fn mutation_through_deref_mut() {
    let mut b: AlignedBuf<i32> = (0..20).collect();
    for v in b.as_mut_slice() {
        *v = -*v;
    }
    b[0] = 100;
    assert_eq!(b[0], 100);
    assert_eq!(b[19], -19);
}

#[test]
fn clone_is_deep() {
    let a: AlignedBuf<u64> = (0..33).collect();
    let mut b = a.clone();
    assert_eq!(a, b);
    assert_ne!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
    b[0] = 999;
    assert_eq!(a[0], 0, "clone must not alias the original");
    assert_aligned(&b);
}

#[test]
fn from_slice_round_trip() {
    let v: Vec<u32> = (0..70).rev().collect();
    let b = AlignedBuf::from(v.as_slice());
    assert_eq!(b.as_slice(), v.as_slice());
}

#[test]
fn zero_sized_edge_cases() {
    let mut b: AlignedBuf<u64> = AlignedBuf::with_capacity(0);
    assert!(b.is_empty());
    b.extend_from_slice(&[]);
    b.resize(0, 0);
    assert!(b.as_slice().is_empty());
    b.push(1);
    assert_eq!(b.as_slice(), &[1]);
}

#[test]
fn interleaved_operations_stress() {
    // Drive all paths in one sequence so Miri sees pointer reuse
    // across realloc/clone/drop boundaries.
    let mut bufs: Vec<AlignedBuf<u32>> = Vec::new();
    for round in 0..4u32 {
        let mut b = AlignedBuf::with_capacity(round as usize);
        for i in 0..25 {
            b.push(round * 100 + i);
        }
        b.resize(40, round);
        b.extend_from_slice(&[round; 3]);
        bufs.push(b.clone());
        drop(b);
    }
    for (round, b) in bufs.iter().enumerate() {
        assert_eq!(b.len(), 43);
        assert_eq!(b[0], round as u32 * 100);
        assert_eq!(b[42], round as u32);
    }
}

#[test]
fn send_and_sync_across_threads() {
    // Not a Miri-specific case, but TSan and Miri both check the
    // Send/Sync impls' claims when the buffer crosses threads.
    let b: AlignedBuf<u64> = (0..100).collect();
    let sum: u64 = std::thread::scope(|s| {
        let h1 = s.spawn(|| b[..50].iter().sum::<u64>());
        let h2 = s.spawn(|| b[50..].iter().sum::<u64>());
        h1.join().unwrap() + h2.join().unwrap()
    });
    assert_eq!(sum, 99 * 100 / 2);
}

/// A reader that hands out at most `step` bytes per call and fails
/// once with `Interrupted` first, so `read_from` must loop.
struct Trickle<'a> {
    bytes: &'a [u8],
    step: usize,
    interrupted: bool,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !self.interrupted {
            self.interrupted = true;
            return Err(io::Error::from(io::ErrorKind::Interrupted));
        }
        let n = buf.len().min(self.step).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

#[test]
fn read_from_fills_a_fresh_aligned_buffer() {
    let src: Vec<u8> = (0..200u8).collect();
    let mut r = Trickle { bytes: &src, step: 7, interrupted: false };
    let b = AlignedBuf::read_from(&mut r, src.len()).unwrap();
    assert_aligned(&b);
    assert_eq!(b.as_slice(), src.as_slice());
    assert_eq!(b.capacity(), src.len(), "allocated once, at exactly the asked length");
}

#[test]
fn read_from_stops_short_at_eof() {
    let src = [9u8; 40];
    let b = AlignedBuf::read_from(&mut &src[..], 64).unwrap();
    assert_eq!(b.len(), 40);
    assert_eq!(b.capacity(), 64);
    assert!(b.iter().all(|&v| v == 9));
    // A short buffer whose capacity is not a whole number of elements
    // is refused, since `Drop` would free it with the wrong layout.
    let short = AlignedBuf::read_from(&mut &src[..32], 60).unwrap();
    assert_eq!(short.len(), 32);
    let back = short.cast::<u64>().unwrap_err();
    assert_eq!((back.len(), back.capacity()), (32, 60));
    // Dropping the short buffers frees their full capacity.
}

#[test]
fn zero_length_section_reads_and_casts_without_allocating() {
    let b = AlignedBuf::read_from(&mut &[1u8, 2, 3][..], 0).unwrap();
    assert!(b.is_empty());
    assert_eq!(b.capacity(), 0);
    let col = b.cast::<u64>().unwrap();
    assert!(col.is_empty());
    assert_eq!(col.as_slice(), &[] as &[u64]);
    assert_eq!(col.as_slice().as_ptr() as usize % std::mem::align_of::<u64>(), 0);
}

#[test]
fn odd_length_section_is_refused_before_any_cast() {
    let b = AlignedBuf::from(&[1u8, 2, 3, 4, 5][..]);
    let back = b.cast::<u32>().unwrap_err();
    assert_eq!(back.as_slice(), &[1, 2, 3, 4, 5], "refused bytes come back untouched");
    let back = back.cast::<u16>().unwrap_err();
    assert_eq!(back.len(), 5);
}

#[test]
fn cast_column_reads_in_place_and_drops_with_its_layout() {
    let words = [1u64, u64::MAX, 0x0102_0304_0506_0708];
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    let raw = AlignedBuf::read_from(&mut bytes.as_slice(), bytes.len()).unwrap();
    let at = raw.as_slice().as_ptr() as usize;
    let mut col = raw.cast::<u64>().unwrap();
    assert_eq!(col.as_slice().as_ptr() as usize, at, "no copy");
    assert_eq!(col.capacity(), 3);
    for v in col.iter_mut() {
        *v = u64::from_le(*v);
    }
    assert_eq!(col.as_slice(), &words);
    // Growing the cast column reallocates and frees the cast one.
    col.push(4);
    assert_aligned(&col);
    assert_eq!(col[3], 4);
    drop(col);
    let floats = AlignedBuf::from(&1.5f32.to_le_bytes()[..]).cast::<f32>().unwrap();
    assert_eq!(f32::from_le_bytes(floats[0].to_ne_bytes()), 1.5);
}
