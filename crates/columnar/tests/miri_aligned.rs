//! Unsafe-path exercises for [`AlignedBuf`], written to run under Miri.
//!
//! `cargo xtask miri` runs exactly this target with
//! `-Zmiri-strict-provenance`; it also runs under plain `cargo test`
//! so the cases are continuously exercised even where the Miri
//! component is unavailable. Every test here is shaped to hit a
//! specific unsafe site in `crates/columnar/src/aligned.rs`:
//! allocation, growth-with-copy, in-place fill, slice construction,
//! clone's fresh allocation, and deallocation on drop.
//!
//! Sizes are kept small (Miri executes ~1000x slower than native) but
//! chosen to force at least two reallocations per growth test.

use gdelt_columnar::aligned::AlignedBuf;

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
