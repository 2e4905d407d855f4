//! Cache-line-aligned column buffers.
//!
//! Hot scans stream whole columns; starting each column on its own cache
//! line (and, at 64-byte alignment, on a SIMD-register boundary) avoids
//! false sharing between adjacent columns written by different threads
//! during table construction, and gives the autovectorizer aligned loads.
//!
//! [`AlignedBuf`] is a minimal grow-only vector with 64-byte-aligned
//! storage. It intentionally supports only the operations table building
//! needs (`push`, `extend_from_slice`, `resize`, slice access) plus the
//! two a store load needs ([`AlignedBuf::read_from`] and
//! [`AlignedBuf::cast`]) — queries only ever see `&[T]`.

use std::alloc::{alloc, alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::io::{self, Read};
use std::marker::PhantomData;
use std::mem::{align_of, size_of, ManuallyDrop};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Cache-line / SIMD alignment for column storage.
pub const COLUMN_ALIGN: usize = 64;

mod sealed {
    pub trait Sealed {}
}

/// Column element types the store format holds: fixed width, no padding,
/// alignment at most [`COLUMN_ALIGN`], and *every bit pattern a valid
/// value* — so a byte buffer of a whole number of elements is a column
/// of them. Sealed: the five impls below are the whole list, which
/// [`AlignedBuf::cast`] relies on.
pub trait Scalar: sealed::Sealed + Copy + 'static {
    /// Write the little-endian encoding of `self` over exactly
    /// `size_of::<Self>()` bytes.
    fn write_le(self, out: &mut [u8]);
    /// The host-order value of `self` read as little-endian bytes: the
    /// identity on little-endian hosts, a byte swap on big-endian ones.
    fn le_to_native(self) -> Self;
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        impl sealed::Sealed for $t {}
        impl Scalar for $t {
            #[inline]
            fn write_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn le_to_native(self) -> Self {
                <$t>::from_le_bytes(self.to_ne_bytes())
            }
        }
    )*};
}

impl_scalar!(u8, u16, u32, u64, f32);

/// A grow-only vector whose buffer is 64-byte aligned.
///
/// `T` must be plain data (`Copy`), which all column element types are.
pub struct AlignedBuf<T: Copy> {
    ptr: NonNull<T>,
    len: usize,
    cap: usize,
    _marker: PhantomData<T>,
}

// SAFETY: AlignedBuf owns its allocation exclusively (no aliasing
// handles exist) and T: Copy rules out drop-glue; moving the buffer to
// another thread is sound exactly when moving the elements is, hence
// the `T: Send` bound. Same reasoning as Vec<T>'s Send impl.
unsafe impl<T: Copy + Send> Send for AlignedBuf<T> {}
// SAFETY: shared access only hands out `&[T]`; concurrent `&T` reads
// are sound exactly when T: Sync, mirroring Vec<T>'s Sync impl.
unsafe impl<T: Copy + Sync> Sync for AlignedBuf<T> {}

impl<T: Copy> AlignedBuf<T> {
    /// New empty buffer (no allocation).
    pub fn new() -> Self {
        AlignedBuf { ptr: NonNull::dangling(), len: 0, cap: 0, _marker: PhantomData }
    }

    /// New buffer with room for `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        let mut b = Self::new();
        if cap > 0 {
            b.grow_to(cap);
        }
        b
    }

    fn layout(cap: usize) -> Layout {
        // analyze: allow(no_panic): allocation-size overflow must abort, as Vec does
        let bytes = cap.checked_mul(size_of::<T>()).expect("capacity overflow");
        let align = COLUMN_ALIGN.max(align_of::<T>());
        // analyze: allow(no_panic): size/align were computed from a valid Layout's rules
        Layout::from_size_align(bytes.max(1), align).expect("bad layout")
    }

    fn grow_to(&mut self, new_cap: usize) {
        debug_assert!(new_cap > self.cap);
        let new_layout = Self::layout(new_cap);
        // SAFETY: layout has non-zero size (max(1)); alignment is a power
        // of two.
        let new_ptr = unsafe { alloc(new_layout) } as *mut T;
        let Some(new_ptr) = NonNull::new(new_ptr) else {
            handle_alloc_error(new_layout);
        };
        if self.cap > 0 {
            // SAFETY: both regions are valid for `len` elements and do
            // not overlap (fresh allocation).
            unsafe {
                std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), new_ptr.as_ptr(), self.len);
                dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.cap));
            }
        }
        self.ptr = new_ptr;
        self.cap = new_cap;
    }

    /// Current element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current capacity in elements.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Ensure room for at least `extra` more elements.
    pub fn reserve(&mut self, extra: usize) {
        // analyze: allow(no_panic): allocation-size overflow must abort, as Vec does
        let needed = self.len.checked_add(extra).expect("length overflow");
        if needed > self.cap {
            let new_cap = needed.max(self.cap * 2).max(8);
            self.grow_to(new_cap);
        }
    }

    /// Append one element.
    #[inline]
    pub fn push(&mut self, v: T) {
        if self.len == self.cap {
            self.reserve(1);
        }
        // SAFETY: len < cap after reserve; the slot is in-bounds.
        unsafe {
            self.ptr.as_ptr().add(self.len).write(v);
        }
        self.len += 1;
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, vs: &[T]) {
        self.reserve(vs.len());
        // SAFETY: reserved above; source and destination don't overlap.
        unsafe {
            std::ptr::copy_nonoverlapping(vs.as_ptr(), self.ptr.as_ptr().add(self.len), vs.len());
        }
        self.len += vs.len();
    }

    /// Append every item of an iterator. Items are staged through a
    /// stack block and appended a block at a time, so the inner loop is
    /// a plain store the compiler can vectorise (a per-element
    /// [`push`](Self::push) re-checks capacity each time and runs
    /// several times slower) — this is what makes a store load's column
    /// decode one bulk pass.
    pub fn extend_from_iter<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        const STAGE: usize = 512;
        let mut it = iter.into_iter();
        self.reserve(it.size_hint().0);
        // The first item doubles as the block's fill value, so `T`
        // needs no `Default`.
        let Some(first) = it.next() else { return };
        self.push(first);
        let mut block = [first; STAGE];
        loop {
            let mut filled = 0;
            for (slot, v) in block.iter_mut().zip(it.by_ref()) {
                *slot = v;
                filled += 1;
            }
            self.extend_from_slice(block.get(..filled).unwrap_or(&[]));
            if filled < STAGE {
                return; // the iterator ran dry
            }
        }
    }

    /// Resize to `new_len`, filling new slots with `fill`.
    pub fn resize(&mut self, new_len: usize, fill: T) {
        if new_len > self.len {
            self.reserve(new_len - self.len);
            for i in self.len..new_len {
                // SAFETY: reserved above.
                unsafe {
                    self.ptr.as_ptr().add(i).write(fill);
                }
            }
        }
        self.len = new_len;
    }

    /// View as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: ptr is valid for len initialized elements (dangling is
        // fine for len == 0).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// View as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: as above, plus exclusive access through &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Clamped sub-slice view of rows `[begin, end)` — the chunk
    /// accessor the engine's chunked scans drive. Out-of-range bounds
    /// clamp to the buffer instead of panicking, so a caller iterating
    /// fixed-size chunks needs no tail special-casing.
    #[inline]
    pub fn chunk_view(&self, begin: usize, end: usize) -> &[T] {
        let end = end.min(self.len);
        let begin = begin.min(end);
        self.as_slice().get(begin..end).unwrap_or(&[])
    }
}

impl AlignedBuf<u8> {
    /// Read up to `len` bytes of `r` into a fresh buffer allocated once
    /// at exactly `len` — the one copy a byte makes on its way from the
    /// page cache to its column. The result is shorter than `len` only
    /// when `r` ends first.
    pub fn read_from<R: Read + ?Sized>(r: &mut R, len: usize) -> io::Result<Self> {
        let mut buf = Self::zeroed(len);
        let mut filled = 0;
        while let Some(rest) = buf.get_mut(filled..).filter(|rest| !rest.is_empty()) {
            match r.read(rest) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        buf.resize(filled, 0);
        Ok(buf)
    }

    /// `len` zero bytes with capacity exactly `len`. Zero is a valid
    /// `u8`, and a `Read` may only be handed initialized bytes.
    fn zeroed(len: usize) -> Self {
        if len == 0 {
            return Self::new();
        }
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0); alignment is a
        // power of two.
        let ptr = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(ptr) else {
            handle_alloc_error(layout);
        };
        AlignedBuf { ptr, len, cap: len, _marker: PhantomData }
    }

    /// Reinterpret these bytes as a column of `T`, in place — no copy,
    /// no new allocation. Refused (the buffer comes back unchanged)
    /// unless both the length and the capacity are whole multiples of
    /// `size_of::<T>()`. The elements hold the bytes as stored; a
    /// little-endian payload needs [`Scalar::le_to_native`] on a
    /// big-endian host.
    pub fn cast<T: Scalar>(self) -> Result<AlignedBuf<T>, Self> {
        let width = size_of::<T>();
        if !self.len.is_multiple_of(width) || !self.cap.is_multiple_of(width) {
            return Err(self);
        }
        if self.cap == 0 {
            // `u8`'s dangling pointer is not aligned for `T`.
            return Ok(AlignedBuf::new());
        }
        // Soundness of the reinterpretation, which `as_slice` and `Drop`
        // then rely on: the pointer is `COLUMN_ALIGN`-aligned (it came
        // from `layout`), and `T: Scalar` has alignment at most
        // `COLUMN_ALIGN`; the first `len / width` elements are `len`
        // initialized bytes, and every bit pattern is a valid `T`
        // (sealed trait); the allocation's layout — `cap` bytes at
        // `COLUMN_ALIGN` — is exactly `AlignedBuf::<T>::layout(cap /
        // width)`, so `Drop` frees it with the layout it was allocated
        // with. `ManuallyDrop` keeps `self` from freeing it first.
        let this = ManuallyDrop::new(self);
        Ok(AlignedBuf {
            ptr: this.ptr.cast::<T>(),
            len: this.len / width,
            cap: this.cap / width,
            _marker: PhantomData,
        })
    }
}

impl<T: Copy> Drop for AlignedBuf<T> {
    fn drop(&mut self) {
        if self.cap > 0 {
            // SAFETY: allocated with `Self::layout(self.cap)` in grow_to
            // or zeroed, or (after `cast`) with a layout equal to it.
            unsafe {
                dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.cap));
            }
        }
    }
}

impl<T: Copy> Default for AlignedBuf<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> Deref for AlignedBuf<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy> DerefMut for AlignedBuf<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy> Clone for AlignedBuf<T> {
    fn clone(&self) -> Self {
        let mut b = Self::with_capacity(self.len);
        b.extend_from_slice(self.as_slice());
        b
    }
}

impl<T: Copy + PartialEq> PartialEq for AlignedBuf<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for AlignedBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Copy> FromIterator<T> for AlignedBuf<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let it = iter.into_iter();
        let mut b = Self::with_capacity(it.size_hint().0);
        b.extend_from_iter(it);
        b
    }
}

impl<T: Copy> From<&[T]> for AlignedBuf<T> {
    fn from(s: &[T]) -> Self {
        let mut b = Self::with_capacity(s.len());
        b.extend_from_slice(s);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_without_allocating() {
        let b: AlignedBuf<u32> = AlignedBuf::new();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 0);
        assert_eq!(b.as_slice(), &[] as &[u32]);
    }

    #[test]
    fn push_and_read_back() {
        let mut b = AlignedBuf::new();
        for i in 0..1000u32 {
            b.push(i * 3);
        }
        assert_eq!(b.len(), 1000);
        assert_eq!(b[0], 0);
        assert_eq!(b[999], 2997);
        assert!(b.iter().enumerate().all(|(i, &v)| v == i as u32 * 3));
    }

    #[test]
    fn buffer_is_64_byte_aligned() {
        for _ in 0..8 {
            let mut b: AlignedBuf<u8> = AlignedBuf::with_capacity(3);
            b.push(1);
            assert_eq!(b.as_slice().as_ptr() as usize % COLUMN_ALIGN, 0);
            let mut c: AlignedBuf<f32> = AlignedBuf::new();
            c.push(1.0);
            assert_eq!(c.as_slice().as_ptr() as usize % COLUMN_ALIGN, 0);
        }
    }

    #[test]
    fn extend_from_slice_appends() {
        let mut b = AlignedBuf::new();
        b.push(1u64);
        b.extend_from_slice(&[2, 3, 4]);
        assert_eq!(b.as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn resize_grows_and_shrinks() {
        let mut b = AlignedBuf::new();
        b.resize(5, 7u16);
        assert_eq!(b.as_slice(), &[7; 5]);
        b.resize(2, 0);
        assert_eq!(b.as_slice(), &[7, 7]);
        b.resize(4, 9);
        assert_eq!(b.as_slice(), &[7, 7, 9, 9]);
    }

    #[test]
    fn clone_and_eq() {
        let b: AlignedBuf<u32> = (0..100).collect();
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(c.len(), 100);
    }

    #[test]
    fn mutate_through_slice() {
        let mut b: AlignedBuf<u32> = (0..10).collect();
        b.as_mut_slice()[3] = 99;
        assert_eq!(b[3], 99);
        b.sort_unstable_by(|a, c| c.cmp(a));
        assert_eq!(b[0], 99);
    }

    #[test]
    fn growth_preserves_contents_across_many_reallocs() {
        let mut b = AlignedBuf::new();
        for i in 0..100_000u32 {
            b.push(i);
        }
        assert!(b.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn extend_from_iter_across_stage_boundaries() {
        // A filter hides the length, so growth happens mid-stream too.
        for n in [0u32, 1, 2, 511, 512, 513, 1024, 1025, 3000] {
            let mut b = AlignedBuf::from(&[7u32, 8][..]);
            b.extend_from_iter((0..n).filter(|_| true));
            assert_eq!(b.len(), n as usize + 2, "n = {n}");
            assert_eq!(&b[..2], &[7, 8]);
            assert!(b[2..].iter().copied().eq(0..n), "n = {n}");
            let collected: AlignedBuf<u32> = (0..n).collect();
            assert_eq!(collected.capacity(), n as usize, "collect sizes exactly");
        }
    }

    #[test]
    fn from_slice() {
        let b = AlignedBuf::from(&[1u8, 2, 3][..]);
        assert_eq!(b.as_slice(), &[1, 2, 3]);
    }
}
