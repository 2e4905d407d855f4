//! The faulty source: applies a schedule of byte-level faults to a
//! store read at absolute offsets. A load reads its payloads in per-core
//! groups, in no fixed order, so each fault depends only on the offsets
//! a read covers: it hits the same bytes whichever thread reads them.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use gdelt_columnar::binfmt::ReadAt;

/// A [`ReadAt`] wrapper that applies scheduled faults by absolute
/// offset: flips bytes, ends the source early, fails or delays the read
/// that covers a given offset.
///
/// Offsets count from the start of the wrapped source (for store files:
/// offset 0 is the first magic byte).
pub struct FaultyRead<'a> {
    inner: Box<dyn ReadAt + 'a>,
    flips: Vec<(u64, u8)>,
    truncate_at: Option<u64>,
    fail_at: Option<u64>,
    /// Delays not yet fired: each fires once, in the first read that
    /// covers its offset, on whichever thread that is.
    delays: Mutex<Vec<(u64, Duration)>>,
    truncate_reported: AtomicBool,
}

impl<'a> FaultyRead<'a> {
    /// Wrap `inner` with an explicit fault set.
    ///
    /// * `flips` — `(pos, xor)` pairs; the byte at `pos` is XORed in
    ///   every read that covers it.
    /// * `truncate_at` — the source ends at this offset.
    /// * `fail_at` — a read that would reach past this offset fails with
    ///   a retryable (non-`InvalidData`) error.
    /// * `delays` — `(pos, dur)`: sleep `dur` before the read covering
    ///   `pos`; each delay fires once.
    pub fn new(
        inner: Box<dyn ReadAt + 'a>,
        flips: Vec<(u64, u8)>,
        truncate_at: Option<u64>,
        fail_at: Option<u64>,
        delays: Vec<(u64, Duration)>,
    ) -> Self {
        let (delays, truncate_reported) = (Mutex::new(delays), AtomicBool::new(false));
        FaultyRead { inner, flips, truncate_at, fail_at, delays, truncate_reported }
    }
}

impl ReadAt for FaultyRead<'_> {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        let mut want = buf.len();
        if let Some(t) = self.truncate_at {
            if offset >= t {
                if !self.truncate_reported.swap(true, Ordering::Relaxed) {
                    gdelt_obs::flight_warn(
                        "faults",
                        "truncate",
                        format!("injected EOF at offset {t}"),
                    );
                }
                return Ok(0);
            }
            let left = usize::try_from(t - offset).unwrap_or(usize::MAX);
            want = want.min(left);
        }
        let end = offset.saturating_add(want as u64);
        if let Some(f) = self.fail_at {
            if end > f {
                gdelt_obs::flight_warn(
                    "faults",
                    "read_fail",
                    format!("injected transient failure crossing offset {f}"),
                );
                return Err(io::Error::other("injected transient read failure"));
            }
        }
        let mut delays = self.delays.lock().unwrap_or_else(PoisonError::into_inner);
        let due: Vec<_> = delays.extract_if(.., |(at, _)| (offset..end).contains(at)).collect();
        drop(delays);
        for (at, dur) in due {
            gdelt_obs::flight_warn(
                "faults",
                "delay",
                format!("injected {dur:?} stall before offset {at}"),
            );
            std::thread::sleep(dur);
        }
        let n = self.inner.read_at(&mut buf[..want], offset)?;
        for &(at, xor) in &self.flips {
            if (offset..offset.saturating_add(n as u64)).contains(&at) {
                let idx = usize::try_from(at - offset).unwrap_or(usize::MAX);
                if let Some(b) = buf.get_mut(idx) {
                    *b ^= xor;
                    gdelt_obs::flight_warn(
                        "faults",
                        "flip",
                        format!("injected bit flip at offset {at} (xor {xor:#04x})"),
                    );
                }
            }
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every byte of `r` up to where it ends, in reads of `chunk` bytes.
    fn read_all(r: &dyn ReadAt, chunk: usize) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        loop {
            let mut buf = vec![0u8; chunk];
            let n = r.read_at(&mut buf, out.len() as u64)?;
            if n == 0 {
                return Ok(out);
            }
            out.extend_from_slice(&buf[..n]);
        }
    }

    #[test]
    fn flips_exactly_the_scheduled_bytes() {
        let data = vec![0u8; 16];
        let r = FaultyRead::new(
            Box::new(data.as_slice()),
            vec![(3, 0xFF), (10, 0x01)],
            None,
            None,
            Vec::new(),
        );
        let out = read_all(&r, 64).unwrap();
        assert_eq!(out.len(), 16);
        for (i, b) in out.iter().enumerate() {
            let expect = match i {
                3 => 0xFF,
                10 => 0x01,
                _ => 0,
            };
            assert_eq!(*b, expect, "byte {i}");
        }
        assert_eq!(read_all(&r, 64).unwrap(), out, "a flip hits every read of its byte");
    }

    #[test]
    fn flips_work_across_small_read_chunks() {
        let data: Vec<u8> = (0..32).collect();
        let r =
            FaultyRead::new(Box::new(data.as_slice()), vec![(17, 0x80)], None, None, Vec::new());
        // Read in 5-byte chunks so the flip lands mid-chunk.
        let mut expect = data.clone();
        expect[17] ^= 0x80;
        assert_eq!(read_all(&r, 5).unwrap(), expect);
    }

    #[test]
    fn truncates_at_offset() {
        let data = vec![7u8; 100];
        let r = FaultyRead::new(Box::new(data.as_slice()), Vec::new(), Some(42), None, Vec::new());
        assert_eq!(read_all(&r, 16).unwrap().len(), 42);
        let mut buf = [0u8; 8];
        assert_eq!(r.read_at(&mut buf, 40).unwrap(), 2, "a read across the cut is short");
        assert_eq!(r.read_at(&mut buf, 60).unwrap(), 0, "nothing lies past the cut");
    }

    #[test]
    fn fails_the_read_crossing_the_offset() {
        let data = vec![7u8; 100];
        let r = FaultyRead::new(Box::new(data.as_slice()), Vec::new(), None, Some(50), Vec::new());
        let mut buf = [0u8; 40];
        r.read_at(&mut buf, 0).unwrap(); // [0, 40) fine
        r.read_at(&mut buf[..10], 40).unwrap(); // [40, 50) ends at the offset: fine
        for at in [40, 60] {
            let err = r.read_at(&mut buf, at).unwrap_err(); // reaches past 50
            assert_ne!(err.kind(), io::ErrorKind::InvalidData, "must be retryable");
        }
    }

    #[test]
    fn fault_hits_land_in_the_flight_recorder() {
        let data = vec![0u8; 64];
        let r =
            FaultyRead::new(Box::new(data.as_slice()), vec![(5, 0xA5)], Some(33), None, Vec::new());
        read_all(&r, 64).unwrap();
        // The recorder is process-global and other tests write to it
        // concurrently, so assert only that *our* hits are present.
        let evs = gdelt_obs::flight_snapshot();
        assert!(
            evs.iter().any(|e| e.code == "flip" && e.detail.contains("offset 5")),
            "missing flip event: {evs:?}"
        );
        assert!(
            evs.iter().any(|e| e.code == "truncate" && e.detail.contains("offset 33")),
            "missing truncate event: {evs:?}"
        );
    }

    #[test]
    fn delay_fires_once() {
        let data = vec![0u8; 64];
        let delays = vec![(10, Duration::from_millis(30))];
        let r = FaultyRead::new(Box::new(data.as_slice()), Vec::new(), None, None, delays);
        let t0 = std::time::Instant::now();
        assert_eq!(read_all(&r, 8).unwrap().len(), 64);
        assert!(t0.elapsed() >= Duration::from_millis(25), "delay should have fired");
        assert!(r.delays.lock().unwrap().is_empty(), "a fired delay is gone");
    }

    /// What each of `ranges` reads from `r`, errors as their text.
    type Reads = Vec<Result<Vec<u8>, String>>;

    fn read_ranges(r: &dyn ReadAt, ranges: &[(u64, usize)]) -> Reads {
        let read = |&(at, len): &(u64, usize)| {
            let mut buf = vec![0u8; len];
            let n = r.read_at(&mut buf, at).map_err(|e| e.to_string())?;
            Ok(buf[..n].to_vec())
        };
        ranges.iter().map(read).collect()
    }

    #[test]
    fn every_fault_depends_only_on_the_offsets_a_read_covers() {
        let data: Vec<u8> = (0..=255).collect();
        let ranges: Vec<(u64, usize)> = (0..8).map(|k| (k * 32, 32)).collect();
        let ms = Duration::from_millis(1);
        // At a range's first byte, at its last byte, and inside one.
        for pos in [64, 95, 130] {
            let faults = [
                (vec![(pos, 0x5A)], None, None, Vec::new()),
                (Vec::new(), Some(pos), None, Vec::new()),
                (Vec::new(), None, Some(pos), Vec::new()),
                (Vec::new(), None, None, vec![(pos, ms)]),
            ];
            for (flips, cut, fail, delays) in faults {
                let faulty = || {
                    let (flips, delays) = (flips.clone(), delays.clone());
                    FaultyRead::new(Box::new(data.as_slice()), flips, cut, fail, delays)
                };
                let forward = read_ranges(&faulty(), &ranges);
                // The same ranges read last to first ...
                let rev: Vec<_> = ranges.iter().rev().copied().collect();
                let mut backward = read_ranges(&faulty(), &rev);
                backward.reverse();
                assert_eq!(backward, forward, "pos {pos}");
                // ... and split over two threads, as two load groups are.
                let r = faulty();
                let (lo, hi) = ranges.split_at(ranges.len() / 2);
                let (mut both, high) = std::thread::scope(|s| {
                    let high = s.spawn(|| read_ranges(&r, hi));
                    (read_ranges(&r, lo), high.join().unwrap())
                });
                both.extend(high);
                assert_eq!(both, forward, "pos {pos}");
            }
        }
    }
}
