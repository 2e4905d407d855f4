//! The host probe: what this machine can do *right now*.
//!
//! A timed op's gated cost is its wall-clock divided by the probe time of
//! the same round, so a neighbour that makes memory-latency-bound code
//! 15–20 % slower for minutes moves numerator and denominator together.
//! The probe runs the four things the ops are made of — register-only
//! arithmetic (parsing, decoding), a sequential column scan,
//! dependent-free random reads (CSR lookups, dictionary hits) and random
//! read-modify-writes (count-by, pair matrices) — on as many threads as
//! the engine uses.
//!
//! The compute part is what the issue's three-part probe lacked: no op
//! is purely memory-bound, and csv parse and store decode hardly touch
//! memory at all, so a denominator made of memory parts alone moved more
//! than any op did (CALIBRATION.md "Probe weighting").

use std::time::Instant;

/// Shared read buffer: 32 MiB of `u64`, larger than any private cache.
const BUF_WORDS: usize = 4 << 20;
/// Random reads per thread per probe.
const GATHER_OPS: usize = 2 << 20;
/// Random increments per thread per probe.
const SCATTER_OPS: usize = 2 << 20;
/// Per-thread histogram: 4 MiB of `u32`.
const HIST_SLOTS: usize = 1 << 20;

/// Steps of the register-only loop per thread per probe: on a quiet host
/// about a third of the time of the three memory parts together.
const COMPUTE_OPS: usize = 8 << 20;

/// Weights of the four parts in the probe time; one weighting for all
/// workloads (see CALIBRATION.md for how it was chosen).
const WEIGHTS: [f64; 4] = [1.0, 1.0, 1.0, 1.0];

/// Seconds each part of one probe took (wall-clock across all threads).
#[derive(Debug, Clone, Copy)]
pub struct ProbeTimes {
    pub compute_s: f64,
    pub stream_s: f64,
    pub gather_s: f64,
    pub scatter_s: f64,
}

impl ProbeTimes {
    pub fn parts(&self) -> [f64; 4] {
        [self.compute_s, self.stream_s, self.gather_s, self.scatter_s]
    }

    /// The denominator of every cost.
    pub fn total_s(&self) -> f64 {
        self.parts().iter().zip(WEIGHTS).map(|(p, w)| p * w).sum()
    }
}

pub struct HostProbe {
    threads: usize,
    buf: Vec<u64>,
    hists: Vec<Vec<u32>>,
}

/// Logical CPUs available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[inline]
fn next(state: &mut u64) -> u64 {
    // xorshift64*: cheap enough that the memory access dominates.
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

impl HostProbe {
    /// Allocate and touch the probe's buffers; they live as long as the run.
    pub fn allocate() -> Self {
        let threads = cores();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let buf = (0..BUF_WORDS).map(|_| next(&mut state)).collect();
        // Touch every histogram page now, so no probe pays page faults.
        let hists = (0..threads).map(|_| vec![1u32; HIST_SLOTS]).collect();
        HostProbe { threads, buf, hists }
    }

    /// Run one probe. The main thread only waits, so no more than
    /// `threads` threads are runnable.
    pub fn run(&mut self) -> ProbeTimes {
        let buf = &self.buf;
        let n = self.threads;

        let t = Instant::now();
        std::thread::scope(|s| {
            for i in 0..n {
                s.spawn(move || {
                    let mut state = 0x1b87_3593_cc9e_2d51 ^ (i as u64 + 1);
                    let sum = (0..COMPUTE_OPS).fold(0u64, |a, _| a.wrapping_add(next(&mut state)));
                    std::hint::black_box(sum);
                });
            }
        });
        let compute_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        std::thread::scope(|s| {
            for i in 0..n {
                s.spawn(move || {
                    // Each thread streams the whole buffer from its own
                    // starting point, so threads do not share lines in step.
                    let (head, tail) = buf.split_at(i * BUF_WORDS / n);
                    let sum = tail.iter().chain(head).fold(0u64, |a, &x| a.wrapping_add(x));
                    std::hint::black_box(sum);
                });
            }
        });
        let stream_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        std::thread::scope(|s| {
            for i in 0..n {
                s.spawn(move || {
                    let mut state = 0xa076_1d64_78bd_642f ^ (i as u64 + 1);
                    let mut sum = 0u64;
                    for _ in 0..GATHER_OPS {
                        let at = (next(&mut state) >> 32) as usize & (BUF_WORDS - 1);
                        sum = sum.wrapping_add(buf[at]);
                    }
                    std::hint::black_box(sum);
                });
            }
        });
        let gather_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        std::thread::scope(|s| {
            for (i, hist) in self.hists.iter_mut().enumerate() {
                s.spawn(move || {
                    let mut state = 0xe703_7ed1_a0b4_28db ^ (i as u64 + 1);
                    for _ in 0..SCATTER_OPS {
                        let at = (next(&mut state) >> 32) as usize & (HIST_SLOTS - 1);
                        hist[at] = hist[at].wrapping_add(1);
                    }
                    std::hint::black_box(&hist[0]);
                });
            }
        });
        let scatter_s = t.elapsed().as_secs_f64();

        ProbeTimes { compute_s, stream_s, gather_s, scatter_s }
    }

    /// Rates of one probe, for the `host.*` per-layer metrics: (compute
    /// Mops/s, stream GB/s, gather Mops/s, scatter Mops/s), summed over
    /// threads.
    pub fn rates(&self, p: &ProbeTimes) -> (f64, f64, f64, f64) {
        let n = self.threads as f64;
        (
            n * COMPUTE_OPS as f64 / p.compute_s / 1e6,
            n * (BUF_WORDS * 8) as f64 / p.stream_s / 1e9,
            n * GATHER_OPS as f64 / p.gather_s / 1e6,
            n * SCATTER_OPS as f64 / p.scatter_s / 1e6,
        )
    }
}
