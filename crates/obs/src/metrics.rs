//! Metrics: counters, gauges, and mergeable log-linear histograms
//! behind a process-wide registry with Prometheus-style exposition.
//!
//! Recording is lock-free (`Relaxed` atomics throughout — each metric
//! is a monotone accumulator, never a synchronisation point). The
//! histogram is log-linear: values below [`LINEAR_MAX`] land in exact
//! unit buckets, larger values fall into 32 sub-buckets per power of
//! two, so the recorded→reported error is bounded by one bucket width
//! (≤ value/32). Snapshots merge associatively and commutatively,
//! which is what lets per-thread histograms roll up into one.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Values below this are recorded exactly (unit-width buckets).
pub const LINEAR_MAX: u64 = 256;
/// Sub-buckets per octave above the linear range.
const SUBS: usize = 32;
/// First octave above the linear range: `LINEAR_MAX == 1 << 8`.
const FIRST_OCTAVE: u32 = 8;
/// 256 unit buckets + 32 sub-buckets for each octave 8..=63. Public
/// so tests (and the snapshot serde bounds check) can exercise the
/// fully-populated case.
pub const NUM_BUCKETS: usize = LINEAR_MAX as usize + (64 - FIRST_OCTAVE as usize) * SUBS;

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bucket index for a recorded value.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros();
        let sub = ((v >> (octave - 5)) & (SUBS as u64 - 1)) as usize;
        LINEAR_MAX as usize + (octave - FIRST_OCTAVE) as usize * SUBS + sub
    }
}

/// Inclusive lower bound of a bucket (the value quantiles report).
fn bucket_lower(i: usize) -> u64 {
    if i < LINEAR_MAX as usize {
        i as u64
    } else {
        let rel = i - LINEAR_MAX as usize;
        let octave = FIRST_OCTAVE + (rel / SUBS) as u32;
        let sub = (rel % SUBS) as u64;
        (1u64 << octave) + (sub << (octave - 5))
    }
}

/// Width of a bucket: 1 in the linear range, 2^(octave-5) above it.
fn bucket_width(i: usize) -> u64 {
    if i < LINEAR_MAX as usize {
        1
    } else {
        let octave = FIRST_OCTAVE + ((i - LINEAR_MAX as usize) / SUBS) as u32;
        1u64 << (octave - 5)
    }
}

/// Monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Signed instantaneous value (queue depths, resident entries).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Log-linear histogram with lock-free recording.
///
/// Unlike the latency ring it replaced in `crates/serve`, the histogram
/// never forgets: every sample since creation contributes to the
/// quantiles, so a sustained-load tail cannot age out of the window.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            sum: self.sum(),
            count: self.count(),
        }
    }

    /// Quantile of the live histogram; see
    /// [`HistogramSnapshot::quantile`] for the rank convention.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

/// Owned copy of a histogram's state; merges across threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Number of recorded samples.
    pub count: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no samples.
    pub fn empty() -> Self {
        HistogramSnapshot { counts: vec![0; NUM_BUCKETS], sum: 0, count: 0 }
    }

    /// Raw bucket counts, for the snapshot JSON serde.
    pub(crate) fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Rebuild from raw parts; `counts` must be [`NUM_BUCKETS`] long
    /// (the JSON parser guarantees this by construction).
    pub(crate) fn from_raw(counts: Vec<u64>, sum: u64, count: u64) -> Self {
        debug_assert_eq!(counts.len(), NUM_BUCKETS);
        HistogramSnapshot { counts, sum, count }
    }

    /// Fold another snapshot in. Bucket-wise addition, so merging is
    /// associative and commutative (the proptests pin this). Wrapping,
    /// to match the `fetch_add` semantics of live recording — a merge
    /// must never panic where the histogram itself would have wrapped.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.wrapping_add(*b);
        }
        self.sum = self.sum.wrapping_add(other.sum);
        self.count = self.count.wrapping_add(other.count);
    }

    /// Nearest-rank quantile, matching the rank convention the serve
    /// latency ring used (0-based rank `round((count-1) * q)`): exact
    /// for values below [`LINEAR_MAX`], bucket lower bound above it.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return bucket_lower(i);
            }
        }
        bucket_lower(NUM_BUCKETS - 1)
    }

    /// Upper bound of the error `quantile` can make for a value that
    /// landed in the same bucket: the bucket width at that value.
    pub fn max_error_at(v: u64) -> u64 {
        bucket_width(bucket_index(v))
    }

    /// Cumulative `(upper_bound, count ≤ upper_bound)` pairs for every
    /// non-empty bucket, ascending — the `_bucket{le=...}` series.
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                cum += c;
                out.push((bucket_lower(i) + bucket_width(i) - 1, cum));
            }
        }
        out
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
pub enum Metric {
    /// Monotone counter.
    Counter(Arc<Counter>),
    /// Instantaneous gauge.
    Gauge(Arc<Gauge>),
    /// Log-linear histogram.
    Histogram(Arc<Histogram>),
}

/// Named collection of metrics; renders Prometheus text exposition.
///
/// Lookup takes a mutex, so call sites resolve their metric once and
/// hold the `Arc` — recording on the handle is lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// Prometheus metric names: `[a-zA-Z_:][a-zA-Z0-9_:]*`. Anything else
/// is mapped to `_` so instrumentation sites cannot produce an
/// exposition that fails its own validator.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, ch) in name.chars().enumerate() {
        let ok =
            ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || (i > 0 && ch.is_ascii_digit());
        out.push(if ok { ch } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

impl Registry {
    /// An empty registry. Most callers want [`crate::global`] instead.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter registered under `name`, creating it on first use.
    /// If `name` is already registered as a different kind, a detached
    /// (unregistered) counter is returned so recording still works.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let name = sanitize(name);
        let mut m = lock_recover(&self.metrics);
        match m.entry(name).or_insert_with(|| Metric::Counter(Arc::new(Counter::default()))) {
            Metric::Counter(c) => Arc::clone(c),
            _ => Arc::new(Counter::default()),
        }
    }

    /// The gauge registered under `name`; same contract as `counter`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let name = sanitize(name);
        let mut m = lock_recover(&self.metrics);
        match m.entry(name).or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default()))) {
            Metric::Gauge(g) => Arc::clone(g),
            _ => Arc::new(Gauge::default()),
        }
    }

    /// The histogram registered under `name`; same contract as `counter`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let name = sanitize(name);
        let mut m = lock_recover(&self.metrics);
        match m.entry(name).or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => Arc::clone(h),
            _ => Arc::new(Histogram::new()),
        }
    }

    /// The metric registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<Metric> {
        lock_recover(&self.metrics).get(&sanitize(name)).cloned()
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        lock_recover(&self.metrics).keys().cloned().collect()
    }

    /// Owned, mergeable, wire-able copy of every registered metric —
    /// the unit of cross-process metrics federation.
    pub fn snapshot(&self) -> crate::snapshot::RegistrySnapshot {
        let metrics = lock_recover(&self.metrics);
        let mut out = crate::snapshot::RegistrySnapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    out.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    out.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    out.hists.insert(name.clone(), h.snapshot());
                }
            }
        }
        out
    }

    /// Prometheus text exposition of every registered metric, names in
    /// sorted order. Histograms emit only their non-empty buckets (the
    /// log-linear layout has 2048) plus the mandatory `+Inf`, `_sum`
    /// and `_count` series. Round-trips through
    /// [`crate::validate_prometheus`].
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let metrics = lock_recover(&self.metrics);
        let mut out = String::new();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter\n{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge\n{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    for (le, cum) in snap.cumulative() {
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count);
                    let _ = writeln!(out, "{name}_sum {}", snap.sum);
                    let _ = writeln!(out, "{name}_count {}", snap.count);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_range_is_exact() {
        for v in 0..LINEAR_MAX {
            let i = bucket_index(v);
            assert_eq!(bucket_lower(i), v);
            assert_eq!(bucket_width(i), 1);
        }
    }

    #[test]
    fn bucket_bounds_bracket_the_value() {
        for shift in 8..63 {
            for v in [1u64 << shift, (1u64 << shift) + 7, (1u64 << (shift + 1)) - 1] {
                let i = bucket_index(v);
                let lo = bucket_lower(i);
                let w = bucket_width(i);
                assert!(lo <= v && v < lo + w, "v={v} lo={lo} w={w}");
                assert!(w <= v / 16, "width {w} too coarse for {v}");
            }
        }
        let i = bucket_index(u64::MAX);
        assert!(i < NUM_BUCKETS);
        // The top bucket ends exactly at u64::MAX — no overflow, no gap.
        assert_eq!(bucket_lower(i) + (bucket_width(i) - 1), u64::MAX);
    }

    #[test]
    fn quantile_matches_the_serve_ring_convention() {
        let h = Histogram::new();
        for us in 1..=100 {
            h.record(us);
        }
        // 0-based rank round((n-1)*q), same as the old sorted-ring
        // percentile(): p50 of 1..=100 is 51, p99 is 99.
        assert_eq!(h.quantile(0.50), 51);
        assert_eq!(h.quantile(0.95), 95);
        assert_eq!(h.quantile(0.99), 99);
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn snapshot_merge_accumulates() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        a.record(20);
        b.record(1_000_000);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 1_000_030);
        let p = s.quantile(1.0);
        assert!(p <= 1_000_000 && 1_000_000 - p <= HistogramSnapshot::max_error_at(1_000_000));
    }

    #[test]
    fn cumulative_is_ascending_and_ends_at_count() {
        let h = Histogram::new();
        for v in [0u64, 1, 255, 256, 300, 70_000, 70_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        let cum = snap.cumulative();
        assert!(cum.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(cum.last().unwrap().1, snap.count);
    }

    #[test]
    fn registry_handles_are_idempotent_and_shared() {
        let r = Registry::new();
        r.counter("requests_total").add(2);
        r.counter("requests_total").inc();
        assert_eq!(r.counter("requests_total").get(), 3);
        r.gauge("queue_depth").set(-4);
        assert_eq!(r.gauge("queue_depth").get(), -4);
        r.histogram("latency_us").record(42);
        assert_eq!(r.histogram("latency_us").count(), 1);
        // Kind mismatch yields a detached instance, not a panic.
        assert_eq!(r.gauge("requests_total").get(), 0);
        assert_eq!(r.counter("requests_total").get(), 3);
    }

    #[test]
    fn names_are_sanitized_to_prometheus_syntax() {
        let r = Registry::new();
        r.counter("serve.cache-hits");
        assert_eq!(r.names(), vec!["serve_cache_hits".to_string()]);
        r.counter("9lives");
        assert!(r.names().contains(&"_lives".to_string()));
    }

    #[test]
    fn render_emits_all_three_kinds() {
        let r = Registry::new();
        r.counter("c_total").add(5);
        r.gauge("g_now").set(7);
        let h = r.histogram("h_us");
        h.record(3);
        h.record(500);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE c_total counter\nc_total 5\n"), "{text}");
        assert!(text.contains("# TYPE g_now gauge\ng_now 7\n"), "{text}");
        assert!(text.contains("# TYPE h_us histogram\n"), "{text}");
        assert!(text.contains("h_us_bucket{le=\"3\"} 1\n"), "{text}");
        assert!(text.contains("h_us_bucket{le=\"+Inf\"} 2\n"), "{text}");
        assert!(text.contains("h_us_sum 503\n"), "{text}");
        assert!(text.contains("h_us_count 2\n"), "{text}");
    }
}
