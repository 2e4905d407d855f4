//! Service metrics: completion counters and latency percentiles.
//!
//! Latencies go into a shared [`gdelt_obs::Histogram`] (log-linear,
//! lock-free, never forgets a sample) instead of the fixed-capacity
//! ring this module used to keep — under sustained load the ring's
//! overwrite semantics silently dropped the latency tail, so a burst
//! of slow queries older than 4096 completions vanished from p99. The
//! snapshot API is unchanged; every recording also feeds the global
//! `serve_*` metrics in [`gdelt_obs::global`] so the Prometheus
//! exposition sees the service without a bespoke bridge.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gdelt_columnar::Coverage;
use gdelt_obs::{Counter, Histogram};

use crate::cache::CacheStats;

/// Internal recorder owned by the service. Per-service counters back
/// the snapshot (a process may run several services, e.g. in tests);
/// the global registry aggregates across all of them.
#[derive(Debug)]
pub(crate) struct Metrics {
    started: Instant,
    completed: AtomicU64,
    answered: AtomicU64,
    degraded: AtomicU64,
    timeouts: AtomicU64,
    worker_panics: AtomicU64,
    latency: Histogram,
    global_latency: Arc<Histogram>,
    global_completed: Arc<Counter>,
    global_timeouts: Arc<Counter>,
    global_worker_panics: Arc<Counter>,
}

impl Metrics {
    pub(crate) fn new() -> Self {
        let reg = gdelt_obs::global();
        Metrics {
            started: Instant::now(),
            completed: AtomicU64::new(0),
            answered: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            latency: Histogram::new(),
            global_latency: reg.histogram("serve_latency_us"),
            global_completed: reg.counter("serve_completed_total"),
            global_timeouts: reg.counter("serve_timeouts_total"),
            global_worker_panics: reg.counter("serve_worker_panics_total"),
        }
    }

    pub(crate) fn record_completion(&self, latency_us: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency_us);
        self.global_latency.record(latency_us);
        self.global_completed.inc();
    }

    pub(crate) fn record_answered(&self, tickets: usize) {
        self.answered.fetch_add(tickets as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
        self.global_timeouts.inc();
    }

    pub(crate) fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
        self.global_worker_panics.inc();
    }

    pub(crate) fn snapshot(
        &self,
        queue_depth: usize,
        cache: CacheStats,
        shed: u64,
        coalesced: u64,
        generation: u64,
        coverage: Coverage,
    ) -> ServiceMetrics {
        let lat = self.latency.snapshot();
        let completed = self.completed.load(Ordering::Relaxed);
        let uptime_s = self.started.elapsed().as_secs_f64();
        ServiceMetrics {
            uptime_s,
            completed,
            answered: self.answered.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            qps: if uptime_s > 0.0 { completed as f64 / uptime_s } else { 0.0 },
            p50_us: lat.quantile(0.50),
            p95_us: lat.quantile(0.95),
            p99_us: lat.quantile(0.99),
            queue_depth,
            cache,
            shed,
            coalesced,
            timeouts: self.timeouts.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            generation,
            coverage,
        }
    }
}

/// A point-in-time view of service health, as rendered by
/// `gdelt-cli serve-bench`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceMetrics {
    /// Seconds since the service started.
    pub uptime_s: f64,
    /// Queries executed to completion (kernel runs, not cache hits).
    pub completed: u64,
    /// Tickets resolved with an answer: cache hits, plus every waiter
    /// of an execution, coalesced ones included.
    pub answered: u64,
    /// Executions whose answer had partial coverage (served or refused
    /// by the degraded policy).
    pub degraded: u64,
    /// Completions per second over the whole uptime.
    pub qps: f64,
    /// Median kernel latency since service start, microseconds. Exact
    /// below 256 µs, within one log-linear bucket (≤ value/32) above.
    pub p50_us: u64,
    /// 95th-percentile kernel latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile kernel latency, microseconds.
    pub p99_us: u64,
    /// Admitted-but-incomplete queries at snapshot time.
    pub queue_depth: usize,
    /// Result-cache counters.
    pub cache: CacheStats,
    /// Queries shed by admission control.
    pub shed: u64,
    /// Tickets coalesced onto identical in-flight queries.
    pub coalesced: u64,
    /// Waits that expired before their query completed.
    pub timeouts: u64,
    /// Worker panics caught at the worker loop (each resolves its
    /// waiters with [`crate::ServeError::WorkerPanicked`]).
    pub worker_panics: u64,
    /// Stamp of the backend data the service is answering from.
    pub generation: u64,
    /// Coverage behind the most recent execution (a local store's load
    /// coverage before the first).
    pub coverage: Coverage,
}

impl ServiceMetrics {
    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        format!(
            "service metrics (generation {gen}, coverage {cov}, up {up:.1}s)\n\
             \x20 completed {completed} ({qps:.1} qps), {answered} answered, \
             {degraded} degraded, queue depth {depth}\n\
             \x20 kernel latency p50 {p50} us, p95 {p95} us, p99 {p99} us\n\
             \x20 cache: {hits} hits / {misses} misses ({rate:.1}% hit rate), \
             {entries} resident, {evictions} evicted, {invalidations} invalidated\n\
             \x20 shed {shed}, coalesced {coalesced}, timeouts {timeouts}, \
             worker panics {panics}",
            gen = self.generation,
            cov = self.coverage,
            up = self.uptime_s,
            completed = self.completed,
            answered = self.answered,
            degraded = self.degraded,
            qps = self.qps,
            depth = self.queue_depth,
            p50 = self.p50_us,
            p95 = self.p95_us,
            p99 = self.p99_us,
            hits = self.cache.hits,
            misses = self.cache.misses,
            rate = self.cache.hit_rate() * 100.0,
            entries = self.cache.entries,
            evictions = self.cache.evictions,
            invalidations = self.cache.invalidations,
            shed = self.shed,
            coalesced = self.coalesced,
            timeouts = self.timeouts,
            panics = self.worker_panics,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_over_recorded_latencies() {
        let m = Metrics::new();
        for us in 1..=100 {
            m.record_completion(us);
        }
        let s = m.snapshot(0, CacheStats::default(), 0, 0, 0, Coverage::full());
        assert_eq!(s.completed, 100);
        assert_eq!(s.p50_us, 51); // nearest-rank on 1..=100, exact below 256
        assert_eq!(s.p99_us, 99);
        assert!(s.qps > 0.0);
    }

    #[test]
    fn histogram_keeps_the_full_latency_tail() {
        // The retired ring overwrote old samples, so 4096 slow
        // completions vanished once 4096 fast ones followed. The
        // histogram keeps both populations.
        let m = Metrics::new();
        for _ in 0..4096 {
            m.record_completion(1_000);
        }
        for _ in 0..5000 {
            m.record_completion(1);
        }
        let s = m.snapshot(0, CacheStats::default(), 0, 0, 0, Coverage::full());
        assert_eq!(s.p50_us, 1, "fast majority sets the median");
        // The 4096 slow completions recorded *first* are still visible
        // at p95/p99 (the old ring had fully overwritten them), within
        // one log-linear bucket (width 16 at 1000 µs ⇒ lower bound 992).
        assert!((992..=1_000).contains(&s.p95_us), "p95 {}", s.p95_us);
        assert!((992..=1_000).contains(&s.p99_us), "p99 {}", s.p99_us);
        assert_eq!(s.completed, 9096);
    }

    #[test]
    fn completions_feed_the_global_registry() {
        let reg = gdelt_obs::global();
        let before_hist = reg.histogram("serve_latency_us").count();
        let before_done = reg.counter("serve_completed_total").get();
        let m = Metrics::new();
        m.record_completion(42);
        m.record_timeout();
        m.record_worker_panic();
        assert_eq!(reg.histogram("serve_latency_us").count(), before_hist + 1);
        assert_eq!(reg.counter("serve_completed_total").get(), before_done + 1);
        assert!(reg.counter("serve_timeouts_total").get() >= 1);
        assert!(reg.counter("serve_worker_panics_total").get() >= 1);
    }

    #[test]
    fn render_is_complete() {
        let m = Metrics::new();
        m.record_completion(42);
        m.record_timeout();
        m.record_worker_panic();
        let s = m.snapshot(
            3,
            CacheStats { hits: 1, misses: 1, ..Default::default() },
            2,
            1,
            7,
            Coverage { live: 7, total: 8 },
        );
        let text = s.render();
        for needle in [
            "generation 7",
            "queue depth 3",
            "50.0% hit rate",
            "shed 2",
            "timeouts 1",
            "worker panics 1",
            "coverage 7/8",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn empty_snapshot_is_all_zeros() {
        let m = Metrics::new();
        let s = m.snapshot(0, CacheStats::default(), 0, 0, 0, Coverage::full());
        assert_eq!((s.p50_us, s.p95_us, s.p99_us, s.completed), (0, 0, 0, 0));
    }
}
