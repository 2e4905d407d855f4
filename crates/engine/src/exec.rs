//! Execution context: thread-count control and the partitioned
//! map-reduce skeleton every parallel query uses.
//!
//! The paper's engine is OpenMP with static scheduling over NUMA-placed
//! table chunks; the Rust equivalent is an explicit partition list mapped
//! in a scoped rayon pool, with one partial accumulator per partition and
//! a sequential merge. Queries never share mutable state across workers.

use gdelt_columnar::partition::{partitions, Partition};

/// Default partition granularity: a few partitions per thread for load
/// balancing without fragmenting the scan.
const DEFAULT_PARTITIONS_PER_THREAD: usize = 4;

/// Thread-count and partitioning policy for query execution.
#[derive(Debug, Clone)]
pub struct ExecContext {
    n_threads: usize,
    pool: Option<std::sync::Arc<rayon::ThreadPool>>,
    partitions_per_thread: usize,
    pin_threads: bool,
}

impl Default for ExecContext {
    fn default() -> Self {
        Self::builder().build()
    }
}

/// Configures an [`ExecContext`]: thread count, NUMA pinning hint, and
/// partition-granularity override — the single way to construct a
/// context.
#[derive(Debug, Clone, Default)]
pub struct ExecContextBuilder {
    threads: Option<usize>,
    partitions_per_thread: Option<usize>,
    pin_threads: bool,
}

impl ExecContextBuilder {
    /// Use a dedicated pool with exactly `n` worker threads (clamped to
    /// at least 1). Without this, the global pool is used.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Record the NUMA-pinning hint. The paper's OpenMP engine pins
    /// workers to NUMA-placed table chunks; the portable pools here
    /// cannot pin, so the flag is carried as deployment metadata that
    /// NUMA-aware runners can act on.
    pub fn pin_threads(mut self, pin: bool) -> Self {
        self.pin_threads = pin;
        self
    }

    /// Override how many partitions each worker thread gets per scan
    /// (clamped to at least 1). Larger values improve load balancing on
    /// skewed CSR groups at the cost of merge work; the default is 4.
    pub fn partitions_per_thread(mut self, n: usize) -> Self {
        self.partitions_per_thread = Some(n.max(1));
        self
    }

    /// Construct the context.
    pub fn build(self) -> ExecContext {
        let (n_threads, pool) = match self.threads {
            Some(n) => {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(n)
                    .build()
                    // analyze: allow(no_panic): startup-time pool construction; no recovery path
                    .expect("failed to build thread pool");
                (n, Some(std::sync::Arc::new(pool)))
            }
            None => (rayon::current_num_threads(), None),
        };
        ExecContext {
            n_threads,
            pool,
            partitions_per_thread: self
                .partitions_per_thread
                .unwrap_or(DEFAULT_PARTITIONS_PER_THREAD),
            pin_threads: self.pin_threads,
        }
    }
}

impl ExecContext {
    /// Start configuring a context. `builder().build()` uses the global
    /// rayon pool; `builder().threads(1).build()` is fully sequential
    /// (the paper's 344 s reference point); `builder().threads(n)` gives
    /// a dedicated pool, as the Fig 12 scaling sweep needs.
    pub fn builder() -> ExecContextBuilder {
        ExecContextBuilder::default()
    }

    /// Number of worker threads.
    #[inline]
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Partitions handed to each worker thread per scan.
    #[inline]
    pub fn partitions_per_thread(&self) -> usize {
        self.partitions_per_thread
    }

    /// Whether the caller asked for NUMA-pinned workers (a hint; see
    /// [`ExecContextBuilder::pin_threads`]).
    #[inline]
    pub fn pin_threads(&self) -> bool {
        self.pin_threads
    }

    /// Partitions for an `n_rows` scan: a few per thread for load
    /// balancing, none empty unless the table is tiny.
    pub fn make_partitions(&self, n_rows: usize) -> Vec<Partition> {
        partitions(n_rows, (self.n_threads * self.partitions_per_thread).min(n_rows.max(1)))
    }

    /// Run `f` inside this context's pool (or the global one).
    pub fn install<T: Send>(&self, f: impl FnOnce() -> T + Send) -> T {
        match &self.pool {
            Some(pool) => pool.install(f),
            None => f(),
        }
    }

    /// The partitioned map-reduce skeleton: `map` runs per partition in
    /// parallel, producing one partial each; partials are merged
    /// sequentially (merge cost is negligible next to the scans).
    // analyze: no_panic
    pub fn map_reduce<T, M, R>(&self, parts: Vec<Partition>, map: M, reduce: R) -> Option<T>
    where
        T: Send,
        M: Fn(Partition) -> T + Sync + Send,
        R: FnMut(T, T) -> T,
    {
        use rayon::prelude::*;
        // Ambient trace context is thread-local; capture it once here
        // so the partition spans recorded on rayon worker threads
        // still parent under the caller's span (e.g. a shard worker's
        // `worker_query`, itself parented under a router RPC span from
        // another process).
        let parent = if gdelt_obs::tracing_enabled() {
            gdelt_obs::current_trace()
        } else {
            gdelt_obs::TraceContext::NONE
        };
        let partials: Vec<T> = self.install(|| {
            parts
                .into_par_iter()
                .enumerate()
                .map(|(i, p)| {
                    // One inert guard (a single relaxed load) per
                    // partition when tracing is off; when it is on, the
                    // per-partition/per-thread breakdown is what the
                    // Fig 12 imbalance view is built from.
                    let _t = (!parent.is_none()).then(|| gdelt_obs::with_trace(parent));
                    // analyze: allow(obs_hot_path): per-partition granularity is the point; cost is one atomic load when disabled
                    let _s = gdelt_obs::span_args("engine", "partition", "rows", p.len() as u64)
                        .arg("part", i as u64);
                    map(p)
                })
                .collect()
        });
        partials.into_iter().reduce(reduce)
    }

    /// Convenience map-reduce over an `n_rows` flat scan with a default
    /// accumulator for the empty case.
    // analyze: no_panic
    pub fn scan<T, M>(&self, n_rows: usize, map: M) -> T
    where
        T: Send + Default + Merge,
        M: Fn(Partition) -> T + Sync + Send,
    {
        self.map_reduce(self.make_partitions(n_rows), map, |mut a, b| {
            a.merge(b);
            a
        })
        .unwrap_or_default()
    }
}

/// Mergeable partial-accumulator types used with [`ExecContext::scan`].
pub trait Merge {
    /// Fold `other` into `self`.
    fn merge(&mut self, other: Self);

    /// `self` with `other` folded in, by value.
    fn merged(mut self, other: Self) -> Self
    where
        Self: Sized,
    {
        self.merge(other);
        self
    }
}

impl Merge for u64 {
    fn merge(&mut self, other: Self) {
        *self += other;
    }
}

impl Merge for f64 {
    fn merge(&mut self, other: Self) {
        *self += other;
    }
}

impl<T: Merge> Merge for Vec<T>
where
    T: Default,
{
    fn merge(&mut self, other: Self) {
        if self.len() < other.len() {
            self.resize_with(other.len(), T::default);
        }
        for (i, v) in other.into_iter().enumerate() {
            self[i].merge(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_context_uses_global_pool() {
        let ctx = ExecContext::builder().build();
        assert!(ctx.n_threads() >= 1);
        assert_eq!(ctx.install(|| 41 + 1), 42);
    }

    #[test]
    fn with_threads_controls_pool_size() {
        let ctx = ExecContext::builder().threads(2).build();
        assert_eq!(ctx.n_threads(), 2);
        let inside = ctx.install(rayon::current_num_threads);
        assert_eq!(inside, 2);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let ctx = ExecContext::builder().threads(0).build();
        assert_eq!(ctx.n_threads(), 1);
    }

    #[test]
    fn map_reduce_sums_partition_lengths() {
        let ctx = ExecContext::builder().threads(3).build();
        let total =
            ctx.map_reduce(ctx.make_partitions(1000), |p| p.len() as u64, |a, b| a + b).unwrap();
        assert_eq!(total, 1000);
    }

    #[test]
    fn map_reduce_empty_returns_none() {
        let ctx = ExecContext::builder().threads(1).build();
        let r: Option<u64> = ctx.map_reduce(Vec::new(), |p| p.len() as u64, |a, b| a + b);
        assert!(r.is_none());
    }

    #[test]
    fn scan_matches_sequential_result() {
        let data: Vec<u64> = (0..10_000).collect();
        let expect: u64 = data.iter().sum();
        for threads in [1, 2, 4] {
            let ctx = ExecContext::builder().threads(threads).build();
            let got: u64 = ctx.scan(data.len(), |p| p.slice(&data).iter().sum::<u64>());
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn vec_merge_handles_ragged_lengths() {
        let mut a: Vec<u64> = vec![1, 2];
        a.merge(vec![10, 10, 10]);
        assert_eq!(a, vec![11, 12, 10]);
    }
}
