//! Execution context: thread-count control and the partitioned
//! map-reduce skeleton every parallel query uses.
//!
//! The paper's engine is OpenMP `parallel for` with a static schedule
//! over NUMA-placed table chunks; the Rust equivalent is an explicit
//! partition list split into one contiguous chunk per thread, each chunk
//! mapped on a scoped thread with one partial accumulator per partition,
//! and a sequential merge in partition order. Queries never share
//! mutable state across workers, and [`ExecContext::map_reduce`] is the
//! only place the engine forks.

use gdelt_columnar::partition::{partitions, Partition};

/// Default partition granularity: a few partitions per thread for load
/// balancing without fragmenting the scan.
const DEFAULT_PARTITIONS_PER_THREAD: usize = 4;

/// Thread-count and partitioning policy for query execution.
#[derive(Debug, Clone)]
pub struct ExecContext {
    n_threads: usize,
    partitions_per_thread: usize,
}

impl Default for ExecContext {
    fn default() -> Self {
        Self::builder().build()
    }
}

/// Configures an [`ExecContext`]: thread count and partition
/// granularity — the single way to construct a context.
#[derive(Debug, Clone, Default)]
pub struct ExecContextBuilder {
    threads: Option<usize>,
    partitions_per_thread: Option<usize>,
}

impl ExecContextBuilder {
    /// Run scans on exactly `n` threads (clamped to at least 1).
    /// Without this, a context uses every core the OS grants.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
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
        let n_threads = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        ExecContext {
            n_threads,
            partitions_per_thread: self
                .partitions_per_thread
                .unwrap_or(DEFAULT_PARTITIONS_PER_THREAD),
        }
    }
}

impl ExecContext {
    /// Start configuring a context. `builder().build()` uses all cores;
    /// `builder().threads(1).build()` is fully sequential (the paper's
    /// 344 s reference point); `builder().threads(n)` fixes the count,
    /// as the Fig 12 scaling sweep needs.
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

    /// Partitions for an `n_rows` scan: a few per thread for load
    /// balancing, none empty unless the table is tiny.
    pub fn make_partitions(&self, n_rows: usize) -> Vec<Partition> {
        partitions(n_rows, (self.n_threads * self.partitions_per_thread).min(n_rows.max(1)))
    }

    /// The partitioned map-reduce skeleton: `map` runs once per
    /// partition, producing one partial each, and the partials are
    /// merged with `reduce` in partition order (merge cost is negligible
    /// next to the scans).
    ///
    /// The schedule is static: `min(n_threads, parts.len())` scoped
    /// threads each take one near-even contiguous chunk of `parts`. With
    /// one thread or one partition everything runs inline on the
    /// caller. A panic in `map` is re-raised on the caller with its
    /// original payload once every thread has stopped.
    // analyze: no_panic
    pub fn map_reduce<T, M, R>(&self, parts: Vec<Partition>, map: M, reduce: R) -> Option<T>
    where
        T: Send,
        M: Fn(Partition) -> T + Sync + Send,
        R: FnMut(T, T) -> T,
    {
        // Ambient trace context is thread-local; capture it once here
        // so the partition spans recorded on worker threads still
        // parent under the caller's span (e.g. a shard worker's
        // `worker_query`, itself parented under a router RPC span from
        // another process).
        let parent = if gdelt_obs::tracing_enabled() {
            gdelt_obs::current_trace()
        } else {
            gdelt_obs::TraceContext::NONE
        };
        let run = |(i, p): (usize, Partition)| {
            // One inert guard (a single relaxed load) per partition when
            // tracing is off; when it is on, the per-partition /
            // per-thread breakdown is what the Fig 12 imbalance view is
            // built from.
            let _t = (!parent.is_none()).then(|| gdelt_obs::with_trace(parent));
            let _s = gdelt_obs::span_args("engine", "partition", "rows", p.len() as u64)
                .arg("part", i as u64);
            map(p)
        };
        let n_parts = parts.len();
        let n_threads = self.n_threads.min(n_parts);
        if n_threads <= 1 {
            return parts.into_iter().enumerate().map(run).reduce(reduce);
        }
        let (base, extra) = (n_parts / n_threads, n_parts % n_threads);
        let mut rest = parts.into_iter().enumerate();
        let run = &run;
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..n_threads)
                .map(|t| {
                    let chunk: Vec<_> = rest.by_ref().take(base + usize::from(t < extra)).collect();
                    scope.spawn(move || chunk.into_iter().map(run).collect::<Vec<T>>())
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
                .reduce(reduce)
        })
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
    use std::collections::HashSet;
    use std::sync::Mutex;

    /// The thread counts and partition counts the fork is checked at:
    /// fewer, as many, and more partitions than threads, uneven splits
    /// included.
    const THREADS: [usize; 4] = [1, 2, 3, 7];
    const MAX_PARTS: usize = 20;

    /// `n` one-row partitions, so a partition's `begin` is its index.
    fn unit_parts(n: usize) -> Vec<Partition> {
        (0..n).map(|i| Partition { begin: i, end: i + 1, node: i }).collect()
    }

    #[test]
    fn default_context_uses_global_pool() {
        // "Global" now means every core the OS grants, resolved once.
        let ctx = ExecContext::builder().build();
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(ctx.n_threads(), cores);
        assert_eq!(ctx.partitions_per_thread(), DEFAULT_PARTITIONS_PER_THREAD);
    }

    #[test]
    fn with_threads_controls_pool_size() {
        let ctx = ExecContext::builder().threads(2).partitions_per_thread(3).build();
        assert_eq!(ctx.n_threads(), 2);
        assert_eq!(ctx.make_partitions(1000).len(), 6);
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
    fn map_reduce_reduces_in_partition_order() {
        for threads in THREADS {
            let ctx = ExecContext::builder().threads(threads).build();
            for n in 0..=MAX_PARTS {
                let got = ctx.map_reduce(
                    unit_parts(n),
                    |p| vec![p.begin],
                    |mut a, b| {
                        a.extend(b);
                        a
                    },
                );
                let want = (n > 0).then(|| (0..n).collect::<Vec<_>>());
                assert_eq!(got, want, "threads={threads} parts={n}");
            }
        }
    }

    #[test]
    fn map_reduce_reraises_a_worker_panic_with_its_payload() {
        for threads in THREADS {
            let ctx = ExecContext::builder().threads(threads).build();
            for n in 4..=MAX_PARTS {
                let caught = std::panic::catch_unwind(|| {
                    ctx.map_reduce(
                        unit_parts(n),
                        |p| {
                            if p.begin == 3 {
                                std::panic::panic_any(format!("partition {} failed", p.begin));
                            }
                            p.begin
                        },
                        |a, b| a + b,
                    )
                });
                let payload = caught.expect_err("the panic must reach the caller");
                assert_eq!(
                    payload.downcast_ref::<String>().map(String::as_str),
                    Some("partition 3 failed"),
                    "threads={threads} parts={n}"
                );
            }
        }
    }

    #[test]
    fn map_reduce_runs_on_at_most_n_threads() {
        let caller = std::thread::current().id();
        for threads in THREADS {
            let ctx = ExecContext::builder().threads(threads).build();
            for n in 0..=MAX_PARTS {
                let seen = Mutex::new(HashSet::new());
                ctx.map_reduce(
                    unit_parts(n),
                    |_| {
                        seen.lock().expect("test mutex").insert(std::thread::current().id());
                    },
                    |(), ()| (),
                );
                let seen = seen.into_inner().expect("test mutex");
                assert!(seen.len() <= threads, "threads={threads} parts={n}: {}", seen.len());
                if threads == 1 {
                    assert!(seen.iter().all(|&id| id == caller), "threads(1) left the caller");
                }
            }
        }
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
