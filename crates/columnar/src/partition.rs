//! Row-range partitioning for parallel scans.
//!
//! The paper runs on a dual-socket EPYC 7601 with eight NUMA nodes and
//! notes that "care must be taken to correctly place the compute threads
//! and distribute memory allocations" (§IV). The algorithmic consequence
//! is that every parallel query works on disjoint row ranges with
//! per-partition accumulators merged at the end — never on shared
//! mutable state. [`Partition`] encodes those ranges; the `node` tag
//! mirrors the NUMA-node ownership a placement-aware allocator would
//! give each range.
//!
//! [`fork_join`] is the one place product code starts worker threads
//! for a computation: the engine's `ExecContext::map_reduce`, the
//! builder's chunked text staging, a store load's payload groups and
//! `Dataset::validate` call it, the last three split by [`pieces_for`].

/// A contiguous, half-open row range owned by one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// First row (inclusive).
    pub begin: usize,
    /// Past-the-end row.
    pub end: usize,
    /// Simulated NUMA node owning this range.
    pub node: usize,
}

impl Partition {
    /// Number of rows in the partition.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.begin
    }

    /// True if the partition covers no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.begin == self.end
    }

    /// The range as a `std::ops::Range` for slicing columns.
    #[inline]
    pub fn range(&self) -> std::ops::Range<usize> {
        self.begin..self.end
    }

    /// Slice a column to this partition's rows.
    // analyze: no_panic
    #[inline]
    pub fn slice<'a, T>(&self, col: &'a [T]) -> &'a [T] {
        // analyze: allow(panic_path): partitions are constructed from the column's row count
        &col[self.begin..self.end]
    }
}

/// Split `n_rows` into `n_parts` near-even contiguous partitions.
///
/// The first `n_rows % n_parts` partitions get one extra row, so sizes
/// differ by at most one — the static schedule OpenMP would use, and the
/// right choice for uniform-cost scans.
pub fn partitions(n_rows: usize, n_parts: usize) -> Vec<Partition> {
    let n_parts = n_parts.max(1);
    let base = n_rows / n_parts;
    let extra = n_rows % n_parts;
    let mut out = Vec::with_capacity(n_parts);
    let mut begin = 0;
    for p in 0..n_parts {
        let len = base + usize::from(p < extra);
        out.push(Partition { begin, end: begin + len, node: p });
        begin += len;
    }
    debug_assert_eq!(begin, n_rows);
    out
}

/// Split aligned to `chunk` boundaries (e.g. to keep event groups whole
/// when `boundaries` are CSR offsets): each partition ends on one of the
/// supplied ascending boundary values. Used to parallelize per-event
/// scans without splitting an event's mention range across workers.
// analyze: no_panic
pub fn partitions_at_boundaries(boundaries: &[u64], n_parts: usize) -> Vec<Partition> {
    // boundaries = CSR offsets (len = n_groups + 1).
    if boundaries.is_empty() {
        return partitions(0, n_parts);
    }
    let n_groups = boundaries.len() - 1;
    let group_parts = partitions(n_groups, n_parts);
    group_parts
        .into_iter()
        .map(|p| Partition {
            // analyze: allow(panic_path): p.begin ≤ p.end ≤ n_groups < boundaries.len()
            begin: boundaries[p.begin] as usize,
            // analyze: allow(panic_path): p.begin ≤ p.end ≤ n_groups < boundaries.len()
            end: boundaries[p.end] as usize,
            node: p.node,
        })
        .collect()
}

/// How many pieces to split `bytes` of work into: one per core, each at
/// least a MiB — a thread costs tens of µs, a MiB of work hundreds — so
/// below two MiB the caller does it all.
pub fn pieces_for(bytes: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    cores.min(bytes >> 20).max(1)
}

/// Run `work` on each of `jobs`, every job on a scoped thread of its
/// own, while the calling thread runs `on_caller`; return what
/// `on_caller` gave and the jobs' results in job order. A panic in a
/// job (or in `on_caller`) is re-raised on the caller with its original
/// payload once every thread has stopped.
pub fn fork_join<J, T, R>(
    jobs: Vec<J>,
    work: impl Fn(J) -> T + Sync,
    on_caller: impl FnOnce() -> R,
) -> (R, Vec<T>)
where
    J: Send,
    T: Send,
{
    let work = &work;
    std::thread::scope(|scope| {
        let workers: Vec<_> = jobs.into_iter().map(|job| scope.spawn(move || work(job))).collect();
        let mine = on_caller();
        let theirs = workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect();
        (mine, theirs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_join_returns_results_in_job_order() {
        let (mine, theirs) = fork_join((1..=5).collect(), |k: u64| k * 10, || "caller");
        assert_eq!(mine, "caller");
        assert_eq!(theirs, vec![10, 20, 30, 40, 50]);
        let ((), none) = fork_join(Vec::<u8>::new(), |k| k, || ());
        assert!(none.is_empty());
    }

    #[test]
    fn fork_join_reraises_a_job_panic_with_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            fork_join(
                (0..4).collect(),
                |k: u32| {
                    if k == 2 {
                        std::panic::panic_any(format!("job {k} failed"));
                    }
                    k
                },
                || (),
            )
        });
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("job 2 failed"));
    }

    #[test]
    fn even_split() {
        let ps = partitions(100, 4);
        assert_eq!(ps.len(), 4);
        assert!(ps.iter().all(|p| p.len() == 25));
        assert_eq!(ps[0].range(), 0..25);
        assert_eq!(ps[3].range(), 75..100);
    }

    #[test]
    fn uneven_split_differs_by_at_most_one() {
        let ps = partitions(10, 3);
        let lens: Vec<usize> = ps.iter().map(Partition::len).collect();
        assert_eq!(lens, vec![4, 3, 3]);
        assert_eq!(ps.iter().map(Partition::len).sum::<usize>(), 10);
    }

    #[test]
    fn covers_whole_range_without_gaps() {
        for n in [0usize, 1, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, 16] {
                let ps = partitions(n, parts);
                assert_eq!(ps.len(), parts);
                assert_eq!(ps[0].begin, 0);
                assert_eq!(ps.last().unwrap().end, n);
                for w in ps.windows(2) {
                    assert_eq!(w[0].end, w[1].begin);
                }
            }
        }
    }

    #[test]
    fn more_parts_than_rows_yields_empties() {
        let ps = partitions(2, 5);
        assert_eq!(ps.iter().filter(|p| !p.is_empty()).count(), 2);
        assert_eq!(ps.iter().map(Partition::len).sum::<usize>(), 2);
        assert!(ps[4].is_empty());
    }

    #[test]
    fn zero_parts_clamps_to_one() {
        let ps = partitions(5, 0);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].range(), 0..5);
    }

    #[test]
    fn slicing_a_column() {
        let col: Vec<u32> = (0..10).collect();
        let ps = partitions(10, 2);
        assert_eq!(ps[0].slice(&col), &[0, 1, 2, 3, 4]);
        assert_eq!(ps[1].slice(&col), &[5, 6, 7, 8, 9]);
    }

    #[test]
    fn node_tags_are_distinct() {
        let ps = partitions(64, 8);
        let nodes: Vec<usize> = ps.iter().map(|p| p.node).collect();
        assert_eq!(nodes, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn boundary_aligned_partitions_respect_groups() {
        // CSR offsets: groups of sizes 3, 1, 0, 4, 2 → total 10 rows.
        let offs = [0u64, 3, 4, 4, 8, 10];
        let ps = partitions_at_boundaries(&offs, 2);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].begin, 0);
        assert_eq!(ps.last().unwrap().end, 10);
        // Each boundary must be one of the offsets.
        for p in &ps {
            assert!(offs.contains(&(p.begin as u64)));
            assert!(offs.contains(&(p.end as u64)));
        }
        for w in ps.windows(2) {
            assert_eq!(w[0].end, w[1].begin);
        }
    }

    #[test]
    fn boundary_partitions_of_empty_index() {
        let ps = partitions_at_boundaries(&[], 4);
        assert!(ps.iter().all(|p| p.is_empty()));
    }
}
