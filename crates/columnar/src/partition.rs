//! Row-range partitioning for parallel scans.
//!
//! The paper runs on a dual-socket EPYC 7601 with eight NUMA nodes and
//! notes that "care must be taken to correctly place the compute threads
//! and distribute memory allocations" (§IV). The algorithmic consequence
//! is that every parallel query works on disjoint row ranges with
//! per-partition accumulators merged at the end — never on shared
//! mutable state. [`Partition`] encodes those ranges; the `node` tag
//! mirrors the NUMA-node ownership a placement-aware allocator would
//! give each range. Scans that group mentions by event cut the
//! event→mentions CSR index with [`event_partitions`] instead, so no
//! event's mentions are split across workers.
//!
//! [`fork_join`] is the one place product code runs a computation on
//! more than one thread, over one process-wide pool: the engine's
//! `ExecContext::map_reduce`, the builder's chunked text staging, a
//! store load's payload groups, the source × quarter fill and
//! `Dataset::validate` call it. Whether a fork pays, and into how many
//! pieces, is one rule for all of them: [`fork_pieces`].

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};

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

/// Cut the events of a CSR index into at most `n_parts` contiguous
/// *event* ranges of near-equal *mention* weight: edge `i` is the first
/// event whose offset reaches `total · i / n_parts`, so a partition
/// outweighs `total / n_parts` by less than its heaviest event, however
/// the mentions are spread (equal event counts would hand the worker
/// that draws a dense news week, or one 5 000-mention event, several
/// times the rows of its neighbours — and the pool's schedule is
/// static). Ranges that would be empty are dropped; together the rest
/// tile `0..n_events`.
// analyze: no_panic
pub fn event_partitions(offsets: &[u64], n_parts: usize) -> Vec<Partition> {
    let n_events = offsets.len().saturating_sub(1);
    let total = offsets.last().copied().unwrap_or(0);
    let n_parts = n_parts.clamp(1, n_events.max(1));
    let mut parts = Vec::with_capacity(n_parts);
    let mut begin = 0;
    for i in 1..=n_parts {
        let target = (u128::from(total) * i as u128 / n_parts as u128) as u64;
        // Trailing events without mentions sit past the last target.
        let edge = if i == n_parts { n_events } else { offsets.partition_point(|&o| o < target) };
        let end = edge.min(n_events);
        if end > begin {
            parts.push(Partition { begin, end, node: parts.len() });
            begin = end;
        }
    }
    parts
}

/// The number of cores the OS grants this process, read once: the
/// call costs tens of µs, and a fork asks for it on every load. The
/// columnar fork points' cap, the engine's default thread count and the
/// pool's width all read this one value.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// F, what a fork costs over its work: 35–41 µs when the pool's idle
/// thread has to wake, as it does after the gap a closed-loop client
/// leaves (EXPERIMENTS.md "One persistent fork pool").
const FORK_NS: f64 = 40_000.0;

/// The one fork rule: how many pieces `units` of work (rows or bytes)
/// at `unit_ns` each pays for, at most `cap`. A piece must carry 2 F of
/// work, so under 4 F the work stays on the caller in one piece: a
/// second piece saves half the work and costs a fork, and its job
/// starts on a cold cache and leaves a partial to merge, which the
/// sweep in EXPERIMENTS.md "One fork rule" prices at about a second F
/// (report scans of 2 F lost to one thread, of 4 F gained). Each fork
/// point declares its `unit_ns` beside its code, with the measurement
/// it came from.
pub fn fork_pieces(units: usize, unit_ns: f64, cap: usize) -> usize {
    // A float-to-int `as` saturates, so any amount of work is `cap` pieces.
    ((units as f64 * unit_ns / (2.0 * FORK_NS)) as usize).clamp(1, cap.max(1))
}

/// Run `work` on each of `jobs` on the process's fork pool while the
/// calling thread runs `on_caller`; return what `on_caller` gave and
/// the jobs' results in job order.
///
/// The pool is [`cores`]` − 1` threads, started on the first fork and
/// parked on a condition variable between forks (they never spin). A
/// fork queues its jobs, runs `on_caller`, then takes back every job no
/// pool thread has started and runs it on the caller, and then waits
/// for the rest. So a fork never waits on a job that is not running:
/// forks nest (a job may fork) and run concurrently from any number of
/// threads without deadlock, and more jobs than pool threads run on the
/// caller instead of oversubscribing the cores.
///
/// A panic in a job (or in `on_caller`) is re-raised on the caller with
/// its original payload once every job has stopped; a pool thread
/// survives a panicking job.
pub fn fork_join<J, T, R>(
    jobs: Vec<J>,
    work: impl Fn(J) -> T + Sync,
    on_caller: impl FnOnce() -> R,
) -> (R, Vec<T>)
where
    J: Send,
    T: Send,
{
    if jobs.is_empty() {
        return (on_caller(), Vec::new());
    }
    let mut slots: Vec<Option<std::thread::Result<T>>> = Vec::new();
    slots.resize_with(jobs.len(), || None);
    let latch = Arc::new(Latch::new(jobs.len()));
    let work = &work;
    let tasks = jobs.into_iter().zip(slots.iter_mut()).map(|(job, slot)| {
        let run: Box<dyn FnOnce() + Send + '_> =
            Box::new(move || *slot = Some(catch_unwind(AssertUnwindSafe(|| work(job)))));
        // SAFETY: only the lifetime changes, so the layout is the same.
        // `run` borrows `work` and one slot of `slots`, both of which
        // outlive this call; `Fork::drop` below neither returns nor lets
        // an unwind past until every task has run, on the caller or on a
        // pool thread, and been dropped (`Latch::wait` — the invariant
        // `std::thread::scope` keeps for its threads), and nothing reads
        // `slots` until then.
        let run = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(run)
        };
        Task { run, latch: Arc::clone(&latch) }
    });
    let fork = Fork::queue(tasks.collect(), &latch);
    let mine = on_caller();
    drop(fork);
    let theirs = slots
        .into_iter()
        .flatten()
        .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect();
    (mine, theirs)
}

/// One queued job of a fork, lifetime-erased (see [`fork_join`]), and
/// the latch of the fork it belongs to.
struct Task {
    run: Box<dyn FnOnce() + Send>,
    latch: Arc<Latch>,
}

impl Task {
    /// Run the job (it catches its own panic), drop it, then count it
    /// down: the fork's borrows are no longer used when its caller wakes.
    fn run(self) {
        let Task { run, latch } = self;
        run();
        latch.count_down();
    }
}

/// The jobs of a fork not yet finished. The latch is shared (`Arc`), so
/// a pool thread still holds it after the count it woke the caller with.
struct Latch {
    left: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(n: usize) -> Self {
        Latch { left: Mutex::new(n), done: Condvar::new() }
    }

    fn count_down(&self) {
        let mut left = lock(&self.left);
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = lock(&self.left);
        while *left > 0 {
            left = self.done.wait(left).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The shared queue the pool threads serve, oldest job first.
static QUEUE: Mutex<VecDeque<Task>> = Mutex::new(VecDeque::new());
/// Signalled once per queued job.
static QUEUED: Condvar = Condvar::new();

/// A fork in flight: its jobs are queued until it drops, and dropping
/// it — on return or on unwind — takes back the jobs no pool thread has
/// started, runs them on the caller, and waits for the others.
struct Fork<'a> {
    latch: &'a Arc<Latch>,
}

impl<'a> Fork<'a> {
    fn queue(tasks: Vec<Task>, latch: &'a Arc<Latch>) -> Self {
        static START: Once = Once::new();
        START.call_once(|| {
            for _ in 1..cores() {
                // Never joined: a pool thread lives as long as the
                // process and catches every job's panic. One that fails
                // to start leaves its share of the jobs to be taken back.
                let _ = std::thread::Builder::new().spawn(pool_thread);
            }
        });
        let n = tasks.len();
        lock(&QUEUE).extend(tasks);
        for _ in 0..n.min(cores() - 1) {
            QUEUED.notify_one();
        }
        Fork { latch }
    }
}

impl Drop for Fork<'_> {
    fn drop(&mut self) {
        let mut mine = Vec::new();
        {
            let mut queue = lock(&QUEUE);
            let mut i = 0;
            while let Some(task) = queue.get(i) {
                if Arc::ptr_eq(&task.latch, self.latch) {
                    mine.extend(queue.remove(i));
                } else {
                    i += 1;
                }
            }
        }
        for task in mine {
            task.run();
        }
        self.latch.wait();
    }
}

/// A pool thread: run queued jobs, oldest first, parked while there
/// are none.
fn pool_thread() {
    loop {
        let task = {
            let mut queue = lock(&QUEUE);
            loop {
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                queue = QUEUED.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        task.run();
    }
}

/// No code panics while holding the fork locks, so a poisoned one is
/// taken as it is.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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
    fn a_fork_pays_from_four_forks_of_work() {
        // 4 F of work at 1 ns a unit is 160 000 units.
        assert_eq!(fork_pieces(159_999, 1.0, 8), 1);
        assert_eq!(fork_pieces(160_000, 1.0, 8), 2);
        assert_eq!(fork_pieces(160_000, 0.5, 8), 1);
        assert_eq!(fork_pieces(240_000, 1.0, 8), 3);
        assert_eq!(fork_pieces(1 << 40, 1.0, 8), 8);
        assert_eq!(fork_pieces(usize::MAX, f64::MAX, 3), 3);
        assert_eq!(fork_pieces(1 << 40, 1.0, 0), 1);
        assert_eq!(fork_pieces(0, 1.0, 8), 1);
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
        let ps = event_partitions(&offs, 2);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].begin, 0);
        assert_eq!(ps.last().unwrap().end, 5);
        // Event ranges meet, so each group lands whole in one range.
        for w in ps.windows(2) {
            assert_eq!(w[0].end, w[1].begin);
        }
        let rows: Vec<u64> = ps.iter().map(|p| offs[p.end] - offs[p.begin]).collect();
        assert_eq!(rows, vec![8, 2]);
    }

    #[test]
    fn boundary_partitions_of_empty_index() {
        // No index, no events, no mentions.
        assert!(event_partitions(&[], 4).is_empty());
        assert!(event_partitions(&[0], 4).is_empty());
        assert_eq!(event_partitions(&[0, 0, 0], 4).len(), 1);
    }
}
