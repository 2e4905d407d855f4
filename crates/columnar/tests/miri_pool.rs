//! The fork pool behind [`fork_join`], written to run under Miri.
//!
//! `fork_join` hands borrowed, lifetime-erased jobs to a process-wide
//! pool of `cores() − 1` threads; its one `unsafe` block is sound only
//! if no fork returns or unwinds before every job it queued has
//! finished or been taken back. These cases drive that invariant from
//! every side: forks nested in pool jobs, forks from many threads at
//! once, more jobs than pool threads, a job that panics, and a caller
//! that panics while a pool thread still writes to its frame.
//!
//! CI runs this target under Miri with `-Zmiri-num-cpus=4` (so the pool
//! has threads) and `-Zmiri-ignore-leaks` (pool threads are never
//! joined); it also runs under plain `cargo test`. On a one-core host
//! the pool has no threads and every job runs on its caller, which
//! every case below also accepts.

use gdelt_columnar::partition::{cores, fork_join};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Wait until `flag` is set, for at most a few seconds: long enough for
/// a pool thread to pick a job up, bounded so a pool too busy with other
/// tests' jobs (or a one-core host) only weakens a case, never hangs it.
fn wait_for(flag: &AtomicBool) -> bool {
    let start = Instant::now();
    while !flag.load(Ordering::Acquire) {
        if cores() < 2 || start.elapsed() > Duration::from_secs(5) {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

#[test]
fn a_pool_job_can_fork() {
    let (mine, theirs) = fork_join(
        (0..3u64).collect(),
        |outer| {
            let (first, rest) =
                fork_join((1..4u64).collect(), |inner| outer * 10 + inner, || outer);
            first * 100 + rest.iter().sum::<u64>()
        },
        || fork_join(vec![7u64, 8], |k| k + 1, || 0u64).1,
    );
    assert_eq!(mine, vec![8, 9]);
    assert_eq!(theirs, vec![6, 100 + 36, 200 + 66]);
}

#[test]
fn forks_from_eight_threads_at_once() {
    std::thread::scope(|s| {
        let forks: Vec<_> = (0..8u64)
            .map(|t| {
                s.spawn(move || {
                    for round in 0..20u64 {
                        let base = t * 1_000 + round;
                        let (mine, theirs) =
                            fork_join((0..3u64).collect(), |k| base + k, || base * 2);
                        assert_eq!(mine, base * 2);
                        assert_eq!(theirs, vec![base, base + 1, base + 2]);
                    }
                })
            })
            .collect();
        for f in forks {
            f.join().expect("a forking thread panicked");
        }
    });
}

#[test]
fn more_jobs_than_pool_threads_and_none() {
    let n = cores() * 4 + 3;
    let seen = Mutex::new(HashSet::new());
    let note = || {
        seen.lock().expect("test mutex").insert(std::thread::current().id());
    };
    let (mine, theirs) = fork_join(
        (0..n).collect(),
        |k| {
            note();
            k * k
        },
        || {
            note();
            "caller"
        },
    );
    assert_eq!(mine, "caller");
    assert_eq!(theirs, (0..n).map(|k| k * k).collect::<Vec<_>>());
    // The caller and the pool threads, never a thread per job.
    assert!(seen.lock().expect("test mutex").len() <= cores());

    let (mine, none) = fork_join(Vec::<u8>::new(), |k| k, || 5);
    assert_eq!(mine, 5);
    assert!(none.is_empty());
}

#[test]
fn the_pool_answers_after_a_job_panics() {
    for _ in 0..3 {
        // The caller waits until a pool thread has the job, so the panic
        // unwinds on that thread.
        let started = AtomicBool::new(false);
        let caught = catch_unwind(|| {
            fork_join(
                vec![()],
                |()| {
                    started.store(true, Ordering::Release);
                    std::panic::panic_any(String::from("job failed"))
                },
                || wait_for(&started),
            )
        });
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("job failed"));
    }
    let (sum, theirs) = fork_join((1..=4u32).collect(), |k| k * 2, || 1u32);
    assert_eq!((sum, theirs), (1, vec![2, 4, 6, 8]));
    // A pool thread still picks jobs up.
    let started = AtomicBool::new(false);
    let (picked_up, _) =
        fork_join(vec![()], |()| started.store(true, Ordering::Release), || wait_for(&started));
    assert!(picked_up || cores() < 2, "no pool thread picked the job up");
}

#[test]
fn a_panicking_caller_waits_for_a_running_job() {
    // What happened, in order: the job's write into the caller's frame
    // must come before that frame is dropped by the unwind.
    let log = Mutex::new(Vec::new());
    struct Frame<'a>(&'a Mutex<Vec<&'static str>>);
    impl Drop for Frame<'_> {
        fn drop(&mut self) {
            self.0.lock().expect("test mutex").push("frame dropped");
        }
    }
    // Set while the caller's own share unwinds, before the fork's end.
    struct Unwinding<'a>(&'a AtomicBool);
    impl Drop for Unwinding<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let _frame = Frame(&log);
        let mut written = 0u64;
        let written = Mutex::new(&mut written);
        let (started, unwinding) = (AtomicBool::new(false), AtomicBool::new(false));
        fork_join(
            vec![()],
            |()| {
                started.store(true, Ordering::Release);
                // The write lands after the caller began to unwind.
                wait_for(&unwinding);
                std::thread::sleep(Duration::from_millis(10));
                **written.lock().expect("test mutex") = 42;
                log.lock().expect("test mutex").push("job wrote");
            },
            || {
                let _unwinding = Unwinding(&unwinding);
                wait_for(&started);
                panic!("caller failed")
            },
        )
    }));
    let payload = caught.expect_err("the caller's panic must propagate");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller failed"));
    assert_eq!(*log.lock().expect("test mutex"), ["job wrote", "frame dropped"]);
}
