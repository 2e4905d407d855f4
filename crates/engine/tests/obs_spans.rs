//! Integration test for the acceptance criterion: one `timed_run_in`
//! produces a per-kernel/per-partition span breakdown whose summed
//! kernel time is within 5% of the reported wall-clock, and partition
//! spans name the thread that ran them.
//!
//! The tracer is process-global, so everything here runs in one test
//! function (test binaries run `#[test]`s in parallel threads).

use std::sync::{Condvar, Mutex};
use std::time::Duration;

use gdelt_columnar::partition::{cores, partitions};
use gdelt_engine::query::timed_run_in;
use gdelt_engine::ExecContext;
use gdelt_obs::{set_tracing, take_spans};

#[test]
fn span_breakdown_accounts_for_timed_run_wall_clock() {
    // Large enough that the two kernels run for a few milliseconds —
    // the 5% bound must dominate clock granularity, not race it.
    let cfg = gdelt_synth::scenario::paper_calibrated(3e-4, 4242);
    let (dataset, _) = gdelt_synth::generate_dataset(&cfg);
    let ctx = ExecContext::builder().threads(4).build();

    set_tracing(true);
    let _ = take_spans();
    let wall_s = timed_run_in(&ctx, &dataset);
    set_tracing(false);
    let spans = take_spans();

    // The aggregated query is exactly two sequential kernels; their
    // spans must cover the timed window.
    let kernel_ns: u64 = spans
        .iter()
        .filter(|s| s.cat == "engine" && (s.name == "crosscountry" || s.name == "coreport"))
        .map(|s| s.dur_ns)
        .sum();
    let wall_ns = (wall_s * 1e9) as u64;
    assert!(wall_ns > 0, "timed_run_in reported zero wall-clock");
    assert!(
        kernel_ns <= wall_ns,
        "kernel spans ({kernel_ns} ns) cannot exceed the wall-clock that contains them \
         ({wall_ns} ns)"
    );
    let missing = wall_ns - kernel_ns;
    assert!(
        (missing as f64) <= 0.05 * wall_ns as f64,
        "kernel spans account for {kernel_ns} of {wall_ns} ns wall-clock; \
         {missing} ns (> 5%) unattributed"
    );

    // The same run must expose the per-partition breakdown Fig 12's
    // imbalance view needs: partition spans nested inside the kernels,
    // carrying row counts.
    let parts: Vec<_> =
        spans.iter().filter(|s| s.cat == "engine" && s.name == "partition").collect();
    assert!(!parts.is_empty(), "no per-partition spans recorded");
    assert!(
        parts.iter().all(|s| s.n_args == 2 && s.args[0].0 == "rows" && s.args[1].0 == "part"),
        "partition spans must carry rows/part args: {parts:?}"
    );

    // And the whole breakdown exports as valid Chrome trace JSON.
    let doc = gdelt_obs::chrome_trace_json(&spans);
    let n = gdelt_obs::validate_chrome_trace(&doc).expect("exported trace validates");
    assert_eq!(n, spans.len());

    // Each partition span names its thread. A pool thread may wake late,
    // and the caller takes back every job none has started, so the
    // kernel run above may legitimately stay on one thread. Here the
    // caller's partition waits (at most 10 s) until the other has
    // started, which then runs on a pool thread. With one core the pool
    // has no threads and everything runs on the caller.
    if cores() > 1 {
        let ctx = ExecContext::builder().threads(2).build();
        let (other_started, wake) = (Mutex::new(false), Condvar::new());
        set_tracing(true);
        let _ = take_spans();
        ctx.map_reduce(
            partitions(2, 2),
            |p| {
                let mut flag = other_started.lock().expect("no holder panics");
                if p.begin > 0 {
                    *flag = true;
                    wake.notify_all();
                    return;
                }
                let ten_s = Duration::from_secs(10);
                let _ = wake.wait_timeout_while(flag, ten_s, |s| !*s).expect("no holder panics");
            },
            |(), ()| (),
        );
        set_tracing(false);
        let threads: std::collections::HashSet<u32> = take_spans()
            .iter()
            .filter(|s| s.cat == "engine" && s.name == "partition")
            .map(|s| s.tid)
            .collect();
        assert_eq!(threads.len(), 2, "the two partitions' spans must name two threads");
    }
}
