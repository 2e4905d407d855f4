//! Figure 12 — thread-scaling of the aggregated query (§VI-G).
//!
//! The paper measures the single aggregated query behind Tables V–VII at
//! 344 s single-threaded and 43 s with OpenMP (64 threads / 8× speedup),
//! noting the curve flattens from I/O and NUMA effects. This module
//! sweeps thread counts on the same query and also times the naive
//! row-store baseline.

use crate::render::TextTable;
use gdelt_columnar::Dataset;
use gdelt_engine::baseline::{timed_naive, RowStore};
use gdelt_engine::query::timed_run_in;
use gdelt_engine::ExecContext;

/// One scaling point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePoint {
    /// Worker threads.
    pub threads: usize,
    /// Wall-clock seconds for the aggregated query.
    pub seconds: f64,
    /// Speedup vs the 1-thread run.
    pub speedup: f64,
}

/// Fig 12 data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12 {
    /// Engine scaling curve.
    pub points: Vec<ScalePoint>,
    /// Naive row-store baseline (single-threaded), for context.
    pub naive_seconds: f64,
}

/// Run the sweep. `thread_counts` should start at 1 (speedups are
/// normalized to the first entry). `repeats` takes the minimum of
/// several runs to tame noise.
pub fn compute(d: &Dataset, thread_counts: &[usize], repeats: usize) -> Fig12 {
    let repeats = repeats.max(1);
    let mut raw = Vec::with_capacity(thread_counts.len());
    for &t in thread_counts {
        // One context per thread count: pool setup and warm-up are paid
        // once here, so only kernel time enters the scaling curve.
        let ctx = ExecContext::builder().threads(t).build();
        let best = (0..repeats).map(|_| timed_run_in(&ctx, d)).fold(f64::INFINITY, f64::min);
        raw.push((t, best));
    }
    let base = raw.first().map(|&(_, s)| s).unwrap_or(1.0);
    let points = raw
        .into_iter()
        .map(|(threads, seconds)| ScalePoint {
            threads,
            seconds,
            speedup: if seconds > 0.0 { base / seconds } else { 0.0 },
        })
        .collect();

    let store = RowStore::from_dataset(d);
    let naive_seconds = (0..repeats).map(|_| timed_naive(&store).1).fold(f64::INFINITY, f64::min);
    Fig12 { points, naive_seconds }
}

/// Render the curve.
pub fn render(f: &Fig12) -> String {
    let mut t = TextTable::new(&["Threads", "Seconds", "Speedup"]);
    for p in &f.points {
        t.row(vec![
            p.threads.to_string(),
            format!("{:.4}", p.seconds),
            format!("{:.2}x", p.speedup),
        ]);
    }
    format!(
        "Figure 12: aggregated-query scaling (naive row-store baseline: {:.4}s)\n{}",
        f.naive_seconds,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_normalized_speedups() {
        let d = gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(41)).0;
        let f = compute(&d, &[1, 2], 1);
        assert_eq!(f.points.len(), 2);
        assert!((f.points[0].speedup - 1.0).abs() < 1e-9);
        assert!(f.points[1].speedup > 0.0);
        assert!(f.naive_seconds >= 0.0);
        let text = render(&f);
        assert!(text.contains("Figure 12"));
        assert!(text.contains("Threads"));
    }
}
