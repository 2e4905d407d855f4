//! Shared fixtures for the benchmark harness: one lazily-built,
//! paper-calibrated synthetic corpus reused across all bench targets.
//!
//! Scale defaults to `1e-4` of the paper's corpus (≈ 32 k events) so a
//! full `cargo bench` stays tractable; set `GDELT_BENCH_SCALE` to go
//! bigger (e.g. `GDELT_BENCH_SCALE=0.002` for a few hundred thousand
//! events — the shapes do not change, only the absolute times).

use gdelt_columnar::Dataset;
use gdelt_csv::clean::CleanReport;
use std::sync::OnceLock;

/// Benchmark corpus scale (fraction of the paper's 325 M events).
pub fn bench_scale() -> f64 {
    std::env::var("GDELT_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0.0 && s <= 1.0)
        .unwrap_or(1e-4)
}

/// The shared corpus (built once per process).
pub fn corpus() -> &'static (Dataset, CleanReport) {
    static DS: OnceLock<(Dataset, CleanReport)> = OnceLock::new();
    DS.get_or_init(|| {
        let cfg = gdelt_synth::paper_calibrated(bench_scale(), 42);
        eprintln!(
            "[gdelt-bench] building corpus: scale {} ({} sources, {} events)",
            bench_scale(),
            cfg.n_sources,
            cfg.n_events
        );
        gdelt_synth::generate_dataset(&cfg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_small() {
        if std::env::var("GDELT_BENCH_SCALE").is_err() {
            assert_eq!(bench_scale(), 1e-4);
        }
    }

    #[test]
    fn corpus_is_cached_and_valid() {
        let (d, _) = corpus();
        assert!(d.validate().is_ok());
        let again = corpus();
        assert!(std::ptr::eq(&corpus().0, &again.0));
    }
}
