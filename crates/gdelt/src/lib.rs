//! # gdelt — high-performance mining on GDELT data
//!
//! Facade crate of the `gdelt-hpc` workspace, a from-scratch Rust
//! reproduction of *"A System for High Performance Mining on GDELT
//! Data"* (IPDPS-W 2020): a read-only, in-memory, parallel analysis
//! system for the GDELT 2.0 *Events* and *Mentions* tables.
//!
//! ## Pipeline
//!
//! ```text
//! raw GDELT TSV ──parse/clean──▶ DatasetBuilder ──▶ Dataset (columnar,
//!        │                                            indexed, interned)
//!        └── or gdelt_synth::generate (calibrated synthetic corpus)
//!
//! Dataset ──ExecContext──▶ engine queries ──▶ analysis tables/figures
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use gdelt::prelude::*;
//!
//! // A small deterministic corpus (use paper_calibrated for scale).
//! let cfg = gdelt::synth::scenario::tiny(7);
//! let (dataset, clean_report) = gdelt::synth::generate_dataset(&cfg);
//!
//! let ctx = ExecContext::builder().build();
//! let stats = gdelt::analysis::table1::compute(&ctx, &dataset);
//! assert!(stats.articles >= stats.events);
//!
//! // Publishing-delay medians per source, exactly as §VI-E measures.
//! let QueryResult::Delay(delays) = run_query(&ctx, &dataset, &Query::Delay) else {
//!     unreachable!("Delay query yields a Delay result");
//! };
//! assert_eq!(delays.len(), dataset.sources.len());
//! # let _ = clean_report;
//! ```

#![warn(missing_docs)]

/// Core data model (ids, time, records, countries).
pub use gdelt_model as model;

/// Raw GDELT TSV ingest and cleaning.
pub use gdelt_csv as csv;

/// Columnar storage, indexes and the binary format.
pub use gdelt_columnar as columnar;

/// The parallel query engine.
pub use gdelt_engine as engine;

/// Calibrated synthetic corpus generation.
pub use gdelt_synth as synth;

/// Markov clustering over co-reporting matrices.
pub use gdelt_cluster as cluster;

/// Per-table/figure paper reproductions.
pub use gdelt_analysis as analysis;

/// The concurrent query service (admission control, result cache,
/// single-flight batching).
pub use gdelt_serve as serve;

/// Metrics, spans, and the flight recorder.
pub use gdelt_obs as obs;

/// The most common imports.
pub mod prelude {
    pub use gdelt_columnar::{Dataset, DatasetBuilder};
    pub use gdelt_engine::{run_query, ExecContext, Query, QueryResult};
    pub use gdelt_model::{CaptureInterval, CountryId, Date, DateTime, EventId, Quarter, SourceId};
    pub use gdelt_serve::{QueryService, ServiceConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_core_types() {
        use crate::prelude::*;
        let ctx = ExecContext::builder().threads(1).build();
        assert_eq!(ctx.n_threads(), 1);
        let d = Dataset::default();
        assert!(d.validate().is_ok());
        let _ = (EventId(1), SourceId(2), CountryId(3));
    }
}
