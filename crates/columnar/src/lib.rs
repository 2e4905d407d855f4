//! # gdelt-columnar
//!
//! Columnar in-memory storage and the indexed binary format.
//!
//! The paper's key engineering move (§IV) is a one-time conversion of the
//! raw GDELT CSV dumps into an *indexed binary format* holding every field
//! machine-readable, after which the query engine works read-only from
//! memory. This crate is that storage layer:
//!
//! * [`aligned`] — cache-line-aligned column buffers;
//! * [`columns`] — the store's schema, declared once, and the
//!   [`ColumnSet`] a query reads, a dataset holds and a projected load
//!   opens;
//! * [`strings`] — append-only string pool and interning dictionary
//!   (URLs and source names are dictionary-encoded once; queries touch
//!   only integer ids);
//! * [`table`] — the columnar Events and Mentions tables plus the source
//!   directory sidecar;
//! * [`builder`] — conversion from parsed records into a [`Dataset`],
//!   including sorting and index construction;
//! * [`index`] — the event→mentions CSR adjacency and the time index,
//!   which turn the co-/follow-reporting scans into linear walks;
//! * [`binfmt`] — the versioned, checksummed on-disk format, including
//!   the `partitions.meta` load-partition digest table;
//! * [`degraded`] — the tolerant loader: retries transient failures
//!   with capped backoff, quarantines partitions that fail their
//!   digests, and restricts the store to the live remainder;
//! * [`health`] — store coverage and quarantine bookkeeping carried by
//!   every degraded-store answer;
//! * [`partition`] — row-range partitioning mirroring the NUMA-aware
//!   placement the paper needs on its 8-node EPYC machine;
//! * [`validate`] — the deep structural auditor behind `gdelt-cli
//!   validate`, collecting every violated invariant of a store.

#![warn(missing_docs)]

pub mod aligned;
pub mod binfmt;
pub mod builder;
pub mod columns;
pub mod degraded;
mod derived;
pub mod health;
pub mod incremental;
pub mod index;
pub mod memsize;
pub mod partition;
pub mod strings;
pub mod table;
pub mod validate;

pub use builder::DatasetBuilder;
pub use columns::{Column, ColumnSet};
pub use degraded::{load_degraded, load_degraded_with, DegradedLoad, RetryPolicy};
pub use derived::SourceQuarters;
pub use health::{Coverage, StoreHealth};
pub use partition::{partitions, Partition};
pub use strings::{StringDict, StringPool};
pub use table::{Dataset, EventsTable, MentionsTable, SourceDirectory};
