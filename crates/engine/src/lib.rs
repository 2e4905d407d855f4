//! # gdelt-engine
//!
//! The parallel in-memory query-execution engine — the paper's core
//! contribution (§IV, §VI-G). It runs read-only over a
//! [`Dataset`](gdelt_columnar::Dataset) produced by the preprocessing
//! pipeline and answers every aggregate the paper's evaluation needs.
//!
//! Design, mirroring the C++/OpenMP original:
//!
//! * all parallelism is *partitioned scan + per-thread partials + merge* —
//!   the only pattern that scales on the paper's 8-NUMA-node machine
//!   ([`exec`], [`aggregate`]): row scans go through
//!   [`chunk::partition_scan`] and event scans through
//!   [`chunk::event_scan`], both forking in [`ExecContext::map_reduce`];
//! * that pattern is also the only way a query is answered: [`run_query`]
//!   is plan → partial → merge → finalize ([`partial`]) with the whole
//!   dataset as one shard, and a shard router runs the same plan with the
//!   same partials and merges across processes (the paper's §VII MPI
//!   plan) — one algebra in-thread, cross-thread and cross-process.
//!   Callers outside the engine ask a [`Query`] through [`run_query`]
//!   only;
//! * co-reporting is counted over countries or a publisher list (the
//!   clustering's top 30) as one bitmask per event ([`coreport`]); no
//!   analysis reads the paper's dense 21 k-source matrix, so none is
//!   built, and the hash-based sparse one, which the paper rejects for
//!   its update volume, is only the test oracle;
//! * the kernels that group mentions by event take their groups from
//!   one walker over the time-sorted event→mentions CSR ([`chunk`]);
//!   the set-shaped ones among them — co-reporting,
//!   follow-reporting ([`followreport`]) — keep an event's set as a
//!   bitmask;
//! * the country cross-reporting tables come from the aggregated
//!   country query ([`query::timed_run_in`] times it), the workload of
//!   the paper's Fig 12 scaling study;
//! * publishing-delay statistics are exact (counting-sort grouping per
//!   row range, per-source delay histograms, true medians) ([`delay`]);
//! * a deliberately naive row-oriented, string-typed baseline stands in
//!   for the "generic system" comparators the paper dismisses
//!   ([`baseline`]).

#![warn(missing_docs)]

pub mod aggregate;
pub mod baseline;
pub mod chunk;
pub mod coreport;
pub mod crossreport;
pub mod delay;
pub mod exec;
pub mod filter;
pub mod followreport;
pub mod histogram;
pub mod matrix;
pub mod partial;
pub mod query;
pub mod timeseries;
pub mod topk;
pub mod wildfire;

pub use exec::{ExecContext, ExecContextBuilder};
pub use matrix::Matrix;
pub use query::{run_query, Query, QueryResult, SeriesKind, TopKKind};
