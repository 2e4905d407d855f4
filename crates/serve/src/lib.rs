//! # gdelt-serve
//!
//! The concurrent query service in front of the engine: the piece that
//! turns "a fast aggregated query" (paper §VI-G) into the ROADMAP's
//! production-scale system serving repeated analyses to many clients.
//!
//! Components, in submission order:
//!
//! * a **sharded LRU result cache** keyed on canonical
//!   [`Query`](gdelt_engine::Query) hashes, invalidated by dataset
//!   generation bumps from [`QueryService::apply_batch`] ([`cache`]);
//! * an **admission controller**: one queue-depth bound, shared with
//!   the shard router, that sheds with typed errors instead of
//!   panicking or blocking ([`admission`]);
//! * a **FIFO job queue** that coalesces identical in-flight queries
//!   (single-flight) ([`batcher`]);
//! * the **worker pool + dataset ownership** tying them together
//!   ([`service`]), with [`metrics`] snapshots and a seeded synthetic
//!   mix plus the one replay driver ([`mix`]) that `gdelt-cli
//!   serve-bench` and `chaos` run against either front door.

#![warn(missing_docs)]

pub mod admission;
pub mod batcher;
pub mod cache;
pub mod error;
pub mod metrics;
pub mod mix;
pub mod service;

pub use admission::{Admission, MAX_QUEUE};
pub use batcher::QueryTicket;
pub use cache::{CacheStats, ShardedCache};
pub use error::ServeError;
pub use metrics::ServiceMetrics;
pub use mix::{replay, seeded_mix, ReplayReport};
pub use service::{CoveredAnswer, DegradedPolicy, ExecHook, QueryService, ServiceConfig};
