//! # gdelt-serve
//!
//! The concurrent query service in front of the engine: the piece that
//! turns "a fast aggregated query" (paper §VI-G) into the ROADMAP's
//! production-scale system serving repeated analyses to many clients.
//!
//! There is one front door, [`QueryService`], and a [`Backend`] behind
//! it executes the misses: [`Local`] over an in-process dataset, or the
//! shard router's scatter over worker processes (`gdelt-shard`).
//! Components, in submission order:
//!
//! * a **sharded LRU result cache** keyed on canonical
//!   [`Query`](gdelt_engine::Query) hashes, holding only full-coverage
//!   answers and invalidated whenever the backend's data stamp moves
//!   ([`cache`]);
//! * **admission**: one queue-depth bound ([`MAX_QUEUE`]) that sheds
//!   with typed errors instead of panicking or blocking;
//! * a **FIFO job queue** that coalesces identical in-flight queries
//!   (single-flight) ([`batcher`]);
//! * the **worker pool** tying them together, with panic containment,
//!   caller-side deadlines and the degraded-coverage policy
//!   ([`service`]), over the [`backend`];
//! * [`metrics`] snapshots and a seeded synthetic mix plus the one
//!   replay driver ([`mix`]) that `gdelt-cli serve-bench` and `chaos`
//!   run against either backend.

#![warn(missing_docs)]

pub mod backend;
pub mod batcher;
pub mod cache;
pub mod error;
pub mod metrics;
pub mod mix;
pub mod service;

pub use backend::{Answer, Backend, CoveredAnswer, Local};
pub use batcher::QueryTicket;
pub use cache::{CacheStats, ShardedCache};
pub use error::ServeError;
pub use metrics::ServiceMetrics;
pub use mix::{replay, seeded_mix, ReplayReport};
pub use service::{DegradedPolicy, ExecHook, QueryService, ServiceConfig, MAX_QUEUE};

/// Lock a mutex, recovering the guard from a poisoned lock: everything
/// this crate guards (finished values, queues, counters) stays valid
/// when a holder panicked.
pub(crate) fn lock_recover<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
