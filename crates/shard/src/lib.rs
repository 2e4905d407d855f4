//! Multi-process serve tier: shard stores, wire protocol, workers and
//! the scatter-gather router.
//!
//! The single-node engine answers a query by partitioning a scan,
//! computing per-thread partials and merging them associatively
//! (`ExecContext::map_reduce`). This crate lifts that exact structure
//! across process boundaries:
//!
//! 1. [`split::split_store`] partitions a columnar store into N shard
//!    stores by contiguous partition range (a manifest records what
//!    each shard holds);
//! 2. a [`worker::ShardWorker`] process loads one shard and answers
//!    [`wire`]-framed `ShardQuery` requests with sufficient-statistic
//!    partials (`gdelt_engine::partial`);
//! 3. the [`router::Router`] admits queries, scatters them over the
//!    workers, merges the surviving partials with the engine's own
//!    associative merge, and finalizes the **bit-identical**
//!    single-process answer.
//!
//! Shard death degrades, never corrupts: a lost worker maps onto the
//! store-level `Coverage { live, total }` vocabulary (its partition
//! range is treated as quarantined), governed by the same
//! `DegradedPolicy` the in-process service uses. Only full-coverage
//! answers are cached, and any shard generation or membership change
//! invalidates the router cache, so partial answers can never go
//! stale. The equivalence proptests in `tests/` pin all of this down.

#![warn(missing_docs)]

pub mod router;
pub mod split;
pub mod wire;
pub mod worker;

pub use router::{Router, RouterConfig, RouterStats};
pub use split::{shard_range, split_store, ShardEntry, ShardManifest};
pub use wire::{FlightForward, Frame, Health, Hello, WireError, WireSpan};
pub use worker::{ShardWorker, WorkerConfig};
