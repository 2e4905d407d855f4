//! # gdelt-faults
//!
//! Seeded, deterministic fault injection for the store stack.
//!
//! The production service must survive torn writes, corrupt partitions,
//! slow disks, and transient read failures without panicking or silently
//! returning wrong answers. This crate produces those conditions *on
//! demand and reproducibly*: a [`FaultPlan`] is derived from a single
//! `u64` seed plus the target store's actual section layout, and the
//! same seed always yields byte-for-byte the same schedule. The plan
//! implements [`gdelt_columnar::binfmt::ReadShim`], so it slots directly
//! under [`gdelt_columnar::load_degraded_with`] — no test-only branches
//! in the load path itself.
//!
//! Fault vocabulary (see [`plan::Fault`]):
//!
//! * **FlipByte** — XOR one payload byte inside a chosen partition's
//!   byte range of a fixed-width column section, so exactly that
//!   partition fails its digest and is quarantined;
//! * **TruncateAt** — end the source at an absolute offset, simulating
//!   a torn write / short file;
//! * **FailRead** — error (with a retryable kind) on any read reaching
//!   past an offset, cleared after a scheduled number of attempts, to
//!   exercise the loader's capped-backoff retry loop;
//! * **DelayRead** — sleep before the first read covering an offset,
//!   simulating a slow disk (used by the `ServeError::TimedOut`
//!   integration test so no sleep lives in product code).
//!
//! The schedule serializes to JSON ([`FaultPlan::to_json`]) so a failing
//! chaos run can ship its exact fault schedule as a CI artifact.

#![warn(missing_docs)]

pub mod plan;
pub mod rng;
pub mod shard;
pub mod shim;

pub use plan::{Fault, FaultPlan, PlanSpec, ScheduledFault, ALWAYS};
pub use rng::{seeded_picks, SplitMix64};
pub use shard::{ShardFault, ShardFaultPlan};
pub use shim::FaultyRead;
