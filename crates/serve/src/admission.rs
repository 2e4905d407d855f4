//! Admission control: one queue-depth bound for both front doors.
//!
//! A submission that misses the cache must be admitted before it may
//! enqueue. Admission sheds — returns a typed
//! [`ServeError::Overloaded`], never panics or blocks — when
//! [`MAX_QUEUE`] queries are already admitted and incomplete. The
//! `QueryService` and the shard router share the bound.
//!
//! The counters are advisory: depth is read with relaxed atomics and
//! two racing submissions may both observe room. That slack is
//! acceptable — the bound is a load-shedding policy, not a safety
//! invariant — and keeps admission off every lock.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::error::ServeError;

/// Maximum admitted-but-incomplete queries at one front door.
pub const MAX_QUEUE: usize = 64;

/// The admission controller. `try_admit` / `release` must be paired:
/// every admitted query is released exactly once, when it completes
/// (or immediately, when it coalesced onto in-flight work).
#[derive(Debug, Default)]
pub struct Admission {
    depth: AtomicUsize,
    shed: AtomicU64,
}

impl Admission {
    /// Admit one query, or shed with a typed error.
    // analyze: no_panic
    pub fn try_admit(&self) -> Result<(), ServeError> {
        let depth = self.depth.load(Ordering::Relaxed);
        if depth >= MAX_QUEUE {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded { queue_depth: depth, queue_limit: MAX_QUEUE });
        }
        self.depth.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Return an admitted query's slot.
    // analyze: no_panic
    pub fn release(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Admitted-but-incomplete queries right now.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Queries shed since construction.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_bound_sheds() {
        let a = Admission::default();
        for _ in 0..MAX_QUEUE {
            assert!(a.try_admit().is_ok());
        }
        let e = a.try_admit().unwrap_err();
        assert_eq!(e, ServeError::Overloaded { queue_depth: MAX_QUEUE, queue_limit: MAX_QUEUE });
        assert_eq!(a.shed_count(), 1);
        a.release();
        assert!(a.try_admit().is_ok(), "released capacity is reusable");
    }
}
