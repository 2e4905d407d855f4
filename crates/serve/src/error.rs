//! Typed serving errors. The service never panics on overload or
//! shutdown — callers receive one of these values instead.

use std::fmt;

/// Why a submission or wait did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The admission controller shed the query: the queue was full.
    Overloaded {
        /// Queue depth observed at admission time.
        queue_depth: usize,
        /// The queue bound.
        queue_limit: usize,
    },
    /// The caller's wait deadline expired before the query completed.
    /// The query itself may still complete and populate the cache.
    TimedOut {
        /// How long the caller waited, in milliseconds.
        waited_ms: u64,
    },
    /// The service is shutting down; the query was not (fully) executed.
    ShuttingDown,
    /// The store behind the service is degraded (partitions were
    /// quarantined at load) and the configured
    /// [`DegradedPolicy`](crate::service::DegradedPolicy) is `Fail`:
    /// the service refuses to serve partial answers.
    Degraded {
        /// Live partitions behind the store.
        live: u32,
        /// Total partitions the store was written with.
        total: u32,
    },
    /// The worker executing this query panicked. The panic was caught
    /// at the worker loop (it never crosses a thread boundary); the
    /// waiter gets this error instead of hanging.
    WorkerPanicked,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { queue_depth, queue_limit } => {
                write!(f, "overloaded: admission queue full ({queue_depth}/{queue_limit})")
            }
            ServeError::TimedOut { waited_ms } => {
                write!(f, "timed out after {waited_ms} ms waiting for query result")
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Degraded { live, total } => {
                write!(f, "store is degraded ({live}/{total} partitions live); policy refuses partial answers")
            }
            ServeError::WorkerPanicked => write!(f, "worker panicked while executing the query"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_limits() {
        let e = ServeError::Overloaded { queue_depth: 8, queue_limit: 8 };
        assert!(e.to_string().contains("8/8"));
        let e = ServeError::TimedOut { waited_ms: 250 };
        assert!(e.to_string().contains("250"));
        let e = ServeError::Degraded { live: 6, total: 8 };
        assert!(e.to_string().contains("6/8"));
        assert!(ServeError::WorkerPanicked.to_string().contains("panicked"));
    }
}
