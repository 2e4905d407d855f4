//! What executes a cache miss: the [`Backend`] trait and [`Local`], the
//! in-process backend over one [`Dataset`].
//!
//! A backend answers a [`Query`] with its result, the [`Coverage`]
//! behind it and the *stamp* of the data it read. The service owns
//! everything around the call — admission, the cache, coalescing,
//! panic containment, deadlines and the degraded policy — so a backend
//! only computes. The stamp is the cache's one invalidation trigger:
//! whenever [`Backend::stamp`] moves, every cached answer computed
//! under an older stamp is dropped. The shard router's scatter backend
//! (`gdelt_shard::Scatter`) is the other implementation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use gdelt_columnar::incremental::APPEND_COLUMNS;
use gdelt_columnar::{Coverage, Dataset, StoreHealth};
use gdelt_engine::{run_query, ExecContext, Query, QueryResult};

use crate::error::ServeError;

/// One computed answer, as a backend returns it.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The query's result.
    pub result: QueryResult,
    /// Fraction of load partitions behind it.
    pub coverage: Coverage,
    /// Stamp of the data it was computed from (see [`Backend::stamp`]).
    pub stamp: u64,
}

/// A query result with the coverage it was computed under, as the
/// service hands it to callers.
#[derive(Debug, Clone, PartialEq)]
pub struct CoveredAnswer {
    /// The (possibly cached) query result.
    pub result: Arc<QueryResult>,
    /// Fraction of load partitions behind it.
    pub coverage: Coverage,
}

/// The executor behind a `QueryService`.
pub trait Backend: Send + Sync + 'static {
    /// Compute `q`. Runs on a service worker thread, under the
    /// worker's panic containment.
    fn execute(&self, q: &Query) -> Result<Answer, ServeError>;

    /// Stamp of the data the next [`Backend::execute`] would read. It
    /// only grows, and moves whenever that data changes.
    fn stamp(&self) -> u64;
}

/// The in-process backend: one dataset behind an `RwLock<Arc<_>>`,
/// the store health its load reported, and the engine's thread pool.
///
/// Executions snapshot the `Arc` and the stamp under one brief read
/// lock and run lock-free from then on; `QueryService::apply_batch`
/// swaps in the appended dataset and moves the stamp under the write
/// lock, so an answer's stamp always names the dataset it read. That
/// dataset holds only the columns queries read
/// ([`Query::SERVED_COLUMNS`]) and those an append reads
/// ([`APPEND_COLUMNS`]); appends keep it projected.
#[derive(Debug)]
pub struct Local {
    pub(crate) data: RwLock<Arc<Dataset>>,
    /// Appends applied so far.
    pub(crate) stamp: AtomicU64,
    pub(crate) health: StoreHealth,
    ctx: ExecContext,
}

impl Local {
    /// Serve `dataset`, projected, with `health` as its load reported
    /// it, on an engine of `threads` threads (`None` = all cores).
    pub(crate) fn new(dataset: Dataset, health: StoreHealth, threads: Option<usize>) -> Self {
        let dataset = dataset.project(&Query::SERVED_COLUMNS.union(APPEND_COLUMNS));
        let mut builder = ExecContext::builder();
        if let Some(t) = threads {
            builder = builder.threads(t);
        }
        Local {
            data: RwLock::new(Arc::new(dataset)),
            stamp: AtomicU64::new(0),
            health,
            ctx: builder.build(),
        }
    }
}

impl Backend for Local {
    fn execute(&self, q: &Query) -> Result<Answer, ServeError> {
        let (data, stamp) = {
            let guard = self.data.read().unwrap_or_else(PoisonError::into_inner);
            (Arc::clone(&guard), self.stamp.load(Ordering::Acquire))
        };
        let result = run_query(&self.ctx, &data, q);
        Ok(Answer { result, coverage: self.health.coverage(), stamp })
    }

    fn stamp(&self) -> u64 {
        self.stamp.load(Ordering::Acquire)
    }
}
