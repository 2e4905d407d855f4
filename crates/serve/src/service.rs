//! The query service: worker pool, submission path, and dataset
//! ownership.
//!
//! Data flow, front to back:
//!
//! ```text
//! submit ── cache get ──hit──▶ resolved ticket
//!              │miss
//!              ▼
//!        admission (queue depth) ──full──▶ ServeError::Overloaded
//!              │admitted
//!              ▼
//!        job queue (FIFO, single-flight coalescing)
//!              ▼
//!        workers ──▶ run_query ──▶ cache insert
//!              ▼
//!        ticket resolution (all coalesced waiters at once)
//! ```
//!
//! The service owns the [`Dataset`] behind an `RwLock<Arc<_>>`: workers
//! snapshot the `Arc` (and the matching cache generation) under a brief
//! read lock and run lock-free from then on, while
//! [`QueryService::apply_batch`] swaps in an updated dataset under the
//! write lock and invalidates the cache before releasing it. That
//! dataset holds only the columns queries read
//! ([`Query::SERVED_COLUMNS`]) and those an append reads
//! ([`APPEND_COLUMNS`]); appends keep it projected.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

use gdelt_columnar::incremental::{append_batch, BatchStats, APPEND_COLUMNS};
use gdelt_columnar::{Coverage, Dataset, StoreHealth};
use gdelt_csv::clean::CleanReport;
use gdelt_engine::{run_query, ExecContext, Query, QueryResult};
use gdelt_model::event::EventRecord;
use gdelt_model::mention::MentionRecord;

use crate::admission::Admission;
use crate::batcher::{Enqueued, JobQueue, QueryTicket};
use crate::cache::ShardedCache;
use crate::error::ServeError;
use crate::metrics::{Metrics, ServiceMetrics};

/// What the service does when its store loaded degraded (partitions
/// quarantined — see [`gdelt_columnar::degraded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedPolicy {
    /// Answer queries over the live partitions; every answer carries
    /// the coverage fraction (via [`QueryService::run_covered`] and the
    /// metrics snapshot). The partial answer is explicit, never silent.
    #[default]
    ServePartial,
    /// Refuse to serve: every submission fails with
    /// [`ServeError::Degraded`] until a full store is swapped in.
    Fail,
}

/// An instrumentation hook the workers invoke just before executing a
/// kernel (cache hits skip it). The chaos harness uses this to inject
/// worker panics and delays without test-only branches in the execution
/// path; panics thrown by the hook are caught at the worker loop like
/// any kernel panic.
#[derive(Clone)]
pub struct ExecHook(Arc<dyn Fn(&Query) + Send + Sync>);

impl ExecHook {
    /// Wrap a hook function.
    pub fn new(f: impl Fn(&Query) + Send + Sync + 'static) -> Self {
        ExecHook(Arc::new(f))
    }

    fn call(&self, q: &Query) {
        (self.0)(q);
    }
}

impl std::fmt::Debug for ExecHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ExecHook(..)")
    }
}

/// Result-cache shards.
const CACHE_SHARDS: usize = 8;
/// Result-cache capacity per cache shard.
const CACHE_CAPACITY_PER_SHARD: usize = 32;

/// Service construction parameters: the knobs the CLI and the
/// benchmark set. The cache size and the admission bound
/// ([`crate::admission::MAX_QUEUE`]) are constants.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing queries. `0` is allowed (nothing
    /// executes — useful for exercising admission and queue behaviour).
    pub workers: usize,
    /// Whether results are cached at all (`serve-bench --no-cache`).
    pub cache_enabled: bool,
    /// Engine thread count (`None` = all cores).
    pub threads: Option<usize>,
    /// Behaviour when the store loaded degraded.
    pub degraded_policy: DegradedPolicy,
    /// Pre-kernel instrumentation hook (fault injection in tests).
    pub exec_hook: Option<ExecHook>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            cache_enabled: true,
            threads: None,
            degraded_policy: DegradedPolicy::default(),
            exec_hook: None,
        }
    }
}

fn read_recover<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_recover<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared between the handle and the worker threads.
#[derive(Debug)]
struct Shared {
    data: RwLock<Arc<Dataset>>,
    ctx: ExecContext,
    cache: ShardedCache,
    cache_enabled: bool,
    admission: Admission,
    queue: JobQueue,
    metrics: Metrics,
    health: StoreHealth,
    degraded_policy: DegradedPolicy,
    exec_hook: Option<ExecHook>,
    /// One flight-recorder dump per service on the first Degraded
    /// refusal; the refusal path is per-request and must not spam.
    degraded_dumped: AtomicBool,
}

/// The in-process query service. Dropping the handle shuts the service
/// down: workers finish their current job, queued-but-unstarted tickets
/// resolve to [`ServeError::ShuttingDown`].
#[derive(Debug)]
pub struct QueryService {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl QueryService {
    /// Start a service owning a pristine `dataset` (full coverage).
    pub fn new(dataset: Dataset, config: ServiceConfig) -> Self {
        let health =
            StoreHealth::full(1, dataset.events.len() as u64, dataset.mentions.len() as u64);
        Self::with_health(dataset, health, config)
    }

    /// Start a service owning a dataset that may have loaded degraded;
    /// `health` is what the loader reported (see
    /// [`gdelt_columnar::load_degraded`]). The service applies
    /// [`ServiceConfig::degraded_policy`] against it and stamps its
    /// coverage on metrics and [`QueryService::run_covered`] answers.
    ///
    /// The service holds only what queries and appends read: `dataset`
    /// is projected to [`Query::SERVED_COLUMNS`] and [`APPEND_COLUMNS`],
    /// and so are the datasets [`QueryService::apply_batch`] swaps in.
    pub fn with_health(dataset: Dataset, health: StoreHealth, config: ServiceConfig) -> Self {
        let dataset = dataset.project(&Query::SERVED_COLUMNS.union(APPEND_COLUMNS));
        let mut builder = ExecContext::builder();
        if let Some(t) = config.threads {
            builder = builder.threads(t);
        }
        let shared = Arc::new(Shared {
            data: RwLock::new(Arc::new(dataset)),
            ctx: builder.build(),
            cache: ShardedCache::new(CACHE_SHARDS, CACHE_CAPACITY_PER_SHARD),
            cache_enabled: config.cache_enabled,
            admission: Admission::default(),
            queue: JobQueue::default(),
            metrics: Metrics::new(),
            health,
            degraded_policy: config.degraded_policy,
            exec_hook: config.exec_hook.clone(),
            degraded_dumped: AtomicBool::new(false),
        });
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        QueryService { shared, workers: Mutex::new(workers) }
    }

    /// Submit a query. Returns a ticket immediately: already-resolved on
    /// a cache hit, pending otherwise. Sheds with
    /// [`ServeError::Overloaded`] when admission control refuses.
    pub fn submit(&self, query: Query) -> Result<QueryTicket, ServeError> {
        let s = &self.shared;
        let cov = s.health.coverage();
        if s.degraded_policy == DegradedPolicy::Fail && !cov.is_full() {
            gdelt_obs::flight_warn(
                "serve",
                "degraded_refusal",
                format!("refused a query: store coverage {}/{}", cov.live, cov.total),
            );
            if !s.degraded_dumped.swap(true, Ordering::Relaxed) {
                eprintln!("{}", gdelt_obs::render_flight(&gdelt_obs::flight_snapshot()));
            }
            return Err(ServeError::Degraded { live: cov.live, total: cov.total });
        }
        if s.cache_enabled {
            if let Some(v) = s.cache.get(&query) {
                return Ok(QueryTicket::resolved(Ok(v)));
            }
        }
        s.admission.try_admit()?;
        let (ticket, outcome) = s.queue.enqueue(query);
        if outcome != Enqueued::New {
            // Coalesced tickets ride on the already-admitted job's slot;
            // rejected tickets (shutdown race) never run at all.
            s.admission.release();
        }
        Ok(ticket)
    }

    /// Submit and block for the result.
    pub fn run(&self, query: Query) -> Result<Arc<QueryResult>, ServeError> {
        self.submit(query)?.get()
    }

    /// Submit and block, with the store's coverage attached: a partial
    /// answer over a degraded store is never silent.
    pub fn run_covered(&self, query: Query) -> Result<CoveredAnswer, ServeError> {
        let result = self.run(query)?;
        Ok(CoveredAnswer { result, coverage: self.shared.health.coverage() })
    }

    /// Submit and block up to `timeout`. Expired waits are counted in
    /// the metrics; the query itself keeps running and may still
    /// populate the cache.
    pub fn run_timeout(
        &self,
        query: Query,
        timeout: Duration,
    ) -> Result<Arc<QueryResult>, ServeError> {
        let r = self.submit(query)?.get_timeout(timeout);
        if matches!(r, Err(ServeError::TimedOut { .. })) {
            self.shared.metrics.record_timeout();
        }
        r
    }

    /// Append a batch through [`gdelt_columnar::incremental`], swap the
    /// dataset, bump the generation, and invalidate the cache — all
    /// under the write lock, so no worker can cache a result computed
    /// against the old dataset under the new generation.
    pub fn apply_batch(
        &self,
        events: Vec<EventRecord>,
        mentions: Vec<MentionRecord>,
    ) -> (BatchStats, CleanReport) {
        let s = &self.shared;
        let mut guard = write_recover(&s.data);
        let (next, stats, clean) = append_batch(&guard, events, mentions);
        *guard = Arc::new(next);
        s.cache.invalidate_all(s.cache.generation() + 1);
        drop(guard);
        (stats, clean)
    }

    /// Snapshot of the dataset currently being served, projected to
    /// [`Query::SERVED_COLUMNS`] and [`APPEND_COLUMNS`].
    pub fn dataset(&self) -> Arc<Dataset> {
        Arc::clone(&read_recover(&self.shared.data))
    }

    /// Dataset generation (bumped by every [`QueryService::apply_batch`]).
    pub fn generation(&self) -> u64 {
        self.shared.cache.generation()
    }

    /// What the store load reported (quarantine, row counts, retries).
    pub fn health(&self) -> &StoreHealth {
        &self.shared.health
    }

    /// Point-in-time service metrics.
    pub fn metrics(&self) -> ServiceMetrics {
        let s = &self.shared;
        s.metrics.snapshot(
            s.admission.depth(),
            s.cache.stats(),
            s.admission.shed_count(),
            s.queue.coalesced_count(),
            s.cache.generation(),
            s.health.coverage(),
        )
    }
}

/// A query result with the store coverage it was computed under.
#[derive(Debug, Clone, PartialEq)]
pub struct CoveredAnswer {
    /// The (possibly cached) query result.
    pub result: Arc<QueryResult>,
    /// Fraction of load partitions behind it.
    pub coverage: Coverage,
}

impl Drop for QueryService {
    fn drop(&mut self) {
        let drained = self.shared.queue.shutdown_and_drain();
        for h in lock_recover(&self.workers).drain(..) {
            let _ = h.join();
        }
        for w in drained {
            w.resolve(Err(ServeError::ShuttingDown));
        }
    }
}

/// Worker: dequeue the oldest job, double-check the cache, run the
/// kernel against a consistent (dataset, generation) snapshot, publish.
///
/// Kernel execution (and the exec hook) runs under `catch_unwind`: a
/// panic never crosses the worker's thread boundary. The panicking
/// job's waiters resolve to [`ServeError::WorkerPanicked`], its
/// admission slot is released, and the worker moves on to the next job.
fn worker_loop(shared: &Shared) {
    while let Some(query) = shared.queue.next_job() {
        // Re-check the cache without counting: an identical query may
        // have completed between this job's admission and now.
        let cached = if shared.cache_enabled { shared.cache.peek(&query) } else { None };
        let value = match cached {
            Some(v) => Ok(v),
            None => {
                // Snapshot (dataset, generation) under one read lock so
                // the pair is consistent with any concurrent apply_batch.
                let (data, generation) = {
                    let guard = read_recover(&shared.data);
                    (Arc::clone(&guard), shared.cache.generation())
                };
                let t0 = Instant::now();
                // Every executed query gets a process-unique qid and a
                // root span carrying it, so a trace can be grepped for
                // one query's whole subtree (kernel + partitions).
                static QUERY_ID: AtomicU64 = AtomicU64::new(1);
                let qid = QUERY_ID.fetch_add(1, Ordering::Relaxed);
                let _exec_span = gdelt_obs::span_args("serve", "execute", "qid", qid);
                let ran = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(hook) = &shared.exec_hook {
                        hook.call(&query);
                    }
                    run_query(&shared.ctx, &data, &query)
                }));
                match ran {
                    Ok(r) => {
                        let v = Arc::new(r);
                        shared.metrics.record_completion(t0.elapsed().as_micros() as u64);
                        if shared.cache_enabled {
                            shared.cache.insert(query, Arc::clone(&v), generation);
                        }
                        Ok(v)
                    }
                    Err(_) => {
                        shared.metrics.record_worker_panic();
                        gdelt_obs::flight_error(
                            "serve",
                            "worker_panic",
                            format!("worker caught a kernel panic running {}", query.kernel_name()),
                        );
                        eprintln!("{}", gdelt_obs::render_flight(&gdelt_obs::flight_snapshot()));
                        Err(ServeError::WorkerPanicked)
                    }
                }
            }
        };
        shared.admission.release();
        shared.queue.complete(&query, value);
    }
}
