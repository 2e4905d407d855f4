//! The query service: worker pool and submission path in front of a
//! [`Backend`].
//!
//! Data flow, front to back:
//!
//! ```text
//! submit ── stamp moved? ──▶ cache invalidate
//!    │
//!    ▼
//! cache get ──hit──▶ resolved ticket (full coverage)
//!    │miss
//!    ▼
//! admission (queue depth) ──full──▶ ServeError::Overloaded
//!    │admitted
//!    ▼
//! job queue (FIFO, single-flight coalescing)
//!    ▼
//! workers ──▶ exec hook + Backend::execute (under catch_unwind)
//!    ▼
//! degraded policy on the answer's coverage ──▶ cache insert (full only)
//!    ▼
//! ticket resolution (all coalesced waiters at once)
//! ```
//!
//! Both front doors are this type: `QueryService<Local>` (the default)
//! over an in-process dataset, and the shard router's
//! `QueryService<Scatter>` over shard workers. The cache has one
//! invalidation trigger, the backend's stamp moving: a submission
//! checks it before the cache lookup and a worker checks the stamp its
//! answer carries before inserting.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use gdelt_columnar::incremental::{append_batch, BatchStats};
use gdelt_columnar::{Coverage, Dataset, StoreHealth};
use gdelt_csv::clean::CleanReport;
use gdelt_engine::{Query, QueryResult};
use gdelt_model::event::EventRecord;
use gdelt_model::mention::MentionRecord;

use crate::backend::{Backend, CoveredAnswer, Local};
use crate::batcher::{Enqueued, JobQueue, Outcome, QueryTicket};
use crate::cache::{ShardedCache, CACHE_CAPACITY_PER_SHARD, CACHE_SHARDS};
use crate::error::ServeError;
use crate::lock_recover;
use crate::metrics::{Metrics, ServiceMetrics};

/// What the service does with an answer of partial coverage: a local
/// store that loaded degraded (partitions quarantined — see
/// [`gdelt_columnar::degraded`]) or a scatter that lost shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedPolicy {
    /// Serve it; every answer carries its coverage (via
    /// [`QueryService::run_covered`] and the metrics snapshot). The
    /// partial answer is explicit, never silent, and never cached.
    #[default]
    ServePartial,
    /// Refuse it: the query fails with [`ServeError::Degraded`].
    Fail,
}

/// An instrumentation hook the workers invoke just before executing a
/// query (cache hits skip it). The chaos harness uses this to inject
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

/// Maximum admitted-but-incomplete queries: a miss past it is shed
/// with [`ServeError::Overloaded`] instead of queueing.
pub const MAX_QUEUE: usize = 64;

/// Service construction parameters: the knobs the CLI and the
/// benchmark set. The cache size and the admission bound
/// ([`MAX_QUEUE`]) are constants.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing queries. `0` is allowed (nothing
    /// executes — useful for exercising admission and queue behaviour).
    pub workers: usize,
    /// Whether results are cached at all (`serve-bench --no-cache`).
    pub cache_enabled: bool,
    /// Engine thread count of a [`Local`] backend (`None` = all cores).
    pub threads: Option<usize>,
    /// What to do with an answer of partial coverage.
    pub degraded_policy: DegradedPolicy,
    /// Pre-execution instrumentation hook (fault injection in tests).
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

/// State shared between the handle and the worker threads.
#[derive(Debug)]
struct Shared<B> {
    backend: B,
    cache: ShardedCache,
    cache_enabled: bool,
    /// Admitted-but-incomplete queries: a job's slot is released when
    /// it completes, a coalesced ticket's at once. Relaxed and
    /// advisory: two racing misses may both see room, which a
    /// load-shedding bound tolerates.
    depth: AtomicUsize,
    shed: AtomicU64,
    queue: JobQueue,
    metrics: Metrics,
    /// Coverage of the most recent execution.
    coverage: Mutex<Coverage>,
    degraded_policy: DegradedPolicy,
    exec_hook: Option<ExecHook>,
    /// One flight-recorder dump per service on the first Degraded
    /// refusal; the refusal path is per-request and must not spam.
    degraded_dumped: AtomicBool,
}

/// The query service. Dropping the handle shuts the service down:
/// workers finish their current job, queued-but-unstarted tickets
/// resolve to [`ServeError::ShuttingDown`].
#[derive(Debug)]
pub struct QueryService<B: Backend = Local> {
    shared: Arc<Shared<B>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl QueryService<Local> {
    /// Start a service owning a pristine `dataset` (full coverage).
    pub fn new(dataset: Dataset, config: ServiceConfig) -> Self {
        let health =
            StoreHealth::full(1, dataset.events.len() as u64, dataset.mentions.len() as u64);
        Self::with_health(dataset, health, config)
    }

    /// Start a service owning a dataset that may have loaded degraded;
    /// `health` is what the loader reported (see
    /// [`gdelt_columnar::load_degraded`]). Every answer carries its
    /// coverage, and [`ServiceConfig::degraded_policy`] decides whether
    /// a partial one is served.
    ///
    /// The service holds only what queries and appends read: see
    /// [`Local`].
    pub fn with_health(dataset: Dataset, health: StoreHealth, config: ServiceConfig) -> Self {
        let coverage = health.coverage();
        let service = Self::start(Local::new(dataset, health, config.threads), config);
        *lock_recover(&service.shared.coverage) = coverage;
        service
    }

    /// Append a batch through [`gdelt_columnar::incremental`], swap the
    /// dataset and move the stamp under the write lock, and invalidate
    /// the cache before returning.
    pub fn apply_batch(
        &self,
        events: Vec<EventRecord>,
        mentions: Vec<MentionRecord>,
    ) -> (BatchStats, CleanReport) {
        let local = &self.shared.backend;
        let mut guard = local.data.write().unwrap_or_else(PoisonError::into_inner);
        let (next, stats, clean) = append_batch(&guard, events, mentions);
        *guard = Arc::new(next);
        local.stamp.fetch_add(1, Ordering::AcqRel);
        drop(guard);
        self.shared.cache.invalidate_all(local.stamp());
        (stats, clean)
    }

    /// Snapshot of the dataset currently being served, projected to
    /// [`Query::SERVED_COLUMNS`] and the append columns.
    pub fn dataset(&self) -> Arc<Dataset> {
        Arc::clone(&self.shared.backend.data.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// What the store load reported (quarantine, row counts, retries).
    pub fn health(&self) -> &StoreHealth {
        &self.shared.backend.health
    }
}

impl<B: Backend> QueryService<B> {
    /// Start `config.workers` workers executing misses on `backend`.
    pub fn start(backend: B, config: ServiceConfig) -> Self {
        let shared = Arc::new(Shared {
            backend,
            cache: ShardedCache::new(CACHE_SHARDS, CACHE_CAPACITY_PER_SHARD),
            cache_enabled: config.cache_enabled,
            depth: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            queue: JobQueue::default(),
            metrics: Metrics::new(),
            coverage: Mutex::new(Coverage::full()),
            degraded_policy: config.degraded_policy,
            exec_hook: config.exec_hook,
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

    /// The backend misses execute on.
    pub fn backend(&self) -> &B {
        &self.shared.backend
    }

    /// Submit a query. Returns a ticket immediately: already-resolved on
    /// a cache hit, pending otherwise. Sheds with
    /// [`ServeError::Overloaded`] when admission control refuses.
    pub fn submit(&self, query: Query) -> Result<QueryTicket, ServeError> {
        let s = &self.shared;
        if s.cache_enabled {
            s.cache.invalidate_all(s.backend.stamp());
            if let Some(result) = s.cache.get(&query) {
                s.metrics.record_answered(1);
                let answer = CoveredAnswer { result, coverage: Coverage::full() };
                return Ok(QueryTicket::resolved(Ok(answer)));
            }
        }
        let depth = s.depth.fetch_add(1, Ordering::Relaxed);
        if depth >= MAX_QUEUE {
            s.depth.fetch_sub(1, Ordering::Relaxed);
            s.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded { queue_depth: depth, queue_limit: MAX_QUEUE });
        }
        let (ticket, outcome) = s.queue.enqueue(query);
        if outcome != Enqueued::New {
            // Coalesced tickets ride on the already-admitted job's slot;
            // rejected tickets (shutdown race) never run at all.
            s.depth.fetch_sub(1, Ordering::Relaxed);
        }
        Ok(ticket)
    }

    /// Submit and block for the result.
    pub fn run(&self, query: Query) -> Result<Arc<QueryResult>, ServeError> {
        self.run_covered(query).map(|a| a.result)
    }

    /// Submit and block, with the answer's coverage attached: a partial
    /// answer is never silent.
    pub fn run_covered(&self, query: Query) -> Result<CoveredAnswer, ServeError> {
        self.submit(query)?.get()
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
        r.map(|a| a.result)
    }

    /// Stamp of the backend's data (a local dataset's append count).
    pub fn generation(&self) -> u64 {
        self.shared.backend.stamp()
    }

    /// Point-in-time service metrics.
    pub fn metrics(&self) -> ServiceMetrics {
        let s = &self.shared;
        s.metrics.snapshot(
            s.depth.load(Ordering::Relaxed),
            s.cache.stats(),
            s.shed.load(Ordering::Relaxed),
            s.queue.coalesced_count(),
            s.backend.stamp(),
            *lock_recover(&s.coverage),
        )
    }
}

impl<B: Backend> Drop for QueryService<B> {
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

impl<B: Backend> Shared<B> {
    /// Execute one miss: the hook and the backend under
    /// `catch_unwind`, then the degraded policy on the answer's
    /// coverage, then the cache insert of a full answer.
    fn execute(&self, query: Query) -> Outcome {
        let t0 = Instant::now();
        // Every executed query gets a process-unique qid and a root
        // span carrying it, so a trace can be grepped for one query's
        // whole subtree (kernel + partitions, or scatter + shard RPCs).
        static QUERY_ID: AtomicU64 = AtomicU64::new(1);
        let qid = QUERY_ID.fetch_add(1, Ordering::Relaxed);
        let _exec_span = gdelt_obs::span_args("serve", "execute", "qid", qid);
        let ran = catch_unwind(AssertUnwindSafe(|| {
            if let Some(hook) = &self.exec_hook {
                hook.call(&query);
            }
            self.backend.execute(&query)
        }));
        let Ok(answer) = ran else {
            self.metrics.record_worker_panic();
            gdelt_obs::flight_error(
                "serve",
                "worker_panic",
                format!("worker caught a panic running {}", query.kernel_name()),
            );
            eprintln!("{}", gdelt_obs::render_flight(&gdelt_obs::flight_snapshot()));
            return Err(ServeError::WorkerPanicked);
        };
        let answer = answer?;
        self.metrics.record_completion(t0.elapsed().as_micros() as u64);
        let cov = answer.coverage;
        *lock_recover(&self.coverage) = cov;
        let result = Arc::new(answer.result);
        if cov.is_full() {
            if self.cache_enabled {
                self.cache.invalidate_all(answer.stamp);
                self.cache.insert(query, Arc::clone(&result), answer.stamp);
            }
        } else {
            self.metrics.record_degraded();
            if self.degraded_policy == DegradedPolicy::Fail {
                gdelt_obs::flight_warn(
                    "serve",
                    "degraded_refusal",
                    format!("refused {}: coverage {}/{}", query.kernel_name(), cov.live, cov.total),
                );
                if !self.degraded_dumped.swap(true, Ordering::Relaxed) {
                    eprintln!("{}", gdelt_obs::render_flight(&gdelt_obs::flight_snapshot()));
                }
                return Err(ServeError::Degraded { live: cov.live, total: cov.total });
            }
        }
        Ok(CoveredAnswer { result, coverage: cov })
    }
}

/// Worker: dequeue the oldest job, double-check the cache, execute,
/// publish. A panic never crosses the worker's thread boundary: the
/// panicking job's waiters resolve to [`ServeError::WorkerPanicked`],
/// its admission slot is released, and the worker moves on.
fn worker_loop<B: Backend>(shared: &Shared<B>) {
    while let Some(query) = shared.queue.next_job() {
        // Re-check the cache without counting: an identical query may
        // have completed between this job's admission and now.
        let cached = if shared.cache_enabled { shared.cache.peek(&query) } else { None };
        let value = match cached {
            Some(result) => Ok(CoveredAnswer { result, coverage: Coverage::full() }),
            None => shared.execute(query),
        };
        shared.depth.fetch_sub(1, Ordering::Relaxed);
        let waiters = shared.queue.finish(&query);
        if value.is_ok() {
            shared.metrics.record_answered(waiters.len());
        }
        for w in waiters {
            w.resolve(value.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdelt_engine::TopKKind;
    use std::sync::mpsc;

    /// The bound sheds the first miss past [`MAX_QUEUE`] admitted ones,
    /// and the slots completed queries release are admitted again.
    #[test]
    fn depth_bound_sheds_and_released_capacity_is_reusable() {
        let (open, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        // Every execution waits for one message, so nothing completes
        // until the test says so.
        let hook = ExecHook::new(move |_| {
            let _ = lock_recover(&gate).recv();
        });
        let config = ServiceConfig { workers: 1, exec_hook: Some(hook), ..Default::default() };
        let service = QueryService::new(
            gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(3)).0,
            config,
        );
        let query = |k| Query::TopK { kind: TopKKind::Publishers, k };
        let tickets: Vec<_> =
            (1..=MAX_QUEUE as u32).map(|k| service.submit(query(k)).expect("admitted")).collect();
        let shed = service.submit(Query::CoReport).expect_err("one past the bound");
        assert_eq!(shed, ServeError::Overloaded { queue_depth: MAX_QUEUE, queue_limit: MAX_QUEUE });
        assert_eq!(service.metrics().shed, 1);
        for t in &tickets {
            open.send(()).expect("worker waits on the gate");
            t.get().expect("released query completes");
        }
        assert_eq!(service.metrics().queue_depth, 0);
        open.send(()).expect("worker waits on the gate");
        assert!(service.run(Query::CoReport).is_ok(), "released capacity is reusable");
    }
}
