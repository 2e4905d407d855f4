//! Scatter-gather router: the sharded serve tier's front door.
//!
//! The router is a [`QueryService`] over a [`Scatter`] backend, so
//! admission, the cache, coalescing, panic containment, `run_timeout`
//! and the [`DegradedPolicy`] are the service's own. `Scatter` keeps
//! what is specific to shards: a connection pool per shard, dial and
//! retry, and the rounds. A miss runs through the engine's plan driver,
//! [`partial::execute`], with a network scatter as the round; the
//! surviving partials merge with [`ShardPartial::merge`] into the
//! bit-identical single-process answer.
//!
//! A dead, timed-out or mismatched shard (a well-framed reply that does
//! not answer the request or does not merge) is a quarantined partition
//! range, never a panic: the answer's coverage is `live/total` source
//! partitions. The scatter's stamp moves whenever a round or
//! [`Router::probe`] sees another per-shard generation signature — a
//! shard dying, coming back, or rolled over onto another store (a
//! worker's generation is its store's identity).

use crate::split::ShardManifest;
use crate::wire::{FlightForward, Frame, WireSpan};
use gdelt_columnar::{Coverage, RetryPolicy};
use gdelt_engine::partial::{self, ShardPartial, ShardQuery};
use gdelt_engine::Query;
use gdelt_obs::{RegistrySnapshot, SpanGuard};
use gdelt_serve::ServiceConfig;
use gdelt_serve::{Answer, Backend, CoveredAnswer, DegradedPolicy, QueryService, ServeError};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Router configuration: the knobs a caller sets. The cache size and
/// the admission bound are the service's constants, and the worker
/// count is [`POOL_PER_SHARD`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// `host:port` per shard, in shard-id order (must match the
    /// manifest's shard order).
    pub addrs: Vec<String>,
    /// What to do with an answer some shards are missing from.
    pub policy: DegradedPolicy,
    /// Result cache toggle.
    pub cache_enabled: bool,
    /// Per-shard read timeout.
    pub read_timeout: Duration,
    /// Dial schedule: one try plus `max_retries` per scatter before
    /// the shard counts as dead.
    pub reconnect: RetryPolicy,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addrs: Vec::new(),
            policy: DegradedPolicy::ServePartial,
            cache_enabled: true,
            read_timeout: Duration::from_secs(10),
            reconnect: RetryPolicy {
                max_retries: 1,
                backoff: Duration::from_millis(10),
                backoff_cap: Duration::from_millis(200),
            },
        }
    }
}

/// Service workers of the router, and so the most scatters in flight.
/// Each worker holds at most one connection per shard while it
/// scatters, so this also caps the idle connections pooled per shard.
pub const POOL_PER_SHARD: usize = 8;

/// Counters the bench and chaos arms read, filled from the service's
/// metrics. Retries are reconnects that went on to succeed; they are
/// *neither* hits nor misses, so `completed == hits + misses` stays an
/// invariant under sharding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Queries answered (hit, computed or coalesced).
    pub completed: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Successful shard reconnects (not counted as hit or miss).
    pub retries: u64,
    /// Answers computed with partial coverage.
    pub degraded: u64,
    /// Queries shed by admission control.
    pub shed: u64,
    /// Shard generation/membership changes, each an invalidation.
    pub invalidations: u64,
}

/// One shard's address and idle connections. A request checks one
/// out, so concurrent scatters run on distinct sockets.
struct ShardSlot {
    addr: String,
    pool: Mutex<Vec<TcpStream>>,
    /// The next worker flight `seq` not yet re-recorded.
    flight_cursor: AtomicU64,
}

impl ShardSlot {
    fn check_out(&self) -> Option<TcpStream> {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop()
    }

    fn check_in(&self, conn: TcpStream) {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < POOL_PER_SHARD {
            pool.push(conn);
        }
    }

    /// Drop every pooled connection: they share the fate of the one
    /// that just failed.
    fn clear(&self) {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

/// The scatter backend: shard connections, rounds and merge.
pub struct Scatter {
    manifest: ShardManifest,
    slots: Vec<ShardSlot>,
    read_timeout: Duration,
    reconnect: RetryPolicy,
    /// Per-shard generation (0 = dead) as of the last scatter or probe.
    last_sig: Mutex<Vec<u64>>,
    /// The data stamp: how many times `last_sig` has changed. Only
    /// written under the `last_sig` lock.
    stamp: AtomicU64,
    /// Successful reconnects.
    retries: AtomicU64,
}

impl Backend for Scatter {
    fn execute(&self, q: &Query) -> Result<Answer, ServeError> {
        let _span = gdelt_obs::span("router", q.kernel_name());
        // The answer's coverage and stamp are the last round's: a shard
        // that answered a follow-report's ranking round but died before
        // its follow round is not behind the final matrix.
        let mut last = (Vec::new(), 0);
        let result = partial::execute(q, |sq| {
            let (partial, live, stamp) = self.scatter_round(sq)?;
            last = (live, stamp);
            Ok::<_, ServeError>(partial)
        })?;
        let (live, stamp) = last;
        let coverage = Coverage {
            live: self.manifest.coverage_of(&live),
            total: self.manifest.source_partitions,
        };
        Ok(Answer { result, coverage, stamp })
    }

    fn stamp(&self) -> u64 {
        self.stamp.load(Ordering::Acquire)
    }
}

impl Scatter {
    fn new(manifest: ShardManifest, cfg: &RouterConfig) -> Scatter {
        assert_eq!(cfg.addrs.len(), manifest.shards.len(), "one address per manifest shard");
        let n = manifest.shards.len();
        Scatter {
            manifest,
            slots: cfg
                .addrs
                .iter()
                .map(|a| ShardSlot {
                    addr: a.clone(),
                    pool: Mutex::new(Vec::new()),
                    flight_cursor: AtomicU64::new(0),
                })
                .collect(),
            read_timeout: cfg.read_timeout,
            reconnect: cfg.reconnect,
            last_sig: Mutex::new(vec![0; n]),
            stamp: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    /// Scatter one [`ShardQuery`] and merge the survivors in shard
    /// order, returning the merge, the shards behind it and the stamp.
    fn scatter_round(
        &self,
        sq: &ShardQuery,
    ) -> Result<(ShardPartial, Vec<usize>, u64), ServeError> {
        let t0 = std::time::Instant::now();
        let replies = self.ask_all(&Frame::Request(sq.clone()), |i, frame| match frame {
            Frame::Reply { generation, partial, flight } if sq.accepts(&partial) => {
                gdelt_obs::global()
                    .histogram(&format!("router_shard_us_{i}"))
                    .record(t0.elapsed().as_micros() as u64);
                self.absorb_flight(i, &flight);
                Ok((generation, partial))
            }
            // Well framed, wrong answer: a stale pipelined reply, or a
            // worker on another store.
            Frame::Reply { partial, .. } => {
                Err(format!("{} reply does not answer {sq:?}", partial.family()))
            }
            other => Err(format!("unexpected frame {}", other.name())),
        });
        // Per-shard generation, 0 = no usable answer this round.
        let mut sig = vec![0u64; replies.len()];
        let mut live = Vec::new();
        let mut merged: Option<ShardPartial> = None;
        for (i, reply) in replies.into_iter().enumerate() {
            let Some((generation, partial)) = reply else { continue };
            // A reply can answer the request and still not merge with
            // the shards before it: those stand, this one is lost.
            if merged.as_ref().is_some_and(|m| !m.compatible(&partial)) {
                let family = partial.family();
                self.conn_lost(i, &format!("{family} reply does not merge with earlier shards"));
                continue;
            }
            sig[i] = generation;
            live.push(i);
            merged = Some(match merged {
                None => partial,
                Some(m) => m.merge(partial),
            });
        }
        let stamp = self.note_signature(sig);
        let Some(partial) = merged else {
            return Err(ServeError::Degraded { live: 0, total: self.manifest.source_partitions });
        };
        Ok((partial, live, stamp))
    }

    /// Send `request` to every shard over a pooled or freshly dialed
    /// connection, then read the replies in shard order: all requests
    /// go out before any reply is read, so the workers compute
    /// concurrently without a thread per shard. `pick` maps shard `i`'s
    /// reply to its value; a reply it refuses (`Err(why)`) loses the
    /// shard like any I/O failure.
    fn ask_all<T>(
        &self,
        request: &Frame,
        pick: impl Fn(usize, Frame) -> Result<T, String>,
    ) -> Vec<Option<T>> {
        let sent: Vec<_> = (0..self.slots.len()).map(|i| self.send(i, request)).collect();
        sent.into_iter()
            .enumerate()
            .map(|(i, sent)| {
                let (mut conn, dialed, rpc_span) = sent?;
                let reply = Frame::read_from(&mut conn);
                // Each shard_rpc span covers its send→reply interval.
                drop(rpc_span);
                let why = match reply.map(|frame| pick(i, frame)) {
                    Ok(Ok(value)) => {
                        self.slots[i].check_in(conn);
                        self.retries.fetch_add(u64::from(dialed), Ordering::Relaxed);
                        return Some(value);
                    }
                    Ok(Err(why)) => why,
                    Err(e) => e.to_string(),
                };
                self.conn_lost(i, &why);
                None
            })
            .collect()
    }

    /// Put `request` on shard `i`'s wire over a pooled or freshly
    /// dialed connection. Returns the connection, whether it was
    /// dialed, and the RPC span whose context the frame header carries.
    fn send(&self, i: usize, request: &Frame) -> Option<(TcpStream, bool, SpanGuard)> {
        let slot = &self.slots[i];
        let (mut conn, dialed) = match slot.check_out() {
            Some(conn) => (conn, false),
            None => (self.dial(i, slot)?, true),
        };
        // span_at, not span: these siblings drop out of LIFO order and
        // must not disturb the ambient context.
        let rpc_span = gdelt_obs::span_at("router", "shard_rpc", gdelt_obs::current_trace())
            .arg("shard", i as u64);
        let tc = rpc_span.trace_context();
        if let Err(e) = request.write_traced_to(&mut conn, tc.trace_id, tc.span_id) {
            self.conn_lost(i, &e.to_string());
            return None;
        }
        Some((conn, dialed, rpc_span))
    }

    /// A connection to shard `i` died: clear its siblings and leave a
    /// flight-recorder trace.
    fn conn_lost(&self, i: usize, why: &str) {
        self.slots[i].clear();
        gdelt_obs::global().counter("router_shard_loss").inc();
        gdelt_obs::flight_warn("shard", "shard_lost", format!("shard {i}: {why}"));
    }

    /// Dial a shard on the [`RouterConfig::reconnect`] schedule and
    /// read its hello, leaving a flight event per failed attempt and
    /// one `dial_failed` when all fail.
    fn dial(&self, i: usize, slot: &ShardSlot) -> Option<TcpStream> {
        let policy = &self.reconnect;
        let attempts = policy.max_retries + 1;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(policy.delay(attempt - 1));
            }
            let why = match TcpStream::connect(&slot.addr) {
                Ok(mut stream) => {
                    let _ = stream.set_read_timeout(Some(self.read_timeout));
                    let _ = stream.set_nodelay(true);
                    match Frame::read_from(&mut stream) {
                        Ok(Frame::Hello(_)) => return Some(stream),
                        Ok(other) => format!("expected hello, got {}", other.name()),
                        Err(e) => format!("hello read failed: {e}"),
                    }
                }
                Err(e) => format!("connect failed: {e}"),
            };
            let detail =
                format!("shard {i} at {}: attempt {}/{attempts} {why}", slot.addr, attempt + 1);
            gdelt_obs::flight_warn("shard", "dial_retry", detail);
        }
        let detail = format!("shard {i} at {} unreachable after {attempts} attempts", slot.addr);
        gdelt_obs::flight_warn("shard", "dial_failed", detail);
        None
    }

    /// Re-record flight events a worker piggybacked on a reply, at
    /// most once per event: the first racing reply to advance the
    /// shard's cursor past a `seq` claims it.
    fn absorb_flight(&self, i: usize, events: &[FlightForward]) {
        let cursor = &self.slots[i].flight_cursor;
        for ev in
            events.iter().filter(|ev| cursor.fetch_max(ev.seq + 1, Ordering::Relaxed) <= ev.seq)
        {
            ev.rerecord(i);
        }
    }

    /// Record a per-shard generation signature (0 = dead); any change
    /// moves the stamp, which drops the service's cache before any
    /// answer stamped after it can be cached. Returns the stamp.
    fn note_signature(&self, sig: Vec<u64>) -> u64 {
        let mut last = self.last_sig.lock().unwrap_or_else(|e| e.into_inner());
        if *last != sig {
            *last = sig;
            self.stamp.fetch_add(1, Ordering::AcqRel);
        }
        self.stamp.load(Ordering::Acquire)
    }
}

/// The sharded front door: a [`QueryService`] over a [`Scatter`] with
/// [`POOL_PER_SHARD`] workers. It dereferences to the service, so
/// `run_timeout`, `metrics` and `generation` are the service's own.
pub struct Router(QueryService<Scatter>);

impl Router {
    /// Build a router over `manifest`'s shards at `cfg.addrs`.
    pub fn new(manifest: ShardManifest, cfg: RouterConfig) -> Router {
        let service = ServiceConfig {
            workers: POOL_PER_SHARD,
            cache_enabled: cfg.cache_enabled,
            threads: None,
            degraded_policy: cfg.policy,
            exec_hook: None,
        };
        Router(QueryService::start(Scatter::new(manifest, &cfg), service))
    }

    /// Answer `q` through the service.
    pub fn query(&self, q: &Query) -> Result<CoveredAnswer, ServeError> {
        self.0.run_covered(*q)
    }

    /// Stats snapshot.
    pub fn stats(&self) -> RouterStats {
        let m = self.0.metrics();
        RouterStats {
            completed: m.answered,
            hits: m.cache.hits,
            misses: m.cache.misses,
            retries: self.0.backend().retries.load(Ordering::Relaxed),
            degraded: m.degraded,
            shed: m.shed,
            invalidations: m.generation,
        }
    }

    /// Scrape every worker's metrics registry (`None` when the shard is
    /// unreachable or replied malformed JSON), absorbing piggybacked
    /// flight events on the way.
    pub fn scrape_metrics(&self) -> Vec<Option<RegistrySnapshot>> {
        let s = self.0.backend();
        s.ask_all(&Frame::MetricsRequest, |i, frame| match frame {
            Frame::MetricsReply { snapshot_json, flight } => {
                s.absorb_flight(i, &flight);
                RegistrySnapshot::from_json(&snapshot_json).map_err(|e| format!("bad metrics: {e}"))
            }
            other => Err(format!("expected metrics reply, got {}", other.name())),
        })
    }

    /// Drain every worker's completed spans for trace stitching:
    /// `(pid, spans)` per shard, `None` when unreachable. Draining is
    /// destructive on the worker side, so collect once per traced run.
    pub fn collect_traces(&self) -> Vec<Option<(u32, Vec<WireSpan>)>> {
        self.0.backend().ask_all(&Frame::TraceRequest, |_, frame| match frame {
            Frame::TraceReply { pid, spans } => Ok((pid, spans)),
            other => Err(format!("expected trace reply, got {}", other.name())),
        })
    }

    /// Health-probe every shard: `(live, total, generation)` per
    /// shard, `None` when unreachable. A probe runs the same signature
    /// check as a scatter, so it detects shard loss (and moves the
    /// stamp) without a query.
    pub fn probe(&self) -> Vec<Option<(u32, u32, u64)>> {
        let s = self.0.backend();
        let healths = s.ask_all(&Frame::HealthProbe, |_, frame| match frame {
            Frame::Health(h) => Ok((h.live, h.total, h.generation)),
            other => Err(format!("expected health, got {}", other.name())),
        });
        s.note_signature(healths.iter().map(|h| h.map_or(0, |(_, _, g)| g)).collect());
        healths
    }
}

impl std::ops::Deref for Router {
    type Target = QueryService<Scatter>;

    fn deref(&self) -> &QueryService<Scatter> {
        &self.0
    }
}
