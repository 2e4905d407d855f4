//! Scatter-gather router: the front door of the sharded serve tier.
//!
//! The router owns everything the single-process `QueryService` owns —
//! admission by the same queue-depth bound, the generation-stamped
//! result cache, coverage accounting — but its "workers" are shard
//! processes reached over the wire protocol. One admitted [`Query`]
//! runs through the engine's own plan driver, [`partial::execute`] —
//! the same one `run_query` uses — with a network scatter as the round:
//! every shard answers the [`ShardQuery`], the surviving partials merge
//! with the associative [`ShardPartial::merge`], and the driver
//! finalizes the bit-identical single-process answer.
//!
//! Failure maps onto the degraded-store vocabulary the repo already
//! speaks: a dead or timed-out shard is a quarantined *partition
//! range*, so coverage is `live/total` in source-store partitions,
//! `DegradedPolicy::ServePartial` answers over the survivors and
//! `DegradedPolicy::Fail` returns [`ServeError::Degraded`]. A reply that
//! is well framed but does not answer the request sent — another
//! family, another `k`, bitmaps over another source directory — is a
//! lost shard too, never a panic in the caller. Reconnects follow
//! the capped doubling [`RetryPolicy`] a degraded store load retries
//! by, and only full-coverage answers enter the cache, so a shard
//! death can never leave a stale partial answer behind.

use crate::split::ShardManifest;
use crate::wire::{FlightForward, Frame, WireSpan};
use gdelt_columnar::{Coverage, RetryPolicy};
use gdelt_engine::partial::{self, ShardPartial, ShardQuery};
use gdelt_engine::{Query, QueryResult};
use gdelt_obs::{FlightLevel, RegistrySnapshot, SpanGuard};
use gdelt_serve::{Admission, CoveredAnswer, DegradedPolicy, ServeError, ShardedCache};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Router configuration: the knobs a caller sets. Cache size and the
/// per-shard connection pool are private constants of this module; the
/// admission bound is [`gdelt_serve::MAX_QUEUE`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// `host:port` per shard, in shard-id order (must match the
    /// manifest's shard order).
    pub addrs: Vec<String>,
    /// What to do when shards are missing.
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

/// Result-cache shards.
const CACHE_SHARDS: usize = 8;
/// Result-cache capacity per cache shard.
const CACHE_CAPACITY_PER_SHARD: usize = 64;
/// Idle connections kept per shard. Concurrent scatters each check out
/// their own connection (dialing on demand), so cold queries never
/// serialize behind one shard socket; this caps how many stay pooled
/// between scatters.
const POOL_PER_SHARD: usize = 8;

/// Counters the bench and chaos arms read. Retries are reconnects that
/// went on to succeed; they are *neither* hits nor misses, so
/// `completed == hits + misses` stays an invariant under sharding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Queries answered (hit or computed).
    pub completed: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses (scatter computed the answer).
    pub misses: u64,
    /// Successful shard reconnects (not counted as hit or miss).
    pub retries: u64,
    /// Answers served with partial coverage.
    pub degraded: u64,
    /// Queries shed by admission control.
    pub shed: u64,
    /// Cache invalidations from shard generation/membership changes.
    pub invalidations: u64,
}

struct ShardSlot {
    addr: String,
    /// Idle connections, checked out per request so concurrent
    /// scatters to the same shard run on distinct sockets (the worker
    /// serves one thread per connection).
    pool: Mutex<Vec<TcpStream>>,
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

    /// Drop every pooled connection — they share the fate of the one
    /// that just failed, and keeping them would make the shard look
    /// dead for several scatters after it comes back.
    fn clear(&self) {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

/// The scatter-gather front-end.
pub struct Router {
    cfg: RouterConfig,
    manifest: ShardManifest,
    slots: Vec<ShardSlot>,
    admission: Admission,
    cache: ShardedCache,
    /// Per-shard generation (0 = dead) as of the last scatter; any
    /// change invalidates the cache.
    last_sig: Mutex<Vec<u64>>,
    /// Per-shard flight-forwarding cursor: the next worker flight
    /// `seq` this router has not yet re-recorded. Workers attach the
    /// same recent-event tail to every reply; `fetch_max` on this
    /// cursor makes re-recording at-most-once per event even when
    /// concurrent scatters race on the same shard's replies.
    flight_cursors: Vec<AtomicU64>,
    completed: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    retries: AtomicU64,
    degraded: AtomicU64,
    invalidations: AtomicU64,
}

impl Router {
    /// Build a router over `manifest`'s shards at `cfg.addrs`.
    pub fn new(manifest: ShardManifest, cfg: RouterConfig) -> Router {
        assert_eq!(cfg.addrs.len(), manifest.shards.len(), "one address per manifest shard");
        let slots = cfg
            .addrs
            .iter()
            .map(|a| ShardSlot { addr: a.clone(), pool: Mutex::new(Vec::new()) })
            .collect();
        let cache = ShardedCache::new(CACHE_SHARDS, CACHE_CAPACITY_PER_SHARD);
        let n = manifest.shards.len();
        Router {
            cfg,
            manifest,
            slots,
            admission: Admission::default(),
            cache,
            last_sig: Mutex::new(vec![0; n]),
            flight_cursors: (0..n).map(|_| AtomicU64::new(0)).collect(),
            completed: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Stats snapshot.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            completed: self.completed.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            shed: self.admission.shed_count(),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Current router cache generation.
    pub fn generation(&self) -> u64 {
        self.cache.generation()
    }

    /// Answer `q`: admission, cache, scatter, merge, finalize.
    pub fn query(&self, q: &Query) -> Result<CoveredAnswer, ServeError> {
        self.admission.try_admit()?;
        let out = self.query_admitted(q);
        self.admission.release();
        out
    }

    fn query_admitted(&self, q: &Query) -> Result<CoveredAnswer, ServeError> {
        let t0 = std::time::Instant::now();
        // Root span of the distributed trace: with no ambient context
        // it mints a fresh trace id, which every shard RPC below then
        // carries in its frame header.
        let _root = gdelt_obs::span("router", q.kernel_name());
        if self.cfg.cache_enabled {
            if let Some(result) = self.cache.get(q) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.completed.fetch_add(1, Ordering::Relaxed);
                return Ok(CoveredAnswer { result, coverage: Coverage::full() });
            }
        }
        let (result, coverage) = self.scatter_query(q)?;
        if self.cfg.cache_enabled {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        self.completed.fetch_add(1, Ordering::Relaxed);
        gdelt_obs::global().histogram("router_query_us").record(t0.elapsed().as_micros() as u64);
        Ok(CoveredAnswer { result: Arc::new(result), coverage })
    }

    fn scatter_query(&self, q: &Query) -> Result<(QueryResult, Coverage), ServeError> {
        // The answer's coverage and cache stamp are the last round's: a
        // shard that answered a follow-report's ranking round but died
        // before its follow round is not behind the final matrix.
        let mut last = (Vec::new(), 0);
        let result = partial::execute(q, |sq| {
            let round = self.scatter_round(sq)?;
            last = (round.live, round.cache_generation);
            Ok::<_, ServeError>(round.partial)
        })?;
        let (live, cache_generation) = last;
        let total = self.manifest.source_partitions;
        let live_parts = self.manifest.coverage_of(&live);
        let coverage = Coverage { live: live_parts, total };
        if !coverage.is_full() {
            self.degraded.fetch_add(1, Ordering::Relaxed);
            if self.cfg.policy == DegradedPolicy::Fail {
                return Err(ServeError::Degraded { live: live_parts, total });
            }
        }
        if self.cfg.cache_enabled && coverage.is_full() {
            self.cache.insert(*q, Arc::new(result.clone()), cache_generation);
        }
        Ok((result, coverage))
    }

    /// Scatter one [`ShardQuery`] over every shard and merge the
    /// survivors in shard order. Dispatch is pipelined, not threaded:
    /// all requests go out first, then replies are read — and folded
    /// into the running merge — in shard order, so every worker computes
    /// concurrently while the router pays no per-scatter thread
    /// spawn/join cost.
    fn scatter_round(&self, sq: &ShardQuery) -> Result<Round, ServeError> {
        let n = self.slots.len();
        let pending: Vec<Option<(TcpStream, bool, SpanGuard)>> =
            (0..n).map(|i| self.send_request(i, sq)).collect();
        // Per-shard generation, 0 = no usable answer this round.
        let mut sig = vec![0u64; n];
        let mut live = Vec::new();
        let mut merged: Option<ShardPartial> = None;
        let mut retries = 0u64;
        for (i, p) in pending.into_iter().enumerate() {
            // The RPC span guard rides alongside the connection and
            // drops here, after the reply — so each shard_rpc span
            // covers its full send→reply interval even though the
            // sends all happen before the first read.
            let Some((conn, reconnected, rpc_span)) = p else { continue };
            let reply = self.read_reply(i, sq, conn);
            drop(rpc_span);
            let Some((generation, partial)) = reply else { continue };
            // A reply that answers the request can still disagree with
            // the shards before it (matrix shape, bitmap length over
            // another source directory): those stand, this one is lost.
            if merged.as_ref().is_some_and(|m| !m.compatible(&partial)) {
                let family = partial.family();
                self.conn_lost(i, &format!("{family} reply does not merge with earlier shards"));
                continue;
            }
            if let Some(slot) = sig.get_mut(i) {
                *slot = generation;
            }
            live.push(i);
            retries += u64::from(reconnected);
            merged = Some(match merged {
                None => partial,
                Some(m) => m.merge(partial),
            });
        }
        // Generation/membership signature: any change — a shard dying,
        // coming back, or bumping its store generation — invalidates
        // the cache before this round's answer can be inserted.
        let cache_generation = self.note_signature(sig);
        if retries > 0 {
            self.retries.fetch_add(retries, Ordering::Relaxed);
        }
        let Some(partial) = merged else {
            return Err(ServeError::Degraded { live: 0, total: self.manifest.source_partitions });
        };
        Ok(Round { partial, live, cache_generation })
    }

    /// Send-phase half of a scatter: check a connection out of shard
    /// `i`'s pool (or dial with capped backoff) and put the request on
    /// the wire. Returns the connection awaiting its reply, whether it
    /// was freshly dialed, and the RPC span whose context was stamped
    /// into the frame header (the caller holds it open until the reply
    /// lands).
    fn send_request(&self, i: usize, sq: &ShardQuery) -> Option<(TcpStream, bool, SpanGuard)> {
        let slot = &self.slots[i];
        let mut reconnected = false;
        let mut conn = slot.check_out();
        if conn.is_none() {
            conn = self.dial(i, slot);
            reconnected = conn.is_some();
        }
        let mut conn = conn?;
        // Explicitly parented (span_at, not span): the scatter sends
        // all N requests before reading any reply, so these guards are
        // siblings dropped out of LIFO order — they must not disturb
        // the ambient context under the root span.
        let rpc_span = gdelt_obs::span_at("router", "shard_rpc", gdelt_obs::current_trace())
            .arg("shard", i as u64);
        let tc = rpc_span.trace_context();
        match Frame::Request(sq.clone()).write_traced_to(&mut conn, tc.trace_id, tc.span_id) {
            Ok(()) => Some((conn, reconnected, rpc_span)),
            Err(e) => {
                self.conn_lost(i, &e.to_string());
                None
            }
        }
    }

    /// Receive-phase half of a scatter: await shard `i`'s reply to `sq`
    /// on the connection its request went out on, returning the worker's
    /// store generation and its partial. Any failure — a reply that does
    /// not answer `sq` included — marks the shard dead for this scatter
    /// and leaves reconnection to the next one.
    fn read_reply(
        &self,
        i: usize,
        sq: &ShardQuery,
        mut conn: TcpStream,
    ) -> Option<(u64, ShardPartial)> {
        let t0 = std::time::Instant::now();
        match Frame::read_from(&mut conn) {
            Ok(Frame::Reply { partial, .. }) if !sq.accepts(&partial) => {
                // Well framed, wrong answer (a stale pipelined reply, a
                // worker on another store): drop the connection with it.
                self.conn_lost(i, &format!("{} reply does not answer {sq:?}", partial.family()));
                None
            }
            Ok(Frame::Reply { generation, partial, flight }) => {
                gdelt_obs::global()
                    .histogram(&format!("router_shard_us_{i}"))
                    .record(t0.elapsed().as_micros() as u64);
                self.absorb_flight(i, &flight);
                self.slots[i].check_in(conn);
                Some((generation, partial))
            }
            Ok(other) => {
                self.conn_lost(i, &format!("unexpected frame {other:?}"));
                None
            }
            Err(e) => {
                self.conn_lost(i, &e.to_string());
                None
            }
        }
    }

    /// A connection to shard `i` died (the caller already dropped it):
    /// clear its siblings — they share the dead worker — and leave a
    /// flight-recorder trace.
    fn conn_lost(&self, i: usize, why: &str) {
        self.slots[i].clear();
        gdelt_obs::global().counter("router_shard_loss").inc();
        gdelt_obs::flight_warn("shard", "shard_lost", format!("shard {i}: {why}"));
    }

    /// Dial a shard on the [`RouterConfig::reconnect`] schedule and
    /// read its hello. Every failed attempt leaves its own flight event
    /// (with the shard id and attempt number), so a dump distinguishes
    /// "first dial lost a race with a restart" from "down the whole
    /// window"; the terminal `dial_failed` still fires only once.
    fn dial(&self, i: usize, slot: &ShardSlot) -> Option<TcpStream> {
        let policy = &self.cfg.reconnect;
        let attempts = policy.max_retries + 1;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(policy.delay(attempt - 1));
            }
            let why = match TcpStream::connect(&slot.addr) {
                Ok(mut stream) => {
                    let _ = stream.set_read_timeout(Some(self.cfg.read_timeout));
                    let _ = stream.set_nodelay(true);
                    match Frame::read_from(&mut stream) {
                        Ok(Frame::Hello(_)) => return Some(stream),
                        Ok(other) => format!("expected hello, got {}", other.name()),
                        Err(e) => format!("hello read failed: {e}"),
                    }
                }
                Err(e) => format!("connect failed: {e}"),
            };
            gdelt_obs::flight_warn(
                "shard",
                "dial_retry",
                format!("shard {i} at {}: attempt {}/{attempts} {why}", slot.addr, attempt + 1),
            );
        }
        gdelt_obs::flight_warn(
            "shard",
            "dial_failed",
            format!("shard {i} at {} unreachable after {attempts} attempts", slot.addr),
        );
        None
    }

    /// Re-record flight events a worker piggybacked on a reply, at
    /// most once per event: the per-shard cursor advances with
    /// `fetch_max`, so whichever racing reply observes an event first
    /// claims it and every later tail containing the same `seq` skips
    /// it.
    fn absorb_flight(&self, i: usize, events: &[FlightForward]) {
        let Some(cursor) = self.flight_cursors.get(i) else { return };
        for ev in events {
            let prev = cursor.fetch_max(ev.seq + 1, Ordering::Relaxed);
            if prev > ev.seq {
                continue;
            }
            let level = match ev.level {
                0 => FlightLevel::Info,
                1 => FlightLevel::Warn,
                _ => FlightLevel::Error,
            };
            gdelt_obs::flight(level, ev.component.clone(), ev.code.clone(), ev.rerecord_detail(i));
        }
    }

    /// One round-trip request/reply on shard `i`'s connection, pooled
    /// on success (shared shape of the metrics scrape and trace
    /// drain).
    fn exchange(&self, i: usize, request: Frame) -> Option<Frame> {
        let slot = &self.slots[i];
        let mut conn = slot.check_out().or_else(|| self.dial(i, slot))?;
        let reply = request.write_to(&mut conn).and_then(|()| Frame::read_from(&mut conn));
        match reply {
            Ok(frame) => {
                slot.check_in(conn);
                Some(frame)
            }
            Err(e) => {
                self.conn_lost(i, &e.to_string());
                None
            }
        }
    }

    /// Scrape every worker's metrics registry. Returns per-shard
    /// `Some(snapshot)` or `None` when the shard is unreachable or
    /// replied malformed JSON. Piggybacked flight events are absorbed
    /// on the way — a scrape doubles as a flight sync even for shards
    /// that have not answered a query recently.
    pub fn scrape_metrics(&self) -> Vec<Option<RegistrySnapshot>> {
        (0..self.slots.len())
            .map(|i| match self.exchange(i, Frame::MetricsRequest)? {
                Frame::MetricsReply { snapshot_json, flight } => {
                    self.absorb_flight(i, &flight);
                    match RegistrySnapshot::from_json(&snapshot_json) {
                        Ok(snap) => Some(snap),
                        Err(e) => {
                            gdelt_obs::flight_warn(
                                "shard",
                                "bad_metrics_snapshot",
                                format!("shard {i}: {e}"),
                            );
                            None
                        }
                    }
                }
                other => {
                    self.conn_lost(i, &format!("expected metrics reply, got {other:?}"));
                    None
                }
            })
            .collect()
    }

    /// Drain every worker's completed spans for trace stitching.
    /// Returns per-shard `Some((pid, spans))` or `None` when
    /// unreachable. Draining is destructive on the worker side, so
    /// collect once at the end of a traced run.
    pub fn collect_traces(&self) -> Vec<Option<(u32, Vec<WireSpan>)>> {
        (0..self.slots.len())
            .map(|i| match self.exchange(i, Frame::TraceRequest)? {
                Frame::TraceReply { pid, spans } => Some((pid, spans)),
                other => {
                    self.conn_lost(i, &format!("expected trace reply, got {other:?}"));
                    None
                }
            })
            .collect()
    }

    /// Record a per-shard generation signature (0 = dead); any change
    /// invalidates the whole cache, so a shard death or store swap can
    /// never serve a stale full-coverage answer. Returns the cache
    /// generation to stamp fresh inserts with.
    fn note_signature(&self, sig: Vec<u64>) -> u64 {
        let mut last = self.last_sig.lock().unwrap_or_else(|e| e.into_inner());
        if *last != sig {
            *last = sig;
            let next = self.cache.generation() + 1;
            self.cache.invalidate_all(next);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        drop(last);
        self.cache.generation()
    }

    /// Health-probe every shard; returns per-shard
    /// `Some((live, total, generation))` or `None` when unreachable.
    /// Probing runs the same signature check as a scatter, so a chaos
    /// harness can detect shard loss (and force cache invalidation)
    /// without issuing a query.
    pub fn probe(&self) -> Vec<Option<(u32, u32, u64)>> {
        let healths: Vec<Option<(u32, u32, u64)>> = (0..self.slots.len())
            .map(|i| {
                let slot = &self.slots[i];
                let mut conn = slot.check_out().or_else(|| self.dial(i, slot))?;
                let reply = Frame::HealthProbe
                    .write_to(&mut conn)
                    .and_then(|()| Frame::read_from(&mut conn));
                match reply {
                    Ok(Frame::Health(h)) => {
                        slot.check_in(conn);
                        Some((h.live, h.total, h.generation))
                    }
                    _ => {
                        self.conn_lost(i, "health probe failed");
                        None
                    }
                }
            })
            .collect();
        let sig = healths.iter().map(|h| h.map_or(0, |(_, _, g)| g)).collect();
        self.note_signature(sig);
        healths
    }
}

/// A merged scatter round.
struct Round {
    partial: ShardPartial,
    /// Shard ids that answered, ascending.
    live: Vec<usize>,
    /// Cache generation after this round's signature check.
    cache_generation: u64,
}
