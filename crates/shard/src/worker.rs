//! Shard worker: serves one shard store over the wire protocol.
//!
//! A worker is a plain request/reply loop — no admission, no cache,
//! no batching; all of that lives in the router. It loads its shard
//! store once, answers [`Frame::Request`] with generation-stamped
//! [`Frame::Reply`] partials, and reports [`Frame::Health`] on probe.
//! The same struct backs both deployment modes: the
//! `gdelt-cli shard-worker` process (accept loop over TCP) and the
//! in-process worker threads the integration tests spin up.
//!
//! Distributed observability (see DESIGN.md "Distributed
//! observability"): each request frame carries trace context in its
//! header; the worker adopts it for the duration of [`handle`], so
//! the `worker_query` span — and the engine partition spans nested
//! under it — parent under the router's RPC span. Replies piggyback
//! the worker's most recent flight events, and the router can scrape
//! the worker's metrics registry ([`Frame::MetricsRequest`]) or drain
//! its completed spans ([`Frame::TraceRequest`]) over the same
//! connection.

use crate::wire::{FlightForward, Frame, Health, Hello, WireSpan};
use gdelt_columnar::Dataset;
use gdelt_engine::partial::run_shard_query;
use gdelt_engine::{ExecContext, Query};
use gdelt_obs::{FlightLevel, TraceContext};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Flight events attached to one reply or scrape — enough to cover a
/// chaos window between scrapes without bloating every frame.
pub const FLIGHT_PIGGYBACK_MAX: usize = 32;

/// How to stand up one worker.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Shard store file.
    pub store: PathBuf,
    /// Shard index in the split.
    pub shard_id: u32,
    /// Source partitions this shard covers (its coverage weight).
    pub partitions: u32,
    /// Global event row of the shard's first event.
    pub ev_row_base: u64,
    /// Kernel threads for the shard-local `ExecContext`.
    pub threads: usize,
    /// Deterministic fault injection: sleep `fault_delay_ms` before
    /// answering the request with this zero-based index (chaos arm).
    pub fault_delay_at: Option<u64>,
    /// Milliseconds to sleep when `fault_delay_at` fires.
    pub fault_delay_ms: u64,
    /// Enable span recording in this process so [`Frame::TraceRequest`]
    /// has spans to drain.
    pub trace: bool,
}

impl WorkerConfig {
    /// Config for a shard with no injected faults.
    pub fn new(store: PathBuf, shard_id: u32, partitions: u32, ev_row_base: u64) -> Self {
        WorkerConfig {
            store,
            shard_id,
            partitions,
            ev_row_base,
            threads: 2,
            fault_delay_at: None,
            fault_delay_ms: 0,
            trace: false,
        }
    }
}

/// One loaded shard, ready to answer requests from any number of
/// connections.
pub struct ShardWorker {
    cfg: WorkerConfig,
    ctx: ExecContext,
    dataset: Dataset,
    generation: AtomicU64,
    requests: AtomicU64,
}

impl ShardWorker {
    /// Load the columns of the shard store that queries read
    /// ([`Query::SERVED_COLUMNS`]) and build the execution context.
    pub fn load(cfg: WorkerConfig) -> io::Result<Arc<ShardWorker>> {
        let dataset = gdelt_columnar::binfmt::load_projected(&cfg.store, &Query::SERVED_COLUMNS)?;
        let ctx = ExecContext::builder().threads(cfg.threads.max(1)).build();
        if cfg.trace {
            gdelt_obs::set_tracing(true);
        }
        gdelt_obs::flight_info(
            "worker",
            "worker_started",
            format!("shard {} pid {}", cfg.shard_id, std::process::id()),
        );
        Ok(Arc::new(ShardWorker {
            cfg,
            ctx,
            dataset,
            generation: AtomicU64::new(1),
            requests: AtomicU64::new(0),
        }))
    }

    /// The hello frame for a fresh connection.
    pub fn hello(&self) -> Hello {
        Hello {
            shard_id: self.cfg.shard_id,
            partitions: self.cfg.partitions,
            ev_row_base: self.cfg.ev_row_base,
            events: self.dataset.events.len() as u64,
            mentions: self.dataset.mentions.len() as u64,
            generation: self.generation.load(Ordering::Acquire),
        }
    }

    fn health(&self) -> Health {
        Health {
            live: self.cfg.partitions,
            total: self.cfg.partitions,
            generation: self.generation.load(Ordering::Acquire),
        }
    }

    /// The most recent flight events as wire forwards, oldest first.
    ///
    /// The worker side is stateless: it attaches the same tail to
    /// every reply and lets the router's per-shard seq cursor dedup
    /// (`seq` is monotone per process, so at-most-once re-recording is
    /// the router's `fetch_max` away). Events a router re-recorded are
    /// never forwarded: in a process hosting both router and workers
    /// (tests, `gdbench`, any library user) a re-record would come back
    /// under a fresh `seq`, be re-recorded again, and echo forever.
    fn recent_flight(&self) -> Vec<FlightForward> {
        let mut evs = gdelt_obs::flight_snapshot();
        evs.retain(|ev| !FlightForward::is_rerecord(&ev.detail));
        let skip = evs.len().saturating_sub(FLIGHT_PIGGYBACK_MAX);
        evs.into_iter()
            .skip(skip)
            .map(|ev| FlightForward {
                seq: ev.seq,
                t_us: ev.t_us,
                level: match ev.level {
                    FlightLevel::Info => 0,
                    FlightLevel::Warn => 1,
                    FlightLevel::Error => 2,
                },
                component: ev.component,
                code: ev.code,
                detail: ev.detail,
            })
            .collect()
    }

    /// Drain completed spans as absolute-timestamped wire spans.
    fn drain_spans(&self) -> Vec<WireSpan> {
        let epoch = gdelt_obs::epoch_unix_ns();
        gdelt_obs::take_spans()
            .into_iter()
            .map(|s| WireSpan {
                name: s.name.to_string(),
                cat: s.cat.to_string(),
                start_unix_ns: epoch.saturating_add(s.start_ns),
                dur_ns: s.dur_ns,
                tid: s.tid,
                trace_id: s.trace_id,
                span_id: s.span_id,
                parent_id: s.parent_id,
                args: s.args[..s.n_args as usize]
                    .iter()
                    .map(|&(k, v)| (k.to_string(), v))
                    .collect(),
            })
            .collect()
    }

    /// Answer one frame. Pure dispatch — shared by every transport.
    /// The caller is responsible for having adopted any wire trace
    /// context (see [`ShardWorker::serve_conn`]).
    pub fn handle(&self, frame: Frame) -> Frame {
        match frame {
            Frame::Request(sq) => {
                let _span = gdelt_obs::span_args(
                    "shard",
                    "worker_query",
                    "shard",
                    self.cfg.shard_id as u64,
                );
                // A well-framed request can still ask for what this shard
                // cannot size or index (a million-source follow subset):
                // refuse it before a kernel allocates from it.
                if let Err(why) = sq.fits(&self.dataset) {
                    return Frame::Error { code: 2, message: format!("request refused: {why}") };
                }
                let idx = self.requests.fetch_add(1, Ordering::Relaxed);
                if self.cfg.fault_delay_at == Some(idx) && self.cfg.fault_delay_ms > 0 {
                    gdelt_obs::flight_warn(
                        "worker",
                        "fault_delay",
                        format!(
                            "shard {}: injected {}ms stall before request {idx}",
                            self.cfg.shard_id, self.cfg.fault_delay_ms
                        ),
                    );
                    std::thread::sleep(std::time::Duration::from_millis(self.cfg.fault_delay_ms));
                }
                let t0 = std::time::Instant::now();
                let partial = run_shard_query(&self.ctx, &self.dataset, &sq, self.cfg.ev_row_base);
                gdelt_obs::global()
                    .histogram("shard_worker_query_us")
                    .record(t0.elapsed().as_micros() as u64);
                Frame::Reply {
                    generation: self.generation.load(Ordering::Acquire),
                    partial,
                    flight: self.recent_flight(),
                }
            }
            Frame::HealthProbe => Frame::Health(self.health()),
            Frame::BumpGeneration => {
                self.generation.fetch_add(1, Ordering::AcqRel);
                Frame::Health(self.health())
            }
            Frame::MetricsRequest => Frame::MetricsReply {
                snapshot_json: gdelt_obs::global().snapshot().to_json(),
                flight: self.recent_flight(),
            },
            Frame::TraceRequest => {
                Frame::TraceReply { pid: std::process::id(), spans: self.drain_spans() }
            }
            other => Frame::Error {
                code: 1,
                message: format!("unsupported frame kind for worker: {}", other.name()),
            },
        }
    }

    /// Serve one connection: hello, then request/reply until the peer
    /// hangs up. Each inbound frame's trace context is adopted for the
    /// duration of its handling, so worker spans parent under the
    /// router's RPC span.
    pub fn serve_conn(&self, mut stream: TcpStream) -> io::Result<()> {
        let _ = stream.set_nodelay(true);
        Frame::Hello(self.hello()).write_to(&mut stream)?;
        loop {
            let (frame, trace_id, parent_span) = match Frame::read_traced_from(&mut stream) {
                Ok(f) => f,
                // Peer hung up between frames — a normal end.
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
                Err(e) => return Err(e),
            };
            let reply = {
                let _scope = gdelt_obs::with_trace(TraceContext { trace_id, span_id: parent_span });
                self.handle(frame)
            };
            reply.write_to(&mut stream)?;
        }
    }

    /// Accept loop: one thread per connection, forever (process mode —
    /// the router kills workers by killing the process).
    pub fn serve(self: &Arc<ShardWorker>, listener: TcpListener) -> io::Result<()> {
        loop {
            let (stream, _peer) = listener.accept()?;
            let worker = Arc::clone(self);
            std::thread::spawn(move || {
                if let Err(e) = worker.serve_conn(stream) {
                    gdelt_obs::flight_warn(
                        "shard",
                        "worker_conn_error",
                        format!("shard {}: {e}", worker.cfg.shard_id),
                    );
                }
            });
        }
    }
}
