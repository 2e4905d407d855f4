//! Structured spans: RAII-timed intervals recorded into per-thread
//! buffers and drained for Chrome trace export.
//!
//! Cost model (the DESIGN.md overhead budget leans on this):
//!
//! - **Tracing disabled** (the default): [`span`] is one `OnceLock`
//!   get plus one `Relaxed` load and returns an inert guard whose drop
//!   does nothing. No clock read, no allocation, no lock, no
//!   thread-local write.
//! - **Tracing enabled**: the guard reads the clock twice and pushes a
//!   `Copy` record into this thread's pre-reserved buffer under an
//!   uncontended per-thread mutex (the mutex exists only so
//!   [`take_spans`] can drain other threads' buffers). Steady state is
//!   allocation-free: the buffer is reserved at [`RESERVE`] records on
//!   first use and only regrows past that.
//!
//! Buffers are never bounded — a tracing session is expected to be
//! short (one replay, one query) and drained promptly. Thread buffers
//! registered by exited threads stay in the sink list until drained;
//! that is a few empty `Vec`s, not a leak that grows with traffic.
//!
//! # Trace identity
//!
//! Every enabled span carries a `(trace_id, span_id, parent_id)`
//! triple so spans from different processes can be stitched into one
//! distributed trace:
//!
//! - A span started while an ambient [`TraceContext`] is set (see
//!   [`with_trace`]) joins that trace with the ambient span as its
//!   parent. A span started with no ambient context roots a fresh
//!   trace.
//! - [`span`]/[`span_args`] install their own context as the ambient
//!   one for their RAII scope, so nested spans on the same thread
//!   parent naturally. [`span_at`] does *not* touch the ambient
//!   context — use it when several sibling guards are held at once
//!   (e.g. one RPC span per shard during a scatter) and drop order is
//!   not LIFO.
//! - Ids are allocated from a process-seeded counter
//!   (`pid << 32 | seq`), so routers and workers stitching into the
//!   same trace never collide. Id 0 means "absent".

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Arguments a span can carry (kept fixed-size so records stay `Copy`).
pub const MAX_SPAN_ARGS: usize = 2;

/// Per-thread buffer capacity reserved up front.
const RESERVE: usize = 256;

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The trace a span belongs to and the span acting as parent for new
/// work: the propagation unit carried across threads and (via the
/// shard wire header) across processes. Zero fields mean "absent".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Distributed trace id (0 = no trace).
    pub trace_id: u64,
    /// Span id new child spans should record as their parent (0 = root).
    pub span_id: u64,
}

impl TraceContext {
    /// The absent context: spans started under it root fresh traces.
    pub const NONE: TraceContext = TraceContext { trace_id: 0, span_id: 0 };

    /// True when this context carries no trace at all.
    pub fn is_none(&self) -> bool {
        self.trace_id == 0
    }
}

/// One completed span, as drained by [`take_spans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Event name (e.g. `"run_query"`).
    pub name: &'static str,
    /// Category / layer (e.g. `"engine"`, `"ingest"`, `"serve"`).
    pub cat: &'static str,
    /// Start, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Small sequential id of the recording thread.
    pub tid: u32,
    /// Distributed trace this span belongs to (0 = untraced).
    pub trace_id: u64,
    /// This span's own id (0 = untraced).
    pub span_id: u64,
    /// Parent span id (0 = trace root).
    pub parent_id: u64,
    /// Up to [`MAX_SPAN_ARGS`] named integer arguments.
    pub args: [(&'static str, u64); MAX_SPAN_ARGS],
    /// How many entries of `args` are live.
    pub n_args: u8,
}

struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    epoch_unix_ns: u64,
    sinks: Mutex<Vec<Arc<Mutex<Vec<SpanRecord>>>>>,
    next_tid: AtomicU32,
    next_id: AtomicU64,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        epoch_unix_ns: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0),
        sinks: Mutex::new(Vec::new()),
        next_tid: AtomicU32::new(0),
        // Seed ids with the OS pid so routers and workers allocating
        // into the same distributed trace cannot collide.
        next_id: AtomicU64::new(((std::process::id() as u64) << 32) | 1),
    })
}

/// Wall-clock nanoseconds (unix epoch) of the instant that
/// [`SpanRecord::start_ns`] is measured from. `start_ns +
/// epoch_unix_ns` is an absolute timestamp comparable across
/// processes, which is how worker spans are rebased onto the router's
/// timeline when stitching a distributed trace.
pub fn epoch_unix_ns() -> u64 {
    tracer().epoch_unix_ns
}

struct ThreadSink {
    tid: u32,
    buf: Arc<Mutex<Vec<SpanRecord>>>,
}

thread_local! {
    static LOCAL: RefCell<Option<ThreadSink>> = const { RefCell::new(None) };
    static CONTEXT: Cell<TraceContext> = const { Cell::new(TraceContext::NONE) };
}

fn record(mut rec: SpanRecord) {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let sink = slot.get_or_insert_with(|| {
            let t = tracer();
            let buf = Arc::new(Mutex::new(Vec::with_capacity(RESERVE)));
            lock_recover(&t.sinks).push(Arc::clone(&buf));
            ThreadSink { tid: t.next_tid.fetch_add(1, Ordering::Relaxed), buf }
        });
        rec.tid = sink.tid;
        lock_recover(&sink.buf).push(rec);
    });
}

/// Turn span recording on or off process-wide. Already-buffered spans
/// survive a disable and remain drainable.
pub fn set_tracing(on: bool) {
    tracer().enabled.store(on, Ordering::Relaxed);
}

/// Whether spans are currently being recorded.
pub fn tracing_enabled() -> bool {
    tracer().enabled.load(Ordering::Relaxed)
}

/// The ambient [`TraceContext`] of the calling thread: what a new
/// span would join. [`TraceContext::NONE`] when nothing is set.
pub fn current_trace() -> TraceContext {
    CONTEXT.get()
}

/// Install `ctx` as the calling thread's ambient trace context until
/// the returned guard drops (the previous context is restored).
///
/// This is the explicit propagation primitive for the two places the
/// implicit per-thread nesting cannot reach: adopting a context that
/// arrived over the wire (shard workers) and carrying a context into
/// the engine's partition threads (partition spans).
pub fn with_trace(ctx: TraceContext) -> TraceScope {
    TraceScope { prev: CONTEXT.replace(ctx) }
}

/// RAII guard of [`with_trace`]: restores the previous ambient
/// context on drop. Must drop on the thread that created it.
pub struct TraceScope {
    prev: TraceContext,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CONTEXT.set(self.prev);
    }
}

/// Drain every thread's buffered spans, sorted by start time. Live
/// threads' buffers keep their reserved capacity, so a drain does not
/// reintroduce allocation into their recording path; buffers whose
/// thread has exited (only the sink list still holds them) are pruned
/// here so short-lived pool threads cannot accumulate dead buffers.
pub fn take_spans() -> Vec<SpanRecord> {
    let t = tracer();
    let mut out = Vec::new();
    lock_recover(&t.sinks).retain(|sink| {
        out.extend(lock_recover(sink).drain(..));
        Arc::strong_count(sink) > 1
    });
    out.sort_by_key(|r| (r.start_ns, r.tid, r.name));
    out
}

fn fresh_ids(parent: TraceContext) -> (u64, u64) {
    let t = tracer();
    let span_id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let trace_id = if parent.trace_id != 0 {
        parent.trace_id
    } else {
        t.next_id.fetch_add(1, Ordering::Relaxed)
    };
    (trace_id, span_id)
}

/// Start a span; the interval closes (and is recorded) when the
/// returned guard drops. Inert when tracing is disabled.
///
/// The span joins the thread's ambient [`TraceContext`] (rooting a
/// fresh trace if there is none) and installs itself as the ambient
/// context until the guard drops, so nested spans parent naturally.
/// Guards must therefore drop in LIFO order on their creating thread —
/// the natural shape of RAII scopes. For sibling guards held
/// simultaneously, use [`span_at`].
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard { active: None };
    }
    let parent = current_trace();
    let (trace_id, span_id) = fresh_ids(parent);
    let prev = CONTEXT.replace(TraceContext { trace_id, span_id });
    SpanGuard {
        active: Some(ActiveSpan {
            name,
            cat,
            start: Instant::now(),
            trace_id,
            span_id,
            parent_id: parent.span_id,
            restore: Some(prev),
            args: [("", 0); MAX_SPAN_ARGS],
            n_args: 0,
        }),
    }
}

/// [`span`] with one argument attached, e.g.
/// `span_args("engine", "partition", "rows", n)`.
pub fn span_args(cat: &'static str, name: &'static str, key: &'static str, val: u64) -> SpanGuard {
    span(cat, name).arg(key, val)
}

/// Start a span parented at an explicit [`TraceContext`] without
/// touching the thread's ambient context. Use when several sibling
/// guards live at once and drop out of creation order (the router
/// holds one RPC span per shard across a pipelined scatter); the
/// ambient-stacking of [`span`] would mis-restore there.
pub fn span_at(cat: &'static str, name: &'static str, parent: TraceContext) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard { active: None };
    }
    let (trace_id, span_id) = fresh_ids(parent);
    SpanGuard {
        active: Some(ActiveSpan {
            name,
            cat,
            start: Instant::now(),
            trace_id,
            span_id,
            parent_id: parent.span_id,
            restore: None,
            args: [("", 0); MAX_SPAN_ARGS],
            n_args: 0,
        }),
    }
}

struct ActiveSpan {
    name: &'static str,
    cat: &'static str,
    start: Instant,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    /// Ambient context to restore on drop (`None` for [`span_at`]).
    restore: Option<TraceContext>,
    args: [(&'static str, u64); MAX_SPAN_ARGS],
    n_args: u8,
}

/// RAII guard closing a [`span`]; see [`SpanGuard::arg`] for chaining.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Attach a named integer argument (up to [`MAX_SPAN_ARGS`];
    /// extras are dropped). Chains: `span(..).arg("rows", n)`.
    pub fn arg(mut self, key: &'static str, val: u64) -> Self {
        if let Some(a) = self.active.as_mut() {
            if let Some(slot) = a.args.get_mut(a.n_args as usize) {
                *slot = (key, val);
                a.n_args += 1;
            }
        }
        self
    }

    /// This span's identity as a [`TraceContext`] — what to stamp on
    /// outgoing work (wire headers, partition threads) so remote spans
    /// parent under this one. [`TraceContext::NONE`] when inert.
    pub fn trace_context(&self) -> TraceContext {
        self.active.as_ref().map_or(TraceContext::NONE, |a| TraceContext {
            trace_id: a.trace_id,
            span_id: a.span_id,
        })
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        if let Some(prev) = a.restore {
            CONTEXT.set(prev);
        }
        let t = tracer();
        if !t.enabled.load(Ordering::Relaxed) {
            return; // tracing turned off mid-span: drop silently
        }
        let start_ns = a.start.saturating_duration_since(t.epoch).as_nanos() as u64;
        let dur_ns = a.start.elapsed().as_nanos() as u64;
        record(SpanRecord {
            name: a.name,
            cat: a.cat,
            start_ns,
            dur_ns,
            tid: 0, // assigned in record() from the thread sink
            trace_id: a.trace_id,
            span_id: a.span_id,
            parent_id: a.parent_id,
            args: a.args,
            n_args: a.n_args,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tracer is process-global; tests that toggle it serialize
    // here so parallel test threads cannot interleave enable/drain.
    fn guard() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _g = guard();
        set_tracing(false);
        let _ = take_spans();
        {
            let _s = span("test", "ignored").arg("k", 1);
        }
        assert!(take_spans().is_empty());
    }

    #[test]
    fn enabled_span_round_trips_name_cat_and_args() {
        let _g = guard();
        set_tracing(true);
        let _ = take_spans();
        {
            let _s = span_args("engine", "kernel", "rows", 7).arg("part", 3).arg("extra", 9);
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        set_tracing(false);
        let spans = take_spans();
        assert_eq!(spans.len(), 1, "{spans:?}");
        let s = spans[0];
        assert_eq!((s.cat, s.name), ("engine", "kernel"));
        // Third arg was dropped: records are fixed-size.
        assert_eq!(s.n_args, 2);
        assert_eq!(s.args[0], ("rows", 7));
        assert_eq!(s.args[1], ("part", 3));
        assert!(s.dur_ns >= 50_000, "slept 50us, recorded {}ns", s.dur_ns);
    }

    #[test]
    fn spans_from_other_threads_are_drained_and_sorted() {
        let _g = guard();
        set_tracing(true);
        let _ = take_spans();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let _s = span("test", "worker").arg("i", i);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        {
            let _s = span("test", "local");
        }
        set_tracing(false);
        let spans = take_spans();
        assert_eq!(spans.len(), 5, "{spans:?}");
        assert!(spans.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        assert!(spans.iter().filter(|s| s.name == "worker").count() == 4);
    }

    #[test]
    fn nested_spans_share_a_trace_and_parent_naturally() {
        let _g = guard();
        set_tracing(true);
        let _ = take_spans();
        {
            let root = span("test", "root");
            let root_ctx = root.trace_context();
            assert!(root_ctx.trace_id != 0 && root_ctx.span_id != 0);
            {
                let child = span("test", "child");
                let cc = child.trace_context();
                assert_eq!(cc.trace_id, root_ctx.trace_id);
                assert_ne!(cc.span_id, root_ctx.span_id);
            }
        }
        set_tracing(false);
        let spans = take_spans();
        assert_eq!(spans.len(), 2, "{spans:?}");
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(root.parent_id, 0, "root spans have no parent");
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_id, root.span_id);
        // The ambient context is fully restored after the scope.
        assert_eq!(current_trace(), TraceContext::NONE);
    }

    #[test]
    fn with_trace_adopts_a_remote_context_and_restores_on_drop() {
        let _g = guard();
        set_tracing(true);
        let _ = take_spans();
        let remote = TraceContext { trace_id: 0xABCD, span_id: 77 };
        {
            let _scope = with_trace(remote);
            assert_eq!(current_trace(), remote);
            let _s = span("test", "adopted");
        }
        assert_eq!(current_trace(), TraceContext::NONE);
        set_tracing(false);
        let spans = take_spans();
        assert_eq!(spans.len(), 1, "{spans:?}");
        assert_eq!(spans[0].trace_id, 0xABCD);
        assert_eq!(spans[0].parent_id, 77);
    }

    #[test]
    fn span_at_parents_explicitly_without_touching_ambient_context() {
        let _g = guard();
        set_tracing(true);
        let _ = take_spans();
        let parent = TraceContext { trace_id: 0x1234, span_id: 9 };
        {
            // Sibling guards held at once, dropped out of order — the
            // scatter shape span_at exists for.
            let a = span_at("test", "rpc_a", parent);
            let b = span_at("test", "rpc_b", parent);
            assert_eq!(current_trace(), TraceContext::NONE, "span_at must not install context");
            drop(a);
            drop(b);
        }
        set_tracing(false);
        let spans = take_spans();
        assert_eq!(spans.len(), 2, "{spans:?}");
        for s in &spans {
            assert_eq!(s.trace_id, 0x1234);
            assert_eq!(s.parent_id, 9);
        }
        assert_ne!(spans[0].span_id, spans[1].span_id);
    }

    #[test]
    fn span_ids_are_process_seeded_and_absolute_epoch_is_stable() {
        let _g = guard();
        set_tracing(true);
        let s = span("test", "seeded");
        let ctx = s.trace_context();
        assert_eq!(
            ctx.span_id >> 32,
            std::process::id() as u64,
            "span ids embed the pid in the high bits"
        );
        drop(s);
        set_tracing(false);
        let _ = take_spans();
        assert_eq!(epoch_unix_ns(), epoch_unix_ns(), "epoch is captured once");
    }
}
