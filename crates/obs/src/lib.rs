//! Hand-rolled observability substrate for the GDELT workspace.
//!
//! Three independent facilities, all zero-dependency (the air-gapped
//! build forbids `tracing`/`prometheus`, and obs sits below every other
//! crate, so it must not pull the stack back in):
//!
//! - **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`]):
//!   lock-free recording, mergeable log-linear histograms with exact
//!   quantiles below [`metrics::LINEAR_MAX`], Prometheus-style text
//!   exposition ([`Registry::render_prometheus`]) plus a committed
//!   validator ([`validate_prometheus`]) that CI round-trips through.
//! - **Spans** ([`span`], [`span_args`], [`SpanGuard`]): structured
//!   intervals recorded into per-thread buffers (allocation-free in
//!   steady state), gated behind one relaxed atomic load when tracing
//!   is disabled, exported as Chrome `trace_event` JSON
//!   ([`chrome_trace_json`]) viewable in `about://tracing` / Perfetto
//!   and checked by [`validate_chrome_trace`].
//! - **Flight recorder** ([`flight`], [`flight_snapshot`]): a fixed-size
//!   ring of recent warn/error events that the serve stack dumps on
//!   worker panic and degraded refusals, and that `gdelt-cli chaos`
//!   writes out as a failure artifact.
//!
//! See DESIGN.md "Observability architecture" for the span model, the
//! overhead budget, and the flight-recorder policy.

pub mod flight;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use flight::{
    flight, flight_error, flight_info, flight_snapshot, flight_take, flight_warn, render_flight,
    FlightEvent, FlightLevel, FLIGHT_CAPACITY,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Metric, Registry};
pub use prom::validate_prometheus;
pub use snapshot::{render_federated, RegistrySnapshot};
pub use span::{
    current_trace, epoch_unix_ns, set_tracing, span, span_args, span_at, take_spans,
    tracing_enabled, with_trace, SpanGuard, SpanRecord, TraceContext, TraceScope, MAX_SPAN_ARGS,
};
pub use trace::{chrome_trace_json, chrome_trace_json_events, validate_chrome_trace, TraceEvent};

use std::sync::OnceLock;

/// The process-wide metrics registry every layer records into and the
/// CLI exporters render from.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}
