//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The product's own `gdelt_obs` tracing stays off in every run; these
//! spans come from `gdbench` only, live in memory, and are written as one
//! Chrome trace when the traced replay ends. Spans inside the program are
//! a later issue (ROADMAP "EXPLAIN/profile").

use crate::spec::{LAYERS, OPS};
use gdelt_obs::TraceEvent;
use std::time::Instant;

/// One recorded interval.
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one timed op share an identifier.
    pub op_id: u64,
}

/// A span opened by [`Tracer::begin`]; hand it back to [`Tracer::end`].
pub struct Open(Option<usize>);

pub struct Tracer {
    /// Off in every end-to-end run and on alternate rounds of the traced
    /// replay; when off, `begin`/`end` read no clock and store nothing.
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    /// A tracer that records nothing until `enabled` is set.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. A span with no parent
    /// starts a new op.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let parent = self.stack.last().copied();
        if parent.is_none() {
            self.next_op += 1;
        }
        let at = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id: self.next_op,
        });
        self.stack.push(at);
        Open(Some(at))
    }

    pub fn end(&mut self, open: Open) {
        if let Open(Some(at)) = open {
            self.spans[at].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(at), "spans close innermost first");
        }
    }

    /// Time `f` as one span.
    pub fn call<T>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, layer);
        let out = f();
        self.end(open);
        out
    }

    /// `share.<op>.<layer>`: each layer's self time (span minus the part
    /// its children cover) as a share of the op's root spans, in the
    /// order of [`OPS`] × [`LAYERS`]. Root spans are named after their op.
    pub fn shares(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut root_of: Vec<usize> = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            // Parents precede their children, so the parent's root is known.
            root_of.push(s.parent.map_or(i, |p| root_of[p]));
        }
        let mut out = Vec::with_capacity(OPS.len() * LAYERS.len());
        for op in OPS {
            let mut self_ns = [0u64; LAYERS.len()];
            let mut total = 0u64;
            for (i, s) in self.spans.iter().enumerate() {
                if self.spans[root_of[i]].name != op {
                    continue;
                }
                let dur = s.end_ns - s.start_ns;
                if s.parent.is_none() {
                    total += dur;
                }
                if let Some(l) = LAYERS.iter().position(|l| *l == s.layer) {
                    self_ns[l] += dur.saturating_sub(child_ns[i]);
                }
            }
            out.extend(
                self_ns.iter().map(|&ns| if total == 0 { 0.0 } else { ns as f64 / total as f64 }),
            );
        }
        out
    }

    /// The spans as a Chrome trace document (one lane per layer).
    pub fn chrome_json(&self) -> String {
        let events: Vec<TraceEvent> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| TraceEvent {
                name: s.name.to_string(),
                cat: s.layer.to_string(),
                ts_ns: s.start_ns,
                dur_ns: s.end_ns - s.start_ns,
                pid: std::process::id(),
                tid: 0,
                trace_id: s.op_id,
                span_id: i as u64 + 1,
                parent_id: s.parent.map_or(0, |p| p as u64 + 1),
                args: Vec::new(),
            })
            .collect();
        gdelt_obs::chrome_trace_json_events(&events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_shares_sum_to_one() {
        let mut tr = Tracer::off();
        tr.enabled = true;
        let root = tr.begin("report", "harness");
        tr.call("run_query", "engine", || std::thread::sleep(std::time::Duration::from_millis(2)));
        tr.end(root);
        let shares = tr.shares();
        let report = &shares[..LAYERS.len()];
        assert!((report.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{report:?}");
        let engine = LAYERS.iter().position(|l| *l == "engine").unwrap();
        assert!(report[engine] > 0.5, "{report:?}");
        assert!(shares[LAYERS.len()..].iter().all(|&s| s == 0.0));
        assert_eq!(gdelt_obs::validate_chrome_trace(&tr.chrome_json()), Ok(2));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let open = tr.begin("report", "harness");
        tr.end(open);
        assert_eq!(gdelt_obs::validate_chrome_trace(&tr.chrome_json()), Ok(0));
    }
}
