//! The measurement loop: rounds of probe, reads and scheduled writes
//! through a workload's front door, one closed-loop client (this thread:
//! an analyst or a dashboard waits for its reply before asking again).

use crate::door::{Door, Schedule};
use crate::host::{HostProbe, ProbeTimes};
use crate::ops::{Bundle, DASH, REPORT};
use crate::stats::median;
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// Warm-up rounds, discarded; with every schedule they include at least
/// two writes.
pub const WARM_UP_ROUNDS: usize = 3;

/// Steadiness floors a run is expected to meet (reported, not enforced:
/// a slower host must still get its numbers).
pub const MIN_READ_SAMPLES: usize = 50;
pub const MIN_WRITE_SAMPLES: usize = 25;
pub const MAX_OP_MS: f64 = 400.0;
pub const MIN_GATED_MEDIAN_MS: f64 = 5.0;

/// One timed op: wall-clock seconds and the round it ran in.
#[derive(Clone, Copy)]
pub struct OpSample {
    pub round: usize,
    pub seconds: f64,
}

/// Everything the rounds produced.
#[derive(Default)]
pub struct Samples {
    /// One probe per round, in round order.
    pub probes: Vec<ProbeTimes>,
    /// Whether the round's ops recorded spans.
    pub traced: Vec<bool>,
    pub report: Vec<OpSample>,
    pub dash: Vec<OpSample>,
    pub write: Vec<OpSample>,
    /// Front-door operations issued: queries and writes, timed or not.
    pub attempted: u64,
    /// Operations refused, failed or answered wrongly.
    pub failed: u64,
    pub first_error: Option<String>,
    /// Seconds spent in timed ops, for `setup_s` during warm-up.
    pub op_seconds: f64,
    /// Seconds spent checking answers.
    pub check_seconds: f64,
    /// The writes ran out of held-out slices before the time was up.
    pub inputs_exhausted: bool,
}

impl Samples {
    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.first_error.get_or_insert(why);
    }

    /// Raw milliseconds of an op's samples.
    pub fn raw_ms(samples: &[OpSample]) -> Vec<f64> {
        samples.iter().map(|s| s.seconds * 1e3).collect()
    }

    /// The gated form: each op's wall-clock over the probe time of its
    /// own round; the metric is the median of these.
    pub fn costs(&self, samples: &[OpSample]) -> Vec<f64> {
        samples.iter().map(|s| s.seconds / self.probes[s.round].total_s()).collect()
    }

    pub fn cost_median(&self, samples: &[OpSample]) -> f64 {
        median(&self.costs(samples))
    }

    /// Probe totals in milliseconds, in round order.
    pub fn probe_ms(&self) -> Vec<f64> {
        self.probes.iter().map(|p| p.total_s() * 1e3).collect()
    }
}

/// Run `f`; returns its result and the wall-clock seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

pub enum Limit {
    /// Warm-up: a fixed number of rounds.
    Rounds(usize),
    /// Measurement: rounds repeat until this much time has passed.
    Time(Duration),
}

/// Run rounds up to `limit`, numbering them from `first_round` so the
/// write schedule runs on across warm-up and measurement. With
/// `trace_alternate`, every other write period records spans. A refused or
/// failed op ends the run.
pub fn run_rounds(
    door: &mut dyn Door,
    probe: &mut HostProbe,
    tr: &mut Tracer,
    limit: Limit,
    trace_alternate: bool,
    first_round: usize,
) -> Samples {
    let Schedule { reads_per_round, write_every, write_first } = door.schedule();
    let mut s = Samples::default();
    let started = Instant::now();
    'rounds: for i in 0.. {
        match limit {
            Limit::Rounds(n) if i >= n => break,
            // A traced replay needs a period with spans and one without.
            Limit::Time(d)
                if started.elapsed() >= d && !(trace_alternate && i < 2 * write_every) =>
            {
                break
            }
            _ => {}
        }
        let round = first_round + i;
        let write_due = round.is_multiple_of(write_every);
        // Alternate in blocks of one write period, so traced and untraced
        // rounds both include writes.
        let traced = trace_alternate && (i / write_every) % 2 == 0;
        s.traced.push(traced);
        s.probes.push(probe.run());

        tr.enabled = traced;
        if write_due && write_first && !write(door, tr, i, &mut s) {
            break;
        }
        let mut reports: Vec<Bundle> = Vec::new();
        let mut dashes: Vec<Bundle> = Vec::new();
        for is_report in [true, false] {
            for _ in 0..reads_per_round {
                let (out, seconds) =
                    timed(|| if is_report { door.report(tr) } else { door.dash(tr) });
                let queries = if is_report { REPORT.len() } else { DASH.len() } as u64;
                s.attempted += queries;
                match out {
                    Ok(answers) => {
                        s.op_seconds += seconds;
                        let (samples, kept) = if is_report {
                            (&mut s.report, &mut reports)
                        } else {
                            (&mut s.dash, &mut dashes)
                        };
                        samples.push(OpSample { round: i, seconds });
                        kept.push(answers);
                    }
                    Err(why) => {
                        s.fail(queries, why);
                        break 'rounds;
                    }
                }
            }
        }

        tr.enabled = false;
        let (checked, seconds) = timed(|| door.verify(round, &reports, &dashes));
        s.check_seconds += seconds;
        s.attempted += checked.extra_ops;
        if checked.wrong > 0 {
            s.fail(checked.wrong, format!("round {round}: {} wrong answers", checked.wrong));
        }
        drop((reports, dashes));

        tr.enabled = traced;
        if write_due && !write_first && !write(door, tr, i, &mut s) {
            break;
        }
        tr.enabled = false;
        door.end_round();
    }
    tr.enabled = false;
    door.end_round();
    s
}

/// One scheduled write; `false` ends the run.
fn write(door: &mut dyn Door, tr: &mut Tracer, round: usize, s: &mut Samples) -> bool {
    let (out, seconds) = timed(|| door.write(tr));
    match out {
        Ok(true) => {
            s.attempted += 1;
            s.op_seconds += seconds;
            s.write.push(OpSample { round, seconds });
            true
        }
        Ok(false) => {
            s.inputs_exhausted = true;
            false
        }
        Err(why) => {
            s.attempted += 1;
            s.fail(1, why);
            false
        }
    }
}
