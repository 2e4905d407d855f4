//! What the runner needs from a workload: its front door.
//!
//! A workload drives one layer stack from outside, through public
//! functions only. The runner owns the clock: it times each call below as
//! one op, with nothing else inside the timer.

use crate::ops::Bundle;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::Instant;

/// When the ops of a round happen. A round is probe, reads and — every
/// `write_every`-th round — a write, so the op mix never depends on how
/// long the run lasts.
pub struct Schedule {
    /// Report bundles, then as many dash bundles, per round.
    pub reads_per_round: usize,
    pub write_every: usize,
    /// Whether the write comes before the round's reads (the reads then
    /// see the new data) or after them.
    pub write_first: bool,
}

/// The outcome of checking one round's answers outside the timers.
#[derive(Default, Clone, Copy)]
pub struct Checked {
    /// Front-door operations the check itself issued (cache-hit replays).
    pub extra_ops: u64,
    /// Answers that were refused, failed or differ from the reference.
    pub wrong: u64,
}

pub trait Door {
    fn schedule(&self) -> Schedule;

    /// One report bundle through the front door. `Err` is an op the
    /// system refused or failed.
    fn report(&mut self, tr: &mut Tracer) -> Result<Bundle, String>;

    /// One dash bundle through the front door.
    fn dash(&mut self, tr: &mut Tracer) -> Result<Bundle, String>;

    /// Make new data visible at the front door. `Ok(false)` when the
    /// inputs for another write are used up, which ends the run.
    fn write(&mut self, tr: &mut Tracer) -> Result<bool, String>;

    /// Untimed: check this round's answers against the reference.
    fn verify(&mut self, round: usize, reports: &[Bundle], dashes: &[Bundle]) -> Checked;

    /// Untimed: release what the round's ops left behind (replaced
    /// datasets, unlinked files), so that no timed op pays for it.
    fn end_round(&mut self) {}

    /// (events, mentions, `memsize::measure(..).total()`) of the dataset
    /// being served.
    fn served(&self) -> (usize, usize, usize);

    /// Stop threads and close listeners; called once, before the result
    /// line is printed.
    fn shutdown(self: Box<Self>) {}
}

/// Accumulates wall-clock spent inside product calls during set-up —
/// `setup_s`. The generator is not a product call.
#[derive(Default)]
pub struct SetupClock {
    pub seconds: f64,
}

impl SetupClock {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.seconds += t.elapsed().as_secs_f64();
        out
    }
}

/// The directory a run keeps its stores, shard directories and trace in:
/// `${CARGO_TARGET_DIR:-gdbench/target}/gdbench-work/<workload>-<pid>/`,
/// inside the checkout and removed before exit.
pub fn work_dir(workload: &str) -> std::io::Result<PathBuf> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("gdbench/target"), PathBuf::from);
    let dir = target.join("gdbench-work").join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
