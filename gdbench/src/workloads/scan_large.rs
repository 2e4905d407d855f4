//! `scan-large`: the engine itself is the front door.

use super::{build_from_records, engine_bundle, served_of};
use crate::corpus::{Corpus, Slice};
use crate::door::{Checked, Door, Schedule, SetupClock};
use crate::ops::{broken_invariants, mismatches, run_bundle, Bundle, DASH, REPORT};
use crate::trace::Tracer;
use gdelt_columnar::incremental::append_batch;
use gdelt_columnar::Dataset;
use gdelt_engine::ExecContext;
use std::collections::VecDeque;

/// The sequential reference is recomputed once per this many rounds: a
/// one-thread pass over both bundles costs about three rounds.
const CROSS_CHECK_EVERY: usize = 10;

pub struct ScanLarge {
    ctx: ExecContext,
    one_thread: ExecContext,
    data: Dataset,
    slices: VecDeque<Slice>,
    retired: Vec<Dataset>,
}

impl ScanLarge {
    pub fn set_up(corpus: &mut Corpus, threads: usize, clock: &mut SetupClock) -> Self {
        let data = build_from_records(corpus, clock);
        let ctx = clock.time(|| ExecContext::builder().threads(threads).build());
        ScanLarge {
            ctx,
            one_thread: ExecContext::builder().threads(1).build(),
            data,
            slices: std::mem::take(&mut corpus.slices),
            retired: Vec::new(),
        }
    }
}

impl Door for ScanLarge {
    fn schedule(&self) -> Schedule {
        Schedule { reads_per_round: 1, write_every: 2, write_first: false }
    }

    fn report(&mut self, tr: &mut Tracer) -> Result<Bundle, String> {
        let open = tr.begin("report", "harness");
        let out = engine_bundle(tr, &self.ctx, &self.data, &REPORT);
        tr.end(open);
        Ok(out)
    }

    fn dash(&mut self, tr: &mut Tracer) -> Result<Bundle, String> {
        let open = tr.begin("dash", "harness");
        let out = engine_bundle(tr, &self.ctx, &self.data, &DASH);
        tr.end(open);
        Ok(out)
    }

    /// The O(N) copy-on-write append of the next slice; the result
    /// replaces the dataset the scans read.
    fn write(&mut self, tr: &mut Tracer) -> Result<bool, String> {
        let Some((events, mentions)) = self.slices.pop_front() else { return Ok(false) };
        let open = tr.begin("write", "harness");
        let (next, _, _) =
            tr.call("append_batch", "columnar", || append_batch(&self.data, events, mentions));
        let old = std::mem::replace(&mut self.data, next);
        tr.end(open);
        self.retired.push(old);
        Ok(true)
    }

    fn verify(&mut self, round: usize, reports: &[Bundle], dashes: &[Bundle]) -> Checked {
        let mut c = Checked::default();
        for (queries, bundles) in [(&REPORT[..], reports), (&DASH[..], dashes)] {
            for b in bundles {
                let mut wrong = broken_invariants(queries, b, &self.data);
                if round.is_multiple_of(CROSS_CHECK_EVERY) {
                    let want = run_bundle(&self.one_thread, &self.data, queries);
                    wrong = wrong.max(mismatches(b, &want));
                }
                c.wrong += wrong;
            }
        }
        c
    }

    fn end_round(&mut self) {
        self.retired.clear();
    }

    fn served(&self) -> (usize, usize, usize) {
        served_of(&self.data)
    }
}
