//! `ingest-reopen`: the store file is the front door. A write is a full
//! convert of the raw text to a fresh store; a read opens the store and
//! answers from it — time-to-answer from a closed store.

use super::{engine_bundle, served_of};
use crate::corpus::{Corpus, Tsv};
use crate::door::{Checked, Door, Schedule, SetupClock};
use crate::ops::{check_against, run_bundle, Bundle, DASH, REPORT};
use crate::trace::Tracer;
use gdelt_columnar::binfmt::{load, save_with_partitions, DEFAULT_STORE_PARTITIONS};
use gdelt_columnar::{Dataset, DatasetBuilder};
use gdelt_engine::{ExecContext, Query};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct IngestReopen {
    ctx: ExecContext,
    tsv: Tsv,
    dir: PathBuf,
    store: PathBuf,
    converts: u64,
    /// Answers of the in-memory build of the same records.
    want_report: Bundle,
    want_dash: Bundle,
    served: (usize, usize, usize),
    retired: Vec<Dataset>,
    unlinked: Vec<PathBuf>,
}

/// `gdelt-cli convert`: raw text through the builder into a store at
/// `path` (no fsync, as the product saves today). Returns the build.
fn convert(tr: &mut Tracer, tsv: &Tsv, path: &Path) -> Result<Dataset, String> {
    let mut b = DatasetBuilder::new();
    tr.call("ingest_masterlist", "csv", || b.ingest_masterlist(&tsv.masterlist));
    tr.call("ingest_events_text", "csv", || b.ingest_events_text(&tsv.events));
    tr.call("ingest_mentions_text", "csv", || b.ingest_mentions_text(&tsv.mentions));
    let (d, _) = tr.call("build", "columnar", || b.build());
    tr.call("save_with_partitions", "columnar", || {
        save_with_partitions(path, &d, DEFAULT_STORE_PARTITIONS)
    })
    .map_err(|e| format!("save {}: {e}", path.display()))?;
    Ok(d)
}

impl IngestReopen {
    pub fn set_up(
        corpus: &mut Corpus,
        threads: usize,
        dir: &Path,
        clock: &mut SetupClock,
    ) -> Result<Self, String> {
        let t = Instant::now();
        let tsv = corpus.tsv();
        corpus.generate_s += t.elapsed().as_secs_f64();
        let store = dir.join("store-0.gdhpc");
        let built = clock.time(|| convert(&mut Tracer::off(), &tsv, &store))?;
        let ctx = clock.time(|| ExecContext::builder().threads(threads).build());
        Ok(IngestReopen {
            want_report: run_bundle(&ctx, &built, &REPORT),
            want_dash: run_bundle(&ctx, &built, &DASH),
            served: served_of(&built),
            ctx,
            tsv,
            dir: dir.to_path_buf(),
            store,
            converts: 0,
            retired: Vec::new(),
            unlinked: Vec::new(),
        })
    }

    /// `gdelt-cli query --data`: open the store, answer, as one op.
    fn reopen(
        &mut self,
        tr: &mut Tracer,
        op: &'static str,
        queries: &[Query],
    ) -> Result<Bundle, String> {
        let open = tr.begin(op, "harness");
        let loaded = tr.call("load", "columnar", || load(&self.store));
        let out = loaded.map(|d| {
            let answers = engine_bundle(tr, &self.ctx, &d, queries);
            self.retired.push(d);
            answers
        });
        tr.end(open);
        out.map_err(|e| format!("load {}: {e}", self.store.display()))
    }
}

impl Door for IngestReopen {
    fn schedule(&self) -> Schedule {
        Schedule { reads_per_round: 2, write_every: 1, write_first: true }
    }

    fn report(&mut self, tr: &mut Tracer) -> Result<Bundle, String> {
        self.reopen(tr, "report", &REPORT)
    }

    fn dash(&mut self, tr: &mut Tracer) -> Result<Bundle, String> {
        self.reopen(tr, "dash", &DASH)
    }

    fn write(&mut self, tr: &mut Tracer) -> Result<bool, String> {
        self.converts += 1;
        let fresh = self.dir.join(format!("store-{}.gdhpc", self.converts));
        let open = tr.begin("write", "harness");
        let built = convert(tr, &self.tsv, &fresh);
        tr.end(open);
        self.retired.push(built?);
        self.unlinked.push(std::mem::replace(&mut self.store, fresh));
        Ok(true)
    }

    fn verify(&mut self, _round: usize, reports: &[Bundle], dashes: &[Bundle]) -> Checked {
        check_against(&self.want_report, &self.want_dash, reports, dashes)
    }

    fn end_round(&mut self) {
        self.retired.clear();
        for old in self.unlinked.drain(..) {
            let _ = std::fs::remove_file(old);
        }
    }

    fn served(&self) -> (usize, usize, usize) {
        self.served
    }
}
