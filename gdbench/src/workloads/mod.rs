//! The four workloads. Each file is one front door.

mod ingest_reopen;
mod scan_large;
mod serve_live;
pub mod shard_scatter;

pub use ingest_reopen::IngestReopen;
pub use scan_large::ScanLarge;
pub use serve_live::ServeLive;
pub use shard_scatter::ShardScatter;

use crate::corpus::Corpus;
use crate::door::SetupClock;
use crate::ops::Bundle;
use crate::trace::Tracer;
use gdelt_columnar::{Dataset, DatasetBuilder};
use gdelt_engine::{run_query, ExecContext, Query};
use std::sync::Arc;

/// The in-memory build of a corpus's base records, timed as set-up.
fn build_from_records(corpus: &mut Corpus, clock: &mut SetupClock) -> Dataset {
    let events = std::mem::take(&mut corpus.data.events);
    let mentions = std::mem::take(&mut corpus.data.mentions);
    clock.time(|| {
        let mut b = DatasetBuilder::new();
        b.ingest_masterlist(&corpus.data.masterlist);
        events.into_iter().for_each(|e| b.add_event(e));
        mentions.into_iter().for_each(|m| b.add_mention(m));
        b.build().0
    })
}

/// One bundle straight on the engine, with a span per query.
fn engine_bundle(tr: &mut Tracer, ctx: &ExecContext, d: &Dataset, queries: &[Query]) -> Bundle {
    queries
        .iter()
        .map(|q| Arc::new(tr.call("run_query", "engine", || run_query(ctx, d, q))))
        .collect()
}

fn served_of(d: &Dataset) -> (usize, usize, usize) {
    (d.events.len(), d.mentions.len(), gdelt_columnar::memsize::measure(d).total())
}
