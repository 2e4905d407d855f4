//! Ingest-path benchmarks: raw TSV parsing, cleaning (Table II),
//! dataset conversion, and the indexed binary format — the paper's
//! one-time preprocessing cost that buys the fast queries.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gdelt_bench::{corpus, corpus_tsv};
use gdelt_columnar::{binfmt, DatasetBuilder};
use gdelt_csv::events::parse_events;
use gdelt_csv::masterlist::MasterList;
use gdelt_csv::mentions::parse_mentions;
use std::hint::black_box;

fn bench_ingest(c: &mut Criterion) {
    let (events_tsv, mentions_tsv, masterlist) = corpus_tsv();

    let mut g = c.benchmark_group("ingest");
    g.sample_size(10);

    g.throughput(Throughput::Bytes(events_tsv.len() as u64));
    g.bench_function("parse_events_tsv", |b| {
        b.iter(|| black_box(parse_events(events_tsv, |_, _, _| {})).len())
    });

    g.throughput(Throughput::Bytes(mentions_tsv.len() as u64));
    g.bench_function("parse_mentions_tsv", |b| {
        b.iter(|| black_box(parse_mentions(mentions_tsv, |_, _, _| {})).len())
    });

    g.throughput(Throughput::Bytes(masterlist.len() as u64));
    g.bench_function("table2_clean_masterlist", |b| {
        b.iter(|| {
            let ml = MasterList::parse(masterlist);
            let mut cleaner = gdelt_csv::clean::Cleaner::new();
            cleaner.check_masterlist(&ml);
            black_box(cleaner.finish())
        })
    });

    g.bench_function("convert_tsv_to_dataset", |b| {
        b.iter(|| {
            let mut builder = DatasetBuilder::new();
            builder.ingest_masterlist(masterlist);
            builder.ingest_events_text(events_tsv);
            builder.ingest_mentions_text(mentions_tsv);
            black_box(builder.build())
        })
    });

    let (d, _) = corpus();
    let mut serialized = Vec::new();
    binfmt::write_dataset(&mut serialized, d).expect("serialize");
    g.throughput(Throughput::Bytes(serialized.len() as u64));
    g.bench_function("binfmt_write", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(serialized.len());
            binfmt::write_dataset(&mut out, d).expect("serialize");
            black_box(out.len())
        })
    });
    g.bench_function("binfmt_read", |b| {
        b.iter(|| black_box(binfmt::read_dataset(&serialized).expect("read")))
    });

    g.finish();
}

/// Short measurement windows keep the full suite tractable on
/// small machines; raise for publication-grade numbers.
fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_ingest
}
criterion_main!(benches);
