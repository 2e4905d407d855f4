//! Benchmarks for the system extensions: time-sliced sparse co-reporting
//! assembly (§VI-B), the 15-minute incremental update path, and windowed
//! views.

use criterion::{criterion_group, criterion_main, Criterion};
use gdelt_bench::corpus;
use gdelt_columnar::incremental::append_batch;
use gdelt_columnar::DatasetBuilder;
use gdelt_engine::coreport::CoReport;
use gdelt_engine::sliced::sliced_coreport;
use gdelt_engine::view::MentionView;
use gdelt_engine::ExecContext;
use gdelt_model::time::Quarter;
use std::hint::black_box;

fn bench_extensions(c: &mut Criterion) {
    let (d, _) = corpus();
    let ctx = ExecContext::builder().build();

    let mut g = c.benchmark_group("sliced_vs_dense_coreport");
    g.sample_size(10);
    g.bench_function("dense_global", |b| b.iter(|| black_box(CoReport::build(&ctx, d))));
    g.bench_function("sliced_sparse_assembly", |b| b.iter(|| black_box(sliced_coreport(&ctx, d))));
    g.finish();

    // Incremental append of a small batch vs rebuilding from scratch.
    let batch_cfg = {
        let mut cfg = gdelt_synth::scenario::tiny(777);
        cfg.n_events = 100;
        cfg
    };
    let batch = gdelt_synth::generate(&batch_cfg);
    let mut g = c.benchmark_group("incremental_update");
    g.sample_size(10);
    g.bench_function("append_batch", |b| {
        b.iter(|| {
            let (updated, _, _) = append_batch(d, batch.events.clone(), batch.mentions.clone());
            black_box(updated.mentions.len())
        })
    });
    g.bench_function("full_rebuild_baseline", |b| {
        // What absorbing the batch costs without the merge path, as a
        // floor: the build of the batch plus a dataset clone.
        b.iter(|| {
            let mut builder = DatasetBuilder::new();
            for e in &batch.events {
                builder.add_event(e.clone());
            }
            for m in &batch.mentions {
                builder.add_mention(m.clone());
            }
            let (batch_ds, _) = builder.build();
            black_box((d.clone(), batch_ds.mentions.len()))
        })
    });
    g.finish();

    let mut g = c.benchmark_group("windowed_view");
    g.bench_function("one_year_window_top_publishers", |b| {
        b.iter(|| {
            let v = MentionView::time_window(
                &ctx,
                d,
                Quarter { year: 2016, q: 1 },
                Quarter { year: 2016, q: 4 },
            );
            black_box(v.top_publishers(&ctx, 10))
        })
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
    targets = bench_extensions
}
criterion_main!(benches);
