//! Quickstart: generate a small corpus, run the preprocessing pipeline,
//! and ask the three questions the paper opens with — how big is the
//! data, who publishes the most, and how fast is the news.
//!
//! Run with: `cargo run --release --example quickstart`

use gdelt::analysis::{table1, table3};
use gdelt::engine::TopKKind;
use gdelt::prelude::*;

fn main() {
    // A deterministic synthetic corpus calibrated to the paper's shapes.
    // Scale 0.0005 ≈ 160 k events; raise toward 1.0 for the full corpus
    // if you have the memory of the paper's 2 TB node.
    let cfg = gdelt::synth::paper_calibrated(5e-4, 42);
    println!("generating corpus: {} sources, {} events …", cfg.n_sources, cfg.n_events);
    let (dataset, clean) = gdelt::synth::generate_dataset(&cfg);
    println!("cleaning report:\n{clean}\n");

    let ctx = ExecContext::builder().build();

    // Table I: dataset statistics.
    let stats = table1::compute(&ctx, &dataset);
    println!("{}", table1::render(&stats));

    // The most productive publishers (the paper finds regional UK
    // papers owned by one media group).
    println!("Top publishers:");
    let top = Query::TopK { kind: TopKKind::Publishers, k: 5 };
    let QueryResult::TopPublishers(top) = run_query(&ctx, &dataset, &top) else {
        unreachable!("TopK Publishers query yields a TopPublishers result");
    };
    for (s, n) in top {
        println!("  {:<40} {:>10} articles", dataset.sources.name(s), n);
    }
    println!();

    // The most reported events (Table III).
    println!("{}", table3::render(&table3::compute(&ctx, &dataset, 5)));

    // Publishing speed: how many sources have ever reported within
    // 15 minutes of an event entering the database?
    let QueryResult::Delay(delays) = run_query(&ctx, &dataset, &Query::Delay) else {
        unreachable!("Delay query yields a Delay result");
    };
    let active = delays.iter().filter(|s| s.count > 0).count();
    let instant = delays.iter().filter(|s| s.count > 0 && s.min == 0).count();
    println!("{instant} of {active} active sources have reported within one capture interval");
}
