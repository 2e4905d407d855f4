//! Operational tour: the system beyond the paper's batch analyses —
//! binary persistence, 15-minute incremental updates, windowed ad-hoc
//! queries, and wildfire detection.
//!
//! Run with: `cargo run --release --example operations`

use gdelt::columnar::{binfmt, incremental, memsize};
use gdelt::engine::aggregate::articles_by_source_in;
use gdelt::engine::topk::ranked_publishers;
use gdelt::engine::wildfire;
use gdelt::prelude::*;

fn main() {
    // Day one: convert the backlog.
    let cfg = gdelt::synth::paper_calibrated(2e-4, 7);
    let (mut dataset, _) = gdelt::synth::generate_dataset(&cfg);
    let ctx = ExecContext::builder().build();
    println!("{}", memsize::measure(&dataset).render());

    // Persist the indexed binary format and load it back.
    let path = std::env::temp_dir().join("operations_demo.gdhpc");
    binfmt::save(&path, &dataset).expect("save");
    let loaded = binfmt::load(&path).expect("load");
    println!(
        "binary round trip: {} events / {} mentions / {} bytes on disk\n",
        loaded.events.len(),
        loaded.mentions.len(),
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0)
    );
    std::fs::remove_file(&path).ok();

    // A fresh 15-minute batch arrives: apply it incrementally.
    let batch_cfg = {
        let mut c = gdelt::synth::scenario::tiny(99);
        c.n_events = 150;
        c
    };
    let batch = gdelt::synth::generate(&batch_cfg);
    let before = dataset.mentions.len();
    let (updated, stats, _) = incremental::append_batch(&dataset, batch.events, batch.mentions);
    dataset = updated;
    println!(
        "applied batch: +{} events, +{} mentions ({} → {}), {} new sources\n",
        stats.new_events,
        stats.new_mentions,
        before,
        dataset.mentions.len(),
        stats.new_sources
    );

    // Ad-hoc investigation: most productive publishers of one year.
    let (from, to) = (Quarter { year: 2016, q: 1 }, Quarter { year: 2016, q: 4 });
    let counts = articles_by_source_in(&dataset, from, to);
    println!("2016 window holds {} articles; top publishers:", counts.iter().sum::<u64>());
    for (s, n) in ranked_publishers(&counts, 5) {
        println!("  {:<44} {:>8}", dataset.sources.name(s), n);
    }
    println!();

    // Wildfire watch: fastest events to reach five distinct sources.
    println!("fastest spreads to 5 sources:");
    for s in wildfire::top_wildfires(&ctx, &dataset, 5, 5) {
        println!(
            "  {:>4} intervals to 5 sources ({} total): {}",
            s.time_to_k.expect("filtered"),
            s.breadth,
            dataset.events.url(s.event_row as usize)
        );
    }
}
