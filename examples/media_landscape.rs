//! Media-landscape analysis: co-reporting, follow-reporting and media
//! group discovery (paper §VI-A/B — Table IV, Figure 7, and the MCL
//! follow-up).
//!
//! Run with: `cargo run --release --example media_landscape`

use gdelt::analysis::{clusters, figs_matrix, table4};
use gdelt::cluster::MclParams;
use gdelt::engine::coreport::CoReport;
use gdelt::prelude::*;

fn main() {
    let cfg = gdelt::synth::paper_calibrated(3e-4, 1234);
    let (dataset, _) = gdelt::synth::generate_dataset(&cfg);
    let ctx = ExecContext::builder().build();

    // Table IV: the follow-reporting matrix of the Top-10 publishers.
    let t4 = table4::compute(&ctx, &dataset, 10);
    println!("{}", table4::render(&t4));

    // Fig 7: the 50x50 follow matrix as an ASCII heat map. The bright
    // top-left block is the co-owned regional media group.
    let f7 = figs_matrix::fig7(&ctx, &dataset, 50.min(dataset.sources.len()));
    println!("{}", figs_matrix::render_heatmap("Figure 7: Top-50 follow-reporting matrix", &f7.f));

    // Co-reporting Jaccard between the two most productive publishers.
    if let [a, b, ..] = t4.report.subset[..] {
        let co = CoReport::publishers(&ctx, &dataset, &[a, b]);
        println!(
            "co-reporting c_ij between {} and {}: {:.4}\n",
            dataset.sources.name(a),
            dataset.sources.name(b),
            co.jaccard(0, 1)
        );
    }

    // Markov clustering on the co-reporting matrix reassembles the
    // planted media group (§VI-B's suggested follow-up).
    let pc = clusters::compute(&ctx, &dataset, 30, MclParams::default());
    println!("{}", clusters::render(&dataset, &pc));
}
