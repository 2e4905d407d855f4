//! Country coverage analysis (paper §VI-C/D — Tables V, VI, VII and
//! Figure 8): which countries' news spheres overlap, and who reports on
//! whom.
//!
//! Run with: `cargo run --release --example country_coverage`

use gdelt::analysis::{figs_matrix, table5, table67};
use gdelt::engine::coreport::CoReport;
use gdelt::engine::crossreport::CrossReport;
use gdelt::model::country::CountryRegistry;
use gdelt::prelude::*;

fn main() {
    let cfg = gdelt::synth::paper_calibrated(5e-4, 77);
    let (dataset, _) = gdelt::synth::generate_dataset(&cfg);
    let ctx = ExecContext::builder().build();
    let registry = CountryRegistry::new();

    // Table V: country co-reporting (Jaccard). Expect the UK–USA–AUS
    // cluster to dominate.
    let cc = CoReport::countries(&ctx, &dataset, registry.len());
    let t5 = table5::compute(&cc, &registry);
    println!("{}", table5::render(&t5));

    // Tables VI and VII: the asymmetric cross-reporting matrix.
    let cr = CrossReport::build(&ctx, &dataset, registry.len());
    let t67 = table67::compute(&cr, 10);
    println!("{}", table67::render_counts(&t67, &registry));
    println!("{}", table67::render_percentages(&t67, &registry));

    // Fig 8: the 50x50 log-scale heat map — the bright first row is the
    // United States.
    let f8 = figs_matrix::fig8(&cr, 50.min(registry.len()));
    println!(
        "{}",
        figs_matrix::render_heatmap(
            "Figure 8: country cross-reporting, log10(1+articles)",
            &f8.log_counts
        )
    );

    // The paper's headline observation, restated numerically.
    let us = registry.by_name("USA");
    let pct = cr.percentages();
    let shares: Vec<f64> = t67.publishing.iter().map(|&p| pct.get(us.index(), p.index())).collect();
    let min = shares.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = shares.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "US share of each top publishing country's output: {min:.1}%–{max:.1}% \
         (the paper reports 33–47%)"
    );
}
