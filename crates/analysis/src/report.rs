//! The run-everything driver: computes all tables and figures and
//! renders one combined text report. The CLI's `report` subcommand and
//! the EXPERIMENTS.md regeneration both go through here.

use crate::{
    clusters, dyads, fig12, figs_delay, figs_matrix, figs_volume, table1, table2, table3, table4,
    table5, table67, table8, tone,
};
use gdelt_cluster::MclParams;
use gdelt_columnar::Dataset;
use gdelt_csv::clean::CleanReport;
use gdelt_engine::{run_query, ExecContext, Query, QueryResult};
use gdelt_model::country::CountryRegistry;

/// Which experiments to include.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReportOptions {
    /// Run the Fig 12 thread sweep (slow; off for quick reports).
    pub scaling: bool,
}

/// All rendered sections, in paper order.
#[derive(Debug, Clone)]
pub struct FullReport {
    /// Section title → rendered text, in paper order.
    pub sections: Vec<(String, String)>,
}

impl FullReport {
    /// Concatenate all sections.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (title, body) in &self.sections {
            out.push_str(&format!("==== {title} ====\n{body}\n"));
        }
        out
    }

    /// Look a section up by title prefix.
    pub fn section(&self, prefix: &str) -> Option<&str> {
        self.sections.iter().find(|(t, _)| t.starts_with(prefix)).map(|(_, b)| b.as_str())
    }
}

/// Compute every experiment on a dataset.
pub fn run_full_report(
    ctx: &ExecContext,
    d: &Dataset,
    clean: &CleanReport,
    opts: ReportOptions,
) -> FullReport {
    let registry = CountryRegistry::new();
    let mut sections: Vec<(String, String)> = Vec::new();

    let t1 = table1::compute(ctx, d);
    sections.push(("Table I".into(), table1::render(&t1)));
    sections.push(("Table II".into(), table2::render(clean)));

    let h = figs_volume::fig2(ctx, d);
    sections.push(("Figure 2".into(), figs_volume::render_fig2(&h)));
    sections.push((
        "Figure 3".into(),
        figs_volume::render_series(
            "Figure 3: active sources per quarter",
            &figs_volume::fig3(ctx, d),
        ),
    ));
    sections.push((
        "Figure 4".into(),
        figs_volume::render_series("Figure 4: events per quarter", &figs_volume::fig4(ctx, d)),
    ));
    sections.push((
        "Figure 5".into(),
        figs_volume::render_series("Figure 5: articles per quarter", &figs_volume::fig5(ctx, d)),
    ));
    let f6 = figs_volume::fig6(ctx, d);
    sections.push(("Figure 6".into(), figs_volume::render_fig6(d, &f6)));

    let t3 = table3::compute(ctx, d, 10);
    sections.push(("Table III".into(), table3::render(&t3)));

    let t4 = table4::compute(ctx, d, 10);
    sections.push(("Table IV".into(), table4::render(&t4)));

    let f7 = figs_matrix::fig7(ctx, d, 50.min(d.sources.len()));
    sections.push((
        "Figure 7".into(),
        figs_matrix::render_heatmap("Figure 7: Top-50 follow-reporting matrix", &f7.f),
    ));

    // Tables V–VII go through the unified query API — the same dispatch
    // path the serving layer caches and batches.
    let QueryResult::CoReport(cc) = run_query(ctx, d, &Query::CoReport) else {
        unreachable!("CoReport query yields a CoReport result");
    };
    let t5 = table5::compute(&cc, &registry);
    sections.push(("Table V".into(), table5::render(&t5)));

    let QueryResult::CrossCountry(cr) = run_query(ctx, d, &Query::CrossCountry) else {
        unreachable!("CrossCountry query yields a CrossCountry result");
    };
    let t67 = table67::compute(&cr, 10);
    sections.push(("Table VI".into(), table67::render_counts(&t67, &registry)));
    sections.push(("Table VII".into(), table67::render_percentages(&t67, &registry)));

    let f8 = figs_matrix::fig8(&cr, 50.min(registry.len()));
    sections.push((
        "Figure 8".into(),
        figs_matrix::render_heatmap(
            "Figure 8: 50x50 country cross-reporting (log)",
            &f8.log_counts,
        ),
    ));

    let f9 = figs_delay::fig9(ctx, d);
    sections.push(("Figure 9".into(), figs_delay::render_fig9(&f9)));

    let t8 = table8::compute(ctx, d, &f9.stats, 10);
    sections.push(("Table VIII".into(), table8::render(&t8)));

    let (avg, med) = figs_delay::fig10(ctx, d);
    sections.push(("Figure 10".into(), figs_delay::render_fig10(&avg, &med)));
    sections.push((
        "Figure 11".into(),
        figs_volume::render_series(
            "Figure 11: articles with delay > 24h per quarter",
            &figs_delay::fig11(ctx, d),
        ),
    ));

    if opts.scaling {
        let threads = scaling_thread_counts();
        let f12 = fig12::compute(d, &threads, 2);
        sections.push(("Figure 12".into(), fig12::render(&f12)));
    }

    let pc = clusters::compute(ctx, d, 30.min(d.sources.len()), MclParams::default());
    sections.push(("Clusters".into(), clusters::render(d, &pc)));

    // Extensions: tone / event-type breakdowns over the dormant columns.
    let et = tone::event_tone_by_country(ctx, d, &registry, 10);
    let pt = tone::article_tone_by_publisher(ctx, d, &registry, 10);
    let mix = tone::quad_class_mix(ctx, d);
    sections.push(("Tone".into(), tone::render(&registry, &et, &pt, &mix)));

    // Extension: digital-wildfire candidates (§I motivation, §VI-E
    // follow-up signals).
    sections.push(("Wildfires".into(), render_wildfires(ctx, d)));

    // Extension: CAMEO actor dyads and their conflict shares.
    let top_dyads = dyads::top_dyads(ctx, d, 12);
    sections.push(("Dyads".into(), dyads::render(&registry, &top_dyads)));

    FullReport { sections }
}

fn render_wildfires(ctx: &ExecContext, d: &Dataset) -> String {
    use gdelt_engine::wildfire::{time_to_k_histogram, top_wildfires};
    const K: usize = 5;
    let mut out = format!("Fastest events to reach {K} distinct sources\n");
    for s in top_wildfires(ctx, d, K, 10) {
        out.push_str(&format!(
            "  {:>5} intervals, {:>4} sources total: {}\n",
            s.time_to_k.expect("filtered"),
            s.breadth,
            d.events.url(s.event_row as usize)
        ));
    }
    let (bounds, counts) = time_to_k_histogram(ctx, d, K);
    out.push_str("time-to-5-sources histogram (bucket upper bound → events):\n");
    for (b, c) in bounds.iter().zip(&counts) {
        if *c > 0 {
            out.push_str(&format!("  <{b}: {c}\n"));
        }
    }
    out
}

/// Thread counts for the Fig 12 sweep: powers of two up to the machine.
pub fn scaling_thread_counts() -> Vec<usize> {
    let max = gdelt_columnar::partition::cores();
    let mut out = vec![1usize];
    while *out.last().expect("non-empty") * 2 <= max {
        out.push(out.last().expect("non-empty") * 2);
    }
    if *out.last().expect("non-empty") != max {
        out.push(max);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_report_covers_every_paper_exhibit() {
        let cfg = gdelt_synth::scenario::tiny(43);
        let (d, clean) = gdelt_synth::generate_dataset(&cfg);
        let ctx = ExecContext::builder().threads(2).build();
        let r = run_full_report(&ctx, &d, &clean, ReportOptions::default());
        for title in [
            "Table I",
            "Table II",
            "Table III",
            "Table IV",
            "Table V",
            "Table VI",
            "Table VII",
            "Table VIII",
            "Figure 2",
            "Figure 3",
            "Figure 4",
            "Figure 5",
            "Figure 6",
            "Figure 7",
            "Figure 8",
            "Figure 9",
            "Figure 10",
            "Figure 11",
            "Clusters",
        ] {
            assert!(r.section(title).is_some(), "missing section {title}");
        }
        let text = r.render();
        assert!(text.len() > 2000, "report suspiciously short");
    }

    #[test]
    fn scaling_thread_counts_start_at_one() {
        let ts = scaling_thread_counts();
        assert_eq!(ts[0], 1);
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
    }
}
