//! Figures 2–6 — corpus volume shapes.
//!
//! * Fig 2: number of events with a given number of articles (power law,
//!   max 5234, visible mid-range deviation);
//! * Fig 3: sources active per quarter (~⅓ of all tracked);
//! * Fig 4: events per quarter;
//! * Fig 5: articles per quarter;
//! * Fig 6: per-quarter article counts of the ten most productive
//!   publishers (regional UK media-group block).

use crate::render::{fmt_count, TextTable};
use gdelt_columnar::Dataset;
use gdelt_engine::histogram::ArticleCountHistogram;
use gdelt_engine::timeseries::{publisher_series, QuarterlySeries};
use gdelt_engine::{run_query, ExecContext, Query, QueryResult, SeriesKind, TopKKind};
use gdelt_model::ids::SourceId;

/// Fig 2 data: the article-count histogram.
pub fn fig2(ctx: &ExecContext, d: &Dataset) -> ArticleCountHistogram {
    ArticleCountHistogram::build(ctx, d)
}

/// Render Fig 2 as log-binned rows.
pub fn render_fig2(h: &ArticleCountHistogram) -> String {
    let mut t = TextTable::new(&["Articles per event (bin)", "Events"]);
    for (lo, n) in h.log_bins() {
        t.row(vec![format!("{lo}+"), fmt_count(n)]);
    }
    format!(
        "Figure 2: events per article count (log bins), max={}, slope={:.2}\n{}",
        h.max_articles(),
        h.loglog_slope(),
        t.render()
    )
}

fn series(ctx: &ExecContext, d: &Dataset, kind: SeriesKind) -> QuarterlySeries {
    let QueryResult::TimeSeries(series) = run_query(ctx, d, &Query::TimeSeries(kind)) else {
        unreachable!("TimeSeries query yields a TimeSeries result");
    };
    series
}

/// Fig 3 data: active sources per quarter.
pub fn fig3(ctx: &ExecContext, d: &Dataset) -> QuarterlySeries {
    series(ctx, d, SeriesKind::ActiveSources)
}

/// Fig 4 data: events per quarter.
pub fn fig4(ctx: &ExecContext, d: &Dataset) -> QuarterlySeries {
    series(ctx, d, SeriesKind::Events)
}

/// Fig 5 data: articles per quarter.
pub fn fig5(ctx: &ExecContext, d: &Dataset) -> QuarterlySeries {
    series(ctx, d, SeriesKind::Articles)
}

/// Fig 6 data: the Top-10 publishers and their quarterly article series.
pub fn fig6(ctx: &ExecContext, d: &Dataset) -> Vec<(SourceId, u64, QuarterlySeries)> {
    let q = Query::TopK { kind: TopKKind::Publishers, k: 10 };
    let QueryResult::TopPublishers(top) = run_query(ctx, d, &q) else {
        unreachable!("TopK Publishers query yields a TopPublishers result");
    };
    let ids: Vec<SourceId> = top.iter().map(|&(s, _)| s).collect();
    let series = publisher_series(d, &ids);
    top.into_iter().zip(series).map(|((s, n), q)| (s, n, q)).collect()
}

/// Render one quarterly series with a caption.
pub fn render_series(caption: &str, s: &QuarterlySeries) -> String {
    let mut t = TextTable::new(&["Quarter", "Value"]);
    for (q, v) in s.iter() {
        t.row(vec![q.to_string(), fmt_count(v.round() as u64)]);
    }
    format!("{caption}\n{}", t.render())
}

/// Render Fig 6: publisher names with totals, then the per-quarter grid.
pub fn render_fig6(d: &Dataset, data: &[(SourceId, u64, QuarterlySeries)]) -> String {
    let mut out = String::from("Figure 6: articles per quarter, ten most productive publishers\n");
    for (s, total, _) in data {
        out.push_str(&format!("  {} ({})\n", d.sources.name(*s), fmt_count(*total)));
    }
    if let Some((_, _, first)) = data.first() {
        let mut header = vec!["Quarter".to_string()];
        header.extend((b'A'..b'A' + data.len() as u8).map(|c| (c as char).to_string()));
        let mut t = TextTable::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
        for (qi, (q, _)) in first.iter().enumerate() {
            let mut row = vec![q.to_string()];
            for (_, _, series) in data {
                row.push(fmt_count(series.values[qi].round() as u64));
            }
            t.row(row);
        }
        out.push_str(&t.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(33)).0
    }

    fn ctx() -> ExecContext {
        ExecContext::builder().threads(2).build()
    }

    #[test]
    fn fig2_power_law_shape() {
        let d = dataset();
        let h = fig2(&ctx(), &d);
        // Most events have few articles; slope clearly negative.
        assert!(h.counts[1] > 0 || h.counts[2] > 0);
        assert!(h.loglog_slope() < -0.5, "slope {}", h.loglog_slope());
        let text = render_fig2(&h);
        assert!(text.contains("Figure 2"));
    }

    #[test]
    fn fig3_active_fraction_below_total() {
        let d = dataset();
        let s = fig3(&ctx(), &d);
        let n_sources = d.sources.len() as f64;
        assert!(!s.is_empty());
        for (_, v) in s.iter() {
            assert!(v <= n_sources);
        }
        // Interior quarters activate a strict subset (the Fig 3 point).
        let mid = s.values[s.len() / 2];
        assert!(mid < n_sources, "all sources active mid-period");
        assert!(mid > 0.0);
    }

    #[test]
    fn fig4_fig5_volumes_sum_to_totals() {
        let d = dataset();
        let ev = fig4(&ctx(), &d);
        let ar = fig5(&ctx(), &d);
        assert_eq!(ev.values.iter().sum::<f64>() as u64, d.events.len() as u64);
        assert_eq!(ar.values.iter().sum::<f64>() as u64, d.mentions.len() as u64);
    }

    #[test]
    fn fig6_top_publishers_are_the_media_group() {
        let d = dataset();
        let data = fig6(&ctx(), &d);
        assert_eq!(data.len(), 10);
        // Totals descending.
        for w in data.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // The generator plants the dominant group at the top ranks; most
        // of the Top 10 must come from it (paper: 8 of 10).
        let group_members = data
            .iter()
            .filter(|(s, _, _)| d.sources.name(*s).contains("regionalgroup.co.uk"))
            .count();
        assert!(group_members >= 5, "only {group_members} of Top 10 from the media group");
        // Series totals match the counts.
        for (_, total, series) in &data {
            assert_eq!(series.values.iter().sum::<f64>() as u64, *total);
        }
    }

    #[test]
    fn renders_are_nonempty() {
        let d = dataset();
        let s = fig4(&ctx(), &d);
        let text = render_series("Figure 4: events per quarter", &s);
        assert!(text.lines().count() > 3);
        let f6 = fig6(&ctx(), &d);
        let text = render_fig6(&d, &f6);
        assert!(text.contains("Figure 6"));
        assert!(text.contains("regionalgroup"));
    }
}
