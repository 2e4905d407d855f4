//! Figures 9–11 — publishing-delay analyses.
//!
//! Fig 9: distributions over sources of minimum / average / median /
//! maximum delay (half the sites have reported within 15 min at least
//! once; maxima cluster at 24 h with week/month/year echo groups).
//! Fig 10: quarterly average (declining) vs median (stable) delay.
//! Fig 11: articles with delay > 24 h per quarter (declining).

use crate::render::{fmt_count, TextTable};
use gdelt_columnar::Dataset;
use gdelt_engine::delay::{metric_histogram, speed_group_counts, DelayStats, SpeedGroup};
use gdelt_engine::timeseries::{delay_per_quarter, QuarterlySeries};
use gdelt_engine::{run_query, ExecContext, Query, QueryResult, SeriesKind};

/// Fig 9 data: the four per-source metric histograms plus the speed
/// grouping.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9 {
    /// Histogram bucket upper bounds (intervals).
    pub bounds: Vec<u32>,
    /// Sources per bucket of minimum delay.
    pub min_hist: Vec<u64>,
    /// Sources per bucket of average delay.
    pub avg_hist: Vec<u64>,
    /// Sources per bucket of median delay.
    pub median_hist: Vec<u64>,
    /// Sources per bucket of maximum delay.
    pub max_hist: Vec<u64>,
    /// Fast/average/slow population split (§VI-E).
    pub speed_groups: [(SpeedGroup, usize); 3],
    /// The raw per-source statistics (reused by Table VIII).
    pub stats: Vec<DelayStats>,
}

/// Compute Fig 9.
pub fn fig9(ctx: &ExecContext, d: &Dataset) -> Fig9 {
    let QueryResult::Delay(stats) = run_query(ctx, d, &Query::Delay) else {
        unreachable!("Delay query yields a Delay result");
    };
    let (bounds, min_hist) = metric_histogram(&stats, |s| s.min);
    let (_, avg_hist) = metric_histogram(&stats, |s| s.mean.round() as u32);
    let (_, median_hist) = metric_histogram(&stats, |s| s.median);
    let (_, max_hist) = metric_histogram(&stats, |s| s.max);
    let speed_groups = speed_group_counts(&stats);
    Fig9 { bounds, min_hist, avg_hist, median_hist, max_hist, speed_groups, stats }
}

/// Render Fig 9 as a bucket table.
pub fn render_fig9(f: &Fig9) -> String {
    let label = |b: u32| match b {
        1 => "<15m".to_string(),
        8 => "<2h".to_string(),
        32 => "<8h".to_string(),
        96 => "<24h".to_string(),
        192 => "<2d".to_string(),
        672 => "<1w".to_string(),
        2_880 => "<1mo".to_string(),
        8_640 => "<3mo".to_string(),
        _ => "1y+".to_string(),
    };
    let mut t = TextTable::new(&["Delay bucket", "Min", "Avg", "Median", "Max"]);
    for (i, &b) in f.bounds.iter().enumerate() {
        t.row(vec![
            label(b),
            fmt_count(f.min_hist[i]),
            fmt_count(f.avg_hist[i]),
            fmt_count(f.median_hist[i]),
            fmt_count(f.max_hist[i]),
        ]);
    }
    let mut out = String::from("Figure 9: per-source publication delay distributions\n");
    out.push_str(&t.render());
    out.push_str(&format!(
        "Speed groups: fast={} average={} slow={}\n",
        f.speed_groups[0].1, f.speed_groups[1].1, f.speed_groups[2].1
    ));
    out
}

/// Fig 10 data: (average, median) delay per quarter.
pub fn fig10(ctx: &ExecContext, d: &Dataset) -> (QuarterlySeries, QuarterlySeries) {
    delay_per_quarter(ctx, d)
}

/// Fig 11 data: articles beyond the 24 h news cycle per quarter.
pub fn fig11(ctx: &ExecContext, d: &Dataset) -> QuarterlySeries {
    let q = Query::TimeSeries(SeriesKind::LateArticles { threshold: 96 });
    let QueryResult::TimeSeries(series) = run_query(ctx, d, &q) else {
        unreachable!("TimeSeries query yields a TimeSeries result");
    };
    series
}

/// Render Fig 10's two series side by side.
pub fn render_fig10(avg: &QuarterlySeries, med: &QuarterlySeries) -> String {
    let mut t = TextTable::new(&["Quarter", "Average delay", "Median delay"]);
    for (i, (q, a)) in avg.iter().enumerate() {
        t.row(vec![q.to_string(), format!("{a:.1}"), format!("{:.0}", med.values[i])]);
    }
    format!(
        "Figure 10: aggregated quarterly publishing delay (15-minute intervals)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(39)).0
    }

    fn ctx() -> ExecContext {
        ExecContext::builder().threads(2).build()
    }

    #[test]
    fn fig9_histograms_cover_active_sources() {
        let d = dataset();
        let f = fig9(&ctx(), &d);
        let active = f.stats.iter().filter(|s| s.count > 0).count() as u64;
        assert_eq!(f.min_hist.iter().sum::<u64>(), active);
        assert_eq!(f.max_hist.iter().sum::<u64>(), active);
        assert_eq!(f.median_hist.iter().sum::<u64>(), active);
        assert_eq!(f.avg_hist.iter().sum::<u64>(), active);
        // All three speed groups populated in the tiny scenario.
        let total: usize = f.speed_groups.iter().map(|&(_, n)| n).sum();
        assert_eq!(total as u64, active);
    }

    #[test]
    fn fig9_min_is_left_shifted_vs_max() {
        let d = dataset();
        let f = fig9(&ctx(), &d);
        // Weighted bucket index of min must be below that of max.
        let idx = |h: &[u64]| -> f64 {
            let total: u64 = h.iter().sum();
            h.iter().enumerate().map(|(i, &c)| i as f64 * c as f64).sum::<f64>() / total as f64
        };
        assert!(idx(&f.min_hist) < idx(&f.max_hist));
    }

    #[test]
    fn fig10_median_below_average() {
        let d = dataset();
        let (avg, med) = fig10(&ctx(), &d);
        assert_eq!(avg.len(), med.len());
        // Echoes skew the mean upward: per quarter, median ≤ average.
        for (i, (_, a)) in avg.iter().enumerate() {
            assert!(med.values[i] <= a + 1e-9, "quarter {i}: median above average");
        }
    }

    #[test]
    fn fig11_counts_late_articles() {
        let d = dataset();
        let s = fig11(&ctx(), &d);
        let direct = d.mentions.delay.iter().filter(|&&dl| dl > 96).count() as f64;
        assert_eq!(s.values.iter().sum::<f64>(), direct);
    }

    #[test]
    fn renders() {
        let d = dataset();
        let f = fig9(&ctx(), &d);
        let text = render_fig9(&f);
        assert!(text.contains("Figure 9"));
        assert!(text.contains("Speed groups"));
        let (a, m) = fig10(&ctx(), &d);
        let text = render_fig10(&a, &m);
        assert!(text.contains("Figure 10"));
    }
}
