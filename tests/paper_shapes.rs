//! Qualitative-shape tests: on a paper-calibrated synthetic corpus the
//! reproduction must show the same *findings* the paper reports — who
//! wins, what clusters, what declines — even though absolute counts are
//! scaled down. These are the claims EXPERIMENTS.md records.

use gdelt::analysis::{figs_delay, figs_matrix, figs_volume, table3, table5, table67};
use gdelt::engine::coreport::CoReport;
use gdelt::engine::crossreport::CrossReport;
use gdelt::model::country::CountryRegistry;
use gdelt::prelude::*;
use std::sync::OnceLock;

/// One shared mid-size corpus for all shape tests (generation is the
/// expensive part).
fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| {
        let cfg = gdelt::synth::paper_calibrated(1e-4, 4242);
        gdelt::synth::generate_dataset(&cfg).0
    })
}

fn ctx() -> ExecContext {
    ExecContext::builder().build()
}

#[test]
fn fig2_article_counts_follow_a_power_law() {
    let h = figs_volume::fig2(&ctx(), dataset());
    // Typical event covered by 1–5 sites (paper §V).
    let small: u64 = h.counts.iter().take(6).sum();
    let total = h.total_events();
    assert!(small as f64 / total as f64 > 0.75, "small-event mass {small}/{total}");
    let slope = h.loglog_slope();
    assert!(slope < -1.0, "power-law slope {slope} too shallow");
    // Weighted average near the paper's 3.36.
    let avg = h.weighted_mean();
    assert!((1.8..=6.0).contains(&avg), "articles/event {avg}");
}

#[test]
fn fig3_only_a_fraction_of_sources_active_per_quarter() {
    let d = dataset();
    let s = figs_volume::fig3(&ctx(), d);
    let n = d.sources.len() as f64;
    // Interior quarters: meaningfully fewer than all sources (paper: ~⅓).
    let mid = s.values[s.len() / 2];
    let frac = mid / n;
    assert!((0.1..=0.6).contains(&frac), "active fraction {frac}");
}

#[test]
fn figs45_volumes_decline_slightly_late_in_the_period() {
    let d = dataset();
    let ev = figs_volume::fig4(&ctx(), d);
    // 2018–19 sag relative to the 2016–17 plateau (paper Figs 4–5).
    let plateau: f64 = ev.values[4..8].iter().sum::<f64>() / 4.0;
    let late: f64 = ev.values[ev.len() - 4..].iter().sum::<f64>() / 4.0;
    assert!(late < plateau, "no late-period decline: {late} vs {plateau}");
}

#[test]
fn fig6_top_publishers_are_a_media_group_block() {
    let d = dataset();
    let data = figs_volume::fig6(&ctx(), d);
    let group =
        data.iter().filter(|(s, _, _)| d.sources.name(*s).contains("regionalgroup")).count();
    // Paper: 8 of the Top 10 are co-owned regional UK papers.
    assert!(group >= 6, "only {group}/10 top publishers from the planted group");
}

#[test]
fn table3_headliners_reach_saturation_coverage() {
    let d = dataset();
    let rows = table3::compute(&ctx(), d, 10);
    assert!(rows[0].url.contains("Orlando") || rows[0].url.contains("wikipedia"));
    // The top event reaches a large fraction of then-active sources.
    let s = figs_volume::fig3(&ctx(), d);
    let max_active = s.values.iter().cloned().fold(0.0f64, f64::max);
    let frac = rows[0].mentions as f64 / max_active;
    assert!(frac > 0.4, "top event coverage {frac} of peak active sources");
}

#[test]
fn table5_anglosphere_cluster() {
    let d = dataset();
    let reg = CountryRegistry::new();
    let cc = CoReport::countries(&ctx(), d, reg.len());
    let t5 = table5::compute(&cc, &reg);
    // Order: UK, USA, Australia, India, Italy, Canada, ZA, NG, BD, PH.
    let cluster_avg = (t5.jaccard.get(0, 1) + t5.jaccard.get(0, 2) + t5.jaccard.get(1, 2)) / 3.0;
    let periphery_avg =
        (t5.jaccard.get(7, 8) + t5.jaccard.get(7, 9) + t5.jaccard.get(8, 9) + t5.jaccard.get(4, 7))
            / 4.0;
    assert!(
        cluster_avg > 2.0 * periphery_avg,
        "UK-USA-AUS cluster ({cluster_avg:.4}) not dominant over periphery ({periphery_avg:.4})"
    );
}

#[test]
fn tables67_us_events_dominate_everyones_output() {
    let d = dataset();
    let reg = CountryRegistry::new();
    let cr = CrossReport::build(&ctx(), d, reg.len());
    let t = table67::compute(&cr, 10);
    assert_eq!(t.reported[0], reg.by_name("USA"));
    // Paper Table VII: US share of each top publisher's output 33–47%.
    for j in 0..5 {
        let share = t.percentages.get(0, j);
        assert!((15.0..=60.0).contains(&share), "US share for publisher column {j}: {share}");
    }
    // UK is highly active as a source but much less reported-on than
    // the US (paper §VI-D).
    let uk_row = t.reported.iter().position(|&c| c == reg.by_name("UK"));
    if let Some(uk) = uk_row {
        assert!(t.counts.get(0, 0) > t.counts.get(uk, 0));
    }
}

#[test]
fn fig8_us_row_is_brightest() {
    let d = dataset();
    let reg = CountryRegistry::new();
    let cr = CrossReport::build(&ctx(), d, reg.len());
    let f8 = figs_matrix::fig8(&cr, 50);
    let first: f64 = f8.log_counts.row(0).iter().sum();
    for r in 1..f8.log_counts.rows() {
        assert!(first >= f8.log_counts.row(r).iter().sum::<f64>(), "row {r} outshines the US");
    }
}

#[test]
fn fig9_delay_shapes() {
    let d = dataset();
    let f9 = figs_delay::fig9(&ctx(), d);
    // A sizeable share of sources have reported within 15 minutes at
    // least once (paper: about half).
    let active: u64 = f9.min_hist.iter().sum();
    let instant = f9.min_hist[0];
    assert!(
        instant as f64 / active as f64 > 0.25,
        "only {instant}/{active} sources with min delay < 1 interval"
    );
    // Maxima: nobody beyond the one-year cap.
    let max_delay = f9.stats.iter().map(|s| s.max).max().unwrap_or(0);
    assert!(max_delay <= 35_135, "max delay {max_delay} beyond one year");
    // The year-echo group exists (paper: outliers at ~30000+).
    assert!(*f9.max_hist.last().unwrap() > 0, "no year-late group");
    // All three speed groups populated.
    for (g, n) in f9.speed_groups {
        assert!(n > 0, "speed group {g:?} empty");
    }
}

#[test]
fn fig10_average_declines_median_stable() {
    let d = dataset();
    let (avg, med) = figs_delay::fig10(&ctx(), d);
    // Compare the mid-period plateau against the final year. (The first
    // quarters are excluded on both sides: year-echo articles only start
    // arriving once the archive is old enough to have year-old events,
    // the same ramp the real archive has.)
    let mid = avg.len() / 2;
    let mid_avg: f64 = avg.values[mid - 2..mid + 2].iter().sum::<f64>() / 4.0;
    let late_avg: f64 = avg.values[avg.len() - 4..].iter().sum::<f64>() / 4.0;
    assert!(late_avg < mid_avg, "average delay did not decline: {mid_avg} -> {late_avg}");
    // Median comparatively stable: its absolute move is much smaller
    // than the average's decline (the paper's Fig 10b point — medians
    // sit at a few intervals while averages move by dozens).
    let mid_med: f64 = med.values[mid - 2..mid + 2].iter().sum::<f64>() / 4.0;
    let late_med: f64 = med.values[med.len() - 4..].iter().sum::<f64>() / 4.0;
    let avg_move = mid_avg - late_avg;
    let med_move = (mid_med - late_med).abs();
    assert!(med_move < avg_move, "median moved {med_move:.2} intervals vs average's {avg_move:.2}");
}

#[test]
fn fig11_late_articles_decline() {
    let d = dataset();
    let s = figs_delay::fig11(&ctx(), d);
    // Mid-period plateau vs final year (see fig10 note on the ramp).
    let mid = s.len() / 2;
    let plateau: f64 = s.values[mid - 2..mid + 2].iter().sum();
    let late: f64 = s.values[s.len() - 4..].iter().sum();
    assert!(late < plateau, "late-article count did not decline: {plateau} -> {late}");
}

#[test]
fn fig12_parallel_beats_sequential() {
    let d = dataset();
    if std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) < 2 {
        return; // single-core CI machine: nothing to assert
    }
    let f12 = gdelt::analysis::fig12::compute(d, &[1, 2, 4], 3);
    let p1 = f12.points[0].seconds;
    let best = f12.points.iter().map(|p| p.seconds).fold(f64::INFINITY, f64::min);
    assert!(best <= p1 * 1.05, "parallel runs never beat sequential: 1T={p1:.4}s best={best:.4}s");
}
