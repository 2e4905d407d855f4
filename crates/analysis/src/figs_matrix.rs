//! Figures 7 and 8 — the 50-wide matrices.
//!
//! Fig 7: follow-reporting matrix of the 50 most productive publishers
//! (heavy block among the co-owned top, weak elsewhere). Fig 8:
//! country cross-reporting for the 50 most reported-on × 50 most
//! publishing countries on a log scale (the bright US row).

use gdelt_columnar::Dataset;
use gdelt_engine::crossreport::CrossReport;
use gdelt_engine::{run_query, ExecContext, Matrix, Query, QueryResult};
use gdelt_model::ids::{CountryId, SourceId};

/// Fig 7 data: the Top-50 follow matrix (order = productivity rank).
pub struct Fig7 {
    /// Selected publishers, most productive first.
    pub publishers: Vec<SourceId>,
    /// Normalized follow matrix.
    pub f: Matrix<f64>,
}

/// Compute Fig 7.
pub fn fig7(ctx: &ExecContext, d: &Dataset, k: usize) -> Fig7 {
    let q = Query::FollowReport { top_k: k.try_into().unwrap_or(u32::MAX) };
    let QueryResult::FollowReport(report) = run_query(ctx, d, &q) else {
        unreachable!("FollowReport query yields a FollowReport result");
    };
    Fig7 { f: report.f_matrix(), publishers: report.subset }
}

/// Fig 8 data: cross-reporting counts for the Top-`k` reported ×
/// publishing countries, with log10 values for the heat map.
pub struct Fig8 {
    /// Row countries (most reported-on first).
    pub reported: Vec<CountryId>,
    /// Column countries (most publishing first).
    pub publishing: Vec<CountryId>,
    /// Raw counts.
    pub counts: Matrix<u64>,
    /// `log10(1 + count)` — the plotted quantity.
    pub log_counts: Matrix<f64>,
}

/// Compute Fig 8.
pub fn fig8(cr: &CrossReport, k: usize) -> Fig8 {
    let reported = cr.top_reported(k);
    let publishing = cr.top_publishing(k);
    let mut counts = Matrix::zeros(reported.len(), publishing.len());
    for (i, &r) in reported.iter().enumerate() {
        for (j, &p) in publishing.iter().enumerate() {
            counts.set(i, j, cr.articles(r, p));
        }
    }
    let log_counts = counts.map(|v| (1.0 + v as f64).log10());
    Fig8 { reported, publishing, counts, log_counts }
}

/// Render an ASCII heat map of a matrix (rows × cols, shade by value).
pub fn render_heatmap(title: &str, m: &Matrix<f64>) -> String {
    const SHADES: &[u8] = b" .:-=+*#%@";
    let max = m.as_slice().iter().cloned().fold(0.0f64, f64::max);
    let mut out = format!("{title} ({}x{}, max={max:.3})\n", m.rows(), m.cols());
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            let v = m.get(r, c);
            let idx = if max > 0.0 {
                ((v / max) * (SHADES.len() - 1) as f64).round() as usize
            } else {
                0
            };
            out.push(SHADES[idx.min(SHADES.len() - 1)] as char);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdelt_model::country::CountryRegistry;

    fn dataset() -> Dataset {
        gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(38)).0
    }

    fn ctx() -> ExecContext {
        ExecContext::builder().threads(2).build()
    }

    #[test]
    fn fig7_block_structure() {
        let d = dataset();
        let f7 = fig7(&ctx(), &d, 20);
        assert_eq!(f7.publishers.len(), 20);
        assert_eq!(f7.f.rows(), 20);
        // The co-owned media group must show denser mutual following
        // than group→outsider following (the Fig 7 block). Averages of
        // f_ij over within-group vs group-to-rest cells.
        let group: Vec<usize> = f7
            .publishers
            .iter()
            .enumerate()
            .filter(|(_, &s)| d.sources.name(s).contains("regionalgroup.co.uk"))
            .map(|(i, _)| i)
            .collect();
        assert!(group.len() >= 4, "media group missing from Top 20");
        let mut within = Vec::new();
        let mut cross = Vec::new();
        for &i in &group {
            for j in 0..20 {
                if i == j {
                    continue;
                }
                if group.contains(&j) {
                    within.push(f7.f.get(i, j));
                } else {
                    cross.push(f7.f.get(i, j));
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&within) > mean(&cross),
            "no follow block: within {:.4} vs cross {:.4}",
            mean(&within),
            mean(&cross)
        );
    }

    #[test]
    fn fig8_log_scale_and_us_row() {
        let d = dataset();
        let reg = CountryRegistry::new();
        let cr = CrossReport::build(&ctx(), &d, reg.len());
        let f8 = fig8(&cr, 50);
        assert_eq!(f8.reported.len(), 50);
        assert_eq!(f8.log_counts.rows(), 50);
        // log10(1+x) monotone: spot-check.
        for i in 0..5 {
            for j in 0..5 {
                let raw = f8.counts.get(i, j) as f64;
                assert!((f8.log_counts.get(i, j) - (1.0 + raw).log10()).abs() < 1e-12);
            }
        }
        // First row (most reported country = USA) is the brightest row.
        assert_eq!(f8.reported[0], reg.by_name("USA"));
        let first_row: f64 = f8.log_counts.row(0).iter().sum();
        for r in 1..10 {
            let row: f64 = f8.log_counts.row(r).iter().sum();
            assert!(first_row >= row, "US row not dominant");
        }
    }

    #[test]
    fn heatmap_renders_with_one_char_per_cell() {
        let mut m = Matrix::<f64>::zeros(3, 4);
        m.set(1, 2, 1.0);
        let s = render_heatmap("test", &m);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().skip(1).all(|l| l.len() == 4));
        assert!(lines[2].contains('@'));
    }
}
