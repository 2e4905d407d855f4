//! Table IV — the follow-reporting matrix of the Top-10 publishers.
//!
//! Rows are "first publishers", columns "follow-up publishers"; the
//! diagonal is the self-follow rate and the extra "Sum" row gives the
//! fraction of each publisher's articles that follow any of the ten.
//! The paper finds the Top-5 block balanced (no leader/follower
//! asymmetry) with column sums around 0.45–0.81.

use crate::render::{fmt_cell, TextTable};
use gdelt_columnar::Dataset;
use gdelt_engine::followreport::FollowReport;
use gdelt_engine::{run_query, ExecContext, Query, QueryResult};

/// Table IV result: the follow report for the Top-10 plus labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4 {
    /// The follow-reporting data (matrix order = `publishers` order).
    pub report: FollowReport,
    /// Publisher domains, most productive first (labelled A–J in the
    /// paper).
    pub publishers: Vec<String>,
}

/// Compute Table IV for the `k` most productive publishers.
pub fn compute(ctx: &ExecContext, d: &Dataset, k: usize) -> Table4 {
    let q = Query::FollowReport { top_k: k.try_into().unwrap_or(u32::MAX) };
    let QueryResult::FollowReport(report) = run_query(ctx, d, &q) else {
        unreachable!("FollowReport query yields a FollowReport result");
    };
    let publishers = report.subset.iter().map(|&s| d.sources.name(s).to_owned()).collect();
    Table4 { report, publishers }
}

/// Render in the paper's layout (A–J labels, f_ij cells, Sum row).
pub fn render(t4: &Table4) -> String {
    let k = t4.publishers.len();
    let labels: Vec<String> = (0..k).map(|i| ((b'A' + i as u8) as char).to_string()).collect();
    let mut header = vec!["First".to_string()];
    header.extend(labels.iter().cloned());
    let mut t = TextTable::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    let f = t4.report.f_matrix();
    for (i, label) in labels.iter().enumerate() {
        let mut row = vec![label.clone()];
        for j in 0..k {
            row.push(fmt_cell(f.get(i, j)));
        }
        t.row(row);
    }
    let mut sum_row = vec!["Sum".to_string()];
    for s in t4.report.column_sums() {
        sum_row.push(fmt_cell(s));
    }
    t.row(sum_row);
    let mut out =
        String::from("Table IV: follow-reporting matrix, ten most productive publishers\n");
    for (l, p) in labels.iter().zip(&t4.publishers) {
        out.push_str(&format!("  {l} = {p}\n"));
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(35)).0
    }

    #[test]
    fn matrix_is_sane() {
        let d = dataset();
        let t4 = compute(&ExecContext::builder().threads(2).build(), &d, 10);
        assert_eq!(t4.publishers.len(), 10);
        let f = t4.report.f_matrix();
        for v in f.as_slice() {
            assert!((0.0..=1.0).contains(v), "f value {v}");
        }
        // The media-group block (top publishers) must co/follow-report:
        // at least some off-diagonal mass among the first rows.
        let top_block: f64 = (0..5)
            .flat_map(|i| (0..5).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j)
            .map(|(i, j)| f.get(i, j))
            .sum();
        assert!(top_block > 0.0, "no follow-reporting inside the top block");
    }

    #[test]
    fn column_sums_bound_article_fraction() {
        let d = dataset();
        let t4 = compute(&ExecContext::builder().threads(1).build(), &d, 10);
        for s in t4.report.column_sums() {
            // An article can follow at most all 10 selected sources.
            assert!((0.0..=10.0).contains(&s));
        }
    }

    #[test]
    fn render_has_labels_and_sum() {
        let d = dataset();
        let t4 = compute(&ExecContext::builder().threads(1).build(), &d, 4);
        let text = render(&t4);
        assert!(text.contains("A = "));
        assert!(text.contains("Sum"));
        assert!(text.contains("Table IV"));
    }

    #[test]
    fn parallel_matches_sequential() {
        let d = dataset();
        let a = compute(&ExecContext::builder().threads(1).build(), &d, 10);
        let b = compute(&ExecContext::builder().threads(4).build(), &d, 10);
        assert_eq!(a, b);
    }
}
