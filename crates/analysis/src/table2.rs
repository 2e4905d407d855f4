//! Table II — problems found during the dataset analysis.
//!
//! Paper values: 53 malformed master-list entries, 8 missing archives,
//! 1 missing event source URL, 4 future-dated events. The numbers come
//! straight out of the preprocessing [`CleanReport`]; this module only
//! formats them in the paper's layout, plus one row the paper does not
//! have: mentions whose event time is not their event's capture.

use crate::render::{fmt_count, TextTable};
use gdelt_csv::clean::CleanReport;

/// Render the Table II rows from a cleaning report.
pub fn render(r: &CleanReport) -> String {
    let mut t = TextTable::new(&["Number of", "Value"]);
    t.row(vec![
        "Missformatted dataset master list entries".into(),
        fmt_count(r.malformed_masterlist),
    ]);
    t.row(vec!["Missing archives for dataset chunks".into(), fmt_count(r.missing_archives)]);
    t.row(vec!["Missing event source URL".into(), fmt_count(r.missing_source_url)]);
    t.row(vec![
        "Recorded event date is in future compared to first article".into(),
        fmt_count(r.future_event_date),
    ]);
    t.row(vec![
        "Mentions with inconsistent event time".into(),
        fmt_count(r.inconsistent_event_time),
    ]);
    format!("Table II: Problems found during the dataset analysis\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_paper_shape() {
        let r = CleanReport {
            malformed_masterlist: 53,
            missing_archives: 8,
            missing_source_url: 1,
            future_event_date: 4,
            inconsistent_event_time: 17,
            ..Default::default()
        };
        let text = render(&r);
        assert!(text.contains("master list"));
        assert!(text.contains("53"));
        assert!(text.contains("8"));
        assert!(text.contains("future"));
        assert!(text.lines().any(|l| l.contains("inconsistent event time") && l.contains("17")));
        assert_eq!(text.lines().count(), 8);
    }

    #[test]
    fn synthetic_pipeline_report_renders() {
        let cfg = gdelt_synth::scenario::tiny(32);
        let (_, report) = gdelt_synth::generate_dataset(&cfg);
        let text = render(&report);
        assert!(text.contains(&report.malformed_masterlist.to_string()));
    }
}
