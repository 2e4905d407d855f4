//! Table VIII — publication delay statistics of the Top-10 publishers.
//!
//! Paper row shape: min 1, max 35 135 (exactly one year), average 37–48,
//! median 13–16 — all ten belong to the "average" speed group.

use crate::render::{fmt_count, fmt_f, TextTable};
use gdelt_columnar::Dataset;
use gdelt_engine::delay::DelayStats;
use gdelt_engine::{run_query, ExecContext, Query, QueryResult, TopKKind};
use gdelt_model::ids::SourceId;

/// One Table VIII row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table8Row {
    /// The publisher.
    pub source: SourceId,
    /// Its domain name.
    pub name: String,
    /// Its delay statistics.
    pub stats: DelayStats,
}

/// Compute Table VIII from precomputed per-source stats (shared with
/// Fig 9 to avoid a second grouping pass).
pub fn compute(
    ctx: &ExecContext,
    d: &Dataset,
    all_stats: &[DelayStats],
    k: usize,
) -> Vec<Table8Row> {
    let q = Query::TopK { kind: TopKKind::Publishers, k: k.try_into().unwrap_or(u32::MAX) };
    let QueryResult::TopPublishers(top) = run_query(ctx, d, &q) else {
        unreachable!("TopK Publishers query yields a TopPublishers result");
    };
    top.into_iter()
        .map(|(s, _)| Table8Row {
            source: s,
            name: d.sources.name(s).to_owned(),
            stats: all_stats[s.index()],
        })
        .collect()
}

/// Render in the paper's layout (publishers labelled A–J).
pub fn render(rows: &[Table8Row]) -> String {
    let mut t = TextTable::new(&["Publisher", "Min", "Max", "Average", "Median"]);
    for (i, r) in rows.iter().enumerate() {
        t.row(vec![
            ((b'A' + i as u8) as char).to_string(),
            fmt_count(u64::from(r.stats.min)),
            fmt_count(u64::from(r.stats.max)),
            fmt_f(r.stats.mean, 0),
            fmt_count(u64::from(r.stats.median)),
        ]);
    }
    let mut out =
        String::from("Table VIII: publication delay statistics, ten most productive publishers\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!("  {} = {}\n", (b'A' + i as u8) as char, r.name));
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Dataset, Vec<Table8Row>) {
        let d = gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(40)).0;
        let ctx = ExecContext::builder().threads(2).build();
        let QueryResult::Delay(stats) = run_query(&ctx, &d, &Query::Delay) else {
            unreachable!("Delay query yields a Delay result");
        };
        let rows = compute(&ctx, &d, &stats, 10);
        (d, rows)
    }

    #[test]
    fn rows_are_top_publishers_with_consistent_stats() {
        let (_, rows) = setup();
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(r.stats.count > 0, "top publisher with no articles");
            assert!(r.stats.min <= r.stats.median);
            assert!(u32::try_from(r.stats.mean.round() as i64).is_ok());
            assert!(r.stats.median <= r.stats.max);
        }
    }

    #[test]
    fn top_publishers_are_average_speed_like_the_paper() {
        let (_, rows) = setup();
        // Generator gives the media-group (top) publishers the Average
        // class: medians must sit inside the 24 h news cycle.
        let within = rows.iter().filter(|r| r.stats.median <= 96).count();
        assert!(within >= 8, "only {within}/10 top publishers in the 24h cycle");
    }

    #[test]
    fn render_labels_a_through_j() {
        let (_, rows) = setup();
        let text = render(&rows);
        assert!(text.contains("A = "));
        assert!(text.contains("J = "));
        assert!(text.contains("Median"));
    }
}
