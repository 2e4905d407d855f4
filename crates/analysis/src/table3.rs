//! Table III — the ten most reported events.
//!
//! The paper lists mention counts (5234 … 3984) with the event's source
//! URL; the synthetic corpus plants the same ten headline events
//! (Orlando, Las Vegas, Dallas, …) as Wikipedia-style URLs, so the
//! reproduction should surface them at the top.

use crate::render::{fmt_count, TextTable};
use gdelt_columnar::Dataset;
use gdelt_engine::{run_query, ExecContext, Query, QueryResult, TopKKind};

/// One Table III row.
#[derive(Debug, Clone, PartialEq)]
pub struct TopEvent {
    /// Mentions of the event.
    pub mentions: u64,
    /// The representative source URL.
    pub url: String,
}

/// Compute the `k` most reported events.
pub fn compute(ctx: &ExecContext, d: &Dataset, k: usize) -> Vec<TopEvent> {
    let q = Query::TopK { kind: TopKKind::Events, k: k.try_into().unwrap_or(u32::MAX) };
    let QueryResult::TopEvents(top) = run_query(ctx, d, &q) else {
        unreachable!("TopK Events query yields a TopEvents result");
    };
    top.into_iter()
        .map(|(row, mentions)| TopEvent { mentions, url: d.events.url(row).to_owned() })
        .collect()
}

/// Render in the paper's layout.
pub fn render(rows: &[TopEvent]) -> String {
    let mut t = TextTable::new(&["Mentions", "Event source URL"]);
    for r in rows {
        // URL in the second column; keep the table readable.
        t.row(vec![fmt_count(r.mentions), r.url.clone()]);
    }
    // Mentions column should lead, so swap alignment by simple layout.
    format!("Table III: The ten most reported events\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(34)).0
    }

    #[test]
    fn headline_events_dominate() {
        let d = dataset();
        let rows = compute(&ExecContext::builder().threads(2).build(), &d, 10);
        assert!(!rows.is_empty());
        // Counts descending.
        for w in rows.windows(2) {
            assert!(w[0].mentions >= w[1].mentions);
        }
        // The planted headliners (wikipedia URLs) take the very top.
        assert!(
            rows[0].url.contains("wikipedia"),
            "top event is {} with {}",
            rows[0].url,
            rows[0].mentions
        );
    }

    #[test]
    fn k_caps_results() {
        let d = dataset();
        let rows = compute(&ExecContext::builder().threads(1).build(), &d, 3);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn render_lists_urls() {
        let d = dataset();
        let rows = compute(&ExecContext::builder().threads(1).build(), &d, 5);
        let text = render(&rows);
        assert!(text.contains("Table III"));
        assert!(text.contains("wikipedia"));
        assert_eq!(text.lines().count(), 3 + rows.len());
    }
}
