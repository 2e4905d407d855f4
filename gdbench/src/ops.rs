//! The op vocabulary: the two read bundles every workload issues through
//! its own front door, and the checks an answer must pass.

use crate::door::Checked;
use gdelt_columnar::Dataset;
use gdelt_engine::{run_query, ExecContext, Query, QueryResult, SeriesKind, TopKKind};
use std::sync::Arc;

/// What `gdelt-cli report` costs: the four heavy analyses back to back.
pub const REPORT: [Query; 4] =
    [Query::CoReport, Query::CrossCountry, Query::FollowReport { top_k: 10 }, Query::Delay];

/// One dashboard refresh: four quarterly series and two rankings.
pub const DASH: [Query; 6] = [
    Query::TimeSeries(SeriesKind::Events),
    Query::TimeSeries(SeriesKind::Articles),
    Query::TimeSeries(SeriesKind::ActiveSources),
    Query::TimeSeries(SeriesKind::LateArticles { threshold: 96 }),
    Query::TopK { kind: TopKKind::Publishers, k: 10 },
    Query::TopK { kind: TopKKind::Events, k: 10 },
];

/// Both bundles' queries: `REPORT`, then `DASH`.
pub fn all_queries() -> Vec<Query> {
    REPORT.iter().chain(&DASH).copied().collect()
}

/// The answers of one bundle, in the bundle's query order.
pub type Bundle = Vec<Arc<QueryResult>>;

/// Run a bundle straight on the engine: the reference every front
/// door's answers are compared with.
pub fn run_bundle(ctx: &ExecContext, d: &Dataset, queries: &[Query]) -> Bundle {
    queries.iter().map(|q| Arc::new(run_query(ctx, d, q))).collect()
}

/// How many of `got`'s answers differ from `want` (a missing answer
/// counts as wrong).
pub fn mismatches(got: &[Arc<QueryResult>], want: &[Arc<QueryResult>]) -> u64 {
    let wrong = got.iter().zip(want).filter(|(g, w)| g != w).count();
    (wrong + want.len().saturating_sub(got.len())) as u64
}

/// A round's answers against reference answers that hold for the whole
/// run (the dataset behind the front door never changes).
pub fn check_against(
    want_report: &Bundle,
    want_dash: &Bundle,
    reports: &[Bundle],
    dashes: &[Bundle],
) -> Checked {
    let wrong =
        |want: &Bundle, got: &[Bundle]| got.iter().map(|b| mismatches(b, want)).sum::<u64>();
    Checked { extra_ops: 0, wrong: wrong(want_report, reports) + wrong(want_dash, dashes) }
}

/// Invariants a bundle must satisfy on the dataset it was computed from,
/// cheap enough for every round. Returns the number of answers that
/// break one.
pub fn broken_invariants(queries: &[Query], answers: &[Arc<QueryResult>], d: &Dataset) -> u64 {
    let mut bad = 0;
    for (q, a) in queries.iter().zip(answers) {
        let ok = match (q, a.as_ref()) {
            (Query::Delay, QueryResult::Delay(stats)) => {
                stats.len() == d.sources.len()
                    && stats.iter().map(|s| s.count).sum::<u64>() <= d.mentions.len() as u64
            }
            (Query::TimeSeries(SeriesKind::Articles), QueryResult::TimeSeries(s)) => {
                s.values.iter().sum::<f64>() == d.mentions.len() as f64
            }
            (Query::TimeSeries(SeriesKind::Events), QueryResult::TimeSeries(s)) => {
                s.values.iter().sum::<f64>() == d.events.len() as f64
            }
            (Query::TimeSeries(_), QueryResult::TimeSeries(s)) => {
                s.values.iter().all(|v| *v >= 0.0 && *v <= d.mentions.len() as f64)
            }
            (Query::TopK { k, .. }, QueryResult::TopPublishers(top)) => {
                top.len() <= *k as usize && top.windows(2).all(|w| w[0].1 >= w[1].1)
            }
            (Query::TopK { k, .. }, QueryResult::TopEvents(top)) => {
                top.len() <= *k as usize && top.windows(2).all(|w| w[0].1 >= w[1].1)
            }
            (Query::CoReport, QueryResult::CoReport(_))
            | (Query::CrossCountry, QueryResult::CrossCountry(_))
            | (Query::FollowReport { .. }, QueryResult::FollowReport(_)) => true,
            _ => false,
        };
        bad += u64::from(!ok);
    }
    bad + queries.len().saturating_sub(answers.len()) as u64
}
