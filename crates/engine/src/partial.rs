//! The execution algebra: plan → round → merge → finalize.
//!
//! Every analysis is a *partitioned scan → per-partition partial →
//! associative merge* (paper §IV, §VI-G; its §VII MPI plan is the same
//! pattern across nodes). This module is that pattern written once, and
//! it is the only way a [`Query`] is answered — in one thread, across
//! threads, across processes:
//!
//! * [`plan`] decomposes a [`Query`] into [`ShardQuery`] rounds;
//! * a *round* answers one [`ShardQuery`] with the merged
//!   [`ShardPartial`] of every partition it covers — `run_query`
//!   supplies [`run_shard_query`] over the whole dataset (the kernels
//!   merge their per-thread partials inside), the shard router supplies
//!   a network scatter whose replies fold through
//!   [`ShardPartial::merge`];
//! * [`finalize`] turns the fully merged partial into the
//!   [`QueryResult`];
//! * [`execute`] drives the three and is the only place that knows
//!   which queries need two rounds.
//!
//! The contract — pinned by the equivalence proptests in `crates/shard`
//! — is **bit identity**: over stores split by contiguous partition
//! range (`gdelt_columnar::degraded::restrict_to_partitions`, which
//! keeps the full source directory on every piece and never splits an
//! event's mentions), merging the pieces' partials in any order equals
//! the partial of the whole. DESIGN.md ("Execution algebra") tabulates
//! each family's partial and why it merges exactly.

use crate::coreport::CoReport;
use crate::crossreport::CrossReport;
pub use crate::delay::DelayHist;
use crate::exec::{ExecContext, Merge};
use crate::followreport::FollowReport;
use crate::query::{Query, QueryResult, SeriesKind, TopKKind};
pub use crate::timeseries::ActiveSourcesPartial;
use crate::timeseries::{self, QuarterlySeries};
use crate::topk::{merge_ranked, ranked_publishers};
use gdelt_columnar::Dataset;
use gdelt_model::country::CountryRegistry;
use gdelt_model::ids::SourceId;

/// A request answerable from one piece of the data alone.
///
/// Most [`Query`] variants map 1:1 ([`plan`]); `FollowReport` needs a
/// first round ([`ShardQuery::PublisherCounts`]) to pick the
/// globally-agreed subset before the follow pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardQuery {
    /// Country co-reporting partial.
    CoReport,
    /// Follow-reporting over an explicit, globally-agreed subset.
    FollowReportWith {
        /// The subset, in global rank order (identical on every shard).
        sources: Vec<SourceId>,
    },
    /// Cross-country counts partial.
    CrossCountry,
    /// Per-source delay histograms.
    Delay,
    /// One quarterly series partial.
    TimeSeries(SeriesKind),
    /// Full per-source article counts (publisher ranking round).
    PublisherCounts,
    /// Local top-k events rebased to global event rows.
    TopEvents {
        /// Ranking size.
        k: u32,
    },
}

/// How a [`Query`] decomposes into shard rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardPlan {
    /// One scatter round answers the query.
    Direct(ShardQuery),
    /// Scatter [`ShardQuery::PublisherCounts`] first, derive the subset
    /// with [`subset_from_counts`], then scatter
    /// [`ShardQuery::FollowReportWith`].
    PublishersThenFollow {
        /// Size of the publisher selection.
        top_k: u32,
    },
}

/// The scatter plan for `q`.
pub fn plan(q: &Query) -> ShardPlan {
    match *q {
        Query::CoReport => ShardPlan::Direct(ShardQuery::CoReport),
        Query::FollowReport { top_k } => ShardPlan::PublishersThenFollow { top_k },
        Query::CrossCountry => ShardPlan::Direct(ShardQuery::CrossCountry),
        Query::Delay => ShardPlan::Direct(ShardQuery::Delay),
        Query::TimeSeries(kind) => ShardPlan::Direct(ShardQuery::TimeSeries(kind)),
        Query::TopK { kind: TopKKind::Publishers, .. } => {
            ShardPlan::Direct(ShardQuery::PublisherCounts)
        }
        Query::TopK { kind: TopKKind::Events, k } => ShardPlan::Direct(ShardQuery::TopEvents { k }),
    }
}

/// The top-k publisher subset from merged global counts.
pub fn subset_from_counts(counts: &[u64], k: usize) -> Vec<SourceId> {
    ranked_publishers(counts, k).into_iter().map(|(s, _)| s).collect()
}

/// Answer `q` by driving its plan: `round` is called once per
/// [`ShardQuery`] round and must return the merged partial of every
/// piece it covers, of the family asked for. This is the one place that
/// knows `FollowReport` ranks publishers before it follows them.
pub fn execute<E>(
    q: &Query,
    mut round: impl FnMut(&ShardQuery) -> Result<ShardPartial, E>,
) -> Result<QueryResult, E> {
    let merged = match plan(q) {
        ShardPlan::Direct(sq) => round(&sq)?,
        ShardPlan::PublishersThenFollow { top_k } => {
            let counts = match round(&ShardQuery::PublisherCounts)? {
                ShardPartial::PublisherCounts(counts) => counts,
                // analyze: allow(no_panic): `round` broke its contract (answer the family asked for)
                other => panic!("publisher-counts round answered {}", other.family()),
            };
            let sources = subset_from_counts(&counts, top_k as usize);
            round(&ShardQuery::FollowReportWith { sources })?
        }
    };
    Ok(finalize(q, merged))
}

impl ShardQuery {
    /// Whether `d` can answer this request at all — the request-side
    /// twin of [`ShardQuery::accepts`]. A follow subset sizes a `k × k`
    /// matrix per partition and indexes the source directory, so it must
    /// name each of its sources once and none outside `d`'s directory;
    /// everything else a request carries is a scalar the kernels clamp.
    /// Total — a worker checks every request decoded off a socket with
    /// it before a kernel allocates anything from the request's sizes.
    pub fn fits(&self, d: &Dataset) -> Result<(), String> {
        let ShardQuery::FollowReportWith { sources } = self else { return Ok(()) };
        let n = d.sources.len();
        if sources.len() > n {
            return Err(format!(
                "follow subset of {} sources over a directory of {n}",
                sources.len()
            ));
        }
        let mut named = crate::filter::Bitmap::new(n);
        for s in sources {
            if s.index() >= n {
                return Err(format!("follow subset names source {} of {n}", s.0));
            }
            if named.get(s.index()) {
                return Err(format!("follow subset names source {} twice", s.0));
            }
            named.set(s.index());
        }
        Ok(())
    }

    /// Whether `p` is the partial this request asks for: the right
    /// family, the same `k`, the same follow subset, and the shape that
    /// request gives — a `k × k` follow matrix with `k` article totals,
    /// country matrices and vectors over the whole registry. Total —
    /// replies decoded off a socket are checked with it before they are
    /// merged, so a finalized answer always indexes like a local one.
    pub fn accepts(&self, p: &ShardPartial) -> bool {
        use ShardPartial as P;
        let square = |m: &crate::Matrix<u64>, n: usize| (m.rows(), m.cols()) == (n, n);
        let n = CountryRegistry::LEN;
        match (self, p) {
            (ShardQuery::CoReport, P::CoReport(r)) => {
                square(&r.pairs, n) && r.event_counts.len() == n
            }
            (ShardQuery::CrossCountry, P::CrossCountry(r)) => {
                square(&r.counts, n)
                    && r.articles_by_publisher.len() == n
                    && r.events_by_country.len() == n
            }
            (ShardQuery::Delay, P::Delay(_))
            | (ShardQuery::PublisherCounts, P::PublisherCounts(_)) => true,
            (ShardQuery::FollowReportWith { sources }, P::FollowReport(r)) => {
                r.subset == *sources
                    && square(&r.follow_counts, sources.len())
                    && r.articles.len() == sources.len()
            }
            (ShardQuery::TimeSeries(SeriesKind::ActiveSources), P::ActiveSources(_)) => true,
            (ShardQuery::TimeSeries(kind), P::Series(_)) => *kind != SeriesKind::ActiveSources,
            (ShardQuery::TopEvents { k }, P::TopEvents { k: got, .. }) => k == got,
            _ => false,
        }
    }
}

/// One shard's sufficient statistic for a [`ShardQuery`].
#[derive(Debug, Clone, PartialEq)]
pub enum ShardPartial {
    /// Partial for [`ShardQuery::CoReport`] (the final is mergeable).
    CoReport(CoReport),
    /// Partial for [`ShardQuery::FollowReportWith`].
    FollowReport(FollowReport),
    /// Partial for [`ShardQuery::CrossCountry`].
    CrossCountry(CrossReport),
    /// Partial for [`ShardQuery::Delay`], indexed by source id.
    Delay(Vec<DelayHist>),
    /// Count-series partial (Events / Articles / LateArticles): values
    /// are integer-valued f64 counts, so addition is exact.
    Series(QuarterlySeries),
    /// Partial for [`ShardQuery::TimeSeries`] with
    /// [`SeriesKind::ActiveSources`].
    ActiveSources(ActiveSourcesPartial),
    /// Partial for [`ShardQuery::PublisherCounts`].
    PublisherCounts(Vec<u64>),
    /// Partial for [`ShardQuery::TopEvents`]: `(global_row, mentions)`
    /// sorted by `(Reverse(mentions), global_row)`.
    TopEvents {
        /// Ranking size the entries were truncated to.
        k: u32,
        /// The shard's local top-k, rebased to global event rows.
        entries: Vec<(u64, u64)>,
    },
}

impl ShardPartial {
    /// Short family tag, for error messages and wire framing.
    pub fn family(&self) -> &'static str {
        match self {
            ShardPartial::CoReport(_) => "coreport",
            ShardPartial::FollowReport(_) => "followreport",
            ShardPartial::CrossCountry(_) => "crosscountry",
            ShardPartial::Delay(_) => "delay",
            ShardPartial::Series(_) => "series",
            ShardPartial::ActiveSources(_) => "active_sources",
            ShardPartial::PublisherCounts(_) => "publisher_counts",
            ShardPartial::TopEvents { .. } => "top_events",
        }
    }

    /// The total twin of [`ShardPartial::merge`]: same family, same `k`,
    /// same follow subset, same matrix shapes, one bitmap length. `merge`
    /// keeps its panicking contract for in-process callers; anything
    /// decoded off a socket is checked with this first.
    pub fn compatible(&self, other: &ShardPartial) -> bool {
        use ShardPartial as P;
        fn same_shape(a: &crate::Matrix<u64>, b: &crate::Matrix<u64>) -> bool {
            // `Matrix::merge` lets an empty left side take the other's shape.
            a.as_slice().is_empty() || (a.rows(), a.cols()) == (b.rows(), b.cols())
        }
        match (self, other) {
            (P::CoReport(a), P::CoReport(b)) => same_shape(&a.pairs, &b.pairs),
            (P::FollowReport(a), P::FollowReport(b)) => {
                a.subset == b.subset && same_shape(&a.follow_counts, &b.follow_counts)
            }
            (P::CrossCountry(a), P::CrossCountry(b)) => same_shape(&a.counts, &b.counts),
            (P::ActiveSources(a), P::ActiveSources(b)) => {
                let mut lens = a.quarters.iter().chain(&b.quarters).map(|bm| bm.len());
                let first = lens.next();
                lens.all(|len| Some(len) == first)
            }
            (P::TopEvents { k: a, .. }, P::TopEvents { k: b, .. }) => a == b,
            (P::Delay(_), P::Delay(_))
            | (P::Series(_), P::Series(_))
            | (P::PublisherCounts(_), P::PublisherCounts(_)) => true,
            _ => false,
        }
    }

    /// Associative, commutative merge of two same-family partials.
    ///
    /// Mismatched families are a routing bug and panic (the same
    /// contract as `Matrix::merge` on shape mismatch).
    pub fn merge(self, other: ShardPartial) -> ShardPartial {
        use ShardPartial as P;
        match (self, other) {
            (P::CoReport(a), P::CoReport(b)) => P::CoReport(a.merged(b)),
            (P::FollowReport(a), P::FollowReport(b)) => P::FollowReport(a.merged(b)),
            (P::CrossCountry(a), P::CrossCountry(b)) => P::CrossCountry(a.merged(b)),
            (P::Delay(a), P::Delay(b)) => P::Delay(a.merged(b)),
            (P::Series(a), P::Series(b)) => P::Series(a.merged(b)),
            (P::ActiveSources(a), P::ActiveSources(b)) => P::ActiveSources(a.merged(b)),
            (P::PublisherCounts(a), P::PublisherCounts(b)) => P::PublisherCounts(a.merged(b)),
            (P::TopEvents { k, entries: a }, P::TopEvents { k: kb, entries: b }) => {
                // A mismatched k is a router planning bug, the same contract as
                // `Matrix::merge` on a shape mismatch.
                assert_eq!(k, kb, "top-events partials must agree on k");
                P::TopEvents { k, entries: merge_ranked(a, b, k as usize) }
            }
            // analyze: allow(no_panic): family mismatch is a router planning bug, same contract as Matrix::merge on shape mismatch
            (a, b) => panic!(
                "cannot merge shard partials of different families: {} vs {}",
                a.family(),
                b.family()
            ),
        }
    }
}

/// Answer a [`ShardQuery`] over `d` — the one dispatcher from request
/// to kernel. Each kernel merges its own per-thread partials under
/// `ctx`, so the result is the partial of all of `d`.
///
/// `ev_row_base` is the *global* row of `d`'s first event (0 for a
/// whole dataset; contiguous partition-range splits keep each shard's
/// events a contiguous slice of the global event table), used to rebase
/// top-event rows.
pub fn run_shard_query(
    ctx: &ExecContext,
    d: &Dataset,
    sq: &ShardQuery,
    ev_row_base: u64,
) -> ShardPartial {
    let n_countries = CountryRegistry::LEN;
    match sq {
        ShardQuery::CoReport => ShardPartial::CoReport(CoReport::countries(ctx, d, n_countries)),
        ShardQuery::FollowReportWith { sources } => {
            ShardPartial::FollowReport(FollowReport::build(ctx, d, sources))
        }
        ShardQuery::CrossCountry => {
            ShardPartial::CrossCountry(CrossReport::build(ctx, d, n_countries))
        }
        ShardQuery::Delay => ShardPartial::Delay(crate::delay::per_source_delay_hists(ctx, d)),
        ShardQuery::TimeSeries(kind) => match *kind {
            SeriesKind::ActiveSources => {
                ShardPartial::ActiveSources(timeseries::active_sources_partial(d))
            }
            SeriesKind::Events => ShardPartial::Series(timeseries::events_per_quarter(ctx, d)),
            SeriesKind::Articles => ShardPartial::Series(timeseries::articles_per_quarter(d)),
            SeriesKind::LateArticles { threshold } => {
                ShardPartial::Series(timeseries::late_articles_per_quarter(ctx, d, threshold))
            }
        },
        ShardQuery::PublisherCounts => ShardPartial::PublisherCounts(d.source_degrees().to_vec()),
        ShardQuery::TopEvents { k } => {
            let entries = crate::topk::top_events(ctx, d, *k as usize)
                .into_iter()
                .map(|(row, deg)| (ev_row_base + row as u64, deg))
                .collect();
            ShardPartial::TopEvents { k: *k, entries }
        }
    }
}

/// The [`QueryResult`] of a fully merged partial. Panics on a family
/// mismatch (a planning bug).
pub fn finalize(q: &Query, p: ShardPartial) -> QueryResult {
    match (q, p) {
        (Query::CoReport, ShardPartial::CoReport(r)) => QueryResult::CoReport(r),
        (Query::FollowReport { .. }, ShardPartial::FollowReport(r)) => QueryResult::FollowReport(r),
        (Query::CrossCountry, ShardPartial::CrossCountry(r)) => QueryResult::CrossCountry(r),
        (Query::Delay, ShardPartial::Delay(hists)) => {
            QueryResult::Delay(hists.iter().map(DelayHist::finalize).collect())
        }
        (Query::TimeSeries(SeriesKind::ActiveSources), ShardPartial::ActiveSources(a)) => {
            QueryResult::TimeSeries(a.finalize())
        }
        (Query::TimeSeries(_), ShardPartial::Series(s)) => QueryResult::TimeSeries(s),
        (Query::TopK { kind: TopKKind::Publishers, k }, ShardPartial::PublisherCounts(counts)) => {
            QueryResult::TopPublishers(ranked_publishers(&counts, *k as usize))
        }
        (Query::TopK { kind: TopKKind::Events, .. }, ShardPartial::TopEvents { entries, .. }) => {
            QueryResult::TopEvents(entries.into_iter().map(|(row, d)| (row as usize, d)).collect())
        }
        // analyze: allow(no_panic): family mismatch is a router planning bug, same contract as Matrix::merge on shape mismatch
        (q, p) => panic!("shard partial {} does not finalize query {q}", p.family()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Bitmap;
    use crate::query::run_query;
    use gdelt_columnar::degraded::restrict_to_partitions;
    use gdelt_model::time::Quarter;
    use std::convert::Infallible;

    const PARTS: u32 = 8;

    fn dataset() -> Dataset {
        gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(99)).0
    }

    fn ctx() -> ExecContext {
        ExecContext::builder().threads(2).build()
    }

    /// Split into `n_shards` contiguous partition ranges; returns each
    /// shard's dataset and global event-row base.
    fn split(d: &Dataset, n_shards: u32) -> Vec<(Dataset, u64)> {
        let mut shards = Vec::new();
        let mut ev_base = 0u64;
        for s in 0..n_shards {
            let lo = s * PARTS / n_shards;
            let hi = (s + 1) * PARTS / n_shards;
            let quarantined: Vec<u32> = (0..PARTS).filter(|p| *p < lo || *p >= hi).collect();
            let shard = restrict_to_partitions(d, PARTS, &quarantined).unwrap();
            let events = shard.events.len() as u64;
            shards.push((shard, ev_base));
            ev_base += events;
        }
        shards
    }

    fn all_queries() -> Vec<Query> {
        vec![
            Query::CoReport,
            Query::FollowReport { top_k: 5 },
            Query::CrossCountry,
            Query::Delay,
            Query::TimeSeries(SeriesKind::Events),
            Query::TimeSeries(SeriesKind::Articles),
            Query::TimeSeries(SeriesKind::ActiveSources),
            Query::TimeSeries(SeriesKind::LateArticles { threshold: 96 }),
            Query::TopK { kind: TopKKind::Publishers, k: 7 },
            Query::TopK { kind: TopKKind::Events, k: 7 },
        ]
    }

    /// One partial per shard for `sq`.
    fn partials(
        ctx: &ExecContext,
        shards: &[(Dataset, u64)],
        sq: &ShardQuery,
    ) -> Vec<ShardPartial> {
        shards.iter().map(|(d, base)| run_shard_query(ctx, d, sq, *base)).collect()
    }

    /// Run `q` through the shared driver over `shards`.
    fn scatter_gather(ctx: &ExecContext, shards: &[(Dataset, u64)], q: &Query) -> QueryResult {
        let round = |sq: &ShardQuery| {
            let merged = partials(ctx, shards, sq).into_iter().reduce(ShardPartial::merge);
            Ok::<_, Infallible>(merged.expect("at least one shard"))
        };
        execute(q, round).unwrap()
    }

    #[test]
    fn scatter_gather_is_bit_identical_for_every_family() {
        let d = dataset();
        let ctx = ctx();
        for n_shards in [1u32, 2, 4] {
            let shards = split(&d, n_shards);
            for q in all_queries() {
                let expect = run_query(&ctx, &d, &q);
                let got = scatter_gather(&ctx, &shards, &q);
                assert_eq!(got, expect, "{q} over {n_shards} shards");
            }
        }
    }

    #[test]
    fn merge_is_order_independent() {
        let d = dataset();
        let ctx = ctx();
        let shards = split(&d, 4);
        for q in all_queries() {
            let ShardPlan::Direct(sq) = plan(&q) else { continue };
            let ps = partials(&ctx, &shards, &sq);
            let forward = ps.clone().into_iter().reduce(ShardPartial::merge).unwrap();
            let reverse = ps.clone().into_iter().rev().reduce(ShardPartial::merge).unwrap();
            assert_eq!(forward, reverse, "{q}: forward vs reverse merge");
            // A tree-shaped reduction must also agree.
            let pairs =
                ps[0].clone().merge(ps[1].clone()).merge(ps[2].clone().merge(ps[3].clone()));
            assert_eq!(forward, pairs, "{q}: linear vs tree merge");
        }
    }

    #[test]
    fn execute_runs_two_rounds_only_for_follow_reports() {
        let d = dataset();
        let ctx = ctx();
        for q in all_queries() {
            let mut asked = Vec::new();
            let got = execute(&q, |sq| {
                asked.push(sq.clone());
                Ok::<_, Infallible>(run_shard_query(&ctx, &d, sq, 0))
            })
            .unwrap();
            assert_eq!(got, run_query(&ctx, &d, &q), "{q}");
            match q {
                Query::FollowReport { top_k } => {
                    assert_eq!(asked.len(), 2, "{q}");
                    assert_eq!(asked[0], ShardQuery::PublisherCounts);
                    let ShardQuery::FollowReportWith { sources } = &asked[1] else {
                        panic!("second round of {q} was {:?}", asked[1]);
                    };
                    assert_eq!(sources.len(), top_k as usize);
                }
                _ => assert_eq!(
                    asked,
                    vec![match plan(&q) {
                        ShardPlan::Direct(sq) => sq,
                        other => panic!("bad plan {other:?} for {q}"),
                    }]
                ),
            }
        }
    }

    #[test]
    fn execute_stops_at_the_first_failed_round() {
        let mut rounds = 0;
        let got = execute(&Query::FollowReport { top_k: 3 }, |_| {
            rounds += 1;
            Err::<ShardPartial, _>("shard down")
        });
        assert_eq!(got, Err("shard down"));
        assert_eq!(rounds, 1);
    }

    #[test]
    fn every_request_accepts_its_own_answer_and_no_other() {
        let d = dataset();
        let ctx = ctx();
        let mut asked: Vec<ShardQuery> = all_queries()
            .iter()
            .filter_map(|q| match plan(q) {
                ShardPlan::Direct(sq) => Some(sq),
                ShardPlan::PublishersThenFollow { .. } => None,
            })
            .collect();
        asked.push(ShardQuery::FollowReportWith { sources: vec![SourceId(0), SourceId(1)] });
        // Same families, different parameters.
        asked.push(ShardQuery::FollowReportWith { sources: vec![SourceId(1), SourceId(0)] });
        asked.push(ShardQuery::TopEvents { k: 8 });
        let answers: Vec<ShardPartial> =
            asked.iter().map(|sq| run_shard_query(&ctx, &d, sq, 0)).collect();
        for (i, sq) in asked.iter().enumerate() {
            for (j, p) in answers.iter().enumerate() {
                // Count series share one partial shape across kinds.
                let same_series = matches!(
                    (sq, &asked[j]),
                    (ShardQuery::TimeSeries(a), ShardQuery::TimeSeries(b))
                        if *a != SeriesKind::ActiveSources && *b != SeriesKind::ActiveSources
                );
                // PublisherCounts is asked twice (top-k publishers plans to it).
                let expect = i == j || same_series || *sq == asked[j];
                assert_eq!(sq.accepts(p), expect, "{sq:?} vs answer to {:?}", asked[j]);
            }
        }
    }

    /// `a.merge(b)` panics exactly when `compatible` says no.
    fn assert_compatible_predicts_merge(a: &ShardPartial, b: &ShardPartial) {
        let (x, y) = (a.clone(), b.clone());
        let merged = std::panic::catch_unwind(move || x.merge(y));
        assert_eq!(a.compatible(b), merged.is_ok(), "{} vs {}", a.family(), b.family());
    }

    #[test]
    fn compatible_is_exactly_merges_precondition() {
        let d = dataset();
        let ctx = ctx();
        let shards = split(&d, 2);
        let mut ps = Vec::new();
        for q in all_queries() {
            let sq = match plan(&q) {
                ShardPlan::Direct(sq) => sq,
                ShardPlan::PublishersThenFollow { .. } => {
                    ShardQuery::FollowReportWith { sources: vec![SourceId(0), SourceId(1)] }
                }
            };
            ps.extend(partials(&ctx, &shards, &sq));
        }
        // The mismatches a foreign or stale reply can carry.
        ps.push(ShardPartial::TopEvents { k: 3, entries: Vec::new() });
        ps.push(run_shard_query(
            &ctx,
            &d,
            &ShardQuery::FollowReportWith { sources: vec![SourceId(0)] },
            0,
        ));
        ps.push(ShardPartial::CoReport(CoReport::countries(&ctx, &d, 3)));
        ps.push(ShardPartial::CrossCountry(CrossReport::build(&ctx, &d, 3)));
        ps.push(ShardPartial::ActiveSources(ActiveSourcesPartial {
            base: 0,
            quarters: vec![Bitmap::new(d.sources.len() - 1)],
        }));
        ps.push(ShardPartial::ActiveSources(ActiveSourcesPartial::default()));
        for a in &ps {
            for b in &ps {
                assert_compatible_predicts_merge(a, b);
            }
        }
    }

    #[test]
    fn empty_partials_are_merge_identities() {
        let d = dataset();
        let ctx = ctx();
        let mut empty = Dataset::default();
        empty.sources = d.sources.clone();
        for q in all_queries() {
            let ShardPlan::Direct(sq) = plan(&q) else { continue };
            let whole = run_shard_query(&ctx, &d, &sq, 0);
            let nothing = run_shard_query(&ctx, &empty, &sq, 0);
            assert!(whole.compatible(&nothing) && nothing.compatible(&whole), "{q}");
            assert_eq!(whole.clone().merge(nothing.clone()), whole, "{q}: right identity");
            assert_eq!(nothing.merge(whole.clone()), whole, "{q}: left identity");
        }
    }

    #[test]
    fn series_merge_aligns_disjoint_bases() {
        let mut a = QuarterlySeries { base: Quarter { year: 2015, q: 1 }, values: vec![1.0, 2.0] };
        a.merge(QuarterlySeries { base: Quarter { year: 2015, q: 4 }, values: vec![7.0] });
        assert_eq!(a.base, Quarter { year: 2015, q: 1 });
        assert_eq!(a.values, vec![1.0, 2.0, 0.0, 7.0]);
    }

    #[test]
    fn top_events_merge_breaks_ties_by_global_row() {
        let a = vec![(0u64, 5u64), (3, 2)];
        let b = vec![(1u64, 5u64), (2, 3)];
        assert_eq!(merge_ranked(a, b, 3), vec![(0, 5), (1, 5), (2, 3)]);
    }

    #[test]
    fn plan_covers_every_variant() {
        for q in all_queries() {
            match (q, plan(&q)) {
                (Query::FollowReport { top_k }, ShardPlan::PublishersThenFollow { top_k: k }) => {
                    assert_eq!(top_k, k)
                }
                (Query::FollowReport { .. }, other) => panic!("bad plan {other:?}"),
                (_, ShardPlan::Direct(_)) => {}
                (q, other) => panic!("bad plan {other:?} for {q}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "different families")]
    fn cross_family_merge_panics() {
        let a = ShardPartial::PublisherCounts(vec![1]);
        let b = ShardPartial::Delay(Vec::new());
        let _ = a.merge(b);
    }
}
