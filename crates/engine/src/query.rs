//! The unified query API (paper §VI-G, Fig 12).
//!
//! A server, a cache key, or a batcher needs one value it can dispatch
//! on, hash, and compare — that is [`Query`]: a closed enum of every
//! analysis the engine answers, each variant carrying its parameters.
//! [`run_query`] answers one by running the execution algebra of
//! [`crate::partial`] (plan → round → merge → finalize) with the whole
//! dataset as its single shard, and code outside this crate asks a
//! `Query` through it alone. The kernels (`CoReport::countries`,
//! `CrossReport::build`, the delay histograms, the quarterly series and
//! the rankings) are what that algebra's one dispatcher,
//! [`crate::partial::run_shard_query`], calls.
//!
//! [`timed_run_in`] times the paper's aggregated country query —
//! [`Query::CrossCountry`] then [`Query::CoReport`], the workload behind
//! Tables V–VII. The paper reports 344 s on one thread and 43 s with
//! OpenMP on 64 for it; the Fig 12 benchmark sweeps thread counts over
//! it.

use crate::coreport::CoReport;
use crate::crossreport::CrossReport;
use crate::delay::DelayStats;
use crate::exec::ExecContext;
use crate::followreport::FollowReport;
use crate::partial::{self, run_shard_query, ShardQuery};
use crate::timeseries::QuarterlySeries;
use gdelt_columnar::{Column, ColumnSet, Dataset};
use gdelt_model::ids::SourceId;
use std::convert::Infallible;

/// Which quarterly series a [`Query::TimeSeries`] request computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeriesKind {
    /// Events per quarter (event-table scan).
    Events,
    /// Articles (mentions) per quarter.
    Articles,
    /// Distinct active sources per quarter.
    ActiveSources,
    /// Articles arriving later than `threshold` capture intervals after
    /// their event.
    LateArticles {
        /// Lateness threshold in 15-minute capture intervals.
        threshold: u32,
    },
}

/// Which ranking a [`Query::TopK`] request computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopKKind {
    /// Publishers by article count.
    Publishers,
    /// Events by article count.
    Events,
}

/// One engine analysis, as a value: hashable and comparable, so caches
/// can key on it and batchers can coalesce identical requests.
///
/// `canonical_key` gives a stable, human-readable serialization (also
/// the basis of [`Query::cache_hash`]); `kernel_name` names its span
/// and latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// Country-level co-reporting (Table V) — one CSR pass.
    CoReport,
    /// Follow-reporting among the `top_k` publishers by article count
    /// (Table IV / Fig 7) — a ranking pass plus one CSR pass.
    FollowReport {
        /// Size of the publisher selection.
        top_k: u32,
    },
    /// Country cross-reporting counts and publisher totals
    /// (Tables VI–VII) — one mention and one event table pass.
    CrossCountry,
    /// Per-source publishing-delay statistics (§VI-D) — counting-sort
    /// grouping with exact medians.
    Delay,
    /// A quarterly time series (§VI-F).
    TimeSeries(SeriesKind),
    /// A top-k ranking.
    TopK {
        /// What is being ranked.
        kind: TopKKind,
        /// How many entries to return.
        k: u32,
    },
}

impl Query {
    /// Stable textual form of the query and all its parameters. Two
    /// queries are equal iff their canonical keys are equal, so this is
    /// a valid cache key (and readable in logs).
    pub fn canonical_key(&self) -> String {
        match self {
            Query::CoReport => "coreport".to_string(),
            Query::FollowReport { top_k } => format!("followreport/top_k={top_k}"),
            Query::CrossCountry => "crosscountry".to_string(),
            Query::Delay => "delay".to_string(),
            Query::TimeSeries(SeriesKind::Events) => "timeseries/events".to_string(),
            Query::TimeSeries(SeriesKind::Articles) => "timeseries/articles".to_string(),
            Query::TimeSeries(SeriesKind::ActiveSources) => "timeseries/active_sources".to_string(),
            Query::TimeSeries(SeriesKind::LateArticles { threshold }) => {
                format!("timeseries/late_articles/threshold={threshold}")
            }
            Query::TopK { kind: TopKKind::Publishers, k } => format!("topk/publishers/k={k}"),
            Query::TopK { kind: TopKKind::Events, k } => format!("topk/events/k={k}"),
        }
    }

    /// FNV-1a hash of [`Query::canonical_key`] — a process-independent
    /// 64-bit digest (unlike `std::hash::Hash`, which is randomized per
    /// process), usable for shard selection and on-disk cache keys.
    pub fn cache_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for b in self.canonical_key().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// Stable short kernel name — the span name [`run_query`] records
    /// and the suffix of the `engine_query_us_*` latency histograms in
    /// the global metrics registry. Parameters are not part of the
    /// name: `topk/publishers/k=5` and `k=50` profile as one kernel.
    pub fn kernel_name(&self) -> &'static str {
        match self {
            Query::CoReport => "coreport",
            Query::FollowReport { .. } => "followreport",
            Query::CrossCountry => "crosscountry",
            Query::Delay => "delay",
            Query::TimeSeries(SeriesKind::Events) => "timeseries_events",
            Query::TimeSeries(SeriesKind::Articles) => "timeseries_articles",
            Query::TimeSeries(SeriesKind::ActiveSources) => "timeseries_active_sources",
            Query::TimeSeries(SeriesKind::LateArticles { .. }) => "timeseries_late_articles",
            Query::TopK { kind: TopKKind::Publishers, .. } => "topk_publishers",
            Query::TopK { kind: TopKKind::Events, .. } => "topk_events",
        }
    }

    /// The columns the query reads — the one declaration of them, and
    /// what [`run_query`] checks a dataset holds: the keys every
    /// dataset holds ([`ColumnSet::KEYS`]: event and orphan ids,
    /// `event_row`, the CSR offsets, the source directory) and the columns its kernels scan.
    /// Every series reads both quarter columns, which span its slots.
    pub const fn columns(&self) -> ColumnSet {
        use Column::*;
        let scanned: &[Column] = match self {
            Query::CoReport => &[MentionsSource],
            Query::FollowReport { .. } => &[MentionsSource, MentionsMentionInterval],
            Query::CrossCountry => &[EventsCountry, MentionsSource],
            Query::Delay => &[MentionsSource, MentionsDelay],
            Query::TimeSeries(SeriesKind::Events | SeriesKind::Articles) => {
                &[EventsQuarter, MentionsQuarter]
            }
            Query::TimeSeries(SeriesKind::ActiveSources) => {
                &[EventsQuarter, MentionsQuarter, MentionsSource]
            }
            Query::TimeSeries(SeriesKind::LateArticles { .. }) => {
                &[EventsQuarter, MentionsQuarter, MentionsDelay]
            }
            Query::TopK { kind: TopKKind::Publishers, .. } => &[MentionsSource],
            Query::TopK { kind: TopKKind::Events, .. } => &[],
        };
        ColumnSet::KEYS.union(ColumnSet::of(scanned))
    }

    /// The union of every variant's [`Query::columns`]: what a server
    /// holds, whatever it will be asked.
    pub const SERVED_COLUMNS: ColumnSet = {
        let mut all = ColumnSet::EMPTY;
        let mut i = 0;
        while i < Query::SHAPES.len() {
            all = all.union(Query::SHAPES[i].columns());
            i += 1;
        }
        all
    };

    /// One query of every variant shape.
    const SHAPES: [Query; 10] = [
        Query::CoReport,
        Query::FollowReport { top_k: 0 },
        Query::CrossCountry,
        Query::Delay,
        Query::TimeSeries(SeriesKind::Events),
        Query::TimeSeries(SeriesKind::Articles),
        Query::TimeSeries(SeriesKind::ActiveSources),
        Query::TimeSeries(SeriesKind::LateArticles { threshold: 0 }),
        Query::TopK { kind: TopKKind::Publishers, k: 0 },
        Query::TopK { kind: TopKKind::Events, k: 0 },
    ];

    /// Every kernel name [`Query::kernel_name`] can return.
    pub const KERNEL_NAMES: [&'static str; 10] = [
        "coreport",
        "followreport",
        "crosscountry",
        "delay",
        "timeseries_events",
        "timeseries_articles",
        "timeseries_active_sources",
        "timeseries_late_articles",
        "topk_publishers",
        "topk_events",
    ];
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.canonical_key())
    }
}

/// The result of [`run_query`]: one variant per [`Query`] shape.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Result of [`Query::CoReport`].
    CoReport(CoReport),
    /// Result of [`Query::FollowReport`].
    FollowReport(FollowReport),
    /// Result of [`Query::CrossCountry`].
    CrossCountry(CrossReport),
    /// Result of [`Query::Delay`], indexed by source id.
    Delay(Vec<DelayStats>),
    /// Result of [`Query::TimeSeries`].
    TimeSeries(QuarterlySeries),
    /// Result of [`Query::TopK`] with [`TopKKind::Publishers`].
    TopPublishers(Vec<(SourceId, u64)>),
    /// Result of [`Query::TopK`] with [`TopKKind::Events`] (event rows).
    TopEvents(Vec<(usize, u64)>),
}

/// Per-kernel latency histograms and the total-queries counter,
/// resolved once from the global registry so the per-query cost is a
/// 10-entry scan plus lock-free records — no registry lock, no
/// allocation.
struct KernelMetrics {
    total: std::sync::Arc<gdelt_obs::Counter>,
    by_kernel: Vec<(&'static str, std::sync::Arc<gdelt_obs::Histogram>)>,
}

fn kernel_metrics() -> &'static KernelMetrics {
    static METRICS: std::sync::OnceLock<KernelMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = gdelt_obs::global();
        KernelMetrics {
            total: reg.counter("engine_queries_total"),
            by_kernel: Query::KERNEL_NAMES
                .iter()
                .map(|k| (*k, reg.histogram(&format!("engine_query_us_{k}"))))
                .collect(),
        }
    })
}

/// Run one [`Query`] against `d` under `ctx`: [`partial::execute`] with
/// the whole dataset as its single shard, so the answer is by
/// construction the one a router reassembles from any split of `d`.
///
/// Every call records its latency into the kernel's
/// `engine_query_us_*` histogram and, when tracing is enabled, one
/// `engine`-category span named after [`Query::kernel_name`] whose
/// children are the per-partition spans from the map-reduce skeleton.
///
/// # Panics
///
/// If `d` is projected ([`Dataset::project`]) without a column of
/// [`Query::columns`]; the message names the missing columns. An absent
/// column is empty, so the kernels would answer wrongly, not fail.
pub fn run_query(ctx: &ExecContext, d: &Dataset, q: &Query) -> QueryResult {
    let missing = q.columns().difference(d.columns);
    assert!(missing.is_empty(), "{q} reads columns the dataset does not hold: {missing}");
    let kernel = q.kernel_name();
    let _span = gdelt_obs::span("engine", kernel);
    let t0 = std::time::Instant::now();
    let local = |sq: &ShardQuery| Ok::<_, Infallible>(run_shard_query(ctx, d, sq, 0));
    let result = match partial::execute(q, local) {
        Ok(result) => result,
        Err(never) => match never {},
    };
    let metrics = kernel_metrics();
    metrics.total.inc();
    if let Some((_, hist)) = metrics.by_kernel.iter().find(|(k, _)| *k == kernel) {
        hist.record(t0.elapsed().as_micros() as u64);
    }
    result
}

/// Wall-clock seconds of the aggregated country query in an existing
/// context: [`Query::CrossCountry`] then [`Query::CoReport`]. Only kernel
/// execution is timed: a throwaway warm-up scan runs first so one-time
/// costs of the first parallel region are not billed to the kernels.
pub fn timed_run_in(ctx: &ExecContext, d: &Dataset) -> f64 {
    let _ = ctx.map_reduce(ctx.make_partitions(d.mentions.len()), |p| p.len(), |a, b| a + b);
    let t0 = std::time::Instant::now();
    run_query(ctx, d, &Query::CrossCountry);
    run_query(ctx, d, &Query::CoReport);
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdelt_model::country::CountryRegistry;

    fn dataset() -> Dataset {
        // Reuse the synthetic tiny corpus: realistic structure without
        // hand-built fixtures.
        let cfg = gdelt_synth::scenario::tiny(77);
        gdelt_synth::generate_dataset(&cfg).0
    }

    /// One instance of every `Query` variant shape.
    fn all_variants() -> Vec<Query> {
        vec![
            Query::CoReport,
            Query::FollowReport { top_k: 5 },
            Query::CrossCountry,
            Query::Delay,
            Query::TimeSeries(SeriesKind::Events),
            Query::TimeSeries(SeriesKind::Articles),
            Query::TimeSeries(SeriesKind::ActiveSources),
            Query::TimeSeries(SeriesKind::LateArticles { threshold: 96 }),
            Query::TopK { kind: TopKKind::Publishers, k: 10 },
            Query::TopK { kind: TopKKind::Events, k: 10 },
        ]
    }

    #[test]
    fn canonical_keys_are_distinct_and_stable() {
        let qs = all_variants();
        let keys: std::collections::HashSet<String> = qs.iter().map(Query::canonical_key).collect();
        assert_eq!(keys.len(), qs.len(), "canonical keys must be unique per query");
        // Parameters are part of the key.
        assert_ne!(
            Query::FollowReport { top_k: 5 }.canonical_key(),
            Query::FollowReport { top_k: 6 }.canonical_key()
        );
        // Spot-check stability (serialized form is a public contract).
        assert_eq!(Query::FollowReport { top_k: 10 }.canonical_key(), "followreport/top_k=10");
        assert_eq!(
            Query::TimeSeries(SeriesKind::LateArticles { threshold: 96 }).canonical_key(),
            "timeseries/late_articles/threshold=96"
        );
    }

    #[test]
    fn kernel_names_cover_every_variant_and_feed_metrics() {
        let qs = all_variants();
        let names: std::collections::HashSet<&'static str> =
            qs.iter().map(Query::kernel_name).collect();
        assert_eq!(names.len(), qs.len(), "kernel names must be distinct per shape");
        for q in &qs {
            assert!(Query::KERNEL_NAMES.contains(&q.kernel_name()), "{q}");
        }
        // Parameters collapse onto one kernel.
        assert_eq!(
            Query::FollowReport { top_k: 5 }.kernel_name(),
            Query::FollowReport { top_k: 50 }.kernel_name()
        );
        // run_query records into the kernel's global latency histogram.
        let d = dataset();
        let ctx = ExecContext::builder().threads(1).build();
        let hist = gdelt_obs::global().histogram("engine_query_us_delay");
        let before = hist.count();
        run_query(&ctx, &d, &Query::Delay);
        assert_eq!(hist.count(), before + 1);
    }

    #[test]
    fn cache_hash_tracks_canonical_key() {
        let qs = all_variants();
        let hashes: std::collections::HashSet<u64> = qs.iter().map(Query::cache_hash).collect();
        assert_eq!(hashes.len(), qs.len());
        assert_eq!(Query::Delay.cache_hash(), Query::Delay.cache_hash());
    }

    #[test]
    fn run_query_covers_every_variant() {
        let d = dataset();
        let ctx = ExecContext::builder().threads(2).build();
        for q in all_variants() {
            let r = run_query(&ctx, &d, &q);
            let matches = matches!(
                (q, r),
                (Query::CoReport, QueryResult::CoReport(_))
                    | (Query::FollowReport { .. }, QueryResult::FollowReport(_))
                    | (Query::CrossCountry, QueryResult::CrossCountry(_))
                    | (Query::Delay, QueryResult::Delay(_))
                    | (Query::TimeSeries(_), QueryResult::TimeSeries(_))
                    | (
                        Query::TopK { kind: TopKKind::Publishers, .. },
                        QueryResult::TopPublishers(_)
                    )
                    | (Query::TopK { kind: TopKKind::Events, .. }, QueryResult::TopEvents(_))
            );
            assert!(matches, "{q} returned the wrong result variant");
        }
    }

    fn cross(ctx: &ExecContext, d: &Dataset) -> CrossReport {
        let QueryResult::CrossCountry(cr) = run_query(ctx, d, &Query::CrossCountry) else {
            unreachable!("CrossCountry query yields a CrossCountry result");
        };
        cr
    }

    #[test]
    fn aggregated_query_is_consistent_across_thread_counts() {
        let d = dataset();
        for q in [Query::CrossCountry, Query::CoReport] {
            let seq = run_query(&ExecContext::builder().threads(1).build(), &d, &q);
            let par = run_query(&ExecContext::builder().threads(4).build(), &d, &q);
            assert_eq!(seq, par, "{q}");
        }
    }

    #[test]
    fn publisher_totals_bound_cross_counts() {
        let d = dataset();
        let cross = cross(&ExecContext::builder().threads(2).build(), &d);
        let col_sums = cross.counts.col_sums();
        for (c, &total) in cross.articles_by_publisher.iter().enumerate() {
            assert!(
                col_sums[c] <= total,
                "country {c}: tagged articles {} exceed total {total}",
                col_sums[c]
            );
        }
    }

    #[test]
    fn percentages_are_percentages() {
        let d = dataset();
        let p = cross(&ExecContext::builder().threads(2).build(), &d).percentages();
        for v in p.as_slice() {
            assert!((0.0..=100.0).contains(v), "percentage {v}");
        }
    }

    #[test]
    fn jaccard_is_symmetric_and_bounded() {
        let d = dataset();
        let reg = CountryRegistry::new();
        let ctx = ExecContext::builder().threads(2).build();
        let QueryResult::CoReport(cc) = run_query(&ctx, &d, &Query::CoReport) else {
            unreachable!("CoReport query yields a CoReport result");
        };
        let ids = reg.paper_top10_publishing();
        for &a in &ids {
            for &b in &ids {
                let j = cc.jaccard(a.index(), b.index());
                assert!((0.0..=1.0).contains(&j));
                assert!((j - cc.jaccard(b.index(), a.index())).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn timed_run_in_reuses_the_context() {
        let d = dataset();
        let ctx = ExecContext::builder().threads(2).build();
        for _ in 0..2 {
            let seconds = timed_run_in(&ctx, &d);
            assert!(seconds > 0.0 && seconds.is_finite(), "{seconds} s");
        }
    }
}
