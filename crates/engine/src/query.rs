//! The unified query API and the aggregated country query
//! (paper §VI-G, Fig 12).
//!
//! A server, a cache key, or a batcher needs one value it can dispatch
//! on, hash, and compare — that is [`Query`]: a closed enum of every
//! analysis the engine answers, each variant carrying its parameters.
//! [`run_query`] answers one by running the execution algebra of
//! [`crate::partial`] (plan → round → merge → finalize) with the whole
//! dataset as its single shard; the kernels (`CountryCoReport::build`,
//! the free functions in `delay`/`timeseries`/`topk`, …) are what that
//! algebra's one dispatcher calls.
//!
//! The module also keeps the paper's aggregated country query
//! ([`AggregatedCountryReport`]): one mention-table pass (cross-reporting
//! counts + publisher totals), one event-table pass (events per country),
//! and one CSR pass (country co-reporting). The paper reports 344 s on
//! one thread and 43 s with OpenMP on 64 for this workload; the Fig 12
//! benchmark sweeps thread counts over it via [`timed_run_in`].

use crate::coreport::CountryCoReport;
use crate::crossreport::CrossReport;
use crate::delay::DelayStats;
use crate::exec::ExecContext;
use crate::followreport::FollowReport;
use crate::matrix::Matrix;
use crate::partial::{self, run_shard_query, ShardQuery};
use crate::timeseries::QuarterlySeries;
use gdelt_columnar::Dataset;
use gdelt_model::ids::{CountryId, SourceId};
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
/// the basis of [`Query::cache_hash`]); `cost_estimate` prices the query
/// for admission control.
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

    /// Scan-affinity family: queries in the same family touch the same
    /// tables in the same access pattern, so running them back-to-back
    /// keeps those columns hot in cache. Used by the serve batcher.
    pub fn family(&self) -> &'static str {
        match self {
            Query::CoReport | Query::FollowReport { .. } => "csr",
            Query::CrossCountry | Query::Delay | Query::TopK { .. } => "mentions",
            Query::TimeSeries(_) => "quarters",
        }
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

    /// Admission-control cost estimate: rows scanned × kernel weight, in
    /// units of one streaming pass over a row (what
    /// `TimeSeries(Articles)` costs per mention: 0.4–0.5 ns on one thread
    /// of the reference box). The four report kernels' weights are their
    /// measured one-thread cost per mention over that unit, on the
    /// `scan-large` corpus (2.4 M mentions; EXPERIMENTS.md "Report
    /// kernels without a per-event branch"): FollowReport at `top_k` 10
    /// 4.5–4.7 ns ≈ 11 × (its ranking pass included; every further 8
    /// selected sources add one byte-lane word, ≈ 0.55 ns), Delay
    /// 3.9–4.3 ns ≈ 9 × (at that corpus's 116 sources; a directory of
    /// many small sources costs it more per mention, some 0.3 µs a
    /// source), CoReport 2.9–3.1 ns ≈ 7 ×, CrossCountry 2.6–2.7 ns ≈ 6 ×
    /// (its event-table pass included). Absolute
    /// scale is arbitrary, only ratios matter to the admission
    /// controller, and the largest weight leaves `mentions × weight` nine
    /// orders of magnitude inside `u64` at the paper's 1.09 B mentions.
    /// Always ≥ 1.
    pub fn cost_estimate(&self, d: &Dataset) -> u64 {
        self.cost_estimate_rows(d.events.len() as u64, d.mentions.len() as u64)
    }

    /// [`Query::cost_estimate`] from row counts alone — for callers
    /// (e.g. a shard router) that price queries against a store they
    /// never map, from shard manifests or health frames.
    pub fn cost_estimate_rows(&self, events: u64, mentions: u64) -> u64 {
        let cost = match self {
            Query::CoReport => mentions * 7,
            Query::FollowReport { .. } => mentions * 11,
            Query::CrossCountry => mentions * 6,
            Query::Delay => mentions * 9,
            Query::TimeSeries(SeriesKind::Events) => events,
            Query::TimeSeries(_) => mentions,
            Query::TopK { kind: TopKKind::Publishers, .. } => mentions,
            // Degrees come off the CSR offsets: one word per event.
            Query::TopK { kind: TopKKind::Events, .. } => events,
        };
        cost.max(1)
    }
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
    CoReport(CountryCoReport),
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

impl QueryResult {
    /// The country co-reporting result, if this is one.
    pub fn as_coreport(&self) -> Option<&CountryCoReport> {
        match self {
            QueryResult::CoReport(r) => Some(r),
            _ => None,
        }
    }

    /// The follow-reporting result, if this is one.
    pub fn as_followreport(&self) -> Option<&FollowReport> {
        match self {
            QueryResult::FollowReport(r) => Some(r),
            _ => None,
        }
    }

    /// The cross-country result, if this is one.
    pub fn as_crosscountry(&self) -> Option<&CrossReport> {
        match self {
            QueryResult::CrossCountry(r) => Some(r),
            _ => None,
        }
    }

    /// The per-source delay statistics, if this is a delay result.
    pub fn as_delay(&self) -> Option<&[DelayStats]> {
        match self {
            QueryResult::Delay(r) => Some(r),
            _ => None,
        }
    }

    /// The quarterly series, if this is a time-series result.
    pub fn as_timeseries(&self) -> Option<&QuarterlySeries> {
        match self {
            QueryResult::TimeSeries(r) => Some(r),
            _ => None,
        }
    }

    /// The publisher ranking, if this is one.
    pub fn as_top_publishers(&self) -> Option<&[(SourceId, u64)]> {
        match self {
            QueryResult::TopPublishers(r) => Some(r),
            _ => None,
        }
    }

    /// The event ranking, if this is one.
    pub fn as_top_events(&self) -> Option<&[(usize, u64)]> {
        match self {
            QueryResult::TopEvents(r) => Some(r),
            _ => None,
        }
    }
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
pub fn run_query(ctx: &ExecContext, d: &Dataset, q: &Query) -> QueryResult {
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

/// Everything Tables V–VII need, from one aggregated query.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatedCountryReport {
    /// Cross-reporting counts and publisher totals (Tables VI–VII).
    pub cross: CrossReport,
    /// Country-level co-reporting (Table V).
    pub coreport: CountryCoReport,
}

impl AggregatedCountryReport {
    /// Run the aggregated query — a thin wrapper over [`run_query`] for
    /// the [`Query::CrossCountry`] and [`Query::CoReport`] pair.
    pub fn run(ctx: &ExecContext, d: &Dataset) -> Self {
        let cross = match run_query(ctx, d, &Query::CrossCountry) {
            QueryResult::CrossCountry(c) => c,
            _ => unreachable!("CrossCountry query yields a CrossCountry result"),
        };
        let coreport = match run_query(ctx, d, &Query::CoReport) {
            QueryResult::CoReport(c) => c,
            _ => unreachable!("CoReport query yields a CoReport result"),
        };
        AggregatedCountryReport { cross, coreport }
    }

    /// Table V cell: Jaccard co-reporting between two countries.
    pub fn country_jaccard(&self, a: CountryId, b: CountryId) -> f64 {
        self.coreport.jaccard(a, b)
    }

    /// Table VI cell: articles from `publishing` on events in `reported`.
    pub fn cross_articles(&self, reported: CountryId, publishing: CountryId) -> u64 {
        self.cross.articles(reported, publishing)
    }

    /// Table VII matrix.
    pub fn cross_percentages(&self) -> Matrix<f64> {
        self.cross.percentages()
    }
}

/// Wall-clock the aggregated query in an existing context; returns the
/// result and elapsed seconds. Only kernel execution is timed: a
/// throwaway warm-up scan runs first so one-time costs of the first
/// parallel region (allocator warm-up, page faults on the mention
/// columns) are not billed to the kernel.
pub fn timed_run_in(ctx: &ExecContext, d: &Dataset) -> (AggregatedCountryReport, f64) {
    let _: u64 = ctx.scan(d.mentions.len(), |p| p.len() as u64);
    let t0 = std::time::Instant::now();
    let report = AggregatedCountryReport::run(ctx, d);
    (report, t0.elapsed().as_secs_f64())
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
    fn cost_estimates_are_positive_and_ranked() {
        let d = dataset();
        for q in all_variants() {
            assert!(q.cost_estimate(&d) >= 1, "{q}");
        }
        // The measured order of the report kernels — FollowReport, Delay,
        // CoReport, CrossCountry — and every one of them above every
        // series and ranking.
        let cost = |q: Query| q.cost_estimate(&d);
        assert!(cost(Query::FollowReport { top_k: 10 }) > cost(Query::Delay));
        assert!(cost(Query::Delay) > cost(Query::CoReport));
        assert!(cost(Query::CoReport) > cost(Query::CrossCountry));
        let dash = all_variants().into_iter().filter(|q| q.family() == "quarters");
        let rankings =
            [TopKKind::Publishers, TopKKind::Events].map(|kind| Query::TopK { kind, k: 10 });
        for light in dash.chain(rankings) {
            for report in [Query::CrossCountry, Query::Delay] {
                assert!(cost(report) > cost(light), "{report} against {light}");
            }
        }
        // No weight can overflow at the paper's scale.
        let paper =
            Query::FollowReport { top_k: 10 }.cost_estimate_rows(325_000_000, 1_090_000_000);
        assert!(paper < u64::MAX >> 24);
        // A ranking by degree reads the event index, never the mentions.
        assert!(d.mentions.len() > d.events.len());
        assert!(
            Query::TopK { kind: TopKKind::Events, k: 10 }.cost_estimate(&d)
                <= Query::TimeSeries(SeriesKind::Articles).cost_estimate(&d)
        );
        assert_eq!(Query::TopK { kind: TopKKind::Events, k: 10 }.cost_estimate_rows(7, 100), 7);
        // Cost must be positive even on an empty dataset.
        assert_eq!(Query::Delay.cost_estimate(&Dataset::default()), 1);
    }

    #[test]
    fn run_query_covers_every_variant() {
        let d = dataset();
        let ctx = ExecContext::builder().threads(2).build();
        for q in all_variants() {
            let r = run_query(&ctx, &d, &q);
            let matches = match q {
                Query::CoReport => r.as_coreport().is_some(),
                Query::FollowReport { .. } => r.as_followreport().is_some(),
                Query::CrossCountry => r.as_crosscountry().is_some(),
                Query::Delay => r.as_delay().is_some(),
                Query::TimeSeries(_) => r.as_timeseries().is_some(),
                Query::TopK { kind: TopKKind::Publishers, .. } => r.as_top_publishers().is_some(),
                Query::TopK { kind: TopKKind::Events, .. } => r.as_top_events().is_some(),
            };
            assert!(matches, "{q} returned the wrong result variant");
        }
    }

    #[test]
    fn aggregated_query_is_consistent_across_thread_counts() {
        let d = dataset();
        let seq = AggregatedCountryReport::run(&ExecContext::builder().threads(1).build(), &d);
        let par = AggregatedCountryReport::run(&ExecContext::builder().threads(4).build(), &d);
        assert_eq!(seq, par);
    }

    #[test]
    fn publisher_totals_bound_cross_counts() {
        let d = dataset();
        let r = AggregatedCountryReport::run(&ExecContext::builder().threads(2).build(), &d);
        let col_sums = r.cross.counts.col_sums();
        for (c, &total) in r.cross.articles_by_publisher.iter().enumerate() {
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
        let r = AggregatedCountryReport::run(&ExecContext::builder().threads(2).build(), &d);
        let p = r.cross_percentages();
        for v in p.as_slice() {
            assert!((0.0..=100.0).contains(v), "percentage {v}");
        }
    }

    #[test]
    fn jaccard_is_symmetric_and_bounded() {
        let d = dataset();
        let reg = CountryRegistry::new();
        let r = AggregatedCountryReport::run(&ExecContext::builder().threads(2).build(), &d);
        let ids = reg.paper_top10_publishing();
        for &a in &ids {
            for &b in &ids {
                let j = r.country_jaccard(a, b);
                assert!((0.0..=1.0).contains(&j));
                assert!((j - r.country_jaccard(b, a)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn timed_run_in_reuses_the_context() {
        let d = dataset();
        let ctx = ExecContext::builder().threads(2).build();
        let (a, _) = timed_run_in(&ctx, &d);
        let (b, _) = timed_run_in(&ctx, &d);
        assert_eq!(a, b);
    }
}
