//! End-to-end tests for the query service: correctness against the bare
//! engine, cache invalidation on generation bumps, single-flight
//! coalescing, and admission shedding under a saturated queue.

use std::sync::Arc;
use std::time::Duration;

use gdelt_columnar::Dataset;
use gdelt_engine::{run_query, ExecContext, Query, SeriesKind, TopKKind};
use gdelt_serve::{QueryService, ServeError, ServiceConfig, MAX_QUEUE};

fn dataset() -> Dataset {
    let cfg = gdelt_synth::scenario::tiny(77);
    gdelt_synth::generate_dataset(&cfg).0
}

fn config() -> ServiceConfig {
    ServiceConfig { workers: 2, threads: Some(2), ..Default::default() }
}

#[test]
fn served_results_match_the_bare_engine() {
    let d = dataset();
    let ctx = ExecContext::builder().threads(2).build();
    let service = QueryService::new(d.clone(), config());
    for q in [
        Query::CoReport,
        Query::FollowReport { top_k: 5 },
        Query::CrossCountry,
        Query::Delay,
        Query::TimeSeries(SeriesKind::Events),
        Query::TimeSeries(SeriesKind::LateArticles { threshold: 96 }),
        Query::TopK { kind: TopKKind::Publishers, k: 10 },
        Query::TopK { kind: TopKKind::Events, k: 10 },
    ] {
        let served = service.run(q).expect("query must complete");
        let direct = run_query(&ctx, &d, &q);
        assert_eq!(*served, direct, "{q}");
    }
}

#[test]
fn repeat_queries_hit_the_cache() {
    let service = QueryService::new(dataset(), config());
    let q = Query::TopK { kind: TopKKind::Publishers, k: 10 };
    let first = service.run(q).expect("first run");
    let second = service.run(q).expect("second run");
    // Cache hits hand back the same allocation, not a recomputation.
    assert!(Arc::ptr_eq(&first, &second));
    let m = service.metrics();
    assert!(m.cache.hits >= 1, "expected a cache hit, got {m:?}");
    assert_eq!(m.shed, 0);
}

#[test]
fn generation_bump_invalidates_and_recomputes() {
    let base = dataset();
    let service = QueryService::new(base, config());
    let q = Query::TimeSeries(SeriesKind::Articles);
    let top = Query::TopK { kind: TopKKind::Publishers, k: 10 };
    let before = service.run(q).expect("pre-batch run");
    let top_before = service.run(top).expect("pre-batch ranking");
    assert_eq!(service.generation(), 0);

    // Apply a real batch from a different seed: new events + mentions.
    let batch = gdelt_synth::generate(&gdelt_synth::scenario::tiny(1234));
    let (stats, _clean) = service.apply_batch(batch.events, batch.mentions);
    assert!(stats.new_mentions > 0, "batch must add mentions: {stats:?}");
    assert_eq!(service.generation(), 1);
    assert_eq!(service.metrics().cache.entries, 0, "cache cleared on bump");

    // The same query now recomputes against the merged dataset and must
    // match a direct engine run over a copy of the service's snapshot.
    // The snapshot inherited the quarter span and the source degrees its
    // base had read; the copy starts without them and recomputes them.
    let after = service.run(q).expect("post-batch run");
    let top_after = service.run(top).expect("post-batch ranking");
    assert!(!Arc::ptr_eq(&before, &after), "stale cache entry survived the bump");
    let served = service.dataset();
    let copy = Dataset::clone(&served);
    assert_eq!(served.quarter_span(), copy.quarter_span());
    assert_eq!(served.source_degrees(), copy.source_degrees());
    assert!(served.deep_validate().is_ok(), "{}", served.deep_validate());
    let ctx = ExecContext::builder().threads(2).build();
    assert_eq!(*after, run_query(&ctx, &copy, &q));
    assert_eq!(*top_after, run_query(&ctx, &copy, &top));
    assert_ne!(*before, *after, "batch changed the articles-per-quarter series");
    assert_ne!(*top_before, *top_after, "batch changed the publisher ranking");
}

#[test]
fn identical_in_flight_queries_coalesce() {
    // No workers: submissions stay in-flight, so the second identical
    // submission must join the first job instead of enqueuing.
    let service = QueryService::new(dataset(), ServiceConfig { workers: 0, ..Default::default() });
    let q = Query::Delay;
    let t1 = service.submit(q).expect("first submission admitted");
    let t2 = service.submit(q).expect("identical submission admitted");
    let m = service.metrics();
    assert_eq!(m.coalesced, 1, "single-flight must coalesce the repeat");
    assert_eq!(m.queue_depth, 1, "coalesced ticket releases its admission slot");
    drop(service); // shuts down; both tickets resolve
    assert_eq!(t1.get(), Err(ServeError::ShuttingDown));
    assert_eq!(t2.get(), Err(ServeError::ShuttingDown));
}

#[test]
fn saturated_queue_sheds_with_typed_error() {
    // No workers: MAX_QUEUE distinct queries fill the queue, and the
    // next distinct one sheds.
    let service = QueryService::new(dataset(), ServiceConfig { workers: 0, ..Default::default() });
    let tickets: Vec<_> = (1..=MAX_QUEUE as u32)
        .map(|k| {
            let q = Query::TopK { kind: TopKKind::Publishers, k };
            service.submit(q).unwrap_or_else(|e| panic!("{q} must be admitted: {e}"))
        })
        .collect();
    let err = service.submit(Query::CoReport).expect_err("one past the bound must shed");
    assert_eq!(err, ServeError::Overloaded { queue_depth: 64, queue_limit: 64 });
    let m = service.metrics();
    assert_eq!(m.shed, 1);
    assert_eq!(m.queue_depth, MAX_QUEUE);
    drop(service);
    assert!(tickets.iter().all(|t| t.get() == Err(ServeError::ShuttingDown)));
}

#[test]
fn wait_timeout_is_typed_and_counted() {
    let service = QueryService::new(dataset(), ServiceConfig { workers: 0, ..Default::default() });
    let err = service
        .run_timeout(Query::Delay, Duration::from_millis(20))
        .expect_err("no workers: the wait must expire");
    assert!(matches!(err, ServeError::TimedOut { .. }));
    assert_eq!(service.metrics().timeouts, 1);
}

#[test]
fn disabled_cache_always_recomputes() {
    let service = QueryService::new(dataset(), ServiceConfig { cache_enabled: false, ..config() });
    let q = Query::TopK { kind: TopKKind::Events, k: 5 };
    let a = service.run(q).expect("first");
    let b = service.run(q).expect("second");
    assert_eq!(*a, *b, "recomputation is deterministic");
    let m = service.metrics();
    assert_eq!(m.cache.hits + m.cache.misses, 0, "cache must be bypassed entirely");
    assert_eq!(m.completed, 2, "both runs executed the kernel");
}

#[test]
fn concurrent_clients_get_consistent_results() {
    let service = QueryService::new(dataset(), config());
    let q = Query::TimeSeries(SeriesKind::Events);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..8).map(|_| scope.spawn(|| service.run(q).expect("run"))).collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    for r in &results[1..] {
        assert_eq!(**r, *results[0]);
    }
    let m = service.metrics();
    // Eight identical requests: one kernel execution's worth of misses
    // plus coalesced/cache-hit repeats; never eight full executions.
    assert!(m.completed < 8, "single-flight + cache must dedupe: {m:?}");
}
