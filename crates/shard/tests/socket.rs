//! End-to-end socket integration: real shard stores on disk, real
//! workers behind real TCP connections, a real router — asserting the
//! full tentpole contract:
//!
//! * router answers are bit-identical to single-process `run_query`;
//! * a killed worker degrades the answer to **exactly** the surviving
//!   partition coverage (`ServePartial`) or fails with
//!   `ServeError::Degraded` (`Fail`);
//! * no stale cache entries survive a shard death or a worker rolled
//!   over onto other data;
//! * a revived worker restores full coverage via reconnect;
//! * concurrent identical queries share one scatter, and a caller's
//!   deadline expires while a shard stalls without losing the answer;
//! * a well-framed request the shard cannot size or index gets a typed
//!   error frame, and the worker keeps serving;
//! * a worker whose replies are well framed but do not answer the
//!   request (wrong family, wrong `k`, another source directory's
//!   bitmaps, another matrix shape) degrades like a dead one — the
//!   caller of `Router::query` never panics.

use gdelt_columnar::RetryPolicy;
use gdelt_engine::coreport::CountryCoReport;
use gdelt_engine::filter::Bitmap;
use gdelt_engine::partial::{ShardPartial, ShardQuery};
use gdelt_engine::{run_query, ExecContext, Matrix, Query, SeriesKind, TopKKind};
use gdelt_model::ids::SourceId;
use gdelt_serve::{DegradedPolicy, ServeError};
use gdelt_shard::router::{Router, RouterConfig};
use gdelt_shard::wire::Frame;
use gdelt_shard::worker::{ShardWorker, WorkerConfig};
use gdelt_shard::{split_store, ShardManifest};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, RwLock};
use std::time::{Duration, Instant};

const PARTS: u32 = 8;
const N_SHARDS: u32 = 3;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shard-socket-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A controllable in-process worker: `alive == false` makes it drop
/// connections (existing and new) without replying — to the router
/// that is indistinguishable from a killed process. Flipping it back
/// "revives" the worker on the same port. While `tamper` is set, every
/// reply's partial is rewritten by it before framing — a worker that
/// speaks the protocol but answers something else. Each frame is
/// answered by the current worker, which a roll-over swaps, and every
/// request frame is counted.
struct TestWorker {
    addr: String,
    alive: Arc<AtomicBool>,
    tamper: Arc<Mutex<Option<Tamper>>>,
    current: Arc<RwLock<Arc<ShardWorker>>>,
    requests: Arc<AtomicU64>,
}

type Tamper = fn(ShardPartial) -> ShardPartial;

impl TestWorker {
    fn spawn(worker: Arc<ShardWorker>) -> TestWorker {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let alive = Arc::new(AtomicBool::new(true));
        let accept_alive = Arc::clone(&alive);
        let tamper = Arc::new(Mutex::new(None::<Tamper>));
        let accept_tamper = Arc::clone(&tamper);
        let current = Arc::new(RwLock::new(worker));
        let accept_current = Arc::clone(&current);
        let requests = Arc::new(AtomicU64::new(0));
        let accept_requests = Arc::clone(&requests);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                if !accept_alive.load(Ordering::Acquire) {
                    continue; // dropped before hello: dial fails
                }
                let c = Arc::clone(&accept_current);
                let a = Arc::clone(&accept_alive);
                let t = Arc::clone(&accept_tamper);
                let n = Arc::clone(&accept_requests);
                std::thread::spawn(move || {
                    let w = || Arc::clone(&c.read().unwrap());
                    if Frame::Hello(w().hello()).write_to(&mut stream).is_err() {
                        return;
                    }
                    loop {
                        let Ok(frame) = Frame::read_from(&mut stream) else { return };
                        if !a.load(Ordering::Acquire) {
                            return; // die mid-request: peer sees EOF
                        }
                        if matches!(frame, Frame::Request(_)) {
                            n.fetch_add(1, Ordering::Relaxed);
                        }
                        let reply = match (w().handle(frame), *t.lock().unwrap()) {
                            (Frame::Reply { generation, partial, flight }, Some(tamper)) => {
                                Frame::Reply { generation, partial: tamper(partial), flight }
                            }
                            (reply, _) => reply,
                        };
                        if reply.write_to(&mut stream).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        TestWorker { addr, alive, tamper, current, requests }
    }

    /// Swap the worker behind the listener, as a store roll-over does.
    fn roll_over(&self, worker: Arc<ShardWorker>) {
        *self.current.write().unwrap() = worker;
    }

    /// Request frames answered so far.
    fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    fn tamper(&self, with: Option<Tamper>) {
        *self.tamper.lock().unwrap() = with;
    }

    fn kill(&self) {
        self.alive.store(false, Ordering::Release);
    }

    fn revive(&self) {
        self.alive.store(true, Ordering::Release);
    }
}

struct Fixture {
    dataset: gdelt_columnar::Dataset,
    manifest: ShardManifest,
    workers: Vec<TestWorker>,
    dir: PathBuf,
}

/// Save `dataset` under `dir`, split it into the shard stores and load
/// one worker per shard. With `stall_ms`, shard 0 sleeps that long
/// before answering its first request.
fn shard_workers(
    dataset: &gdelt_columnar::Dataset,
    dir: &Path,
    stall_ms: Option<u64>,
) -> (ShardManifest, Vec<Arc<ShardWorker>>) {
    std::fs::create_dir_all(dir).expect("create store dir");
    let store = dir.join("store.gdhpc");
    gdelt_columnar::binfmt::save_with_partitions(&store, dataset, PARTS).expect("save");
    let shard_dir = dir.join("shards");
    let manifest = split_store(&store, &shard_dir, N_SHARDS).expect("split");
    assert_eq!(manifest, ShardManifest::load(&shard_dir).expect("manifest reload"));
    let workers = (0..N_SHARDS as usize)
        .map(|i| {
            let e = &manifest.shards[i];
            let mut cfg = WorkerConfig::new(
                manifest.shard_path(&shard_dir, i),
                i as u32,
                e.partitions,
                e.ev_row_base,
            );
            if let (0, Some(ms)) = (i, stall_ms) {
                cfg.fault_delay_at = Some(0);
                cfg.fault_delay_ms = ms;
            }
            ShardWorker::load(cfg).expect("load shard")
        })
        .collect();
    (manifest, workers)
}

fn fixture(tag: &str) -> Fixture {
    stalled_fixture(tag, None)
}

fn stalled_fixture(tag: &str, stall_ms: Option<u64>) -> Fixture {
    let dir = temp_dir(tag);
    let dataset = gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(7)).0;
    let (manifest, workers) = shard_workers(&dataset, &dir, stall_ms);
    let workers = workers.into_iter().map(TestWorker::spawn).collect();
    Fixture { dataset, manifest, workers, dir }
}

fn router(f: &Fixture, policy: DegradedPolicy, cache: bool) -> Router {
    Router::new(
        f.manifest.clone(),
        RouterConfig {
            addrs: f.workers.iter().map(|w| w.addr.clone()).collect(),
            policy,
            cache_enabled: cache,
            read_timeout: Duration::from_secs(5),
            reconnect: RetryPolicy {
                max_retries: 1,
                backoff: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(5),
            },
        },
    )
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
        Query::TopK { kind: TopKKind::Publishers, k: 5 },
        Query::TopK { kind: TopKKind::Events, k: 5 },
    ]
}

#[test]
fn router_is_bit_identical_to_single_process() {
    let f = fixture("identical");
    let r = router(&f, DegradedPolicy::ServePartial, true);
    let ctx = ExecContext::builder().threads(2).build();
    for q in all_queries() {
        let expect = run_query(&ctx, &f.dataset, &q);
        let got = r.query(&q).expect("router answer");
        assert!(got.coverage.is_full(), "{q}: full coverage expected");
        assert_eq!(*got.result, expect, "{q}: router vs single-process");
        // Second ask is a cache hit and still identical.
        let again = r.query(&q).expect("cached answer");
        assert_eq!(*again.result, expect, "{q}: cached");
    }
    let stats = r.stats();
    let n = all_queries().len() as u64;
    assert_eq!(stats.completed, 2 * n);
    assert_eq!(stats.hits, n);
    assert_eq!(stats.misses, n);
    assert_eq!(stats.completed, stats.hits + stats.misses, "hit/miss invariant");
}

#[test]
fn shard_death_degrades_to_exact_surviving_coverage() {
    let f = fixture("degrade");
    let r = router(&f, DegradedPolicy::ServePartial, true);
    let q = Query::CrossCountry;

    let full = r.query(&q).expect("initial answer");
    assert!(full.coverage.is_full());

    // Kill shard 1 (its partition range per shard_range(8,3,1) is
    // [2,5) — 3 partitions), so exactly 5 of 8 survive.
    f.workers[1].kill();
    let dead_parts = f.manifest.shards[1].partitions;
    let live_parts = f.manifest.source_partitions - dead_parts;

    // The router learns of the death on its next shard contact; the
    // probe detects it and invalidates the cache, so the pre-kill
    // full-coverage entry can never be served past this point.
    let gen_before = r.generation();
    let probed = r.probe();
    assert!(probed[1].is_none(), "dead shard must fail its health probe");
    let degraded = r.query(&q).expect("degraded answer");
    assert_eq!(degraded.coverage.live, live_parts, "exact surviving coverage");
    assert_eq!(degraded.coverage.total, f.manifest.source_partitions);
    assert!(r.generation() > gen_before, "shard loss must bump the cache generation");

    // No stale cache: the full-coverage entry inserted before the kill
    // must not be served now. A fresh ask recomputes (miss), and the
    // degraded answer is never cached, so asking twice is two misses.
    let s1 = r.stats();
    let again = r.query(&q).expect("degraded answer again");
    let s2 = r.stats();
    assert_eq!(again.coverage.live, live_parts);
    assert_eq!(s2.misses, s1.misses + 1, "degraded answers are never cache hits");
    assert_eq!(s2.completed, s2.hits + s2.misses, "hit/miss invariant under degradation");
    assert!(s2.degraded >= 2);

    // The degraded answer equals single-process run_query over only
    // the surviving shards' rows — verified via the coverage fraction
    // here; bit-level equality of partial answers is pinned by the
    // chaos arm against restrict_to_partitions.

    // Revive: reconnect restores full coverage and the answer matches
    // the pre-kill full answer bit-for-bit.
    f.workers[1].revive();
    let recovered = r.query(&q).expect("recovered answer");
    assert!(recovered.coverage.is_full(), "full coverage after revive");
    assert_eq!(recovered.result, full.result, "recovered answer identical");
}

#[test]
fn fail_policy_refuses_partial_answers() {
    let f = fixture("failpolicy");
    let r = router(&f, DegradedPolicy::Fail, false);
    assert!(r.query(&Query::CoReport).is_ok());
    f.workers[0].kill();
    f.workers[2].kill();
    let live = f.manifest.shards[1].partitions;
    match r.query(&Query::CoReport) {
        Err(ServeError::Degraded { live: l, total }) => {
            assert_eq!(l, live);
            assert_eq!(total, f.manifest.source_partitions);
        }
        other => panic!("expected Degraded, got {other:?}"),
    }
    // All shards dead: Degraded { live: 0 } regardless of policy.
    f.workers[1].kill();
    match r.query(&Query::CoReport) {
        Err(ServeError::Degraded { live: 0, total }) => {
            assert_eq!(total, f.manifest.source_partitions)
        }
        other => panic!("expected Degraded 0, got {other:?}"),
    }
}

/// A worker rolled over onto other data behind a live listener (what
/// `gdbench shard-scatter`'s write does) answers under its new store's
/// identity, so the router's next probe drops the cached answer and the
/// next ask recomputes over the new data.
#[test]
fn rolled_over_workers_invalidate_the_cache() {
    let f = fixture("rollover");
    let r = router(&f, DegradedPolicy::ServePartial, true);
    let q = Query::TimeSeries(SeriesKind::Events);
    let before = r.query(&q).expect("prime cache");

    let next = gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(8)).0;
    let (_, fresh) = shard_workers(&next, &f.dir.join("next"), None);
    for (w, fresh) in f.workers.iter().zip(fresh) {
        w.roll_over(fresh);
    }
    let probed = r.probe();
    assert_eq!(probed.iter().flatten().count(), 3, "all shards probed live");

    let hits = r.stats().hits;
    let after = r.query(&q).expect("recomputed answer");
    assert_eq!(r.stats().hits, hits, "the pre-roll-over answer was served from the cache");
    assert!(after.coverage.is_full());
    let ctx = ExecContext::builder().threads(2).build();
    assert_eq!(*after.result, run_query(&ctx, &next, &q), "answer over the new data");
    assert_ne!(after.result, before.result, "the new corpus changes the answer");
}

/// While shard 0 stalls, eight concurrent identical queries coalesce
/// onto one scatter: one request per shard, seven coalesced tickets.
#[test]
fn concurrent_identical_queries_share_one_scatter() {
    let f = stalled_fixture("coalesce", Some(500));
    let r = router(&f, DegradedPolicy::ServePartial, true);
    let q = Query::CrossCountry;
    let start = Barrier::new(8);
    let answers: Vec<_> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    r.query(&q).expect("answer")
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client thread")).collect()
    });
    let ctx = ExecContext::builder().threads(2).build();
    let expect = run_query(&ctx, &f.dataset, &q);
    for a in &answers {
        assert!(a.coverage.is_full());
        assert_eq!(*a.result, expect);
    }
    for (i, w) in f.workers.iter().enumerate() {
        assert_eq!(w.requests(), 1, "shard {i}: one request for eight queries");
    }
    let m = r.metrics();
    assert_eq!((m.coalesced, m.completed), (7, 1), "{m:?}");
}

/// A caller's deadline expires while a shard stalls; the scatter runs
/// on, and a later ask is a cache hit with the full answer.
#[test]
fn run_timeout_expires_during_a_stall_and_the_answer_is_cached() {
    let f = stalled_fixture("deadline", Some(500));
    let r = router(&f, DegradedPolicy::ServePartial, true);
    let q = Query::Delay;
    match r.run_timeout(q, Duration::from_millis(50)) {
        Err(ServeError::TimedOut { .. }) => {}
        other => panic!("expected TimedOut, got {other:?}"),
    }
    assert_eq!(r.metrics().timeouts, 1);
    let deadline = Instant::now() + Duration::from_secs(10);
    while r.metrics().cache.entries == 0 {
        assert!(Instant::now() < deadline, "the stalled scatter never completed");
        std::thread::sleep(Duration::from_millis(10));
    }
    let hits = r.stats().hits;
    let ans = r.query(&q).expect("cached answer");
    assert_eq!(r.stats().hits, hits + 1, "the later ask is a cache hit");
    assert!(ans.coverage.is_full());
    let ctx = ExecContext::builder().threads(2).build();
    assert_eq!(*ans.result, run_query(&ctx, &f.dataset, &q));
}

#[test]
fn metrics_federation_over_the_wire() {
    let f = fixture("federation");
    let r = router(&f, DegradedPolicy::ServePartial, false);
    for q in all_queries() {
        r.query(&q).expect("scatter answer");
    }

    let scraped = r.scrape_metrics();
    assert_eq!(scraped.len(), N_SHARDS as usize);
    let parts: Vec<(String, gdelt_obs::RegistrySnapshot)> = scraped
        .into_iter()
        .enumerate()
        .map(|(i, s)| (i.to_string(), s.expect("healthy shard scrapes")))
        .collect();
    for (label, snap) in &parts {
        let h = snap
            .hists
            .get("shard_worker_query_us")
            .unwrap_or_else(|| panic!("shard {label} snapshot missing the query histogram"));
        assert!(h.count > 0, "shard {label} forwarded an empty query histogram");
    }

    // The federated view obeys the merge law: its count is exactly the
    // sum of the per-shard counts (associativity/commutativity of the
    // underlying merge is proptest-pinned in the obs crate).
    let sum: u64 = parts.iter().map(|(_, s)| s.hists["shard_worker_query_us"].count).sum();
    let mut fed = gdelt_obs::RegistrySnapshot::default();
    for (_, part) in &parts {
        fed.merge(part);
    }
    assert_eq!(fed.hists["shard_worker_query_us"].count, sum, "federated count = per-shard sum");

    // And the rendered exposition carries both views and passes the
    // strict validator.
    let text = gdelt_obs::render_federated(&parts);
    gdelt_obs::validate_prometheus(&text).expect("federated exposition validates");
    assert!(
        text.contains("shard_worker_query_us_count{shard=\"0\"}"),
        "per-shard labeled sample missing:\n{text}"
    );
}

#[test]
fn worker_rejects_unsupported_frames_with_typed_error() {
    let f = fixture("badframe");
    let mut stream = std::net::TcpStream::connect(&f.workers[0].addr).expect("connect");
    let hello = Frame::read_from(&mut stream).expect("hello");
    // A worker sends hellos; it never serves one.
    hello.write_to(&mut stream).expect("send");
    match Frame::read_from(&mut stream).expect("reply") {
        Frame::Error { code, message } => {
            assert_eq!(code, 1);
            assert!(message.contains("unsupported"), "{message}");
        }
        other => panic!("expected error frame, got {other:?}"),
    }
}

/// A well-framed `FollowReportWith` whose subset the shard cannot size
/// or index is refused with a typed error before any kernel allocates
/// from it (a million ids would be an 8 TB matrix per partition and an
/// abort), and the connection keeps serving.
#[test]
fn hostile_follow_subsets_get_a_typed_error_and_the_worker_keeps_serving() {
    let f = fixture("hostile");
    let n_sources = f.dataset.sources.len() as u32;
    let mut stream = std::net::TcpStream::connect(&f.workers[0].addr).expect("connect");
    let _ = Frame::read_from(&mut stream).expect("hello");
    let mut ask = |sq: ShardQuery| {
        Frame::Request(sq).write_to(&mut stream).expect("send");
        Frame::read_from(&mut stream).expect("reply")
    };
    let follow = |ids: Vec<u32>| ShardQuery::FollowReportWith {
        sources: ids.into_iter().map(SourceId).collect(),
    };
    let hostile = [
        ("longer than the directory", (0..1_000_000).collect(), "1000000 sources"),
        ("an id outside the directory", vec![0, n_sources], "names source"),
        ("a duplicate id", vec![2, 0, 2], "twice"),
    ];
    for (what, ids, line) in hostile {
        match ask(follow(ids)) {
            Frame::Error { code, message } => {
                assert_eq!(code, 2, "{what}");
                assert!(message.contains("refused") && message.contains(line), "{what}: {message}");
            }
            other => panic!("{what}: expected an error frame, got {other:?}"),
        }
        // The next well-formed request on the same connection is answered.
        match ask(follow(vec![1, 0])) {
            Frame::Reply { partial: ShardPartial::FollowReport(r), .. } => {
                assert_eq!(r.subset, vec![SourceId(1), SourceId(0)], "after {what}");
                assert_eq!(r.follow_counts.rows(), 2);
            }
            other => panic!("after {what}: expected a follow reply, got {other:?}"),
        }
    }
    // The whole directory, each source once, is the largest subset served.
    match ask(follow((0..n_sources).collect())) {
        Frame::Reply { partial: ShardPartial::FollowReport(r), .. } => {
            assert_eq!(r.articles.len(), n_sources as usize)
        }
        other => panic!("expected a follow reply, got {other:?}"),
    }
}

/// The mismatches a well-framed reply can carry: what is wrong, the
/// query whose scatter it poisons, the rewrite, and what the router's
/// flight-recorder line says about it (refused against the request
/// sent, or against the running merge).
fn mismatched_replies() -> Vec<(&'static str, Query, Tamper, &'static str)> {
    const NO_ANSWER: &str = "does not answer";
    const NO_MERGE: &str = "does not merge";
    vec![
        (
            "wrong family",
            Query::CoReport,
            |_| ShardPartial::PublisherCounts(vec![1, 2, 3]),
            NO_ANSWER,
        ),
        (
            "wrong family",
            Query::Delay,
            |_| ShardPartial::TopEvents { k: 5, entries: Vec::new() },
            NO_ANSWER,
        ),
        (
            "wrong k",
            Query::TopK { kind: TopKKind::Events, k: 5 },
            |p| match p {
                ShardPartial::TopEvents { k, entries } => {
                    ShardPartial::TopEvents { k: k - 1, entries }
                }
                other => other,
            },
            NO_ANSWER,
        ),
        (
            "shorter source bitmap",
            Query::TimeSeries(SeriesKind::ActiveSources),
            |p| match p {
                ShardPartial::ActiveSources(mut a) => {
                    for bm in a.quarters.iter_mut() {
                        *bm = Bitmap::new(bm.len() - 1);
                    }
                    ShardPartial::ActiveSources(a)
                }
                other => other,
            },
            NO_MERGE,
        ),
        (
            "different matrix shape",
            Query::CoReport,
            |p| match p {
                ShardPartial::CoReport(_) => ShardPartial::CoReport(CountryCoReport {
                    pairs: Matrix::zeros(3, 3),
                    event_counts: vec![0; 3],
                }),
                other => other,
            },
            NO_MERGE,
        ),
    ]
}

#[test]
fn mismatched_reply_degrades_like_a_lost_shard() {
    let f = fixture("mismatch");
    let r = router(&f, DegradedPolicy::ServePartial, true);
    let ctx = ExecContext::builder().threads(2).build();
    let survivors = f.manifest.source_partitions - f.manifest.shards[1].partitions;
    for (what, q, tamper, line) in mismatched_replies() {
        f.workers[1].tamper(Some(tamper));
        let losses = gdelt_obs::global().counter("router_shard_loss").get();
        let got = r.query(&q).unwrap_or_else(|e| panic!("{what} on {q}: {e:?}"));
        assert_eq!(got.coverage.live, survivors, "{what} on {q}: exact surviving coverage");
        assert_eq!(got.coverage.total, f.manifest.source_partitions);
        assert!(gdelt_obs::global().counter("router_shard_loss").get() > losses, "{what}");
        let lost = gdelt_obs::flight_snapshot();
        assert!(
            lost.iter().any(|e| e.code == "shard_lost" && e.detail.contains(line)),
            "{what} on {q}: no `shard_lost … {line}` line on the flight recorder"
        );
        // Nothing degraded is cached: with the worker honest again the
        // same ask is a full, bit-identical answer.
        f.workers[1].tamper(None);
        let healed = r.query(&q).expect("healed answer");
        assert!(healed.coverage.is_full(), "{what} on {q}: coverage after heal");
        assert_eq!(*healed.result, run_query(&ctx, &f.dataset, &q), "{what} on {q}");
    }
}

#[test]
fn mismatched_reply_under_fail_policy_is_a_typed_error() {
    let f = fixture("mismatchfail");
    let r = router(&f, DegradedPolicy::Fail, false);
    let survivors = f.manifest.source_partitions - f.manifest.shards[1].partitions;
    for (what, q, tamper, _) in mismatched_replies() {
        f.workers[1].tamper(Some(tamper));
        match r.query(&q) {
            Err(ServeError::Degraded { live, total }) => {
                assert_eq!((live, total), (survivors, f.manifest.source_partitions), "{what}")
            }
            other => panic!("{what} on {q}: expected Degraded, got {other:?}"),
        }
    }
    // Every shard lying: nothing to merge, still a typed error.
    for w in &f.workers {
        w.tamper(Some(|_| ShardPartial::PublisherCounts(Vec::new())));
    }
    match r.query(&Query::CrossCountry) {
        Err(ServeError::Degraded { live: 0, total }) => {
            assert_eq!(total, f.manifest.source_partitions)
        }
        other => panic!("expected Degraded 0, got {other:?}"),
    }
}
