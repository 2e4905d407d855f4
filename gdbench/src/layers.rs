//! Layer probes: each layer driven on its own, from outside, on the
//! workload's own corpus. They run after the traced replay and feed the
//! per-layer metrics only; nothing here is gated.
//!
//! The README's interaction table says which end-to-end metric each of
//! these should move, on which workload, and where no change is predicted.

use crate::corpus::{Slice, Tsv};
use crate::ops::{all_queries, DASH, REPORT};
use crate::runner::timed as secs;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::shard_scatter::{
    router_bundle, router_over, worker_config, Endpoint, SHARDS,
};
use gdelt_columnar::binfmt::{load, save_with_partitions, DEFAULT_STORE_PARTITIONS};
use gdelt_columnar::incremental::append_batch;
use gdelt_columnar::{Dataset, DatasetBuilder};
use gdelt_engine::partial::{self, plan, subset_from_counts, ShardPartial, ShardPlan, ShardQuery};
use gdelt_engine::{run_query, ExecContext, Query, SeriesKind};
use gdelt_serve::{QueryService, ServiceConfig};
use gdelt_shard::{split_store, Frame, ShardWorker};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Metrics = Vec<(String, f64)>;

/// Seconds per call of `f`: at least `min` calls, then more until
/// `budget` is spent or `max` calls are made.
fn sample<T>(min: usize, max: usize, budget: Duration, mut f: impl FnMut() -> T) -> Vec<f64> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (out.len() < max && started.elapsed() < budget) {
        let (kept, s) = secs(&mut f);
        out.push(s);
        drop(kept);
    }
    out
}

/// A few calls of something slow, or up to fifty of something fast.
fn p50<T>(f: impl FnMut() -> T) -> f64 {
    median(&sample(5, 50, Duration::from_millis(150), f))
}

/// Run every layer probe; returns the csv, columnar, engine, exec, serve
/// and shard metrics.
pub fn probe(tsv: &Tsv, slices: Vec<Slice>, threads: usize, dir: &Path) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let ctx = ExecContext::builder().threads(threads).build();
    let store = dir.join("probe.gdhpc");
    let d = ingest_and_store(&mut m, tsv, &slices, &store)?;
    let bare = engine(&mut m, &ctx, &d);
    exec(&mut m, &ctx, &d, &bare);
    serve(&mut m, d.clone(), slices, threads, &bare)?;
    shard(&mut m, &store, &dir.join("probe-shards"), &bare)?;
    Ok(m)
}

/// csv.* and columnar.*: raw text through the builder into a store, the
/// store back into memory, and one copy-on-write append.
fn ingest_and_store(
    m: &mut Metrics,
    tsv: &Tsv,
    slices: &[Slice],
    store: &Path,
) -> Result<Dataset, String> {
    let (mut parse_ev, mut parse_mn, mut build) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..2 {
        let mut b = DatasetBuilder::new();
        b.ingest_masterlist(&tsv.masterlist);
        parse_ev.push(secs(|| b.ingest_events_text(&tsv.events)).1);
        parse_mn.push(secs(|| b.ingest_mentions_text(&tsv.mentions)).1);
        let (out, s) = secs(|| b.build());
        build.push(s);
        built = Some(out);
    }
    let (d, clean) = built.expect("two builds ran");
    let rows = (d.events.len() + d.mentions.len()) as f64;
    m.push(("csv.parse_events_mb_s".into(), tsv.events.len() as f64 / 1e6 / median(&parse_ev)));
    m.push(("csv.parse_mentions_mb_s".into(), tsv.mentions.len() as f64 / 1e6 / median(&parse_mn)));
    m.push(("csv.bad_lines".into(), (clean.bad_event_lines + clean.bad_mention_lines) as f64));
    m.push(("columnar.build_mrows_s".into(), rows / 1e6 / median(&build)));

    let io = |what: &str, e: std::io::Error| format!("{what} {}: {e}", store.display());
    let mut save = Vec::new();
    for _ in 0..3 {
        let (out, s) = secs(|| save_with_partitions(store, &d, DEFAULT_STORE_PARTITIONS));
        out.map_err(|e| io("save", e))?;
        save.push(s);
    }
    let bytes = std::fs::metadata(store).map_err(|e| io("stat", e))?.len() as f64;
    let mut reload = Vec::new();
    for _ in 0..3 {
        let (out, s) = secs(|| load(store));
        out.map_err(|e| io("load", e))?;
        reload.push(s);
    }
    m.push(("columnar.save_mb_s".into(), bytes / 1e6 / median(&save)));
    m.push(("columnar.load_mb_s".into(), bytes / 1e6 / median(&reload)));
    m.push(("columnar.store_bytes_per_row".into(), bytes / rows));

    let appends: Vec<f64> = slices
        .iter()
        .take(5)
        .map(|(ev, mn)| secs(|| append_batch(&d, ev.clone(), mn.clone())).1 * 1e3)
        .collect();
    m.push(("columnar.append_batch_ms".into(), median(&appends)));
    Ok(d)
}

/// engine.<kernel>.*: every kernel alone through `run_query`. Returns
/// each query's median seconds, in `REPORT` then `DASH` order.
fn engine(m: &mut Metrics, ctx: &ExecContext, d: &Dataset) -> Vec<f64> {
    all_queries()
        .iter()
        .map(|q| {
            let s = p50(|| run_query(ctx, d, q));
            // Rows of the table the kernel is driven by.
            let rows = match q {
                Query::TimeSeries(SeriesKind::Events) => d.events.len(),
                _ => d.mentions.len(),
            };
            m.push((format!("engine.{}.p50_us", q.kernel_name()), s * 1e6));
            m.push((format!("engine.{}.mrows_s", q.kernel_name()), rows as f64 / 1e6 / s));
            s
        })
        .collect()
}

/// exec.*: what one parallel region costs with nothing in it, and what
/// the threads buy (Fig 12 at two points: one thread over all of them).
fn exec(m: &mut Metrics, ctx: &ExecContext, d: &Dataset, bare: &[f64]) {
    let n = d.mentions.len();
    let empty = median(&sample(200, 200, Duration::ZERO, || {
        ctx.map_reduce(ctx.make_partitions(n), |p| p.len() as u64, |a, b| a + b)
    }));
    m.push(("exec.map_reduce_empty_us".into(), empty * 1e6));
    m.push(("exec.partitions".into(), ctx.make_partitions(n).len() as f64));
    let one = ExecContext::builder().threads(1).build();
    let queries = all_queries();
    for (name, q) in [
        ("exec.speedup_coreport", Query::CoReport),
        ("exec.speedup_timeseries_articles", Query::TimeSeries(SeriesKind::Articles)),
    ] {
        let at = queries.iter().position(|x| *x == q).expect("both are bundle queries");
        m.push((name.into(), p50(|| run_query(&one, d, &q)) / bare[at]));
    }
}

/// serve.*: the service around the same kernels — what a miss adds to a
/// bare `run_query`, what a hit costs, and the counters of the run.
fn serve(
    m: &mut Metrics,
    d: Dataset,
    slices: Vec<Slice>,
    threads: usize,
    bare: &[f64],
) -> Result<(), String> {
    let config = ServiceConfig {
        workers: 1,
        cache_enabled: true,
        threads: Some(threads),
        ..ServiceConfig::default()
    };
    let svc = QueryService::new(d, config);
    let queries = all_queries();
    let (mut apply, mut miss, mut hit) = (Vec::new(), Vec::new(), Vec::new());
    for (events, mentions) in slices.into_iter().take(5) {
        apply.push(secs(|| svc.apply_batch(events, mentions)).1 * 1e3);
        let mut round = 0.0;
        for q in &queries {
            let (out, s) = secs(|| svc.run(*q));
            out.map_err(|e| format!("serve probe miss {q}: {e}"))?;
            round += s;
        }
        miss.push(round / queries.len() as f64);
        for q in &queries {
            let (out, s) = secs(|| svc.run(*q));
            out.map_err(|e| format!("serve probe hit {q}: {e}"))?;
            hit.push(s);
        }
    }
    // Two closed-loop clients replaying hits: with one, the rate is only
    // the reciprocal of the hit latency.
    let window = Duration::from_millis(250);
    let (replayed, elapsed) = secs(|| {
        std::thread::scope(|s| {
            let clients: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let started = Instant::now();
                        let mut done = 0u64;
                        while started.elapsed() < window {
                            done += queries.iter().filter(|q| svc.run(**q).is_ok()).count() as u64;
                        }
                        done
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().expect("hit client panicked")).sum::<u64>()
        })
    });
    let snapshot = svc.metrics();
    let bare_mean = bare.iter().sum::<f64>() / bare.len() as f64;
    m.push(("serve.miss_p50_us".into(), median(&miss) * 1e6));
    m.push(("serve.hit_p50_us".into(), median(&hit) * 1e6));
    m.push(("serve.miss_overhead_us".into(), (median(&miss) - bare_mean) * 1e6));
    m.push(("serve.hit_qps".into(), replayed as f64 / elapsed));
    m.push(("serve.hit_ratio".into(), snapshot.cache.hit_rate()));
    m.push(("serve.coalesced".into(), snapshot.coalesced as f64));
    m.push(("serve.shed".into(), snapshot.shed as f64));
    m.push(("serve.timeouts".into(), snapshot.timeouts as f64));
    m.push(("serve.invalidated".into(), snapshot.cache.invalidations as f64));
    m.push(("serve.apply_batch_ms".into(), median(&apply)));
    Ok(())
}

/// The shard queries the ten bundle queries scatter as, with the bundle
/// each belongs to. A follow-report is two rounds; its second needs the
/// merged publisher counts, taken from `counts`.
fn shard_queries(counts: &[u64]) -> Vec<(bool, Query, ShardQuery)> {
    let mut out = Vec::new();
    for (i, q) in all_queries().into_iter().enumerate() {
        let is_report = i < REPORT.len();
        match plan(&q) {
            ShardPlan::Direct(sq) => out.push((is_report, q, sq)),
            ShardPlan::PublishersThenFollow { top_k } => {
                out.push((is_report, q, ShardQuery::PublisherCounts));
                let sources = subset_from_counts(counts, top_k as usize);
                out.push((is_report, q, ShardQuery::FollowReportWith { sources }));
            }
        }
    }
    out
}

/// shard.*: split, worker load, the worker's answer without a socket,
/// the wire codec on real reply frames, merge and finalize, and the
/// router over loopback TCP against the same ten queries run locally.
fn shard(m: &mut Metrics, store: &Path, shard_dir: &Path, bare: &[f64]) -> Result<(), String> {
    let (manifest, split_s) = secs(|| split_store(store, shard_dir, SHARDS));
    let manifest = manifest.map_err(|e| format!("split {}: {e}", store.display()))?;
    let mut workers: Vec<Arc<ShardWorker>> = Vec::new();
    let mut load_ms = Vec::new();
    for shard in 0..manifest.shards.len() {
        let (w, s) = secs(|| ShardWorker::load(worker_config(&manifest, shard_dir, shard)));
        workers.push(w.map_err(|e| format!("load shard {shard}: {e}"))?);
        load_ms.push(s * 1e3);
    }

    let ask = |w: &ShardWorker, sq: &ShardQuery| w.handle(Frame::Request(sq.clone()));
    let partial_of = |reply: &Frame| match reply {
        Frame::Reply { partial, .. } => Ok(partial.clone()),
        other => Err(format!("worker answered {other:?}")),
    };
    let mut counts: Option<ShardPartial> = None;
    for w in &workers {
        let p = partial_of(&ask(w, &ShardQuery::PublisherCounts))?;
        counts = Some(match counts {
            None => p,
            Some(c) => c.merge(p),
        });
    }
    let Some(ShardPartial::PublisherCounts(counts)) = counts else {
        return Err("publisher counts did not merge to counts".into());
    };

    let (mut handle_all, mut slowest_handle_s, mut merge_s) = (Vec::new(), 0.0, 0.0);
    let (mut bytes_report, mut bytes_dash) = (0usize, 0usize);
    let (mut encode_s, mut decode_s) = (0.0, 0.0);
    for (is_report, q, sq) in shard_queries(&counts) {
        let mut slowest: f64 = 0.0;
        let mut replies = Vec::new();
        for w in &workers {
            let s = median(&sample(3, 3, Duration::ZERO, || ask(w, &sq)));
            handle_all.push(s);
            slowest = slowest.max(s);
            replies.push(ask(w, &sq));
        }
        slowest_handle_s += slowest;
        for reply in &replies {
            let (bytes, s) = secs(|| reply.encode());
            encode_s += s;
            let (decoded, s) = secs(|| Frame::decode(&bytes));
            decode_s += s;
            decoded.map_err(|e| format!("decode reply for {q}: {e}"))?;
            *(if is_report { &mut bytes_report } else { &mut bytes_dash }) += bytes.len();
        }
        let partials: Vec<ShardPartial> =
            replies.iter().map(partial_of).collect::<Result<_, _>>()?;
        // The ranking round of a follow-report merges but finalizes nothing.
        let finalizes =
            !matches!((&q, &sq), (Query::FollowReport { .. }, ShardQuery::PublisherCounts));
        merge_s += secs(|| {
            let merged = partials.into_iter().reduce(ShardPartial::merge).expect("two shards");
            finalizes.then(|| partial::finalize(&q, merged))
        })
        .1;
    }

    let endpoints: Vec<Endpoint> =
        workers.into_iter().map(Endpoint::start).collect::<Result<_, _>>()?;
    let router = router_over(manifest, &endpoints);
    let mut tr = Tracer::off();
    let mut bundle_s = Vec::new();
    let mut failed = None;
    for _ in 0..5 {
        let (out, s) = secs(|| {
            router_bundle(&mut tr, &router, "report", &REPORT)
                .and_then(|_| router_bundle(&mut tr, &router, "dash", &DASH))
        });
        bundle_s.push(s);
        failed = failed.or(out.err());
    }
    let stats = router.stats();
    drop(router);
    endpoints.into_iter().for_each(Endpoint::stop);
    if let Some(why) = failed {
        return Err(format!("shard probe: {why}"));
    }

    let router_s = median(&bundle_s);
    m.push(("shard.split_store_ms".into(), split_s * 1e3));
    m.push(("shard.worker_load_ms".into(), median(&load_ms)));
    m.push(("shard.worker_handle_p50_us".into(), median(&handle_all) * 1e6));
    m.push(("shard.wire_encode_mb_s".into(), (bytes_report + bytes_dash) as f64 / 1e6 / encode_s));
    m.push(("shard.wire_decode_mb_s".into(), (bytes_report + bytes_dash) as f64 / 1e6 / decode_s));
    m.push(("shard.reply_bytes_report".into(), bytes_report as f64));
    m.push(("shard.reply_bytes_dash".into(), bytes_dash as f64));
    m.push(("shard.merge_finalize_us".into(), merge_s * 1e6));
    m.push(("shard.rpc_overhead_us".into(), (router_s - slowest_handle_s - merge_s) * 1e6));
    m.push(("shard.router_vs_local_ratio".into(), router_s / bare.iter().sum::<f64>()));
    m.push(("shard.reconnects".into(), stats.retries as f64));
    m.push(("shard.degraded".into(), stats.degraded as f64));
    Ok(())
}
