//! `gdelt-cli chaos`: the deterministic fault-injection harness, one
//! code path for both front doors.
//!
//! * The local arm (`chaos`) corrupts a store on a seeded [`FaultPlan`],
//!   loads it degraded and serves it, then replays the serve mix under
//!   worker panics and `apply_batch` storms.
//! * The scatter arm (`chaos --shards N`) kills, revives and stalls
//!   shard worker processes on a seeded [`ShardFaultPlan`].
//!
//! A [`Run`] owns what the arms share: the seeded store, the schedule
//! file, the flight-recorder dump and the verdict. The invariants are
//! written once, over any `QueryService<B>`: [`Run::full_answers`],
//! [`Run::degraded_answers`] and [`Run::ledger`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gdelt_columnar::binfmt::{save_with_partitions, DEFAULT_STORE_PARTITIONS};
use gdelt_columnar::degraded::restrict_to_partitions;
use gdelt_columnar::{load_degraded_with, Coverage, Dataset, RetryPolicy};
use gdelt_engine::{run_query, ExecContext, Query, QueryResult, SeriesKind, TopKKind};
use gdelt_faults::{seeded_picks, FaultPlan, PlanSpec, ShardFault, ShardFaultPlan};
use gdelt_model::time::DateTime;
use gdelt_serve::{
    replay, seeded_mix, Backend, DegradedPolicy, ExecHook, QueryService, ServeError, ServiceConfig,
    ServiceMetrics,
};
use gdelt_shard::{shard_range, split_store, Router, RouterConfig, ShardManifest};

use crate::{respawn_worker, spawn_fleet, Options, WorkerProc};

/// The eight query shapes every phase drives: one per result family,
/// matching the serve test matrix.
const QUERIES: [Query; 8] = [
    Query::CoReport,
    Query::FollowReport { top_k: 5 },
    Query::CrossCountry,
    Query::Delay,
    Query::TimeSeries(SeriesKind::Events),
    Query::TimeSeries(SeriesKind::LateArticles { threshold: 96 }),
    Query::TopK { kind: TopKKind::Publishers, k: 10 },
    Query::TopK { kind: TopKKind::Events, k: 10 },
];

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// `gdelt-cli chaos [--shards N]`.
pub(crate) fn cmd_chaos(o: &Options) -> Result<(), String> {
    match o.shards {
        Some(n) => scatter_arm(o, n),
        None => local_arm(o),
    }
}

/// One chaos run: the seed, the output directory, the engine context
/// the control answers run on, and the violations seen so far.
struct Run {
    /// Log prefix naming the arm.
    arm: &'static str,
    seed: u64,
    out: PathBuf,
    /// The fault-schedule JSON, inside `out`.
    schedule: PathBuf,
    ctx: ExecContext,
    violations: Vec<String>,
}

impl Run {
    fn new(o: &Options, arm: &'static str, out: &str, schedule: &str) -> Result<Run, String> {
        let out = o.output.clone().unwrap_or_else(|| PathBuf::from(out));
        std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
        let schedule = out.join(schedule);
        let (seed, ctx) = (o.seed.unwrap_or(42), o.ctx());
        Ok(Run { arm, seed, out, schedule, ctx, violations: Vec::new() })
    }

    fn violated(&mut self, v: impl Into<String>) {
        let v = v.into();
        eprintln!("VIOLATION: {v}");
        self.violations.push(v);
    }

    /// Generate the seeded corpus and save it as `store.gdhpc` in
    /// [`DEFAULT_STORE_PARTITIONS`] partitions.
    fn store(&self, o: &Options) -> Result<(PathBuf, Dataset), String> {
        let cfg = o.config();
        let (store, n) = (self.out.join("store.gdhpc"), cfg.n_events);
        eprintln!("{}: seed {}, store {} ({n} events)", self.arm, self.seed, store.display());
        let (dataset, _) = gdelt_synth::generate_dataset(&cfg);
        save_with_partitions(&store, &dataset, DEFAULT_STORE_PARTITIONS)
            .map_err(|e| format!("writing {}: {e}", store.display()))?;
        Ok((store, dataset))
    }

    /// Make the fault plan, check that planning the same seed again
    /// gives the same plan, and write it as the schedule file.
    fn schedule<P: PartialEq>(
        &mut self,
        plan: impl Fn() -> Result<P, String>,
        json: impl Fn(&P) -> String,
    ) -> Result<P, String> {
        let p = plan()?;
        if p != plan()? {
            self.violated("fault plan is not deterministic for its seed");
        }
        std::fs::write(&self.schedule, json(&p))
            .map_err(|e| format!("writing {}: {e}", self.schedule.display()))?;
        eprintln!("{}: fault schedule -> {}", self.arm, self.schedule.display());
        Ok(p)
    }

    /// Every answer `door` gives to `queries` has full coverage and
    /// equals `run_query` over `want`.
    fn full_answers<B: Backend>(
        &mut self,
        door: &QueryService<B>,
        want: &Dataset,
        queries: &[Query],
        phase: &str,
    ) {
        self.degraded_answers(door, want, None, |r| r, queries, phase);
    }

    /// Every answer `door` gives to `queries` has exactly `coverage`
    /// (full when `None`) and equals `run_query` over `restricted` (the
    /// store without the lost partitions), carried into `door`'s row
    /// space by `lift`. The reference runs over a copy of `restricted`,
    /// whose derived cache starts empty, so a span or degree vector the
    /// door extended through `apply_batch` is checked against one
    /// recomputed from the columns.
    fn degraded_answers<B: Backend>(
        &mut self,
        door: &QueryService<B>,
        restricted: &Dataset,
        coverage: Option<Coverage>,
        lift: impl Fn(QueryResult) -> QueryResult,
        queries: &[Query],
        phase: &str,
    ) {
        let restricted = restricted.clone();
        for q in queries {
            let why = match door.run_covered(*q) {
                Ok(a) if coverage.map_or(!a.coverage.is_full(), |c| a.coverage != c) => {
                    let c = coverage.map_or("full coverage".into(), |c| c.to_string());
                    format!("{q} reported {}, want {c}", a.coverage)
                }
                Ok(a) if *a.result != lift(run_query(&self.ctx, &restricted, q)) => {
                    format!("{q} differs from run_query")
                }
                Ok(_) => continue,
                Err(e) => format!("{q} failed: {e}"),
            };
            self.violated(format!("{phase}: {why}"));
        }
    }

    /// Every answered ticket was a cache hit or a miss: reconnects and
    /// coalescing stay off the hit/miss ledger, and nothing is lost.
    fn ledger(&mut self, m: &ServiceMetrics, phase: &str) {
        if m.answered != m.cache.hits + m.cache.misses {
            self.violated(format!(
                "{phase}: {} answered != {} hits + {} misses",
                m.answered, m.cache.hits, m.cache.misses
            ));
        }
    }

    /// Dump the flight recorder next to the schedule, so a failing run
    /// ships its own black box, and require an event from each of
    /// `required`: a component, or `component:code`.
    fn flight(&mut self, required: &[&str]) -> Result<(), String> {
        let flight = gdelt_obs::flight_snapshot();
        for key in required {
            let (comp, code) = key.split_once(':').map_or((*key, None), |(c, k)| (c, Some(k)));
            if !flight.iter().any(|e| e.component == comp && code.is_none_or(|k| e.code == k)) {
                self.violated(format!("no {key} event reached the flight recorder"));
            }
        }
        let path = self.out.join("flight-recorder.txt");
        std::fs::write(&path, gdelt_obs::render_flight(&flight))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("{}: flight recorder ({} events) -> {}", self.arm, flight.len(), path.display());
        Ok(())
    }

    /// The run's outcome: any violation fails it under `--check`.
    fn verdict(self, check: bool) -> Result<(), String> {
        let (arm, seed, n) = (self.arm, self.seed, self.violations.len());
        if n == 0 {
            eprintln!("{arm}: all invariants held (seed {seed})");
            return Ok(());
        }
        let at = self.schedule.display();
        let msg = format!("{arm}: {n} invariant(s) violated (seed {seed}, schedule at {at})");
        if check {
            return Err(msg);
        }
        eprintln!("{msg}");
        Ok(())
    }
}

/// The local arm: a seeded corruption of the store, loaded degraded
/// and served, then the serve mix under worker panics and
/// `apply_batch` storms.
fn local_arm(o: &Options) -> Result<(), String> {
    let mut run = Run::new(o, "chaos", "target/chaos", "fault-schedule.json")?;
    let seed = run.seed;
    let (store, clean_dataset) = run.store(o)?;
    // Retry fast: the injected transient failures are deterministic, so
    // real-time backoff only slows the harness down.
    let policy = RetryPolicy { max_retries: 4, backoff: ms(1), backoff_cap: ms(4) };
    let config = |degraded_policy| ServiceConfig {
        workers: 2,
        threads: o.threads,
        degraded_policy,
        ..Default::default()
    };

    // ---- the clean load serves what the bare engine computes ----------
    let clean = load_degraded_with(&store, &policy, &FaultPlan::clean(seed))
        .map_err(|e| format!("clean load failed: {e}"))?;
    if !clean.health.is_clean() || !clean.health.coverage().is_full() {
        run.violated(format!("clean load not clean: {}", clean.health.render()));
    }
    let service = QueryService::new(clean.dataset.clone(), config(DegradedPolicy::ServePartial));
    run.full_answers(&service, &clean.dataset, &QUERIES, "clean serve");
    run.ledger(&service.metrics(), "clean serve");
    drop(service);
    eprintln!("chaos: clean arm ok (coverage {})", clean.health.coverage());

    // ---- seeded corruption, loaded degraded twice ---------------------
    let spec = PlanSpec { corrupt_partitions: 1, transient_failures: 1, ..PlanSpec::default() };
    let plan = run.schedule(
        || FaultPlan::seeded(&store, seed, &spec).map_err(|e| format!("planning: {e}")),
        FaultPlan::to_json,
    )?;
    let load = || {
        load_degraded_with(&store, &policy, &plan).map_err(|e| format!("degraded load failed: {e}"))
    };
    let (degraded, again) = (load()?, load()?);
    if degraded.health != again.health {
        run.violated(format!(
            "degraded load not deterministic:\n{}\nvs\n{}",
            degraded.health.render(),
            again.health.render()
        ));
    }
    for p in &plan.corrupted_partitions {
        if !degraded.health.quarantined.contains(p) {
            run.violated(format!("targeted partition {p} was not quarantined"));
        }
    }
    let coverage = degraded.health.coverage();
    if coverage.is_full() {
        run.violated("corrupted store loaded with full coverage");
    }
    if degraded.health.retries == 0 {
        run.violated("scheduled transient failure produced no retry");
    }
    eprintln!(
        "chaos: degraded arm quarantined {:?}, coverage {coverage}, {} retries",
        degraded.health.quarantined, degraded.health.retries
    );
    for q in &QUERIES {
        if run_query(&run.ctx, &degraded.dataset, q) != run_query(&run.ctx, &again.dataset, q) {
            run.violated(format!("{q} differs between two identically-faulted loads"));
        }
    }

    // ServePartial serves exactly the live partitions and says so;
    // Fail refuses.
    let lost = &degraded.health.quarantined;
    let restricted = restrict_to_partitions(&clean.dataset, DEFAULT_STORE_PARTITIONS, lost)
        .map_err(|e| format!("restricting the clean dataset: {e}"))?;
    let partial = config(DegradedPolicy::ServePartial);
    let service =
        QueryService::with_health(degraded.dataset.clone(), degraded.health.clone(), partial);
    run.degraded_answers(&service, &restricted, Some(coverage), |r| r, &QUERIES, "degraded serve");
    run.ledger(&service.metrics(), "degraded serve");
    let strict = config(DegradedPolicy::Fail);
    let strict = QueryService::with_health(degraded.dataset, degraded.health, strict);
    if !matches!(strict.run(Query::CoReport), Err(ServeError::Degraded { .. })) {
        run.violated("Fail policy served a degraded store");
    }
    drop((service, strict));

    // ---- serve under worker panics + apply_batch storms ---------------
    let mix = seeded_mix(o.queries.unwrap_or(120), seed);
    // Panic on a seeded subset of the first kernel executions. Cold
    // queries always execute, so these picks are guaranteed to fire.
    let panic_at = seeded_picks(seed ^ 0xFA01_7CA0, 8, 2);
    let execs = Arc::new(AtomicU64::new(0));
    let fired = Arc::new(AtomicU64::new(0));
    let (hook_execs, hook_fired) = (Arc::clone(&execs), Arc::clone(&fired));
    let hook = ExecHook::new(move |_q| {
        // Relaxed: fetch_add on a single atomic is already a total
        // modification order, so every execution draws a unique `n`;
        // the final loads happen-after the scope join.
        let n = hook_execs.fetch_add(1, Ordering::Relaxed);
        if panic_at.contains(&n) {
            hook_fired.fetch_add(1, Ordering::Relaxed);
            panic!("chaos: injected worker panic at execution {n}");
        }
    });
    let workers = o.workers.unwrap_or(2);
    let storm_config =
        ServiceConfig { workers, exec_hook: Some(hook), ..config(Default::default()) };
    let service = QueryService::new(clean_dataset, storm_config);

    // Storm batches: novel ids appended mid-replay, each bumping the
    // generation and invalidating the cache. Their articles come a year
    // late, in quarters past the store's, so every storm widens the
    // quarter span the service extends.
    let storm_cfg = gdelt_synth::paper_calibrated(o.scale.unwrap_or(1e-4), seed ^ 0x5702_17AA);
    let mut storm = gdelt_synth::generate(&storm_cfg);
    const YEAR_S: i64 = 366 * 24 * 3600;
    storm.events.iter_mut().for_each(|e| e.id.0 += 1 << 40);
    storm.mentions.iter_mut().for_each(|m| {
        m.event_id.0 += 1 << 40;
        m.mention_time = DateTime::from_unix_seconds(m.mention_time.to_unix_seconds() + YEAR_S);
    });
    const STORMS: usize = 3;
    let chunk = storm.events.len().div_ceil(STORMS).max(1);
    let m_chunk = storm.mentions.len().div_ceil(STORMS).max(1);
    let batches: Vec<(Vec<_>, Vec<_>)> = (0..STORMS)
        .map(|i| {
            let evs = storm.events.iter().skip(i * chunk).take(chunk);
            (
                evs.cloned().collect(),
                storm.mentions.iter().skip(i * m_chunk).take(m_chunk).cloned().collect(),
            )
        })
        .collect();

    // Injected panics are expected here; keep them off the console.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = std::thread::scope(|s| {
        let svc = &service;
        s.spawn(move || {
            for (evs, mens) in batches {
                std::thread::sleep(ms(5));
                let (stats, _) = svc.apply_batch(evs, mens);
                eprintln!(
                    "chaos: storm applied (+{} events, +{} mentions), generation {}",
                    stats.new_events,
                    stats.new_mentions,
                    svc.generation()
                );
            }
        });
        replay(|q| svc.run(q), &mix, o.clients.unwrap_or(4))
    });
    std::panic::set_hook(prev_hook);
    println!("{}", report.render());
    let metrics = service.metrics();
    println!("{}", metrics.render());

    let fired = fired.load(Ordering::Relaxed);
    if fired == 0 {
        run.violated("no scheduled worker panic fired");
    }
    if metrics.worker_panics != fired {
        run.violated(format!(
            "panic accounting: {fired} fired, {} recorded",
            metrics.worker_panics
        ));
    }
    if report.completed + report.sheds + report.errors != report.total {
        run.violated(format!(
            "lost queries: {} + {} + {} != {}",
            report.completed, report.sheds, report.errors, report.total
        ));
    }
    if metrics.cache.invalidations == 0 {
        run.violated("apply_batch storms never invalidated the cache");
    }
    // Cache coherence: everything the service now answers, cached or
    // recomputed, is the bare engine's answer over the final dataset;
    // a stale-generation entry surviving the storms would show here.
    let mut seen = std::collections::HashSet::new();
    let distinct: Vec<Query> = mix.into_iter().filter(|q| seen.insert(*q)).collect();
    run.full_answers(&service, &service.dataset(), &distinct, "after the storms");
    eprintln!(
        "chaos: storm arm ok ({} executions, {fired} injected panics, {} invalidations)",
        execs.load(Ordering::Relaxed),
        metrics.cache.invalidations
    );

    run.flight(&["faults", "degraded"])?;
    run.verdict(o.check)
}

/// The scatter arm: a seeded `ShardFaultPlan` drives a real worker
/// fleet through kill, recovery and stall. At every step the router's
/// answers equal a single-process control (the whole store, or the
/// store without the lost shard), coverage is *exactly* that of the
/// live shards, no stale cache entry survives a shard death, and
/// reconnection restores full coverage.
fn scatter_arm(o: &Options, n_shards: u32) -> Result<(), String> {
    if !(2..=DEFAULT_STORE_PARTITIONS).contains(&n_shards) {
        return Err(format!(
            "chaos --shards needs 2..={DEFAULT_STORE_PARTITIONS} shards, got {n_shards}"
        ));
    }
    let mut run =
        Run::new(o, "chaos --shards", "target/chaos-shards", "shard-fault-schedule.json")?;
    let seed = run.seed;
    let (store, clean) = run.store(o)?;
    let shard_dir = run.out.join("shards");
    let manifest =
        split_store(&store, &shard_dir, n_shards).map_err(|e| format!("splitting: {e}"))?;

    // The queries whose shard plan is a single scatter round: the stall
    // needs the victim's request index to equal the query index, and
    // `FollowReport` issues two requests per query.
    let direct: Vec<Query> =
        QUERIES.into_iter().filter(|q| !matches!(q, Query::FollowReport { .. })).collect();
    let horizon = direct.len() as u64;
    let plan = run.schedule(
        || Ok(ShardFaultPlan::seeded(seed, n_shards, 1, 1, 1200, horizon)),
        ShardFaultPlan::to_json,
    )?;
    let victim = plan.killed_shards().first().copied().ok_or("no kill scheduled")? as usize;
    let kill_at = plan.first_kill_query().ok_or("no kill scheduled")?;
    let stall = plan.faults.iter().find_map(|&(s, f)| match f {
        ShardFault::Delay { at_query, ms } => Some((s, at_query, ms)),
        ShardFault::Kill { .. } => None,
    });
    let (stalled, stall_at, stall_ms) = stall.ok_or("no stall scheduled")?;

    let reconnect = RetryPolicy { max_retries: 1, backoff: ms(5), backoff_cap: ms(40) };
    let router_over = |fleet: &[WorkerProc], cache_enabled, read_timeout| {
        Router::new(
            manifest.clone(),
            RouterConfig {
                addrs: fleet.iter().map(|w| w.addr.clone()).collect(),
                cache_enabled,
                read_timeout,
                reconnect,
                ..RouterConfig::default()
            },
        )
    };

    // ---- healthy fleet: exact answers, then served from the cache -----
    let mut fleet = spawn_fleet(&shard_dir, &manifest, None, false)?;
    let router = router_over(&fleet, true, Duration::from_secs(5));
    run.full_answers(&router, &clean, &QUERIES, "healthy fleet");
    let cold_hits = router.metrics().cache.hits;
    run.full_answers(&router, &clean, &QUERIES, "cached re-ask");
    let warm = router.metrics();
    if warm.cache.hits < cold_hits + QUERIES.len() as u64 {
        run.violated("warm re-ask did not hit the router cache");
    }
    run.ledger(&warm, "healthy fleet");
    let (answered, hits) = (warm.answered, warm.cache.hits);
    eprintln!("chaos --shards: healthy arm ok ({answered} completed, {hits} hits)");

    // ---- the scheduled kill -------------------------------------------
    let (restricted, coverage, lift) = without_shard(&clean, &manifest, victim)?;
    let (before, after) = QUERIES.split_at((kill_at as usize).min(QUERIES.len()));
    run.full_answers(&router, &clean, before, "before the kill");
    eprintln!("chaos --shards: killing shard {victim} before query {kill_at}");
    let gen_before = router.generation();
    fleet[victim].kill();
    if router.probe()[victim].is_some() {
        run.violated("killed worker still answers health probes");
    }
    if router.generation() <= gen_before {
        run.violated("shard death did not bump the cache generation");
    }
    run.degraded_answers(&router, &restricted, Some(coverage), lift, after, "after the kill");
    let m = router.metrics();
    run.ledger(&m, "across the shard kill");
    if m.degraded < after.len() as u64 {
        run.violated("degraded answers were undercounted after the kill");
    }
    eprintln!(
        "chaos --shards: kill arm ok (shard {victim} at query {kill_at}, exact {coverage} held)"
    );

    // ---- respawn on the same port, full recovery ----------------------
    let port = fleet[victim].port()?;
    let path = manifest.shard_path(&shard_dir, victim);
    fleet[victim] = respawn_worker(&path, victim as u32, &manifest.shards[victim], port)?;
    let revived = (0..50).any(|_| {
        std::thread::sleep(ms(50));
        router.probe()[victim].is_some()
    });
    if !revived {
        run.violated("respawned worker never became reachable");
    }
    run.full_answers(&router, &clean, &QUERIES, "post-revive");
    let retries = router.stats().retries;
    if retries == 0 {
        run.violated("recovery produced no counted reconnect");
    }
    eprintln!("chaos --shards: recovery arm ok ({retries} reconnect(s))");
    drop(fleet);

    // ---- the scheduled stall: a timeout answers without the shard -----
    let fleet = spawn_fleet(&shard_dir, &manifest, Some((stalled, stall_at, stall_ms)), false)?;
    // Cache off so each direct query is exactly one request at the
    // victim: its request index equals the query index.
    let router = router_over(&fleet, false, ms(200));
    let (restricted, coverage, lift) = without_shard(&clean, &manifest, stalled as usize)?;
    let (before, rest) = direct.split_at((stall_at as usize).min(direct.len()));
    let (window, after) = rest.split_at(rest.len().min(1));
    run.full_answers(&router, &clean, before, "before the stall");
    run.degraded_answers(&router, &restricted, Some(coverage), lift, window, "stall window");
    run.full_answers(&router, &clean, after, "after the stall");
    if router.stats().retries == 0 {
        run.violated("the timed-out shard never reconnected");
    }
    eprintln!(
        "chaos --shards: stall arm ok (shard {stalled} stalled {stall_ms}ms at query \
         {stall_at}, timeout handled)"
    );
    // One last scrape before the fleet dies: replies already piggyback
    // recent worker flight events, but if the stall fired on the very
    // last query its `fault_delay` may still be waiting worker-side;
    // the scrape forwards it (the per-shard cursors keep re-records
    // at-most-once).
    let _ = router.scrape_metrics();
    drop(fleet);

    run.flight(&["shard", "worker:fault_delay"])?;
    run.verdict(o.check)
}

/// The single-process control for shard `victim` gone: the store
/// restricted to the other shards' partitions, the coverage the router
/// must report, and the lift of a control answer into the surviving
/// shards' row space. The restricted store renumbers event rows
/// contiguously while shard partials keep their `ev_row_base`, so rows
/// at or past the lost shard's block shift up by its event count. Only
/// `TopEvents` exposes row ids, and the shift is monotonic, so stable
/// tie-breaks are kept.
fn without_shard(
    clean: &Dataset,
    manifest: &ShardManifest,
    victim: usize,
) -> Result<(Dataset, Coverage, impl Fn(QueryResult) -> QueryResult), String> {
    let entry = manifest.shards.get(victim).ok_or_else(|| format!("no shard {victim}"))?;
    let n_shards = manifest.shards.len() as u32;
    let (lo, hi) = shard_range(DEFAULT_STORE_PARTITIONS, n_shards, victim as u32);
    let lost: Vec<u32> = (lo..hi).collect();
    let restricted = restrict_to_partitions(clean, DEFAULT_STORE_PARTITIONS, &lost)
        .map_err(|e| format!("restricting the control dataset: {e}"))?;
    let total = manifest.source_partitions;
    let coverage = Coverage { live: total - entry.partitions, total };
    let (base, events) = (entry.ev_row_base, entry.events as usize);
    let lift = move |mut r: QueryResult| {
        if let QueryResult::TopEvents(entries) = &mut r {
            for (row, _) in entries.iter_mut().filter(|(row, _)| *row as u64 >= base) {
                *row += events;
            }
        }
        r
    };
    Ok((restricted, coverage, lift))
}
