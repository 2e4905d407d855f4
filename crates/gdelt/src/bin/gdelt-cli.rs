//! `gdelt-cli` — the preprocessing tool and query front-end.
//!
//! Subcommands mirror the paper's workflow:
//!
//! * `generate` — emit a synthetic raw GDELT corpus (events TSV,
//!   mentions TSV, master file list) at a chosen scale;
//! * `convert`  — run the preprocessing tool: parse + clean raw files
//!   and write the indexed binary format, printing the Table II report;
//! * `report`   — load a binary dataset and print every table/figure;
//! * `synth-report` — generate in memory and report directly (with
//!   `--scaling`, the Fig 12 thread sweep too);
//! * `serve-bench` — replay a seeded query mix against the concurrent
//!   query service and print its metrics (optionally exporting the
//!   Prometheus exposition and a Chrome trace of the run, both checked
//!   by the committed validators);
//! * `chaos` — the deterministic fault-injection harness: corrupt a
//!   store on a seeded schedule, load it degraded, and replay the
//!   serve mix under worker panics and `apply_batch` storms while
//!   asserting the degradation invariants; its failure artifacts
//!   include a flight-recorder dump next to the fault schedule.
//!   With `--shards N` it runs the sharded arm instead: kill and
//!   stall worker processes on a seeded schedule and assert exact
//!   degraded coverage, cache invalidation, and recovery;
//! * `split-store` — partition a store into N shard stores plus a
//!   manifest, ready for `shard-worker` processes;
//! * `shard-worker` — serve one shard store over the wire protocol
//!   (the scatter-gather router in `serve-bench --shards` and the
//!   chaos shard arm spawn these).

use gdelt_analysis::report::{run_full_report, ReportOptions};
use gdelt_columnar::binfmt::{self, DEFAULT_STORE_PARTITIONS};
use gdelt_columnar::DatasetBuilder;
use gdelt_engine::{run_query, ExecContext, Query, QueryResult, TopKKind};
use gdelt_synth::emit::to_tsv;
use gdelt_synth::{generate, paper_calibrated};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match Options::parse(&args[1..]) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&opts),
        "convert" => cmd_convert(&opts),
        "update" => cmd_update(&opts),
        "validate" => cmd_validate(&opts),
        "query" => cmd_query(&opts),
        "report" => cmd_report(&opts),
        "synth-report" => cmd_synth_report(&opts),
        "serve-bench" => cmd_serve_bench(&opts),
        "split-store" => cmd_split_store(&opts),
        "shard-worker" => cmd_shard_worker(&opts),
        "chaos" => cmd_chaos(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
gdelt-cli — high performance mining on GDELT data

USAGE:
  gdelt-cli generate      --out DIR [--scale S] [--seed N]
  gdelt-cli convert       --in DIR --out FILE.gdhpc
  gdelt-cli update        --data FILE.gdhpc --in DIR    (append a batch)
  gdelt-cli validate      --data FILE.gdhpc             (deep structural audit)
  gdelt-cli query         --data FILE.gdhpc [--top N] [--source DOMAIN]
                          [--pair A,B] [--window 2016Q1:2016Q4]
  gdelt-cli report        --data FILE.gdhpc [--threads N] [--scaling]
  gdelt-cli synth-report  [--scale S] [--seed N] [--threads N] [--scaling]
  gdelt-cli serve-bench   [--scale S] [--seed N] [--queries N] [--workers N]
                          [--clients N] [--threads N] [--no-cache] [--check]
                          [--shards N] [--metrics-out FILE] [--trace-out FILE]
  gdelt-cli split-store   --data FILE.gdhpc --out DIR --shards N
  gdelt-cli shard-worker  --data SHARD.gdhpc [--shard-id N] [--partitions N]
                          [--ev-row-base N] [--port P] [--threads N] [--trace]
  gdelt-cli chaos         [--seed N] [--scale S] [--out DIR] [--queries N]
                          [--workers N] [--clients N] [--threads N] [--check]
                          [--shards N]

OPTIONS:
  --scale S    synthetic corpus scale in (0, 1]; 1.0 = the paper's full
               325M-event corpus (default 0.0001)
  --seed N     generator seed (default 42)
  --threads N  worker threads (default: all cores)
  --scaling    include the Figure 12 thread sweep in the report
  --queries N  serve-bench: queries in the replayed mix (default 200)
  --workers N  serve-bench: service worker threads (default 2)
  --clients N  serve-bench: concurrent client threads (default 4)
  --no-cache   serve-bench: disable the result cache
  --check      serve-bench: exit non-zero unless the run had no errors,
               sheds or degraded answers, (with the cache on) at least
               one cache hit and completed = hits + misses, and (with
               --trace-out) at least one recorded span
               chaos: exit non-zero on any violated invariant
  --out DIR    chaos: working directory for the store image, the
               fault-schedule JSON, and the flight-recorder dump
               (default target/chaos)
  --metrics-out FILE  serve-bench: write the Prometheus text exposition
               of the global registry after the replay; with --shards,
               the router scrapes every worker's registry and writes a
               federated exposition (per-shard series labeled
               {shard=\"N\"} plus merged unlabeled totals)
  --trace-out FILE    serve-bench: record spans during the replay and
               write them as Chrome trace_event JSON (load the file in
               about://tracing or ui.perfetto.dev); with --shards, the
               router collects every worker's spans and stitches one
               trace with a pid lane per process, linked by the trace
               ids the wire frames carried
  --trace      shard-worker: enable span recording so the router can
               drain spans for trace stitching (the fleet spawner sets
               this when serve-bench runs with --trace-out)
  --shards N   split-store: how many shard stores to split into
               serve-bench: replay the mix through a scatter-gather
               router over N shard worker processes
               chaos: run the sharded arm — kill and stall workers on
               the seeded schedule, assert exact Degraded{live,total}
               coverage, cache invalidation, and recovery
  --shard-id N --partitions N --ev-row-base N --port P
               shard-worker: one worker's identity and bind port (the
               split-store manifest records the right values; port 0
               picks a free port, reported as a LISTENING line)
  --fault-delay-at N --fault-delay-ms MS
               shard-worker: deterministically stall the N-th request
               by MS milliseconds (the chaos delay arm)
";

/// Minimal flag parser: `--key value` pairs plus boolean flags.
#[derive(Debug, Default)]
struct Options {
    scale: Option<f64>,
    seed: Option<u64>,
    threads: Option<usize>,
    scaling: bool,
    input: Option<PathBuf>,
    output: Option<PathBuf>,
    data: Option<PathBuf>,
    top: Option<usize>,
    source: Option<String>,
    pair: Option<String>,
    window: Option<String>,
    queries: Option<usize>,
    workers: Option<usize>,
    clients: Option<usize>,
    no_cache: bool,
    check: bool,
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    shards: Option<u32>,
    shard_id: Option<u32>,
    partitions: Option<u32>,
    ev_row_base: Option<u64>,
    port: Option<u16>,
    fault_delay_at: Option<u64>,
    fault_delay_ms: Option<u64>,
    trace: bool,
}

impl Options {
    /// Parse `args`; a value-taking flag with a missing or malformed
    /// value is an error naming the flag, never a silent default.
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let flag = a.as_str();
            match flag {
                "--scale" => o.scale = Some(flag_value(flag, it.next())?),
                "--seed" => o.seed = Some(flag_value(flag, it.next())?),
                "--threads" => o.threads = Some(flag_value(flag, it.next())?),
                "--scaling" => o.scaling = true,
                "--in" => o.input = Some(flag_value(flag, it.next())?),
                "--out" => o.output = Some(flag_value(flag, it.next())?),
                "--data" => o.data = Some(flag_value(flag, it.next())?),
                "--top" => o.top = Some(flag_value(flag, it.next())?),
                "--source" => o.source = Some(flag_value(flag, it.next())?),
                "--pair" => o.pair = Some(flag_value(flag, it.next())?),
                "--window" => o.window = Some(flag_value(flag, it.next())?),
                "--queries" => o.queries = Some(flag_value(flag, it.next())?),
                "--workers" => o.workers = Some(flag_value(flag, it.next())?),
                "--clients" => o.clients = Some(flag_value(flag, it.next())?),
                "--no-cache" => o.no_cache = true,
                "--check" => o.check = true,
                "--metrics-out" => o.metrics_out = Some(flag_value(flag, it.next())?),
                "--trace-out" => o.trace_out = Some(flag_value(flag, it.next())?),
                "--shards" => o.shards = Some(flag_value(flag, it.next())?),
                "--shard-id" => o.shard_id = Some(flag_value(flag, it.next())?),
                "--partitions" => o.partitions = Some(flag_value(flag, it.next())?),
                "--ev-row-base" => o.ev_row_base = Some(flag_value(flag, it.next())?),
                "--port" => o.port = Some(flag_value(flag, it.next())?),
                "--fault-delay-at" => o.fault_delay_at = Some(flag_value(flag, it.next())?),
                "--fault-delay-ms" => o.fault_delay_ms = Some(flag_value(flag, it.next())?),
                "--trace" => o.trace = true,
                other => eprintln!("warning: ignoring unknown argument {other:?}"),
            }
        }
        Ok(o)
    }

    fn ctx(&self) -> ExecContext {
        match self.threads {
            Some(n) => ExecContext::builder().threads(n).build(),
            None => ExecContext::builder().build(),
        }
    }

    fn config(&self) -> gdelt_synth::SynthConfig {
        paper_calibrated(self.scale.unwrap_or(1e-4), self.seed.unwrap_or(42))
    }
}

/// The value after `flag`, parsed as `T`.
fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map_err(|_| format!("invalid value {value:?} for {flag}"))
}

fn cmd_generate(o: &Options) -> Result<(), String> {
    let out = o.output.as_deref().ok_or("generate requires --out DIR")?;
    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let cfg = o.config();
    eprintln!(
        "generating synthetic corpus: {} sources, {} events, seed {}",
        cfg.n_sources, cfg.n_events, cfg.seed
    );
    let data = generate(&cfg);
    let (events_tsv, mentions_tsv) = to_tsv(&data);
    write(out.join("events.export.tsv"), &events_tsv)?;
    write(out.join("mentions.tsv"), &mentions_tsv)?;
    write(out.join("masterfilelist.txt"), &data.masterlist)?;
    eprintln!(
        "wrote {} events, {} mentions to {}",
        data.events.len(),
        data.mentions.len(),
        out.display()
    );
    Ok(())
}

fn cmd_convert(o: &Options) -> Result<(), String> {
    let input = o.input.as_deref().ok_or("convert requires --in DIR")?;
    let out = o.output.as_deref().ok_or("convert requires --out FILE")?;
    let mut b = DatasetBuilder::new();
    // Raw bytes: real exports carry the odd Latin-1 byte, which costs the
    // line it is on (if it is in a column the store keeps), not the run.
    b.ingest_masterlist(&String::from_utf8_lossy(&read_raw(input.join("masterfilelist.txt"))?));
    b.ingest_events_bytes(&read_raw(input.join("events.export.tsv"))?);
    b.ingest_mentions_bytes(&read_raw(input.join("mentions.tsv"))?);
    eprintln!("staged {} events, {} mentions", b.staged_events(), b.staged_mentions());
    let (dataset, report) = b.build();
    println!("{}", gdelt_analysis::table2::render(&report));
    report_skipped(&report);
    binfmt::save(out, &dataset).map_err(|e| format!("writing {}: {e}", out.display()))?;
    eprintln!("{}", gdelt_columnar::memsize::measure(&dataset).render());
    eprintln!("at paper scale: {}", gdelt_columnar::memsize::project_full_scale(&dataset).render());
    eprintln!("wrote indexed binary dataset to {}", out.display());
    Ok(())
}

fn read_raw(p: PathBuf) -> Result<Vec<u8>, String> {
    std::fs::read(&p).map_err(|e| format!("reading {}: {e}", p.display()))
}

fn cmd_update(o: &Options) -> Result<(), String> {
    let data = o.data.as_deref().ok_or("update requires --data FILE")?;
    let input = o.input.as_deref().ok_or("update requires --in DIR (a raw batch)")?;
    let base = binfmt::load(data).map_err(|e| format!("loading {}: {e}", data.display()))?;
    // The batch takes convert's path: raw bytes staged as columns, built,
    // then merged into the base as runs.
    let mut b = DatasetBuilder::new();
    b.ingest_events_bytes(&read_raw(input.join("events.export.tsv"))?);
    b.ingest_mentions_bytes(&read_raw(input.join("mentions.tsv"))?);
    let (batch, report) = b.build();
    report_skipped(&report);
    let (updated, stats) = gdelt_columnar::incremental::append_dataset(&base, batch);
    eprintln!(
        "applied batch: +{} events (+{} dup dropped), +{} mentions, +{} sources, {} rematched; {} bad lines",
        stats.new_events,
        stats.duplicate_events,
        stats.new_mentions,
        stats.new_sources,
        stats.rematched_mentions,
        report.bad_event_lines + report.bad_mention_lines
    );
    binfmt::save(data, &updated).map_err(|e| format!("writing {}: {e}", data.display()))?;
    eprintln!(
        "dataset now holds {} events / {} mentions",
        updated.events.len(),
        updated.mentions.len()
    );
    Ok(())
}

/// The lines a text ingest could not decode, if any (stderr).
fn report_skipped(report: &gdelt_csv::clean::CleanReport) {
    if report.bad_event_lines + report.bad_mention_lines > 0 {
        eprintln!(
            "skipped {} unparseable event lines, {} unparseable mention lines",
            report.bad_event_lines, report.bad_mention_lines
        );
    }
}

fn cmd_validate(o: &Options) -> Result<(), String> {
    let data = o.data.as_deref().ok_or("validate requires --data FILE")?;
    // Skip the one-pass load gate so a damaged store still loads and
    // the deep auditor can name *every* broken invariant at once.
    let dataset =
        binfmt::load_unchecked(data).map_err(|e| format!("loading {}: {e}", data.display()))?;
    eprintln!(
        "auditing {}: {} events, {} mentions, {} sources",
        data.display(),
        dataset.events.len(),
        dataset.mentions.len(),
        dataset.sources.len()
    );
    let report = dataset.deep_validate();
    print!("{report}");
    if report.is_ok() {
        println!();
        Ok(())
    } else {
        Err(format!("{} invariant(s) violated", report.violations.len()))
    }
}

fn cmd_query(o: &Options) -> Result<(), String> {
    use gdelt_engine::topk::ranked_publishers;
    use gdelt_engine::view::MentionView;
    use gdelt_model::country::CountryRegistry;
    use gdelt_model::time::Quarter;

    let data = o.data.as_deref().ok_or("query requires --data FILE")?;
    let dataset = binfmt::load_projected(data, &Query::SERVED_COLUMNS)
        .map_err(|e| format!("loading {}: {e}", data.display()))?;
    let ctx = o.ctx();
    let registry = CountryRegistry::new();

    // Optional time window, e.g. `--window 2016Q1:2016Q4`.
    let parse_quarter = |s: &str| -> Result<Quarter, String> {
        let (y, q) = s.split_once('Q').ok_or_else(|| format!("bad quarter {s:?}"))?;
        Ok(Quarter {
            year: y.parse().map_err(|_| format!("bad year in {s:?}"))?,
            q: q.parse().map_err(|_| format!("bad quarter in {s:?}"))?,
        })
    };
    let view = match &o.window {
        Some(w) => {
            let (from, to) = w.split_once(':').ok_or("window must be FROM:TO")?;
            let (from, to) = (parse_quarter(from)?, parse_quarter(to)?);
            println!("window: {from} .. {to}");
            Some(MentionView::time_window(&ctx, &dataset, from, to))
        }
        None => None,
    };
    let selected = view.as_ref().map_or(dataset.mentions.len(), MentionView::len);
    println!("selected articles: {selected}");

    if let Some(k) = o.top {
        println!("top {k} publishers in window:");
        let top = match &view {
            Some(view) => ranked_publishers(&view.articles_by_source(&ctx), k),
            None => {
                let k = k.try_into().unwrap_or(u32::MAX);
                let q = Query::TopK { kind: TopKKind::Publishers, k };
                let QueryResult::TopPublishers(top) = run_query(&ctx, &dataset, &q) else {
                    return Err("top-k query returned the wrong variant".into());
                };
                top
            }
        };
        for (s, n) in top {
            println!("  {:<44} {:>12}", dataset.sources.name(s), n);
        }
    }

    if let Some(name) = &o.source {
        let Some(id) = dataset.sources.lookup(name) else {
            return Err(format!("unknown source {name:?}"));
        };
        let QueryResult::Delay(stats) = run_query(&ctx, &dataset, &Query::Delay) else {
            return Err("delay query returned the wrong variant".into());
        };
        let s = stats[id.index()];
        let group = gdelt_engine::delay::classify(&s);
        println!(
            "{name}: {} articles; delay min {} / median {} / mean {:.1} / max {} intervals ({group:?} group)",
            s.count, s.min, s.median, s.mean, s.max
        );
    }

    if let Some(pair) = &o.pair {
        let (a, b) = pair.split_once(',').ok_or("pair must be A,B")?;
        let (ca, cb) = (registry.by_name(a.trim()), registry.by_name(b.trim()));
        if ca.is_unknown() || cb.is_unknown() {
            return Err(format!("unknown country in pair {pair:?}"));
        }
        let QueryResult::CoReport(cc) = run_query(&ctx, &dataset, &Query::CoReport) else {
            return Err("coreport query returned the wrong variant".into());
        };
        let QueryResult::CrossCountry(cr) = run_query(&ctx, &dataset, &Query::CrossCountry) else {
            return Err("crosscountry query returned the wrong variant".into());
        };
        println!(
            "{a} vs {b}: co-reporting Jaccard {:.4}; articles {a}→about-{b}: {}, {b}→about-{a}: {}",
            cc.jaccard(ca, cb),
            cr.articles(cb, ca),
            cr.articles(ca, cb),
        );
    }
    Ok(())
}

fn cmd_report(o: &Options) -> Result<(), String> {
    let data = o.data.as_deref().ok_or("report requires --data FILE")?;
    let dataset = binfmt::load(data).map_err(|e| format!("loading {}: {e}", data.display()))?;
    // The cleaning report lives with conversion; reports from binary
    // files show zeros unless re-converted.
    let clean = Default::default();
    let report = run_full_report(
        &o.ctx(),
        &dataset,
        &clean,
        ReportOptions { scaling: o.scaling, clustering: true },
    );
    println!("{}", report.render());
    Ok(())
}

fn cmd_synth_report(o: &Options) -> Result<(), String> {
    let cfg = o.config();
    eprintln!(
        "generating synthetic corpus: {} sources, {} events, seed {}",
        cfg.n_sources, cfg.n_events, cfg.seed
    );
    let (dataset, clean) = gdelt_synth::generate_dataset(&cfg);
    eprintln!("{}", gdelt_columnar::memsize::measure(&dataset).render());
    let report = run_full_report(
        &o.ctx(),
        &dataset,
        &clean,
        ReportOptions { scaling: o.scaling, clustering: true },
    );
    println!("{}", report.render());
    Ok(())
}

fn cmd_serve_bench(o: &Options) -> Result<(), String> {
    use gdelt_serve::{seeded_mix, QueryService, ServiceConfig};

    let cfg = o.config();
    eprintln!(
        "generating synthetic corpus: {} sources, {} events, seed {}",
        cfg.n_sources, cfg.n_events, cfg.seed
    );
    let (dataset, _) = gdelt_synth::generate_dataset(&cfg);
    let mix = seeded_mix(o.queries.unwrap_or(200), o.seed.unwrap_or(42));
    if let Some(n) = o.shards {
        return serve_bench_shards(o, n, &dataset, &mix);
    }
    if o.trace_out.is_some() {
        gdelt_obs::set_tracing(true);
    }
    let service = QueryService::new(
        dataset,
        ServiceConfig {
            workers: o.workers.unwrap_or(2),
            cache_enabled: !o.no_cache,
            threads: o.threads,
            ..Default::default()
        },
    );
    let (report, metrics) = replay_door(o, &service, &mix, "");

    if let Some(path) = &o.trace_out {
        let spans = gdelt_obs::take_spans();
        gdelt_obs::set_tracing(false);
        let trace = gdelt_obs::chrome_trace_json(&spans);
        gdelt_obs::validate_chrome_trace(&trace)
            .map_err(|e| format!("exported trace failed validation: {e}"))?;
        write(path.clone(), &trace)?;
        eprintln!("wrote {} spans as Chrome trace JSON to {}", spans.len(), path.display());
        if o.check && spans.is_empty() {
            return Err("check failed: --trace-out recorded no spans".into());
        }
    }
    if let Some(path) = &o.metrics_out {
        let text = gdelt_obs::global().render_prometheus();
        gdelt_obs::validate_prometheus(&text)
            .map_err(|e| format!("exposition failed validation: {e}"))?;
        write(path.clone(), &text)?;
        eprintln!("wrote Prometheus exposition to {}", path.display());
    }
    check_ledger(o, &report, &metrics)
}

/// Replay the seeded mix through `door` from `--clients` threads and
/// print the replay and the service's metrics: the one `serve-bench`
/// body, whichever backend answers the misses.
fn replay_door<B: gdelt_serve::Backend>(
    o: &Options,
    door: &gdelt_serve::QueryService<B>,
    mix: &[Query],
    over: &str,
) -> (gdelt_serve::ReplayReport, gdelt_serve::ServiceMetrics) {
    let clients = o.clients.unwrap_or(4);
    eprintln!(
        "replaying {} queries from {clients} client(s){over}, cache {}",
        mix.len(),
        if o.no_cache { "disabled" } else { "enabled" },
    );
    let report = gdelt_serve::replay(|q| door.run(q), mix, clients);
    let metrics = door.metrics();
    println!("{}", report.render());
    println!("{}", metrics.render());
    (report, metrics)
}

/// The `serve-bench --check` ledger, the same for both doors: no
/// errors, no sheds and no degraded answers at low load and, with the
/// cache on, at least one hit and every completed query either a hit or
/// a miss (coalesced and cached completions included).
fn check_ledger(
    o: &Options,
    report: &gdelt_serve::ReplayReport,
    metrics: &gdelt_serve::ServiceMetrics,
) -> Result<(), String> {
    let (hits, misses) = (metrics.cache.hits, metrics.cache.misses);
    let cached = !o.no_cache;
    let ledger = [
        (report.errors > 0, format!("{} queries errored", report.errors)),
        (metrics.shed > 0, format!("{} queries shed at low load", metrics.shed)),
        (metrics.degraded > 0, format!("{} degraded answers", metrics.degraded)),
        (cached && hits == 0, "expected at least one cache hit".to_string()),
        (
            cached && report.completed as u64 != hits + misses,
            format!("{} completed != {hits} cache hits + {misses} misses", report.completed),
        ),
    ];
    match ledger.into_iter().find(|(failed, _)| *failed) {
        Some((_, why)) if o.check => Err(format!("check failed: {why}")),
        _ if o.check => {
            eprintln!(
                "serve-bench check passed: {} completed ({hits} cache hits + {misses} misses, \
                 {} executions after coalescing), 0 sheds, 0 degraded",
                report.completed, metrics.completed
            );
            Ok(())
        }
        _ => Ok(()),
    }
}

/// The eight query shapes `chaos` drives through every phase — one per
/// result family, matching the serve test matrix.
const CHAOS_QUERIES: [Query; 8] = [
    Query::CoReport,
    Query::FollowReport { top_k: 5 },
    Query::CrossCountry,
    Query::Delay,
    Query::TimeSeries(gdelt_engine::SeriesKind::Events),
    Query::TimeSeries(gdelt_engine::SeriesKind::LateArticles { threshold: 96 }),
    Query::TopK { kind: gdelt_engine::TopKKind::Publishers, k: 10 },
    Query::TopK { kind: gdelt_engine::TopKKind::Events, k: 10 },
];

fn cmd_chaos(o: &Options) -> Result<(), String> {
    if o.shards.is_some() {
        return cmd_chaos_shards(o);
    }
    use gdelt_columnar::binfmt::save_with_partitions;
    use gdelt_columnar::degraded::restrict_to_partitions;
    use gdelt_columnar::{load_degraded_with, RetryPolicy};
    use gdelt_faults::{seeded_picks, FaultPlan, PlanSpec};
    use gdelt_serve::{
        replay, seeded_mix, DegradedPolicy, ExecHook, QueryService, ServeError, ServiceConfig,
    };
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let seed = o.seed.unwrap_or(42);
    let out_dir = o.output.clone().unwrap_or_else(|| PathBuf::from("target/chaos"));
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let store = out_dir.join("store.gdhpc");
    let mut violations: Vec<String> = Vec::new();
    let mut violated = |v: String| {
        eprintln!("VIOLATION: {v}");
        violations.push(v);
    };
    // Retry fast: the injected transient failures are deterministic, so
    // real-time backoff only slows the harness down.
    let policy = RetryPolicy {
        max_retries: 4,
        backoff: std::time::Duration::from_millis(1),
        backoff_cap: std::time::Duration::from_millis(4),
    };
    let ctx = o.ctx();

    // ---- phase 0: build the tiny store ---------------------------------
    let cfg = o.config();
    eprintln!("chaos: seed {seed}, store {} ({} events)", store.display(), cfg.n_events);
    let (clean_dataset, _) = gdelt_synth::generate_dataset(&cfg);
    save_with_partitions(&store, &clean_dataset, DEFAULT_STORE_PARTITIONS)
        .map_err(|e| format!("writing {}: {e}", store.display()))?;

    // ---- phase 1: clean load control arm -------------------------------
    let clean = load_degraded_with(&store, &policy, &FaultPlan::clean(seed))
        .map_err(|e| format!("clean load failed: {e}"))?;
    if !clean.health.is_clean() || !clean.health.coverage().is_full() {
        violated(format!("clean load not clean: {}", clean.health.render()));
    }
    // Served answers over the clean store must match the bare engine —
    // the same equivalence serve-bench relies on.
    let service = QueryService::new(
        clean.dataset.clone(),
        ServiceConfig { workers: 2, threads: o.threads, ..Default::default() },
    );
    check_full_answers(&service, &ctx, &clean.dataset, "clean serve")
        .into_iter()
        .for_each(&mut violated);
    drop(service);
    eprintln!("chaos: clean arm ok (coverage {})", clean.health.coverage());

    // ---- phase 2: seeded corruption, degraded load ---------------------
    let spec = PlanSpec {
        corrupt_partitions: 1,
        transient_failures: 1,
        truncate_tail: false,
        delay_ms: 0,
    };
    let plan = FaultPlan::seeded(&store, seed, &spec).map_err(|e| format!("planning: {e}"))?;
    let schedule_path = out_dir.join("fault-schedule.json");
    std::fs::write(&schedule_path, plan.to_json())
        .map_err(|e| format!("writing {}: {e}", schedule_path.display()))?;
    eprintln!("chaos: fault schedule -> {}", schedule_path.display());
    if plan != FaultPlan::seeded(&store, seed, &spec).map_err(|e| format!("replanning: {e}"))? {
        violated("fault plan is not deterministic for a fixed seed".into());
    }

    let degraded = load_degraded_with(&store, &policy, &plan)
        .map_err(|e| format!("degraded load failed outright: {e}"))?;
    let again = load_degraded_with(&store, &policy, &plan)
        .map_err(|e| format!("second degraded load failed: {e}"))?;
    if degraded.health != again.health {
        violated(format!(
            "degraded load not deterministic:\n{}\nvs\n{}",
            degraded.health.render(),
            again.health.render()
        ));
    }
    for p in &plan.corrupted_partitions {
        if !degraded.health.quarantined.contains(p) {
            violated(format!("targeted partition {p} was not quarantined"));
        }
    }
    if degraded.health.coverage().is_full() {
        violated("corrupted store loaded with full coverage".into());
    }
    if degraded.health.retries == 0 {
        violated("scheduled transient failure produced no retry".into());
    }
    eprintln!(
        "chaos: degraded arm quarantined {:?}, coverage {}, {} retries",
        degraded.health.quarantined,
        degraded.health.coverage(),
        degraded.health.retries
    );

    // Bit-identity: every family over the degraded store must equal the
    // clean run restricted to the same live partitions.
    let restricted = restrict_to_partitions(
        &clean.dataset,
        DEFAULT_STORE_PARTITIONS,
        &degraded.health.quarantined,
    )
    .map_err(|e| format!("restricting the clean dataset: {e}"))?;
    for q in CHAOS_QUERIES {
        let over_degraded = run_query(&ctx, &degraded.dataset, &q);
        if over_degraded != run_query(&ctx, &restricted, &q) {
            violated(format!(
                "{q} over the degraded store != clean run restricted to same partitions"
            ));
        }
        if over_degraded != run_query(&ctx, &again.dataset, &q) {
            violated(format!("{q} differs between two identically-faulted loads"));
        }
    }

    // Degraded serving: ServePartial annotates, Fail refuses.
    {
        let service = QueryService::with_health(
            degraded.dataset.clone(),
            degraded.health.clone(),
            ServiceConfig { workers: 2, threads: o.threads, ..Default::default() },
        );
        for q in CHAOS_QUERIES {
            match service.run_covered(q) {
                Ok(ans) => {
                    if ans.coverage.is_full() || ans.coverage != degraded.health.coverage() {
                        violated(format!("degraded serve of {q}: bad coverage {}", ans.coverage));
                    }
                }
                Err(e) => violated(format!("degraded serve of {q} failed under ServePartial: {e}")),
            }
        }
        let strict = QueryService::with_health(
            degraded.dataset.clone(),
            degraded.health.clone(),
            ServiceConfig {
                workers: 2,
                threads: o.threads,
                degraded_policy: DegradedPolicy::Fail,
                ..Default::default()
            },
        );
        if !matches!(strict.run(Query::CoReport), Err(ServeError::Degraded { .. })) {
            violated("Fail policy served a degraded store".into());
        }
    }

    // ---- phase 3: serve under worker panics + apply_batch storms -------
    let n_queries = o.queries.unwrap_or(120);
    let mix = seeded_mix(n_queries, seed);
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
    let service = QueryService::new(
        clean_dataset,
        ServiceConfig {
            workers: o.workers.unwrap_or(2),
            threads: o.threads,
            exec_hook: Some(hook),
            ..Default::default()
        },
    );

    // Storm batches: novel ids appended mid-replay, each bumping the
    // generation and invalidating the cache.
    let storm_cfg = paper_calibrated(o.scale.unwrap_or(1e-4), seed ^ 0x5702_17AA);
    let storm = generate(&storm_cfg);
    const STORMS: usize = 3;
    let chunk = storm.events.len().div_ceil(STORMS).max(1);
    let m_chunk = storm.mentions.len().div_ceil(STORMS).max(1);
    let mut batches = Vec::new();
    for i in 0..STORMS {
        let evs: Vec<_> = storm
            .events
            .iter()
            .skip(i * chunk)
            .take(chunk)
            .cloned()
            .map(|mut e| {
                e.id = gdelt_model::ids::EventId(e.id.0 + (1 << 40));
                e
            })
            .collect();
        let mens: Vec<_> = storm
            .mentions
            .iter()
            .skip(i * m_chunk)
            .take(m_chunk)
            .cloned()
            .map(|mut m| {
                m.event_id = gdelt_model::ids::EventId(m.event_id.0 + (1 << 40));
                m
            })
            .collect();
        batches.push((evs, mens));
    }

    // Injected panics are expected here; keep them off the console.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = std::thread::scope(|s| {
        let svc = &service;
        s.spawn(move || {
            for (evs, mens) in batches {
                std::thread::sleep(std::time::Duration::from_millis(5));
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
        violated("no scheduled worker panic fired".into());
    }
    if metrics.worker_panics != fired {
        violated(format!(
            "panic accounting: {} fired but {} recorded (a panic escaped or was double-counted)",
            fired, metrics.worker_panics
        ));
    }
    if report.completed + report.sheds + report.errors != report.total {
        violated(format!(
            "lost queries: {} + {} + {} != {}",
            report.completed, report.sheds, report.errors, report.total
        ));
    }
    if metrics.cache.invalidations == 0 {
        violated("apply_batch storms never invalidated the cache".into());
    }
    // Post-run cache coherence: everything the service now answers —
    // cached or recomputed — must match the bare engine over the final
    // dataset. A stale-generation entry surviving the storms would
    // surface here.
    let final_dataset = service.dataset();
    let mut distinct: Vec<Query> = Vec::new();
    for q in &mix {
        if !distinct.contains(q) {
            distinct.push(*q);
        }
    }
    for q in &distinct {
        match service.run(*q) {
            Ok(served) => {
                if *served != run_query(&ctx, &final_dataset, q) {
                    violated(format!("stale answer for {q} after the storms"));
                }
            }
            Err(e) => violated(format!("post-storm run of {q} failed: {e}")),
        }
    }
    eprintln!(
        "chaos: storm arm ok ({} executions, {} injected panics, {} invalidations)",
        execs.load(Ordering::Relaxed),
        fired,
        metrics.cache.invalidations
    );

    // The flight recorder saw every injected fault, retry, quarantine,
    // refusal, and caught panic above; dump it next to the schedule so
    // a failing CI run ships its own black box.
    let flight = gdelt_obs::flight_snapshot();
    if !flight.iter().any(|e| e.component == "faults") {
        violated("no injected fault reached the flight recorder".into());
    }
    if !flight.iter().any(|e| e.component == "degraded") {
        violated("the degraded load left no flight-recorder trace".into());
    }
    let flight_path = out_dir.join("flight-recorder.txt");
    std::fs::write(&flight_path, gdelt_obs::render_flight(&flight))
        .map_err(|e| format!("writing {}: {e}", flight_path.display()))?;
    eprintln!("chaos: flight recorder ({} events) -> {}", flight.len(), flight_path.display());

    if violations.is_empty() {
        eprintln!("chaos: all invariants held (seed {seed})");
        Ok(())
    } else {
        let msg = format!(
            "chaos: {} invariant(s) violated (seed {seed}, schedule at {})",
            violations.len(),
            schedule_path.display()
        );
        if o.check {
            Err(msg)
        } else {
            eprintln!("{msg}");
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// The sharded serve tier: split-store / shard-worker subcommands, the
// serve-bench router arm, and the chaos shard arm.
// ---------------------------------------------------------------------------

fn cmd_split_store(o: &Options) -> Result<(), String> {
    let data = o.data.as_deref().ok_or("split-store requires --data FILE.gdhpc")?;
    let out = o.output.as_deref().ok_or("split-store requires --out DIR")?;
    let n = o.shards.ok_or("split-store requires --shards N")?;
    let manifest = gdelt_shard::split_store(data, out, n)
        .map_err(|e| format!("splitting {}: {e}", data.display()))?;
    println!(
        "split {} ({} partitions) into {} shard store(s) under {}",
        data.display(),
        manifest.source_partitions,
        manifest.shards.len(),
        out.display()
    );
    for (i, s) in manifest.shards.iter().enumerate() {
        println!(
            "  shard {i}: {} — {} partition(s), {} events (row base {}), {} mentions",
            s.file, s.partitions, s.events, s.ev_row_base, s.mentions
        );
    }
    Ok(())
}

fn cmd_shard_worker(o: &Options) -> Result<(), String> {
    use gdelt_shard::{ShardWorker, WorkerConfig};
    use std::io::Write as _;

    let store = o.data.clone().ok_or("shard-worker requires --data SHARD.gdhpc")?;
    let cfg = WorkerConfig {
        store,
        shard_id: o.shard_id.unwrap_or(0),
        partitions: o.partitions.unwrap_or(1),
        ev_row_base: o.ev_row_base.unwrap_or(0),
        threads: o.threads.unwrap_or(2),
        fault_delay_at: o.fault_delay_at,
        fault_delay_ms: o.fault_delay_ms.unwrap_or(0),
        trace: o.trace,
    };
    let worker = ShardWorker::load(cfg).map_err(|e| format!("loading shard store: {e}"))?;
    let listener = std::net::TcpListener::bind(("127.0.0.1", o.port.unwrap_or(0)))
        .map_err(|e| format!("binding worker port: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("worker local addr: {e}"))?;
    // The spawner parses this exact line to learn the assigned port.
    println!("LISTENING {addr}");
    let _ = std::io::stdout().flush();
    worker.serve(listener).map_err(|e| format!("worker accept loop: {e}"))
}

/// One spawned `shard-worker` child process. Killed on drop so no run
/// — passing or failing — leaves orphan workers behind.
struct WorkerProc {
    child: std::process::Child,
    addr: String,
}

impl WorkerProc {
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn port(&self) -> Result<u16, String> {
        self.addr
            .rsplit(':')
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("unparseable worker address {:?}", self.addr))
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Spawn one worker process (re-invoking this binary) and block until
/// it reports its bound address.
fn spawn_worker_proc(
    store: &std::path::Path,
    shard_id: u32,
    partitions: u32,
    ev_row_base: u64,
    port: u16,
    fault_delay: Option<(u64, u64)>,
    trace: bool,
) -> Result<WorkerProc, String> {
    use std::io::BufRead as _;

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("shard-worker")
        .arg("--data")
        .arg(store)
        .arg("--shard-id")
        .arg(shard_id.to_string())
        .arg("--partitions")
        .arg(partitions.to_string())
        .arg("--ev-row-base")
        .arg(ev_row_base.to_string())
        .arg("--port")
        .arg(port.to_string())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null());
    if let Some((at, ms)) = fault_delay {
        cmd.arg("--fault-delay-at").arg(at.to_string());
        cmd.arg("--fault-delay-ms").arg(ms.to_string());
    }
    if trace {
        cmd.arg("--trace");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawning shard {shard_id}: {e}"))?;
    let stdout = child.stdout.take().ok_or("shard worker child has no stdout")?;
    let mut line = String::new();
    let read = std::io::BufReader::new(stdout).read_line(&mut line);
    let addr = match read {
        Ok(_) => line.strip_prefix("LISTENING ").map(|a| a.trim().to_string()),
        Err(_) => None,
    };
    match addr {
        Some(addr) if !addr.is_empty() => Ok(WorkerProc { child, addr }),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!("shard {shard_id} never reported its address (got {line:?})"))
        }
    }
}

/// Spawn one worker per manifest shard on OS-assigned ports. `delay`
/// is `(shard, at_request, ms)` for the chaos delay arm.
fn spawn_fleet(
    shard_dir: &std::path::Path,
    manifest: &gdelt_shard::ShardManifest,
    delay: Option<(u32, u64, u64)>,
    trace: bool,
) -> Result<Vec<WorkerProc>, String> {
    manifest
        .shards
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let fd = delay.and_then(|(s, at, ms)| (s == i as u32).then_some((at, ms)));
            spawn_worker_proc(
                &manifest.shard_path(shard_dir, i),
                i as u32,
                e.partitions,
                e.ev_row_base,
                0,
                fd,
                trace,
            )
        })
        .collect()
}

/// Respawn a killed worker on its original port. The OS can hold the
/// port briefly after the kill, so bind failures retry.
fn respawn_worker(
    store: &std::path::Path,
    shard_id: u32,
    entry: &gdelt_shard::ShardEntry,
    port: u16,
) -> Result<WorkerProc, String> {
    let mut last = String::new();
    for _ in 0..10 {
        match spawn_worker_proc(
            store,
            shard_id,
            entry.partitions,
            entry.ev_row_base,
            port,
            None,
            false,
        ) {
            Ok(w) => return Ok(w),
            Err(e) => {
                last = e;
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
        }
    }
    Err(format!("respawning shard {shard_id} on port {port}: {last}"))
}

/// The `serve-bench --shards N` arm: split the seeded store into N
/// shard stores, spawn one worker process per shard, and replay the
/// seeded mix through the scatter-gather router, then federate the
/// workers' metrics and stitch their traces when asked.
fn serve_bench_shards(
    o: &Options,
    n_shards: u32,
    dataset: &gdelt_columnar::Dataset,
    mix: &[Query],
) -> Result<(), String> {
    use gdelt_shard::{split_store, Router, RouterConfig};

    if n_shards == 0 || n_shards > DEFAULT_STORE_PARTITIONS {
        return Err(format!("--shards must be in 1..={DEFAULT_STORE_PARTITIONS}, got {n_shards}"));
    }
    let dir = PathBuf::from("target/serve-bench-shards");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let store = dir.join("store.gdhpc");
    gdelt_columnar::binfmt::save_with_partitions(&store, dataset, DEFAULT_STORE_PARTITIONS)
        .map_err(|e| format!("writing {}: {e}", store.display()))?;
    let shard_dir = dir.join("shards");
    let manifest = split_store(&store, &shard_dir, n_shards)
        .map_err(|e| format!("splitting {}: {e}", store.display()))?;
    let want_trace = o.trace_out.is_some();
    let fleet = spawn_fleet(&shard_dir, &manifest, None, want_trace)?;
    let router = Router::new(
        manifest,
        RouterConfig {
            addrs: fleet.iter().map(|w| w.addr.clone()).collect(),
            cache_enabled: !o.no_cache,
            read_timeout: std::time::Duration::from_secs(5),
            ..RouterConfig::default()
        },
    );
    if want_trace {
        // Discard the workers' start-up spans and any stale local ones
        // so the stitched artifact covers exactly one replay of the mix.
        let _ = router.collect_traces();
        let _ = gdelt_obs::take_spans();
        gdelt_obs::set_tracing(true);
    }
    let over = format!(" over {n_shards} shard worker(s)");
    let (report, metrics) = replay_door(o, &router, mix, &over);
    gdelt_obs::set_tracing(false);
    println!("router: {} reconnect(s) outside the hit/miss ledger", router.stats().retries);
    // Per-shard wire round-trip latency, from the router's own
    // registry (recorded on every scatter leg).
    let snap = gdelt_obs::global().snapshot();
    for i in 0..n_shards {
        if let Some(h) = snap.hists.get(&format!("router_shard_us_{i}")) {
            println!(
                "shard {i}: wire round-trip p50 {}us over {} request(s)",
                h.quantile(0.50),
                h.count
            );
        }
    }

    if let Some(path) = &o.metrics_out {
        write_federated_metrics(path, &router, n_shards)?;
    }
    if let Some(path) = &o.trace_out {
        write_stitched_trace(path, &router, n_shards)?;
    }
    drop(router);
    drop(fleet);
    check_ledger(o, &report, &metrics)
}

/// Federated metrics export: scrape every worker's registry over the
/// wire, merge with the router's own snapshot via the proven
/// associative/commutative merge, and write one Prometheus exposition
/// holding both the per-shard (`{shard="i"}`) and the unlabeled
/// federated view. Fails if any shard's scrape is missing or if the
/// federated counts do not equal the sum of the per-shard counts.
fn write_federated_metrics(
    path: &std::path::Path,
    router: &gdelt_shard::Router,
    n_shards: u32,
) -> Result<(), String> {
    let scraped = router.scrape_metrics();
    let mut parts: Vec<(String, gdelt_obs::RegistrySnapshot)> =
        vec![("router".to_string(), gdelt_obs::global().snapshot())];
    for (i, snap) in scraped.into_iter().enumerate() {
        match snap {
            Some(s) => parts.push((i.to_string(), s)),
            None => return Err(format!("metrics scrape of healthy shard {i} failed")),
        }
    }
    // The worker-side query histogram only exists in shard parts, so
    // its federated count must be exactly the per-shard sum.
    let per_shard_sum: u64 = parts
        .iter()
        .filter(|(label, _)| label != "router")
        .filter_map(|(_, s)| s.hists.get("shard_worker_query_us"))
        .map(|h| h.count)
        .sum();
    let mut fed = gdelt_obs::RegistrySnapshot::default();
    for (_, part) in &parts {
        fed.merge(part);
    }
    let fed_count = fed.hists.get("shard_worker_query_us").map_or(0, |h| h.count);
    if fed_count != per_shard_sum || per_shard_sum == 0 {
        return Err(format!(
            "federated shard_worker_query_us count {fed_count} != per-shard sum \
             {per_shard_sum} (or no worker queries recorded) across {n_shards} shard(s)"
        ));
    }
    let text = gdelt_obs::render_federated(&parts);
    let samples = gdelt_obs::validate_prometheus(&text)
        .map_err(|e| format!("federated exposition failed validation: {e}"))?;
    write(path.to_path_buf(), &text)?;
    eprintln!(
        "wrote federated metrics ({} samples from router + {n_shards} shard(s), \
         {per_shard_sum} worker queries) to {}",
        samples,
        path.display()
    );
    Ok(())
}

/// Stitched distributed trace export: drain the router process's own
/// spans, pull every worker's spans over the wire (already stamped
/// with absolute unix-epoch starts), rebase everything to the earliest
/// start, and write one Chrome trace_event document with a `pid` lane
/// per process. Fails unless every process contributed a lane and
/// every worker lane shares at least one trace id with the router —
/// i.e. the artifact really is one distributed trace, not N disjoint
/// ones.
fn write_stitched_trace(
    path: &std::path::Path,
    router: &gdelt_shard::Router,
    n_shards: u32,
) -> Result<(), String> {
    use std::collections::{HashMap, HashSet};

    let my_pid = std::process::id();
    let epoch = gdelt_obs::epoch_unix_ns();
    let mut events: Vec<gdelt_obs::TraceEvent> = Vec::new();
    for s in gdelt_obs::take_spans() {
        let mut ev = gdelt_obs::TraceEvent::from_span(&s, my_pid);
        ev.ts_ns = epoch.saturating_add(s.start_ns);
        events.push(ev);
    }
    for (i, collected) in router.collect_traces().into_iter().enumerate() {
        let Some((pid, spans)) = collected else {
            return Err(format!("trace collection from healthy shard {i} failed"));
        };
        for ws in spans {
            events.push(gdelt_obs::TraceEvent {
                name: ws.name,
                cat: ws.cat,
                ts_ns: ws.start_unix_ns,
                dur_ns: ws.dur_ns,
                pid,
                tid: ws.tid,
                trace_id: ws.trace_id,
                span_id: ws.span_id,
                parent_id: ws.parent_id,
                args: ws.args,
            });
        }
    }
    let t0 = events.iter().map(|e| e.ts_ns).min().unwrap_or(0);
    for e in &mut events {
        e.ts_ns -= t0;
    }

    let pids: HashSet<u32> = events.iter().map(|e| e.pid).collect();
    if pids.len() != n_shards as usize + 1 {
        return Err(format!(
            "stitched trace has {} process lane(s), expected {} (router + {n_shards} worker(s))",
            pids.len(),
            n_shards + 1
        ));
    }
    let mut by_trace: HashMap<u64, HashSet<u32>> = HashMap::new();
    for e in &events {
        if e.trace_id != 0 {
            by_trace.entry(e.trace_id).or_default().insert(e.pid);
        }
    }
    for pid in pids.iter().filter(|p| **p != my_pid) {
        if !by_trace.values().any(|set| set.contains(pid) && set.contains(&my_pid)) {
            return Err(format!(
                "worker pid {pid} shares no trace id with the router — trace \
                 propagation broke somewhere on the wire"
            ));
        }
    }

    let doc = gdelt_obs::chrome_trace_json_events(&events);
    let n = gdelt_obs::validate_chrome_trace(&doc)
        .map_err(|e| format!("stitched trace failed validation: {e}"))?;
    write(path.to_path_buf(), &doc)?;
    eprintln!(
        "wrote stitched trace ({n} events across {} process lanes, {} distributed trace(s)) to {}",
        pids.len(),
        by_trace.len(),
        path.display()
    );
    Ok(())
}

/// Ask `door` every chaos query; what went wrong, in `phase`'s words:
/// an error, partial coverage, or an answer that differs from
/// `run_query` over `want`.
fn check_full_answers<B: gdelt_serve::Backend>(
    door: &gdelt_serve::QueryService<B>,
    ctx: &ExecContext,
    want: &gdelt_columnar::Dataset,
    phase: &str,
) -> Vec<String> {
    CHAOS_QUERIES
        .iter()
        .filter_map(|q| match door.run_covered(*q) {
            Ok(a) if !a.coverage.is_full() => {
                Some(format!("{phase}: {q} served with coverage {}", a.coverage))
            }
            Ok(a) if *a.result != run_query(ctx, want, q) => {
                Some(format!("{phase}: {q} differs from single-process run_query"))
            }
            Ok(_) => None,
            Err(e) => Some(format!("{phase}: {q} failed: {e}")),
        })
        .collect()
}

/// The chaos queries whose shard plan is a single scatter round. The
/// delay arm needs the victim's request index to equal the query
/// index, and `FollowReport` issues two requests per query.
fn direct_chaos_queries() -> Vec<Query> {
    CHAOS_QUERIES.iter().copied().filter(|q| !matches!(q, Query::FollowReport { .. })).collect()
}

/// Lift a `run_query` answer over the partition-restricted control
/// dataset into the surviving shards' global row space: the restricted
/// store renumbers event rows contiguously, while shard partials keep
/// their original `ev_row_base`, so restricted rows at or past the
/// dead shard's block shift back up by its event count. Only
/// `TopEvents` exposes row ids; every other family is row-free, and
/// the shift is monotonic so stable tie-breaks are preserved.
fn remap_restricted_rows(mut r: QueryResult, dead_base: u64, dead_events: u64) -> QueryResult {
    if let QueryResult::TopEvents(entries) = &mut r {
        for (row, _) in entries.iter_mut() {
            if *row as u64 >= dead_base {
                *row += dead_events as usize;
            }
        }
    }
    r
}

/// The chaos shard arm: a seeded `ShardFaultPlan` drives a real worker
/// fleet through kill, recovery, and stall, asserting at every step
/// that the router's answers stay bit-identical to a single-process
/// control (full or partition-restricted), that coverage is *exactly*
/// `Degraded{live,total}` for the scheduled victims, that no stale
/// cache entry survives a shard death, and that reconnection restores
/// full coverage.
fn cmd_chaos_shards(o: &Options) -> Result<(), String> {
    use gdelt_columnar::binfmt::save_with_partitions;
    use gdelt_columnar::degraded::restrict_to_partitions;
    use gdelt_columnar::RetryPolicy;
    use gdelt_faults::{ShardFault, ShardFaultPlan};
    use gdelt_shard::{shard_range, split_store, Router, RouterConfig};

    let n_shards = o.shards.unwrap_or(3);
    if !(2..=DEFAULT_STORE_PARTITIONS).contains(&n_shards) {
        return Err(format!(
            "chaos --shards needs 2..={DEFAULT_STORE_PARTITIONS} shards, got {n_shards}"
        ));
    }
    let seed = o.seed.unwrap_or(42);
    let out_dir = o.output.clone().unwrap_or_else(|| PathBuf::from("target/chaos-shards"));
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let mut violations: Vec<String> = Vec::new();
    let mut violated = |v: String| {
        eprintln!("VIOLATION: {v}");
        violations.push(v);
    };
    let ctx = o.ctx();

    // ---- build + split the store ---------------------------------------
    let cfg = o.config();
    eprintln!("chaos --shards: seed {seed}, {n_shards} shards ({} events)", cfg.n_events);
    let (clean, _) = gdelt_synth::generate_dataset(&cfg);
    let store = out_dir.join("store.gdhpc");
    save_with_partitions(&store, &clean, DEFAULT_STORE_PARTITIONS)
        .map_err(|e| format!("writing {}: {e}", store.display()))?;
    let shard_dir = out_dir.join("shards");
    let manifest =
        split_store(&store, &shard_dir, n_shards).map_err(|e| format!("splitting: {e}"))?;
    let total = manifest.source_partitions;

    // ---- the seeded fault schedule -------------------------------------
    let direct = direct_chaos_queries();
    let horizon = direct.len() as u64;
    const DELAY_MS: u64 = 1200;
    let plan = ShardFaultPlan::seeded(seed, n_shards, 1, 1, DELAY_MS, horizon);
    if plan != ShardFaultPlan::seeded(seed, n_shards, 1, 1, DELAY_MS, horizon) {
        violated("shard fault plan is not deterministic for its seed".into());
    }
    let schedule_path = out_dir.join("shard-fault-schedule.json");
    std::fs::write(&schedule_path, plan.to_json())
        .map_err(|e| format!("writing {}: {e}", schedule_path.display()))?;
    eprintln!("chaos --shards: schedule -> {}", schedule_path.display());
    let kill_victim = plan.killed_shards()[0] as usize;
    let kill_at = plan.first_kill_query().expect("one kill scheduled");

    // ---- phase S1: healthy fleet, bit-identical + cached ---------------
    let mut fleet = spawn_fleet(&shard_dir, &manifest, None, false)?;
    let reconnect = RetryPolicy {
        max_retries: 1,
        backoff: std::time::Duration::from_millis(5),
        backoff_cap: std::time::Duration::from_millis(40),
    };
    let router = Router::new(
        manifest.clone(),
        RouterConfig {
            addrs: fleet.iter().map(|w| w.addr.clone()).collect(),
            read_timeout: std::time::Duration::from_secs(5),
            reconnect,
            ..RouterConfig::default()
        },
    );
    check_full_answers(&router, &ctx, &clean, "healthy fleet").into_iter().for_each(&mut violated);
    let s1 = router.stats();
    check_full_answers(&router, &ctx, &clean, "cached re-ask").into_iter().for_each(&mut violated);
    let s2 = router.stats();
    if s2.hits < s1.hits + CHAOS_QUERIES.len() as u64 {
        violated("warm re-ask did not hit the router cache".into());
    }
    if s2.completed != s2.hits + s2.misses {
        violated("router hit/miss ledger broke on the healthy fleet".into());
    }
    eprintln!("chaos --shards: healthy arm ok ({} completed, {} hits)", s2.completed, s2.hits);

    // ---- phase S2: the scheduled kill ----------------------------------
    let dead = manifest.shards[kill_victim].clone();
    let live_parts = total - dead.partitions;
    let (lo, hi) = shard_range(DEFAULT_STORE_PARTITIONS, n_shards, kill_victim as u32);
    let victim_range: Vec<u32> = (lo..hi).collect();
    let restricted = restrict_to_partitions(&clean, DEFAULT_STORE_PARTITIONS, &victim_range)
        .map_err(|e| format!("restricting the control dataset: {e}"))?;

    let gen_before = router.generation();
    for (i, q) in CHAOS_QUERIES.iter().enumerate() {
        if i as u64 == kill_at {
            eprintln!("chaos --shards: killing shard {kill_victim} before query {i}");
            fleet[kill_victim].kill();
            let probed = router.probe();
            if probed[kill_victim].is_some() {
                violated("killed worker still answers health probes".into());
            }
            if router.generation() <= gen_before {
                violated("shard death did not bump the cache generation".into());
            }
        }
        match router.query(q) {
            Ok(ans) => {
                if (i as u64) < kill_at {
                    if !ans.coverage.is_full() {
                        violated(format!("pre-kill query {q} lost coverage"));
                    }
                } else {
                    if ans.coverage.live != live_parts || ans.coverage.total != total {
                        violated(format!(
                            "query {q} after the kill reported {}/{} coverage, want \
                             {live_parts}/{total}",
                            ans.coverage.live, ans.coverage.total
                        ));
                    }
                    let expect = remap_restricted_rows(
                        run_query(&ctx, &restricted, q),
                        dead.ev_row_base,
                        dead.events,
                    );
                    if *ans.result != expect {
                        violated(format!(
                            "degraded answer for {q} is not bit-identical to the \
                             restricted store"
                        ));
                    }
                }
            }
            Err(e) => violated(format!("ServePartial query {q} failed after the kill: {e}")),
        }
    }
    let s3 = router.stats();
    if s3.completed != s3.hits + s3.misses {
        violated("hit/miss ledger broke across the shard kill".into());
    }
    if s3.degraded < CHAOS_QUERIES.len() as u64 - kill_at {
        violated("degraded answers were undercounted after the kill".into());
    }
    eprintln!(
        "chaos --shards: kill arm ok (shard {kill_victim} at query {kill_at}, \
         exact {live_parts}/{total} coverage held)"
    );

    // ---- phase S3: respawn on the same port, full recovery -------------
    let port = fleet[kill_victim].port()?;
    fleet[kill_victim] = respawn_worker(
        &manifest.shard_path(&shard_dir, kill_victim),
        kill_victim as u32,
        &dead,
        port,
    )?;
    let mut revived = false;
    for _ in 0..50 {
        if router.probe()[kill_victim].is_some() {
            revived = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    if !revived {
        violated("respawned worker never became reachable".into());
    }
    check_full_answers(&router, &ctx, &clean, "post-revive").into_iter().for_each(&mut violated);
    let s4 = router.stats();
    if s4.retries == 0 {
        violated("recovery produced no counted reconnect".into());
    }
    eprintln!("chaos --shards: recovery arm ok ({} reconnect(s))", s4.retries);
    drop(fleet);

    // ---- phase S4: the scheduled stall -> timeout -> exact window ------
    let (delay_victim, delay_at, delay_ms) = plan
        .faults
        .iter()
        .find_map(|&(s, f)| match f {
            ShardFault::Delay { at_query, ms } => Some((s as usize, at_query, ms)),
            _ => None,
        })
        .expect("one delay scheduled");
    let delay_parts = manifest.shards[delay_victim].partitions;
    let fleet2 =
        spawn_fleet(&shard_dir, &manifest, Some((delay_victim as u32, delay_at, delay_ms)), false)?;
    let router2 = Router::new(
        manifest.clone(),
        RouterConfig {
            addrs: fleet2.iter().map(|w| w.addr.clone()).collect(),
            // Cache off so each direct query is exactly one request at
            // the victim: its request index equals the query index.
            cache_enabled: false,
            read_timeout: std::time::Duration::from_millis(200),
            reconnect,
            ..RouterConfig::default()
        },
    );
    for (i, q) in direct.iter().enumerate() {
        match router2.query(q) {
            Ok(ans) => {
                if i as u64 == delay_at {
                    if ans.coverage.live != total - delay_parts {
                        violated(format!(
                            "stall window: query {q} reported {}/{total} coverage, want \
                             {}/{total}",
                            ans.coverage.live,
                            total - delay_parts
                        ));
                    }
                } else if !ans.coverage.is_full() {
                    violated(format!(
                        "query {q} (index {i}) lost coverage outside the stall window"
                    ));
                }
            }
            Err(e) => violated(format!("stall-arm query {q} failed: {e}")),
        }
    }
    if router2.stats().retries == 0 {
        violated("the timed-out shard never reconnected".into());
    }
    eprintln!(
        "chaos --shards: stall arm ok (shard {delay_victim} stalled {delay_ms}ms at \
         query {delay_at}, timeout handled)"
    );
    // One last scrape before the fleet dies: replies already piggyback
    // recent worker flight events, but if the stall fired on the very
    // last query its `fault_delay` may still be waiting worker-side —
    // the scrape forwards it (the per-shard cursors keep re-records
    // at-most-once).
    let _ = router2.scrape_metrics();
    drop(fleet2);

    // ---- the black box --------------------------------------------------
    let flight = gdelt_obs::flight_snapshot();
    if !flight.iter().any(|e| e.component == "shard") {
        violated("the shard faults left no flight-recorder trace".into());
    }
    if !flight.iter().any(|e| e.component == "worker" && e.code == "fault_delay") {
        violated(
            "no worker-side fault_delay event reached the router flight recorder — \
             cross-process flight forwarding is broken"
                .into(),
        );
    }
    let flight_path = out_dir.join("flight-recorder.txt");
    std::fs::write(&flight_path, gdelt_obs::render_flight(&flight))
        .map_err(|e| format!("writing {}: {e}", flight_path.display()))?;
    eprintln!(
        "chaos --shards: flight recorder ({} events) -> {}",
        flight.len(),
        flight_path.display()
    );

    if violations.is_empty() {
        eprintln!("chaos --shards: all invariants held (seed {seed})");
        Ok(())
    } else {
        let msg = format!(
            "chaos --shards: {} invariant(s) violated (seed {seed}, schedule at {})",
            violations.len(),
            schedule_path.display()
        );
        if o.check {
            Err(msg)
        } else {
            eprintln!("{msg}");
            Ok(())
        }
    }
}

fn write(path: PathBuf, content: &str) -> Result<(), String> {
    std::fs::write(&path, content).map_err(|e| format!("writing {}: {e}", path.display()))
}
