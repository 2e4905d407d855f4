//! `gdbench` — the repository's benchmark.
//!
//! One workload per process, one closed-loop client, every layer driven
//! from outside through public functions only. Each round starts with a
//! host probe; the gated metrics are op time ÷ probe time, so a noisy
//! neighbour moves both sides. See `README.md` beside this package for
//! the workloads, every metric's definition and what later changes must
//! keep source-compatible.

pub mod corpus;
pub mod door;
pub mod host;
pub mod layers;
pub mod ops;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

use corpus::Corpus;
use door::{work_dir, Door, SetupClock};
use host::HostProbe;
use runner::{run_rounds, Limit, OpSample, Samples, WARM_UP_ROUNDS};
use stats::{median, tail};
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Corpus scale override; the self-test runs every workload small.
    scale: Option<f64>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        scale: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => out.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => out.trace = value == "1",
            "--scale" => out.scale = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !spec::WORKLOADS.iter().any(|w| w.name == out.workload) {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if !(out.seconds > 0.0 && out.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(out)
}

/// Corpus scale per workload, sized for 2 cores and ≥ 4 GB (README
/// "Workloads" gives the row counts and why).
fn default_scale(workload: &str) -> f64 {
    match workload {
        "scan-large" => 0.004,
        "ingest-reopen" => 0.0002,
        _ => 0.002,
    }
}

/// A field of `/proc/self/status` (`VmRSS:`, `VmHWM:`) in MB; 0 where
/// there is no procfs.
fn rss_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run the benchmark; returns the process exit code.
pub fn run(args: &[String]) -> Result<i32, String> {
    let args = parse_args(args)?;
    assert!(!gdelt_obs::tracing_enabled(), "obs tracing stays off in every measured run");
    let dir = work_dir(&args.workload).map_err(|e| format!("work dir: {e}"))?;
    let outcome = run_in(&args, &dir);
    // Kept only on request, for looking at a run's stores and trace.
    if std::env::var_os("GDBENCH_KEEP_WORK").is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    outcome
}

/// What a run measured besides its samples.
struct Facts {
    threads: usize,
    generate_s: f64,
    setup_s: f64,
    /// (events, mentions, `memsize` bytes) of the dataset served when
    /// set-up ends.
    served: (usize, usize, usize),
    served_rss_mb: f64,
    peak_rss_mb: f64,
}

fn run_in(args: &Args, dir: &Path) -> Result<i32, String> {
    let started = Instant::now();
    let threads = host::cores();
    let mut probe = HostProbe::allocate();
    let scale = args.scale.unwrap_or_else(|| default_scale(&args.workload));
    let appends = matches!(args.workload.as_str(), "scan-large" | "serve-live");
    let mut corpus = Corpus::generate(scale, args.seed, appends);
    let probe_inputs = args.trace.then(|| {
        let t = Instant::now();
        let inputs = corpus.probe_inputs();
        corpus.generate_s += t.elapsed().as_secs_f64();
        inputs
    });

    let mut clock = SetupClock::default();
    let mut door: Box<dyn Door> = match args.workload.as_str() {
        "scan-large" => Box::new(workloads::ScanLarge::set_up(&mut corpus, threads, &mut clock)),
        "ingest-reopen" => {
            Box::new(workloads::IngestReopen::set_up(&mut corpus, threads, dir, &mut clock)?)
        }
        "serve-live" => Box::new(workloads::ServeLive::set_up(&mut corpus, threads, &mut clock)),
        _ => Box::new(workloads::ShardScatter::set_up(&mut corpus, threads, dir, &mut clock)?),
    };
    let generate_s = corpus.generate_s;
    drop(corpus);
    // Before any write: the same rows for every run of a seed.
    let served = door.served();

    let mut tr = Tracer::off();
    let warm = run_rounds(&mut *door, &mut probe, &mut tr, Limit::Rounds(WARM_UP_ROUNDS), false, 0);
    clock.seconds += warm.op_seconds;
    // Restart the peak-RSS watermark, so it covers serving and not set-up.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let served_rss_mb = rss_mb("VmRSS:");

    // The traced replay repeats the same inputs for a third of the time.
    let seconds = if args.trace { args.seconds / 3.0 } else { args.seconds };
    let limit = Limit::Time(Duration::from_secs_f64(seconds));
    let mut s = run_rounds(&mut *door, &mut probe, &mut tr, limit, args.trace, WARM_UP_ROUNDS);
    s.attempted += warm.attempted;
    s.failed += warm.failed;
    s.first_error = warm.first_error.or(s.first_error.take());
    let facts = Facts {
        threads,
        generate_s,
        setup_s: clock.seconds,
        served,
        served_rss_mb,
        peak_rss_mb: rss_mb("VmHWM:"),
    };
    door.shutdown();

    let (metrics, declared, trace_events) = match probe_inputs {
        Some((tsv, slices)) => {
            let trace_events = write_trace(&tr, dir)?;
            let mut m = replay_metrics(&s, &facts, &probe, &tr);
            m.extend(layers::probe(&tsv, slices, threads, dir)?);
            let declared = spec::per_layer().into_iter().map(|m| (m.name, m.unit)).collect();
            (m, declared, trace_events)
        }
        None => {
            let declared = spec::END_TO_END.iter().map(|m| (m.name.to_string(), m.unit)).collect();
            (end_to_end_metrics(&s, &facts), declared, 0)
        }
    };
    let fields = result_fields(&metrics, declared)?;

    let correct = s.failed == 0 && s.attempted > 0;
    let wall_s = started.elapsed().as_secs_f64();
    println!("{}", summary(args, &s, &facts, trace_events, wall_s));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{fields}}}}}",
        s.attempted.max(1),
        s.failed,
    );
    Ok(if correct { 0 } else { 1 })
}

type Metrics = Vec<(String, f64)>;

fn end_to_end_metrics(s: &Samples, facts: &Facts) -> Metrics {
    let (events, mentions, mem_bytes) = facts.served;
    vec![
        ("setup_s".into(), facts.setup_s),
        ("report_cost".into(), s.cost_median(&s.report)),
        ("dash_cost".into(), s.cost_median(&s.dash)),
        ("mem_bytes_per_row".into(), mem_bytes as f64 / (events + mentions).max(1) as f64),
    ]
}

/// Write the replay's spans as one Chrome trace into the work directory
/// and check what landed on disk; returns the event count.
fn write_trace(tr: &Tracer, dir: &Path) -> Result<usize, String> {
    let path = dir.join("trace.json");
    std::fs::write(&path, tr.chrome_json())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    gdelt_obs::validate_chrome_trace(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The per-layer metrics that come from the traced replay itself: host,
/// corpus, raw wall-clock, memory, shares and the tracing overhead.
fn replay_metrics(s: &Samples, facts: &Facts, probe: &HostProbe, tr: &Tracer) -> Metrics {
    let mut m = Metrics::new();
    let mut put = |name: &str, v: f64| m.push((name.to_string(), v));

    let probe_ms = s.probe_ms();
    let p50 = median(&probe_ms);
    // Rates of the probe whose total is closest to the median one.
    let typical = s
        .probes
        .iter()
        .min_by(|a, b| (a.total_s() * 1e3 - p50).abs().total_cmp(&(b.total_s() * 1e3 - p50).abs()));
    let (compute, stream, gather, scatter) =
        typical.map_or((0.0, 0.0, 0.0, 0.0), |p| probe.rates(p));
    let third = probe_ms.len() / 3;
    let drift = match third {
        0 => 1.0,
        n => median(&probe_ms[probe_ms.len() - n..]) / median(&probe_ms[..n]),
    };
    put("host.cores", facts.threads as f64);
    put("host.compute_mops_s", compute);
    put("host.stream_gb_s", stream);
    put("host.gather_mops_s", gather);
    put("host.scatter_mops_s", scatter);
    put("host.probe_p50_ms", p50);
    put("host.drift_ratio", drift);
    put("synth.generate_s", facts.generate_s);
    put("corpus.events", facts.served.0 as f64);
    put("corpus.mentions", facts.served.1 as f64);

    // Wall-clock from the rounds without spans; those with spans give
    // the tracing overhead.
    let ms = |ops: &[OpSample], traced: bool| -> Vec<f64> {
        ops.iter().filter(|o| s.traced[o.round] == traced).map(|o| o.seconds * 1e3).collect()
    };
    for (op, ops) in [("report", &s.report), ("dash", &s.dash), ("write", &s.write)] {
        put(&format!("raw.{op}_p50_ms"), median(&ms(ops, false)));
        put(&format!("raw.{op}_p90_ms"), tail(&ms(ops, false)));
    }
    let untraced_writes: Vec<OpSample> =
        s.write.iter().filter(|o| !s.traced[o.round]).copied().collect();
    put("cost.write", s.cost_median(&untraced_writes));
    put("mem.peak_rss_mb", facts.peak_rss_mb);
    put("mem.served_rss_mb", facts.served_rss_mb);
    for (i, share) in tr.shares().into_iter().enumerate() {
        let (op, layer) = (spec::OPS[i / spec::LAYERS.len()], spec::LAYERS[i % spec::LAYERS.len()]);
        put(&format!("share.{op}.{layer}"), share);
    }
    let reads = |traced| median(&ms(&s.report, traced)) + median(&ms(&s.dash, traced));
    put("trace.overhead_ratio", reads(true) / reads(false));
    m
}

/// Every declared metric exactly once, in declared order, finite —
/// rendered as the fields of the result line's `metrics` object.
fn result_fields(metrics: &Metrics, declared: Vec<(String, &str)>) -> Result<String, String> {
    if metrics.len() != declared.len() {
        return Err(format!("{} metrics measured, {} declared", metrics.len(), declared.len()));
    }
    let mut fields = Vec::new();
    for (name, unit) in &declared {
        let mut found = metrics.iter().filter(|(n, _)| n == name);
        match (found.next(), found.next()) {
            (Some((_, v)), None) if v.is_finite() => {
                fields.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
            }
            (first, _) => {
                return Err(format!("metric {name}: want one finite value, got {first:?}"))
            }
        }
    }
    Ok(fields.join(", "))
}

/// The line before the result: sample counts, the gated costs in raw
/// milliseconds, whether the steadiness floors held, and no claim.
fn summary(args: &Args, s: &Samples, facts: &Facts, trace_events: usize, wall_s: f64) -> String {
    let raw = |ops| median(&Samples::raw_ms(ops));
    let (report, dash, write) = (raw(&s.report), raw(&s.dash), raw(&s.write));
    let slowest = [&s.report, &s.dash, &s.write]
        .iter()
        .flat_map(|ops| ops.iter().map(|o| o.seconds * 1e3))
        .fold(0.0, f64::max);
    let floors_ok = s.report.len() >= runner::MIN_READ_SAMPLES
        && s.dash.len() >= runner::MIN_READ_SAMPLES
        && s.write.len() >= runner::MIN_WRITE_SAMPLES
        && slowest <= runner::MAX_OP_MS
        && report.min(dash).min(write) >= runner::MIN_GATED_MEDIAN_MS;
    let part =
        |i: usize| median(&s.probes.iter().map(|p| p.parts()[i] * 1e3).collect::<Vec<f64>>());
    let error = s.first_error.as_ref().map_or("null".to_string(), |e| format!("{e:?}"));
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cores\": {}, \
         \"events\": {}, \"mentions\": {}, \"rounds\": {}, \
         \"n_report\": {}, \"n_dash\": {}, \"n_write\": {}, \
         \"raw_report_p50_ms\": {report}, \"raw_dash_p50_ms\": {dash}, \"raw_write_p50_ms\": {write}, \
         \"write_cost\": {}, \
         \"probe_p50_ms\": {}, \"probe_parts_ms\": [{}, {}, {}, {}], \"slowest_op_ms\": {slowest}, \
         \"floors_ok\": {floors_ok}, \"inputs_exhausted\": {}, \"generate_s\": {}, \"setup_s\": {}, \
         \"check_share\": {}, \"wall_s\": {wall_s}, \"trace_events\": {trace_events}, \
         \"error\": {error}, \"claim\": null}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        facts.threads,
        facts.served.0,
        facts.served.1,
        s.probes.len(),
        s.report.len(),
        s.dash.len(),
        s.write.len(),
        s.cost_median(&s.write),
        median(&s.probe_ms()),
        part(0),
        part(1),
        part(2),
        part(3),
        s.inputs_exhausted,
        facts.generate_s,
        facts.setup_s,
        s.check_seconds / wall_s,
    )
}
