//! The benchmark's declared surface: workloads, metric names, units and
//! bounds. `BENCHMARK.json` at the repository root is exactly
//! [`benchmark_json`]; the self-test fails when the two drift apart.

use gdelt_engine::Query;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "gdbench/Cargo.toml",
    "--",
];

/// A workload and the reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "scan-large",
        why: "engine::run_query over a corpus 20x the sequential cut-off: kernels, chunked scan and merge do all read work, append_batch is the write; csv/binfmt/serve/shard do none",
    },
    WorkloadSpec {
        name: "ingest-reopen",
        why: "full TSV convert as the write and load-then-query as the read: csv, builder, save and load dominate and kernels are under a third of a read",
    },
    WorkloadSpec {
        name: "serve-live",
        why: "QueryService with cache on and apply_batch every round: admission, queue hand-off, cache insert/invalidate and per-query thread dispatch sit on the path of small kernels",
    },
    WorkloadSpec {
        name: "shard-scatter",
        why: "Router over two one-thread ShardWorkers on loopback TCP: wire encode/decode, scatter/gather and partial merge do the shard-specific work; the write is a worker store roll-over",
    },
];

/// An end-to-end metric; every workload prints all of them and lower is
/// better for each.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", bound: 0.25 },
    EndToEnd { name: "report_cost", unit: "ratio", bound: 0.25 },
    EndToEnd { name: "dash_cost", unit: "ratio", bound: 0.25 },
    EndToEnd { name: "mem_bytes_per_row", unit: "B/row", bound: 0.05 },
];

/// A per-layer metric (printed by `--trace 1`).
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

pub const OPS: [&str; 3] = ["report", "dash", "write"];
pub const LAYERS: [&str; 6] = ["csv", "columnar", "engine", "serve", "shard", "harness"];

const HI: &str = "higher";
const LO: &str = "lower";

/// The 92 per-layer metrics, in print order.
pub fn per_layer() -> Vec<PerLayer> {
    let mut v: Vec<PerLayer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: &'static str| {
        v.push(PerLayer { name: name.to_string(), unit, better });
    };
    // How far to trust a run: they move nothing.
    add("host.cores", "count", HI);
    add("host.compute_mops_s", "Mops/s", HI);
    add("host.stream_gb_s", "GB/s", HI);
    add("host.gather_mops_s", "Mops/s", HI);
    add("host.scatter_mops_s", "Mops/s", HI);
    add("host.probe_p50_ms", "ms", LO);
    add("host.drift_ratio", "ratio", LO);
    add("synth.generate_s", "s", LO);
    add("corpus.events", "count", HI);
    add("corpus.mentions", "count", HI);
    // The gated costs in wall-clock form, and memory.
    add("raw.report_p50_ms", "ms", LO);
    add("raw.dash_p50_ms", "ms", LO);
    add("raw.write_p50_ms", "ms", LO);
    add("raw.report_p90_ms", "ms", LO);
    add("raw.dash_p90_ms", "ms", LO);
    add("raw.write_p90_ms", "ms", LO);
    // Not gated: no probe weighting steadies the writes (CALIBRATION.md).
    add("cost.write", "ratio", LO);
    add("mem.peak_rss_mb", "MB", LO);
    add("mem.served_rss_mb", "MB", LO);
    add("csv.parse_events_mb_s", "MB/s", HI);
    add("csv.parse_mentions_mb_s", "MB/s", HI);
    add("csv.bad_lines", "count", LO);
    add("columnar.build_mrows_s", "Mrows/s", HI);
    add("columnar.save_mb_s", "MB/s", HI);
    add("columnar.load_mb_s", "MB/s", HI);
    add("columnar.store_bytes_per_row", "B/row", LO);
    add("columnar.append_batch_ms", "ms", LO);
    for k in Query::KERNEL_NAMES {
        add(&format!("engine.{k}.p50_us"), "us", LO);
        add(&format!("engine.{k}.mrows_s"), "Mrows/s", HI);
    }
    add("exec.map_reduce_empty_us", "us", LO);
    add("exec.partitions", "count", LO);
    add("exec.speedup_coreport", "ratio", HI);
    add("exec.speedup_timeseries_articles", "ratio", HI);
    add("serve.miss_p50_us", "us", LO);
    add("serve.hit_p50_us", "us", LO);
    add("serve.miss_overhead_us", "us", LO);
    add("serve.hit_qps", "1/s", HI);
    add("serve.hit_ratio", "ratio", HI);
    add("serve.coalesced", "count", LO);
    add("serve.shed", "count", LO);
    add("serve.timeouts", "count", LO);
    add("serve.invalidated", "count", LO);
    add("serve.apply_batch_ms", "ms", LO);
    add("shard.split_store_ms", "ms", LO);
    add("shard.worker_load_ms", "ms", LO);
    add("shard.worker_handle_p50_us", "us", LO);
    add("shard.wire_encode_mb_s", "MB/s", HI);
    add("shard.wire_decode_mb_s", "MB/s", HI);
    add("shard.reply_bytes_report", "B", LO);
    add("shard.reply_bytes_dash", "B", LO);
    add("shard.merge_finalize_us", "us", LO);
    add("shard.rpc_overhead_us", "us", LO);
    add("shard.router_vs_local_ratio", "ratio", LO);
    add("shard.reconnects", "count", LO);
    add("shard.degraded", "count", LO);
    for op in OPS {
        for layer in LAYERS {
            add(&format!("share.{op}.{layer}"), "ratio", LO);
        }
    }
    add("trace.overhead_ratio", "ratio", LO);
    v
}

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    let command: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    s.push_str(&format!("  \"command\": [{}],\n", command.join(", ")));
    s.push_str("  \"paths\": [\"gdbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n", w.name, w.why));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}{comma}\n",
            m.name, m.unit, m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name, m.unit, m.better
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
