//! The benchmark's self-test: every workload at scale 1e-4 for one
//! second, both trace modes, through the built binary — the declared
//! surface is printed, nothing fails, and what a run leaves behind is
//! what the README says it leaves behind.

use gdbench::spec;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("gdbench sits in the repository root")
        .to_path_buf()
}

/// Run the built binary for one second on a tiny corpus; returns its
/// summary line, its result line and the work directory it used.
fn run_small(workload: &str, trace: u8, keep_work: bool) -> (String, String, PathBuf) {
    let target =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{workload}-{trace}"));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gdbench"));
    cmd.args(["--workload", workload, "--seed", "7", "--seconds", "1", "--scale", "0.0001"])
        .args(["--trace", &trace.to_string()])
        .env("CARGO_TARGET_DIR", &target)
        .env_remove("GDBENCH_KEEP_WORK")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if keep_work {
        cmd.env("GDBENCH_KEEP_WORK", "1");
    }
    let child = cmd.spawn().expect("start gdbench");
    let work = target.join("gdbench-work").join(format!("{workload}-{}", child.id()));
    let out = child.wait_with_output().expect("wait for gdbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload}: {stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    let mut lines = stdout.lines().rev().map(str::to_string);
    let result = lines.next().expect("a result line");
    (lines.next().expect("a summary line"), result, work)
}

/// The value and unit printed for `name` in a result line; panics unless
/// it is printed exactly once.
fn printed<'a>(result: &'a str, name: &str) -> (f64, &'a str) {
    let key = format!("\"{name}\": {{\"value\": ");
    let mut at = result.match_indices(&key);
    let (start, _) = at.next().unwrap_or_else(|| panic!("{name} is not printed"));
    assert!(at.next().is_none(), "{name} is printed twice");
    let rest = &result[start + key.len()..];
    let (value, rest) = rest.split_once(", \"unit\": \"").expect("a unit follows the value");
    let (unit, _) = rest.split_once('"').expect("the unit is a string");
    (value.parse().unwrap_or_else(|e| panic!("{name} = {value}: {e}")), unit)
}

fn check_workload(workload: &str) {
    // End-to-end run: the four gated metrics, non-zero, and a clean exit
    // that leaves no work directory.
    let (summary, result, work) = run_small(workload, 0, false);
    let (summary, result) = (summary.as_str(), result.as_str());
    assert!(result.starts_with("{\"correct\": true, \"attempted\": "), "{result}");
    assert!(result.contains("\"failed\": 0,"), "{result}");
    assert!(summary.ends_with("\"claim\": null}"), "{summary}");
    for m in &spec::END_TO_END {
        let (value, unit) = printed(result, m.name);
        assert_eq!(unit, m.unit, "{}", m.name);
        assert!(value.is_finite() && value > 0.0, "{} = {value}", m.name);
    }
    assert_eq!(result.matches("\"value\": ").count(), spec::END_TO_END.len(), "{result}");
    assert!(!work.exists(), "{} was left behind", work.display());

    // Traced run: all ninety-two per-layer metrics, shares that account for
    // each op, and a valid trace file.
    let (summary, result, work) = run_small(workload, 1, true);
    let (summary, result) = (summary.as_str(), result.as_str());
    assert!(
        result.starts_with("{\"correct\": true, ") && result.contains("\"failed\": 0,"),
        "{result}"
    );
    let layers = spec::per_layer();
    for m in &layers {
        let (value, unit) = printed(result, &m.name);
        assert_eq!(unit, m.unit, "{}", m.name);
        assert!(value.is_finite(), "{} = {value}", m.name);
    }
    assert_eq!(result.matches("\"value\": ").count(), layers.len(), "{result}");
    for op in spec::OPS {
        let sum: f64 =
            spec::LAYERS.iter().map(|l| printed(result, &format!("share.{op}.{l}")).0).sum();
        assert!((sum - 1.0).abs() < 0.05, "{workload}: share.{op}.* sums to {sum}");
    }
    let trace = std::fs::read_to_string(work.join("trace.json")).expect("the kept trace file");
    let events = gdelt_obs::validate_chrome_trace(&trace).expect("a valid Chrome trace");
    assert!(events > 0 && summary.contains(&format!("\"trace_events\": {events},")), "{summary}");
    std::fs::remove_dir_all(&work).expect("remove the kept work directory");
}

#[test]
fn scan_large_prints_every_declared_metric() {
    check_workload("scan-large");
}

#[test]
fn ingest_reopen_prints_every_declared_metric() {
    check_workload("ingest-reopen");
}

#[test]
fn serve_live_prints_every_declared_metric() {
    check_workload("serve-live");
}

#[test]
fn shard_scatter_prints_every_declared_metric() {
    check_workload("shard-scatter");
}

#[test]
fn benchmark_json_is_the_tables_in_the_source() {
    let committed =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    assert_eq!(
        committed,
        spec::benchmark_json(),
        "regenerate with `gdbench --print-benchmark-json`"
    );
    let layers = spec::per_layer();
    assert_eq!(layers.len(), 92);
    let mut names: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
    names.extend(spec::END_TO_END.iter().map(|m| m.name));
    names.extend(spec::WORKLOADS.iter().map(|w| w.name));
    names.sort_unstable();
    assert!(names.windows(2).all(|w| w[0] != w[1]), "a name is used twice");
    assert!(spec::WORKLOADS.iter().all(|w| w.why.len() <= 200));
}

/// Every bound is at least three times the largest spread committed for
/// its metric in `CALIBRATION.md`. `setup_s` is exempt from the spread
/// rule, as it is for the driver.
#[test]
fn bounds_cover_the_committed_calibration() {
    let text = std::fs::read_to_string(repo_root().join("gdbench/CALIBRATION.md"))
        .expect("CALIBRATION.md");
    let mut cells = 0;
    for line in text.lines() {
        let cols: Vec<&str> = line.split('|').map(str::trim).collect();
        // | workload | metric | bound | spread 1 | spread 2 | ...
        let Some(m) =
            cols.get(2).and_then(|name| spec::END_TO_END.iter().find(|m| m.name == *name))
        else {
            continue;
        };
        if !spec::WORKLOADS.iter().any(|w| w.name == cols[1]) || m.name == "setup_s" {
            continue;
        }
        for spread in [cols[4], cols[5]] {
            let spread: f64 = spread.parse().expect("a spread");
            assert!(
                m.bound >= 3.0 * spread,
                "{} {}: bound {} < 3 x {spread}",
                cols[1],
                m.name,
                m.bound
            );
        }
        cells += 1;
    }
    assert_eq!(
        cells,
        spec::WORKLOADS.len() * (spec::END_TO_END.len() - 1),
        "a gated cell is missing"
    );
}

fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create directory");
    for entry in std::fs::read_dir(from).expect("read directory") {
        let entry = entry.expect("directory entry");
        let dest = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            if entry.file_name() != "target" {
                copy_tree(&entry.path(), &dest);
            }
        } else {
            std::fs::copy(entry.path(), dest).expect("copy file");
        }
    }
}

/// In a directory that holds only `BENCHMARK.json` and `gdbench/`, the
/// command exits non-zero without printing a result.
#[test]
fn the_command_fails_without_the_repository() {
    let bare = Path::new(env!("CARGO_TARGET_TMPDIR")).join("selftest-bare-checkout");
    let _ = std::fs::remove_dir_all(&bare);
    copy_tree(&repo_root().join("gdbench"), &bare.join("gdbench"));
    std::fs::copy(repo_root().join("BENCHMARK.json"), bare.join("BENCHMARK.json"))
        .expect("copy BENCHMARK.json");
    let out = Command::new(spec::COMMAND[0])
        .args(&spec::COMMAND[1..])
        .args(["--workload", "scan-large", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .current_dir(&bare)
        .env("CARGO_TARGET_DIR", ".bench_build")
        .output()
        .expect("start the command");
    assert!(!out.status.success(), "the command succeeded without the repository");
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("\"correct\""),
        "a result line was printed"
    );
    std::fs::remove_dir_all(&bare).expect("remove the bare checkout");
}
