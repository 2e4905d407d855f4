//! CLI smoke tests: the `gdelt-cli` binary's generate → convert →
//! report loop works end to end on a temp directory.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gdelt-cli"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gdelt_cli_it").join(name);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn help_prints_usage() {
    let out = cli().arg("help").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("convert"));
}

#[test]
fn unknown_command_fails() {
    let out = cli().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn generate_convert_report_loop() {
    let dir = temp_dir("loop");
    // Tiny scale to keep the test fast.
    let out = cli()
        .args(["generate", "--out"])
        .arg(&dir)
        .args(["--scale", "0.00002", "--seed", "9"])
        .output()
        .expect("generate");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("events.export.tsv").exists());
    assert!(dir.join("mentions.tsv").exists());
    assert!(dir.join("masterfilelist.txt").exists());

    let bin = dir.join("data.gdhpc");
    let out =
        cli().args(["convert", "--in"]).arg(&dir).arg("--out").arg(&bin).output().expect("convert");
    assert!(out.status.success(), "convert failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table II"), "convert must print the cleaning report");
    assert!(bin.exists());

    let out = cli()
        .args(["report", "--data"])
        .arg(&bin)
        .args(["--threads", "2"])
        .output()
        .expect("report");
    assert!(out.status.success(), "report failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for section in ["Table I", "Table IV", "Figure 9", "Figure 11"] {
        assert!(stdout.contains(section), "report missing {section}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn synth_report_runs_without_files() {
    let out = cli()
        .args(["synth-report", "--scale", "0.00002", "--seed", "5", "--threads", "2"])
        .output()
        .expect("synth-report");
    assert!(out.status.success(), "failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table I"));
    assert!(stdout.contains("Table II"));
    assert!(stdout.contains("Figure 10"));
}

#[test]
fn query_and_update_subcommands() {
    let dir = temp_dir("query");
    let out = cli()
        .args(["generate", "--out"])
        .arg(&dir)
        .args(["--scale", "0.00002", "--seed", "11"])
        .output()
        .expect("generate");
    assert!(out.status.success());
    let bin = dir.join("data.gdhpc");
    let out =
        cli().args(["convert", "--in"]).arg(&dir).arg("--out").arg(&bin).output().expect("convert");
    assert!(out.status.success());

    // Windowed top-publisher query.
    let out = cli()
        .args(["query", "--data"])
        .arg(&bin)
        .args(["--top", "3", "--window", "2016Q1:2017Q4", "--pair", "UK,USA"])
        .output()
        .expect("query");
    assert!(out.status.success(), "query failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("top 3 publishers"));
    assert!(stdout.contains("co-reporting Jaccard"));

    // Apply the same raw directory as an update batch (all duplicates —
    // the dataset must survive unchanged in size).
    let out =
        cli().args(["update", "--data"]).arg(&bin).arg("--in").arg(&dir).output().expect("update");
    assert!(out.status.success(), "update failed: {}", String::from_utf8_lossy(&out.stderr));
    let msg = String::from_utf8_lossy(&out.stderr);
    assert!(msg.contains("dup dropped"), "unexpected update output: {msg}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Real exports carry the odd Latin-1 byte. One in a column the store
/// does not keep (an actor name) changes nothing; one in a kept column
/// (a source URL) costs that line — never the run.
#[test]
fn convert_and_update_survive_undecodable_bytes() {
    let dir = temp_dir("latin1");
    let out = cli()
        .args(["generate", "--out"])
        .arg(&dir)
        .args(["--scale", "0.00002", "--seed", "13"])
        .output()
        .expect("generate");
    assert!(out.status.success());

    let events_path = dir.join("events.export.tsv");
    let mut lines: Vec<Vec<u8>> = std::fs::read(&events_path)
        .expect("events")
        .split(|&b| b == b'\n')
        .map(<[u8]>::to_vec)
        .collect();
    let with_column = |line: &[u8], k: usize, bytes: &[u8]| {
        let mut cols: Vec<&[u8]> = line.split(|&b| b == b'\t').collect();
        cols[k] = bytes;
        cols.join(&b'\t')
    };
    let n_events = lines.iter().filter(|l| !l.is_empty()).count();
    lines[1] = with_column(&lines[1], 6, b"Fran\xe7ois Hollande"); // Actor1Name
    lines[2] = with_column(&lines[2], 60, b"https://example.fr/\xe9lys\xe9e"); // SOURCEURL
    std::fs::write(&events_path, lines.join(&b'\n')).expect("rewrite events");

    let bin = dir.join("data.gdhpc");
    let out =
        cli().args(["convert", "--in"]).arg(&dir).arg("--out").arg(&bin).output().expect("convert");
    assert!(out.status.success(), "convert failed: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("skipped 1 unparseable event lines, 0 unparseable"), "{stderr}");

    let out = cli().args(["validate", "--data"]).arg(&bin).output().expect("validate");
    assert!(out.status.success(), "validate failed: {}", String::from_utf8_lossy(&out.stdout));
    let audited = String::from_utf8_lossy(&out.stderr);
    assert!(audited.contains(&format!("{} events", n_events - 1)), "{audited}");

    let out =
        cli().args(["update", "--data"]).arg(&bin).arg("--in").arg(&dir).output().expect("update");
    assert!(out.status.success(), "update failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("1 bad lines"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_rejects_unknown_source() {
    let dir = temp_dir("query_bad");
    let out = cli()
        .args(["generate", "--out"])
        .arg(&dir)
        .args(["--scale", "0.00002", "--seed", "12"])
        .output()
        .expect("generate");
    assert!(out.status.success());
    let bin = dir.join("data.gdhpc");
    assert!(cli()
        .args(["convert", "--in"])
        .arg(&dir)
        .arg("--out")
        .arg(&bin)
        .output()
        .unwrap()
        .status
        .success());
    let out = cli()
        .args(["query", "--data"])
        .arg(&bin)
        .args(["--source", "no-such-domain.example"])
        .output()
        .expect("query");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown source"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_bench_check_passes_at_low_load() {
    let out = cli()
        .args(["serve-bench", "--scale", "0.00002", "--seed", "21", "--queries", "60", "--check"])
        .output()
        .expect("serve-bench");
    assert!(out.status.success(), "serve-bench failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("replay:"), "missing replay report: {stdout}");
    assert!(stdout.contains("service metrics"), "missing metrics snapshot: {stdout}");
    assert!(stderr.contains("check passed"), "check did not pass: {stderr}");
}

#[test]
fn serve_bench_no_cache_reports_zero_hits() {
    let out = cli()
        .args([
            "serve-bench",
            "--scale",
            "0.00002",
            "--seed",
            "21",
            "--queries",
            "40",
            "--no-cache",
        ])
        .output()
        .expect("serve-bench");
    assert!(out.status.success(), "serve-bench failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cache disabled"), "expected cache disabled banner: {stderr}");
    assert!(stdout.contains("0 hits"), "no-cache run must report zero hits: {stdout}");
}

#[test]
fn missing_required_flag_is_an_error() {
    let out = cli().arg("convert").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--in"));
}

#[test]
fn malformed_flag_value_is_an_error() {
    for args in [
        &["serve-bench", "--shards", "x"][..],
        &["synth-report", "--threads", "abc"],
        &["synth-report", "--scale"],
    ] {
        let out = cli().args(args).output().expect("run");
        assert!(!out.status.success(), "{args:?} must fail, not fall back to a default");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args.iter().find(|a| a.starts_with("--")).expect("a flag");
        assert!(stderr.contains(flag), "{args:?}: error must name {flag}: {stderr}");
    }
}

#[test]
fn serve_bench_exports_validated_metrics_and_trace() {
    let dir = temp_dir("serve_bench_obs");
    let (metrics, trace) = (dir.join("metrics.prom"), dir.join("trace.json"));
    let out = cli()
        .args(["serve-bench", "--scale", "0.00002", "--queries", "400", "--no-cache", "--check"])
        .arg("--metrics-out")
        .arg(&metrics)
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .expect("serve-bench");
    assert!(out.status.success(), "serve-bench failed: {}", String::from_utf8_lossy(&out.stderr));
    for file in [&metrics, &trace] {
        let len = std::fs::metadata(file).map_or(0, |m| m.len());
        assert!(len > 0, "{} is empty", file.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}
