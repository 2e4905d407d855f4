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
    assert!(stdout.contains("Mentions with inconsistent event time"), "{stdout}");
    assert!(bin.exists());
    // The measured footprint, then the paper-scale projection: 1.09 B
    // mentions at 24 B each is ≈ 26 GB of mention columns.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = stderr.lines().collect();
    let at = lines.iter().position(|l| l.starts_with("memory: ")).expect("footprint line");
    let paper = lines[at + 1];
    assert!(paper.starts_with("at paper scale: memory: events "), "{stderr}");
    let mib = |part: &str| -> f64 {
        let rest = &paper[paper.find(part).expect(part) + part.len()..];
        rest.split(' ').next().unwrap().parse().unwrap()
    };
    let mention_gb = mib(" mentions ") * 1024.0 * 1024.0 / 1e9;
    assert!((25.5..26.5).contains(&mention_gb), "{paper}");
    assert!(mib(" = ") > mib(" mentions "), "{paper}");

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

/// `convert … | head -1`: a reader that closes stdout before Table II
/// is printed costs neither the store nor the exit status.
#[test]
fn convert_with_stdout_closed_keeps_the_store() {
    let dir = temp_dir("closed_stdout");
    let out = cli()
        .args(["generate", "--out"])
        .arg(&dir)
        .args(["--scale", "0.00002", "--seed", "17"])
        .output()
        .expect("generate");
    assert!(out.status.success());
    let bin = dir.join("data.gdhpc");
    std::fs::remove_file(&bin).ok();
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = cli()
        .args(["convert", "--in"])
        .arg(&dir)
        .arg("--out")
        .arg(&bin)
        .stdout(writer)
        .output()
        .expect("convert");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let out = cli().args(["validate", "--data"]).arg(&bin).output().expect("validate");
    assert!(out.status.success(), "validate failed: {}", String::from_utf8_lossy(&out.stderr));
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

    let query = |args: &[&str]| {
        let out = cli().args(["query", "--data"]).arg(&bin).args(args).output().expect("query");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        (out.status.code(), stdout, String::from_utf8_lossy(&out.stderr).into_owned())
    };
    // Windowed top-publisher query.
    let (code, stdout, stderr) =
        query(&["--top", "3", "--window", "2016Q1:2017Q4", "--pair", "UK,USA"]);
    assert_eq!(code, Some(0), "query failed: {stderr}");
    assert!(stdout.contains("top 3 publishers"));
    assert!(stdout.contains("co-reporting Jaccard"));
    // A window over every quarter answers like no window (every mention
    // selected); one the corpus never reaches selects nothing.
    let from_selected =
        |stdout: &str| stdout[stdout.find("selected").expect("selected")..].to_owned();
    let (_, whole, _) = query(&["--top", "10"]);
    let (_, covering, _) = query(&["--top", "10", "--window", "0Q1:16383Q4"]);
    assert_eq!(from_selected(&covering), from_selected(&whole));
    assert!(!whole.contains("selected articles: 0\n"), "{whole}");
    let (_, outside, _) = query(&["--window", "1990Q1:1999Q4"]);
    assert!(outside.contains("selected articles: 0\n"), "{outside}");
    // A quarter no `mentions.quarter` value can hold is refused, not
    // wrapped onto another quarter.
    for window in ["2016Q0:2016Q4", "2016Q1:2016Q9", "-1Q1:2016Q4", "2016Q1:16384Q1", "2016Q1"] {
        let (code, _, stderr) = query(&["--window", window]);
        assert_eq!(code, Some(1), "--window {window} must be refused");
        assert!(stderr.contains("--window"), "--window {window}: {stderr}");
    }
    // So is a window that ends before it starts, naming both quarters.
    let (code, stdout, stderr) = query(&["--window", "2017Q4:2016Q1"]);
    assert_eq!(code, Some(1), "a reversed window must be refused: {stdout}");
    assert!(stderr.contains("--window: 2017Q4 is after 2016Q1"), "{stderr}");

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

/// A store grown by `update` is the store `convert` writes for the
/// whole text: a corpus cut at arbitrary lines, converted in its first
/// parts and updated with the rest, matches byte for byte. The cuts
/// leave mentions of batch events in the base (re-matched on update) and
/// mentions of base events in the batch.
#[test]
fn update_with_the_rest_equals_convert_of_the_whole() {
    let dir = temp_dir("update_split");
    let (whole, first, rest) = (dir.join("whole"), dir.join("first"), dir.join("rest"));
    let out = cli()
        .args(["generate", "--out"])
        .arg(&whole)
        .args(["--scale", "0.00005", "--seed", "17"])
        .output()
        .expect("generate");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    for part in [&first, &rest] {
        std::fs::create_dir_all(part).expect("part dir");
    }
    std::fs::copy(whole.join("masterfilelist.txt"), first.join("masterfilelist.txt"))
        .expect("master list");
    for (file, cut) in [("events.export.tsv", 0.37), ("mentions.tsv", 0.71)] {
        let text = std::fs::read(whole.join(file)).expect("read corpus");
        let lines: Vec<&[u8]> = text.split_inclusive(|&b| b == b'\n').collect();
        let at = (lines.len() as f64 * cut) as usize;
        std::fs::write(first.join(file), lines[..at].concat()).expect("write first part");
        std::fs::write(rest.join(file), lines[at..].concat()).expect("write rest");
    }

    let (full, updated) = (dir.join("full.gdhpc"), dir.join("updated.gdhpc"));
    for (input, store) in [(&whole, &full), (&first, &updated)] {
        let out = cli().args(["convert", "--in"]).arg(input).arg("--out").arg(store).output();
        let out = out.expect("convert");
        assert!(out.status.success(), "convert failed: {}", String::from_utf8_lossy(&out.stderr));
    }
    let out = cli().args(["update", "--data"]).arg(&updated).arg("--in").arg(&rest).output();
    let out = out.expect("update");
    assert!(out.status.success(), "update failed: {}", String::from_utf8_lossy(&out.stderr));
    let msg = String::from_utf8_lossy(&out.stderr);
    assert!(msg.contains("applied batch") && !msg.contains(" 0 rematched"), "{msg}");
    let (a, b) = (std::fs::read(&updated).expect("updated"), std::fs::read(&full).expect("full"));
    assert!(
        a == b,
        "updated store ({} bytes) differs from the full convert ({} bytes)",
        a.len(),
        b.len()
    );
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
        &["chaos", "--chek"],
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

/// Run a `chaos --check` arm into a fresh directory: it must hold every
/// invariant and leave its fault schedule behind.
fn chaos_check(name: &str, args: &[&str], schedule: &str) {
    let dir = temp_dir(name);
    std::fs::remove_dir_all(&dir).ok();
    let out = cli().arg("chaos").args(args).arg("--check").arg("--out").arg(&dir).output();
    let out = out.expect("chaos");
    assert!(
        out.status.success(),
        "chaos {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join(schedule).is_file(), "chaos {args:?} wrote no {schedule}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_local_arm_holds_its_invariants() {
    chaos_check("chaos_local", &["--seed", "42"], "fault-schedule.json");
}

#[test]
fn chaos_shard_arm_holds_its_invariants() {
    chaos_check("chaos_shards", &["--shards", "3"], "shard-fault-schedule.json");
}
