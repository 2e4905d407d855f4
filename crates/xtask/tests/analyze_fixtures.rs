//! Golden-output tests driving `xtask::analyze` over the checked-in
//! fixture crates under `tests/fixtures/crates/` — one file per
//! analysis, plus the baseline-ratchet scenarios against temp dirs.
//!
//! The fixture tree deliberately carries no `Cargo.toml`, so the
//! dependency filter stays permissive and the fixtures exercise the
//! analyses themselves rather than edge pruning (which `deps` unit
//! tests cover against the real workspace).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use xtask::analyze::{self, Analysis};
use xtask::baseline;
use xtask::diag::{to_json, Diagnostic};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn rule_files() -> Vec<PathBuf> {
    [
        "crates/demo/src/panic_path.rs",
        "crates/demo/src/hot_alloc.rs",
        "crates/demo/src/obs_hot.rs",
        "crates/demo/src/locks.rs",
        "crates/demo/src/seqcst.rs",
        "crates/demo/src/clean.rs",
        "crates/demo/src/unsafe_site.rs",
        "crates/engine/src/line_rules.rs",
    ]
    .iter()
    .map(PathBuf::from)
    .collect()
}

fn analysis() -> Analysis {
    Analysis::load(&fixtures_root(), &rule_files()).expect("fixtures parse")
}

fn rule_in<'d>(d: &'d [Diagnostic], rule: &str, file: &str) -> Vec<&'d Diagnostic> {
    d.iter()
        .filter(|d| d.rule == rule && d.path.to_string_lossy().replace('\\', "/").ends_with(file))
        .collect()
}

#[test]
fn panic_path_renders_two_hop_route_to_the_sink() {
    let d = analysis().diagnostics();
    let p = rule_in(&d, "panic_path", "panic_path.rs");
    assert_eq!(p.len(), 1, "{d:?}");
    assert_eq!(p[0].line, 13);
    assert!(p[0].message.contains("2 calls away"), "{}", p[0].message);
    assert!(p[0].message.contains("`kernel`"), "{}", p[0].message);
    assert_eq!(
        p[0].notes[0],
        "path: crates/demo/src/panic_path.rs:4 → crates/demo/src/panic_path.rs:5 → \
         crates/demo/src/panic_path.rs:9 → crates/demo/src/panic_path.rs:13"
    );
    assert!(p[0].notes[1].contains("`kernel` → `middle` → `bottom`"), "{}", p[0].notes[1]);
}

#[test]
fn hot_alloc_flags_par_closure_and_kernel_loop() {
    let d = analysis().diagnostics();
    let h = rule_in(&d, "hot_alloc", "hot_alloc.rs");
    assert_eq!(h.len(), 2, "{d:?}");
    // `format!` inside the parallel closure (the chain-terminating
    // `.collect()` at par-marker depth is exempt).
    assert_eq!(h[0].line, 6);
    assert!(h[0].message.contains("a parallel closure"), "{}", h[0].message);
    // `out.push` inside the `no_panic` kernel's per-row loop; the
    // hoisted `Vec::new()` outside the loop is not flagged.
    assert_eq!(h[1].line, 13);
    assert!(h[1].message.contains("per-row loop"), "{}", h[1].message);
}

#[test]
fn obs_hot_path_flags_par_span_and_kernel_loop_flight() {
    let d = analysis().diagnostics();
    let h = rule_in(&d, "obs_hot_path", "obs_hot.rs");
    assert_eq!(h.len(), 2, "{d:?}");
    // `span` inside the parallel closure of `par_span`; the justified
    // copy in `justified` and the whole-function span in `coarse` are
    // exempt.
    assert_eq!(h[0].line, 9);
    assert!(h[0].message.contains("`span(..)`"), "{}", h[0].message);
    assert!(h[0].message.contains("a parallel closure"), "{}", h[0].message);
    // `flight_warn` inside the `no_panic` kernel's per-row loop.
    assert_eq!(h[1].line, 19);
    assert!(h[1].message.contains("`flight_warn(..)`"), "{}", h[1].message);
    assert!(h[1].message.contains("per-row loop"), "{}", h[1].message);
}

#[test]
fn lock_par_and_lock_cycle_fire_in_locks_fixture() {
    let d = analysis().diagnostics();
    let par = rule_in(&d, "lock_par", "locks.rs");
    assert_eq!(par.len(), 1, "{d:?}");
    assert_eq!(par[0].line, 14);
    assert!(par[0].message.contains("parallel closure"), "{}", par[0].message);

    let cyc = rule_in(&d, "lock_cycle", "locks.rs");
    assert_eq!(cyc.len(), 1, "{d:?}");
    // Reported at the edge that closes the cycle: `order_ba` acquiring
    // `a` while holding `b` (line 28).
    assert_eq!(cyc[0].line, 28);
    assert!(cyc[0].message.contains("lock-order cycle"), "{}", cyc[0].message);
    assert!(cyc[0].message.contains(" → "), "{}", cyc[0].message);
}

#[test]
fn seqcst_downgrade_flagged_under_atomic_protocol() {
    let d = analysis().diagnostics();
    let s = rule_in(&d, "atomic_protocol", "seqcst.rs");
    assert_eq!(s.len(), 1, "{d:?}");
    assert_eq!(s[0].line, 6);
    assert!(s[0].message.contains("SeqCst"), "{}", s[0].message);
    assert!(s[0].message.contains("Relaxed"), "{}", s[0].message);
}

#[test]
fn line_rules_fire_under_analyze_and_only_the_analyze_marker_suppresses() {
    let d = load_fixtures(&["crates/engine/src/line_rules.rs"]).run().diagnostics;
    let found: Vec<(&str, usize)> = d.iter().map(|d| (d.rule, d.line)).collect();
    // `first`'s unwrap, `narrow`'s cast, the unwrap under the retired
    // `lint:` marker in `retired`, and `v[i]` in the `par_iter` closure.
    // `justified`'s cast (line 17) is silenced by its `analyze:` marker.
    assert_eq!(
        found,
        vec![("no_panic", 8), ("id_cast", 12), ("no_panic", 22), ("par_index", 26)],
        "{d:?}"
    );
}

#[test]
fn clean_fixture_produces_no_diagnostics() {
    let d = analysis().diagnostics();
    assert!(
        d.iter().all(|d| !d.path.to_string_lossy().contains("clean.rs")),
        "clean.rs should be finding-free: {d:?}"
    );
}

#[test]
fn json_output_carries_every_fixture_finding() {
    let d = analysis().diagnostics();
    let j = to_json("analyze", &d);
    assert!(j.starts_with("{\"tool\":\"analyze\",\"count\":"), "{j}");
    for rule in [
        "panic_path",
        "hot_alloc",
        "obs_hot_path",
        "lock_par",
        "lock_cycle",
        "atomic_protocol",
        "no_panic",
        "id_cast",
        "par_index",
    ] {
        assert!(j.contains(&format!("\"rule\":\"{rule}\"")), "missing {rule} in {j}");
    }
    // The rendered call path survives JSON escaping inside notes.
    assert!(j.contains("path: crates/demo/src/panic_path.rs:4"), "{j}");
}

// ---------------------------------------------------------------------
// Dataflow rules: index_bounds, guard_across_await_or_call,
// result_discard, plus the stale-marker audit and its fixer.
// ---------------------------------------------------------------------

fn load_fixtures(files: &[&str]) -> Analysis {
    let paths: Vec<PathBuf> = files.iter().map(PathBuf::from).collect();
    Analysis::load(&fixtures_root(), &paths).expect("fixtures parse")
}

#[test]
fn index_bounds_proves_safe_sites_and_flags_every_seeded_oob() {
    let r = load_fixtures(&["crates/demo/src/bounds.rs"]).run();
    let d = rule_in(&r.diagnostics, "index_bounds", "bounds.rs");
    // `proven` is silent: the loop-bound site (line 8) and the
    // dominating-check site (line 11) are both discharged.
    assert!(d.iter().all(|d| d.line >= 16), "{d:?}");
    // `seeded` is fully flagged: `xs[i + 1]` overruns on the last
    // iteration, `xs[k]` is unconstrained.
    let lines: Vec<usize> = d.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![20, 22], "{d:?}");
    for f in &d {
        assert!(f.message.contains("cannot prove"), "{}", f.message);
        assert!(
            f.notes.iter().any(|n| n.starts_with("unproven obligation:")),
            "obligation note missing: {f:?}"
        );
    }
}

#[test]
fn guard_across_call_flags_held_guard_with_hold_range() {
    let r = load_fixtures(&["crates/demo/src/guard_call.rs", "crates/other/src/lib.rs"]).run();
    let d = rule_in(&r.diagnostics, "guard_across_await_or_call", "guard_call.rs");
    assert_eq!(d.len(), 1, "{:?}", r.diagnostics);
    // `held_across` calls other::notify at line 13 with `g` (acquired
    // line 11) still live; `dropped_first` releases first and is clean.
    assert_eq!(d[0].line, 13);
    assert!(d[0].message.contains("guard `g` of lock `state`"), "{}", d[0].message);
    assert!(d[0].message.contains("`other::notify`"), "{}", d[0].message);
    assert!(
        d[0].notes[0].contains("acquired at line 11, still live at the call on line 13"),
        "{}",
        d[0].notes[0]
    );
}

#[test]
fn result_discard_flags_both_forms_only_in_covered_crates() {
    let r = load_fixtures(&["crates/serve/src/discard.rs"]).run();
    let d = rule_in(&r.diagnostics, "result_discard", "discard.rs");
    assert_eq!(d.len(), 2, "{:?}", r.diagnostics);
    assert_eq!(d[0].line, 8);
    assert!(d[0].message.contains("`let _ = …`"), "{}", d[0].message);
    assert_eq!(d[1].line, 12);
    assert!(d[1].message.contains("a bare statement"), "{}", d[1].message);
    for f in &d {
        assert!(f.message.contains("`flush`"), "{}", f.message);
    }
    // `handled` (`?`) and `consumed` (`.is_ok()` tail) are clean.
    assert!(d.iter().all(|f| f.line < 15), "{d:?}");
}

#[test]
fn stale_markers_flagged_and_counted_but_used_markers_are_not() {
    // obs_hot.rs carries a *used* obs_hot_path marker; stale.rs carries
    // a dead panic_path marker and an unknown-rule marker.
    let r = load_fixtures(&["crates/demo/src/stale.rs", "crates/demo/src/obs_hot.rs"]).run();
    let d = rule_in(&r.diagnostics, "stale_marker", "stale.rs");
    let lines: Vec<usize> = d.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![4, 9], "{:?}", r.diagnostics);
    assert!(d[0].message.contains("`allow(panic_path)` suppresses nothing"), "{}", d[0].message);
    assert!(d[1].message.contains("no rule is named `no_such_rule`"), "{}", d[1].message);
    assert!(
        rule_in(&r.diagnostics, "stale_marker", "obs_hot.rs").is_empty(),
        "used marker must not be stale: {:?}",
        r.diagnostics
    );
    assert_eq!(r.stale.get("demo"), Some(&2), "{:?}", r.stale);
}

#[test]
fn remove_stale_deletes_markers_and_makes_the_rerun_clean() {
    let root = temp_root("remove-stale");
    let dir = root.join("crates/demo/src");
    std::fs::create_dir_all(&dir).unwrap();
    let fixture = fixtures_root().join("crates/demo/src/stale.rs");
    std::fs::copy(&fixture, dir.join("stale.rs")).unwrap();

    let rel = vec![PathBuf::from("crates/demo/src/stale.rs")];
    let first = Analysis::load(&root, &rel).unwrap().run();
    assert_eq!(rule_in(&first.diagnostics, "stale_marker", "stale.rs").len(), 2);

    let removed = analyze::remove_stale_markers(&root, &first.diagnostics).unwrap();
    assert_eq!(removed, 2);
    let rewritten = std::fs::read_to_string(dir.join("stale.rs")).unwrap();
    assert!(!rewritten.contains("allow("), "markers must be gone:\n{rewritten}");
    assert!(rewritten.contains("x + 1"), "code must survive:\n{rewritten}");

    let second = Analysis::load(&root, &rel).unwrap().run();
    assert!(second.diagnostics.is_empty(), "{:?}", second.diagnostics);
    assert!(second.stale.is_empty(), "{:?}", second.stale);
}

// ---------------------------------------------------------------------
// Summary rules: par_race (direct + transitive), atomic_protocol
// store/load pairing, and interprocedural index_bounds obligations.
// ---------------------------------------------------------------------

#[test]
fn par_race_fixture_flags_direct_capture_and_transitive_static_mut() {
    let r = load_fixtures(&["crates/demo/src/par_race.rs"]).run();
    let d = rule_in(&r.diagnostics, "par_race", "par_race.rs");
    assert_eq!(d.len(), 2, "{:?}", r.diagnostics);
    // `fan_out` calls `tally`, which writes `static mut TOTAL` — the
    // finding lands on the call and the note carries the hop chain.
    assert_eq!(d[0].line, 11);
    assert!(d[0].message.contains("call to `tally`"), "{}", d[0].message);
    assert!(d[0].message.contains("TOTAL"), "{}", d[0].message);
    assert!(
        d[0].notes[0].contains("par_race.rs:11") && d[0].notes[0].contains("par_race.rs:7"),
        "{:?}",
        d[0].notes
    );
    // `collect_into` pushes into the captured `out` directly.
    assert_eq!(d[1].line, 15);
    assert!(d[1].message.contains("captured `out`"), "{}", d[1].message);
    assert!(d[1].message.contains("map_init"), "{}", d[1].message);
}

#[test]
fn atomic_protocol_fixture_pairs_relaxed_store_with_acquire_load() {
    let r = load_fixtures(&["crates/serve/src/atomics.rs"]).run();
    let d = rule_in(&r.diagnostics, "atomic_protocol", "atomics.rs");
    assert_eq!(d.len(), 1, "{:?}", r.diagnostics);
    // The `Relaxed` store is the broken side; the message names the
    // Acquire load it fails to synchronize with.
    assert_eq!(d[0].line, 13);
    assert!(d[0].message.contains("`Relaxed` store to `epoch`"), "{}", d[0].message);
    assert!(d[0].message.contains("atomics.rs:17"), "{}", d[0].message);
    assert!(d[0].message.contains("`Release`"), "{}", d[0].message);
    // The all-Relaxed `hits` counter stays clean.
    assert!(!r.diagnostics.iter().any(|f| f.message.contains("hits")), "{:?}", r.diagnostics);
}

#[test]
fn interproc_bounds_fixture_discharges_loop_caller_and_reports_root() {
    let r = load_fixtures(&["crates/demo/src/interproc.rs"]).run();
    let d = rule_in(&r.diagnostics, "index_bounds", "interproc.rs");
    // `safe_scan` establishes `i < xs.len()` at its call site, so
    // `pick`'s obligation is discharged there; only the `unchecked`
    // root surfaces it — at the declaration, with the full chain.
    assert_eq!(d.len(), 1, "{:?}", r.diagnostics);
    assert_eq!(d[0].line, 18);
    assert!(d[0].message.contains("cannot establish precondition"), "{}", d[0].message);
    assert!(d[0].message.contains("`k < len(xs)`"), "{}", d[0].message);
    assert!(d[0].message.contains("interproc.rs:5"), "{}", d[0].message);
    assert!(d[0].message.contains("`unchecked`"), "{}", d[0].message);
    assert!(
        d[0].notes[0].contains("interproc.rs:18")
            && d[0].notes[0].contains("interproc.rs:19")
            && d[0].notes[0].contains("interproc.rs:5"),
        "{:?}",
        d[0].notes
    );
}

// ---------------------------------------------------------------------
// Baseline ratchet scenarios. Each uses a throwaway root so the real
// `analyze-baseline.toml` is never touched.
// ---------------------------------------------------------------------

fn temp_root(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("xtask-fixture-ratchet-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_baseline(root: &Path, body: &str) {
    std::fs::write(root.join(analyze::BASELINE_FILE), body).unwrap();
}

#[test]
fn fixture_inventory_counts_the_demo_unsafe_site() {
    let inv = analysis().inventory();
    assert_eq!(inv.count("demo"), 1);
    assert_eq!(inv.count("model"), 0, "only the fixture crate carries unsafe");
}

#[test]
fn ratchet_rejects_new_unsafe_without_a_baseline_entry() {
    let root = temp_root("grew");
    let inv = analysis().inventory();
    let counts = analysis().test_counts();
    let d = analyze::check_baseline(
        &root,
        &inv,
        &counts,
        &BTreeMap::new(),
        &BTreeMap::new(),
        &BTreeMap::new(),
    )
    .unwrap();
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(d[0].rule, "unsafe_ratchet");
    assert_eq!(d[0].path, PathBuf::from(analyze::BASELINE_FILE));
    assert!(
        d[0].message.contains("`demo` has 1 unsafe sites, baseline allows 0"),
        "{}",
        d[0].message
    );
}

#[test]
fn ratchet_rejects_stale_entries_for_vanished_unsafe() {
    let root = temp_root("stale");
    let inv = analysis().inventory();
    let counts = analysis().test_counts();
    write_baseline(
        &root,
        &format!(
            "[crate.demo]\ncount = 1\ndigest = \"{}\"\nreason = \"fixture\"\n\
             [crate.ghost]\ncount = 3\ndigest = \"0000000000000000\"\nreason = \"vanished\"\n",
            inv.digest("demo")
        ),
    );
    let d = analyze::check_baseline(
        &root,
        &inv,
        &counts,
        &BTreeMap::new(),
        &BTreeMap::new(),
        &BTreeMap::new(),
    )
    .unwrap();
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(
        d[0].message.contains("`ghost` has 0 unsafe sites but the baseline still grandfathers 3"),
        "{}",
        d[0].message
    );
}

#[test]
fn ratchet_rejects_moved_unsafe_at_equal_count() {
    let root = temp_root("moved");
    let inv = analysis().inventory();
    let counts = analysis().test_counts();
    write_baseline(
        &root,
        "[crate.demo]\ncount = 1\ndigest = \"ffffffffffffffff\"\nreason = \"fixture\"\n",
    );
    let d = analyze::check_baseline(
        &root,
        &inv,
        &counts,
        &BTreeMap::new(),
        &BTreeMap::new(),
        &BTreeMap::new(),
    )
    .unwrap();
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(d[0].message.contains("unsafe sites moved"), "{}", d[0].message);
}

#[test]
fn ratchet_passes_on_matching_baseline_and_update_keeps_reasons() {
    let root = temp_root("match");
    let inv = analysis().inventory();
    let counts = analysis().test_counts();
    write_baseline(
        &root,
        &format!(
            "[crate.demo]\ncount = 1\ndigest = \"{}\"\nreason = \"SAFETY-commented spin fixture\"\n",
            inv.digest("demo")
        ),
    );
    assert!(analyze::check_baseline(
        &root,
        &inv,
        &counts,
        &BTreeMap::new(),
        &BTreeMap::new(),
        &BTreeMap::new()
    )
    .unwrap()
    .is_empty());

    // `--update-baseline` rewrites the file from the inventory and
    // carries the human reason forward.
    let path = analyze::update_baseline(
        &root,
        &inv,
        &counts,
        &BTreeMap::new(),
        &BTreeMap::new(),
        &BTreeMap::new(),
    )
    .unwrap();
    let reparsed = baseline::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(reparsed.crates["demo"].count, 1);
    assert_eq!(reparsed.crates["demo"].reason, "SAFETY-commented spin fixture");
    assert!(analyze::check_baseline(
        &root,
        &inv,
        &counts,
        &BTreeMap::new(),
        &BTreeMap::new(),
        &BTreeMap::new()
    )
    .unwrap()
    .is_empty());
}

#[test]
fn test_ratchet_flags_dropped_tests_through_check_baseline() {
    let root = temp_root("tests-ratchet");
    let inv = analysis().inventory();
    write_baseline(
        &root,
        &format!(
            "[crate.demo]\ncount = 1\ndigest = \"{}\"\nreason = \"fixture\"\n\
             [tests.demo]\ncount = 4\n",
            inv.digest("demo")
        ),
    );
    // The fixture tree has no #[test] at all, so the recorded floor of
    // 4 reads as dropped tests.
    let counts = analysis().test_counts();
    assert!(counts.is_empty(), "{counts:?}");
    let d = analyze::check_baseline(
        &root,
        &inv,
        &counts,
        &BTreeMap::new(),
        &BTreeMap::new(),
        &BTreeMap::new(),
    )
    .unwrap();
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(d[0].rule, "test_ratchet");
    assert!(d[0].message.contains("tests were dropped"), "{}", d[0].message);

    // `--update-baseline` ratchets the floor back to reality.
    analyze::update_baseline(
        &root,
        &inv,
        &counts,
        &BTreeMap::new(),
        &BTreeMap::new(),
        &BTreeMap::new(),
    )
    .unwrap();
    assert!(analyze::check_baseline(
        &root,
        &inv,
        &counts,
        &BTreeMap::new(),
        &BTreeMap::new(),
        &BTreeMap::new()
    )
    .unwrap()
    .is_empty());
}

#[test]
fn malformed_baseline_is_a_hard_error_not_a_pass() {
    let root = temp_root("malformed");
    write_baseline(&root, "[crate.demo]\ncount = banana\n");
    let inv = analysis().inventory();
    let counts = analysis().test_counts();
    assert!(analyze::check_baseline(
        &root,
        &inv,
        &counts,
        &BTreeMap::new(),
        &BTreeMap::new(),
        &BTreeMap::new()
    )
    .is_err());
}
