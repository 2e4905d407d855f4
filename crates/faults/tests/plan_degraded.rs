//! End-to-end: seeded fault plans against a real store file, loaded
//! through the degraded loader.

use std::path::PathBuf;

use gdelt_columnar::binfmt::save_with_partitions;
use gdelt_columnar::degraded::restrict_to_partitions;
use gdelt_columnar::{load_degraded_with, RetryPolicy};
use gdelt_faults::{FaultPlan, PlanSpec};

const PARTS: u32 = 8;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gdelt_faults_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}_{}", std::process::id()))
}

fn store(name: &str) -> PathBuf {
    let cfg = gdelt_synth::tiny(7);
    let (dataset, _) = gdelt_synth::generate_dataset(&cfg);
    let path = tmp(name);
    save_with_partitions(&path, &dataset, PARTS).unwrap();
    path
}

/// Serialized image of a dataset — the strongest equality we can ask
/// for ("bit-identical"), since `Dataset` itself has no `PartialEq`.
fn bytes(d: &gdelt_columnar::Dataset) -> Vec<u8> {
    let mut v = Vec::new();
    gdelt_columnar::binfmt::write_dataset(&mut v, d).unwrap();
    v
}

fn fast() -> RetryPolicy {
    RetryPolicy {
        max_retries: 4,
        backoff: std::time::Duration::from_millis(1),
        backoff_cap: std::time::Duration::from_millis(4),
    }
}

#[test]
fn seeded_plan_is_deterministic() {
    let path = store("det");
    let spec =
        PlanSpec { corrupt_partitions: 2, transient_failures: 1, truncate_tail: true, delay_ms: 5 };
    let a = FaultPlan::seeded(&path, 42, &spec).unwrap();
    let b = FaultPlan::seeded(&path, 42, &spec).unwrap();
    let c = FaultPlan::seeded(&path, 43, &spec).unwrap();
    assert_eq!(a, b);
    assert_ne!(a, c);
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.corrupted_partitions.len(), 2);
    std::fs::remove_file(&path).ok();
}

#[test]
fn flip_quarantines_targeted_partition_and_matches_restriction() {
    let path = store("flip");
    let clean = load_degraded_with(&path, &fast(), &FaultPlan::clean(0)).unwrap();
    assert!(clean.health.is_clean());
    assert!(clean.health.coverage().is_full());

    let spec = PlanSpec { corrupt_partitions: 1, ..PlanSpec::default() };
    let plan = FaultPlan::seeded(&path, 42, &spec).unwrap();
    assert_eq!(plan.corrupted_partitions.len(), 1);

    let degraded = load_degraded_with(&path, &fast(), &plan).unwrap();
    for p in &plan.corrupted_partitions {
        assert!(degraded.health.quarantined.contains(p), "partition {p} should be quarantined");
    }
    assert!(degraded.health.coverage().fraction() < 1.0);

    // The degraded dataset must be bit-identical to the clean dataset
    // restricted to the same live partitions.
    let expect =
        restrict_to_partitions(&clean.dataset, PARTS, &degraded.health.quarantined).unwrap();
    assert_eq!(bytes(&degraded.dataset), bytes(&expect));

    // Same seed, second load: identical quarantine and data.
    let again = load_degraded_with(&path, &fast(), &plan).unwrap();
    assert_eq!(again.health, degraded.health);
    assert_eq!(bytes(&again.dataset), bytes(&degraded.dataset));
    std::fs::remove_file(&path).ok();
}

#[test]
fn transient_failures_clear_after_retries() {
    let path = store("transient");
    let spec = PlanSpec { transient_failures: 2, corrupt_partitions: 0, ..PlanSpec::default() };
    let plan = FaultPlan::seeded(&path, 42, &spec).unwrap();
    let loaded = load_degraded_with(&path, &fast(), &plan).unwrap();
    assert_eq!(loaded.health.retries, 2, "attempts 0 and 1 fail, attempt 2 succeeds");
    assert!(loaded.health.coverage().is_full());
    assert!(loaded.health.quarantined.is_empty());
    std::fs::remove_file(&path).ok();
}

#[test]
fn transient_failures_beyond_budget_fail_the_load() {
    let path = store("exhaust");
    let spec = PlanSpec { transient_failures: 99, corrupt_partitions: 0, ..PlanSpec::default() };
    let plan = FaultPlan::seeded(&path, 42, &spec).unwrap();
    let err = load_degraded_with(&path, &fast(), &plan).unwrap_err();
    assert_ne!(err.kind(), std::io::ErrorKind::InvalidData);
    std::fs::remove_file(&path).ok();
}

#[test]
fn tail_truncation_loads_with_tail_quarantined() {
    let path = store("trunc");
    let spec = PlanSpec { truncate_tail: true, corrupt_partitions: 0, ..PlanSpec::default() };
    let plan = FaultPlan::seeded(&path, 42, &spec).unwrap();
    let loaded = load_degraded_with(&path, &fast(), &plan).unwrap();
    assert!(
        !loaded.health.quarantined.is_empty(),
        "a truncated tail must quarantine at least one partition"
    );
    assert!(loaded.health.coverage().fraction() < 1.0);
    std::fs::remove_file(&path).ok();
}
