//! The ratcheting `analyze-baseline.toml` for the unsafe inventory.
//!
//! The baseline grandfathers the unsafe sites that existed when the
//! analyzer landed. The ratchet only turns one way:
//!
//! * a crate growing new unsafe (count above baseline) **fails**;
//! * a crate shrinking below its baseline entry **fails** too — the
//!   stale entry must be updated so the headroom cannot be silently
//!   re-spent;
//! * same count but different locations (digest mismatch) **fails** —
//!   moved unsafe is new unsafe;
//! * `cargo xtask analyze --update-baseline` rewrites the file from the
//!   current inventory.
//!
//! The file is a deliberately tiny TOML subset (parsed by hand — no
//! dependencies): `[crate.<name>]` tables with `count`, `digest`, and a
//! mandatory human `reason`.
//!
//! The same file also ratchets **test counts**: `[tests.<name>]` tables
//! record each crate's `#[test]` count. Shrinking below the recorded
//! count fails (tests were dropped); growing past it also fails until
//! the floor is raised with `--update-baseline`, so the recorded counts
//! always match reality and future shrinkage is always caught.
//!
//! Two more exact-match count tables ride on the same machinery:
//!
//! * `[dataflow.<name>]` — marker-suppressed dataflow findings
//!   (`index_bounds` / `guard_across_await_or_call` / `result_discard`)
//!   per crate. New suppressions fail (justify or fix, then
//!   `--update-baseline`); removing one also fails until the count is
//!   ratcheted down, so headroom cannot be silently re-spent.
//! * `[stale.<name>]` — `analyze: allow` markers that no longer
//!   suppress anything. The target is zero everywhere; the table
//!   exists so cleanup progress ratchets and regressions fail.
//! * `[summary.<name>]` — marker-suppressed summary-rule findings
//!   (`par_race` / `atomic_protocol`) per crate, same exact-match
//!   semantics as `[dataflow.*]`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One crate's grandfathered unsafe inventory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Number of unsafe sites.
    pub count: usize,
    /// Location digest (see [`digest`]).
    pub digest: String,
    /// Why this unsafe is allowed to exist (human-written).
    pub reason: String,
}

/// The parsed baseline: crate name → entry, sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Entries keyed by crate name.
    pub crates: BTreeMap<String, BaselineEntry>,
    /// Recorded `#[test]` counts keyed by crate name.
    pub tests: BTreeMap<String, usize>,
    /// Marker-suppressed dataflow finding counts keyed by crate name.
    pub dataflow: BTreeMap<String, usize>,
    /// Stale suppression-marker counts keyed by crate name.
    pub stale: BTreeMap<String, usize>,
    /// Marker-suppressed summary-rule finding counts keyed by crate
    /// name (`par_race` / `atomic_protocol`).
    pub summary: BTreeMap<String, usize>,
}

/// The current inventory measured from the workspace: crate name →
/// sorted `relpath:count` location strings.
#[derive(Debug, Clone, Default)]
pub struct Inventory {
    /// Per-crate unsafe locations, `path:count` per file, sorted.
    pub crates: BTreeMap<String, Vec<String>>,
}

impl Inventory {
    /// Record `count` unsafe sites in `rel_path` of `crate_name`.
    pub fn record(&mut self, crate_name: &str, rel_path: &str, count: usize) {
        if count == 0 {
            return;
        }
        self.crates.entry(crate_name.to_string()).or_default().push(format!("{rel_path}:{count}"));
    }

    /// Total sites in one crate.
    pub fn count(&self, crate_name: &str) -> usize {
        self.crates.get(crate_name).map(|v| v.iter().map(|s| trailing_count(s)).sum()).unwrap_or(0)
    }

    /// Location digest for one crate.
    pub fn digest(&self, crate_name: &str) -> String {
        let mut locs = self.crates.get(crate_name).cloned().unwrap_or_default();
        locs.sort();
        digest(&locs)
    }
}

fn trailing_count(s: &str) -> usize {
    s.rsplit(':').next().and_then(|n| n.parse().ok()).unwrap_or(0)
}

/// FNV-1a over the sorted location strings, newline-joined — stable,
/// dependency-free, and sensitive to both file set and per-file counts.
pub fn digest(sorted_locations: &[String]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for loc in sorted_locations {
        for b in loc.bytes().chain(std::iter::once(b'\n')) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// A ratchet violation (rendered by the analyzer as a diagnostic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RatchetError {
    /// Unsafe count grew past (or appeared without) a baseline entry.
    Grew {
        /// Crate name.
        krate: String,
        /// Baseline count (0 when the crate had no entry).
        baseline: usize,
        /// Measured count.
        actual: usize,
    },
    /// Unsafe count shrank below the baseline — stale entry.
    Stale {
        /// Crate name.
        krate: String,
        /// Baseline count.
        baseline: usize,
        /// Measured count.
        actual: usize,
    },
    /// Same count, different locations.
    Moved {
        /// Crate name.
        krate: String,
    },
    /// `#[test]` count fell below the recorded floor — tests were
    /// dropped.
    TestsShrank {
        /// Crate name.
        krate: String,
        /// Recorded test count.
        baseline: usize,
        /// Measured test count.
        actual: usize,
    },
    /// `#[test]` count grew past the recorded floor — the floor must be
    /// raised so the new tests are protected too.
    TestsGrew {
        /// Crate name.
        krate: String,
        /// Recorded test count.
        baseline: usize,
        /// Measured test count.
        actual: usize,
    },
    /// Marker-suppressed dataflow finding count drifted from the
    /// recorded `[dataflow.<crate>]` value (either direction).
    DataflowDrift {
        /// Crate name.
        krate: String,
        /// Recorded suppression count.
        baseline: usize,
        /// Measured suppression count.
        actual: usize,
    },
    /// Stale-marker count drifted from the recorded `[stale.<crate>]`
    /// value (either direction).
    StaleDrift {
        /// Crate name.
        krate: String,
        /// Recorded stale-marker count.
        baseline: usize,
        /// Measured stale-marker count.
        actual: usize,
    },
    /// Marker-suppressed summary-rule finding count drifted from the
    /// recorded `[summary.<crate>]` value (either direction).
    SummaryDrift {
        /// Crate name.
        krate: String,
        /// Recorded suppression count.
        baseline: usize,
        /// Measured suppression count.
        actual: usize,
    },
}

impl std::fmt::Display for RatchetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RatchetError::Grew { krate, baseline, actual } => write!(
                f,
                "crate `{krate}` has {actual} unsafe sites, baseline allows {baseline} — \
                 remove the unsafe or justify it and run `cargo xtask analyze --update-baseline`"
            ),
            RatchetError::Stale { krate, baseline, actual } => write!(
                f,
                "crate `{krate}` has {actual} unsafe sites but the baseline still grandfathers \
                 {baseline} — ratchet down with `cargo xtask analyze --update-baseline`"
            ),
            RatchetError::Moved { krate } => write!(
                f,
                "crate `{krate}` unsafe sites moved (count unchanged, location digest differs) — \
                 review and run `cargo xtask analyze --update-baseline`"
            ),
            RatchetError::TestsShrank { krate, baseline, actual } => write!(
                f,
                "crate `{krate}` has {actual} #[test] functions, baseline records {baseline} — \
                 tests were dropped; restore them (or, if removal is deliberate, justify it and \
                 run `cargo xtask analyze --update-baseline`)"
            ),
            RatchetError::TestsGrew { krate, baseline, actual } => write!(
                f,
                "crate `{krate}` has {actual} #[test] functions, baseline records {baseline} — \
                 raise the floor with `cargo xtask analyze --update-baseline` so the new tests \
                 cannot be silently dropped later"
            ),
            RatchetError::DataflowDrift { krate, baseline, actual } => write!(
                f,
                "crate `{krate}` has {actual} marker-suppressed dataflow findings, baseline \
                 records {baseline} — fix or justify the drift, then run \
                 `cargo xtask analyze --update-baseline`"
            ),
            RatchetError::StaleDrift { krate, baseline, actual } => write!(
                f,
                "crate `{krate}` has {actual} stale suppression markers, baseline records \
                 {baseline} — remove dead markers with `cargo xtask analyze --remove-stale`, \
                 then run `cargo xtask analyze --update-baseline`"
            ),
            RatchetError::SummaryDrift { krate, baseline, actual } => write!(
                f,
                "crate `{krate}` has {actual} marker-suppressed summary-rule findings \
                 (par_race / atomic_protocol), baseline records {baseline} — fix or justify \
                 the drift, then run `cargo xtask analyze --update-baseline`"
            ),
        }
    }
}

/// Compare the measured inventory against the committed baseline.
pub fn check(baseline: &Baseline, inventory: &Inventory) -> Vec<RatchetError> {
    let mut errors = Vec::new();
    let mut names: Vec<&String> = baseline.crates.keys().chain(inventory.crates.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        let base = baseline.crates.get(name);
        let actual = inventory.count(name);
        let allowed = base.map(|e| e.count).unwrap_or(0);
        if actual > allowed {
            errors.push(RatchetError::Grew { krate: name.clone(), baseline: allowed, actual });
        } else if actual < allowed {
            errors.push(RatchetError::Stale { krate: name.clone(), baseline: allowed, actual });
        } else if actual > 0 {
            let digest = inventory.digest(name);
            if base.is_some_and(|e| e.digest != digest) {
                errors.push(RatchetError::Moved { krate: name.clone() });
            }
        }
    }
    errors
}

/// Compare measured per-crate `#[test]` counts against the recorded
/// floors. Exact-match semantics: shrink and growth both fail (growth
/// is resolved by raising the floor), so the committed counts always
/// reflect reality.
pub fn check_tests(baseline: &Baseline, counts: &BTreeMap<String, usize>) -> Vec<RatchetError> {
    let mut errors = Vec::new();
    let mut names: Vec<&String> = baseline.tests.keys().chain(counts.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        let recorded = baseline.tests.get(name).copied().unwrap_or(0);
        let actual = counts.get(name).copied().unwrap_or(0);
        if actual < recorded {
            errors.push(RatchetError::TestsShrank {
                krate: name.clone(),
                baseline: recorded,
                actual,
            });
        } else if actual > recorded {
            errors.push(RatchetError::TestsGrew {
                krate: name.clone(),
                baseline: recorded,
                actual,
            });
        }
    }
    errors
}

/// Compare measured per-crate marker-suppressed dataflow finding counts
/// against the recorded `[dataflow.*]` values. Exact-match in both
/// directions, like the test ratchet.
pub fn check_dataflow(baseline: &Baseline, counts: &BTreeMap<String, usize>) -> Vec<RatchetError> {
    exact_match(&baseline.dataflow, counts, |krate, baseline, actual| RatchetError::DataflowDrift {
        krate,
        baseline,
        actual,
    })
}

/// Compare measured per-crate stale-marker counts against the recorded
/// `[stale.*]` values. Exact-match in both directions.
pub fn check_stale(baseline: &Baseline, counts: &BTreeMap<String, usize>) -> Vec<RatchetError> {
    exact_match(&baseline.stale, counts, |krate, baseline, actual| RatchetError::StaleDrift {
        krate,
        baseline,
        actual,
    })
}

/// Compare measured per-crate marker-suppressed summary-rule finding
/// counts against the recorded `[summary.*]` values. Exact-match in
/// both directions.
pub fn check_summary(baseline: &Baseline, counts: &BTreeMap<String, usize>) -> Vec<RatchetError> {
    exact_match(&baseline.summary, counts, |krate, baseline, actual| RatchetError::SummaryDrift {
        krate,
        baseline,
        actual,
    })
}

fn exact_match(
    recorded: &BTreeMap<String, usize>,
    counts: &BTreeMap<String, usize>,
    err: impl Fn(String, usize, usize) -> RatchetError,
) -> Vec<RatchetError> {
    let mut errors = Vec::new();
    let mut names: Vec<&String> = recorded.keys().chain(counts.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        let base = recorded.get(name).copied().unwrap_or(0);
        let actual = counts.get(name).copied().unwrap_or(0);
        if actual != base {
            errors.push(err(name.clone(), base, actual));
        }
    }
    errors
}

/// Build the baseline that matches the current inventory and measured
/// counts, carrying forward reasons for crates that already had one.
pub fn from_inventory(
    inventory: &Inventory,
    test_counts: &BTreeMap<String, usize>,
    dataflow_counts: &BTreeMap<String, usize>,
    stale_counts: &BTreeMap<String, usize>,
    summary_counts: &BTreeMap<String, usize>,
    previous: &Baseline,
) -> Baseline {
    let mut out = Baseline::default();
    for (name, &count) in test_counts {
        if count > 0 {
            out.tests.insert(name.clone(), count);
        }
    }
    for (name, &count) in dataflow_counts {
        if count > 0 {
            out.dataflow.insert(name.clone(), count);
        }
    }
    for (name, &count) in stale_counts {
        if count > 0 {
            out.stale.insert(name.clone(), count);
        }
    }
    for (name, &count) in summary_counts {
        if count > 0 {
            out.summary.insert(name.clone(), count);
        }
    }
    for (name, _) in inventory.crates.iter() {
        let count = inventory.count(name);
        if count == 0 {
            continue;
        }
        let reason = previous
            .crates
            .get(name)
            .map(|e| e.reason.clone())
            .unwrap_or_else(|| "TODO: justify this unsafe inventory".to_string());
        out.crates
            .insert(name.clone(), BaselineEntry { count, digest: inventory.digest(name), reason });
    }
    out
}

/// Parse `analyze-baseline.toml`. Unknown keys and malformed lines are
/// hard errors — the ratchet must not fail open.
pub fn parse(text: &str) -> Result<Baseline, String> {
    enum Table {
        Crate(String),
        Tests(String),
        Dataflow(String),
        Stale(String),
        Summary(String),
    }
    let mut out = Baseline::default();
    let mut current: Option<Table> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| format!("baseline line {lineno}: unterminated table header"))?;
            if let Some(krate) = name.strip_prefix("crate.") {
                if krate.is_empty() {
                    return Err(format!("baseline line {lineno}: empty crate name"));
                }
                out.crates.insert(
                    krate.to_string(),
                    BaselineEntry { count: 0, digest: String::new(), reason: String::new() },
                );
                current = Some(Table::Crate(krate.to_string()));
            } else if let Some(krate) = name.strip_prefix("tests.") {
                if krate.is_empty() {
                    return Err(format!("baseline line {lineno}: empty crate name"));
                }
                out.tests.insert(krate.to_string(), 0);
                current = Some(Table::Tests(krate.to_string()));
            } else if let Some(krate) = name.strip_prefix("dataflow.") {
                if krate.is_empty() {
                    return Err(format!("baseline line {lineno}: empty crate name"));
                }
                out.dataflow.insert(krate.to_string(), 0);
                current = Some(Table::Dataflow(krate.to_string()));
            } else if let Some(krate) = name.strip_prefix("stale.") {
                if krate.is_empty() {
                    return Err(format!("baseline line {lineno}: empty crate name"));
                }
                out.stale.insert(krate.to_string(), 0);
                current = Some(Table::Stale(krate.to_string()));
            } else if let Some(krate) = name.strip_prefix("summary.") {
                if krate.is_empty() {
                    return Err(format!("baseline line {lineno}: empty crate name"));
                }
                out.summary.insert(krate.to_string(), 0);
                current = Some(Table::Summary(krate.to_string()));
            } else {
                return Err(format!(
                    "baseline line {lineno}: expected [crate.<name>], [tests.<name>], \
                     [dataflow.<name>], [stale.<name>], or [summary.<name>]"
                ));
            }
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .map(|(k, v)| (k.trim(), v.trim()))
            .ok_or_else(|| format!("baseline line {lineno}: expected key = value"))?;
        let table = current
            .as_ref()
            .ok_or_else(|| format!("baseline line {lineno}: key outside a table"))?;
        match table {
            Table::Tests(_) | Table::Dataflow(_) | Table::Stale(_) | Table::Summary(_) => {
                let (map, kind) = match table {
                    Table::Tests(k) => (&mut out.tests, ("tests", k)),
                    Table::Dataflow(k) => (&mut out.dataflow, ("dataflow", k)),
                    Table::Stale(k) => (&mut out.stale, ("stale", k)),
                    Table::Summary(k) => (&mut out.summary, ("summary", k)),
                    Table::Crate(_) => unreachable!(),
                };
                match key {
                    "count" => {
                        let n = value.parse().map_err(|_| {
                            format!("baseline line {lineno}: count must be an integer")
                        })?;
                        map.insert(kind.1.clone(), n);
                    }
                    other => {
                        return Err(format!(
                            "baseline line {lineno}: unknown key `{other}` in a [{}.*] table",
                            kind.0
                        ));
                    }
                }
            }
            Table::Crate(krate) => {
                let entry = out.crates.get_mut(krate).expect("current table exists");
                match key {
                    "count" => {
                        entry.count = value.parse().map_err(|_| {
                            format!("baseline line {lineno}: count must be an integer")
                        })?;
                    }
                    "digest" => {
                        entry.digest = unquote(value).ok_or_else(|| {
                            format!("baseline line {lineno}: digest must be quoted")
                        })?;
                    }
                    "reason" => {
                        let reason = unquote(value).ok_or_else(|| {
                            format!("baseline line {lineno}: reason must be quoted")
                        })?;
                        if reason.trim().is_empty() {
                            return Err(format!(
                                "baseline line {lineno}: reason must be non-empty — every \
                                 grandfathered unsafe inventory needs a justification"
                            ));
                        }
                        entry.reason = reason;
                    }
                    other => {
                        return Err(format!("baseline line {lineno}: unknown key `{other}`"));
                    }
                }
            }
        }
    }
    for (name, e) in out.crates.iter() {
        if e.reason.trim().is_empty() {
            return Err(format!("baseline: [crate.{name}] is missing a reason"));
        }
        if e.digest.is_empty() {
            return Err(format!("baseline: [crate.{name}] is missing a digest"));
        }
    }
    Ok(out)
}

fn unquote(v: &str) -> Option<String> {
    v.strip_prefix('"').and_then(|s| s.strip_suffix('"')).map(|s| s.to_string())
}

/// Serialize a baseline back to the TOML subset `parse` accepts.
pub fn serialize(baseline: &Baseline) -> String {
    let mut out = String::from(
        "# Grandfathered unsafe inventory, checked by `cargo xtask analyze`.\n\
         # The ratchet only turns one way: new/moved unsafe fails, and shrinking\n\
         # a crate's count requires updating (never loosening) this file via\n\
         # `cargo xtask analyze --update-baseline`.\n",
    );
    for (name, e) in baseline.crates.iter() {
        let _ = write!(
            out,
            "\n[crate.{name}]\ncount = {}\ndigest = \"{}\"\nreason = \"{}\"\n",
            e.count, e.digest, e.reason
        );
    }
    if !baseline.tests.is_empty() {
        out.push_str(
            "\n# Per-crate #[test] floors: shrinking below a recorded count fails\n\
             # `cargo xtask analyze` (tests were dropped); growth must raise the\n\
             # floor via --update-baseline.\n",
        );
        for (name, count) in baseline.tests.iter() {
            let _ = write!(out, "\n[tests.{name}]\ncount = {count}\n");
        }
    }
    if !baseline.dataflow.is_empty() {
        out.push_str(
            "\n# Per-crate marker-suppressed dataflow findings (index_bounds,\n\
             # guard_across_await_or_call, result_discard). Exact-match: drift in\n\
             # either direction fails until re-recorded via --update-baseline.\n",
        );
        for (name, count) in baseline.dataflow.iter() {
            let _ = write!(out, "\n[dataflow.{name}]\ncount = {count}\n");
        }
    }
    if !baseline.stale.is_empty() {
        out.push_str(
            "\n# Per-crate stale suppression markers (analyze: allow comments that\n\
             # no longer suppress anything). Target is zero; clean up with\n\
             # `cargo xtask analyze --remove-stale`.\n",
        );
        for (name, count) in baseline.stale.iter() {
            let _ = write!(out, "\n[stale.{name}]\ncount = {count}\n");
        }
    }
    if !baseline.summary.is_empty() {
        out.push_str(
            "\n# Per-crate marker-suppressed summary-rule findings (par_race,\n\
             # atomic_protocol). Exact-match: drift in either direction fails\n\
             # until re-recorded via --update-baseline.\n",
        );
        for (name, count) in baseline.summary.iter() {
            let _ = write!(out, "\n[summary.{name}]\ncount = {count}\n");
        }
    }
    out
}

/// Load the baseline file if present (absent file = empty baseline).
pub fn load(path: &Path) -> Result<Baseline, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::default()),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inventory(entries: &[(&str, &str, usize)]) -> Inventory {
        let mut inv = Inventory::default();
        for (k, p, c) in entries {
            inv.record(k, p, *c);
        }
        inv
    }

    #[test]
    fn digest_is_stable_and_order_insensitive() {
        let a = inventory(&[("engine", "src/a.rs", 2), ("engine", "src/b.rs", 1)]);
        let b = inventory(&[("engine", "src/b.rs", 1), ("engine", "src/a.rs", 2)]);
        assert_eq!(a.digest("engine"), b.digest("engine"));
        let c = inventory(&[("engine", "src/a.rs", 3)]);
        assert_ne!(a.digest("engine"), c.digest("engine"));
    }

    fn no_tests() -> BTreeMap<String, usize> {
        BTreeMap::new()
    }

    #[test]
    fn roundtrip_parse_serialize() {
        let inv = inventory(&[("columnar", "src/mmap.rs", 4)]);
        let counts: BTreeMap<String, usize> =
            [("columnar".to_string(), 7), ("serve".to_string(), 12)].into_iter().collect();
        let mut base = from_inventory(
            &inv,
            &counts,
            &no_tests(),
            &no_tests(),
            &no_tests(),
            &Baseline::default(),
        );
        base.crates.get_mut("columnar").unwrap().reason = "mmap I/O".into();
        let text = serialize(&base);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, base);
    }

    #[test]
    fn new_unsafe_fails() {
        let base = Baseline::default();
        let inv = inventory(&[("engine", "src/exec.rs", 1)]);
        let errs = check(&base, &inv);
        assert_eq!(
            errs,
            vec![RatchetError::Grew { krate: "engine".into(), baseline: 0, actual: 1 }]
        );
    }

    #[test]
    fn stale_entry_fails() {
        let inv = inventory(&[("columnar", "src/mmap.rs", 2)]);
        let mut base = from_inventory(
            &inv,
            &no_tests(),
            &no_tests(),
            &no_tests(),
            &no_tests(),
            &Baseline::default(),
        );
        base.crates.get_mut("columnar").unwrap().count = 5;
        let errs = check(&base, &inv);
        assert_eq!(
            errs,
            vec![RatchetError::Stale { krate: "columnar".into(), baseline: 5, actual: 2 }]
        );
    }

    #[test]
    fn moved_unsafe_fails() {
        let old = inventory(&[("columnar", "src/mmap.rs", 2)]);
        let base = from_inventory(
            &old,
            &no_tests(),
            &no_tests(),
            &no_tests(),
            &no_tests(),
            &Baseline::default(),
        );
        let new = inventory(&[("columnar", "src/table.rs", 2)]);
        let errs = check(&base, &new);
        assert_eq!(errs, vec![RatchetError::Moved { krate: "columnar".into() }]);
    }

    #[test]
    fn matching_inventory_passes() {
        let inv = inventory(&[("columnar", "src/mmap.rs", 2)]);
        let base = from_inventory(
            &inv,
            &no_tests(),
            &no_tests(),
            &no_tests(),
            &no_tests(),
            &Baseline::default(),
        );
        assert!(check(&base, &inv).is_empty());
    }

    #[test]
    fn parse_rejects_missing_reason() {
        let text = "[crate.engine]\ncount = 1\ndigest = \"abc\"\n";
        assert!(parse(text).is_err());
        let empty = "[crate.engine]\ncount = 1\ndigest = \"abc\"\nreason = \" \"\n";
        assert!(parse(empty).is_err());
    }

    #[test]
    fn parse_rejects_unknown_keys_and_garbage() {
        assert!(parse("[crate.engine]\nbogus = 1\n").is_err());
        assert!(parse("count = 1\n").is_err());
        assert!(parse("[notcrate.engine]\n").is_err());
    }

    #[test]
    fn update_carries_reasons_forward() {
        let inv = inventory(&[("columnar", "src/mmap.rs", 2)]);
        let mut prev = from_inventory(
            &inv,
            &no_tests(),
            &no_tests(),
            &no_tests(),
            &no_tests(),
            &Baseline::default(),
        );
        prev.crates.get_mut("columnar").unwrap().reason = "mmap I/O".into();
        let grown = inventory(&[("columnar", "src/mmap.rs", 2), ("columnar", "src/table.rs", 1)]);
        let next =
            from_inventory(&grown, &no_tests(), &no_tests(), &no_tests(), &no_tests(), &prev);
        assert_eq!(next.crates["columnar"].count, 3);
        assert_eq!(next.crates["columnar"].reason, "mmap I/O");
    }

    #[test]
    fn tests_tables_roundtrip() {
        let counts: BTreeMap<String, usize> =
            [("engine".to_string(), 31), ("faults".to_string(), 10)].into_iter().collect();
        let base = from_inventory(
            &Inventory::default(),
            &counts,
            &no_tests(),
            &no_tests(),
            &no_tests(),
            &Baseline::default(),
        );
        let text = serialize(&base);
        assert!(text.contains("[tests.engine]\ncount = 31"), "{text}");
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, base);
    }

    #[test]
    fn tests_tables_reject_foreign_keys() {
        assert!(parse("[tests.engine]\ndigest = \"abc\"\n").is_err());
        assert!(parse("[tests.engine]\nreason = \"x\"\n").is_err());
        assert!(parse("[tests.]\ncount = 1\n").is_err());
    }

    #[test]
    fn test_ratchet_flags_shrink_and_growth() {
        let mut base = Baseline::default();
        base.tests.insert("serve".to_string(), 10);
        base.tests.insert("engine".to_string(), 5);

        let exact: BTreeMap<String, usize> =
            [("serve".to_string(), 10), ("engine".to_string(), 5)].into_iter().collect();
        assert!(check_tests(&base, &exact).is_empty());

        let shrunk: BTreeMap<String, usize> =
            [("serve".to_string(), 8), ("engine".to_string(), 5)].into_iter().collect();
        assert_eq!(
            check_tests(&base, &shrunk),
            vec![RatchetError::TestsShrank { krate: "serve".into(), baseline: 10, actual: 8 }]
        );

        let grown: BTreeMap<String, usize> =
            [("serve".to_string(), 10), ("engine".to_string(), 5), ("faults".to_string(), 3)]
                .into_iter()
                .collect();
        assert_eq!(
            check_tests(&base, &grown),
            vec![RatchetError::TestsGrew { krate: "faults".into(), baseline: 0, actual: 3 }]
        );
    }

    #[test]
    fn dataflow_and_stale_tables_roundtrip() {
        let df: BTreeMap<String, usize> =
            [("engine".to_string(), 4), ("columnar".to_string(), 2)].into_iter().collect();
        let st: BTreeMap<String, usize> = [("serve".to_string(), 1)].into_iter().collect();
        let sm: BTreeMap<String, usize> = [("engine".to_string(), 3)].into_iter().collect();
        let base =
            from_inventory(&Inventory::default(), &no_tests(), &df, &st, &sm, &Baseline::default());
        let text = serialize(&base);
        assert!(text.contains("[dataflow.engine]\ncount = 4"), "{text}");
        assert!(text.contains("[stale.serve]\ncount = 1"), "{text}");
        assert!(text.contains("[summary.engine]\ncount = 3"), "{text}");
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, base);
    }

    #[test]
    fn summary_ratchet_flags_drift_both_ways() {
        let mut base = Baseline::default();
        base.summary.insert("serve".to_string(), 2);

        let exact: BTreeMap<String, usize> = [("serve".to_string(), 2)].into_iter().collect();
        assert!(check_summary(&base, &exact).is_empty());

        let grew: BTreeMap<String, usize> = [("serve".to_string(), 3)].into_iter().collect();
        assert_eq!(
            check_summary(&base, &grew),
            vec![RatchetError::SummaryDrift { krate: "serve".into(), baseline: 2, actual: 3 }]
        );

        assert_eq!(
            check_summary(&base, &BTreeMap::new()),
            vec![RatchetError::SummaryDrift { krate: "serve".into(), baseline: 2, actual: 0 }]
        );
    }

    #[test]
    fn summary_tables_reject_foreign_keys() {
        assert!(parse("[summary.engine]\ndigest = \"abc\"\n").is_err());
        assert!(parse("[summary.]\ncount = 1\n").is_err());
    }

    #[test]
    fn dataflow_ratchet_flags_drift_both_ways() {
        let mut base = Baseline::default();
        base.dataflow.insert("engine".to_string(), 4);

        let exact: BTreeMap<String, usize> = [("engine".to_string(), 4)].into_iter().collect();
        assert!(check_dataflow(&base, &exact).is_empty());

        let grew: BTreeMap<String, usize> = [("engine".to_string(), 6)].into_iter().collect();
        assert_eq!(
            check_dataflow(&base, &grew),
            vec![RatchetError::DataflowDrift { krate: "engine".into(), baseline: 4, actual: 6 }]
        );

        let shrank: BTreeMap<String, usize> = [("engine".to_string(), 1)].into_iter().collect();
        assert_eq!(
            check_dataflow(&base, &shrank),
            vec![RatchetError::DataflowDrift { krate: "engine".into(), baseline: 4, actual: 1 }]
        );
    }

    #[test]
    fn stale_ratchet_flags_new_and_removed_markers() {
        let base = Baseline::default();
        let found: BTreeMap<String, usize> = [("engine".to_string(), 2)].into_iter().collect();
        assert_eq!(
            check_stale(&base, &found),
            vec![RatchetError::StaleDrift { krate: "engine".into(), baseline: 0, actual: 2 }]
        );

        let mut recorded = Baseline::default();
        recorded.stale.insert("engine".to_string(), 2);
        assert_eq!(
            check_stale(&recorded, &BTreeMap::new()),
            vec![RatchetError::StaleDrift { krate: "engine".into(), baseline: 2, actual: 0 }]
        );
    }

    #[test]
    fn dataflow_and_stale_tables_reject_foreign_keys() {
        assert!(parse("[dataflow.engine]\ndigest = \"abc\"\n").is_err());
        assert!(parse("[stale.engine]\nreason = \"x\"\n").is_err());
        assert!(parse("[dataflow.]\ncount = 1\n").is_err());
        assert!(parse("[stale.]\ncount = 1\n").is_err());
    }
}
