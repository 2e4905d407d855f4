//! Deep structural validation of a [`Dataset`].
//!
//! [`Dataset::validate`] is the fast fail-first gate run after every
//! load; this module is the exhaustive auditor behind `gdelt-cli
//! validate` and the debug-build checks in the builder and incremental
//! paths. It differs in two ways:
//!
//! * it checks *everything* — string-pool offset structure down to
//!   per-slice UTF-8 boundaries, CSR shape, partition soundness over the
//!   real offsets, value ranges, dictionary uniqueness, and the
//!   precomputed join/delay/quarter columns;
//! * it collects **all** violations into a [`ValidationReport`] instead
//!   of stopping at the first, so one run of the CLI names every broken
//!   invariant of a damaged store.
//!
//! Each check reports at most one violation (with the first offending
//! row) so a single systemic fault doesn't drown the report in millions
//! of identical lines.

use crate::partition::{partitions, partitions_at_boundaries};
use crate::strings::StringPool;
use crate::table::{Dataset, NO_EVENT_ROW};
use gdelt_model::time::{CaptureInterval, Date};

/// One broken invariant, locatable in the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable identifier of the failed check (e.g. `mentions.grouping`).
    pub check: &'static str,
    /// Where in the store the first offense sits (row, offset, ...).
    pub location: String,
    /// Human-readable description of the mismatch.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at {}: {}", self.check, self.location, self.detail)
    }
}

/// Outcome of a deep validation pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// Number of distinct checks executed.
    pub checks_run: usize,
    /// Every violated invariant (first offense each).
    pub violations: Vec<Violation>,
}

impl ValidationReport {
    /// True when every invariant held.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Convert to a `Result` with the full report as the error message.
    pub fn into_result(self) -> Result<(), String> {
        if self.is_ok() {
            Ok(())
        } else {
            Err(self.to_string())
        }
    }

    fn check<F: FnOnce() -> Option<Violation>>(&mut self, f: F) {
        self.checks_run += 1;
        if let Some(v) = f() {
            self.violations.push(v);
        }
    }
}

impl std::fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_ok() {
            return write!(f, "ok: {} checks passed", self.checks_run);
        }
        writeln!(f, "{} of {} checks failed:", self.violations.len(), self.checks_run)?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

fn violation(
    check: &'static str,
    location: impl Into<String>,
    detail: impl Into<String>,
) -> Option<Violation> {
    Some(Violation { check, location: location.into(), detail: detail.into() })
}

/// Audit a string pool: offset structure plus per-slice UTF-8 validity.
///
/// `from_raw_parts` already guarantees the *concatenated* payload is
/// UTF-8; the extra property checked here is that every offset lands on
/// a character boundary, i.e. each individual slice is valid UTF-8 too.
pub fn validate_pool(pool: &StringPool, label: &'static str, report: &mut ValidationReport) {
    let (bytes, offsets) = pool.raw_parts();
    report.check(|| {
        if offsets.is_empty() {
            return violation(
                "pool.offsets",
                label,
                "offsets array is empty (must hold at least [0])",
            );
        }
        if offsets[0] != 0 {
            return violation(
                "pool.offsets",
                format!("{label}[0]"),
                format!("first offset is {}, expected 0", offsets[0]),
            );
        }
        // analyze: allow(no_panic): `offsets.is_empty()` returned above
        let last = *offsets.last().expect("non-empty");
        if last != bytes.len() as u64 {
            return violation(
                "pool.offsets",
                format!("{label}[{}]", offsets.len() - 1),
                format!("final offset {last} != payload length {}", bytes.len()),
            );
        }
        None
    });
    report.check(|| {
        for (i, w) in offsets.windows(2).enumerate() {
            if w[0] > w[1] {
                return violation(
                    "pool.monotone",
                    format!("{label}[{i}]"),
                    format!("offset {} followed by smaller {}", w[0], w[1]),
                );
            }
        }
        None
    });
    report.check(|| {
        let text = match std::str::from_utf8(bytes) {
            Ok(t) => t,
            Err(e) => {
                return violation(
                    "pool.utf8",
                    format!("{label} byte {}", e.valid_up_to()),
                    "payload is not valid UTF-8",
                )
            }
        };
        for (i, &off) in offsets.iter().enumerate() {
            let off = off as usize;
            if off <= text.len() && !text.is_char_boundary(off) {
                return violation(
                    "pool.utf8",
                    format!("{label}[{i}]"),
                    format!("offset {off} splits a multi-byte character"),
                );
            }
        }
        None
    });
}

/// Run every deep check over a dataset.
pub fn validate_dataset(d: &Dataset) -> ValidationReport {
    let mut report = ValidationReport::default();
    let n_events = d.events.len();
    let n_mentions = d.mentions.len();
    let n_sources = d.sources.len();

    // --- Events table ---
    report.check(|| {
        let cols = [
            ("day", d.events.day.len()),
            ("capture", d.events.capture.len()),
            ("quarter", d.events.quarter.len()),
            ("root", d.events.root.len()),
            ("quad", d.events.quad.len()),
            ("actor1", d.events.actor1.len()),
            ("actor2", d.events.actor2.len()),
            ("goldstein", d.events.goldstein.len()),
            ("num_mentions", d.events.num_mentions.len()),
            ("num_sources", d.events.num_sources.len()),
            ("num_articles", d.events.num_articles.len()),
            ("avg_tone", d.events.avg_tone.len()),
            ("country", d.events.country.len()),
            ("lat", d.events.lat.len()),
            ("lon", d.events.lon.len()),
            ("source_url", d.events.source_url.len()),
        ];
        for (name, len) in cols {
            if len != n_events {
                return violation(
                    "events.columns",
                    format!("events.{name}"),
                    format!("{len} rows, expected {n_events}"),
                );
            }
        }
        None
    });
    report.check(|| {
        for (i, w) in d.events.id.windows(2).enumerate() {
            if w[0] >= w[1] {
                return violation(
                    "events.sorted",
                    format!("events row {i}"),
                    format!("id {} not strictly below successor {}", w[0], w[1]),
                );
            }
        }
        None
    });
    report.check(|| {
        for (i, &r) in d.events.root.iter().enumerate() {
            if !(1..=20).contains(&r) {
                return violation(
                    "events.root",
                    format!("events row {i}"),
                    format!("CAMEO root {r} outside 1..=20"),
                );
            }
        }
        for (i, &q) in d.events.quad.iter().enumerate() {
            if !(1..=4).contains(&q) {
                return violation(
                    "events.quad",
                    format!("events row {i}"),
                    format!("quad class {q} outside 1..=4"),
                );
            }
        }
        None
    });
    report.check(|| {
        let n = d.events.day.len().min(d.events.quarter.len());
        for (i, &day) in d.events.day.iter().enumerate() {
            if Date::from_yyyymmdd(day).is_err() {
                return violation(
                    "events.day",
                    format!("events row {i}"),
                    format!("{day} is not a valid YYYYMMDD date"),
                );
            }
            if i >= n {
                continue;
            }
            let expect = Dataset::day_quarter(day);
            if d.events.quarter[i] != expect {
                return violation(
                    "events.quarter",
                    format!("events row {i}"),
                    format!(
                        "quarter column {} disagrees with day-derived {expect}",
                        d.events.quarter[i]
                    ),
                );
            }
        }
        None
    });
    report.check(|| {
        let n_urls = d.events.urls.len();
        for (i, &u) in d.events.source_url.iter().enumerate() {
            if u as usize >= n_urls {
                return violation(
                    "events.url_ref",
                    format!("events row {i}"),
                    format!("url id {u} outside pool of {n_urls}"),
                );
            }
        }
        None
    });
    validate_pool(&d.events.urls, "events.urls", &mut report);

    // --- Source directory ---
    validate_pool(d.sources.names.pool(), "sources.names", &mut report);
    report.check(|| {
        if d.sources.country.len() != n_sources {
            return violation(
                "sources.columns",
                "sources.country",
                format!("{} rows for {n_sources} sources", d.sources.country.len()),
            );
        }
        None
    });
    report.check(|| {
        // Interned names must be unique — queries treat ids as identity.
        let mut seen = std::collections::HashSet::with_capacity(n_sources);
        for (id, name) in d.sources.names.iter() {
            if !seen.insert(name) {
                return violation(
                    "sources.unique",
                    format!("source id {id}"),
                    format!("duplicate interned name {name:?}"),
                );
            }
        }
        None
    });

    // --- Mentions table ---
    report.check(|| {
        let cols = [
            ("event_row", d.mentions.event_row.len()),
            ("event_interval", d.mentions.event_interval.len()),
            ("mention_interval", d.mentions.mention_interval.len()),
            ("delay", d.mentions.delay.len()),
            ("source", d.mentions.source.len()),
            ("quarter", d.mentions.quarter.len()),
            ("mention_type", d.mentions.mention_type.len()),
            ("confidence", d.mentions.confidence.len()),
            ("doc_tone", d.mentions.doc_tone.len()),
        ];
        for (name, len) in cols {
            if len != n_mentions {
                return violation(
                    "mentions.columns",
                    format!("mentions.{name}"),
                    format!("{len} rows, expected {n_mentions}"),
                );
            }
        }
        None
    });
    report.check(|| {
        let n = d.mentions.event_row.len().min(d.mentions.mention_interval.len());
        for i in 0..n.saturating_sub(1) {
            let (a, b) = (d.mentions.event_row[i], d.mentions.event_row[i + 1]);
            if a > b {
                return violation(
                    "mentions.grouping",
                    format!("mentions row {i}"),
                    format!("event_row {a} followed by smaller {b}"),
                );
            }
            if a == b
                && a != NO_EVENT_ROW
                && d.mentions.mention_interval[i] > d.mentions.mention_interval[i + 1]
            {
                return violation(
                    "mentions.time_sorted",
                    format!("mentions row {i}"),
                    "scrape intervals not ascending within event group",
                );
            }
        }
        None
    });
    report.check(|| {
        for (i, &er) in d.mentions.event_row.iter().enumerate() {
            if er != NO_EVENT_ROW && er as usize >= n_events {
                return violation(
                    "mentions.event_row",
                    format!("mentions row {i}"),
                    format!("event_row {er} outside events table of {n_events}"),
                );
            }
        }
        for (i, &s) in d.mentions.source.iter().enumerate() {
            if s as usize >= n_sources {
                return violation(
                    "mentions.source_ref",
                    format!("mentions row {i}"),
                    format!("source id {s} outside directory of {n_sources}"),
                );
            }
        }
        None
    });
    report.check(|| {
        let n = d.mentions.event_row.len().min(d.mentions.event_id.len());
        for i in 0..n {
            let er = d.mentions.event_row[i];
            if er != NO_EVENT_ROW
                && (er as usize) < n_events
                && d.events.id[er as usize] != d.mentions.event_id[i]
            {
                return violation(
                    "mentions.join",
                    format!("mentions row {i}"),
                    format!(
                        "event_row {er} holds id {} but mention references {}",
                        d.events.id[er as usize], d.mentions.event_id[i]
                    ),
                );
            }
        }
        None
    });
    report.check(|| {
        let n = d
            .mentions
            .delay
            .len()
            .min(d.mentions.mention_interval.len())
            .min(d.mentions.event_interval.len());
        for i in 0..n {
            let expect =
                d.mentions.mention_interval[i].saturating_sub(d.mentions.event_interval[i]);
            if d.mentions.delay[i] != expect {
                return violation(
                    "mentions.delay",
                    format!("mentions row {i}"),
                    format!("precomputed delay {} != derived {expect}", d.mentions.delay[i]),
                );
            }
        }
        None
    });
    report.check(|| {
        let n = d.mentions.quarter.len().min(d.mentions.mention_interval.len());
        for i in 0..n {
            let expect = Dataset::interval_quarter(CaptureInterval(d.mentions.mention_interval[i]));
            if d.mentions.quarter[i] != expect {
                return violation(
                    "mentions.quarter",
                    format!("mentions row {i}"),
                    format!(
                        "quarter column {} disagrees with interval-derived {expect}",
                        d.mentions.quarter[i]
                    ),
                );
            }
        }
        None
    });
    report.check(|| {
        for (i, &t) in d.mentions.mention_type.iter().enumerate() {
            if !(1..=6).contains(&t) {
                return violation(
                    "mentions.type",
                    format!("mentions row {i}"),
                    format!("mention type {t} outside 1..=6"),
                );
            }
        }
        for (i, &c) in d.mentions.confidence.iter().enumerate() {
            if c > 100 {
                return violation(
                    "mentions.confidence",
                    format!("mentions row {i}"),
                    format!("confidence {c} above 100"),
                );
            }
        }
        None
    });

    // --- CSR adjacency ---
    report.check(|| {
        let offs = &d.event_index.offsets;
        if n_events == 0 && offs.is_empty() {
            return None;
        }
        if offs.len() != n_events + 1 {
            return violation(
                "index.shape",
                "index.offsets",
                format!("{} offsets for {n_events} events (expected {})", offs.len(), n_events + 1),
            );
        }
        if offs[0] != 0 {
            return violation(
                "index.shape",
                "index.offsets[0]",
                format!("first offset {} != 0", offs[0]),
            );
        }
        None
    });
    report.check(|| {
        for (i, w) in d.event_index.offsets.windows(2).enumerate() {
            if w[0] > w[1] {
                return violation(
                    "index.monotone",
                    format!("index.offsets[{i}]"),
                    format!("offset {} followed by smaller {}", w[0], w[1]),
                );
            }
        }
        if let Some(&last) = d.event_index.offsets.last() {
            if last as usize > n_mentions {
                return violation(
                    "index.bounds",
                    format!("index.offsets[{}]", d.event_index.offsets.len() - 1),
                    format!("covers {last} mentions but table has {n_mentions}"),
                );
            }
        }
        None
    });
    report.check(|| {
        // Only meaningful when shape and monotonicity hold.
        let offs = &d.event_index.offsets;
        if offs.len() != n_events + 1
            || offs.windows(2).any(|w| w[0] > w[1])
            || offs.last().is_some_and(|&l| l as usize > n_mentions)
        {
            return None;
        }
        for i in 0..n_events {
            for row in offs[i] as usize..offs[i + 1] as usize {
                if row >= d.mentions.event_row.len() {
                    break;
                }
                if d.mentions.event_row[row] as usize != i {
                    return violation(
                        "index.ranges",
                        format!("index event {i}, mentions row {row}"),
                        format!("range contains row of event_row {}", d.mentions.event_row[row]),
                    );
                }
            }
        }
        let covered = offs.last().copied().unwrap_or(0) as usize;
        for row in covered..d.mentions.event_row.len() {
            if d.mentions.event_row[row] != NO_EVENT_ROW {
                return violation(
                    "index.coverage",
                    format!("mentions row {row}"),
                    "known-event mention lies outside index coverage",
                );
            }
        }
        None
    });

    // --- Partition soundness ---
    report.check(|| {
        for parts in [1usize, 2, 7, 64] {
            let ps = partitions(n_mentions, parts);
            if let Some(v) = audit_partitions(&ps, n_mentions, "partitions", parts) {
                return Some(v);
            }
        }
        None
    });
    report.check(|| {
        let offs = &d.event_index.offsets;
        if offs.windows(2).any(|w| w[0] > w[1])
            || offs.last().is_some_and(|&l| l as usize > n_mentions)
        {
            return None; // reported by the index checks above
        }
        let total = offs.last().copied().unwrap_or(0) as usize;
        for parts in [1usize, 3, 16] {
            let ps = partitions_at_boundaries(offs, parts);
            if let Some(v) = audit_partitions(&ps, total, "partitions.boundaries", parts) {
                return Some(v);
            }
            for p in &ps {
                if !offs.is_empty()
                    && (offs.binary_search(&(p.begin as u64)).is_err()
                        || offs.binary_search(&(p.end as u64)).is_err())
                {
                    return violation(
                        "partitions.boundaries",
                        format!("{parts}-way partition {}..{}", p.begin, p.end),
                        "partition edge is not a CSR offset",
                    );
                }
            }
        }
        None
    });

    report
}

/// Sorted, disjoint, gap-free coverage of `0..total`.
fn audit_partitions(
    ps: &[crate::partition::Partition],
    total: usize,
    check: &'static str,
    parts: usize,
) -> Option<Violation> {
    let Some(first) = ps.first() else {
        return violation(check, format!("{parts}-way split"), "no partitions produced");
    };
    if first.begin != 0 {
        return violation(
            check,
            format!("{parts}-way split"),
            format!("first partition starts at {}", first.begin),
        );
    }
    // analyze: allow(no_panic): `ps` was checked non-empty above
    let last = ps.last().expect("non-empty");
    if last.end != total {
        return violation(
            check,
            format!("{parts}-way split"),
            format!("last partition ends at {} of {total}", last.end),
        );
    }
    for (i, w) in ps.windows(2).enumerate() {
        if w[0].end != w[1].begin {
            return violation(
                check,
                format!("{parts}-way split, partition {i}"),
                format!(
                    "gap or overlap: {}..{} then {}..{}",
                    w[0].begin, w[0].end, w[1].begin, w[1].end
                ),
            );
        }
    }
    for (i, p) in ps.iter().enumerate() {
        if p.begin > p.end {
            return violation(
                check,
                format!("{parts}-way split, partition {i}"),
                format!("inverted range {}..{}", p.begin, p.end),
            );
        }
    }
    None
}

impl Dataset {
    /// Exhaustive audit collecting every violated invariant; see
    /// [`validate_dataset`].
    pub fn deep_validate(&self) -> ValidationReport {
        validate_dataset(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DatasetBuilder;
    use crate::index::EventIndex;
    use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
    use gdelt_model::event::{ActionGeo, EventRecord};
    use gdelt_model::ids::EventId;
    use gdelt_model::mention::{MentionRecord, MentionType};
    use gdelt_model::time::{DateTime, GDELT_EPOCH};

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new();
        for id in 1..=6u64 {
            b.add_event(EventRecord {
                id: EventId(id),
                day: GDELT_EPOCH,
                root: CameoRoot::new((id % 20 + 1) as u8).unwrap(),
                event_code: "010".into(),
                actor1_country: String::new(),
                actor2_country: String::new(),
                quad_class: QuadClass::from_u8((id % 4 + 1) as u8).unwrap(),
                goldstein: Goldstein::new(0.0).unwrap(),
                num_mentions: 1,
                num_sources: 1,
                num_articles: 1,
                avg_tone: 0.0,
                geo: ActionGeo::default(),
                date_added: DateTime::new(GDELT_EPOCH, (id % 24) as u8, 0, 0).unwrap(),
                source_url: format!("https://site{id}.com/über-{id}"),
            });
            for k in 0..(id % 3) {
                b.add_mention(MentionRecord {
                    event_id: EventId(id),
                    event_time: DateTime::new(GDELT_EPOCH, (id % 24) as u8, 0, 0).unwrap(),
                    mention_time: DateTime::new(GDELT_EPOCH.add_days(1), (k % 24) as u8, 0, 0)
                        .unwrap(),
                    mention_type: MentionType::Web,
                    source_name: format!("pub{k}.co.uk"),
                    url: String::new(),
                    confidence: 50,
                    doc_tone: 0.0,
                });
            }
        }
        b.build().0
    }

    #[test]
    fn pristine_dataset_passes_all_checks() {
        let report = sample().deep_validate();
        assert!(report.is_ok(), "{report}");
        assert!(report.checks_run >= 20, "ran {} checks", report.checks_run);
        assert!(report.to_string().contains("ok"));
        assert_eq!(report.into_result(), Ok(()));
    }

    #[test]
    fn empty_dataset_passes() {
        let report = Dataset::default().deep_validate();
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn detects_unsorted_event_ids() {
        let mut d = sample();
        d.events.id.as_mut_slice().swap(0, 1);
        let report = d.deep_validate();
        assert!(report.violations.iter().any(|v| v.check == "events.sorted"), "{report}");
    }

    #[test]
    fn detects_flipped_index_offsets() {
        let mut d = sample();
        // Swap the first strictly-increasing interior pair.
        let pos = d
            .event_index
            .offsets
            .windows(2)
            .position(|w| w[0] < w[1])
            .expect("sample has mentions");
        d.event_index.offsets.swap(pos, pos + 1);
        let report = d.deep_validate();
        assert!(report.violations.iter().any(|v| v.check.starts_with("index.")), "{report}");
    }

    #[test]
    fn detects_truncated_column() {
        let mut d = sample();
        let last = d.mentions.delay.len() - 1;
        d.mentions.delay.resize(last, 0);
        let report = d.deep_validate();
        assert!(report.violations.iter().any(|v| v.check == "mentions.columns"), "{report}");
    }

    #[test]
    fn detects_broken_join() {
        let mut d = sample();
        d.mentions.event_id.as_mut_slice()[0] += 999;
        let report = d.deep_validate();
        assert!(report.violations.iter().any(|v| v.check == "mentions.join"), "{report}");
    }

    #[test]
    fn detects_wrong_quarter_column() {
        let mut d = sample();
        d.events.quarter.as_mut_slice()[0] ^= 0xFF;
        let report = d.deep_validate();
        assert!(report.violations.iter().any(|v| v.check == "events.quarter"), "{report}");
    }

    #[test]
    fn detects_char_splitting_pool_offset() {
        // "é" is two bytes; an offset landing inside it must be caught.
        let mut report = ValidationReport::default();
        let mut pool = StringPool::new();
        pool.push("é");
        validate_pool(&pool, "test", &mut report);
        assert!(report.is_ok());

        // Rebuild a broken pool through binfmt's escape hatch is not
        // possible (from_raw_parts checks totals), so corrupt in place
        // by constructing offsets that split the character: use the
        // dataset path instead.
        let d = sample();
        // URL pool contains "über" — shift one offset into the 2-byte ü.
        let (bytes, offsets) = d.events.urls.raw_parts();
        let mut offs = offsets.to_vec();
        let target =
            bytes.iter().position(|&b| b >= 0xC0).expect("multibyte char present") as u64 + 1;
        // Place an interior offset mid-character, keeping monotonicity.
        if let Some(slot) = offs.iter().position(|&o| o > target) {
            if slot < offs.len() - 1 {
                offs[slot] = target;
            }
        }
        let rebuilt = StringPool::from_raw_parts(bytes.to_vec(), offs);
        // from_raw_parts validates whole-payload UTF-8 only, so the
        // mid-character offset passes construction…
        let pool = rebuilt.expect("whole payload is still valid UTF-8");
        let mut report = ValidationReport::default();
        validate_pool(&pool, "events.urls", &mut report);
        // …and the deep pool audit is what catches it.
        assert!(report.violations.iter().any(|v| v.check == "pool.utf8"), "{report}");
    }

    #[test]
    fn detects_index_shape_mismatch() {
        let mut d = sample();
        d.event_index = EventIndex { offsets: vec![0] };
        let report = d.deep_validate();
        assert!(report.violations.iter().any(|v| v.check == "index.shape"), "{report}");
    }

    #[test]
    fn report_formats_all_violations() {
        let mut d = sample();
        d.events.id.as_mut_slice().swap(0, 1);
        let last = d.mentions.delay.len() - 1;
        d.mentions.delay.resize(last, 0);
        let report = d.deep_validate();
        assert!(report.violations.len() >= 2);
        let text = report.to_string();
        assert!(text.contains("events.sorted") && text.contains("mentions.columns"), "{text}");
        assert!(report.into_result().is_err());
    }
}
