//! Deep structural validation of a [`Dataset`].
//!
//! [`Dataset::validate`] is the one-pass gate run after every load: it
//! only *decides*, and calls [`validate_dataset`] to name what failed.
//! This module is that namer and the exhaustive auditor behind
//! `gdelt-cli validate`. It differs from the gate in two ways:
//!
//! * it checks *everything* — CSR shape, partition soundness over the
//!   real offsets, value ranges, dictionary uniqueness, the orphan tail,
//!   the precomputed join/delay/quarter columns, and the quarter span
//!   and source × quarter counts the dataset has cached, each against a
//!   row-at-a-time recount of its own;
//! * it collects **all** violations into a [`ValidationReport`] instead
//!   of stopping at the first, so one run of the CLI names every broken
//!   invariant of a damaged store.
//!
//! String pools are not audited here: a
//! [`StringPool`](crate::strings::StringPool) cannot hold anything but
//! well-formed offsets over UTF-8 (its own doc), so an audit would
//! re-read every byte for a check that cannot fail.
//!
//! Each check reports at most one violation (with the first offending
//! row) so a single systemic fault doesn't drown the report in millions
//! of identical lines.

use crate::columns::{Column, Layout};
use crate::derived::SourceQuarters;
use crate::partition::{event_partitions, partitions, Partition};
use crate::table::{Dataset, MentionsTable, NO_EVENT_ROW};
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

/// Run every deep check over a dataset. On a projected dataset the
/// checks that read an absent column find nothing to check, and every
/// absent column must be empty.
pub fn validate_dataset(d: &Dataset) -> ValidationReport {
    let mut report = ValidationReport::default();
    let n_events = d.events.len();
    let n_mentions = d.mentions.len();
    let n_sources = d.sources.len();
    // The rows a column of a table of `rows` must have: none if absent.
    let rows = |c: Column, rows: usize| if d.columns.contains(c) { rows } else { 0 };

    report.check(|| {
        let missing = d.columns.to_hold().difference(d.columns);
        if !missing.is_empty() {
            return violation("columns.keys", "dataset", format!("columns {missing} absent"));
        }
        None
    });

    // --- Events table ---
    report.check(|| ragged("events.columns", d.events.column_lens(), |c| rows(c, n_events)));
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

    // --- Source directory ---
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
    report.check(|| ragged("mentions.columns", d.mentions.column_lens(), |c| rows(c, n_mentions)));
    report.check(|| {
        let (row, at) = (&d.mentions.event_row, &d.mentions.mention_interval);
        for i in 0..row.len().saturating_sub(1) {
            let (a, b) = (row[i], row[i + 1]);
            if a > b {
                return violation(
                    "mentions.grouping",
                    format!("mentions row {i}"),
                    format!("event_row {a} followed by smaller {b}"),
                );
            }
            let later = matches!((at.get(i), at.get(i + 1)), (Some(t0), Some(t1)) if t0 > t1);
            if a == b && a != NO_EVENT_ROW && later {
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
    // The orphan tail: the rows of no event, which sort last.
    let m = &d.mentions;
    let orphans = m.event_row.iter().filter(|&&er| er == NO_EVENT_ROW).count();
    let joined = n_mentions - orphans;
    let side =
        MentionsTable::FIXED.iter().filter(|(c, ..)| matches!(c.layout(), Layout::Orphan(_)));
    let side = side.map(|(c, get, _)| (*c, get(m).len()));
    report.check(|| ragged("mentions.orphans", side, |c| rows(c, orphans)));
    report.check(|| {
        for (k, &id) in m.orphan_id.iter().enumerate() {
            if d.events.id.binary_search(&id).is_ok() {
                return violation(
                    "mentions.join",
                    format!("mentions row {}", joined + k),
                    format!("orphan of event {id}, which the events table holds"),
                );
            }
        }
        None
    });
    report.check(|| {
        let (at, delay) = (&m.mention_interval, &m.delay);
        let event_time = |i: usize| match *m.event_row.get(i)? {
            NO_EVENT_ROW => m.orphan_interval.get(i.checked_sub(joined)?).copied(),
            er => d.events.capture.get(er as usize).copied(),
        };
        for i in 0..delay.len().min(at.len()) {
            let Some(from) = event_time(i) else { continue };
            let expect = at[i].saturating_sub(from);
            if delay[i] != expect {
                return violation(
                    "mentions.delay",
                    format!("mentions row {i}"),
                    format!("precomputed delay {} != derived {expect}", delay[i]),
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

    // --- The derived cache, recounted one row at a time ---
    report.check(|| {
        let cached = d.derived.span.get()?;
        let mut span: Option<(u16, u16)> = None;
        for &q in d.events.quarter.iter().chain(d.mentions.quarter.iter()) {
            span = Some(span.map_or((q, q), |(lo, hi)| (lo.min(q), hi.max(q))));
        }
        let span = span.map(|(lo, hi)| (lo, usize::from(hi - lo) + 1));
        if *cached != span {
            return violation(
                "dataset.quarter_span",
                "dataset",
                format!("cached span {cached:?} != {span:?} of the quarter columns"),
            );
        }
        None
    });
    report.check(|| {
        let cached = d.derived.source_quarters.get()?;
        let want = recount_source_quarters(d);
        if (cached.span, cached.sourced, cached.width) != (want.span, want.sourced, want.width) {
            return violation(
                "dataset.source_quarters",
                "dataset",
                format!(
                    "cached rows from {:?}, per source {}, {} wide != {:?}, {}, {} of the columns",
                    cached.span, cached.sourced, cached.width, want.span, want.sourced, want.width
                ),
            );
        }
        let width = want.width.max(1);
        if let Some(i) = (0..cached.cells.len().max(want.cells.len()))
            .find(|&i| cached.cells.get(i) != want.cells.get(i))
        {
            let (had, has) = (cached.cells.get(i), want.cells.get(i));
            return violation(
                "dataset.source_quarters",
                format!("quarter row {}, source {}", i / width, i % width),
                format!("cached count {had:?} != {has:?} mentions in the columns"),
            );
        }
        let s = (0..cached.degrees.len().max(want.degrees.len()))
            .find(|&s| cached.degrees.get(s) != want.degrees.get(s))?;
        let (had, has) = (cached.degrees.get(s), want.degrees.get(s));
        violation(
            "dataset.source_quarters",
            format!("source {s}"),
            format!("cached degree {had:?} != {has:?} mentions in mentions.source"),
        )
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
        // The engine's event scans cut the index here: the event ranges
        // tile the events, and none outweighs its share of the mentions
        // by as much as the heaviest event.
        let n_events = offs.len().saturating_sub(1);
        if n_events == 0 {
            return None;
        }
        let total = offs.last().copied().unwrap_or(0);
        let heaviest = offs.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        let weight =
            |p: &Partition| offs.get(p.end).zip(offs.get(p.begin)).map_or(u64::MAX, |(e, b)| e - b);
        for parts in [1usize, 3, 16] {
            let ps = event_partitions(offs, parts);
            if let Some(v) = audit_partitions(&ps, n_events, "partitions.boundaries", parts) {
                return Some(v);
            }
            let share = total.div_ceil(parts.min(n_events) as u64) + heaviest.max(1);
            if let Some(p) = ps.iter().find(|p| weight(p) >= share) {
                return violation(
                    "partitions.boundaries",
                    format!("{parts}-way partition of events {}..{}", p.begin, p.end),
                    format!("{} mentions, not under {share}", weight(p)),
                );
            }
        }
        None
    });

    report
}

/// The first column of `lens` not as long as `want` says, as a `check`
/// violation.
fn ragged(
    check: &'static str,
    mut lens: impl Iterator<Item = (Column, usize)>,
    want: impl Fn(Column) -> usize,
) -> Option<Violation> {
    let (c, len) = lens.find(|&(c, len)| len != want(c))?;
    violation(check, c.name(), format!("{len} rows, expected {}", want(c)))
}

/// Sorted, disjoint, gap-free coverage of `0..total`.
fn audit_partitions(
    ps: &[Partition],
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

/// [`Dataset::source_quarters`] counted one mention at a time: a row
/// per quarter from the least of `mentions.quarter` to the greatest (one
/// row of every mention when the column is not held), a cell per source
/// of the directory (one when `mentions.source` is not held), ids past
/// the directory dropped.
fn recount_source_quarters(d: &Dataset) -> SourceQuarters {
    let m = &d.mentions;
    let held = |c: Column, len: usize| d.columns.contains(c) && len == m.len();
    let dated = held(Column::MentionsQuarter, m.quarter.len());
    let sourced = held(Column::MentionsSource, m.source.len());
    let lo = m.quarter.iter().copied().min().filter(|_| dated);
    let hi = m.quarter.iter().copied().max().filter(|_| dated);
    let span = lo.zip(hi).map(|(lo, hi)| (lo, usize::from(hi - lo) + 1));
    let rows = span.map_or(usize::from(!m.is_empty()), |(_, n)| n);
    let width = if sourced { d.sources.len() } else { 1 };
    let mut cells = vec![0u64; rows * width];
    let mut degrees = vec![0u64; d.sources.len()];
    for i in 0..m.len() {
        let row = match lo {
            Some(lo) => usize::from(m.quarter[i] - lo),
            None => 0,
        };
        let source = if sourced { m.source[i] as usize } else { 0 };
        if source < width {
            cells[row * width + source] += 1;
            if sourced {
                degrees[source] += 1;
            }
        }
    }
    SourceQuarters { span, sourced, width, cells, degrees }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DatasetBuilder;
    use crate::index::EventIndex;
    use crate::strings::StringPool;
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
        // An orphan whose event the table holds: the build would have
        // joined it.
        let mut d = sample();
        let id = d.events.id[0];
        d.mentions.event_row.push(NO_EVENT_ROW);
        d.mentions.orphan_id.push(id);
        d.mentions.orphan_interval.push(0);
        d.mentions.mention_interval.push(0);
        d.mentions.delay.push(0);
        d.mentions.source.push(0);
        d.mentions.quarter.push(Dataset::interval_quarter(CaptureInterval(0)));
        d.mentions.mention_type.push(1);
        d.mentions.confidence.push(50);
        d.mentions.doc_tone.push(0.0);
        let report = d.deep_validate();
        assert_eq!(report.violations.len(), 1, "{report}");
        assert!(report.violations.iter().any(|v| v.check == "mentions.join"), "{report}");
        assert!(d.validate().unwrap_err().contains("mentions.join"));
        d.mentions.orphan_id.as_mut_slice()[0] = 999;
        assert_eq!(d.validate(), Ok(()));
    }

    #[test]
    fn detects_wrong_quarter_column() {
        let mut d = sample();
        d.events.quarter.as_mut_slice()[0] ^= 0xFF;
        let report = d.deep_validate();
        assert!(report.violations.iter().any(|v| v.check == "events.quarter"), "{report}");
    }

    #[test]
    fn detects_a_stale_quarter_span() {
        let mut d = sample();
        assert!(d.deep_validate().is_ok());
        let span = d.quarter_span();
        assert!(span.is_some());
        assert!(d.deep_validate().is_ok(), "a filled span equals its recomputation");
        d.events.quarter.as_mut_slice()[0] ^= 0xFF;
        let report = d.deep_validate();
        assert!(report.violations.iter().any(|v| v.check == "dataset.quarter_span"), "{report}");
        assert_eq!(d.quarter_span(), span, "the cache keeps what it read");
        assert_ne!(d.clone().quarter_span(), span, "a clone reads its own columns");
    }

    #[test]
    fn detects_stale_source_quarters() {
        let mut d = sample();
        let (cells, degrees) = (d.source_quarters().clone(), d.source_degrees().to_vec());
        assert!(degrees.iter().any(|&n| n > 0));
        assert!(d.deep_validate().is_ok(), "a filled matrix equals its recount");
        let source = d.mentions.source.as_mut_slice();
        source[0] = (source[0] + 1) % degrees.len() as u32;
        let report = d.deep_validate();
        assert!(report.violations.iter().any(|v| v.check == "dataset.source_quarters"), "{report}");
        assert_eq!(d.source_degrees(), degrees, "the cache keeps what it read");
        assert_ne!(d.clone().source_degrees(), degrees, "a clone reads its own column");
        // A moved quarter keeps every degree but not the matrix.
        let mut d = sample();
        d.source_quarters();
        let quarter = d.mentions.quarter.as_mut_slice();
        quarter[0] += 1;
        let report = d.deep_validate();
        assert!(report.violations.iter().any(|v| v.check == "dataset.source_quarters"), "{report}");
        assert_eq!(d.clone().source_degrees(), cells.degrees(), "degrees do not see quarters");
    }

    #[test]
    fn detects_char_splitting_pool_offset() {
        // "é" is two bytes; an offset landing inside it must be caught.
        // URL pool contains "über" — shift one offset into the 2-byte ü.
        let d = sample();
        let (bytes, offsets) = d.events.urls.raw_parts();
        let mut offs = offsets.to_vec();
        let target =
            bytes.iter().position(|&b| b >= 0xC0).expect("multibyte char present") as u64 + 1;
        // Place an interior offset mid-character, keeping monotonicity.
        let slot = offs.iter().position(|&o| o > target).expect("an offset past the ü");
        assert!(slot < offs.len() - 1, "the ü is in the last URL");
        offs[slot] = target;
        // The whole payload is still UTF-8, but no such pool can be
        // built: the loader refuses it before any check runs.
        let rebuilt = StringPool::from_raw_parts(bytes.into(), offs.as_slice().into(), false);
        assert_eq!(rebuilt, Err("a string offset splits a UTF-8 character"));
    }

    #[test]
    fn detects_index_shape_mismatch() {
        let mut d = sample();
        d.event_index = EventIndex { offsets: (&[0][..]).into() };
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
