//! Degraded store loading: quarantine damaged partitions, serve the
//! rest.
//!
//! The strict loader ([`crate::binfmt::read_dataset`]) fails the whole
//! load on the first checksum mismatch — correct for a conversion
//! pipeline, fatal for a serving node whose disk just returned one torn
//! page. This module is the graceful path:
//!
//! 1. **Tolerant read** — sections whose checksum fails are kept and
//!    marked *dirty* instead of aborting; a stream that ends early keeps
//!    what it has.
//! 2. **Localization** — the `partitions.meta` digest table pins each
//!    dirty section's damage to specific load partitions; those are
//!    *quarantined*. Damage to a global section (the source directory,
//!    the orphan side columns), or damage that cannot be pinned to a
//!    partition, still fails the load.
//! 3. **Restriction** — [`Sections::restrict`] rewrites the sections
//!    read into those the store restricted to the live partitions would
//!    hold: live slices joined, the offsets and `event_row` rebased, the
//!    orphan tail kept only with the last partition. The strict
//!    assembler ([`dataset_from_sections`]) then builds the dataset, so
//!    it is *exactly* the one a clean store restricted to the same
//!    partitions would produce ([`restrict_to_partitions`] — chaos
//!    testing asserts bit-identical results), and it passes
//!    [`Dataset::validate`] like any other load.
//! 4. **Retry** — transient read errors (not corruption) are retried
//!    with capped exponential backoff per [`RetryPolicy`] before giving
//!    up; an injectable [`ReadShim`] under the loader lets the fault
//!    harness exercise every path deterministically.
//!
//! What loaded, what was dropped and what was retried is reported in a
//! [`StoreHealth`], whose [`Coverage`](crate::health::Coverage) every
//! downstream query answer carries.

use std::collections::BTreeSet;
use std::io;
use std::time::Duration;

use crate::aligned::AlignedBuf;
use crate::binfmt::{
    bad, byte_groups, checksum64, dataset_from_sections, into_column, open_sized, parse_meta,
    section_space, Grouping, MetaTable, NoShim, PartExtent, ReadAt, ReadShim, SectionSpace,
    Sections, META_SECTION,
};
use crate::columns::{Column, ColumnSet, Layout};
use crate::health::StoreHealth;
use crate::index::EventIndex;
use crate::table::{Dataset, EventRows, EventsTable, MentionRun, MentionsTable, NO_EVENT_ROW};

/// A capped doubling retry schedule: the transient-failure retries of
/// [`load_degraded_with`], and a shard router's dials (one first try
/// plus `max_retries`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first try before the error is returned.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub backoff: Duration,
    /// Upper bound the exponential backoff saturates at.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff: Duration::from_millis(25),
            backoff_cap: Duration::from_millis(250),
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff before retry number `attempt` (0-based):
    /// `backoff * 2^attempt`, saturating at `backoff_cap`. No jitter —
    /// fault runs must be reproducible.
    pub fn delay(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX);
        self.backoff.saturating_mul(factor).min(self.backoff_cap)
    }
}

/// A successfully (possibly partially) loaded store.
#[derive(Debug, Clone)]
pub struct DegradedLoad {
    /// The assembled dataset — live partitions only, fully validated.
    pub dataset: Dataset,
    /// What the load observed: quarantine, dirty sections, retries.
    pub health: StoreHealth,
}

/// Which partitions a set of dirty sections damages, per the meta
/// digest table. Errors when damage cannot be localized (global
/// sections, or a dirty section with no mismatching partition).
fn compute_quarantine(meta: &MetaTable, ts: &Sections) -> io::Result<Vec<u32>> {
    let mut quarantined = BTreeSet::new();
    for name in ts.dirty.iter().filter(|&name| name != META_SECTION) {
        let space = section_space(name);
        if space == SectionSpace::Global {
            return Err(bad(format!("unrecoverable corruption in global section {name}")));
        }
        let (_, digests) = meta
            .digests
            .iter()
            .find(|(row, _)| row == name)
            .ok_or_else(|| bad(format!("partitions.meta has no digest row for {name}")))?;
        // The URL bytes slice through the offsets as read: a partition
        // whose offsets are damaged is quarantined by their own check.
        let url_offsets = match space {
            SectionSpace::UrlBytes => whole_offsets(ts.get("events.urls.offsets")?, name)?,
            _ => AlignedBuf::new(),
        };
        let payload = ts.get(name)?;
        for ((p, ext), digest) in (0u32..).zip(&meta.extents).zip(digests) {
            if ext.slice(space, payload, &url_offsets).map(checksum64) != Some(*digest) {
                quarantined.insert(p);
            }
        }
    }
    if !ts.dirty.is_empty() && quarantined.is_empty() {
        return Err(bad("corruption detected but not localizable to a partition"));
    }
    Ok(quarantined.into_iter().collect())
}

/// Decode an offsets payload that may have lost its tail: the whole
/// `u64` entries it still holds.
fn whole_offsets(payload: &[u8], name: &str) -> io::Result<AlignedBuf<u64>> {
    let whole = payload.get(..payload.len() - payload.len() % 8).unwrap_or(&[]);
    into_column(whole.into(), name)
}

/// The one offsets routine: entries `ev_begin ..= ev_end` of each
/// `live` partition's slice of the `name` offsets, rebased so that the
/// ranges they bound follow one another from 0.
fn rebase_offsets(name: &str, offsets: &[u64], live: &[PartExtent]) -> io::Result<AlignedBuf<u8>> {
    let at = |bound: u64| usize::try_from(bound).ok();
    let mut out = AlignedBuf::from(&0u64.to_le_bytes()[..]);
    let mut total = 0u64;
    for ext in live {
        let entries = at(ext.ev_begin)
            .zip(at(ext.ev_end))
            .and_then(|(begin, end)| offsets.get(begin..=end))
            .ok_or_else(|| bad(format!("live partition slice of {name} out of bounds")))?;
        for pair in entries.windows(2) {
            total = pair[1]
                .checked_sub(pair[0])
                .and_then(|len| total.checked_add(len))
                .ok_or_else(|| bad(format!("inconsistent {name} in a live partition")))?;
            out.extend_from_slice(&total.to_le_bytes());
        }
    }
    Ok(out)
}

/// The `live` partitions' slices of section `name`, one after another.
/// `mentions.event_row` shifts each row down by the event rows dropped
/// before its partition: a row must lie inside its own partition's
/// event range, and the orphan sentinel passes through.
fn join_live(
    name: &str,
    payload: &[u8],
    url_offsets: &[u64],
    live: &[PartExtent],
) -> io::Result<AlignedBuf<u8>> {
    let space = section_space(name);
    let mut joined = AlignedBuf::new();
    let mut kept = 0;
    for ext in live {
        let slice = ext
            .slice(space, payload, url_offsets)
            .ok_or_else(|| bad(format!("live partition slice of {name} out of bounds")))?;
        if name != Column::MentionsEventRow.name() {
            joined.extend_from_slice(slice);
            continue;
        }
        for &row in into_column::<u32>(slice.into(), name)?.iter() {
            let rebased = match u64::from(row) {
                _ if row == NO_EVENT_ROW => row,
                r if (ext.ev_begin..ext.ev_end).contains(&r) => {
                    u32::try_from(r - ext.ev_begin + kept)
                        .map_err(|_| bad("rebased event row overflow"))?
                }
                _ => return Err(bad(format!("{name} points outside its partition"))),
            };
            joined.extend_from_slice(&rebased.to_le_bytes());
        }
        kept += ext.ev_end - ext.ev_begin;
    }
    Ok(joined)
}

impl Sections {
    /// Rewrite the sections read into those the store restricted to the
    /// partitions not in `quarantined` would hold, for
    /// [`dataset_from_sections`] to assemble: row-addressed sections keep
    /// their live slices ([`join_live`]), offsets are rebased
    /// ([`rebase_offsets`]), the orphan side columns stay only with a
    /// live last partition (which owns the tail) and the source directory
    /// stays whole. Bytes no restricted store could hold are a typed
    /// `InvalidData` error; [`Dataset::validate`] decides the rest.
    pub(crate) fn restrict(mut self, meta: &MetaTable, quarantined: &[u32]) -> io::Result<Self> {
        if quarantined.is_empty() {
            return Ok(self);
        }
        let live: Vec<PartExtent> = (0u32..)
            .zip(&meta.extents)
            .filter(|(p, _)| !quarantined.contains(p))
            .map(|(_, ext)| *ext)
            .collect();
        let tail_live = !quarantined.contains(&(meta.extents.len() as u32).saturating_sub(1));
        let url_offsets = whole_offsets(self.get("events.urls.offsets")?, "events.urls.offsets")?;
        for (name, payload) in self.map.iter_mut() {
            let layout = Column::of_section(name).map(Column::layout);
            *payload = match section_space(name) {
                SectionSpace::EventOffsets => {
                    rebase_offsets(name, &whole_offsets(payload, name)?, &live)?
                }
                SectionSpace::Global if matches!(layout, Some(Layout::Orphan(_))) && !tail_live => {
                    AlignedBuf::new()
                }
                SectionSpace::Global => continue,
                _ => join_live(name, payload, &url_offsets, &live)?,
            };
            self.utf8.remove(name);
        }
        Ok(self)
    }
}

/// Decode a possibly-damaged store image held in memory: quarantine
/// what fails its digests, assemble and validate the rest. See the
/// module docs for the full contract.
pub fn read_dataset_degraded(bytes: &[u8]) -> io::Result<DegradedLoad> {
    read_degraded(&bytes, bytes.len() as u64, &byte_groups)
}

/// [`read_dataset_degraded`] of a source `limit` bytes long, in `group`'s groups.
pub(crate) fn read_degraded(
    src: &dyn ReadAt,
    limit: u64,
    group: &Grouping,
) -> io::Result<DegradedLoad> {
    let ts = Sections::read(src, limit, true, ColumnSet::ALL, group)?;
    if ts.dirty.contains(META_SECTION) {
        return Err(bad("partitions.meta is corrupt — damage cannot be localized"));
    }
    let meta_payload = ts
        .map
        .get(META_SECTION)
        .ok_or_else(|| bad("store has no partitions.meta section (pre-PR4 format?)"))?;
    let meta = parse_meta(meta_payload)?;
    let quarantined = compute_quarantine(&meta, &ts)?;
    let dirty_sections: Vec<String> = ts.dirty.iter().cloned().collect();
    let dataset = dataset_from_sections(ts.restrict(&meta, &quarantined)?, ColumnSet::ALL)?;
    dataset.validate().map_err(|e| bad(format!("degraded assembly failed validation: {e}")))?;
    Ok(DegradedLoad {
        health: StoreHealth {
            total_partitions: meta.extents.len() as u32,
            quarantined,
            total_events: meta.n_events,
            total_mentions: meta.n_mentions,
            loaded_events: dataset.events.len() as u64,
            loaded_mentions: dataset.mentions.len() as u64,
            dirty_sections,
            retries: 0,
        },
        dataset,
    })
}

/// True for error kinds worth retrying: transient I/O, not corruption
/// (`InvalidData`) or configuration problems.
fn retryable(e: &io::Error) -> bool {
    !matches!(
        e.kind(),
        io::ErrorKind::InvalidData | io::ErrorKind::NotFound | io::ErrorKind::PermissionDenied
    )
}

/// [`load_degraded_with`] with the default policy and no fault shim.
pub fn load_degraded(path: &std::path::Path) -> io::Result<DegradedLoad> {
    load_degraded_with(path, &RetryPolicy::default(), &NoShim)
}

/// Load a store file tolerantly: the reader is wrapped by `shim` (the
/// fault-injection hook; [`NoShim`] in production), transient failures
/// are retried per `policy` with capped exponential backoff, and
/// corruption is quarantined per [`read_dataset_degraded`].
pub fn load_degraded_with(
    path: &std::path::Path,
    policy: &RetryPolicy,
    shim: &dyn ReadShim,
) -> io::Result<DegradedLoad> {
    let _s = gdelt_obs::span("store", "load_degraded");
    let mut retries: u32 = 0;
    let mut attempt: u32 = 0;
    loop {
        let result = open_sized(path).and_then(|(f, len)| {
            read_degraded(&*shim.wrap(Box::new(f), attempt), len, &byte_groups)
        });
        match result {
            Ok(mut loaded) => {
                loaded.health.retries = retries;
                if retries > 0 {
                    gdelt_obs::flight_info(
                        "degraded",
                        "retry_recovered",
                        format!("load of {} succeeded after {retries} retries", path.display()),
                    );
                }
                if !loaded.health.is_clean() {
                    gdelt_obs::flight_warn(
                        "degraded",
                        "quarantine",
                        format!(
                            "{} partition(s) quarantined loading {} (coverage {})",
                            loaded.health.quarantined.len(),
                            path.display(),
                            loaded.health.coverage(),
                        ),
                    );
                }
                return Ok(loaded);
            }
            Err(e) if retryable(&e) && attempt < policy.max_retries => {
                gdelt_obs::flight_warn(
                    "degraded",
                    "retry",
                    format!(
                        "load attempt {attempt} of {} failed ({e}); backing off {:?}",
                        path.display(),
                        policy.delay(attempt),
                    ),
                );
                std::thread::sleep(policy.delay(attempt));
                retries += 1;
                attempt += 1;
            }
            Err(e) => {
                gdelt_obs::flight_error(
                    "degraded",
                    "load_failed",
                    format!("giving up on {} after {retries} retries: {e}", path.display()),
                );
                return Err(e);
            }
        }
    }
}

/// Restrict a pristine in-memory dataset to the partitions *not* in
/// `quarantined`, using the same partition map a store written with
/// `n_parts` would carry. This is the reference the chaos harness and
/// the quarantine tests compare degraded loads against: a degraded load
/// with quarantine set `Q` must equal `restrict_to_partitions(clean,
/// n_parts, Q)` bit for bit.
///
/// Each live partition is a run of whole events with every mention of
/// them, so a valid `d` gives a valid result (debug builds check it),
/// holding the columns `d` holds; the only errors are row counts that
/// overflow.
pub fn restrict_to_partitions(
    d: &Dataset,
    n_parts: u32,
    quarantined: &[u32],
) -> io::Result<Dataset> {
    let exts = crate::binfmt::partition_extents(
        d.events.len(),
        d.mentions.len(),
        &d.event_index.offsets,
        n_parts,
    );
    let span = |begin: u64, end: u64| -> io::Result<std::ops::Range<usize>> {
        let at = |v: u64| usize::try_from(v).map_err(|_| bad("extent overflow"));
        Ok(at(begin)?..at(end)?)
    };
    let event_row = |row: usize| u32::try_from(row).map_err(|_| bad("rebased event row overflow"));
    // Each live partition is one event run and one mention run whose
    // event rows shift down by the event rows dropped before it.
    let (mut event_runs, mut mention_runs) = (Vec::new(), Vec::new());
    let mut kept = 0;
    for (ext, _) in exts.iter().zip(0u32..).filter(|(_, p)| !quarantined.contains(p)) {
        let (events, rows) = (span(ext.ev_begin, ext.ev_end)?, span(ext.m_begin, ext.m_end)?);
        let event_row = EventRows::Shift { from: event_row(events.start)?, to: event_row(kept)? };
        kept += events.len();
        event_runs.push((&d.events, events));
        mention_runs.push(MentionRun { src: &d.mentions, rows, event_row, source_map: None });
    }
    let events = EventsTable::from_runs(&event_runs, d.columns);
    let mentions = MentionsTable::from_runs(&mention_runs, d.columns, &events.capture);
    let event_index = EventIndex::build(events.len(), &mentions);
    let sources = d.sources.clone();
    let restricted = Dataset {
        events,
        mentions,
        sources,
        event_index,
        columns: d.columns,
        ..Dataset::default()
    };
    debug_assert_eq!(restricted.validate(), Ok(()));
    Ok(restricted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binfmt::{
        read_store_extents, save_with_partitions, scan_layout, write_dataset_with_partitions,
    };
    use crate::builder::DatasetBuilder;
    use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
    use gdelt_model::event::{ActionGeo, EventRecord, GeoType};
    use gdelt_model::ids::EventId;
    use gdelt_model::mention::{MentionRecord, MentionType};
    use gdelt_model::time::{DateTime, GDELT_EPOCH};

    fn sample_dataset() -> Dataset {
        sample_builder().build().0
    }

    /// Events 1..=40, each with one to three mentions.
    fn sample_builder() -> DatasetBuilder {
        let mut b = DatasetBuilder::new();
        for id in 1..=40u64 {
            b.add_event(EventRecord {
                id: EventId(id),
                day: GDELT_EPOCH.add_days((id % 7) as i64),
                root: CameoRoot::new((id % 20 + 1) as u8).unwrap(),
                event_code: "190".into(),
                actor1_country: String::new(),
                actor2_country: String::new(),
                quad_class: QuadClass::from_u8((id % 4 + 1) as u8).unwrap(),
                goldstein: Goldstein::new(0.5).unwrap(),
                num_mentions: id as u32,
                num_sources: 1,
                num_articles: id as u32,
                avg_tone: -1.5,
                geo: ActionGeo {
                    geo_type: GeoType::Country,
                    country_fips: "US".into(),
                    lat: Some(1.0),
                    lon: Some(2.0),
                },
                date_added: DateTime::new(
                    GDELT_EPOCH.add_days((id % 7) as i64),
                    (id % 24) as u8,
                    0,
                    0,
                )
                .unwrap(),
                source_url: format!("https://site{id}.com/a"),
            });
            for k in 0..(id % 3 + 1) {
                b.add_mention(MentionRecord {
                    event_id: EventId(id),
                    event_time: DateTime::new(
                        GDELT_EPOCH.add_days((id % 7) as i64),
                        (id % 24) as u8,
                        0,
                        0,
                    )
                    .unwrap(),
                    mention_time: DateTime::new(
                        GDELT_EPOCH.add_days((id % 7) as i64 + 1),
                        ((id + k) % 24) as u8,
                        0,
                        0,
                    )
                    .unwrap(),
                    mention_type: MentionType::Web,
                    source_name: format!("pub{k}.co.uk"),
                    url: format!("https://pub{k}.co.uk/{id}"),
                    confidence: 75,
                    doc_tone: 0.25,
                });
            }
        }
        b
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("gdelt_degraded_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Flip one payload byte of `section` at `rel` in a saved store.
    fn flip_at(path: &std::path::Path, section: &str, rel: u64, xor: u8) {
        let layout = scan_layout(path).unwrap();
        let sec = layout.iter().find(|s| s.name == section).unwrap();
        assert!(rel < sec.payload_len, "flip offset outside section");
        let mut bytes = std::fs::read(path).unwrap();
        bytes[(sec.payload_offset + rel) as usize] ^= xor;
        std::fs::write(path, bytes).unwrap();
    }

    fn assert_datasets_equal(a: &Dataset, b: &Dataset) {
        assert_eq!(a.events, b.events);
        assert_eq!(a.mentions, b.mentions);
        assert_eq!(a.event_index, b.event_index);
        assert_eq!(a.sources.country, b.sources.country);
        assert_eq!(a.sources.names.pool(), b.sources.names.pool());
    }

    #[test]
    fn clean_store_loads_with_full_coverage() {
        let d = sample_dataset();
        let path = tmp("clean.gdhpc");
        save_with_partitions(&path, &d, 8).unwrap();
        let loaded = load_degraded(&path).unwrap();
        assert!(loaded.health.is_clean());
        assert!(loaded.health.coverage().is_full());
        assert_eq!(loaded.health.retries, 0);
        assert_datasets_equal(&loaded.dataset, &d);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_event_column_quarantines_one_partition() {
        let d = sample_dataset();
        let path = tmp("flip_event.gdhpc");
        save_with_partitions(&path, &d, 8).unwrap();
        // Partition 2 of 8 over 40 events owns event rows 10..15;
        // flip a byte of events.day inside it.
        flip_at(&path, "events.day", 11 * 4 + 1, 0x40);
        let loaded = load_degraded(&path).unwrap();
        assert_eq!(loaded.health.quarantined, vec![2]);
        assert_eq!(loaded.health.dirty_sections, vec!["events.day".to_string()]);
        assert!(!loaded.health.coverage().is_full());
        let reference = restrict_to_partitions(&d, 8, &[2]).unwrap();
        assert_datasets_equal(&loaded.dataset, &reference);
        // Strict loader still refuses the same file.
        assert!(crate::binfmt::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_mention_column_quarantines_and_drops_its_mentions() {
        let d = sample_dataset();
        let path = tmp("flip_mention.gdhpc");
        save_with_partitions(&path, &d, 4).unwrap();
        flip_at(&path, "mentions.delay", 3, 0xFF);
        let loaded = load_degraded(&path).unwrap();
        assert_eq!(loaded.health.quarantined.len(), 1);
        let q = loaded.health.quarantined.clone();
        let reference = restrict_to_partitions(&d, 4, &q).unwrap();
        assert_datasets_equal(&loaded.dataset, &reference);
        assert!(loaded.health.loaded_mentions < loaded.health.total_mentions);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_url_pool_byte_quarantines_owner() {
        let d = sample_dataset();
        let path = tmp("flip_url.gdhpc");
        save_with_partitions(&path, &d, 8).unwrap();
        flip_at(&path, "events.urls.bytes", 2, 0x20);
        let loaded = load_degraded(&path).unwrap();
        assert_eq!(loaded.health.quarantined, vec![0], "byte 2 is in partition 0's urls");
        let reference = restrict_to_partitions(&d, 8, &[0]).unwrap();
        assert_datasets_equal(&loaded.dataset, &reference);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn boundary_offset_flip_quarantines_both_neighbours() {
        let d = sample_dataset();
        let path = tmp("flip_boundary.gdhpc");
        save_with_partitions(&path, &d, 8).unwrap();
        // index.offsets entry 5 is the shared boundary of partitions 0
        // (rows 0..5) and 1 (rows 5..10) over 40 events.
        flip_at(&path, "index.offsets", 5 * 8, 0x01);
        let loaded = load_degraded(&path).unwrap();
        assert_eq!(loaded.health.quarantined, vec![0, 1]);
        let reference = restrict_to_partitions(&d, 8, &[0, 1]).unwrap();
        assert_datasets_equal(&loaded.dataset, &reference);
        std::fs::remove_file(&path).ok();
    }

    /// [`sample_dataset`] plus two mentions of events it lacks (77 and
    /// 78): an orphan tail, so every column holds bytes.
    fn sample_with_orphans() -> Dataset {
        let mut b = sample_builder();
        for id in [77, 78] {
            b.add_mention(MentionRecord {
                event_id: EventId(id),
                event_time: DateTime::midnight(GDELT_EPOCH),
                mention_time: DateTime::new(GDELT_EPOCH, 3, 0, 0).unwrap(),
                mention_type: MentionType::Web,
                source_name: "pub9.co.uk".into(),
                url: String::new(),
                confidence: 75,
                doc_tone: 0.25,
            });
        }
        b.build().0
    }

    #[test]
    fn the_orphan_tail_goes_with_the_last_partition() {
        let d = sample_with_orphans();
        assert_eq!(d.mentions.orphan_id.as_slice(), &[77, 78]);
        let path = tmp("orphans.gdhpc");
        save_with_partitions(&path, &d, 4).unwrap();
        // Event row 2 lies in partition 0 of 4; row 35 in the last.
        for (row, quarantined, orphans) in [(2, 0, 2), (35, 3, 0)] {
            save_with_partitions(&path, &d, 4).unwrap();
            flip_at(&path, "events.day", row * 4, 0x40);
            let loaded = load_degraded(&path).unwrap();
            assert_eq!(loaded.health.quarantined, vec![quarantined]);
            assert_eq!(loaded.dataset.mentions.orphan_id.len(), orphans);
            let reference = restrict_to_partitions(&d, 4, &[quarantined]).unwrap();
            assert_datasets_equal(&loaded.dataset, &reference);
        }
        // The side columns have no partition digest: damage there is fatal.
        save_with_partitions(&path, &d, 4).unwrap();
        flip_at(&path, "mentions.orphan_id", 3, 0x01);
        let err = load_degraded(&path).unwrap_err();
        assert!(err.to_string().contains("global section mentions.orphan_id"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_row_addressed_section_quarantines_exactly_its_partition() {
        let d = sample_with_orphans();
        let path = tmp("sweep.gdhpc");
        save_with_partitions(&path, &d, 8).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let layout = scan_layout(&path).unwrap();
        // Partition 3 of 8 over 40 events owns event rows 15..20.
        let ext = read_store_extents(&path).unwrap().extents[3];
        let reference = restrict_to_partitions(&d, 8, &[3]).unwrap();
        let (_, url_offsets) = d.events.urls.raw_parts();
        let mut swept = Vec::new();
        for sec in &layout {
            let space = section_space(&sec.name);
            let Some((begin, end)) = ext.byte_range(space, url_offsets) else { continue };
            // The middle of the slice; an offsets slice shares its first
            // and last entries with the neighbours, so take the middle
            // entry's low byte.
            let at = match space {
                SectionSpace::EventOffsets => begin + (end - begin) / 16 * 8,
                _ => (begin + end) / 2,
            };
            let mut bytes = clean.clone();
            bytes[(sec.payload_offset + at) as usize] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            let loaded = load_degraded(&path).unwrap();
            assert_eq!(loaded.health.quarantined, vec![3], "{}", sec.name);
            assert_eq!(loaded.health.dirty_sections, vec![sec.name.clone()]);
            assert_datasets_equal(&loaded.dataset, &reference);
            swept.push(sec.name.as_str());
        }
        // Every fixed-width event and mention column, both URL sections
        // and the CSR index.
        let fixed = Column::ALL
            .iter()
            .filter(|c| matches!(c.layout(), Layout::Event(_) | Layout::Mention(_)));
        assert_eq!(swept.len(), fixed.count() + 3, "{swept:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_column_loads_projected_as_the_full_load_projects() {
        let path = tmp("projected_sweep.gdhpc");
        save_with_partitions(&path, &sample_with_orphans(), 8).unwrap();
        let full = crate::binfmt::load(&path).unwrap();
        for c in Column::ALL {
            assert!(full.column_bytes(c) > 0, "{c}");
            let columns = ColumnSet::of(&[c]);
            let got = crate::binfmt::load_projected(&path, &columns).unwrap();
            let want = full.clone().project(&columns);
            assert_eq!(got.columns, want.columns, "{c}");
            assert_datasets_equal(&got, &want);
            for k in Column::ALL {
                assert_eq!(got.column_bytes(k) > 0, got.columns.contains(k), "{c}: {k}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_store_cut_inside_a_header_is_refused_as_corrupt_without_retries() {
        let path = tmp("cut_header.gdhpc");
        save_with_partitions(&path, &sample_dataset(), 8).unwrap();
        let whole = std::fs::read(&path).unwrap();
        let last = scan_layout(&path).unwrap().pop().unwrap();
        let header = last.payload_offset as usize - (2 + last.name.len() + 16);
        let policy = RetryPolicy {
            max_retries: 3,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(1),
        };
        let retries = || {
            let events = gdelt_obs::flight_snapshot();
            let of_path = |e: &&gdelt_obs::FlightEvent| {
                e.code == "retry" && e.detail.contains(&path.display().to_string())
            };
            events.iter().filter(of_path).count()
        };
        for cut in [0, 7, 10, header + 5] {
            std::fs::write(&path, &whole[..cut]).unwrap();
            let err = crate::binfmt::load(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}: {err}");
            assert!(err.to_string().contains("truncated"), "cut at {cut}: {err}");
            let before = retries();
            let err = load_degraded_with(&path, &policy, &NoShim).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}: {err}");
            assert_eq!(retries(), before, "cut at {cut} was retried");
        }
        // The cut header is named by its index: section 25 of 26.
        let err = scan_layout(&path).unwrap_err().to_string();
        assert!(err.contains("truncated inside the header of section 25"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn global_section_corruption_is_fatal() {
        let d = sample_dataset();
        let path = tmp("flip_global.gdhpc");
        save_with_partitions(&path, &d, 8).unwrap();
        flip_at(&path, "sources.country", 0, 0xFF);
        let err = load_degraded(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("global"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_meta_is_fatal() {
        let d = sample_dataset();
        let path = tmp("flip_meta.gdhpc");
        save_with_partitions(&path, &d, 8).unwrap();
        flip_at(&path, META_SECTION, 20, 0xFF);
        let err = load_degraded(&path).unwrap_err();
        assert!(err.to_string().contains("partitions.meta"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tail_truncation_quarantines_tail_partitions() {
        let d = sample_dataset();
        let path = tmp("truncate_tail.gdhpc");
        save_with_partitions(&path, &d, 8).unwrap();
        // Cut into the final section's payload (index.offsets is
        // written last): its tail entries vanish, the partitions whose
        // offset entries are gone get quarantined.
        let layout = scan_layout(&path).unwrap();
        let last = layout.last().unwrap();
        assert_eq!(last.name, "index.offsets");
        let bytes = std::fs::read(&path).unwrap();
        let cut = (last.payload_offset + last.payload_len / 2) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let loaded = load_degraded(&path).unwrap();
        assert!(!loaded.health.quarantined.is_empty());
        assert!(loaded.health.quarantined.contains(&7), "tail partition must be gone");
        let reference = restrict_to_partitions(&d, 8, &loaded.health.quarantined).unwrap();
        assert_datasets_equal(&loaded.dataset, &reference);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn all_partitions_quarantined_yields_empty_dataset() {
        let d = sample_dataset();
        let path = tmp("flip_everywhere.gdhpc");
        save_with_partitions(&path, &d, 2).unwrap();
        // Damage both partitions of events.id.
        flip_at(&path, "events.id", 0, 0xFF);
        flip_at(&path, "events.id", 21 * 8, 0xFF);
        let loaded = load_degraded(&path).unwrap();
        assert_eq!(loaded.health.quarantined, vec![0, 1]);
        assert!(loaded.dataset.events.is_empty());
        assert!((loaded.health.coverage().fraction() - 0.0).abs() < 1e-12);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_failures_are_retried_with_backoff() {
        struct FailFirst {
            failures: u32,
        }
        struct FailingReader;
        impl ReadAt for FailingReader {
            fn read_at(&self, _buf: &mut [u8], _offset: u64) -> io::Result<usize> {
                Err(io::Error::other("injected transient failure"))
            }
        }
        impl ReadShim for FailFirst {
            fn wrap<'a>(&self, inner: Box<dyn ReadAt + 'a>, attempt: u32) -> Box<dyn ReadAt + 'a> {
                if attempt < self.failures {
                    Box::new(FailingReader)
                } else {
                    inner
                }
            }
        }
        let d = sample_dataset();
        let path = tmp("retry.gdhpc");
        save_with_partitions(&path, &d, 8).unwrap();
        let policy = RetryPolicy {
            max_retries: 3,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
        };
        let loaded = load_degraded_with(&path, &policy, &FailFirst { failures: 2 }).unwrap();
        assert_eq!(loaded.health.retries, 2);
        assert_datasets_equal(&loaded.dataset, &d);
        // More failures than the budget → the transient error surfaces.
        let err = load_degraded_with(&path, &policy, &FailFirst { failures: 10 }).unwrap_err();
        assert!(err.to_string().contains("transient"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_retries: 8,
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(70),
        };
        assert_eq!(p.delay(0), Duration::from_millis(10));
        assert_eq!(p.delay(1), Duration::from_millis(20));
        assert_eq!(p.delay(2), Duration::from_millis(40));
        assert_eq!(p.delay(3), Duration::from_millis(70), "capped");
        assert_eq!(p.delay(30), Duration::from_millis(70), "still capped far out");
    }

    #[test]
    fn restrict_with_empty_quarantine_is_identity() {
        let d = sample_dataset();
        let r = restrict_to_partitions(&d, 8, &[]).unwrap();
        assert_datasets_equal(&r, &d);
    }

    #[test]
    fn in_memory_roundtrip_matches_file_path() {
        let d = sample_dataset();
        let mut buf = Vec::new();
        write_dataset_with_partitions(&mut buf, &d, 8).unwrap();
        let loaded = read_dataset_degraded(&buf).unwrap();
        assert!(loaded.health.is_clean());
        assert_datasets_equal(&loaded.dataset, &d);
    }
}
