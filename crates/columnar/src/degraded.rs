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
//! 3. **Compaction** — the dataset is assembled from the live
//!    partitions only: column slices are concatenated, the URL pool and
//!    the `event_row` join column are rebased, the orphan tail goes
//!    with the last partition, and the CSR index is rebuilt. The result
//!    is *exactly* the dataset a clean store restricted to the same
//!    partitions would produce
//!    ([`restrict_to_partitions`] — chaos testing asserts bit-identical
//!    results), and it passes [`Dataset::validate`] like any other load.
//! 4. **Retry** — transient read errors (not corruption) are retried
//!    with capped exponential backoff per [`RetryPolicy`] before giving
//!    up; an injectable [`ReadShim`] under the loader lets the fault
//!    harness exercise every path deterministically.
//!
//! What loaded, what was dropped and what was retried is reported in a
//! [`StoreHealth`], whose [`Coverage`](crate::health::Coverage) every
//! downstream query answer carries.

use std::collections::BTreeSet;
use std::io::{self, Read};
use std::time::Duration;

use crate::aligned::{AlignedBuf, Scalar};
use crate::binfmt::{
    bad, checksum64, into_column, open_sized, parse_meta, section_space, MetaTable, NoShim,
    PartExtent, ReadShim, SectionSpace, Sections, META_SECTION,
};
use crate::columns::ColumnSet;
use crate::health::StoreHealth;
use crate::index::EventIndex;
use crate::strings::{StringDict, StringPool};
use crate::table::{
    Dataset, EventRows, EventsTable, MentionRun, MentionsTable, SourceDirectory, NO_EVENT_ROW,
};

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
    for name in &ts.dirty {
        if section_space(name) == SectionSpace::Global && name != META_SECTION {
            return Err(bad(format!("unrecoverable corruption in global section {name}")));
        }
    }
    let mut quarantined: BTreeSet<u32> = BTreeSet::new();
    let check_row = |name: &str,
                     row: &[u64],
                     url_offsets: &[u64],
                     skip: &BTreeSet<u32>,
                     out: &mut BTreeSet<u32>|
     -> io::Result<()> {
        let space = section_space(name);
        let payload = ts.get(name)?;
        for (p, ext) in meta.extents.iter().enumerate() {
            let pid = p as u32;
            if skip.contains(&pid) {
                continue;
            }
            let ok = match (ext.slice(space, payload, url_offsets), row.get(p)) {
                (Some(bytes), Some(&digest)) => checksum64(bytes) == digest,
                _ => false,
            };
            if !ok {
                out.insert(pid);
            }
        }
        Ok(())
    };
    // Phase 1: every dirty fixed-width / offsets section. The URL byte
    // pool needs the offsets column to slice, so it goes second, and
    // only for partitions whose offsets just verified clean.
    for (name, row) in &meta.digests {
        if section_space(name) == SectionSpace::UrlBytes || !ts.dirty.contains(name) {
            continue;
        }
        check_row(name, row, &[], &BTreeSet::new(), &mut quarantined)?;
    }
    if ts.dirty.contains("events.urls.bytes") {
        let url_offsets = whole_offsets(ts.get("events.urls.offsets")?)?;
        let row = meta
            .digests
            .iter()
            .find(|(n, _)| n == "events.urls.bytes")
            .map(|(_, r)| r.as_slice())
            .ok_or_else(|| bad("partitions.meta has no digest row for events.urls.bytes"))?;
        let skip = quarantined.clone();
        check_row("events.urls.bytes", row, &url_offsets, &skip, &mut quarantined)?;
    }
    if !ts.dirty.is_empty() && quarantined.is_empty() {
        return Err(bad("corruption detected but not localizable to a partition"));
    }
    Ok(quarantined.into_iter().collect())
}

/// Decode an offsets payload that may have lost its tail: the whole
/// `u64` entries it still holds.
fn whole_offsets(payload: &[u8]) -> io::Result<AlignedBuf<u64>> {
    let whole = payload.get(..payload.len() - payload.len() % 8).unwrap_or(&[]);
    into_column(whole.into(), "events.urls.offsets")
}

/// Each live partition's slice of one fixed-width section.
fn live_slices<'a>(
    ts: &'a Sections,
    name: &str,
    live: &'a [PartExtent],
) -> io::Result<Vec<(&'a PartExtent, &'a [u8])>> {
    let space = section_space(name);
    let payload = ts.get(name)?;
    live.iter()
        .map(|ext| {
            let slice = ext
                .slice(space, payload, &[])
                .ok_or_else(|| bad(format!("live partition slice of {name} out of bounds")))?;
            Ok((ext, slice))
        })
        .collect()
}

/// Concatenate the live-partition slices of one fixed-width section:
/// the slices are copied out of the section's buffer, and the copy
/// becomes the column in place.
fn gather<T: Scalar>(ts: &Sections, name: &str, live: &[PartExtent]) -> io::Result<AlignedBuf<T>> {
    let mut out = AlignedBuf::new();
    for (_, slice) in live_slices(ts, name, live)? {
        out.extend_from_slice(slice);
    }
    into_column(out, name)
}

/// [`gather`] of `mentions.event_row`, shifting each row down by the
/// event rows dropped before its partition. [`NO_EVENT_ROW`] is kept as
/// is; any other row must lie inside its own partition's event range.
fn rebase_event_rows(ts: &Sections, live: &[PartExtent]) -> io::Result<AlignedBuf<u32>> {
    let name = "mentions.event_row";
    let mut out = AlignedBuf::new();
    let mut base: u64 = 0;
    for (ext, slice) in live_slices(ts, name, live)? {
        for &v in into_column::<u32>(slice.into(), name)?.iter() {
            if v == NO_EVENT_ROW {
                out.push(v);
                continue;
            }
            let row = u64::from(v);
            if row < ext.ev_begin || row >= ext.ev_end {
                return Err(bad(format!("{name} points outside its partition; cannot compact")));
            }
            let rebased = row - ext.ev_begin + base;
            out.push(u32::try_from(rebased).map_err(|_| bad("rebased event row overflow"))?);
        }
        base += ext.ev_end - ext.ev_begin;
    }
    Ok(out)
}

/// Assemble a compacted dataset from the live partitions.
fn assemble(
    meta: &MetaTable,
    mut ts: Sections,
    quarantined: &[u32],
) -> io::Result<(Dataset, u64, u64)> {
    if quarantined.is_empty() {
        // Nothing dropped: the strict assembly path applies verbatim.
        let d = crate::binfmt::dataset_from_sections(ts, ColumnSet::ALL)?;
        return Ok((d, meta.n_events, meta.n_mentions));
    }

    let live: Vec<PartExtent> = (0u32..)
        .zip(&meta.extents)
        .filter(|(p, _)| !quarantined.contains(p))
        .map(|(_, ext)| *ext)
        .collect();
    let loaded_events: u64 = live.iter().map(|e| e.ev_end - e.ev_begin).sum();
    let loaded_mentions: u64 = live.iter().map(|e| e.m_end - e.m_begin).sum();

    macro_rules! col {
        ($name:literal) => {
            gather(&ts, $name, &live)?
        };
    }

    // URL pool: concatenate live byte slices and rebase the offsets.
    let url_offsets = whole_offsets(ts.get("events.urls.offsets")?)?;
    let bytes_payload = ts.get("events.urls.bytes")?;
    let mut new_bytes: AlignedBuf<u8> = AlignedBuf::new();
    let mut new_offsets: AlignedBuf<u64> = AlignedBuf::from(&[0][..]);
    for ext in &live {
        let slice = ext
            .slice(SectionSpace::UrlBytes, bytes_payload, &url_offsets)
            .ok_or_else(|| bad("live partition slice of events.urls.bytes out of bounds"))?;
        new_bytes.extend_from_slice(slice);
        let b = usize::try_from(ext.ev_begin).map_err(|_| bad("extent overflow"))?;
        let e = usize::try_from(ext.ev_end).map_err(|_| bad("extent overflow"))?;
        for i in b..e {
            let (lo, hi) = match (url_offsets.get(i), url_offsets.get(i + 1)) {
                (Some(&lo), Some(&hi)) if lo <= hi => (lo, hi),
                _ => return Err(bad("inconsistent url offsets in a live partition")),
            };
            let last = new_offsets.last().copied().unwrap_or(0);
            new_offsets.push(last + (hi - lo));
        }
    }
    let urls = StringPool::from_raw_parts(new_bytes, new_offsets).map_err(bad)?;

    // The precomputed join column rebases: live references stay within
    // their own partition's event range and shift down by the dropped
    // rows; its orphan sentinel passes through.
    let event_row = rebase_event_rows(&ts, &live)?;

    let events = EventsTable {
        id: col!("events.id"),
        day: col!("events.day"),
        capture: col!("events.capture"),
        quarter: col!("events.quarter"),
        quad: col!("events.quad"),
        actor1: col!("events.actor1"),
        actor2: col!("events.actor2"),
        avg_tone: col!("events.avg_tone"),
        country: col!("events.country"),
        urls,
    };

    // The orphan tail lies in the last partition's mention rows.
    let tail_live = !quarantined.contains(&(meta.extents.len() as u32).saturating_sub(1));
    let mut orphans = |name: &str| -> io::Result<AlignedBuf<u8>> {
        let side = ts.take(name)?;
        Ok(if tail_live { side } else { AlignedBuf::new() })
    };
    let (orphan_id, orphan_interval) =
        (orphans("mentions.orphan_id")?, orphans("mentions.orphan_interval")?);
    let mentions = MentionsTable {
        event_row,
        orphan_id: into_column(orphan_id, "mentions.orphan_id")?,
        orphan_interval: into_column(orphan_interval, "mentions.orphan_interval")?,
        mention_interval: col!("mentions.mention_interval"),
        delay: col!("mentions.delay"),
        source: col!("mentions.source"),
        quarter: col!("mentions.quarter"),
        mention_type: col!("mentions.mention_type"),
        confidence: col!("mentions.confidence"),
        doc_tone: col!("mentions.doc_tone"),
    };

    // Global sections are whole or the load already failed.
    let sources = SourceDirectory {
        names: StringDict::from_pool(ts.pool("sources.names.bytes", "sources.names.offsets")?),
        country: ts.column("sources.country")?,
    };

    let n_live_events = events.len();
    let event_index = EventIndex::build(n_live_events, &mentions);

    let dataset = Dataset { events, mentions, sources, event_index, columns: ColumnSet::ALL };
    Ok((dataset, loaded_events, loaded_mentions))
}

/// Decode a possibly-damaged store image held in memory: quarantine
/// what fails its digests, assemble and validate the rest. See the
/// module docs for the full contract.
pub fn read_dataset_degraded(bytes: &[u8]) -> io::Result<DegradedLoad> {
    read_degraded(bytes, bytes.len() as u64)
}

/// [`read_dataset_degraded`] over any source `limit` bytes long.
fn read_degraded<R: Read>(r: R, limit: u64) -> io::Result<DegradedLoad> {
    let ts = Sections::read(r, limit, true)?;
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
    let total_partitions = meta.extents.len() as u32;
    let (total_events, total_mentions) = (meta.n_events, meta.n_mentions);
    let (dataset, loaded_events, loaded_mentions) = assemble(&meta, ts, &quarantined)?;
    dataset.validate().map_err(|e| bad(format!("degraded assembly failed validation: {e}")))?;
    Ok(DegradedLoad {
        dataset,
        health: StoreHealth {
            total_partitions,
            quarantined,
            total_events,
            total_mentions,
            loaded_events,
            loaded_mentions,
            dirty_sections,
            retries: 0,
        },
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
        let result = open_sized(path)
            .and_then(|(r, len)| read_degraded(shim.wrap(Box::new(r), attempt), len));
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
    let restricted = Dataset { events, mentions, sources, event_index, columns: d.columns };
    debug_assert_eq!(restricted.validate(), Ok(()));
    Ok(restricted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binfmt::{save_with_partitions, scan_layout, write_dataset_with_partitions};
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

    #[test]
    fn the_orphan_tail_goes_with_the_last_partition() {
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
        let d = b.build().0;
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
        struct FailingReader {
            fail: bool,
        }
        impl Read for FailingReader {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                if self.fail {
                    Err(io::Error::other("injected transient failure"))
                } else {
                    Err(io::Error::other("unreachable"))
                }
            }
        }
        impl ReadShim for FailFirst {
            fn wrap<'a>(&self, inner: Box<dyn Read + 'a>, attempt: u32) -> Box<dyn Read + 'a> {
                if attempt < self.failures {
                    Box::new(FailingReader { fail: true })
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
