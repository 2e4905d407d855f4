//! The indexed binary on-disk format (store format v3).
//!
//! The preprocessing tool converts GDELT once into this format; afterwards
//! the engine memory-loads it in seconds instead of re-parsing a terabyte
//! of CSV. Layout:
//!
//! ```text
//! magic  "GDHPC3\0\0"                      8 bytes
//! u32    section count                     little-endian
//! per section:
//!   u16  name length, then name bytes      (ASCII, e.g. "mentions.delay")
//!   u64  payload length in bytes
//!   u64  checksum64 of the payload         (see below)
//!   payload                                raw little-endian column data
//! ```
//!
//! Every column, string pool and the CSR index is its own named section,
//! so the format is self-describing and forward-extensible (unknown
//! sections are ignored on read; a name may appear only once). The
//! sections, their order and row spaces are the schema of [`crate::columns`].
//! Checksums catch corruption; a full [`Dataset::validate`] runs after
//! load.
//!
//! v3 stores what the join does not already imply and what some
//! consumer reads. A joined mention's event id and event time are its
//! event row's `events.id` and `events.capture`; only the orphan tail
//! keeps them, in `mentions.orphan_id` / `mentions.orphan_interval`
//! (one entry per orphan). Event row `i`'s URL is string `i` of
//! `events.urls`. The export fields nothing reads (CAMEO root,
//! Goldstein, the three counts, coordinates) are not stored. Older
//! stores are refused with a hint to re-run `gdelt-cli convert`.
//!
//! The writer also emits a `partitions.meta` section (first in the
//! file): the store's row ranges split into [`DEFAULT_STORE_PARTITIONS`]
//! contiguous *load partitions*, plus a per-section, per-partition
//! [`checksum64`] digest table. Whole-section checksums detect
//! corruption; the digest table *localizes* it to a partition, so the
//! degraded loader ([`crate::degraded`]) can quarantine the damaged
//! partition and serve the rest.
//!
//! # `checksum64`
//!
//! Both the section checksum and the digest table use one function,
//! defined here exactly so a third party can reimplement it. All
//! arithmetic is on `u64` and wraps; words are little-endian.
//!
//! ```text
//! LANE_SEED = [0x6a09e667f3bcc908, 0xbb67ae8584caa73b,
//!              0x3c6ef372fe94f82b, 0xa54ff53a5f1d36f1]
//! LANE_MUL  = 0x9e3779b185ebca87      FOLD_MUL = 0xc2b2ae3d27d4eb4f
//!
//! lane[0..4] = LANE_SEED
//! for each whole 32-byte block, for i in 0..4:      (word i = bytes 8i..8i+8)
//!     lane[i] = (lane[i] ^ word[i]) * LANE_MUL
//! fold(acc, w) = { m = (acc ^ w) * FOLD_MUL;  m ^ (m >> 29) }
//! acc = input length in bytes
//! for i in 0..4:                    acc = fold(acc, lane[i])
//! for each 8-byte group of the remaining 0..=31 bytes, in order, the
//! last one zero-padded to 8 bytes:  acc = fold(acc, word)
//! acc ^= acc >> 33;  acc *= 0xff51afd7ed558ccd
//! acc ^= acc >> 33;  acc *= 0xc4ceb9fe1a85ec53
//! digest = acc ^ (acc >> 33)
//! ```
//!
//! The four lanes are independent multiply chains, so the function runs
//! at memory speed where byte-serial FNV-1a ran at one multiply per byte.
//! Every step is a bijection of the running state for a fixed input
//! word and of the input word for a fixed state, so — like FNV — any
//! change confined to one word is *guaranteed* to change the digest.
//! The shard wire seals its frames with the same function (see
//! `gdelt_shard::wire`).
//!
//! # Reading
//!
//! A [`Walk`] is the only parser of the magic and the section headers:
//! it reads them at their offsets ([`ReadAt`]) and trusts no declared
//! length past the end of the source, so a corrupt length field can
//! neither drive an allocation larger than the file nor a read beyond
//! it. The payloads a load reads are then split into byte-balanced
//! groups, as many as their bytes pay for ([`fork_pieces`]; the caller
//! takes the first):
//! each payload is read once into a 64-byte-aligned buffer sized from
//! its header, checksummed there (a string pool's bytes also checked for
//! UTF-8), and that buffer *becomes* its column
//! ([`AlignedBuf::cast`](crate::aligned::AlignedBuf::cast)). Outcomes are
//! taken in file order, so a load gives the dataset and the first error
//! one group gives. A repeated name is refused (the tolerant reader
//! marks it dirty), and [`Dataset::validate`] decides every invariant.
//!
//! A projected load ([`load_projected`]) reads only the sections of the
//! [`ColumnSet`] it is given (and those that are no column, such as
//! `partitions.meta`); the others are never read or checksummed, though
//! their headers still bound the file and a repeated name is refused.
//! [`load`] is the projected load of [`ColumnSet::ALL`].

use crate::aligned::{AlignedBuf, Scalar};
use crate::columns::{Column, ColumnSet, Layout};
use crate::partition::{cores, fork_join, fork_pieces, partitions};
use crate::strings::{StringDict, StringPool};
use crate::table::{Dataset, SourceDirectory};
use std::collections::{BTreeSet, HashMap};
use std::io::{self, Read, Write};
use std::mem::{size_of, size_of_val};
use std::path::{Path, PathBuf};

/// Format magic, bumped with any incompatible layout change. `GDHPC1`
/// (FNV-1a checksums) and `GDHPC2` (the join and unread export fields
/// stored) stores are refused: re-run `gdelt-cli convert`.
pub const MAGIC: &[u8; 8] = b"GDHPC3\0\0";

const LANE_SEEDS: [u64; 4] =
    [0x6a09_e667_f3bc_c908, 0xbb67_ae85_84ca_a73b, 0x3c6e_f372_fe94_f82b, 0xa54f_f53a_5f1d_36f1];
const LANE_MUL: u64 = 0x9e37_79b1_85eb_ca87;
const FOLD_MUL: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// Up to eight bytes as a little-endian word, zero-padded.
#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    for (dst, src) in word.iter_mut().zip(bytes) {
        *dst = *src;
    }
    u64::from_le_bytes(word)
}

#[inline]
fn fold(acc: u64, word: u64) -> u64 {
    let m = (acc ^ word).wrapping_mul(FOLD_MUL);
    m ^ (m >> 29)
}

/// The store's 64-bit checksum: four independent xor-multiply lanes over
/// little-endian words, folded with the length and the byte tail. The
/// module docs give the exact definition.
// analyze: no_panic
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = (*lane ^ le_word(word)).wrapping_mul(LANE_MUL);
        }
    }
    let mut acc = bytes.len() as u64;
    for lane in lanes {
        acc = fold(acc, lane);
    }
    for word in blocks.remainder().chunks(8) {
        acc = fold(acc, le_word(word));
    }
    acc ^= acc >> 33;
    acc = acc.wrapping_mul(0xff51_afd7_ed55_8ccd);
    acc ^= acc >> 33;
    acc = acc.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    acc ^ (acc >> 33)
}

/// Bulk little-endian encode of a column into a payload.
pub(crate) fn encode<T: Scalar>(vals: &[T]) -> Vec<u8> {
    let mut out = vec![0u8; size_of_val(vals)];
    for (dst, &v) in out.chunks_exact_mut(size_of::<T>()).zip(vals) {
        v.write_le(dst);
    }
    out
}

/// A whole section payload as its column: the bytes reinterpreted in
/// place ([`AlignedBuf::cast`]), then fixed up from little-endian —
/// a pass the compiler drops on little-endian hosts.
pub(crate) fn into_column<T: Scalar>(
    bytes: AlignedBuf<u8>,
    name: &str,
) -> io::Result<AlignedBuf<T>> {
    let mut column = bytes
        .cast::<T>()
        .map_err(|_| bad(format!("section {name} length not a multiple of element width")))?;
    if cfg!(target_endian = "big") {
        for v in column.iter_mut() {
            *v = v.le_to_native();
        }
    }
    Ok(column)
}

pub(crate) fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn write_section<W: Write>(w: &mut W, name: &str, payload: &[u8]) -> io::Result<()> {
    let name_b = name.as_bytes();
    w.write_all(&(name_b.len() as u16).to_le_bytes())?;
    w.write_all(name_b)?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(&checksum64(payload).to_le_bytes())?;
    w.write_all(payload)
}

/// Name of the partition-map section (written first in the file).
pub const META_SECTION: &str = "partitions.meta";

/// Load partitions a store is written with by [`save`] /
/// [`write_dataset`]. Small enough that tiny test stores still get
/// non-trivial partitions, large enough that quarantining one keeps
/// 7/8 of the data.
pub const DEFAULT_STORE_PARTITIONS: u32 = 8;

const META_VERSION: u32 = 1;

/// Which row space a section's payload is laid out in, and therefore
/// which byte range of it a load partition owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionSpace {
    /// One fixed-width element per *event* row; the width in bytes.
    Event(usize),
    /// One fixed-width element per *mention* row; the width in bytes.
    Mention(usize),
    /// The URL pool's raw bytes, addressed through `events.urls.offsets`.
    UrlBytes,
    /// A `u64` offsets array with `n_events + 1` entries. A partition
    /// owns entries `ev_begin ..= ev_end` — the shared boundary entry is
    /// hashed into *both* neighbours, so corrupting it quarantines both.
    EventOffsets,
    /// Not row-addressed (source directory, the orphan side columns,
    /// the meta section itself). Damage here cannot be localized and
    /// fails the load outright.
    Global,
}

/// Classify a section name into its [`SectionSpace`], from the
/// [`Layout`] of its column.
pub fn section_space(name: &str) -> SectionSpace {
    let Some(c) = Column::of_section(name) else {
        return SectionSpace::Global;
    };
    match (c.layout(), name.get(c.name().len()..)) {
        (Layout::Event(width), Some("")) => SectionSpace::Event(width),
        (Layout::Mention(width), Some("")) => SectionSpace::Mention(width),
        (Layout::Pool, Some(".bytes")) => SectionSpace::UrlBytes,
        (Layout::Pool, Some(".offsets")) | (Layout::Offsets, Some("")) => {
            SectionSpace::EventOffsets
        }
        _ => SectionSpace::Global,
    }
}

/// One load partition's extent: the half-open event-row range it owns
/// plus the mention rows of those events. The last partition's mention
/// range extends to `n_mentions`, so it also owns the orphan tail
/// (mentions with no matching event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartExtent {
    /// First event row owned (inclusive).
    pub ev_begin: u64,
    /// One past the last event row owned.
    pub ev_end: u64,
    /// First mention row owned (inclusive).
    pub m_begin: u64,
    /// One past the last mention row owned.
    pub m_end: u64,
}

impl PartExtent {
    /// The byte range of this partition inside a section's payload, or
    /// `None` for [`SectionSpace::Global`] sections and inconsistent
    /// URL offsets. The range is in payload coordinates and *not*
    /// clamped to the payload length.
    pub fn byte_range(&self, space: SectionSpace, url_offsets: &[u64]) -> Option<(u64, u64)> {
        let w = |n: usize| n as u64;
        match space {
            SectionSpace::Event(width) => {
                Some((self.ev_begin.checked_mul(w(width))?, self.ev_end.checked_mul(w(width))?))
            }
            SectionSpace::Mention(width) => {
                Some((self.m_begin.checked_mul(w(width))?, self.m_end.checked_mul(w(width))?))
            }
            SectionSpace::EventOffsets => {
                Some((self.ev_begin.checked_mul(8)?, self.ev_end.checked_add(1)?.checked_mul(8)?))
            }
            SectionSpace::UrlBytes => {
                let b = *url_offsets.get(usize::try_from(self.ev_begin).ok()?)?;
                let e = *url_offsets.get(usize::try_from(self.ev_end).ok()?)?;
                if b <= e {
                    Some((b, e))
                } else {
                    None
                }
            }
            SectionSpace::Global => None,
        }
    }

    /// This partition's slice of `payload`, or `None` if the range runs
    /// off the end (a truncated or inconsistent section).
    pub fn slice<'a>(
        &self,
        space: SectionSpace,
        payload: &'a [u8],
        url_offsets: &[u64],
    ) -> Option<&'a [u8]> {
        let (b, e) = self.byte_range(space, url_offsets)?;
        payload.get(usize::try_from(b).ok()?..usize::try_from(e).ok()?)
    }
}

/// Split a store's rows into `n_parts` load partitions: near-even event
/// ranges (via [`partitions`]) with each partition owning its events'
/// mention rows per the CSR `offsets`; the last partition's mention
/// range is extended to `n_mentions` to cover the orphan tail.
pub fn partition_extents(
    n_events: usize,
    n_mentions: usize,
    offsets: &[u64],
    n_parts: u32,
) -> Vec<PartExtent> {
    let parts = partitions(n_events, n_parts.max(1) as usize);
    let n_mentions = n_mentions as u64;
    let mention_at = |ev: usize| -> u64 { offsets.get(ev).copied().unwrap_or(0).min(n_mentions) };
    let last = parts.len().saturating_sub(1);
    parts
        .iter()
        .enumerate()
        .map(|(p, part)| {
            let m_begin = mention_at(part.begin);
            let m_end = if p == last { n_mentions } else { mention_at(part.end).max(m_begin) };
            PartExtent { ev_begin: part.begin as u64, ev_end: part.end as u64, m_begin, m_end }
        })
        .collect()
}

/// The decoded `partitions.meta` section.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MetaTable {
    pub(crate) n_events: u64,
    pub(crate) n_mentions: u64,
    pub(crate) extents: Vec<PartExtent>,
    /// Per-section digest rows: `(section name, one digest per partition)`.
    pub(crate) digests: Vec<(String, Vec<u64>)>,
}

fn build_meta(
    payloads: &[(&str, Vec<u8>)],
    extents: &[PartExtent],
    n_events: u64,
    n_mentions: u64,
    url_offsets: &[u64],
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&META_VERSION.to_le_bytes());
    out.extend_from_slice(&(extents.len() as u32).to_le_bytes());
    out.extend_from_slice(&n_events.to_le_bytes());
    out.extend_from_slice(&n_mentions.to_le_bytes());
    for e in extents {
        for bound in [e.ev_begin, e.ev_end, e.m_begin, e.m_end] {
            out.extend_from_slice(&bound.to_le_bytes());
        }
    }
    let rows: Vec<(&str, &Vec<u8>)> = payloads
        .iter()
        .filter(|(name, _)| section_space(name) != SectionSpace::Global)
        .map(|(name, payload)| (*name, payload))
        .collect();
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for (name, payload) in rows {
        let name_b = name.as_bytes();
        out.extend_from_slice(&(name_b.len() as u16).to_le_bytes());
        out.extend_from_slice(name_b);
        let space = section_space(name);
        for e in extents {
            let digest = match e.slice(space, payload, url_offsets) {
                Some(bytes) => checksum64(bytes),
                // Unrepresentable slice at write time would mean an
                // inconsistent dataset; record a sentinel that can
                // never match (actual slices hash real bytes).
                None => 0,
            };
            out.extend_from_slice(&digest.to_le_bytes());
        }
    }
    out
}

pub(crate) fn parse_meta(payload: &[u8]) -> io::Result<MetaTable> {
    struct Cursor<'a> {
        buf: &'a [u8],
        pos: usize,
    }
    impl<'a> Cursor<'a> {
        fn bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
            let end = self.pos.checked_add(n).ok_or_else(|| bad("meta length overflow"))?;
            let s = self.buf.get(self.pos..end).ok_or_else(|| bad("meta section truncated"))?;
            self.pos = end;
            Ok(s)
        }
        fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
            self.bytes(N)?.try_into().map_err(|_| bad("meta section truncated"))
        }
        fn u16(&mut self) -> io::Result<u16> {
            Ok(u16::from_le_bytes(self.array()?))
        }
        fn u32(&mut self) -> io::Result<u32> {
            Ok(u32::from_le_bytes(self.array()?))
        }
        fn u64(&mut self) -> io::Result<u64> {
            Ok(u64::from_le_bytes(self.array()?))
        }
    }
    let mut c = Cursor { buf: payload, pos: 0 };
    let version = c.u32()?;
    if version != META_VERSION {
        return Err(bad(format!("unsupported partitions.meta version {version}")));
    }
    let n_parts = c.u32()?;
    if n_parts == 0 || n_parts > 65_536 {
        return Err(bad(format!("implausible partition count {n_parts}")));
    }
    let n_events = c.u64()?;
    let n_mentions = c.u64()?;
    let mut extents = Vec::with_capacity(n_parts as usize);
    for _ in 0..n_parts {
        let ext =
            PartExtent { ev_begin: c.u64()?, ev_end: c.u64()?, m_begin: c.u64()?, m_end: c.u64()? };
        if ext.ev_begin > ext.ev_end
            || ext.m_begin > ext.m_end
            || ext.ev_end > n_events
            || ext.m_end > n_mentions
        {
            return Err(bad("inconsistent partition extent in partitions.meta"));
        }
        extents.push(ext);
    }
    let n_rows = c.u32()?;
    if n_rows > 4_096 {
        return Err(bad(format!("implausible meta digest row count {n_rows}")));
    }
    let mut digests = Vec::with_capacity(n_rows as usize);
    for _ in 0..n_rows {
        let name_len = c.u16()? as usize;
        let name = String::from_utf8(c.bytes(name_len)?.to_vec())
            .map_err(|_| bad("non-UTF-8 section name in partitions.meta"))?;
        let mut row = Vec::with_capacity(n_parts as usize);
        for _ in 0..n_parts {
            row.push(c.u64()?);
        }
        digests.push((name, row));
    }
    Ok(MetaTable { n_events, n_mentions, extents, digests })
}

/// Serialize a dataset to a writer with the default load-partition
/// count ([`DEFAULT_STORE_PARTITIONS`]).
pub fn write_dataset<W: Write>(w: &mut W, d: &Dataset) -> io::Result<()> {
    write_dataset_with_partitions(w, d, DEFAULT_STORE_PARTITIONS)
}

/// Serialize a dataset to a writer, splitting it into `n_parts` load
/// partitions recorded (with per-partition digests) in the leading
/// `partitions.meta` section. A projected dataset is refused with an
/// `InvalidInput` error naming its first absent column: its empty
/// buffers would make a store no full load accepts.
pub fn write_dataset_with_partitions<W: Write>(
    w: &mut W,
    d: &Dataset,
    n_parts: u32,
) -> io::Result<()> {
    if let Some(absent) = ColumnSet::ALL.difference(d.columns).iter().next() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("cannot write a projected dataset: it does not hold {absent}"),
        ));
    }
    let (url_bytes, url_offsets) = d.events.urls.raw_parts();
    let (name_bytes, name_offsets) = d.sources.names.pool().raw_parts();
    let mut payloads: Vec<(&str, Vec<u8>)> = Vec::new();
    for c in Column::ALL {
        match c {
            Column::EventsUrls => payloads.extend([
                ("events.urls.bytes", url_bytes.to_vec()),
                ("events.urls.offsets", encode(url_offsets)),
            ]),
            Column::Sources => payloads.extend([
                ("sources.names.bytes", name_bytes.to_vec()),
                ("sources.names.offsets", encode(name_offsets)),
                ("sources.country", encode(&d.sources.country)),
            ]),
            c => payloads.extend(d.fixed(c).map(|col| (c.name(), col.encode()))),
        }
    }
    let extents =
        partition_extents(d.events.len(), d.mentions.len(), &d.event_index.offsets, n_parts);
    let meta = build_meta(
        &payloads,
        &extents,
        d.events.len() as u64,
        d.mentions.len() as u64,
        url_offsets,
    );
    w.write_all(MAGIC)?;
    w.write_all(&(payloads.len() as u32 + 1).to_le_bytes())?;
    write_section(w, META_SECTION, &meta)?;
    for (name, payload) in &payloads {
        write_section(w, name, payload)?;
    }
    Ok(())
}

/// One section of a store as its header describes it: where the
/// payload lives and what it should hash to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionLayout {
    /// Section name.
    pub name: String,
    /// Absolute offset of the first payload byte.
    pub payload_offset: u64,
    /// Payload length in bytes, as the header declares it.
    pub payload_len: u64,
    /// Stored [`checksum64`] of the payload.
    pub checksum: u64,
    /// How many of the declared bytes the source can hold:
    /// `payload_len` clamped to what lies between `payload_offset` and
    /// the end of the source.
    available: u64,
}

impl SectionLayout {
    /// Refuse a section whose declared payload runs past the end of
    /// the source (a corrupt length field or a truncated file).
    fn ensure_whole(&self) -> io::Result<()> {
        if self.available < self.payload_len {
            return Err(bad(format!(
                "section {} truncated: {} of {} declared bytes lie inside the file",
                self.name, self.available, self.payload_len
            )));
        }
        Ok(())
    }
}

/// A store image read at absolute offsets: a file
/// (`FileExt::read_at`), bytes in memory, or a fault shim over either.
/// Any thread may read any range, so a load reads its payloads in
/// per-core groups.
pub trait ReadAt: Sync {
    /// Read into `buf` from byte `offset` of the source; fewer bytes
    /// than `buf` holds only where the source ends.
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize>;
}

impl ReadAt for &[u8] {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        let rest = usize::try_from(offset).ok().and_then(|at| self.get(at..)).unwrap_or(&[]);
        let n = buf.len().min(rest.len());
        buf[..n].copy_from_slice(&rest[..n]);
        Ok(n)
    }
}

impl ReadAt for std::fs::File {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        std::os::unix::fs::FileExt::read_at(self, buf, offset)
    }
}

/// A [`Read`] over a [`ReadAt`] source from byte `pos` on: how a header
/// or a payload is read at its offset.
struct At<'a> {
    src: &'a dyn ReadAt,
    pos: u64,
}

impl Read for At<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.src.read_at(buf, self.pos)?;
        self.pos += n as u64;
        Ok(n)
    }
}

fn read_array<const N: usize>(r: &mut impl Read) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// `what` as an `InvalidData` error if `read` hit the end of the source:
/// a cut header is corruption, not a transient failure to retry.
fn in_header<T>(read: io::Result<T>, what: impl FnOnce() -> String) -> io::Result<T> {
    read.map_err(|e| if e.kind() == io::ErrorKind::UnexpectedEof { bad(what()) } else { e })
}

/// The one parser of the store's magic and section headers: a walk from
/// header to header by their declared lengths, reading no payload.
pub(crate) struct Walk {
    /// The headers read, in file order. The walk ends after the count
    /// the file header promises, at a header it cannot read, or after
    /// the first section whose payload runs past the end of the source.
    pub(crate) heads: Vec<SectionLayout>,
    /// Why it ended at a header; a cut one is an `InvalidData` error
    /// naming the section, and sets `cut`.
    stop: Option<io::Error>,
    cut: bool,
}

impl Walk {
    /// Walk a source `limit` bytes long; no declared length is trusted
    /// past that bound, so a corrupt length field can neither drive an
    /// allocation larger than the file nor a read beyond its end.
    pub(crate) fn new(src: &dyn ReadAt, limit: u64) -> io::Result<Walk> {
        let mut at = At { src, pos: 0 };
        let cut = || "store truncated: it ends inside the 12-byte file header".to_string();
        let magic: [u8; 8] = in_header(read_array(&mut at), cut)?;
        if &magic != MAGIC {
            return Err(bad(match magic.strip_prefix(b"GDHPC") {
                Some(version) => format!(
                    "unsupported store format GDHPC{}: re-run `gdelt-cli convert`",
                    String::from_utf8_lossy(version).trim_end_matches('\0')
                ),
                None => "bad magic: not a gdelt-hpc binary file".to_string(),
            }));
        }
        let count = u32::from_le_bytes(in_header(read_array(&mut at), cut)?);
        if count > 4_096 {
            return Err(bad(format!("implausible section count {count}")));
        }
        let mut walk = Walk { heads: Vec::with_capacity(count as usize), stop: None, cut: false };
        for index in 0..count {
            let header = read_header(&mut at, limit);
            walk.cut = matches!(&header, Err(e) if e.kind() == io::ErrorKind::UnexpectedEof);
            let what =
                || format!("store truncated inside the header of section {index} of {count}");
            let Ok(h) = in_header(header, what).map_err(|e| walk.stop = Some(e)) else { break };
            at.pos = h.payload_offset.saturating_add(h.payload_len);
            let whole = h.available == h.payload_len;
            walk.heads.push(h);
            if !whole {
                break;
            }
        }
        Ok(walk)
    }

    /// Every section's layout, each payload whole, or the first reason
    /// there is none.
    fn whole(self) -> io::Result<Vec<SectionLayout>> {
        self.heads.iter().try_for_each(SectionLayout::ensure_whole)?;
        self.stop.map_or(Ok(self.heads), Err)
    }
}

/// One section header at `at`: name length, name, payload length and
/// checksum, in two reads.
fn read_header(at: &mut At<'_>, limit: u64) -> io::Result<SectionLayout> {
    let name_len = usize::from(u16::from_le_bytes(read_array(at)?));
    let mut rest = vec![0u8; name_len + 16];
    at.read_exact(&mut rest)?;
    let (name, lens) = rest.split_at(name_len);
    let name = String::from_utf8(name.to_vec()).map_err(|_| bad("non-UTF-8 section name"))?;
    let (payload_len, checksum) = (le_word(&lens[..8]), le_word(&lens[8..]));
    let available = payload_len.min(limit.saturating_sub(at.pos));
    Ok(SectionLayout { name, payload_offset: at.pos, payload_len, checksum, available })
}

/// A payload as its group read it: the bytes, in the aligned buffer
/// that becomes their column (short where the source ends early);
/// whether they are whole and hash to the stored checksum; and whether
/// they are a string pool's (`*.bytes`) and UTF-8.
struct Payload {
    bytes: AlignedBuf<u8>,
    sound: bool,
    utf8: bool,
}

/// Read and check section `h`'s payload into a buffer allocated once at
/// `h.available` bytes: never more than the source holds, whatever the
/// header declares.
fn read_payload(src: &dyn ReadAt, h: &SectionLayout) -> io::Result<Payload> {
    let cap = usize::try_from(h.available)
        .map_err(|_| bad(format!("section {} exceeds the address space", h.name)))?;
    let bytes = AlignedBuf::read_from(&mut At { src, pos: h.payload_offset }, cap)?;
    let sound = bytes.len() as u64 == h.payload_len && checksum64(&bytes) == h.checksum;
    let utf8 = h.name.ends_with(".bytes") && std::str::from_utf8(&bytes).is_ok();
    Ok(Payload { bytes, sound, utf8 })
}

/// How a load splits its payload reads: the groups (indices into the
/// walk's headers) it makes of the headers and the sections to read.
pub(crate) type Grouping = dyn Fn(&[SectionLayout], Vec<usize>) -> Vec<Vec<usize>>;

/// What a load costs a payload byte on one thread: read, checksummed
/// and UTF-8-checked, 0.3–0.46 ns (the 8.8 and 88 MB stores of scales
/// 0.0002 and 0.002).
const LOAD_BYTE_NS: f64 = 0.4;

/// The production [`Grouping`]: contiguous runs of about equal payload
/// bytes, as many as their total pays for ([`fork_pieces`], one a core
/// at most).
pub(crate) fn byte_groups(heads: &[SectionLayout], read: Vec<usize>) -> Vec<Vec<usize>> {
    let size = |i: usize| heads.get(i).map_or(0, |h| h.available);
    let total = read.iter().map(|&i| size(i)).sum::<u64>().max(1);
    let n = fork_pieces(usize::try_from(total).unwrap_or(usize::MAX), LOAD_BYTE_NS, cores());
    let mut groups = vec![Vec::new(); n];
    let mut before = 0;
    for i in read {
        // The group of the section's middle byte.
        let g = (before + size(i) / 2).saturating_mul(n as u64) / total;
        before += size(i);
        groups[usize::try_from(g).unwrap_or(n).min(n - 1)].push(i);
    }
    groups
}

/// Read and check the payloads of `groups`, the first on the caller and
/// the others on the fork pool: the outcomes by section index.
fn read_groups(
    src: &dyn ReadAt,
    heads: &[SectionLayout],
    mut groups: Vec<Vec<usize>>,
) -> HashMap<usize, io::Result<Payload>> {
    let read = |group: Vec<usize>| -> Vec<(usize, io::Result<Payload>)> {
        group.into_iter().filter_map(|i| Some((i, read_payload(src, heads.get(i)?)))).collect()
    };
    let first = if groups.is_empty() { Vec::new() } else { groups.remove(0) };
    let (mine, theirs) = fork_join(groups, read, || read(first));
    mine.into_iter().chain(theirs.into_iter().flatten()).collect()
}

/// Section payloads read back from a store, each in the 64-byte
/// aligned buffer that becomes its column.
#[derive(Default)]
pub(crate) struct Sections {
    pub(crate) map: HashMap<String, AlignedBuf<u8>>,
    /// Sections that arrived short, failed their checksum or were
    /// repeated. Always empty after a strict [`Sections::read`], which
    /// refuses them.
    pub(crate) dirty: BTreeSet<String>,
    /// String-pool byte sections their reader found to be UTF-8.
    pub(crate) utf8: BTreeSet<String>,
    /// Stored checksums of the sections read, in file order.
    checksums: Vec<u64>,
}

impl Sections {
    /// Read the sections `columns` reads ([`ColumnSet::reads_section`])
    /// of a source `limit` bytes long: one [`Walk`], then the payloads in
    /// the groups `group` makes, taken in file order — so every grouping
    /// gives the same sections, dirty set and error. The strict loader
    /// (`tolerant: false`) fails on the first section that is truncated,
    /// fails its checksum or repeats a name seen (read or not); the
    /// tolerant one keeps damaged sections (and the first of a repeated
    /// name), marks them dirty, and keeps what a cut source holds.
    pub(crate) fn read(
        src: &dyn ReadAt,
        limit: u64,
        tolerant: bool,
        columns: ColumnSet,
        group: &Grouping,
    ) -> io::Result<Self> {
        let walk = Walk::new(src, limit)?;
        let heads = &walk.heads;
        let read = (0..heads.len()).filter(|&i| columns.reads_section(&heads[i].name)).collect();
        let mut payloads = read_groups(src, heads, group(heads, read));
        let (mut s, mut seen) = (Sections::default(), BTreeSet::new());
        for (i, h) in walk.heads.into_iter().enumerate() {
            let repeated = !seen.insert(h.name.clone());
            if !tolerant {
                if repeated {
                    return Err(bad(format!("duplicate section {} in store", h.name)));
                }
                h.ensure_whole()?;
            }
            let Some(p) = payloads.remove(&i).transpose()? else { continue };
            if !p.sound {
                let got = p.bytes.len();
                if !tolerant {
                    return Err(bad(if got as u64 == h.payload_len {
                        format!("checksum mismatch in section {}", h.name)
                    } else {
                        format!("section {} truncated: {got} of {} bytes", h.name, h.payload_len)
                    }));
                }
                s.dirty.insert(h.name.clone());
            }
            s.checksums.push(h.checksum);
            if repeated {
                s.dirty.insert(h.name);
                continue;
            }
            s.utf8.extend(p.utf8.then(|| h.name.clone()));
            s.map.insert(h.name, p.bytes);
        }
        match walk.stop {
            Some(_) if tolerant && walk.cut => Ok(s),
            stop => stop.map_or(Ok(s), Err),
        }
    }

    /// A digest of the stored checksums of the sections read, never 0.
    pub(crate) fn identity(&self) -> u64 {
        checksum64(&self.checksums.iter().flat_map(|c| c.to_le_bytes()).collect::<Vec<u8>>()).max(1)
    }

    pub(crate) fn get(&self, name: &str) -> io::Result<&[u8]> {
        self.map
            .get(name)
            .map(AlignedBuf::as_slice)
            .ok_or_else(|| bad(format!("missing section {name}")))
    }

    pub(crate) fn take(&mut self, name: &str) -> io::Result<AlignedBuf<u8>> {
        self.map.remove(name).ok_or_else(|| bad(format!("missing section {name}")))
    }

    pub(crate) fn pool(&mut self, bytes: &str, offsets: &str) -> io::Result<StringPool> {
        let (utf8, raw) = (self.utf8.contains(bytes), self.take(bytes)?);
        StringPool::from_raw_parts(raw, into_column(self.take(offsets)?, offsets)?, utf8)
            .map_err(bad)
    }
}

/// Decode a store image held in memory, verifying checksums and all
/// invariants.
pub fn read_dataset(bytes: &[u8]) -> io::Result<Dataset> {
    let dataset = read_dataset_unchecked(bytes)?;
    dataset.validate().map_err(bad)?;
    Ok(dataset)
}

/// Decode verifying only checksums and per-section structure,
/// skipping [`Dataset::validate`]. This exists for the deep auditor
/// (`gdelt-cli validate`), which wants to load a structurally damaged
/// store and report *every* broken invariant rather than fail at the
/// first; every normal consumer should call [`read_dataset`].
pub fn read_dataset_unchecked(bytes: &[u8]) -> io::Result<Dataset> {
    let sections = Sections::read(&bytes, bytes.len() as u64, false, ColumnSet::ALL, &byte_groups)?;
    dataset_from_sections(sections, ColumnSet::ALL)
}

/// Assemble a [`Dataset`] holding `columns` ([`ColumnSet::to_hold`])
/// from an already-read section map (shared by the strict and degraded
/// loaders).
pub(crate) fn dataset_from_sections(mut s: Sections, columns: ColumnSet) -> io::Result<Dataset> {
    let columns = columns.to_hold();
    let mut d = Dataset { columns, ..Dataset::default() };
    let mut read = Ok(());
    d.for_each_fixed_mut(|c, col| {
        if read.is_ok() && columns.contains(c) {
            read = s.take(c.name()).and_then(|payload| col.decode(payload, c.name()));
        }
    });
    read?;
    if columns.contains(Column::EventsUrls) {
        d.events.urls = s.pool("events.urls.bytes", "events.urls.offsets")?;
    }
    d.sources = SourceDirectory {
        names: StringDict::from_pool(s.pool("sources.names.bytes", "sources.names.offsets")?),
        country: into_column(s.take("sources.country")?, "sources.country")?,
    };
    Ok(d)
}

/// Fill a sibling `<name>.tmp` and rename it over `path`, so a writer
/// that fails or is killed mid-stream leaves the file it was replacing
/// intact (and a failed one leaves no `.tmp` behind). There is no
/// `fsync`: the rename makes a save atomic against a crash of this
/// process, not durable against power loss. Two concurrent saves of the
/// same path share the `.tmp` name and are not supported.
fn replace_file(
    path: &Path,
    fill: impl FnOnce(&mut io::BufWriter<std::fs::File>) -> io::Result<()>,
) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let replaced = std::fs::File::create(&tmp)
        .and_then(|f| {
            let mut w = io::BufWriter::new(f);
            fill(&mut w)?;
            w.flush()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if replaced.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    replaced
}

/// Write a dataset to a file, atomically replacing any previous store
/// at `path` (tmp + rename, no `fsync`).
pub fn save(path: &Path, d: &Dataset) -> io::Result<()> {
    save_with_partitions(path, d, DEFAULT_STORE_PARTITIONS)
}

/// [`save`] with the store split into `n_parts` load partitions.
pub fn save_with_partitions(path: &Path, d: &Dataset, n_parts: u32) -> io::Result<()> {
    let _s = gdelt_obs::span_args("store", "save", "parts", u64::from(n_parts));
    replace_file(path, |w| write_dataset_with_partitions(w, d, n_parts))
}

/// Open a store file for reading, with the length that bounds every
/// declared section length.
pub(crate) fn open_sized(path: &Path) -> io::Result<(std::fs::File, u64)> {
    let f = std::fs::File::open(path)?;
    let len = f.metadata()?.len();
    Ok((f, len))
}

/// Load a dataset from a file, verifying integrity: the projected load
/// of every column.
pub fn load(path: &Path) -> io::Result<Dataset> {
    load_projected(path, &ColumnSet::ALL)
}

/// Load the `columns` of a store ([`ColumnSet::to_hold`]: with the
/// keys) into a projected [`Dataset`], verifying the checksum of every
/// section read and then every invariant of what was read. The other
/// sections are never read, so damage confined to them goes unseen:
/// this is what a server opens, and `gdelt-cli validate` still loads
/// everything.
pub fn load_projected(path: &Path, columns: &ColumnSet) -> io::Result<Dataset> {
    load_projected_with_identity(path, columns).map(|(dataset, _)| dataset)
}

/// [`load_projected`], with the identity of what it loaded: a digest of
/// the checksums of every section it read and verified, never 0. A
/// store whose loaded columns differ in any byte has another identity
/// (up to checksum collisions); reloading the same file gives the same.
pub fn load_projected_with_identity(
    path: &Path,
    columns: &ColumnSet,
) -> io::Result<(Dataset, u64)> {
    let _s = gdelt_obs::span("store", "load");
    let (file, len) = open_sized(path)?;
    let columns = columns.to_hold();
    let sections = Sections::read(&file, len, false, columns, &byte_groups)?;
    let identity = sections.identity();
    let dataset = dataset_from_sections(sections, columns)?;
    dataset.validate().map_err(bad)?;
    Ok((dataset, identity))
}

/// Load a dataset verifying only checksums, for the deep auditor; see
/// [`read_dataset_unchecked`].
pub fn load_unchecked(path: &Path) -> io::Result<Dataset> {
    let (file, len) = open_sized(path)?;
    let sections = Sections::read(&file, len, false, ColumnSet::ALL, &byte_groups)?;
    dataset_from_sections(sections, ColumnSet::ALL)
}

/// An injectable I/O shim under the store loaders: wraps the store's
/// positional source before any byte is parsed. The production path
/// uses [`NoShim`]; the fault-injection harness (`gdelt-faults`)
/// substitutes a source that flips bytes, truncates, delays, or fails
/// reads at absolute offsets on a seeded schedule.
pub trait ReadShim {
    /// Wrap the store's source for load attempt `attempt` (0-based;
    /// retries see increasing values so transient-failure schedules can
    /// clear).
    fn wrap<'a>(&self, inner: Box<dyn ReadAt + 'a>, attempt: u32) -> Box<dyn ReadAt + 'a>;
}

/// The identity [`ReadShim`]: reads pass through untouched.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoShim;

impl ReadShim for NoShim {
    fn wrap<'a>(&self, inner: Box<dyn ReadAt + 'a>, _attempt: u32) -> Box<dyn ReadAt + 'a> {
        inner
    }
}

/// Walk a store file's section headers and return the absolute byte
/// layout — the map fault schedules and the golden corruption corpus
/// use to aim at specific sections and partitions. Every returned
/// extent lies inside the file: a length that reaches past its end is a
/// typed `InvalidData` error.
pub fn scan_layout(path: &Path) -> io::Result<Vec<SectionLayout>> {
    let (file, len) = open_sized(path)?;
    Walk::new(&file, len)?.whole()
}

/// The partition map of a store file: row totals plus each load
/// partition's extent, decoded from `partitions.meta` without loading
/// any column data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreExtents {
    /// Event rows in the store.
    pub n_events: u64,
    /// Mention rows in the store.
    pub n_mentions: u64,
    /// Per-partition extents, in partition-id order.
    pub extents: Vec<PartExtent>,
}

/// Read only the `partitions.meta` payload of a store file whose
/// layout [`scan_layout`] accepts.
pub fn read_store_extents(path: &Path) -> io::Result<StoreExtents> {
    let (file, len) = open_sized(path)?;
    let heads = Walk::new(&file, len)?.whole()?;
    let meta = heads.iter().find(|h| h.name == META_SECTION);
    let meta = meta.ok_or_else(|| bad("store has no partitions.meta section"))?;
    let meta = parse_meta(&read_payload(&file, meta)?.bytes)?;
    Ok(StoreExtents { n_events: meta.n_events, n_mentions: meta.n_mentions, extents: meta.extents })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DatasetBuilder;
    use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
    use gdelt_model::event::{ActionGeo, EventRecord, GeoType};
    use gdelt_model::ids::EventId;
    use gdelt_model::mention::{MentionRecord, MentionType};
    use gdelt_model::time::{DateTime, GDELT_EPOCH};

    fn sample_dataset() -> Dataset {
        let mut b = DatasetBuilder::new();
        for id in 1..=20u64 {
            b.add_event(EventRecord {
                id: EventId(id),
                day: GDELT_EPOCH,
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
                date_added: DateTime::new(GDELT_EPOCH, (id % 24) as u8, 0, 0).unwrap(),
                source_url: format!("https://site{id}.com/a"),
            });
            for k in 0..(id % 3 + 1) {
                b.add_mention(MentionRecord {
                    event_id: EventId(id),
                    event_time: DateTime::new(GDELT_EPOCH, (id % 24) as u8, 0, 0).unwrap(),
                    mention_time: DateTime::new(
                        GDELT_EPOCH.add_days(1),
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
        let (d, _) = b.build();
        d
    }

    #[test]
    fn round_trip_preserves_everything() {
        let d = sample_dataset();
        let mut buf = Vec::new();
        write_dataset(&mut buf, &d).unwrap();
        let d2 = read_dataset(&buf).unwrap();
        assert_eq!(d.events, d2.events);
        assert_eq!(d.mentions, d2.mentions);
        assert_eq!(d.event_index, d2.event_index);
        assert_eq!(d.sources.country, d2.sources.country);
        assert_eq!(d.sources.names.pool(), d2.sources.names.pool());
        // Rebuilt hash index must answer lookups.
        assert!(d2.sources.lookup("pub0.co.uk").is_some());
    }

    #[test]
    fn empty_dataset_round_trips() {
        let d = Dataset::default();
        let mut buf = Vec::new();
        write_dataset(&mut buf, &d).unwrap();
        let d2 = read_dataset(&buf).unwrap();
        assert!(d2.events.is_empty());
        assert!(d2.mentions.is_empty());
    }

    #[test]
    fn rejects_bad_magic() {
        let d = Dataset::default();
        let mut buf = Vec::new();
        write_dataset(&mut buf, &d).unwrap();
        buf[0] ^= 0xFF;
        let err = read_dataset(&buf).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn rejects_corrupted_payload() {
        let d = sample_dataset();
        let mut buf = Vec::new();
        write_dataset(&mut buf, &d).unwrap();
        // Flip a byte deep inside the payload region.
        let target = buf.len() - 9;
        buf[target] ^= 0x55;
        let err = read_dataset(&buf).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("checksum") || msg.contains("invalid") || msg.contains("must"),
            "unexpected error: {msg}"
        );
    }

    #[test]
    fn rejects_truncated_stream() {
        let d = sample_dataset();
        let mut buf = Vec::new();
        write_dataset(&mut buf, &d).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_dataset(&buf).is_err());
    }

    #[test]
    fn save_and_load_file() {
        let d = sample_dataset();
        let dir = std::env::temp_dir().join("gdelt_binfmt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.gdhpc");
        save(&path, &d).unwrap();
        let d2 = load(&path).unwrap();
        assert_eq!(d.mentions.len(), d2.mentions.len());
        assert_eq!(d.events.len(), d2.events.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn decode_rejects_ragged_section() {
        let err = into_column::<u32>(AlignedBuf::from(&[1u8, 2, 3][..]), "x").unwrap_err();
        assert!(err.to_string().contains("section x length"), "{err}");
        let col = into_column::<u32>(AlignedBuf::from(&[1u8, 0, 0, 0][..]), "x").unwrap();
        assert_eq!(col.as_slice(), &[1]);
        let col = into_column::<u16>(AlignedBuf::from(&[1u8, 0, 2, 1][..]), "x").unwrap();
        assert_eq!(col.as_slice(), &[1, 258]);
        let col = into_column::<u64>(AlignedBuf::new(), "x").unwrap();
        assert!(col.is_empty());
    }

    #[test]
    fn extents_cover_all_rows_disjointly() {
        let d = sample_dataset();
        let exts = partition_extents(d.events.len(), d.mentions.len(), &d.event_index.offsets, 8);
        assert_eq!(exts.len(), 8);
        assert_eq!(exts[0].ev_begin, 0);
        assert_eq!(exts.last().unwrap().ev_end, d.events.len() as u64);
        assert_eq!(exts.last().unwrap().m_end, d.mentions.len() as u64);
        for w in exts.windows(2) {
            assert_eq!(w[0].ev_end, w[1].ev_begin);
            assert_eq!(w[0].m_end, w[1].m_begin);
        }
    }

    #[test]
    fn extents_of_empty_dataset() {
        let exts = partition_extents(0, 0, &[], 8);
        assert_eq!(exts.len(), 8);
        assert!(exts.iter().all(|e| e.ev_begin == e.ev_end && e.m_begin == e.m_end));
    }

    #[test]
    fn meta_section_round_trips() {
        let d = sample_dataset();
        let mut buf = Vec::new();
        write_dataset_with_partitions(&mut buf, &d, 4).unwrap();
        let src = buf.as_slice();
        let s = Sections::read(&src, buf.len() as u64, false, ColumnSet::ALL, &byte_groups);
        let mut s = s.unwrap();
        let meta = parse_meta(&s.take(META_SECTION).unwrap()).unwrap();
        assert_eq!(meta.n_events, d.events.len() as u64);
        assert_eq!(meta.n_mentions, d.mentions.len() as u64);
        assert_eq!(meta.extents.len(), 4);
        // Every non-global section has a digest row; globals have none.
        let named: Vec<&str> = meta.digests.iter().map(|(n, _)| n.as_str()).collect();
        assert!(named.contains(&"events.id"));
        assert!(named.contains(&"mentions.doc_tone"));
        assert!(named.contains(&"index.offsets"));
        assert!(!named.contains(&"sources.country"));
        // Digests recompute: events.day partition 1 slice hashes equal.
        let (_, url_offsets) = d.events.urls.raw_parts();
        let day = encode(&d.events.day);
        let ext = meta.extents[1];
        let slice = ext.slice(section_space("events.day"), &day, url_offsets).unwrap();
        let row = &meta.digests.iter().find(|(n, _)| n == "events.day").unwrap().1;
        assert_eq!(row[1], checksum64(slice));
    }

    #[test]
    fn scan_layout_matches_written_sections() {
        let d = sample_dataset();
        let dir = std::env::temp_dir().join("gdelt_binfmt_layout_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("layout.gdhpc");
        save(&path, &d).unwrap();
        let layout = scan_layout(&path).unwrap();
        assert_eq!(layout.len(), 26, "25 data sections + partitions.meta");
        assert_eq!(layout[0].name, META_SECTION);
        // Each payload is where the layout says: re-read one and check
        // its checksummed bytes hash to the recorded section checksum.
        let bytes = std::fs::read(&path).unwrap();
        for sec in &layout {
            let b = sec.payload_offset as usize;
            let e = b + sec.payload_len as usize;
            assert!(e <= bytes.len(), "{} runs past EOF", sec.name);
            // checksum field sits 8 bytes before the payload
            let ck = u64::from_le_bytes(bytes[b - 8..b].try_into().unwrap());
            assert_eq!(checksum64(&bytes[b..e]), ck, "layout misaligned for {}", sec.name);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn store_extents_readable_without_loading() {
        let d = sample_dataset();
        let dir = std::env::temp_dir().join("gdelt_binfmt_extents_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("extents.gdhpc");
        save_with_partitions(&path, &d, 5).unwrap();
        let se = read_store_extents(&path).unwrap();
        assert_eq!(se.n_events, d.events.len() as u64);
        assert_eq!(se.extents.len(), 5);
        std::fs::remove_file(&path).ok();
    }

    /// A saved sample store in this module's bounds-test directory.
    fn saved_sample(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("gdelt_binfmt_bounds_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        save(&path, &sample_dataset()).unwrap();
        path
    }

    #[test]
    fn declared_lengths_are_bounded_by_the_file() {
        // A huge length once drove `vec![0u8; len]`; one above i64::MAX
        // wrapped `seek(Current(len as i64))` negative.
        for (name, len) in [("huge.gdhpc", 1u64 << 62), ("wrapped.gdhpc", u64::MAX - 7)] {
            let path = saved_sample(name);
            // The first section's (`partitions.meta`) payload-length field.
            let len_at = 12 + 2 + META_SECTION.len();
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
            std::fs::write(&path, bytes).unwrap();
            for err in [
                scan_layout(&path).unwrap_err(),
                read_store_extents(&path).unwrap_err(),
                load(&path).unwrap_err(),
            ] {
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}: {err}");
                assert!(err.to_string().contains("truncated"), "{name}: {err}");
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn scan_layout_refuses_a_truncated_tail() {
        let path = saved_sample("cut.gdhpc");
        let whole = std::fs::read(&path).unwrap();
        let last = scan_layout(&path).unwrap().pop().unwrap();
        // Seeking past EOF "succeeds", so a cut payload used to scan clean.
        std::fs::write(&path, &whole[..whole.len() - 1]).unwrap();
        assert_eq!(scan_layout(&path).unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(load(&path).unwrap_err().kind(), io::ErrorKind::InvalidData);
        // A cut inside the last header is corruption, not an early end
        // of file a retry could cure.
        std::fs::write(&path, &whole[..last.payload_offset as usize - 3]).unwrap();
        assert_eq!(scan_layout(&path).unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert!(load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_save_keeps_the_store_it_was_replacing() {
        let d = sample_dataset();
        let dir = std::env::temp_dir().join("gdelt_binfmt_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.gdhpc");
        save(&path, &d).unwrap();
        // A writer that dies mid-stream, after real bytes went out.
        let err = replace_file(&path, |w| {
            w.write_all(MAGIC)?;
            w.write_all(&[0xAB; 100_000])?;
            Err(io::Error::other("disk full"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(load(&path).unwrap().events, d.events, "the original must survive");
        let left: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(left, ["live.gdhpc"], "no .tmp may be left behind");
        // A successful save replaces it and cleans up the same way.
        save(&path, &Dataset::default()).unwrap();
        assert!(load(&path).unwrap().events.is_empty());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn projected_dataset_is_refused_by_every_writer() {
        let path = saved_sample("projected.gdhpc");
        let projected = sample_dataset().project(&ColumnSet::of(&[Column::EventsQuarter]));
        let mut buf = Vec::new();
        for err in [
            write_dataset(&mut buf, &projected).unwrap_err(),
            write_dataset_with_partitions(&mut buf, &projected, 3).unwrap_err(),
            save(&path, &projected).unwrap_err(),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
            // The first column it does not hold, in store order.
            assert!(err.to_string().contains("does not hold events.day"), "{err}");
        }
        assert!(buf.is_empty(), "nothing is written");
        assert_eq!(load(&path).unwrap().events, sample_dataset().events, "the store survives");
        std::fs::remove_file(&path).ok();
    }

    /// Flip the byte in the middle of `section`'s payload.
    fn flip_in(bytes: &mut [u8], layout: &[SectionLayout], section: &str) {
        let s = layout.iter().find(|s| s.name == section).unwrap();
        bytes[(s.payload_offset + s.payload_len / 2) as usize] ^= 0x40;
    }

    #[test]
    fn projected_load_reads_and_checks_only_its_sections() {
        let path = saved_sample("partial.gdhpc");
        let layout = scan_layout(&path).unwrap();
        let whole = std::fs::read(&path).unwrap();
        let columns = ColumnSet::of(&[Column::EventsQuarter, Column::MentionsSource]);
        let want = load(&path).unwrap().project(&columns);
        let got = load_projected(&path, &columns).unwrap();
        assert_eq!(got.columns, columns.to_hold());
        assert_eq!((&got.events, &got.mentions), (&want.events, &want.mentions));
        assert_eq!(got.event_index, want.event_index);
        assert_eq!(
            load_projected(&path, &ColumnSet::ALL).unwrap().events,
            load(&path).unwrap().events
        );

        // Damage in a section it skips goes unseen; damage in one it reads
        // does not.
        let mut bytes = whole.clone();
        flip_in(&mut bytes, &layout, "events.urls.bytes");
        std::fs::write(&path, &bytes).unwrap();
        assert!(load(&path).unwrap_err().to_string().contains("checksum mismatch"));
        assert_eq!(load_projected(&path, &columns).unwrap().mentions, want.mentions);
        flip_in(&mut bytes, &layout, "mentions.source");
        std::fs::write(&path, &bytes).unwrap();
        let err = load_projected(&path, &columns).unwrap_err().to_string();
        assert!(err.contains("checksum mismatch in section mentions.source"), "{err}");

        // A skipped section still may not repeat or run past the file.
        let doc = layout.iter().find(|s| s.name == "mentions.doc_tone").unwrap();
        let header = doc.payload_offset as usize - (2 + doc.name.len() + 16);
        let mut repeated = whole.clone();
        repeated.extend_from_slice(&whole[header..(doc.payload_offset + doc.payload_len) as usize]);
        repeated[8..12].copy_from_slice(&(layout.len() as u32 + 1).to_le_bytes());
        std::fs::write(&path, &repeated).unwrap();
        let err = load_projected(&path, &columns).unwrap_err().to_string();
        assert!(err.contains("duplicate section mentions.doc_tone"), "{err}");
        let cut = (doc.payload_offset + doc.payload_len / 2) as usize;
        std::fs::write(&path, &whole[..cut]).unwrap();
        let err = load_projected(&path, &columns).unwrap_err().to_string();
        assert!(err.contains("section mentions.doc_tone truncated"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// How a test load groups its payload reads.
    #[derive(Debug, Clone, Copy)]
    enum Split {
        /// Every section in one group, on the caller.
        One,
        /// A group per section.
        PerSection,
        /// A group per section, the last section first.
        Reversed,
        /// The first half of the sections, then the rest.
        Halves,
        /// Each section dealt to one of `k` groups by a seeded generator.
        Random(u64, usize),
    }

    impl Split {
        fn groups(self, read: Vec<usize>) -> Vec<Vec<usize>> {
            match self {
                Split::One => vec![read],
                Split::PerSection => read.into_iter().map(|i| vec![i]).collect(),
                Split::Reversed => read.into_iter().rev().map(|i| vec![i]).collect(),
                Split::Halves => {
                    let mut read = read;
                    let rest = read.split_off(read.len() / 2);
                    vec![read, rest]
                }
                Split::Random(mut state, k) => {
                    let mut groups = vec![Vec::new(); k.max(1)];
                    for i in read {
                        // One splitmix64 step per section.
                        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                        let mut z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                        let at = (z ^ (z >> 31)) as usize % groups.len();
                        groups[at].push(i);
                    }
                    groups
                }
            }
        }
    }

    const SPLITS: [Split; 6] = [
        Split::PerSection,
        Split::Reversed,
        Split::Halves,
        Split::Random(1, 2),
        Split::Random(2, 3),
        Split::Random(3, 7),
    ];

    /// A strict load of `columns` from `src` under `split`, as
    /// [`load_projected_with_identity`] assembles it: the dataset's
    /// debug image and identity, or the error text.
    fn strict_load(src: &dyn ReadAt, limit: u64, columns: ColumnSet, split: Split) -> Loaded {
        let columns = columns.to_hold();
        let group = move |_: &[SectionLayout], read: Vec<usize>| split.groups(read);
        let loaded = Sections::read(src, limit, false, columns, &group).and_then(|s| {
            let identity = s.identity();
            let d = dataset_from_sections(s, columns)?;
            d.validate().map_err(bad)?;
            Ok(format!("{identity} {}", image(&d)))
        });
        loaded.map_err(|e| e.to_string())
    }

    /// A tolerant load of `src` under `split`: the dataset and the
    /// health (dirty set and quarantine included), or the error text.
    fn tolerant_load(src: &dyn ReadAt, limit: u64, split: Split) -> Loaded {
        let group = move |_: &[SectionLayout], read: Vec<usize>| split.groups(read);
        let loaded = crate::degraded::read_degraded(src, limit, &group);
        loaded.map(|l| format!("{:?} {}", l.health, image(&l.dataset))).map_err(|e| e.to_string())
    }

    /// Everything a dataset holds, in a stable text (the source lookup
    /// table is a `HashMap`, so its own `Debug` is not).
    fn image(d: &Dataset) -> String {
        let s = &d.sources;
        format!(
            "{:?}",
            (&d.events, &d.mentions, &d.event_index, &s.country, s.names.pool(), d.columns)
        )
    }

    type Loaded = Result<String, String>;

    /// The layout of a clean store image.
    fn layout_of(image: &[u8]) -> Vec<SectionLayout> {
        Walk::new(&image, image.len() as u64).unwrap().whole().unwrap()
    }

    /// Offset of the first byte of section `h`'s header.
    fn header_of(h: &SectionLayout) -> usize {
        h.payload_offset as usize - (2 + h.name.len() + 16)
    }

    /// A checksum flip in `events.id` (an early section) and a cut in
    /// the last section's payload.
    fn early_flip_and_cut_tail(clean: &[u8]) -> Vec<u8> {
        let layout = layout_of(clean);
        let last = layout.last().unwrap();
        let mut bytes = clean[..(last.payload_offset + last.payload_len / 2) as usize].to_vec();
        flip_in(&mut bytes, &layout, "events.id");
        bytes
    }

    /// A clean store image and its damaged copies: per section a flipped
    /// payload byte, a cut in the payload and a cut in the header; a
    /// repeated section; and an early flip with a cut tail.
    fn damaged_set() -> Vec<Vec<u8>> {
        let mut clean = Vec::new();
        write_dataset_with_partitions(&mut clean, &sample_dataset(), 4).unwrap();
        let layout = layout_of(&clean);
        let mut set = vec![clean.clone()];
        for h in &layout {
            let (begin, end) =
                (h.payload_offset as usize, (h.payload_offset + h.payload_len) as usize);
            if end > begin {
                let mut flipped = clean.clone();
                flipped[(begin + end) / 2] ^= 0x40;
                set.push(flipped);
            }
            set.push(clean[..(begin + end) / 2].to_vec());
            set.push(clean[..header_of(h) + 5].to_vec());
        }
        let doc = layout.iter().find(|h| h.name == "mentions.doc_tone").unwrap();
        let mut repeated = clean.clone();
        repeated.extend_from_slice(
            &clean[header_of(doc)..(doc.payload_offset + doc.payload_len) as usize],
        );
        repeated[8..12].copy_from_slice(&(layout.len() as u32 + 1).to_le_bytes());
        set.push(repeated);
        set.push(early_flip_and_cut_tail(&clean));
        set
    }

    /// Every load of every image of the damaged set under `splits` gives
    /// what the one-group load gives.
    fn assert_splits_agree(splits: &[Split]) {
        let projected = ColumnSet::of(&[Column::EventsQuarter, Column::MentionsSource]);
        for (k, image) in damaged_set().iter().enumerate() {
            let (src, limit) = (image.as_slice(), image.len() as u64);
            for columns in [ColumnSet::ALL, projected] {
                let want = strict_load(&src, limit, columns, Split::One);
                for &split in splits {
                    let got = strict_load(&src, limit, columns, split);
                    assert_eq!(got, want, "image {k}, {split:?}, {columns}");
                }
            }
            let want = tolerant_load(&src, limit, Split::One);
            for &split in splits {
                assert_eq!(tolerant_load(&src, limit, split), want, "image {k}, {split:?}");
            }
        }
    }

    #[test]
    fn every_grouping_loads_what_one_group_loads() {
        assert_splits_agree(&SPLITS);
        // The set holds clean loads, quarantines and refusals of both loaders.
        let set = damaged_set();
        let all = |f: &dyn Fn(&[u8]) -> Loaded| set.iter().map(|i| f(i)).collect::<Vec<_>>();
        let strict = all(&|i| strict_load(&i, i.len() as u64, ColumnSet::ALL, Split::One));
        let tolerant = all(&|i| tolerant_load(&i, i.len() as u64, Split::One));
        assert!(strict.iter().any(Result::is_ok) && strict.iter().any(Result::is_err));
        assert!(tolerant.iter().any(|l| l.as_ref().is_ok_and(|h| h.contains("quarantined: [1"))));
        assert!(tolerant.iter().any(Result::is_err));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        #[test]
        fn random_groupings_load_what_one_group_loads(seed in 0u64..u64::MAX, k in 1usize..9) {
            assert_splits_agree(&[Split::Random(seed, k)]);
        }
    }

    #[test]
    fn an_early_checksum_flip_beats_a_cut_tail_under_every_grouping() {
        let mut clean = Vec::new();
        write_dataset(&mut clean, &sample_dataset()).unwrap();
        let image = early_flip_and_cut_tail(&clean);
        let (src, limit) = (image.as_slice(), image.len() as u64);
        for split in [Split::One].into_iter().chain(SPLITS) {
            let err = strict_load(&src, limit, ColumnSet::ALL, split).unwrap_err();
            assert_eq!(err, "checksum mismatch in section events.id", "{split:?}");
        }
    }

    use std::sync::atomic::Ordering::Relaxed;

    /// One fault at absolute offset `pos`, applied by position only, as
    /// `gdelt_faults::FaultyRead` applies its schedule.
    struct Faulty<'a> {
        image: &'a [u8],
        fault: &'static str,
        pos: u64,
        delayed: std::sync::atomic::AtomicBool,
    }

    impl ReadAt for Faulty<'_> {
        fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
            let covers = |len: usize| (offset..offset + len as u64).contains(&self.pos);
            let mut want = buf.len();
            match self.fault {
                "truncate" => want = want.min(self.pos.saturating_sub(offset) as usize),
                "fail" if offset + want as u64 > self.pos => {
                    return Err(io::Error::other("injected transient read failure"))
                }
                "delay" if covers(want) && !self.delayed.swap(true, Relaxed) => {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                _ => {}
            }
            let n = self.image.read_at(&mut buf[..want], offset)?;
            if self.fault == "flip" && covers(n) {
                buf[(self.pos - offset) as usize] ^= 0x40;
            }
            Ok(n)
        }
    }

    #[test]
    fn positional_faults_give_one_health_under_one_group_and_two() {
        let mut clean = Vec::new();
        write_dataset_with_partitions(&mut clean, &sample_dataset(), 4).unwrap();
        let layout = layout_of(&clean);
        let mut seen = BTreeSet::new();
        for name in ["events.day", "events.urls.bytes", "mentions.source", "index.offsets"] {
            let h = layout.iter().find(|h| h.name == name).unwrap();
            let first = h.payload_offset;
            let last = h.payload_offset + h.payload_len - 1;
            let header = header_of(h) as u64 + 3;
            for pos in [first, last, header] {
                for fault in ["flip", "truncate", "fail", "delay"] {
                    let faulty = || Faulty { image: &clean, fault, pos, delayed: false.into() };
                    let limit = clean.len() as u64;
                    let one = tolerant_load(&faulty(), limit, Split::One);
                    let two = tolerant_load(&faulty(), limit, Split::Halves);
                    assert_eq!(two, one, "{fault} at {pos} ({name})");
                    seen.insert(match &one {
                        Ok(l) if l.contains("quarantined: []") => "clean",
                        Ok(_) => "quarantined",
                        Err(_) => "refused",
                    });
                }
            }
        }
        assert_eq!(seen.len(), 3, "{seen:?}");
    }

    #[test]
    fn url_bytes_partition_slices_tile_the_pool() {
        let d = sample_dataset();
        let (url_bytes, url_offsets) = d.events.urls.raw_parts();
        let exts = partition_extents(d.events.len(), d.mentions.len(), &d.event_index.offsets, 3);
        let mut rebuilt = Vec::new();
        for e in &exts {
            rebuilt.extend_from_slice(
                e.slice(SectionSpace::UrlBytes, url_bytes, url_offsets).unwrap(),
            );
        }
        assert_eq!(rebuilt, url_bytes, "url pool slices must tile exactly");
    }
}
