//! Strongly-typed, compact identifiers.
//!
//! The engine's speed comes from never touching strings on the hot path:
//! every URL, source name and country is dictionary-encoded once at table
//! build time, and all queries operate on these integer ids. The newtypes
//! below prevent mixing id spaces accidentally (an easy bug with bare
//! `u32`s) at zero runtime cost.

use crate::error::{ModelError, Result};

/// GDELT `GlobalEventID`. Assigned by GDELT, globally unique, monotonically
/// increasing over time. Kept at 64 bits because the real database has
/// crossed one billion mentions and event ids grow without bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventId(pub u64);

/// Dictionary-encoded index of a news source (publisher website).
///
/// GDELT tracks ~21 000 sources; `u32` leaves ample headroom while keeping
/// the dense co-reporting matrix small (the paper stores the full 21 k ×
/// 21 k matrix in ~1.8 GB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SourceId(pub u32);

/// Row index of a mention inside a columnar mentions table.
///
/// `u64` because the paper's corpus exceeds one billion articles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MentionId(pub u64);

/// Dictionary-encoded index into the [`CountryRegistry`](crate::country::CountryRegistry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CountryId(pub u16);

impl EventId {
    /// Raw id value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl SourceId {
    /// Construct from a usize index, failing on overflow rather than
    /// silently truncating.
    #[inline]
    pub fn from_index(idx: usize) -> Result<Self> {
        u32::try_from(idx)
            .map(SourceId)
            .map_err(|_| ModelError::IdOverflow { kind: "source", value: idx as u64 })
    }

    /// Index into dense per-source arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl MentionId {
    /// Index into dense per-mention arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl CountryId {
    /// Sentinel for "no country assigned" (unknown TLD / missing geotag).
    pub const UNKNOWN: CountryId = CountryId(u16::MAX);

    /// Construct from a usize index, failing on overflow.
    #[inline]
    pub fn from_index(idx: usize) -> Result<Self> {
        if idx >= u16::MAX as usize {
            return Err(ModelError::IdOverflow { kind: "country", value: idx as u64 });
        }
        Ok(CountryId(idx as u16))
    }

    /// Index into dense per-country arrays. Panics on the sentinel.
    #[inline]
    pub fn index(self) -> usize {
        debug_assert_ne!(self, CountryId::UNKNOWN, "indexing with unknown country");
        self.0 as usize
    }

    /// True if this is the "no country" sentinel.
    #[inline]
    pub fn is_unknown(self) -> bool {
        self == CountryId::UNKNOWN
    }
}

/// Checked narrowing of a row index to the `u32` used by the columnar
/// event-row columns.
///
/// The full GDELT corpus holds 325M events — comfortably inside `u32` —
/// but a bare `value as u32` would wrap silently if that ever changed.
/// This aborts with a precise message instead; `cargo xtask analyze`'s
/// `id_cast` rule points offenders here.
#[inline]
#[track_caller]
pub fn row_u32(idx: usize) -> u32 {
    match u32::try_from(idx) {
        Ok(v) => v,
        Err(_) => panic!("row index {idx} exceeds u32 (corrupt store or >4.2B rows)"),
    }
}

/// Checked narrowing of an arbitrary `u64` counter to `u32`, for the
/// same id spaces as [`row_u32`].
#[inline]
#[track_caller]
pub fn id_u32(value: u64) -> u32 {
    match u32::try_from(value) {
        Ok(v) => v,
        Err(_) => panic!("id value {value} exceeds u32"),
    }
}

impl std::fmt::Display for EventId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "E{}", self.0)
    }
}

impl std::fmt::Display for SourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_id_round_trips_index() {
        let id = SourceId::from_index(20996).unwrap();
        assert_eq!(id.index(), 20996);
    }

    #[test]
    fn source_id_overflow_is_error() {
        assert!(SourceId::from_index(u32::MAX as usize + 1).is_err());
    }

    #[test]
    fn country_id_overflow_is_error() {
        assert!(CountryId::from_index(usize::from(u16::MAX)).is_err());
        assert!(CountryId::from_index(usize::from(u16::MAX) - 1).is_ok());
    }

    #[test]
    fn country_sentinel() {
        assert!(CountryId::UNKNOWN.is_unknown());
        assert!(!CountryId(0).is_unknown());
    }

    #[test]
    fn ids_order_by_value() {
        assert!(EventId(1) < EventId(2));
        assert!(SourceId(1) < SourceId(2));
        assert!(MentionId(1) < MentionId(2));
    }

    #[test]
    fn display_forms() {
        assert_eq!(EventId(42).to_string(), "E42");
        assert_eq!(SourceId(7).to_string(), "S7");
    }
}
