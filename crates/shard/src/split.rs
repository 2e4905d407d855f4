//! Store splitting: partition a single columnar store into N shard
//! stores by *contiguous partition range*, plus the manifest that
//! tells the router what each shard holds.
//!
//! Contiguity is what makes the scatter-gather algebra exact: shard
//! `i` takes source partitions `[i·P/N, (i+1)·P/N)`, so its events are
//! a contiguous slice of the global event table and the manifest can
//! record each shard's `ev_row_base` (first event's global row) —
//! which is all `partial::run_shard_query` needs to rebase top-event
//! rows. The split reuses `restrict_to_partitions`, which keeps the
//! full source directory on every shard (SourceIds stay globally
//! aligned) and never separates an event from its mentions.

use gdelt_columnar::binfmt::{read_store_extents, save_with_partitions};
use gdelt_columnar::degraded::restrict_to_partitions;
use gdelt_obs::json::{self, Value};
use std::io;
use std::path::{Path, PathBuf};

/// What one shard store holds, per the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Shard store file, relative to the manifest's directory.
    pub file: String,
    /// Source partitions this shard covers (its coverage weight).
    pub partitions: u32,
    /// Global event row of the shard's first event.
    pub ev_row_base: u64,
    /// Event rows in the shard store.
    pub events: u64,
    /// Mention rows in the shard store.
    pub mentions: u64,
}

/// A split's table of contents (`manifest.json` next to the shard
/// stores).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Partitions the source store was written with.
    pub source_partitions: u32,
    /// Per-shard entries, in shard-id order.
    pub shards: Vec<ShardEntry>,
}

impl ShardManifest {
    /// Hand-rolled JSON (no serde), one shard object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"source_partitions\": {},\n", self.source_partitions));
        out.push_str("  \"shards\": [\n");
        for (i, s) in self.shards.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"file\": \"{}\", \"partitions\": {}, \"ev_row_base\": {}, \"events\": {}, \"mentions\": {}}}{}\n",
                json::escape(&s.file),
                s.partitions,
                s.ev_row_base,
                s.events,
                s.mentions,
                if i + 1 < self.shards.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse a manifest with obs's JSON reader. Every count must be a
    /// whole number its field can hold exactly; anything else is
    /// `InvalidData`.
    pub fn from_json(text: &str) -> io::Result<ShardManifest> {
        let doc = json::parse(text).map_err(|e| bad_manifest(&e))?;
        let shards = doc
            .get("shards")
            .and_then(Value::as_arr)
            .ok_or_else(|| bad_manifest("missing shards array"))?
            .iter()
            .map(|s| {
                Ok(ShardEntry {
                    file: s
                        .get("file")
                        .and_then(Value::as_str)
                        .ok_or_else(|| bad_manifest("missing string file"))?
                        .to_string(),
                    partitions: count(s, "partitions")?,
                    ev_row_base: count(s, "ev_row_base")?,
                    events: count(s, "events")?,
                    mentions: count(s, "mentions")?,
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        if shards.is_empty() {
            return Err(bad_manifest("no shards"));
        }
        Ok(ShardManifest { source_partitions: count(&doc, "source_partitions")?, shards })
    }

    /// Load `dir/manifest.json`.
    pub fn load(dir: &Path) -> io::Result<ShardManifest> {
        ShardManifest::from_json(&std::fs::read_to_string(dir.join("manifest.json"))?)
    }

    /// Absolute path of shard `i`'s store under `dir`.
    pub fn shard_path(&self, dir: &Path, i: usize) -> PathBuf {
        dir.join(&self.shards[i].file)
    }

    /// Total partitions covered by the given live shard ids — the
    /// numerator of the router's `Coverage`.
    pub fn coverage_of(&self, live: &[usize]) -> u32 {
        live.iter().filter_map(|&i| self.shards.get(i)).map(|s| s.partitions).sum()
    }
}

fn bad_manifest(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("shard manifest: {what}"))
}

/// Field `key` of `obj` as a whole number that `T` holds exactly.
/// JSON numbers arrive as `f64`, so anything from 2^53 up is refused
/// too: it may already have been rounded.
fn count<T: TryFrom<u64>>(obj: &Value, key: &str) -> io::Result<T> {
    const EXACT: f64 = (1u64 << 53) as f64;
    let n = obj.get(key).and_then(Value::as_num);
    n.filter(|n| n.fract() == 0.0 && (0.0..EXACT).contains(n))
        .and_then(|n| T::try_from(n as u64).ok())
        .ok_or_else(|| bad_manifest(&format!("{key} is not a count that fits its field")))
}

/// Contiguous partition range `[lo, hi)` for shard `i` of `n` over `p`
/// partitions — the same balanced split the tests and chaos arm use.
pub fn shard_range(p: u32, n: u32, i: u32) -> (u32, u32) {
    (i * p / n, (i + 1) * p / n)
}

/// Split the store at `src` into `n_shards` shard stores under
/// `out_dir`, writing `manifest.json` alongside. Returns the manifest.
///
/// Fails if `n_shards` is zero or exceeds the source's partition
/// count (a shard with zero partitions would contribute nothing but
/// still cost a connection).
pub fn split_store(src: &Path, out_dir: &Path, n_shards: u32) -> io::Result<ShardManifest> {
    let extents = read_store_extents(src)?;
    let n_parts = extents.extents.len() as u32;
    if n_shards == 0 || n_shards > n_parts {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("cannot split {n_parts} partitions into {n_shards} shards"),
        ));
    }
    let d = gdelt_columnar::binfmt::load(src)?;
    std::fs::create_dir_all(out_dir)?;
    let mut shards = Vec::with_capacity(n_shards as usize);
    let mut ev_row_base = 0u64;
    for i in 0..n_shards {
        let (lo, hi) = shard_range(n_parts, n_shards, i);
        let quarantined: Vec<u32> = (0..n_parts).filter(|p| *p < lo || *p >= hi).collect();
        let shard_d = restrict_to_partitions(&d, n_parts, &quarantined)?;
        let file = format!("shard-{i:03}.gdhpc");
        save_with_partitions(&out_dir.join(&file), &shard_d, hi - lo)?;
        shards.push(ShardEntry {
            file,
            partitions: hi - lo,
            ev_row_base,
            events: shard_d.events.len() as u64,
            mentions: shard_d.mentions.len() as u64,
        });
        ev_row_base += shard_d.events.len() as u64;
    }
    let manifest = ShardManifest { source_partitions: n_parts, shards };
    std::fs::write(out_dir.join("manifest.json"), manifest.to_json())?;
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_json_round_trips() {
        let m = ShardManifest {
            source_partitions: 8,
            shards: vec![
                ShardEntry {
                    file: "shard-000.gdhpc".into(),
                    partitions: 4,
                    ev_row_base: 0,
                    events: 100,
                    mentions: 900,
                },
                ShardEntry {
                    file: "shard-001.gdhpc".into(),
                    partitions: 4,
                    ev_row_base: 100,
                    events: 80,
                    mentions: 700,
                },
            ],
        };
        assert_eq!(ShardManifest::from_json(&m.to_json()).unwrap(), m);
        assert_eq!(m.coverage_of(&[0]), 4);
        assert_eq!(m.coverage_of(&[0, 1]), 8);
    }

    #[test]
    fn shard_ranges_tile_the_partition_space() {
        for p in [8u32, 12, 16] {
            for n in [1u32, 2, 3, 4, 8] {
                let mut next = 0;
                for i in 0..n {
                    let (lo, hi) = shard_range(p, n, i);
                    assert_eq!(lo, next, "p={p} n={n} i={i}");
                    assert!(hi > lo || p < n);
                    next = hi;
                }
                assert_eq!(next, p);
            }
        }
    }

    #[test]
    fn malformed_manifests_are_rejected() {
        assert!(ShardManifest::from_json("{}").is_err());
        assert!(ShardManifest::from_json("{\"source_partitions\": 8, \"shards\": []}").is_err());
        assert!(ShardManifest::from_json("not json at all").is_err());
    }

    fn one_shard(partitions: &str) -> String {
        format!(
            "{{\"source_partitions\": 8, \"shards\": [{{\"file\": \"s\", \"partitions\": {partitions}, \"ev_row_base\": 0, \"events\": 1, \"mentions\": 1}}]}}"
        )
    }

    #[test]
    fn counts_that_do_not_fit_their_field_are_refused() {
        assert_eq!(ShardManifest::from_json(&one_shard("4")).unwrap().shards[0].partitions, 4);
        for bad in ["4294967297", "-1", "2.5", "1e300", "\"4\""] {
            let err = ShardManifest::from_json(&one_shard(bad)).expect_err(bad);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad}");
        }
        let huge = one_shard("1").replace("\"events\": 1", "\"events\": 9007199254740993");
        assert!(ShardManifest::from_json(&huge).is_err(), "above 2^53 may have been rounded");
    }

    #[test]
    fn file_names_with_json_syntax_round_trip() {
        let m = ShardManifest {
            source_partitions: 2,
            shards: ["a{b}.gdhpc", "q\"uo\\te,}{.gdhpc"]
                .iter()
                .enumerate()
                .map(|(i, f)| ShardEntry {
                    file: f.to_string(),
                    partitions: 1,
                    ev_row_base: i as u64,
                    events: 1,
                    mentions: 2,
                })
                .collect(),
        };
        assert_eq!(ShardManifest::from_json(&m.to_json()).unwrap(), m);
    }
}
