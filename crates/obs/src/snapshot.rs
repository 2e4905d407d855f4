//! Registry snapshots: owned, mergeable, JSON-serializable copies of
//! a [`Registry`](crate::Registry) — the unit of cross-process
//! metrics federation in the shard tier.
//!
//! A worker answers a `MetricsRequest` wire frame with
//! `Registry::snapshot().to_json()`; the router parses each shard's
//! reply back with [`RegistrySnapshot::from_json`] and folds them
//! together with [`RegistrySnapshot::merge`]. Merge is bucket-wise
//! addition on histograms and plain addition on counters/gauges, so
//! it inherits the associativity/commutativity the histogram
//! proptests pin: scraping shards in any order, or merging partial
//! federations, yields the same federated view.
//!
//! # Why integers travel as JSON strings
//!
//! The workspace JSON layer (like every f64-backed parser) cannot
//! represent integers above 2^53 exactly. Histogram sums and counter
//! values are u64, and the snapshot round-trip must be *bit*-exact —
//! a federated count that is off by one ulp would break the
//! `federated == Σ shards` acceptance invariant. So every integer
//! field is serialized as a decimal string (`"count":"18446744..."`)
//! and parsed back with `str::parse`, which is lossless for the full
//! u64/i64 range.

use crate::json::{self, Value};
use crate::metrics::{HistogramSnapshot, NUM_BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Point-in-time copy of a registry: every counter, gauge, and
/// histogram by name. Sorted maps so serialization is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Counter values by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by metric name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by metric name.
    pub hists: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Fold another snapshot in: counters and gauges add, histograms
    /// merge bucket-wise. Associative and commutative (pinned by the
    /// snapshot proptests), so federation order never matters.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (name, v) in &other.counters {
            let slot = self.counters.entry(name.clone()).or_insert(0);
            *slot = slot.wrapping_add(*v);
        }
        for (name, v) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(0);
            *slot = slot.wrapping_add(*v);
        }
        for (name, h) in &other.hists {
            self.hists.entry(name.clone()).or_insert_with(HistogramSnapshot::empty).merge(h);
        }
    }

    /// Serialize for the wire. Histogram buckets are sparse (only
    /// non-zero indices) keyed by bucket index; all integers are
    /// decimal strings (see module docs).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{v}\"", json::escape(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{v}\"", json::escape(name));
        }
        out.push_str("},\"hists\":{");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"sum\":\"{}\",\"count\":\"{}\",\"buckets\":{{",
                json::escape(name),
                h.sum,
                h.count
            );
            let mut first = true;
            for (idx, &c) in h.counts().iter().enumerate() {
                if c != 0 {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(out, "\"{idx}\":\"{c}\"");
                }
            }
            out.push_str("}}");
        }
        out.push_str("}}");
        out
    }

    /// Parse a document produced by [`RegistrySnapshot::to_json`].
    /// Strict: unknown shapes, out-of-range bucket indices, and
    /// non-integer strings are typed errors, never silent zeros.
    pub fn from_json(text: &str) -> Result<RegistrySnapshot, String> {
        let doc = json::parse(text)?;
        let mut snap = RegistrySnapshot::default();
        for (name, v) in obj_fields(&doc, "counters")? {
            snap.counters.insert(name.clone(), str_u64(v, name)?);
        }
        for (name, v) in obj_fields(&doc, "gauges")? {
            let s = v.as_str().ok_or_else(|| format!("gauge {name:?}: expected string"))?;
            let n = s.parse::<i64>().map_err(|e| format!("gauge {name:?}: {e}"))?;
            snap.gauges.insert(name.clone(), n);
        }
        for (name, v) in obj_fields(&doc, "hists")? {
            let sum =
                str_u64(v.get("sum").ok_or_else(|| format!("hist {name:?}: missing sum"))?, name)?;
            let count = str_u64(
                v.get("count").ok_or_else(|| format!("hist {name:?}: missing count"))?,
                name,
            )?;
            let mut counts = vec![0u64; NUM_BUCKETS];
            let buckets = match v.get("buckets") {
                Some(Value::Obj(fields)) => fields,
                _ => return Err(format!("hist {name:?}: missing buckets object")),
            };
            for (idx_str, c) in buckets {
                let idx = idx_str
                    .parse::<usize>()
                    .map_err(|e| format!("hist {name:?}: bucket index {idx_str:?}: {e}"))?;
                if idx >= NUM_BUCKETS {
                    return Err(format!("hist {name:?}: bucket index {idx} out of range"));
                }
                counts[idx] = str_u64(c, name)?;
            }
            snap.hists.insert(name.clone(), HistogramSnapshot::from_raw(counts, sum, count));
        }
        Ok(snap)
    }
}

fn obj_fields<'a>(doc: &'a Value, key: &str) -> Result<&'a [(String, Value)], String> {
    match doc.get(key) {
        Some(Value::Obj(fields)) => Ok(fields),
        _ => Err(format!("snapshot: missing {key:?} object")),
    }
}

fn str_u64(v: &Value, ctx: &str) -> Result<u64, String> {
    let s = v.as_str().ok_or_else(|| format!("{ctx:?}: expected string-encoded integer"))?;
    s.parse::<u64>().map_err(|e| format!("{ctx:?}: {e}"))
}

/// Render a federated Prometheus exposition from labeled snapshot
/// parts (e.g. `("router", …), ("0", …), ("1", …)`).
///
/// Every metric family appears twice: once **unlabeled** with the
/// merged (federated) value across all parts, and once per
/// contributing part with a `shard="<label>"` label. Because the
/// federated series is computed with [`RegistrySnapshot::merge`],
/// its counts equal the sum of the per-shard counts by construction —
/// the CLI `--check` mode asserts this end to end. Round-trips
/// through [`crate::validate_prometheus`].
pub fn render_federated(parts: &[(String, RegistrySnapshot)]) -> String {
    let mut fed = RegistrySnapshot::default();
    for (_, part) in parts {
        fed.merge(part);
    }
    let mut out = String::new();
    for (name, v) in &fed.counters {
        let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        for (label, part) in parts {
            if let Some(pv) = part.counters.get(name) {
                let _ = writeln!(out, "{name}{{shard=\"{label}\"}} {pv}");
            }
        }
    }
    for (name, v) in &fed.gauges {
        let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        for (label, part) in parts {
            if let Some(pv) = part.gauges.get(name) {
                let _ = writeln!(out, "{name}{{shard=\"{label}\"}} {pv}");
            }
        }
    }
    for (name, h) in &fed.hists {
        let _ = writeln!(out, "# TYPE {name} histogram");
        render_hist(&mut out, name, h, None);
        for (label, part) in parts {
            if let Some(ph) = part.hists.get(name) {
                render_hist(&mut out, name, ph, Some(label));
            }
        }
    }
    out
}

fn render_hist(out: &mut String, name: &str, h: &HistogramSnapshot, shard: Option<&str>) {
    let shard_prefix = |le: &str| match shard {
        Some(s) => format!("{{shard=\"{s}\",le=\"{le}\"}}"),
        None => format!("{{le=\"{le}\"}}"),
    };
    let plain = match shard {
        Some(s) => format!("{{shard=\"{s}\"}}"),
        None => String::new(),
    };
    for (le, cum) in h.cumulative() {
        let _ = writeln!(out, "{name}_bucket{} {cum}", shard_prefix(&le.to_string()));
    }
    let _ = writeln!(out, "{name}_bucket{} {}", shard_prefix("+Inf"), h.count);
    let _ = writeln!(out, "{name}_sum{plain} {}", h.sum);
    let _ = writeln!(out, "{name}_count{plain} {}", h.count);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Histogram, Registry};

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("reqs_total").add(7);
        r.gauge("depth").set(-3);
        let h = r.histogram("lat_us");
        h.record(3);
        h.record(500);
        h.record(1 << 40);
        r
    }

    #[test]
    fn snapshot_json_round_trips_bit_identically() {
        let snap = sample_registry().snapshot();
        let back = RegistrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = RegistrySnapshot::default();
        let back = RegistrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(snap.to_json(), "{\"counters\":{},\"gauges\":{},\"hists\":{}}");
    }

    #[test]
    fn u64_values_beyond_f64_precision_survive() {
        let mut snap = RegistrySnapshot::default();
        snap.counters.insert("big".into(), u64::MAX);
        snap.counters.insert("odd".into(), (1u64 << 53) + 1);
        snap.gauges.insert("low".into(), i64::MIN);
        let h = Histogram::new();
        h.record(u64::MAX);
        snap.hists.insert("h".into(), h.snapshot());
        let back = RegistrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap, "u64/i64 extremes must not pass through f64");
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let a = sample_registry().snapshot();
        let mut b = sample_registry().snapshot();
        b.merge(&a);
        assert_eq!(b.counters["reqs_total"], 14);
        assert_eq!(b.gauges["depth"], -6);
        assert_eq!(b.hists["lat_us"].count, 6);
        assert_eq!(b.hists["lat_us"].sum, 2 * a.hists["lat_us"].sum);
    }

    #[test]
    fn malformed_snapshots_are_typed_errors() {
        for bad in [
            "{}",
            "{\"counters\":{},\"gauges\":{}}",
            "{\"counters\":{\"c\":12},\"gauges\":{},\"hists\":{}}",
            "{\"counters\":{\"c\":\"x\"},\"gauges\":{},\"hists\":{}}",
            "{\"counters\":{},\"gauges\":{},\"hists\":{\"h\":{\"sum\":\"1\",\"count\":\"1\",\"buckets\":{\"99999\":\"1\"}}}}",
        ] {
            assert!(RegistrySnapshot::from_json(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn federated_rendering_validates_and_sums() {
        let a = sample_registry().snapshot();
        let b = sample_registry().snapshot();
        let parts = vec![("0".to_string(), a), ("1".to_string(), b)];
        let text = render_federated(&parts);
        crate::validate_prometheus(&text).expect("federated exposition must validate");
        assert!(text.contains("reqs_total 14\n"), "{text}");
        assert!(text.contains("reqs_total{shard=\"0\"} 7\n"), "{text}");
        assert!(text.contains("reqs_total{shard=\"1\"} 7\n"), "{text}");
        assert!(text.contains("lat_us_count 6\n"), "{text}");
        assert!(text.contains("lat_us_count{shard=\"0\"} 3\n"), "{text}");
        assert!(text.contains("lat_us_bucket{shard=\"1\",le=\"+Inf\"} 3\n"), "{text}");
    }
}
