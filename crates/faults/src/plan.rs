//! Seeded fault schedules aimed at a concrete store file.

use std::io;
use std::path::Path;
use std::time::Duration;

use gdelt_columnar::binfmt::{
    read_store_extents, scan_layout, section_space, ReadAt, ReadShim, SectionSpace,
};

use crate::rng::{seeded_picks, SplitMix64};
use crate::shim::FaultyRead;

/// Sentinel for [`ScheduledFault::until_attempt`]: the fault applies on
/// every load attempt (persistent corruption rather than a transient
/// failure).
pub const ALWAYS: u32 = u32::MAX;

/// One injectable fault, positioned by absolute file offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// XOR the byte at `pos` as it is read.
    FlipByte {
        /// Absolute file offset of the byte.
        pos: u64,
        /// Nonzero XOR mask.
        xor: u8,
    },
    /// End the source at `pos`, simulating a torn write.
    TruncateAt {
        /// Absolute file offset where the stream ends.
        pos: u64,
    },
    /// Fail (retryably) every read that would reach past `pos`.
    FailRead {
        /// Absolute file offset the failing read crosses.
        pos: u64,
    },
    /// Sleep `ms` milliseconds before the first read covering `pos`.
    DelayRead {
        /// Absolute file offset the delayed read crosses.
        pos: u64,
        /// Sleep duration in milliseconds.
        ms: u64,
    },
}

/// A [`Fault`] plus the attempts it applies to: active while
/// `attempt < until_attempt`, so `until_attempt: 2` means the fault
/// fires on attempts 0 and 1 and clears on the second retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledFault {
    /// The fault itself.
    pub fault: Fault,
    /// First attempt number on which the fault no longer applies;
    /// [`ALWAYS`] for persistent faults.
    pub until_attempt: u32,
}

/// Knobs for [`FaultPlan::seeded`]: how much of each fault class the
/// schedule should contain. All positions within those classes are
/// drawn from the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSpec {
    /// Number of distinct partitions to hit with a byte flip.
    pub corrupt_partitions: u32,
    /// Number of attempts a transient `FailRead` survives before
    /// clearing (0 = no transient failures).
    pub transient_failures: u32,
    /// Also truncate the file inside its final section.
    pub truncate_tail: bool,
    /// If nonzero, delay the first payload read by this many ms.
    pub delay_ms: u64,
}

impl Default for PlanSpec {
    fn default() -> Self {
        PlanSpec { corrupt_partitions: 1, transient_failures: 0, truncate_tail: false, delay_ms: 0 }
    }
}

/// A complete, reproducible fault schedule for one store file.
///
/// Implements [`ReadShim`], so it plugs straight into
/// [`gdelt_columnar::load_degraded_with`]; the `attempt` number the
/// loader passes on each retry is matched against each fault's
/// `until_attempt` window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed the schedule was derived from.
    pub seed: u64,
    /// The scheduled faults.
    pub faults: Vec<ScheduledFault>,
    /// Partitions the byte flips were aimed at (ascending). Advisory:
    /// the loader's quarantine may be a superset (e.g. a flip landing
    /// on a shared boundary offset quarantines both neighbours).
    pub corrupted_partitions: Vec<u32>,
}

impl FaultPlan {
    /// An empty schedule (identity shim) — the "clean run" control arm.
    pub fn clean(seed: u64) -> Self {
        FaultPlan { seed, faults: Vec::new(), corrupted_partitions: Vec::new() }
    }

    /// Derive a schedule from `seed` against the store at `path`.
    ///
    /// Byte flips are aimed at fixed-width event/mention column
    /// sections only, inside the byte range owned by a seeded choice of
    /// partition, so each flip deterministically quarantines the
    /// partition it targets (and only that one). The section layout is
    /// read from the file itself; the same seed against the same store
    /// bytes always yields the same schedule.
    pub fn seeded(path: &Path, seed: u64, spec: &PlanSpec) -> io::Result<FaultPlan> {
        let layout = scan_layout(path)?;
        let store = read_store_extents(path)?;
        let mut rng = SplitMix64::new(seed);
        let mut faults = Vec::new();

        // Fixed-width column sections: a flip anywhere in a partition's
        // slice of these dirties exactly that partition's digest.
        let targets: Vec<_> = layout
            .iter()
            .filter(|s| {
                matches!(section_space(&s.name), SectionSpace::Event(_) | SectionSpace::Mention(_))
                    && s.payload_len > 0
            })
            .collect();

        let n_parts = store.extents.len() as u64;
        let picks = seeded_picks(seed ^ 0xC0FF_EE00, n_parts, u64::from(spec.corrupt_partitions));
        let mut corrupted = Vec::new();
        for &p in &picks {
            let ext = match store.extents.get(usize::try_from(p).unwrap_or(usize::MAX)) {
                Some(e) => e,
                None => continue,
            };
            // Try seeded sections until one has a nonempty byte range
            // for this partition (mention columns can be empty for a
            // partition with no mentions).
            let mut placed = false;
            for _ in 0..32 {
                if targets.is_empty() {
                    break;
                }
                let sec = targets[usize::try_from(rng.below(targets.len() as u64))
                    .unwrap_or(0)
                    .min(targets.len() - 1)];
                let space = section_space(&sec.name);
                let Some((b, e)) = ext.byte_range(space, &[]) else { continue };
                if e <= b || e > sec.payload_len {
                    continue;
                }
                let pos = sec.payload_offset + b + rng.below(e - b);
                let xor = (rng.below(255) + 1) as u8;
                faults.push(ScheduledFault {
                    fault: Fault::FlipByte { pos, xor },
                    until_attempt: ALWAYS,
                });
                placed = true;
                break;
            }
            if placed {
                corrupted.push(u32::try_from(p).unwrap_or(u32::MAX));
            }
        }

        if spec.transient_failures > 0 {
            // Fail a read early in the file (inside the first section's
            // payload) so every attempt under the window dies fast.
            let pos = layout
                .first()
                .map(|s| s.payload_offset + rng.below(s.payload_len.max(1)))
                .unwrap_or(12);
            faults.push(ScheduledFault {
                fault: Fault::FailRead { pos },
                until_attempt: spec.transient_failures,
            });
        }

        if spec.truncate_tail {
            // Land inside the final section's payload: the loader keeps
            // everything before it and quarantines the damaged tail.
            if let Some(last) = layout.last() {
                let pos = last.payload_offset + rng.below(last.payload_len.max(1));
                faults.push(ScheduledFault {
                    fault: Fault::TruncateAt { pos },
                    until_attempt: ALWAYS,
                });
            }
        }

        if spec.delay_ms > 0 {
            let pos = layout.first().map(|s| s.payload_offset).unwrap_or(12);
            faults.push(ScheduledFault {
                fault: Fault::DelayRead { pos, ms: spec.delay_ms },
                until_attempt: ALWAYS,
            });
        }

        Ok(FaultPlan { seed, faults, corrupted_partitions: corrupted })
    }

    /// The faults active on load attempt `attempt`.
    pub fn active(&self, attempt: u32) -> Vec<&Fault> {
        self.faults.iter().filter(|f| attempt < f.until_attempt).map(|f| &f.fault).collect()
    }

    /// Serialize the schedule as JSON (hand-rolled; the schema is flat
    /// integers and kind tags). This is the artifact a failing chaos CI
    /// run uploads so the exact schedule can be replayed locally.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"corrupted_partitions\": {:?},\n", self.corrupted_partitions));
        s.push_str("  \"faults\": [\n");
        for (i, f) in self.faults.iter().enumerate() {
            let body = match &f.fault {
                Fault::FlipByte { pos, xor } => {
                    format!("\"kind\": \"flip_byte\", \"pos\": {pos}, \"xor\": {xor}")
                }
                Fault::TruncateAt { pos } => format!("\"kind\": \"truncate_at\", \"pos\": {pos}"),
                Fault::FailRead { pos } => format!("\"kind\": \"fail_read\", \"pos\": {pos}"),
                Fault::DelayRead { pos, ms } => {
                    format!("\"kind\": \"delay_read\", \"pos\": {pos}, \"ms\": {ms}")
                }
            };
            let comma = if i + 1 == self.faults.len() { "" } else { "," };
            s.push_str(&format!("    {{{body}, \"until_attempt\": {}}}{comma}\n", f.until_attempt));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

impl ReadShim for FaultPlan {
    fn wrap<'a>(&self, inner: Box<dyn ReadAt + 'a>, attempt: u32) -> Box<dyn ReadAt + 'a> {
        let mut flips = Vec::new();
        let mut truncate_at: Option<u64> = None;
        let mut fail_at: Option<u64> = None;
        let mut delays = Vec::new();
        for fault in self.active(attempt) {
            match *fault {
                Fault::FlipByte { pos, xor } => flips.push((pos, xor)),
                Fault::TruncateAt { pos } => {
                    truncate_at = Some(truncate_at.map_or(pos, |t| t.min(pos)));
                }
                Fault::FailRead { pos } => {
                    fail_at = Some(fail_at.map_or(pos, |f| f.min(pos)));
                }
                Fault::DelayRead { pos, ms } => delays.push((pos, Duration::from_millis(ms))),
            }
        }
        Box::new(FaultyRead::new(inner, flips, truncate_at, fail_at, delays))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_respects_attempt_windows() {
        let plan = FaultPlan {
            seed: 1,
            faults: vec![
                ScheduledFault { fault: Fault::FlipByte { pos: 5, xor: 1 }, until_attempt: ALWAYS },
                ScheduledFault { fault: Fault::FailRead { pos: 0 }, until_attempt: 2 },
            ],
            corrupted_partitions: vec![0],
        };
        assert_eq!(plan.active(0).len(), 2);
        assert_eq!(plan.active(1).len(), 2);
        assert_eq!(plan.active(2).len(), 1);
        assert!(matches!(plan.active(2)[0], Fault::FlipByte { .. }));
    }

    #[test]
    fn json_snapshot_is_stable() {
        let plan = FaultPlan {
            seed: 42,
            faults: vec![
                ScheduledFault {
                    fault: Fault::FlipByte { pos: 100, xor: 7 },
                    until_attempt: ALWAYS,
                },
                ScheduledFault { fault: Fault::DelayRead { pos: 12, ms: 50 }, until_attempt: 3 },
            ],
            corrupted_partitions: vec![2, 5],
        };
        let json = plan.to_json();
        assert!(json.contains("\"seed\": 42"), "{json}");
        assert!(json.contains("\"corrupted_partitions\": [2, 5]"), "{json}");
        assert!(json.contains("\"kind\": \"flip_byte\", \"pos\": 100, \"xor\": 7"), "{json}");
        assert!(json.contains("\"kind\": \"delay_read\", \"pos\": 12, \"ms\": 50"), "{json}");
        assert!(json.contains("\"until_attempt\": 3"), "{json}");
        assert_eq!(json, plan.to_json());
    }

    #[test]
    fn clean_plan_is_identity() {
        let plan = FaultPlan::clean(9);
        let data = vec![1u8, 2, 3, 4];
        let r = plan.wrap(Box::new(data.as_slice()), 0);
        let mut out = [0u8; 8];
        let n = r.read_at(&mut out, 0).unwrap();
        assert_eq!(&out[..n], &data[..]);
    }
}
