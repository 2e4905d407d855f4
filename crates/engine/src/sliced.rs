//! Time-sliced co-reporting assembly (paper §VI-B).
//!
//! The paper observes that because only about a third of sources are
//! active at a time, "a global co-reporting matrix can be assembled
//! from smaller matrices that cover only a limited time span. These
//! matrices can then be compressed into a sparse format and assembled
//! into a larger sparse matrix." This module implements exactly that
//! strategy: one sparse pair-count matrix per quarter, merged into the
//! global sparse matrix — trading the dense matrix's O(n²) footprint
//! for hashing, which wins when the corpus is long and activity sparse.

use crate::chunk::{event_scan, for_each_event};
use crate::coreport::{distinct_sources, SparseCoReport};
use crate::exec::ExecContext;
use gdelt_columnar::Dataset;
use std::collections::HashMap;

/// One quarter's sparse co-reporting slice.
#[derive(Debug, Clone, Default)]
pub struct QuarterSlice {
    /// Linear quarter index of the slice.
    pub quarter: u16,
    /// `(i, j)` with `i < j` → events both reported on in this quarter.
    pub pairs: HashMap<(u32, u32), u32>,
    /// Per-source event counts within the quarter.
    pub event_counts: Vec<u64>,
}

/// Build one sparse slice per quarter (an event belongs to the quarter
/// of its capture interval).
// analyze: no_panic
pub fn build_slices(ctx: &ExecContext, d: &Dataset) -> Vec<QuarterSlice> {
    let n_sources = d.sources.len();
    let quarters = &d.events.quarter;
    let (base, n_quarters) = match quarter_bounds(quarters) {
        Some(v) => v,
        None => return Vec::new(),
    };

    let offsets = &d.event_index.offsets;
    let merged = event_scan(
        ctx,
        offsets,
        |events| {
            let mut slices: Vec<QuarterSlice> = (0..n_quarters)
                .map(|q| QuarterSlice {
                    quarter: base + q as u16,
                    pairs: HashMap::new(),
                    event_counts: vec![0; n_sources],
                })
                .collect();
            let mut scratch: Vec<u32> = Vec::with_capacity(16);
            for_each_event(offsets, events, |event, rows| {
                let quarter = quarters.get(event).and_then(|q| q.checked_sub(base));
                let Some(slice) = quarter.and_then(|q| slices.get_mut(usize::from(q))) else {
                    return;
                };
                let distinct = distinct_sources(&mut scratch, d.mentions.source.get(rows));
                for (a, &i) in distinct.iter().enumerate() {
                    if let Some(e) = slice.event_counts.get_mut(i as usize) {
                        *e += 1;
                    }
                    for &j in distinct.get(a + 1..).unwrap_or(&[]) {
                        *slice.pairs.entry((i, j)).or_insert(0) += 1;
                    }
                }
            });
            slices
        },
        |mut a, b| {
            for (sa, sb) in a.iter_mut().zip(b) {
                for (k, v) in sb.pairs {
                    *sa.pairs.entry(k).or_insert(0) += v;
                }
                for (x, y) in sa.event_counts.iter_mut().zip(sb.event_counts) {
                    *x += y;
                }
            }
            a
        },
    );
    merged.unwrap_or_default()
}

/// Assemble per-quarter slices into the global sparse co-reporting
/// matrix — identical numbers to [`SparseCoReport::build`] (and to the
/// dense matrix), just a different construction strategy.
pub fn assemble(slices: &[QuarterSlice], n_sources: usize) -> SparseCoReport {
    let mut pairs: HashMap<(u32, u32), u32> = HashMap::new();
    let mut event_counts = vec![0u64; n_sources];
    for s in slices {
        for (&k, &v) in &s.pairs {
            *pairs.entry(k).or_insert(0) += v;
        }
        for (x, &y) in event_counts.iter_mut().zip(&s.event_counts) {
            *x += y;
        }
    }
    SparseCoReport { pairs, event_counts }
}

/// Convenience: the full sliced pipeline.
pub fn sliced_coreport(ctx: &ExecContext, d: &Dataset) -> SparseCoReport {
    assemble(&build_slices(ctx, d), d.sources.len())
}

fn quarter_bounds(quarters: &[u16]) -> Option<(u16, usize)> {
    let min = *quarters.iter().min()?;
    let max = *quarters.iter().max()?;
    Some((min, (max - min) as usize + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coreport::{CoReport, SparseCoReport};

    fn dataset() -> Dataset {
        gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(55)).0
    }

    fn ctx() -> ExecContext {
        ExecContext::builder().threads(2).build()
    }

    #[test]
    fn sliced_assembly_matches_direct_sparse_build() {
        let d = dataset();
        let direct = SparseCoReport::build(&ctx(), &d);
        let sliced = sliced_coreport(&ctx(), &d);
        assert_eq!(direct.event_counts, sliced.event_counts);
        assert_eq!(direct.pairs.len(), sliced.pairs.len());
        for (k, v) in &direct.pairs {
            assert_eq!(sliced.pairs.get(k), Some(v), "pair {k:?}");
        }
    }

    #[test]
    fn sliced_assembly_matches_dense_build() {
        let d = dataset();
        let dense = CoReport::build(&ctx(), &d);
        let sliced = sliced_coreport(&ctx(), &d);
        for i in 0..d.sources.len() {
            for j in i + 1..d.sources.len() {
                assert_eq!(dense.pair_count(i, j), sliced.pair_count(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn slices_cover_every_quarter_with_events() {
        let d = dataset();
        let slices = build_slices(&ctx(), &d);
        assert!(!slices.is_empty());
        // Quarter tags ascend without gaps.
        for w in slices.windows(2) {
            assert_eq!(w[0].quarter + 1, w[1].quarter);
        }
        // Total pair mass across slices equals the global pair mass.
        let global = sliced_coreport(&ctx(), &d);
        let slice_mass: u64 =
            slices.iter().flat_map(|s| s.pairs.values()).map(|&v| u64::from(v)).sum();
        let global_mass: u64 = global.pairs.values().map(|&v| u64::from(v)).sum();
        assert_eq!(slice_mass, global_mass);
    }

    #[test]
    fn per_slice_activity_is_sparser_than_global() {
        let d = dataset();
        let slices = build_slices(&ctx(), &d);
        let global = sliced_coreport(&ctx(), &d);
        // Each slice involves at most as many active sources as global.
        let global_active = global.event_counts.iter().filter(|&&c| c > 0).count();
        for s in &slices {
            let active = s.event_counts.iter().filter(|&&c| c > 0).count();
            assert!(active <= global_active);
        }
    }

    #[test]
    fn empty_dataset_yields_no_slices() {
        let d = Dataset::default();
        assert!(build_slices(&ctx(), &d).is_empty());
        let s = sliced_coreport(&ctx(), &d);
        assert!(s.pairs.is_empty());
    }

    #[test]
    fn parallel_matches_sequential() {
        let d = dataset();
        let a = sliced_coreport(&ExecContext::builder().threads(1).build(), &d);
        let b = sliced_coreport(&ctx(), &d);
        assert_eq!(a.event_counts, b.event_counts);
        assert_eq!(a.pairs, b.pairs);
    }
}
