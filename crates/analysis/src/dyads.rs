//! Actor-dyad analysis — who acts on whom in the event stream.
//!
//! CAMEO events carry actor country codes; dyad frequencies (USA→RUS,
//! ISR→PAK, …) and their conflict shares are the classic GDELT political-
//! science query (the paper's related work predicts unrest from exactly
//! these signals). One parallel scan over the actor columns suffices.

use crate::render::{fmt_count, fmt_f, TextTable};
use gdelt_columnar::Dataset;
use gdelt_engine::chunk::partition_scan;
use gdelt_engine::exec::{ExecContext, Merge};
use gdelt_model::cameo::QuadClass;
use gdelt_model::country::CountryRegistry;
use gdelt_model::ids::CountryId;
use std::collections::HashMap;

/// One directed actor dyad.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dyad {
    /// Actor1 country.
    pub actor1: CountryId,
    /// Actor2 country.
    pub actor2: CountryId,
    /// Events with this (actor1, actor2) pair.
    pub events: u64,
    /// Fraction of those events in the conflict quad classes.
    pub conflict_share: f64,
}

#[derive(Default)]
struct DyadAcc {
    // (a1, a2) → (events, conflict events)
    counts: HashMap<(u16, u16), (u64, u64)>,
}

impl Merge for DyadAcc {
    fn merge(&mut self, other: Self) {
        for (k, (n, c)) in other.counts {
            let e = self.counts.entry(k).or_insert((0, 0));
            e.0 += n;
            e.1 += c;
        }
    }
}

/// Count all two-actor dyads (both actors resolved), in parallel.
pub fn dyad_counts(ctx: &ExecContext, d: &Dataset) -> Vec<Dyad> {
    let a1 = &d.events.actor1;
    let a2 = &d.events.actor2;
    let quad = &d.events.quad;
    let count_rows = |rows: std::ops::Range<usize>| {
        let mut acc = DyadAcc::default();
        for row in rows {
            let (x, y) = (a1[row], a2[row]);
            if x == u16::MAX || y == u16::MAX {
                continue; // one-actor or unresolved
            }
            let conflict = quad[row] >= QuadClass::VerbalConflict.as_u8();
            let e = acc.counts.entry((x, y)).or_insert((0, 0));
            e.0 += 1;
            e.1 += u64::from(conflict);
        }
        acc
    };
    // 12–14 ns an event on one thread.
    let acc = partition_scan(ctx, d.events.len(), 14.0, count_rows, Merge::merged);
    let mut out: Vec<Dyad> = acc
        .counts
        .into_iter()
        .map(|((x, y), (n, c))| Dyad {
            actor1: CountryId(x),
            actor2: CountryId(y),
            events: n,
            conflict_share: c as f64 / n as f64,
        })
        .collect();
    out.sort_by_key(|d| (std::cmp::Reverse(d.events), d.actor1.0, d.actor2.0));
    out
}

/// The `k` most frequent dyads.
pub fn top_dyads(ctx: &ExecContext, d: &Dataset, k: usize) -> Vec<Dyad> {
    let mut all = dyad_counts(ctx, d);
    all.truncate(k);
    all
}

/// Render the dyad ranking.
pub fn render(registry: &CountryRegistry, dyads: &[Dyad]) -> String {
    let name =
        |c: CountryId| registry.get(c).map(|c| c.name.to_owned()).unwrap_or_else(|| "?".into());
    let mut t = TextTable::new(&["Actor dyad", "Events", "Conflict share"]);
    for dy in dyads {
        t.row(vec![
            format!("{} → {}", name(dy.actor1), name(dy.actor2)),
            fmt_count(dy.events),
            fmt_f(dy.conflict_share, 3),
        ]);
    }
    format!("Top actor dyads\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(95)).0
    }

    fn ctx() -> ExecContext {
        ExecContext::builder().threads(2).build()
    }

    #[test]
    fn dyads_count_two_actor_events_only() {
        let d = dataset();
        let dyads = dyad_counts(&ctx(), &d);
        let total: u64 = dyads.iter().map(|x| x.events).sum();
        let two_actor = d
            .events
            .actor1
            .iter()
            .zip(d.events.actor2.iter())
            .filter(|&(&a, &b)| a != u16::MAX && b != u16::MAX)
            .count() as u64;
        assert_eq!(total, two_actor);
        assert!(total > 0, "generator produced no two-actor events");
        // Descending order.
        for w in dyads.windows(2) {
            assert!(w[0].events >= w[1].events);
        }
        for dy in &dyads {
            assert!((0.0..=1.0).contains(&dy.conflict_share));
        }
    }

    #[test]
    fn us_dyads_dominate_the_calibrated_mix() {
        let d = dataset();
        let reg = CountryRegistry::new();
        let top = top_dyads(&ctx(), &d, 5);
        assert!(!top.is_empty());
        let us = reg.by_name("USA");
        assert!(
            top.iter().any(|dy| dy.actor1 == us || dy.actor2 == us),
            "no US dyad in the top 5 of a US-dominated mix"
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let d = dataset();
        let a = dyad_counts(&ExecContext::builder().threads(1).build(), &d);
        let b = dyad_counts(&ctx(), &d);
        assert_eq!(a, b);
    }

    #[test]
    fn render_lists_dyads() {
        let d = dataset();
        let reg = CountryRegistry::new();
        let top = top_dyads(&ctx(), &d, 3);
        let text = render(&reg, &top);
        assert!(text.contains("→"));
        assert!(text.contains("Conflict share"));
    }

    #[test]
    fn empty_dataset_has_no_dyads() {
        let d = Dataset::default();
        assert!(dyad_counts(&ctx(), &d).is_empty());
    }
}
