//! The specialized engine must agree *exactly* with independent
//! brute-force reference implementations computed straight from the
//! record streams — co-reporting, follow-reporting, cross-reporting and
//! delay statistics all have simple O(n²)-ish definitions worth paying
//! for in a test.

use gdelt::engine::baseline::RowStore;
use gdelt::engine::coreport::CoReport;
use gdelt::model::country::CountryRegistry;
use gdelt::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn dataset() -> Dataset {
    gdelt::synth::generate_dataset(&gdelt::synth::scenario::tiny(121)).0
}

/// Brute force: per-event source sets from the raw columns.
fn event_source_sets(d: &Dataset) -> BTreeMap<u64, BTreeSet<u32>> {
    let mut map: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
    for row in 0..d.mentions.len() {
        map.entry(d.mention_event_id(row).0).or_default().insert(d.mentions.source[row]);
    }
    map
}

#[test]
fn coreport_matches_brute_force() {
    let d = dataset();
    let ctx = ExecContext::builder().threads(2).build();
    // Every source as the subset, slot i being SourceId(i).
    let all: Vec<SourceId> = (0..d.sources.len() as u32).map(SourceId).collect();
    let cr = CoReport::publishers(&ctx, &d, &all);
    let sets = event_source_sets(&d);

    // Reference e_i.
    let mut e = vec![0u64; d.sources.len()];
    let mut pairs: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for set in sets.values() {
        let v: Vec<u32> = set.iter().copied().collect();
        for (a, &i) in v.iter().enumerate() {
            e[i as usize] += 1;
            for &j in &v[a + 1..] {
                *pairs.entry((i, j)).or_default() += 1;
            }
        }
    }
    assert_eq!(cr.event_counts, e);
    assert_eq!(cr.pairs.total(), 2 * pairs.values().sum::<u64>());
    for (&(i, j), &n) in &pairs {
        assert_eq!(cr.pairs.get(i as usize, j as usize), n, "pair ({i},{j})");
        assert_eq!(cr.pairs.get(j as usize, i as usize), n, "pair ({j},{i})");
    }
}

#[test]
fn followreport_matches_brute_force() {
    let d = dataset();
    let ctx = ExecContext::builder().threads(2).build();
    let QueryResult::FollowReport(fr) = run_query(&ctx, &d, &Query::FollowReport { top_k: 8 })
    else {
        unreachable!("FollowReport query yields a FollowReport result");
    };
    let subset = &fr.subset;

    // Reference: group raw mentions by event, sort by interval, count
    // follows with strict-time semantics.
    let mut by_event: BTreeMap<u64, Vec<(u32, u32)>> = BTreeMap::new(); // (interval, source)
    for row in 0..d.mentions.len() {
        by_event
            .entry(d.mention_event_id(row).0)
            .or_default()
            .push((d.mentions.mention_interval[row], d.mentions.source[row]));
    }
    let slot = |s: u32| subset.iter().position(|x| x.0 == s);
    let k = subset.len();
    let mut counts = vec![vec![0u64; k]; k];
    let mut articles = vec![0u64; k];
    for mentions in by_event.values_mut() {
        mentions.sort_unstable();
        for (idx, &(t, s)) in mentions.iter().enumerate() {
            let Some(j) = slot(s) else { continue };
            articles[j] += 1;
            let mut prior: BTreeSet<usize> = BTreeSet::new();
            for &(t2, s2) in &mentions[..idx] {
                if t2 < t {
                    if let Some(i) = slot(s2) {
                        prior.insert(i);
                    }
                }
            }
            for i in prior {
                counts[i][j] += 1;
            }
        }
    }
    assert_eq!(fr.articles, articles);
    for (i, row) in counts.iter().enumerate() {
        for (j, &expect) in row.iter().enumerate() {
            assert_eq!(fr.follow_counts.get(i, j), expect, "follow ({i},{j})");
        }
    }
}

#[test]
fn crossreport_matches_row_store_and_brute_force() {
    let d = dataset();
    let ctx = ExecContext::builder().threads(2).build();
    let QueryResult::CrossCountry(engine) = run_query(&ctx, &d, &Query::CrossCountry) else {
        unreachable!("CrossCountry query yields a CrossCountry result");
    };

    // The naive row store is an independent (string-based) path.
    let naive = RowStore::from_dataset(&d).cross_report_naive();
    assert_eq!(engine.counts, naive.counts);
    assert_eq!(engine.articles_by_publisher, naive.articles_by_publisher);
    assert_eq!(engine.events_by_country, naive.events_by_country);

    // Totals line up with raw row counts.
    let known_publisher: u64 = (0..d.mentions.len())
        .filter(|&r| !d.sources.country_id(d.mentions.source_id(r)).is_unknown())
        .count() as u64;
    assert_eq!(engine.articles_by_publisher.iter().sum::<u64>(), known_publisher);
}

#[test]
fn country_coreport_is_consistent_with_source_coreport() {
    let d = dataset();
    let reg = CountryRegistry::new();
    let ctx = ExecContext::builder().threads(2).build();
    let QueryResult::CoReport(cc) = run_query(&ctx, &d, &Query::CoReport) else {
        unreachable!("CoReport query yields a CoReport result");
    };

    // Brute force from per-event country sets.
    let sets = event_source_sets(&d);
    let mut e = vec![0u64; reg.len()];
    for set in sets.values() {
        let countries: BTreeSet<u16> = set
            .iter()
            .map(|&s| d.sources.country_id(SourceId(s)).0)
            .filter(|&c| (c as usize) < reg.len())
            .collect();
        for c in countries {
            e[c as usize] += 1;
        }
    }
    assert_eq!(cc.event_counts, e);
}

#[test]
fn delay_stats_match_brute_force() {
    let d = dataset();
    let ctx = ExecContext::builder().threads(2).build();
    let QueryResult::Delay(stats) = run_query(&ctx, &d, &Query::Delay) else {
        unreachable!("Delay query yields a Delay result");
    };

    let mut per_source: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for row in 0..d.mentions.len() {
        per_source.entry(d.mentions.source[row]).or_default().push(d.mentions.delay[row]);
    }
    for (s, delays) in per_source {
        let st = stats[s as usize];
        assert_eq!(st.count, delays.len() as u64);
        assert_eq!(st.min, *delays.iter().min().unwrap());
        assert_eq!(st.max, *delays.iter().max().unwrap());
        let mean = delays.iter().map(|&v| v as f64).sum::<f64>() / delays.len() as f64;
        assert!((st.mean - mean).abs() < 1e-9);
        let mut sorted = delays.clone();
        sorted.sort_unstable();
        assert_eq!(st.median, sorted[(sorted.len() - 1) / 2]);
    }
}
