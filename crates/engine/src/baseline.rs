//! Baseline comparators for the specialized engine.
//!
//! The paper motivates its system by the inefficiency of generic
//! alternatives (BigQuery / Hadoop-style row processing, §II). Two
//! baselines make that comparison measurable on the same machine:
//!
//! * [`RowStore`] — a deliberately naive row-oriented store keeping every
//!   field as text the way a generic CSV-backed pipeline would: per-row
//!   heap allocations, string country resolution on every access, hash
//!   join from mention to event. It computes the same aggregated country
//!   query, single-threaded.
//! * The specialized engine run with `ExecContext::builder().threads(1).build()` serves
//!   as the 1-thread point of Fig 12 (the paper's 344 s); the row store
//!   sits well below even that.

use crate::crossreport::CrossReport;
use crate::matrix::Matrix;
use gdelt_columnar::Dataset;
use gdelt_model::country::CountryRegistry;
use std::collections::HashMap;

/// One row of the naive event table (all text, as parsed CSV would be).
#[derive(Debug, Clone)]
pub struct RowEvent {
    /// Event id as text.
    pub id: String,
    /// FIPS country code as text (may be empty).
    pub country_fips: String,
}

/// One row of the naive mentions table.
#[derive(Debug, Clone)]
pub struct RowMention {
    /// Event id as text.
    pub event_id: String,
    /// Publisher domain as text.
    pub source_name: String,
}

/// The naive row-oriented store.
#[derive(Debug, Default)]
pub struct RowStore {
    /// Event rows.
    pub events: Vec<RowEvent>,
    /// Mention rows.
    pub mentions: Vec<RowMention>,
}

impl RowStore {
    /// Materialize a row store from a columnar dataset (strings
    /// re-expanded, joins forgotten) — what a generic pipeline would hold
    /// after parsing the CSVs.
    pub fn from_dataset(d: &Dataset) -> Self {
        let registry = CountryRegistry::new();
        let events = (0..d.events.len())
            .map(|row| RowEvent {
                id: d.events.id[row].to_string(),
                country_fips: {
                    let c = d.events.country_id(row);
                    registry.get(c).map(|c| c.fips.to_owned()).unwrap_or_default()
                },
            })
            .collect();
        let mentions = (0..d.mentions.len())
            .map(|row| RowMention {
                event_id: d.mention_event_id(row).0.to_string(),
                source_name: d.sources.name(d.mentions.source_id(row)).to_owned(),
            })
            .collect();
        RowStore { events, mentions }
    }

    /// The aggregated cross-reporting query, the naive way: build a hash
    /// join from event-id text to country text, resolve each publisher
    /// country by string TLD parsing, accumulate into string-keyed maps.
    /// Single-threaded by construction.
    pub fn cross_report_naive(&self) -> CrossReport {
        let registry = CountryRegistry::new();
        let n = registry.len();

        // Hash join: event id text → country id.
        let mut event_country: HashMap<&str, u16> = HashMap::with_capacity(self.events.len());
        for e in &self.events {
            let c = if e.country_fips.is_empty() {
                u16::MAX
            } else {
                registry.by_fips(&e.country_fips).0
            };
            event_country.insert(e.id.as_str(), c);
        }

        let mut counts = Matrix::<u64>::zeros(n, n);
        let mut by_pub = vec![0u64; n];
        for m in &self.mentions {
            // String TLD parse on every row — the generic-pipeline tax.
            let sc = registry.assign_source_country(&m.source_name).0 as usize;
            if sc >= n {
                continue;
            }
            by_pub[sc] += 1;
            let Some(&ec) = event_country.get(m.event_id.as_str()) else {
                continue;
            };
            if (ec as usize) < n {
                counts.bump(ec as usize, sc);
            }
        }

        let mut events_by_country = vec![0u64; n];
        for e in &self.events {
            if !e.country_fips.is_empty() {
                let c = registry.by_fips(&e.country_fips).0 as usize;
                if c < n {
                    events_by_country[c] += 1;
                }
            }
        }

        CrossReport { counts, articles_by_publisher: by_pub, events_by_country }
    }
}

/// Time the naive row-store query (build excluded; query only).
pub fn timed_naive(store: &RowStore) -> (CrossReport, f64) {
    let t0 = std::time::Instant::now();
    let r = store.cross_report_naive();
    (r, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecContext;

    fn dataset() -> Dataset {
        let cfg = gdelt_synth::scenario::tiny(88);
        gdelt_synth::generate_dataset(&cfg).0
    }

    #[test]
    fn naive_query_matches_engine_exactly() {
        let d = dataset();
        let registry = CountryRegistry::new();
        let engine =
            CrossReport::build(&ExecContext::builder().threads(2).build(), &d, registry.len());
        let store = RowStore::from_dataset(&d);
        let naive = store.cross_report_naive();
        assert_eq!(engine.counts, naive.counts);
        assert_eq!(engine.articles_by_publisher, naive.articles_by_publisher);
        assert_eq!(engine.events_by_country, naive.events_by_country);
    }

    #[test]
    fn row_store_materializes_every_row() {
        let d = dataset();
        let store = RowStore::from_dataset(&d);
        assert_eq!(store.events.len(), d.events.len());
        assert_eq!(store.mentions.len(), d.mentions.len());
    }

    #[test]
    fn timed_naive_runs() {
        let d = dataset();
        let store = RowStore::from_dataset(&d);
        let (r, secs) = timed_naive(&store);
        assert!(secs >= 0.0);
        assert!(r.articles_by_publisher.iter().sum::<u64>() > 0);
    }
}
