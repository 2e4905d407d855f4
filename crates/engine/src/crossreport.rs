//! Country cross-reporting (paper §VI-D, Tables VI–VII, Fig 8).
//!
//! One parallel pass over the mentions table joins each article to its
//! event's `ActionGeo` country (precomputed `event_row` join) and its
//! publisher's TLD country, producing the asymmetric
//! reported-country × publishing-country article matrix. Percentages
//! (Table VII) normalize each column by the publisher country's *total*
//! article output, including articles on untagged or unlisted locations.
//!
//! The pass is flat — no per-event loop, whose trip count (one, mostly)
//! mispredicts — and it never bumps a matrix cell per row: consecutive
//! articles often share their cell (one event, one publishing country),
//! so `cell += 1` would wait on the store before it. Each chunk's rows
//! become composite keys `reported · side + publishing` and are counted
//! by [`DenseLanes::count`], the run-aware primitive of the series
//! kernels. Publisher totals are not scanned for: they are column sums.

use crate::aggregate::DenseLanes;
use crate::chunk::{chunks_of, partition_scan, rows_of, Chunk, CHUNK_ROWS};
use crate::exec::{ExecContext, Merge};
use crate::matrix::Matrix;
use crate::topk::top_k;
use gdelt_columnar::Dataset;
use gdelt_model::ids::CountryId;

/// The cross-reporting aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossReport {
    /// `counts[reported][publishing]` = articles from `publishing`-country
    /// sources about events located in `reported`.
    pub counts: Matrix<u64>,
    /// Total articles per publishing country (any event location,
    /// tagged or not) — the Table VII denominator.
    pub articles_by_publisher: Vec<u64>,
    /// Events recorded per (tagged) event country — the paper's row
    /// ordering key for Table VI.
    pub events_by_country: Vec<u64>,
}

impl Merge for CrossReport {
    /// Elementwise addition: every row is counted in exactly one piece.
    fn merge(&mut self, other: Self) {
        self.counts.merge(other.counts);
        self.articles_by_publisher.merge(other.articles_by_publisher);
        self.events_by_country.merge(other.events_by_country);
    }
}

impl CrossReport {
    /// Build with per-thread dense country tables (the country domain is
    /// tiny, so partials are cheap). `n_countries` is at most the `u16`
    /// id space.
    // analyze: no_panic
    pub fn build(ctx: &ExecContext, d: &Dataset, n_countries: usize) -> Self {
        let n = n_countries;
        // The table has one more row and column than the matrix: an
        // untagged or unknown event is row `n`, an unknown publisher
        // country column `n`. Such rows are frequent and scattered, so
        // clamping them into the table (no branch) beats skipping them
        // (a misprediction each) — and column `c` of the whole table then
        // sums to every article `c` published, tagged or not.
        let side = n + 1;
        let clamp = |country: u16| u32::from(country).min(n as u32);
        let country_at = |countries: &[u16], row: u32| {
            clamp(countries.get(row as usize).copied().unwrap_or(u16::MAX))
        };
        // An orphan mention's `NO_EVENT_ROW` lies past the events table,
        // like any other unknown event.
        let cell = |(&er, &s): (&u32, &u32)| {
            let reported = country_at(&d.events.country, er);
            reported.wrapping_mul(side as u32).wrapping_add(country_at(&d.sources.country, s))
        };
        let count_articles = |rows| {
            let joined =
                |c: Chunk| c.slice(&d.mentions.event_row).iter().zip(c.slice(&d.mentions.source));
            count_keys(side * side, chunks_of(rows).map(|c| joined(c).map(cell)))
        };
        // Both passes cost 1.8–3.3 ns a row on one thread: 2.7 a mention
        // here and 0.7 an event below (the 0.9 ms of 1.3 M events).
        let table = partition_scan(ctx, d.mentions.len(), 2.7, count_articles, Merge::merged);
        // The events table holds the same sentinel as often — 1.3 M
        // events take 0.9 ms clamped and 3.2 ms through `count_by`,
        // which skips it — so its countries are clamped too.
        let count_events = |rows| {
            let countries = |c: Chunk| c.slice(&d.events.country).iter().map(|&c| clamp(c));
            count_keys(side, chunks_of(rows).map(countries))
        };
        let mut events_by_country =
            partition_scan(ctx, d.events.len(), 0.7, count_events, Merge::merged);
        events_by_country.truncate(n);

        let mut counts = Matrix::zeros(n, n);
        for (r, table_row) in table.chunks(side).take(n).enumerate() {
            for (c, &articles) in table_row.iter().take(n).enumerate() {
                counts.set(r, c, articles);
            }
        }
        CrossReport {
            counts,
            articles_by_publisher: (0..n)
                .map(|c| table.iter().skip(c).step_by(side).sum())
                .collect(),
            events_by_country,
        }
    }

    /// Articles from `publishing` about events in `reported`.
    #[inline]
    pub fn articles(&self, reported: CountryId, publishing: CountryId) -> u64 {
        self.counts.get(reported.index(), publishing.index())
    }

    /// Table VII: the percentage of all articles from each publishing
    /// country that report on each event country.
    pub fn percentages(&self) -> Matrix<f64> {
        let n = self.counts.rows();
        let mut m = Matrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                let denom = self.articles_by_publisher[c];
                if denom > 0 {
                    m.set(r, c, 100.0 * self.counts.get(r, c) as f64 / denom as f64);
                }
            }
        }
        m
    }

    /// Countries ranked by recorded events, descending (Table VI row
    /// order).
    pub fn top_reported(&self, k: usize) -> Vec<CountryId> {
        rank_countries(&self.events_by_country, k)
    }

    /// Countries ranked by published articles, descending (Table VI
    /// column order).
    pub fn top_publishing(&self, k: usize) -> Vec<CountryId> {
        rank_countries(&self.articles_by_publisher, k)
    }
}

/// Count dense keys below `n_slots` through [`DenseLanes`]; `chunks`
/// yields the keys of at most [`CHUNK_ROWS`] rows at a time.
// analyze: no_panic
fn count_keys<I: Iterator<Item = u32>>(
    n_slots: usize,
    chunks: impl Iterator<Item = I>,
) -> Vec<u64> {
    let mut lanes = DenseLanes::new(n_slots);
    let mut keys = [0u32; CHUNK_ROWS];
    for chunk in chunks {
        let len = keys.iter_mut().zip(chunk).map(|(slot, key)| *slot = key).count();
        lanes.count(rows_of(&keys, &(0..len)), 0);
    }
    lanes.sums()
}

/// The `k` countries with the largest counts, descending, ties by
/// ascending id: [`top_k`] over the dense country counts.
fn rank_countries(counts: &[u64], k: usize) -> Vec<CountryId> {
    top_k(counts, k).into_iter().map(|(i, _)| CountryId(i as u16)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdelt_columnar::DatasetBuilder;
    use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
    use gdelt_model::country::CountryRegistry;
    use gdelt_model::event::{ActionGeo, EventRecord, GeoType};
    use gdelt_model::ids::EventId;
    use gdelt_model::mention::{MentionRecord, MentionType};
    use gdelt_model::time::{DateTime, GDELT_EPOCH};

    /// Event 1 in the US, event 2 in the UK, event 3 untagged.
    /// a.com (USA) covers all three; b.co.uk (UK) covers events 1 and 2.
    fn dataset() -> Dataset {
        let mut bld = DatasetBuilder::new();
        let ev = |id: u64, fips: &str| EventRecord {
            id: EventId(id),
            day: GDELT_EPOCH,
            root: CameoRoot::new(1).unwrap(),
            event_code: "010".into(),
            actor1_country: String::new(),
            actor2_country: String::new(),
            quad_class: QuadClass::VerbalCooperation,
            goldstein: Goldstein::new(0.0).unwrap(),
            num_mentions: 0,
            num_sources: 0,
            num_articles: 0,
            avg_tone: 0.0,
            geo: if fips.is_empty() {
                ActionGeo::default()
            } else {
                ActionGeo {
                    geo_type: GeoType::Country,
                    country_fips: fips.into(),
                    lat: None,
                    lon: None,
                }
            },
            date_added: DateTime::midnight(GDELT_EPOCH),
            source_url: "u".into(),
        };
        bld.add_event(ev(1, "US"));
        bld.add_event(ev(2, "UK"));
        bld.add_event(ev(3, ""));
        let m = |event: u64, src: &str| MentionRecord {
            event_id: EventId(event),
            event_time: DateTime::midnight(GDELT_EPOCH),
            mention_time: DateTime::midnight(GDELT_EPOCH),
            mention_type: MentionType::Web,
            source_name: src.into(),
            url: format!("https://{src}/{event}"),
            confidence: 50,
            doc_tone: 0.0,
        };
        for e in 1..=3u64 {
            bld.add_mention(m(e, "a.com"));
        }
        bld.add_mention(m(1, "b.co.uk"));
        bld.add_mention(m(2, "b.co.uk"));
        bld.build().0
    }

    fn ctx() -> ExecContext {
        ExecContext::builder().threads(2).build()
    }

    #[test]
    fn counts_articles_by_location_and_publisher() {
        let d = dataset();
        let reg = CountryRegistry::new();
        let cr = CrossReport::build(&ctx(), &d, reg.len());
        let us = reg.by_name("USA");
        let uk = reg.by_name("UK");
        assert_eq!(cr.articles(us, us), 1); // a.com on the US event
        assert_eq!(cr.articles(uk, us), 1); // a.com on the UK event
        assert_eq!(cr.articles(us, uk), 1); // b.co.uk on the US event
        assert_eq!(cr.articles(uk, uk), 1);
        // Publisher totals include the untagged event 3.
        assert_eq!(cr.articles_by_publisher[us.index()], 3);
        assert_eq!(cr.articles_by_publisher[uk.index()], 2);
    }

    #[test]
    fn events_by_country_counts_tagged_events() {
        let d = dataset();
        let reg = CountryRegistry::new();
        let cr = CrossReport::build(&ctx(), &d, reg.len());
        assert_eq!(cr.events_by_country[reg.by_name("USA").index()], 1);
        assert_eq!(cr.events_by_country[reg.by_name("UK").index()], 1);
        assert_eq!(cr.events_by_country.iter().sum::<u64>(), 2); // untagged excluded
    }

    #[test]
    fn percentages_normalize_by_publisher_total() {
        let d = dataset();
        let reg = CountryRegistry::new();
        let cr = CrossReport::build(&ctx(), &d, reg.len());
        let p = cr.percentages();
        let us = reg.by_name("USA").index();
        let uk = reg.by_name("UK").index();
        // a.com: 3 articles, 1 on the US → 33.3%.
        assert!((p.get(us, us) - 100.0 / 3.0).abs() < 1e-9);
        // b.co.uk: 2 articles, 1 on the US → 50%.
        assert!((p.get(us, uk) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn rankings() {
        let d = dataset();
        let reg = CountryRegistry::new();
        let cr = CrossReport::build(&ctx(), &d, reg.len());
        let top_pub = cr.top_publishing(2);
        assert_eq!(top_pub[0], reg.by_name("USA"));
        assert_eq!(top_pub[1], reg.by_name("UK"));
        // A tied pair: one event each, ranked by ascending id.
        let mut tied = [reg.by_name("USA"), reg.by_name("UK")];
        tied.sort_by_key(|c| c.index());
        assert_eq!(cr.top_reported(2), tied);
        // Past the tie every country has none; the ids still ascend.
        let all = cr.top_reported(reg.len());
        assert_eq!(&all[..2], &tied);
        assert!(all[2..].windows(2).all(|w| w[0].index() < w[1].index()));
        assert!(cr.top_publishing(0).is_empty());
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::default();
        let cr = CrossReport::build(&ctx(), &d, 5);
        assert_eq!(cr.counts.total(), 0);
        assert_eq!(cr.articles_by_publisher, vec![0; 5]);
        assert_eq!(cr.percentages().col_sums_f(), vec![0.0; 5]);
    }

    #[test]
    fn parallel_matches_sequential() {
        let d = dataset();
        let reg = CountryRegistry::new();
        let seq = CrossReport::build(&ExecContext::builder().threads(1).build(), &d, reg.len());
        let par = CrossReport::build(&ctx(), &d, reg.len());
        assert_eq!(seq, par);
    }
}
