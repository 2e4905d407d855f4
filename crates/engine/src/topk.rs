//! Top-k selection: most productive publishers, most reported events.

use crate::aggregate::count_by;
use crate::exec::ExecContext;
use gdelt_columnar::Dataset;
use gdelt_model::ids::SourceId;

/// The `k` most productive sources with their article counts, descending
/// (ties broken by source id for determinism). This is the paper's
/// Fig 6 / Table IV / Table VIII selection.
// analyze: no_panic
pub fn top_publishers(ctx: &ExecContext, d: &Dataset, k: usize) -> Vec<(SourceId, u64)> {
    ranked_publishers(&count_by(ctx, &d.mentions.source, d.sources.len()), k)
}

/// [`top_publishers`] from per-source article counts already in hand.
// analyze: no_panic
pub fn ranked_publishers(counts: &[u64], k: usize) -> Vec<(SourceId, u64)> {
    // analyze: allow(panic_path): top_k_indices yields i < counts.len()
    top_k_indices(counts, k).into_iter().map(|i| (SourceId(i as u32), counts[i])).collect()
}

/// The `k` most mentioned events as `(event_row, mentions)` (Table III).
// analyze: no_panic
pub fn top_events(ctx: &ExecContext, d: &Dataset, k: usize) -> Vec<(usize, u64)> {
    let offsets = &d.event_index.offsets;
    let n = d.events.len();
    // Degrees are implicit in the CSR; rank rows by degree.
    let degrees: Vec<u64> = ctx.install(|| {
        use rayon::prelude::*;
        // lint: allow(par_index): e < n and offsets.len() == n + 1 (CSR invariant)
        (0..n).into_par_iter().map(|e| offsets[e + 1] - offsets[e]).collect()
    });
    // analyze: allow(panic_path): top_k_indices yields i < degrees.len()
    top_k_indices(&degrees, k).into_iter().map(|i| (i, degrees[i])).collect()
}

/// Indexes of the `k` largest values, descending, stable on ties.
// analyze: no_panic
pub fn top_k_indices(vals: &[u64], k: usize) -> Vec<usize> {
    let k = k.min(vals.len());
    let mut idx: Vec<usize> = (0..vals.len()).collect();
    // Partial selection then sort of the head beats a full sort when the
    // value array is large (21 k sources, 325 M events).
    if k > 0 && k < vals.len() {
        // analyze: allow(panic_path): idx holds 0..vals.len(), and 0 < k < vals.len()
        idx.select_nth_unstable_by_key(k - 1, |&i| (std::cmp::Reverse(vals[i]), i));
        idx.truncate(k);
    }
    // analyze: allow(panic_path): idx holds indexes drawn from 0..vals.len()
    idx.sort_by_key(|&i| (std::cmp::Reverse(vals[i]), i));
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_indices_orders_descending() {
        let vals = vec![5u64, 9, 1, 9, 7];
        assert_eq!(top_k_indices(&vals, 3), vec![1, 3, 4]);
        assert_eq!(top_k_indices(&vals, 0), Vec::<usize>::new());
        assert_eq!(top_k_indices(&vals, 10), vec![1, 3, 4, 0, 2]);
    }

    #[test]
    fn ties_break_by_index() {
        let vals = vec![3u64, 3, 3];
        assert_eq!(top_k_indices(&vals, 2), vec![0, 1]);
    }

    #[test]
    fn top_publishers_and_events_on_synthetic_data() {
        use gdelt_columnar::DatasetBuilder;
        use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
        use gdelt_model::event::{ActionGeo, EventRecord};
        use gdelt_model::ids::EventId;
        use gdelt_model::mention::{MentionRecord, MentionType};
        use gdelt_model::time::{DateTime, GDELT_EPOCH};

        let mut b = DatasetBuilder::new();
        for id in 1..=2u64 {
            b.add_event(EventRecord {
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
        let m = |event: u64, src: &str, k: u32| MentionRecord {
            event_id: EventId(event),
            event_time: DateTime::midnight(GDELT_EPOCH),
            mention_time: DateTime::midnight(GDELT_EPOCH),
            mention_type: MentionType::Web,
            source_name: src.into(),
            url: format!("https://{src}/{event}/{k}"),
            confidence: 50,
            doc_tone: 0.0,
        };
        // busy.com: 3 articles; quiet.com: 1; other.com: 1.
        b.add_mention(m(1, "busy.com", 0));
        b.add_mention(m(1, "busy.com", 1));
        b.add_mention(m(2, "busy.com", 2));
        b.add_mention(m(1, "quiet.com", 0));
        b.add_mention(m(2, "other.com", 0));
        let (d, _) = b.build();

        let ctx = ExecContext::builder().threads(2).build();
        let pubs = top_publishers(&ctx, &d, 2);
        assert_eq!(pubs.len(), 2);
        assert_eq!(d.sources.name(pubs[0].0), "busy.com");
        assert_eq!(pubs[0].1, 3);

        let events = top_events(&ctx, &d, 1);
        // Event row 0 (id 1) has 3 mentions, row 1 has 2.
        assert_eq!(events, vec![(0, 3)]);
    }

    #[test]
    fn empty_dataset_top_k() {
        let d = gdelt_columnar::Dataset::default();
        let ctx = ExecContext::builder().threads(1).build();
        assert!(top_publishers(&ctx, &d, 5).is_empty());
        assert!(top_events(&ctx, &d, 5).is_empty());
    }
}
