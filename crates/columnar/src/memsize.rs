//! Memory-footprint accounting.
//!
//! The paper's system exists because memory is the budget: the full
//! corpus must fit in the 2 TB node, and the dense co-reporting matrix
//! alone costs ~1.8 GB. This module reports where a [`Dataset`]'s bytes
//! actually go, per column, so capacity planning ("can this scale fit on
//! this machine?") is a function call instead of a guess.

use crate::columns::{Column, ColumnSet};
use crate::table::Dataset;

/// Byte counts per storage component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// The columns counted: those the dataset holds.
    pub columns: ColumnSet,
    /// Fixed-width event columns.
    pub event_columns: usize,
    /// Event URL pool (bytes + offsets).
    pub event_urls: usize,
    /// Fixed-width mention columns.
    pub mention_columns: usize,
    /// Source name pool + country column.
    pub sources: usize,
    /// CSR index offsets.
    pub index: usize,
}

impl MemoryFootprint {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.event_columns + self.event_urls + self.mention_columns + self.sources + self.index
    }

    /// Human-readable rendering, which says when the dataset was
    /// projected.
    pub fn render(&self) -> String {
        let mb = |b: usize| b as f64 / (1024.0 * 1024.0);
        let held = if self.columns == ColumnSet::ALL {
            String::new()
        } else {
            format!(" (projected: {} of {} columns)", self.columns.len(), Column::ALL.len())
        };
        format!(
            "memory{held}: events {:.1} MiB + urls {:.1} MiB + mentions {:.1} MiB + sources {:.1} MiB + index {:.1} MiB = {:.1} MiB",
            mb(self.event_columns),
            mb(self.event_urls),
            mb(self.mention_columns),
            mb(self.sources),
            mb(self.index),
            mb(self.total())
        )
    }
}

/// Measure a dataset's resident column payload: the bytes of every
/// column it holds ([`Dataset::column_bytes`]), excluding allocator
/// slack and the transient build-time hash indexes.
pub fn measure(d: &Dataset) -> MemoryFootprint {
    let mut f = MemoryFootprint {
        columns: d.columns,
        event_columns: 0,
        event_urls: 0,
        mention_columns: 0,
        sources: 0,
        index: 0,
    };
    for c in d.columns.iter() {
        let part = match c {
            Column::EventsUrls => &mut f.event_urls,
            Column::Sources => &mut f.sources,
            Column::IndexOffsets => &mut f.index,
            c if c.name().starts_with("events.") => &mut f.event_columns,
            _ => &mut f.mention_columns,
        };
        *part += d.column_bytes(c);
    }
    f
}

/// Projected footprint at the paper's full scale (324 564 472 events,
/// 1 090 310 118 mentions, 20 996 sources) from a measured sample:
/// linear extrapolation in events/mentions/sources. `gdelt-cli convert`
/// prints it under the measured footprint: whether the paper's corpus
/// fits this machine.
pub fn project_full_scale(sample: &Dataset) -> MemoryFootprint {
    let f = measure(sample);
    let scale_events = 324_564_472.0 / sample.events.len().max(1) as f64;
    let scale_mentions = 1_090_310_118.0 / sample.mentions.len().max(1) as f64;
    let scale_sources = 20_996.0 / sample.sources.len().max(1) as f64;
    MemoryFootprint {
        columns: f.columns,
        event_columns: (f.event_columns as f64 * scale_events) as usize,
        event_urls: (f.event_urls as f64 * scale_events) as usize,
        mention_columns: (f.mention_columns as f64 * scale_mentions) as usize,
        sources: (f.sources as f64 * scale_sources) as usize,
        index: (f.index as f64 * scale_events) as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        gdelt_synth_tiny()
    }

    /// Local corpus without a gdelt-synth dev-dependency cycle.
    fn gdelt_synth_tiny() -> Dataset {
        use crate::builder::DatasetBuilder;
        use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
        use gdelt_model::event::{ActionGeo, EventRecord};
        use gdelt_model::ids::EventId;
        use gdelt_model::mention::{MentionRecord, MentionType};
        use gdelt_model::time::{DateTime, GDELT_EPOCH as EPOCH};
        let mut b = DatasetBuilder::new();
        for id in 1..=50u64 {
            b.add_event(EventRecord {
                id: EventId(id),
                day: EPOCH,
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
                date_added: DateTime::midnight(EPOCH),
                source_url: format!("https://example.com/{id}"),
            });
            b.add_mention(MentionRecord {
                event_id: EventId(id),
                event_time: DateTime::midnight(EPOCH),
                mention_time: DateTime::midnight(EPOCH),
                mention_type: MentionType::Web,
                source_name: format!("pub{}.com", id % 7),
                url: format!("https://pub{}.com/{id}", id % 7),
                confidence: 50,
                doc_tone: 0.0,
            });
        }
        b.build().0
    }

    #[test]
    fn footprint_scales_with_rows() {
        let d = dataset();
        let f = measure(&d);
        // 8 + 4 + 4 + 2 + 1 + 2 + 2 + 4 + 2, and 8 more per event in the
        // CSR offsets: 37 B/event.
        assert_eq!(f.event_columns, d.events.len() * 29);
        // 4 + 4 + 4 + 4 + 2 + 1 + 1 + 4, and 12 more per orphan (none).
        assert_eq!(f.mention_columns, d.mentions.len() * 24);
        // Pool payload plus one u64 offset per string (+1).
        let urls = &d.events.urls;
        assert_eq!(f.event_urls, urls.payload_bytes() + (urls.len() + 1) * 8);
        let names = d.sources.names.pool();
        assert_eq!(f.sources, names.payload_bytes() + (names.len() + 1) * 8 + d.sources.len() * 2);
        assert_eq!(f.index, (d.events.len() + 1) * 8);
        assert_eq!(
            f.total(),
            f.event_columns + f.event_urls + f.mention_columns + f.sources + f.index
        );
        assert!(!f.render().contains("projected"));
    }

    #[test]
    fn projected_dataset_measures_its_present_columns() {
        let full = dataset();
        let columns = ColumnSet::of(&[Column::EventsQuarter, Column::MentionsDelay]);
        let d = full.clone().project(&columns);
        let held = columns.to_hold();
        assert_eq!(d.columns, held);
        let f = measure(&d);
        let sum = |of: &[Column]| of.iter().map(|&c| full.column_bytes(c)).sum::<usize>();
        // events.id + events.quarter; mentions.event_row + delay (and the
        // orphan ids of an empty tail).
        assert_eq!(f.event_columns, d.events.len() * (8 + 2));
        assert_eq!(f.event_columns, sum(&[Column::EventsId, Column::EventsQuarter]));
        assert_eq!(f.mention_columns, d.mentions.len() * (4 + 4));
        assert_eq!(f.event_urls, 0);
        assert_eq!(f.sources, measure(&full).sources);
        assert_eq!(f.index, measure(&full).index);
        assert_eq!(f.total(), held.iter().map(|c| full.column_bytes(c)).sum::<usize>());
        assert!(f.render().contains("projected: 7 of 22 columns"), "{}", f.render());
    }

    #[test]
    fn render_mentions_all_components() {
        let f = measure(&dataset());
        let s = f.render();
        assert!(s.contains("events"));
        assert!(s.contains("mentions"));
        assert!(s.contains("MiB"));
    }

    #[test]
    fn full_scale_projection_is_in_terabyte_territory() {
        let d = dataset();
        let p = project_full_scale(&d);
        // The mentions table alone at 1.09 B rows × 24 B ≈ 26 GB; with
        // URLs and events the paper's large-memory node is justified.
        assert!(p.mention_columns.abs_diff(24 * 1_090_310_118) < 1_000, "{p:?}");
        assert!(p.total() > p.mention_columns);
    }

    #[test]
    fn empty_dataset_is_near_zero() {
        let f = measure(&Dataset::default());
        assert_eq!(f.event_columns, 0);
        assert_eq!(f.mention_columns, 0);
        assert!(f.total() < 64);
    }
}
