//! Follow-reporting analysis (paper §VI-B, Table IV, Fig 7).
//!
//! `f_ij = n_ij / n_j` where `n_ij` counts articles by site `j` on events
//! that site `i` had published on *before* (strictly earlier capture
//! interval), and `n_j` is `j`'s total article count. Unlike co-reporting
//! the matrix is asymmetric and has a meaningful diagonal: `f_jj` is the
//! rate at which a site follows up on its own reporting.
//!
//! The paper evaluates this for the Top-10 (Table IV) and Top-50 (Fig 7)
//! publishers; the implementation computes the submatrix for any source
//! selection in one pass over the time-sorted event→mentions CSR.
//!
//! Per event (from the one CSR walker, [`crate::chunk::for_each_event`])
//! the kernel keeps two [`SmallSet`]s over the selection: `seen`, the
//! selected sources met so far, and `prior`, those met in a strictly
//! earlier interval. Interval groups are found inline — when a mention's
//! interval differs from the one before it, `prior` takes `seen` — and
//! an article by `j` bumps `counts[i][j]` for the set bits `i` of
//! `prior` only. An event with one mention has no follow edge and is
//! skipped; `articles` does not come from the walk at all but from one
//! dense count of the source column, which also covers mentions of
//! unknown events.

use crate::aggregate::count_by;
use crate::chunk::{event_scan, for_each_event, SmallSet};
use crate::exec::{ExecContext, Merge};
use crate::matrix::Matrix;
use gdelt_columnar::Dataset;
use gdelt_model::ids::SourceId;

/// Follow-reporting result for a source selection.
#[derive(Debug, Clone, PartialEq)]
pub struct FollowReport {
    /// The selection, in request order (row/column order of `f`).
    pub subset: Vec<SourceId>,
    /// Raw follow counts `n_ij`.
    pub follow_counts: Matrix<u64>,
    /// Total articles `n_j` per selected source (all events).
    pub articles: Vec<u64>,
}

impl Merge for FollowReport {
    /// Elementwise addition — follow edges are intra-event. Both sides
    /// must be over the same subset.
    fn merge(&mut self, other: Self) {
        // analyze: allow(panic_path): mismatched subsets are a planning bug, same contract as Matrix::merge on shape mismatch
        assert_eq!(self.subset, other.subset, "follow partials must agree on the subset");
        self.follow_counts.merge(other.follow_counts);
        self.articles.merge(other.articles);
    }
}

impl FollowReport {
    /// Compute the follow submatrix for `subset`.
    // analyze: no_panic
    pub fn build(ctx: &ExecContext, d: &Dataset, subset: &[SourceId]) -> Self {
        let k = subset.len();
        // Source id → slot; everyone else gets `k`, one past the sets.
        let mut slot_of = vec![k; d.sources.len()];
        for (i, s) in subset.iter().enumerate() {
            if let Some(slot) = slot_of.get_mut(s.index()) {
                *slot = i;
            }
        }

        let offsets = &d.event_index.offsets;
        let follow_counts = event_scan(
            ctx,
            offsets,
            |events| {
                let mut counts = Matrix::<u64>::zeros(k, k);
                let (mut prior, mut seen) = (SmallSet::new(k), SmallSet::new(k));
                for_each_event(offsets, events, |_, rows| {
                    if rows.len() < 2 {
                        return; // nobody to follow
                    }
                    let sources = d.mentions.source.get(rows.clone()).unwrap_or(&[]);
                    let times = d.mentions.mention_interval.get(rows).unwrap_or(&[]);
                    prior.clear();
                    seen.clear();
                    let mut last = times.first().copied();
                    for (&src, &t) in sources.iter().zip(times) {
                        if Some(t) != last {
                            // A new interval: everyone seen so far is now
                            // strictly earlier.
                            prior.union_with(&seen);
                            last = Some(t);
                        }
                        let j = slot_of.get(src as usize).copied().unwrap_or(k);
                        if j < k {
                            seen.insert(j);
                            for i in prior.iter() {
                                counts.bump(i, j);
                            }
                        }
                    }
                });
                counts
            },
            Merge::merged,
        );

        // `n_j` counts every article, also on events outside the index.
        let by_source = count_by(ctx, &d.mentions.source, d.sources.len());
        let mut articles = vec![0u64; k];
        for (&slot, &n) in slot_of.iter().zip(&by_source) {
            if let Some(a) = articles.get_mut(slot) {
                *a = n;
            }
        }
        FollowReport {
            subset: subset.to_vec(),
            follow_counts: follow_counts.unwrap_or_else(|| Matrix::zeros(k, k)),
            articles,
        }
    }

    /// The normalized follow matrix `f_ij = n_ij / n_j` (column `j`
    /// normalized by `j`'s article count; 0 where `n_j = 0`).
    pub fn f_matrix(&self) -> Matrix<f64> {
        let k = self.subset.len();
        let mut m = Matrix::zeros(k, k);
        for i in 0..k {
            for j in 0..k {
                let nj = self.articles[j];
                if nj > 0 {
                    m.set(i, j, self.follow_counts.get(i, j) as f64 / nj as f64);
                }
            }
        }
        m
    }

    /// Column sums of `f` — the Table IV "Sum" row: the fraction of a
    /// publisher's articles that follow any of the selected sources.
    pub fn column_sums(&self) -> Vec<f64> {
        self.f_matrix().col_sums_f()
    }
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

    /// Event 1 timeline: a(t0), b(t1), a(t2), c(t1).
    /// Event 2 timeline: b(t0), a(t0) — tie, nobody follows.
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
        bld.add_mention(m(1, "b.co.uk", 1));
        bld.add_mention(m(1, "a.com", 2));
        bld.add_mention(m(1, "c.com.au", 1));
        bld.add_mention(m(2, "b.co.uk", 0));
        bld.add_mention(m(2, "a.com", 0));
        bld.build().0
    }

    fn subset(d: &Dataset) -> Vec<SourceId> {
        vec![
            d.sources.lookup("a.com").unwrap(),
            d.sources.lookup("b.co.uk").unwrap(),
            d.sources.lookup("c.com.au").unwrap(),
        ]
    }

    fn ctx() -> ExecContext {
        ExecContext::builder().threads(2).build()
    }

    #[test]
    fn follow_counts_respect_time_order() {
        let d = dataset();
        let fr = FollowReport::build(&ctx(), &d, &subset(&d));
        let (a, b, c) = (0, 1, 2);
        // b follows a once (event 1, t1 after t0).
        assert_eq!(fr.follow_counts.get(a, b), 1);
        // c follows a once (event 1, t1 after t0).
        assert_eq!(fr.follow_counts.get(a, c), 1);
        // a's second article follows b and c (t2 > t1) and itself (t0).
        assert_eq!(fr.follow_counts.get(b, a), 1);
        assert_eq!(fr.follow_counts.get(c, a), 1);
        assert_eq!(fr.follow_counts.get(a, a), 1, "self-follow diagonal");
        // Ties (event 2, both t0) produce no follows.
        assert_eq!(fr.follow_counts.get(b, c), 0);
        assert_eq!(fr.follow_counts.get(c, b), 0);
    }

    #[test]
    fn article_totals() {
        let d = dataset();
        let fr = FollowReport::build(&ctx(), &d, &subset(&d));
        assert_eq!(fr.articles, vec![3, 2, 1]);
    }

    #[test]
    fn f_matrix_normalizes_by_column() {
        let d = dataset();
        let fr = FollowReport::build(&ctx(), &d, &subset(&d));
        let f = fr.f_matrix();
        // f[a][b] = n_ab / n_b = 1/2.
        assert!((f.get(0, 1) - 0.5).abs() < 1e-12);
        // f[a][a] = 1/3 (one self-follow out of three articles).
        assert!((f.get(0, 0) - 1.0 / 3.0).abs() < 1e-12);
        let sums = fr.column_sums();
        assert_eq!(sums.len(), 3);
        // Column a: (1 self + 1 from b + 1 from c) / 3 articles = 1.0.
        assert!((sums[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn subset_order_defines_axes() {
        let d = dataset();
        let mut sel = subset(&d);
        sel.reverse();
        let fr = FollowReport::build(&ctx(), &d, &sel);
        // Now c is row/col 0 and a is 2: f_counts[c→a] position moves.
        assert_eq!(fr.follow_counts.get(0, 2), 1); // c followed by a
        assert_eq!(fr.articles, vec![1, 2, 3]);
    }

    #[test]
    fn unselected_sources_are_invisible() {
        let d = dataset();
        let only_a = vec![d.sources.lookup("a.com").unwrap()];
        let fr = FollowReport::build(&ctx(), &d, &only_a);
        assert_eq!(fr.follow_counts.get(0, 0), 1); // self-follow remains
        assert_eq!(fr.articles, vec![3]);
    }

    #[test]
    fn empty_subset_and_empty_dataset() {
        let d = dataset();
        let fr = FollowReport::build(&ctx(), &d, &[]);
        assert_eq!(fr.follow_counts.rows(), 0);
        assert!(fr.articles.is_empty());
        let empty = Dataset::default();
        let fr = FollowReport::build(&ctx(), &empty, &[]);
        assert!(fr.column_sums().is_empty());
    }

    #[test]
    fn parallel_matches_sequential() {
        let d = dataset();
        let sel = subset(&d);
        let seq = FollowReport::build(&ExecContext::builder().threads(1).build(), &d, &sel);
        let par = FollowReport::build(&ctx(), &d, &sel);
        assert_eq!(seq, par);
    }
}
