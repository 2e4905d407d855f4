//! Media-group discovery via Markov clustering (§VI-B follow-up).
//!
//! The paper observes that clusters of co-owned news websites "can be
//! found by applying clustering algorithms (e.g. Markov clustering) to
//! the co-reporting matrix". This module runs MCL on the Jaccard matrix
//! of the Top-k publishers ([`CoReport::publishers`]) and reports the
//! clusters — on the synthetic corpus the planted media group should
//! reassemble.

use gdelt_cluster::{mcl, CsrMatrix, MclParams};
use gdelt_columnar::Dataset;
use gdelt_engine::coreport::CoReport;
use gdelt_engine::{run_query, ExecContext, Query, QueryResult, TopKKind};
use gdelt_model::ids::SourceId;

/// Discovered publisher clusters.
#[derive(Debug, Clone)]
pub struct PublisherClusters {
    /// The analyzed publishers (cluster member indexes refer to this).
    pub publishers: Vec<SourceId>,
    /// Clusters as member lists (indexes into `publishers`), largest
    /// first.
    pub clusters: Vec<Vec<u32>>,
    /// MCL iterations used.
    pub iterations: usize,
}

/// Cluster the Top-`k` publishers by co-reporting similarity.
pub fn compute(ctx: &ExecContext, d: &Dataset, k: usize, params: MclParams) -> PublisherClusters {
    let q = Query::TopK { kind: TopKKind::Publishers, k: k.try_into().unwrap_or(u32::MAX) };
    let QueryResult::TopPublishers(top) = run_query(ctx, d, &q) else {
        unreachable!("TopK Publishers query yields a TopPublishers result");
    };
    let publishers: Vec<SourceId> = top.into_iter().map(|(s, _)| s).collect();
    let jac = CoReport::publishers(ctx, d, &publishers).jaccard_matrix();
    let mut triplets = Vec::new();
    for i in 0..jac.rows() {
        for j in 0..jac.cols() {
            let v = jac.get(i, j);
            if v > 0.0 {
                triplets.push((i as u32, j as u32, v));
            }
        }
    }
    let sim = CsrMatrix::from_triplets(publishers.len(), &triplets);
    let clustering = mcl(&sim, params);
    PublisherClusters {
        publishers,
        clusters: clustering.clusters,
        iterations: clustering.iterations,
    }
}

/// Render the clusters with domain names.
pub fn render(d: &Dataset, pc: &PublisherClusters) -> String {
    let mut out = format!(
        "Co-reporting clusters (MCL, {} publishers, {} iterations)\n",
        pc.publishers.len(),
        pc.iterations
    );
    for (i, members) in pc.clusters.iter().enumerate() {
        out.push_str(&format!("  cluster {} ({} members):", i + 1, members.len()));
        for &m in members.iter().take(8) {
            out.push_str(&format!(" {}", d.sources.name(pc.publishers[m as usize])));
        }
        if members.len() > 8 {
            out.push_str(" …");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdelt_engine::Matrix;
    use std::collections::{BTreeSet, HashMap};

    // A source population as wide as the paper's (≈ 8 000 of the 20 996
    // publish in this corpus, its headline events reaching thousands): the
    // top-30 co-report equals the per-event source sets restricted to
    // those 30, counted by hand.
    #[test]
    fn wide_directory_top30_matches_source_sets() {
        let mut cfg = gdelt_synth::scenario::tiny(7);
        cfg.n_sources = 20_996;
        let d = gdelt_synth::generate_dataset(&cfg).0;
        let q = Query::TopK { kind: TopKKind::Publishers, k: 30 };
        let ctx = ExecContext::builder().threads(1).build();
        let QueryResult::TopPublishers(top) = run_query(&ctx, &d, &q) else {
            unreachable!("TopK Publishers query yields a TopPublishers result");
        };
        let subset: Vec<SourceId> = top.into_iter().map(|(s, _)| s).collect();
        let slot: HashMap<SourceId, usize> =
            subset.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        let mut want = CoReport { pairs: Matrix::zeros(30, 30), event_counts: vec![0; 30] };
        for e in 0..d.events.len() {
            let slots: BTreeSet<usize> = d
                .mentions_of(e)
                .filter_map(|r| slot.get(&d.mentions.source_id(r)).copied())
                .collect();
            for &i in &slots {
                want.event_counts[i] += 1;
                for &j in slots.iter().filter(|&&j| j != i) {
                    want.pairs.bump(i, j);
                }
            }
        }
        assert!(d.sources.len() > 5_000, "directory of {} sources", d.sources.len());
        assert!(want.pairs.total() > 0);
        for threads in [1, 3] {
            let ctx = ExecContext::builder().threads(threads).build();
            assert_eq!(CoReport::publishers(&ctx, &d, &subset), want, "{threads} threads");
        }
    }

    #[test]
    fn planted_media_group_reassembles() {
        let mut cfg = gdelt_synth::scenario::tiny(42);
        cfg.cluster_pull = 0.8; // strengthen the block for a small corpus
        let d = gdelt_synth::generate_dataset(&cfg).0;
        let ctx = ExecContext::builder().threads(2).build();
        let pc = compute(&ctx, &d, 15, MclParams { inflation: 1.6, ..Default::default() });
        assert!(!pc.clusters.is_empty());
        // Find the cluster holding the most media-group members; it
        // should contain the bulk of the group.
        let group_slots: Vec<u32> = pc
            .publishers
            .iter()
            .enumerate()
            .filter(|(_, &s)| d.sources.name(s).contains("regionalgroup.co.uk"))
            .map(|(i, _)| i as u32)
            .collect();
        assert!(group_slots.len() >= 4, "media group not in top publishers");
        let best = pc
            .clusters
            .iter()
            .map(|c| group_slots.iter().filter(|s| c.contains(s)).count())
            .max()
            .unwrap_or(0);
        assert!(
            best * 2 > group_slots.len(),
            "media group split: best cluster holds {best}/{}",
            group_slots.len()
        );
        let text = render(&d, &pc);
        assert!(text.contains("cluster 1"));
    }
}
