//! `serve-live`: `QueryService` is the front door, with live appends.

use super::{build_from_records, served_of};
use crate::corpus::{Corpus, Slice};
use crate::door::{Checked, Door, Schedule, SetupClock};
use crate::ops::{all_queries, Bundle, DASH, REPORT};
use crate::trace::Tracer;
use gdelt_engine::{run_query, ExecContext, Query};
use gdelt_serve::{QueryService, ServiceConfig};
use std::collections::VecDeque;

pub struct ServeLive {
    svc: QueryService,
    check_ctx: ExecContext,
    slices: VecDeque<Slice>,
    /// Cache (hits, misses) after the previous round's checks.
    cache_seen: (u64, u64),
}

impl ServeLive {
    pub fn set_up(corpus: &mut Corpus, threads: usize, clock: &mut SetupClock) -> Self {
        let data = build_from_records(corpus, clock);
        // One worker: the single closed-loop client never has two queries
        // in flight, and the worker's engine calls use every core.
        let config = ServiceConfig {
            workers: 1,
            cache_enabled: true,
            threads: Some(threads),
            ..ServiceConfig::default()
        };
        let svc = clock.time(|| QueryService::new(data, config));
        ServeLive {
            svc,
            check_ctx: ExecContext::builder().threads(threads).build(),
            slices: std::mem::take(&mut corpus.slices),
            cache_seen: (0, 0),
        }
    }

    fn run_all(
        &self,
        tr: &mut Tracer,
        op: &'static str,
        queries: &[Query],
    ) -> Result<Bundle, String> {
        let open = tr.begin(op, "harness");
        let out = queries
            .iter()
            .map(|q| tr.call("QueryService::run", "serve", || self.svc.run(*q)))
            .collect::<Result<Bundle, _>>();
        tr.end(open);
        out.map_err(|e| format!("{op}: {e}"))
    }

    fn cache_counts(&self) -> (u64, u64) {
        let c = self.svc.metrics().cache;
        (c.hits, c.misses)
    }
}

impl Door for ServeLive {
    fn schedule(&self) -> Schedule {
        Schedule { reads_per_round: 1, write_every: 1, write_first: true }
    }

    fn report(&mut self, tr: &mut Tracer) -> Result<Bundle, String> {
        self.run_all(tr, "report", &REPORT)
    }

    fn dash(&mut self, tr: &mut Tracer) -> Result<Bundle, String> {
        self.run_all(tr, "dash", &DASH)
    }

    /// The generation bump: every cached answer is invalidated, so the
    /// round's reads are all misses by construction.
    fn write(&mut self, tr: &mut Tracer) -> Result<bool, String> {
        let Some((events, mentions)) = self.slices.pop_front() else { return Ok(false) };
        let open = tr.begin("write", "harness");
        tr.call("QueryService::apply_batch", "serve", || self.svc.apply_batch(events, mentions));
        tr.end(open);
        Ok(true)
    }

    /// Three checks: the fresh reads really missed the cache; each query
    /// asked again is a hit that equals its fresh answer (no stale
    /// entry survived the write); and one query of each bundle, rotating,
    /// equals `run_query` on the service's own dataset. Recomputing all
    /// ten every round would cost as much again as the reads.
    fn verify(&mut self, round: usize, reports: &[Bundle], dashes: &[Bundle]) -> Checked {
        let mut c = Checked::default();
        let fresh: Vec<_> = reports.iter().chain(dashes).flatten().collect();
        let queries = all_queries();
        let (hits, misses) = self.cache_counts();
        c.wrong +=
            (misses - self.cache_seen.1).abs_diff(fresh.len() as u64) + (hits - self.cache_seen.0);
        for (q, want) in queries.iter().zip(&fresh) {
            c.extra_ops += 1;
            c.wrong += u64::from(!matches!(self.svc.run(*q), Ok(again) if again == **want));
        }
        let (hits_after, misses_after) = self.cache_counts();
        c.wrong += (hits_after - hits).abs_diff(queries.len() as u64) + (misses_after - misses);
        self.cache_seen = (hits_after, misses_after);

        let data = self.svc.dataset();
        for at in [round % REPORT.len(), REPORT.len() + round % DASH.len()] {
            let want = run_query(&self.check_ctx, &data, &queries[at]);
            c.wrong += u64::from(fresh.get(at).is_none_or(|got| ***got != want));
        }
        c
    }

    fn served(&self) -> (usize, usize, usize) {
        served_of(&self.svc.dataset())
    }
}
