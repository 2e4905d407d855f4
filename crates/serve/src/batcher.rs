//! The job queue between admission and the worker pool: tickets and
//! single-flight coalescing.
//!
//! *Single-flight*: if an identical [`Query`] is already pending or
//! running, a new submission does not enqueue a second job — its ticket
//! joins the existing job's waiter list and every waiter is resolved
//! from the one execution. Workers take pending jobs in FIFO order.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use gdelt_engine::Query;

use crate::backend::CoveredAnswer;
use crate::error::ServeError;
use crate::lock_recover;

/// What a ticket resolves to.
pub(crate) type Outcome = Result<CoveredAnswer, ServeError>;

/// Shared completion slot between a ticket and the queue.
#[derive(Debug, Default)]
pub(crate) struct TicketState {
    slot: Mutex<Option<Outcome>>,
    cv: Condvar,
}

impl TicketState {
    pub(crate) fn resolve(&self, r: Outcome) {
        let mut slot = lock_recover(&self.slot);
        if slot.is_none() {
            *slot = Some(r);
        }
        drop(slot);
        self.cv.notify_all();
    }
}

/// A claim on one submitted query's eventual result. Obtained from
/// `QueryService::submit`; redeem with [`QueryTicket::get`] (blocking)
/// or [`QueryTicket::get_timeout`].
#[derive(Debug)]
pub struct QueryTicket {
    state: Arc<TicketState>,
}

impl QueryTicket {
    pub(crate) fn new() -> (Self, Arc<TicketState>) {
        let state = Arc::new(TicketState::default());
        (QueryTicket { state: Arc::clone(&state) }, state)
    }

    /// A ticket that is already resolved — the cache-hit fast path.
    pub(crate) fn resolved(r: Outcome) -> Self {
        let (t, state) = Self::new();
        state.resolve(r);
        t
    }

    /// Block until the query completes.
    pub fn get(&self) -> Result<CoveredAnswer, ServeError> {
        self.get_timeout(Duration::MAX)
    }

    /// Block until the query completes or `timeout` elapses. On expiry
    /// the ticket stays redeemable: the query keeps running and may
    /// still populate the cache.
    pub fn get_timeout(&self, timeout: Duration) -> Result<CoveredAnswer, ServeError> {
        let start = Instant::now();
        let mut slot = lock_recover(&self.state.slot);
        loop {
            if let Some(r) = slot.as_ref() {
                return r.clone();
            }
            let waited = start.elapsed();
            let Some(remaining) = timeout.checked_sub(waited) else {
                return Err(ServeError::TimedOut { waited_ms: waited.as_millis() as u64 });
            };
            let (guard, _timed_out) =
                self.state.cv.wait_timeout(slot, remaining).unwrap_or_else(PoisonError::into_inner);
            slot = guard;
        }
    }
}

#[derive(Debug)]
struct PendingJob {
    query: Query,
    waiters: Vec<Arc<TicketState>>,
}

#[derive(Debug, Default)]
struct QueueState {
    pending: VecDeque<PendingJob>,
    running: Vec<(Query, Vec<Arc<TicketState>>)>,
    shutdown: bool,
}

/// How an enqueue request was handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Enqueued {
    /// A new job was queued.
    New,
    /// The ticket joined an identical pending or running job.
    Coalesced,
    /// The queue is shut down; the ticket was resolved with an error.
    Rejected,
}

/// The pending/running job queue shared by submitters and workers.
#[derive(Debug, Default)]
pub(crate) struct JobQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    coalesced: AtomicU64,
}

impl JobQueue {
    /// Submit `query`, returning a ticket and how it was handled.
    pub(crate) fn enqueue(&self, query: Query) -> (QueryTicket, Enqueued) {
        let (ticket, state) = QueryTicket::new();
        let mut qs = lock_recover(&self.state);
        if qs.shutdown {
            drop(qs);
            state.resolve(Err(ServeError::ShuttingDown));
            return (ticket, Enqueued::Rejected);
        }
        if let Some((_, waiters)) = qs.running.iter_mut().find(|(q, _)| *q == query) {
            waiters.push(state);
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            return (ticket, Enqueued::Coalesced);
        }
        if let Some(job) = qs.pending.iter_mut().find(|j| j.query == query) {
            job.waiters.push(state);
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            return (ticket, Enqueued::Coalesced);
        }
        qs.pending.push_back(PendingJob { query, waiters: vec![state] });
        drop(qs);
        self.cv.notify_one();
        (ticket, Enqueued::New)
    }

    /// Block for the oldest pending job and mark it running. Returns
    /// `None` once the queue is shut down.
    pub(crate) fn next_job(&self) -> Option<Query> {
        let mut qs = lock_recover(&self.state);
        loop {
            if qs.shutdown {
                return None;
            }
            if let Some(job) = qs.pending.pop_front() {
                qs.running.push((job.query, job.waiters));
                return Some(job.query);
            }
            qs = self.cv.wait(qs).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Retire the running job for `query`, handing back its waiters
    /// (the caller resolves them).
    pub(crate) fn finish(&self, query: &Query) -> Vec<Arc<TicketState>> {
        let mut qs = lock_recover(&self.state);
        match qs.running.iter().position(|(q, _)| q == query) {
            Some(i) => qs.running.swap_remove(i).1,
            None => Vec::new(),
        }
    }

    /// Stop accepting work, wake every worker, and hand back the waiters
    /// of jobs that never started (the caller resolves them).
    pub(crate) fn shutdown_and_drain(&self) -> Vec<Arc<TicketState>> {
        let drained = {
            let mut qs = lock_recover(&self.state);
            qs.shutdown = true;
            qs.pending.drain(..).flat_map(|j| j.waiters).collect()
        };
        self.cv.notify_all();
        drained
    }

    /// Tickets that joined an existing job instead of enqueuing one.
    pub(crate) fn coalesced_count(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdelt_columnar::Coverage;
    use gdelt_engine::{QueryResult, SeriesKind};

    fn complete(q: &JobQueue, job: &Query) {
        let result = Arc::new(QueryResult::Delay(Vec::new()));
        for w in q.finish(job) {
            w.resolve(Ok(CoveredAnswer {
                result: Arc::clone(&result),
                coverage: Coverage::full(),
            }));
        }
    }

    #[test]
    fn identical_submissions_coalesce() {
        let q = JobQueue::default();
        let (t1, e1) = q.enqueue(Query::Delay);
        let (t2, e2) = q.enqueue(Query::Delay);
        assert_eq!(e1, Enqueued::New);
        assert_eq!(e2, Enqueued::Coalesced);
        assert_eq!(q.coalesced_count(), 1);
        // One job comes out; completing it resolves both tickets.
        let job = q.next_job().unwrap();
        assert_eq!(job, Query::Delay);
        complete(&q, &job);
        assert!(t1.get().is_ok());
        assert!(t2.get().is_ok());
    }

    #[test]
    fn coalesces_onto_running_jobs_too() {
        let q = JobQueue::default();
        let (_t1, _) = q.enqueue(Query::Delay);
        let job = q.next_job().unwrap(); // now running, queue empty
        let (t2, e2) = q.enqueue(Query::Delay);
        assert_eq!(e2, Enqueued::Coalesced);
        complete(&q, &job);
        assert!(t2.get().is_ok());
    }

    #[test]
    fn jobs_come_out_in_submission_order() {
        let q = JobQueue::default();
        // Three scan families, interleaved: mentions, csr, quarters,
        // mentions, csr.
        let submitted = [
            Query::CrossCountry,
            Query::CoReport,
            Query::TimeSeries(SeriesKind::Events),
            Query::Delay,
            Query::FollowReport { top_k: 5 },
        ];
        for s in submitted {
            q.enqueue(s);
        }
        let taken: Vec<Query> = submitted.iter().map(|_| q.next_job().unwrap()).collect();
        assert_eq!(taken, submitted, "no job of any family jumps the queue");
    }

    #[test]
    fn shutdown_rejects_and_drains() {
        let q = JobQueue::default();
        let (t1, _) = q.enqueue(Query::Delay);
        let drained = q.shutdown_and_drain();
        assert_eq!(drained.len(), 1);
        for w in drained {
            w.resolve(Err(ServeError::ShuttingDown));
        }
        assert_eq!(t1.get(), Err(ServeError::ShuttingDown));
        let (t2, e2) = q.enqueue(Query::Delay);
        assert_eq!(e2, Enqueued::Rejected);
        assert_eq!(t2.get(), Err(ServeError::ShuttingDown));
        assert!(q.next_job().is_none());
    }

    #[test]
    fn ticket_timeout_expires_then_redeems() {
        let q = JobQueue::default();
        let (t, _) = q.enqueue(Query::Delay);
        let err = t.get_timeout(Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, ServeError::TimedOut { .. }));
        let job = q.next_job().unwrap();
        complete(&q, &job);
        assert!(t.get().is_ok(), "ticket stays redeemable after a timeout");
    }
}
