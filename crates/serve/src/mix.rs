//! Seeded synthetic query mixes and the one replay driver behind
//! `gdelt-cli serve-bench` and `chaos`, for either front door: a
//! `QueryService` or the shard router.
//!
//! The mix models the workload shape the serving layer is built for:
//! a small population of distinct analyses requested over and over with
//! minor parameter variations (media-landscape dashboards, §IV). Repeat
//! probability is high by construction — the pool has ~15 distinct
//! queries — so a correct cache turns most of the replay into hits.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use gdelt_engine::{Query, SeriesKind, TopKKind};
use rand::{Rng, SeedableRng};

use crate::error::ServeError;

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The weighted pool of distinct queries the mix draws from. Weights
/// skew toward the cheap dashboard staples, with the heavy CSR passes
/// as the long tail.
fn query_pool() -> Vec<(Query, u32)> {
    vec![
        (Query::TopK { kind: TopKKind::Publishers, k: 10 }, 10),
        (Query::TopK { kind: TopKKind::Publishers, k: 50 }, 6),
        (Query::TopK { kind: TopKKind::Events, k: 10 }, 8),
        (Query::TopK { kind: TopKKind::Events, k: 100 }, 4),
        (Query::TimeSeries(SeriesKind::Events), 8),
        (Query::TimeSeries(SeriesKind::Articles), 8),
        (Query::TimeSeries(SeriesKind::ActiveSources), 5),
        (Query::TimeSeries(SeriesKind::LateArticles { threshold: 96 }), 4),
        (Query::TimeSeries(SeriesKind::LateArticles { threshold: 672 }), 2),
        (Query::Delay, 5),
        (Query::CrossCountry, 4),
        (Query::CoReport, 3),
        (Query::FollowReport { top_k: 10 }, 3),
        (Query::FollowReport { top_k: 50 }, 1),
        (Query::TopK { kind: TopKKind::Publishers, k: 1000 }, 1),
    ]
}

/// Draw a deterministic mix of `n` queries from the weighted pool.
pub fn seeded_mix(n: usize, seed: u64) -> Vec<Query> {
    let pool = query_pool();
    let total: u32 = pool.iter().map(|(_, w)| w).sum();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut roll = rng.gen_range(0..total);
            for (q, w) in &pool {
                if roll < *w {
                    return *q;
                }
                roll -= w;
            }
            Query::Delay // unreachable: roll < total by construction
        })
        .collect()
}

/// What one replayed submission experienced.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Position in the mix (cold/warm classification).
    index: usize,
    latency_us: u64,
    outcome: Outcome,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Completed,
    Shed,
    Failed,
}

/// Aggregated replay results, split into *cold* submissions (the first
/// occurrence of each distinct query in the mix) and *warm* repeats —
/// the population the cache is supposed to accelerate.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Queries submitted.
    pub total: usize,
    /// Queries that returned a result.
    pub completed: usize,
    /// Queries shed by admission control.
    pub sheds: usize,
    /// Queries that failed for another reason (e.g. shutdown).
    pub errors: usize,
    /// Median end-to-end latency of cold submissions, microseconds.
    pub cold_p50_us: u64,
    /// Median end-to-end latency of warm (repeat) submissions.
    pub warm_p50_us: u64,
    /// Cold submissions observed.
    pub cold_count: usize,
    /// Warm submissions observed.
    pub warm_count: usize,
}

impl ReplayReport {
    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        format!(
            "replay: {total} submitted, {completed} completed, {sheds} shed, {errors} errors\n\
             \x20 cold p50 {cold} us over {cold_n} first-occurrence queries\n\
             \x20 warm p50 {warm} us over {warm_n} repeats",
            total = self.total,
            completed = self.completed,
            sheds = self.sheds,
            errors = self.errors,
            cold = self.cold_p50_us,
            cold_n = self.cold_count,
            warm = self.warm_p50_us,
            warm_n = self.warm_count,
        )
    }
}

fn median(sorted: &[u64]) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted.get(sorted.len() / 2).copied().unwrap_or(0)
    }
}

/// Replay `mix` through `front_door` from `clients` concurrent client
/// threads (clamped to at least 1). Each call blocks for its result;
/// per-call end-to-end latency is classified cold or warm by whether an
/// identical query appeared earlier in the mix. A front door is
/// `|q| service.run(q)` or `|q| router.query(&q)`.
pub fn replay<T>(
    front_door: impl Fn(Query) -> Result<T, ServeError> + Sync,
    mix: &[Query],
    clients: usize,
) -> ReplayReport {
    let clients = clients.max(1).min(mix.len().max(1));
    let next = AtomicUsize::new(0);
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::with_capacity(mix.len()));

    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut local: Vec<Sample> = Vec::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(query) = mix.get(index).copied() else { break };
                    let t0 = Instant::now();
                    let outcome = match front_door(query) {
                        Ok(_) => Outcome::Completed,
                        Err(ServeError::Overloaded { .. }) => Outcome::Shed,
                        Err(_) => Outcome::Failed,
                    };
                    local.push(Sample {
                        index,
                        latency_us: t0.elapsed().as_micros() as u64,
                        outcome,
                    });
                }
                // analyze: allow(par_race): `samples` is a Mutex; the extend goes through its guard
                lock_recover(&samples).extend(local);
            });
        }
    });

    // First occurrence of each distinct query in mix order = cold.
    let mut seen = std::collections::HashSet::new();
    let cold: std::collections::HashSet<usize> =
        mix.iter().enumerate().filter(|(_, q)| seen.insert(**q)).map(|(i, _)| i).collect();

    let samples = lock_recover(&samples);
    let mut cold_lat = Vec::new();
    let mut warm_lat = Vec::new();
    let (mut completed, mut sheds, mut errors) = (0usize, 0usize, 0usize);
    for s in samples.iter() {
        match s.outcome {
            Outcome::Completed => {
                completed += 1;
                if cold.contains(&s.index) {
                    cold_lat.push(s.latency_us);
                } else {
                    warm_lat.push(s.latency_us);
                }
            }
            Outcome::Shed => sheds += 1,
            Outcome::Failed => errors += 1,
        }
    }
    cold_lat.sort_unstable();
    warm_lat.sort_unstable();
    ReplayReport {
        total: mix.len(),
        completed,
        sheds,
        errors,
        cold_p50_us: median(&cold_lat),
        warm_p50_us: median(&warm_lat),
        cold_count: cold_lat.len(),
        warm_count: warm_lat.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_per_seed() {
        assert_eq!(seeded_mix(200, 42), seeded_mix(200, 42));
        assert_ne!(seeded_mix(200, 42), seeded_mix(200, 43));
    }

    #[test]
    fn mix_repeats_queries() {
        let mix = seeded_mix(200, 42);
        let distinct: std::collections::HashSet<Query> = mix.iter().copied().collect();
        assert!(distinct.len() <= query_pool().len());
        assert!(
            distinct.len() < mix.len() / 2,
            "a 200-query mix over a ~15-query pool must repeat heavily"
        );
    }

    #[test]
    fn replay_accounts_for_every_outcome() {
        let mix = seeded_mix(300, 42);
        // A front door that sheds every Delay and fails every CoReport.
        let door = |q: Query| match q {
            Query::Delay => Err(ServeError::Overloaded { queue_depth: 64, queue_limit: 64 }),
            Query::CoReport => Err(ServeError::ShuttingDown),
            _ => Ok(()),
        };
        let report = replay(door, &mix, 3);
        let count = |want: Query| mix.iter().filter(|q| **q == want).count();
        let (sheds, errors) = (count(Query::Delay), count(Query::CoReport));
        assert!(sheds > 0 && errors > 0, "the mix must draw both refused shapes");
        assert_eq!(report.total, mix.len());
        assert_eq!(report.sheds, sheds);
        assert_eq!(report.errors, errors);
        assert_eq!(report.completed, mix.len() - sheds - errors);
        assert_eq!(report.completed + report.sheds + report.errors, report.total);
        // Cold = first occurrence of each distinct answered query.
        let answered: std::collections::HashSet<Query> =
            mix.iter().copied().filter(|q| !matches!(q, Query::Delay | Query::CoReport)).collect();
        assert_eq!(report.cold_count, answered.len());
        assert_eq!(report.warm_count, report.completed - answered.len());
    }

    #[test]
    fn mix_draws_are_in_pool() {
        let pool: Vec<Query> = query_pool().into_iter().map(|(q, _)| q).collect();
        for q in seeded_mix(500, 7) {
            assert!(pool.contains(&q), "{q} not in pool");
        }
    }
}
