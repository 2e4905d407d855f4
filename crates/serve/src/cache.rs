//! Sharded LRU result cache keyed on [`Query`] values.
//!
//! Sharding bounds lock contention: the shard index is derived from the
//! query's process-independent [`Query::cache_hash`], so a given query
//! always lands on the same shard. Each shard is a small `HashMap` with
//! counter-based LRU: a global tick stamps every access, and eviction
//! removes the entry with the smallest stamp (a linear scan — shards are
//! tens of entries, not thousands).
//!
//! Invalidation is generation-based. The generation is the stamp of
//! the service backend's data (see [`crate::backend::Backend::stamp`]);
//! when the service sees it move, [`ShardedCache::invalidate_all`]
//! publishes the new generation and clears every shard, and
//! [`ShardedCache::insert`] drops results computed against an older
//! generation so a slow worker can never re-populate the cache with
//! stale data.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::lock_recover;
use gdelt_engine::{Query, QueryResult};
use std::sync::Arc;

/// Result-cache shards of a service.
pub(crate) const CACHE_SHARDS: usize = 8;
/// Result-cache capacity per cache shard of a service. The replay mix
/// draws from 15 distinct queries, so 8 × 32 is far above need.
pub(crate) const CACHE_CAPACITY_PER_SHARD: usize = 32;

#[derive(Debug)]
struct Entry {
    value: Arc<QueryResult>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<Query, Entry>,
}

/// Monotonic counters describing cache behaviour since construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that returned a value.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries removed to make room.
    pub evictions: u64,
    /// Entries dropped by generation bumps (cleared or refused as stale).
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when there were no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The sharded LRU result cache. All methods take `&self`; internal
/// locking is per shard.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    tick: AtomicU64,
    generation: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl ShardedCache {
    /// Build a cache with `shards` shards of `capacity_per_shard`
    /// entries each (both clamped to at least 1), starting at
    /// generation 0.
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        let shards = shards.max(1);
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard: capacity_per_shard.max(1),
            tick: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn shard(&self, q: &Query) -> &Mutex<Shard> {
        let idx = (q.cache_hash() % self.shards.len() as u64) as usize;
        // analyze: allow(panic_path): idx = hash % shards.len() is always in bounds
        &self.shards[idx]
    }

    /// The dataset generation the cache currently accepts inserts for.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Look up `q`, bumping its recency and the hit/miss counters.
    // analyze: no_panic
    pub fn get(&self, q: &Query) -> Option<Arc<QueryResult>> {
        let mut shard = lock_recover(self.shard(q));
        match shard.map.get_mut(q) {
            Some(e) => {
                e.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.value))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Look up `q` without touching recency or the hit/miss counters —
    /// the worker's pre-execution double-check, which must not inflate
    /// the hit rate (the submission already counted a miss).
    // analyze: no_panic
    pub fn peek(&self, q: &Query) -> Option<Arc<QueryResult>> {
        let shard = lock_recover(self.shard(q));
        shard.map.get(q).map(|e| Arc::clone(&e.value))
    }

    /// Insert a result computed against dataset generation
    /// `computed_generation`. Stale results (generation has moved on)
    /// are refused and counted as invalidations. Evicts the
    /// least-recently-used entry when the shard is full.
    // analyze: no_panic
    pub fn insert(&self, q: Query, value: Arc<QueryResult>, computed_generation: u64) {
        let mut shard = lock_recover(self.shard(&q));
        // Checked under the shard lock so a concurrent invalidate_all
        // (which takes every shard lock) cannot interleave between the
        // check and the insert.
        if self.generation.load(Ordering::Acquire) != computed_generation {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        if shard.map.len() >= self.capacity_per_shard && !shard.map.contains_key(&q) {
            let victim = shard.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k);
            if let Some(v) = victim {
                shard.map.remove(&v);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(q, Entry { value, last_used: tick });
    }

    /// Publish a newer generation and drop every cached entry; a no-op
    /// unless `new_generation` is newer than the current one, so racing
    /// callers that saw the same move clear the cache once. Entries
    /// computed before the move are either refused by
    /// [`ShardedCache::insert`] or cleared here, since the generation is
    /// published before the shards are cleared.
    // analyze: no_panic
    pub fn invalidate_all(&self, new_generation: u64) {
        if self.generation.fetch_max(new_generation, Ordering::AcqRel) >= new_generation {
            return;
        }
        for shard in &self.shards {
            let mut s = lock_recover(shard);
            let dropped = s.map.len() as u64;
            s.map.clear();
            self.invalidations.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| lock_recover(s).map.len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdelt_engine::SeriesKind;

    fn result() -> Arc<QueryResult> {
        Arc::new(QueryResult::Delay(Vec::new()))
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = ShardedCache::new(4, 8);
        let q = Query::Delay;
        assert!(c.get(&q).is_none());
        c.insert(q, result(), 0);
        assert!(c.get(&q).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // One shard, capacity 2 → third distinct insert evicts the LRU.
        let c = ShardedCache::new(1, 2);
        let a = Query::FollowReport { top_k: 1 };
        let b = Query::FollowReport { top_k: 2 };
        let d = Query::FollowReport { top_k: 3 };
        c.insert(a, result(), 0);
        c.insert(b, result(), 0);
        assert!(c.get(&a).is_some()); // a is now more recent than b
        c.insert(d, result(), 0);
        assert!(c.peek(&b).is_none(), "b was the LRU entry");
        assert!(c.peek(&a).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn generation_bump_clears_and_refuses_stale() {
        let c = ShardedCache::new(2, 8);
        c.insert(Query::Delay, result(), 0);
        c.insert(Query::TimeSeries(SeriesKind::Events), result(), 0);
        c.invalidate_all(1);
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.stats().invalidations, 2);
        // A slow worker trying to re-populate with a stale result is refused.
        c.insert(Query::Delay, result(), 0);
        assert!(c.peek(&Query::Delay).is_none());
        // Fresh-generation insert is accepted.
        c.insert(Query::Delay, result(), 1);
        assert!(c.peek(&Query::Delay).is_some());
    }

    #[test]
    fn peek_does_not_count() {
        let c = ShardedCache::new(2, 8);
        assert!(c.peek(&Query::Delay).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }
}
