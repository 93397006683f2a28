//! A concurrent pool built from sharded SEC stacks.
//!
//! The paper's introduction lists concurrent pools as a primary client
//! of concurrent stacks (Herlihy & Shavit §10–11: a pool is a
//! bag — `put`/`get` with no ordering guarantee — and LIFO stacks make
//! the best pool backends because recently freed items are cache-hot).
//! This module composes the SEC stack into exactly that: one
//! single-aggregator SEC stack per *shard*, producer/consumer affinity
//! by thread id, and work-stealing scans on empty shards.
//!
//! Because each shard is an independently linearizable stack and `get`
//! may take from any shard, the pool is not itself LIFO — the contract
//! is conservation (every put is got at most/exactly once), emptiness
//! only when all shards are empty, and the usual pool liveness.

use crate::config::{AggregatorPolicy, RecyclePolicy, SecConfig, WaitPolicy};
use crate::sec::{SecHandle, SecStack};
use core::fmt;
use sec_reclaim::CollectorStats;

/// A relaxed-semantics concurrent pool over sharded SEC stacks.
///
/// # Examples
///
/// ```
/// use sec_core::pool::SecPool;
///
/// let pool: SecPool<u32> = SecPool::new(2, 4); // 2 shards, ≤4 threads
/// let mut h = pool.register();
/// h.put(7);
/// assert_eq!(h.get(), Some(7));
/// assert_eq!(h.get(), None);
/// ```
pub struct SecPool<T: Send + 'static> {
    shards: Box<[SecStack<T>]>,
}

impl<T: Send + 'static> SecPool<T> {
    /// Creates a pool with `shards` shards supporting up to
    /// `max_threads` registered threads.
    ///
    /// Every shard must admit every thread (a `get` scan can touch all
    /// shards), so each shard is built for `max_threads` handles; a
    /// shard is one single-aggregator SEC stack — the sharding *is* the
    /// aggregator layer, lifted to pool level.
    pub fn new(shards: usize, max_threads: usize) -> Self {
        Self::with_recycle(shards, max_threads, RecyclePolicy::default())
    }

    /// [`SecPool::new`] with an explicit node-recycling policy, applied
    /// to every shard stack (the default is
    /// [`RecyclePolicy::per_thread`]).
    pub fn with_recycle(shards: usize, max_threads: usize, recycle: RecyclePolicy) -> Self {
        Self::with_config(shards, SecConfig::new(1, max_threads).recycle(recycle))
    }

    /// [`SecPool::new`] with an explicit blocking-wait policy, applied
    /// to every shard stack (the default is
    /// [`WaitPolicy::spin_then_park`] — DESIGN.md §11).
    pub fn with_wait(shards: usize, max_threads: usize, wait: WaitPolicy) -> Self {
        Self::with_config(shards, SecConfig::new(1, max_threads).wait_policy(wait))
    }

    /// The general constructor: every shard is built from `config`
    /// with the aggregator layer forced to a single fixed aggregator —
    /// pool-level sharding *is* the aggregator layer, lifted. All
    /// other knobs (recycling, wait policy, freezer backoff) pass
    /// through to the shard stacks.
    pub fn with_config(shards: usize, config: SecConfig) -> Self {
        let shards = shards.max(1);
        let shard_config = SecConfig {
            aggregators: 1,
            policy: AggregatorPolicy::Fixed(1),
            max_threads: config.max_threads.max(1),
            ..config
        };
        Self {
            shards: (0..shards)
                .map(|_| SecStack::with_config(shard_config))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Registers the calling thread with every shard.
    ///
    /// # Panics
    ///
    /// If more threads register than the pool was constructed for.
    pub fn register(&self) -> PoolHandle<'_, T> {
        let handles: Vec<SecHandle<'_, T>> = self.shards.iter().map(|s| s.register()).collect();
        // Home shard: spread threads by their (dense) tid.
        let home = handles[0].tid() % self.shards.len();
        PoolHandle { handles, home }
    }

    /// Reclamation statistics summed over every shard's collector
    /// (`epoch` reports the maximum across shards — the shards advance
    /// independently).
    pub fn reclaim_stats(&self) -> CollectorStats {
        self.shards
            .iter()
            .map(|s| s.reclaim_stats())
            .fold(CollectorStats::default(), sum_stats)
    }

    /// Drives every shard's reclamation to completion (up to `rounds`
    /// advances each) and returns the summed stats; see
    /// [`SecStack::quiesce_reclamation`].
    pub fn quiesce_reclamation(&self, rounds: usize) -> CollectorStats {
        self.shards
            .iter()
            .map(|s| s.quiesce_reclamation(rounds))
            .fold(CollectorStats::default(), sum_stats)
    }

    /// Aggregate park/wake/spurious-wake counters summed over every
    /// shard stack (DESIGN.md §11): `(parks, wakes, spurious_wakes)`.
    pub fn wait_counters(&self) -> (u64, u64, u64) {
        let (mut parks, mut wakes, mut spurious) = (0u64, 0u64, 0u64);
        for s in self.shards.iter() {
            let r = s.stats().report();
            parks += r.parks;
            wakes += r.wakes;
            spurious += r.spurious_wakes;
        }
        (parks, wakes, spurious)
    }

    /// A point-in-time poll of the pool's protocol counters, folded
    /// over every shard (counters sum; `at_ns` and
    /// `active_aggregators` take the shard maxima). See
    /// [`SecStack::trace_snapshot`].
    pub fn trace_snapshot(&self) -> crate::TraceSnapshot {
        self.shards.iter().map(|s| s.trace_snapshot()).fold(
            crate::TraceSnapshot::default(),
            |acc, s| crate::TraceSnapshot {
                at_ns: acc.at_ns.max(s.at_ns),
                ops: acc.ops + s.ops,
                batches: acc.batches + s.batches,
                eliminated: acc.eliminated + s.eliminated,
                combined: acc.combined + s.combined,
                solo: acc.solo + s.solo,
                solo_fallbacks: acc.solo_fallbacks + s.solo_fallbacks,
                parks: acc.parks + s.parks,
                wakes: acc.wakes + s.wakes,
                grows: acc.grows + s.grows,
                shrinks: acc.shrinks + s.shrinks,
                active_aggregators: acc.active_aggregators.max(s.active_aggregators),
            },
        )
    }

    /// Shard `idx`'s sec-trace recorder, when configured under the
    /// `trace` cargo feature (see
    /// [`SecStack::tracer`](crate::SecStack::tracer)); the pool has one
    /// recorder per shard stack.
    pub fn tracer(&self, idx: usize) -> Option<&crate::TraceRecorder> {
        self.shards.get(idx).and_then(|s| s.tracer())
    }

    /// Aggregate elimination share across shards (diagnostic).
    pub fn pct_eliminated(&self) -> f64 {
        let (mut elim, mut ops) = (0u64, 0u64);
        for s in self.shards.iter() {
            let r = s.stats().report();
            elim += r.eliminated;
            ops += r.ops;
        }
        if ops == 0 {
            0.0
        } else {
            100.0 * elim as f64 / ops as f64
        }
    }
}

/// Per-shard collector stats folded into a pool-wide aggregate.
fn sum_stats(acc: CollectorStats, s: CollectorStats) -> CollectorStats {
    CollectorStats {
        epoch: acc.epoch.max(s.epoch),
        retired: acc.retired + s.retired,
        freed: acc.freed + s.freed,
        cached: acc.cached + s.cached,
        recycle_hits: acc.recycle_hits + s.recycle_hits,
        recycle_misses: acc.recycle_misses + s.recycle_misses,
        recycle_overflows: acc.recycle_overflows + s.recycle_overflows,
    }
}

impl<T: Send + 'static> fmt::Debug for SecPool<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecPool")
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// Per-thread handle to a [`SecPool`].
pub struct PoolHandle<'a, T: Send + 'static> {
    handles: Vec<SecHandle<'a, T>>,
    home: usize,
}

impl<T: Send + 'static> PoolHandle<'_, T> {
    /// This thread's home shard index.
    pub fn home(&self) -> usize {
        self.home
    }

    /// A pool-wide protocol-counter poll through this handle (see
    /// [`SecPool::trace_snapshot`]).
    pub fn trace_snapshot(&self) -> crate::TraceSnapshot {
        self.handles.iter().map(|h| h.trace_snapshot()).fold(
            crate::TraceSnapshot::default(),
            |acc, s| crate::TraceSnapshot {
                at_ns: acc.at_ns.max(s.at_ns),
                ops: acc.ops + s.ops,
                batches: acc.batches + s.batches,
                eliminated: acc.eliminated + s.eliminated,
                combined: acc.combined + s.combined,
                solo: acc.solo + s.solo,
                solo_fallbacks: acc.solo_fallbacks + s.solo_fallbacks,
                parks: acc.parks + s.parks,
                wakes: acc.wakes + s.wakes,
                grows: acc.grows + s.grows,
                shrinks: acc.shrinks + s.shrinks,
                active_aggregators: acc.active_aggregators.max(s.active_aggregators),
            },
        )
    }

    /// Adds `value` to the pool (home shard: keeps producer/consumer
    /// pairs on the same shard, where SEC's elimination pairs them off
    /// without touching the shard stack).
    pub fn put(&mut self, value: T) {
        self.handles[self.home].push(value);
    }

    /// Takes some element, preferring the home shard, stealing from the
    /// others if it is empty. `None` only if every shard reported
    /// empty during the scan.
    pub fn get(&mut self) -> Option<T> {
        let n = self.handles.len();
        for off in 0..n {
            let idx = (self.home + off) % n;
            if let Some(v) = self.handles[idx].pop() {
                return Some(v);
            }
        }
        None
    }
}

impl<T: Send + 'static> fmt::Debug for PoolHandle<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolHandle")
            .field("home", &self.home)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread;

    #[test]
    fn put_get_roundtrip_single_thread() {
        let pool: SecPool<u32> = SecPool::new(3, 1);
        let mut h = pool.register();
        for i in 0..20 {
            h.put(i);
        }
        let mut got = HashSet::new();
        for _ in 0..20 {
            assert!(got.insert(h.get().expect("pool has elements")));
        }
        assert_eq!(h.get(), None);
        assert_eq!(got.len(), 20);
    }

    #[test]
    fn zero_shards_clamped() {
        let pool: SecPool<u8> = SecPool::new(0, 1);
        assert_eq!(pool.shards(), 1);
    }

    #[test]
    fn stealing_finds_other_shards_elements() {
        let pool: SecPool<u32> = SecPool::new(4, 2);
        thread::scope(|s| {
            let p = &pool;
            s.spawn(move || {
                let mut h = p.register();
                for i in 0..10 {
                    h.put(i);
                }
            })
            .join()
            .unwrap();
            let p2 = &pool;
            s.spawn(move || {
                let mut h = p2.register();
                // Different home shard, must steal everything.
                for _ in 0..10 {
                    assert!(h.get().is_some());
                }
                assert_eq!(h.get(), None);
            })
            .join()
            .unwrap();
        });
    }

    #[test]
    fn concurrent_conservation_across_shards() {
        const THREADS: usize = 8;
        const PER: usize = 1_000;
        let pool: SecPool<u64> = SecPool::new(2, THREADS + 1);
        let got: Vec<Vec<u64>> = thread::scope(|scope| {
            (0..THREADS)
                .map(|t| {
                    let pool = &pool;
                    scope.spawn(move || {
                        let mut h = pool.register();
                        let mut got = Vec::new();
                        for i in 0..PER {
                            h.put((t * PER + i) as u64);
                            if i % 2 == 0 {
                                if let Some(v) = h.get() {
                                    got.push(v);
                                }
                            }
                        }
                        got
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect()
        });
        let mut seen = HashSet::new();
        for v in got.into_iter().flatten() {
            assert!(seen.insert(v), "duplicate {v}");
        }
        let mut h = pool.register();
        while let Some(v) = h.get() {
            assert!(seen.insert(v), "duplicate {v} in drain");
        }
        assert_eq!(seen.len(), THREADS * PER, "lost values");
    }

    #[test]
    fn home_shards_are_spread() {
        let pool: SecPool<u8> = SecPool::new(2, 4);
        let h0 = pool.register();
        let h1 = pool.register();
        // Dense tids 0 and 1 land on different shards.
        assert_ne!(h0.home(), h1.home());
    }

    #[test]
    fn elimination_statistic_is_wired() {
        let pool: SecPool<u64> = SecPool::new(1, 4);
        thread::scope(|scope| {
            for _ in 0..4 {
                let pool = &pool;
                scope.spawn(move || {
                    let mut h = pool.register();
                    for i in 0..500 {
                        h.put(i);
                        let _ = h.get();
                    }
                });
            }
        });
        // Just verify the statistic aggregates without panicking and is
        // a percentage.
        let pct = pool.pct_eliminated();
        assert!((0.0..=100.0).contains(&pct));
    }
}
