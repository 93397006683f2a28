//! Batching/elimination/combining instrumentation (Tables 1–3 of the
//! paper).
//!
//! The freezer knows, at the moment it freezes a batch, exactly how the
//! batch will decompose: `pushes + pops` operations belong to it,
//! `2 · min(pushes, pops)` of them eliminate each other, and the
//! remaining `|pushes − pops|` are applied by the combiner. Recording
//! these three numbers with relaxed counters costs three uncontended
//! atomic adds per *batch* (not per operation) and lets the harness
//! print the paper's Table 1 rows: batching degree, %elimination,
//! %combining.

use crate::trace::{DegreeDist, Histogram};
use core::sync::atomic::{AtomicU64, Ordering};
use sec_sync::event::WaitStats;
use sec_sync::CachePadded;

/// One thread's solo-path tallies, on a cache line of its own: the solo
/// path's only shared-line write is its CAS on the structure.
#[derive(Debug, Default)]
struct SoloCell {
    solo: AtomicU64,
    fallbacks: AtomicU64,
}

/// Adds one to a counter only its owning thread writes: a load and a
/// store, without the locked read-modify-write a `fetch_add` costs.
#[inline]
fn bump(c: &AtomicU64) {
    c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// Relaxed counters aggregated over the lifetime of one [`SecStack`].
///
/// Besides the paper's Table 1 measures, elastic sharding (DESIGN.md
/// §8) adds three counters: central-stack CAS failures (combiner
/// contention on `stackTop`, one of the monitor's inputs) and the
/// grow/shrink resize transitions the monitor or a manual
/// [`SecStack::set_active_aggregators`] performed. The solo fast path
/// (DESIGN.md §17) adds two more, kept per thread and summed by
/// [`SecStats::report`].
///
/// [`SecStack`]: crate::SecStack
/// [`SecStack::set_active_aggregators`]: crate::SecStack::set_active_aggregators
#[derive(Debug, Default)]
pub struct SecStats {
    batches: AtomicU64,
    ops: AtomicU64,
    eliminated: AtomicU64,
    combined: AtomicU64,
    cas_failures: AtomicU64,
    grows: AtomicU64,
    shrinks: AtomicU64,
    /// Park/wake/spurious-wake counters fed by the wait subsystem
    /// (DESIGN.md §11): every `WaitQueue::wait_until`/`notify_key`
    /// call site passes this block through.
    wait: WaitStats,
    /// Distribution of frozen batch degrees (DESIGN.md §14): one
    /// wait-free histogram record per *batch*, so the CSVs can report
    /// min/p50/p99/max instead of only the run-wide mean.
    degree: Histogram,
    /// Solo-path tallies, indexed by thread id.
    solo: Box<[CachePadded<SoloCell>]>,
}

impl SecStats {
    /// Creates zeroed stats with no per-thread solo cells (for
    /// structures whose operations never take the solo path).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates zeroed stats with solo cells for thread ids
    /// `0..max_threads`.
    pub(crate) fn with_threads(max_threads: usize) -> Self {
        Self {
            solo: (0..max_threads).map(|_| CachePadded::default()).collect(),
            ..Self::default()
        }
    }

    /// Called by the freezer with the frozen counter snapshot.
    #[inline]
    pub(crate) fn record_batch(&self, pushes: u64, pops: u64) {
        let size = pushes + pops;
        if size == 0 {
            return; // cannot happen (the freezer itself announced), but harmless
        }
        let elim = 2 * pushes.min(pops);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.ops.fetch_add(size, Ordering::Relaxed);
        self.eliminated.fetch_add(elim, Ordering::Relaxed);
        self.combined.fetch_add(size - elim, Ordering::Relaxed);
        self.degree.record(size);
    }

    /// Called by thread `tid` after an operation completed on the solo
    /// path.
    #[inline]
    pub(crate) fn record_solo(&self, tid: usize) {
        bump(&self.solo[tid].solo);
    }

    /// Called by thread `tid` after a solo attempt lost its CAS and the
    /// operation fell back to announcing.
    #[inline]
    pub(crate) fn record_solo_fallback(&self, tid: usize) {
        bump(&self.solo[tid].fallbacks);
    }

    /// Called by a combiner whose splice/unlink CAS on `stackTop` lost
    /// to another combiner (the cross-aggregator contention signal).
    #[inline]
    pub(crate) fn record_cas_failure(&self) {
        self.cas_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Cumulative central-stack CAS failures (monitor input).
    pub(crate) fn cas_failures_now(&self) -> u64 {
        self.cas_failures.load(Ordering::Relaxed)
    }

    /// Records an active-set grow transition.
    #[inline]
    pub(crate) fn record_grow(&self) {
        self.grows.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an active-set shrink transition.
    #[inline]
    pub(crate) fn record_shrink(&self) {
        self.shrinks.fetch_add(1, Ordering::Relaxed);
    }

    /// The park/wake counter block the wait subsystem records into.
    #[inline]
    pub(crate) fn wait(&self) -> &WaitStats {
        &self.wait
    }

    /// Snapshot of the aggregate measures.
    pub fn report(&self) -> BatchReport {
        BatchReport {
            batches: self.batches.load(Ordering::Relaxed),
            ops: self.ops.load(Ordering::Relaxed),
            eliminated: self.eliminated.load(Ordering::Relaxed),
            combined: self.combined.load(Ordering::Relaxed),
            solo: self
                .solo
                .iter()
                .map(|c| c.solo.load(Ordering::Relaxed))
                .sum(),
            solo_fallbacks: self
                .solo
                .iter()
                .map(|c| c.fallbacks.load(Ordering::Relaxed))
                .sum(),
            cas_failures: self.cas_failures.load(Ordering::Relaxed),
            grows: self.grows.load(Ordering::Relaxed),
            shrinks: self.shrinks.load(Ordering::Relaxed),
            parks: self.wait.parks(),
            wakes: self.wait.unparks(),
            spurious_wakes: self.wait.spurious(),
            degree: DegreeDist::from_histogram(&self.degree),
        }
    }

    /// The full batch-degree distribution (the report's
    /// [`BatchReport::degree`] is its four-number summary).
    pub fn degree_histogram(&self) -> &Histogram {
        &self.degree
    }

    /// Resets all counters (between measurement phases).
    pub fn reset(&self) {
        self.batches.store(0, Ordering::Relaxed);
        self.ops.store(0, Ordering::Relaxed);
        self.eliminated.store(0, Ordering::Relaxed);
        self.combined.store(0, Ordering::Relaxed);
        self.cas_failures.store(0, Ordering::Relaxed);
        self.grows.store(0, Ordering::Relaxed);
        self.shrinks.store(0, Ordering::Relaxed);
        for c in self.solo.iter() {
            c.solo.store(0, Ordering::Relaxed);
            c.fallbacks.store(0, Ordering::Relaxed);
        }
        self.wait.reset();
        self.degree.reset();
    }
}

/// A snapshot of [`SecStats`], with the paper's derived measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchReport {
    /// Batches frozen.
    pub batches: u64,
    /// Operations that belonged to frozen batches.
    pub ops: u64,
    /// Operations eliminated inside their batch.
    pub eliminated: u64,
    /// Operations applied to the shared stack by a combiner.
    pub combined: u64,
    /// Operations that found their batch idle and applied themselves
    /// with one CAS, never joining a batch (not counted in `ops`).
    pub solo: u64,
    /// Solo attempts whose CAS lost; each such operation then announced
    /// and is counted in `ops`.
    pub solo_fallbacks: u64,
    /// Combiner CAS attempts on the shared `stackTop` that lost to
    /// another combiner.
    pub cas_failures: u64,
    /// Elastic-sharding grow transitions (active aggregator count +1).
    pub grows: u64,
    /// Elastic-sharding shrink transitions (active aggregator count −1).
    pub shrinks: u64,
    /// Times a waiter parked (`WaitPolicy::SpinThenPark` only).
    pub parks: u64,
    /// Unparks freezers/combiners issued to registered waiters.
    pub wakes: u64,
    /// Wakeups whose awaited condition was still false (the waiter
    /// re-parked): stray park tokens and cross-generation wakes.
    pub spurious_wakes: u64,
    /// Batch-degree distribution summary (min/p50/p99/max), from the
    /// per-batch histogram.
    pub degree: DegreeDist,
}

impl BatchReport {
    /// Total elastic resize transitions (grows + shrinks).
    pub fn resizes(&self) -> u64 {
        self.grows + self.shrinks
    }

    /// Average batch size ("batching degree", Table 1).
    pub fn batching_degree(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.ops as f64 / self.batches as f64
        }
    }

    /// Percentage of operations eliminated ("%elimination", Table 1).
    pub fn pct_eliminated(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            100.0 * self.eliminated as f64 / self.ops as f64
        }
    }

    /// Percentage of all update operations (batched or solo) that took
    /// the solo path.
    pub fn pct_solo(&self) -> f64 {
        let total = self.ops + self.solo;
        if total == 0 {
            0.0
        } else {
            100.0 * self.solo as f64 / total as f64
        }
    }

    /// Percentage of operations applied by combiners ("%combining").
    pub fn pct_combined(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            100.0 * self.combined as f64 / self.ops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_identity_holds() {
        let s = SecStats::new();
        s.record_batch(3, 5); // 8 ops, 6 eliminated, 2 combined
        s.record_batch(4, 4); // 8 ops, 8 eliminated, 0 combined
        s.record_batch(2, 0); // 2 ops, 0 eliminated, 2 combined
        let r = s.report();
        assert_eq!(r.batches, 3);
        assert_eq!(r.ops, 18);
        assert_eq!(r.eliminated, 14);
        assert_eq!(r.combined, 4);
        assert_eq!(r.eliminated + r.combined, r.ops);
    }

    #[test]
    fn derived_measures() {
        let s = SecStats::new();
        s.record_batch(5, 5);
        let r = s.report();
        assert!((r.batching_degree() - 10.0).abs() < 1e-9);
        assert!((r.pct_eliminated() - 100.0).abs() < 1e-9);
        assert!((r.pct_combined() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_all_zero() {
        let r = SecStats::new().report();
        assert_eq!(r.batching_degree(), 0.0);
        assert_eq!(r.pct_eliminated(), 0.0);
        assert_eq!(r.pct_combined(), 0.0);
    }

    #[test]
    fn zero_size_batch_is_ignored() {
        let s = SecStats::new();
        s.record_batch(0, 0);
        assert_eq!(s.report().batches, 0);
    }

    #[test]
    fn reset_zeroes_counters() {
        let s = SecStats::new();
        s.record_batch(1, 1);
        s.record_cas_failure();
        s.record_grow();
        s.record_shrink();
        s.reset();
        let r = s.report();
        assert_eq!(r.ops, 0);
        assert_eq!(r.cas_failures, 0);
        assert_eq!(r.resizes(), 0);
    }

    #[test]
    fn degree_distribution_tracks_batches() {
        let s = SecStats::new();
        s.record_batch(1, 0); // degree 1
        s.record_batch(2, 2); // degree 4
        s.record_batch(10, 6); // degree 16
        let r = s.report();
        assert_eq!(r.degree.min, 1);
        assert_eq!(r.degree.max, 16);
        assert!(r.degree.p50 >= 4 && r.degree.p50 <= 16);
        assert!(r.degree.p99 >= r.degree.p50);
        assert_eq!(s.degree_histogram().count(), 3);
        s.reset();
        assert_eq!(s.report().degree, DegreeDist::default());
    }

    #[test]
    fn solo_cells_sum_per_thread_and_reset() {
        let s = SecStats::with_threads(3);
        s.record_solo(0);
        s.record_solo(2);
        s.record_solo(2);
        s.record_solo_fallback(1);
        s.record_batch(1, 0);
        let r = s.report();
        assert_eq!((r.solo, r.solo_fallbacks, r.ops), (3, 1, 1));
        assert!((r.pct_solo() - 75.0).abs() < 1e-9);
        s.reset();
        let r = s.report();
        assert_eq!((r.solo, r.solo_fallbacks), (0, 0));
        assert_eq!(r.pct_solo(), 0.0);
    }

    #[test]
    fn resize_and_cas_counters_accumulate() {
        let s = SecStats::new();
        s.record_grow();
        s.record_grow();
        s.record_shrink();
        s.record_cas_failure();
        let r = s.report();
        assert_eq!(r.grows, 2);
        assert_eq!(r.shrinks, 1);
        assert_eq!(r.resizes(), 3);
        assert_eq!(r.cas_failures, 1);
        assert_eq!(s.cas_failures_now(), 1);
    }
}
