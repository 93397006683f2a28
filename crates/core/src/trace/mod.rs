//! `sec-trace`: the observability layer of the combining engine
//! (DESIGN.md §14).
//!
//! Three export surfaces over one recording substrate:
//!
//! * **Event rings** ([`EventRing`]) — per-thread lock-free rings of
//!   timestamped protocol-lifecycle events ([`TraceEvent`]): announce,
//!   freezer election, batch frozen, combine start/end, publish,
//!   park/unpark, grow/shrink, recycle overflow.
//! * **Phase histograms** ([`Histogram`]) — mergeable log-bucketed
//!   (HDR-style) latency distributions for announce→freeze wait,
//!   freeze→publish batch residency, combine duration and end-to-end
//!   per-op latency, with p50/p90/p99/p999 queries.
//! * **Snapshots** ([`TraceSnapshot`]) — cheap counter polls on every
//!   family structure, differentiable into time-windowed rates
//!   ([`TraceRates`]).
//!
//! All types here compile unconditionally (so the histograms back the
//! workload harness and the per-batch degree distribution even in
//! default builds); the *engine hooks* that feed the rings and phase
//! histograms are compiled only under the `trace` cargo feature, and
//! within such a build they run only when [`TraceConfig::enabled`] was
//! set — the per-op cost of an enabled-but-unsampled operation is one
//! predictable branch plus one thread-local counter increment, and the
//! recording path never allocates (the rings and histograms are sized
//! at construction; `tests/alloc_count.rs` asserts this).
//!
//! Timestamps come from [`sec_sync::TscClock`] (`RDTSC` on x86_64, a
//! strictly monotonic software clock elsewhere), converted to
//! nanoseconds through a one-shot [`sec_sync::Calibration`] measured
//! when the recorder is built.

mod chrome;
mod hist;
mod ring;

pub use chrome::chrome_trace_json;
pub use hist::Histogram;
pub use ring::{EventRing, TraceEvent, TraceEventKind, TraceLane};

use sec_sync::{CachePadded, Calibration, TscClock};

/// Runtime tracing knobs, carried on
/// [`SecConfig::trace`](crate::SecConfig::trace).
///
/// The cargo `trace` feature decides whether the engine *contains* the
/// recording hooks; this config decides whether a particular structure
/// *uses* them. With the feature compiled out the config is inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch: build a [`TraceRecorder`] for this structure.
    pub enabled: bool,
    /// Per-op sampling period as a shift: an op is sampled (records
    /// events and phase latencies) once per `2^sample_shift` ops per
    /// thread. 0 samples every op; per-batch events (freeze, combine,
    /// publish, resize) are recorded regardless of sampling.
    pub sample_shift: u32,
    /// Capacity of each per-thread event ring (rounded up to a power
    /// of two; oldest events are overwritten beyond that).
    pub ring_capacity: usize,
}

impl TraceConfig {
    /// Tracing disabled (the default): no recorder is built.
    pub const fn off() -> Self {
        Self {
            enabled: false,
            sample_shift: 6,
            ring_capacity: 4096,
        }
    }

    /// Tracing enabled with the default sampling period (1 in 64 ops)
    /// and ring capacity (4096 events/thread).
    pub const fn on() -> Self {
        Self {
            enabled: true,
            ..Self::off()
        }
    }

    /// Sets the sampling shift (builder style); 0 samples every op.
    pub const fn sample_shift(mut self, shift: u32) -> Self {
        self.sample_shift = shift;
        self
    }

    /// Sets the per-thread ring capacity (builder style).
    pub const fn ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }

    /// The sampling mask derived from `sample_shift` (shift is capped
    /// at 63).
    pub(crate) fn sample_mask(&self) -> u64 {
        (1u64 << self.sample_shift.min(63)) - 1
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// The recording substrate for one traced structure: per-thread event
/// rings plus the four phase histograms, sharing one calibrated clock.
///
/// Obtained from a family structure's `tracer()` accessor (present
/// only when the structure was configured with
/// [`TraceConfig::enabled`] under the `trace` cargo feature).
#[derive(Debug)]
pub struct TraceRecorder {
    clock: TscClock,
    cal: Calibration,
    origin: u64,
    sample_mask: u64,
    /// `max_threads` per-thread rings plus one trailing control ring
    /// for events with no owning registered thread.
    rings: Box<[CachePadded<EventRing>]>,
    announce_to_freeze: Histogram,
    batch_residency: Histogram,
    combine_duration: Histogram,
    op_latency: Histogram,
}

impl TraceRecorder {
    /// Builds a recorder for up to `max_threads` registered threads.
    /// Calibrates the clock once (~1 ms of spinning).
    pub fn new(config: &TraceConfig, max_threads: usize) -> Self {
        let clock = TscClock::new();
        let cal = clock.calibrate();
        let origin = clock.now();
        Self {
            clock,
            cal,
            origin,
            sample_mask: config.sample_mask(),
            rings: (0..max_threads.max(1) + 1)
                .map(|_| CachePadded::new(EventRing::new(config.ring_capacity)))
                .collect(),
            announce_to_freeze: Histogram::new(),
            batch_residency: Histogram::new(),
            combine_duration: Histogram::new(),
            op_latency: Histogram::new(),
        }
    }

    /// Raw clock read (opaque ticks; pair with [`Self::delta_ns`]).
    #[inline]
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Nanoseconds elapsed since a [`Self::now`] read.
    #[inline]
    pub fn delta_ns(&self, since_ticks: u64) -> u64 {
        self.cal.ticks_to_ns(self.now().saturating_sub(since_ticks))
    }

    /// The tick→ns conversion in use.
    pub fn calibration(&self) -> Calibration {
        self.cal
    }

    /// Advances `tid`'s op counter; `true` when this op is sampled.
    #[inline]
    pub(crate) fn sample(&self, tid: usize) -> bool {
        self.ring(tid).tick(self.sample_mask)
    }

    #[inline]
    fn ring(&self, tid: usize) -> &EventRing {
        // Out-of-range tids (impossible via `register`, but cheap to
        // tolerate) share the control ring.
        &self.rings[tid.min(self.rings.len() - 1)]
    }

    /// Current event timestamp: ns since recorder construction.
    #[inline]
    fn ts_now(&self) -> u64 {
        self.cal.ticks_to_ns(self.now().saturating_sub(self.origin))
    }

    /// Records an event attributed to registered thread `tid` on
    /// aggregator `agg`. Wait-free, allocation-free.
    #[inline]
    pub fn record(&self, tid: usize, agg: u32, kind: TraceEventKind) {
        self.ring(tid).record(TraceEvent {
            ts_ns: self.ts_now(),
            tid: tid as u32,
            agg,
            kind,
        });
    }

    /// Records a control-plane event (no owning registered thread,
    /// e.g. a manual `set_active_aggregators` step).
    pub fn record_control(&self, kind: TraceEventKind) {
        self.rings[self.rings.len() - 1].record(TraceEvent {
            ts_ns: self.ts_now(),
            tid: u32::MAX,
            agg: 0,
            kind,
        });
    }

    /// Updates `tid`'s recycle-overflow watermark; returns the newly
    /// observed overflow count, if it grew.
    #[inline]
    pub(crate) fn overflow_delta(&self, tid: usize, current: u64) -> Option<u64> {
        self.ring(tid).overflow_delta(current)
    }

    /// Drains every ring and returns the surviving events merged into
    /// one timestamp-sorted stream. Reporting path: allocates, and
    /// should run at quiescence for an exact snapshot.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self.rings.iter().flat_map(|r| r.drain()).collect();
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    /// Announce→freeze wait distribution (ns): time from an op's
    /// announce to its batch being frozen, for sampled ops.
    pub fn announce_to_freeze(&self) -> &Histogram {
        &self.announce_to_freeze
    }

    /// Freeze→publish batch residency distribution (ns), recorded once
    /// per batch whose combiner was sampled.
    pub fn batch_residency(&self) -> &Histogram {
        &self.batch_residency
    }

    /// Combine-phase duration distribution (ns) for sampled combiners.
    pub fn combine_duration(&self) -> &Histogram {
        &self.combine_duration
    }

    /// End-to-end per-op latency distribution (ns) for sampled ops.
    pub fn op_latency(&self) -> &Histogram {
        &self.op_latency
    }

    /// Total events recorded across all rings (including overwritten
    /// ones).
    pub fn events_recorded(&self) -> u64 {
        self.rings.iter().map(|r| r.recorded()).sum()
    }
}

/// A batch-degree distribution summary: fed by the per-batch histogram
/// in [`SecStats`](crate::SecStats) and reported on every
/// [`BatchReport`](crate::BatchReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegreeDist {
    /// Smallest frozen batch (0 when no batch froze).
    pub min: u64,
    /// Median batch degree.
    pub p50: u64,
    /// 99th-percentile batch degree.
    pub p99: u64,
    /// Largest frozen batch.
    pub max: u64,
}

impl DegreeDist {
    /// Summarizes a histogram of batch degrees.
    pub fn from_histogram(h: &Histogram) -> Self {
        Self {
            min: h.min(),
            p50: h.percentile(50.0),
            p99: h.percentile(99.0),
            max: h.max(),
        }
    }
}

/// A point-in-time poll of a structure's protocol counters, cheap
/// enough to take periodically from a monitoring thread. Two snapshots
/// differentiate into [`TraceRates`] via [`TraceSnapshot::rates_since`].
///
/// Available on every family structure and handle regardless of the
/// `trace` cargo feature (it reads the always-on [`SecStats`]
/// counters).
///
/// [`SecStats`]: crate::SecStats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Nanoseconds since the structure was constructed.
    pub at_ns: u64,
    /// Operations that belonged to frozen batches.
    pub ops: u64,
    /// Frozen batches.
    pub batches: u64,
    /// Operations that eliminated against an opposite-lane partner.
    pub eliminated: u64,
    /// Operations applied by a combiner.
    pub combined: u64,
    /// Operations that completed on the solo path (DESIGN.md §17),
    /// outside any batch.
    pub solo: u64,
    /// Solo attempts that lost their CAS and announced instead.
    pub solo_fallbacks: u64,
    /// Blocking parks.
    pub parks: u64,
    /// Wakeups delivered.
    pub wakes: u64,
    /// Aggregator grow steps.
    pub grows: u64,
    /// Aggregator shrink steps.
    pub shrinks: u64,
    /// Active aggregators at the poll.
    pub active_aggregators: usize,
}

impl TraceSnapshot {
    /// Rates over the window from `earlier` to `self`. Counters are
    /// monotonic, so a well-ordered pair gives non-negative rates; a
    /// zero-length window reports zero rates.
    pub fn rates_since(&self, earlier: &TraceSnapshot) -> TraceRates {
        let dt_ns = self.at_ns.saturating_sub(earlier.at_ns);
        let secs = dt_ns as f64 / 1e9;
        let rate = |now: u64, then: u64| {
            if dt_ns == 0 {
                0.0
            } else {
                now.saturating_sub(then) as f64 / secs
            }
        };
        let d_ops = self.ops.saturating_sub(earlier.ops);
        let d_batches = self.batches.saturating_sub(earlier.batches);
        TraceRates {
            interval_s: secs,
            ops_per_sec: rate(self.ops + self.solo, earlier.ops + earlier.solo),
            batches_per_sec: rate(self.batches, earlier.batches),
            parks_per_sec: rate(self.parks, earlier.parks),
            batching_degree: if d_batches == 0 {
                0.0
            } else {
                d_ops as f64 / d_batches as f64
            },
        }
    }
}

/// Windowed rates between two [`TraceSnapshot`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRates {
    /// Window length in seconds.
    pub interval_s: f64,
    /// Completed operations per second over the window.
    pub ops_per_sec: f64,
    /// Frozen batches per second over the window.
    pub batches_per_sec: f64,
    /// Blocking parks per second over the window.
    pub parks_per_sec: f64,
    /// Mean ops per batch over the window (0 when no batch froze).
    pub batching_degree: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_merges_rings_in_timestamp_order() {
        let r = TraceRecorder::new(&TraceConfig::on().sample_shift(0), 4);
        r.record(2, 0, TraceEventKind::FreezerElected);
        r.record(
            0,
            1,
            TraceEventKind::Announce {
                lane: TraceLane::Add,
                seq: 0,
            },
        );
        r.record_control(TraceEventKind::Grow { k: 3 });
        let evs = r.events();
        assert_eq!(evs.len(), 3);
        assert!(evs.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert!(evs
            .iter()
            .any(|e| e.tid == u32::MAX && e.kind == TraceEventKind::Grow { k: 3 }));
    }

    #[test]
    fn sampling_respects_the_shift() {
        let r = TraceRecorder::new(&TraceConfig::on().sample_shift(3), 1);
        let hits = (0..32).filter(|_| r.sample(0)).count();
        assert_eq!(hits, 4);
        // An out-of-range tid must be tolerated (clamped), not panic.
        let _ = r.sample(5);
    }

    #[test]
    fn degree_dist_summarizes_histogram() {
        let h = Histogram::new();
        for d in [1u64, 2, 2, 3, 8] {
            h.record(d);
        }
        let dd = DegreeDist::from_histogram(&h);
        assert_eq!(dd.min, 1);
        assert_eq!(dd.p50, 2);
        assert_eq!(dd.max, 8);
        assert!(dd.p99 >= dd.p50 && dd.p99 <= dd.max);
        assert_eq!(
            DegreeDist::from_histogram(&Histogram::new()),
            DegreeDist::default()
        );
    }

    #[test]
    fn snapshot_rates_differentiate() {
        let a = TraceSnapshot {
            at_ns: 1_000_000_000,
            ops: 1_000,
            batches: 100,
            eliminated: 0,
            combined: 1_000,
            solo: 0,
            solo_fallbacks: 0,
            parks: 10,
            wakes: 10,
            grows: 0,
            shrinks: 0,
            active_aggregators: 2,
        };
        let b = TraceSnapshot {
            at_ns: 2_000_000_000,
            ops: 3_000,
            batches: 200,
            parks: 30,
            ..a
        };
        let r = b.rates_since(&a);
        assert!((r.interval_s - 1.0).abs() < 1e-9);
        assert!((r.ops_per_sec - 2_000.0).abs() < 1e-6);
        assert!((r.batches_per_sec - 100.0).abs() < 1e-6);
        assert!((r.parks_per_sec - 20.0).abs() < 1e-6);
        assert!((r.batching_degree - 20.0).abs() < 1e-6);
        // Solo ops complete outside batches: they count toward the op
        // rate but not toward the batching degree.
        let c = TraceSnapshot { solo: 500, ..b };
        let r = c.rates_since(&a);
        assert!((r.ops_per_sec - 2_500.0).abs() < 1e-6);
        assert!((r.batching_degree - 20.0).abs() < 1e-6);
        // Degenerate window: no division blowups.
        let z = a.rates_since(&a);
        assert_eq!(z.ops_per_sec, 0.0);
        assert_eq!(z.batching_degree, 0.0);
    }
}
