//! The traced run: prices each layer of one operation from outside.
//!
//! Two kinds of measurement, both through public API only:
//! * knob toggles on the full path — the workload runs on its own
//!   structure and on copies with one `SecConfig` knob changed,
//!   interleaved round by round, and a layer's price is the paired
//!   difference in ns/op;
//! * micro-benchmarks of a layer's public function (an epoch pin, a
//!   `notify_key` with no waiter, a `yield_now`, …), multiplied by how
//!   often one operation calls it according to the stack's counters.
//!
//! The ledger sums the priced layers and reports what they leave
//! unexplained of the measured ns/op.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use sec_core::trace::Histogram;
use sec_core::RecyclePolicy;
use sec_reclaim::{Collector, PersistentHeap};
use sec_sync::event::{WaitQueue, WaitStats};

use crate::run::{self, Counters, Subject, Timing, Workload};
use crate::stats::{median, percentile};

/// Every per-layer metric with its unit, in report order.
pub const METRICS: [(&str, &str); 32] = [
    ("combine.batches_per_op", "1/op"),
    ("combine.freezer_yield_ns_per_op", "ns/op"),
    ("combine.degree_mean", "ops"),
    ("combine.degree_p99", "ops"),
    ("combine.eliminated_frac", "frac"),
    ("combine.combined_frac", "frac"),
    ("combine.cas_failures_per_batch", "1/batch"),
    ("combine.announce_ns", "ns"),
    ("sync.yield_ns", "ns"),
    ("sync.notify_ns", "ns"),
    ("sync.parks_per_kop", "1/kop"),
    ("sync.spurious_per_park", "1/park"),
    ("sync.park_ns_per_op", "ns/op"),
    ("stats.record_batch_ns", "ns"),
    ("reclaim.pin_ns", "ns"),
    ("reclaim.alloc_retire_ns", "ns"),
    ("reclaim.recycle_hit_frac", "frac"),
    ("reclaim.retired_per_op", "1/op"),
    ("reclaim.recycle_ns_per_op", "ns/op"),
    ("reclaim.pending_peak", "blocks"),
    ("sec.push_p50_ns", "ns"),
    ("sec.pop_p50_ns", "ns"),
    ("sec.peek_p50_ns", "ns"),
    ("durable.records_per_op", "1/op"),
    ("durable.entries_per_record", "1/record"),
    ("durable.log_ns_per_op", "ns/op"),
    ("pheap.msync_ns", "ns"),
    ("ref.treiber_mops", "Mops"),
    ("ledger.measured_ns_per_op", "ns/op"),
    ("ledger.priced_ns_per_op", "ns/op"),
    ("ledger.unexplained_ns_per_op", "ns/op"),
    ("trace.overhead_frac", "frac"),
];

/// `notify_key` calls per batch: the freezer wakes the batch's
/// swap-waiters after installing the fresh batch, and the combiner
/// wakes its applied-waiters after publishing.
const NOTIFIES_PER_BATCH: f64 = 2.0;
/// Share of the traced run kept for the micro-benchmarks.
const MICRO_RESERVE_MS: u64 = 600;

/// Median per-call ns of `f` over five timed loops of `iters` calls.
fn per_call_ns(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(black_box(i));
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&reps)
}

/// Per-call prices of the layers' public functions.
struct Micro {
    yield_ns: f64,
    notify_ns: f64,
    record_batch_ns: f64,
    announce_ns: f64,
    pin_ns: f64,
    alloc_retire_ns: f64,
    msync_ns: f64,
}

fn micro() -> Micro {
    let yield_ns = per_call_ns(20_000, |_| std::thread::yield_now());

    let queue = WaitQueue::new();
    let wait_stats = WaitStats::new();
    let notify_ns = per_call_ns(1_000_000, |i| queue.notify_key(i as usize, &wait_stats));

    // What the freezer records per batch: four relaxed counter adds
    // and one degree-histogram record.
    let counters: [AtomicU64; 4] = Default::default();
    let degrees = Histogram::new();
    let record_batch_ns = per_call_ns(1_000_000, |i| {
        for c in &counters {
            c.fetch_add(i, Ordering::Relaxed);
        }
        degrees.record(1 + (i & 1));
    });

    let lane = AtomicU64::new(0);
    let announce_ns = per_call_ns(1_000_000, |i| {
        black_box(lane.fetch_add(i, Ordering::AcqRel));
    });

    let collector = Collector::with_recycle(2, RecyclePolicy::per_thread());
    let handle = collector
        .register()
        .expect("a fresh collector has free slots");
    let pin_ns = per_call_ns(1_000_000, |_| {
        black_box(handle.pin());
    });
    let cycle_ns = per_call_ns(1_000_000, |i| {
        let p = handle.alloc_boxed([i; 2]);
        let guard = handle.pin();
        // SAFETY: `p` was allocated just above, is owned here and was
        // never shared; `[u64; 2]` needs no drop.
        unsafe { guard.retire_recycle(p) };
    });
    drop(handle);

    // One commit-sized msync of a dirtied word on a file-backed heap.
    let path = run::heap_path();
    let heap = PersistentHeap::create_file(&path, 1 << 16).expect("create a heap file");
    let msync_ns = per_call_ns(40, |i| {
        let idx = (i as usize * 512) % heap.words();
        heap.word(idx).store(i, Ordering::Relaxed);
        heap.msync(idx, 13).expect("msync the heap file");
    });
    drop(heap);
    let _ = std::fs::remove_file(&path);

    Micro {
        yield_ns,
        notify_ns,
        record_batch_ns,
        announce_ns,
        pin_ns,
        alloc_retire_ns: (cycle_ns - pin_ns).max(0.0),
        msync_ns,
    }
}

/// The outcome of a traced run.
pub struct Traced {
    pub metrics: Vec<(&'static str, f64)>,
    /// One row per priced layer: name, how it was priced (calls per op
    /// × price per call, or a knob toggle), ns per op.
    pub ledger: Vec<(&'static str, String, f64)>,
    pub calls: u64,
    pub ok: bool,
}

/// Runs the traced measurement for `budget_ms`.
pub fn traced(w: &Workload, seed: u64, budget_ms: u64) -> Traced {
    // The workload's own structure untraced and traced, then one
    // toggle per row. On the durable workload the toggles apply to the
    // plain stack (the durable constructor takes no SecConfig), and
    // `Plain` prices the log itself.
    let mut plan = vec![
        (Subject::Base, Timing::Sampled),
        (Subject::Base, Timing::Every),
        (Subject::Yields0, Timing::Sampled),
        (Subject::RecycleOff, Timing::Sampled),
        (Subject::Spin, Timing::Sampled),
        (Subject::Treiber, Timing::Sampled),
    ];
    if w.durable {
        plan.push((Subject::Plain, Timing::Sampled));
    }
    let measure_ms = budget_ms.saturating_sub(MICRO_RESERVE_MS).max(100);
    let seg_ms = (measure_ms / (plan.len() as u64 * 4)).clamp(50, 1000);
    let len = w.length(seg_ms);

    let start = Instant::now();
    let mut ns: Vec<Vec<f64>> = vec![Vec::new(); plan.len()];
    let mut base = Counters::default();
    let mut base_calls = 0u64;
    let mut traced_samples: run::Samples = Default::default();
    let mut pending_peaks = Vec::new();
    let mut calls = 0u64;
    let mut ok = true;
    let mut rounds = 0;
    while rounds < 2 || (start.elapsed().as_millis() as u64) < measure_ms {
        for k in 0..plan.len() {
            // Rotate the order so no toggle always runs first.
            let i = (k + rounds) % plan.len();
            let (subject, timing) = plan[i];
            let r = run::round(
                w,
                subject,
                len,
                timing,
                run::derive_seed(seed, rounds as u64, i as u64),
            );
            ok &= r.ok();
            calls += r.calls;
            ns[i].push(r.ns_per_op(w.threads));
            if (subject, timing) == (Subject::Base, Timing::Sampled) {
                base.add(&r.counters);
                base_calls += r.calls;
            }
            if timing == Timing::Every {
                pending_peaks.push(r.counters.pending_peak as f64);
                for (dst, src) in traced_samples.iter_mut().zip(r.samples) {
                    dst.extend(src);
                }
            }
        }
        rounds += 1;
    }

    let at = |s: Subject, t: Timing| plan.iter().position(|&p| p == (s, t));
    let series = |s: Subject, t: Timing| at(s, t).map_or(&[][..], |i| &ns[i][..]);
    let base_ns = series(Subject::Base, Timing::Sampled);
    // Toggles are compared with the plain stack: the workload's own
    // structure unless that is durable.
    let plain_ns = if w.durable {
        series(Subject::Plain, Timing::Sampled)
    } else {
        base_ns
    };
    let paired = |a: &[f64], b: &[f64], f: fn(f64, f64) -> f64| -> f64 {
        median(&a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect::<Vec<_>>())
    };
    let diff = |x: f64, y: f64| x - y;
    let yield_delta = paired(plain_ns, series(Subject::Yields0, Timing::Sampled), diff);
    let recycle_delta = paired(plain_ns, series(Subject::RecycleOff, Timing::Sampled), diff);
    let park_delta = paired(plain_ns, series(Subject::Spin, Timing::Sampled), diff);
    let log_delta = if w.durable {
        paired(base_ns, plain_ns, diff)
    } else {
        0.0
    };
    let overhead = paired(series(Subject::Base, Timing::Every), base_ns, |x, y| {
        x / y - 1.0
    });
    let treiber_mops = median(
        &series(Subject::Treiber, Timing::Sampled)
            .iter()
            .map(|n| w.threads as f64 * 1e3 / n)
            .collect::<Vec<_>>(),
    );
    let measured = median(base_ns);

    let m = micro();
    let per = |n: u64| n as f64 / base_calls.max(1) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let batches_per_op = per(base.batches);
    let counted = |name: &'static str, count: f64, price: f64| {
        (name, format!("{count:.3} x {price:.1} ns"), count * price)
    };
    let toggled = |name: &'static str, delta: f64| (name, "toggle".to_string(), delta);
    let ledger = vec![
        counted("announce fetch_add", per(base.batch_ops), m.announce_ns),
        toggled("freezer yield", yield_delta),
        counted("stats record_batch", batches_per_op, m.record_batch_ns),
        counted(
            "notify_key",
            NOTIFIES_PER_BATCH * batches_per_op,
            m.notify_ns,
        ),
        counted("epoch pin", 1.0, m.pin_ns),
        counted("alloc + retire", per(base.retired), m.alloc_retire_ns),
        toggled("wait park vs spin", park_delta),
        toggled("durable log", log_delta),
    ];
    let priced: f64 = ledger.iter().map(|l| l.2).sum();

    let metrics = vec![
        ("combine.batches_per_op", batches_per_op),
        ("combine.freezer_yield_ns_per_op", yield_delta),
        ("combine.degree_mean", ratio(base.batch_ops, base.batches)),
        ("combine.degree_p99", base.degree_p99 as f64),
        (
            "combine.eliminated_frac",
            ratio(base.eliminated, base.batch_ops),
        ),
        (
            "combine.combined_frac",
            ratio(base.combined, base.batch_ops),
        ),
        (
            "combine.cas_failures_per_batch",
            ratio(base.cas_failures, base.batches),
        ),
        ("combine.announce_ns", m.announce_ns),
        ("sync.yield_ns", m.yield_ns),
        ("sync.notify_ns", m.notify_ns),
        ("sync.parks_per_kop", 1e3 * per(base.parks)),
        ("sync.spurious_per_park", ratio(base.spurious, base.parks)),
        ("sync.park_ns_per_op", park_delta),
        ("stats.record_batch_ns", m.record_batch_ns),
        ("reclaim.pin_ns", m.pin_ns),
        ("reclaim.alloc_retire_ns", m.alloc_retire_ns),
        (
            "reclaim.recycle_hit_frac",
            ratio(base.recycle_hits, base.recycle_hits + base.recycle_misses),
        ),
        ("reclaim.retired_per_op", per(base.retired)),
        ("reclaim.recycle_ns_per_op", recycle_delta),
        ("reclaim.pending_peak", median(&pending_peaks)),
        ("sec.push_p50_ns", percentile(&mut traced_samples[0], 0.5)),
        ("sec.pop_p50_ns", percentile(&mut traced_samples[1], 0.5)),
        ("sec.peek_p50_ns", percentile(&mut traced_samples[2], 0.5)),
        ("durable.records_per_op", per(base.records)),
        (
            "durable.entries_per_record",
            ratio(base.entries, base.records),
        ),
        ("durable.log_ns_per_op", log_delta),
        ("pheap.msync_ns", m.msync_ns),
        ("ref.treiber_mops", treiber_mops),
        ("ledger.measured_ns_per_op", measured),
        ("ledger.priced_ns_per_op", priced),
        ("ledger.unexplained_ns_per_op", measured - priced),
        ("trace.overhead_frac", overhead),
    ];
    debug_assert!(metrics.iter().map(|m| m.0).eq(METRICS.iter().map(|m| m.0)));
    Traced {
        metrics,
        ledger,
        calls,
        ok,
    }
}
