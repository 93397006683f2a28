//! Workloads and the round runner: build a structure (timed set-up),
//! drive it closed-loop from worker threads, drain it and check it.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use sec_baselines::TreiberStack;
use sec_core::{ConcurrentStack, DurablePolicy, SecConfig, SecStack, StackHandle};

use crate::check::{Tally, Verdict};

/// Elements pushed before every round, by a producer id of their own.
pub const PREFILL: u64 = 1000;
/// Latency is sampled on a random 1-in-2^6 of the calls. A fixed
/// stride would alias with the reclamation layer's 64-pin advance
/// period and always time the pin that collects garbage.
const SAMPLE_SHIFT: u32 = 6;
/// Calls per worker thread in one round of the durable workload: the
/// redo log is not circular, so a round runs a fixed op count and the
/// log is sized from it.
pub const DURABLE_OPS_PER_THREAD: u64 = 100_000;
/// Where durable heap files live while a round runs (relative to the
/// working directory, which is the checkout root).
pub const TMP_DIR: &str = ".bench_tmp";

/// One benchmark workload: a closed-loop op mix on a thread count.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub threads: usize,
    pub push_pct: u32,
    pub pop_pct: u32,
    pub durable: bool,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "stack-upd100-t1",
        threads: 1,
        push_pct: 50,
        pop_pct: 50,
        durable: false,
        why: "every batch has degree 1, so each op pays the whole engine lifecycle and elimination never helps",
    },
    Workload {
        name: "stack-upd100-t2",
        threads: 2,
        push_pct: 50,
        pop_pct: 50,
        durable: false,
        why: "two threads share one aggregator: the only mix whose batches exceed degree 1 and eliminate",
    },
    Workload {
        name: "stack-peek-t2",
        threads: 2,
        push_pct: 5,
        pop_pct: 5,
        durable: false,
        why: "90% peeks bypass the combining engine: one epoch pin and a load of the stack top",
    },
    Workload {
        name: "durable-t2",
        threads: 2,
        push_pct: 50,
        pop_pct: 50,
        durable: true,
        why: "the only workload that runs the redo log: file-backed heap, no msync, one record per batch",
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The structure a round runs on. `Base` is the workload's own
/// structure; the others change one knob of the plain stack, or swap
/// in the Treiber stack as the reference floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subject {
    Base,
    Plain,
    Yields0,
    RecycleOff,
    Spin,
    Treiber,
}

/// How long a round's measured window lasts.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    Millis(u64),
    OpsPerThread(u64),
}

impl Workload {
    /// A measured round: `millis` long, or the durable fixed count.
    pub fn length(&self, millis: u64) -> Length {
        if self.durable {
            Length::OpsPerThread(DURABLE_OPS_PER_THREAD)
        } else {
            Length::Millis(millis)
        }
    }

    /// A warm-up round: `millis` long, or a tenth of the durable count.
    pub fn warmup(&self, millis: u64) -> Length {
        if self.durable {
            Length::OpsPerThread(DURABLE_OPS_PER_THREAD / 10)
        } else {
            Length::Millis(millis)
        }
    }
}

/// Protocol counters of one round's measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub batches: u64,
    pub batch_ops: u64,
    pub eliminated: u64,
    pub combined: u64,
    pub cas_failures: u64,
    pub parks: u64,
    pub spurious: u64,
    pub degree_p99: u64,
    pub retired: u64,
    pub recycle_hits: u64,
    pub recycle_misses: u64,
    pub records: u64,
    pub entries: u64,
    /// Most retired blocks awaiting reclamation at one poll (traced
    /// rounds only).
    pub pending_peak: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.batches += o.batches;
        self.batch_ops += o.batch_ops;
        self.eliminated += o.eliminated;
        self.combined += o.combined;
        self.cas_failures += o.cas_failures;
        self.parks += o.parks;
        self.spurious += o.spurious;
        self.degree_p99 = self.degree_p99.max(o.degree_p99);
        self.retired += o.retired;
        self.recycle_hits += o.recycle_hits;
        self.recycle_misses += o.recycle_misses;
        self.records += o.records;
        self.entries += o.entries;
        self.pending_peak = self.pending_peak.max(o.pending_peak);
    }
}

/// What the benchmark can poll from outside a structure.
trait Polled: ConcurrentStack<u64> {
    /// Zeroes the protocol counters (after the prefill).
    fn reset(&self) {}
    /// Reclamation and redo-log counters, cumulative.
    fn cumulative(&self) -> Counters {
        Counters::default()
    }
    /// Protocol counters since the last reset.
    fn protocol(&self) -> Counters {
        Counters::default()
    }
    /// Retired blocks not yet reclaimed.
    fn pending(&self) -> u64 {
        0
    }
    /// Entries in the redo log (durable structures only).
    fn logged_entries(&self) -> Option<u64> {
        None
    }
}

impl Polled for SecStack<u64> {
    fn reset(&self) {
        self.stats().reset();
    }
    fn cumulative(&self) -> Counters {
        let r = self.reclaim_stats();
        let d = self.durable_stats().unwrap_or_default();
        Counters {
            retired: r.retired as u64,
            recycle_hits: r.recycle_hits,
            recycle_misses: r.recycle_misses,
            records: d.records,
            entries: d.entries,
            ..Counters::default()
        }
    }
    fn protocol(&self) -> Counters {
        let s = self.stats().report();
        Counters {
            batches: s.batches,
            batch_ops: s.ops,
            eliminated: s.eliminated,
            combined: s.combined,
            cas_failures: s.cas_failures,
            parks: s.parks,
            spurious: s.spurious_wakes,
            degree_p99: s.degree.p99,
            ..Counters::default()
        }
    }
    fn pending(&self) -> u64 {
        self.reclaim_stats().pending() as u64
    }
    fn logged_entries(&self) -> Option<u64> {
        self.durable_stats().map(|d| d.entries)
    }
}

impl Polled for TreiberStack<u64> {}

/// Whether every call is timed (the traced run) or a random sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    Sampled,
    Every,
}

/// Latency samples in ns, by op kind (push, pop, peek).
pub type Samples = [Vec<u32>; 3];

/// The result of one round.
#[derive(Debug)]
pub struct Round {
    pub setup_s: f64,
    /// Calls the workers made in the measured window.
    pub calls: u64,
    pub elapsed_s: f64,
    pub samples: Samples,
    pub verdict: Verdict,
    /// Redo-log entries match the calls made (always true when the
    /// structure has no log).
    pub log_ok: bool,
    pub counters: Counters,
}

impl Round {
    pub fn ok(&self) -> bool {
        self.verdict.ok() && self.log_ok
    }

    /// Wall time one thread spends per call.
    pub fn ns_per_op(&self, threads: usize) -> f64 {
        self.elapsed_s * 1e9 * threads as f64 / self.calls.max(1) as f64
    }
}

/// SplitMix64: one 64-bit draw per call decides both the op kind (low
/// bits) and whether the call is timed (high bits).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Mixes a seed with the indices that name one worker of one round.
pub fn derive_seed(seed: u64, a: u64, b: u64) -> u64 {
    let mut r =
        Rng(seed ^ a.wrapping_mul(0xA076_1D64_78BD_642F) ^ b.wrapping_mul(0xE703_7ED1_A0B4_28DB));
    r.next()
}

struct WorkerOut {
    calls: u64,
    finished: Instant,
    samples: Samples,
    tally: Tally,
}

#[allow(clippy::too_many_arguments)]
fn worker<H: StackHandle<u64>>(
    h: &mut H,
    w: &Workload,
    producer: usize,
    seed: u64,
    budget: u64,
    timing: Timing,
    stop: &AtomicBool,
) -> WorkerOut {
    let mut rng = Rng(seed);
    let mut tally = Tally::new(w.threads + 1);
    let cap = if timing == Timing::Every {
        1 << 20
    } else {
        1 << 15
    };
    let mut samples: Samples = [
        Vec::with_capacity(cap),
        Vec::with_capacity(cap),
        Vec::with_capacity(cap),
    ];
    let mut calls = 0u64;
    while calls < budget && !stop.load(Ordering::Relaxed) {
        let r = rng.next();
        let pick = (r as u32) % 100;
        let kind = if pick < w.push_pct {
            0
        } else if pick < w.push_pct + w.pop_pct {
            1
        } else {
            2
        };
        let t0 = (timing == Timing::Every || r >> (64 - SAMPLE_SHIFT) == 0).then(Instant::now);
        match kind {
            0 => h.push(tally.next_push(producer)),
            1 => {
                if let Some(v) = h.pop() {
                    tally.popped(v);
                }
            }
            _ => {
                if let Some(v) = h.peek() {
                    tally.peeked(v);
                }
            }
        }
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos().min(u32::MAX as u128) as u32;
            samples[kind].push(ns);
        }
        calls += 1;
    }
    WorkerOut {
        calls,
        finished: Instant::now(),
        samples,
        tally,
    }
}

/// Runs one round on the structure `build` makes: set-up (timed:
/// construct, prefill, spawn and register the workers), the measured
/// window, then a drain and the conservation check.
fn run_on<S: Polled>(
    w: &Workload,
    build: impl FnOnce() -> S,
    len: Length,
    timing: Timing,
    seed: u64,
) -> Round {
    let t0 = Instant::now();
    let stack = build();
    let mut tally = Tally::new(w.threads + 1);
    {
        let mut h = stack.register();
        for _ in 0..PREFILL {
            h.push(tally.next_push(w.threads));
        }
    }
    stack.reset();
    let before = stack.cumulative();
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(w.threads + 1);
    let budget = match len {
        Length::Millis(_) => u64::MAX,
        Length::OpsPerThread(n) => n,
    };
    let mut pending_peak = 0;
    let (setup_s, start, outs) = thread::scope(|s| {
        let workers: Vec<_> = (0..w.threads)
            .map(|tid| {
                let (stack, barrier, stop) = (&stack, &barrier, &stop);
                let seed = derive_seed(seed, tid as u64, 0);
                s.spawn(move || {
                    let mut h = stack.register();
                    barrier.wait();
                    worker(&mut h, w, tid, seed, budget, timing, stop)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let setup_s = (start - t0).as_secs_f64();
        let deadline = match len {
            Length::Millis(ms) => Some(start + Duration::from_millis(ms)),
            Length::OpsPerThread(_) => None,
        };
        if timing == Timing::Every {
            // The traced round polls how much retired memory waits for
            // reclamation; untraced rounds keep this thread asleep.
            while !workers.iter().all(|j| j.is_finished()) {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    stop.store(true, Ordering::Relaxed);
                }
                pending_peak = pending_peak.max(stack.pending());
                thread::sleep(Duration::from_millis(1));
            }
        } else if let Some(d) = deadline {
            thread::sleep(d - Instant::now());
            stop.store(true, Ordering::Relaxed);
        }
        let outs: Vec<WorkerOut> = workers
            .into_iter()
            .map(|j| j.join().expect("worker thread panicked"))
            .collect();
        (setup_s, start, outs)
    });
    let mut counters = stack.protocol();
    let after = stack.cumulative();
    counters.retired = after.retired - before.retired;
    counters.recycle_hits = after.recycle_hits - before.recycle_hits;
    counters.recycle_misses = after.recycle_misses - before.recycle_misses;
    counters.records = after.records - before.records;
    counters.entries = after.entries - before.entries;
    counters.pending_peak = pending_peak;

    let mut calls = 0;
    let mut end = start;
    let mut samples: Samples = Default::default();
    for o in outs {
        calls += o.calls;
        end = end.max(o.finished);
        for (dst, src) in samples.iter_mut().zip(o.samples) {
            dst.extend(src);
        }
        tally.merge(o.tally);
    }
    let mut drain_calls = 1; // the pop that finds the stack empty
    {
        let mut h = stack.register();
        while let Some(v) = h.pop() {
            tally.popped(v);
            drain_calls += 1;
        }
    }
    let log_ok = stack
        .logged_entries()
        .is_none_or(|e| e == PREFILL + calls + drain_calls);
    Round {
        setup_s,
        calls,
        elapsed_s: (end - start).as_secs_f64(),
        samples,
        verdict: tally.verdict(),
        log_ok,
        counters,
    }
}

static HEAP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Runs one round of workload `w` on `subject`.
pub fn round(w: &Workload, subject: Subject, len: Length, timing: Timing, seed: u64) -> Round {
    let max_threads = w.threads + 1;
    let config = SecConfig::new(2, max_threads);
    match subject {
        Subject::Base if w.durable => {
            let calls = match len {
                Length::OpsPerThread(n) => n * w.threads as u64,
                Length::Millis(_) => unreachable!("the durable workload runs a fixed op count"),
            };
            let path = heap_path();
            // Every call appends at most one record (a record holds at
            // least one entry), and the drain pops at most what the
            // prefill and the workers pushed, so this capacity cannot
            // overflow. A batch holds at most one op per handle.
            let records = 2 * (PREFILL + calls) + 1;
            let policy = DurablePolicy::file(&path)
                .record_capacity(records as usize)
                .batch_entries(max_threads);
            let r = run_on(
                w,
                || SecStack::durable(max_threads, policy).expect("create the durable stack"),
                len,
                timing,
                seed,
            );
            let _ = std::fs::remove_file(&path);
            r
        }
        Subject::Base | Subject::Plain => {
            run_on(w, || SecStack::<u64>::new(max_threads), len, timing, seed)
        }
        Subject::Yields0 => run_on(
            w,
            || SecStack::<u64>::with_config(config.freezer_yields(0)),
            len,
            timing,
            seed,
        ),
        Subject::RecycleOff => run_on(
            w,
            || SecStack::<u64>::with_config(config.recycle(sec_core::RecyclePolicy::Off)),
            len,
            timing,
            seed,
        ),
        Subject::Spin => run_on(
            w,
            || SecStack::<u64>::with_config(config.wait_policy(sec_core::WaitPolicy::Spin)),
            len,
            timing,
            seed,
        ),
        Subject::Treiber => run_on(
            w,
            || TreiberStack::<u64>::new(max_threads),
            len,
            timing,
            seed,
        ),
    }
}

/// A fresh path for a heap file in the benchmark's scratch directory.
pub fn heap_path() -> PathBuf {
    let dir = PathBuf::from(TMP_DIR);
    std::fs::create_dir_all(&dir).expect("create the benchmark's scratch directory");
    dir.join(format!(
        "heap-{}-{}",
        std::process::id(),
        HEAP_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_and_subject_conserves_its_values() {
        for w in WORKLOADS {
            for subject in [
                Subject::Base,
                Subject::Yields0,
                Subject::RecycleOff,
                Subject::Spin,
                Subject::Treiber,
            ] {
                let r = round(&w, subject, w.length(20), Timing::Every, 7);
                assert!(
                    r.ok(),
                    "{} on {subject:?}: {:?} log_ok={}",
                    w.name,
                    r.verdict,
                    r.log_ok
                );
                assert!(r.calls > 0);
                if w.durable && subject == Subject::Base {
                    assert_eq!(r.calls, DURABLE_OPS_PER_THREAD * w.threads as u64);
                    assert!(r.counters.records > 0);
                }
            }
        }
        let _ = std::fs::remove_dir(TMP_DIR);
    }
}
