//! Quickstart: create an SEC stack, share it among threads, observe the
//! batching/elimination instrumentation.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sec_repro::{SecConfig, SecStack};

fn main() {
    const THREADS: usize = 4;
    const OPS_PER_THREAD: usize = 50_000;

    // Paper defaults: two aggregators; capacity for our thread count.
    let config = SecConfig::new(2, THREADS);
    let stack: SecStack<u64> = SecStack::with_config(config);

    println!("SEC quickstart: {THREADS} threads x {OPS_PER_THREAD} ops (balanced push/pop)");

    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let stack = &stack;
            scope.spawn(move || {
                // Each thread registers once and reuses its handle.
                let mut h = stack.register();
                for i in 0..OPS_PER_THREAD {
                    if (t + i) % 2 == 0 {
                        h.push((t * OPS_PER_THREAD + i) as u64);
                    } else {
                        let _ = h.pop();
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();

    let total_ops = THREADS * OPS_PER_THREAD;
    println!(
        "completed {} ops in {:.1?} ({:.2} Mops/s)",
        total_ops,
        elapsed,
        total_ops as f64 / elapsed.as_secs_f64() / 1e6
    );

    // The instrumentation behind the paper's Table 1. Degree,
    // eliminated and combined describe the ops that reached a batch;
    // the solo share found their batch idle and applied themselves.
    let report = stack.stats().report();
    println!(
        "batches: {}, batching degree: {:.1}, eliminated: {:.0}%, combined: {:.0}%, solo: {:.0}% of updates",
        report.batches,
        report.batching_degree(),
        report.pct_eliminated(),
        report.pct_combined(),
        report.pct_solo()
    );

    // Reclamation health: with recycling on (the default), most
    // quiesced blocks are cached for reuse rather than freed.
    let rs = stack.reclaim_stats();
    println!(
        "reclamation: {} retired, {} freed, {} recycled (hit rate {:.1}%), {} still in limbo",
        rs.retired,
        rs.freed,
        rs.cached,
        rs.hit_pct(),
        rs.pending()
    );

    // Drain what's left to show the API returning values.
    let mut h = stack.register();
    let mut remaining = 0u64;
    while h.pop().is_some() {
        remaining += 1;
    }
    println!("drained {remaining} leftover elements; stack now empty");
    assert_eq!(h.pop(), None);
}
