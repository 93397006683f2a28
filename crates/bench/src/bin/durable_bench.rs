//! Pricing crash-durability: every SEC family swept across the
//! durable-logging modes, from no logging at all to the
//! flush-per-operation strawman (DESIGN.md §16).
//!
//! ```text
//! cargo run -p sec-bench --release --bin durable_bench
//! cargo run -p sec-bench --release --bin durable_bench -- --duration-ms 250 --runs 3
//! ```
//!
//! The axis of interest is the *flush-amortization gap*: a durable
//! combining batch writes one log record (and, under
//! [`SyncMode::Sync`], issues one `msync`) for a whole frozen batch of
//! operations, so the per-operation durability cost shrinks with the
//! batching degree — the same combining win the throughput figures
//! show, replayed against a persistent heap. The per-op granularity
//! rows are the strawman every persistent-object design warns about:
//! one record (and one flush) per operation, which turns the log into
//! a serial bottleneck.
//!
//! Modes, cheapest to dearest:
//!
//! | mode          | heap      | records      | flushes       |
//! |---------------|-----------|--------------|---------------|
//! | `off`         | —         | —            | —             |
//! | `vol/batch`   | anonymous | per batch    | never         |
//! | `vol/op`      | anonymous | per op       | never         |
//! | `mmap/batch`  | file      | per batch    | never (page cache survives kill−9) |
//! | `mmap/batch+sync` | file  | per batch    | one `msync` per record |
//! | `mmap/op+sync`    | file  | per op       | one `msync` per op |
//!
//! Each cell also reports `msyncs_per_op`: `msync` calls per logged
//! operation (prefill included; 0 without `+sync`). Under
//! `SyncMode::Sync` no op takes the solo path, so it stays one per
//! record: the inverse batching degree for `batch+sync`, 1 for
//! `op+sync`.
//!
//! Writes `results/durable.csv` plus the machine-readable
//! `results/BENCH_durable.json` and a repo-root `BENCH_durable.json`
//! copy (same convention as `BENCH_families.json` /
//! `BENCH_replay.json`) for trend tracking across commits.
//!
//! [`SyncMode::Sync`]: sec_core::SyncMode::Sync

use sec_bench::BenchOpts;
use sec_core::{LogGranularity, SyncMode};
use sec_workload::stats::Summary;
use sec_workload::{run_algo, Algo, DurableSetup, MapMix, Mix, RunConfig};

/// The families priced here. The adaptive stack is omitted: its
/// durable constructor is the fixed stack's (durable shards are
/// dedicated aggregators, outside the elastic range).
const FAMILIES: [Algo; 4] = [
    Algo::Sec { aggregators: 2 },
    Algo::SecQueue,
    Algo::SecCounter,
    Algo::SecMap,
];

/// One durability mode: a label and the `RunConfig::durable` value
/// that selects it (`None` = the ordinary in-memory structure).
struct Mode {
    name: &'static str,
    setup: Option<DurableSetup>,
}

/// The swept modes. Both granularities get a deep log, because the
/// log is not circular and its capacity bounds the run's op count.
/// Per-op rows get single-entry records. Per-batch rows can write one
/// record per op too: without `+sync` an op that finds its shard idle
/// logs itself as a one-entry record (8 words, packed), so 2^17
/// maximum-size records hold about 5M of them per shard. Only the
/// pages a run writes are ever faulted in.
fn modes() -> Vec<Mode> {
    let per_op = |setup: DurableSetup| DurableSetup {
        granularity: LogGranularity::PerOp,
        batch_entries: 1,
        record_capacity: 1 << 22,
        ..setup
    };
    let per_batch = |setup: DurableSetup| DurableSetup {
        record_capacity: 1 << 17,
        ..setup
    };
    vec![
        Mode {
            name: "off",
            setup: None,
        },
        Mode {
            name: "vol/batch",
            setup: Some(per_batch(DurableSetup::volatile())),
        },
        Mode {
            name: "vol/op",
            setup: Some(per_op(DurableSetup::volatile())),
        },
        Mode {
            name: "mmap/batch",
            setup: Some(per_batch(DurableSetup::file_backed())),
        },
        Mode {
            name: "mmap/batch+sync",
            setup: Some(per_batch(DurableSetup {
                sync: SyncMode::Sync,
                ..DurableSetup::file_backed()
            })),
        },
        Mode {
            name: "mmap/op+sync",
            setup: Some(per_op(DurableSetup {
                sync: SyncMode::Sync,
                ..DurableSetup::file_backed()
            })),
        },
    ]
}

/// One (family, mode) measurement.
struct Row {
    family: String,
    mode: &'static str,
    mops_mean: f64,
    cv_pct: f64,
    /// Throughput relative to the family's `off` row (1.0 = free).
    rel_off: f64,
    /// `msync` calls per logged operation, over all runs.
    msyncs_per_op: f64,
}

/// Hand-rolled JSON encoding (the workspace carries no serde; same
/// policy as the `families` and `replay` binaries).
fn durable_json(opts: &BenchOpts, threads: usize, rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"durable\",\n");
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"runs\": {},\n", opts.runs));
    out.push_str(&format!(
        "  \"duration_ms\": {},\n",
        opts.duration.as_millis()
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"mode\": \"{}\", \"mops_mean\": {:.4}, \
             \"cv_pct\": {:.2}, \"rel_off\": {:.4}, \"msyncs_per_op\": {:.4}}}{}\n",
            r.family,
            r.mode,
            r.mops_mean,
            r.cv_pct,
            r.rel_off,
            r.msyncs_per_op,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn durable_csv(rows: &[Row]) -> String {
    let mut out = String::from("family,mode,mops_mean,cv_pct,rel_off,msyncs_per_op\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.4},{:.2},{:.4},{:.4}\n",
            r.family, r.mode, r.mops_mean, r.cv_pct, r.rel_off, r.msyncs_per_op
        ));
    }
    out
}

fn main() {
    let opts = BenchOpts::from_args();
    // The axis here is the durability mode, not the thread count: one
    // moderately contended cell per (family, mode).
    let threads = opts.max_threads.clamp(2, 4);
    println!(
        "{}",
        opts.banner("durable logging: flush-per-batch vs flush-per-op")
    );
    println!("# {threads} threads per cell; rel_off = throughput / same family's 'off' row");

    let mut rows: Vec<Row> = Vec::new();
    for algo in FAMILIES {
        let mut off_mean = 0.0f64;
        println!("\n== {} ==", algo.label());
        for mode in modes() {
            let cfg = RunConfig {
                duration: opts.duration,
                prefill: opts.prefill,
                durable: mode.setup,
                map_mix: MapMix::WRITE_HEAVY,
                ..RunConfig::new(threads, Mix::UPDATE_100)
            };
            let (mut logged, mut msyncs) = (0u64, 0u64);
            let samples: Vec<f64> = (0..opts.runs)
                .map(|r| {
                    let cfg = RunConfig {
                        seed: cfg.seed ^ (r as u64) << 32,
                        ..cfg
                    };
                    let run = run_algo(algo, &cfg);
                    if let Some(d) = run.durable {
                        logged += d.entries;
                        msyncs += d.msyncs;
                    }
                    run.result.mops()
                })
                .collect();
            let msyncs_per_op = msyncs as f64 / logged.max(1) as f64;
            let s = Summary::of(&samples);
            if mode.name == "off" {
                off_mean = s.mean;
            }
            let rel = if off_mean > 0.0 {
                s.mean / off_mean
            } else {
                0.0
            };
            println!(
                "  {:>15} | {:>9.3} Mops/s (cv {:>4.1}%) | x{:.3} of off | {:.3} msyncs/op",
                mode.name,
                s.mean,
                s.cv_pct(),
                rel,
                msyncs_per_op
            );
            rows.push(Row {
                family: algo.label(),
                mode: mode.name,
                mops_mean: s.mean,
                cv_pct: s.cv_pct(),
                rel_off: rel,
                msyncs_per_op,
            });
        }
    }

    let csv = durable_csv(&rows);
    let json = durable_json(&opts, threads, &rows);
    let _ = std::fs::create_dir_all(&opts.csv_dir);
    for (path, body) in [
        (opts.csv_dir.join("durable.csv"), &csv),
        (opts.csv_dir.join("BENCH_durable.json"), &json),
        // Repo-root copy so trend tooling finds every BENCH_* drop in
        // one place (same policy as BENCH_families.json).
        (std::path::PathBuf::from("BENCH_durable.json"), &json),
    ] {
        match std::fs::write(&path, body) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}
