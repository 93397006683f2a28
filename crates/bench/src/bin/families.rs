//! The whole SEC family on one axis: the stack (fixed and adaptive K),
//! the queue, the fetch-add counter and the hash map, all running on
//! the same generic combining engine (DESIGN.md §12), swept across the
//! standard thread counts under their update-heavy workloads.
//!
//! ```text
//! cargo run -p sec-bench --release --bin families
//! cargo run -p sec-bench --release --bin families -- --duration-ms 5000 --runs 5
//! ```
//!
//! Absolute throughputs are not comparable across rows — a counter op
//! is a dozen instructions, a map op hashes and walks a bucket — but
//! the *scaling shape* is: every family inherits the same batching,
//! waiting and recycling machinery, so they should degrade the same
//! way as threads exceed cores. Each family's batching degree rides
//! along as an unplotted CSV column, the accounting view of the same
//! claim. Writes `results/families.csv` plus the machine-readable
//! `results/BENCH_families.json` (throughput mean/cv and p99 latency
//! per family per thread count) for trend tracking across commits.

use sec_bench::BenchOpts;
use sec_core::counter::SecCounter;
use sec_core::{SecConfig, SecMap, SecQueue, SecStack};
use sec_workload::stats::Summary;
use sec_workload::table::Figure;
use sec_workload::{
    measure_counter_latency, measure_latency, measure_map_latency, measure_queue_latency, run_algo,
    Algo, KeyDist, LatencyReport, MapMix, Mix, RunConfig, SEC_FAMILIES,
};

/// One fixed-work latency measurement for a SEC-family algorithm (the
/// sibling of the `latency` binary's dispatch, restricted to the
/// [`SEC_FAMILIES`] lineup this binary sweeps).
fn family_latency(algo: Algo, threads: usize, ops: u64) -> LatencyReport {
    let cap = threads + 1;
    let mix = Mix::UPDATE_100;
    match algo {
        Algo::Sec { aggregators } => measure_latency(
            &SecStack::<u64>::with_config(SecConfig::new(aggregators, cap)),
            threads,
            ops,
            mix,
        ),
        Algo::SecAdaptive { min_k, max_k } => measure_latency(
            &SecStack::<u64>::with_config(SecConfig::adaptive(min_k, max_k, cap)),
            threads,
            ops,
            mix,
        ),
        Algo::SecQueue => measure_queue_latency(&SecQueue::<u64>::new(cap), threads, ops, mix),
        Algo::SecCounter => measure_counter_latency(
            &SecCounter::with_config(SecConfig::new(2, cap)),
            threads,
            ops,
            mix,
        ),
        Algo::SecMap => measure_map_latency(
            &SecMap::<u64, u64>::with_config(SecConfig::new(2, cap)),
            threads,
            ops,
            MapMix::WRITE_HEAVY,
            KeyDist::Uniform { keys: 1024 },
        ),
        other => unreachable!("not a SEC family: {other}"),
    }
}

/// One (threads, throughput, p99) sample point of a family's sweep.
struct Point {
    threads: usize,
    mops_mean: f64,
    cv_pct: f64,
    p99_ns: u64,
}

/// Hand-rolled JSON encoding of the sweep (the workspace carries no
/// serde; the schema is flat enough that formatting by hand is the
/// smaller liability).
fn families_json(opts: &BenchOpts, sweep: &[usize], families: &[(String, Vec<Point>)]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"families\",\n");
    out.push_str("  \"mix\": \"upd100\",\n");
    out.push_str(&format!("  \"runs\": {},\n", opts.runs));
    out.push_str(&format!(
        "  \"duration_ms\": {},\n",
        opts.duration.as_millis()
    ));
    out.push_str(&format!(
        "  \"threads\": [{}],\n",
        sweep
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"families\": [\n");
    for (i, (name, points)) in families.iter().enumerate() {
        out.push_str(&format!("    {{\"name\": \"{name}\", \"points\": [\n"));
        for (j, p) in points.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"threads\": {}, \"mops_mean\": {:.4}, \"cv_pct\": {:.2}, \"p99_ns\": {}}}{}\n",
                p.threads,
                p.mops_mean,
                p.cv_pct,
                p.p99_ns,
                if j + 1 < points.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < families.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let opts = BenchOpts::from_args();
    println!(
        "{}",
        opts.banner("SEC families: stack, adaptive stack, queue, counter, map")
    );
    let sweep = opts.sweep();
    let latency_ops_per_thread = 2_000u64;

    let mut fig = Figure::new(
        "SEC family throughput — update-heavy workloads".to_string(),
        sweep.clone(),
    );
    let mut json_families: Vec<(String, Vec<Point>)> = Vec::with_capacity(SEC_FAMILIES.len());
    for algo in SEC_FAMILIES {
        let mut ys = Vec::with_capacity(sweep.len());
        let mut degrees = Vec::with_capacity(sweep.len());
        let mut solos = Vec::with_capacity(sweep.len());
        let mut p99s = Vec::with_capacity(sweep.len());
        let mut points = Vec::with_capacity(sweep.len());
        for &threads in &sweep {
            let cfg = RunConfig {
                duration: opts.duration,
                prefill: opts.prefill,
                // The map family reads its own mix/distribution fields;
                // the stack, queue and counter read `mix`. Update-heavy
                // everywhere so every op enters a batch.
                map_mix: sec_workload::MapMix::WRITE_HEAVY,
                ..RunConfig::new(threads, Mix::UPDATE_100)
            };
            let mut degree_sum = 0.0;
            let mut solo_sum = 0.0;
            let samples: Vec<f64> = (0..opts.runs)
                .map(|r| {
                    let cfg = RunConfig {
                        seed: cfg.seed ^ (r as u64) << 32,
                        ..cfg
                    };
                    let out = run_algo(algo, &cfg);
                    if let Some(rep) = &out.sec_report {
                        degree_sum += rep.batching_degree();
                        solo_sum += rep.pct_solo();
                    }
                    out.result.mops()
                })
                .collect();
            let s = Summary::of(&samples);
            // One fixed-work latency pass per cell feeds the p99 column
            // of the JSON drop (the histogram behind it is the same
            // HDR layout the engine's phase histograms use).
            let lat = family_latency(algo, threads, latency_ops_per_thread);
            let solo_pct = solo_sum / opts.runs.max(1) as f64;
            eprintln!(
                "  {:>7} | {threads:>3} threads: {:.3} Mops/s (cv {:.1}%), p99 {} ns, {:.0}% solo",
                algo.label(),
                s.mean,
                s.cv_pct(),
                lat.p99,
                solo_pct
            );
            ys.push(s.mean);
            degrees.push(degree_sum / opts.runs.max(1) as f64);
            solos.push(solo_pct);
            p99s.push(lat.p99 as f64);
            points.push(Point {
                threads,
                mops_mean: s.mean,
                cv_pct: s.cv_pct(),
                p99_ns: lat.p99,
            });
        }
        fig.add_series(algo.label(), ys);
        fig.add_extra(format!("{}_batch_degree", algo.label()), degrees);
        fig.add_extra(format!("{}_pct_solo", algo.label()), solos);
        fig.add_extra(format!("{}_p99_ns", algo.label()), p99s);
        json_families.push((algo.label(), points));
    }
    println!("{}", fig.render_table());
    println!("{}", fig.render_ascii_plot(12));
    if let Err(e) = fig.write_csv(&opts.csv_dir, "families") {
        eprintln!("warning: could not write CSV: {e}");
    }
    let json = families_json(&opts, &sweep, &json_families);
    let _ = std::fs::create_dir_all(&opts.csv_dir);
    // Both drops carry the same payload: results/ for the artifact
    // bundle, the repo root so trend tooling finds every BENCH_* file
    // in one place without knowing each binary's --csv dir.
    for path in [
        opts.csv_dir.join("BENCH_families.json"),
        std::path::PathBuf::from("BENCH_families.json"),
    ] {
        match std::fs::write(&path, &json) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}
