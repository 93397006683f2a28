//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every measured run happens in a fresh child process (this binary,
//! re-executed) under a watchdog: a panic or a hang fails every call
//! that run attempted, and the benchmark moves on. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer metrics and the
//! layer ledger. The last line of standard output is one JSON object.

mod check;
mod layers;
mod run;
mod stats;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use run::{Length, Subject, Timing, Workload};
use stats::{iq_mean, median, percentile};

/// Measured window of one untraced round (timed workloads). Each
/// round runs in a process of its own, so its peak RSS is its own.
const ROUND_MS: u64 = 500;
/// Window of the warm-up round each child runs first, unreported.
const WARMUP_MS: u64 = 100;
/// Fewest rounds an untraced run measures, however short `--seconds`.
const MIN_ROUNDS: u64 = 3;
/// Slack past a child's budget before the watchdog kills it.
const WATCHDOG_SLACK: Duration = Duration::from_secs(20);

/// The end-to-end metrics with their units, in report order.
const END_TO_END: [(&str, &str); 6] = [
    ("throughput_mops", "Mops"),
    ("op_p50_ns", "ns"),
    ("op_p99_ns", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("completed_frac", "frac"),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if !check::selftest() {
        eprintln!("perfbench: the conservation checker failed its self-test");
        return ExitCode::from(3);
    }
    match opts.child.as_deref() {
        Some("e2e") => child_e2e(&opts),
        Some("traced") => child_traced(&opts),
        Some(other) => {
            eprintln!("perfbench: unknown child mode {other}");
            ExitCode::from(2)
        }
        None => parent(&opts),
    }
}

struct Opts {
    workload: Workload,
    seed: u64,
    /// Whole run for the parent and the traced child.
    seconds: u64,
    trace: bool,
    child: Option<String>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut kv = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(key.to_string(), v.clone());
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = run::workload(name).ok_or_else(|| {
        let names: Vec<_> = run::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name} (one of {})", names.join(", "))
    })?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    let trace = match kv.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let known = ["workload", "seed", "seconds", "trace", "child"];
    if let Some(k) = kv.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!("unknown option --{k}"));
    }
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        child: kv.get("child").cloned(),
    })
}

// ---------------------------------------------------------------------
// Children: print `KIND key=value …` lines for the parent to parse.
// ---------------------------------------------------------------------

/// Peak resident set of this process, from the kernel's high-water mark.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One untraced round after a warm-up round, each on a fresh
/// structure; the warm-up fills the allocator and thread caches.
fn child_e2e(o: &Opts) -> ExitCode {
    let w = &o.workload;
    let mut ok = true;
    for (warm, len) in [(true, w.warmup(WARMUP_MS)), (false, w.length(ROUND_MS))] {
        let r = run::round(
            w,
            Subject::Base,
            len,
            Timing::Sampled,
            run::derive_seed(o.seed, u64::from(warm), 1),
        );
        ok &= r.ok();
        let mut samples: Vec<u32> = r.samples.iter().flatten().copied().collect();
        println!(
            "ROUND warm={} calls={} elapsed={} setup={} p50={} p99={} samples={} ok={} lost={} dup={} foreign={} log_ok={}",
            u8::from(warm),
            r.calls,
            r.elapsed_s,
            r.setup_s,
            percentile(&mut samples, 0.50),
            percentile(&mut samples, 0.99),
            samples.len(),
            u8::from(r.ok()),
            r.verdict.lost,
            r.verdict.dup,
            r.verdict.foreign,
            u8::from(r.log_ok)
        );
    }
    println!("DONE rss_mb={}", peak_rss_mb());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn child_traced(o: &Opts) -> ExitCode {
    let t = layers::traced(&o.workload, o.seed, o.seconds * 1000);
    for (name, per_call, ns) in &t.ledger {
        println!("LEDGER {ns}|{per_call}|{name}");
    }
    for (name, v) in &t.metrics {
        println!("METRIC {name}={v}");
    }
    println!("DONE calls={} ok={}", t.calls, u8::from(t.ok));
    if t.ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// Parent: spawn, watch, aggregate, report.
// ---------------------------------------------------------------------

/// A child's output lines and whether it exited cleanly in time.
struct ChildRun {
    lines: Vec<String>,
    clean: bool,
}

/// Runs this binary as a child and kills it if it outlives `timeout`.
fn spawn_child(o: &Opts, mode: &str, seed: u64, timeout: Duration) -> ChildRun {
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let mut child = Command::new(exe)
        .args(["--child", mode, "--workload", o.workload.name])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &o.seconds.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn a benchmark child");
    let stdout = child.stdout.take().expect("child stdout is piped");
    let reader = std::thread::spawn(move || {
        BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
            .collect::<Vec<_>>()
    });
    let deadline = Instant::now() + timeout;
    let status = loop {
        match child.try_wait().expect("poll the benchmark child") {
            Some(s) => break Some(s),
            None if Instant::now() >= deadline => {
                eprintln!("perfbench: child {mode} outlived its watchdog; killing it");
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let lines = reader.join().expect("join the child's output reader");
    ChildRun {
        clean: status.is_some_and(|s| s.success()),
        lines,
    }
}

/// The `key=value` fields of every line that starts with `kind`.
fn fields<'a>(lines: &'a [String], kind: &str) -> Vec<BTreeMap<&'a str, &'a str>> {
    lines
        .iter()
        .filter_map(|l| l.strip_prefix(kind).and_then(|r| r.strip_prefix(' ')))
        .map(|rest| {
            rest.split(' ')
                .filter_map(|kv| kv.split_once('='))
                .collect()
        })
        .collect()
}

fn num(m: &BTreeMap<&str, &str>, k: &str) -> f64 {
    m.get(k).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

/// The first line of `path`, trimmed, if readable.
fn first_line(path: &str) -> Option<String> {
    let s = std::fs::read_to_string(path).ok()?;
    s.lines().next().map(|l| l.trim().to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// directly (no subprocess), or `none` outside a git checkout.
fn git_commit() -> String {
    let Some(head) = first_line(".git/HEAD") else {
        return "none".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(sha) = first_line(&format!(".git/{reference}")) {
        return sha;
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..40.min(l.len())].to_string())
        })
        .unwrap_or_else(|| "none".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn parent(o: &Opts) -> ExitCode {
    let w = &o.workload;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        w.name,
        o.seed,
        o.seconds,
        u8::from(o.trace)
    );
    println!(
        "# host nproc={} cpu=\"{}\" commit={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model(),
        git_commit()
    );
    println!(
        "# workload: {} threads, {}% push / {}% pop / {}% peek, closed loop, prefill {}; {}",
        w.threads,
        w.push_pct,
        w.pop_pct,
        100 - w.push_pct - w.pop_pct,
        run::PREFILL,
        w.why
    );
    let (correct, attempted, failed, metrics) = if o.trace {
        parent_traced(o)
    } else {
        parent_e2e(o)
    };
    let _ = std::fs::remove_dir_all(run::TMP_DIR);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    ExitCode::SUCCESS
}

type Report = (bool, u64, u64, Vec<(&'static str, &'static str, f64)>);

fn parent_e2e(o: &Opts) -> Report {
    let w = &o.workload;
    let deadline = Instant::now() + Duration::from_secs(o.seconds);
    let mut runs: Vec<ChildRun> = Vec::new();
    while (runs.len() as u64) < MIN_ROUNDS || Instant::now() < deadline {
        let seed = run::derive_seed(o.seed, runs.len() as u64, 0);
        runs.push(spawn_child(
            o,
            "e2e",
            seed,
            Duration::from_millis(ROUND_MS) + WATCHDOG_SLACK,
        ));
    }

    // Calls of a round a child died in before reporting it: the
    // durable rounds' fixed counts, else the median reported round of
    // the same kind.
    let expected = |warm: bool| {
        let len = if warm {
            w.warmup(WARMUP_MS)
        } else {
            w.length(ROUND_MS)
        };
        match len {
            Length::OpsPerThread(n) => n * w.threads as u64,
            Length::Millis(_) => {
                let calls: Vec<f64> = runs
                    .iter()
                    .flat_map(|c| fields(&c.lines, "ROUND"))
                    .filter(|r| (num(r, "warm") == 1.0) == warm)
                    .map(|r| num(&r, "calls"))
                    .collect();
                (median(&calls) as u64).max(1)
            }
        }
    };

    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut mops, mut p50, mut p99, mut setups, mut rss) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut samples = 0u64;
    for (i, c) in runs.iter().enumerate() {
        let rounds = fields(&c.lines, "ROUND");
        let done = fields(&c.lines, "DONE");
        let mut calls: u64 = rounds.iter().map(|r| num(r, "calls") as u64).sum();
        let ok = c.clean && !done.is_empty() && rounds.iter().all(|r| num(r, "ok") == 1.0);
        if done.is_empty() {
            // Rounds print in order, warm-up first; add the ones missing.
            for warm in [true, false].into_iter().skip(rounds.len()) {
                calls += expected(warm);
            }
        }
        attempted += calls;
        if !ok {
            failed += calls;
            println!("child {i}: FAILED, {calls} calls counted failed");
            continue;
        }
        for r in rounds.iter().filter(|r| num(r, "warm") == 0.0) {
            mops.push(num(r, "calls") / num(r, "elapsed") / 1e6);
            p50.push(num(r, "p50"));
            p99.push(num(r, "p99"));
            setups.push(num(r, "setup"));
            samples += num(r, "samples") as u64;
        }
        rss.push(num(&done[0], "rss_mb"));
    }
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let values = [
        iq_mean(&mops),
        iq_mean(&p50),
        iq_mean(&p99),
        iq_mean(&setups),
        iq_mean(&rss),
        1.0 - failed_frac,
    ];
    println!(
        "{} rounds, one child process each: interquartile means of the rounds' throughput, latency \
         percentiles ({samples} calls sampled at random 1 in 64), set-up (construct + prefill + \
         register) and peak RSS",
        runs.len()
    );
    println!(
        "peak RSS per round: lowest {:.2} MB, median {:.2} MB, highest {:.2} MB",
        rss.iter().copied().fold(f64::INFINITY, f64::min),
        median(&rss),
        rss.iter().copied().fold(0.0, f64::max)
    );
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, u, v))
        .collect();
    for (n, u, v) in &metrics {
        println!("{n:<16} {v:>14.6} {u}");
    }
    println!(
        "{:<16} {failed_frac:>14.6} frac ({failed} of {attempted} calls)",
        "failed_frac"
    );
    (failed == 0, attempted, failed, metrics)
}

fn parent_traced(o: &Opts) -> Report {
    let c = spawn_child(
        o,
        "traced",
        o.seed,
        Duration::from_secs(o.seconds) + WATCHDOG_SLACK,
    );
    let done = fields(&c.lines, "DONE");
    let calls = done.first().map_or(0, |d| num(d, "calls") as u64);
    let ok = c.clean && done.first().is_some_and(|d| num(d, "ok") == 1.0);
    let values: BTreeMap<&str, f64> = c
        .lines
        .iter()
        .filter_map(|l| l.strip_prefix("METRIC "))
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k, v.parse().unwrap_or(0.0)))
        .collect();
    println!("ledger (ns per op of one thread, {}):", o.workload.name);
    for l in c.lines.iter().filter_map(|l| l.strip_prefix("LEDGER ")) {
        let mut parts = l.splitn(3, '|');
        let (ns, how, name) = (
            parts.next().unwrap_or(""),
            parts.next().unwrap_or(""),
            parts.next().unwrap_or(""),
        );
        let ns: f64 = ns.parse().unwrap_or(0.0);
        println!("  {name:<20} {ns:>10.1}  ({how})");
    }
    let get = |k: &str| values.get(k).copied().unwrap_or(0.0);
    println!(
        "  priced {:.1} + unexplained {:.1} = measured {:.1} ns/op",
        get("ledger.priced_ns_per_op"),
        get("ledger.unexplained_ns_per_op"),
        get("ledger.measured_ns_per_op")
    );
    let metrics: Vec<_> = layers::METRICS
        .iter()
        .map(|&(n, u)| (n, u, values.get(n).copied().unwrap_or(0.0)))
        .collect();
    for (n, u, v) in &metrics {
        println!("{n:<34} {v:>14.4} {u}");
    }
    let attempted = calls.max(1);
    let failed = if ok { 0 } else { attempted };
    (ok, attempted, failed, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares what this
    /// binary prints: every metric with its unit, and every workload
    /// with the reason it exists.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(layers::METRICS.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\": ").count();
        assert_eq!(
            declared,
            END_TO_END.len() + layers::METRICS.len(),
            "BENCHMARK.json declares metrics the binary does not print"
        );
        // Every workload BENCHMARK.json lists is one of the binary's,
        // with the same reason.
        let listed = run::WORKLOADS
            .iter()
            .filter(|w| {
                json.contains(&format!(
                    "{{\"name\": \"{}\", \"why\": \"{}\"}}",
                    w.name, w.why
                ))
            })
            .count();
        assert!(listed >= 2);
        assert_eq!(
            listed,
            json.matches("\"why\": ").count(),
            "BENCHMARK.json lists an unknown workload"
        );
    }

    #[test]
    fn options_are_validated() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse(&args(
            "--workload stack-upd100-t1 --seed 3 --seconds 10 --trace 1"
        ))
        .is_ok());
        assert!(parse(&args("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse(&args(
            "--workload stack-peek-t2 --seed 3 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse(&args(
            "--workload stack-peek-t2 --seed 3 --seconds 5 --trace 2"
        ))
        .is_err());
        assert!(parse(&args(
            "--workload stack-peek-t2 --seed 3 --seconds 5 --bogus 1"
        ))
        .is_err());
    }
}
