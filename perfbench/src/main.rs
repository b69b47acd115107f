//! `argo-perfbench` — the repository benchmark.
//!
//! ```text
//! argo-perfbench --workload dse-cold|serve-mixed|dse-exact \
//!                --seed N --seconds S --trace 0|1
//! ```
//!
//! One run measures one workload for `--seconds`, checks every output
//! it produced (see `check`), prints the work counts and metrics by
//! name and unit, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! It exits non-zero when any check failed. Scratch files live under
//! `.perfbench_work/` in the current directory and are removed on exit.

mod check;
mod dse;
mod gen;
mod layers;
mod serve;
mod stats;

use check::Gate;
use layers::Tracing;
use stats::{beyond, median, quantile, result_json, Metric};
use std::path::PathBuf;

pub const WORKLOADS: [&str; 3] = ["dse-cold", "serve-mixed", "dse-exact"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads for explorers, daemon workers and clients:
    /// the machine's parallelism (at most 8).
    pub threads: usize,
    pub work: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("argo-perfbench: {msg}");
    eprintln!(
        "usage: argo-perfbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 120.0)
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(&format!("bad argument {flag} {value}")),
        }
    }
    let threads = default_threads();
    let work = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload missing or unknown")),
        seed: seed.unwrap_or_else(|| usage("--seed missing or not a number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds missing or out of range")),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
        threads,
        work,
    }
}

/// One measured repetition: a sweep, or one serve pass.
#[derive(Clone)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Design points answered.
    pub items: usize,
    /// Client-visible latency of each request (a sweep for the DSE
    /// workloads, one daemon request for serve-mixed).
    pub latencies_ms: Vec<f64>,
    /// Deterministic work counts; they must repeat exactly.
    pub counts: Vec<(String, u64)>,
}

/// What a workload hands back for reporting.
pub struct Measured {
    pub setup_s: f64,
    pub reps: Vec<Rep>,
    /// What one repetition is called in the report.
    pub unit: &'static str,
    pub speedup_geomean: f64,
    pub tightness_geomean: f64,
    /// Further counts that describe the run (not per repetition).
    pub extra_counts: Vec<(String, u64)>,
}

fn end_to_end(m: &Measured, peak_rss_mb: f64, gate: &Gate) -> Vec<Metric> {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| median(&m.reps.iter().map(f).collect::<Vec<_>>());
    let latencies: Vec<f64> = m
        .reps
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    let p99 = quantile(&latencies, 0.99);
    println!(
        "latency samples: {} ({} above p99 {p99:.3} ms)",
        latencies.len(),
        beyond(&latencies, p99)
    );
    vec![
        Metric::new("setup_s", m.setup_s, "s"),
        Metric::new(
            "points_per_s",
            per_rep(&|r| r.items as f64 / r.wall_s),
            "points/s",
        ),
        Metric::new(
            "req_per_s",
            per_rep(&|r| r.latencies_ms.len() as f64 / r.wall_s),
            "req/s",
        ),
        Metric::new("req_p50_ms", median(&latencies), "ms"),
        Metric::new("req_p99_ms", p99, "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        Metric::new("wcet_speedup_geomean", m.speedup_geomean, "x"),
        Metric::new("bound_tightness_geomean", m.tightness_geomean, "x"),
        Metric::new(
            "failed_ratio",
            gate.failed as f64 / gate.attempted.max(1) as f64,
            "share",
        ),
    ]
}

fn main() {
    let args = parse_args();
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("argo-perfbench: cannot create {}: {e}", args.work.display());
        std::process::exit(2);
    }
    let mut gate = Gate::default();
    let mut tracing = Tracing::new(&args);
    let measured = match args.workload.as_str() {
        "dse-cold" => dse::run(dse::Kind::Cold, &args, &mut gate, &mut tracing),
        "dse-exact" => dse::run(dse::Kind::Exact, &args, &mut gate, &mut tracing),
        "serve-mixed" => serve::run(&args, &mut gate, &mut tracing),
        _ => unreachable!("workload validated at parse time"),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    let _ = std::fs::remove_dir(args.work.parent().expect("work dir has a parent"));

    println!(
        "workload {} seed {} threads {}: {} repetitions measured (one = a {})",
        args.workload,
        args.seed,
        args.threads,
        measured.reps.len(),
        measured.unit
    );
    // Work counts of one repetition (checked to repeat exactly).
    if let Some(first) = measured.reps.first() {
        let counts: Vec<String> = first
            .counts
            .iter()
            .chain(&measured.extra_counts)
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        println!("work counts per {}: {}", measured.unit, counts.join(" "));
    }
    let walls: Vec<f64> = measured.reps.iter().map(|r| r.wall_s * 1e3).collect();
    println!(
        "repetition wall ms: min {:.3} median {:.3} max {:.3}",
        quantile(&walls, 0.0),
        median(&walls),
        quantile(&walls, 1.0)
    );
    let e2e = end_to_end(&measured, tracing.peak_rss_mb, &gate);
    for m in &e2e {
        // A traced run's repetitions are half traced: only its
        // correctness figure is an end-to-end number.
        if !args.trace || m.name == "failed_ratio" {
            println!("{:<26} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
    let layer_metrics = tracing.finish(&args.workload);
    let correct = gate.failed == 0;
    println!(
        "checks: {} attempted, {} failed",
        gate.attempted, gate.failed
    );

    // The result line carries the metrics BENCHMARK.json names:
    // failed_ratio is printed above but travels as `failed`.
    let reported: Vec<Metric> = if args.trace {
        layer_metrics
    } else {
        e2e.into_iter()
            .filter(|m| m.name != "failed_ratio")
            .collect()
    };
    println!(
        "{}",
        result_json(correct, gate.attempted.max(1), gate.failed, &reported)
    );
    if !correct {
        std::process::exit(1);
    }
}
