//! Machine-readable hot-path benchmark harness → `BENCH_hotpaths.json`.
//!
//! Times the inner-loop hot paths of the tool-chain (interpreter
//! statement execution, value-analysis fixpoint, list scheduling,
//! simulated annealing and branch-and-bound on a backend task graph, one
//! seeded backend run, one full post-backend verification pass, one
//! persistent-store round trip of a `BackendResult`, one hot
//! `argo-serve` request/response roundtrip over a local socket) plus
//! the end-to-end e1/e2 experiment wall time, and writes one JSON file
//! with `median_ns` and a derived throughput per bench. A row may add
//! one more deterministic work count (`sched_anneal_egpws` reports the
//! tasks its proposal evaluations `dispatched`). When a baseline
//! file is given (`--baseline PATH`, a previous output of this harness),
//! each bench also records `before_median_ns` and the resulting
//! `speedup`, so the perf trajectory of the repo is recorded as data
//! instead of prose.
//!
//! Usage:
//!
//! ```text
//! bench_hotpaths [--out PATH] [--baseline PATH] [--samples N]
//! ```
//!
//! Defaults: `--out BENCH_hotpaths.json`, no baseline, 15 samples for
//! the micro benches (5 for the end-to-end drivers).

use argo_ir::interp::{CountingHook, Interp, NullHook};
use argo_sched::anneal::SimulatedAnnealing;
use argo_sched::bnb::BranchAndBound;
use argo_sched::list::ListScheduler;
use argo_sched::random::{random_task_graph, RandomGraphParams};
use argo_sched::{CommModel, SchedCtx, Scheduler};
use argo_wcet::value::{loop_bounds, ValueCtx};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured bench: median wall time and items processed per run.
struct BenchRow {
    name: &'static str,
    median_ns: u64,
    /// Work items per run (statements, loops, tasks, …).
    items: u64,
    /// Unit of `items` for the throughput field.
    unit: &'static str,
    /// An extra deterministic work count per run, as `(name, count)`.
    work: Option<(&'static str, u64)>,
}

fn median_ns(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn time_n<F: FnMut()>(samples: usize, mut f: F) -> u64 {
    f(); // warm-up
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        f();
        out.push(t0.elapsed().as_nanos() as u64);
    }
    median_ns(&mut out)
}

fn bench_interp_egpws(samples: usize) -> BenchRow {
    let uc = argo_apps::egpws::use_case(42);
    // Steady state: the resolution is a cached frontend artifact, so
    // the measured quantity is pure statement execution.
    let resolution = argo_ir::resolve::Resolution::of(&uc.program);
    // Count statements once (workload size for the throughput figure).
    let mut counter = CountingHook::default();
    Interp::with_resolution(&uc.program, &resolution)
        .call_full(uc.entry, uc.args.clone(), &mut counter)
        .expect("egpws runs");
    let median = time_n(samples, || {
        let mut interp = Interp::with_resolution(&uc.program, &resolution);
        let out = interp
            .call_full(uc.entry, uc.args.clone(), &mut NullHook)
            .expect("egpws runs");
        std::hint::black_box(out.ret);
    });
    BenchRow {
        name: "interp_egpws",
        median_ns: median,
        items: counter.stmts,
        unit: "stmts",
        work: None,
    }
}

fn bench_value_weaa(samples: usize) -> BenchRow {
    let uc = argo_apps::weaa::use_case(42);
    let ctx = ValueCtx::default();
    let resolution = argo_ir::resolve::Resolution::of(&uc.program);
    let bounds = loop_bounds(&uc.program, uc.entry, &ctx).expect("weaa bounds");
    let median = time_n(samples, || {
        let b = argo_wcet::value::loop_bounds_resolved(&resolution, uc.entry, &ctx)
            .expect("weaa bounds");
        std::hint::black_box(b.len());
    });
    BenchRow {
        name: "value_weaa",
        median_ns: median,
        items: bounds.len() as u64,
        unit: "loops",
        work: None,
    }
}

fn bench_list_1000(samples: usize) -> BenchRow {
    let params = RandomGraphParams {
        tasks: 1000,
        layers: 25,
        ..Default::default()
    };
    let g = random_task_graph(7, &params);
    let platform = argo_adl::Platform::xentium_manycore(4);
    let ctx = SchedCtx::new(&platform);
    let median = time_n(samples, || {
        let s = ListScheduler::new().schedule(&g, &ctx);
        std::hint::black_box(s.makespan());
    });
    BenchRow {
        name: "sched_list_1000",
        median_ns: median,
        items: g.len() as u64,
        unit: "tasks",
        work: None,
    }
}

fn bench_anneal_egpws(samples: usize) -> BenchRow {
    // Steady state: the EGPWS task graph is compiled once outside the
    // timer; the measured quantity is one full annealing run (list
    // seed plus every proposal) on the backend's comm model.
    let (platform, g) = argo_bench::backend_sched_input(&argo_apps::egpws::use_case(42), 4);
    let ctx = SchedCtx {
        platform: &platform,
        comm: CommModel::SignalOnly,
    };
    let anneal = SimulatedAnnealing::new();
    let (_, dispatched) = anneal.schedule_counted(&g, &ctx);
    let median = time_n(samples, || {
        std::hint::black_box(anneal.schedule(&g, &ctx).makespan());
    });
    BenchRow {
        name: "sched_anneal_egpws",
        median_ns: median,
        items: anneal.iterations as u64,
        unit: "proposals",
        work: Some(("dispatched", dispatched)),
    }
}

fn bench_bnb_polka4(samples: usize) -> BenchRow {
    // Steady state as above: one exact search over the POLKA task
    // graph on four cores; the work count is the expanded nodes.
    let (platform, g) = argo_bench::backend_sched_input(&argo_apps::polka::use_case(42), 4);
    let ctx = SchedCtx {
        platform: &platform,
        comm: CommModel::SignalOnly,
    };
    let (_, expanded) = BranchAndBound::new().schedule_counted(&g, &ctx);
    let median = time_n(samples, || {
        std::hint::black_box(BranchAndBound::new().schedule(&g, &ctx).makespan());
    });
    BenchRow {
        name: "sched_bnb_polka4",
        median_ns: median,
        items: expanded,
        unit: "nodes",
        work: None,
    }
}

fn bench_backend_egpws(samples: usize) -> BenchRow {
    // Steady state: the frontend artifact and the round-0 costs are
    // built once outside the timer, as the DSE cache tiers serve them;
    // the measured quantity is one seeded backend run (feedback rounds
    // of task re-costing, scheduling and placement, then the parallel
    // model and system-level WCET).
    let uc = argo_apps::egpws::use_case(42);
    let (platform, artifact, costs, tasks_costed) = argo_bench::backend_input(&uc, 4);
    let flow = argo_core::Toolflow::borrowed(&uc.program, uc.entry).platform(&platform);
    let median = time_n(samples, || {
        let r = flow
            .run_backend(&artifact, Some(&costs))
            .expect("egpws backend");
        std::hint::black_box(r.system.bound);
    });
    BenchRow {
        name: "backend_egpws",
        median_ns: median,
        items: tasks_costed,
        unit: "tasks",
        work: None,
    }
}

fn bench_verify(samples: usize) -> BenchRow {
    // Steady state: the pipeline result is compiled once outside the
    // timer; the measured quantity is one full verification pass
    // (race matrix, schedule/placement checks, IR lints).
    let uc = argo_apps::egpws::use_case(42);
    let platform = argo_adl::Platform::xentium_manycore(4);
    let result = argo_core::Toolflow::borrowed(&uc.program, uc.entry)
        .platform(&platform)
        .run()
        .expect("egpws compiles");
    let cfg = argo_verify::VerifyConfig::default();
    let tasks = result.parallel.graph.len() as u64;
    let median = time_n(samples, || {
        let report = argo_verify::verify_backend(&result, &platform, &cfg);
        std::hint::black_box(report.findings.len());
    });
    BenchRow {
        name: "verify_egpws",
        median_ns: median,
        items: tasks,
        unit: "tasks",
        work: None,
    }
}

fn bench_store_roundtrip(samples: usize) -> BenchRow {
    // Steady state: the pipeline result is compiled once outside the
    // timer; the measured quantity is one full persistent-store round
    // trip of a `BackendResult` — serialize, atomic write (tmp +
    // rename + fsync), read back, validate (magic/version/checksum/
    // content fingerprint) and deserialize. This is the per-entry cost
    // a warm-started exploration pays instead of a backend run.
    let uc = argo_apps::egpws::use_case(42);
    let platform = argo_adl::Platform::xentium_manycore(4);
    let result = argo_core::Toolflow::borrowed(&uc.program, uc.entry)
        .platform(&platform)
        .run()
        .expect("egpws compiles");
    let bytes = argo_core::codec::Codec::to_bytes(&result).len() as u64;
    let dir = std::env::temp_dir().join(format!("argo-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = argo_store::Store::open(&dir).expect("store opens");
    let key = argo_core::Fingerprint(0xbe9c);
    let median = time_n(samples, || {
        store.put_artifact("bench", key, &result);
        let back = store
            .get_artifact::<argo_core::BackendResult>("bench", key)
            .expect("entry reads back");
        std::hint::black_box(back.system.bound);
    });
    let _ = std::fs::remove_dir_all(&dir);
    BenchRow {
        name: "store_roundtrip",
        median_ns: median,
        items: bytes,
        unit: "bytes",
        work: None,
    }
}

fn bench_serve_roundtrip(samples: usize) -> BenchRow {
    // Steady state: an in-process `argo-serve` daemon over a populated
    // store; the warm-up request fills the point archive, so the
    // measured quantity is one local-socket request → cached-response
    // roundtrip (wire parse, single-flight entry, archive read,
    // response emit) — the latency a hot client pays per request.
    let dir = std::env::temp_dir().join(format!("argo-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = argo_store::Store::open(&dir).expect("store opens");
    let explorer = argo_dse::Explorer::with_threads(2).with_store(std::sync::Arc::new(store));
    let server = argo_serve::Server::start(
        argo_serve::Listener::tcp("127.0.0.1:0").expect("bind"),
        explorer,
        argo_serve::ServeConfig::default(),
    )
    .expect("server starts");
    let mut client = argo_serve::Client::connect_tcp(server.addr()).expect("connect");
    let request = r#"{"id": 1, "kind": "compile", "app": "egpws", "cores": 2}"#;
    let median = time_n(samples, || {
        let reply = client.request(request).expect("roundtrip");
        assert!(reply.is_ok(), "{}", reply.terminal);
        std::hint::black_box(reply.terminal.len());
    });
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
    BenchRow {
        name: "serve_roundtrip",
        median_ns: median,
        items: 1,
        unit: "requests",
        work: None,
    }
}

fn bench_e1(samples: usize) -> BenchRow {
    let median = time_n(samples, || {
        std::hint::black_box(argo_bench::e1_toolflow().len());
    });
    BenchRow {
        name: "e1_toolflow",
        median_ns: median,
        items: 3,
        unit: "use-cases",
        work: None,
    }
}

fn bench_e2(samples: usize) -> BenchRow {
    let median = time_n(samples, || {
        std::hint::black_box(argo_bench::e2_wcet_speedup(&[1, 2, 4]).len());
    });
    BenchRow {
        name: "e2_wcet_speedup",
        median_ns: median,
        items: 9,
        unit: "compiles",
        work: None,
    }
}

/// Extracts `"median_ns": N` for `bench` from a previous harness output
/// (good enough for the fixed format this harness itself writes).
fn baseline_median(baseline: &str, bench: &str) -> Option<u64> {
    let key = format!("\"{bench}\"");
    let obj = &baseline[baseline.find(&key)? + key.len()..];
    let obj = &obj[..obj.find('}')?];
    let field = "\"median_ns\": ";
    let v = &obj[obj.find(field)? + field.len()..];
    let end = v.find(|c: char| !c.is_ascii_digit())?;
    v[..end].parse().ok()
}

fn main() {
    let mut out_path = String::from("BENCH_hotpaths.json");
    let mut baseline_path: Option<String> = None;
    let mut samples = 15usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out PATH"),
            "--baseline" => baseline_path = Some(args.next().expect("--baseline PATH")),
            "--samples" => samples = args.next().expect("--samples N").parse().expect("number"),
            other => {
                eprintln!("usage: bench_hotpaths [--out PATH] [--baseline PATH] [--samples N]");
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    let baseline = baseline_path.map(|p| std::fs::read_to_string(&p).expect("readable baseline"));

    let e2e_samples = samples.div_ceil(3).max(3);
    let rows = [
        bench_interp_egpws(samples),
        bench_value_weaa(samples),
        bench_list_1000(samples),
        bench_anneal_egpws(samples),
        bench_bnb_polka4(samples),
        bench_backend_egpws(samples),
        bench_verify(samples),
        bench_store_roundtrip(samples),
        bench_serve_roundtrip(samples),
        bench_e1(e2e_samples),
        bench_e2(e2e_samples),
    ];

    let mut json = String::from("{\n  \"schema\": \"argo-bench/hotpaths-v1\",\n  \"benches\": {\n");
    let mut regressions: Vec<(&str, f64)> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let per_s = row.items as f64 / (row.median_ns as f64 * 1e-9);
        let _ = write!(
            json,
            "    \"{}\": {{\"median_ns\": {}, \"items\": {}, \"unit\": \"{}\", \
             \"throughput_per_s\": {:.1}",
            row.name, row.median_ns, row.items, row.unit, per_s
        );
        if let Some((name, count)) = row.work {
            let _ = write!(json, ", \"{name}\": {count}");
        }
        if let Some(before) = baseline
            .as_deref()
            .and_then(|b| baseline_median(b, row.name))
        {
            let speedup = before as f64 / row.median_ns.max(1) as f64;
            let _ = write!(
                json,
                ", \"before_median_ns\": {before}, \"speedup\": {speedup:.2}"
            );
            if speedup < 0.9 {
                regressions.push((row.name, speedup));
            }
        }
        json.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
        let work = row
            .work
            .map_or(String::new(), |(name, count)| format!(", {count} {name}"));
        eprintln!(
            "{:<16} median {:>12} ns   ({:.1} {}/s{work})",
            row.name, row.median_ns, per_s, row.unit
        );
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, json).expect("write output");
    eprintln!("wrote {out_path}");
    for (name, speedup) in &regressions {
        eprintln!(
            "WARNING: {name} regressed to {speedup:.2}x of the baseline \
             (>10% slower) — rerun on a quiet machine, then profile \
             (`--trace` flame summary) before accepting the new numbers"
        );
    }
}
