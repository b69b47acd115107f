//! Criterion group `hot_paths`: the inner-loop hot paths of the
//! tool-chain.
//!
//! * `interp_egpws` — interpreter statement throughput on the EGPWS
//!   kernel (slot-resolved mirror, prebuilt resolution, null hook);
//! * `value_weaa` — interval value-analysis fixpoint on the WEAA
//!   program (deepest loop nest in the use-case suite);
//! * `list_1000` — HEFT list scheduling of a synthetic 1 000-task
//!   layered DAG through the precomputed `TaskGraphIndex`;
//! * `sched_anneal_egpws` / `sched_bnb_polka4` — one simulated-annealing
//!   run on the EGPWS backend task graph and one exact branch-and-bound
//!   search on the POLKA graph (4-core bus, `SignalOnly` comm model) —
//!   the proposal and search-node kernels of the cold path;
//! * `backend_egpws` — one seeded backend run on the EGPWS frontend
//!   artifact (4-core bus): the feedback rounds' task re-costing,
//!   scheduling and placement, then the parallel model and system-level
//!   WCET — the per-point work a cached frontend leaves;
//! * `verify_egpws` — one full post-backend verification pass (race
//!   matrix, schedule/placement checks, IR lints) on a precompiled
//!   EGPWS result — the cost every gated pipeline run pays;
//! * `store_roundtrip` — one persistent-store round trip of a
//!   precompiled EGPWS `BackendResult` (serialize, atomic write, read
//!   back, validate, deserialize) — the per-entry cost a warm-started
//!   exploration pays instead of a backend run.
//!
//! CI runs this bench with `--test` (compile + run each body once, no
//! timing), so the hot paths cannot silently rot; the timed numbers
//! feed `BENCH_hotpaths.json` via the `bench_hotpaths` binary.

use argo_adl::Platform;
use argo_ir::interp::{Interp, NullHook};
use argo_ir::resolve::Resolution;
use argo_sched::anneal::SimulatedAnnealing;
use argo_sched::bnb::BranchAndBound;
use argo_sched::list::ListScheduler;
use argo_sched::random::{random_task_graph, RandomGraphParams};
use argo_sched::{CommModel, SchedCtx, Scheduler};
use argo_wcet::value::{loop_bounds_resolved, ValueCtx};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_interp(c: &mut Criterion) {
    let mut g = c.benchmark_group("hot_paths");
    g.sample_size(20);
    let uc = argo_apps::egpws::use_case(42);
    let resolution = Resolution::of(&uc.program);
    g.bench_function("interp_egpws", |b| {
        b.iter(|| {
            let mut interp = Interp::with_resolution(&uc.program, &resolution);
            let out = interp
                .call_full(uc.entry, black_box(uc.args.clone()), &mut NullHook)
                .expect("egpws runs");
            black_box(out.ret)
        })
    });
    g.finish();
}

fn bench_value(c: &mut Criterion) {
    let mut g = c.benchmark_group("hot_paths");
    g.sample_size(50);
    let uc = argo_apps::weaa::use_case(42);
    let resolution = Resolution::of(&uc.program);
    let ctx = ValueCtx::default();
    g.bench_function("value_weaa", |b| {
        b.iter(|| {
            let bounds =
                loop_bounds_resolved(black_box(&resolution), uc.entry, &ctx).expect("weaa bounds");
            black_box(bounds.len())
        })
    });
    g.finish();
}

fn bench_list(c: &mut Criterion) {
    let mut g = c.benchmark_group("hot_paths");
    g.sample_size(10);
    let graph = random_task_graph(
        7,
        &RandomGraphParams {
            tasks: 1000,
            layers: 25,
            ..Default::default()
        },
    );
    let platform = Platform::xentium_manycore(4);
    let ctx = SchedCtx::new(&platform);
    g.bench_function("list_1000", |b| {
        let idx = graph.index();
        b.iter(|| {
            black_box(
                ListScheduler::new()
                    .schedule_indexed(black_box(&graph), &idx, &ctx)
                    .makespan(),
            )
        })
    });
    g.finish();
}

fn bench_sched_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("hot_paths");
    g.sample_size(10);
    let (bus4, egpws) = argo_bench::backend_sched_input(&argo_apps::egpws::use_case(42), 4);
    let ctx = SchedCtx {
        platform: &bus4,
        comm: CommModel::SignalOnly,
    };
    g.bench_function("sched_anneal_egpws", |b| {
        b.iter(|| {
            black_box(
                SimulatedAnnealing::new()
                    .schedule(black_box(&egpws), &ctx)
                    .makespan(),
            )
        })
    });
    let (bus4, polka) = argo_bench::backend_sched_input(&argo_apps::polka::use_case(42), 4);
    let ctx = SchedCtx {
        platform: &bus4,
        comm: CommModel::SignalOnly,
    };
    g.bench_function("sched_bnb_polka4", |b| {
        b.iter(|| {
            black_box(
                BranchAndBound::new()
                    .schedule(black_box(&polka), &ctx)
                    .makespan(),
            )
        })
    });
    g.finish();
}

fn bench_backend(c: &mut Criterion) {
    let mut g = c.benchmark_group("hot_paths");
    g.sample_size(20);
    let uc = argo_apps::egpws::use_case(42);
    let (platform, artifact, costs, _) = argo_bench::backend_input(&uc, 4);
    let flow = argo_core::Toolflow::borrowed(&uc.program, uc.entry).platform(&platform);
    g.bench_function("backend_egpws", |b| {
        b.iter(|| {
            let r = flow
                .run_backend(black_box(&artifact), Some(&costs))
                .expect("egpws backend");
            black_box(r.system.bound)
        })
    });
    g.finish();
}

fn bench_verify(c: &mut Criterion) {
    let mut g = c.benchmark_group("hot_paths");
    g.sample_size(20);
    let uc = argo_apps::egpws::use_case(42);
    let platform = Platform::xentium_manycore(4);
    let result = argo_core::Toolflow::borrowed(&uc.program, uc.entry)
        .platform(&platform)
        .run()
        .expect("egpws compiles");
    let cfg = argo_verify::VerifyConfig::default();
    g.bench_function("verify_egpws", |b| {
        b.iter(|| {
            let report = argo_verify::verify_backend(black_box(&result), &platform, &cfg);
            black_box(report.findings.len())
        })
    });
    g.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("hot_paths");
    g.sample_size(20);
    let uc = argo_apps::egpws::use_case(42);
    let platform = Platform::xentium_manycore(4);
    let result = argo_core::Toolflow::borrowed(&uc.program, uc.entry)
        .platform(&platform)
        .run()
        .expect("egpws compiles");
    let dir = std::env::temp_dir().join(format!("argo-hot-paths-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = argo_store::Store::open(&dir).expect("store opens");
    let key = argo_core::Fingerprint(0xbe9c);
    g.bench_function("store_roundtrip", |b| {
        b.iter(|| {
            store.put_artifact("bench", key, black_box(&result));
            let back = store
                .get_artifact::<argo_core::BackendResult>("bench", key)
                .expect("entry reads back");
            black_box(back.system.bound)
        })
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    hot_paths,
    bench_interp,
    bench_value,
    bench_list,
    bench_sched_kernels,
    bench_backend,
    bench_verify,
    bench_store
);
criterion_main!(hot_paths);
