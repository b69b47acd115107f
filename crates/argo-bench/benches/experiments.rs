//! Criterion benches over the experiment drivers (EXPERIMENTS.md).
//!
//! Each group measures the runtime of one tool-chain component on the
//! POLKA use case / random graphs, so regressions in the analyses and
//! schedulers are caught. The table-generating experiment binaries
//! (`cargo run -p argo-bench --bin eN_... --release`) produce the actual
//! evaluation numbers.

use argo_adl::Platform;
use argo_core::{ToolchainConfig, Toolflow};
use argo_sched::anneal::SimulatedAnnealing;
use argo_sched::bnb::BranchAndBound;
use argo_sched::list::ListScheduler;
use argo_sched::random::{random_task_graph, RandomGraphParams};
use argo_sched::{SchedCtx, Scheduler};
use argo_sim::{simulate, SimConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_toolchain(c: &mut Criterion) {
    let mut g = c.benchmark_group("e1_toolflow");
    g.sample_size(10);
    let uc = &argo_apps::all_use_cases(42)[2]; // POLKA
    let platform = Platform::xentium_manycore(4);
    g.bench_function("compile_polka_4core", |b| {
        b.iter(|| {
            let r = Toolflow::new(black_box(uc.program.clone()), uc.entry)
                .platform(&platform)
                .config(ToolchainConfig::default())
                .run()
                .unwrap();
            black_box(r.system.bound)
        })
    });
    g.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim");
    g.sample_size(10);
    let uc = &argo_apps::all_use_cases(42)[2];
    let platform = Platform::xentium_manycore(4);
    let r = Toolflow::new(uc.program.clone(), uc.entry)
        .platform(&platform)
        .config(ToolchainConfig::default())
        .run()
        .unwrap();
    g.bench_function("simulate_polka_4core", |b| {
        b.iter(|| {
            let s = simulate(
                &r.parallel,
                &platform,
                black_box(uc.args.clone()),
                &SimConfig::default(),
            )
            .unwrap();
            black_box(s.cycles)
        })
    });
    g.finish();
}

fn bench_schedulers(c: &mut Criterion) {
    let mut g = c.benchmark_group("e4_schedulers");
    g.sample_size(10);
    let platform = Platform::xentium_manycore(4);
    let ctx = SchedCtx::new(&platform);
    let graph = random_task_graph(
        1,
        &RandomGraphParams {
            tasks: 12,
            ..Default::default()
        },
    );
    g.bench_function("list_12", |b| {
        b.iter(|| {
            black_box(
                ListScheduler::new()
                    .schedule(black_box(&graph), &ctx)
                    .makespan(),
            )
        })
    });
    g.bench_function("bnb_12", |b| {
        b.iter(|| {
            black_box(
                BranchAndBound::new()
                    .schedule(black_box(&graph), &ctx)
                    .makespan(),
            )
        })
    });
    g.bench_function("anneal_12", |b| {
        b.iter(|| {
            black_box(
                SimulatedAnnealing::with_seed(1)
                    .schedule(black_box(&graph), &ctx)
                    .makespan(),
            )
        })
    });
    g.finish();
}

fn bench_wcet(c: &mut Criterion) {
    let mut g = c.benchmark_group("wcet");
    g.sample_size(10);
    let uc = argo_apps::egpws::use_case(42);
    let platform = Platform::xentium_manycore(1);
    let mem = argo_adl::MemoryMap::new();
    let bounds = argo_wcet::value::loop_bounds(&uc.program, uc.entry, &Default::default()).unwrap();
    let calls = argo_ir::resolve::Resolution::of(&uc.program);
    let entry = [calls.function_index(uc.entry).unwrap() as u32];
    g.bench_function("schema_egpws", |b| {
        b.iter(|| {
            let ctx =
                argo_wcet::cost::CostCtx::new(&uc.program, &platform, argo_adl::CoreId(0), 1, &mem);
            black_box(argo_wcet::schema::function_wcets(&ctx, &bounds, &calls, &entry).unwrap())
        })
    });
    g.bench_function("ipet_egpws", |b| {
        let ctx =
            argo_wcet::cost::CostCtx::new(&uc.program, &platform, argo_adl::CoreId(0), 1, &mem);
        let fw = argo_wcet::schema::function_wcets(&ctx, &bounds, &calls, &entry).unwrap();
        b.iter(|| {
            black_box(argo_wcet::ipet::function_wcet_ipet(&ctx, &bounds, &fw, uc.entry).unwrap())
        })
    });
    g.finish();
}

fn bench_search(c: &mut Criterion) {
    use argo_core::SchedulerKind;
    use argo_dse::{DesignSpace, Explorer, PlatformKind};

    let mut g = c.benchmark_group("e9_search");
    g.sample_size(10);
    let space = DesignSpace::new()
        .app("polka")
        .platforms(vec![PlatformKind::Bus, PlatformKind::Noc])
        .cores(vec![1, 2, 4])
        .schedulers(vec![SchedulerKind::List, SchedulerKind::Anneal])
        .spm_capacities(vec![None, Some(4096)]);
    // One explorer per group: the measured quantity is steered-search
    // overhead on a warm artifact cache (the designer-iteration case).
    let explorer = Explorer::new();
    explorer.explore(&space);
    for strategy in argo_search::all_strategies() {
        g.bench_function(&format!("{}_24pt_quarter", strategy.name()), |b| {
            b.iter(|| {
                let report = explorer.search(
                    black_box(&space),
                    strategy.as_ref(),
                    argo_search::Budget::evaluations(6),
                );
                black_box(report.pareto.len())
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_toolchain,
    bench_simulator,
    bench_schedulers,
    bench_wcet,
    bench_search
);
criterion_main!(benches);
