//! The traced run: per-layer metrics and the per-workload layer table.
//!
//! End-to-end metrics always come from untraced runs. With `--trace 1`
//! the run first measures half its time untraced, then turns on
//! `argo_trace` spans and gated metrics and measures the other half,
//! folding the program's existing spans (`stage.*`, `backend.round`,
//! `dse.point`, `serve.request`) into self/total times per repetition.
//! Layers below the stage level have no spans inside the program, so
//! they are timed from outside: after the measurement, this module
//! calls each layer's public function on the inputs the workload fed
//! it (distinct frontend inputs, every re-derived point's final task
//! graph, every store entry) and reports that time per repetition.

use crate::check::{use_cases, Derived, Gate};
use crate::stats::{median, peak_rss_mb, reset_peak_rss, Metric};
use crate::{Args, Rep};
use argo_core::{Codec, FrontendArtifact, Toolflow};
use argo_dse::cache::{NS_COSTS, NS_FRONTEND, NS_POINT, NS_SCHEDULE};
use argo_dse::report::StoredPoint;
use argo_dse::space::granularity_label;
use argo_dse::CacheStats;
use argo_sched::anneal::SimulatedAnnealing;
use argo_sched::bnb::BranchAndBound;
use argo_sched::list::ListScheduler;
use argo_sched::{CommModel, SchedCtx, Schedule, Scheduler};
use argo_store::Store;
use argo_wcet::value::{loop_bounds_resolved, ValueCtx};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Every per-layer metric, in report order, with its unit.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("core.frontend_ms", "ms"),
    ("core.seed_costs_ms", "ms"),
    ("core.backend_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.backend_rounds", "count"),
    ("ir.validate_ms", "ms"),
    ("transform.ms", "ms"),
    ("ir.resolve_ms", "ms"),
    ("wcet.value_ms", "ms"),
    ("htg.extract_ms", "ms"),
    ("htg.tasks", "count"),
    ("sched.list_ms", "ms"),
    ("sched.anneal_ms", "ms"),
    ("sched.bnb_ms", "ms"),
    ("sched.builds", "count"),
    ("sched.anneal_proposals", "count"),
    ("sched.bnb_expanded", "count"),
    ("sched.bnb_pruned", "count"),
    ("wcet.seed_cost_ms", "ms"),
    ("wcet.system_ms", "ms"),
    ("wcet.fixpoint_iters", "count"),
    ("parir.mem_assign_ms", "ms"),
    ("parir.build_ms", "ms"),
    ("verify.ms", "ms"),
    ("verify.findings", "count"),
    ("dse.frontend_hit_ratio", "ratio"),
    ("dse.seed_costs_hit_ratio", "ratio"),
    ("dse.schedule_hit_ratio", "ratio"),
    ("dse.point_archive_hit_ratio", "ratio"),
    ("dse.worker_busy_ratio", "ratio"),
    ("codec.encode_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("codec.bytes", "bytes"),
    ("store.get_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.entries_written", "count"),
    ("store.bytes_written", "bytes"),
    ("store.hit_ratio", "ratio"),
    ("store.corrupt", "count"),
    ("serve.request_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.coalesced", "count"),
    ("serve.pipeline_runs", "count"),
    ("serve.queue_depth_max", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.remainder_ms", "ms"),
];

/// Gated program counters read as deltas over the traced half.
const GATED_COUNTERS: &[(&str, &str)] = &[
    (
        "sched.anneal_proposals",
        "argo_sched_anneal_proposals_total",
    ),
    ("sched.bnb_expanded", "argo_sched_bnb_expanded_total"),
    ("sched.bnb_pruned", "argo_sched_bnb_pruned_total"),
    ("dse.worker_busy_us", "argo_dse_worker_busy_us_total"),
    ("dse.worker_wall_us", "argo_dse_worker_wall_us_total"),
];

fn counter(name: &str) -> u64 {
    argo_trace::metrics()
        .get_counter(name)
        .map_or(0, |c| c.get())
}

fn fixpoint_iters() -> u64 {
    argo_trace::metrics()
        .get_histogram("argo_wcet_fixpoint_iters")
        .map_or(0, |h| h.sum())
}

#[derive(Default, Clone, Copy)]
struct SpanTotal {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// Measurement loop and layer collector of one run.
pub struct Tracing {
    traced: bool,
    spans: BTreeMap<String, SpanTotal>,
    traced_reps: Vec<Rep>,
    untraced_rate: f64,
    counters_before: Vec<u64>,
    counters_after: Vec<u64>,
    fixpoint_before: u64,
    fixpoint_after: u64,
    /// Per-repetition layer values set by the workloads and the
    /// out-of-band layer calls.
    values: BTreeMap<&'static str, f64>,
    /// Worker threads the spans were recorded on (for the remainder).
    threads: usize,
    pub peak_rss_mb: f64,
}

/// Repetitions of a run at least, however long each takes.
const MIN_REPS: usize = 3;

fn rate(reps: &[Rep]) -> f64 {
    median(
        &reps
            .iter()
            .map(|r| r.items as f64 / r.wall_s)
            .collect::<Vec<_>>(),
    )
}

impl Tracing {
    pub fn new(args: &Args) -> Tracing {
        Tracing {
            traced: args.trace,
            spans: BTreeMap::new(),
            traced_reps: Vec::new(),
            untraced_rate: 0.0,
            counters_before: Vec::new(),
            counters_after: Vec::new(),
            fixpoint_before: 0,
            fixpoint_after: 0,
            values: BTreeMap::new(),
            threads: args.threads,
            peak_rss_mb: 0.0,
        }
    }

    /// Runs `rep` until the run's time is spent. Untraced runs measure
    /// `--seconds`; traced runs measure half untraced (the overhead
    /// base) and half traced.
    pub fn measure(
        &mut self,
        args: &Args,
        gate: &mut Gate,
        rep: &mut dyn FnMut(&mut Gate, bool) -> Rep,
    ) -> Vec<Rep> {
        let budget = Duration::from_secs_f64(args.seconds);
        let loop_for =
            |budget: Duration, gate: &mut Gate, rep: &mut dyn FnMut(&mut Gate, bool) -> Rep| {
                let t0 = Instant::now();
                let mut reps = Vec::new();
                while reps.len() < MIN_REPS || t0.elapsed() < budget {
                    reps.push(rep(gate, false));
                }
                reps
            };
        reset_peak_rss();
        if !self.traced {
            let reps = loop_for(budget, gate, rep);
            self.peak_rss_mb = peak_rss_mb();
            return reps;
        }
        let mut reps = loop_for(budget / 2, gate, rep);
        self.peak_rss_mb = peak_rss_mb();
        self.untraced_rate = rate(&reps);

        argo_trace::enable_metrics();
        argo_trace::enable_spans();
        argo_trace::global().clear();
        self.counters_before = GATED_COUNTERS.iter().map(|(_, n)| counter(n)).collect();
        self.fixpoint_before = fixpoint_iters();
        let t0 = Instant::now();
        while self.traced_reps.len() < MIN_REPS || t0.elapsed() < budget / 2 {
            let r = rep(gate, true);
            let records = argo_trace::global().snapshot();
            argo_trace::global().clear();
            for row in argo_trace::flame_rows(&records) {
                let total = self.spans.entry(row.name).or_default();
                total.count += row.count;
                total.total_ns += row.total_ns;
                total.self_ns += row.self_ns;
            }
            self.traced_reps.push(r.clone());
            reps.push(r);
        }
        self.counters_after = GATED_COUNTERS.iter().map(|(_, n)| counter(n)).collect();
        self.fixpoint_after = fixpoint_iters();
        argo_trace::global().disable();
        reps
    }

    fn traced_n(&self) -> f64 {
        self.traced_reps.len().max(1) as f64
    }

    fn span_ms(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |s| s.total_ns as f64 / 1e6)
            / self.traced_n()
    }

    fn span_count(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.count as f64) / self.traced_n()
    }

    fn gated(&self, name: &str) -> f64 {
        let i = GATED_COUNTERS
            .iter()
            .position(|(n, _)| *n == name)
            .expect("known gated counter");
        match (self.counters_before.get(i), self.counters_after.get(i)) {
            (Some(b), Some(a)) => a.saturating_sub(*b) as f64 / self.traced_n(),
            _ => 0.0,
        }
    }

    fn sched_builds(&self) -> f64 {
        self.traced_reps
            .first()
            .and_then(|r| r.counts.iter().find(|(n, _)| n == "sched.builds"))
            .map_or(0.0, |(_, v)| *v as f64)
    }

    /// Sets one per-repetition layer value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "{name}");
        self.values.insert(name, value);
    }

    fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_insert(0.0) += value;
    }

    pub fn is_traced(&self) -> bool {
        self.traced
    }

    /// Times the compute layers from outside on the inputs one
    /// repetition fed them: each distinct frontend input once (the
    /// frontend and seed-cost tiers build each once per repetition),
    /// and every re-derived point's final task graph, placement and
    /// system analysis once.
    pub fn add_compute_layers(&mut self, derived: &[Derived], seed: u64) {
        if !self.traced || derived.is_empty() {
            return;
        }
        let ucs = use_cases(seed);
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;

        // Frontend sub-layers, the same calls in the same order as the
        // frontend stage, once per distinct (program, transforms,
        // core count) input; seed costs once per distinct (frontend
        // input, platform).
        let mut frontend_inputs = BTreeMap::new();
        let mut seed_inputs = BTreeMap::new();
        for d in derived {
            let p = &d.point;
            let key = (
                p.app.as_str(),
                granularity_label(p.granularity),
                p.chunk_loops,
                p.cores,
            );
            frontend_inputs.entry(key).or_insert(d);
            seed_inputs.entry((key, p.platform.label())).or_insert(d);
        }
        for d in frontend_inputs.into_values() {
            let p = &d.point;
            let uc = &ucs[p.app.as_str()];
            let entry = uc.entry;
            let mut program = uc.program.clone();
            let t = Instant::now();
            let _ = argo_ir::validate::validate(&program);
            self.add("ir.validate_ms", ms(t));
            let t = Instant::now();
            let _ = argo_transform::Pass::run(&argo_transform::fold::ConstantFold, &mut program);
            program.renumber();
            if d.cfg.chunk_loops && p.cores > 1 {
                let _ =
                    argo_transform::chunk::chunk_all_parallel_loops(&mut program, entry, p.cores);
                let _ =
                    argo_transform::Pass::run(&argo_transform::fold::ConstantFold, &mut program);
                program.renumber();
            }
            self.add("transform.ms", ms(t));
            let t = Instant::now();
            let _ = argo_ir::validate::validate(&program);
            self.add("ir.validate_ms", ms(t));
            let t = Instant::now();
            let resolution = argo_ir::resolve::Resolution::of(&program);
            self.add("ir.resolve_ms", ms(t));
            let t = Instant::now();
            let bounds = loop_bounds_resolved(&resolution, entry, &ValueCtx::default());
            self.add("wcet.value_ms", ms(t));
            let t = Instant::now();
            if let (Ok(mut htg), Ok(bounds)) = (
                argo_htg::extract::extract(&program, entry, p.granularity),
                bounds,
            ) {
                let actx = argo_htg::accesses::AnnotateCtx {
                    bounds,
                    default_bound: 1,
                };
                argo_htg::accesses::annotate(&mut htg, &program, &actx);
                self.add("htg.extract_ms", ms(t));
                self.add("htg.tasks", htg.top_level.len() as f64);
            }
        }

        // Round-0 code-level WCETs.
        for d in seed_inputs.values() {
            let uc = &ucs[d.point.app.as_str()];
            let flow = Toolflow::borrowed(&uc.program, uc.entry)
                .platform(&d.platform)
                .config(d.cfg.clone());
            let Ok(artifact): Result<FrontendArtifact, _> = flow.run_frontend() else {
                continue;
            };
            let t = Instant::now();
            let _ = flow.run_seed_costs(&artifact);
            self.add("wcet.seed_cost_ms", ms(t));
        }

        // Per point: the point's own scheduler on its final task graph,
        // placement, parallel-model construction, system-level WCET and
        // the verification suite.
        for d in derived {
            let r = &d.result;
            let pp = &r.parallel;
            let ctx = SchedCtx {
                platform: &d.platform,
                comm: CommModel::SignalOnly,
            };
            let (name, scheduler): (&'static str, Box<dyn Scheduler>) = match d.cfg.scheduler {
                argo_core::SchedulerKind::List => ("sched.list_ms", Box::new(ListScheduler::new())),
                argo_core::SchedulerKind::Anneal => {
                    ("sched.anneal_ms", Box::new(SimulatedAnnealing::new()))
                }
                argo_core::SchedulerKind::BranchAndBound => {
                    ("sched.bnb_ms", Box::new(BranchAndBound::new()))
                }
            };
            let t = Instant::now();
            let schedule: Schedule = scheduler.schedule(&pp.graph, &ctx);
            self.add(name, ms(t));
            std::hint::black_box(schedule);

            let t = Instant::now();
            let mem = argo_parir::mem_assign::assign(
                &pp.program,
                &r.htg,
                &pp.graph,
                &pp.schedule,
                &d.platform,
            );
            self.add("parir.mem_assign_ms", ms(t));
            std::hint::black_box(mem.ok());

            let (program, graph, schedule) =
                (pp.program.clone(), pp.graph.clone(), pp.schedule.clone());
            let t = Instant::now();
            let built =
                argo_parir::ParallelProgram::build(program, &r.htg, graph, schedule, &d.platform);
            self.add("parir.build_ms", ms(t));
            std::hint::black_box(built.ok());

            let t = Instant::now();
            let system = argo_wcet::system::analyze(
                pp,
                &d.platform,
                &r.iso_costs,
                &r.shared_accesses,
                d.cfg.mhp,
            );
            self.add("wcet.system_ms", ms(t));
            std::hint::black_box(system);

            let vcfg = argo_verify::VerifyConfig {
                mhp: d.cfg.mhp,
                ..argo_verify::VerifyConfig::default()
            };
            let t = Instant::now();
            let report = argo_verify::verify_backend(r, &d.platform, &vcfg);
            self.add("verify.ms", ms(t));
            self.add("verify.findings", report.findings.len() as f64);
        }
    }

    /// Times the codec from outside on every entry of a populated
    /// store: decode as an archive read does, re-encode as a write does.
    /// A repetition writes every entry once and reads each point
    /// entry `reads_per_rep` times.
    pub fn add_codec_layers(&mut self, store_dir: &Path, reads_per_rep: f64) {
        if !self.traced {
            return;
        }
        let Ok(store) = Store::open(store_dir) else {
            return;
        };
        let (mut decode_ms, mut encode_ms, mut read_bytes, mut written_bytes) =
            (0.0, 0.0, 0u64, 0u64);
        for entry in store.ls() {
            let Some((_, payload)) = store.get_raw(&entry.namespace, entry.key) else {
                continue;
            };
            let t = Instant::now();
            let encoded = match entry.namespace.as_str() {
                NS_POINT => StoredPoint::from_bytes(&payload)
                    .ok()
                    .map(|v| (t.elapsed(), v.to_bytes())),
                NS_FRONTEND => FrontendArtifact::from_bytes(&payload)
                    .ok()
                    .map(|v| (t.elapsed(), v.to_bytes())),
                NS_COSTS => argo_core::CostTable::from_bytes(&payload)
                    .ok()
                    .map(|v| (t.elapsed(), v.to_bytes())),
                NS_SCHEDULE => Schedule::from_bytes(&payload)
                    .ok()
                    .map(|v| (t.elapsed(), v.to_bytes())),
                _ => None,
            };
            let Some((decode, bytes)) = encoded else {
                continue;
            };
            let encode = t.elapsed() - decode;
            written_bytes += bytes.len() as u64;
            encode_ms += encode.as_secs_f64() * 1e3;
            if entry.namespace == NS_POINT {
                decode_ms += decode.as_secs_f64() * 1e3;
                read_bytes += payload.len() as u64;
            }
        }
        self.set("codec.decode_ms", decode_ms * reads_per_rep);
        self.set("codec.encode_ms", encode_ms);
        self.set(
            "codec.bytes",
            read_bytes as f64 * reads_per_rep + written_bytes as f64,
        );
    }

    /// Hit ratios of the explorer's cache tiers over one repetition.
    pub fn set_cache_ratios(&mut self, c: &CacheStats) {
        let ratio = |hits: u64, misses: u64| {
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            }
        };
        self.set(
            "dse.frontend_hit_ratio",
            ratio(c.frontend_hits, c.frontend_misses),
        );
        self.set(
            "dse.seed_costs_hit_ratio",
            ratio(c.cost_hits, c.cost_misses),
        );
        self.set(
            "dse.schedule_hit_ratio",
            ratio(c.sched_hits, c.sched_misses),
        );
        self.set(
            "dse.point_archive_hit_ratio",
            ratio(c.point_store_hits, c.point_store_misses),
        );
    }

    /// Store-handle metrics of one repetition's handle.
    pub fn add_store_handle(&mut self, store: &Store, entries_written: u64, bytes_written: u64) {
        let c = store.counters();
        let hist_ms = |name: &str| {
            store
                .registry()
                .get_histogram(name)
                .map_or(0.0, |h| h.sum() as f64 / 1e3)
        };
        self.set("store.get_ms", hist_ms("argo_store_get_latency_us"));
        self.set("store.put_ms", hist_ms("argo_store_put_latency_us"));
        self.set("store.entries_written", entries_written as f64);
        self.set("store.bytes_written", bytes_written as f64);
        let lookups = c.lookups();
        self.set(
            "store.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                c.hits as f64 / lookups as f64
            },
        );
        self.set("store.corrupt", c.corrupt as f64);
    }

    /// Per-layer metrics of this run (zero where the workload does not
    /// exercise the layer), and the layer table on stdout.
    pub fn finish(&mut self, workload: &str) -> Vec<Metric> {
        if !self.traced {
            return Vec::new();
        }
        for (name, span) in [
            ("core.frontend_ms", "stage.frontend"),
            ("core.seed_costs_ms", "stage.seed-costs"),
            ("core.backend_ms", "stage.backend"),
            ("core.verify_ms", "stage.verify"),
        ] {
            self.values.insert(name, self.span_ms(span));
        }
        self.values
            .insert("core.backend_rounds", self.span_count("backend.round"));
        for name in [
            "sched.anneal_proposals",
            "sched.bnb_expanded",
            "sched.bnb_pruned",
        ] {
            self.values.insert(name, self.gated(name));
        }
        self.values.insert(
            "wcet.fixpoint_iters",
            self.fixpoint_after.saturating_sub(self.fixpoint_before) as f64 / self.traced_n(),
        );
        let wall = self.gated("dse.worker_wall_us");
        if wall > 0.0 {
            self.values.insert(
                "dse.worker_busy_ratio",
                self.gated("dse.worker_busy_us") / wall,
            );
        }
        if self.spans.contains_key("serve.request") {
            let request_ms = self.span_ms("serve.request");
            let client_ms: f64 = self
                .traced_reps
                .iter()
                .map(|r| r.latencies_ms.iter().sum::<f64>())
                .sum::<f64>()
                / self.traced_n();
            self.values.insert("serve.request_ms", request_ms);
            self.values.insert("serve.wire_ms", client_ms - request_ms);
        }
        self.values.insert("sched.builds", self.sched_builds());
        let traced_rate = rate(&self.traced_reps);
        self.values
            .insert("trace.overhead_ratio", traced_rate / self.untraced_rate);

        let wall_ms =
            self.traced_reps.iter().map(|r| r.wall_s * 1e3).sum::<f64>() / self.traced_n();
        let self_sum: f64 = self
            .spans
            .values()
            .map(|s| s.self_ns as f64 / 1e6)
            .sum::<f64>()
            / self.traced_n();
        let remainder = wall_ms - self_sum / self.threads.max(1) as f64;
        self.values.insert("trace.remainder_ms", remainder);

        println!(
            "layer table — {workload}, per repetition, traced half ({} reps)",
            self.traced_reps.len()
        );
        println!(
            "  in-run spans (self time; {} worker threads):",
            self.threads
        );
        println!(
            "  {:>12} {:>12} {:>10}  span",
            "self ms", "total ms", "count"
        );
        let mut spans: Vec<_> = self.spans.iter().collect();
        spans.sort_by_key(|(_, s)| std::cmp::Reverse(s.self_ns));
        for (name, s) in spans {
            println!(
                "  {:>12.3} {:>12.3} {:>10.1}  {name}",
                s.self_ns as f64 / 1e6 / self.traced_n(),
                s.total_ns as f64 / 1e6 / self.traced_n(),
                s.count as f64 / self.traced_n()
            );
        }
        println!(
            "  {:>12.3} {:>12} {:>10}  (unexplained remainder of {wall_ms:.3} ms wall)",
            remainder, "", ""
        );
        println!("  layer metrics (out-of-band calls, gated counters, handles):");
        let metrics: Vec<Metric> = LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                Metric::new(name, self.values.get(name).copied().unwrap_or(0.0), unit)
            })
            .collect();
        for m in &metrics {
            println!("  {:>16.4} {:<6} {}", m.value, m.unit, m.name);
        }
        metrics
    }
}
