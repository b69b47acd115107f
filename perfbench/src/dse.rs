//! The two design-space workloads, driven through the public
//! `Explorer`/`DesignSpace` API.
//!
//! * `dse-cold` — a fresh explorer (no store) per sweep of the 144-point
//!   heuristic lattice: pure compute plus in-memory cache reuse.
//! * `dse-exact` — branch-and-bound sweeps, the only path that runs the
//!   exact scheduler.

use crate::check::{soundness_pass, use_case, Gate};
use crate::gen;
use crate::layers::Tracing;
use crate::stats::{geomean, median};
use crate::{Args, Measured, Rep};
use argo_dse::{DesignSpace, ExplorationReport, Explorer, ReportRow};
use std::collections::BTreeSet;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Exact,
}

/// One sweep: every space of the lattice through one explorer.
struct Sweep {
    wall_s: f64,
    reports: Vec<ExplorationReport>,
}

impl Sweep {
    fn run(explorer: &Explorer, spaces: &[DesignSpace]) -> Sweep {
        let t0 = Instant::now();
        let reports = spaces.iter().map(|s| explorer.explore(s)).collect();
        Sweep {
            wall_s: t0.elapsed().as_secs_f64(),
            reports,
        }
    }

    fn points(&self) -> usize {
        self.reports.iter().map(|r| r.rows.len()).sum()
    }

    fn csv(&self) -> String {
        self.reports.iter().map(ExplorationReport::to_csv).collect()
    }

    /// Deterministic work counts of this sweep: stage runs, schedule
    /// builds and cache traffic per tier. The explorer is fresh for
    /// every sweep, so its cumulative cache counters are per-sweep.
    fn counts(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = Vec::new();
        let mut add = |name: &str, v: u64| match out.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => *total += v,
            None => out.push((name.to_string(), v)),
        };
        for r in &self.reports {
            let t = &r.timing;
            add("stage.frontend_runs", t.frontend.runs);
            add("stage.seed_cost_runs", t.seed_costs.runs);
            add("stage.backend_runs", t.backend.runs);
            add("stage.verify_runs", t.verify.runs);
            add("sched.builds", t.schedule_builds.runs);
            add("rows.failed", r.failures() as u64);
        }
        let c = self.reports.last().map(|r| r.cache).unwrap_or_default();
        for (name, v) in [
            ("cache.frontend_hits", c.frontend_hits),
            ("cache.frontend_misses", c.frontend_misses),
            ("cache.seed_cost_hits", c.cost_hits),
            ("cache.seed_cost_misses", c.cost_misses),
            ("cache.schedule_hits", c.sched_hits),
            ("cache.schedule_misses", c.sched_misses),
            ("cache.store_hits", c.store_hits()),
            ("cache.store_misses", c.store_misses()),
            ("cache.point_store_hits", c.point_store_hits),
            ("cache.point_store_misses", c.point_store_misses),
        ] {
            add(name, v);
        }
        out
    }

    /// Seq-WCET / par-WCET of every answered point.
    fn speedups(&self) -> Vec<f64> {
        self.reports
            .iter()
            .flat_map(|r| {
                r.successes()
                    .map(|(_, m)| m.seq_bound as f64 / m.par_bound as f64)
            })
            .collect()
    }

    fn rows<'s>(&self, spaces: &'s [DesignSpace]) -> Vec<(ReportRow, &'s DesignSpace)> {
        self.reports
            .iter()
            .zip(spaces)
            .flat_map(|(r, s)| r.rows.iter().map(move |row| (row.clone(), s)))
            .collect()
    }
}

/// Transient outcomes (`internal-error`, deadline, leader failure) are
/// infrastructure failures, never answers.
fn check_rows(sweep: &Sweep, gate: &mut Gate) {
    for report in &sweep.reports {
        for row in &report.rows {
            gate.check(match &row.outcome {
                Err(d) if d.code.is_transient() => Err(format!(
                    "{}: transient failure {}: {}",
                    row.point.label(),
                    d.code.label(),
                    d.message
                )),
                _ => Ok(()),
            });
        }
    }
}

/// The set-up of one sweep: a fresh explorer (no store) holding the
/// lattice's use cases, generated from the seed and registered by
/// name. The sweep resolves every app from these registrations, so the
/// generation and program fingerprinting timed here are work the sweep
/// uses, and none of it is repeated inside the sweep.
fn fresh_explorer(spaces: &[DesignSpace], seed: u64, threads: usize) -> Explorer {
    let apps: BTreeSet<&str> = spaces
        .iter()
        .flat_map(|s| s.apps.iter().map(String::as_str))
        .collect();
    let mut explorer = Explorer::with_threads(threads);
    for app in apps {
        let uc = use_case(app, seed);
        explorer.register_program(app, uc.program, uc.entry);
    }
    explorer
}

pub fn run(kind: Kind, args: &Args, gate: &mut Gate, tracing: &mut Tracing) -> Measured {
    let threads = args.threads;
    let spaces = match kind {
        Kind::Exact => gen::exact_lattice(args.seed),
        Kind::Cold => gen::heuristic_lattice(args.seed),
    };
    let mut reference: Option<Sweep> = None;

    let mut first_counts: Option<Vec<(String, u64)>> = None;
    let mut speedups = Vec::new();
    let mut last_cache = None;
    let mut one_rep = |gate: &mut Gate, _traced: bool| -> Rep {
        let t0 = Instant::now();
        let explorer = fresh_explorer(&spaces, args.seed, threads);
        let setup_s = t0.elapsed().as_secs_f64();
        let sweep = Sweep::run(&explorer, &spaces);
        check_rows(&sweep, gate);
        let counts = sweep.counts();
        match &first_counts {
            None => first_counts = Some(counts.clone()),
            Some(first) => gate.expect_eq("work counts repeat across sweeps", &counts, first),
        }
        if let Some(first) = &reference {
            gate.expect_eq("sweep CSV repeats", sweep.csv(), first.csv());
        }
        if speedups.is_empty() {
            speedups = sweep.speedups();
        }
        last_cache = sweep.reports.last().map(|r| r.cache);
        let rep = Rep {
            setup_s,
            wall_s: sweep.wall_s,
            items: sweep.points(),
            latencies_ms: vec![sweep.wall_s * 1e3],
            counts,
        };
        if reference.is_none() {
            reference = Some(sweep);
        }
        rep
    };
    let reps = tracing.measure(args, gate, &mut one_rep);

    // Untimed soundness pass over the reference sweep.
    let reference = reference.expect("at least one sweep ran");
    let rows = reference.rows(&spaces);
    let (tightness, derived) = soundness_pass(&rows, args.seed, threads, gate);
    gate.check(if tightness.is_empty() {
        Err("soundness pass: no point was re-derived".into())
    } else {
        Ok(())
    });
    if tracing.is_traced() {
        if let Some(c) = &last_cache {
            tracing.set_cache_ratios(c);
        }
        tracing.add_compute_layers(&derived, args.seed);
    }

    Measured {
        setup_s: median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        unit: "sweep",
        speedup_geomean: geomean(&speedups),
        tightness_geomean: if tightness.is_empty() {
            f64::NAN
        } else {
            geomean(&tightness)
        },
        extra_counts: vec![("points".into(), reps[0].items as u64)],
        reps,
    }
}
