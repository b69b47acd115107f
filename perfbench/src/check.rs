//! The correctness gate. Every check that fails is one failed
//! operation; the run then reports `correct: false` and exits non-zero.
//!
//! The soundness pass re-derives every explored point through a direct
//! `Toolflow` session (no explorer, no caches) and replays the result
//! on `argo-sim` in worst-case mode: the session must reproduce the
//! explorer's bounds, and the simulator must never exceed the bound.
//! A violation is a program bug; the benchmark never tunes it away.

use argo_adl::Platform;
use argo_apps::UseCase;
use argo_core::{BackendResult, Stage, ToolchainConfig, Toolflow};
use argo_dse::{DesignSpace, ExplorationPoint, ReportRow};
use argo_sim::{simulate, SimConfig};
use argo_wcet::value::ValueCtx;
use std::collections::BTreeMap;

/// Counts checked operations and the ones that failed.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
}

impl Gate {
    /// Records one checked operation; `Err` carries what went wrong.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.fail(msg);
        }
    }

    /// Records a failure of an operation already counted as attempted.
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 20 {
            eprintln!("perfbench: FAILED: {msg}");
            self.messages.push(msg);
        }
    }

    /// Compares two values that must be equal.
    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.check(if got == want {
            Ok(())
        } else {
            Err(format!("{what}: got {got:?}, expected {want:?}"))
        });
    }
}

/// One built-in use case, built from the workload seed.
pub fn use_case(name: &str, seed: u64) -> UseCase {
    match name {
        "egpws" => argo_apps::egpws::use_case(seed),
        "weaa" => argo_apps::weaa::use_case(seed),
        "polka" => argo_apps::polka::use_case(seed),
        other => panic!("no built-in use case {other}"),
    }
}

/// The use cases of a sweep, built from the workload seed.
pub fn use_cases(seed: u64) -> BTreeMap<&'static str, UseCase> {
    ["egpws", "weaa", "polka"]
        .into_iter()
        .map(|name| (name, use_case(name, seed)))
        .collect()
}

/// Everything the traced run needs to re-time the layers of one
/// successfully re-derived point.
pub struct Derived {
    pub point: ExplorationPoint,
    pub platform: Platform,
    pub cfg: ToolchainConfig,
    pub result: BackendResult,
}

/// The explorer's toolchain configuration for `point` in `space`.
fn point_config(point: &ExplorationPoint, space: &DesignSpace) -> ToolchainConfig {
    ToolchainConfig {
        granularity: point.granularity,
        chunk_loops: point.chunk_loops,
        scheduler: point.scheduler,
        mhp: point.mhp,
        feedback_rounds: space.feedback_rounds,
        value_ctx: ValueCtx::default(),
    }
}

/// Outcome of one point of the soundness pass.
enum Verdict {
    /// Bound reproduced and simulated cycles within it.
    Sound {
        tightness: f64,
        derived: Box<Derived>,
    },
    /// The explorer's row is a deterministic diagnostic the direct
    /// session reproduces (an answer, not a failure).
    Diagnostic,
    Failed(String),
}

fn verify_row(row: &ReportRow, space: &DesignSpace, uc: &UseCase) -> Verdict {
    let point = &row.point;
    let platform = point.platform.build(point.cores, point.spm_bytes);
    let cfg = point_config(point, space);
    let label = point.label();
    let direct = Toolflow::borrowed(&uc.program, uc.entry)
        .platform(&platform)
        .config(cfg.clone())
        .run();
    let r = match (&row.outcome, direct) {
        (Ok(m), Ok(r)) => {
            if (m.par_bound, m.seq_bound) != (r.system.bound, r.sequential_bound) {
                return Verdict::Failed(format!(
                    "{label}: explorer bounds (par {}, seq {}) differ from a direct session \
                     (par {}, seq {})",
                    m.par_bound, m.seq_bound, r.system.bound, r.sequential_bound
                ));
            }
            r
        }
        (Err(d), Err(e)) if d.code == e.code => return Verdict::Diagnostic,
        // The explorer gates every point on `argo-verify`; a direct
        // session does not run that stage.
        (Err(d), Ok(_)) if d.stage == Stage::Verify && !d.code.is_transient() => {
            return Verdict::Diagnostic
        }
        (got, want) => {
            return Verdict::Failed(format!(
                "{label}: explorer outcome {:?} differs from a direct session {:?}",
                got.as_ref()
                    .map(|m| m.par_bound)
                    .map_err(|d| d.code.label()),
                want.as_ref()
                    .map(|r| r.system.bound)
                    .map_err(|d| d.code.label()),
            ))
        }
    };
    match simulate(
        &r.parallel,
        &platform,
        uc.args.clone(),
        &SimConfig::default(),
    ) {
        Ok(sim) if sim.cycles <= r.system.bound && sim.cycles > 0 => Verdict::Sound {
            tightness: r.system.bound as f64 / sim.cycles as f64,
            derived: Box::new(Derived {
                point: point.clone(),
                platform,
                cfg,
                result: r,
            }),
        },
        Ok(sim) => Verdict::Failed(format!(
            "{label}: SOUNDNESS VIOLATION (program bug): simulated {} cycles exceed the \
             par-WCET bound {}",
            sim.cycles, r.system.bound
        )),
        Err(e) => Verdict::Failed(format!("{label}: simulation failed: {}", e.msg)),
    }
}

/// The soundness pass over every row of a sweep, on `threads` threads.
/// Returns the bound/observed ratios of the sound points and their
/// re-derived results.
pub fn soundness_pass(
    rows: &[(ReportRow, &DesignSpace)],
    seed: u64,
    threads: usize,
    gate: &mut Gate,
) -> (Vec<f64>, Vec<Derived>) {
    let ucs = use_cases(seed);
    let verdicts: Vec<Verdict> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let ucs = &ucs;
                scope.spawn(move || {
                    rows.iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|(row, space)| match ucs.get(row.point.app.as_str()) {
                            Some(uc) => verify_row(row, space, uc),
                            None => Verdict::Failed(format!("unknown app {}", row.point.app)),
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("soundness worker panicked"))
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect()
    });
    let mut tightness = Vec::new();
    let mut derived = Vec::new();
    for verdict in verdicts {
        gate.check(match verdict {
            Verdict::Sound {
                tightness: t,
                derived: d,
            } => {
                tightness.push(t);
                derived.push(*d);
                Ok(())
            }
            Verdict::Diagnostic => Ok(()),
            Verdict::Failed(msg) => Err(msg),
        });
    }
    (tightness, derived)
}
