//! Simulated-annealing schedule refinement.
//!
//! Starts from the list schedule and explores the assignment space with
//! single-task core moves and task swaps, accepting uphill moves with the
//! Metropolis criterion. Deterministic for a fixed seed — important both
//! for reproducibility of the benches and for the tool-chain's iterative
//! optimisation loop (§ II-E), which re-runs the scheduler with inflated
//! costs and must not jitter.
//!
//! The proposal loop allocates nothing. Each proposal mutates the
//! current assignment in place and is undone when the Metropolis test
//! rejects it, instead of cloning a candidate assignment. Every
//! evaluation reuses one scratch buffer set and one per-core
//! communication-cost table, both built once per `schedule()` call. The
//! RNG draws happen in the same order as with a cloned candidate, so
//! the schedules are the same.
//!
//! Evaluation is incremental. Tasks are dispatched in one fixed
//! topological order, so a move can only change the tasks from the
//! moved task's position on. A proposal re-dispatches that suffix into
//! a candidate buffer set, which an accept commits and a reject drops.
//! A swap of two tasks on the same core is answered with the current
//! makespan without any dispatch. Every makespan equals a full
//! evaluation of the same assignment; debug builds assert it per
//! proposal.

use crate::list::ListScheduler;
use crate::{
    eval_into, evaluate_assignment_indexed, CommTable, EvalScratch, IncrementalEval, SchedCtx,
    Schedule, Scheduler, TaskGraph,
};
use argo_adl::CoreId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How to take back a rejected proposal.
enum Undo {
    /// The cores of tasks `a` and `b` were swapped.
    Swap(usize, usize),
    /// Task `t` moved away from the recorded core.
    Move(usize, CoreId),
}

/// Simulated-annealing scheduler.
#[derive(Debug, Clone, Copy)]
pub struct SimulatedAnnealing {
    /// RNG seed (fixed ⇒ deterministic result).
    pub seed: u64,
    /// Number of proposal iterations.
    pub iterations: u32,
    /// Initial temperature as a fraction of the seed makespan.
    pub initial_temp_frac: f64,
}

impl Default for SimulatedAnnealing {
    fn default() -> SimulatedAnnealing {
        SimulatedAnnealing {
            seed: 0xA6_60,
            iterations: 4000,
            initial_temp_frac: 0.1,
        }
    }
}

impl SimulatedAnnealing {
    /// Creates an annealer with the default parameters.
    pub fn new() -> SimulatedAnnealing {
        SimulatedAnnealing::default()
    }

    /// Creates an annealer with an explicit seed.
    pub fn with_seed(seed: u64) -> SimulatedAnnealing {
        SimulatedAnnealing {
            seed,
            ..SimulatedAnnealing::default()
        }
    }

    /// [`Scheduler::schedule`], also returning the number of tasks the
    /// proposal evaluations dispatched (the work behind
    /// `argo_sched_anneal_dispatched_total`).
    pub fn schedule_counted(&self, g: &TaskGraph, ctx: &SchedCtx<'_>) -> (Schedule, u64) {
        let n = g.len();
        // One adjacency index for the seed schedule and every proposal
        // evaluation — the annealer used to rebuild preds/succs/indeg
        // adjacency on all `iterations` proposals.
        let idx = g.index();
        if n == 0 {
            return (evaluate_assignment_indexed(g, &idx, ctx, &[]), 0);
        }
        let cores = ctx.cores();
        let comm = CommTable::new(ctx);
        let seed_sched = ListScheduler::new().schedule_with(g, &idx, &comm);
        if cores < 2 {
            return (seed_sched, 0);
        }
        let mut current = seed_sched.assignment.clone();
        // Evaluate the seed assignment with the same (non-insertion)
        // kernel the proposals use, so acceptance is consistent.
        let (mut eval, mut current_ms) = IncrementalEval::new(g, &idx, &comm, &current);
        #[cfg(debug_assertions)]
        let mut check = EvalScratch::default();
        let mut best = current.clone();
        let mut best_ms = current_ms;

        let mut rng = StdRng::seed_from_u64(self.seed);
        let t0 = (current_ms as f64 * self.initial_temp_frac).max(1.0);

        // Counted in locals, published once after the loop when the
        // metrics gate is on — the proposal loop stays free of shared
        // memory traffic either way.
        let mut accepts = 0u64;
        let mut dispatched = 0u64;
        for it in 0..self.iterations {
            let temp = t0 * (1.0 - it as f64 / self.iterations as f64).max(1e-6);
            // Apply the move to `current` in place; `undo` restores it
            // if the proposal is rejected. `from` is the first position
            // of the dispatch order the move changes, `None` for a swap
            // of two tasks on one core, which changes nothing.
            let (undo, from) = if n >= 2 && rng.gen_bool(0.3) {
                // Swap the cores of two tasks.
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                current.swap(a, b);
                let from = (current[a] != current[b]).then(|| idx.position(a).min(idx.position(b)));
                (Undo::Swap(a, b), from)
            } else {
                // Move one task to a random other core.
                let t = rng.gen_range(0..n);
                let mut c = rng.gen_range(0..cores);
                if CoreId(c) == current[t] {
                    c = (c + 1) % cores;
                }
                let old = std::mem::replace(&mut current[t], CoreId(c));
                (Undo::Move(t, old), Some(idx.position(t)))
            };
            let ms = match from {
                None => current_ms,
                Some(from) => {
                    dispatched += (n - from) as u64;
                    let ms = eval.propose(g, &idx, &comm, &current, from);
                    #[cfg(debug_assertions)]
                    assert_eq!(
                        ms,
                        eval_into(g, &idx, &comm, &current, &mut check),
                        "incremental makespan differs from a full evaluation"
                    );
                    ms
                }
            };
            let accept = ms <= current_ms || {
                let delta = (ms - current_ms) as f64;
                rng.gen_bool((-delta / temp).exp().clamp(0.0, 1.0))
            };
            if accept {
                accepts += 1;
                if from.is_some() {
                    eval.accept();
                }
                current_ms = ms;
                if ms < best_ms {
                    best_ms = ms;
                    best.copy_from_slice(&current);
                }
            } else {
                match undo {
                    Undo::Swap(a, b) => current.swap(a, b),
                    Undo::Move(t, old) => current[t] = old,
                }
            }
        }
        if argo_trace::metrics_on() {
            let m = argo_trace::metrics();
            m.counter("argo_sched_anneal_proposals_total")
                .add(self.iterations as u64);
            m.counter("argo_sched_anneal_accepts_total").add(accepts);
            m.counter("argo_sched_anneal_dispatched_total")
                .add(dispatched);
        }
        // The list seed uses gap insertion, which the plain evaluation
        // kernel cannot reproduce; never return worse than the seed.
        let mut scratch = EvalScratch::default();
        let schedule = if eval_into(g, &idx, &comm, &best, &mut scratch) <= seed_sched.makespan() {
            scratch.to_schedule(g, &best)
        } else {
            seed_sched
        };
        (schedule, dispatched)
    }
}

impl Scheduler for SimulatedAnnealing {
    fn schedule(&self, g: &TaskGraph, ctx: &SchedCtx<'_>) -> Schedule {
        self.schedule_counted(g, ctx).0
    }

    fn name(&self) -> &'static str {
        "sim-anneal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_graphs::{diamond, fork_join};
    use crate::CommModel;
    use argo_adl::Platform;

    #[test]
    fn produces_valid_schedules() {
        let p = Platform::xentium_manycore(3);
        let ctx = SchedCtx::new(&p);
        for g in [diamond(), fork_join(6, 120)] {
            let s = SimulatedAnnealing::new().schedule(&g, &ctx);
            s.validate(&g, &ctx).unwrap();
        }
    }

    #[test]
    fn never_worse_than_list_seed() {
        let p = Platform::xentium_manycore(4);
        let ctx = SchedCtx::new(&p);
        for g in [diamond(), fork_join(9, 333), fork_join(5, 50)] {
            let sa = SimulatedAnnealing::new().schedule(&g, &ctx);
            let ls = ListScheduler::new().schedule(&g, &ctx);
            assert!(sa.makespan() <= ls.makespan());
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = Platform::xentium_manycore(3);
        let ctx = SchedCtx::new(&p);
        let g = fork_join(7, 99);
        let a = SimulatedAnnealing::with_seed(7).schedule(&g, &ctx);
        let b = SimulatedAnnealing::with_seed(7).schedule(&g, &ctx);
        assert_eq!(a, b);
    }

    #[test]
    fn improves_a_deliberately_unbalanced_case() {
        // Independent tasks with unequal sizes: list scheduling by rank is
        // already decent, but SA must find a balanced split too.
        let p = Platform::xentium_manycore(2);
        let ctx = SchedCtx {
            platform: &p,
            comm: CommModel::Free,
        };
        let g = TaskGraph {
            cost: vec![8, 7, 6, 5, 4, 3, 3],
            edges: vec![],
            names: (0..7).map(|i| format!("t{i}")).collect(),
            htg_ids: vec![],
        };
        let s = SimulatedAnnealing::new().schedule(&g, &ctx);
        // Total 36, optimum 18.
        assert_eq!(s.makespan(), 18);
    }

    #[test]
    fn single_core_returns_seed() {
        let p = Platform::xentium_manycore(1);
        let ctx = SchedCtx::new(&p);
        let g = diamond();
        let s = SimulatedAnnealing::new().schedule(&g, &ctx);
        assert_eq!(s.makespan(), g.total_work());
    }
}
