//! Exact branch-and-bound scheduler.
//!
//! The "exact techniques" leg of § III-C. Depth-first search over
//! task→core assignments in a fixed topological order, pruned by a
//! critical-path/work lower bound and seeded with the list-scheduling
//! makespan as the incumbent. Exponential in the worst case — intended
//! for graphs of up to ~16 tasks (exactly the regime where the paper's
//! fine-grain decomposition needs exact answers to calibrate heuristics).

use crate::list::ListScheduler;
use crate::{
    eval_into, evaluate_assignment_indexed, CommTable, EvalScratch, SchedCtx, Schedule, Scheduler,
    TaskGraph, TaskGraphIndex,
};
use argo_adl::CoreId;

/// Exact branch-and-bound scheduler with a node-expansion budget.
#[derive(Debug, Clone, Copy)]
pub struct BranchAndBound {
    /// Maximum number of search-tree nodes to expand before falling back
    /// to the best incumbent (keeps worst-case runtime bounded).
    pub node_budget: u64,
}

impl Default for BranchAndBound {
    fn default() -> BranchAndBound {
        BranchAndBound {
            node_budget: 2_000_000,
        }
    }
}

impl BranchAndBound {
    /// Creates a solver with the default node budget.
    pub fn new() -> BranchAndBound {
        BranchAndBound::default()
    }

    /// Returns the number of nodes expanded on the last call — exposed via
    /// the return of [`BranchAndBound::schedule_counted`].
    pub fn schedule_counted(&self, g: &TaskGraph, ctx: &SchedCtx<'_>) -> (Schedule, u64) {
        let n = g.len();
        let idx = g.index();
        if n == 0 {
            return (evaluate_assignment_indexed(g, &idx, ctx, &[]), 0);
        }
        let comm = CommTable::new(ctx);
        // Incumbent from the list scheduler.
        let list = ListScheduler::new();
        let seed = list.schedule_with(g, &idx, &comm);
        let mut best = seed.makespan();
        let mut best_assignment = seed.assignment.clone();

        let order = {
            // Deterministic topological order, prioritising long ranks to
            // tighten pruning early: Kahn with max-rank pops keeps
            // topological validity while visiting critical tasks first.
            let ranks = list.upward_ranks_with(g, &idx, &comm);
            topo_by_rank(&idx, &ranks)
        };
        let cores = ctx.cores();

        // Remaining-work tail sums for the work-based lower bound.
        let mut tail_work = vec![0u64; n + 1];
        for i in (0..n).rev() {
            tail_work[i] = tail_work[i + 1] + g.cost[order[i]];
        }

        struct Frame {
            depth: usize,
            core: usize,
        }
        let mut assignment = vec![CoreId(0); n];
        let mut finish = vec![0u64; n];
        // Row `d` of `avail` is the per-core availability after the first
        // `d` tasks of `order` are placed, with its sum and maximum kept
        // alongside. Depth-first order means a row is only overwritten
        // once every frame that reads it has been popped, so one flat
        // array replaces a per-node copy of the availability vector.
        let mut avail = vec![0u64; (n + 1) * cores];
        let mut avail_sum = vec![0u64; n + 1];
        let mut avail_max = vec![0u64; n + 1];
        let mut stack: Vec<Frame> = vec![Frame { depth: 0, core: 0 }];
        let mut expanded = 0u64;
        let mut pruned = 0u64;

        while let Some(frame) = stack.pop() {
            let Frame { depth, core } = frame;
            if core >= cores {
                continue;
            }
            // Queue the sibling branch.
            stack.push(Frame {
                depth,
                core: core + 1,
            });
            expanded += 1;
            if expanded > self.node_budget {
                break;
            }

            let t = order[depth];
            let row = depth * cores;
            let mut est = avail[row + core];
            for &(p, bytes) in idx.preds(t) {
                let c = if assignment[p] == CoreId(core) {
                    0
                } else {
                    comm.cost(assignment[p], CoreId(core), bytes)
                };
                est = est.max(finish[p] + c);
            }
            let fin = est + g.cost[t];
            // Lower bound: the partial makespan, plus remaining work
            // spread perfectly over all cores.
            let cur_ms = fin.max(avail_max[depth]);
            let remaining = tail_work[depth + 1];
            let lb = cur_ms.max(avail_sum[depth].saturating_add(remaining) / cores as u64);
            if lb >= best {
                pruned += 1;
                continue; // prune
            }
            assignment[t] = CoreId(core);
            finish[t] = fin;

            if depth + 1 == n {
                let ms = finish.iter().copied().max().unwrap_or(0);
                if ms < best {
                    best = ms;
                    best_assignment.copy_from_slice(&assignment);
                }
                continue;
            }
            avail.copy_within(row..row + cores, row + cores);
            avail[row + cores + core] = fin;
            avail_sum[depth + 1] = avail_sum[depth] - avail[row + core] + fin;
            avail_max[depth + 1] = cur_ms;
            stack.push(Frame {
                depth: depth + 1,
                core: 0,
            });
        }

        // Locals published once per call, behind the metrics gate —
        // the search loop itself stays free of shared memory traffic.
        if argo_trace::metrics_on() {
            let m = argo_trace::metrics();
            m.counter("argo_sched_bnb_expanded_total").add(expanded);
            m.counter("argo_sched_bnb_pruned_total").add(pruned);
        }
        // The list seed uses gap insertion, which plain re-evaluation of
        // the same assignment cannot always reproduce; never return a
        // schedule worse than the seed.
        let mut scratch = EvalScratch::default();
        if eval_into(g, &idx, &comm, &best_assignment, &mut scratch) <= seed.makespan() {
            (scratch.to_schedule(g, &best_assignment), expanded)
        } else {
            (seed, expanded)
        }
    }
}

/// Kahn's algorithm popping the highest-rank ready task first.
fn topo_by_rank(idx: &TaskGraphIndex, ranks: &[f64]) -> Vec<usize> {
    let mut indeg: Vec<usize> = (0..idx.len()).map(|t| idx.indegree(t)).collect();
    let mut ready: Vec<usize> = (0..idx.len()).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(idx.len());
    while !ready.is_empty() {
        ready.sort_by(|&a, &b| ranks[b].partial_cmp(&ranks[a]).unwrap().then(a.cmp(&b)));
        let t = ready.remove(0);
        order.push(t);
        for &(s, _) in idx.succs(t) {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(s);
            }
        }
    }
    order
}

impl Scheduler for BranchAndBound {
    fn schedule(&self, g: &TaskGraph, ctx: &SchedCtx<'_>) -> Schedule {
        self.schedule_counted(g, ctx).0
    }

    fn name(&self) -> &'static str {
        "bnb-exact"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_graphs::{diamond, fork_join};
    use crate::{sequential_schedule, CommModel};
    use argo_adl::Platform;

    #[test]
    fn produces_valid_schedules() {
        let p = Platform::xentium_manycore(3);
        let ctx = SchedCtx::new(&p);
        for g in [diamond(), fork_join(5, 77)] {
            let s = BranchAndBound::new().schedule(&g, &ctx);
            s.validate(&g, &ctx).unwrap();
        }
    }

    #[test]
    fn never_worse_than_list() {
        let p = Platform::xentium_manycore(3);
        let ctx = SchedCtx::new(&p);
        for g in [diamond(), fork_join(6, 200), fork_join(4, 13)] {
            let exact = BranchAndBound::new().schedule(&g, &ctx);
            let heur = ListScheduler::new().schedule(&g, &ctx);
            assert!(
                exact.makespan() <= heur.makespan(),
                "exact {} vs list {}",
                exact.makespan(),
                heur.makespan()
            );
        }
    }

    #[test]
    fn optimal_on_independent_tasks() {
        // 4 independent unit tasks on 2 cores: optimum = 2 per core.
        let p = Platform::xentium_manycore(2);
        let ctx = SchedCtx {
            platform: &p,
            comm: CommModel::Free,
        };
        let g = TaskGraph {
            cost: vec![10, 10, 10, 10],
            edges: vec![],
            names: (0..4).map(|i| format!("t{i}")).collect(),
            htg_ids: vec![],
        };
        let s = BranchAndBound::new().schedule(&g, &ctx);
        assert_eq!(s.makespan(), 20);
    }

    #[test]
    fn optimal_on_asymmetric_loads() {
        // Costs 7,5,4,4,3 on 2 cores; total 23, optimum = 12 (7+5 | 4+4+3).
        let p = Platform::xentium_manycore(2);
        let ctx = SchedCtx {
            platform: &p,
            comm: CommModel::Free,
        };
        let g = TaskGraph {
            cost: vec![7, 5, 4, 4, 3],
            edges: vec![],
            names: (0..5).map(|i| format!("t{i}")).collect(),
            htg_ids: vec![],
        };
        let s = BranchAndBound::new().schedule(&g, &ctx);
        assert_eq!(s.makespan(), 12);
    }

    #[test]
    fn respects_critical_path_bound() {
        let p = Platform::xentium_manycore(4);
        let ctx = SchedCtx {
            platform: &p,
            comm: CommModel::Free,
        };
        let g = diamond();
        let s = BranchAndBound::new().schedule(&g, &ctx);
        assert!(s.makespan() >= g.critical_path());
        assert!(s.makespan() <= sequential_schedule(&g, &ctx).makespan());
    }

    #[test]
    fn budget_exhaustion_still_returns_valid_schedule() {
        let p = Platform::xentium_manycore(2);
        let ctx = SchedCtx::new(&p);
        let g = fork_join(10, 50);
        let s = BranchAndBound { node_budget: 10 }.schedule(&g, &ctx);
        s.validate(&g, &ctx).unwrap();
    }

    #[test]
    fn empty_graph() {
        let p = Platform::xentium_manycore(2);
        let ctx = SchedCtx::new(&p);
        let (s, nodes) = BranchAndBound::new().schedule_counted(&TaskGraph::default(), &ctx);
        assert_eq!(s.makespan(), 0);
        assert_eq!(nodes, 0);
    }
}
