//! Pins the exact schedules of the three schedulers, not just their
//! validity: for every random layered graph × platform × comm model the
//! `(assignment, start, finish)` vectors of list, annealing and
//! branch-and-bound are fingerprinted and compared against
//! `tests/golden/schedules.txt`.
//!
//! The property tests check that schedules are valid and within bounds;
//! this test checks that kernel rewrites (comm-cost tables, reusable
//! evaluation scratch, in-place annealer moves, the flat BnB
//! availability array) keep every schedule, RNG draw and search order
//! bit-identical. The BnB rows also pin the expanded-node count.
//!
//! Regenerate (only after an *intentional* behaviour change) with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test schedule_pin
//! ```

use argo_adl::Platform;
use argo_sched::anneal::SimulatedAnnealing;
use argo_sched::bnb::BranchAndBound;
use argo_sched::list::ListScheduler;
use argo_sched::random::{random_task_graph, RandomGraphParams};
use argo_sched::{CommModel, SchedCtx, Schedule, Scheduler};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Node budget for the pinned BnB runs: large enough that small cases
/// finish and larger ones stop mid-search (so the search order itself is
/// pinned), small enough to keep the debug-build test quick.
const BNB_BUDGET: u64 = 20_000;

/// FNV-1a over the little-endian words of the schedule.
fn fingerprint(s: &Schedule) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = s
        .assignment
        .iter()
        .map(|c| c.0 as u64)
        .chain(s.start.iter().copied())
        .chain(s.finish.iter().copied());
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn pinned_table() -> String {
    let platforms = [
        Platform::xentium_manycore(2),
        Platform::xentium_manycore(3),
        Platform::xentium_manycore(4),
        Platform::xentium_manycore(8),
        Platform::kit_tile_noc(2, 2),
    ];
    let comms = [
        CommModel::Free,
        CommModel::PlatformWorstCase,
        CommModel::SignalOnly,
    ];
    let params = RandomGraphParams::default();
    let mut out = String::new();
    for seed in 0..32u64 {
        let g = random_task_graph(seed, &params);
        for p in &platforms {
            for comm in comms {
                let ctx = SchedCtx { platform: p, comm };
                let list = ListScheduler::new().schedule(&g, &ctx);
                let anneal = SimulatedAnnealing::new().schedule(&g, &ctx);
                let (bnb, expanded) = BranchAndBound {
                    node_budget: BNB_BUDGET,
                }
                .schedule_counted(&g, &ctx);
                let _ = writeln!(
                    out,
                    "seed={seed} platform={} comm={comm:?} \
                     list={:016x}/{} anneal={:016x}/{} bnb={:016x}/{}/{expanded}",
                    p.name,
                    fingerprint(&list),
                    list.makespan(),
                    fingerprint(&anneal),
                    anneal.makespan(),
                    fingerprint(&bnb),
                    bnb.makespan(),
                );
            }
        }
    }
    out
}

#[test]
fn schedules_match_pinned_fingerprints() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/schedules.txt");
    let actual = pinned_table();
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing `{}` ({e}); run with GOLDEN_UPDATE=1",
            path.display()
        )
    });
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(e, a, "schedule fingerprint drifted at line {}", i + 1);
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "pinned table length changed"
    );
}
