//! End-to-end differential test of the kernel profiles.
//!
//! `Profile::Fast` (here selected per solve via
//! `SolverConfig::with_profile`) swaps every kernel family of the
//! pipeline: Karatsuba products, Kronecker-packed polynomial products,
//! 2-adic exact divisions through shared `ExactDivisor` inverse caches,
//! and fork-join splitting of large products on the solve's own pool
//! scope. The mathematics and the recorded cost model must be
//! bit-identical to `Profile::Paper`; only wall-clock and the physical
//! execution counters (`SolveStats::exec`) may differ. This file holds
//! the checks that span every kernel family; the per-family whole-solve
//! differentials are `backend_diff` (products), `div_backend_diff`
//! (divisions) and `parmul_diff` (fork-join). Kernel-level equivalence
//! is held separately by the `kernel_diff`, `div_diff`, `polymul_diff`,
//! `parmul_diff` and `inplace_diff` suites, which call the kernels
//! directly.
//!
//! Solves run under the session API, so every solve owns its metrics:
//! `stats.cost` *is* the exact per-phase event count of that solve,
//! which keeps these assertions exact while other tests run
//! concurrently.

use polyroots::core::{ExecMode, Profile, RootsResult, Session};
use polyroots::mp::metrics::{CostSnapshot, Phase};
use polyroots::mp::{Exec, ExecSnapshot, SolveCtx};
use polyroots::workload::charpoly_input;
use polyroots::{Poly, SolverConfig};

const MU: u64 = 53;

fn solve(cfg: SolverConfig, p: &Poly) -> RootsResult {
    Session::new(cfg).solve(p).unwrap()
}

/// Identical mathematics and identical cost model: the metrics record
/// model events and operand bit lengths *above* every kernel (the
/// Kronecker path replays the schoolbook charge, division is charged its
/// Algorithm D estimate before dispatch), so every phase's counts and
/// bit costs must match event-for-event.
fn assert_same_solve(a: &RootsResult, b: &RootsResult, what: &str) {
    assert_eq!(a.roots, b.roots, "roots {what}");
    assert_eq!(a.n_star, b.n_star, "n_star {what}");
    assert_eq!(a.n, b.n, "n {what}");
    assert_eq!(a.stats.cost, b.stats.cost, "stats.cost {what}");
}

/// Single-worker degradation: a dynamic pool capped at one worker has
/// no idle capacity, so every fork-join product runs inline (zero
/// steals) and the solve stays exact — the layer degrades to plain
/// recursion, not to a deadlock or a queue of orphaned subtasks.
#[test]
fn single_worker_pool_inlines_all_splits() {
    let p = charpoly_input(30, 0);
    let mut cfg = SolverConfig::parallel(MU, 2);
    // A true one-worker pool (not `ExecMode::Sequential`, which
    // `parallel(mu, 1)` would normalize to — phase attribution differs
    // between the sequential and pooled remainder stages, so the
    // reference must run the same mode).
    cfg.mode = ExecMode::Dynamic { threads: 1 };
    let paper = solve(cfg.with_profile(Profile::Paper), &p);
    let fast = solve(cfg.with_profile(Profile::Fast), &p);
    assert_same_solve(&paper, &fast, "one-worker pool");
    assert_eq!(
        fast.stats.exec.get(Exec::ParmulSteals),
        0,
        "one worker has nobody to steal from"
    );
}

/// The scratch arenas make the remainder phase allocation-free once
/// warm: a repeat sequential solve on the same thread reuses every limb
/// buffer the first one left behind (`results/BENCH_arena.json` records
/// the same zero).
#[test]
fn warm_remainder_phase_allocates_nothing() {
    let p = charpoly_input(64, 0);
    let cfg = SolverConfig::sequential(8).with_profile(Profile::Paper);
    let cold = solve(cfg, &p);
    assert!(
        cold.stats.exec.phase(Phase::RemainderSeq, Exec::Allocs) > 0,
        "the remainder step routes temporaries through scratch"
    );
    let warm = solve(cfg, &p);
    assert_eq!(
        warm.stats.exec.phase(Phase::RemainderSeq, Exec::Allocs),
        0,
        "warm remainder phase allocated"
    );
}

/// Solves never leak events into a context installed by their caller —
/// the only other place an event could land — and their own stats hold
/// every event: the same solve run from a bare thread records the same
/// cost and the same deterministic execution counters.
#[test]
fn solves_do_not_pollute_enclosing_context() {
    let p = charpoly_input(14, 3);
    for profile in Profile::ALL {
        let cfg = SolverConfig::parallel(24, 3).with_profile(profile);
        let alone = solve(cfg, &p);
        let outer = SolveCtx::new(Profile::Paper);
        let nested = outer.run(|| solve(cfg, &p));
        assert_eq!(
            outer.snapshot(),
            CostSnapshot::default(),
            "{profile} leaked cost"
        );
        assert_eq!(
            outer.exec(),
            ExecSnapshot::default(),
            "{profile} leaked exec"
        );
        assert_same_solve(&nested, &alone, &format!("{profile}: nested vs alone"));
        assert!(nested.stats.cost.total().mul_count > 0);
        for label in [Exec::KroneckerMuls, Exec::PackedBits]
            .into_iter()
            .chain(Exec::DIVISION)
        {
            assert_eq!(
                nested.stats.exec.get(label),
                alone.stats.exec.get(label),
                "{profile} {label:?}"
            );
        }
    }
}
