//! End-to-end differential test of fork-join parallel multiplication.
//!
//! Under `Profile::Fast`, a large big-integer product issued from a pool
//! task with idle workers is split into subtasks on the solve's own pool
//! scope. It is a pure execution optimization: roots, `n_star`, and the
//! recorded paper cost model must be bit-identical to `Profile::Paper` —
//! only wall-clock and the `parmul_*` execution counters may
//! differ. (The mp-layer twin, `crates/mp/tests/parmul_diff.rs`, drives
//! the kernels directly under real pool scopes, forced splitting
//! included; this file asserts the same invariants through whole
//! solves.)

use polyroots::core::{Profile, RootsResult, Session};
use polyroots::mp::Exec;
use polyroots::workload::charpoly_input;
use polyroots::SolverConfig;

fn solve(cfg: SolverConfig, p: &polyroots::Poly) -> RootsResult {
    Session::new(cfg).solve(p).unwrap()
}

/// A degree large enough that the splitter engages inside a parallel
/// fast solve: identical mathematics, nonzero execution counters on the
/// fast side, all-zero counters on the paper side.
#[test]
fn engaged_parallel_solve_stays_exact() {
    let p = charpoly_input(48, 0);
    let cfg = SolverConfig::parallel(53, 4);
    let paper = solve(cfg.with_profile(Profile::Paper), &p);
    let fast = solve(cfg.with_profile(Profile::Fast), &p);

    assert_eq!(paper.roots, fast.roots);
    assert_eq!(paper.n_star, fast.n_star);
    assert_eq!(
        paper.stats.cost, fast.stats.cost,
        "cost model is replayed, not bypassed"
    );

    let parmul = [
        Exec::ParmulProducts,
        Exec::ParmulTasks,
        Exec::ParmulSteals,
        Exec::ParmulOperandBits,
        Exec::ParmulWorkNs,
        Exec::ParmulSpanNs,
    ];
    assert_eq!(parmul.map(|e| paper.stats.exec.get(e)), [0; 6], "paper never splits");
    let [products, tasks, _, _, work_ns, span_ns] = parmul.map(|e| fast.stats.exec.get(e));
    assert!(products > 0, "n=48 on 4 workers engages the splitter");
    assert!(tasks >= products, "every split product forks at least once: {tasks} < {products}");
    assert!(work_ns >= span_ns, "work dominates the critical path: {work_ns} < {span_ns}");
    // No steal assertion: whether another worker claims a subtask
    // depends on host scheduling (single-core CI rarely steals).
}

/// Two identical fast parallel solves agree exactly: work stealing may
/// schedule subtasks differently run to run, but the combine order is
/// fixed by the fork-join tree, so the limbs — and everything computed
/// from them — are deterministic.
#[test]
fn repeated_engaged_solves_are_deterministic() {
    let p = charpoly_input(30, 1);
    let cfg = SolverConfig::parallel(53, 4).with_profile(Profile::Fast);
    let a = solve(cfg, &p);
    let b = solve(cfg, &p);
    assert_eq!(a.roots, b.roots);
    assert_eq!(a.n_star, b.n_star);
    assert_eq!(a.stats.cost, b.stats.cost);
}
