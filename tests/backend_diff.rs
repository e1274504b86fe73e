//! End-to-end differential test of the product kernels, plus metrics
//! exactness around parallel solves.
//!
//! `Profile::Fast` swaps Karatsuba limb products and Kronecker-packed
//! polynomial products in for the schoolbook loops of `Profile::Paper`.
//! Roots, degree bookkeeping and the recorded cost model must be
//! bit-identical; only wall-clock may differ.
//!
//! Solves run under the session API, so every solve owns its metrics:
//! `stats.cost` *is* the exact per-phase event count of that solve, with
//! no process-global snapshot subtraction — which also means these
//! assertions stay exact while other tests run concurrently.

use polyroots::core::{Profile, RootsResult, Session, SolveStats};
use polyroots::workload::charpoly_input;
use polyroots::SolverConfig;

fn solve(cfg: SolverConfig, p: &polyroots::Poly) -> RootsResult {
    Session::new(cfg).solve(p).unwrap()
}

fn assert_cost_alive(stats: &SolveStats) {
    assert!(stats.cost.total().mul_count > 0, "instrumentation alive");
}

#[test]
fn backends_differ_only_in_wall_clock() {
    let mu = 53;
    for (n, seed) in [(12usize, 0u64), (18, 1), (24, 0), (30, 0)] {
        let p = charpoly_input(n, seed);
        let paper = solve(SolverConfig::sequential(mu).with_profile(Profile::Paper), &p);
        let fast = solve(SolverConfig::sequential(mu).with_profile(Profile::Fast), &p);

        // Identical mathematics: same roots, same degree bookkeeping.
        let cell = format!("n={n} seed={seed}");
        assert_eq!(paper.roots, fast.roots, "roots {cell}");
        assert_eq!(paper.n_star, fast.n_star, "n_star {cell}");
        assert_eq!(paper.n, fast.n);

        // Identical cost model: the metrics record model events and
        // operand bit lengths *above* both the limb kernel and the
        // polynomial kernel (the Kronecker path replays the schoolbook
        // charge), so every phase's counts and bit costs must match
        // event-for-event.
        assert_eq!(paper.stats.cost, fast.stats.cost, "stats.cost {cell}");
        assert_cost_alive(&paper.stats);
    }

    // Metrics exactness around a parallel solve: per-solve cost must be
    // deterministic (no events lost or double-counted across worker
    // threads), and profile-invariant.
    let p = charpoly_input(20, 0);
    let par_cfg = SolverConfig::parallel(mu, 4).with_profile(Profile::Paper);
    let par1 = solve(par_cfg, &p);
    assert_cost_alive(&par1.stats);
    let par2 = solve(par_cfg, &p);
    assert_eq!(
        par1.stats.cost, par2.stats.cost,
        "parallel solve cost is deterministic"
    );
    assert_eq!(par1.roots, par2.roots);

    let par_fast = solve(par_cfg.with_profile(Profile::Fast), &p);
    assert_eq!(par1.roots, par_fast.roots);
    assert_eq!(par1.n_star, par_fast.n_star);
    assert_eq!(
        par1.stats.cost, par_fast.stats.cost,
        "parallel metrics profile-invariant"
    );

    // Scheduling never changes the mathematics: the sequential
    // reference produces the same roots.
    let seq = solve(SolverConfig::sequential(mu), &p);
    assert_eq!(seq.roots, par1.roots);
    assert_eq!(seq.n_star, par1.n_star);
}
