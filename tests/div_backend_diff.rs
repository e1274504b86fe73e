//! End-to-end differential test of the division kernels.
//!
//! `Profile::Fast` swaps Knuth's Algorithm D out of every `Int` division
//! of the pipeline: the remainder sequence's exact divisions and the tree
//! stage's `c²`-scalings take the 2-adic (Hensel) exact kernel with
//! shared `ExactDivisor` inverse caches, and any remaining truncating
//! divisions take the Newton reciprocal. The mathematics and the recorded
//! cost model must be bit-identical to `Profile::Paper`; only wall-clock
//! and the physical division counters (`Exec::DIVISION`) may differ.

use polyroots::core::{ExecMode, Profile, RootsResult, Session};
use polyroots::mp::Exec;
use polyroots::workload::charpoly_input;
use polyroots::SolverConfig;

fn solve(cfg: SolverConfig, p: &polyroots::Poly) -> RootsResult {
    Session::new(cfg).solve(p).unwrap()
}

/// The solve's five division execution counters.
fn division(r: &RootsResult) -> [u64; 5] {
    Exec::DIVISION.map(|e| r.stats.exec.get(e))
}

#[test]
fn div_backends_differ_only_in_wall_clock() {
    let mu = 53;
    for (n, seed) in [(10usize, 0u64), (18, 1), (24, 2), (30, 0)] {
        let p = charpoly_input(n, seed);
        let paper = solve(SolverConfig::sequential(mu).with_profile(Profile::Paper), &p);
        let fast = solve(SolverConfig::sequential(mu).with_profile(Profile::Fast), &p);

        // Identical mathematics: same roots, same degree bookkeeping.
        let cell = format!("n={n} seed={seed}");
        assert_eq!(paper.roots, fast.roots, "roots {cell}");
        assert_eq!(paper.n_star, fast.n_star, "n_star {cell}");
        assert_eq!(paper.n, fast.n);

        // Identical cost model: division cost is charged at the `Int`
        // layer before either kernel runs, so every phase's counts and
        // bit costs match event-for-event across the profiles.
        assert_eq!(paper.stats.cost, fast.stats.cost, "stats.cost {cell}");

        // The physical counters tell the two solves apart: the paper
        // solve never entered a Newton kernel, while the fast solve
        // routes its exact divisions (the remainder sequence's and tree
        // stage's — the pipeline's only divisions) through the 2-adic
        // kernel from n ≈ 10 onward.
        assert_eq!(division(&paper), [0; 5], "{cell}");
        let nd = fast.stats.exec;
        let exact_divs = nd.get(Exec::ExactDivs);
        assert!(exact_divs > 0, "2-adic kernel dispatched at {cell}: {nd:?}");
        // Amortization: the shared `ExactDivisor`s lift far fewer
        // inverses than they serve divisions.
        assert!(
            nd.get(Exec::HenselSteps) < exact_divs,
            "inverse cache amortizes at {cell}: {nd:?}"
        );
    }
}

#[test]
fn full_backend_grid_is_invariant() {
    // One representative size across every profile × execution mode:
    // each cell agrees with the sequential paper reference.
    let mu = 53;
    let p = charpoly_input(20, 0);
    let reference = solve(SolverConfig::sequential(mu).with_profile(Profile::Paper), &p);
    for profile in Profile::ALL {
        for mode in [
            ExecMode::Sequential,
            ExecMode::Dynamic { threads: 1 },
            ExecMode::Dynamic { threads: 4 },
        ] {
            let mut cfg = SolverConfig::parallel(mu, 4).with_profile(profile);
            cfg.mode = mode;
            let other = solve(cfg, &p);
            let cell = format!("{profile:?}/{mode:?}");
            assert_eq!(reference.roots, other.roots, "roots {cell}");
            assert_eq!(reference.n_star, other.n_star, "n_star {cell}");
            if matches!(mode, ExecMode::Sequential) {
                // Phase attribution differs between the sequential and
                // pooled remainder stages, so only same-mode cells share
                // the reference's per-phase cost.
                assert_eq!(reference.stats.cost, other.stats.cost, "stats.cost {cell}");
            }
        }
    }
}

#[test]
fn parallel_solves_are_div_backend_invariant() {
    // Worker threads inherit the solve's ctx, so the profile (and its
    // division counters) must follow tasks across the pool.
    let mu = 53;
    let p = charpoly_input(30, 1);
    let cfg = SolverConfig::parallel(mu, 4);
    let paper = solve(cfg.with_profile(Profile::Paper), &p);
    let fast = solve(cfg.with_profile(Profile::Fast), &p);
    assert_eq!(paper.roots, fast.roots);
    assert_eq!(paper.n_star, fast.n_star);
    assert_eq!(paper.stats.cost, fast.stats.cost, "parallel cost invariant");
    assert_eq!(division(&paper), [0; 5]);
    assert!(
        fast.stats.exec.get(Exec::ExactDivs) > 0,
        "worker-side divisions reached the 2-adic kernel: {:?}",
        division(&fast)
    );

    // And determinism under the fast profile: a second identical solve
    // records the same cost, and the division dispatch is size-driven,
    // so its physical counters match too.
    let fast2 = solve(cfg.with_profile(Profile::Fast), &p);
    assert_eq!(fast.roots, fast2.roots);
    assert_eq!(fast.stats.cost, fast2.stats.cost);
    assert_eq!(
        division(&fast),
        division(&fast2),
        "dispatch decisions are size-driven, hence deterministic"
    );
}
