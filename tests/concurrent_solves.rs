//! Concurrency guarantees of the session architecture: solves that
//! overlap in time — on one shared pool, with different profiles — are
//! bit-identical to the same solves run alone, with exact per-solve
//! metrics and no task leakage between pool scopes.
//!
//! The first test is the regression test for the kernel-selection race
//! that a process-wide switch would reintroduce: two interleaved solvers
//! with different profiles must never see each other's kernels. The CI
//! concurrency job runs this file in a loop (≥20 iterations) with the
//! test harness's thread count unpinned.

use polyroots::core::{Profile, RootsResult, Runtime, Session};
use polyroots::mp::Exec;
use polyroots::workload::charpoly_input;
use polyroots::{solve_batch_on, Poly, SolverConfig};
use std::sync::Barrier;

fn wilkinson(n: i64) -> Poly {
    Poly::from_roots(&(1..=n).map(polyroots::Int::from).collect::<Vec<_>>())
}

/// `roots`, `n_star`, and the full per-phase cost must be independent of
/// what else the process was doing during the solve.
fn assert_same_solve(got: &RootsResult, want: &RootsResult, what: &str) {
    assert_eq!(got.roots, want.roots, "{what}: roots");
    assert_eq!(got.n_star, want.n_star, "{what}: n_star");
    assert_eq!(got.stats.cost, want.stats.cost, "{what}: per-solve cost");
}

/// The execution counters a solve repeats exactly: Kronecker products
/// and the division kernels are dispatched on operand sizes alone (the
/// fork-join and allocation counters depend on scheduling and arena
/// warmth, so they are left out).
fn deterministic_exec(r: &RootsResult) -> Vec<(Exec, u64)> {
    [Exec::KroneckerMuls, Exec::PackedBits]
        .into_iter()
        .chain(Exec::DIVISION)
        .map(|e| (e, r.stats.exec.get(e)))
        .collect()
}

/// Regression test for the kernel-selection race: one `Paper` and one
/// `Fast` solve running *concurrently* on the shared runtime must both
/// produce exactly what they produce in isolation — same roots, same
/// per-session per-phase counts, and, for the `Fast` solve, the same
/// deterministic execution counters. A process-wide selection would let
/// the loser of a race run (part of) its solve on the other's kernels,
/// and a shared sink would cross-attribute its kernel counters.
#[test]
fn concurrent_backend_solves_match_isolated_runs() {
    let rt = Runtime::new(4);
    let p = charpoly_input(16, 1);
    let school_cfg = SolverConfig::parallel(40, 2).with_profile(Profile::Paper);
    let fast_cfg = SolverConfig::parallel(40, 2).with_profile(Profile::Fast);

    // Ground truth: each config alone.
    let school_alone = Session::with_runtime(school_cfg, &rt).solve(&p).unwrap();
    let fast_alone = Session::with_runtime(fast_cfg, &rt).solve(&p).unwrap();
    // The cost model records above the kernel: profile-invariant.
    assert_eq!(school_alone.stats.cost, fast_alone.stats.cost);

    for rep in 0..3 {
        let barrier = Barrier::new(2);
        let (school, fast) = std::thread::scope(|s| {
            let school = s.spawn(|| {
                let session = Session::with_runtime(school_cfg, &rt);
                barrier.wait();
                session.solve(&p).unwrap()
            });
            let fast = s.spawn(|| {
                let session = Session::with_runtime(fast_cfg, &rt);
                barrier.wait();
                session.solve(&p).unwrap()
            });
            (school.join().unwrap(), fast.join().unwrap())
        });
        assert_same_solve(&school, &school_alone, &format!("rep {rep}: paper"));
        assert_same_solve(&fast, &fast_alone, &format!("rep {rep}: fast"));
        assert_eq!(
            deterministic_exec(&fast),
            deterministic_exec(&fast_alone),
            "rep {rep}: fast execution counters"
        );
    }
}

/// Pool-reuse hygiene: several solve scopes on one shared pool, both
/// back-to-back and interleaved, with no task leakage across scopes —
/// every trace holds exactly the tasks of its own solve (per-scope id
/// space from 0, count matching the isolated run), and every scope
/// reaches quiescence with its own stats.
#[test]
fn solve_scopes_share_pool_without_leakage() {
    let rt = Runtime::new(3);
    let cfg = SolverConfig::parallel(16, 3);
    let inputs = [wilkinson(10), wilkinson(13), charpoly_input(12, 0)];

    // Expected per-solve task counts, from isolated runs on a private
    // runtime. The task DAG is a function of the input alone, so the
    // trace lengths are deterministic.
    let expect: Vec<RootsResult> = inputs
        .iter()
        .map(|p| Session::with_runtime(cfg, &Runtime::new(3)).solve(p).unwrap())
        .collect();

    let check = |r: &RootsResult, want: &RootsResult, what: &str| {
        assert_same_solve(r, want, what);
        assert_eq!(r.stats.traces.len(), want.stats.traces.len(), "{what}: trace count");
        for (ti, (got_t, want_t)) in r.stats.traces.iter().zip(&want.stats.traces).enumerate() {
            assert_eq!(
                got_t.records.len(),
                want_t.records.len(),
                "{what}: trace {ti} task count"
            );
            // Per-scope id space: ids are spawn order within the scope,
            // 0..count with no holes — a task from a concurrent scope
            // would collide or leave a gap.
            let mut ids: Vec<u64> = got_t.records.iter().map(|rec| rec.id).collect();
            ids.sort_unstable();
            let want_ids: Vec<u64> = (0..ids.len() as u64).collect();
            assert_eq!(ids, want_ids, "{what}: trace {ti} id space");
        }
        // Scope quiescence delivered this solve's own pool stats.
        let pool = r.stats.pool.as_ref().expect("dynamic mode");
        let traced: u64 = r.stats.traces.iter().map(|t| t.records.len() as u64).sum();
        assert_eq!(pool.total_tasks(), r.stats.traces.last().unwrap().records.len() as u64);
        assert!(traced >= pool.total_tasks());
    };

    // Back-to-back: three solve scopes reusing the same pool.
    for (p, want) in inputs.iter().zip(&expect) {
        let r = Session::with_runtime(cfg, &rt).solve(p).unwrap();
        check(&r, want, "back-to-back");
    }

    // Interleaved: the same three solves overlapping on the same pool.
    let barrier = Barrier::new(inputs.len());
    let got: Vec<RootsResult> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .iter()
            .map(|p| {
                s.spawn(|| {
                    let session = Session::with_runtime(cfg, &rt);
                    barrier.wait();
                    session.solve(p).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, (r, want)) in got.iter().zip(&expect).enumerate() {
        check(r, want, &format!("interleaved solve {i}"));
    }
}

/// The paper's Section 5 workload (characteristic polynomials of random
/// symmetric 0–1 matrices, n = 10…30) solved concurrently as one batch
/// equals the same inputs solved sequentially in isolation: roots,
/// `n_star`, and per-solve phase counts all identical.
#[test]
fn batch_paper_workload_matches_isolated_solves() {
    let inputs: Vec<Poly> = (10..=30).map(|n| charpoly_input(n, 0)).collect();
    let cfg = SolverConfig::sequential(16);

    let rt = Runtime::new(4);
    let batch = solve_batch_on(&rt, &inputs, cfg);
    assert_eq!(batch.len(), inputs.len());

    for (i, (p, got)) in inputs.iter().zip(&batch).enumerate() {
        let got = got.as_ref().unwrap_or_else(|e| panic!("input {i} failed: {e}"));
        let alone = Session::with_runtime(cfg, &Runtime::new(1)).solve(p).unwrap();
        assert_same_solve(got, &alone, &format!("batch input {i} (n={})", got.n));
        assert_eq!(Some(got.n), p.degree());
    }
}
