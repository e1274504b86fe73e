//! Supervised solves: cancellation (deadline / budget / explicit token),
//! panic containment, and graceful degradation — the failure model of
//! DESIGN.md §11, tested end to end through the public [`Session`] API.

use rr_core::{
    CancelReason, CancelToken, Degradation, ExecMode, FaultInjector, FaultPlan, Runtime,
    Session, SolveError, SolveLimits, SolverConfig,
};
use rr_mp::metrics::Phase;
use rr_mp::Int;
use rr_poly::Poly;
use std::time::{Duration, Instant};

fn wilkinson(n: i64) -> Poly {
    Poly::from_roots(&(1..=n).map(Int::from).collect::<Vec<_>>())
}

/// A deliberately expensive input: high degree and large µ so a solve
/// takes far longer than the short deadlines used below (in debug
/// builds, comfortably hundreds of milliseconds).
fn slow_input() -> (Poly, SolverConfig) {
    (wilkinson(70), SolverConfig::parallel(96, 3))
}

/// An input whose sequential remainder stage is short and whose tree
/// stage is long (high µ makes every interval problem expensive), for
/// the modes that run the remainder stage without probing: only a tree
/// stage that probes can cancel these early. Optimized builds run about
/// 15× faster, so they take a higher µ to keep the tree stage well past
/// the deadline while each node job stays short.
fn deep_input(mode: ExecMode) -> (Poly, SolverConfig) {
    let mut cfg = SolverConfig::sequential(if cfg!(debug_assertions) { 400 } else { 1600 });
    cfg.mode = mode;
    (wilkinson(32), cfg)
}

#[test]
fn deadline_exceeded_returns_cancelled_within_twice_the_deadline() {
    for (p, cfg) in [
        slow_input(),
        deep_input(ExecMode::Static { threads: 3 }),
        deep_input(ExecMode::Sequential),
    ] {
        let mode = cfg.mode;
        let session = Session::with_runtime(cfg, &Runtime::new(3));
        let deadline = Duration::from_millis(100);
        let t0 = Instant::now();
        let err = session
            .solve_with_deadline(&p, deadline)
            .expect_err("a 100ms deadline cannot fit this solve");
        let elapsed = t0.elapsed();
        match &err {
            SolveError::Cancelled { reason, partial_stats } => {
                assert!(
                    matches!(reason, CancelReason::Deadline { .. }),
                    "{mode:?}: expected a deadline reason, got {reason:?}"
                );
                assert!(partial_stats.wall >= deadline, "{mode:?}: {:?}", partial_stats.wall);
                // The solve did real work before being abandoned.
                assert!(partial_stats.cost.total().mul_count > 0, "{mode:?}");
            }
            other => panic!("{mode:?}: expected Cancelled, got {other:?}"),
        }
        assert!(
            elapsed < 2 * deadline,
            "{mode:?}: cancellation honoured too slowly: {elapsed:.2?} for {deadline:.2?}"
        );
        // The session stays usable after a cancelled solve.
        let r = session.solve(&wilkinson(8)).unwrap();
        assert_eq!(r.roots.len(), 8);
    }
}

#[test]
fn already_expired_deadline_cancels_before_any_work() {
    // Regression: a deadline that has already passed at solve start must
    // return Cancelled{Deadline} immediately — zero multiplications, no
    // first phase — not after the first probe deep inside the pipeline.
    let (p, cfg) = slow_input();
    let session = Session::with_runtime(cfg, &Runtime::new(3));
    for limits in [
        SolveLimits::none().with_deadline(Duration::ZERO),
        SolveLimits::none().with_deadline_at(Instant::now() - Duration::from_secs(1)),
    ] {
        let t0 = Instant::now();
        let err = session.solve_supervised(&p, &limits).expect_err("expired at start");
        let elapsed = t0.elapsed();
        match &err {
            SolveError::Cancelled { reason, partial_stats } => {
                assert!(
                    matches!(reason, CancelReason::Deadline { .. }),
                    "expected a deadline reason, got {reason:?}"
                );
                assert_eq!(
                    partial_stats.cost.total().mul_count,
                    0,
                    "an expired deadline must not run the first phase"
                );
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_millis(50),
            "expired-deadline rejection took {elapsed:.2?}"
        );
        assert_eq!(err.code(), "deadline");
    }
    // The session stays usable afterwards.
    assert_eq!(session.solve(&wilkinson(8)).unwrap().roots.len(), 8);
}

#[test]
fn absolute_deadline_cancels_a_running_solve() {
    let (p, cfg) = slow_input();
    let session = Session::with_runtime(cfg, &Runtime::new(3));
    let limits = SolveLimits::none().with_deadline_at(Instant::now() + Duration::from_millis(80));
    let err = session.solve_supervised(&p, &limits).expect_err("80ms cannot fit this solve");
    assert!(
        matches!(&err, SolveError::Cancelled { reason: CancelReason::Deadline { .. }, .. }),
        "{err:?}"
    );
}

#[test]
fn wire_taxonomy_codes_are_stable() {
    let session = Session::new(SolverConfig::sequential(8));
    // budget
    let err = session
        .solve_supervised(&wilkinson(20), &SolveLimits::none().with_max_muls(10))
        .expect_err("tiny budget");
    assert_eq!(err.code(), "budget");
    assert!(!err.is_transient());
    assert!(err.partial_stats().is_some());
    // explicit request
    let token = CancelToken::new();
    token.cancel(CancelReason::Requested { why: "shed".into() });
    let err = session
        .solve_supervised(&wilkinson(12), &SolveLimits::none().with_token(token))
        .expect_err("pre-fired token");
    assert_eq!(err.code(), "cancelled");
    // rejected input (degradation off)
    let complex = Poly::from_i64(&[1, 0, 1]);
    let strict = Session::new(SolverConfig::sequential(8).with_degradation(false));
    let err = strict.solve(&complex).expect_err("complex roots");
    assert_eq!(err.code(), "rejected-input");
    assert!(!err.is_transient());
    // contained panic is transient
    let faulty = Session::with_runtime(SolverConfig::parallel(12, 2), &Runtime::new(2))
        .with_fault_injection(FaultInjector::new(FaultPlan::new().panic_at(2)));
    let err = faulty.solve(&wilkinson(16)).expect_err("injected panic");
    assert_eq!(err.code(), "task-panicked");
    assert!(err.is_transient());
    // degradation markers
    assert_eq!(Degradation::SquarefreeRetry.code(), "squarefree-retry");
    assert_eq!(Degradation::SturmBaseline.code(), "sturm-baseline");
}

#[test]
fn budget_exhaustion_cancels_sequential_solves() {
    let session = Session::new(SolverConfig::sequential(16));
    let limits = SolveLimits::none().with_max_muls(50);
    let err = session
        .solve_supervised(&wilkinson(20), &limits)
        .expect_err("50 multiplications cannot fit a degree-20 solve");
    match err {
        SolveError::Cancelled { reason, partial_stats } => {
            assert_eq!(reason, CancelReason::Budget { limit_muls: 50 });
            assert!(partial_stats.cost.total().mul_count > 50);
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // Without limits the same session solves the same input fine.
    assert_eq!(session.solve(&wilkinson(20)).unwrap().roots.len(), 20);
}

#[test]
fn budget_exhaustion_cancels_parallel_solves() {
    let session = Session::with_runtime(SolverConfig::parallel(16, 3), &Runtime::new(3));
    let limits = SolveLimits::none().with_max_muls(50);
    let err = session
        .solve_supervised(&wilkinson(24), &limits)
        .expect_err("50 multiplications cannot fit a degree-24 solve");
    assert!(
        matches!(
            err,
            SolveError::Cancelled { reason: CancelReason::Budget { limit_muls: 50 }, .. }
        ),
        "{err:?}"
    );
}

#[test]
fn budget_exhaustion_cancels_round_solves_inside_the_tree_stage() {
    // A budget just past the remainder stage's multiplications: the
    // sequential remainder stage never probes, so the overrun must be
    // caught by the tree stage's node jobs, long before the solve ends.
    let p = wilkinson(20);
    for mode in [ExecMode::Sequential, ExecMode::Static { threads: 3 }] {
        let mut cfg = SolverConfig::sequential(16);
        cfg.mode = mode;
        let session = Session::with_runtime(cfg, &Runtime::new(3));
        let full = session.solve(&p).unwrap().stats.cost;
        let limit = full.phase(Phase::RemainderSeq).mul_count + 1;
        let err = session
            .solve_supervised(&p, &SolveLimits::none().with_max_muls(limit))
            .expect_err("the budget ends inside the tree stage");
        match err {
            SolveError::Cancelled { reason, partial_stats } => {
                assert_eq!(reason, CancelReason::Budget { limit_muls: limit }, "{mode:?}");
                let spent = partial_stats.cost.total().mul_count;
                assert!(spent > limit, "{mode:?}: {spent}");
                assert!(
                    spent < full.total().mul_count / 2,
                    "{mode:?}: the tree stage ran on past its budget ({spent} of {})",
                    full.total().mul_count
                );
            }
            other => panic!("{mode:?}: expected Cancelled, got {other:?}"),
        }
    }
}

#[test]
fn prefired_token_cancels_before_any_work() {
    let token = CancelToken::new();
    token.cancel(CancelReason::Requested { why: "shed load".into() });
    let session = Session::new(SolverConfig::sequential(8));
    let err = session
        .solve_supervised(&wilkinson(12), &SolveLimits::none().with_token(token))
        .expect_err("pre-fired token");
    match err {
        SolveError::Cancelled { reason, partial_stats } => {
            assert_eq!(reason, CancelReason::Requested { why: "shed load".into() });
            assert_eq!(partial_stats.cost.total().mul_count, 0);
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn token_fired_from_another_thread_cancels_a_running_solve() {
    let (p, cfg) = slow_input();
    let session = Session::with_runtime(cfg, &Runtime::new(3));
    let token = CancelToken::new();
    let remote = token.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        remote.cancel(CancelReason::Requested { why: "operator abort".into() });
    });
    let err = session
        .solve_supervised(&p, &SolveLimits::none().with_token(token))
        .expect_err("token fires mid-solve");
    canceller.join().unwrap();
    assert!(
        matches!(err, SolveError::Cancelled { reason: CancelReason::Requested { .. }, .. }),
        "{err:?}"
    );
}

#[test]
fn injected_panic_is_contained_and_pool_reusable_bit_identically() {
    let rt = Runtime::new(3);
    let cfg = SolverConfig::parallel(12, 3);
    let p = wilkinson(16);

    // Reference roots from an untouched runtime.
    let reference = Session::with_runtime(cfg, &Runtime::new(3)).solve(&p).unwrap();

    let faulty = Session::with_runtime(cfg, &rt)
        .with_fault_injection(FaultInjector::new(FaultPlan::new().panic_at(3)));
    let err = faulty.solve(&p).expect_err("task 3 panics");
    match &err {
        SolveError::TaskPanicked { task_id, message } => {
            assert_eq!(*task_id, 3);
            assert_eq!(message, "injected fault: task 3");
        }
        other => panic!("expected TaskPanicked, got {other:?}"),
    }

    // The same pool completes a clean solve afterwards, bit-identically.
    let clean = Session::with_runtime(cfg, &rt).solve(&p).unwrap();
    assert_eq!(clean.roots, reference.roots);
    assert_eq!(clean.n_star, reference.n_star);
    assert_eq!(clean.stats.cost, reference.stats.cost);

    // And the faulty session itself recovers too (its injector fires
    // again, so it errs again — deterministically).
    let err2 = faulty.solve(&p).expect_err("same plan, same fault");
    assert!(matches!(err2, SolveError::TaskPanicked { task_id: 3, .. }));
}

#[test]
fn injected_delays_do_not_change_results() {
    let rt = Runtime::new(3);
    let cfg = SolverConfig::parallel(10, 3);
    let p = wilkinson(14);
    let reference = Session::with_runtime(cfg, &rt).solve(&p).unwrap();
    let delayed = Session::with_runtime(cfg, &rt).with_fault_injection(FaultInjector::new(
        FaultPlan::new()
            .delay_at(2, Duration::from_millis(3))
            .delay_at(7, Duration::from_millis(1)),
    ));
    let r = delayed.solve(&p).unwrap();
    assert_eq!(r.roots, reference.roots);
    assert_eq!(r.stats.cost, reference.stats.cost);
}

#[test]
fn non_squarefree_wilkinson_degrades_to_roots_matching_baseline() {
    // (x−1)²(x−2)²(x−3)…(x−8): Wilkinson-style with repeated roots.
    let mut raw = vec![1i64, 1, 2, 2, 3, 4, 5, 6, 7, 8];
    raw.sort_unstable();
    let roots: Vec<Int> = raw.into_iter().map(Int::from).collect();
    let p = Poly::from_roots(&roots);
    let mu = 10;

    for cfg in [SolverConfig::sequential(mu), SolverConfig::parallel(mu, 3)] {
        let r = Session::new(cfg).solve(&p).unwrap();
        assert_eq!(r.degraded, Some(Degradation::SquarefreeRetry), "{cfg:?}");
        assert_eq!(r.n, 10);
        assert_eq!(r.n_star, 8);
        let baseline =
            rr_baseline::find_real_roots(&p, &rr_baseline::BaselineConfig::new(mu)).unwrap();
        let got: Vec<Int> = r.roots.iter().map(|d| d.num.clone()).collect();
        assert_eq!(got, baseline, "{cfg:?}");
    }
}

#[test]
fn complex_rooted_input_degrades_to_baseline_in_parallel_mode() {
    // (x²+1)(x−3)(x+5): the extended sequence rejects it; the ladder
    // lands on the Sturm baseline with the two real roots.
    let p = &Poly::from_i64(&[1, 0, 1]) * &Poly::from_roots(&[Int::from(3), Int::from(-5)]);
    let session = Session::new(SolverConfig::parallel(8, 3));
    let r = session.solve(&p).unwrap();
    assert_eq!(r.degraded, Some(Degradation::SturmBaseline));
    let got: Vec<f64> = r.roots.iter().map(|d| d.to_f64()).collect();
    assert_eq!(got, vec![-5.0, 3.0]);
}

#[test]
fn traced_supervised_solves_report_fault_counters() {
    // A clean traced solve reports zero fault counters and no marker.
    let session = Session::new(SolverConfig::parallel(8, 2));
    let (result, report) = session.solve_traced(&wilkinson(10)).unwrap();
    assert!(result.degraded.is_none());
    assert_eq!(report.panicked_tasks, 0);
    assert_eq!(report.cancelled_tasks, 0);
    assert!(report.degraded.is_none());
    let text = report.to_string();
    assert!(!text.contains("faults:"));
    assert!(!text.contains("degraded:"));
}

#[test]
fn cancelled_scope_partial_stats_count_dropped_tasks() {
    let (p, cfg) = slow_input();
    let session = Session::with_runtime(cfg, &Runtime::new(3));
    let err = session
        .solve_with_deadline(&p, Duration::from_millis(60))
        .expect_err("deadline fires mid-scope");
    let SolveError::Cancelled { partial_stats, .. } = err else {
        panic!("expected Cancelled");
    };
    // The scope that was cancelled drained its queue; dropped tasks are
    // accounted (the deadline usually fires inside a pool scope, whose
    // stats then ride along).
    if let Some(pool) = &partial_stats.pool {
        assert!(pool.workers >= 3);
        let _ = pool.to_string(); // Display stays well-formed
    }
}
