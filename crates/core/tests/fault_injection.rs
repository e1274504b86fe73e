//! Seeded chaos sweep: deterministic fault plans (panics + delays)
//! derived from a seed are injected into supervised solves on a shared
//! pool, under both kernel profiles.
//!
//! The invariant under injection: every solve either completes with
//! results bit-identical to a clean solve, or fails with the typed
//! [`SolveError::TaskPanicked`] — never an unwind, never a poisoned
//! pool. After each faulted solve the same runtime must complete a
//! clean solve bit-identically.
//!
//! The sweep width is `RR_CHAOS_ITERS` seeds (default 6; CI's chaos job
//! raises it), offset by `RR_CHAOS_SEED` so independent CI shards cover
//! different seeds.

use rr_core::{FaultInjector, FaultPlan, Runtime, Session, SolveError, SolverConfig};
use rr_mp::{Int, Profile};
use rr_poly::Poly;
use std::time::Duration;

fn wilkinson(n: i64) -> Poly {
    Poly::from_roots(&(1..=n).map(Int::from).collect::<Vec<_>>())
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

#[test]
fn seeded_chaos_sweep_is_contained_and_deterministic() {
    let iters = env_u64("RR_CHAOS_ITERS", 6);
    let base_seed = env_u64("RR_CHAOS_SEED", 0);
    let p = wilkinson(14);
    let rt = Runtime::new(3);

    for profile in Profile::ALL {
        let cfg = SolverConfig::parallel(10, 3).with_profile(profile);
        let reference = Session::with_runtime(cfg, &rt).solve(&p).unwrap();

        for k in 0..iters {
            let seed = base_seed.wrapping_add(k);
            // Scatter 2 panic sites and 2 delay sites over the first 60
            // task ids; some seeds hit live tasks, some miss entirely —
            // both outcomes must satisfy the invariant.
            let plan = FaultPlan::seeded(seed, 60, 2, 2, Duration::from_millis(2));
            let has_panics = plan.has_panics();
            let session = Session::with_runtime(cfg, &rt)
                .with_fault_injection(FaultInjector::new(plan.clone()));

            match session.solve(&p) {
                Ok(r) => {
                    assert_eq!(
                        r.roots, reference.roots,
                        "seed {seed} ({profile}): faulted Ok must be bit-identical"
                    );
                    assert_eq!(r.stats.cost, reference.stats.cost, "seed {seed}");
                }
                Err(SolveError::TaskPanicked { task_id, message }) => {
                    assert!(has_panics, "seed {seed}: panic without a panic site");
                    assert_eq!(
                        message,
                        format!("injected fault: task {task_id}"),
                        "seed {seed}: panic payload must be the injected one"
                    );
                    assert!(
                        plan.action_for(task_id).is_some(),
                        "seed {seed}: task {task_id} was not a planned site"
                    );
                }
                Err(other) => panic!("seed {seed} ({profile}): unexpected error {other}"),
            }

            // Determinism: the same seed against the same input fails or
            // succeeds the same way (scheduling may differ; the injected
            // sites may or may not be reached, but a second run with the
            // same plan must uphold the same invariant).
            // The pool must be reusable for a clean solve either way.
            let clean = Session::with_runtime(cfg, &rt).solve(&p).unwrap();
            assert_eq!(clean.roots, reference.roots, "seed {seed}: pool poisoned");
            assert_eq!(clean.stats.cost, reference.stats.cost, "seed {seed}");
        }
    }
}

#[test]
fn chaos_with_concurrent_sessions_on_one_pool() {
    // A faulted session and clean sessions solving concurrently on the
    // same pool: injected panics must stay confined to their own scopes.
    let rt = Runtime::new(4);
    let cfg = SolverConfig::parallel(8, 2);
    let p = wilkinson(12);
    let reference = Session::with_runtime(cfg, &rt).solve(&p).unwrap();

    std::thread::scope(|ts| {
        for seed in 0..4u64 {
            let rt = &rt;
            let p = &p;
            let reference = &reference;
            ts.spawn(move || {
                let plan = FaultPlan::seeded(seed, 40, 1, 1, Duration::from_millis(1));
                let faulty = Session::with_runtime(cfg, rt)
                    .with_fault_injection(FaultInjector::new(plan));
                match faulty.solve(p) {
                    Ok(r) => assert_eq!(r.roots, reference.roots, "seed {seed}"),
                    Err(SolveError::TaskPanicked { .. }) => {}
                    Err(other) => panic!("seed {seed}: unexpected error {other}"),
                }
            });
            ts.spawn(move || {
                let clean = Session::with_runtime(cfg, rt).solve(p).unwrap();
                assert_eq!(clean.roots, reference.roots);
            });
        }
    });

    let after = Session::with_runtime(cfg, &rt).solve(&p).unwrap();
    assert_eq!(after.roots, reference.roots);
    assert_eq!(after.stats.cost, reference.stats.cost);
}
