//! Multi-threaded behavior of the `metrics` module.
//!
//! The counters are per-thread with a phase that is thread-local state,
//! so concurrent `with_phase` scopes must never cross-attribute events,
//! and a context's totals must be exact (not approximate) around
//! multi-threaded work. Each test owns its `SolveCtx`, installed in every
//! thread it spawns, so the totals are exact while the other tests of
//! this file run concurrently.

use rr_mp::metrics::{self, Phase};
use rr_mp::{Int, Profile, SolveCtx};
use std::sync::{Arc, Barrier};

/// Bit cost of one `x * y` at the given operand values.
fn mul_bits(x: u64, y: u64) -> u64 {
    let bits = |v: u64| 64 - v.leading_zeros() as u64;
    bits(x) * bits(y)
}

#[test]
fn concurrent_with_phase_scopes_do_not_cross_attribute() {
    // Worker i multiplies under its own phase, all racing through the
    // same barrier so the scopes genuinely overlap. Each phase must
    // receive exactly its own thread's events with its own bit costs.
    let assignments: [(Phase, u64, u32); 3] = [
        (Phase::TreePoly, 0xffff, 11),
        (Phase::Sieve, 0xff, 23),
        (Phase::Newton, 0x7, 37),
    ];
    let ctx = SolveCtx::new(Profile::Paper);
    let barrier = Arc::new(Barrier::new(assignments.len()));
    let handles: Vec<_> = assignments
        .iter()
        .map(|&(phase, value, reps)| {
            let barrier = Arc::clone(&barrier);
            let ctx = ctx.clone();
            std::thread::spawn(move || {
                barrier.wait();
                ctx.run(|| {
                    metrics::with_phase(phase, || {
                        for _ in 0..reps {
                            let _ = Int::from(value) * Int::from(value);
                        }
                    })
                });
                // After the scope the thread is back on its default phase.
                assert_eq!(metrics::current_phase(), Phase::Other);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let d = ctx.snapshot();
    for &(phase, value, reps) in &assignments {
        assert_eq!(d.phase(phase).mul_count, reps as u64, "{phase:?} count");
        assert_eq!(
            d.phase(phase).mul_bits,
            reps as u64 * mul_bits(value, value),
            "{phase:?} bits"
        );
    }
}

#[test]
fn nested_scopes_on_many_threads_restore_and_attribute() {
    let ctx = SolveCtx::new(Profile::Paper);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let ctx = ctx.clone();
            std::thread::spawn(move || {
                let _guard = ctx.install();
                metrics::with_phase(Phase::PreInterval, || {
                    let _ = Int::from(3u64) * Int::from(3u64);
                    metrics::with_phase(Phase::Sort, || {
                        let _ = Int::from(3u64) * Int::from(3u64);
                    });
                    assert_eq!(metrics::current_phase(), Phase::PreInterval);
                    let _ = Int::from(3u64) * Int::from(3u64);
                });
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let d = ctx.snapshot();
    assert_eq!(d.phase(Phase::PreInterval).mul_count, 8);
    assert_eq!(d.phase(Phase::Sort).mul_count, 4);
    assert_eq!(d.phase(Phase::PreInterval).mul_bits, 8 * 4);
    assert_eq!(d.phase(Phase::Sort).mul_bits, 4 * 4);
}

#[test]
fn snapshot_subtraction_is_exact_across_thread_churn() {
    // Threads that exit after recording must stay visible in later
    // snapshots (the sink owns the counters), or subtraction around a
    // region would under-count.
    let ctx = SolveCtx::new(Profile::Paper);
    let before = ctx.snapshot();
    let c = ctx.clone();
    std::thread::spawn(move || {
        c.run(|| {
            metrics::with_phase(Phase::Baseline, || {
                let _ = Int::from(u64::MAX) * Int::from(u64::MAX);
            })
        });
    })
    .join()
    .unwrap();
    let mid = ctx.snapshot();
    let c = ctx.clone();
    std::thread::spawn(move || {
        c.run(|| {
            metrics::with_phase(Phase::Baseline, || {
                let _ = Int::from(u64::MAX) * Int::from(u64::MAX);
                let _ = Int::from(u64::MAX) / Int::from(3u64);
            })
        });
    })
    .join()
    .unwrap();
    let after = ctx.snapshot();

    assert_eq!((mid - before).phase(Phase::Baseline).mul_count, 1);
    let d = after - mid;
    assert_eq!(d.phase(Phase::Baseline).mul_count, 1);
    assert_eq!(d.phase(Phase::Baseline).div_count, 1);
    assert_eq!(d.phase(Phase::Baseline).mul_bits, 64 * 64);
    // Totals compose exactly: (after − before) = (after − mid) + (mid − before).
    let whole = (after - before).phase(Phase::Baseline);
    let parts = (after - mid).phase(Phase::Baseline) + (mid - before).phase(Phase::Baseline);
    assert_eq!(whole, parts);
}
