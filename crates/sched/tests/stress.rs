//! Stress and failure-injection tests for the dynamic pool: high
//! contention fan-out, repeated runs from one process, panic storms, and
//! trace integrity under load.

use rr_sched::{run, Gate};
use std::sync::atomic::{AtomicU64, Ordering};

#[test]
fn repeated_pool_runs_do_not_leak_state() {
    // Each `run` is self-contained; 50 consecutive pools must all drain.
    for round in 0..50u64 {
        let count = AtomicU64::new(0);
        run(3, |s| {
            for _ in 0..20 {
                s.spawn(|_| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::SeqCst), 20, "round {round}");
    }
}

#[test]
fn wide_fanout_with_gated_reduction() {
    // 1000 leaves reduced through a tree of gates, many workers.
    const LEAVES: usize = 1000;
    let levels: Vec<Vec<Gate>> = {
        let mut v = Vec::new();
        let mut width = LEAVES;
        while width > 1 {
            let next = width.div_ceil(2);
            v.push((0..next).map(|i| Gate::new(if 2 * i + 1 < width { 2 } else { 1 })).collect());
            width = next;
        }
        v
    };
    let done = AtomicU64::new(0);
    fn ascend<'env>(
        levels: &'env [Vec<Gate>],
        done: &'env AtomicU64,
        level: usize,
        idx: usize,
        s: &rr_sched::Scope<'env>,
    ) {
        if level == levels.len() {
            done.fetch_add(1, Ordering::SeqCst);
            return;
        }
        if levels[level][idx / 2].arrive() {
            s.spawn(move |s2| ascend(levels, done, level + 1, idx / 2, s2));
        }
    }
    let (levels_ref, done_ref) = (&levels, &done);
    run(8, move |s| {
        for leaf in 0..LEAVES {
            s.spawn(move |s2| ascend(levels_ref, done_ref, 0, leaf, s2));
        }
    });
    assert_eq!(done.load(Ordering::SeqCst), 1);
}

#[test]
fn panic_storm_abandons_cleanly() {
    for _ in 0..10 {
        let result = std::panic::catch_unwind(|| {
            run(4, |s| {
                for i in 0..100 {
                    s.spawn(move |_| {
                        if i % 7 == 3 {
                            panic!("injected failure {i}");
                        }
                    });
                }
            });
        });
        assert!(result.is_err(), "panic must propagate");
    }
    // and the process can still run pools afterwards
    let ok = AtomicU64::new(0);
    run(4, |s| {
        s.spawn(|_| {
            ok.fetch_add(1, Ordering::SeqCst);
        });
    });
    assert_eq!(ok.load(Ordering::SeqCst), 1);
}

#[test]
fn trace_integrity_under_contention() {
    let (stats, trace) = run(8, |s| {
        for _ in 0..200 {
            s.spawn(|s2| {
                for _ in 0..3 {
                    s2.spawn(|_| {
                        std::hint::black_box(1 + 1);
                    });
                }
            });
        }
    });
    assert_eq!(stats.total_tasks(), 801);
    assert_eq!(trace.records.len(), 801);
    // ids unique
    let mut ids: Vec<u64> = trace.records.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 801);
    // exactly one root; every parent id exists
    let roots = trace.records.iter().filter(|r| r.parent.is_none()).count();
    assert_eq!(roots, 1);
    for r in &trace.records {
        if let Some(p) = r.parent {
            assert!(ids.binary_search(&p).is_ok(), "parent {p} recorded");
        }
    }
    // simulation of a contended trace still satisfies the work identity
    let m1 = rr_sched::sim::simulate_makespan(&trace, 1);
    assert_eq!(m1, trace.total_work());
}

#[test]
fn single_worker_is_strictly_fifo() {
    // With one worker the execution order must be exact spawn order.
    let order = parking_lot::Mutex::new(Vec::new());
    let order_ref = &order;
    run(1, move |s| {
        for i in 0..50u32 {
            s.spawn(move |_| order_ref.lock().push(i));
        }
    });
    let seq = order.into_inner();
    assert_eq!(seq, (0..50).collect::<Vec<_>>());
}
