//! Trace-driven scheduling simulation.
//!
//! The paper measured speedups on a 20-processor Sequent Symmetry. When
//! the host has fewer cores than the processor counts under study, the
//! same task graph can still be *replayed*: [`crate::pool::run`]
//! records every executed task's duration and its spawner edge (which is
//! the task's last-arriving dependency, so the recorded edges are exactly
//! the precedence constraints that gated the run), and
//! [`simulate_makespan`] list-schedules that DAG on `P` virtual
//! processors — the same greedy FIFO discipline as the real pool:
//! whenever a processor is free it takes the oldest ready task.
//!
//! The simulation reproduces the two effects the paper's speedup tables
//! show: near-linear scaling while the level width exceeds `P`, and the
//! efficiency droop when the task grain is too coarse to keep all
//! processors busy (their observation at 16 processors).

use crate::pool::TaskTrace;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// Simulated completion time of the traced task graph on `workers`
/// virtual processors under greedy FIFO list scheduling.
///
/// # Panics
/// Panics if `workers == 0` or if the trace references unknown parents.
pub fn simulate_makespan(trace: &TaskTrace, workers: usize) -> Duration {
    Duration::from_nanos(list_schedule(trace, workers, |_, _, _| {}))
}

/// Greedy FIFO list schedule of the traced DAG; calls
/// `visit(id, start, done)` for every placed task and returns the
/// makespan in nanoseconds.
fn list_schedule(
    trace: &TaskTrace,
    workers: usize,
    mut visit: impl FnMut(u64, u64, u64),
) -> u64 {
    assert!(workers > 0, "need at least one virtual processor");
    if trace.records.is_empty() {
        return 0;
    }
    // Index tasks and children by id.
    let max_id = trace.records.iter().map(|r| r.id).max().unwrap() as usize;
    let mut dur = vec![0u64; max_id + 1];
    let mut children: Vec<Vec<u64>> = vec![Vec::new(); max_id + 1];
    let mut roots = Vec::new();
    for r in &trace.records {
        dur[r.id as usize] = r.nanos;
        match r.parent {
            Some(p) => {
                assert!((p as usize) <= max_id, "unknown parent {p}");
                children[p as usize].push(r.id);
            }
            None => roots.push(r.id),
        }
    }
    // Observed start times break FIFO ties the way the *real run* did:
    // two tasks ready at the same instant are taken in the order the
    // workers actually stole them, not in spawn-id order. Synthetic
    // traces (all start_ns zero) degrade gracefully to spawn order.
    let mut started = vec![0u64; max_id + 1];
    for r in &trace.records {
        started[r.id as usize] = r.start_ns;
    }
    for c in &mut children {
        c.sort_unstable(); // spawn order
    }

    // Ready tasks ordered by (ready_time, observed_start, id) — FIFO by
    // readiness, ties broken by the recorded execution order (then spawn
    // order) like the real injector.
    let mut ready: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
    for id in roots {
        ready.push(Reverse((0, started[id as usize], id)));
    }
    // Virtual processors: min-heap of next-free times.
    let mut free: BinaryHeap<Reverse<u64>> = (0..workers).map(|_| Reverse(0)).collect();
    let mut makespan = 0u64;
    while let Some(Reverse((ready_at, _, id))) = ready.pop() {
        let Reverse(free_at) = free.pop().expect("nonempty");
        let start = ready_at.max(free_at);
        let done = start + dur[id as usize];
        free.push(Reverse(done));
        makespan = makespan.max(done);
        visit(id, start, done);
        for &c in &children[id as usize] {
            ready.push(Reverse((done, started[c as usize], c)));
        }
    }
    makespan
}

/// Time-weighted concurrency profile of the simulated schedule: how
/// long exactly `k` of the `workers` virtual processors were busy, for
/// each occupancy level `k` that actually occurred (levels with zero
/// dwell time are omitted; zero-duration tasks contribute nothing).
///
/// This is the *distribution* behind the mean observed parallelism —
/// `Σ k·t_k / Σ t_k` over the returned pairs recovers the familiar
/// `total_work / makespan` average, but the histogram also shows how
/// much of the run sat at full width versus dribbled along the critical
/// path, which a single mean hides.
pub fn concurrency_profile(trace: &TaskTrace, workers: usize) -> Vec<(usize, Duration)> {
    let mut events: Vec<(u64, i64)> = Vec::new();
    list_schedule(trace, workers, |_, start, done| {
        if done > start {
            events.push((start, 1));
            events.push((done, -1));
        }
    });
    events.sort_unstable();
    let mut dwell = vec![0u64; workers + 1];
    let mut level = 0i64;
    let mut prev = 0u64;
    for (t, delta) in events {
        if t > prev && level > 0 {
            dwell[level as usize] += t - prev;
        }
        level += delta;
        prev = t;
    }
    dwell
        .into_iter()
        .enumerate()
        .filter(|&(k, ns)| k > 0 && ns > 0)
        .map(|(k, ns)| (k, Duration::from_nanos(ns)))
        .collect()
}

/// Length of the trace's critical path: the longest duration-weighted
/// chain of spawner edges. This is the `T_∞` lower bound on any
/// schedule's makespan; `total_work / critical_path` is the graph's
/// available parallelism.
///
/// Relies on the pool's invariant that a spawner's id precedes its
/// children's ids (ids are spawn order), so one id-ordered pass computes
/// the longest path.
pub fn critical_path(trace: &TaskTrace) -> Duration {
    if trace.records.is_empty() {
        return Duration::ZERO;
    }
    let max_id = trace.records.iter().map(|r| r.id).max().unwrap() as usize;
    let mut recs: Vec<Option<(Option<u64>, u64)>> = vec![None; max_id + 1];
    for r in &trace.records {
        recs[r.id as usize] = Some((r.parent, r.nanos));
    }
    let mut finish = vec![0u64; max_id + 1];
    let mut best = 0u64;
    for (id, rec) in recs.iter().enumerate() {
        let Some((parent, nanos)) = rec else { continue };
        let base = parent.map_or(0, |p| finish[p as usize]);
        finish[id] = base + nanos;
        best = best.max(finish[id]);
    }
    Duration::from_nanos(best)
}

/// Simulated speedup curve: `makespan(1) / makespan(p)` for each
/// requested processor count.
pub fn simulate_speedups(trace: &TaskTrace, procs: &[usize]) -> Vec<(usize, f64)> {
    let t1 = simulate_makespan(trace, 1).as_nanos() as f64;
    procs
        .iter()
        .map(|&p| (p, t1 / simulate_makespan(trace, p).as_nanos().max(1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{run, TaskRecord};

    fn trace(records: Vec<TaskRecord>) -> TaskTrace {
        TaskTrace { records, ..TaskTrace::default() }
    }

    fn rec(id: u64, parent: Option<u64>, nanos: u64) -> TaskRecord {
        TaskRecord { id, parent, nanos, start_ns: 0, worker: 0, queue_depth: 0 }
    }

    #[test]
    fn empty_trace_is_zero() {
        assert_eq!(simulate_makespan(&trace(vec![]), 4), Duration::ZERO);
    }

    #[test]
    fn independent_tasks_scale_linearly() {
        // 8 independent 100ns tasks under one 0ns seed.
        let mut records = vec![rec(0, None, 0)];
        for i in 1..=8 {
            records.push(rec(i, Some(0), 100));
        }
        let t = trace(records);
        assert_eq!(simulate_makespan(&t, 1), Duration::from_nanos(800));
        assert_eq!(simulate_makespan(&t, 2), Duration::from_nanos(400));
        assert_eq!(simulate_makespan(&t, 4), Duration::from_nanos(200));
        assert_eq!(simulate_makespan(&t, 8), Duration::from_nanos(100));
        // more processors than tasks: no further improvement
        assert_eq!(simulate_makespan(&t, 100), Duration::from_nanos(100));
    }

    #[test]
    fn chain_cannot_speed_up() {
        // 0 -> 1 -> 2 -> 3, 50ns each.
        let t = trace(vec![
            rec(0, None, 50),
            rec(1, Some(0), 50),
            rec(2, Some(1), 50),
            rec(3, Some(2), 50),
        ]);
        for p in [1usize, 2, 8] {
            assert_eq!(simulate_makespan(&t, p), Duration::from_nanos(200), "p={p}");
        }
    }

    #[test]
    fn diamond_critical_path() {
        // 0 (10) -> {1 (100), 2 (30)}; 2 -> 3 (30).
        // p=1: 10+100+30+30 = 170. p=2: max(10+100, 10+30+30) = 110.
        let t = trace(vec![
            rec(0, None, 10),
            rec(1, Some(0), 100),
            rec(2, Some(0), 30),
            rec(3, Some(2), 30),
        ]);
        assert_eq!(simulate_makespan(&t, 1), Duration::from_nanos(170));
        assert_eq!(simulate_makespan(&t, 2), Duration::from_nanos(110));
    }

    #[test]
    fn speedup_curve_monotone_and_bounded() {
        let mut records = vec![rec(0, None, 0)];
        // two layers: 16 × 100ns, each spawning one 50ns child
        for i in 1..=16u64 {
            records.push(rec(i, Some(0), 100));
            records.push(rec(16 + i, Some(i), 50));
        }
        let t = trace(records);
        let curve = simulate_speedups(&t, &[1, 2, 4, 8, 16]);
        let mut last = 0.0;
        for &(p, s) in &curve {
            assert!(s >= last - 1e-9, "monotone at p={p}");
            assert!(s <= p as f64 + 1e-9, "bounded by p at p={p}");
            last = s;
        }
        assert!(curve.last().unwrap().1 > 8.0, "parallel slack exploited");
    }

    #[test]
    fn recorded_start_order_breaks_fifo_ties() {
        // Four tasks ready at t=0 on 2 processors: A(2), B(1), C(1) and
        // D(2) gated on A. In spawn order [A, B, C] the schedule is
        // A:[0,2] B:[0,1] C:[1,2] D:[2,4] → makespan 4. If the real run
        // happened to execute B and C first (recorded start order
        // [B, C, A]), the replay must follow: B:[0,1] C:[0,1] A:[1,3]
        // D:[3,5] → makespan 5.
        let spawn_order = trace(vec![
            rec(0, None, 0), // seed
            rec(1, Some(0), 2),
            rec(2, Some(0), 1),
            rec(3, Some(0), 1),
            rec(4, Some(1), 2),
        ]);
        assert_eq!(simulate_makespan(&spawn_order, 2), Duration::from_nanos(4));
        let mut observed = spawn_order.clone();
        for r in &mut observed.records {
            r.start_ns = match r.id {
                2 | 3 => 10, // B, C stolen first
                1 => 20,     // A after them
                4 => 40,
                _ => 0,
            };
        }
        assert_eq!(simulate_makespan(&observed, 2), Duration::from_nanos(5));
    }

    #[test]
    fn concurrency_profile_partitions_the_makespan() {
        // Diamond on 2 processors: 0:[0,10] 1:[10,110] 2:[10,40]
        // 3:[40,70] → one busy during [0,10] and [70,110] (50ns), two
        // busy during [10,70] (60ns).
        let t = trace(vec![
            rec(0, None, 10),
            rec(1, Some(0), 100),
            rec(2, Some(0), 30),
            rec(3, Some(2), 30),
        ]);
        let prof = concurrency_profile(&t, 2);
        assert_eq!(
            prof,
            vec![(1, Duration::from_nanos(50)), (2, Duration::from_nanos(60))]
        );
        // Weighted sum over levels recovers total work; dwell sum is
        // the busy portion of the makespan.
        let work: u64 = prof.iter().map(|&(k, d)| k as u64 * d.as_nanos() as u64).sum();
        assert_eq!(Duration::from_nanos(work), t.total_work());

        // A chain never leaves level 1.
        let chain =
            trace(vec![rec(0, None, 50), rec(1, Some(0), 50), rec(2, Some(1), 50)]);
        assert_eq!(
            concurrency_profile(&chain, 8),
            vec![(1, Duration::from_nanos(150))]
        );

        // 8 independent 100ns tasks on 4 processors: flat at level 4.
        let mut records = vec![rec(0, None, 0)];
        for i in 1..=8 {
            records.push(rec(i, Some(0), 100));
        }
        assert_eq!(
            concurrency_profile(&trace(records), 4),
            vec![(4, Duration::from_nanos(200))]
        );

        assert_eq!(concurrency_profile(&trace(vec![]), 4), vec![]);
    }

    #[test]
    fn critical_path_bounds_makespan() {
        // Diamond from `diamond_critical_path`: longest chain 0→1 = 110.
        let t = trace(vec![
            rec(0, None, 10),
            rec(1, Some(0), 100),
            rec(2, Some(0), 30),
            rec(3, Some(2), 30),
        ]);
        assert_eq!(critical_path(&t), Duration::from_nanos(110));
        // T_∞ lower-bounds every schedule, and with enough processors the
        // greedy schedule achieves it on this graph.
        for p in [1usize, 2, 4] {
            assert!(simulate_makespan(&t, p) >= critical_path(&t));
        }
        assert_eq!(simulate_makespan(&t, 2), critical_path(&t));
        // A pure chain *is* its critical path.
        let chain = trace(vec![rec(0, None, 50), rec(1, Some(0), 50), rec(2, Some(1), 50)]);
        assert_eq!(critical_path(&chain), Duration::from_nanos(150));
        assert_eq!(critical_path(&trace(vec![])), Duration::ZERO);
    }

    #[test]
    fn real_trace_from_pool_replays_consistently() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let count = AtomicU64::new(0);
        let (_stats, trace) = run(2, |s| {
            for _ in 0..10 {
                s.spawn(|s2| {
                    count.fetch_add(1, Ordering::Relaxed);
                    s2.spawn(|_| {
                        std::hint::black_box(42);
                    });
                });
            }
        });
        assert_eq!(trace.records.len(), 21); // seed + 10 + 10
        // every task has a unique id and a recorded parent except the seed
        let seeds = trace.records.iter().filter(|r| r.parent.is_none()).count();
        assert_eq!(seeds, 1);
        // timed records: epoch set, workers in range, children start
        // after their spawner started
        assert!(trace.epoch.is_some());
        assert!(trace.records.iter().all(|r| r.worker < 2));
        let started: std::collections::HashMap<u64, u64> =
            trace.records.iter().map(|r| (r.id, r.start_ns)).collect();
        for r in &trace.records {
            if let Some(p) = r.parent {
                assert!(r.start_ns >= started[&p], "child {} before parent {p}", r.id);
            }
        }
        // simulation runs and respects work conservation
        let m1 = simulate_makespan(&trace, 1);
        assert_eq!(m1, trace.total_work());
        assert!(simulate_makespan(&trace, 4) <= m1);
        assert!(critical_path(&trace) <= m1);
    }
}
