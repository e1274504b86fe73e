//! Fused per-solve reports: wall-clock spans + operation counts +
//! scheduler timings in one structure.
//!
//! A traced solve ([`crate::Session::solve_traced`]) carries an
//! `rr-obs` recorder through every thread that works on it, so the
//! phase spans emitted by `rr_mp::metrics::with_phase` land on one
//! timeline. This module fuses that timeline with the two other
//! observability sources the solve already produces:
//!
//! * the per-solve [`CostSnapshot`] (per-phase mul/div counts — the
//!   paper's Figures 2–7 dimension), matched to phase spans by label,
//!   and
//! * the scheduler's timed [`rr_sched::TaskRecord`]s (start timestamp,
//!   duration, executing worker) and queue-depth samples, rebased from
//!   the scope epoch onto the recorder epoch and placed on synthetic
//!   per-worker tracks.
//!
//! The result is a [`SolveReport`]: per-phase time *and* counts,
//! observed parallelism (total work over critical path — the `T_1/T_∞`
//! bound the speedup tables are judged against), and a merged
//! [`rr_obs::Trace`] exportable as Chrome `trace_event` JSON
//! ([`SolveReport::write_chrome`]) for Perfetto / `chrome://tracing`.

use crate::solver::RootsResult;
use rr_mp::metrics::{CostSnapshot, Exec, ALL_PHASES};
use rr_obs::trace::WORKER_TRACK_BASE;
use rr_obs::{CounterRecord, Recorder, SpanRecord, Trace};
use rr_sched::{sim, PoolStats, TaskTrace};
use std::borrow::Cow;
use std::time::Duration;

/// One phase row of a [`SolveReport`]: wall-clock self time fused with
/// the phase's operation counts.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase label (`rr_mp::metrics::Phase::label`).
    pub name: String,
    /// Self time: span time attributed to this phase, with nested
    /// phase spans subtracted (the innermost phase owns the interval,
    /// matching the counting rule for `mul_count`).
    pub self_time: Duration,
    /// Number of spans recorded for the phase.
    pub spans: usize,
    /// Multiplications counted in the phase.
    pub mul_count: u64,
    /// Sum over the phase's multiplications of the product of operand
    /// bit lengths (the paper's bit-complexity measure).
    pub mul_bits: u64,
    /// Divisions counted in the phase.
    pub div_count: u64,
}

/// Everything observable about one traced solve.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Total solve wall-clock time.
    pub wall: Duration,
    /// Per-phase time/count rows, descending by self time. Phases with
    /// neither spans nor counts are omitted.
    pub phases: Vec<PhaseReport>,
    /// Tasks executed by the scheduler (0 for sequential solves).
    pub total_tasks: u64,
    /// Sum of task durations across the solve's pool scopes (`T_1`).
    pub total_work: Duration,
    /// Duration-weighted longest spawner chain across the solve's pool
    /// scopes, replayed back to back (`T_∞`).
    pub critical_path: Duration,
    /// Available parallelism `T_1 / T_∞` of the recorded task graph —
    /// the ceiling on any speedup the paper's tables could show for
    /// this input. 1.0 for sequential solves.
    pub observed_parallelism: f64,
    /// Scheduler statistics (dynamic mode only).
    pub pool: Option<PoolStats>,
    /// Tasks that panicked across the solve's pool scopes (nonzero only
    /// under fault injection — a real panic aborts the solve).
    pub panicked_tasks: u64,
    /// Queued tasks drained unexecuted because a scope was cancelled.
    pub cancelled_tasks: u64,
    /// `Some` when the solve recovered through the degradation ladder
    /// (squarefree retry / Sturm baseline) instead of running the
    /// paper's pipeline on the literal input.
    pub degraded: Option<crate::solver::Degradation>,
    /// Physical execution counters per phase (see
    /// [`crate::SolveStats::exec`]) — among them the scratch arenas'
    /// cold misses: a warm solve's remainder phase records zero.
    pub exec: rr_mp::ExecSnapshot,
    /// The merged trace: phase/stage spans from the recorder, plus
    /// per-task spans and queue-depth counters from the scheduler.
    pub trace: Trace,
}

impl SolveReport {
    /// Serializes the merged trace as Chrome `trace_event` JSON.
    pub fn to_chrome_json(&self) -> String {
        self.trace.to_chrome_json()
    }

    /// Writes the Chrome trace to `path`.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.trace.write_chrome(path)
    }

    /// Aggregates the trace's counter samples (`rr_obs::counter` events
    /// plus the scheduler's queue-depth samples) per counter name, in
    /// first-appearance order. This is what surfaces counters in the
    /// trace-report JSON — the raw samples stay in
    /// [`trace`](SolveReport::trace), but reports want totals.
    pub fn counter_summary(&self) -> Vec<CounterSummary> {
        let mut rows: Vec<CounterSummary> = Vec::new();
        for c in &self.trace.counters {
            match rows.iter_mut().find(|r| r.name == *c.name) {
                Some(r) => {
                    r.samples += 1;
                    r.max = r.max.max(c.value);
                    r.min = r.min.min(c.value);
                    r.last = c.value;
                }
                None => rows.push(CounterSummary {
                    name: c.name.to_string(),
                    samples: 1,
                    max: c.value,
                    min: c.value,
                    last: c.value,
                }),
            }
        }
        rows
    }
}

/// Per-name aggregate of a report's counter samples (see
/// [`SolveReport::counter_summary`]). `last` relies on the trace's
/// counters being time-sorted, which [`build_report`] guarantees.
#[derive(Clone, Debug, PartialEq)]
pub struct CounterSummary {
    /// Counter name as recorded (e.g. `queue-depth`).
    pub name: String,
    /// Number of samples recorded under that name.
    pub samples: u64,
    /// Largest sampled value.
    pub max: f64,
    /// Smallest sampled value.
    pub min: f64,
    /// Final sampled value (time order).
    pub last: f64,
}

impl std::fmt::Display for SolveReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "solve: wall {:.2?}", self.wall)?;
        if self.total_tasks > 0 {
            writeln!(
                f,
                "  tasks {}  work {:.2?}  critical path {:.2?}  parallelism {:.2}",
                self.total_tasks, self.total_work, self.critical_path, self.observed_parallelism,
            )?;
        }
        if let Some(pool) = &self.pool {
            writeln!(f, "  pool: {pool}")?;
        }
        if self.panicked_tasks > 0 || self.cancelled_tasks > 0 {
            writeln!(
                f,
                "  faults: {} panicked, {} cancelled",
                self.panicked_tasks, self.cancelled_tasks
            )?;
        }
        if let Some(d) = self.degraded {
            writeln!(f, "  degraded: {d}")?;
        }
        let allocs = self.exec.get(Exec::Allocs);
        if allocs > 0 {
            let bytes = self.exec.get(Exec::AllocBytes);
            writeln!(f, "  allocs: {allocs} ({bytes} bytes)")?;
        }
        for p in &self.phases {
            writeln!(
                f,
                "  {:<12} {:>10.2?}  ({} spans, {} muls, {} divs)",
                p.name, p.self_time, p.spans, p.mul_count, p.div_count,
            )?;
        }
        Ok(())
    }
}

/// Rebases the scheduler's task records and queue samples onto the
/// recorder timeline and appends them to `trace` as synthetic
/// per-worker tracks.
fn fuse_task_trace(trace: &mut Trace, task_trace: &TaskTrace, recorder: &Recorder) {
    let base_ns = task_trace.epoch.map_or(0, |epoch| {
        epoch
            .checked_duration_since(recorder.epoch())
            .map_or(0, |d| d.as_nanos() as u64)
    });
    for r in &task_trace.records {
        let mut args = vec![("id", r.id), ("worker", r.worker as u64)];
        if let Some(p) = r.parent {
            args.push(("parent", p));
        }
        trace.spans.push(SpanRecord {
            name: Cow::Owned(format!("task {}", r.id)),
            cat: "task",
            start_ns: base_ns + r.start_ns,
            dur_ns: r.nanos,
            tid: WORKER_TRACK_BASE + r.worker as u32,
            args,
        });
        let tid = WORKER_TRACK_BASE + r.worker as u32;
        if !trace.threads.iter().any(|(t, _)| *t == tid) {
            trace.threads.push((tid, format!("pool-worker-{}", r.worker)));
        }
    }
    for &(t_ns, depth) in &task_trace.queue_samples {
        trace.counters.push(CounterRecord {
            name: "queue-depth",
            t_ns: base_ns + t_ns,
            value: f64::from(depth),
        });
    }
}

/// Joins per-phase span self-times with the cost snapshot's per-phase
/// counts. A phase appears if it has either spans or counts.
fn phase_rows(trace: &Trace, cost: &CostSnapshot) -> Vec<PhaseReport> {
    let mut rows: Vec<PhaseReport> = trace
        .self_time_by_name("phase")
        .into_iter()
        .map(|(name, self_time, spans)| PhaseReport {
            name,
            self_time,
            spans,
            mul_count: 0,
            mul_bits: 0,
            div_count: 0,
        })
        .collect();
    for phase in ALL_PHASES {
        let c = cost.phase(phase);
        if c.mul_count == 0 && c.div_count == 0 {
            continue;
        }
        let row = match rows.iter_mut().find(|r| r.name == phase.label()) {
            Some(row) => row,
            None => {
                rows.push(PhaseReport {
                    name: phase.label().to_owned(),
                    self_time: Duration::ZERO,
                    spans: 0,
                    mul_count: 0,
                    mul_bits: 0,
                    div_count: 0,
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.mul_count = c.mul_count;
        row.mul_bits = c.mul_bits;
        row.div_count = c.div_count;
    }
    rows.sort_by(|a, b| b.self_time.cmp(&a.self_time).then_with(|| a.name.cmp(&b.name)));
    rows
}

/// Builds the fused report for a finished solve. `recorder` must be the
/// recorder that was attached to the solve's context; its buffered
/// spans are drained here.
pub(crate) fn build_report(result: &RootsResult, recorder: &Recorder) -> SolveReport {
    let mut trace = recorder.finish();
    let mut total_work = Duration::ZERO;
    let mut critical_path = Duration::ZERO;
    let mut total_tasks = 0u64;
    for t in &result.stats.traces {
        fuse_task_trace(&mut trace, t, recorder);
        // The solve runs its pool scopes back to back (remainder stage,
        // then tree stage), so work and critical paths both add.
        total_work += t.total_work();
        critical_path += sim::critical_path(t);
        total_tasks += t.records.len() as u64;
    }
    trace
        .spans
        .sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns), s.tid));
    trace.counters.sort_by_key(|c| c.t_ns);
    trace.threads.sort_by_key(|&(tid, _)| tid);
    let observed_parallelism = if critical_path.is_zero() {
        1.0
    } else {
        total_work.as_secs_f64() / critical_path.as_secs_f64()
    };
    let (panicked_tasks, cancelled_tasks) = result
        .stats
        .pool
        .as_ref()
        .map_or((0, 0), |p| (p.panicked_tasks, p.cancelled_tasks));
    SolveReport {
        wall: result.stats.wall,
        phases: phase_rows(&trace, &result.stats.cost),
        total_tasks,
        total_work,
        critical_path,
        observed_parallelism,
        pool: result.stats.pool.clone(),
        panicked_tasks,
        cancelled_tasks,
        degraded: result.degraded,
        exec: result.stats.exec,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolverConfig;
    use crate::Session;
    use rr_mp::Int;
    use rr_poly::Poly;

    fn wilkinson(n: i64) -> Poly {
        Poly::from_roots(&(1..=n).map(Int::from).collect::<Vec<_>>())
    }

    #[test]
    fn sequential_report_has_phases_but_no_tasks() {
        let session = Session::new(SolverConfig::sequential(8));
        let (result, report) = session.solve_traced(&wilkinson(10)).unwrap();
        assert_eq!(result.roots.len(), 10);
        assert_eq!(report.total_tasks, 0);
        assert_eq!(report.observed_parallelism, 1.0);
        assert!(report.pool.is_none());
        // Phase rows carry both time and counts, and agree with the
        // solve's cost snapshot.
        let rem = report.phases.iter().find(|p| p.name == "remainder").unwrap();
        assert!(rem.self_time > Duration::ZERO);
        assert!(rem.spans > 0);
        assert_eq!(
            rem.mul_count,
            result.stats.cost.phase(rr_mp::metrics::Phase::RemainderSeq).mul_count
        );
        assert!(rem.mul_count > 0);
    }

    #[test]
    fn parallel_report_fuses_tasks_and_counters() {
        let session = Session::new(SolverConfig::parallel(8, 3));
        let (result, report) = session.solve_traced(&wilkinson(12)).unwrap();
        assert_eq!(result.roots.len(), 12);
        assert!(report.total_tasks > 0);
        assert!(report.total_work >= report.critical_path);
        assert!(report.observed_parallelism >= 1.0);
        assert!(report.pool.is_some());
        // Task spans on synthetic worker tracks, with worker args.
        let tasks: Vec<_> = report.trace.spans.iter().filter(|s| s.cat == "task").collect();
        assert_eq!(tasks.len() as u64, report.total_tasks);
        assert!(tasks.iter().all(|s| s.tid >= WORKER_TRACK_BASE));
        assert!(tasks
            .iter()
            .all(|s| s.args.iter().any(|&(k, _)| k == "id")));
        // Queue-depth samples arrived (one per steal).
        assert!(report.trace.counters.iter().any(|c| c.name == "queue-depth"));
        // Worker tracks are labeled.
        assert!(report
            .trace
            .threads
            .iter()
            .any(|(tid, label)| *tid >= WORKER_TRACK_BASE && label.starts_with("pool-worker-")));
        // Display renders without panicking and mentions the pool line.
        let text = report.to_string();
        assert!(text.contains("parallelism"));
        assert!(text.contains("workers"));
    }

    #[test]
    fn chrome_export_contains_phases_and_tasks() {
        let session = Session::new(SolverConfig::parallel(6, 2));
        let (_, report) = session.solve_traced(&wilkinson(10)).unwrap();
        let json = report.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"cat\":\"phase\""));
        assert!(json.contains("\"cat\":\"task\""));
        assert!(json.contains("\"cat\":\"stage\""));
        assert!(json.contains("queue-depth"));
    }
}
