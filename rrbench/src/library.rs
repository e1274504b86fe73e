//! In-process workloads: set-up, the timed closed loop, the traced
//! phase pass and the direct remainder-sequence pass.

use crate::report::{Answer, Report, INTERVAL_PHASES, PHASES};
use crate::stats::{derive, geomean_of_medians, SplitMix};
use crate::sys::process_cpu_time;
use crate::trace::Spans;
use crate::workloads::{Input, Workload};
use rr_core::{Runtime, Session, SolverConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Pool workers of every runtime the benchmark starts (the host has 2
/// cores; `rr-serve` is started with the same count).
pub const POOL_THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The solver configuration a workload runs an input at: the library
/// defaults, sequential for the interval-bound workloads, and for
/// `large` and `serve` the parallel configuration `rr-serve` itself
/// builds with `--solve-threads 2`.
pub fn config(workload: Workload, mu: u64) -> SolverConfig {
    match workload {
        Workload::Small | Workload::Hard => SolverConfig::sequential(mu),
        Workload::Large | Workload::Serve => SolverConfig::parallel(mu, POOL_THREADS),
    }
}

/// Closed-loop driver threads: two on `small`, where per-solve work is
/// short enough that concurrent callers matter; one elsewhere.
fn drivers(workload: Workload) -> usize {
    if workload == Workload::Small {
        2
    } else {
        1
    }
}

/// Attempts, errors and answers collected by a run.
#[derive(Default)]
pub struct Tally {
    /// Solves or requests attempted.
    pub attempted: u64,
    /// Solves that returned an error or requests with no `ok` reply.
    pub errors: u64,
    /// Answers to certify.
    pub answers: Vec<Answer>,
    next_id: AtomicU64,
}

impl Tally {
    /// A fresh id for a solve or request.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.answers.extend(other.answers);
    }
}

/// A started runtime with one session per precision the inputs use.
pub struct Library<'a> {
    workload: Workload,
    inputs: &'a [Input],
    sessions: Vec<(u64, Session)>,
    _runtime: Runtime,
}

/// Latency samples of a timed closed loop.
pub struct Samples {
    /// Per-input solve latencies (ms).
    pub per_input: Vec<Vec<f64>>,
    /// Every latency (ms).
    pub all: Vec<f64>,
    /// Wall time from the start to the last completion.
    pub wall: Duration,
}

impl<'a> Library<'a> {
    /// Runs [`SETUP_REPS`] set-ups (runtime start through one untimed
    /// warm-up pass over every input) and keeps the last; returns it with
    /// each set-up's duration.
    pub fn setup(
        workload: Workload,
        inputs: &'a [Input],
        tally: &mut Tally,
    ) -> (Library<'a>, Vec<Duration>) {
        let mut times = Vec::new();
        let mut kept = None;
        for _ in 0..SETUP_REPS {
            drop(kept.take());
            let t = Instant::now();
            let lib = Library::start(workload, inputs);
            for i in 0..inputs.len() {
                lib.solve_once(i, tally);
            }
            times.push(t.elapsed());
            kept = Some(lib);
        }
        (kept.expect("at least one set-up"), times)
    }

    /// Starts a runtime and the sessions, without a warm-up.
    pub fn start(workload: Workload, inputs: &'a [Input]) -> Library<'a> {
        let runtime = Runtime::new(POOL_THREADS);
        let mut mus: Vec<u64> = inputs.iter().map(|i| i.mu).collect();
        mus.sort_unstable();
        mus.dedup();
        let sessions = mus
            .into_iter()
            .map(|mu| (mu, Session::with_runtime(config(workload, mu), &runtime)))
            .collect();
        Library {
            workload,
            inputs,
            sessions,
            _runtime: runtime,
        }
    }

    fn session(&self, input: usize) -> &Session {
        let mu = self.inputs[input].mu;
        &self
            .sessions
            .iter()
            .find(|(m, _)| *m == mu)
            .expect("a session per µ")
            .1
    }

    /// One untimed solve whose answer is kept for certification.
    fn solve_once(&self, input: usize, tally: &mut Tally) {
        tally.attempted += 1;
        match self.session(input).solve(&self.inputs[input].poly) {
            Ok(r) => tally
                .answers
                .push(Answer::from_result(tally.id(), input, &r)),
            Err(e) => {
                eprintln!("rrbench: {}: solve failed: {e}", self.inputs[input].name);
                tally.errors += 1;
            }
        }
    }

    /// The timed closed loop: the workload's driver threads share one
    /// session per precision and take inputs from seeded-shuffled passes
    /// until `span` has passed and at least one pass was handed out.
    pub fn closed_loop(&self, span: Duration, seed: u64, tally: &mut Tally) -> Samples {
        let n = self.inputs.len();
        let order = Mutex::new(PassOrder::new(n, derive(seed, 10)));
        let start = Instant::now();
        let end = start + span;
        let results: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..drivers(self.workload))
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Tally::default();
                        let mut lat = Vec::new();
                        let mut last = start;
                        loop {
                            let i = {
                                let mut order = order.lock().expect("pass order poisoned");
                                if order.handed_out >= n && Instant::now() >= end {
                                    break;
                                }
                                order.next()
                            };
                            local.attempted += 1;
                            let t0 = Instant::now();
                            let r = self.session(i).solve(&self.inputs[i].poly);
                            last = Instant::now();
                            match r {
                                Ok(r) => {
                                    lat.push((i, (last - t0).as_secs_f64() * 1e3));
                                    local.answers.push(Answer::from_result(tally.id(), i, &r));
                                }
                                Err(e) => {
                                    eprintln!(
                                        "rrbench: {}: solve failed: {e}",
                                        self.inputs[i].name
                                    );
                                    local.errors += 1;
                                }
                            }
                        }
                        (lat, local, last)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("driver thread panicked"))
                .collect()
        });
        let mut samples = Samples {
            per_input: vec![Vec::new(); n],
            all: Vec::new(),
            wall: span,
        };
        let mut last = start;
        for (lat, local, done) in results {
            for (i, ms) in lat {
                samples.per_input[i].push(ms);
                samples.all.push(ms);
            }
            tally.absorb(local);
            last = last.max(done);
        }
        samples.wall = last - start;
        samples
    }

    /// The traced phase pass: one driver alternates an untraced and a
    /// traced solve of each input (in alternating order) for at least
    /// one pass and until `span` has passed, and reports the `core`,
    /// `mp`, `sched` and `obs` metrics.
    pub fn traced_pass(
        &self,
        span: Duration,
        seed: u64,
        tally: &mut Tally,
        spans: &Spans,
        report: &mut Report,
    ) {
        let n = self.inputs.len();
        let mut acc = PhaseTotals::default();
        let mut untraced = vec![Vec::new(); n];
        let mut traced = vec![Vec::new(); n];
        let mut order = PassOrder::new(n, derive(seed, 11));
        let start = Instant::now();
        let mut pass = 0;
        while pass == 0 || start.elapsed() < span {
            for _ in 0..n {
                let i = order.next();
                for traced_now in [pass % 2 == 1, pass % 2 == 0] {
                    tally.attempted += 1;
                    let id = tally.id();
                    let p = &self.inputs[i].poly;
                    let (cpu0, t0) = (process_cpu_time(), Instant::now());
                    let out = if traced_now {
                        self.session(i)
                            .solve_traced(p)
                            .map(|(r, rep)| (r, Some(rep)))
                    } else {
                        self.session(i).solve(p).map(|r| (r, None))
                    };
                    let (t1, cpu1) = (Instant::now(), process_cpu_time());
                    let wall_ms = (t1 - t0).as_secs_f64() * 1e3;
                    let (r, rep) = match out {
                        Ok(x) => x,
                        Err(e) => {
                            eprintln!("rrbench: {}: solve failed: {e}", self.inputs[i].name);
                            tally.errors += 1;
                            continue;
                        }
                    };
                    tally.answers.push(Answer::from_result(id, i, &r));
                    let Some(rep) = rep else {
                        untraced[i].push(wall_ms);
                        spans.record("solve", &self.inputs[i].name, id, 0, t0, t1, vec![]);
                        continue;
                    };
                    traced[i].push(wall_ms);
                    let args = acc.add(&rep, cpu1 - cpu0, pass == 0);
                    spans.record("solve-traced", &self.inputs[i].name, id, 0, t0, t1, args);
                }
            }
            pass += 1;
        }
        acc.report(report);
        report.set(
            "obs.trace_overhead",
            geomean_of_medians(&traced) / geomean_of_medians(&untraced) - 1.0,
        );
    }
}

/// Sums over the traced solves of one pass.
#[derive(Default)]
struct PhaseTotals {
    solves: f64,
    self_ms: [f64; PHASES.len()],
    all_self_ms: f64,
    cpu_ms: f64,
    tasks: f64,
    parallelism: f64,
    work_share: f64,
    span_share: f64,
    busy_share: f64,
    empty_polls: f64,
    /// Exact counts of the first pass: mul_count, mul_bits, div_count ×
    /// remainder, treepoly, interval.
    counts: [[u64; 3]; 3],
    degraded: u64,
}

impl PhaseTotals {
    /// Adds one traced solve; returns its phase self times as span args.
    fn add(
        &mut self,
        rep: &rr_core::SolveReport,
        cpu: Duration,
        first_pass: bool,
    ) -> Vec<(String, f64)> {
        let wall = rep.wall.as_secs_f64().max(1e-12);
        self.solves += 1.0;
        self.cpu_ms += cpu.as_secs_f64() * 1e3;
        self.tasks += rep.total_tasks as f64;
        self.parallelism += rep.observed_parallelism;
        self.work_share += rep.total_work.as_secs_f64() / wall;
        self.span_share += rep.critical_path.as_secs_f64() / wall;
        if let Some(pool) = &rep.pool {
            self.busy_share += pool.utilization();
            self.empty_polls += pool.empty_polls as f64;
        }
        let mut args = vec![("wall_ms".to_string(), wall * 1e3)];
        for ph in &rep.phases {
            let ms = ph.self_time.as_secs_f64() * 1e3;
            self.all_self_ms += ms;
            if let Some(k) = PHASES.iter().position(|&p| p == ph.name) {
                self.self_ms[k] += ms;
            }
            args.push((format!("self_ms.{}", ph.name), ms));
            let group = match ph.name.as_str() {
                "remainder" => Some(0),
                "treepoly" => Some(1),
                name if INTERVAL_PHASES.contains(&name) => Some(2),
                _ => None,
            };
            if let (Some(g), true) = (group, first_pass) {
                self.counts[0][g] += ph.mul_count;
                self.counts[1][g] += ph.mul_bits;
                self.counts[2][g] += ph.div_count;
            }
        }
        if first_pass && rep.degraded.is_some() {
            self.degraded += 1;
        }
        args
    }

    fn report(&self, report: &mut Report) {
        let per_solve = |x: f64| x / self.solves.max(1.0);
        for (k, phase) in PHASES.iter().enumerate() {
            report.set(&format!("core.self_ms.{phase}"), per_solve(self.self_ms[k]));
        }
        let share = |phases: &[&str]| {
            let ms: f64 = phases
                .iter()
                .map(|p| self.self_ms[PHASES.iter().position(|q| q == p).expect("known phase")])
                .sum();
            ms / self.all_self_ms.max(1e-12)
        };
        report.set("core.coverage", self.all_self_ms / self.cpu_ms.max(1e-12));
        report.set("core.interval_share", share(&INTERVAL_PHASES));
        report.set("core.tree_share", share(&["remainder", "treepoly"]));
        report.set("core.degraded", self.degraded as f64);
        for (c, count) in ["mul_count", "mul_bits", "div_count"].iter().enumerate() {
            for (g, group) in ["remainder", "treepoly", "interval"].iter().enumerate() {
                report.set(&format!("mp.{count}.{group}"), self.counts[c][g] as f64);
            }
        }
        report.set("sched.tasks", per_solve(self.tasks));
        report.set("sched.parallelism", per_solve(self.parallelism));
        report.set("sched.work_share", per_solve(self.work_share));
        report.set("sched.span_share", per_solve(self.span_share));
        report.set("sched.busy_share", per_solve(self.busy_share));
        report.set("sched.empty_polls", per_solve(self.empty_polls));
    }
}

/// Times direct calls to `rr_poly::remainder::remainder_sequence` on
/// every input, for at least one pass and until `span` has passed;
/// returns the geometric mean of per-input medians (ms).
pub fn remainder_sequence_ms(
    inputs: &[Input],
    span: Duration,
    spans: &Spans,
    tally: &Tally,
) -> f64 {
    let mut per_input = vec![Vec::new(); inputs.len()];
    let start = Instant::now();
    while per_input[0].is_empty() || start.elapsed() < span {
        for (i, input) in inputs.iter().enumerate() {
            let t0 = Instant::now();
            // Inputs that are not normal or not real-rooted make the
            // sequence stop early with an error; that is the layer's
            // answer for them, and its cost is what is measured.
            let seq = rr_poly::remainder::remainder_sequence(&input.poly);
            let t1 = Instant::now();
            std::hint::black_box(seq.is_ok());
            per_input[i].push((t1 - t0).as_secs_f64() * 1e3);
            spans.record("layer", "remainder_sequence", tally.id(), 0, t0, t1, vec![]);
        }
    }
    geomean_of_medians(&per_input)
}

/// Seeded-shuffled passes over `n` inputs.
struct PassOrder {
    rng: SplitMix,
    order: Vec<usize>,
    pos: usize,
    handed_out: usize,
}

impl PassOrder {
    fn new(n: usize, seed: u64) -> PassOrder {
        PassOrder {
            rng: SplitMix::new(seed),
            order: (0..n).collect(),
            pos: n,
            handed_out: 0,
        }
    }

    fn next(&mut self) -> usize {
        if self.pos == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        self.handed_out += 1;
        self.order[self.pos - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_order_visits_every_input_once_per_pass() {
        let mut o = PassOrder::new(7, 3);
        for _ in 0..3 {
            let mut pass: Vec<usize> = (0..7).map(|_| o.next()).collect();
            pass.sort_unstable();
            assert_eq!(pass, (0..7).collect::<Vec<_>>());
        }
    }
}
