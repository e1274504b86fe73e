//! Sessions and the shared runtime: concurrent solves without shared
//! mutable state.
//!
//! The paper ran one solve at a time on a dedicated 20-processor
//! machine. A production service runs many at once, which requires the
//! three pieces of per-solve context that used to be process-global to
//! be owned explicitly:
//!
//! * **Profile** — which kernels a solve uses, carried by the solve's
//!   [`rr_mp::SolveCtx`] and inherited by every worker task (no
//!   process-wide selection to swap around each run).
//! * **Metrics** — each solve records into its own private sink, so
//!   per-phase counts (Figures 2–7) are exact even while other solves
//!   run concurrently; `stats.cost` needs no snapshot subtraction.
//! * **Workers** — a [`Runtime`] owns one persistent
//!   [`rr_sched::Pool`]; each solve opens an independent scope on it
//!   (own task ids, quiescence, trace, concurrency cap) instead of
//!   spinning up and tearing down threads per solve.
//!
//! [`Session`] binds a [`SolverConfig`] to a runtime and solves any
//! number of polynomials, sequentially or from concurrent threads;
//! [`solve_batch`] fans a whole workload out over the shared pool and
//! returns per-solve results in input order.
//!
//! ```
//! use rr_core::{solve_batch, Session, SolverConfig};
//! use rr_mp::Int;
//! use rr_poly::Poly;
//!
//! let p = Poly::from_roots(&[Int::from(1), Int::from(2), Int::from(3)]);
//! let session = Session::new(SolverConfig::sequential(8));
//! let r = session.solve(&p).unwrap();
//! assert_eq!(r.roots.iter().map(|d| d.to_f64()).collect::<Vec<_>>(),
//!            vec![1.0, 2.0, 3.0]);
//!
//! // A batch: independent solves, deterministic per-solve results.
//! let batch = solve_batch(&[p.clone(), p], SolverConfig::sequential(8));
//! assert_eq!(batch.len(), 2);
//! assert_eq!(batch[0].as_ref().unwrap().roots, batch[1].as_ref().unwrap().roots);
//! ```

use crate::report::SolveReport;
use crate::solver::{solve_with, RootsResult, SolveError, SolverConfig, Supervision};
use parking_lot::Mutex;
use rr_mp::metrics::CostSnapshot;
use rr_mp::SolveCtx;
use rr_poly::Poly;
use rr_sched::{CancelToken, FaultInjector, Pool};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Cooperative limits on one supervised solve: a wall-clock deadline, a
/// multiplication budget, an externally shared [`CancelToken`], or any
/// combination. Checked at task and phase boundaries; an exceeded limit
/// abandons the solve cleanly and returns
/// [`SolveError::Cancelled`] with partial accounting.
///
/// ```
/// use rr_core::{Session, SolveLimits, SolverConfig};
/// # use rr_mp::Int;
/// # use rr_poly::Poly;
/// # let p = Poly::from_roots(&[Int::from(1), Int::from(2)]);
/// let session = Session::new(SolverConfig::sequential(8));
/// let limits = SolveLimits::none().with_deadline(std::time::Duration::from_secs(30));
/// let r = session.solve_supervised(&p, &limits);
/// assert!(r.is_ok()); // tiny solve, generous deadline
/// ```
#[derive(Debug, Clone, Default)]
pub struct SolveLimits {
    deadline: Option<Duration>,
    deadline_at: Option<std::time::Instant>,
    max_muls: Option<u64>,
    token: Option<CancelToken>,
}

impl SolveLimits {
    /// No limits (supervision still applies if the session injects
    /// faults or the caller attaches a token later).
    pub fn none() -> SolveLimits {
        SolveLimits::default()
    }

    /// Abandon the solve once `deadline` of wall-clock time has passed.
    pub fn with_deadline(mut self, deadline: Duration) -> SolveLimits {
        self.deadline = Some(deadline);
        self
    }

    /// Abandon the solve at the *absolute* instant `at` — the form a
    /// service uses to propagate a caller's end-to-end deadline after
    /// subtracting queue wait (no time is lost between measuring the
    /// remainder and arming it). A deadline already in the past returns
    /// [`SolveError::Cancelled`] with a `Deadline` reason before any
    /// work runs. When both this and
    /// [`with_deadline`](SolveLimits::with_deadline) are set, whichever
    /// is armed first on the shared token wins (they share one slot).
    pub fn with_deadline_at(mut self, at: std::time::Instant) -> SolveLimits {
        self.deadline_at = Some(at);
        self
    }

    /// Abandon the solve once it has recorded more than `max_muls`
    /// multiprecision multiplications (the paper's cost measure).
    pub fn with_max_muls(mut self, max_muls: u64) -> SolveLimits {
        self.max_muls = Some(max_muls);
        self
    }

    /// Watch (and share) an external token: firing it — from any thread
    /// — cancels the solve at its next task or phase boundary.
    pub fn with_token(mut self, token: CancelToken) -> SolveLimits {
        self.token = Some(token);
        self
    }

    fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.deadline_at.is_none()
            && self.max_muls.is_none()
            && self.token.is_none()
    }
}

/// The `RR_TRACE` destination, read once per process. `None` (the
/// overwhelmingly common case) costs one branch per solve.
fn trace_env() -> Option<&'static str> {
    static TRACE: OnceLock<Option<String>> = OnceLock::new();
    TRACE
        .get_or_init(|| std::env::var("RR_TRACE").ok().filter(|s| !s.is_empty()))
        .as_deref()
}

/// A distinct output path per traced solve: the first solve writes
/// `base` itself, later ones insert a counter before the extension
/// (`trace.json`, `trace.1.json`, `trace.2.json`, …).
fn unique_trace_path(base: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let k = NEXT.fetch_add(1, Ordering::Relaxed);
    if k == 0 {
        return PathBuf::from(base);
    }
    let p = std::path::Path::new(base);
    match (p.file_stem(), p.extension()) {
        (Some(stem), Some(ext)) => p.with_file_name(format!(
            "{}.{k}.{}",
            stem.to_string_lossy(),
            ext.to_string_lossy()
        )),
        _ => PathBuf::from(format!("{base}.{k}")),
    }
}

/// A shared solve runtime: one persistent worker pool that any number of
/// concurrent sessions open scopes on. Cloning is cheap and shares the
/// pool.
#[derive(Clone)]
pub struct Runtime {
    pool: Arc<Pool>,
}

impl Runtime {
    /// A runtime with its own pool of `threads` workers.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Runtime {
        // A fully idle pool should not pin scratch buffers: register the
        // arena's per-thread release as a workers' idle hook (hooks are
        // deduplicated — repeats are free; the pool itself registers the
        // metrics-shard release the same way).
        rr_sched::set_worker_idle_hook(rr_mp::scratch::release_thread);
        Runtime {
            pool: Arc::new(Pool::new(threads)),
        }
    }

    /// The process-wide default runtime, created on first use with
    /// `RR_POOL_THREADS` workers (default: the host's available
    /// parallelism). Solves through the convenience APIs
    /// ([`Session::new`], [`solve_batch`], the legacy
    /// [`crate::RootApproximator`]) share this pool.
    pub fn global() -> &'static Runtime {
        static GLOBAL: OnceLock<Runtime> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let threads = std::env::var("RR_POOL_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(4, |n| n.get())
                });
            Runtime::new(threads)
        })
    }

    /// The underlying worker pool.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// Current number of pool workers (scopes with a larger cap grow it).
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// A merged snapshot of the always-on metrics registry
    /// ([`rr_obs::metrics`]): per-phase latency percentiles, scheduler
    /// telemetry, per-solve outcomes. The registry is process-global —
    /// every runtime (and session) sees the same fleet view.
    pub fn metrics(&self) -> rr_obs::metrics::MetricsSnapshot {
        rr_obs::metrics::snapshot()
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.pool.workers())
            .finish()
    }
}

/// Always-on fleet metrics for solves ([`rr_obs::metrics`]): per-solve
/// wall-time histogram plus outcome counters labelled outcome × profile.
mod metric_defs {
    use rr_mp::Profile;
    use rr_obs::metrics::{counter_with, Counter, Histogram};
    use std::sync::LazyLock;

    pub(super) static SOLVE_WALL: LazyLock<Histogram> = rr_obs::register_metric!(
        histogram,
        "rr_solve_wall_ns",
        "Per-solve wall time, successful solves (ns)"
    );

    /// The `rr_solves_total` series for one (profile, outcome) cell.
    /// Label values are static enumerations, so the family's
    /// cardinality is bounded (5 outcomes × 2 profiles).
    pub(super) fn outcome_counter(profile: Profile, outcome: &'static str) -> Counter {
        counter_with(
            "rr_solves_total",
            "Solve attempts by outcome and kernel profile",
            &[("outcome", outcome), ("profile", profile.name())],
        )
    }
}

/// A solve session: a [`SolverConfig`] bound to a [`Runtime`].
///
/// Each [`Session::solve`] call runs under a fresh [`rr_mp::SolveCtx`]
/// — its own kernel profile and metrics sink — on a fresh pool scope,
/// so sessions (and concurrent calls on one session) never share mutable
/// state. The session also accumulates the total cost of its solves.
pub struct Session {
    config: SolverConfig,
    runtime: Runtime,
    cumulative: Mutex<CostSnapshot>,
    fault: Option<FaultInjector>,
}

impl Session {
    /// A session on the [global runtime](Runtime::global).
    pub fn new(config: SolverConfig) -> Session {
        Session::with_runtime(config, Runtime::global())
    }

    /// A session on a specific runtime.
    pub fn with_runtime(config: SolverConfig, runtime: &Runtime) -> Session {
        Session {
            config,
            runtime: runtime.clone(),
            cumulative: Mutex::new(CostSnapshot::default()),
            fault: None,
        }
    }

    /// The same session with a deterministic [`FaultInjector`] wrapped
    /// around every pool task it spawns (chaos testing: injected panics
    /// surface as [`SolveError::TaskPanicked`], injected delays only
    /// perturb scheduling). Has no effect on sequential-mode solves,
    /// which spawn no tasks.
    pub fn with_fault_injection(mut self, injector: FaultInjector) -> Session {
        self.fault = Some(injector);
        self
    }

    /// The session's configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// The runtime this session solves on.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Approximates all distinct roots of `p` (all roots must be real)
    /// under this session's configuration. See
    /// [`crate::RootApproximator::approximate_roots`] for the algorithm.
    ///
    /// Safe to call from multiple threads at once: each call owns its
    /// context, pool scope, and `stats.cost`.
    ///
    /// If `RR_TRACE=<path>` is set in the environment (read once per
    /// process), every solve is traced and its Chrome trace is written
    /// to `<path>` (subsequent solves get `<path>.1`, `<path>.2`, …).
    /// With the variable unset this check is a single branch and the
    /// solve is untraced — results and metrics are bit-identical either
    /// way; tracing only observes.
    pub fn solve(&self, p: &Poly) -> Result<RootsResult, SolveError> {
        if let Some(base) = trace_env() {
            let (result, report) = self.solve_traced(p)?;
            let path = unique_trace_path(base);
            if let Err(e) = report.write_chrome(&path) {
                eprintln!("rr-core: failed to write RR_TRACE file {}: {e}", path.display());
            }
            return Ok(result);
        }
        self.solve_supervised(p, &SolveLimits::none())
    }

    /// [`solve`](Session::solve) with a wall-clock deadline: past
    /// `deadline`, the solve is abandoned at its next task or phase
    /// boundary and returns [`SolveError::Cancelled`] carrying the work
    /// done so far. The session and its pool remain fully usable.
    pub fn solve_with_deadline(
        &self,
        p: &Poly,
        deadline: Duration,
    ) -> Result<RootsResult, SolveError> {
        self.solve_supervised(p, &SolveLimits::none().with_deadline(deadline))
    }

    /// [`solve`](Session::solve) under explicit [`SolveLimits`]
    /// (deadline, multiplication budget, shared cancel token).
    ///
    /// Does not consult `RR_TRACE`: supervised solves are untraced
    /// unless run through [`solve_traced`](Session::solve_traced).
    pub fn solve_supervised(
        &self,
        p: &Poly,
        limits: &SolveLimits,
    ) -> Result<RootsResult, SolveError> {
        let (ctx, sup) = self.ctx_and_supervision(limits);
        let result = ctx.run(|| solve_with(&self.config, &ctx, self.runtime.pool(), p, sup.as_ref()));
        if let Ok(r) = &result {
            *self.cumulative.lock() += r.stats.cost;
        }
        self.record_solve_metrics(result.as_ref());
        result
    }

    /// Feeds the always-on registry after a solve attempt: one outcome
    /// counter tick (labeled by this session's profile) and,
    /// on success, the per-solve wall-time histogram. Observational
    /// only — never touches `stats.cost` or the result.
    fn record_solve_metrics(&self, result: Result<&RootsResult, &SolveError>) {
        if !rr_obs::metrics::enabled() {
            return;
        }
        let outcome = match result {
            Ok(r) if r.degraded.is_some() => "degraded",
            Ok(_) => "ok",
            Err(SolveError::Cancelled { .. }) => "cancelled",
            Err(SolveError::TaskPanicked { .. }) => "panicked",
            Err(_) => "failed",
        };
        metric_defs::outcome_counter(self.config.profile, outcome).inc();
        if let Ok(r) = result {
            metric_defs::SOLVE_WALL.record_duration(r.stats.wall);
        }
    }

    /// The per-solve context plus, when any limit is set or the session
    /// injects faults, the supervision bundle sharing the same sink.
    fn ctx_and_supervision(&self, limits: &SolveLimits) -> (SolveCtx, Option<Supervision>) {
        let ctx = SolveCtx::new(self.config.profile);
        if limits.is_unlimited() && self.fault.is_none() {
            return (ctx, None);
        }
        let token = limits.token.clone().unwrap_or_default();
        if let Some(at) = limits.deadline_at {
            token.arm_deadline_at(at);
        }
        if let Some(deadline) = limits.deadline {
            token.arm_deadline(deadline);
        }
        let ctx = ctx.with_cancel(token.clone());
        let sup = Supervision {
            token,
            max_muls: limits.max_muls,
            ctx: ctx.clone(),
            fault: self.fault.clone(),
        };
        (ctx, Some(sup))
    }

    /// [`solve`](Session::solve) with tracing: carries an
    /// [`rr_obs::Recorder`] through every thread that works on the
    /// solve and returns the fused [`SolveReport`] (per-phase wall time
    /// and operation counts, per-task scheduler records, observed
    /// parallelism, Chrome-trace export) alongside the result.
    ///
    /// Roots, `n_star`, and `stats.cost` are identical to an untraced
    /// solve: tracing only observes.
    pub fn solve_traced(&self, p: &Poly) -> Result<(RootsResult, SolveReport), SolveError> {
        let recorder = rr_obs::Recorder::new();
        let (ctx, sup) = self.ctx_and_supervision(&SolveLimits::none());
        let ctx = ctx.with_recorder(recorder.clone());
        let result =
            ctx.run(|| solve_with(&self.config, &ctx, self.runtime.pool(), p, sup.as_ref()))?;
        *self.cumulative.lock() += result.stats.cost;
        self.record_solve_metrics(Ok(&result));
        let report = crate::report::build_report(&result, &recorder);
        Ok((result, report))
    }

    /// Total cost of every successful [`solve`](Session::solve) so far.
    pub fn cumulative_cost(&self) -> CostSnapshot {
        *self.cumulative.lock()
    }

    /// See [`Runtime::metrics`]; the registry is process-global, so a
    /// session's snapshot covers every session's solves.
    pub fn metrics(&self) -> rr_obs::metrics::MetricsSnapshot {
        rr_obs::metrics::snapshot()
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("config", &self.config)
            .field("runtime", &self.runtime)
            .finish()
    }
}

/// Solves every input concurrently over the [global
/// runtime](Runtime::global)'s pool, returning per-solve results in
/// input order.
pub fn solve_batch(inputs: &[Poly], config: SolverConfig) -> Vec<Result<RootsResult, SolveError>> {
    solve_batch_on(Runtime::global(), inputs, config)
}

/// [`solve_batch`] on a specific runtime.
///
/// Each input is an independent solve with its own context, metrics, and
/// pool scope; driver threads (bounded by the pool size) pull inputs
/// from a shared cursor. Results are deterministic per input — batching
/// changes scheduling, never roots, `n_star`, or per-solve counts.
pub fn solve_batch_on(
    runtime: &Runtime,
    inputs: &[Poly],
    config: SolverConfig,
) -> Vec<Result<RootsResult, SolveError>> {
    let session = Session::with_runtime(config, runtime);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<RootsResult, SolveError>>>> =
        inputs.iter().map(|_| Mutex::new(None)).collect();
    let drivers = inputs.len().min(runtime.workers().max(1));
    std::thread::scope(|ts| {
        for _ in 0..drivers {
            ts.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(p) = inputs.get(i) else { return };
                *slots[i].lock() = Some(session.solve(p));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner().unwrap_or_else(|| {
                Err(SolveError::Internal("batch driver skipped an input".into()))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_mp::metrics::Phase;
    use rr_mp::{Int, Profile};

    fn wilkinson(n: i64) -> Poly {
        Poly::from_roots(&(1..=n).map(Int::from).collect::<Vec<_>>())
    }

    #[test]
    fn session_solve_matches_legacy_api() {
        let p = wilkinson(10);
        let cfg = SolverConfig::sequential(8);
        let legacy = crate::RootApproximator::new(cfg).approximate_roots(&p).unwrap();
        let session = Session::new(cfg).solve(&p).unwrap();
        assert_eq!(legacy.roots, session.roots);
        assert_eq!(legacy.n_star, session.n_star);
    }

    #[test]
    fn per_solve_cost_is_exact_not_cumulative() {
        let session = Session::new(SolverConfig::sequential(6));
        let r1 = session.solve(&wilkinson(8)).unwrap();
        let r2 = session.solve(&wilkinson(8)).unwrap();
        // Fresh context per solve: identical solves report identical
        // per-solve cost, and the session accumulates both.
        assert_eq!(r1.stats.cost, r2.stats.cost);
        assert!(r1.stats.muls(Phase::RemainderSeq) > 0);
        assert_eq!(
            session.cumulative_cost().total().mul_count,
            2 * r1.stats.cost.total().mul_count
        );
    }

    #[test]
    fn session_solves_leave_enclosing_context_untouched() {
        // A context installed on the calling thread is the only other
        // place a solve's events could land; the solve's own stats must
        // hold all of them.
        let (cfg, p) = (SolverConfig::parallel(6, 2), wilkinson(9));
        let alone = Session::new(cfg).solve(&p).unwrap();
        let outer = rr_mp::SolveCtx::new(Profile::Paper);
        let r = outer.run(|| Session::new(cfg).solve(&p).unwrap());
        assert_eq!(outer.snapshot(), rr_mp::metrics::CostSnapshot::default());
        assert_eq!(outer.exec(), rr_mp::ExecSnapshot::default());
        assert_eq!(r.stats.cost, alone.stats.cost);
        assert!(r.stats.muls(Phase::RemainderSeq) > 0);
        assert!(r.stats.muls(Phase::TreePoly) > 0);
    }

    #[test]
    fn batch_matches_isolated_solves() {
        let inputs: Vec<Poly> = (6..=10).map(wilkinson).collect();
        let cfg = SolverConfig::parallel(6, 2);
        let batch = solve_batch(&inputs, cfg);
        for (p, got) in inputs.iter().zip(&batch) {
            let got = got.as_ref().unwrap();
            let alone = Session::new(cfg).solve(p).unwrap();
            assert_eq!(got.roots, alone.roots);
            assert_eq!(got.n_star, alone.n_star);
            assert_eq!(got.stats.cost, alone.stats.cost);
        }
    }

    #[test]
    fn batch_propagates_per_input_errors() {
        let good = wilkinson(5);
        let bad = Poly::from_i64(&[1, 0, 1]); // complex roots
        let results =
            solve_batch(&[good, bad], SolverConfig::sequential(4).with_degradation(false));
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(SolveError::Seq(_))));
    }

    #[test]
    fn batch_degrades_complex_input_by_default() {
        let results = solve_batch(
            &[&Poly::from_i64(&[1, 0, 1]) * &Poly::from_i64(&[-2, -1, 1])],
            SolverConfig::sequential(4),
        );
        let r = results[0].as_ref().unwrap();
        assert_eq!(r.degraded, Some(crate::solver::Degradation::SturmBaseline));
        assert_eq!(r.roots.len(), 2); // real roots −1 and 2 of (x−2)(x+1)
    }

    #[test]
    fn sessions_with_different_profiles_coexist() {
        let p = wilkinson(9);
        let paper = Session::new(SolverConfig::sequential(6).with_profile(Profile::Paper));
        let fast = Session::new(SolverConfig::sequential(6).with_profile(Profile::Fast));
        let a = paper.solve(&p).unwrap();
        let b = fast.solve(&p).unwrap();
        assert_eq!(a.roots, b.roots);
        assert_eq!(a.stats.cost, b.stats.cost); // metrics profile-invariant
    }

    #[test]
    fn private_runtime_is_isolated() {
        let rt = Runtime::new(2);
        let session = Session::with_runtime(SolverConfig::parallel(6, 2), &rt);
        let r = session.solve(&wilkinson(10)).unwrap();
        assert_eq!(r.stats.pool.as_ref().unwrap().workers, 2);
        assert!(rt.workers() >= 2);
    }
}
