//! Public entry point: configuration, the [`RootApproximator`], and
//! per-run statistics.

use crate::dyadic::Dyadic;
use crate::interval::Inconsistency;
pub use crate::par_solver::Grain;
pub use crate::refine::RefineStrategy;
use rr_mp::metrics::{self, CostSnapshot, Phase};
use rr_mp::{PhaseTimes, Profile, SolveCtx};
use rr_poly::bounds::root_bound_bits;
use rr_poly::remainder::{remainder_sequence, RemainderSeq, SeqError};
use rr_poly::Poly;
use rr_sched::{
    AbortKind, CancelReason, CancelToken, FaultInjector, Pool, PoolStats, ScopeAbort, TaskTrace,
    TaskWrapper,
};
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How the solver executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Single thread: the static level rounds run inline on the calling
    /// thread (the reference).
    Sequential,
    /// The paper's dynamic task-queue scheduling on `threads` workers.
    Dynamic {
        /// Number of worker threads.
        threads: usize,
    },
    /// The static level-by-level ablation on `threads` workers: the same
    /// rounds as `Sequential`, each dealt round-robin to the workers with
    /// a barrier between rounds.
    Static {
        /// Number of worker threads.
        threads: usize,
    },
}

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Output precision: roots are returned as `⌈2^µ·x⌉ / 2^µ`.
    pub mu: u64,
    /// Execution mode.
    pub mode: ExecMode,
    /// Run the remainder stage sequentially even in parallel modes (the
    /// paper's run-time option).
    pub seq_remainder: bool,
    /// Refinement strategy for isolated roots.
    pub refine: RefineStrategy,
    /// Task granularity of the tree stage's matrix products (dynamic
    /// mode only).
    pub grain: Grain,
    /// Kernel profile for this solve, carried by the solve's session
    /// context and inherited by its worker tasks: `Paper` (the quadratic
    /// kernels the paper timed) or `Fast` (every size-dispatched kernel,
    /// including fork-join splitting of large products on this solve's
    /// pool scope). Roots and every paper cost-model table are
    /// bit-identical across profiles (asserted by `tests/backend_diff.rs`);
    /// only wall-clock and the execution counters ([`SolveStats::exec`])
    /// change. Defaults to the `RR_PROFILE`
    /// environment selection (`paper` unless set).
    pub profile: Profile,
    /// Graceful degradation (on by default): when the extended remainder
    /// sequence rejects the input (`NotNormal` / `NotRealRooted`), retry
    /// on its squarefree part and, failing that, fall back to the
    /// Sturm-bisection baseline — returning roots tagged with a
    /// [`Degradation`] marker instead of an error. Disable for strict
    /// paper-faithful behaviour.
    pub degrade: bool,
}

/// The `RR_PROFILE` selection (`paper` or `fast`; unset means `paper`),
/// read once per process.
///
/// # Panics
/// Panics on first read if `RR_PROFILE` names anything else, so a
/// mistyped selection never silently runs the wrong kernels.
fn env_profile() -> Profile {
    static PROFILE: OnceLock<Profile> = OnceLock::new();
    *PROFILE.get_or_init(|| match std::env::var("RR_PROFILE") {
        Ok(name) => Profile::parse(&name).unwrap_or_else(|e| panic!("RR_PROFILE: {e}")),
        Err(_) => Profile::Paper,
    })
}

impl SolverConfig {
    /// Sequential solve at precision `mu`.
    pub fn sequential(mu: u64) -> SolverConfig {
        SolverConfig {
            mu,
            mode: ExecMode::Sequential,
            seq_remainder: true,
            refine: RefineStrategy::Hybrid,
            grain: Grain::Entry,
            profile: env_profile(),
            degrade: true,
        }
    }

    /// Dynamic-parallel solve at precision `mu` on `threads` workers.
    pub fn parallel(mu: u64, threads: usize) -> SolverConfig {
        SolverConfig {
            mu,
            mode: if threads <= 1 {
                ExecMode::Sequential
            } else {
                ExecMode::Dynamic { threads }
            },
            seq_remainder: false,
            refine: RefineStrategy::Hybrid,
            grain: Grain::Entry,
            profile: env_profile(),
            degrade: true,
        }
    }

    /// The same configuration with the given kernel profile (see
    /// [`SolverConfig::profile`]).
    pub fn with_profile(mut self, profile: Profile) -> SolverConfig {
        self.profile = profile;
        self
    }

    /// The same configuration with graceful degradation switched on or
    /// off (see [`SolverConfig::degrade`]).
    pub fn with_degradation(mut self, degrade: bool) -> SolverConfig {
        self.degrade = degrade;
        self
    }
}

/// What a cancelled solve had done before it was abandoned: enough to
/// account for the work (and, in dynamic mode, to see the pool scope was
/// drained cleanly) without pretending the solve produced roots.
#[derive(Debug, Clone, Default)]
pub struct PartialStats {
    /// Wall-clock time until the cancellation was honoured.
    pub wall: Duration,
    /// Multiprecision operation counts accumulated before abandonment.
    pub cost: CostSnapshot,
    /// Statistics of the aborted pool scope, if the solve was inside one
    /// (its `cancelled_tasks` counts the queued tasks that were drained
    /// unexecuted).
    pub pool: Option<PoolStats>,
}

/// Why a solve failed.
#[derive(Debug)]
pub enum SolveError {
    /// Building the remainder sequence failed — most commonly because the
    /// input polynomial does not have all roots real.
    Seq(SeqError),
    /// The interval stage detected an inconsistency.
    Interval(Inconsistency),
    /// The solve was abandoned cooperatively: its deadline passed, its
    /// multiplication budget ran out, or its [`CancelToken`] was fired
    /// explicitly. The pool scope (if any) was drained cleanly and the
    /// session remains usable.
    Cancelled {
        /// Why the solve was cancelled.
        reason: CancelReason,
        /// Work accounted up to the abandonment point.
        partial_stats: Box<PartialStats>,
    },
    /// A worker task panicked. The panic was contained to the solve's
    /// scope — the payload is rendered here instead of unwinding through
    /// the caller — and the shared pool remains usable.
    TaskPanicked {
        /// Scope-local id (spawn order) of the panicking task.
        task_id: u64,
        /// Rendered panic payload (`&str` / `String` payloads verbatim).
        message: String,
    },
    /// An internal invariant failed; never expected, but reported as a
    /// typed error instead of a panic on the solve path.
    Internal(String),
}

impl SolveError {
    /// Stable machine-readable code for this error — the wire taxonomy
    /// shared by `rr-serve` responses and
    /// [`Session::solve_supervised`](crate::Session::solve_supervised)
    /// callers, so callers branch on a
    /// fixed string instead of parsing `Display` output. The full set:
    ///
    /// | code | meaning |
    /// |------|---------|
    /// | `rejected-input`  | the remainder sequence rejected the input (not normal / not all-real-rooted) |
    /// | `inconsistent`    | the interval stage detected an inconsistency |
    /// | `deadline`        | cancelled: wall-clock deadline expired |
    /// | `budget`          | cancelled: multiplication budget exhausted |
    /// | `cancelled`       | cancelled: explicit request (operator abort, client disconnect, shed) |
    /// | `task-panicked`   | a worker task panicked (contained; transient) |
    /// | `internal`        | internal invariant failure (transient) |
    ///
    /// These strings are a wire contract: changing one is a breaking
    /// protocol change.
    pub fn code(&self) -> &'static str {
        match self {
            SolveError::Seq(_) => "rejected-input",
            SolveError::Interval(_) => "inconsistent",
            SolveError::Cancelled { reason, .. } => match reason {
                CancelReason::Deadline { .. } => "deadline",
                CancelReason::Budget { .. } => "budget",
                CancelReason::Requested { .. } => "cancelled",
            },
            SolveError::TaskPanicked { .. } => "task-panicked",
            SolveError::Internal(_) => "internal",
        }
    }

    /// Whether a retry of the same input may succeed: true for contained
    /// task panics and internal invariant failures (scheduling races,
    /// injected chaos), false for errors the input or the caller's own
    /// limits caused. This is the server-side retry predicate.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SolveError::TaskPanicked { .. } | SolveError::Internal(_)
        )
    }

    /// The partial accounting of a cancelled solve, if this error
    /// carries one.
    pub fn partial_stats(&self) -> Option<&PartialStats> {
        match self {
            SolveError::Cancelled { partial_stats, .. } => Some(partial_stats),
            _ => None,
        }
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Seq(e) => write!(f, "{e}"),
            SolveError::Interval(e) => write!(f, "{e}"),
            SolveError::Cancelled { reason, partial_stats } => {
                write!(f, "solve cancelled ({reason}) after {:.2?}", partial_stats.wall)
            }
            SolveError::TaskPanicked { task_id, message } => {
                write!(f, "worker task {task_id} panicked: {message}")
            }
            SolveError::Internal(what) => write!(f, "internal solver error: {what}"),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<SeqError> for SolveError {
    fn from(e: SeqError) -> SolveError {
        SolveError::Seq(e)
    }
}

impl From<Inconsistency> for SolveError {
    fn from(e: Inconsistency) -> SolveError {
        SolveError::Interval(e)
    }
}

/// How a degraded solve recovered (see [`SolverConfig::degrade`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Degradation {
    /// The solve ran on the squarefree part of the input instead of the
    /// input itself — either because the remainder sequence terminated
    /// early at `gcd(F_0, F_0')` (repeated roots, Sec 2.3) or as the
    /// first recovery step after a `NotNormal`/`NotRealRooted` rejection.
    SquarefreeRetry,
    /// The extended remainder sequence rejected the input even after the
    /// squarefree retry; roots come from the Sturm-bisection baseline
    /// (`rr-baseline`). Only the real roots are returned; the paper's
    /// parallel pipeline and its pool statistics do not apply.
    SturmBaseline,
}

impl Degradation {
    /// Stable machine-readable code (the `degraded` field of the wire
    /// taxonomy — see [`SolveError::code`]): `"squarefree-retry"` or
    /// `"sturm-baseline"`.
    pub fn code(&self) -> &'static str {
        match self {
            Degradation::SquarefreeRetry => "squarefree-retry",
            Degradation::SturmBaseline => "sturm-baseline",
        }
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Statistics from one solve.
#[derive(Debug, Clone)]
pub struct SolveStats {
    /// Total wall-clock time.
    pub wall: Duration,
    /// Wall-clock time of the remainder (precomputation) stage.
    pub remainder_wall: Duration,
    /// Wall-clock time of the tree + interval stage.
    pub tree_wall: Duration,
    /// Per-phase multiprecision operation counts for this solve, read
    /// from the solve's private session sink — exact even while other
    /// solves run concurrently in the process.
    pub cost: CostSnapshot,
    /// Pool statistics (dynamic mode only).
    pub pool: Option<PoolStats>,
    /// Recorded task traces of the dynamic pool runs (remainder stage
    /// first when it ran in parallel, then the tree stage). Empty outside
    /// dynamic mode. Input to the trace-driven speedup simulation.
    pub traces: Vec<TaskTrace>,
    /// The root bound `R` used (all roots in `(−2^R, 2^R)`).
    pub bound_bits: u64,
    /// Physical execution counters of this solve, per phase and
    /// [`rr_mp::Exec`] label, from the solve's private sink: Kronecker
    /// products, Newton and 2-adic divisions and fork-join splits (all
    /// zero under [`Profile::Paper`]), and the scratch arenas' cold
    /// misses (which vary with how warm each worker's arena is).
    /// Deliberately *outside* [`SolveStats::cost`], whose equality
    /// across profiles is the model-invariance guarantee.
    pub exec: rr_mp::ExecSnapshot,
    /// Wall-clock self time and region count per phase, charged by
    /// every `with_phase` region of this solve on any thread (traced or
    /// not). Like `exec`, kept outside [`SolveStats::cost`]: times vary
    /// run to run. [`crate::SolveReport::phases`] is built from it.
    pub phase_time: PhaseTimes,
}

impl SolveStats {
    /// Multiplications recorded in a given phase.
    pub fn muls(&self, phase: Phase) -> u64 {
        self.cost.phase(phase).mul_count
    }

    /// Trace-driven simulated speedups on `procs` virtual processors:
    /// the recorded task graphs (one per pool run, replayed back to back)
    /// list-scheduled by `rr_sched::sim`. This is how the paper's
    /// Tables 3–7 are reproduced on hosts with fewer cores than the
    /// Sequent Symmetry — see DESIGN.md's substitution table.
    pub fn simulate_speedups(&self, procs: &[usize]) -> Vec<(usize, f64)> {
        let makespan = |p: usize| -> f64 {
            self.traces
                .iter()
                .map(|t| rr_sched::sim::simulate_makespan(t, p).as_secs_f64())
                .sum()
        };
        let t1 = makespan(1);
        procs.iter().map(|&p| (p, t1 / makespan(p).max(1e-12))).collect()
    }
}

/// The result of a solve: the distinct real roots in ascending order,
/// each a correctly-rounded (ceiling) `µ`-approximation.
#[derive(Debug, Clone)]
pub struct RootsResult {
    /// `⌈2^µ·x⌉ / 2^µ` for each distinct root `x`, ascending.
    pub roots: Vec<Dyadic>,
    /// Degree of the input.
    pub n: usize,
    /// Number of distinct roots (`< n` iff the input had repeated roots).
    pub n_star: usize,
    /// `Some` when the solve did not run the paper's pipeline on the
    /// literal input: it retried on the squarefree part and/or fell back
    /// to the Sturm-bisection baseline. `None` for a fully native solve.
    pub degraded: Option<Degradation>,
    /// Run statistics.
    pub stats: SolveStats,
}

/// The solver. Construct with a [`SolverConfig`], then call
/// [`RootApproximator::approximate_roots`].
///
/// See the crate docs for the algorithm and an example.
#[derive(Debug, Clone)]
pub struct RootApproximator {
    config: SolverConfig,
}

impl RootApproximator {
    /// Creates a solver with the given configuration.
    pub fn new(config: SolverConfig) -> RootApproximator {
        RootApproximator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Approximates all distinct roots of `p` (all roots must be real).
    ///
    /// Repeated roots are supported: the remainder stage detects them (the
    /// sequence terminates early at `gcd(F_0, F_0')`, Sec 2.3), after which
    /// the tree stage runs on the squarefree part — same distinct roots,
    /// all simple. (The literal Sec 2.3 extension keeps `F_{i−1}` — with
    /// its repeated roots — as the spine polynomials, which breaks the
    /// sign-parity root counting of Sec 2.2; dividing out the gcd the
    /// sequence already produced is the equivalent fix, and is documented
    /// as such in DESIGN.md.)
    pub fn approximate_roots(&self, p: &Poly) -> Result<RootsResult, SolveError> {
        // Legacy single-solve entry point: one throwaway session on the
        // shared global runtime. The config's profile travels with the
        // session context instead of a process-wide swap, so interleaved
        // solvers with different configs no longer corrupt each other.
        crate::session::Session::new(self.config).solve(p)
    }
}

/// Everything a supervised solve watches: the shared [`CancelToken`]
/// (deadline armed, explicit requests), an optional multiplication
/// budget probed against the solve's private metrics sink, and an
/// optional deterministic fault injector for chaos testing.
#[derive(Clone)]
pub(crate) struct Supervision {
    pub(crate) token: CancelToken,
    pub(crate) max_muls: Option<u64>,
    /// A clone of the solve's context — shares the sink, so
    /// [`SolveCtx::snapshot`] sees work from every worker.
    pub(crate) ctx: SolveCtx,
    pub(crate) fault: Option<FaultInjector>,
}

impl Supervision {
    /// Fires the token if the multiplication budget is exhausted, then
    /// reports whether the solve is (now) cancelled. Called at task and
    /// phase boundaries.
    pub(crate) fn probe(&self) -> bool {
        if let Some(limit) = self.max_muls {
            if !self.token.is_cancelled() && self.ctx.snapshot().total().mul_count > limit {
                self.token.cancel(CancelReason::Budget { limit_muls: limit });
            }
        }
        self.token.is_cancelled()
    }
}

/// A per-task hook installing `ctx` on the executing worker, so pool
/// tasks inherit the solve's profile and record into its sink. Under
/// supervision the hook also composes the fault injector (inside the
/// context, so injected panics look like real task panics) and probes
/// the multiplication budget after every task.
fn ctx_wrapper(ctx: &SolveCtx, sup: Option<&Supervision>) -> TaskWrapper {
    let ctx = ctx.clone();
    let mut wrapper: TaskWrapper = Arc::new(move |task| ctx.run(task));
    if let Some(sup) = sup {
        if let Some(injector) = &sup.fault {
            wrapper = injector.wrap(wrapper);
        }
        if sup.max_muls.is_some() {
            let sup = sup.clone();
            let inner = wrapper;
            wrapper = Arc::new(move |task| {
                inner(task);
                sup.probe();
            });
        }
    }
    wrapper
}

/// Maps an aborted pool scope to the matching [`SolveError`]. Panic
/// outranks cancellation (the scope already encodes that priority); the
/// partial stats carry the aborted scope's counters, with wall/cost
/// filled in by [`solve_with`]'s exit path.
pub(crate) fn abort_to_solve_error(abort: ScopeAbort) -> SolveError {
    match abort.kind {
        AbortKind::Panicked { task_id, message, .. } => {
            SolveError::TaskPanicked { task_id, message }
        }
        AbortKind::Cancelled { reason } => SolveError::Cancelled {
            reason,
            partial_stats: Box::new(PartialStats {
                wall: Duration::ZERO,
                cost: CostSnapshot::default(),
                pool: Some(abort.stats),
            }),
        },
    }
}

/// Returns `Err(SolveError::Cancelled)` if the supervised solve has been
/// cancelled (probing the budget first). Called between phases, where no
/// pool scope is watching the token, and at the start of every node job
/// of the level rounds ([`crate::rounds`]).
pub(crate) fn checkpoint(sup: Option<&Supervision>) -> Result<(), SolveError> {
    if let Some(sup) = sup {
        if sup.probe() {
            let reason = sup
                .token
                .reason()
                .unwrap_or(CancelReason::Requested { why: "cancelled".into() });
            return Err(SolveError::Cancelled { reason, partial_stats: Box::default() });
        }
    }
    Ok(())
}

/// One full solve under an installed session context, on `pool`.
///
/// The caller ([`crate::Session::solve`]) creates `ctx` fresh for this
/// solve (so its phase times are the solve's) and installs it on this
/// thread for the sequential parts; the parallel stages open scopes on `pool`
/// whose tasks re-install it via [`ctx_wrapper`]. When `sup` is given,
/// the solve is supervised: the token is checked at phase and task
/// boundaries, the budget is probed, faults are injected, and any error
/// that races with a fired token is reported as `Cancelled` with the
/// partial accounting filled in.
pub(crate) fn solve_with(
    cfg: &SolverConfig,
    ctx: &SolveCtx,
    pool: &Arc<Pool>,
    p: &Poly,
    sup: Option<&Supervision>,
) -> Result<RootsResult, SolveError> {
    let cost0 = ctx.snapshot();
    let t0 = Instant::now();
    let result = solve_inner(cfg, ctx, pool, p, sup, cost0, t0);
    match result {
        Err(e) => Err(finish_error(e, ctx, sup, cost0, t0)),
        ok => ok,
    }
}

/// Exit path for failed solves: fills in the wall/cost fields of a
/// `Cancelled` error's partial stats, converts errors that raced with a
/// fired token into `Cancelled` (panic outranks cancellation and is kept
/// as-is), and tags the trace with a `cancel` event.
fn finish_error(
    e: SolveError,
    ctx: &SolveCtx,
    sup: Option<&Supervision>,
    cost0: CostSnapshot,
    t0: Instant,
) -> SolveError {
    let enrich = |mut partial: Box<PartialStats>| {
        partial.wall = t0.elapsed();
        partial.cost = ctx.snapshot() - cost0;
        partial
    };
    match e {
        SolveError::Cancelled { reason, partial_stats } => {
            rr_obs::event("cancel", format!("cancelled: {reason}"));
            SolveError::Cancelled { reason, partial_stats: enrich(partial_stats) }
        }
        e @ SolveError::TaskPanicked { .. } => e,
        other => match sup.and_then(|s| s.token.reason()) {
            Some(reason) => {
                rr_obs::event("cancel", format!("cancelled: {reason}"));
                SolveError::Cancelled { reason, partial_stats: enrich(Box::default()) }
            }
            None => other,
        },
    }
}

fn solve_inner(
    cfg: &SolverConfig,
    ctx: &SolveCtx,
    pool: &Arc<Pool>,
    p: &Poly,
    sup: Option<&Supervision>,
    cost0: CostSnapshot,
    t0: Instant,
) -> Result<RootsResult, SolveError> {
    checkpoint(sup)?;
    // Stage spans bracket the two pipeline halves on the solve's trace
    // (inert single-branch guards when the solve is untraced).
    let solve_span =
        rr_obs::stage_span("solve").with_arg("n", p.degree().unwrap_or(0) as u64);

    // Stage 1: remainder/quotient sequences (+ squarefree reduction when
    // the input had repeated roots). On NotNormal/NotRealRooted the
    // degradation ladder kicks in (unless cfg.degrade is off): retry on
    // the gcd-computed squarefree part, then fall back to the baseline.
    let rem_span = rr_obs::stage_span("remainder-stage");
    let mut traces = Vec::new();
    let mut degraded = None;
    let (rs, work_poly, n, n_star) = match remainder_stage(cfg, ctx, pool, p, &mut traces, sup) {
        Ok(rs0) => {
            let (n, n_star) = (rs0.n, rs0.n_star);
            if rs0.squarefree() {
                (rs0, p.clone(), n, n_star)
            } else {
                degraded = Some(Degradation::SquarefreeRetry);
                let p_star = metrics::with_phase(Phase::RemainderSeq, || rs0.squarefree_input());
                let rs_star = remainder_stage(cfg, ctx, pool, &p_star, &mut traces, sup)?;
                debug_assert!(rs_star.squarefree());
                (rs_star, p_star, n, n_star)
            }
        }
        Err(SolveError::Seq(e))
            if cfg.degrade
                && matches!(e, SeqError::NotNormal { .. } | SeqError::NotRealRooted { .. }) =>
        {
            rr_obs::event("degrade", format!("remainder-stage rejected input: {e}"));
            checkpoint(sup)?;
            let p_star = metrics::with_phase(Phase::RemainderSeq, || {
                rr_poly::gcd::squarefree_part(p)
            });
            let retried = if p_star.degree() < p.degree() {
                remainder_stage(cfg, ctx, pool, &p_star, &mut traces, sup)
            } else {
                Err(SolveError::Seq(e))
            };
            match retried {
                Ok(rs_star) if rs_star.squarefree() => {
                    degraded = Some(Degradation::SquarefreeRetry);
                    let n = p.degree().unwrap_or(0);
                    let n_star = rs_star.n_star;
                    (rs_star, p_star, n, n_star)
                }
                Err(e @ (SolveError::Cancelled { .. } | SolveError::TaskPanicked { .. })) => {
                    return Err(e)
                }
                _ => {
                    drop(rem_span);
                    drop(solve_span);
                    return baseline_fallback(cfg, ctx, p, sup, cost0, t0, traces);
                }
            }
        }
        Err(e) => return Err(e),
    };
    drop(rem_span);
    let remainder_wall = t0.elapsed();
    checkpoint(sup)?;

    // Stage 2+3: tree polynomials and interval problems.
    let bound_bits = root_bound_bits(&work_poly);
    let t1 = Instant::now();
    let tree_span = rr_obs::stage_span("tree-stage");
    let (scaled, pool_stats) = tree_stage(cfg, ctx, pool, &rs, bound_bits, &mut traces, sup)?;
    drop(tree_span);
    drop(solve_span);
    let tree_wall = t1.elapsed();
    checkpoint(sup)?;

    let stats = SolveStats {
        wall: t0.elapsed(),
        remainder_wall,
        tree_wall,
        cost: ctx.snapshot() - cost0,
        pool: pool_stats,
        traces,
        bound_bits,
        exec: ctx.exec(),
        phase_time: ctx.phase_time(),
    };
    Ok(RootsResult {
        roots: scaled.into_iter().map(|num| Dyadic::new(num, cfg.mu)).collect(),
        n,
        n_star,
        degraded,
        stats,
    })
}

/// Last rung of the degradation ladder: the Sturm-bisection baseline.
/// Returns only the real roots (complex roots are legal here), tagged
/// [`Degradation::SturmBaseline`]; its work is recorded in the solve's
/// sink under [`Phase::Baseline`].
fn baseline_fallback(
    cfg: &SolverConfig,
    ctx: &SolveCtx,
    p: &Poly,
    sup: Option<&Supervision>,
    cost0: CostSnapshot,
    t0: Instant,
    traces: Vec<TaskTrace>,
) -> Result<RootsResult, SolveError> {
    checkpoint(sup)?;
    let span = rr_obs::stage_span("baseline-fallback");
    rr_obs::event("degrade", "falling back to sturm-baseline");
    let t1 = Instant::now();
    let config = rr_baseline::BaselineConfig::new(cfg.mu);
    let scaled = rr_baseline::find_real_roots(p, &config)
        .map_err(|e| SolveError::Internal(format!("baseline fallback failed: {e}")))?;
    drop(span);
    checkpoint(sup)?;
    let n = p.degree().unwrap_or(0);
    let n_star = scaled.len();
    let stats = SolveStats {
        wall: t0.elapsed(),
        remainder_wall: t1 - t0,
        tree_wall: t1.elapsed(),
        cost: ctx.snapshot() - cost0,
        pool: None,
        traces,
        bound_bits: root_bound_bits(p),
        exec: ctx.exec(),
        phase_time: ctx.phase_time(),
    };
    Ok(RootsResult {
        roots: scaled.into_iter().map(|num| Dyadic::new(num, cfg.mu)).collect(),
        n,
        n_star,
        degraded: Some(Degradation::SturmBaseline),
        stats,
    })
}

fn remainder_stage(
    cfg: &SolverConfig,
    ctx: &SolveCtx,
    pool: &Arc<Pool>,
    p: &Poly,
    traces: &mut Vec<TaskTrace>,
    sup: Option<&Supervision>,
) -> Result<RemainderSeq, SolveError> {
    match cfg.mode {
        ExecMode::Dynamic { threads } if !cfg.seq_remainder => {
            let cancel = sup.map(|s| s.token.clone());
            let (rs, trace) = crate::rem_stage::parallel_remainder_on(
                pool,
                threads,
                ctx_wrapper(ctx, sup),
                cancel,
                p,
            )?;
            traces.push(trace);
            Ok(rs)
        }
        _ => metrics::with_phase(Phase::RemainderSeq, || remainder_sequence(p))
            .map_err(SolveError::Seq),
    }
}

fn tree_stage(
    cfg: &SolverConfig,
    ctx: &SolveCtx,
    pool: &Arc<Pool>,
    rs: &RemainderSeq,
    bound_bits: u64,
    traces: &mut Vec<TaskTrace>,
    sup: Option<&Supervision>,
) -> Result<(Vec<rr_mp::Int>, Option<PoolStats>), SolveError> {
    let threads = match cfg.mode {
        ExecMode::Sequential => None,
        ExecMode::Static { threads } => Some(threads),
        ExecMode::Dynamic { threads } => {
            let cancel = sup.map(|s| s.token.clone());
            let (roots, stats, trace) = crate::par_solver::solve_parallel_on(
                pool,
                threads,
                ctx_wrapper(ctx, sup),
                cancel,
                rs,
                cfg.mu,
                bound_bits,
                cfg.refine,
                cfg.grain,
            )?;
            traces.push(trace);
            return Ok((roots, Some(stats)));
        }
    };
    let (roots, _) = crate::rounds::solve_rounds_with(
        rs, cfg.mu, bound_bits, cfg.refine, threads, Some(ctx), sup,
    )?;
    Ok((roots, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_mp::Int;

    fn wilkinson(n: i64) -> Poly {
        Poly::from_roots(&(1..=n).map(Int::from).collect::<Vec<_>>())
    }

    #[test]
    fn all_modes_agree() {
        let p = wilkinson(14);
        let seq = RootApproximator::new(SolverConfig::sequential(10))
            .approximate_roots(&p)
            .unwrap();
        for mode in [
            ExecMode::Dynamic { threads: 4 },
            ExecMode::Static { threads: 4 },
        ] {
            let mut cfg = SolverConfig::sequential(10);
            cfg.mode = mode;
            cfg.seq_remainder = false;
            let got = RootApproximator::new(cfg).approximate_roots(&p).unwrap();
            assert_eq!(seq.roots, got.roots, "{mode:?}");
        }
    }

    #[test]
    fn result_metadata() {
        let p = Poly::from_roots(&[Int::from(1), Int::from(1), Int::from(5)]);
        let r = RootApproximator::new(SolverConfig::sequential(4))
            .approximate_roots(&p)
            .unwrap();
        assert_eq!(r.n, 3);
        assert_eq!(r.n_star, 2);
        assert_eq!(r.roots.len(), 2);
        assert!(r.stats.wall >= r.stats.tree_wall);
        assert!(r.stats.muls(Phase::RemainderSeq) > 0);
    }

    #[test]
    fn rejects_complex_roots_with_degradation_off() {
        let p = Poly::from_i64(&[1, 0, 1]);
        let e = RootApproximator::new(SolverConfig::sequential(4).with_degradation(false))
            .approximate_roots(&p);
        assert!(matches!(e, Err(SolveError::Seq(_))));
    }

    #[test]
    fn complex_rooted_input_degrades_to_baseline() {
        // (x²+1)(x−1)(x+2): NotRealRooted natively; the baseline returns
        // the real roots 1 and −2.
        let p = &Poly::from_i64(&[1, 0, 1]) * &Poly::from_i64(&[-2, 1, 1]);
        let r = RootApproximator::new(SolverConfig::sequential(8))
            .approximate_roots(&p)
            .unwrap();
        assert_eq!(r.degraded, Some(Degradation::SturmBaseline));
        assert_eq!(r.n, 4);
        assert_eq!(r.n_star, 2);
        let got: Vec<f64> = r.roots.iter().map(|d| d.to_f64()).collect();
        assert_eq!(got, vec![-2.0, 1.0]);
        let baseline = rr_baseline::find_real_roots(&p, &rr_baseline::BaselineConfig::new(8))
            .unwrap();
        let expect: Vec<Dyadic> =
            baseline.into_iter().map(|num| Dyadic::new(num, 8)).collect();
        assert_eq!(r.roots, expect);
    }

    #[test]
    fn repeated_roots_are_marked_squarefree_retry() {
        let p = Poly::from_roots(&[Int::from(2), Int::from(2), Int::from(7)]);
        let r = RootApproximator::new(SolverConfig::sequential(4))
            .approximate_roots(&p)
            .unwrap();
        assert_eq!(r.degraded, Some(Degradation::SquarefreeRetry));
        assert_eq!(r.n_star, 2);
        // A squarefree input stays undegraded.
        let q = Poly::from_roots(&[Int::from(1), Int::from(3)]);
        let r = RootApproximator::new(SolverConfig::sequential(4))
            .approximate_roots(&q)
            .unwrap();
        assert_eq!(r.degraded, None);
    }

    #[test]
    fn non_normal_input_degrades_instead_of_erroring() {
        // x⁴ + 1: non-normal remainder sequence, no real roots. The
        // ladder ends at the baseline, which returns an empty root set.
        let p = Poly::from_i64(&[1, 0, 0, 0, 1]);
        let r = RootApproximator::new(SolverConfig::sequential(4))
            .approximate_roots(&p)
            .unwrap();
        assert_eq!(r.degraded, Some(Degradation::SturmBaseline));
        assert!(r.roots.is_empty());
        assert_eq!(r.n_star, 0);
    }

    #[test]
    fn parallel_config_clamps_single_thread() {
        let cfg = SolverConfig::parallel(8, 1);
        assert_eq!(cfg.mode, ExecMode::Sequential);
        let cfg = SolverConfig::parallel(8, 4);
        assert_eq!(cfg.mode, ExecMode::Dynamic { threads: 4 });
    }

    #[test]
    fn pool_stats_present_only_in_dynamic_mode() {
        let p = wilkinson(10);
        let seq = RootApproximator::new(SolverConfig::sequential(6))
            .approximate_roots(&p)
            .unwrap();
        assert!(seq.stats.pool.is_none());
        let par = RootApproximator::new(SolverConfig::parallel(6, 3))
            .approximate_roots(&p)
            .unwrap();
        assert_eq!(par.stats.pool.as_ref().unwrap().workers, 3);
    }
}
