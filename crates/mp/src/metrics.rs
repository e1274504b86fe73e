//! Per-phase operation counters for the paper's cost model.
//!
//! Narendran & Tiwari instrumented their implementation to count the
//! multiplications performed in each phase of the algorithm, and to
//! measure the bit complexity of those multiplications (the product of the
//! operand bit lengths), producing Figures 2–7 of the paper. This module
//! is the equivalent instrumentation.
//!
//! Every [`crate::Int`] multiplication and division records one event under
//! the thread's *current phase*, set with [`set_phase`] or scoped with
//! [`with_phase`]. Counters are per-thread (each thread owns its cache
//! line; only the owner writes), so instrumentation stays off the
//! contention path of the parallel solver.
//!
//! ## Sinks: session-scoped and process-global accounting
//!
//! Counters live in a [`MetricsSink`]: a registry of per-thread counter
//! blocks that can be aggregated at any time with
//! [`MetricsSink::snapshot`]. There are two kinds of sink:
//!
//! * **Session sinks** — each [`crate::SolveCtx`] owns a private sink.
//!   While a context is installed on a thread (see
//!   [`crate::SolveCtx::install`]), every event that thread records goes
//!   to the session's sink and *only* there. Concurrent solves therefore
//!   never cross-attribute each other's events, which is what the
//!   per-solve figures (2–7) depend on.
//! * **The process-global default sink** — the compatibility layer.
//!   Arithmetic performed with no context installed (library use outside
//!   a solve, the `rr-baseline` comparator, tests exercising `Int`
//!   directly) records here, and the free function [`snapshot`]
//!   aggregates it, so the historical measure-by-subtraction idiom keeps
//!   working for non-session code.
//!
//! ```
//! use rr_mp::{metrics, Int};
//!
//! let before = metrics::snapshot();
//! let p = metrics::with_phase(metrics::Phase::Newton, || {
//!     Int::from(123456789u64) * Int::from(987654321u64)
//! });
//! let cost = metrics::snapshot() - before;
//! assert_eq!(p, Int::from(123456789u64 * 987654321u64));
//! assert_eq!(cost.phase(metrics::Phase::Newton).mul_count, 1);
//! assert_eq!(cost.phase(metrics::Phase::Bisection).mul_count, 0);
//! ```
//!
//! Session-scoped accounting needs no subtraction — the sink starts
//! empty and [`crate::SolveCtx::snapshot`] is the exact cost of the
//! session:
//!
//! ```
//! use rr_mp::{metrics::Phase, Int, Profile, SolveCtx};
//!
//! let ctx = SolveCtx::new(Profile::Paper);
//! ctx.run(|| {
//!     rr_mp::metrics::with_phase(Phase::Sieve, || {
//!         let _ = Int::from(11u64) * Int::from(13u64);
//!     })
//! });
//! assert_eq!(ctx.snapshot().phase(Phase::Sieve).mul_count, 1);
//! ```

use parking_lot::Mutex;
use std::cell::Cell;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Algorithm phase an arithmetic operation is attributed to.
///
/// The variants mirror the task kinds of the paper's Section 3 plus the
/// workload generator and the sequential comparator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Anything not otherwise attributed (the default for a fresh thread).
    Other = 0,
    /// Workload generation: characteristic polynomials etc.
    CharPoly = 1,
    /// Precomputation of the remainder and quotient sequences (Sec 3.1).
    RemainderSeq = 2,
    /// Bottom-up tree polynomial matrix products (Sec 3.2, COMPUTEPOLY).
    TreePoly = 3,
    /// Merging sorted child roots (SORT tasks).
    Sort = 4,
    /// Evaluations at interleaving points (PREINTERVAL tasks).
    PreInterval = 5,
    /// Double-exponential sieve evaluations (INTERVAL tasks, phase 1).
    Sieve = 6,
    /// Bisection evaluations (INTERVAL tasks, phase 2).
    Bisection = 7,
    /// Newton iteration evaluations (INTERVAL tasks, phase 3).
    Newton = 8,
    /// The sequential comparator (`rr-baseline`, the PARI stand-in).
    Baseline = 9,
}

/// Number of phases (length of per-phase arrays).
pub const NUM_PHASES: usize = 10;

/// All phases, in index order.
pub const ALL_PHASES: [Phase; NUM_PHASES] = [
    Phase::Other,
    Phase::CharPoly,
    Phase::RemainderSeq,
    Phase::TreePoly,
    Phase::Sort,
    Phase::PreInterval,
    Phase::Sieve,
    Phase::Bisection,
    Phase::Newton,
    Phase::Baseline,
];

impl Phase {
    /// Short human-readable label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Other => "other",
            Phase::CharPoly => "charpoly",
            Phase::RemainderSeq => "remainder",
            Phase::TreePoly => "treepoly",
            Phase::Sort => "sort",
            Phase::PreInterval => "preinterval",
            Phase::Sieve => "sieve",
            Phase::Bisection => "bisection",
            Phase::Newton => "newton",
            Phase::Baseline => "baseline",
        }
    }
}

#[derive(Default)]
pub(crate) struct ThreadCounters {
    mul_count: [AtomicU64; NUM_PHASES],
    mul_bits: [AtomicU64; NUM_PHASES],
    div_count: [AtomicU64; NUM_PHASES],
    div_bits: [AtomicU64; NUM_PHASES],
    // Kronecker execution counters. Deliberately NOT part of
    // `CostSnapshot`: the paper cost model above must stay identical
    // across profiles (its `PartialEq` backs the profile-invariance
    // assertions), while these describe what the
    // Kronecker path actually executed. Read via `KroneckerStats`.
    kron_muls: AtomicU64,
    kron_packed_bits: AtomicU64,
    // Newton-division execution counters; outside `CostSnapshot` for the
    // same reason (div cost is charged profile-invariantly at the `Int`
    // layer). Read via `NewtonDivStats`.
    newton_divs: AtomicU64,
    newton_recip_iters: AtomicU64,
    newton_corrections: AtomicU64,
    newton_exact_divs: AtomicU64,
    newton_hensel_steps: AtomicU64,
    // Parallel-multiplication execution counters; outside `CostSnapshot`
    // for the same reason (the model charge is recorded at the `Int`
    // layer before the kernel runs, so it cannot vary with the split).
    // Read via `ParMulStats`.
    parmul_products: AtomicU64,
    parmul_tasks: AtomicU64,
    parmul_steals: AtomicU64,
    parmul_operand_bits: AtomicU64,
    parmul_work_ns: AtomicU64,
    parmul_span_ns: AtomicU64,
    // Physical limb-buffer allocations per phase (scratch-arena cold
    // misses); outside `CostSnapshot` because they vary with how warm
    // each thread's arena is while the model cost must not. Read via
    // `AllocStats`.
    alloc_count: [AtomicU64; NUM_PHASES],
    alloc_bytes: [AtomicU64; NUM_PHASES],
}

impl ThreadCounters {
    #[inline]
    pub(crate) fn record_mul(&self, phase: usize, a_bits: u64, b_bits: u64) {
        self.mul_count[phase].fetch_add(1, Ordering::Relaxed);
        self.mul_bits[phase].fetch_add(a_bits.saturating_mul(b_bits), Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_div(&self, phase: usize, q_bits: u64, b_bits: u64) {
        self.div_count[phase].fetch_add(1, Ordering::Relaxed);
        self.div_bits[phase].fetch_add(q_bits.saturating_mul(b_bits), Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_mul_bulk(&self, phase: usize, count: u64, bits: u64) {
        self.mul_count[phase].fetch_add(count, Ordering::Relaxed);
        self.mul_bits[phase].fetch_add(bits, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_kron(&self, packed_bits: u64) {
        self.kron_muls.fetch_add(1, Ordering::Relaxed);
        self.kron_packed_bits.fetch_add(packed_bits, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_newton_div(&self, recip_iters: u64, corrections: u64) {
        self.newton_divs.fetch_add(1, Ordering::Relaxed);
        self.newton_recip_iters.fetch_add(recip_iters, Ordering::Relaxed);
        self.newton_corrections.fetch_add(corrections, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_newton_exact_div(&self, hensel_steps: u64) {
        self.newton_exact_divs.fetch_add(1, Ordering::Relaxed);
        self.newton_hensel_steps.fetch_add(hensel_steps, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_parmul(
        &self,
        tasks: u64,
        steals: u64,
        operand_bits: u64,
        work_ns: u64,
        span_ns: u64,
    ) {
        self.parmul_products.fetch_add(1, Ordering::Relaxed);
        self.parmul_tasks.fetch_add(tasks, Ordering::Relaxed);
        self.parmul_steals.fetch_add(steals, Ordering::Relaxed);
        self.parmul_operand_bits.fetch_add(operand_bits, Ordering::Relaxed);
        self.parmul_work_ns.fetch_add(work_ns, Ordering::Relaxed);
        self.parmul_span_ns.fetch_add(span_ns, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_alloc(&self, phase: usize, bytes: u64) {
        self.alloc_count[phase].fetch_add(1, Ordering::Relaxed);
        self.alloc_bytes[phase].fetch_add(bytes, Ordering::Relaxed);
    }
}

/// What the Kronecker polynomial-multiplication path actually executed,
/// as opposed to what the paper cost model charged for it.
///
/// Kept separate from [`CostSnapshot`] on purpose: the model counters
/// are asserted bit-identical across profiles, so anything that
/// *varies* with the profile must live outside them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KroneckerStats {
    /// Number of polynomial products routed through Kronecker
    /// substitution (each one is a handful of big-integer
    /// multiplications on packed operands).
    pub kronecker_muls: u64,
    /// Total bits packed across those products (sum over products of
    /// `slot_bits × slots`, both operands).
    pub packed_bits: u64,
}

/// What the Newton division path actually executed, as opposed to the
/// Algorithm D work estimate the paper cost model charged for it.
///
/// Kept separate from [`CostSnapshot`] for the same reason as
/// [`KroneckerStats`]: the model counters are asserted bit-identical
/// across profiles, so anything that varies with the division kernel
/// must live outside them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NewtonDivStats {
    /// Number of divisions routed through the Newton reciprocal (above
    /// the crossover; below it the dispatcher runs Algorithm D and
    /// nothing is counted here).
    pub newton_divs: u64,
    /// Total reciprocal refinement iterations across those divisions
    /// (each is one squaring plus one multiplication via `mul_auto`).
    pub recip_iters: u64,
    /// Total quotient correction steps (expected ≤ 1 per division; the
    /// differential suite watches this stays small).
    pub corrections: u64,
    /// Number of exact divisions routed through the 2-adic (Hensel)
    /// kernel — `Int::div_exact` and [`crate::ExactDivisor`] above their
    /// crossovers. Disjoint from `newton_divs`, which counts the
    /// reciprocal `div_rem` kernel.
    pub exact_divs: u64,
    /// Total Hensel lifting steps spent building or extending 2-adic
    /// inverses across those divisions (each is two truncated products).
    /// Stays far below `exact_divs` when [`crate::ExactDivisor`]
    /// amortization is effective.
    pub hensel_steps: u64,
}

/// What the parallel-multiplication (fork-join) path actually executed,
/// as opposed to what the paper cost model charged for it.
///
/// Kept separate from [`CostSnapshot`] for the same reason as
/// [`KroneckerStats`]: the model charge for every product is recorded at
/// the `Int` dispatch layer *before* the kernel runs, so it is identical
/// whether the kernel then executes serially or split across workers —
/// anything that varies with the split must live outside the model
/// counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ParMulStats {
    /// Number of big-integer products (mul or sqr) that engaged the
    /// fork-join splitting layer at the top level.
    pub products: u64,
    /// Total fork-join subtasks published across those products (each
    /// Karatsuba split publishes its independent halves; limb-block
    /// tiling publishes one task per remote tile).
    pub tasks: u64,
    /// How many of those subtasks were actually executed by a worker
    /// other than the submitter (the rest were retracted and run
    /// inline). `steals / tasks` is the realized offload ratio.
    pub steals: u64,
    /// Sum over split products of the larger operand's bit length — the
    /// size distribution of work the splitter considered worth
    /// parallelizing.
    pub operand_bits: u64,
    /// Serial execution time of the split products, in nanoseconds: the
    /// sum of every fork-join closure's own wall-clock, measured on
    /// whichever worker executed it (Cilk-style *work*, `T₁`).
    pub work_ns: u64,
    /// Critical-path time of the split products, in nanoseconds: at each
    /// fork the longer half, summed along the deepest chain (Cilk-style
    /// *span*, `T_∞`). `work_ns / span_ns` is the available parallelism
    /// of the splits — what an unbounded pool could exploit.
    /// `parmul_ablation` Brent-bounds its simulated speedups from these
    /// two, the same measured-durations-replayed substitution that
    /// `speedups`/`speedup_report` use for the paper's 20-processor
    /// host (DESIGN.md §16).
    pub span_ns: u64,
}

/// Physical limb-buffer allocation totals for one phase.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseAlloc {
    /// Limb-buffer acquisitions that hit the system allocator.
    pub allocs: u64,
    /// Bytes requested by those acquisitions.
    pub bytes: u64,
}

impl Add for PhaseAlloc {
    type Output = PhaseAlloc;
    fn add(self, rhs: PhaseAlloc) -> PhaseAlloc {
        PhaseAlloc {
            allocs: self.allocs + rhs.allocs,
            bytes: self.bytes + rhs.bytes,
        }
    }
}

impl AddAssign for PhaseAlloc {
    fn add_assign(&mut self, rhs: PhaseAlloc) {
        *self = *self + rhs;
    }
}

/// What the scratch-arena layer physically allocated, per phase, as
/// opposed to what the paper cost model charged.
///
/// Kept separate from [`CostSnapshot`] on purpose: the model counters
/// are asserted bit-identical across solves, so a counter whose whole
/// point is to *vary* with how warm each thread's arena is must live
/// outside them — the same separation as [`KroneckerStats`] and
/// [`NewtonDivStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    phases: [PhaseAlloc; NUM_PHASES],
}

impl AllocStats {
    /// Allocations recorded under `p`.
    pub fn phase(&self, p: Phase) -> PhaseAlloc {
        self.phases[p as usize]
    }

    /// Sum over all phases.
    pub fn total(&self) -> PhaseAlloc {
        self.phases
            .iter()
            .fold(PhaseAlloc::default(), |acc, &c| acc + c)
    }

    /// Iterator over `(phase, allocs)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, PhaseAlloc)> + '_ {
        ALL_PHASES.iter().map(move |&p| (p, self.phase(p)))
    }
}

/// A registry of per-thread event counters that can be aggregated at any
/// time. The recording path is contention-free: each thread that records
/// into a sink owns its own counter block (only the owner writes; the
/// aggregator only reads), and blocks outlive their threads so snapshot
/// subtraction stays exact across thread churn.
///
/// Cloning a sink is cheap and yields a handle to the same registry.
#[derive(Clone)]
pub struct MetricsSink {
    inner: Arc<SinkInner>,
}

struct SinkInner {
    id: u64,
    threads: Mutex<Vec<Arc<ThreadCounters>>>,
}

impl Default for MetricsSink {
    fn default() -> MetricsSink {
        MetricsSink::new()
    }
}

impl std::fmt::Debug for MetricsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsSink").field("id", &self.inner.id).finish()
    }
}

impl MetricsSink {
    /// A fresh, empty sink.
    pub fn new() -> MetricsSink {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        MetricsSink {
            inner: Arc::new(SinkInner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                threads: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Process-unique identity of this sink's registry (stable across
    /// clones of the same sink).
    pub(crate) fn id(&self) -> u64 {
        self.inner.id
    }

    /// Registers a new per-thread counter block with this sink. The
    /// caller (the session machinery) caches the block per thread so the
    /// recording path never takes this lock.
    pub(crate) fn register_thread(&self) -> Arc<ThreadCounters> {
        let c = Arc::new(ThreadCounters::default());
        self.inner.threads.lock().push(Arc::clone(&c));
        c
    }

    /// Aggregates the counters of every thread that has recorded into
    /// this sink. Monotone: the cost of a region is the difference of the
    /// snapshots taken after and before it.
    pub fn snapshot(&self) -> CostSnapshot {
        let mut out = CostSnapshot::default();
        for c in self.inner.threads.lock().iter() {
            for i in 0..NUM_PHASES {
                out.phases[i] += PhaseCost {
                    mul_count: c.mul_count[i].load(Ordering::Relaxed),
                    mul_bits: c.mul_bits[i].load(Ordering::Relaxed),
                    div_count: c.div_count[i].load(Ordering::Relaxed),
                    div_bits: c.div_bits[i].load(Ordering::Relaxed),
                };
            }
        }
        out
    }

    /// Aggregates the Kronecker execution counters of every thread that
    /// has recorded into this sink.
    pub fn kron_snapshot(&self) -> KroneckerStats {
        let mut out = KroneckerStats::default();
        for c in self.inner.threads.lock().iter() {
            out.kronecker_muls += c.kron_muls.load(Ordering::Relaxed);
            out.packed_bits += c.kron_packed_bits.load(Ordering::Relaxed);
        }
        out
    }

    /// Aggregates the Newton-division execution counters of every thread
    /// that has recorded into this sink.
    pub fn newton_div_snapshot(&self) -> NewtonDivStats {
        let mut out = NewtonDivStats::default();
        for c in self.inner.threads.lock().iter() {
            out.newton_divs += c.newton_divs.load(Ordering::Relaxed);
            out.recip_iters += c.newton_recip_iters.load(Ordering::Relaxed);
            out.corrections += c.newton_corrections.load(Ordering::Relaxed);
            out.exact_divs += c.newton_exact_divs.load(Ordering::Relaxed);
            out.hensel_steps += c.newton_hensel_steps.load(Ordering::Relaxed);
        }
        out
    }

    /// Aggregates the parallel-multiplication execution counters of
    /// every thread that has recorded into this sink.
    pub fn parmul_snapshot(&self) -> ParMulStats {
        let mut out = ParMulStats::default();
        for c in self.inner.threads.lock().iter() {
            out.products += c.parmul_products.load(Ordering::Relaxed);
            out.tasks += c.parmul_tasks.load(Ordering::Relaxed);
            out.steals += c.parmul_steals.load(Ordering::Relaxed);
            out.operand_bits += c.parmul_operand_bits.load(Ordering::Relaxed);
            out.work_ns += c.parmul_work_ns.load(Ordering::Relaxed);
            out.span_ns += c.parmul_span_ns.load(Ordering::Relaxed);
        }
        out
    }

    /// Aggregates the physical allocation counters of every thread that
    /// has recorded into this sink.
    pub fn alloc_snapshot(&self) -> AllocStats {
        let mut out = AllocStats::default();
        for c in self.inner.threads.lock().iter() {
            for i in 0..NUM_PHASES {
                out.phases[i] += PhaseAlloc {
                    allocs: c.alloc_count[i].load(Ordering::Relaxed),
                    bytes: c.alloc_bytes[i].load(Ordering::Relaxed),
                };
            }
        }
        out
    }
}

/// The process-global default sink — the compatibility layer that
/// receives every event recorded with no [`crate::SolveCtx`] installed.
pub(crate) fn default_sink() -> &'static MetricsSink {
    static DEFAULT: OnceLock<MetricsSink> = OnceLock::new();
    DEFAULT.get_or_init(MetricsSink::new)
}

thread_local! {
    static CURRENT_PHASE: Cell<usize> = const { Cell::new(Phase::Other as usize) };
    /// This thread's counter block in the default sink (the no-session
    /// fast path, resolved once per thread).
    static LOCAL: Arc<ThreadCounters> = default_sink().register_thread();
}

/// Always-on `rr_obs::metrics` series fed by this module, alongside the
/// per-session cost sinks: per-phase duration histograms recorded by
/// [`with_phase`], and operand-bit-size histograms recorded at the
/// `Int` dispatch layer ([`record_mul`] / [`record_div`]) — the
/// work-per-precision-level distribution view. These observe only; the
/// cost model ([`CostSnapshot`]) never reads them.
///
/// The operand-bit histograms are **sampled 1-in-[`SAMPLE`]** per
/// thread: `Int` dispatch runs at tens of millions of events per
/// second, where even a ~2 ns shard update is a double-digit-percent
/// tax, while a deterministic 1/64 stride leaves the bit-length
/// *distribution* statistically intact (`count` is the number of
/// samples taken, not of dispatches — the exact totals live in
/// [`CostSnapshot`]). Everything else records unsampled.
mod obs_metrics {
    use super::{ALL_PHASES, NUM_PHASES};
    use rr_obs::metrics::{histogram_with, Counter, Histogram};
    use std::cell::Cell;
    use std::sync::LazyLock;

    /// Sampling stride of the operand-bit histograms.
    pub(super) const SAMPLE: u32 = 64;

    thread_local! {
        static SAMPLE_TICK: Cell<u32> = const { Cell::new(0) };
    }

    /// Deterministic per-thread 1-in-[`SAMPLE`] gate; the first event of
    /// every thread is sampled so short-lived threads still show up.
    #[inline]
    pub(super) fn sampled() -> bool {
        SAMPLE_TICK.with(|t| {
            let c = t.get();
            if c == 0 {
                t.set(SAMPLE - 1);
                true
            } else {
                t.set(c - 1);
                false
            }
        })
    }

    pub(super) static PHASE_NS: LazyLock<[Histogram; NUM_PHASES]> = LazyLock::new(|| {
        ALL_PHASES.map(|p| {
            histogram_with(
                "rr_phase_duration_ns",
                "Wall-clock time inside with_phase regions, per phase (ns)",
                &[("phase", p.label())],
            )
        })
    });
    pub(super) static MUL_BITS: LazyLock<Histogram> = rr_obs::register_metric!(
        histogram,
        "rr_mp_operand_bits",
        "Largest operand bit length per Int arithmetic dispatch (sampled 1:64 per thread)",
        "op" => "mul"
    );
    pub(super) static DIV_BITS: LazyLock<Histogram> = rr_obs::register_metric!(
        histogram,
        "rr_mp_operand_bits",
        "Largest operand bit length per Int arithmetic dispatch (sampled 1:64 per thread)",
        "op" => "div"
    );
    pub(super) static PARMUL_TASKS: LazyLock<Counter> = rr_obs::register_metric!(
        counter,
        "rr_parmul_tasks_total",
        "Fork-join subtasks published by the parallel multiplication splitter"
    );
    pub(super) static PARMUL_BITS: LazyLock<Histogram> = rr_obs::register_metric!(
        histogram,
        "rr_parmul_operand_bits",
        "Larger operand bit length per fork-join-split big-integer product"
    );
}

/// Sets the calling thread's current phase, returning the previous one.
pub fn set_phase(p: Phase) -> Phase {
    CURRENT_PHASE.with(|c| {
        let prev = c.replace(p as usize);
        ALL_PHASES[prev]
    })
}

/// Returns the calling thread's current phase.
pub fn current_phase() -> Phase {
    CURRENT_PHASE.with(|c| ALL_PHASES[c.get()])
}

/// Runs `f` with the current phase set to `p`, restoring the previous
/// phase afterwards (also on unwind).
///
/// If the thread is inside a traced solve (an `rr-obs` recorder is
/// installed, via [`crate::SolveCtx::with_recorder`]), the region is
/// also recorded as a wall-clock phase span, so per-phase times line up
/// with per-phase operation counts. With no recorder installed the span
/// call is a single branch.
pub fn with_phase<R>(p: Phase, f: impl FnOnce() -> R) -> R {
    struct Restore {
        prev: Phase,
        cur: Phase,
        start: Option<std::time::Instant>,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            set_phase(self.prev);
            // Feed the always-on per-phase latency distribution (also
            // on unwind, so panicking regions still count).
            if let Some(t0) = self.start {
                obs_metrics::PHASE_NS[self.cur as usize].record_duration(t0.elapsed());
            }
        }
    }
    let _span = rr_obs::phase_span(p.label());
    let _restore = Restore {
        prev: set_phase(p),
        cur: p,
        start: rr_obs::metrics::enabled().then(std::time::Instant::now),
    };
    f()
}

/// Records one multiplication of operands with the given bit lengths.
/// Called from `Int`'s arithmetic; not usually called directly.
///
/// The event goes to the installed session sink if the thread is inside
/// a [`crate::SolveCtx`] scope, and to the process-global default sink
/// otherwise.
#[inline]
pub fn record_mul(a_bits: u64, b_bits: u64) {
    if obs_metrics::sampled() {
        obs_metrics::MUL_BITS.record(a_bits.max(b_bits));
    }
    let phase = CURRENT_PHASE.with(Cell::get);
    if crate::session::record_session_mul(phase, a_bits, b_bits) {
        return;
    }
    LOCAL.with(|c| c.record_mul(phase, a_bits, b_bits));
}

/// Records one division; the bit cost model is `(‖a‖ − ‖b‖ + 1)·‖b‖`
/// (quotient length times divisor length, the Algorithm D work estimate).
#[inline]
pub fn record_div(a_bits: u64, b_bits: u64) {
    if obs_metrics::sampled() {
        obs_metrics::DIV_BITS.record(a_bits.max(b_bits));
    }
    let phase = CURRENT_PHASE.with(Cell::get);
    let q_bits = a_bits.saturating_sub(b_bits) + 1;
    if crate::session::record_session_div(phase, q_bits, b_bits) {
        return;
    }
    LOCAL.with(|c| c.record_div(phase, q_bits, b_bits));
}

/// Records `count` multiplications totalling `bits` of model bit cost in
/// one pair of counter updates — for callers that replay a *batch* of
/// model events whose aggregate charge has a closed form. The schoolbook
/// polynomial product is the motivating case: its model charge over the
/// nonzero coefficient pairs factorizes as
/// `Σᵢ Σⱼ ‖aᵢ‖·‖bⱼ‖ = (Σᵢ ‖aᵢ‖)·(Σⱼ ‖bⱼ‖)`, so the Kronecker path can
/// record the exact same totals as the per-pair loop in linear time.
#[inline]
pub fn record_mul_bulk(count: u64, bits: u64) {
    let phase = CURRENT_PHASE.with(Cell::get);
    if crate::session::record_session_mul_bulk(phase, count, bits) {
        return;
    }
    LOCAL.with(|c| c.record_mul_bulk(phase, count, bits));
}

/// Records one executed Kronecker polynomial product that packed
/// `packed_bits` bits in total. Called from `rr-poly`'s Kronecker path;
/// not usually called directly. Routes to the installed session sink if
/// any, else to the process-global default sink.
#[inline]
pub fn record_kron(packed_bits: u64) {
    if crate::session::record_session_kron(packed_bits) {
        return;
    }
    LOCAL.with(|c| c.record_kron(packed_bits));
}

/// Records one division executed through the Newton reciprocal path:
/// its refinement iteration count and quotient correction steps. Called
/// from `nat::newton_div`; not usually called directly. Routes to the
/// installed session sink if any, else to the process-global default
/// sink.
#[inline]
pub fn record_newton_div(recip_iters: u64, corrections: u64) {
    if crate::session::record_session_newton_div(recip_iters, corrections) {
        return;
    }
    LOCAL.with(|c| c.record_newton_div(recip_iters, corrections));
}

/// Records one exact division executed through the 2-adic (Hensel)
/// kernel and the number of inverse-lifting steps it spent. Called from
/// `nat::newton_div::div_exact` and [`crate::ExactDivisor`]; not usually
/// called directly. Routes to the installed session sink if any, else to
/// the process-global default sink.
#[inline]
pub fn record_newton_exact_div(hensel_steps: u64) {
    if crate::session::record_session_newton_exact_div(hensel_steps) {
        return;
    }
    LOCAL.with(|c| c.record_newton_exact_div(hensel_steps));
}

/// Records one big-integer product split by the fork-join layer:
/// `tasks` subtasks published, of which `steals` were executed by other
/// workers, on a product whose larger operand was `operand_bits` bits
/// and whose fork-join tree measured `work_ns` of serial execution over
/// a `span_ns` critical path. Called from `nat::parmul`; not usually
/// called directly. Routes to the installed session sink if any, else
/// to the process-global default sink, and feeds the always-on registry
/// series `rr_parmul_tasks_total` / `rr_parmul_operand_bits`.
#[inline]
pub fn record_parmul(tasks: u64, steals: u64, operand_bits: u64, work_ns: u64, span_ns: u64) {
    obs_metrics::PARMUL_TASKS.add(tasks);
    obs_metrics::PARMUL_BITS.record(operand_bits);
    if crate::session::record_session_parmul(tasks, steals, operand_bits, work_ns, span_ns) {
        return;
    }
    LOCAL.with(|c| c.record_parmul(tasks, steals, operand_bits, work_ns, span_ns));
}

/// Records one limb-buffer allocation of `bytes` bytes that reached the
/// system allocator, under the calling thread's current phase. Called
/// from the scratch layer ([`crate::scratch`]); not usually called
/// directly.
///
/// Besides the per-phase session/global accounting, every event also
/// bumps the thread-local [`rr_obs::alloc`] counters, which the pool
/// reads around each task to attribute allocation churn to scopes.
#[inline]
pub fn record_alloc(bytes: u64) {
    rr_obs::alloc::record(bytes);
    let phase = CURRENT_PHASE.with(Cell::get);
    if crate::session::record_session_alloc(phase, bytes) {
        return;
    }
    LOCAL.with(|c| c.record_alloc(phase, bytes));
}

/// Aggregates the physical allocation counters of the process-global
/// default sink (events recorded with no [`crate::SolveCtx`] installed).
pub fn alloc_snapshot() -> AllocStats {
    default_sink().alloc_snapshot()
}

/// Aggregates the Kronecker execution counters of the process-global
/// default sink (events recorded with no [`crate::SolveCtx`] installed).
pub fn kron_snapshot() -> KroneckerStats {
    default_sink().kron_snapshot()
}

/// Aggregates the Newton-division execution counters of the
/// process-global default sink (events recorded with no
/// [`crate::SolveCtx`] installed).
pub fn newton_div_snapshot() -> NewtonDivStats {
    default_sink().newton_div_snapshot()
}

/// Aggregates the parallel-multiplication execution counters of the
/// process-global default sink (events recorded with no
/// [`crate::SolveCtx`] installed).
pub fn parmul_snapshot() -> ParMulStats {
    default_sink().parmul_snapshot()
}

/// Cost totals for one phase.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseCost {
    /// Number of multiprecision multiplications.
    pub mul_count: u64,
    /// Sum over multiplications of `‖a‖·‖b‖` (bit complexity).
    pub mul_bits: u64,
    /// Number of multiprecision divisions.
    pub div_count: u64,
    /// Sum over divisions of the Algorithm D work estimate.
    pub div_bits: u64,
}

impl Sub for PhaseCost {
    type Output = PhaseCost;
    fn sub(self, rhs: PhaseCost) -> PhaseCost {
        PhaseCost {
            mul_count: self.mul_count - rhs.mul_count,
            mul_bits: self.mul_bits - rhs.mul_bits,
            div_count: self.div_count - rhs.div_count,
            div_bits: self.div_bits - rhs.div_bits,
        }
    }
}

impl Add for PhaseCost {
    type Output = PhaseCost;
    fn add(self, rhs: PhaseCost) -> PhaseCost {
        PhaseCost {
            mul_count: self.mul_count + rhs.mul_count,
            mul_bits: self.mul_bits + rhs.mul_bits,
            div_count: self.div_count + rhs.div_count,
            div_bits: self.div_bits + rhs.div_bits,
        }
    }
}

impl AddAssign for PhaseCost {
    fn add_assign(&mut self, rhs: PhaseCost) {
        *self = *self + rhs;
    }
}

/// A point-in-time aggregation of one sink's counters.
///
/// Snapshots are monotone, so the cost of a region of code is the
/// difference of the snapshots taken after and before it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CostSnapshot {
    phases: [PhaseCost; NUM_PHASES],
}

impl CostSnapshot {
    /// Cost recorded under `p`.
    pub fn phase(&self, p: Phase) -> PhaseCost {
        self.phases[p as usize]
    }

    /// Sum over all phases.
    pub fn total(&self) -> PhaseCost {
        self.phases
            .iter()
            .fold(PhaseCost::default(), |acc, &c| acc + c)
    }

    /// Iterator over `(phase, cost)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, PhaseCost)> + '_ {
        ALL_PHASES.iter().map(move |&p| (p, self.phase(p)))
    }
}

impl Sub for CostSnapshot {
    type Output = CostSnapshot;
    fn sub(self, rhs: CostSnapshot) -> CostSnapshot {
        let mut out = CostSnapshot::default();
        for i in 0..NUM_PHASES {
            out.phases[i] = self.phases[i] - rhs.phases[i];
        }
        out
    }
}

impl Add for CostSnapshot {
    type Output = CostSnapshot;
    fn add(self, rhs: CostSnapshot) -> CostSnapshot {
        let mut out = CostSnapshot::default();
        for i in 0..NUM_PHASES {
            out.phases[i] = self.phases[i] + rhs.phases[i];
        }
        out
    }
}

impl AddAssign for CostSnapshot {
    fn add_assign(&mut self, rhs: CostSnapshot) {
        *self = *self + rhs;
    }
}

/// Aggregates the process-global default sink: every event recorded by
/// any thread that was *not* inside a [`crate::SolveCtx`] scope.
///
/// Session-scoped events are invisible here by design — read them from
/// the owning [`crate::SolveCtx`] instead.
pub fn snapshot() -> CostSnapshot {
    default_sink().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Int;

    #[test]
    fn with_phase_restores_previous() {
        set_phase(Phase::Other);
        with_phase(Phase::Sieve, || {
            assert_eq!(current_phase(), Phase::Sieve);
            with_phase(Phase::Newton, || {
                assert_eq!(current_phase(), Phase::Newton);
            });
            assert_eq!(current_phase(), Phase::Sieve);
        });
        assert_eq!(current_phase(), Phase::Other);
    }

    #[test]
    fn with_phase_restores_on_panic() {
        set_phase(Phase::Other);
        let r = std::panic::catch_unwind(|| {
            with_phase(Phase::Bisection, || panic!("boom"));
        });
        assert!(r.is_err());
        assert_eq!(current_phase(), Phase::Other);
    }

    #[test]
    fn snapshot_diff_counts_region() {
        let a = Int::from(u64::MAX) * Int::from(u64::MAX); // warm TLS
        drop(a);
        let before = snapshot();
        with_phase(Phase::TreePoly, || {
            let x = Int::from(12345u64);
            let y = Int::from(99999u64);
            let _ = &x * &y;
            let _ = &x * &y;
        });
        let d = snapshot() - before;
        assert_eq!(d.phase(Phase::TreePoly).mul_count, 2);
        // bit cost of 12345 (14 bits) * 99999 (17 bits), twice
        assert_eq!(d.phase(Phase::TreePoly).mul_bits, 2 * 14 * 17);
    }

    #[test]
    fn divisions_recorded_separately() {
        let before = snapshot();
        with_phase(Phase::Baseline, || {
            let x = Int::from(1_000_000_007u64);
            let y = Int::from(97u64);
            let _ = &x / &y;
        });
        let d = snapshot() - before;
        assert_eq!(d.phase(Phase::Baseline).div_count, 1);
        assert_eq!(d.phase(Phase::Baseline).mul_count, 0);
    }

    #[test]
    fn cross_thread_aggregation() {
        let before = snapshot();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    with_phase(Phase::PreInterval, || {
                        let _ = Int::from(7u64) * Int::from(9u64);
                    })
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let d = snapshot() - before;
        assert_eq!(d.phase(Phase::PreInterval).mul_count, 4);
    }

    #[test]
    fn total_sums_phases() {
        let before = snapshot();
        with_phase(Phase::Sort, || {
            let _ = Int::from(3u64) * Int::from(5u64);
        });
        with_phase(Phase::Sieve, || {
            let _ = Int::from(3u64) * Int::from(5u64);
        });
        let d = snapshot() - before;
        assert_eq!(d.total().mul_count, 2);
    }

    #[test]
    fn fresh_sink_is_isolated_from_global() {
        let sink = MetricsSink::new();
        let before_global = snapshot();
        with_phase(Phase::Sort, || {
            let _ = Int::from(3u64) * Int::from(5u64);
        });
        // The raw (no-session) event went to the global sink only.
        assert_eq!(sink.snapshot().total().mul_count, 0);
        assert_eq!((snapshot() - before_global).phase(Phase::Sort).mul_count, 1);
    }

    #[test]
    fn cost_snapshot_add_is_inverse_of_sub() {
        let before = snapshot();
        with_phase(Phase::Newton, || {
            let _ = Int::from(17u64) * Int::from(19u64);
        });
        let after = snapshot();
        assert_eq!(before + (after - before), after);
    }
}
