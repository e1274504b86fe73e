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
//! ## One counter block per solve and thread
//!
//! Counters live in the private sink of a [`crate::SolveCtx`]: a registry
//! of per-thread counter blocks, aggregated on demand. While a context
//! is installed on a thread (see [`crate::SolveCtx::install`]), every
//! event that thread records goes to the context's sink and *only*
//! there, so concurrent solves never cross-attribute each other's
//! events — which is what the per-solve figures (2–7) depend on. A
//! thread with no context installed records nothing.
//!
//! Each block holds two counter sets per phase:
//!
//! * the **model** counters ([`CostSnapshot`], read with
//!   [`crate::SolveCtx::snapshot`]): what the paper's cost model
//!   charges, recorded above every kernel by [`record_mul`],
//!   [`record_div`] and [`record_mul_bulk`], and therefore identical
//!   across profiles;
//! * the **execution** counters ([`ExecSnapshot`], read with
//!   [`crate::SolveCtx::exec`]): what the kernels physically ran, one
//!   [`Exec`] label each, recorded by [`count`].
//!
//! A context's sink starts empty, so its snapshot *is* the exact cost of
//! everything run under it:
//!
//! ```
//! use rr_mp::metrics::{self, Exec, Phase};
//! use rr_mp::{Int, Profile, SolveCtx};
//!
//! let ctx = SolveCtx::new(Profile::Paper);
//! let p = ctx.run(|| {
//!     metrics::with_phase(Phase::Newton, || {
//!         metrics::count(&[(Exec::Allocs, 1), (Exec::AllocBytes, 64)]);
//!         Int::from(123456789u64) * Int::from(987654321u64)
//!     })
//! });
//! assert_eq!(p, Int::from(123456789u64 * 987654321u64));
//! assert_eq!(ctx.snapshot().phase(Phase::Newton).mul_count, 1);
//! assert_eq!(ctx.snapshot().phase(Phase::Bisection).mul_count, 0);
//! assert_eq!(ctx.exec().phase(Phase::Newton, Exec::AllocBytes), 64);
//! assert_eq!(ctx.exec().get(Exec::Allocs), 1);
//! ```

use parking_lot::Mutex;
use std::cell::Cell;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    // Physical execution counters, per phase and [`Exec`] label.
    // Deliberately NOT part of `CostSnapshot`: the model counters above
    // must stay identical across profiles and arena states (their
    // `PartialEq` backs the invariance assertions), while these describe
    // what actually ran. Read via `ExecSnapshot`.
    exec: [[AtomicU64; NUM_EXEC]; NUM_PHASES],
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
    fn count(&self, phase: usize, events: &[(Exec, u64)]) {
        for &(label, n) in events {
            self.exec[phase][label as usize].fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Label of one physical execution counter: what a kernel actually ran,
/// as opposed to what the paper cost model charged for it.
///
/// Kept out of [`CostSnapshot`] on purpose: the model counters are
/// asserted bit-identical across profiles and solves, so anything that
/// varies with the profile, the fork-join split or how warm a thread's
/// scratch arena is must live outside them. Recorded with [`count`],
/// read per solve with [`crate::SolveCtx::exec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Exec {
    /// Polynomial products routed through Kronecker substitution.
    KroneckerMuls,
    /// Bits packed across those products (`slot_bits × slots`, both
    /// operands).
    PackedBits,
    /// Divisions routed through the Newton reciprocal (above the
    /// crossover; below it Algorithm D runs and nothing is counted).
    NewtonDivs,
    /// Reciprocal refinement iterations across those divisions.
    RecipIters,
    /// Quotient correction steps across those divisions (expected ≤ 1
    /// per division).
    Corrections,
    /// Exact divisions routed through the 2-adic (Hensel) kernel —
    /// `Int::div_exact` and [`crate::ExactDivisor`] above their
    /// crossovers.
    ExactDivs,
    /// Hensel lifting steps spent building or extending 2-adic inverses;
    /// stays far below `ExactDivs` when `ExactDivisor` amortizes.
    HenselSteps,
    /// Big-integer products that engaged the fork-join splitter.
    ParmulProducts,
    /// Fork-join subtasks published across those products.
    ParmulTasks,
    /// Subtasks executed by a worker other than the submitter.
    ParmulSteals,
    /// Sum over split products of the larger operand's bit length.
    ParmulOperandBits,
    /// Serial execution time of the split products (Cilk-style work
    /// `T₁`, ns).
    ParmulWorkNs,
    /// Critical-path time of the split products (Cilk-style span `T_∞`,
    /// ns); `kernel_ablation` Brent-bounds its simulated speedups from
    /// work and span (DESIGN.md §17).
    ParmulSpanNs,
    /// Limb-buffer acquisitions that hit the system allocator (scratch
    /// arena cold misses).
    Allocs,
    /// Bytes requested by those acquisitions.
    AllocBytes,
}

/// Number of execution counter labels.
pub const NUM_EXEC: usize = 15;

/// All execution counter labels, in index order.
pub const ALL_EXEC: [Exec; NUM_EXEC] = [
    Exec::KroneckerMuls,
    Exec::PackedBits,
    Exec::NewtonDivs,
    Exec::RecipIters,
    Exec::Corrections,
    Exec::ExactDivs,
    Exec::HenselSteps,
    Exec::ParmulProducts,
    Exec::ParmulTasks,
    Exec::ParmulSteals,
    Exec::ParmulOperandBits,
    Exec::ParmulWorkNs,
    Exec::ParmulSpanNs,
    Exec::Allocs,
    Exec::AllocBytes,
];

impl Exec {
    /// The Newton and 2-adic division labels.
    pub const DIVISION: [Exec; 5] = [
        Exec::NewtonDivs,
        Exec::RecipIters,
        Exec::Corrections,
        Exec::ExactDivs,
        Exec::HenselSteps,
    ];

    /// Key used for this counter in reports and bench rows.
    pub fn label(self) -> &'static str {
        match self {
            Exec::KroneckerMuls => "kronecker_muls",
            Exec::PackedBits => "packed_bits",
            Exec::NewtonDivs => "newton_divs",
            Exec::RecipIters => "recip_iters",
            Exec::Corrections => "corrections",
            Exec::ExactDivs => "exact_divs",
            Exec::HenselSteps => "hensel_steps",
            Exec::ParmulProducts => "parmul_products",
            Exec::ParmulTasks => "parmul_tasks",
            Exec::ParmulSteals => "parmul_steals",
            Exec::ParmulOperandBits => "parmul_operand_bits",
            Exec::ParmulWorkNs => "parmul_work_ns",
            Exec::ParmulSpanNs => "parmul_span_ns",
            Exec::Allocs => "allocs",
            Exec::AllocBytes => "alloc_bytes",
        }
    }
}

/// A point-in-time aggregation of one sink's execution counters, per
/// phase and [`Exec`] label.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecSnapshot {
    phases: [[u64; NUM_EXEC]; NUM_PHASES],
}

impl ExecSnapshot {
    /// Total of `label` over all phases.
    pub fn get(&self, label: Exec) -> u64 {
        self.phases.iter().map(|p| p[label as usize]).sum()
    }

    /// Count of `label` recorded under phase `p`.
    pub fn phase(&self, p: Phase, label: Exec) -> u64 {
        self.phases[p as usize][label as usize]
    }
}

/// A registry of per-thread event counters that can be aggregated at any
/// time. The recording path is contention-free: each thread that records
/// into a sink owns its own counter block (only the owner writes; the
/// aggregator only reads), and blocks outlive their threads so totals
/// stay exact across thread churn. Each [`crate::SolveCtx`] owns one.
///
/// Cloning a sink is cheap and yields a handle to the same registry.
#[derive(Clone)]
pub(crate) struct MetricsSink {
    inner: Arc<SinkInner>,
}

struct SinkInner {
    id: u64,
    threads: Mutex<Vec<Arc<ThreadCounters>>>,
}

impl std::fmt::Debug for MetricsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsSink").field("id", &self.inner.id).finish()
    }
}

impl MetricsSink {
    /// A fresh, empty sink.
    pub(crate) fn new() -> MetricsSink {
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

    /// Aggregates the model counters of every thread that has recorded
    /// into this sink. Monotone: the cost of a region is the difference
    /// of the snapshots taken after and before it.
    pub(crate) fn snapshot(&self) -> CostSnapshot {
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

    /// Aggregates the execution counters of every thread that has
    /// recorded into this sink.
    pub(crate) fn exec(&self) -> ExecSnapshot {
        let mut out = ExecSnapshot::default();
        for c in self.inner.threads.lock().iter() {
            for (sum, counters) in out.phases.iter_mut().zip(&c.exec) {
                for (s, n) in sum.iter_mut().zip(counters) {
                    *s += n.load(Ordering::Relaxed);
                }
            }
        }
        out
    }
}

thread_local! {
    static CURRENT_PHASE: Cell<usize> = const { Cell::new(Phase::Other as usize) };
}

/// Always-on `rr_obs::metrics` series fed by this module, alongside the
/// per-session cost sinks: per-phase duration histograms recorded by
/// [`with_phase`], operand-bit-size histograms recorded at the `Int`
/// dispatch layer ([`record_mul`] / [`record_div`]) — the
/// work-per-precision-level distribution view — and process-wide totals
/// of a few [`Exec`] labels mirrored by [`count`]. These observe only;
/// the cost model ([`CostSnapshot`]) never reads them.
///
/// The operand-bit histograms are **sampled 1-in-[`SAMPLE`]** per
/// thread: `Int` dispatch runs at tens of millions of events per
/// second, where even a ~2 ns shard update is a double-digit-percent
/// tax, while a deterministic 1/64 stride leaves the bit-length
/// *distribution* statistically intact (`count` is the number of
/// samples taken, not of dispatches — the exact totals live in
/// [`CostSnapshot`]). Everything else records unsampled.
mod obs_metrics {
    use super::{Exec, ALL_PHASES, NUM_PHASES};
    use rr_obs::metrics::{counter, histogram, histogram_with, Counter, Histogram};
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

    /// Registry series mirrored from execution counters. They register
    /// together, so once any has fired a scrape shows all of them, at
    /// zero if their kernel never ran.
    struct ExecSeries {
        parmul_tasks: Counter,
        parmul_bits: Histogram,
        allocs: Counter,
        alloc_bytes: Counter,
    }

    static EXEC: LazyLock<ExecSeries> = LazyLock::new(|| ExecSeries {
        parmul_tasks: counter(
            "rr_parmul_tasks_total",
            "Fork-join subtasks published by the parallel multiplication splitter",
        ),
        parmul_bits: histogram(
            "rr_parmul_operand_bits",
            "Larger operand bit length per fork-join-split big-integer product",
        ),
        allocs: counter(
            "rr_alloc_total",
            "Limb-buffer acquisitions that hit the system allocator",
        ),
        alloc_bytes: counter(
            "rr_alloc_bytes_total",
            "Bytes requested by allocator-hitting limb-buffer acquisitions",
        ),
    });

    /// Mirrors one counted event into its registry series, if it has one.
    #[inline]
    pub(super) fn mirror(label: Exec, n: u64) {
        let series = &*EXEC;
        match label {
            Exec::ParmulTasks => series.parmul_tasks.add(n),
            Exec::ParmulOperandBits => series.parmul_bits.record(n),
            Exec::Allocs => series.allocs.add(n),
            Exec::AllocBytes => series.alloc_bytes.add(n),
            _ => {}
        }
    }
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
/// The event goes to the innermost installed [`crate::SolveCtx`]; with no
/// context installed it is not recorded.
#[inline]
pub fn record_mul(a_bits: u64, b_bits: u64) {
    if obs_metrics::sampled() {
        obs_metrics::MUL_BITS.record(a_bits.max(b_bits));
    }
    let phase = CURRENT_PHASE.with(Cell::get);
    crate::session::record(|c| c.record_mul(phase, a_bits, b_bits));
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
    crate::session::record(|c| c.record_div(phase, q_bits, b_bits));
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
    crate::session::record(|c| c.record_mul_bulk(phase, count, bits));
}

/// Adds each `(label, n)` to the execution counters under the calling
/// thread's current phase, in the innermost installed
/// [`crate::SolveCtx`] (nothing is recorded with no context installed).
/// Called by the kernels — Kronecker products, Newton and 2-adic
/// division, fork-join splitting, scratch-arena cold misses — with every
/// counter of one event in a single call; not usually called directly.
///
/// `ParmulTasks`, `ParmulOperandBits`, `Allocs` and `AllocBytes` also
/// feed the always-on registry series `rr_parmul_tasks_total`,
/// `rr_parmul_operand_bits`, `rr_alloc_total` and `rr_alloc_bytes_total`,
/// context or not.
#[inline]
pub fn count(events: &[(Exec, u64)]) {
    for &(label, n) in events {
        obs_metrics::mirror(label, n);
    }
    let phase = CURRENT_PHASE.with(Cell::get);
    crate::session::record(|c| c.count(phase, events));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Int, Profile, SolveCtx};

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
    fn context_counts_region() {
        let ctx = SolveCtx::new(Profile::Paper);
        ctx.run(|| {
            with_phase(Phase::TreePoly, || {
                let x = Int::from(12345u64);
                let y = Int::from(99999u64);
                let _ = &x * &y;
                let _ = &x * &y;
            })
        });
        let d = ctx.snapshot();
        assert_eq!(d.phase(Phase::TreePoly).mul_count, 2);
        // bit cost of 12345 (14 bits) * 99999 (17 bits), twice
        assert_eq!(d.phase(Phase::TreePoly).mul_bits, 2 * 14 * 17);
    }

    #[test]
    fn divisions_recorded_separately() {
        let ctx = SolveCtx::new(Profile::Paper);
        ctx.run(|| {
            with_phase(Phase::Baseline, || {
                let x = Int::from(1_000_000_007u64);
                let y = Int::from(97u64);
                let _ = &x / &y;
            })
        });
        let d = ctx.snapshot();
        assert_eq!(d.phase(Phase::Baseline).div_count, 1);
        assert_eq!(d.phase(Phase::Baseline).mul_count, 0);
    }

    #[test]
    fn cross_thread_aggregation() {
        let ctx = SolveCtx::new(Profile::Paper);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let ctx = ctx.clone();
                std::thread::spawn(move || {
                    ctx.run(|| {
                        with_phase(Phase::PreInterval, || {
                            let _ = Int::from(7u64) * Int::from(9u64);
                        })
                    })
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ctx.snapshot().phase(Phase::PreInterval).mul_count, 4);
    }

    #[test]
    fn total_sums_phases() {
        let ctx = SolveCtx::new(Profile::Paper);
        ctx.run(|| {
            with_phase(Phase::Sort, || {
                let _ = Int::from(3u64) * Int::from(5u64);
            });
            with_phase(Phase::Sieve, || {
                let _ = Int::from(3u64) * Int::from(5u64);
            });
        });
        assert_eq!(ctx.snapshot().total().mul_count, 2);
    }

    #[test]
    fn no_context_records_nothing() {
        let ctx = SolveCtx::new(Profile::Paper);
        with_phase(Phase::Sort, || {
            let _ = Int::from(3u64) * Int::from(5u64);
            count(&[(Exec::Allocs, 1)]);
        });
        assert_eq!(ctx.snapshot(), CostSnapshot::default());
        assert_eq!(ctx.exec(), ExecSnapshot::default());
    }

    #[test]
    fn exec_counts_land_under_the_current_phase() {
        let ctx = SolveCtx::new(Profile::Paper);
        ctx.run(|| {
            with_phase(Phase::RemainderSeq, || {
                count(&[(Exec::ExactDivs, 1), (Exec::HenselSteps, 3)]);
                count(&[(Exec::ExactDivs, 1)]);
            });
            with_phase(Phase::TreePoly, || count(&[(Exec::ExactDivs, 5)]));
        });
        let e = ctx.exec();
        assert_eq!(e.phase(Phase::RemainderSeq, Exec::ExactDivs), 2);
        assert_eq!(e.phase(Phase::RemainderSeq, Exec::HenselSteps), 3);
        assert_eq!(e.phase(Phase::TreePoly, Exec::ExactDivs), 5);
        assert_eq!(e.get(Exec::ExactDivs), 7);
        assert_eq!(e.get(Exec::NewtonDivs), 0);
        // The model counters never see execution events.
        assert_eq!(ctx.snapshot(), CostSnapshot::default());
    }

    #[test]
    fn labels_are_distinct_and_in_index_order() {
        for (i, label) in ALL_EXEC.iter().enumerate() {
            assert_eq!(*label as usize, i);
        }
        let keys: std::collections::HashSet<_> = ALL_EXEC.iter().map(|e| e.label()).collect();
        assert_eq!(keys.len(), NUM_EXEC);
    }

    #[test]
    fn cost_snapshot_add_is_inverse_of_sub() {
        let ctx = SolveCtx::new(Profile::Paper);
        let before = ctx.snapshot();
        ctx.run(|| {
            with_phase(Phase::Newton, || {
                let _ = Int::from(17u64) * Int::from(19u64);
            })
        });
        let after = ctx.snapshot();
        assert_eq!(before + (after - before), after);
    }
}
