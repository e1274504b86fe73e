//! Fork-join parallel multiplication — the `Profile::Fast` kernel layer
//! for products too large for one worker.
//!
//! The paper's parallelism lives *between* polynomial-level tasks, but
//! at n ≥ 64 the wall-clock of a single solve concentrates inside
//! individual huge-operand products: one Kronecker-packed multiply or
//! one 10⁴–10⁵-bit remainder-step multiply runs on one worker while the
//! rest of the pool idles. This module decomposes those products into
//! independent subproducts executed through [`rr_sched::join_here`] on
//! whatever pool scope is ambient on the calling thread — the same
//! per-solve scope that runs the polynomial-level tasks, so intra- and
//! inter-multiply parallelism share one worker set and one concurrency
//! cap.
//!
//! ## Split strategy
//!
//! Above [`PAR_MUL_THRESHOLD`] limbs (both operands) the kernel applies
//! the top-level Karatsuba decomposition and runs its three independent
//! subproducts as a fork-join pair tree: `z₁` inline on the submitting
//! worker, `z₀` and `z₂` as claimable subtasks. Each subproduct recurses
//! through the same split while its halves stay above the threshold,
//! then falls through to the serial Karatsuba kernel ([`super::kmul`]).
//! Very unbalanced products are first cut into balanced limb-block tiles
//! of the short operand's length (the same chunking as the serial
//! kernel); tiles are computed into per-tile buffers by a halving
//! fork-join tree and combined serially with the carry-propagating
//! [`kmul::add_at`]. Combination order never affects the limbs: an exact
//! integer product is unique, so the parallel kernels are bit-identical
//! to the serial ones by construction — the differential suite
//! (`crates/mp/tests/parmul_diff.rs`) holds them to that.
//!
//! ## Deadlock freedom and degradation
//!
//! [`rr_sched::join_here`] never blocks on an unclaimed subtask: the
//! submitter either retracts it and runs it inline, or — if another
//! worker claimed it — helps execute *other* join subtasks of the same
//! scope while waiting. With no ambient scope, or a single-worker pool
//! (`RR_POOL_THREADS=1`), both halves run inline with zero publication
//! overhead, so the kernel degrades to plain recursive Karatsuba.
//!
//! ## Scratch discipline
//!
//! The submitting worker takes every buffer that crosses the fork
//! (subproduct outputs, half-sums) from *its* arena and returns them
//! there — remote workers only write into those buffers. Temporaries
//! *inside* a claimed subtask come from the executing worker's own
//! arena, preserving the take/put-on-one-thread contract of
//! [`crate::scratch`].
//!
//! Like the serial kernels, nothing here records into the paper cost
//! model: [`crate::metrics`] charges each product once at the `Int`
//! layer before any kernel runs, which is what keeps `figs2_5`/`table1`
//! bit-identical across profiles. What the splitter *executed* is
//! recorded separately under the `Parmul*` [`Exec`] labels.

use super::{kmul, trim};
use crate::limb::Limb;
use crate::metrics::Exec;
use kmul::{add_at, trimmed};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Granularity of the split layer, in limbs: a product engages
/// when its schoolbook-proxy work `a.len()·b.len()` can fund a fork of
/// threshold-sized subtasks (≥ 3·t² limb-pairs, see
/// `super::par_mul_engaged`), and no leaf subtask carries much less
/// than a t × t product's worth of work.
///
/// A 32×32-limb (2048-bit) product runs a microsecond-plus — above the
/// sub-microsecond publish/retract cost of a join subtask — and the
/// remainder-phase products this layer targets (10⁴–10⁵ bits at
/// n ≥ 64) sit well above the engage floor and split several levels
/// deep. Calibrated with `kernel_ablation --sweep` (see
/// EXPERIMENTS.md): 32 is the lowest setting whose single-worker
/// overhead stays within noise of the serial kernel at every measured
/// degree; lower settings (16) buy ~10 more points of remainder-phase
/// split coverage at a 20–30 % single-worker cost, worthwhile only
/// when idle workers are guaranteed.
pub const PAR_MUL_THRESHOLD: usize = 32;

/// Ceiling on leaf subtasks per top-level product.
///
/// The engage threshold decides *whether* a product is worth splitting;
/// this decides *how far*. Without it a Kronecker-packed tree-phase
/// product (10³–10⁴ limbs) would recurse clear down to threshold-sized
/// confetti — thousands of publish/retract cycles per product for a
/// pool that is capped at 16 workers. Each recursion level divides the
/// remaining budget across its branches and splitting stops when the
/// budget can no longer fund a fork, so a product decomposes into at
/// most ~64 leaves, each ≳ 1/64th of the product — comfortably more
/// than the whole pool can claim, coarse enough that the per-fork cost
/// stays invisible next to the leaf work. Products near the engage
/// threshold get proportionally less: the top-level budget is scaled to
/// the schoolbook-proxy work (see [`task_budget`]) so no leaf ever
/// falls much below a `t × t` product's worth of work.
pub const PAR_MUL_TASK_BUDGET: usize = 64;

/// Top-level task budget for a product of `work = a.len()·b.len()`
/// limb-pairs: one budget unit per `t²` of work, capped at
/// [`PAR_MUL_TASK_BUDGET`]. Keeps leaf granularity roughly constant
/// (≈ one threshold-sized product per leaf) across the four decades of
/// product sizes the solver generates.
fn task_budget(work: usize, t: usize) -> usize {
    PAR_MUL_TASK_BUDGET.min(work / (t * t))
}

/// The split threshold `t` plus the subtask/steal tally for one
/// top-level product, shared across the fork-join tree by reference
/// (atomics: leaves run on other workers).
#[derive(Default)]
struct SplitCounters {
    t: usize,
    tasks: AtomicU64,
    steals: AtomicU64,
}

/// Work/span bookkeeping for one open [`measured`] closure: what its
/// nested joins cost this thread locally (including any wait for a
/// thief) and what they amounted to as serial work / critical path.
#[derive(Default)]
struct Frame {
    local_ns: u64,
    work_ns: u64,
    span_ns: u64,
}

thread_local! {
    /// Stack of open measurement frames on this worker. Nested joins
    /// report into the innermost frame; a thief executing a claimed
    /// subtask opens its own frame on its own stack, so the accounting
    /// follows the closures wherever they run.
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` and returns its `(work, span)` in nanoseconds: `work` is
/// what `f` and everything it forked would cost executed serially,
/// `span` the longest dependency chain — its cost on unboundedly many
/// workers. Own (non-forked) time is wall-clock on the executing
/// worker; time spent *waiting* for a stolen half is excluded (the
/// enclosing frame's `local_ns` covers the whole `join_here` call,
/// while only the halves' measured work is added back).
fn measured(f: impl FnOnce()) -> (u64, u64) {
    FRAMES.with(|s| s.borrow_mut().push(Frame::default()));
    let t0 = Instant::now();
    f();
    let local = t0.elapsed().as_nanos() as u64;
    let fr = FRAMES.with(|s| s.borrow_mut().pop()).expect("frame pushed above");
    let own = local.saturating_sub(fr.local_ns);
    (own + fr.work_ns, own + fr.span_ns)
}

impl SplitCounters {
    /// Wraps one [`rr_sched::join_here`] call: counts the submitted
    /// subtask, whether another worker actually claimed it, and the
    /// fork's work/span contribution to the enclosing frame
    /// (`work(a) + work(b)` and `max(span(a), span(b))`).
    fn join(&self, a: impl FnOnce() + Send, b: impl FnOnce() + Send) {
        self.tasks.fetch_add(1, Ordering::Relaxed);
        // (work, span) slots for each half; the stolen-half stores are
        // ordered before the loads below by the join's completion
        // synchronization.
        let a_ws = (AtomicU64::new(0), AtomicU64::new(0));
        let b_ws = (AtomicU64::new(0), AtomicU64::new(0));
        let t0 = Instant::now();
        let stolen = {
            let (a_ws, b_ws) = (&a_ws, &b_ws);
            rr_sched::join_here(
                move || {
                    let (w, s) = measured(a);
                    a_ws.0.store(w, Ordering::Relaxed);
                    a_ws.1.store(s, Ordering::Relaxed);
                },
                move || {
                    let (w, s) = measured(b);
                    b_ws.0.store(w, Ordering::Relaxed);
                    b_ws.1.store(s, Ordering::Relaxed);
                },
            )
        };
        let local_ns = t0.elapsed().as_nanos() as u64;
        if stolen {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
        let (wa, sa) = (a_ws.0.load(Ordering::Relaxed), a_ws.1.load(Ordering::Relaxed));
        let (wb, sb) = (b_ws.0.load(Ordering::Relaxed), b_ws.1.load(Ordering::Relaxed));
        FRAMES.with(|s| {
            if let Some(fr) = s.borrow_mut().last_mut() {
                fr.local_ns += local_ns;
                fr.work_ns += wa + wb;
                fr.span_ns += sa.max(sb);
            }
        });
    }
}

/// Product of two magnitudes, split across the ambient pool scope.
/// Matches [`kmul::mul_into`] bit-for-bit; same destination contract
/// (cleared and fully overwritten, dirty scratch buffers welcome,
/// no aliasing with the operands).
///
/// Callers gate on size and idle capacity — see `super::par_mul_engaged`;
/// calling this below [`PAR_MUL_THRESHOLD`] is correct but pays the
/// counter and span overhead for a product the tree will not split.
pub fn mul_into(a: &[Limb], b: &[Limb], out: &mut Vec<Limb>) {
    mul_with_threshold_into(a, b, PAR_MUL_THRESHOLD, out);
}

/// [`mul_into`] with an explicit split threshold `t` (clamped to ≥ 2) —
/// the calibration entry point `kernel_ablation --sweep` drives, the way
/// [`super::newton_div::div_rem_with_threshold`] exposes its crossover.
pub fn mul_with_threshold_into(a: &[Limb], b: &[Limb], t: usize, out: &mut Vec<Limb>) {
    let (a, b) = (trimmed(a), trimmed(b));
    let _span = rr_obs::span("parmul", "mul")
        .with_arg("a_limbs", a.len() as u64)
        .with_arg("b_limbs", b.len() as u64);
    let counters = SplitCounters { t: t.max(2), ..SplitCounters::default() };
    let budget = task_budget(a.len() * b.len(), counters.t);
    let (work, span) = measured(|| mul_rec(a, b, out, &counters, budget));
    record(&counters, super::bit_len(a).max(super::bit_len(b)), work, span);
}

/// Square of a magnitude, split across the ambient pool scope. Matches
/// [`kmul::square_into`] bit-for-bit.
pub fn square_into(a: &[Limb], out: &mut Vec<Limb>) {
    let a = trimmed(a);
    let _span = rr_obs::span("parmul", "sqr").with_arg("a_limbs", a.len() as u64);
    let counters = SplitCounters { t: PAR_MUL_THRESHOLD, ..SplitCounters::default() };
    let budget = task_budget(a.len() * a.len(), counters.t);
    let (work, span) = measured(|| sqr_rec(a, out, &counters, budget));
    record(&counters, super::bit_len(a), work, span);
}

/// Flushes one finished fork-join tree into the execution stats — only
/// if it actually split (a gated call that fell straight through to the
/// serial kernel is not a parallel product).
fn record(c: &SplitCounters, operand_bits: u64, work_ns: u64, span_ns: u64) {
    let tasks = c.tasks.load(Ordering::Relaxed);
    if tasks > 0 {
        crate::metrics::count(&[
            (Exec::ParmulProducts, 1),
            (Exec::ParmulTasks, tasks),
            (Exec::ParmulSteals, c.steals.load(Ordering::Relaxed)),
            (Exec::ParmulOperandBits, operand_bits),
            (Exec::ParmulWorkNs, work_ns),
            (Exec::ParmulSpanNs, span_ns),
        ]);
    }
}

/// Recursive splitter. `a` and `b` are trimmed; falls through to the
/// serial Karatsuba kernel once the schoolbook-proxy work drops below
/// a threshold-sized product or the remaining task `budget` cannot
/// fund another three-way fork.
fn mul_rec(a: &[Limb], b: &[Limb], out: &mut Vec<Limb>, c: &SplitCounters, budget: usize) {
    let t = c.t;
    if budget < 3 || a.len() * b.len() < t * t {
        kmul::mul_into(a, b, out);
        return;
    }
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    if long.len() >= 2 * short.len() {
        mul_tiled(long, short, out, c, budget);
        return;
    }

    // Balanced: the three-product Karatsuba split of kmul::karatsuba,
    // with z₀ and z₂ claimable by other workers and z₁ — the largest
    // subproduct — on the submitting worker. The half-sums are linear
    // work, computed here before the fork.
    let m = long.len() / 2;
    let (a0, a1) = (trimmed(&long[..m]), trimmed(&long[m..]));
    let (b0, b1) = (trimmed(&short[..m]), trimmed(&short[m..]));
    let mut sa = crate::scratch::take(a0.len().max(a1.len()) + 1);
    super::add_into(a0, a1, &mut sa);
    let mut sb = crate::scratch::take(b0.len().max(b1.len()) + 1);
    super::add_into(b0, b1, &mut sb);
    let mut z0 = crate::scratch::take(a0.len() + b0.len());
    let mut z2 = crate::scratch::take(a1.len() + b1.len());
    let mut z1 = crate::scratch::take(sa.len() + sb.len());
    {
        let (z0_ref, z2_ref, z1_ref) = (&mut z0, &mut z2, &mut z1);
        let (sa_ref, sb_ref) = (&sa[..], &sb[..]);
        let sub = budget / 3;
        c.join(
            || {
                // Nested pair: z₀ inline on whoever runs this closure,
                // z₂ claimable by a third worker.
                c.join(
                    || mul_rec(a0, b0, z0_ref, c, sub),
                    || mul_rec(a1, b1, z2_ref, c, sub),
                );
            },
            || mul_rec(sa_ref, sb_ref, z1_ref, c, sub),
        );
    }
    super::sub_assign(&mut z1, &z0);
    super::sub_assign(&mut z1, &z2);

    out.clear();
    out.resize(long.len() + short.len(), 0);
    add_at(out, 0, &z0);
    add_at(out, m, &z1);
    add_at(out, 2 * m, &z2);
    trim(out);
    crate::scratch::put(z1);
    crate::scratch::put(z2);
    crate::scratch::put(z0);
    crate::scratch::put(sb);
    crate::scratch::put(sa);
}

/// Recursive squaring splitter: the same tree with both operands equal,
/// so every subproduct is itself a square.
fn sqr_rec(a: &[Limb], out: &mut Vec<Limb>, c: &SplitCounters, budget: usize) {
    if budget < 3 || a.len() < c.t {
        kmul::square_into(a, out);
        return;
    }
    let m = a.len() / 2;
    let (a0, a1) = (trimmed(&a[..m]), trimmed(&a[m..]));
    let mut s = crate::scratch::take(a0.len().max(a1.len()) + 1);
    super::add_into(a0, a1, &mut s);
    let mut z0 = crate::scratch::take(2 * a0.len());
    let mut z2 = crate::scratch::take(2 * a1.len());
    let mut z1 = crate::scratch::take(2 * s.len());
    {
        let (z0_ref, z2_ref, z1_ref) = (&mut z0, &mut z2, &mut z1);
        let s_ref = &s[..];
        let sub = budget / 3;
        c.join(
            || {
                c.join(|| sqr_rec(a0, z0_ref, c, sub), || sqr_rec(a1, z2_ref, c, sub));
            },
            || sqr_rec(s_ref, z1_ref, c, sub),
        );
    }
    super::sub_assign(&mut z1, &z0);
    super::sub_assign(&mut z1, &z2);

    out.clear();
    out.resize(2 * a.len(), 0);
    add_at(out, 0, &z0);
    add_at(out, m, &z1);
    add_at(out, 2 * m, &z2);
    trim(out);
    crate::scratch::put(z1);
    crate::scratch::put(z2);
    crate::scratch::put(z0);
    crate::scratch::put(s);
}

/// Unbalanced product (`long.len() ≥ 2·short.len()`): cuts `long` into
/// tiles, computes every tile × `short` product in parallel into its
/// own buffer, then combines serially — the carry chains of
/// [`kmul::add_at`] overlap between neighbouring tiles, so the combine
/// is the one part that stays sequential (it is linear; the tile
/// products are the quadratic-ish work).
///
/// Tile width is `long.len()` cut into at most `budget` chunks, never
/// narrower than `short` (narrower tiles repeat the short operand's
/// combine work without adding parallelism), so the task count and the
/// per-tile buffer count are both budget-bounded; leftover budget funds
/// splitting inside each tile product.
fn mul_tiled(long: &[Limb], short: &[Limb], out: &mut Vec<Limb>, c: &SplitCounters, budget: usize) {
    let tile = long.len().div_ceil(budget).max(short.len());
    // Per-tile output buffers, taken and returned on the submitting
    // worker; claimed subtasks only write into their slot.
    let mut prods: Vec<Vec<Limb>> = long
        .chunks(tile)
        .map(|ch| crate::scratch::take(ch.len() + short.len()))
        .collect();
    let per_tile = budget / prods.len();
    tile_rec(long, short, tile, &mut prods, c, per_tile);
    out.clear();
    out.resize(long.len() + short.len(), 0);
    for (i, p) in prods.iter().enumerate() {
        add_at(out, i * tile, p);
    }
    trim(out);
    for p in prods.drain(..).rev() {
        crate::scratch::put(p);
    }
}

/// Halving fork-join over the tile range: left half inline, right half
/// claimable, one leaf per tile product, each with `per_tile` budget
/// for its own internal splits.
fn tile_rec(
    long: &[Limb],
    short: &[Limb],
    tile: usize,
    prods: &mut [Vec<Limb>],
    c: &SplitCounters,
    per_tile: usize,
) {
    if prods.len() == 1 {
        mul_rec(trimmed(long), short, &mut prods[0], c, per_tile);
        return;
    }
    let mid = prods.len() / 2;
    let (left_p, right_p) = prods.split_at_mut(mid);
    let (left_l, right_l) = long.split_at(mid * tile);
    c.join(
        || tile_rec(left_l, short, tile, left_p, c, per_tile),
        || tile_rec(right_l, short, tile, right_p, c, per_tile),
    );
}

#[cfg(test)]
mod tests {
    use super::super::mul as school;
    use super::*;

    fn limbs(n: usize, seed: u64) -> Vec<Limb> {
        // Splitmix-style fill with a nonzero top limb.
        let mut v: Vec<Limb> = (0..n as u64)
            .map(|i| {
                let mut x = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x ^ (x >> 31)
            })
            .collect();
        if let Some(top) = v.last_mut() {
            *top |= 1;
        }
        v
    }

    /// With no ambient pool scope, every join runs inline — the kernels
    /// are then plain recursive Karatsuba and must match schoolbook.
    #[test]
    fn inline_balanced_split_matches_schoolbook() {
        let a = limbs(PAR_MUL_THRESHOLD * 2 + 3, 1);
        let b = limbs(PAR_MUL_THRESHOLD * 2 - 5, 2);
        let mut out = Vec::new();
        mul_into(&a, &b, &mut out);
        assert_eq!(out, school::mul(&a, &b));
    }

    #[test]
    fn inline_tiled_split_matches_schoolbook() {
        let a = limbs(PAR_MUL_THRESHOLD * 5 + 7, 3);
        let b = limbs(PAR_MUL_THRESHOLD, 4);
        let mut out = Vec::new();
        mul_into(&a, &b, &mut out);
        assert_eq!(out, school::mul(&a, &b));
        // And symmetrically.
        let mut out2 = Vec::new();
        mul_into(&b, &a, &mut out2);
        assert_eq!(out2, out);
    }

    /// A long × short product whose short side is below the threshold
    /// still engages the tiled path — the work-proxy gate admits it —
    /// and must stay bit-identical to the serial kernels.
    #[test]
    fn tiled_split_with_subthreshold_short_matches_schoolbook() {
        let ctx = crate::SolveCtx::new(crate::Profile::Fast);
        let a = limbs(PAR_MUL_THRESHOLD * 8, 10);
        let b = limbs(PAR_MUL_THRESHOLD / 2, 11);
        ctx.run(|| {
            let mut out = Vec::new();
            mul_into(&a, &b, &mut out);
            assert_eq!(out, school::mul(&a, &b));
        });
        let s = ctx.exec();
        assert_eq!(s.get(Exec::ParmulProducts), 1, "work proxy admits the sub-threshold short side");
        assert!(s.get(Exec::ParmulTasks) >= 2);
    }

    #[test]
    fn inline_square_matches_schoolbook() {
        let a = limbs(PAR_MUL_THRESHOLD * 2 + 1, 5);
        let mut out = Vec::new();
        square_into(&a, &mut out);
        assert_eq!(out, school::mul(&a, &a));
    }

    #[test]
    fn below_threshold_falls_through_without_recording() {
        let ctx = crate::SolveCtx::new(crate::Profile::Fast);
        let a = limbs(PAR_MUL_THRESHOLD - 1, 6);
        ctx.run(|| {
            let mut out = Vec::new();
            mul_into(&a, &a.clone(), &mut out);
            assert_eq!(out, school::mul(&a, &a));
        });
        assert_eq!(ctx.exec().get(Exec::ParmulProducts), 0, "no split, no product recorded");
    }

    #[test]
    fn split_products_record_execution_stats() {
        let ctx = crate::SolveCtx::new(crate::Profile::Fast);
        let a = limbs(PAR_MUL_THRESHOLD * 2, 7);
        ctx.run(|| {
            let mut out = Vec::new();
            mul_into(&a, &a, &mut out);
        });
        let s = ctx.exec();
        assert_eq!(s.get(Exec::ParmulProducts), 1);
        assert!(s.get(Exec::ParmulTasks) >= 2, "one balanced split submits two subtasks");
        assert_eq!(s.get(Exec::ParmulSteals), 0, "no pool scope: every subtask ran inline");
        assert_eq!(s.get(Exec::ParmulOperandBits), super::super::bit_len(&a));
        let (work, span) = (s.get(Exec::ParmulWorkNs), s.get(Exec::ParmulSpanNs));
        assert!(work > 0, "a split product measures nonzero work");
        assert!(
            span > 0 && span <= work,
            "critical path is positive and no longer than the work: {s:?}"
        );
    }

    #[test]
    fn dirty_destination_is_fully_overwritten() {
        let a = limbs(PAR_MUL_THRESHOLD * 2, 8);
        let b = limbs(PAR_MUL_THRESHOLD + 9, 9);
        let mut out = vec![Limb::MAX; 4 * PAR_MUL_THRESHOLD + 64];
        mul_into(&a, &b, &mut out);
        assert_eq!(out, school::mul(&a, &b));
    }
}
