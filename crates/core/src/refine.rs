//! Root refinement inside a true isolating interval: the hybrid
//! double-exponential sieve → bisection → Newton method of Section 2.2,
//! in exact scaled-integer arithmetic.
//!
//! All points are scaled integers at precision `µ` (value `z/2^µ`). Given
//! an open isolating interval `(lo, hi)` with `sign P(lo) = s_lo ≠ 0` and
//! `sign P(hi) = −s_lo`, the goal is the correctly-rounded
//! `µ`-approximation `⌈2^µ·ξ⌉` of the unique root `ξ` inside — i.e. the
//! scaled integer `g ∈ [lo+1, hi]` with `ξ ∈ (g−1, g]`.
//!
//! The three phases (each attributed to its own [`Phase`] so the
//! multiplication counts of Figures 2–7 can be reproduced):
//!
//! 1. **Double-exponential sieve** — while the root falls in the left
//!    half, probe `lo + len/2^{2^i}` for `i = 1, 2, …` to shrink the
//!    interval double-exponentially; stop the whole phase the first time
//!    the root falls in the right half (paper: then `log2(10n²)`
//!    bisections suffice for a Newton-safe interval).
//! 2. **Bisection** — `⌈log2(10·d²)⌉` halvings (Renegar's margin,
//!    Lemma 2.1).
//! 3. **Newton** — safeguarded Newton iteration: steps that leave the
//!    bracket (or a vanishing derivative) fall back to bisection, so the
//!    exactness guarantee never depends on Newton behaving.

use rr_mp::metrics::{with_phase, Phase};
use rr_mp::Int;
use rr_poly::eval::ScaledPoly;

/// How isolated roots are refined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefineStrategy {
    /// The paper's hybrid: sieve, bisection, Newton.
    #[default]
    Hybrid,
    /// Pure bisection (the simple alternative the paper mentions) — used
    /// as an ablation.
    BisectOnly,
    /// Sieve + bisection + regula falsi with the Illinois modification —
    /// one of the derivative-free alternatives \[BT90\] alludes to
    /// ("Other methods are described in \[BT90\]"); superlinear without
    /// evaluating `P'`.
    SecantHybrid,
}

/// Bracket state: root `ξ ∈ (lo, hi]`, `sign P(lo) = s_lo ≠ 0`.
struct Bracket<'a> {
    sp: &'a ScaledPoly,
    lo: Int,
    hi: Int,
    s_lo: i32,
}

impl Bracket<'_> {
    fn width(&self) -> Int {
        &self.hi - &self.lo
    }

    /// True once the answer is pinned: `ξ ∈ (hi−1, hi]` ⟹ `⌈2^µξ⌉ = hi`.
    fn done(&self) -> bool {
        self.width() <= Int::one()
    }

    /// Tests the sign at `z` (must satisfy `lo < z < hi`) and shrinks the
    /// bracket. Returns `Some(z)` if `z` is exactly the root.
    fn probe(&mut self, z: Int) -> Option<Int> {
        debug_assert!(self.lo < z && z < self.hi);
        let s = self.sp.sign_at(&z);
        if s == 0 {
            return Some(z);
        }
        if s == self.s_lo {
            self.lo = z;
        } else {
            self.hi = z;
        }
        None
    }

    fn bisect_once(&mut self) -> Option<Int> {
        let m = &self.lo + self.width().shr_floor(1);
        self.probe(m)
    }
}

/// Computes `⌈2^µ·ξ⌉` for the unique root `ξ` of `sp`'s polynomial in the
/// half-open interval `(lo, hi]`, given `s_lo ≠ 0` the sign of `P` just
/// right of `lo` (either `sign P(lo) = s_lo`, or `lo` is itself a root of
/// `P` with `ξ` strictly above it) and `sign P(hi) ≠ s_lo` (zero means
/// `ξ = hi` exactly).
///
/// `spd` is the scaled derivative (same `µ`), used by the Newton phase.
pub fn isolate_root(
    sp: &ScaledPoly,
    spd: &ScaledPoly,
    lo: &Int,
    s_lo: i32,
    hi: &Int,
    strategy: RefineStrategy,
) -> Int {
    debug_assert!(s_lo != 0 && lo < hi);
    debug_assert!(matches!(sp.sign_at(lo), s if s == s_lo || s == 0));
    debug_assert_ne!(sp.sign_at(hi), s_lo);
    // ξ ∈ (lo, hi) ⊆ (lo, hi]: the bracket invariant holds.
    let mut b = Bracket { sp, lo: lo.clone(), hi: hi.clone(), s_lo };
    match strategy {
        RefineStrategy::BisectOnly => {
            with_phase(Phase::Bisection, || loop {
                if b.done() {
                    return b.hi;
                }
                if let Some(root) = b.bisect_once() {
                    return root;
                }
            })
        }
        RefineStrategy::Hybrid | RefineStrategy::SecantHybrid => {
            if let Some(root) = with_phase(Phase::Sieve, || sieve(&mut b)) {
                return root;
            }
            let d = sp.degree() as u64;
            // ⌈log2(10·d²)⌉ bisections (Renegar margin).
            let steps = 64 - (10 * d * d).leading_zeros() as u64;
            if let Some(root) = with_phase(Phase::Bisection, || {
                for _ in 0..steps {
                    if b.done() {
                        break;
                    }
                    if let Some(root) = b.bisect_once() {
                        return Some(root);
                    }
                }
                None
            }) {
                return root;
            }
            if strategy == RefineStrategy::SecantHybrid {
                with_phase(Phase::Newton, || illinois(&mut b))
            } else {
                with_phase(Phase::Newton, || newton(&mut b, spd))
            }
        }
    }
}

/// Regula falsi with the Illinois modification: derivative-free
/// superlinear refinement. Endpoint function values are carried along;
/// when the same endpoint survives twice its retained value is halved,
/// which prevents the classic one-sided stall. Falls back to bisection
/// on any degeneracy, so exactness is unconditional.
fn illinois(b: &mut Bracket<'_>) -> Int {
    if b.done() {
        return b.hi.clone();
    }
    let mut v_lo = b.sp.eval(&b.lo);
    let mut v_hi = b.sp.eval(&b.hi);
    if v_hi.is_zero() {
        // the root is exactly the upper endpoint
        return b.hi.clone();
    }
    if v_lo.is_zero() || v_lo.signum() == v_hi.signum() {
        // `lo` sits exactly on a neighbouring root (the sign-just-right
        // contract): the secant through it is degenerate — bisect instead.
        return bisect_to_end(b);
    }
    let mut side = 0i8; // which endpoint survived the previous step
    for _ in 0..128 {
        if b.done() {
            return b.hi.clone();
        }
        // falsi point x = (lo·v_hi − hi·v_lo) / (v_hi − v_lo), clamped to
        // the open interval
        let denom = &v_hi - &v_lo;
        debug_assert!(!denom.is_zero());
        let mut x = (&b.lo * &v_hi - &b.hi * &v_lo).div_floor(&denom);
        let lo_plus = &b.lo + Int::one();
        let hi_minus = &b.hi - Int::one();
        if x < lo_plus {
            x = lo_plus;
        } else if x > hi_minus {
            x = hi_minus;
        }
        let v = b.sp.eval(&x);
        if v.is_zero() {
            return x;
        }
        if v.signum() == b.s_lo {
            b.lo = x;
            v_lo = v;
            if side == -1 {
                // same side twice: halve the retained opposite value
                v_hi = halve_keeping_sign(&v_hi);
            }
            side = -1;
        } else {
            b.hi = x;
            v_hi = v;
            if side == 1 {
                v_lo = halve_keeping_sign(&v_lo);
            }
            side = 1;
        }
    }
    bisect_to_end(b)
}

/// Halves a nonzero value, never letting it reach zero (the Illinois
/// weight must keep its sign).
fn halve_keeping_sign(v: &Int) -> Int {
    let h = v.shr_floor(1);
    if h.is_zero() {
        Int::from(v.signum())
    } else {
        h
    }
}

/// The double-exponential sieve. Narrows `b` until the root falls in the
/// right half of the current interval (or the interval is tiny). Returns
/// the root if some probe hits it exactly.
fn sieve(b: &mut Bracket<'_>) -> Option<Int> {
    loop {
        let len = b.width();
        if len <= Int::from(2u8) {
            return None;
        }
        // Midpoint test: which half?
        let m = &b.lo + len.shr_floor(1);
        let hi_before = b.hi.clone();
        match b.probe(m) {
            Some(root) => return Some(root),
            None => {
                if b.hi != hi_before {
                    // hi moved: root in the left half. Double-exponential
                    // scan: probe lo + len/2^(2^i) while the root stays
                    // left of the probe.
                    let mut i = 1u32;
                    loop {
                        let shift = 1u64 << i;
                        if shift >= len.bit_len() {
                            break; // probe would collapse to lo
                        }
                        let p = &b.lo + len.shr_floor(shift);
                        if p <= b.lo || p >= b.hi {
                            break;
                        }
                        let lo_before = b.lo.clone();
                        match b.probe(p) {
                            Some(root) => return Some(root),
                            None => {
                                if b.lo != lo_before {
                                    // root is right of the probe: i0 found
                                    break;
                                }
                                i += 1;
                            }
                        }
                    }
                    // outer loop: halve the new interval again
                } else {
                    // lo moved: root in the right half — sieve finished.
                    return None;
                }
            }
        }
    }
}

/// Safeguarded Newton iteration: the iterate carries over between steps
/// (that is what makes convergence quadratic — Renegar's Lemma 2.1
/// guarantees it from any point of the bisection-phase interval), every
/// sample also tightens the sign bracket, and any misbehaving step
/// (outside the bracket, vanishing derivative, too many rounds) falls
/// back to bisection, so termination and exactness are unconditional.
fn newton(b: &mut Bracket<'_>, spd: &ScaledPoly) -> Int {
    let mut x = &b.lo + b.width().shr_floor(1);
    let mut rounds = 0u32;
    loop {
        if b.done() {
            return b.hi.clone();
        }
        if x <= b.lo || x >= b.hi {
            x = &b.lo + b.width().shr_floor(1);
        }
        let val = b.sp.eval(&x);
        match val.signum() {
            0 => return x,
            s if s == b.s_lo => b.lo = x.clone(),
            _ => b.hi = x.clone(),
        }
        if b.done() {
            return b.hi.clone();
        }
        let dval = spd.eval(&x);
        if !dval.is_zero() {
            // In scaled coordinates the Newton step is val/dval exactly
            // (the 2^µ scalings cancel: see ScaledPoly docs).
            let step = &val / &dval;
            let x_next = &x - &step;
            if (&x_next - &x).abs() <= Int::one() {
                // Converged to ~1 ulp: pin the exact ceiling.
                return finish_near(b, x_next);
            }
            x = x_next;
        } else {
            // Vanishing derivative: the bracket just shrank above, and the
            // next round restarts from its midpoint.
            x = &b.lo + b.width().shr_floor(1);
        }
        rounds += 1;
        if rounds > 128 {
            // Far beyond any quadratic schedule — give up on Newton.
            return bisect_to_end(b);
        }
    }
}

/// Exact finish once Newton has converged to within ~1 ulp: walk the
/// integer grid around `guess` for the smallest `g` with the root in
/// `(g−1, g]`. The walk is almost always 1–2 evaluations; a capped
/// fallback to bisection keeps the worst case sound.
fn finish_near(b: &mut Bracket<'_>, guess: Int) -> Int {
    let mut g = guess;
    for _ in 0..8 {
        if b.done() {
            return b.hi.clone();
        }
        if g <= b.lo {
            g = &b.lo + Int::one();
        } else if g > b.hi {
            g = b.hi.clone();
        }
        if g == b.hi {
            // sign at hi is already known to differ from s_lo; test hi−1.
            g = &b.hi - Int::one();
            if g <= b.lo {
                return b.hi.clone();
            }
        }
        let s = b.sp.sign_at(&g);
        if s == 0 {
            return g;
        }
        if s == b.s_lo {
            b.lo = g.clone();
            g = &g + Int::one();
        } else {
            b.hi = g.clone();
            g = &g - Int::one();
        }
    }
    bisect_to_end(b)
}

fn bisect_to_end(b: &mut Bracket<'_>) -> Int {
    loop {
        if b.done() {
            return b.hi.clone();
        }
        if let Some(root) = b.bisect_once() {
            return root;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_poly::Poly;

    /// Runs `f` under a private context; returns its result and the
    /// multiplications it recorded.
    fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
        let ctx = rr_mp::SolveCtx::new(rr_mp::Profile::Paper);
        let r = ctx.run(f);
        (r, ctx.snapshot().total().mul_count)
    }

    /// Helper: isolate the root of `p` in the real interval (lo, hi) at
    /// precision mu, returning the scaled result.
    fn isolate(p: &Poly, lo: i64, hi: i64, mu: u64, strategy: RefineStrategy) -> Int {
        let sp = ScaledPoly::new(p, mu);
        let spd = ScaledPoly::new(&p.derivative(), mu);
        let lo = Int::from(lo) << mu;
        let hi = Int::from(hi) << mu;
        let s_lo = sp.sign_at(&lo);
        isolate_root(&sp, &spd, &lo, s_lo, &hi, strategy)
    }

    fn check_sqrt2(mu: u64, strategy: RefineStrategy) {
        // x^2 - 2, root √2 in (1, 2): ⌈2^µ·√2⌉.
        let p = Poly::from_i64(&[-2, 0, 1]);
        let got = isolate(&p, 1, 2, mu, strategy);
        // reference: integer sqrt of 2^(2µ+1), ceil
        let target = Int::from(2u8) << (2 * mu);
        // smallest g with g^2 >= 2^(2µ+1)
        let mut g = Int::from((((2.0_f64).sqrt() * (mu as f64).exp2()).ceil()) as i64);
        while &g * &g < target {
            g = g + Int::one();
        }
        while &(&g - Int::one()) * &(&g - Int::one()) >= target {
            g = g - Int::one();
        }
        assert_eq!(got, g, "mu={mu} {strategy:?}");
    }

    #[test]
    fn sqrt2_exact_ceiling_all_precisions() {
        for mu in [0u64, 1, 2, 4, 8, 16, 30] {
            check_sqrt2(mu, RefineStrategy::Hybrid);
            check_sqrt2(mu, RefineStrategy::BisectOnly);
            check_sqrt2(mu, RefineStrategy::SecantHybrid);
        }
    }

    #[test]
    fn secant_agrees_with_newton_everywhere() {
        // several polynomials, precisions, and intervals
        let cases: &[(&[i64], i64, i64)] = &[
            (&[-2, 0, 1], 1, 2),          // √2
            (&[-3, 0, 0, 0, 0, 1], 1, 2), // 3^(1/5)
            (&[-7, -3, 1], -3, 0),        // quadratic negative root
            (&[5, -25, 1], 0, 1),         // root near 0.2
        ];
        for &(coeffs, lo, hi) in cases {
            let p = Poly::from_i64(coeffs);
            for mu in [4u64, 17, 40] {
                let a = isolate(&p, lo, hi, mu, RefineStrategy::Hybrid);
                let b = isolate(&p, lo, hi, mu, RefineStrategy::SecantHybrid);
                assert_eq!(a, b, "{coeffs:?} mu={mu}");
            }
        }
    }

    #[test]
    fn secant_converges_fast() {
        // derivative-free but still far cheaper than bisection at high µ
        let p = Poly::from_i64(&[-2, 0, 1]);
        let (_, secant_cost) = counted(|| isolate(&p, 1, 2, 120, RefineStrategy::SecantHybrid));
        let (_, bisect_cost) = counted(|| isolate(&p, 1, 2, 120, RefineStrategy::BisectOnly));
        assert!(secant_cost < bisect_cost, "{secant_cost} vs {bisect_cost}");
    }

    #[test]
    fn integer_root_on_grid_found_exactly() {
        // root exactly 3 in (1, 5): ceil = 3·2^µ, and some probe must hit
        // it exactly (sign 0 path).
        let p = Poly::from_i64(&[-3, 1]);
        for mu in [0u64, 4, 10] {
            for strat in [RefineStrategy::Hybrid, RefineStrategy::BisectOnly] {
                assert_eq!(isolate(&p, 1, 5, mu, strat), Int::from(3) << mu);
            }
        }
    }

    #[test]
    fn root_near_left_edge_sieve_shines() {
        // root at 1/1024 in (0, 1024): double-exp sieve should need far
        // fewer evaluations than bisection. 1024x - 1 at µ = 20.
        let p = Poly::from_i64(&[-1, 1024]);
        let mu = 20;
        let (got, hybrid_cost) = counted(|| isolate(&p, 0, 1024, mu, RefineStrategy::Hybrid));
        // 2^20/1024 = 1024 exactly on the grid
        assert_eq!(got, Int::from(1024));
        let (got2, bisect_cost) = counted(|| isolate(&p, 0, 1024, mu, RefineStrategy::BisectOnly));
        assert_eq!(got2, Int::from(1024));
        assert!(
            hybrid_cost <= bisect_cost,
            "hybrid {hybrid_cost} vs bisect {bisect_cost}"
        );
    }

    #[test]
    fn high_degree_irrational_root() {
        // x^5 - 3 has the single real root 3^(1/5) ≈ 1.2457 in (1, 2).
        let p = Poly::from_i64(&[-3, 0, 0, 0, 0, 1]);
        let mu = 40;
        let got = isolate(&p, 1, 2, mu, RefineStrategy::Hybrid);
        let bis = isolate(&p, 1, 2, mu, RefineStrategy::BisectOnly);
        assert_eq!(got, bis, "strategies must agree exactly");
        let approx = got.to_f64() / (mu as f64).exp2();
        assert!((approx - 3f64.powf(0.2)).abs() < 1e-10);
    }

    #[test]
    fn phases_are_attributed() {
        let p = Poly::from_i64(&[-2, 0, 1]);
        let ctx = rr_mp::SolveCtx::new(rr_mp::Profile::Paper);
        let _ = ctx.run(|| isolate(&p, 1, 2, 50, RefineStrategy::Hybrid));
        let d = ctx.snapshot();
        let newton = d.phase(Phase::Newton).mul_count;
        let bisect = d.phase(Phase::Bisection).mul_count;
        assert!(newton > 0, "newton did work");
        assert!(bisect > 0, "bisection did work");
        // quadratic convergence: Newton phase needs ~log(µ) evaluations,
        // so far fewer multiplications than µ bisections would take.
        assert!(newton < 2 * 50, "newton count {newton}");
    }

    #[test]
    fn negative_interval() {
        // root -√2 in (-2, -1)
        let p = Poly::from_i64(&[-2, 0, 1]);
        let mu = 16;
        let got = isolate(&p, -2, -1, mu, RefineStrategy::Hybrid);
        let approx = got.to_f64() / (mu as f64).exp2();
        assert!((approx + std::f64::consts::SQRT_2).abs() < 2e-5);
        // ceiling: approx >= true root
        assert!(approx >= -std::f64::consts::SQRT_2);
    }

    #[test]
    fn tiny_interval_immediate() {
        // (lo, hi) with hi - lo == 1: answer is hi without any evaluation
        // beyond the asserted endpoint signs.
        let p = Poly::from_i64(&[-1, 2]); // root 1/2
        let sp = ScaledPoly::new(&p, 1);
        let spd = ScaledPoly::new(&p.derivative(), 1);
        // scaled interval (0, 1): root 1/2 → scaled 1
        let got = isolate_root(
            &sp,
            &spd,
            &Int::from(0),
            sp.sign_at(&Int::from(0)),
            &Int::from(1),
            RefineStrategy::Hybrid,
        );
        assert_eq!(got, Int::from(1));
    }
}
