//! Newton-iteration reciprocal division — the `Profile::Fast` division
//! kernel.
//!
//! Knuth's Algorithm D ([`super::div`]) computes one quotient limb per
//! pass over the divisor: `O(q·n)` limb operations for a `q`-limb
//! quotient and an `n`-limb divisor. In the subresultant remainder
//! phase both are thousands of limbs, so division dominates the solve
//! even after the multiplication stack went subquadratic. This module
//! replaces the per-limb loop with a handful of big multiplications:
//!
//! 1. **Reciprocal.** Compute `x ≈ ⌊2^(t+p)/v⌋` (where `t = ‖v‖` and
//!    `p` is the needed quotient precision plus guard bits) by the
//!    integer Newton iteration
//!
//!    ```text
//!    x ← 2^(p−p')·2·x' − ⌊x'²·v / 2^(t+2p'−p)⌋,
//!    ```
//!
//!    doubling the precision `p'` of the previous estimate `x'` each
//!    step. Operands are truncated to the precision they contribute
//!    (the divisor to its top `p + guard` bits), so the total cost is a
//!    constant number of multiplications at the final size — each
//!    through [`super::mul_auto`]/[`super::sqr_auto`], inheriting
//!    Karatsuba and any future kernel.
//! 2. **Quotient.** `q = ⌊u·x / 2^(t+p)⌋` underestimates `⌊u/v⌋` by at
//!    most one (the iteration is biased to underestimate; see the
//!    `+2` correction below), so one exact `r = u − q·v` followed by a
//!    short correction loop lands on `0 ≤ r < v`.
//!
//! The correction loop is also the safety net: the result is exact by
//! construction regardless of the error analysis, and if the estimate
//! were ever further off than expected the loop falls back to Algorithm
//! D on the residual after `MAX_CORRECTIONS` steps, so the worst case
//! is schoolbook cost, never a wrong answer. The differential suite in
//! `tests/div_diff.rs` holds this kernel bit-for-bit equal to Algorithm
//! D across ~15k generated and adversarial cases.
//!
//! ## Exact division: the 2-adic (Hensel) variant
//!
//! The remainder phase's divisions are all *exact* (Collins'
//! subresultant theory), and an exact division needs no remainder and no
//! high-order information at all: with `v = v'·2^z` (`v'` odd) and
//! `u = q·v`, the quotient is recovered from the **low** limbs alone as
//! `q = (u/2^z)·v'⁻¹ mod 2^(64k)` where `k` bounds the quotient limbs.
//! [`div_exact`] computes `v'⁻¹ mod 2^(64k)` by the Newton–Hensel
//! iteration `x ← x·(2 − v'·x)` (each step doubles the correct low
//! limbs; all products truncated to the target width), then one low
//! product finishes the job — `O(M(k))` total, with **no** dependence on
//! the divisor length, versus Algorithm D's `k·‖v‖` limb operations.
//! Unlike the reciprocal path there is no estimate and no correction
//! loop: the 2-adic inverse is exact by construction, so the result is
//! the unique quotient whenever the division is exact (debug-asserted).
//!
//! [`crate::ExactDivisor`] caches the inverse across divisions by the
//! same divisor — the remainder sequence divides every coefficient of an
//! iteration by the same `c²`, so the amortized cost per division is a
//! single truncated multiplication.
//!
//! Like the multiplication kernels, these functions record **nothing**
//! in the paper cost model: `Int::div_rem` charges the Algorithm D work
//! estimate before any kernel runs, so `CostSnapshot` is
//! profile-invariant by construction. What physically ran is recorded in
//! the [`Exec`] division counters and, for traced solves, a `"div"`
//! span.

use super::{add, add_assign, bit_len, cmp, div, is_zero, mul_auto, normalized, shl, shr, sqr_auto,
            sub, sub_assign, trailing_zeros};
use crate::limb::{DoubleLimb, Limb, LIMB_BITS};
use crate::metrics::Exec;
use std::cmp::Ordering;

/// Limb count (of both the divisor and the quotient) at or above which
/// the Newton path beats Algorithm D. Below it the reciprocal's fixed
/// multiplication count loses to the tight schoolbook loop.
///
/// Calibrated with `cargo run --release -p rr-bench --bin kernel_ablation
/// -- --sweep` (see EXPERIMENTS.md "Newton division crossover"); the
/// crossover sits lower when the `Fast` multiplication kernel is
/// active, so this threshold is chosen for the paired configuration.
pub const NEWTON_DIV_THRESHOLD: usize = 24;

/// Guard bits of reciprocal precision beyond the quotient length:
/// absorbs the truncation of the divisor and the floor of every shift,
/// keeping the quotient estimate within one of the true quotient.
const GUARD: u64 = 32;

/// Fractional precision at or below which the reciprocal is seeded
/// directly from the divisor's top limb via `u128` division.
const SEED_BITS: u64 = 30;

/// Correction steps after which the estimate is declared bad and the
/// residual is finished with Algorithm D. Never expected to trigger
/// (the analysis bounds corrections by 1); it bounds the worst case at
/// schoolbook cost instead of a long subtraction loop.
const MAX_CORRECTIONS: u64 = 16;

/// Divides `u` by `v` with the Newton reciprocal above
/// [`NEWTON_DIV_THRESHOLD`], falling through to [`div::div_rem`] below
/// it; returns `(quotient, remainder)` bit-identical to Algorithm D.
///
/// # Panics
/// Panics if `v` is zero.
pub fn div_rem(u: &[Limb], v: &[Limb]) -> (Vec<Limb>, Vec<Limb>) {
    div_rem_with_threshold(u, v, NEWTON_DIV_THRESHOLD)
}

/// [`div_rem`] with an explicit crossover threshold.
///
/// The differential tests drive this with tiny thresholds to force the
/// Newton path onto small operands; `threshold` is clamped to ≥ 2.
pub fn div_rem_with_threshold(
    u: &[Limb],
    v: &[Limb],
    threshold: usize,
) -> (Vec<Limb>, Vec<Limb>) {
    assert!(!is_zero(v), "division by zero");
    if cmp(u, v) == Ordering::Less {
        return (Vec::new(), u.to_vec());
    }
    let threshold = threshold.max(2);
    // Newton pays only when both the divisor and the quotient are long:
    // Algorithm D's cost is (quotient limbs)·(divisor limbs), so a short
    // quotient over a huge divisor is already cheap schoolbook.
    let q_limbs = u.len() + 1 - v.len();
    if v.len() < threshold || q_limbs < threshold {
        return div::div_rem(u, v);
    }
    newton_div_rem(u, v)
}

/// The Newton path proper; requires `u ≥ v > 0` and large operands.
fn newton_div_rem(u: &[Limb], v: &[Limb]) -> (Vec<Limb>, Vec<Limb>) {
    let t = bit_len(v);
    let ub = bit_len(u);
    let _span = rr_obs::span("div", "newton")
        .with_arg("u_bits", ub)
        .with_arg("v_bits", t);

    // Quotient bit bound g (u < 2^(t+g)); reciprocal precision p.
    let g = ub - t + 1;
    let p = g + GUARD;
    let mut iters = 0u64;
    let x = recip(v, t, p, &mut iters);

    // q = ⌊u·x / 2^(t+p)⌋ ≤ ⌊u/v⌋ since x ≤ 2^(t+p)/v. Only the top
    // g + GUARD bits of u contribute: truncating u (another downward
    // bias, so the estimate still never overshoots) adds at most
    // 2^(1−GUARD) to the undershoot while shrinking the estimate's
    // multiplication from ‖u‖×p to p×p bits.
    let e = ub.saturating_sub(g + GUARD);
    let ut = shr(u, e);
    let mut q = shr(&mul_auto(&ut, &x), t + p - e);
    let mut qv = mul_auto(&q, v);

    // Defensive downward pass: unreachable while x underestimates, but
    // exactness must not depend on the error analysis.
    let mut corrections = 0u64;
    while cmp(&qv, u) == Ordering::Greater {
        sub_assign(&mut qv, v);
        sub_assign(&mut q, &[1]);
        corrections += 1;
    }
    let mut r = sub(u, &qv);
    while cmp(&r, v) != Ordering::Less {
        corrections += 1;
        if corrections > MAX_CORRECTIONS {
            // The estimate was badly off (never expected): finish the
            // residual with Algorithm D rather than subtracting forever.
            let (q2, r2) = div::div_rem(&r, v);
            q = add(&q, &q2);
            r = r2;
            break;
        }
        sub_assign(&mut r, v);
        add_assign(&mut q, &[1]);
    }
    crate::metrics::count(&[
        (Exec::NewtonDivs, 1),
        (Exec::RecipIters, iters),
        (Exec::Corrections, corrections),
    ]);
    (q, r)
}

/// Reciprocal `x ≈ ⌊2^(t+p)/v⌋` for `t = ‖v‖`, by precision-doubling
/// Newton iteration. Never overestimates, and underestimates by at most
/// a few ulps (the `+2` below over-corrects every floor and truncation
/// upward bias; the recursion step `p' = p/2 + 5` keeps the squared
/// absolute error contracting). Increments `*iters` per refinement.
fn recip(v: &[Limb], t: u64, p: u64, iters: &mut u64) -> Vec<Limb> {
    if p <= SEED_BITS {
        // Seed from the top h ≤ 64 bits of v: ⌊2^(h+p)/(vh+1)⌋
        // underestimates 2^(t+p)/v because v < (vh+1)·2^(t−h).
        let h = t.min(64);
        let vh = shr(v, t - h).first().copied().unwrap_or(0) as u128;
        let x = (1u128 << (h + p)) / (vh + 1);
        return normalized(vec![x as Limb, (x >> 64) as Limb]);
    }
    let ph = p / 2 + 5;
    let xh = recip(v, t, ph, iters);
    *iters += 1;

    // Truncate the divisor to the top p + GUARD bits it contributes.
    let s = t.saturating_sub(p + GUARD);
    let vt = shr(v, s);

    // x = 2·2^(p−p')·x' − ⌊x'²·vt / 2^(t+2p'−p−s)⌋ − 2.
    let first = shl(&xh, p - ph + 1);
    let prod = mul_auto(&sqr_auto(&xh), &vt);
    let term = add(&shr(&prod, t + 2 * ph - p - s), &[2]);
    if cmp(&first, &term) == Ordering::Less {
        // Numerically impossible per the error analysis; return the
        // trivial underestimate 2^p ≤ 2^(t+p)/v so the caller's
        // correction fallback still produces an exact result.
        return shl(&[1], p);
    }
    sub(&first, &term)
}

// ---------------------------------------------------------------------
// 2-adic (Hensel) exact division
// ---------------------------------------------------------------------

/// Quotient limb count at or above which the 2-adic exact path beats
/// Algorithm D (its cost depends only on the quotient length, so the
/// divisor-side gate is much laxer than [`NEWTON_DIV_THRESHOLD`]).
///
/// Calibrated with `kernel_ablation --sweep` (EXPERIMENTS.md).
pub const NEWTON_EXACT_THRESHOLD: usize = 16;

/// Truncates/zero-pads `v` to exactly `n` limbs (fixed-width word of the
/// ring `ℤ/2^(64n)`; high limbs may be zero). The production paths write
/// fixed-width words in place; this remains the tests' reference shape.
#[cfg(test)]
fn low(mut v: Vec<Limb>, n: usize) -> Vec<Limb> {
    v.truncate(n);
    v.resize(n, 0);
    v
}

/// Low-product size below which the half-triangle schoolbook loop beats
/// the split recursion (whose half-size full product only turns
/// subquadratic once it clears the Karatsuba threshold).
const MUL_LOW_SCHOOL_LIMBS: usize = 96;

/// `a·b mod 2^(64n)` as a fixed-width `n`-limb word. Inputs longer than
/// `n` limbs are truncated first (their high limbs cannot affect the
/// result).
///
/// This is a genuine *low product*, not a truncated full product: the
/// schoolbook base case only walks the half-triangle of limb products
/// below column `n` (~n²/2 hardware muls where Algorithm D's back-
/// substitution does ~n²), and above [`MUL_LOW_SCHOOL_LIMBS`] it splits
/// as `a·b ≡ a0·b0 + 2^(64h)·(a0·b1 + a1·b0) (mod 2^(64n))` — one
/// half-size full product through the active (possibly Karatsuba)
/// kernel plus two half-size low products.
pub(crate) fn mul_low(a: &[Limb], b: &[Limb], n: usize) -> Vec<Limb> {
    let mut out = Vec::new();
    mul_low_into(a, b, n, &mut out);
    out
}

/// [`mul_low`] writing into `out` (cleared and fully overwritten; dirty
/// scratch buffers are valid destinations). The recursion's temporaries
/// come from the scratch arena.
pub(crate) fn mul_low_into(a: &[Limb], b: &[Limb], n: usize, out: &mut Vec<Limb>) {
    let a = &a[..a.len().min(n)];
    let b = &b[..b.len().min(n)];
    let an = a.len() - a.iter().rev().take_while(|&&l| l == 0).count();
    let bn = b.len() - b.iter().rev().take_while(|&&l| l == 0).count();
    if an == 0 || bn == 0 {
        out.clear();
        out.resize(n, 0);
        return;
    }
    // Small or heavily unbalanced: the triangle loop is near-optimal
    // (cost ~min(an,bn)·n) and has no recursion overhead.
    if n <= MUL_LOW_SCHOOL_LIMBS || an.min(bn) * 8 < n {
        mul_low_school_into(&a[..an], &b[..bn], n, out);
        return;
    }
    // h = ⌈n/2⌉ so the dropped a1·b1 term lands at offset 2h ≥ n.
    let h = n.div_ceil(2);
    let (a0, a1) = a.split_at(h.min(a.len()));
    let (b0, b1) = b.split_at(h.min(b.len()));
    // a0·b0 in full (2h ≥ n limbs of it are kept), via the active
    // profile's full-product kernel; one scratch buffer serves the full
    // product and then both recursive low products in turn.
    let mut p = crate::scratch::take(a0.len() + b0.len());
    super::mul_auto_into(a0, b0, &mut p);
    out.clear();
    out.extend_from_slice(&p[..p.len().min(n)]);
    out.resize(n, 0);
    let rest = n - h;
    mul_low_into(a0, b1, rest, &mut p);
    add_shifted_mod(out, &p, h);
    mul_low_into(a1, b0, rest, &mut p);
    add_shifted_mod(out, &p, h);
    crate::scratch::put(p);
}

/// Schoolbook low product written into `out`: accumulate only the limb
/// products landing in columns `< n`. Operands must be free of high
/// zero limbs.
fn mul_low_school_into(a: &[Limb], b: &[Limb], n: usize, out: &mut Vec<Limb>) {
    out.clear();
    out.resize(n, 0);
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let jmax = b.len().min(n - i);
        let mut carry: Limb = 0;
        for j in 0..jmax {
            let t = out[i + j] as DoubleLimb
                + ai as DoubleLimb * b[j] as DoubleLimb
                + carry as DoubleLimb;
            out[i + j] = t as Limb;
            carry = (t >> LIMB_BITS) as Limb;
        }
        let mut idx = i + jmax;
        while carry != 0 && idx < n {
            let (s, o) = out[idx].overflowing_add(carry);
            out[idx] = s;
            carry = o as Limb;
            idx += 1;
        }
    }
}

/// `out += p·2^(64h) mod 2^(64·out.len())`, wrapping.
pub(crate) fn add_shifted_mod(out: &mut [Limb], p: &[Limb], h: usize) {
    let mut carry: Limb = 0;
    for (j, &pj) in p.iter().enumerate() {
        let Some(slot) = out.get_mut(h + j) else { break };
        let t = *slot as DoubleLimb + pj as DoubleLimb + carry as DoubleLimb;
        *slot = t as Limb;
        carry = (t >> LIMB_BITS) as Limb;
    }
    let mut idx = h + p.len();
    while carry != 0 && idx < out.len() {
        let (s, o) = out[idx].overflowing_add(carry);
        out[idx] = s;
        carry = o as Limb;
        idx += 1;
    }
}

/// `(a − b) mod 2^(64n)` as a fixed-width `n`-limb word (wrapping).
pub(crate) fn mod_sub(a: &[Limb], b: &[Limb], n: usize) -> Vec<Limb> {
    let mut out = Vec::new();
    mod_sub_into(a, b, n, &mut out);
    out
}

/// [`mod_sub`] writing into `out` (cleared and fully overwritten; dirty
/// scratch buffers are valid destinations). `out` must not alias either
/// operand (enforced by the borrow checker for safe callers).
pub(crate) fn mod_sub_into(a: &[Limb], b: &[Limb], n: usize, out: &mut Vec<Limb>) {
    out.clear();
    out.resize(n, 0);
    let mut borrow = false;
    for (i, slot) in out.iter_mut().enumerate() {
        let ai = a.get(i).copied().unwrap_or(0);
        let bi = b.get(i).copied().unwrap_or(0);
        let (d1, b1) = ai.overflowing_sub(bi);
        let (d2, b2) = d1.overflowing_sub(borrow as Limb);
        *slot = d2;
        borrow = b1 | b2;
    }
}

/// `a −= b mod 2^(64·a.len())`, wrapping in place. Limbs of `b` beyond
/// `a.len()` cannot affect the result and are ignored.
pub(crate) fn mod_sub_assign(a: &mut [Limb], b: &[Limb]) {
    let mut borrow = false;
    for (i, slot) in a.iter_mut().enumerate() {
        let bi = b.get(i).copied().unwrap_or(0);
        let (d1, b1) = slot.overflowing_sub(bi);
        let (d2, b2) = d1.overflowing_sub(borrow as Limb);
        *slot = d2;
        borrow = b1 | b2;
    }
}

/// Inverse of an odd limb mod 2^64: seed correct to 5 bits, then four
/// Newton steps (`x ← x·(2 − v·x)`, bits double each step).
pub(crate) fn inv_limb(v0: Limb) -> Limb {
    debug_assert!(v0 & 1 == 1);
    let mut x = v0.wrapping_mul(3) ^ 2;
    for _ in 0..4 {
        x = x.wrapping_mul(2u64.wrapping_sub(v0.wrapping_mul(x)));
    }
    debug_assert_eq!(v0.wrapping_mul(x), 1);
    x
}

/// `v⁻¹ mod 2^(64n)` for odd `v`, as a fixed-width `n`-limb word, by
/// limb-doubling Newton–Hensel iteration. `*steps` counts refinements.
pub fn inv_2adic(v: &[Limb], n: usize, steps: &mut u64) -> Vec<Limb> {
    debug_assert!(v.first().is_some_and(|l| l & 1 == 1), "2-adic inverse needs an odd divisor");
    let mut x = vec![inv_limb(v[0])];
    extend_inv_2adic(v, &mut x, n, steps);
    x
}

/// Extends a fixed-width partial inverse (`v·x ≡ 1 mod 2^(64·x.len())`)
/// to `n` limbs in place. The 2-adic inverse is unique, so the existing
/// limbs are a stable prefix — this is what lets [`crate::ExactDivisor`]
/// grow its cache monotonically.
pub(crate) fn extend_inv_2adic(v: &[Limb], x: &mut Vec<Limb>, n: usize, steps: &mut u64) {
    if x.len() >= n {
        return;
    }
    // Two scratch buffers serve every doubling step: `t` holds v·x, then
    // is reused for 2x; `xt` holds x·(v·x).
    let mut t = crate::scratch::take(n);
    let mut xt = crate::scratch::take(n);
    while x.len() < n {
        let target = (x.len() * 2).min(n);
        *steps += 1;
        // x ← x·(2 − v·x) = 2x − x·(v·x), all mod 2^(64·target).
        mul_low_into(v, x, target, &mut t);
        mul_low_into(x, &t, target, &mut xt);
        // t := 2x mod 2^(64·target); x.len() < target, so the shifted-out
        // top bit always has a limb to land in.
        t.clear();
        t.resize(target, 0);
        let mut carry: Limb = 0;
        for (i, &xi) in x.iter().enumerate() {
            t[i] = (xi << 1) | carry;
            carry = xi >> (LIMB_BITS - 1);
        }
        t[x.len()] = carry;
        mod_sub_into(&t, &xt, target, x);
    }
    crate::scratch::put(xt);
    crate::scratch::put(t);
}

/// Exact division via the 2-adic inverse above
/// [`NEWTON_EXACT_THRESHOLD`], falling through to [`div::div_exact`]
/// below it. The quotient is bit-identical to Algorithm D's whenever the
/// division is exact (debug-asserted; an inexact call is a caller bug,
/// as for [`div::div_exact`]).
///
/// # Panics
/// Panics if `v` is zero.
pub fn div_exact(u: &[Limb], v: &[Limb]) -> Vec<Limb> {
    div_exact_with_threshold(u, v, NEWTON_EXACT_THRESHOLD)
}

/// [`div_exact`] with an explicit crossover threshold (clamped to ≥ 2);
/// the differential tests force the 2-adic path onto small operands.
pub fn div_exact_with_threshold(u: &[Limb], v: &[Limb], threshold: usize) -> Vec<Limb> {
    assert!(!is_zero(v), "division by zero");
    if is_zero(u) {
        return Vec::new();
    }
    let threshold = threshold.max(2);
    let k = (u.len() + 1).saturating_sub(v.len());
    if k < threshold || v.len() < 2 {
        return div::div_exact(u, v);
    }
    let _span = rr_obs::span("div", "newton-exact")
        .with_arg("u_bits", bit_len(u))
        .with_arg("v_bits", bit_len(v));

    // Strip the divisor's power of two; exactness means u carries it too.
    let zv = trailing_zeros(v).unwrap_or(0);
    let (us, vs);
    let (u2, v2): (&[Limb], &[Limb]) = if zv > 0 {
        us = shr(u, zv);
        vs = shr(v, zv);
        (&us, &vs)
    } else {
        (u, v)
    };
    let k2 = (u2.len() + 1).saturating_sub(v2.len()).max(1);
    let mut steps = 0u64;
    let inv = inv_2adic(v2, k2, &mut steps);
    let q = normalized(mul_low(u2, &inv, k2));
    crate::metrics::count(&[(Exec::ExactDivs, 1), (Exec::HenselSteps, steps)]);
    debug_assert_eq!(
        mul_auto(&q, v2),
        normalized(u2.to_vec()),
        "div_exact called with inexact quotient"
    );
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nat;

    /// Independent invariant check: `u = q·v + r`, `0 ≤ r < v`.
    fn check(u: &[Limb], v: &[Limb], threshold: usize) {
        let (q, r) = div_rem_with_threshold(u, v, threshold);
        assert!(is_zero(&r) || cmp(&r, v) == Ordering::Less, "r < v");
        let recomposed = nat::add(&nat::mul::mul(&q, v), &r);
        assert_eq!(recomposed, nat::normalized(u.to_vec()));
        // And bit-identical to Algorithm D.
        assert_eq!((q, r), div::div_rem(u, v));
    }

    fn rng_limbs(state: &mut u64, len: usize) -> Vec<Limb> {
        let mut next = || {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *state
        };
        nat::normalized((0..len).map(|_| next()).collect())
    }

    #[test]
    fn forced_newton_matches_schoolbook() {
        let mut state = 0x1234_5678_9abc_def0u64;
        for (lu, lv) in [(8usize, 4usize), (16, 8), (24, 12), (40, 20), (64, 24)] {
            let u = rng_limbs(&mut state, lu);
            let v = rng_limbs(&mut state, lv);
            if !is_zero(&v) {
                check(&u, &v, 2);
            }
        }
    }

    #[test]
    fn all_ones_divisor() {
        // Divisors of all-ones limbs maximize qhat refinement in
        // Algorithm D and stress the reciprocal's truncation bias.
        let v = vec![u64::MAX; 8];
        let mut state = 7u64;
        let u = rng_limbs(&mut state, 20);
        check(&u, &v, 2);
        check(&v, &v, 2);
    }

    #[test]
    fn exact_products_and_off_by_one() {
        // u = v·q, v·q + 1, v·q − 1: remainder 0, 1, and v−1 paths.
        let mut state = 42u64;
        let v = rng_limbs(&mut state, 10);
        let q = rng_limbs(&mut state, 12);
        let p = nat::mul::mul(&v, &q);
        check(&p, &v, 2);
        check(&nat::add(&p, &[1]), &v, 2);
        check(&nat::sub(&p, &[1]), &v, 2);
    }

    #[test]
    fn below_threshold_falls_through() {
        // Small operands take the Algorithm D path through the same
        // entry point (trivially identical, but pins the gate).
        let u = vec![123u64, 456, 789];
        let v = vec![7u64, 9];
        assert_eq!(div_rem(&u, &v), div::div_rem(&u, &v));
    }

    #[test]
    fn dividend_smaller_than_divisor() {
        let (q, r) = div_rem_with_threshold(&[5], &[0, 1], 2);
        assert!(is_zero(&q));
        assert_eq!(r, vec![5]);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn zero_divisor_panics() {
        div_rem(&[5], &[]);
    }

    #[test]
    fn low_product_matches_truncated_full_product() {
        // Exercises the schoolbook triangle, the split recursion (n well
        // above MUL_LOW_SCHOOL_LIMBS), the unbalanced fallback, and
        // truncation of over-long inputs.
        let mut state = 0xdead_beefu64;
        for (la, lb, n) in [
            (3usize, 3usize, 4usize),
            (10, 10, 8),
            (50, 50, 96),
            (70, 90, 100),
            (120, 120, 128),
            (200, 4, 200), // unbalanced: min(an,bn)·8 < n
            (160, 150, 200),
            (300, 280, 300),
            (400, 100, 300), // a longer than n: high limbs truncated
            (100, 100, 97),  // odd n through the split recursion
            (150, 150, 131),
            (260, 255, 255),
        ] {
            let a = rng_limbs(&mut state, la);
            let b = rng_limbs(&mut state, lb);
            let got = mul_low(&a, &b, n);
            let want = low(nat::mul::mul(&a, &b), n);
            assert_eq!(got, want, "la={la} lb={lb} n={n}");
            assert_eq!(got.len(), n, "fixed width");
        }
        // Zero operands.
        assert_eq!(mul_low(&[], &[1, 2], 3), vec![0; 3]);
        assert_eq!(mul_low(&[0, 0], &[1], 2), vec![0; 2]);
        // All-ones stress (max carries in the triangle loop).
        let ones = vec![u64::MAX; 150];
        assert_eq!(
            mul_low(&ones, &ones, 140),
            low(nat::mul::mul(&ones, &ones), 140)
        );
    }

    #[test]
    fn limb_inverse_is_exact() {
        for v in [1u64, 3, 5, 0xffff_ffff_ffff_ffff, 0x9e37_79b9_7f4a_7c15 | 1] {
            assert_eq!(v.wrapping_mul(inv_limb(v)), 1, "v={v:#x}");
        }
    }

    #[test]
    fn two_adic_inverse_is_prefix_stable() {
        let mut state = 99u64;
        let mut v = rng_limbs(&mut state, 12);
        v[0] |= 1;
        let mut s = 0u64;
        let full = inv_2adic(&v, 32, &mut s);
        // Extending a shorter inverse reproduces the longer one limb for
        // limb — the property the ExactDivisor cache depends on.
        let mut partial = inv_2adic(&v, 5, &mut s);
        extend_inv_2adic(&v, &mut partial, 32, &mut s);
        assert_eq!(partial, full);
        // And v·inv ≡ 1 mod 2^(64·32).
        let prod = mul_low(&v, &full, 32);
        assert_eq!(normalized(prod), vec![1]);
    }

    #[test]
    fn exact_division_matches_algorithm_d() {
        let mut state = 0xdead_beefu64;
        for (lv, lq) in [(2usize, 2usize), (3, 30), (12, 10), (24, 40), (40, 64)] {
            let v = rng_limbs(&mut state, lv);
            let q = rng_limbs(&mut state, lq);
            if is_zero(&v) || is_zero(&q) {
                continue;
            }
            let u = nat::mul::mul(&v, &q);
            assert_eq!(div_exact_with_threshold(&u, &v, 2), q, "lv={lv} lq={lq}");
            assert_eq!(div_exact(&u, &v), q, "default threshold lv={lv} lq={lq}");
        }
    }

    #[test]
    fn exact_division_strips_powers_of_two() {
        // Even divisors exercise the shift-out path: v = odd·2^z.
        let mut state = 5u64;
        let odd = {
            let mut v = rng_limbs(&mut state, 6);
            v[0] |= 1;
            v
        };
        for z in [1u64, 63, 64, 130] {
            let v = shl(&odd, z);
            let q = rng_limbs(&mut state, 20);
            let u = nat::mul::mul(&v, &q);
            assert_eq!(div_exact_with_threshold(&u, &v, 2), q, "z={z}");
        }
    }

    #[test]
    fn exact_division_of_zero_and_identity() {
        assert!(is_zero(&div_exact(&[], &[7])));
        let v = vec![3u64; 30];
        let u = v.clone();
        assert_eq!(div_exact_with_threshold(&u, &v, 2), vec![1]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "div_exact called with inexact quotient")]
    fn exact_division_rejects_inexact() {
        let mut state = 8u64;
        let v = {
            let mut v = rng_limbs(&mut state, 8);
            v[0] |= 1;
            v
        };
        let q = rng_limbs(&mut state, 12);
        let u = nat::add(&nat::mul::mul(&v, &q), &[1]);
        div_exact_with_threshold(&u, &v, 2);
    }
}
