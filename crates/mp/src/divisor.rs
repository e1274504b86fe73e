//! A prepared divisor for repeated exact divisions.
//!
//! The subresultant remainder sequence divides *every* coefficient of an
//! iteration by the same scalar (`c²·d²` in the recurrence), and the tree
//! stage divides every entry of a `Mat2` by the same `c²`. Under
//! [`crate::Profile::Fast`] each of those divisions is a 2-adic
//! (Hensel) quotient recovery `q = (u/2^z)·v'⁻¹ mod 2^(64k)` — and the
//! 2-adic inverse `v'⁻¹` depends only on the divisor. [`ExactDivisor`]
//! computes it once, lazily, and shares it across all divisions by the
//! same divisor: each division then costs a single truncated product
//! `M(k)` instead of Algorithm D's `k·‖v‖` limb operations.
//!
//! The inverse is *prefix-stable* (the 2-adic inverse is unique, so
//! extending the precision never rewrites low limbs), which makes the
//! cache monotone: a division needing more limbs extends it in place
//! under a write lock; everyone else reads. It is extended along the
//! power-of-two length sequence `1, 2, 4, …` regardless of the order
//! concurrent divisions request precision, so the recorded
//! [`crate::Exec::HenselSteps`] are schedule-independent —
//! the end-to-end differential tests assert physical counters are
//! deterministic even for parallel solves.
//!
//! Under [`crate::Profile::Paper`] the struct degrades to a plain wrapper
//! around Algorithm D, and either way the cost charge is identical to
//! [`Int::div_exact`]'s, so the recorded model is profile-invariant by
//! construction.

use crate::int::Sign;
use crate::limb::Limb;
use crate::nat::{self, newton_div};
use crate::session::active_profile;
use crate::metrics::{self, Exec};
use crate::{Int, Profile};
use parking_lot::RwLock;

/// Quotient limb count at or above which a prepared division takes the
/// 2-adic path. Much lower than
/// [`newton_div::NEWTON_EXACT_THRESHOLD`]: the inverse is amortized
/// across the whole batch, so each division only pays one truncated
/// product.
const PREPARED_EXACT_THRESHOLD: usize = 2;

/// Quotient limb count at or above which [`ExactDivisor::div_exact_dot`]
/// fuses the whole linear combination into the 2-adic domain. Below it
/// the truncated products are too small to beat the plain full products
/// plus Algorithm D.
const FUSED_DOT_THRESHOLD: usize = 16;

/// A divisor prepared for repeated exact division (see module docs).
///
/// ```
/// use rr_mp::{ExactDivisor, Int};
/// let d = Int::from(7u64).pow(100);
/// let prepared = ExactDivisor::new(d.clone());
/// for m in [3u64, 5, 11] {
///     let u = &d * &Int::from(m).pow(80);
///     assert_eq!(prepared.div_exact(&u), u.div_exact(&d));
/// }
/// ```
pub struct ExactDivisor {
    d: Int,
    /// 2-adic valuation of `d`: `|d| = odd · 2^shift`.
    shift: u64,
    /// The odd part of `|d|`, normalized.
    odd: Vec<Limb>,
    /// Fixed-width partial inverse `odd⁻¹ mod 2^(64·len)`; grows
    /// monotonically by doubling. Seeded with one limb at construction so
    /// extension never starts from empty.
    inv: RwLock<Vec<Limb>>,
}

impl std::fmt::Debug for ExactDivisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExactDivisor")
            .field("d", &self.d)
            .field("shift", &self.shift)
            .field("inv_limbs", &self.inv.read().len())
            .finish()
    }
}

impl ExactDivisor {
    /// Prepares `d` for repeated exact division.
    ///
    /// # Panics
    /// Panics if `d` is zero.
    pub fn new(d: Int) -> ExactDivisor {
        assert!(!d.is_zero(), "division by zero");
        let shift = d.trailing_zeros().unwrap_or(0);
        let odd = nat::shr(d.magnitude(), shift);
        let seed = newton_div::inv_limb(odd[0]);
        ExactDivisor { d, shift, odd, inv: RwLock::new(vec![seed]) }
    }

    /// The divisor this was prepared from.
    pub fn divisor(&self) -> &Int {
        &self.d
    }

    /// `u / d`, exactly — same contract and cost charge as
    /// [`Int::div_exact`], but divisions by the same prepared divisor
    /// share one cached 2-adic inverse under [`crate::Profile::Fast`].
    pub fn div_exact(&self, u: &Int) -> Int {
        metrics::record_div(u.bit_len(), self.d.bit_len());
        let q = match active_profile() {
            Profile::Paper => nat::div::div_exact(u.magnitude(), self.d.magnitude()),
            Profile::Fast => self.div_exact_2adic(u.magnitude()),
        };
        Int::from_sign_mag(u.sign().mul(self.d.sign()), q)
    }

    fn div_exact_2adic(&self, u: &[Limb]) -> Vec<Limb> {
        if nat::is_zero(u) {
            return Vec::new();
        }
        // Exactness means u carries at least the divisor's power of two.
        let us = nat::shr(u, self.shift);
        let k = (us.len() + 1).saturating_sub(self.odd.len());
        if k < PREPARED_EXACT_THRESHOLD || self.odd.len() < 2 {
            return nat::div::div_exact(u, self.d.magnitude());
        }
        let q = nat::normalized(self.mul_by_inv(&us, k));
        self.check(&q, &us);
        q
    }

    /// `us · odd⁻¹ mod 2^(64k)`, extending the cached inverse first when
    /// it is too short, and recording one 2-adic division (plus any
    /// lifting steps) in the [`crate::Exec`] division counters.
    fn mul_by_inv(&self, us: &[Limb], k: usize) -> Vec<Limb> {
        let mut steps = 0u64;
        let fast = {
            let inv = self.inv.read();
            (inv.len() >= k).then(|| newton_div::mul_low(us, &inv, k))
        };
        let q = fast.unwrap_or_else(|| {
            let mut inv = self.inv.write();
            // Extend along powers of two (another thread may have raced
            // us here; the doubling ladder makes the total step count
            // independent of how requests interleave).
            newton_div::extend_inv_2adic(&self.odd, &mut inv, k.next_power_of_two(), &mut steps);
            newton_div::mul_low(us, &inv, k)
        });
        metrics::count(&[(Exec::ExactDivs, 1), (Exec::HenselSteps, steps)]);
        q
    }

    /// Fused dot-product division: `(Σ pᵢ·p'ᵢ − Σ nᵢ·n'ᵢ) / d`, exactly.
    ///
    /// This is the subresultant remainder step's per-coefficient kernel
    /// (`f_{i+1,j} = (f_{i,j}·q₀ + f_{i,j−1}·q₁ − c_i²·f_{i−1,j}) / c_{i−1}²`).
    /// Under [`crate::Profile::Fast`] the *entire* combination is
    /// evaluated in the 2-adic domain: every product is a truncated
    /// low product mod `2^(64k)` (with `k` the quotient limb bound), the
    /// accumulator wraps in two's complement, and one more truncated
    /// product by the cached inverse recovers the signed quotient — so
    /// the full multiplications of the unfused step, not just its
    /// division, shrink to quotient-sized work. Under `Paper` the
    /// combination is computed in full and divided by Algorithm D.
    ///
    /// The model charge is identical either way and computed from
    /// operand sizes alone: one multiplication per term pair (exactly
    /// what the unfused step records) and one division at the
    /// accumulator's size bound — profile-invariant by construction. A
    /// unit divisor charges no division, matching the unfused step's
    /// `denominator = 1` special case.
    pub fn div_exact_dot(&self, pos: &[(&Int, &Int)], neg: &[(&Int, &Int)]) -> Int {
        let mut u_est: u64 = 0;
        for (x, y) in pos.iter().chain(neg) {
            let (xb, yb) = (x.bit_len(), y.bit_len());
            metrics::record_mul(xb, yb);
            if !x.is_zero() && !y.is_zero() {
                u_est = u_est.max(xb + yb);
            }
        }
        // |acc| < 2^(u_est + 2) for up to four terms.
        let unit = self.shift == 0 && self.odd == [1];
        if !unit {
            metrics::record_div(u_est + 2, self.d.bit_len());
        }
        // Quotient bound: |acc/d| < 2^(u_est + 3 − ‖d‖); one extra limb
        // for the two's-complement sign bit, one for slack.
        let k = ((u_est + 3).saturating_sub(self.d.bit_len()) / 64) as usize + 2;
        if unit
            || k < FUSED_DOT_THRESHOLD
            || self.odd.len() < 2
            || active_profile() == Profile::Paper
        {
            return self.dot_plain(pos, neg, unit);
        }
        let q = self.dot_2adic(pos, neg, k);
        debug_assert_eq!(
            q,
            self.dot_plain(pos, neg, unit),
            "div_exact_dot called with inexact quotient"
        );
        q
    }

    /// Unfused reference path: full products, then one exact division.
    /// Unmetered — `div_exact_dot` has already charged the model.
    fn dot_plain(&self, pos: &[(&Int, &Int)], neg: &[(&Int, &Int)], unit: bool) -> Int {
        let mut acc = Int::zero();
        for (x, y) in pos {
            acc.add_mul_assign_raw(x, y, false);
        }
        for (x, y) in neg {
            acc.add_mul_assign_raw(x, y, true);
        }
        if unit {
            return if self.d.is_negative() { -acc } else { acc };
        }
        let q = nat::div::div_exact(acc.magnitude(), self.d.magnitude());
        Int::from_sign_mag(acc.sign().mul(self.d.sign()), q)
    }

    /// The fused 2-adic path: all arithmetic mod `2^(64·width)`.
    fn dot_2adic(&self, pos: &[(&Int, &Int)], neg: &[(&Int, &Int)], k: usize) -> Int {
        // Headroom so stripping the divisor's power of two still leaves
        // k valid limbs.
        let kw = k + (self.shift as usize).div_ceil(64);
        // The accumulator and the per-term product buffer both come from
        // the scratch arena; one buffer `t` serves every term in turn.
        let mut acc = crate::scratch::take(kw);
        acc.resize(kw, 0);
        let mut t = crate::scratch::take(kw);
        let mut fold = |acc: &mut [Limb], x: &Int, y: &Int, negate: bool| {
            let s = x.sign().mul(y.sign());
            if s == Sign::Zero {
                return;
            }
            newton_div::mul_low_into(x.magnitude(), y.magnitude(), kw, &mut t);
            if (s == Sign::Positive) != negate {
                newton_div::add_shifted_mod(acc, &t, 0);
            } else {
                newton_div::mod_sub_assign(acc, &t);
            }
        };
        for (x, y) in pos {
            fold(&mut acc, x, y, false);
        }
        for (x, y) in neg {
            fold(&mut acc, x, y, true);
        }
        // acc ≡ true accumulator mod 2^(64kw), two's complement; it is
        // divisible by 2^shift, so the shift is a plain truncation.
        let acc_shifted = nat::shr(&acc, self.shift);
        crate::scratch::put(t);
        crate::scratch::put(acc);
        let q_mod = self.mul_by_inv(&acc_shifted, k);
        let (sign, mag) = if q_mod[k - 1] >> (Limb::BITS - 1) == 1 {
            (Sign::Negative, newton_div::mod_sub(&[], &q_mod, k))
        } else {
            (Sign::Positive, q_mod)
        };
        Int::from_sign_mag(sign.mul(self.d.sign()), nat::normalized(mag))
    }

    /// Debug-build exactness check, mirroring `div_exact`'s contract.
    fn check(&self, q: &[Limb], us: &[Limb]) {
        debug_assert_eq!(
            nat::mul_auto(q, &self.odd),
            nat::normalized(us.to_vec()),
            "div_exact called with inexact quotient"
        );
        let _ = (q, us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveCtx;

    fn newton_ctx() -> SolveCtx {
        SolveCtx::new(Profile::Fast)
    }

    #[test]
    fn matches_plain_div_exact_across_shapes() {
        let ctx = newton_ctx();
        ctx.run(|| {
            for dpow in [1u32, 7, 40, 200, 900] {
                for sh in [0u64, 1, 64, 129] {
                    let d = Int::from(0x9e37_79b9u64).pow(dpow) << sh;
                    let prepared = ExactDivisor::new(d.clone());
                    for qpow in [0u32, 3, 50, 400] {
                        for qsign in [1i64, -1] {
                            let q = Int::from(qsign * 12345) * Int::from(11u64).pow(qpow);
                            let u = &d * &q;
                            assert_eq!(prepared.div_exact(&u), q, "dpow={dpow} sh={sh} qpow={qpow}");
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn inverse_is_cached_across_divisions() {
        let ctx = newton_ctx();
        let d = Int::from(3u64).pow(5000); // ~165 limbs, odd
        let prepared = ExactDivisor::new(d.clone());
        ctx.run(|| {
            let q0 = Int::from(5u64).pow(3400); // quotient ~124 limbs
            let u0 = &d * &q0;
            assert_eq!(prepared.div_exact(&u0), q0);
            let after_first = ctx.exec();
            assert!(after_first.get(Exec::ExactDivs) >= 1);
            assert!(after_first.get(Exec::HenselSteps) >= 1, "first division lifts the inverse");

            // Subsequent no-larger divisions reuse the lifted inverse.
            for m in [7u64, 11, 13] {
                let q = Int::from(m) * Int::from(5u64).pow(3000);
                assert_eq!(prepared.div_exact(&(&d * &q)), q);
            }
            let after_batch = ctx.exec();
            assert_eq!(
                after_batch.get(Exec::HenselSteps),
                after_first.get(Exec::HenselSteps),
                "cached inverse: no further lifting for quotients that fit"
            );
            assert_eq!(after_batch.get(Exec::ExactDivs), after_first.get(Exec::ExactDivs) + 3);
        });
    }

    #[test]
    fn negative_and_small_operands() {
        let ctx = newton_ctx();
        ctx.run(|| {
            let d = Int::from(-3i64);
            let prepared = ExactDivisor::new(d.clone());
            assert_eq!(prepared.div_exact(&Int::from(-21i64)), Int::from(7i64));
            assert_eq!(prepared.div_exact(&Int::from(21i64)), Int::from(-7i64));
            assert_eq!(prepared.div_exact(&Int::zero()), Int::zero());
        });
    }

    #[test]
    fn paper_profile_matches() {
        let d = Int::from(17u64).pow(300);
        let q = Int::from(19u64).pow(250);
        let u = &d * &q;
        let school =
            SolveCtx::new(Profile::Paper).run(|| ExactDivisor::new(d.clone()).div_exact(&u));
        let newton = newton_ctx().run(|| ExactDivisor::new(d.clone()).div_exact(&u));
        assert_eq!(school, q);
        assert_eq!(newton, q);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn zero_divisor_rejected() {
        ExactDivisor::new(Int::zero());
    }

    /// Builds a 3-term combination `x0·y0 + x1·y1 − t·1` that equals
    /// `q·d` exactly, so `div_exact_dot` must return `q`.
    fn dot_case(d: &Int, q: &Int, x0: &Int, y0: &Int, x1: &Int, y1: &Int) -> (Int, Int) {
        let t = x0 * y0 + x1 * y1 - q * d;
        (t, Int::one())
    }

    #[test]
    fn fused_dot_matches_construction() {
        let ctx = newton_ctx();
        ctx.run(|| {
            let d = Int::from(0x9e37_79b9u64).pow(150) << 3; // even divisor
            let x0 = Int::from(11u64).pow(700);
            let y0 = Int::from(13u64).pow(650);
            let x1 = -Int::from(7u64).pow(720);
            let y1 = Int::from(17u64).pow(600);
            for qsign in [1i64, -1] {
                for qpow in [0u32, 90, 1100] {
                    let q = Int::from(qsign * 997) * Int::from(3u64).pow(qpow);
                    let (t, one) = dot_case(&d, &q, &x0, &y0, &x1, &y1);
                    let prepared = ExactDivisor::new(d.clone());
                    let got =
                        prepared.div_exact_dot(&[(&x0, &y0), (&x1, &y1)], &[(&t, &one)]);
                    assert_eq!(got, q, "qsign={qsign} qpow={qpow}");
                }
            }
            // Zero quotient and zero terms.
            let prepared = ExactDivisor::new(d.clone());
            let zero = Int::zero();
            assert_eq!(
                prepared.div_exact_dot(&[(&d, &Int::one())], &[(&d, &Int::one())]),
                Int::zero()
            );
            assert_eq!(
                prepared.div_exact_dot(&[(&d, &Int::one()), (&zero, &x0)], &[]),
                Int::one()
            );
        });
    }

    #[test]
    fn fused_dot_unit_and_negative_divisors() {
        let ctx = newton_ctx();
        ctx.run(|| {
            let a = Int::from(5u64).pow(500);
            let b = Int::from(3u64).pow(700);
            let plain = &a * &b - Int::from(12345i64);
            let m12345 = Int::from(12345i64);
            let one_d = ExactDivisor::new(Int::one());
            assert_eq!(
                one_d.div_exact_dot(&[(&a, &b)], &[(&m12345, &Int::one())]),
                plain
            );
            let neg_one = ExactDivisor::new(-Int::one());
            assert_eq!(
                neg_one.div_exact_dot(&[(&a, &b)], &[(&m12345, &Int::one())]),
                -&plain
            );
            let neg_d = Int::from(-7i64) * Int::from(7u64).pow(399); // −7^400
            let q = Int::from(11u64).pow(300);
            let u = &neg_d * &q;
            let prepared = ExactDivisor::new(neg_d);
            assert_eq!(prepared.div_exact_dot(&[(&u, &Int::one())], &[]), q);
        });
    }

    #[test]
    fn fused_dot_model_charge_is_profile_invariant() {
        let d = Int::from(19u64).pow(320);
        let x0 = Int::from(23u64).pow(500);
        let y0 = Int::from(29u64).pow(480);
        let q = Int::from(31u64).pow(440);
        let run = |ctx: &SolveCtx| {
            ctx.run(|| {
                let (t, one) = dot_case(&d, &q, &x0, &y0, &Int::zero(), &Int::zero());
                ExactDivisor::new(d.clone()).div_exact_dot(
                    &[(&x0, &y0), (&Int::zero(), &Int::zero())],
                    &[(&t, &one)],
                )
            })
        };
        let school_ctx = SolveCtx::new(Profile::Paper);
        let newton_ctx = newton_ctx();
        assert_eq!(run(&school_ctx), q);
        assert_eq!(run(&newton_ctx), q);
        assert_eq!(school_ctx.snapshot(), newton_ctx.snapshot());
        assert!(newton_ctx.exec().get(Exec::ExactDivs) >= 1);
        assert_eq!(school_ctx.exec().get(Exec::ExactDivs), 0);
    }
}
