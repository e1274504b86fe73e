//! Schoolbook multiplication of magnitudes — the `Profile::Paper` kernel.
//!
//! Quadratic: multiplying a `p`-bit by a `q`-bit integer costs
//! `Θ(p·q)` bit operations, matching the UNIX `mp` package whose
//! timings the paper's Section 4 analysis models — which is why this
//! kernel stays the default. The subquadratic alternative lives in
//! [`super::kmul`] (Karatsuba, under [`crate::Profile::Fast`]) and also
//! serves as the sub-threshold base case of its recursion; the
//! `rr-model` predictors are stated in multiplication events and bit
//! lengths, which [`crate::metrics`] records identically under either
//! kernel.

use super::{normalized, trim};
use crate::limb::{mac, Limb};

/// Product of two magnitudes.
pub fn mul(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    let mut out = Vec::new();
    mul_into(a, b, &mut out);
    out
}

/// Schoolbook product written into `out`.
///
/// `out` is cleared and every limb of the product is written before any
/// is read back, so a dirty scratch buffer (see [`crate::scratch`]) is a
/// valid destination; its spare capacity is reused, never read. The
/// operands may alias each other (squaring passes `a` twice) but, as the
/// borrow checker already enforces for safe callers, neither may alias
/// `out`.
pub fn mul_into(a: &[Limb], b: &[Limb], out: &mut Vec<Limb>) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    // Keep the inner loop running over the longer operand for better
    // locality of the carry chain.
    let (outer, inner) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    out.resize(a.len() + b.len(), 0);
    for (i, &x) in outer.iter().enumerate() {
        if x == 0 {
            continue;
        }
        let mut carry: Limb = 0;
        for (j, &y) in inner.iter().enumerate() {
            let (lo, hi) = mac(x, y, out[i + j], carry);
            out[i + j] = lo;
            carry = hi;
        }
        // Propagate the final carry; it cannot run off the end because the
        // full product fits in a.len() + b.len() limbs.
        let mut k = i + inner.len();
        while carry != 0 {
            let (s, c) = out[k].overflowing_add(carry);
            out[k] = s;
            carry = c as Limb;
            k += 1;
        }
    }
    trim(out);
}

/// Product of a magnitude and a single limb.
pub fn mul_limb(a: &[Limb], m: Limb) -> Vec<Limb> {
    if a.is_empty() || m == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(a.len() + 1);
    let mut carry: Limb = 0;
    for &x in a {
        let (lo, hi) = mac(x, m, carry, 0);
        out.push(lo);
        carry = hi;
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// Square of a magnitude (schoolbook; same cost model as [`mul`]).
pub fn square(a: &[Limb]) -> Vec<Limb> {
    mul(a, a)
}

/// In-place multiply-accumulate used by Algorithm D's trial subtraction:
/// subtracts `q * v` from the `v.len() + 1` limbs of `u` starting at
/// offset 0, returning the final borrow.
pub(crate) fn sub_mul_limb(u: &mut [Limb], v: &[Limb], q: Limb) -> Limb {
    debug_assert_eq!(u.len(), v.len() + 1);
    let mut borrow: Limb = 0; // borrow + carry of q*v, ≤ 2^64 - 1
    for (ui, &vi) in u.iter_mut().zip(v) {
        // t = q*vi + borrow fits in 128 bits.
        let t = q as u128 * vi as u128 + borrow as u128;
        let (lo, hi) = ((t as Limb), (t >> 64) as Limb);
        let (d, under) = ui.overflowing_sub(lo);
        *ui = d;
        borrow = hi + under as Limb; // ≤ 2^64-1: hi ≤ 2^64-2 when under can be 1
    }
    let last = u.len() - 1;
    let (d, under) = u[last].overflowing_sub(borrow);
    u[last] = d;
    under as Limb
}

/// Adds `v` into the `v.len() + 1` limbs of `u` (Algorithm D's add-back),
/// returning the final carry (always consumed by the preceding borrow).
pub(crate) fn add_back(u: &mut [Limb], v: &[Limb]) -> Limb {
    debug_assert_eq!(u.len(), v.len() + 1);
    let mut carry: Limb = 0;
    for (ui, &vi) in u.iter_mut().zip(v) {
        let s = *ui as u128 + vi as u128 + carry as u128;
        *ui = s as Limb;
        carry = (s >> 64) as Limb;
    }
    let last = u.len() - 1;
    let (s, c) = u[last].overflowing_add(carry);
    u[last] = s;
    c as Limb
}

/// Convenience wrapper producing a normalized result from possibly
/// denormalized inputs (used by tests). Dispatches through the active
/// profile, so under `Fast` large products divide-and-conquer.
pub fn mul_normalizing(a: Vec<Limb>, b: Vec<Limb>) -> Vec<Limb> {
    super::mul_auto(&normalized(a), &normalized(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nat;

    fn n(v: u128) -> Vec<Limb> {
        nat::normalized(vec![v as Limb, (v >> 64) as Limb])
    }

    fn val(a: &[Limb]) -> u128 {
        assert!(a.len() <= 2, "value too large for u128");
        a.first().copied().unwrap_or(0) as u128
            | (a.get(1).copied().unwrap_or(0) as u128) << 64
    }

    #[test]
    fn small_products_match_u128() {
        let cases: &[(u128, u128)] = &[
            (0, 0),
            (0, 7),
            (1, 1),
            (12345, 6789),
            (u64::MAX as u128, u64::MAX as u128),
            (u64::MAX as u128, 2),
            ((1u128 << 100) - 3, 5),
        ];
        for &(x, y) in cases {
            if x.checked_mul(y).is_some() {
                assert_eq!(val(&mul(&n(x), &n(y))), x * y, "{x} * {y}");
            }
        }
    }

    #[test]
    fn max_times_max_two_limbs() {
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let p = mul(&n(u128::MAX), &n(u128::MAX));
        assert_eq!(p, vec![1, 0, u64::MAX - 1, u64::MAX]);
    }

    #[test]
    fn mul_limb_matches_mul() {
        for &m in &[0u64, 1, 7, u64::MAX] {
            let a = n(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
            assert_eq!(mul_limb(&a, m), mul(&a, &n(m as u128)));
        }
    }

    #[test]
    fn square_matches_mul() {
        let a = n(0xdead_beef_cafe_babe_1234_5678_9abc_def0);
        assert_eq!(square(&a), mul(&a, &a));
    }

    #[test]
    fn commutative_on_uneven_lengths() {
        let a = vec![1, 2, 3, 4, 5];
        let b = vec![9, 8];
        assert_eq!(mul(&a, &b), mul(&b, &a));
    }

    #[test]
    fn distributes_over_add() {
        let a = n(0xffff_ffff_ffff_ffff_ffff);
        let b = n(0x1234_5678_9abc);
        let c = n(0xfedc_ba98_7654_3210);
        let lhs = mul(&a, &nat::add(&b, &c));
        let rhs = nat::add(&mul(&a, &b), &mul(&a, &c));
        assert_eq!(lhs, rhs);
    }
}
