//! Arithmetic on unsigned multiprecision magnitudes.
//!
//! A magnitude is a `Vec<Limb>` in little-endian limb order with the
//! invariant that the last limb is nonzero (the empty vector represents
//! zero). All functions here either require normalized inputs or preserve
//! the invariant on their outputs, as documented.
//!
//! The linear routines (add/sub/shift) are the classical algorithms.
//! Multiplication and division each have a quadratic kernel and a fast
//! family — schoolbook [`mul`] vs Karatsuba [`kmul`] (and fork-join
//! [`parmul`]), Algorithm D [`div`] vs [`newton_div`] — selected by the
//! [`crate::Profile`] of the installed [`crate::SolveCtx`] (`Paper` when
//! none is installed); see the crate docs for how this coexists with the
//! paper's quadratic cost model.

pub mod div;
pub mod kmul;
pub mod mul;
pub mod newton_div;
pub mod parmul;

use crate::limb::{DoubleLimb, Limb, LIMB_BITS};
use crate::session::active_profile;
use crate::Profile;
use std::cmp::Ordering;

/// Whether a `Fast` product should go through the fork-join splitter
/// ([`parmul`]): enough schoolbook-proxy work (`a.len()·b.len()`, in
/// limb-pairs) to fund at least one three-way fork at
/// [`parmul::PAR_MUL_THRESHOLD`] `t` — i.e. `work ≥ 3·t²`, so every
/// subtask carries at least a `t × t` product's worth of work — and the
/// ambient pool scope reports idle capacity
/// ([`rr_sched::current_parallelism`] above 1; with no scope or a
/// saturated queue the split would only add publish/retract overhead).
/// The work proxy (rather than a
/// min-operand-length gate) lets heavily unbalanced long×short products
/// — ubiquitous in the Newton division's truncated-piece arithmetic —
/// engage the tiled decomposition even when the short side alone is
/// below `t`. Only `Fast` splits: the decomposition *is* the Karatsuba
/// split, and `Paper` exists to mirror the paper's quadratic `mp`
/// kernel exactly.
#[inline]
fn par_mul_engaged(work: usize) -> bool {
    let t = parmul::PAR_MUL_THRESHOLD;
    work >= 3 * t * t && rr_sched::current_parallelism() > 1
}

/// The `Fast` product kernel: fork-join when [`par_mul_engaged`], else
/// serial Karatsuba.
#[inline]
fn fast_mul_into(a: &[Limb], b: &[Limb], out: &mut Vec<Limb>) {
    if par_mul_engaged(a.len() * b.len()) {
        parmul::mul_into(a, b, out);
    } else {
        kmul::mul_into(a, b, out);
    }
}

/// The `Fast` squaring kernel (same policy as [`fast_mul_into`]).
#[inline]
fn fast_sqr_into(a: &[Limb], out: &mut Vec<Limb>) {
    if par_mul_engaged(a.len() * a.len()) {
        parmul::square_into(a, out);
    } else {
        kmul::square_into(a, out);
    }
}

/// Product of two magnitudes using the active profile's kernel.
#[inline]
pub fn mul_auto(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    match active_profile() {
        Profile::Paper => mul::mul(a, b),
        Profile::Fast => {
            let mut out = Vec::new();
            fast_mul_into(a, b, &mut out);
            out
        }
    }
}

/// Square of a magnitude using the active profile's kernel.
#[inline]
pub fn sqr_auto(a: &[Limb]) -> Vec<Limb> {
    match active_profile() {
        Profile::Paper => mul::square(a),
        Profile::Fast => {
            let mut out = Vec::new();
            fast_sqr_into(a, &mut out);
            out
        }
    }
}

/// [`mul_auto`] writing into `out`.
///
/// `out` is cleared and every limb of the product is written before any
/// is read back, so a dirty buffer from [`crate::scratch`] is a valid
/// destination (its spare capacity is reused, never read). Neither
/// operand may alias `out` — which the borrow checker already enforces
/// for safe callers.
#[inline]
pub fn mul_auto_into(a: &[Limb], b: &[Limb], out: &mut Vec<Limb>) {
    match active_profile() {
        Profile::Paper => mul::mul_into(a, b, out),
        Profile::Fast => fast_mul_into(a, b, out),
    }
}

/// [`sqr_auto`] writing into `out` (same contract as
/// [`mul_auto_into`]).
#[inline]
pub fn sqr_auto_into(a: &[Limb], out: &mut Vec<Limb>) {
    match active_profile() {
        Profile::Paper => mul::mul_into(a, a, out),
        Profile::Fast => fast_sqr_into(a, out),
    }
}

/// Divides `u` by `v` using the active profile's kernel — the single
/// dispatching entry point `Int::div_rem` (and through it every
/// truncating division in the workspace) routes through. Both kernels
/// return identical `(quotient, remainder)` pairs; only wall-clock
/// differs.
///
/// # Panics
/// Panics if `v` is zero.
#[inline]
pub fn div_rem_auto(u: &[Limb], v: &[Limb]) -> (Vec<Limb>, Vec<Limb>) {
    match active_profile() {
        Profile::Paper => div::div_rem(u, v),
        Profile::Fast => newton_div::div_rem(u, v),
    }
}

/// Exact division `u / v` (zero remainder, debug-asserted) using the
/// active profile's kernel. Under [`Profile::Fast`] this is NOT the
/// reciprocal kernel but the 2-adic (Hensel) one: exactness lets the
/// quotient be recovered from low bits alone, with cost independent of
/// the divisor's length. `Int::div_exact` — and through it the
/// subresultant remainder steps and the tree stage's scalings — routes
/// through here.
///
/// # Panics
/// Panics if `v` is zero.
#[inline]
pub fn div_exact_auto(u: &[Limb], v: &[Limb]) -> Vec<Limb> {
    match active_profile() {
        Profile::Paper => div::div_exact(u, v),
        Profile::Fast => newton_div::div_exact(u, v),
    }
}

/// Removes trailing zero limbs, restoring the normalization invariant.
///
/// Truncates only — this never reallocates or shrinks the backing
/// storage, so the vector keeps its full capacity. The scratch-arena
/// layer ([`crate::scratch`]) depends on that: buffers cycle through
/// trim on every kernel and must come back with their capacity intact.
#[inline]
pub fn trim(v: &mut Vec<Limb>) {
    while v.last() == Some(&0) {
        v.pop();
    }
}

/// Returns `v` with trailing zero limbs removed. Like [`trim`], this
/// never reallocates: the returned vector owns the same storage with
/// the same capacity.
#[inline]
pub fn normalized(mut v: Vec<Limb>) -> Vec<Limb> {
    trim(&mut v);
    v
}

/// True if the magnitude is zero (empty).
#[inline]
pub fn is_zero(a: &[Limb]) -> bool {
    a.is_empty()
}

/// Compares two normalized magnitudes.
pub fn cmp(a: &[Limb], b: &[Limb]) -> Ordering {
    debug_assert!(a.last() != Some(&0) && b.last() != Some(&0));
    match a.len().cmp(&b.len()) {
        Ordering::Equal => {
            for (x, y) in a.iter().rev().zip(b.iter().rev()) {
                match x.cmp(y) {
                    Ordering::Equal => continue,
                    other => return other,
                }
            }
            Ordering::Equal
        }
        other => other,
    }
}

/// Number of significant bits (zero has bit length 0).
pub fn bit_len(a: &[Limb]) -> u64 {
    match a.last() {
        None => 0,
        Some(&top) => {
            debug_assert!(top != 0);
            a.len() as u64 * LIMB_BITS as u64 - top.leading_zeros() as u64
        }
    }
}

/// Returns bit `i` (little-endian bit order across limbs).
pub fn bit(a: &[Limb], i: u64) -> bool {
    let limb = (i / LIMB_BITS as u64) as usize;
    if limb >= a.len() {
        return false;
    }
    (a[limb] >> (i % LIMB_BITS as u64)) & 1 == 1
}

/// Number of trailing zero bits; `None` for zero.
pub fn trailing_zeros(a: &[Limb]) -> Option<u64> {
    a.iter()
        .position(|&l| l != 0)
        .map(|i| i as u64 * LIMB_BITS as u64 + a[i].trailing_zeros() as u64)
}

/// Sum of two magnitudes.
#[allow(clippy::needless_range_loop)] // carry chain reads clearer indexed
pub fn add(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry: Limb = 0;
    for i in 0..long.len() {
        let s = long[i] as DoubleLimb
            + *short.get(i).unwrap_or(&0) as DoubleLimb
            + carry as DoubleLimb;
        out.push(s as Limb);
        carry = (s >> LIMB_BITS) as Limb;
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// Difference `a - b`; requires `a >= b` (debug-asserted).
#[allow(clippy::needless_range_loop)] // borrow chain reads clearer indexed
pub fn sub(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    debug_assert!(cmp(a, b) != Ordering::Less, "nat::sub underflow");
    let mut out = Vec::with_capacity(a.len());
    let mut borrow: Limb = 0;
    for i in 0..a.len() {
        let (d1, b1) = a[i].overflowing_sub(*b.get(i).unwrap_or(&0));
        let (d2, b2) = d1.overflowing_sub(borrow);
        out.push(d2);
        borrow = (b1 | b2) as Limb;
    }
    debug_assert_eq!(borrow, 0);
    normalized(out)
}

/// Sum written into `out` (cleared and fully overwritten; dirty scratch
/// buffers are valid destinations). Same carry chain as [`add`].
#[allow(clippy::needless_range_loop)] // carry chain reads clearer indexed
pub fn add_into(a: &[Limb], b: &[Limb], out: &mut Vec<Limb>) {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    out.clear();
    out.reserve(long.len() + 1);
    let mut carry: Limb = 0;
    for i in 0..long.len() {
        let s = long[i] as DoubleLimb
            + *short.get(i).unwrap_or(&0) as DoubleLimb
            + carry as DoubleLimb;
        out.push(s as Limb);
        carry = (s >> LIMB_BITS) as Limb;
    }
    if carry != 0 {
        out.push(carry);
    }
}

/// In-place sum: `a += b`. Same carry chain as [`add`], without the
/// output allocation (the vector only grows when the sum needs an extra
/// limb). Preserves normalization.
#[allow(clippy::needless_range_loop)] // carry chain reads clearer indexed
pub fn add_assign(a: &mut Vec<Limb>, b: &[Limb]) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    let mut carry: Limb = 0;
    for i in 0..a.len() {
        let s = a[i] as DoubleLimb + *b.get(i).unwrap_or(&0) as DoubleLimb + carry as DoubleLimb;
        a[i] = s as Limb;
        carry = (s >> LIMB_BITS) as Limb;
        if carry == 0 && i + 1 >= b.len() {
            return;
        }
    }
    if carry != 0 {
        a.push(carry);
    }
}

/// In-place difference: `a -= b`; requires `a >= b` (debug-asserted).
/// Preserves normalization (trims after the borrow chain).
#[allow(clippy::needless_range_loop)] // borrow chain reads clearer indexed
pub fn sub_assign(a: &mut Vec<Limb>, b: &[Limb]) {
    debug_assert!(cmp(a, b) != Ordering::Less, "nat::sub_assign underflow");
    let mut borrow: Limb = 0;
    for i in 0..a.len() {
        let (d1, b1) = a[i].overflowing_sub(*b.get(i).unwrap_or(&0));
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = (b1 | b2) as Limb;
        if borrow == 0 && i + 1 >= b.len() {
            break;
        }
    }
    debug_assert_eq!(borrow, 0);
    trim(a);
}

/// In-place reversed difference: `a = b - a`; requires `b >= a`
/// (debug-asserted). Preserves normalization. The in-place complement of
/// [`sub_assign`] for the accumulator-flips-sign case: the accumulator
/// keeps its storage instead of being replaced by a fresh [`sub`]
/// allocation.
#[allow(clippy::needless_range_loop)] // borrow chain reads clearer indexed
pub fn rsub_assign(a: &mut Vec<Limb>, b: &[Limb]) {
    debug_assert!(cmp(b, a) != Ordering::Less, "nat::rsub_assign underflow");
    a.resize(b.len(), 0);
    let mut borrow: Limb = 0;
    for i in 0..b.len() {
        let (d1, b1) = b[i].overflowing_sub(a[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = (b1 | b2) as Limb;
    }
    debug_assert_eq!(borrow, 0);
    trim(a);
}

/// Packs magnitudes into one magnitude with each `slots[i]` occupying
/// the `slot_bits`-bit field starting at bit `i·slot_bits` — the
/// Kronecker-substitution evaluation at `x = 2^slot_bits`.
///
/// Every slot value must fit its field (`bit_len ≤ slot_bits`,
/// debug-asserted); fields are then bit-disjoint, so packing is a pure
/// OR of limb-shifted slots — limb-granularity, no per-bit work.
pub fn pack_slots(slots: &[&[Limb]], slot_bits: u64) -> Vec<Limb> {
    let mut out = Vec::new();
    pack_slots_into(slots, slot_bits, &mut out);
    out
}

/// [`pack_slots`] writing into `out` (cleared and fully overwritten; a
/// dirty scratch buffer is a valid destination — see [`crate::scratch`]).
pub fn pack_slots_into(slots: &[&[Limb]], slot_bits: u64, out: &mut Vec<Limb>) {
    debug_assert!(slot_bits > 0);
    let total_bits = slot_bits * slots.len() as u64;
    // One limb of headroom: a slot whose field straddles a limb boundary
    // writes a (possibly zero) carry limb past its field's last limb.
    out.clear();
    out.resize(total_bits.div_ceil(LIMB_BITS as u64) as usize + 1, 0);
    for (i, slot) in slots.iter().enumerate() {
        debug_assert!(bit_len(slot) <= slot_bits, "slot overflows its field");
        if slot.is_empty() {
            continue;
        }
        let off = i as u64 * slot_bits;
        let limb_off = (off / LIMB_BITS as u64) as usize;
        let bit_off = (off % LIMB_BITS as u64) as u32;
        if bit_off == 0 {
            for (j, &l) in slot.iter().enumerate() {
                out[limb_off + j] |= l;
            }
        } else {
            let mut carry: Limb = 0;
            for (j, &l) in slot.iter().enumerate() {
                out[limb_off + j] |= (l << bit_off) | carry;
                carry = l >> (LIMB_BITS - bit_off);
            }
            out[limb_off + slot.len()] |= carry;
        }
    }
    trim(out);
}

/// Inverse of [`pack_slots`]: extracts `count` normalized magnitudes of
/// `slot_bits` bits each from consecutive fields of `packed`. Fields
/// past the end of `packed` read as zero.
pub fn unpack_slots(packed: &[Limb], slot_bits: u64, count: usize) -> Vec<Vec<Limb>> {
    debug_assert!(slot_bits > 0);
    let slot_limbs = slot_bits.div_ceil(LIMB_BITS as u64) as usize;
    let top_mask = match (slot_bits % LIMB_BITS as u64) as u32 {
        0 => Limb::MAX,
        rem => ((1 as Limb) << rem) - 1,
    };
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let off = i as u64 * slot_bits;
        let limb_off = (off / LIMB_BITS as u64) as usize;
        let bit_off = (off % LIMB_BITS as u64) as u32;
        let mut v = Vec::with_capacity(slot_limbs);
        for j in 0..slot_limbs {
            let lo = packed.get(limb_off + j).copied().unwrap_or(0);
            v.push(if bit_off == 0 {
                lo
            } else {
                let hi = packed.get(limb_off + j + 1).copied().unwrap_or(0);
                (lo >> bit_off) | (hi << (LIMB_BITS - bit_off))
            });
        }
        *v.last_mut().expect("slot_limbs ≥ 1") &= top_mask;
        out.push(normalized(v));
    }
    out
}

/// Balanced-residue inverse of [`pack_slots`] for *signed* coefficient
/// vectors: reads `count` fields of `slot_bits` bits each (zeros past
/// the end) from the magnitude of `|Σ cᵢ·2^{i·slot_bits}|` where every
/// `|cᵢ| < 2^{slot_bits−1}`, returning each coefficient as
/// `(negative, magnitude)` (zero is `(false, [])`).
///
/// A field whose value — plus the borrow from the field below — is
/// `≥ 2^{slot_bits−1}` can only be the residue of a negative
/// coefficient: it decodes as `value − 2^{slot_bits}` and borrows `1`
/// from the next field. The borrow can run past the physical end of
/// `packed` (a negative coefficient near the top borrows from phantom
/// zero fields), which is why fields are read until `count`, not until
/// the magnitude ends. `count` must cover every nonzero coefficient;
/// the final borrow is then zero (debug-asserted).
pub fn unpack_slots_signed(
    packed: &[Limb],
    slot_bits: u64,
    count: usize,
) -> Vec<(bool, Vec<Limb>)> {
    debug_assert!(slot_bits > 0);
    let slot_limbs = slot_bits.div_ceil(LIMB_BITS as u64) as usize;
    let top_mask = match (slot_bits % LIMB_BITS as u64) as u32 {
        0 => Limb::MAX,
        rem => ((1 as Limb) << rem) - 1,
    };
    let two_w = shl(&[1], slot_bits);
    let mut out = Vec::with_capacity(count);
    let mut borrow = false;
    for i in 0..count {
        let off = i as u64 * slot_bits;
        let limb_off = (off / LIMB_BITS as u64) as usize;
        let bit_off = (off % LIMB_BITS as u64) as u32;
        let mut v = Vec::with_capacity(slot_limbs + 1);
        for j in 0..slot_limbs {
            let lo = packed.get(limb_off + j).copied().unwrap_or(0);
            v.push(if bit_off == 0 {
                lo
            } else {
                let hi = packed.get(limb_off + j + 1).copied().unwrap_or(0);
                (lo >> bit_off) | (hi << (LIMB_BITS - bit_off))
            });
        }
        *v.last_mut().expect("slot_limbs ≥ 1") &= top_mask;
        let mut v = normalized(v);
        if borrow {
            add_assign(&mut v, &[1]);
        }
        // v ∈ [0, 2^slot_bits]; bit_len ≥ slot_bits ⇔ v ≥ 2^{slot_bits−1}.
        if bit_len(&v) >= slot_bits {
            let mag = sub(&two_w, &v);
            out.push((!is_zero(&mag), mag));
            borrow = true;
        } else {
            out.push((false, v));
            borrow = false;
        }
    }
    debug_assert!(!borrow, "top residue borrowed past the requested fields");
    out
}

/// Left shift by `bits`.
pub fn shl(a: &[Limb], bits: u64) -> Vec<Limb> {
    if is_zero(a) {
        return Vec::new();
    }
    let limb_shift = (bits / LIMB_BITS as u64) as usize;
    let bit_shift = (bits % LIMB_BITS as u64) as u32;
    let mut out = vec![0; limb_shift];
    if bit_shift == 0 {
        out.extend_from_slice(a);
    } else {
        let mut carry: Limb = 0;
        for &l in a {
            out.push((l << bit_shift) | carry);
            carry = l >> (LIMB_BITS - bit_shift);
        }
        if carry != 0 {
            out.push(carry);
        }
    }
    out
}

/// [`shl`] writing into `out` (cleared and fully overwritten; dirty
/// scratch buffers are valid destinations).
pub fn shl_into(a: &[Limb], bits: u64, out: &mut Vec<Limb>) {
    out.clear();
    if is_zero(a) {
        return;
    }
    let limb_shift = (bits / LIMB_BITS as u64) as usize;
    let bit_shift = (bits % LIMB_BITS as u64) as u32;
    out.reserve(limb_shift + a.len() + 1);
    out.resize(limb_shift, 0);
    if bit_shift == 0 {
        out.extend_from_slice(a);
    } else {
        let mut carry: Limb = 0;
        for &l in a {
            out.push((l << bit_shift) | carry);
            carry = l >> (LIMB_BITS - bit_shift);
        }
        if carry != 0 {
            out.push(carry);
        }
    }
}

/// Right shift by `bits` (floor — bits shifted out are discarded).
pub fn shr(a: &[Limb], bits: u64) -> Vec<Limb> {
    let limb_shift = (bits / LIMB_BITS as u64) as usize;
    if limb_shift >= a.len() {
        return Vec::new();
    }
    let bit_shift = (bits % LIMB_BITS as u64) as u32;
    let src = &a[limb_shift..];
    if bit_shift == 0 {
        return src.to_vec();
    }
    let mut out = Vec::with_capacity(src.len());
    for i in 0..src.len() {
        let hi = if i + 1 < src.len() {
            src[i + 1] << (LIMB_BITS - bit_shift)
        } else {
            0
        };
        out.push((src[i] >> bit_shift) | hi);
    }
    normalized(out)
}

/// True if any of the low `bits` bits is set (i.e. `shr(a, bits)` is inexact).
pub fn low_bits_nonzero(a: &[Limb], bits: u64) -> bool {
    let full = (bits / LIMB_BITS as u64) as usize;
    let rem = (bits % LIMB_BITS as u64) as u32;
    if a[..full.min(a.len())].iter().any(|&l| l != 0) {
        return true;
    }
    if rem > 0 && full < a.len() {
        return a[full] & ((1 << rem) - 1) != 0;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> Vec<Limb> {
        normalized(vec![v as Limb, (v >> 64) as Limb])
    }

    fn val(a: &[Limb]) -> u128 {
        assert!(a.len() <= 2);
        a.first().copied().unwrap_or(0) as u128
            | (a.get(1).copied().unwrap_or(0) as u128) << 64
    }

    #[test]
    fn normalization() {
        assert_eq!(normalized(vec![1, 0, 0]), vec![1]);
        assert_eq!(normalized(vec![0, 0]), Vec::<Limb>::new());
        assert!(is_zero(&normalized(vec![0])));
    }

    #[test]
    fn cmp_orders_by_length_then_lexicographic() {
        assert_eq!(cmp(&n(5), &n(5)), Ordering::Equal);
        assert_eq!(cmp(&n(5), &n(6)), Ordering::Less);
        assert_eq!(cmp(&n(u128::MAX), &n(1)), Ordering::Greater);
        assert_eq!(cmp(&[], &n(1)), Ordering::Less);
        assert_eq!(cmp(&[], &[]), Ordering::Equal);
    }

    #[test]
    fn bit_len_examples() {
        assert_eq!(bit_len(&[]), 0);
        assert_eq!(bit_len(&n(1)), 1);
        assert_eq!(bit_len(&n(255)), 8);
        assert_eq!(bit_len(&n(256)), 9);
        assert_eq!(bit_len(&n(1u128 << 64)), 65);
        assert_eq!(bit_len(&n(u128::MAX)), 128);
    }

    #[test]
    fn bit_access() {
        let x = n(0b1011);
        assert!(bit(&x, 0));
        assert!(bit(&x, 1));
        assert!(!bit(&x, 2));
        assert!(bit(&x, 3));
        assert!(!bit(&x, 200));
        let y = n(1u128 << 70);
        assert!(bit(&y, 70));
        assert!(!bit(&y, 69));
    }

    #[test]
    fn trailing_zeros_examples() {
        assert_eq!(trailing_zeros(&[]), None);
        assert_eq!(trailing_zeros(&n(1)), Some(0));
        assert_eq!(trailing_zeros(&n(8)), Some(3));
        assert_eq!(trailing_zeros(&n(1u128 << 100)), Some(100));
    }

    #[test]
    fn add_with_carry_chains() {
        assert_eq!(val(&add(&n(u64::MAX as u128), &n(1))), 1u128 << 64);
        assert_eq!(val(&add(&n(3), &n(4))), 7);
        assert_eq!(val(&add(&[], &n(9))), 9);
        // carry into a fresh limb
        let big = add(&n(u128::MAX), &n(1));
        assert_eq!(big, vec![0, 0, 1]);
    }

    #[test]
    fn sub_with_borrow_chains() {
        assert_eq!(val(&sub(&n(1u128 << 64), &n(1))), u64::MAX as u128);
        assert_eq!(sub(&n(7), &n(7)), Vec::<Limb>::new());
        assert_eq!(val(&sub(&n(1u128 << 127), &n(1))), (1u128 << 127) - 1);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn sub_underflow_panics() {
        sub(&n(1), &n(2));
    }

    #[test]
    fn shl_shr_roundtrip() {
        for shift in [0u64, 1, 7, 63, 64, 65, 127, 130] {
            let x = n(0x1234_5678_9abc_def0_1122_3344_5566_7788);
            assert_eq!(shr(&shl(&x, shift), shift), x, "shift {shift}");
        }
        assert_eq!(shl(&[], 100), Vec::<Limb>::new());
        assert_eq!(val(&shl(&n(1), 64)), 1u128 << 64);
        assert_eq!(shr(&n(0b101), 1), n(0b10));
        assert_eq!(shr(&n(1), 1), Vec::<Limb>::new());
        assert_eq!(shr(&n(u128::MAX), 200), Vec::<Limb>::new());
    }

    #[test]
    fn add_assign_matches_add() {
        let cases = [
            (0u128, 0u128),
            (3, 4),
            (u64::MAX as u128, 1),
            (u128::MAX, 1),
            (u128::MAX, u128::MAX),
            (1, u128::MAX),
        ];
        for (a, b) in cases {
            let mut x = n(a);
            add_assign(&mut x, &n(b));
            assert_eq!(x, add(&n(a), &n(b)), "{a}+{b}");
        }
        // carry propagating past the end of the shorter addend
        let mut x = vec![u64::MAX, u64::MAX, 5];
        add_assign(&mut x, &[1]);
        assert_eq!(x, vec![0, 0, 6]);
    }

    #[test]
    fn sub_assign_matches_sub() {
        let cases = [
            (7u128, 7u128),
            (1u128 << 64, 1),
            (1u128 << 127, 1),
            (u128::MAX, u128::MAX - 1),
            (9, 0),
        ];
        for (a, b) in cases {
            let mut x = n(a);
            sub_assign(&mut x, &n(b));
            assert_eq!(x, sub(&n(a), &n(b)), "{a}-{b}");
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        // Widths that are aligned, straddling, and > one limb.
        for slot_bits in [1u64, 7, 17, 63, 64, 65, 100, 128, 200] {
            let max = if slot_bits >= 128 { u128::MAX } else { (1u128 << slot_bits) - 1 };
            let slots: Vec<Vec<Limb>> = [0u128, 1, 2, max, max / 3, 0, max]
                .iter()
                .map(|&v| n(v & max))
                .collect();
            let refs: Vec<&[Limb]> = slots.iter().map(Vec::as_slice).collect();
            let packed = pack_slots(&refs, slot_bits);
            let back = unpack_slots(&packed, slot_bits, slots.len());
            assert_eq!(back, slots, "slot_bits {slot_bits}");
        }
    }

    #[test]
    fn pack_is_evaluation_at_two_to_b() {
        // pack([a, b, c], w) == a + (b << w) + (c << 2w)
        let slots = [n(0xdead), n(0xbeef_1234), n(0)];
        let refs: Vec<&[Limb]> = slots.iter().map(Vec::as_slice).collect();
        let w = 37;
        let packed = pack_slots(&refs, w);
        let expect = add(&slots[0], &shl(&slots[1], w));
        assert_eq!(packed, expect);
    }

    #[test]
    fn unpack_reads_zeros_past_the_end() {
        let packed = n(5);
        let slots = unpack_slots(&packed, 64, 4);
        assert_eq!(slots[0], n(5));
        assert!(slots[1..].iter().all(|s| s.is_empty()));
        // zero input, zero slots requested
        assert!(unpack_slots(&[], 10, 0).is_empty());
    }

    /// Reference signed packing: `Σ cᵢ·2^{i·w}` as (negative, magnitude).
    fn pack_signed_ref(coeffs: &[i128], w: u64) -> (bool, Vec<Limb>) {
        use std::cmp::Ordering;
        let mut pos: Vec<Limb> = Vec::new();
        let mut neg: Vec<Limb> = Vec::new();
        for (i, &c) in coeffs.iter().enumerate() {
            let term = shl(&n(c.unsigned_abs()), i as u64 * w);
            if c >= 0 {
                pos = add(&pos, &term);
            } else {
                neg = add(&neg, &term);
            }
        }
        match cmp(&pos, &neg) {
            Ordering::Less => (true, sub(&neg, &pos)),
            _ => (false, sub(&pos, &neg)),
        }
    }

    #[test]
    fn signed_unpack_decodes_balanced_residues() {
        // Mixed signs across aligned and straddling widths; every |c|
        // is below 2^(w−1) as the balanced representation requires.
        for w in [8u64, 17, 63, 64, 65, 100] {
            let half = 1i128 << (w.min(100) - 1);
            let cases: Vec<Vec<i128>> = vec![
                vec![-1, 1],
                vec![-1],
                vec![1, -1, 1, -1],
                vec![0, -5, 0, 7, 0],
                vec![half - 1, -(half - 1), half - 1],
                vec![-3, 0, 0, -(half - 1)],
            ];
            for coeffs in cases {
                let (negative, mag) = pack_signed_ref(&coeffs, w);
                // Unpack |N|; a negative N decodes to the negated vector.
                let got = unpack_slots_signed(&mag, w, coeffs.len());
                for (i, (neg_i, m)) in got.iter().enumerate() {
                    let expect = if negative { -coeffs[i] } else { coeffs[i] };
                    let expect_mag = n(expect.unsigned_abs());
                    assert_eq!(*m, expect_mag, "w={w} {coeffs:?} slot {i}");
                    assert_eq!(*neg_i, expect < 0, "w={w} {coeffs:?} slot {i}");
                }
            }
        }
    }

    #[test]
    fn signed_unpack_borrows_past_the_physical_end() {
        // N = −1 + 2^w: one physical field (2^w − 1) but two logical
        // coefficients; the borrow materializes c₁ = 1 from a phantom
        // zero field.
        let w = 64u64;
        let mag = n(u64::MAX as u128);
        let got = unpack_slots_signed(&mag, w, 2);
        assert_eq!(got[0], (true, n(1)));
        assert_eq!(got[1], (false, n(1)));
    }

    #[test]
    fn low_bits_detection() {
        let x = n(0b1000);
        assert!(!low_bits_nonzero(&x, 3));
        assert!(low_bits_nonzero(&x, 4));
        assert!(low_bits_nonzero(&n(1u128 << 64), 65));
        assert!(!low_bits_nonzero(&n(1u128 << 64), 64));
    }
}
