//! Karatsuba multiplication of magnitudes — the `Profile::Fast` kernel.
//!
//! Above [`KARATSUBA_THRESHOLD`] limbs the routines here recurse with the
//! three-multiplication split
//!
//! ```text
//! a·b = z₂·B²ᵐ + z₁·Bᵐ + z₀,   B = 2⁶⁴,
//! z₀ = a₀·b₀,  z₂ = a₁·b₁,  z₁ = (a₀+a₁)(b₀+b₁) − z₀ − z₂,
//! ```
//!
//! and below it fall through to the schoolbook routines in
//! [`super::mul`], whose constant factor wins on small operands. Very
//! unbalanced products are first cut into balanced chunks of the short
//! operand's length so the recursion always splits near the middle.
//!
//! These functions work on raw limb slices and record **nothing** in
//! [`crate::metrics`]: cost attribution happens once per `Int`
//! multiplication in `Int::mul`/`Int::square`, before any kernel runs,
//! which is what keeps the paper's predicted-vs-observed counts
//! identical under both profiles (see [`crate::profile`]).

use super::{mul, trim};
use crate::limb::Limb;

/// Limb count at or above which the split pays for its extra additions.
///
/// Calibrated with `cargo bench -p rr-bench --bench kernels` (sweep
/// `kmul_threshold_sweep`); see EXPERIMENTS.md for the measured
/// crossover on the reference machine.
pub const KARATSUBA_THRESHOLD: usize = 48;

/// Product of two magnitudes (Karatsuba above [`KARATSUBA_THRESHOLD`]).
///
/// Accepts denormalized inputs; the result is normalized, matching
/// [`mul::mul`] bit-for-bit.
pub fn mul(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    mul_with_threshold(a, b, KARATSUBA_THRESHOLD)
}

/// Square of a magnitude (Karatsuba above [`KARATSUBA_THRESHOLD`]).
pub fn square(a: &[Limb]) -> Vec<Limb> {
    sqr_with_threshold(a, KARATSUBA_THRESHOLD)
}

/// [`mul`] writing into `out` (cleared and fully overwritten; dirty
/// scratch buffers are valid destinations — see [`crate::scratch`]).
pub fn mul_into(a: &[Limb], b: &[Limb], out: &mut Vec<Limb>) {
    mul_with_threshold_into(a, b, KARATSUBA_THRESHOLD, out);
}

/// [`square`] writing into `out` (cleared and fully overwritten).
pub fn square_into(a: &[Limb], out: &mut Vec<Limb>) {
    sqr_with_threshold_into(a, KARATSUBA_THRESHOLD, out);
}

/// [`mul`] with an explicit recursion threshold.
///
/// The differential tests drive this with tiny thresholds to force deep
/// recursion on small operands; `threshold` is clamped to ≥ 2 (a
/// one-limb split cannot recurse).
pub fn mul_with_threshold(a: &[Limb], b: &[Limb], threshold: usize) -> Vec<Limb> {
    let mut out = Vec::new();
    mul_with_threshold_into(a, b, threshold, &mut out);
    out
}

/// [`mul_with_threshold`] writing into `out`.
pub fn mul_with_threshold_into(a: &[Limb], b: &[Limb], threshold: usize, out: &mut Vec<Limb>) {
    let (a, b) = (trimmed(a), trimmed(b));
    let threshold = threshold.max(2);
    if a.len().min(b.len()) < threshold {
        mul::mul_into(a, b, out);
        return;
    }
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    if long.len() >= 2 * short.len() {
        mul_chunked_into(long, short, threshold, out);
        return;
    }
    out.clear();
    out.resize(long.len() + short.len(), 0);
    karatsuba(long, short, threshold, out);
    trim(out);
}

/// [`square`] with an explicit recursion threshold (clamped to ≥ 2).
pub fn sqr_with_threshold(a: &[Limb], threshold: usize) -> Vec<Limb> {
    let mut out = Vec::new();
    sqr_with_threshold_into(a, threshold, &mut out);
    out
}

/// [`sqr_with_threshold`] writing into `out`.
pub fn sqr_with_threshold_into(a: &[Limb], threshold: usize, out: &mut Vec<Limb>) {
    let a = trimmed(a);
    let threshold = threshold.max(2);
    if a.len() < threshold {
        mul::mul_into(a, a, out);
        return;
    }
    // a² = z₂·B²ᵐ + z₁·Bᵐ + z₀ with z₁ = (a₀+a₁)² − z₀ − z₂ — every
    // sub-product is itself a square, and z₁ never underflows. The
    // per-level temporaries come from the thread's scratch arena and go
    // back before this level returns (LIFO), so a whole recursion tree
    // cycles through a handful of buffers.
    let m = a.len() / 2;
    let (a0, a1) = (trimmed(&a[..m]), trimmed(&a[m..]));
    let mut z0 = crate::scratch::take(2 * a0.len());
    sqr_with_threshold_into(a0, threshold, &mut z0);
    let mut z2 = crate::scratch::take(2 * a1.len());
    sqr_with_threshold_into(a1, threshold, &mut z2);
    let mut s = crate::scratch::take(a0.len().max(a1.len()) + 1);
    super::add_into(a0, a1, &mut s);
    let mut z1 = crate::scratch::take(2 * s.len());
    sqr_with_threshold_into(&s, threshold, &mut z1);
    super::sub_assign(&mut z1, &z0);
    super::sub_assign(&mut z1, &z2);

    out.clear();
    out.resize(2 * a.len(), 0);
    add_at(out, 0, &z0);
    add_at(out, m, &z1);
    add_at(out, 2 * m, &z2);
    trim(out);
    crate::scratch::put(z1);
    crate::scratch::put(s);
    crate::scratch::put(z2);
    crate::scratch::put(z0);
}

/// Balanced Karatsuba step; requires `long.len() >= short.len()` and
/// `short.len() > long.len() / 2`, accumulates the product into `out`
/// (all zero on entry, `long.len() + short.len()` limbs).
fn karatsuba(long: &[Limb], short: &[Limb], threshold: usize, out: &mut [Limb]) {
    let m = long.len() / 2;
    debug_assert!(m >= 1 && short.len() > m);
    let (a0, a1) = (trimmed(&long[..m]), trimmed(&long[m..]));
    let (b0, b1) = (trimmed(&short[..m]), trimmed(&short[m..]));

    // All five temporaries of this level come from the scratch arena
    // and are returned before the level unwinds.
    let mut z0 = crate::scratch::take(a0.len() + b0.len());
    mul_with_threshold_into(a0, b0, threshold, &mut z0);
    let mut z2 = crate::scratch::take(a1.len() + b1.len());
    mul_with_threshold_into(a1, b1, threshold, &mut z2);
    let mut sa = crate::scratch::take(a0.len().max(a1.len()) + 1);
    super::add_into(a0, a1, &mut sa);
    let mut sb = crate::scratch::take(b0.len().max(b1.len()) + 1);
    super::add_into(b0, b1, &mut sb);
    let mut z1 = crate::scratch::take(sa.len() + sb.len());
    mul_with_threshold_into(&sa, &sb, threshold, &mut z1);
    super::sub_assign(&mut z1, &z0);
    super::sub_assign(&mut z1, &z2);

    add_at(out, 0, &z0);
    add_at(out, m, &z1);
    add_at(out, 2 * m, &z2);
    crate::scratch::put(z1);
    crate::scratch::put(sb);
    crate::scratch::put(sa);
    crate::scratch::put(z2);
    crate::scratch::put(z0);
}

/// Unbalanced product: cuts `long` into `short.len()`-limb chunks so
/// each partial product recurses on balanced operands. One scratch
/// buffer holds every partial product in turn.
fn mul_chunked_into(long: &[Limb], short: &[Limb], threshold: usize, out: &mut Vec<Limb>) {
    out.clear();
    out.resize(long.len() + short.len(), 0);
    let mut p = crate::scratch::take(2 * short.len());
    for (i, chunk) in long.chunks(short.len()).enumerate() {
        mul_with_threshold_into(chunk, short, threshold, &mut p);
        add_at(out, i * short.len(), &p);
    }
    crate::scratch::put(p);
    trim(out);
}

/// Adds `p` into `out` starting `offset` limbs up, propagating the
/// carry. The caller guarantees the running sum fits in `out` (partial
/// sums of a product never exceed the full product). Shared with the
/// fork-join kernels in [`super::parmul`], whose combine step is the
/// same limb-offset accumulation.
pub(super) fn add_at(out: &mut [Limb], offset: usize, p: &[Limb]) {
    let mut carry: Limb = 0;
    let mut i = offset;
    for &x in p {
        let s = out[i] as u128 + x as u128 + carry as u128;
        out[i] = s as Limb;
        carry = (s >> 64) as Limb;
        i += 1;
    }
    while carry != 0 {
        let (s, c) = out[i].overflowing_add(carry);
        out[i] = s;
        carry = c as Limb;
        i += 1;
    }
}

/// Slice view with trailing zero limbs dropped (split halves of a
/// normalized magnitude are not themselves normalized).
pub(super) fn trimmed(mut a: &[Limb]) -> &[Limb] {
    while a.last() == Some(&0) {
        a = &a[..a.len() - 1];
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agrees(a: &[Limb], b: &[Limb], threshold: usize) -> bool {
        mul_with_threshold(a, b, threshold) == mul::mul(a, b)
    }

    fn limbs(pattern: impl IntoIterator<Item = u64>) -> Vec<Limb> {
        pattern.into_iter().collect()
    }

    #[test]
    fn trivial_operands() {
        for t in [2usize, 3, 24] {
            assert_eq!(mul_with_threshold(&[], &[5], t), Vec::<Limb>::new());
            assert_eq!(mul_with_threshold(&[5], &[], t), Vec::<Limb>::new());
            assert_eq!(mul_with_threshold(&[1], &[7], t), vec![7]);
            assert_eq!(sqr_with_threshold(&[], t), Vec::<Limb>::new());
        }
    }

    #[test]
    fn balanced_recursion_matches_schoolbook() {
        // All-ones limbs maximize internal carries.
        let a = limbs((0..9).map(|_| u64::MAX));
        let b = limbs((0..8).map(|i| u64::MAX - i));
        assert!(agrees(&a, &b, 2));
        assert!(agrees(&a, &b, 3));
    }

    #[test]
    fn unbalanced_chunking_matches_schoolbook() {
        let a = limbs((1..=25u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        let b = limbs([u64::MAX, 1, u64::MAX]);
        assert!(agrees(&a, &b, 2));
        assert!(agrees(&b, &a, 2));
    }

    #[test]
    fn denormalized_inputs_are_handled() {
        let a = limbs([3, 0, 0]);
        let b = limbs([0, 7, 0]);
        assert_eq!(
            mul_with_threshold(&a, &b, 2),
            mul::mul(&[3], &[0, 7])
        );
    }

    #[test]
    fn square_matches_mul_deep_recursion() {
        let a = limbs((0..17).map(|i| u64::MAX - (i * i) as u64));
        assert_eq!(sqr_with_threshold(&a, 2), mul::mul(&a, &a));
        assert_eq!(sqr_with_threshold(&a, 24), mul::mul(&a, &a));
    }

    #[test]
    fn default_threshold_entry_points() {
        let a = limbs((0..40).map(|i| 0xdead_beef ^ (i as u64) << 17));
        let b = limbs((0..33).map(|i| u64::MAX - i));
        assert_eq!(mul(&a, &b), mul::mul(&a, &b));
        assert_eq!(square(&a), mul::square(&a));
    }
}
