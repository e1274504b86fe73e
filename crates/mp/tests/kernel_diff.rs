//! Differential tests of the two multiplication kernels.
//!
//! The `Fast` (Karatsuba) kernel must agree **bit-for-bit** with the
//! paper-faithful schoolbook kernel on every input. The properties here
//! drive both kernels over tens of thousands of generated magnitudes
//! spanning the shapes where split-and-recombine arithmetic breaks:
//! limb-boundary lengths, heavily unbalanced operands, zero/one, and
//! near-overflow (all-ones) limbs that maximize internal carries. Deep
//! recursion is forced by calling `mul_with_threshold` with tiny
//! thresholds, so even small operands exercise several Karatsuba levels.
//!
//! This file also carries the edge-case property coverage for
//! `nat::mul_limb`, `nat::mul::square`, and `nat::mul_normalizing`.

use proptest::prelude::*;
use rr_mp::nat::{self, kmul, mul};

type Mag = Vec<u64>;

/// Limb values that maximize/clear carries.
fn edge_limb() -> impl Strategy<Value = u64> {
    prop::sample::select(vec![0u64, 1, 2, 3, u64::MAX, u64::MAX - 1, 1u64 << 63, (1u64 << 63) - 1])
}

/// A magnitude of up to `max_limbs` limbs: random limbs, edge-value
/// limbs, or an all-ones (near-overflow) run, with lengths biased to the
/// split boundaries of the recursion.
fn arb_mag(max_limbs: usize) -> impl Strategy<Value = Mag> {
    let boundary_len = prop::sample::select(vec![
        0usize,
        1,
        2,
        3,
        4,
        7,
        8,
        9,
        15,
        16,
        17,
        23,
        24,
        25,
        31,
        32,
        33,
    ]);
    (
        prop::collection::vec(any::<u64>(), 0..=max_limbs),
        prop::collection::vec(edge_limb(), 0..=max_limbs),
        boundary_len,
        0..4u8,
    )
        .prop_map(move |(random, edges, blen, shape)| match shape {
            0 => random,
            1 => edges,
            2 => vec![u64::MAX; blen.min(max_limbs)],
            _ => {
                let mut v = random;
                v.truncate(blen.min(max_limbs));
                v
            }
        })
}

fn schoolbook(a: &[u64], b: &[u64]) -> Mag {
    mul::mul(a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn fast_matches_schoolbook_at_default_threshold(
        a in arb_mag(40),
        b in arb_mag(40),
    ) {
        prop_assert_eq!(kmul::mul(&a, &b), schoolbook(&a, &b));
    }

    #[test]
    fn fast_matches_schoolbook_under_forced_recursion(
        a in arb_mag(24),
        b in arb_mag(24),
        threshold in 2usize..6,
    ) {
        prop_assert_eq!(
            kmul::mul_with_threshold(&a, &b, threshold),
            schoolbook(&a, &b)
        );
    }

    #[test]
    fn fast_square_matches_schoolbook(
        a in arb_mag(40),
        threshold in 2usize..8,
    ) {
        prop_assert_eq!(kmul::square(&a), mul::square(&a));
        prop_assert_eq!(kmul::sqr_with_threshold(&a, threshold), schoolbook(&a, &a));
    }

    #[test]
    fn fast_handles_unbalanced_operands(
        long in arb_mag(96),
        short in arb_mag(6),
        threshold in 2usize..5,
    ) {
        // Chunked path (and its commutation) — the shape the balanced
        // split alone cannot reach.
        prop_assert_eq!(
            kmul::mul_with_threshold(&long, &short, threshold),
            schoolbook(&long, &short)
        );
        prop_assert_eq!(
            kmul::mul_with_threshold(&short, &long, threshold),
            schoolbook(&long, &short)
        );
    }

    #[test]
    fn fast_near_overflow_carry_chains(len_a in 1usize..48, len_b in 1usize..48) {
        // (2^(64a) − 1)(2^(64b) − 1) stresses every carry in the
        // recombination adds.
        let a = vec![u64::MAX; len_a];
        let b = vec![u64::MAX; len_b];
        prop_assert_eq!(kmul::mul_with_threshold(&a, &b, 2), schoolbook(&a, &b));
    }
}

// Satellite coverage: mul_limb / square / mul_normalizing edge cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mul_limb_matches_general_mul(a in arb_mag(12), m in edge_limb()) {
        // mul_limb's contract (like the rest of `nat`) is normalized input.
        let a = nat::normalized(a);
        let as_mag: Mag = if m == 0 { vec![] } else { vec![m] };
        prop_assert_eq!(mul::mul_limb(&a, m), schoolbook(&a, &as_mag));
    }

    #[test]
    fn mul_limb_zero_and_one(a in arb_mag(12)) {
        let a = nat::normalized(a);
        prop_assert_eq!(mul::mul_limb(&a, 0), Mag::new());
        prop_assert_eq!(mul::mul_limb(&a, 1), a.clone());
        prop_assert_eq!(mul::mul_limb(&[], 12345), Mag::new());
    }

    #[test]
    fn square_is_aliased_mul(a in arb_mag(12)) {
        prop_assert_eq!(mul::square(&a), schoolbook(&a, &a));
        let bits = nat::bit_len(&nat::normalized(a.clone()));
        let sq_bits = nat::bit_len(&mul::square(&a));
        // ‖a²‖ is 2‖a‖ or 2‖a‖ − 1 for nonzero a.
        if bits > 0 {
            prop_assert!(sq_bits == 2 * bits || sq_bits == 2 * bits - 1);
        } else {
            prop_assert_eq!(sq_bits, 0);
        }
    }

    #[test]
    fn mul_normalizing_accepts_denormalized(
        a in arb_mag(8),
        b in arb_mag(8),
        pad_a in 0usize..4,
        pad_b in 0usize..4,
    ) {
        let mut ap = a.clone();
        ap.resize(ap.len() + pad_a, 0);
        let mut bp = b.clone();
        bp.resize(bp.len() + pad_b, 0);
        prop_assert_eq!(mul::mul_normalizing(ap, bp), schoolbook(&a, &b));
    }

    #[test]
    fn mul_normalizing_single_limb_and_zero(x in any::<u64>(), pad in 0usize..3) {
        let padded = |v: u64| {
            let mut m = if v == 0 { vec![] } else { vec![v] };
            m.resize(m.len() + pad, 0);
            m
        };
        prop_assert_eq!(mul::mul_normalizing(padded(x), padded(0)), Mag::new());
        prop_assert_eq!(
            mul::mul_normalizing(padded(x), padded(1)),
            if x == 0 { vec![] } else { vec![x] }
        );
    }
}

/// `mul_normalizing` dispatches through the active profile; under
/// `Fast` it must still produce schoolbook-identical (normalized) limbs.
#[test]
fn mul_normalizing_dispatches_to_fast_profile() {
    let a: Mag = (0..33u64).map(|i| u64::MAX - i * i).chain([0, 0]).collect();
    let b: Mag = (0..29u64).map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i | 1)).collect();
    let expect = mul::mul(&nat::normalized(a.clone()), &nat::normalized(b.clone()));

    let fast = rr_mp::SolveCtx::new(rr_mp::Profile::Fast)
        .run(|| mul::mul_normalizing(a.clone(), b.clone()));
    assert_eq!(fast, expect);

    let paper = mul::mul_normalizing(a, b);
    assert_eq!(paper, expect);
}
