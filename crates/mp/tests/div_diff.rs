//! Differential tests of the two division kernels.
//!
//! The Newton-reciprocal kernel must agree **bit-for-bit** with the
//! paper-faithful Algorithm D kernel on every input. The properties here
//! drive both kernels over ~15k generated operand pairs spanning the
//! shapes where reciprocal iteration breaks: all-ones (near-overflow)
//! divisors that maximize the truncation error of the reciprocal,
//! `u = v·q ± 1` inputs that sit one ulp from a quotient step, operand
//! lengths straddling the dispatch crossover and the limb boundaries of
//! the precision-halving recursion, and heavily unbalanced shapes.
//! Dispatch is forced down the Newton path by calling
//! `div_rem_with_threshold` with a tiny threshold, so even small
//! operands exercise several reciprocal refinement levels.
//!
//! One property additionally checks the Euclidean invariant
//! `u = q·v + r ∧ 0 ≤ r < v` using only multiplication/addition/compare
//! primitives — independent of *either* division kernel, so a bug common
//! to both would still be caught.

use proptest::prelude::*;
use rr_mp::nat::{self, div, mul, newton_div};

type Mag = Vec<u64>;

/// Limb values that maximize/clear carries and reciprocal truncation.
fn edge_limb() -> impl Strategy<Value = u64> {
    prop::sample::select(vec![0u64, 1, 2, 3, u64::MAX, u64::MAX - 1, 1u64 << 63, (1u64 << 63) - 1])
}

/// A normalized magnitude of up to `max_limbs` limbs: random limbs,
/// edge-value limbs, or an all-ones run, with lengths biased to the
/// crossover and the seed/recursion boundaries of the reciprocal.
fn arb_mag(max_limbs: usize) -> impl Strategy<Value = Mag> {
    let boundary_len = prop::sample::select(vec![
        0usize, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 22, 23, 24, 25, 26, 31, 32, 33, 47, 48, 49,
    ]);
    (
        prop::collection::vec(any::<u64>(), 0..=max_limbs),
        prop::collection::vec(edge_limb(), 0..=max_limbs),
        boundary_len,
        0..4u8,
    )
        .prop_map(move |(random, edges, blen, shape)| {
            nat::normalized(match shape {
                0 => random,
                1 => edges,
                2 => vec![u64::MAX; blen.min(max_limbs)],
                _ => {
                    let mut v = random;
                    v.truncate(blen.min(max_limbs));
                    v
                }
            })
        })
}

/// A nonzero normalized magnitude.
fn arb_divisor(max_limbs: usize) -> impl Strategy<Value = Mag> {
    arb_mag(max_limbs).prop_filter("nonzero divisor", |v| !nat::is_zero(v))
}

fn schoolbook(u: &[u64], v: &[u64]) -> (Mag, Mag) {
    div::div_rem(u, v)
}

/// Both kernels agree, and the result satisfies the Euclidean invariant.
fn check(u: &[u64], v: &[u64], threshold: usize) {
    let expect = schoolbook(u, v);
    let got = newton_div::div_rem_with_threshold(u, v, threshold);
    assert_eq!(got, expect, "newton != schoolbook for u={u:?} v={v:?}");
    let (q, r) = got;
    // Invariant check through mul/add/cmp only — independent of both
    // division kernels.
    let qv_plus_r = nat::add(&mul::mul(&q, v), &r);
    assert_eq!(qv_plus_r, nat::normalized(u.to_vec()), "u = q·v + r");
    assert_eq!(nat::cmp(&r, v), std::cmp::Ordering::Less, "r < v");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn newton_matches_schoolbook_under_forced_dispatch(
        u in arb_mag(48),
        v in arb_divisor(24),
        threshold in 2usize..6,
    ) {
        check(&u, &v, threshold);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn newton_matches_at_default_threshold(
        u in arb_mag(96),
        v in arb_divisor(64),
    ) {
        // Exercises the real dispatch gate: long operands go down the
        // reciprocal path, short ones fall through to Algorithm D.
        let expect = schoolbook(&u, &v);
        prop_assert_eq!(newton_div::div_rem(&u, &v), expect);
    }

    #[test]
    fn all_ones_divisors(
        u in arb_mag(80),
        v_len in 1usize..33,
    ) {
        // v = 2^(64k) − 1 maximizes the reciprocal's truncation error
        // (the seed (vh+1) underestimate is largest here).
        let v = vec![u64::MAX; v_len];
        check(&u, &v, 2);
    }

    #[test]
    fn exact_products_and_off_by_one(
        q in arb_mag(32),
        v in arb_divisor(32),
        delta in 0u8..3,
    ) {
        // u ∈ {v·q, v·q + 1, v·q − 1}: one ulp from a quotient step,
        // where a reciprocal that over- or under-shoots by 1 shows up.
        let exact = mul::mul(&q, &v);
        let u = match delta {
            0 => exact,
            1 => nat::add(&exact, &[1]),
            _ => {
                if nat::is_zero(&exact) {
                    exact
                } else {
                    nat::sub(&exact, &[1])
                }
            }
        };
        check(&u, &v, 2);
    }

    #[test]
    fn crossover_straddling_lengths(
        v_len in 20usize..29,
        q_len in 20usize..29,
        seed in any::<u64>(),
    ) {
        // Operand lengths that straddle NEWTON_DIV_THRESHOLD on both
        // the divisor and quotient axes, at the real default threshold.
        let mut s = seed | 1;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s
        };
        let v: Mag = nat::normalized((0..v_len).map(|_| next()).collect());
        prop_assume!(!nat::is_zero(&v));
        let u = nat::add(
            &mul::mul(&v, &nat::normalized((0..q_len).map(|_| next()).collect())),
            &[next() % 1000],
        );
        let expect = schoolbook(&u, &v);
        prop_assert_eq!(newton_div::div_rem(&u, &v), expect);
    }

    #[test]
    fn unbalanced_operands(
        long in arb_mag(120),
        short in arb_divisor(4),
        threshold in 2usize..5,
    ) {
        // Huge quotient, tiny divisor — and the reverse (quotient empty).
        check(&long, &short, threshold);
        if !nat::is_zero(&long) {
            check(&short, &long, threshold);
        }
    }
}

/// The 2-adic exact kernel agrees with Algorithm D, and the quotient
/// satisfies `q·v = u` through multiplication alone — independent of
/// either division kernel.
fn check_exact(q: &[u64], v: &[u64], threshold: usize) {
    let u = mul::mul(q, v);
    let expect = div::div_exact(&u, v);
    let got = newton_div::div_exact_with_threshold(&u, v, threshold);
    assert_eq!(got, expect, "2-adic != schoolbook for q={q:?} v={v:?}");
    assert_eq!(mul::mul(&got, v), u, "q·v = u");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn exact_division_under_forced_dispatch(
        q in arb_mag(48),
        v in arb_divisor(32),
        threshold in 2usize..6,
    ) {
        check_exact(&q, &v, threshold);
    }

    #[test]
    fn exact_division_at_default_threshold(
        q in arb_mag(64),
        v in arb_divisor(48),
    ) {
        // Real dispatch gate: long quotients take the Hensel path,
        // short ones fall through to Algorithm D.
        check_exact(&q, &v, newton_div::NEWTON_EXACT_THRESHOLD);
    }

    #[test]
    fn exact_division_by_powers_of_two_times_odd(
        q in arb_mag(40),
        v in arb_divisor(16),
        z in 0u64..200,
    ) {
        // Even divisors exercise the 2-adic valuation strip-out; the
        // all-ones/edge-limb shapes of `arb_divisor` land here too.
        let v = nat::shl(&v, z);
        check_exact(&q, &v, 2);
    }

    #[test]
    fn fused_dot_division_matches_plain_arithmetic(
        x0 in arb_mag(40),
        y0 in arb_mag(36),
        x1 in arb_mag(40),
        y1 in arb_mag(36),
        qm in arb_mag(48),
        v in arb_divisor(24),
        z in 0u64..100,
        signs in 0u8..16,
    ) {
        // The fused remainder-step kernel (x0·y0 + x1·y1 − t) / d must
        // equal the plainly computed quotient for any signed operands
        // and any even/odd divisor; t is constructed so the combination
        // is exactly q·d.
        use rr_mp::{ExactDivisor, Int, Profile, Sign, SolveCtx};
        let signed = |m: &[u64], bit: u8| {
            let sign = if nat::is_zero(m) {
                Sign::Zero
            } else if signs & (1 << bit) == 0 {
                Sign::Positive
            } else {
                Sign::Negative
            };
            Int::from_sign_mag(sign, m.to_vec())
        };
        let d = Int::from_sign_mag(Sign::Positive, nat::shl(&v, z));
        let (x0, y0) = (signed(&x0, 0), signed(&y0, 1));
        let (x1, y1) = (signed(&x1, 2), signed(&y1, 3));
        let q = signed(&qm, 0);
        let t = (&x0 * &y0) + (&x1 * &y1) - (&q * &d);
        let one = Int::one();
        let ctx = SolveCtx::new(Profile::Fast);
        let got = ctx.run(|| {
            ExactDivisor::new(d.clone())
                .div_exact_dot(&[(&x0, &y0), (&x1, &y1)], &[(&t, &one)])
        });
        prop_assert_eq!(got, q);
    }

    #[test]
    fn prepared_divisor_matches_plain_exact_division(
        qs in prop::collection::vec(arb_mag(40), 1..5),
        v in arb_divisor(24),
        z in 0u64..100,
    ) {
        // A shared ExactDivisor must give the same quotients as
        // independent Int::div_exact calls, whatever mix of quotient
        // sizes extends its cached inverse.
        use rr_mp::{ExactDivisor, Int, Profile, Sign, SolveCtx};
        let d = Int::from_sign_mag(Sign::Positive, nat::shl(&v, z));
        let prepared = ExactDivisor::new(d.clone());
        let ctx = SolveCtx::new(Profile::Fast);
        ctx.run(|| {
            for qm in &qs {
                let q = Int::from_sign_mag(Sign::Positive, qm.clone());
                let u = &d * &q;
                prop_assert_eq!(prepared.div_exact(&u), u.div_exact(&d));
            }
            Ok(())
        })?;
    }
}

#[test]
fn trivial_shapes() {
    // Below-threshold and degenerate shapes fall through identically.
    assert_eq!(newton_div::div_rem(&[], &[7]), (vec![], vec![]));
    assert_eq!(newton_div::div_rem(&[3], &[7]), (vec![], vec![3]));
    assert_eq!(newton_div::div_rem(&[7], &[7]), (vec![1], vec![]));
    let v = vec![u64::MAX; 30];
    let u = nat::shl(&v, 64 * 30);
    assert_eq!(newton_div::div_rem(&u, &v), schoolbook(&u, &v));
}
