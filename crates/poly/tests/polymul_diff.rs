//! Differential suite for the polynomial multiplication kernels.
//!
//! The Kronecker path must be *invisible* except in wall-clock time:
//! bit-identical products, and bit-identical recorded model counts (the
//! paper's figures are stated in those counts, so any drift would
//! corrupt the reproduction). Random signed polynomials up to degree 64
//! with coefficients up to 4096 bits — including zero coefficients,
//! aliased operands, and slot-boundary magnitudes — are pushed through
//! both paths and compared exactly.

use proptest::prelude::*;
use rr_mp::{metrics::Phase, Exec, Int, Profile, Sign, SolveCtx};
use rr_poly::{kronecker, Poly};

/// A signed integer of up to `max_limbs` 64-bit limbs; zero roughly one
/// time in nine so products exercise the zero-skipping model replay.
fn arb_int(max_limbs: usize) -> impl Strategy<Value = Int> {
    ((-4i8..=4i8), prop::collection::vec(any::<u64>(), 1..=max_limbs)).prop_map(
        |(s, limbs)| match s {
            0 => Int::zero(),
            s => {
                let m = Int::from_sign_mag(Sign::Positive, limbs);
                if s < 0 {
                    -m
                } else {
                    m
                }
            }
        },
    )
}

fn arb_poly(max_len: usize, max_limbs: usize) -> impl Strategy<Value = Poly> {
    prop::collection::vec(arb_int(max_limbs), 0..=max_len).prop_map(Poly::from_coeffs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Degree 0–64, coefficients up to 4096 bits: the two kernels agree
    /// bit-for-bit, under both profiles' limb kernels.
    #[test]
    fn kronecker_matches_schoolbook_large(
        a in arb_poly(65, 64),
        b in arb_poly(65, 64),
    ) {
        let school = a.mul_schoolbook(&b);
        for profile in Profile::ALL {
            let kron = SolveCtx::new(profile).run(|| a.mul_kronecker(&b));
            prop_assert_eq!(&kron, &school);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Smaller operands, denser sampling: products and squares agree,
    /// including the aliased-operand (`&p * &p`) dispatch.
    #[test]
    fn kronecker_matches_schoolbook_small(
        a in arb_poly(12, 4),
        b in arb_poly(12, 4),
    ) {
        prop_assert_eq!(a.mul_kronecker(&b), a.mul_schoolbook(&b));
        prop_assert_eq!(kronecker::square(&a), a.mul_schoolbook(&a));
        // Operator dispatch under a Fast session still equals the
        // forced schoolbook product, whichever side of the size
        // crossover the operands fall on.
        let ctx = SolveCtx::new(Profile::Fast);
        prop_assert_eq!(ctx.run(|| &a * &b), a.mul_schoolbook(&b));
        prop_assert_eq!(ctx.run(|| &a * &a), a.mul_schoolbook(&a));
    }

    /// The recorded model is identical under both polynomial kernels:
    /// same multiplication count, same bit cost, per phase — the
    /// invariance Figures 2–5 / Table 1 rest on.
    #[test]
    fn model_counts_are_kernel_invariant(
        a in arb_poly(10, 6),
        b in arb_poly(10, 6),
    ) {
        let school = SolveCtx::new(Profile::Paper);
        let kron = SolveCtx::new(Profile::Fast);
        school.run(|| rr_mp::metrics::with_phase(Phase::TreePoly, || &a * &b));
        kron.run(|| rr_mp::metrics::with_phase(Phase::TreePoly, || a.mul_kronecker(&b)));
        prop_assert_eq!(school.snapshot(), kron.snapshot());

        // Squares replay the full aliased double loop on both paths.
        let school_sq = SolveCtx::new(Profile::Paper);
        let kron_sq = SolveCtx::new(Profile::Paper);
        school_sq.run(|| {
            let b = a.clone();
            let _ = &a * &b; // unaliased: the historical double loop
        });
        kron_sq.run(|| kronecker::square(&a));
        prop_assert_eq!(school_sq.snapshot(), kron_sq.snapshot());
    }

    /// The squaring fast path (aliased dispatch, limb squaring kernel,
    /// mirror-pair recording) is value- and model-identical to
    /// multiplying by a clone.
    #[test]
    fn square_path_matches_general_mul(a in arb_poly(10, 6)) {
        let via_square = SolveCtx::new(Profile::Paper);
        let via_mul = SolveCtx::new(Profile::Paper);
        let s = via_square.run(|| a.square());
        let m = via_mul.run(|| {
            let b = a.clone();
            &a * &b
        });
        prop_assert_eq!(s, m);
        prop_assert_eq!(via_square.snapshot(), via_mul.snapshot());
        // Aliased operator references take the squaring path and must
        // still record identically.
        let aliased = SolveCtx::new(Profile::Paper);
        let v = aliased.run(|| &a * &a);
        prop_assert_eq!(v, via_mul.run(|| a.mul_schoolbook(&a)));
        prop_assert_eq!(aliased.snapshot().total().mul_count,
                        via_square.snapshot().total().mul_count);
    }
}

/// Slot-overflow boundary: coefficients at exact powers of two and
/// all-ones magnitudes, where every convolution sum sits against the
/// field bound `2^(w-1)`.
#[test]
fn slot_boundary_magnitudes() {
    let all_ones = Int::from_sign_mag(Sign::Positive, vec![u64::MAX; 4]);
    let pow = Int::pow2(255);
    for len in [1usize, 2, 3, 9, 33] {
        let a = Poly::from_coeffs(vec![all_ones.clone(); len]);
        let b = Poly::from_coeffs(vec![-&all_ones; len]);
        let c = Poly::from_coeffs(
            (0..len)
                .map(|i| if i % 2 == 0 { pow.clone() } else { -&pow })
                .collect(),
        );
        assert_eq!(a.mul_kronecker(&a), a.mul_schoolbook(&a), "len {len}");
        assert_eq!(a.mul_kronecker(&b), a.mul_schoolbook(&b), "len {len}");
        assert_eq!(b.mul_kronecker(&c), b.mul_schoolbook(&c), "len {len}");
        assert_eq!(kronecker::square(&c), c.mul_schoolbook(&c), "len {len}");
    }
}

/// Cancellation: products whose interior coefficients vanish exercise
/// the `pos_k == neg_k` branch of the signed recombination.
#[test]
fn cancelling_products() {
    // (x^n - 1)(x^n + 1) = x^2n - 1: all interior coefficients cancel.
    for n in [1usize, 5, 16, 40] {
        let mut minus = vec![Int::zero(); n + 1];
        minus[0] = Int::from(-1);
        minus[n] = Int::one();
        let mut plus = vec![Int::zero(); n + 1];
        plus[0] = Int::one();
        plus[n] = Int::one();
        let a = Poly::from_coeffs(minus);
        let b = Poly::from_coeffs(plus);
        let got = a.mul_kronecker(&b);
        assert_eq!(got, a.mul_schoolbook(&b), "n {n}");
        let mut expect = vec![Int::zero(); 2 * n + 1];
        expect[0] = Int::from(-1);
        expect[2 * n] = Int::one();
        assert_eq!(got, Poly::from_coeffs(expect), "n {n}");
    }
}

/// Degenerate shapes: zero, constants, monomials, single-term × dense.
#[test]
fn degenerate_shapes() {
    let zero = Poly::zero();
    let c = Poly::constant(Int::from(-7));
    let mono = Poly::monomial(Int::pow2(1000), 17);
    let dense = Poly::from_i64(&[3, -1, 4, -1, 5, -9, 2, -6]);
    assert_eq!(zero.mul_kronecker(&dense), Poly::zero());
    assert_eq!(dense.mul_kronecker(&zero), Poly::zero());
    assert_eq!(kronecker::square(&zero), Poly::zero());
    for (a, b) in [(&c, &dense), (&mono, &dense), (&c, &mono), (&mono, &mono)] {
        assert_eq!(a.mul_kronecker(b), a.mul_schoolbook(b));
    }
    assert_eq!(kronecker::square(&mono), mono.mul_schoolbook(&mono));
}

/// The session dispatch actually reaches the Kronecker kernel above the
/// crossover (visible in the execution counters) and not below it, and
/// the model counters never show the difference.
#[test]
fn dispatch_respects_crossover_and_counts_execution() {
    let long = Poly::from_roots(&(0..kronecker::KRONECKER_MIN_LEN as i64).map(Int::from).collect::<Vec<_>>());
    let short = Poly::from_i64(&[1, 2, 3]);

    let ctx = SolveCtx::new(Profile::Fast);
    ctx.run(|| &long * &long.clone());
    let after_long = ctx.exec().get(Exec::KroneckerMuls);
    assert!(after_long >= 1, "long product should pack");
    assert!(ctx.exec().get(Exec::PackedBits) > 0);

    ctx.run(|| &short * &short.clone());
    assert_eq!(
        ctx.exec().get(Exec::KroneckerMuls),
        after_long,
        "below-crossover product must fall back to schoolbook"
    );

    // A Paper session never packs, whatever the size.
    let plain = SolveCtx::new(Profile::Paper);
    plain.run(|| &long * &long.clone());
    assert_eq!(plain.exec().get(Exec::KroneckerMuls), 0);
    // ... and its model counts equal the Fast session's for the same
    // product.
    let kron_ctx = SolveCtx::new(Profile::Fast);
    kron_ctx.run(|| &long * &long.clone());
    assert_eq!(plain.snapshot(), kron_ctx.snapshot());
}

/// The balanced `from_roots` product tree builds the same polynomial as
/// the naive left-to-right fold.
#[test]
fn from_roots_balanced_tree_matches_fold() {
    for n in [0usize, 1, 2, 3, 7, 8, 20, 65] {
        let roots: Vec<Int> = (0..n).map(|i| Int::from(i as i64 * 3 - 40)).collect();
        let balanced = Poly::from_roots(&roots);
        let mut fold = Poly::one();
        for r in &roots {
            fold = &fold * &Poly::from_coeffs(vec![-r, Int::one()]);
        }
        assert_eq!(balanced, fold, "n {n}");
        if n > 0 {
            assert_eq!(balanced.deg(), n);
            assert!(balanced.lc().is_one());
        }
    }
}
