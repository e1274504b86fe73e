//! Differential suite for the in-place (`_into` / `_assign`) kernels.
//!
//! Every buffer-reusing kernel must agree **bit-for-bit** with its
//! allocating twin on every input, under three hostile conditions the
//! scratch-arena layer introduces:
//!
//! * **dirty output buffers** — `_into` kernels receive a `Vec` already
//!   holding garbage limbs and must fully overwrite it (the scratch
//!   contract says spare capacity is never zeroed);
//! * **poisoned scratch arenas** — the thread-local free list is
//!   pre-seeded with buffers full of sentinel limbs, so any kernel that
//!   reads a scratch buffer before writing it diverges immediately;
//! * **aliased operands** — `f(a, a)` shapes, which the in-place
//!   rewrites make much easier to produce than the allocating API did.
//!
//! Each property runs its kernel against both a **poisoned** and a
//! **cold** (just released, so every take allocates fresh) thread arena
//! and compares both against the allocating twin. Arenas are
//! thread-local, so concurrently running tests never interfere.

use proptest::prelude::*;
use rr_mp::nat::{self, div, kmul, mul, newton_div};
use rr_mp::{scratch, Int, Profile, SolveCtx};

type Mag = Vec<u64>;

/// Sentinel limb pattern that makes "read before write" failures loud.
const POISON: u64 = 0xDEAD_BEEF_DEAD_BEEF;

/// Seeds the calling thread's arena with dirty buffers, then runs `f`.
/// The buffers' spare capacity holds `POISON`, so a kernel that trusts
/// scratch contents produces garbage.
fn with_poisoned_arena<T>(f: impl FnOnce() -> T) -> T {
    for limbs in [16usize, 64, 256] {
        let mut b = scratch::take(limbs);
        b.resize(limbs, POISON);
        scratch::put(b);
    }
    f()
}

/// Runs `f` on an emptied thread arena (every take is a cold miss).
fn with_cold_arena<T>(f: impl FnOnce() -> T) -> T {
    scratch::release_thread();
    f()
}

/// A dirty output buffer: nonzero length, poisoned contents.
fn dirty_out() -> Mag {
    vec![POISON; 7]
}

/// A magnitude of up to `max_limbs` limbs biased toward carry edges.
fn arb_mag(max_limbs: usize) -> impl Strategy<Value = Mag> {
    let edge = prop::sample::select(vec![0u64, 1, 2, u64::MAX, u64::MAX - 1, 1u64 << 63]);
    (
        prop::collection::vec(any::<u64>(), 0..=max_limbs),
        prop::collection::vec(edge, 0..=max_limbs),
        any::<bool>(),
    )
        .prop_map(|(random, edges, pick)| if pick { random } else { edges })
}

/// Checks one `_into` kernel against its allocating twin under dirty
/// outputs, a poisoned arena, and a cold arena.
fn check_into(expect: &[u64], run: impl Fn(&mut Mag)) {
    let mut out = dirty_out();
    with_poisoned_arena(|| run(&mut out));
    assert_eq!(out, expect, "poisoned arena");
    let mut out = dirty_out();
    with_cold_arena(|| run(&mut out));
    assert_eq!(out, expect, "cold arena");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mul_auto_into_matches_allocating(a in arb_mag(24), b in arb_mag(24)) {
        let expect = mul::mul(&a, &b);
        check_into(&expect, |out| nat::mul_auto_into(&a, &b, out));
    }

    #[test]
    fn mul_into_schoolbook_matches_allocating(a in arb_mag(20), b in arb_mag(20)) {
        let expect = mul::mul(&a, &b);
        check_into(&expect, |out| mul::mul_into(&a, &b, out));
    }

    #[test]
    fn karatsuba_into_matches_schoolbook_deep_recursion(a in arb_mag(40), b in arb_mag(40)) {
        // Threshold 4 forces several Karatsuba levels, all of whose z0,
        // z1, z2, and operand-sum temporaries come from scratch.
        let expect = mul::mul(&a, &b);
        check_into(&expect, |out| kmul::mul_with_threshold_into(&a, &b, 4, out));
    }

    #[test]
    fn square_into_matches_mul_aliased(a in arb_mag(40)) {
        // Aliased-operand shape: squaring IS mul(a, a).
        let expect = mul::mul(&a, &a);
        check_into(&expect, |out| kmul::sqr_with_threshold_into(&a, 4, out));
        check_into(&expect, |out| nat::sqr_auto_into(&a, out));
        check_into(&expect, |out| nat::mul_auto_into(&a, &a, out));
    }

    #[test]
    fn add_into_matches_allocating(a in arb_mag(24), b in arb_mag(24)) {
        let expect = nat::add(&a, &b);
        check_into(&expect, |out| nat::add_into(&a, &b, out));
        // Aliased operands.
        let doubled = nat::add(&a, &a);
        check_into(&doubled, |out| nat::add_into(&a, &a, out));
    }

    #[test]
    fn shl_into_matches_allocating(a in arb_mag(24), bits in 0u64..200) {
        let expect = nat::shl(&a, bits);
        check_into(&expect, |out| nat::shl_into(&a, bits, out));
    }

    #[test]
    fn assign_ops_match_allocating(a in arb_mag(24), b in arb_mag(24)) {
        let a = nat::normalized(a);
        let b = nat::normalized(b);
        let (lo, hi) = if nat::cmp(&a, &b) == std::cmp::Ordering::Greater {
            (b.clone(), a.clone())
        } else {
            (a.clone(), b.clone())
        };
        let mut x = hi.clone();
        nat::add_assign(&mut x, &lo);
        prop_assert_eq!(&x, &nat::add(&hi, &lo));
        let mut x = hi.clone();
        nat::sub_assign(&mut x, &lo);
        prop_assert_eq!(&x, &nat::sub(&hi, &lo));
        let mut x = lo.clone();
        nat::rsub_assign(&mut x, &hi);
        prop_assert_eq!(&x, &nat::sub(&hi, &lo));
        // Aliased self-subtraction cancels to zero.
        let mut x = hi.clone();
        let y = hi.clone();
        nat::sub_assign(&mut x, &y);
        prop_assert!(nat::is_zero(&x));
    }

    #[test]
    fn pack_slots_into_matches_allocating(
        slots in prop::collection::vec(arb_mag(3), 1..12),
        w in 1u64..130,
    ) {
        // Slots must fit in w bits for the packing contract.
        let w = 64 * 3 + w; // always >= any slot's bit length
        let slots: Vec<Mag> = slots.into_iter().map(nat::normalized).collect();
        let refs: Vec<&[u64]> = slots.iter().map(Vec::as_slice).collect();
        let expect = nat::pack_slots(&refs, w);
        check_into(&expect, |out| nat::pack_slots_into(&refs, w, out));
    }

    #[test]
    fn newton_div_rem_into_scratch_matches_schoolbook(
        u in arb_mag(48),
        v in arb_mag(24),
    ) {
        let u = nat::normalized(u);
        let v = nat::normalized(v);
        prop_assume!(!v.is_empty());
        // Threshold 1 forces the Newton reciprocal path (and its
        // mul_low/mod_sub scratch kernels) on every size.
        let expect = div::div_rem(&u, &v);
        let got_poisoned = with_poisoned_arena(|| newton_div::div_rem_with_threshold(&u, &v, 1));
        prop_assert_eq!(&got_poisoned, &expect);
        let got_cold = with_cold_arena(|| newton_div::div_rem_with_threshold(&u, &v, 1));
        prop_assert_eq!(&got_cold, &expect);
    }

    #[test]
    fn newton_exact_div_scratch_matches_schoolbook(
        q in arb_mag(20),
        v in arb_mag(12),
    ) {
        let q = nat::normalized(q);
        let v = nat::normalized(v);
        prop_assume!(!v.is_empty());
        let u = mul::mul(&q, &v);
        let expect = div::div_exact(&u, &v);
        let got_poisoned =
            with_poisoned_arena(|| newton_div::div_exact_with_threshold(&u, &v, 1));
        prop_assert_eq!(&got_poisoned, &expect);
        let got_cold = with_cold_arena(|| newton_div::div_exact_with_threshold(&u, &v, 1));
        prop_assert_eq!(&got_cold, &expect);
    }

    #[test]
    fn int_mul_into_matches_operator(a in any::<i128>(), b in any::<i128>(), s in 0u32..4) {
        // Shift one operand up to multi-limb sizes.
        let x = Int::from(a) << (64 * s) as u64;
        let y = Int::from(b);
        let expect = &x * &y;
        let mut out = Int::from(77);
        with_poisoned_arena(|| x.mul_into(&y, &mut out));
        prop_assert_eq!(&out, &expect);
        let mut out = Int::from(-3);
        with_cold_arena(|| x.mul_into(&y, &mut out));
        prop_assert_eq!(&out, &expect);
    }

    #[test]
    fn int_fused_mul_assign_matches_composed(
        acc in any::<i128>(),
        a in any::<i128>(),
        b in any::<i128>(),
        s in 0u32..3,
    ) {
        let acc = Int::from(acc) << (64 * s) as u64;
        let x = Int::from(a) << (64 * s) as u64;
        let y = Int::from(b);
        let expect_sub = &acc - &(&x * &y);
        let expect_add = &acc + &(&x * &y);
        let mut got = acc.clone();
        with_poisoned_arena(|| got.sub_mul_assign(&x, &y));
        prop_assert_eq!(&got, &expect_sub);
        let mut got = acc.clone();
        with_cold_arena(|| got.sub_mul_assign(&x, &y));
        prop_assert_eq!(&got, &expect_sub);
        let mut got = acc.clone();
        with_poisoned_arena(|| got.add_mul_assign(&x, &y));
        prop_assert_eq!(&got, &expect_add);
        // Aliased multiplicands: acc -= x·x.
        let expect_sq = &acc - &(&x * &x);
        let mut got = acc.clone();
        with_poisoned_arena(|| got.sub_mul_assign(&x, &x));
        prop_assert_eq!(&got, &expect_sq);
    }

    #[test]
    fn trim_and_normalized_never_reallocate(mut v in arb_mag(24), zeros in 0usize..8) {
        v.extend(std::iter::repeat_n(0u64, zeros));
        let cap = v.capacity();
        let ptr = v.as_ptr();
        nat::trim(&mut v);
        prop_assert_eq!(v.capacity(), cap, "trim reallocated");
        prop_assert_eq!(v.as_ptr(), ptr, "trim moved the buffer");
        prop_assert!(v.last().is_none_or(|&l| l != 0));
        let w = nat::normalized(v.clone());
        prop_assert_eq!(&w, &v);
    }
}

/// The arena must leave results bit-identical even when a buffer
/// retained from one operation is reused by a completely different
/// kernel (cross-kernel dirty reuse).
#[test]
fn cross_kernel_buffer_reuse_is_clean() {
    let ctx = SolveCtx::new(Profile::Fast);
    ctx.run(|| {
        let a: Mag = (1..=32u64).map(|i| i.wrapping_mul(POISON)).collect();
        let b: Mag = (1..=24u64).map(|i| i.wrapping_mul(0x1234_5678_9ABC_DEF1)).collect();
        let expect_mul = mul::mul(&a, &b);
        let expect_sq = mul::mul(&a, &a);
        let (expect_q, expect_r) = div::div_rem(&expect_mul, &b);
        // Interleave kernels so each picks up buffers the previous one
        // retained.
        for _ in 0..4 {
            let mut out = Vec::new();
            kmul::mul_with_threshold_into(&a, &b, 4, &mut out);
            assert_eq!(out, expect_mul);
            let mut sq = Vec::new();
            kmul::sqr_with_threshold_into(&a, 4, &mut sq);
            assert_eq!(sq, expect_sq);
            let (q, r) = newton_div::div_rem_with_threshold(&expect_mul, &b, 1);
            assert_eq!((q, r), (expect_q.clone(), expect_r.clone()));
        }
    });
}

/// Balanced take/put accounting: the hot kernels return every scratch
/// buffer they take, so the arena's outstanding count returns to zero.
#[test]
fn kernels_return_all_scratch_buffers() {
    let ctx = SolveCtx::new(Profile::Fast);
    ctx.run(|| {
        let a: Mag = vec![u64::MAX; 40];
        let b: Mag = vec![0x0123_4567_89AB_CDEF; 33];
        let mut out = Vec::new();
        kmul::mul_with_threshold_into(&a, &b, 4, &mut out);
        let _ = newton_div::div_rem_with_threshold(&out, &b, 1);
        let retained_before = scratch::retained_on_thread();
        let mut out2 = Vec::new();
        kmul::mul_with_threshold_into(&a, &b, 4, &mut out2);
        // Steady state: reuse without growth.
        assert!(scratch::retained_on_thread() >= 1);
        assert!(scratch::retained_on_thread() <= retained_before.max(1) + 2);
        // Releasing the thread arena empties the free list.
        scratch::release_thread();
        assert_eq!(scratch::retained_on_thread(), 0);
    });
}
