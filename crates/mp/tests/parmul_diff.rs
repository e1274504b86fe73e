//! Differential tests of the fork-join multiplication kernels.
//!
//! The `Profile::Fast` splitter ([`rr_mp::nat::parmul`]) must agree
//! **bit-for-bit** with the serial Karatsuba kernel (itself held to the
//! schoolbook reference by `kernel_diff.rs`) on every input — inline
//! (no ambient pool scope), on a real multi-worker pool scope with
//! subtasks actually claimed by other workers, and on a single-worker
//! scope where every join must degrade to inline execution. The
//! property suite drives ~15k generated cases across the shapes that
//! break split-and-recombine arithmetic: lengths straddling
//! [`PAR_MUL_THRESHOLD`] and the tiled-path boundary at twice it,
//! all-ones carry chains, sparse (denormalized-half) operands, aliased
//! operands, and poisoned destination/scratch buffers.

use proptest::prelude::*;
use rr_mp::nat::kmul;
use rr_mp::nat::parmul::{self, PAR_MUL_THRESHOLD};
use rr_mp::{scratch, Exec, Profile, SolveCtx};

type Mag = Vec<u64>;

const T: usize = PAR_MUL_THRESHOLD;

/// Operand lengths biased to the splitter's decision boundaries: the
/// engage threshold `T`, the balanced/tiled boundary at `2·short`, and
/// a few deep-recursion sizes.
fn boundary_len() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![
        0usize,
        1,
        7,
        T / 2,
        T - 1,
        T,
        T + 1,
        T + T / 2,
        2 * T - 1,
        2 * T,
        2 * T + 1,
        3 * T + 5,
        4 * T + 3,
    ])
}

/// A magnitude of the given length in one of the carry-stressing
/// shapes: random limbs, all-ones (maximal carries), sparse (mostly
/// zero — produces denormalized split halves), or top-heavy.
fn arb_mag() -> impl Strategy<Value = Mag> {
    (boundary_len(), any::<u64>(), 0..4u8).prop_map(|(len, seed, shape)| {
        let mut x = seed | 1;
        let mut next = move || {
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^ (x >> 27)
        };
        (0..len)
            .map(|i| match shape {
                0 => next(),
                1 => u64::MAX,
                2 => {
                    if i % 97 == 0 {
                        next()
                    } else {
                        0
                    }
                }
                _ => {
                    if i >= len / 2 {
                        next()
                    } else {
                        0
                    }
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// No ambient pool scope: every join runs inline and the parallel
    /// kernel is plain recursive Karatsuba.
    #[test]
    fn parmul_matches_serial_inline(a in arb_mag(), b in arb_mag()) {
        let expect = kmul::mul(&a, &b);
        let mut got = Vec::new();
        parmul::mul_into(&a, &b, &mut got);
        prop_assert_eq!(&got, &expect);
        // A tiny explicit threshold splits every level of the tree.
        parmul::mul_with_threshold_into(&a, &b, 4, &mut got);
        prop_assert_eq!(&got, &expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3072))]

    #[test]
    fn parmul_square_matches_serial(a in arb_mag()) {
        let mut got = Vec::new();
        parmul::square_into(&a, &mut got);
        prop_assert_eq!(&got, &kmul::square(&a));

        // Aliased operands: multiplying a magnitude by itself through
        // the mul path must agree with the square path.
        let mut via_mul = Vec::new();
        parmul::mul_into(&a, &a, &mut via_mul);
        prop_assert_eq!(via_mul, got);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3072))]

    /// Poisoned destinations and poisoned scratch: the kernels must
    /// fully overwrite whatever garbage the destination holds, and must
    /// never read a scratch buffer's stale limbs.
    #[test]
    fn poisoned_buffers_and_scratch(a in arb_mag(), b in arb_mag(), poison in any::<u64>()) {
        for limbs in [T, 4 * T, 16 * T] {
            let mut buf = scratch::take(limbs);
            buf.resize(limbs, poison);
            scratch::put(buf);
        }
        let expect = kmul::mul(&a, &b);
        let mut out = vec![poison | 1; a.len() + b.len() + 7];
        parmul::mul_into(&a, &b, &mut out);
        prop_assert_eq!(&out, &expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The dispatch layer: `nat::mul_auto_into` under either profile
    /// must stay bit-identical to the serial kernels.
    #[test]
    fn dispatch_is_profile_invariant(a in arb_mag(), b in arb_mag()) {
        let expect = kmul::mul(&a, &b);
        for profile in Profile::ALL {
            SolveCtx::new(profile).run(|| {
                let mut out = Vec::new();
                rr_mp::nat::mul_auto_into(&a, &b, &mut out);
                prop_assert_eq!(&out, &expect);
                Ok(())
            })?;
        }
    }
}

/// Deterministic operand for the pool tests: `len` pseudo-random limbs.
fn det_mag(len: usize, seed: u64) -> Mag {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^ (x >> 27)
        })
        .collect()
}

/// A real 8-worker pool scope: one task computes large products while
/// the other workers idle, so join subtasks are actually claimed and
/// executed remotely. Results must match the serial kernel and the
/// session must observe the splits on every run, and, with idle
/// capacity on tap, remote executions on some run. Whether a parked
/// worker wakes before the submitter runs its own subtasks inline is up
/// to the host's scheduler, so the scoped loop repeats, each time under
/// a fresh context, until one run records a steal.
#[test]
fn pool_scope_products_are_bit_identical_and_stolen() {
    // Release runs on a loaded 2-vCPU host have needed up to 17; an
    // attempt costs milliseconds, so the cap leaves a wide margin.
    const ATTEMPTS: usize = 256;
    let sizes = [(8 * T, 8 * T - 3), (5 * T, 2 * T + 1), (9 * T + 7, T)];
    let inputs: Vec<(Mag, Mag)> = sizes
        .iter()
        .enumerate()
        .map(|(i, &(la, lb))| (det_mag(la, i as u64 + 1), det_mag(lb, 100 + i as u64)))
        .collect();
    let expect: Vec<Mag> = inputs.iter().map(|(a, b)| kmul::mul(a, b)).collect();

    let stolen = (0..ATTEMPTS).any(|attempt| {
        let ctx = SolveCtx::new(Profile::Fast);
        let results: Vec<std::sync::Mutex<Mag>> = inputs
            .iter()
            .map(|_| std::sync::Mutex::new(Vec::new()))
            .collect();
        {
            let (ctx, inputs, results) = (&ctx, &inputs, &results);
            rr_sched::run(8, move |scope| {
                scope.spawn(move |_| {
                    ctx.run(|| {
                        for ((a, b), slot) in inputs.iter().zip(results) {
                            let mut out = Vec::new();
                            parmul::mul_into(a, b, &mut out);
                            *slot.lock().unwrap() = out;
                        }
                    });
                });
            });
        }
        for (i, (slot, want)) in results.iter().zip(&expect).enumerate() {
            assert_eq!(
                &*slot.lock().unwrap(),
                want,
                "attempt {attempt}, product {i}"
            );
        }
        let s = ctx.exec();
        assert_eq!(
            s.get(Exec::ParmulProducts),
            sizes.len() as u64,
            "attempt {attempt}"
        );
        assert!(s.get(Exec::ParmulTasks) > 0, "large products split: {s:?}");
        s.get(Exec::ParmulSteals) > 0
    });
    assert!(
        stolen,
        "with 7 idle workers some subtasks run remotely in one of {ATTEMPTS} runs"
    );
}

/// Back-to-back split products and squares on a 2-worker scope, the
/// remainder stage's access pattern: thousands of joins whose stolen
/// halves finish while the submitter waits. A stub lives on its
/// submitter's stack and the thief still notifies and unlocks through
/// it after marking it done, so a submitter that returned on seeing
/// `done` alone freed the stub under the thief — corrupting limbs or
/// crashing. Every product must stay bit-identical.
#[test]
fn back_to_back_stolen_joins_stay_bit_identical() {
    // Release builds hit the race window within a few hundred products;
    // debug builds run slower and only keep the differential check.
    const PRODUCTS: u64 = if cfg!(debug_assertions) { 300 } else { 3000 };
    let ctx = SolveCtx::new(Profile::Fast);
    let mismatches = std::sync::atomic::AtomicU64::new(0);
    {
        let (ctx, mismatches) = (&ctx, &mismatches);
        rr_sched::run(2, move |scope| {
            scope.spawn(move |_| {
                ctx.run(|| {
                    for i in 0..PRODUCTS {
                        let len =
                            |k: u64| 3 * T + (det_mag(1, 3 * i + k)[0] % (47 * T as u64)) as usize;
                        let a = det_mag(len(0), i);
                        let mut out = vec![u64::MAX; 5];
                        let want = if i % 4 == 0 {
                            parmul::square_into(&a, &mut out);
                            kmul::square(&a)
                        } else {
                            let b = det_mag(len(1), i + PRODUCTS);
                            parmul::mul_into(&a, &b, &mut out);
                            kmul::mul(&a, &b)
                        };
                        if out != want {
                            mismatches.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                });
            });
        });
    }
    assert_eq!(mismatches.into_inner(), 0);
    assert_eq!(ctx.exec().get(Exec::ParmulProducts), PRODUCTS);
}

/// Single-worker scope (`RR_POOL_THREADS=1` shape): the fork-join layer
/// must degrade to inline execution — correct limbs, zero remote
/// executions — instead of deadlocking on a pool that can never claim a
/// subtask.
#[test]
fn single_worker_scope_degrades_to_inline() {
    let a = det_mag(4 * T, 7);
    let b = det_mag(3 * T + 11, 8);
    let expect = kmul::mul(&a, &b);

    let ctx = SolveCtx::new(Profile::Fast);
    let out = std::sync::Mutex::new(Vec::new());
    {
        let (ctx, a, b, out) = (&ctx, &a, &b, &out);
        rr_sched::run(1, move |scope| {
            scope.spawn(move |_| {
                ctx.run(|| {
                    let mut p = Vec::new();
                    parmul::mul_into(a, b, &mut p);
                    *out.lock().unwrap() = p;
                });
            });
        });
    }
    assert_eq!(&*out.lock().unwrap(), &expect);
    assert_eq!(
        ctx.exec().get(Exec::ParmulSteals),
        0,
        "cap-1 scope never executes subtasks remotely"
    );
}

/// `Fast` dispatch outside any pool scope sees no idle capacity and must
/// not engage the splitter at all.
#[test]
fn fast_dispatch_without_scope_does_not_split() {
    let a = det_mag(4 * T, 9);
    let ctx = SolveCtx::new(Profile::Fast);
    ctx.run(|| {
        let mut out = Vec::new();
        rr_mp::nat::mul_auto_into(&a, &a, &mut out);
        assert_eq!(out, kmul::mul(&a, &a));
    });
    assert_eq!(
        ctx.exec().get(Exec::ParmulProducts),
        0,
        "no scope, no split"
    );
}

/// Saturation: many concurrent joining tasks on a small pool must drain
/// without deadlock and stay bit-identical (subtasks that nobody claims
/// are retracted and run inline by their submitters).
#[test]
fn saturated_pool_drains_correctly() {
    const TASKS: usize = 24;
    let a = det_mag(2 * T + 5, 11);
    let b = det_mag(2 * T - 9, 12);
    let expect = kmul::mul(&a, &b);

    let ctx = SolveCtx::new(Profile::Fast);
    let oks = std::sync::atomic::AtomicUsize::new(0);
    {
        let (ctx, a, b, expect, oks) = (&ctx, &a, &b, &expect, &oks);
        rr_sched::run(2, move |scope| {
            for _ in 0..TASKS {
                scope.spawn(move |_| {
                    ctx.run(|| {
                        let mut out = Vec::new();
                        parmul::mul_into(a, b, &mut out);
                        if out == *expect {
                            oks.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    });
                });
            }
        });
    }
    assert_eq!(oks.load(std::sync::atomic::Ordering::Relaxed), TASKS);
    assert_eq!(ctx.exec().get(Exec::ParmulProducts), TASKS as u64);
}
