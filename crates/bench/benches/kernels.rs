//! Microbenchmarks of the substrate kernels: multiprecision arithmetic
//! (both profiles' multiplication kernels, including the Karatsuba threshold
//! calibration sweep), polynomial evaluation, remainder sequences, and
//! the tree matrix combine — the building blocks whose costs Section 4
//! models.
//!
//! ```sh
//! cargo bench -p rr-bench --bench kernels [-- <filter>] [-- --quick]
//! ```
//!
//! The `kmul` groups feed EXPERIMENTS.md's threshold calibration: the
//! sweep times the recursion at several forced thresholds, and the
//! crossover group locates the operand size where `Fast` starts beating
//! schoolbook end to end.

use rr_bench::microbench::Bench;
use rr_mp::nat::{kmul, mul};
use rr_mp::Int;
use rr_poly::eval::ScaledPoly;
use rr_poly::remainder::remainder_sequence;
use rr_poly::Poly;
use std::hint::black_box;

fn big(bits: u64, seed: u64) -> Int {
    // deterministic pseudo-random integer of the given bit length
    let mut x = Int::from(seed | 1);
    let mult = Int::from(6364136223846793005u64);
    while x.bit_len() < bits {
        x = x * &mult + Int::from(1442695040888963407u64);
    }
    x.shr_floor(x.bit_len() - bits)
}

fn limbs(count: usize, seed: u64) -> Vec<u64> {
    // splitmix64 stream — dense limbs exercise full carry chains
    let mut state = seed;
    (0..count)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z | 1
        })
        .collect()
}

fn bench_mp(b: &mut Bench) {
    b.group("mp");
    for bits in [64u64, 512, 4096] {
        let x = big(bits, 7);
        let y = big(bits, 13);
        b.measure(&format!("mp/mul_schoolbook/{bits}"), || {
            black_box(&x) * black_box(&y)
        });
        let p = &x * &y;
        b.measure(&format!("mp/div_knuth_d/{bits}"), || {
            black_box(&p).div_rem(black_box(&y))
        });
    }
}

/// Schoolbook-vs-Karatsuba calibration: balanced operands across the
/// crossover region, plus a forced-threshold sweep at a fixed size.
fn bench_kmul_calibration(b: &mut Bench) {
    b.group("kmul crossover (balanced n-limb × n-limb)");
    let sizes: &[usize] = if b.quick() {
        &[16, 32, 64]
    } else {
        &[8, 16, 24, 32, 48, 64, 96, 128, 256]
    };
    for &n in sizes {
        let x = limbs(n, 7);
        let y = limbs(n, 13);
        let school = b.measure(&format!("kmul/schoolbook/{n}"), || {
            mul::mul(black_box(&x), black_box(&y))
        });
        let fast = b.measure(&format!("kmul/karatsuba/{n}"), || {
            kmul::mul(black_box(&x), black_box(&y))
        });
        if let (Some(s), Some(f)) = (school, fast) {
            println!(
                "    -> karatsuba/schoolbook = {:.3}",
                f.median.as_secs_f64() / s.median.as_secs_f64().max(1e-12)
            );
        }
    }

    b.group("kmul threshold sweep (128-limb operands)");
    let x = limbs(128, 29);
    let y = limbs(128, 31);
    for threshold in [8usize, 16, 24, 32, 48, 64] {
        b.measure(&format!("kmul/threshold/{threshold}"), || {
            kmul::mul_with_threshold(black_box(&x), black_box(&y), threshold)
        });
    }

    b.group("kmul unbalanced (256 × 32 limbs)");
    let long = limbs(256, 37);
    let short = limbs(32, 41);
    b.measure("kmul/unbalanced_schoolbook", || {
        mul::mul(black_box(&long), black_box(&short))
    });
    b.measure("kmul/unbalanced_karatsuba", || {
        kmul::mul(black_box(&long), black_box(&short))
    });
}

fn bench_poly(b: &mut Bench) {
    b.group("poly");
    for n in [10usize, 30, 70] {
        let roots: Vec<Int> = (1..=n as i64).map(Int::from).collect();
        let p = Poly::from_roots(&roots);
        let sp = ScaledPoly::new(&p, 107);
        let x = big(107, 3);
        b.measure(&format!("poly/scaled_horner_eval/{n}"), || {
            sp.eval(black_box(&x))
        });
        b.measure(&format!("poly/remainder_sequence/{n}"), || {
            remainder_sequence(black_box(&p)).unwrap()
        });
    }
}

fn bench_tree_combine(b: &mut Bench) {
    b.group("treepoly");
    for n in [16usize, 32, 64] {
        let p = rr_workload::charpoly_input(n, 0);
        let rs = remainder_sequence(&p).unwrap();
        // combine the two largest available leaf-level matrices repeatedly
        let t1 = rr_core::treepoly::leaf_tmat(&rs, 1);
        let t3 = rr_core::treepoly::leaf_tmat(&rs, 3);
        let s2 = rr_core::treepoly::s_hat(&rs, 2);
        let div = rr_core::treepoly::combine_divisor(&rs, 2);
        b.measure(&format!("treepoly/combine_leaf_level/{n}"), || {
            rr_core::treepoly::combine_tmat(black_box(&t1), black_box(&t3), &s2, &div)
        });
    }
}

fn main() {
    let mut b = Bench::from_args();
    bench_mp(&mut b);
    bench_kmul_calibration(&mut b);
    bench_poly(&mut b);
    bench_tree_combine(&mut b);
}
