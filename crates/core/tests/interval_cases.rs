//! Exhaustive exercise of the interval-stage case analysis (paper
//! Sec 2.2, cases 1/2a/2b/2c and the exact-zero paths), cross-checked
//! against Sturm-chain ground truth on randomized inputs.

use proptest::prelude::*;
use rr_core::interval::solve_node_intervals;
use rr_core::refine::RefineStrategy;
use rr_mp::Int;
use rr_poly::sturm::SturmChain;
use rr_poly::Poly;

/// Ground truth: the ceiling µ-approximation of each real root of `p`
/// via Sturm counting over the scaled integer grid (slow, independent).
fn sturm_ceilings(p: &Poly, mu: u64, bound_bits: u64) -> Vec<Int> {
    let chain = SturmChain::new(p);
    let total = chain.count_distinct_real_roots();
    let mut out = Vec::new();
    // For each root index, binary-search the smallest scaled g with
    // count(-B, g] > index.
    let lo0 = -Int::pow2(bound_bits + mu);
    let hi0 = Int::pow2(bound_bits + mu);
    let v_lo = chain.variations_at_dyadic(&lo0, mu);
    for idx in 0..total {
        let mut lo = lo0.clone();
        let mut hi = hi0.clone();
        // invariant: count(-B, lo] <= idx < count(-B, hi]
        while &hi - &lo > Int::one() {
            let mid = (&lo + &hi).shr_floor(1);
            let count = v_lo - chain.variations_at_dyadic(&mid, mu);
            if count > idx {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        out.push(hi);
    }
    out
}

/// Exact interleaving points for `Poly::from_roots` inputs: integer roots
/// give exact midpoints; we perturb them onto/off the grid to hit every
/// case.
#[test]
fn integer_roots_with_perturbed_interleaving_points() {
    let mu = 3u64; // coarse grid makes case collisions common
    let roots: Vec<i64> = vec![-6, -1, 4, 9, 14];
    let p = Poly::from_roots(&roots.iter().map(|&r| Int::from(r)).collect::<Vec<_>>());
    let bound = rr_poly::bounds::root_bound_bits(&p);
    let expect: Vec<Int> = roots.iter().map(|&r| Int::from(r) << mu).collect();
    // try every combination of interleaving offsets, including points that
    // sit exactly on roots of p (s_lo == 0 paths) and grid ties (case 1)
    let offsets: Vec<i64> = vec![-8, -3, -1, 0, 1, 3, 8]; // in ulps around midpoints
    for &o1 in &offsets {
        for &o2 in &offsets {
            for &o3 in &offsets {
                let merged = vec![
                    (Int::from(-4) << mu) + Int::from(o1) - Int::from(8), // near -4.5
                    (Int::from(2) << mu) + Int::from(o2),
                    (Int::from(7) << mu) + Int::from(o3) + Int::from(4),
                ];
                let mut merged = merged;
                merged.push(Int::from(11) << mu);
                merged.sort();
                // interleaving validity: y_t ∈ [x_t, x_{t+1}]
                let valid = merged[0] >= (Int::from(-6) << mu)
                    && merged[0] <= (Int::from(-1) << mu)
                    && merged[1] >= (Int::from(-1) << mu)
                    && merged[1] <= (Int::from(4) << mu)
                    && merged[2] >= (Int::from(4) << mu)
                    && merged[2] <= (Int::from(9) << mu)
                    && merged[3] >= (Int::from(9) << mu)
                    && merged[3] <= (Int::from(14) << mu);
                if !valid {
                    continue;
                }
                let got =
                    solve_node_intervals(&p, merged.clone(), mu, bound, RefineStrategy::Hybrid)
                        .unwrap();
                assert_eq!(got, expect, "offsets ({o1},{o2},{o3}) merged {merged:?}");
            }
        }
    }
}

// The true interleaving points of the solver are roots of interleaving
// polynomials — here we synthesize them as exact midpoints made dyadic,
// at many precisions, for irrational-rooted polynomials, against Sturm.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_quadratics_and_cubics_vs_sturm(
        a in 1i64..20,
        s in 2i64..120,
        shift in -10i64..10,
        mu in 0u64..12,
    ) {
        // a·(x-shift)² − s: two irrational roots around `shift`
        let x_minus = Poly::from_i64(&[-shift, 1]);
        let p = &(&x_minus * &x_minus).scale(&Int::from(a)) - &Poly::from_i64(&[s]);
        let bound = rr_poly::bounds::root_bound_bits(&p);
        let expect = sturm_ceilings(&p, mu, bound);
        prop_assert_eq!(expect.len(), 2);
        // interleaving point: the vertex `shift`, exactly on the grid
        let merged = vec![Int::from(shift) << mu];
        let got =
            solve_node_intervals(&p, merged.clone(), mu, bound, RefineStrategy::Hybrid).unwrap();
        prop_assert_eq!(&got, &expect);
        // and the bisect-only strategy agrees exactly
        let got2 = solve_node_intervals(&p, merged, mu, bound, RefineStrategy::BisectOnly).unwrap();
        prop_assert_eq!(&got2, &expect);
    }

    #[test]
    fn full_solver_vs_sturm_ceilings(
        roots in prop::collection::btree_set(-25i64..25, 2..7),
        mu in 0u64..10,
    ) {
        use rr_core::{RootApproximator, SolverConfig};
        let root_ints: Vec<Int> = roots.iter().map(|&r| Int::from(r)).collect();
        let p = Poly::from_roots(&root_ints);
        let bound = rr_poly::bounds::root_bound_bits(&p);
        let expect = sturm_ceilings(&p, mu, bound);
        let got = RootApproximator::new(SolverConfig::sequential(mu))
            .approximate_roots(&p)
            .unwrap();
        let got: Vec<Int> = got.roots.into_iter().map(|d| d.num).collect();
        prop_assert_eq!(got, expect);
    }
}
