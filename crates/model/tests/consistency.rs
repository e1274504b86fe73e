//! Cross-crate consistency of the analytic model beyond the unit tests:
//! exactness of the structural predictions on randomized inputs and
//! internal coherence of the asymptotic formulas.

use proptest::prelude::*;
use rr_model::asymptotic::fit_exponent;
use rr_model::{counts, interval_model, sizes};
use rr_mp::{Int, Profile, SolveCtx};
use rr_poly::remainder::remainder_sequence;
use rr_poly::Poly;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The remainder-stage count prediction is exact for any squarefree
    /// real-rooted input (not just the char-poly workload).
    #[test]
    fn remainder_count_exact_on_random_inputs(
        roots in prop::collection::btree_set(-60i64..60, 2..14),
    ) {
        let ints: Vec<Int> = roots.iter().map(|&r| Int::from(r)).collect();
        let p = Poly::from_roots(&ints);
        let ctx = SolveCtx::new(Profile::Paper);
        let _ = ctx.run(|| remainder_sequence(&p)).unwrap();
        let observed = ctx.snapshot().total().mul_count;
        prop_assert_eq!(observed, counts::remainder_mults(ints.len()));
    }

    /// Size bounds hold for every sequence element on random inputs.
    #[test]
    fn collins_bounds_hold(roots in prop::collection::btree_set(-99i64..99, 2..10)) {
        let ints: Vec<Int> = roots.iter().map(|&r| Int::from(r)).collect();
        let p = Poly::from_roots(&ints);
        let (n, m) = (p.deg(), p.coeff_bits());
        let rs = remainder_sequence(&p).unwrap();
        for i in 1..=n {
            prop_assert!(
                rs.f[i].coeff_bits() as f64 <= sizes::f_bound(n, m, i) + 1.0,
                "‖F_{}‖ = {} vs {}", i, rs.f[i].coeff_bits(), sizes::f_bound(n, m, i)
            );
        }
    }
}

#[test]
fn interval_model_monotonicity_grid() {
    // total predicted interval work increases in n, µ, and R
    let base = interval_model::interval_mults(20, 10, 30).total();
    assert!(interval_model::interval_mults(25, 10, 30).total() > base);
    assert!(interval_model::interval_mults(20, 10, 60).total() > base);
    assert!(interval_model::interval_mults(20, 20, 30).total() > base);
}

#[test]
fn predicted_counts_have_table1_exponents() {
    // the model's own predictions must grow with the orders it claims
    let rem: Vec<(f64, f64)> = (5..=60)
        .step_by(5)
        .map(|n| (n as f64, counts::remainder_mults(n) as f64))
        .collect();
    let e = fit_exponent(&rem);
    assert!((1.8..2.2).contains(&e), "remainder exponent {e}");
    let tree: Vec<(f64, f64)> = (5..=60)
        .step_by(5)
        .map(|n| (n as f64, counts::tree_mults(n) as f64))
        .collect();
    let e = fit_exponent(&tree);
    assert!((1.7..2.3).contains(&e), "tree exponent {e}");
}

#[test]
fn beta_definition_matches_paper() {
    // β = 2m + 3·log₂ n + 2 (paper, after Eq 24)
    let b = sizes::beta(16, 10);
    assert!((b - (20.0 + 12.0 + 2.0)).abs() < 1e-9);
}
