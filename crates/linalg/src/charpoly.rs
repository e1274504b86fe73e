//! Exact characteristic polynomials via Faddeev–LeVerrier.
//!
//! `char_poly(A) = det(xI − A) = xⁿ + c_{n−1}x^{n−1} + … + c_0`, computed
//! with the recurrence
//!
//! ```text
//! M_0 = I,   M_k = A·M_{k−1} + c_{n−k+1}·I,   c_{n−k} = −tr(A·M_{k−1}) / k
//! ```
//!
//! Every division by `k` is exact over the integers, so the computation is
//! fraction-free. Cost is `n` integer matrix products — fine for the
//! paper's degree range (n ≤ 70), and attributed to the
//! [`rr_mp::metrics::Phase::CharPoly`] phase so workload generation never
//! pollutes the algorithm's operation counts.

use crate::IntMatrix;
use rr_mp::{metrics, Int};
use rr_poly::Poly;

/// The characteristic polynomial `det(xI − A)` of `a` (monic, degree `n`).
///
/// # Panics
/// Panics if `a` is 0×0.
pub fn char_poly(a: &IntMatrix) -> Poly {
    let n = a.n();
    assert!(n > 0, "characteristic polynomial of an empty matrix");
    metrics::with_phase(metrics::Phase::CharPoly, || {
        // coeffs[k] is the coefficient of x^k.
        let mut coeffs = vec![Int::zero(); n + 1];
        coeffs[n] = Int::one();
        let mut m = IntMatrix::identity(n);
        for k in 1..=n {
            let am = a * &m;
            let c = -am.trace().div_exact(&Int::from(k as u64));
            coeffs[n - k] = c.clone();
            if k < n {
                m = am.add_scalar_diag(&c);
            }
        }
        Poly::from_coeffs(coeffs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_poly::eval::eval;
    use rr_poly::sturm::SturmChain;

    #[test]
    fn one_by_one() {
        let a = IntMatrix::from_i64(1, &[7]);
        // det(xI - A) = x - 7
        assert_eq!(char_poly(&a), Poly::from_i64(&[-7, 1]));
    }

    #[test]
    fn two_by_two_trace_det() {
        let a = IntMatrix::from_i64(2, &[1, 2, 3, 4]);
        // x^2 - tr x + det = x^2 - 5x - 2
        assert_eq!(char_poly(&a), Poly::from_i64(&[-2, -5, 1]));
    }

    #[test]
    fn diagonal_matrix_has_its_diagonal_as_roots() {
        let a = IntMatrix::from_i64(3, &[2, 0, 0, 0, -1, 0, 0, 0, 5]);
        let p = char_poly(&a);
        assert_eq!(p, Poly::from_roots(&[Int::from(2), Int::from(-1), Int::from(5)]));
    }

    #[test]
    fn companion_like_3x3() {
        // A = [[0,1,0],[0,0,1],[6,-11,6]] is the companion matrix of
        // x^3 - 6x^2 + 11x - 6 (roots 1,2,3).
        let a = IntMatrix::from_i64(3, &[0, 1, 0, 0, 0, 1, 6, -11, 6]);
        assert_eq!(char_poly(&a), Poly::from_i64(&[-6, 11, -6, 1]));
    }

    #[test]
    fn cayley_hamilton_small() {
        // p(A) = 0 for the 2x2 case, checked entrywise via evaluation of
        // the matrix polynomial.
        let a = IntMatrix::from_i64(2, &[3, 1, 4, 1]);
        let p = char_poly(&a);
        // p(A) = A^2 + c1 A + c0 I
        let a2 = &a * &a;
        let mut ca = IntMatrix::zeros(2);
        for i in 0..2 {
            for j in 0..2 {
                ca[(i, j)] = a2[(i, j)].clone()
                    + &p.coeff(1) * &a[(i, j)]
                    + if i == j { p.coeff(0) } else { Int::zero() };
            }
        }
        assert_eq!(ca, IntMatrix::zeros(2));
    }

    #[test]
    fn symmetric_matrices_give_all_real_roots() {
        // A deterministic symmetric 0-1 matrix: all eigenvalues real, so
        // the Sturm count must equal the squarefree degree.
        let a = IntMatrix::from_i64(
            5,
            &[
                1, 1, 0, 1, 0, //
                1, 0, 1, 0, 0, //
                0, 1, 1, 1, 1, //
                1, 0, 1, 0, 1, //
                0, 0, 1, 1, 1,
            ],
        );
        assert!(a.is_symmetric());
        let p = char_poly(&a);
        assert_eq!(p.deg(), 5);
        assert!(p.lc().is_one());
        let sf = rr_poly::gcd::squarefree_part(&p);
        let chain = SturmChain::new(&sf);
        assert_eq!(chain.count_distinct_real_roots(), sf.deg());
    }

    #[test]
    fn eigenvalue_is_root() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = IntMatrix::from_i64(2, &[2, 1, 1, 2]);
        let p = char_poly(&a);
        assert_eq!(eval(&p, &Int::from(1)), Int::zero());
        assert_eq!(eval(&p, &Int::from(3)), Int::zero());
    }

    #[test]
    fn charpoly_cost_attributed_to_charpoly_phase() {
        let ctx = rr_mp::SolveCtx::new(rr_mp::Profile::Paper);
        let a = IntMatrix::from_i64(3, &[1, 1, 0, 1, 1, 1, 0, 1, 1]);
        let _ = ctx.run(|| char_poly(&a));
        let d = ctx.snapshot();
        assert!(d.phase(metrics::Phase::CharPoly).mul_count > 0);
        assert_eq!(d.phase(metrics::Phase::RemainderSeq).mul_count, 0);
    }
}
