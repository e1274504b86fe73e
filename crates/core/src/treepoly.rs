//! Kernels of the tree-polynomial stage (paper Secs 2.1 & 3.2).
//!
//! Everything here is expressed over the *integer* matrices
//! `Ŝ_k = c_{k−1}²·S_k = [[0, c_{k−1}²], [−c_k², Q_k]]` and
//! `T_{i,j} = c_{i−1}²·S_j·S_{j−1}⋯S_i` (with the appendix convention
//! `c_0 = 1`), so that the recurrence
//!
//! ```text
//! T_{i,j} = T_{k+1,j} · Ŝ_k · T_{i,k−1} / (c_k²·c_{k−1}²)
//! ```
//!
//! stays in ℤ\[x\] with exact divisions. A missing right child (`k = j`)
//! contributes the empty product `T_{j+1,j} = c_j²·I`.
//!
//! Useful identities (asserted in tests):
//! * `P_{i,j} = T_{i,j}(2,2)`, `P_{i,i} = Q_i`, `P_{i,n} = F_{i−1}`;
//! * `det T_{i,j} = (c_{i−1}·c_j)²` (a constant polynomial);
//! * `T_{i,j} = [[−P_{i+1,j−1}, P_{i,j−1}], [−P_{i+1,j}, P_{i,j}]]`.

use rr_linalg::Mat2;
use rr_mp::ExactDivisor;
#[cfg(test)]
use rr_mp::Int;
use rr_poly::remainder::RemainderSeq;
use rr_poly::Poly;

/// The integer matrix `Ŝ_k = [[0, c_{k−1}²], [−c_k², Q_k]]`, `1 ≤ k ≤ n−1`.
pub fn s_hat(rs: &RemainderSeq, k: usize) -> Mat2 {
    debug_assert!((1..rs.n).contains(&k), "S_k defined for 1 <= k <= n-1");
    let c_prev_sq = rs.c(k - 1).square();
    let c_k_sq = rs.c(k).square();
    Mat2::new(
        Poly::zero(),
        Poly::constant(c_prev_sq),
        Poly::constant(-c_k_sq),
        rs.q[k].clone(),
    )
}

/// The leaf matrix `T_{i,i} = Ŝ_i`.
pub fn leaf_tmat(rs: &RemainderSeq, i: usize) -> Mat2 {
    s_hat(rs, i)
}

/// The empty-product matrix `T_{j+1,j} = c_j²·I` standing in for a
/// missing right child split at `k = j`.
pub fn missing_right_tmat(rs: &RemainderSeq, k: usize) -> Mat2 {
    let c_sq = Poly::constant(rs.c(k).square());
    Mat2::new(c_sq.clone(), Poly::zero(), Poly::zero(), c_sq)
}

/// The exact divisor `c_k²·c_{k−1}²` of the combine step at split `k`,
/// prepared for repeated exact division: every coefficient of the
/// combine's eight entry-task divisions is by this one scalar, so under
/// `Profile::Fast` they all share its cached 2-adic inverse.
pub fn combine_divisor(rs: &RemainderSeq, k: usize) -> ExactDivisor {
    ExactDivisor::new(rs.c(k).square() * rs.c(k - 1).square())
}

/// Sequential combine: `T_parent = (T_right · Ŝ_k) · T_left / divisor`,
/// multiplied left-to-right as in the paper (Sec 4.2 analyzes exactly this
/// association; the second product dominates).
pub fn combine_tmat(t_left: &Mat2, t_right: &Mat2, s_hat_k: &Mat2, divisor: &ExactDivisor) -> Mat2 {
    let m1 = Mat2::mul(t_right, s_hat_k);
    Mat2::mul(&m1, t_left).div_scalar_exact_prepared(divisor)
}

/// The node polynomial: entry `(2,2)` of its `T` matrix.
pub fn tmat_poly(t: &Mat2) -> &Poly {
    t.entry(1, 1)
}

/// The spine polynomial `P_{i,n} = F_{i−1}` of node `[i, n]`.
pub fn spine_poly(rs: &RemainderSeq, i: usize) -> &Poly {
    &rs.f[i - 1]
}

/// Debug invariant: `det T_{i,j} = (c_{i−1}·c_j)²`.
pub fn check_det(t: &Mat2, rs: &RemainderSeq, i: usize, j: usize) -> bool {
    t.det() == Poly::constant((rs.c(i - 1) * rs.c(j)).square())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_poly::remainder::remainder_sequence;

    fn roots(rs: &[i64]) -> Poly {
        Poly::from_roots(&rs.iter().map(|&r| Int::from(r)).collect::<Vec<_>>())
    }

    #[test]
    fn s_hat_structure() {
        let rs = remainder_sequence(&roots(&[1, 2, 3])).unwrap();
        let s1 = s_hat(&rs, 1);
        // c_0 = 1, c_1 = 3: [[0, 1], [-9, Q_1]]
        assert_eq!(s1.entry(0, 0), &Poly::zero());
        assert_eq!(s1.entry(0, 1), &Poly::one());
        assert_eq!(s1.entry(1, 0), &Poly::from_i64(&[-9]));
        assert_eq!(s1.entry(1, 1), &rs.q[1]);
        assert!(check_det(&s1, &rs, 1, 1));
        let s2 = s_hat(&rs, 2);
        // c_1 = 3, c_2 = 6: [[0, 9], [-36, Q_2]]
        assert_eq!(s2.entry(0, 1), &Poly::from_i64(&[9]));
        assert_eq!(s2.entry(1, 0), &Poly::from_i64(&[-36]));
        assert!(check_det(&s2, &rs, 2, 2));
    }

    #[test]
    fn combine_reproduces_p_1_2_for_degree_5() {
        // Node [1,2] of a degree-5 tree: T_{1,2} = Ŝ_2·Ŝ_1 / c_1².
        let rs = remainder_sequence(&roots(&[1, 3, 5, 7, 9])).unwrap();
        let t_left = leaf_tmat(&rs, 1);
        let t_right = missing_right_tmat(&rs, 2);
        let t12 = combine_tmat(&t_left, &t_right, &s_hat(&rs, 2), &combine_divisor(&rs, 2));
        assert!(check_det(&t12, &rs, 1, 2), "det {:?}", t12.det());
        let p12 = tmat_poly(&t12);
        assert_eq!(p12.deg(), 2);
        // Eq (54): T_{1,2}(1,2) = P_{1,1} = Q_1 and T(2,1) = -P_{2,2} = -Q_2.
        assert_eq!(t12.entry(0, 1), &rs.q[1]);
        assert_eq!(t12.entry(1, 0), &-rs.q[2].clone());
        // P_{1,2}'s two roots interleave with Q_2's root between them:
        // verified via sign structure: P_{1,2} and its interleaver Q_2
        // (children of [1,3] would be [1,1],[3,3]... here just check the
        // discriminant-like property: two distinct real roots).
        let chain = rr_poly::sturm::SturmChain::new(p12);
        assert_eq!(chain.count_distinct_real_roots(), 2);
    }

    #[test]
    fn direct_product_matches_definition() {
        // T_{1,j} = S_j…S_1 with integer Ŝ's: T_{1,2} computed by combine
        // must equal Ŝ_2·Ŝ_1 / c_1² computed directly.
        let rs = remainder_sequence(&roots(&[-4, -1, 2, 6, 11])).unwrap();
        let direct = Mat2::mul(&s_hat(&rs, 2), &s_hat(&rs, 1))
            .div_scalar_exact(&rs.c(1).square());
        let combined = combine_tmat(
            &leaf_tmat(&rs, 1),
            &missing_right_tmat(&rs, 2),
            &s_hat(&rs, 2),
            &combine_divisor(&rs, 2),
        );
        assert_eq!(direct, combined);
    }

    #[test]
    fn deeper_combine_keeps_integrality_and_det() {
        // Degree 7: node [1,3] = combine([1,1], [3,3], k=2);
        // node [1,7] is spine so the deepest non-spine is [1,3].
        let rs = remainder_sequence(&roots(&[-9, -5, -2, 0, 3, 8, 13])).unwrap();
        let t11 = leaf_tmat(&rs, 1);
        let t33 = leaf_tmat(&rs, 3);
        let t13 = combine_tmat(&t11, &t33, &s_hat(&rs, 2), &combine_divisor(&rs, 2));
        assert!(check_det(&t13, &rs, 1, 3));
        let p13 = tmat_poly(&t13);
        assert_eq!(p13.deg(), 3);
        let chain = rr_poly::sturm::SturmChain::new(p13);
        assert_eq!(chain.count_distinct_real_roots(), 3);
        // Eq (54) off-diagonal: entry (1,2) = P_{1,2}
        let t12 = combine_tmat(
            &leaf_tmat(&rs, 1),
            &missing_right_tmat(&rs, 2),
            &s_hat(&rs, 2),
            &combine_divisor(&rs, 2),
        );
        assert_eq!(t13.entry(0, 1), tmat_poly(&t12));
    }

    #[test]
    fn spine_poly_is_remainder_sequence_entry() {
        let rs = remainder_sequence(&roots(&[1, 2, 3, 4])).unwrap();
        assert_eq!(spine_poly(&rs, 1), &rs.f[0]);
        assert_eq!(spine_poly(&rs, 3), &rs.f[2]);
    }

    #[test]
    fn interleaving_of_p12_with_children_roots() {
        // For [1,2] with left child [1,1] (root of Q_1): the root of Q_1
        // must lie strictly between the two roots of P_{1,2}. Check by
        // sign: P_{1,2}(root of Q_1) has sign opposite to its leading
        // coefficient's sign at ±∞ tails... simpler: evaluate P_{1,2} at
        // the rational root of Q_1 via scaled evaluation and check the
        // sign differs from the sign at both infinities.
        let rs = remainder_sequence(&roots(&[2, 4, 6, 8, 10])).unwrap();
        let t12 = combine_tmat(
            &leaf_tmat(&rs, 1),
            &missing_right_tmat(&rs, 2),
            &s_hat(&rs, 2),
            &combine_divisor(&rs, 2),
        );
        let p12 = tmat_poly(&t12);
        // Q_1 = q1 x + q0, root -q0/q1. Evaluate p12 at that rational:
        // q1^2 * p12(-q0/q1) for degree 2 = p2 q0^2 - p1 q0 q1 + p0 q1^2.
        let (q0, q1) = (rs.q[1].coeff(0), rs.q[1].coeff(1));
        let val = p12.coeff(2) * q0.square() - p12.coeff(1) * &q0 * &q1
            + p12.coeff(0) * q1.square();
        // between the two roots of an up-opening (positive lc) quadratic
        // the value is negative; sign relative to lc:
        assert_eq!(val.signum(), -p12.lc().signum());
    }
}
