//! 2×2 matrices of integer polynomials — the `T`/`Ŝ` algebra of the
//! tree-polynomial stage (paper Sections 2.1 and 3.2).
//!
//! The bottom-up recurrence is
//! `T_{i,j} = T_{k+1,j} · Ŝ_k · T_{i,k−1} / (c_k²·c_{k−1}²)` with
//! `Ŝ_k = [[0, c_{k−1}²], [−c_k², Q_k]]`; the divisions are exact by the
//! subresultant theory. The paper's implementation splits each of the two
//! matrix products into **four entry tasks**; [`Mat2::mul_entry`] is that
//! task's kernel (one row·column product — two polynomial
//! multiplications and one addition).

use rr_mp::Int;
use rr_poly::Poly;
use std::fmt;

/// A 2×2 matrix of polynomials, row-major.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Mat2 {
    e: [[Poly; 2]; 2],
}

impl Mat2 {
    /// Builds from entries `[[e00, e01], [e10, e11]]`.
    pub fn new(e00: Poly, e01: Poly, e10: Poly, e11: Poly) -> Mat2 {
        Mat2 { e: [[e00, e01], [e10, e11]] }
    }

    /// The identity matrix.
    pub fn identity() -> Mat2 {
        Mat2::new(Poly::one(), Poly::zero(), Poly::zero(), Poly::one())
    }

    /// Entry at `(row, col)`.
    pub fn entry(&self, row: usize, col: usize) -> &Poly {
        &self.e[row][col]
    }

    /// Mutable entry at `(row, col)`.
    pub fn entry_mut(&mut self, row: usize, col: usize) -> &mut Poly {
        &mut self.e[row][col]
    }

    /// One entry of the product `a·b`: `a[row,0]·b[0,col] + a[row,1]·b[1,col]`.
    ///
    /// This is the per-entry task of the paper's Section 3.2 — a full
    /// matrix product is exactly four of these, schedulable independently.
    ///
    /// The two polynomial multiplications dispatch through the session's
    /// active [`rr_mp::Profile`]: under `Fast`, each becomes
    /// (above the size crossover) a handful of packed big-integer
    /// products — the tree stage's entries reach degree ~n/2 with
    /// multi-thousand-bit coefficients, which is exactly the regime
    /// where that pays. Recorded model counts are profile-invariant.
    pub fn mul_entry(a: &Mat2, b: &Mat2, row: usize, col: usize) -> Poly {
        // Accumulate the second product into the first in place (sums are
        // free in the cost model) instead of allocating a third
        // coefficient vector for the sum.
        let mut out = &a.e[row][0] * &b.e[0][col];
        out += &a.e[row][1] * &b.e[1][col];
        out
    }

    /// Full product `a·b` (the four entry tasks run in sequence).
    pub fn mul(a: &Mat2, b: &Mat2) -> Mat2 {
        Mat2::new(
            Mat2::mul_entry(a, b, 0, 0),
            Mat2::mul_entry(a, b, 0, 1),
            Mat2::mul_entry(a, b, 1, 0),
            Mat2::mul_entry(a, b, 1, 1),
        )
    }

    /// Divides every coefficient of every entry by `d`, exactly.
    ///
    /// Every coefficient division rides the session's active
    /// [`rr_mp::Profile`]: the tree stage's deep levels divide
    /// 10⁴–10⁵-bit coefficients by the comparably sized `c_k²·c_{k−1}²`,
    /// which is exactly the long-divisor/long-quotient regime where the
    /// 2-adic (Hensel) kernel replaces the quadratic Algorithm D loop.
    /// The divisor is prepared *once* for the whole matrix
    /// ([`rr_mp::ExactDivisor`]), so all four entries' coefficients share
    /// one cached 2-adic inverse. Recorded model counts are
    /// profile-invariant (charged above the kernel).
    pub fn div_scalar_exact(&self, d: &Int) -> Mat2 {
        self.div_scalar_exact_prepared(&rr_mp::ExactDivisor::new(d.clone()))
    }

    /// [`Mat2::div_scalar_exact`] with a caller-prepared divisor — the
    /// per-entry task path of the parallel tree stage shares one
    /// [`rr_mp::ExactDivisor`] across its four independently scheduled
    /// entry tasks.
    pub fn div_scalar_exact_prepared(&self, d: &rr_mp::ExactDivisor) -> Mat2 {
        Mat2::new(
            self.e[0][0].div_scalar_exact_prepared(d),
            self.e[0][1].div_scalar_exact_prepared(d),
            self.e[1][0].div_scalar_exact_prepared(d),
            self.e[1][1].div_scalar_exact_prepared(d),
        )
    }

    /// The determinant `e00·e11 − e01·e10`.
    pub fn det(&self) -> Poly {
        let mut out = &self.e[0][0] * &self.e[1][1];
        out -= &self.e[0][1] * &self.e[1][0];
        out
    }

    /// `max` entry degree (the paper's `d(T)`); `None` if all entries zero.
    pub fn max_degree(&self) -> Option<usize> {
        self.e.iter().flatten().filter_map(Poly::degree).max()
    }

    /// `max` coefficient bit size over entries (the paper's `‖T‖`).
    pub fn max_coeff_bits(&self) -> u64 {
        self.e.iter().flatten().map(Poly::coeff_bits).max().unwrap_or(0)
    }
}

impl std::ops::Mul<&Mat2> for &Mat2 {
    type Output = Mat2;
    fn mul(self, rhs: &Mat2) -> Mat2 {
        Mat2::mul(self, rhs)
    }
}

impl fmt::Debug for Mat2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{:?}, {:?}]", self.e[0][0], self.e[0][1])?;
        write!(f, "[{:?}, {:?}]", self.e[1][0], self.e[1][1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(coeffs: &[i64]) -> Poly {
        Poly::from_i64(coeffs)
    }

    fn sample_a() -> Mat2 {
        Mat2::new(p(&[1]), p(&[0, 1]), p(&[2, 1]), p(&[-1, 0, 1]))
    }

    fn sample_b() -> Mat2 {
        Mat2::new(p(&[0, 2]), p(&[1]), p(&[3]), p(&[1, 1]))
    }

    #[test]
    fn identity_is_unit() {
        let a = sample_a();
        assert_eq!(Mat2::mul(&a, &Mat2::identity()), a);
        assert_eq!(Mat2::mul(&Mat2::identity(), &a), a);
    }

    #[test]
    fn mul_entry_composes_to_mul() {
        let (a, b) = (sample_a(), sample_b());
        let prod = Mat2::mul(&a, &b);
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(prod.entry(r, c), &Mat2::mul_entry(&a, &b, r, c));
            }
        }
    }

    #[test]
    fn matrix_product_hand_checked() {
        // [[1, x],[x+2, x^2-1]] · [[2x, 1],[3, x+1]]
        let prod = Mat2::mul(&sample_a(), &sample_b());
        assert_eq!(prod.entry(0, 0), &p(&[0, 5])); // 2x + 3x = 5x
        assert_eq!(prod.entry(0, 1), &p(&[1, 1, 1])); // 1 + x(x+1)
        assert_eq!(prod.entry(1, 0), &p(&[-3, 4, 5])); // (x+2)2x + 3(x^2-1)
        assert_eq!(prod.entry(1, 1), &p(&[1, 0, 1, 1])); // (x+2) + (x^2-1)(x+1)
    }

    #[test]
    fn determinant_is_multiplicative() {
        let (a, b) = (sample_a(), sample_b());
        let prod = Mat2::mul(&a, &b);
        assert_eq!(prod.det(), &a.det() * &b.det());
    }

    #[test]
    fn associativity() {
        let (a, b) = (sample_a(), sample_b());
        let c = Mat2::new(p(&[1, 1]), p(&[2]), p(&[0]), p(&[5, 0, 1]));
        assert_eq!(
            Mat2::mul(&Mat2::mul(&a, &b), &c),
            Mat2::mul(&a, &Mat2::mul(&b, &c))
        );
    }

    #[test]
    fn mul_entry_is_profile_invariant() {
        use rr_mp::{Exec, Profile, SolveCtx};
        // Tree-stage-shaped entries: moderate degree, growing coefficients.
        let roots: Vec<Int> = (-10..10).map(Int::from).collect();
        let f = Poly::from_roots(&roots);
        let g = f.derivative();
        let a = Mat2::new(f.clone(), g.clone(), -&g, f.clone());
        let b = Mat2::new(g.clone(), f.clone(), f.clone(), -&g);
        let school_ctx = SolveCtx::new(Profile::Paper);
        let kron_ctx = SolveCtx::new(Profile::Fast);
        let school = school_ctx.run(|| Mat2::mul(&a, &b));
        let kron = kron_ctx.run(|| Mat2::mul(&a, &b));
        assert_eq!(school, kron);
        // Identical model counts, and the Fast session really
        // packed (the entries are far above the crossover).
        assert_eq!(school_ctx.snapshot(), kron_ctx.snapshot());
        assert!(kron_ctx.exec().get(Exec::KroneckerMuls) >= 8);
        assert_eq!(school_ctx.exec().get(Exec::KroneckerMuls), 0);
    }

    #[test]
    fn div_scalar_exact_is_profile_invariant() {
        use rr_mp::{Exec, Profile, SolveCtx};
        // Long coefficients over a long divisor: force the regime where
        // the Newton path actually dispatches (both divisor and
        // quotient far above the crossover).
        let d = Int::from(3u64).pow(4000); // ~6340 bits ≈ 100 limbs
        let q = Int::from(7u64).pow(3000); // ~8427 bits ≈ 132 limbs
        let big = &d * &q;
        let m = Mat2::new(
            Poly::from_coeffs(vec![big.clone(), -&big]),
            Poly::from_coeffs(vec![Int::zero(), d.clone()]),
            Poly::from_coeffs(vec![-&d]),
            Poly::from_coeffs(vec![big.clone(), d.clone(), big.clone()]),
        );
        let school_ctx = SolveCtx::new(Profile::Paper);
        let newton_ctx = SolveCtx::new(Profile::Fast);
        let school = school_ctx.run(|| m.div_scalar_exact(&d));
        let newton = newton_ctx.run(|| m.div_scalar_exact(&d));
        assert_eq!(school, newton);
        // Identical model counts, and the Fast session really took the
        // 2-adic exact path while the Paper one never did —
        // with the inverse lifted far fewer times than it divided
        // (shared across the whole matrix).
        assert_eq!(school_ctx.snapshot(), newton_ctx.snapshot());
        let stats = newton_ctx.exec();
        assert!(stats.get(Exec::ExactDivs) >= 4, "{stats:?}");
        assert!(stats.get(Exec::HenselSteps) > 0, "{stats:?}");
        assert_eq!(school_ctx.exec().get(Exec::ExactDivs), 0);
    }

    #[test]
    fn exact_scalar_division() {
        let a = sample_a();
        let scaled = Mat2::new(
            a.entry(0, 0).scale(&Int::from(6)),
            a.entry(0, 1).scale(&Int::from(6)),
            a.entry(1, 0).scale(&Int::from(6)),
            a.entry(1, 1).scale(&Int::from(6)),
        );
        assert_eq!(scaled.div_scalar_exact(&Int::from(6)), a);
    }

    #[test]
    fn size_measures() {
        let a = sample_a();
        assert_eq!(a.max_degree(), Some(2));
        assert_eq!(a.max_coeff_bits(), 2); // coefficient 2 → 2 bits
        assert_eq!(Mat2::default().max_degree(), None);
        assert_eq!(Mat2::default().max_coeff_bits(), 0);
    }
}
