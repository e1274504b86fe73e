//! Polynomial evaluation: Horner's rule at integers and the paper's
//! scaled-integer evaluation at dyadic rationals (Section 4.3).
//!
//! The algorithm only ever evaluates polynomials at `µ`-approximations —
//! dyadic rationals `Y/2^µ` — and the implementation is constrained to
//! integer arithmetic, so the coefficients are pre-scaled once per
//! polynomial: `p_µ(Y) = Σ_j p_j·2^{(d−j)µ}·Y^j = 2^{dµ}·p(Y/2^µ)`.
//! Each evaluation is then `d` multiprecision multiplications via Horner,
//! exactly the cost counted in Eq. (37) of the paper.

use crate::Poly;
use rr_mp::Int;

/// Evaluates `p` at the integer `x` by Horner's rule (`deg p`
/// multiplications).
pub fn eval(p: &Poly, x: &Int) -> Int {
    let mut it = p.coeffs().iter().rev();
    let Some(first) = it.next() else {
        return Int::zero();
    };
    let mut acc = first.clone();
    for c in it {
        acc = acc * x + c;
    }
    acc
}

/// Sign of `p(x)` at the integer `x`.
pub fn sign_at(p: &Poly, x: &Int) -> i32 {
    eval(p, x).signum()
}

/// A polynomial with coefficients pre-scaled for exact evaluation at
/// dyadic rationals of precision `µ` (the paper's `p_µ`).
///
/// For `p` of degree `d`, stores `p_j · 2^{(d−j)µ}`; then
/// [`ScaledPoly::eval`] at the scaled integer point `Y` returns
/// `2^{dµ} · p(Y/2^µ)` — same sign as `p(Y/2^µ)`, computed with `d`
/// multiplications and no divisions.
#[derive(Clone, Debug)]
pub struct ScaledPoly {
    /// Pre-scaled coefficients, little-endian (normalized like `Poly`).
    coeffs: Vec<Int>,
    /// The precision (bits) of the evaluation grid.
    mu: u64,
    /// Degree of the underlying polynomial.
    degree: usize,
}

impl ScaledPoly {
    /// Pre-scales `p` (nonzero) for evaluation at points `Y/2^µ`.
    ///
    /// Construction is pure limb shifts (`c_j · 2^(d−j)µ`), so it costs
    /// nothing in the multiplication model and is unaffected by the
    /// active [`rr_mp::Profile`]; only the polynomial *products* that
    /// build the inputs handed to `ScaledPoly` (remainder sequence, tree
    /// stage) dispatch on it.
    ///
    /// # Panics
    /// Panics on the zero polynomial.
    pub fn new(p: &Poly, mu: u64) -> ScaledPoly {
        let d = p.deg();
        let coeffs = p
            .coeffs()
            .iter()
            .enumerate()
            .map(|(j, c)| c << ((d - j) as u64 * mu))
            .collect();
        ScaledPoly { coeffs, mu, degree: d }
    }

    /// The grid precision `µ`.
    pub fn mu(&self) -> u64 {
        self.mu
    }

    /// Degree of the underlying polynomial.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Evaluates at the scaled point `y`, i.e. returns
    /// `2^{dµ} · p(y/2^µ)` — an exact integer.
    pub fn eval(&self, y: &Int) -> Int {
        let mut it = self.coeffs.iter().rev();
        let mut acc = it.next().expect("ScaledPoly is never zero").clone();
        for c in it {
            acc = acc * y + c;
        }
        acc
    }

    /// Sign of `p(y/2^µ)`.
    pub fn sign_at(&self, y: &Int) -> i32 {
        self.eval(y).signum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(coeffs: &[i64]) -> Poly {
        Poly::from_i64(coeffs)
    }

    #[test]
    fn eval_small_points() {
        let f = p(&[-6, 11, -6, 1]); // (x-1)(x-2)(x-3)
        for (x, y) in [(0, -6), (1, 0), (2, 0), (3, 0), (4, 6), (-1, -24)] {
            assert_eq!(eval(&f, &Int::from(x)), Int::from(y), "f({x})");
        }
        assert_eq!(eval(&Poly::zero(), &Int::from(5)), Int::zero());
        assert_eq!(eval(&Poly::one(), &Int::from(5)), Int::one());
    }

    #[test]
    fn eval_matches_sum_of_monomials() {
        let f = p(&[7, -3, 0, 2, -1]);
        let x = Int::from(-13);
        let direct: Int = f
            .coeffs()
            .iter()
            .enumerate()
            .map(|(j, c)| c * x.pow(j as u32))
            .sum();
        assert_eq!(eval(&f, &x), direct);
    }

    #[test]
    fn sign_at_tracks_eval() {
        let f = p(&[-6, 11, -6, 1]);
        assert_eq!(sign_at(&f, &Int::from(0)), -1);
        assert_eq!(sign_at(&f, &Int::from(1)), 0);
        assert_eq!(sign_at(&f, &Int::from(10)), 1);
    }

    #[test]
    fn scaled_eval_matches_rational_evaluation() {
        // f(x) = 2x^2 - 3x + 1 = (2x - 1)(x - 1); evaluate at 3/4 with µ=2.
        let f = p(&[1, -3, 2]);
        let sp = ScaledPoly::new(&f, 2);
        // 2^(2·2)·f(3/4) = 16·(9/8 - 9/4 + 1) = 16·(-1/8) = -2
        assert_eq!(sp.eval(&Int::from(3)), Int::from(-2));
        // At the root 1/2 (scaled: 2) the value is exactly zero.
        assert_eq!(sp.eval(&Int::from(2)), Int::zero());
        assert_eq!(sp.sign_at(&Int::from(2)), 0);
        // At 1 (scaled: 4): f(1) = 0.
        assert_eq!(sp.eval(&Int::from(4)), Int::zero());
        // At 2 (scaled: 8): f(2) = 3, scaled by 16 → 48.
        assert_eq!(sp.eval(&Int::from(8)), Int::from(48));
    }

    #[test]
    fn scaled_eval_consistent_with_integer_points() {
        let f = p(&[5, 0, -7, 3, 1]);
        for mu in [0u64, 1, 8, 30] {
            let sp = ScaledPoly::new(&f, mu);
            for x in -4i64..=4 {
                let scaled = sp.eval(&(Int::from(x) << mu));
                let expect = eval(&f, &Int::from(x)) << (f.deg() as u64 * mu);
                assert_eq!(scaled, expect, "x={x} mu={mu}");
            }
        }
    }

    #[test]
    fn scaled_eval_negative_dyadic_points() {
        // f(x) = x^2 - 2; f(-3/2) = 9/4 - 2 = 1/4 > 0
        let f = p(&[-2, 0, 1]);
        let sp = ScaledPoly::new(&f, 1);
        // scaled point -3 means -3/2; 2^(2·1) f(-3/2) = 4·(1/4) = 1
        assert_eq!(sp.eval(&Int::from(-3)), Int::from(1));
        assert_eq!(sp.sign_at(&Int::from(-3)), 1);
        // -1 means -1/2: 4·(1/4 - 2) = -7
        assert_eq!(sp.eval(&Int::from(-1)), Int::from(-7));
    }

    #[test]
    #[should_panic]
    fn scaled_poly_rejects_zero() {
        ScaledPoly::new(&Poly::zero(), 4);
    }
}
