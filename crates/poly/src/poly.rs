//! The dense integer polynomial type [`Poly`].

use rr_mp::Int;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A dense univariate polynomial with integer coefficients.
///
/// Stored little-endian: `coeffs[j]` is the coefficient of `x^j`, matching
/// the paper's `F_i = f_{i,n-i} x^{n-i} + … + f_{i,0}` indexing. The
/// representation is normalized — the leading coefficient is nonzero and
/// the zero polynomial has no coefficients.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Poly {
    coeffs: Vec<Int>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Poly {
        Poly { coeffs: Vec::new() }
    }

    /// The constant polynomial 1.
    pub fn one() -> Poly {
        Poly::constant(Int::one())
    }

    /// The monomial `x`.
    pub fn x() -> Poly {
        Poly { coeffs: vec![Int::zero(), Int::one()] }
    }

    /// A constant polynomial.
    pub fn constant(c: Int) -> Poly {
        if c.is_zero() {
            Poly::zero()
        } else {
            Poly { coeffs: vec![c] }
        }
    }

    /// `c · x^k`.
    pub fn monomial(c: Int, k: usize) -> Poly {
        if c.is_zero() {
            return Poly::zero();
        }
        let mut coeffs = vec![Int::zero(); k + 1];
        coeffs[k] = c;
        Poly { coeffs }
    }

    /// Builds a polynomial from little-endian coefficients, trimming
    /// leading zeros.
    pub fn from_coeffs(mut coeffs: Vec<Int>) -> Poly {
        while coeffs.last().is_some_and(Int::is_zero) {
            coeffs.pop();
        }
        Poly { coeffs }
    }

    /// Convenience constructor from machine integers (little-endian).
    pub fn from_i64(coeffs: &[i64]) -> Poly {
        Poly::from_coeffs(coeffs.iter().map(|&c| Int::from(c)).collect())
    }

    /// The monic polynomial `∏ (x − r)` with the given integer roots.
    ///
    /// Built as a balanced product tree: the left-to-right fold is
    /// quadratic in the number of roots with worst-case coefficient
    /// growth at every step, while halving keeps the two factors of
    /// every product comparably sized — the shape subquadratic
    /// multiplication needs to pay off. The result is identical (exact
    /// integer arithmetic, multiplication is associative).
    pub fn from_roots(roots: &[Int]) -> Poly {
        match roots {
            [] => Poly::one(),
            [r] => Poly::from_coeffs(vec![-r, Int::one()]),
            _ => {
                let (lo, hi) = roots.split_at(roots.len() / 2);
                &Poly::from_roots(lo) * &Poly::from_roots(hi)
            }
        }
    }

    /// Degree; `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// Degree of a polynomial known to be nonzero.
    ///
    /// # Panics
    /// Panics on the zero polynomial.
    pub fn deg(&self) -> usize {
        self.degree().expect("deg() of the zero polynomial")
    }

    /// True iff this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// True iff degree 0 (a nonzero constant).
    pub fn is_constant(&self) -> bool {
        self.coeffs.len() == 1
    }

    /// Borrow of the little-endian coefficients (normalized).
    pub fn coeffs(&self) -> &[Int] {
        &self.coeffs
    }

    /// Coefficient of `x^j` (zero beyond the degree).
    pub fn coeff(&self, j: usize) -> Int {
        self.coeffs.get(j).cloned().unwrap_or_else(Int::zero)
    }

    /// Borrowed coefficient of `x^j`, if stored.
    pub fn coeff_ref(&self, j: usize) -> Option<&Int> {
        self.coeffs.get(j)
    }

    /// Leading coefficient; `None` for zero.
    pub fn leading_coeff(&self) -> Option<&Int> {
        self.coeffs.last()
    }

    /// Leading coefficient of a polynomial known to be nonzero.
    pub fn lc(&self) -> &Int {
        self.leading_coeff().expect("lc() of the zero polynomial")
    }

    /// The paper's size measure `‖p‖`: bit length of the largest
    /// coefficient magnitude (0 for the zero polynomial).
    pub fn coeff_bits(&self) -> u64 {
        self.coeffs.iter().map(Int::bit_len).max().unwrap_or(0)
    }

    /// Formal derivative.
    pub fn derivative(&self) -> Poly {
        if self.coeffs.len() <= 1 {
            return Poly::zero();
        }
        Poly::from_coeffs(
            self.coeffs
                .iter()
                .enumerate()
                .skip(1)
                .map(|(j, c)| c * Int::from(j as u64))
                .collect(),
        )
    }

    /// Multiplies every coefficient by `s`.
    pub fn scale(&self, s: &Int) -> Poly {
        if s.is_zero() {
            return Poly::zero();
        }
        Poly { coeffs: self.coeffs.iter().map(|c| c * s).collect() }
    }

    /// Multiplies every coefficient by `s` in place.
    ///
    /// Records the same model multiplications as [`Poly::scale`] (one per
    /// stored coefficient, zeros included), but reuses one product buffer
    /// across the whole sweep instead of allocating a fresh coefficient
    /// vector — the remainder stage's pseudo-division scales its running
    /// remainder every step.
    pub fn scale_assign(&mut self, s: &Int) {
        if s.is_zero() {
            self.coeffs.clear();
            return;
        }
        let mut tmp = Int::zero();
        for c in &mut self.coeffs {
            c.mul_into(s, &mut tmp);
            std::mem::swap(c, &mut tmp);
        }
    }

    /// `self −= c·x^k·b`, accumulating in place.
    ///
    /// Records exactly what `self − Poly::monomial(c, k)·b` records — one
    /// model multiplication per nonzero coefficient of `b` (a monomial
    /// operand never clears the Kronecker dispatch gate, so the replaced
    /// expression always took the zero-skipping schoolbook loop) — while
    /// reusing `self`'s coefficient buffers instead of materializing the
    /// product polynomial and a replaced difference.
    pub fn sub_mul_monomial_assign(&mut self, c: &Int, k: usize, b: &Poly) {
        if c.is_zero() || b.is_zero() {
            return;
        }
        let n = k + b.coeffs.len();
        if self.coeffs.len() < n {
            self.coeffs.resize_with(n, Int::zero);
        }
        for (j, y) in b.coeffs.iter().enumerate() {
            if y.is_zero() {
                continue;
            }
            self.coeffs[k + j].sub_mul_assign(c, y);
        }
        while self.coeffs.last().is_some_and(Int::is_zero) {
            self.coeffs.pop();
        }
    }

    /// Divides every coefficient by `s` exactly (debug-asserted).
    ///
    /// A one-shot convenience over [`Poly::div_scalar_exact_prepared`]:
    /// the divisor is prepared once here, so under `Profile::Fast` the
    /// coefficients already share one cached 2-adic inverse of `s`.
    pub fn div_scalar_exact(&self, s: &Int) -> Poly {
        self.div_scalar_exact_prepared(&rr_mp::ExactDivisor::new(s.clone()))
    }

    /// Divides every coefficient by the prepared divisor, exactly. Use
    /// this form when the same divisor is shared beyond one polynomial —
    /// the tree stage's per-entry tasks divide all four entries of a
    /// `Mat2` by the same `c_k²·c_{k−1}²`.
    pub fn div_scalar_exact_prepared(&self, s: &rr_mp::ExactDivisor) -> Poly {
        Poly { coeffs: self.coeffs.iter().map(|c| s.div_exact(c)).collect() }
    }

    /// `p(x) · x^k`.
    pub fn shift_up(&self, k: usize) -> Poly {
        if self.is_zero() {
            return Poly::zero();
        }
        let mut coeffs = vec![Int::zero(); k];
        coeffs.extend(self.coeffs.iter().cloned());
        Poly { coeffs }
    }

    /// `p(−x)`: flips the sign of odd coefficients.
    pub fn reflect(&self) -> Poly {
        Poly::from_coeffs(
            self.coeffs
                .iter()
                .enumerate()
                .map(|(j, c)| if j % 2 == 1 { -c } else { c.clone() })
                .collect(),
        )
    }

    /// Sign of `p(x)` as `x → +∞`: the sign of the leading coefficient
    /// (`0` for the zero polynomial).
    pub fn sign_at_pos_inf(&self) -> i32 {
        self.leading_coeff().map_or(0, Int::signum)
    }

    /// Sign of `p(x)` as `x → −∞`.
    pub fn sign_at_neg_inf(&self) -> i32 {
        match self.degree() {
            None => 0,
            Some(d) if d % 2 == 0 => self.sign_at_pos_inf(),
            Some(_) => -self.sign_at_pos_inf(),
        }
    }

    /// Content: positive gcd of all coefficients (0 for the zero poly).
    pub fn content(&self) -> Int {
        self.coeffs
            .iter()
            .fold(Int::zero(), |acc, c| rr_mp::gcd::gcd(&acc, c))
    }

    /// Primitive part with the sign of the leading coefficient preserved.
    pub fn primitive_part(&self) -> Poly {
        if self.is_zero() {
            return Poly::zero();
        }
        let c = self.content();
        self.div_scalar_exact(&c)
    }

    /// `self²`, through the active profile's squaring path:
    /// the limb squaring kernel on the diagonal (schoolbook) or three
    /// packed products instead of four (Kronecker). Records the same
    /// model counts as `self * self`.
    pub fn square(&self) -> Poly {
        if self.is_zero() {
            return Poly::zero();
        }
        square_impl(self)
    }

    /// `self × rhs` forced through the schoolbook double loop,
    /// regardless of the active [`rr_mp::Profile`]. The
    /// differential suites and the ablation bench pin each path with
    /// this and [`Poly::mul_kronecker`]; ordinary code multiplies with
    /// `*` and lets the session dispatch.
    pub fn mul_schoolbook(&self, rhs: &Poly) -> Poly {
        if self.is_zero() || rhs.is_zero() {
            return Poly::zero();
        }
        mul_schoolbook_impl(self, rhs)
    }

    /// `self × rhs` forced through Kronecker substitution, regardless of
    /// the active profile or the size crossover. Exact for any operands;
    /// see [`crate::kronecker`].
    pub fn mul_kronecker(&self, rhs: &Poly) -> Poly {
        crate::kronecker::mul(self, rhs)
    }
}

impl Default for Poly {
    fn default() -> Poly {
        Poly::zero()
    }
}

fn add_impl(a: &Poly, b: &Poly) -> Poly {
    let n = a.coeffs.len().max(b.coeffs.len());
    let mut out = Vec::with_capacity(n);
    for j in 0..n {
        let mut c = Int::zero();
        if let Some(x) = a.coeffs.get(j) {
            c += x;
        }
        if let Some(y) = b.coeffs.get(j) {
            c += y;
        }
        out.push(c);
    }
    Poly::from_coeffs(out)
}

fn sub_impl(a: &Poly, b: &Poly) -> Poly {
    let n = a.coeffs.len().max(b.coeffs.len());
    let mut out = Vec::with_capacity(n);
    for j in 0..n {
        let mut c = Int::zero();
        if let Some(x) = a.coeffs.get(j) {
            c += x;
        }
        if let Some(y) = b.coeffs.get(j) {
            c -= y;
        }
        out.push(c);
    }
    Poly::from_coeffs(out)
}

/// Product dispatch. The *recorded model* is always the schoolbook
/// count — `(d_a+1)(d_b+1)` coefficient multiplications over nonzero
/// pairs, the count the paper's Section 4.2 analysis assumes — so
/// predicted-vs-observed figures are invariant under the kernel profile
/// (`rr_mp::Profile`) carried by the active `SolveCtx`: `Paper` runs the
/// schoolbook loop, `Fast` Kronecker substitution above its size
/// crossover. Aliased
/// operands (`&p * &p`) take the squaring path, which halves the
/// computed coefficient products while recording the full aliased
/// double-loop model.
fn mul_impl(a: &Poly, b: &Poly) -> Poly {
    if a.is_zero() || b.is_zero() {
        return Poly::zero();
    }
    if std::ptr::eq(a, b) {
        return square_impl(a);
    }
    match rr_mp::active_profile() {
        rr_mp::Profile::Fast if crate::kronecker::profitable(a, b) => crate::kronecker::mul(a, b),
        _ => mul_schoolbook_impl(a, b),
    }
}

/// Schoolbook product: the classical double loop, accumulating each
/// coefficient product in place (`Int::add_mul_assign`) so the inner
/// loop allocates one product magnitude instead of a product `Int`
/// plus a replaced accumulator.
fn mul_schoolbook_impl(a: &Poly, b: &Poly) -> Poly {
    let mut out = vec![Int::zero(); a.coeffs.len() + b.coeffs.len() - 1];
    for (i, x) in a.coeffs.iter().enumerate() {
        if x.is_zero() {
            continue;
        }
        for (j, y) in b.coeffs.iter().enumerate() {
            if y.is_zero() {
                continue;
            }
            out[i + j].add_mul_assign(x, y);
        }
    }
    Poly::from_coeffs(out)
}

/// Square dispatch: same profile policy as [`mul_impl`], for a nonzero
/// operand.
fn square_impl(a: &Poly) -> Poly {
    match rr_mp::active_profile() {
        rr_mp::Profile::Fast if crate::kronecker::profitable(a, a) => crate::kronecker::square(a),
        _ => square_schoolbook_impl(a),
    }
}

/// Schoolbook square: computes only the upper triangle — `x_i²` on the
/// diagonal via the limb squaring kernel, and each cross product once,
/// doubled by a shift — but *records* the full aliased double loop
/// (every ordered nonzero pair), so taking the squaring path never
/// changes the model counts relative to `p * p.clone()`.
fn square_schoolbook_impl(a: &Poly) -> Poly {
    let n = a.coeffs.len();
    let mut out = vec![Int::zero(); 2 * n - 1];
    for (i, x) in a.coeffs.iter().enumerate() {
        if x.is_zero() {
            continue;
        }
        // Int::square records one event at ‖x‖·‖x‖ — the (i, i) pair.
        out[2 * i] += &x.square();
        for (j, y) in a.coeffs.iter().enumerate().skip(i + 1) {
            if y.is_zero() {
                continue;
            }
            // The aliased loop records (i, j) and (j, i): one event from
            // the product below, plus its mirror, recorded explicitly.
            let p = x * y;
            rr_mp::metrics::record_mul(x.bit_len(), y.bit_len());
            out[i + j] += &(p << 1);
        }
    }
    Poly::from_coeffs(out)
}

macro_rules! poly_binop {
    ($trait:ident, $method:ident, $impl_fn:ident) => {
        impl $trait<&Poly> for &Poly {
            type Output = Poly;
            fn $method(self, rhs: &Poly) -> Poly {
                $impl_fn(self, rhs)
            }
        }
        impl $trait<Poly> for &Poly {
            type Output = Poly;
            fn $method(self, rhs: Poly) -> Poly {
                $impl_fn(self, &rhs)
            }
        }
        impl $trait<&Poly> for Poly {
            type Output = Poly;
            fn $method(self, rhs: &Poly) -> Poly {
                $impl_fn(&self, rhs)
            }
        }
        impl $trait<Poly> for Poly {
            type Output = Poly;
            fn $method(self, rhs: Poly) -> Poly {
                $impl_fn(&self, &rhs)
            }
        }
    };
}

poly_binop!(Add, add, add_impl);
poly_binop!(Sub, sub, sub_impl);
poly_binop!(Mul, mul, mul_impl);

impl AddAssign<&Poly> for Poly {
    /// In-place sum: grows `self` only when `rhs` is longer, adding into
    /// the existing coefficients (additions are free in the cost model,
    /// exactly as in `Add`).
    fn add_assign(&mut self, rhs: &Poly) {
        for (j, y) in rhs.coeffs.iter().enumerate() {
            if j < self.coeffs.len() {
                self.coeffs[j] += y;
            } else {
                self.coeffs.push(y.clone());
            }
        }
        while self.coeffs.last().is_some_and(Int::is_zero) {
            self.coeffs.pop();
        }
    }
}

impl AddAssign<Poly> for Poly {
    /// In-place sum taking ownership: coefficients past `self`'s length
    /// are moved in, not cloned.
    fn add_assign(&mut self, rhs: Poly) {
        for (j, y) in rhs.coeffs.into_iter().enumerate() {
            if j < self.coeffs.len() {
                self.coeffs[j] += &y;
            } else {
                self.coeffs.push(y);
            }
        }
        while self.coeffs.last().is_some_and(Int::is_zero) {
            self.coeffs.pop();
        }
    }
}

impl SubAssign<&Poly> for Poly {
    /// In-place difference, mirroring `AddAssign`.
    fn sub_assign(&mut self, rhs: &Poly) {
        for (j, y) in rhs.coeffs.iter().enumerate() {
            if j < self.coeffs.len() {
                self.coeffs[j] -= y;
            } else {
                self.coeffs.push(-y);
            }
        }
        while self.coeffs.last().is_some_and(Int::is_zero) {
            self.coeffs.pop();
        }
    }
}

impl SubAssign<Poly> for Poly {
    /// In-place difference taking ownership: coefficients past `self`'s
    /// length are negated in place and moved in, not cloned.
    fn sub_assign(&mut self, rhs: Poly) {
        for (j, y) in rhs.coeffs.into_iter().enumerate() {
            if j < self.coeffs.len() {
                self.coeffs[j] -= &y;
            } else {
                self.coeffs.push(-y);
            }
        }
        while self.coeffs.last().is_some_and(Int::is_zero) {
            self.coeffs.pop();
        }
    }
}

impl Neg for &Poly {
    type Output = Poly;
    fn neg(self) -> Poly {
        Poly { coeffs: self.coeffs.iter().map(|c| -c).collect() }
    }
}

impl Neg for Poly {
    type Output = Poly;
    fn neg(self) -> Poly {
        Poly { coeffs: self.coeffs.into_iter().map(|c| -c).collect() }
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (j, c) in self.coeffs.iter().enumerate().rev() {
            if c.is_zero() {
                continue;
            }
            if first {
                if c.is_negative() {
                    write!(f, "-")?;
                }
                first = false;
            } else if c.is_negative() {
                write!(f, " - ")?;
            } else {
                write!(f, " + ")?;
            }
            let a = c.abs();
            match j {
                0 => write!(f, "{a}")?,
                _ => {
                    if !a.is_one() {
                        write!(f, "{a}")?;
                    }
                    if j == 1 {
                        write!(f, "x")?;
                    } else {
                        write!(f, "x^{j}")?;
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(coeffs: &[i64]) -> Poly {
        Poly::from_i64(coeffs)
    }

    #[test]
    fn construction_and_normalization() {
        assert!(Poly::zero().is_zero());
        assert_eq!(Poly::zero().degree(), None);
        assert_eq!(p(&[1, 2, 0, 0]), p(&[1, 2]));
        assert_eq!(p(&[0]).degree(), None);
        assert_eq!(Poly::one().deg(), 0);
        assert_eq!(Poly::x().deg(), 1);
        assert_eq!(Poly::monomial(Int::from(5), 3), p(&[0, 0, 0, 5]));
        assert_eq!(Poly::monomial(Int::zero(), 3), Poly::zero());
        assert_eq!(Poly::constant(Int::zero()), Poly::zero());
    }

    #[test]
    fn from_roots_expands() {
        // (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
        let q = Poly::from_roots(&[Int::from(1), Int::from(2), Int::from(3)]);
        assert_eq!(q, p(&[-6, 11, -6, 1]));
        assert_eq!(Poly::from_roots(&[]), Poly::one());
    }

    #[test]
    fn arithmetic_small() {
        let a = p(&[1, 2, 3]); // 3x^2+2x+1
        let b = p(&[4, 5]); // 5x+4
        assert_eq!(&a + &b, p(&[5, 7, 3]));
        assert_eq!(&a - &b, p(&[-3, -3, 3]));
        assert_eq!(&a * &b, p(&[4, 13, 22, 15]));
        assert_eq!(-&a, p(&[-1, -2, -3]));
        assert_eq!(&a - &a, Poly::zero());
        assert_eq!(&a * Poly::zero(), Poly::zero());
        assert_eq!(&a * Poly::one(), a);
    }

    #[test]
    fn cancellation_trims_degree() {
        let a = p(&[0, 0, 1]);
        let b = p(&[1, 0, 1]);
        assert_eq!((&a - &b).deg(), 0);
        assert_eq!(&a - &b, p(&[-1]));
    }

    #[test]
    fn derivative_rules() {
        assert_eq!(p(&[-6, 11, -6, 1]).derivative(), p(&[11, -12, 3]));
        assert_eq!(p(&[42]).derivative(), Poly::zero());
        assert_eq!(Poly::zero().derivative(), Poly::zero());
        // (fg)' = f'g + fg'
        let f = p(&[1, 2, 3]);
        let g = p(&[-5, 0, 7, 2]);
        let lhs = (&f * &g).derivative();
        let rhs = &f.derivative() * &g + &f * &g.derivative();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn scale_and_shift() {
        let a = p(&[1, -2, 3]);
        assert_eq!(a.scale(&Int::from(-2)), p(&[-2, 4, -6]));
        assert_eq!(a.scale(&Int::zero()), Poly::zero());
        assert_eq!(a.shift_up(2), p(&[0, 0, 1, -2, 3]));
        assert_eq!(Poly::zero().shift_up(5), Poly::zero());
        assert_eq!(a.scale(&Int::from(3)).div_scalar_exact(&Int::from(3)), a);
    }

    #[test]
    fn reflect_negates_odd_coeffs() {
        let a = p(&[1, 2, 3, 4]);
        assert_eq!(a.reflect(), p(&[1, -2, 3, -4]));
        // p(-x) at 5 == p(x) at -5
        let y = crate::eval::eval(&a.reflect(), &Int::from(5));
        let z = crate::eval::eval(&a, &Int::from(-5));
        assert_eq!(y, z);
    }

    #[test]
    fn signs_at_infinity() {
        assert_eq!(p(&[0, 0, 1]).sign_at_pos_inf(), 1);
        assert_eq!(p(&[0, 0, 1]).sign_at_neg_inf(), 1);
        assert_eq!(p(&[0, 1]).sign_at_neg_inf(), -1);
        assert_eq!(p(&[0, -1]).sign_at_neg_inf(), 1);
        assert_eq!(p(&[0, 0, 0, -2]).sign_at_neg_inf(), 2_i32.signum());
        assert_eq!(Poly::zero().sign_at_pos_inf(), 0);
    }

    #[test]
    fn content_and_primitive_part() {
        let a = p(&[6, -9, 12]);
        assert_eq!(a.content(), Int::from(3));
        assert_eq!(a.primitive_part(), p(&[2, -3, 4]));
        let b = p(&[-6, -9]);
        // content is positive; primitive part keeps the sign
        assert_eq!(b.content(), Int::from(3));
        assert_eq!(b.primitive_part(), p(&[-2, -3]));
        assert_eq!(Poly::zero().content(), Int::zero());
    }

    #[test]
    fn coeff_bits_is_max_size() {
        let a = p(&[1, 255, -256]);
        assert_eq!(a.coeff_bits(), 9);
        assert_eq!(Poly::zero().coeff_bits(), 0);
    }

    #[test]
    fn display_formatting() {
        assert_eq!(p(&[-6, 11, -6, 1]).to_string(), "x^3 - 6x^2 + 11x - 6");
        assert_eq!(p(&[0]).to_string(), "0");
        assert_eq!(p(&[-1]).to_string(), "-1");
        assert_eq!(p(&[0, -1]).to_string(), "-x");
        assert_eq!(p(&[0, 0, 2]).to_string(), "2x^2");
    }
}
