//! The signed arbitrary-precision integer type [`Int`].

use crate::limb::Limb;
use crate::metrics;
use crate::nat;
use std::cmp::Ordering;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Shl, Shr, Sub, SubAssign};

/// Sign of an [`Int`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Zero.
    Zero,
    /// Strictly positive.
    Positive,
}

impl Sign {
    /// The opposite sign (zero is its own opposite).
    pub fn flip(self) -> Sign {
        match self {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        }
    }

    /// Product-of-signs.
    #[allow(clippy::should_implement_trait)] // sign algebra, not ring mul
    pub fn mul(self, other: Sign) -> Sign {
        match (self, other) {
            (Sign::Zero, _) | (_, Sign::Zero) => Sign::Zero,
            (a, b) if a == b => Sign::Positive,
            _ => Sign::Negative,
        }
    }

    /// `-1`, `0`, or `1`.
    pub fn as_i32(self) -> i32 {
        match self {
            Sign::Negative => -1,
            Sign::Zero => 0,
            Sign::Positive => 1,
        }
    }
}

/// An arbitrary-precision signed integer.
///
/// Stored as a sign and a normalized little-endian limb magnitude.
/// Arithmetic uses the classical linear/quadratic algorithms, and every
/// multiplication/division is recorded by [`crate::metrics`] under the
/// thread's current phase (see the crate docs for why this cost model is
/// load-bearing for the reproduction).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Int {
    sign: Sign,
    mag: Vec<Limb>,
}

impl Int {
    /// The integer 0.
    #[inline]
    pub fn zero() -> Int {
        Int { sign: Sign::Zero, mag: Vec::new() }
    }

    /// The integer 1.
    #[inline]
    pub fn one() -> Int {
        Int { sign: Sign::Positive, mag: vec![1] }
    }

    /// `2^k`.
    pub fn pow2(k: u64) -> Int {
        Int { sign: Sign::Positive, mag: nat::shl(&[1], k) }
    }

    /// Builds an `Int` from a sign and magnitude, normalizing both.
    pub fn from_sign_mag(sign: Sign, mag: Vec<Limb>) -> Int {
        let mag = nat::normalized(mag);
        if mag.is_empty() {
            Int::zero()
        } else {
            debug_assert!(sign != Sign::Zero, "nonzero magnitude with Zero sign");
            Int { sign, mag }
        }
    }

    /// The sign.
    #[inline]
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// `-1`, `0`, or `1`.
    #[inline]
    pub fn signum(&self) -> i32 {
        self.sign.as_i32()
    }

    /// True iff zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// True iff one.
    pub fn is_one(&self) -> bool {
        self.sign == Sign::Positive && self.mag == [1]
    }

    /// True iff strictly negative.
    #[inline]
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    /// True iff strictly positive.
    #[inline]
    pub fn is_positive(&self) -> bool {
        self.sign == Sign::Positive
    }

    /// True iff even (zero is even).
    pub fn is_even(&self) -> bool {
        self.mag.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of bits in the magnitude: `‖x‖ = ⌈log2(|x|+1)⌉`; `‖0‖ = 0`.
    ///
    /// This is the paper's size measure for integers.
    #[inline]
    pub fn bit_len(&self) -> u64 {
        nat::bit_len(&self.mag)
    }

    /// Bit `i` of the magnitude.
    pub fn bit(&self, i: u64) -> bool {
        nat::bit(&self.mag, i)
    }

    /// Trailing zero bits of the magnitude; `None` for zero.
    pub fn trailing_zeros(&self) -> Option<u64> {
        nat::trailing_zeros(&self.mag)
    }

    /// Absolute value.
    pub fn abs(&self) -> Int {
        Int {
            sign: if self.sign == Sign::Zero { Sign::Zero } else { Sign::Positive },
            mag: self.mag.clone(),
        }
    }

    /// Borrow of the magnitude limbs (little-endian, normalized).
    pub fn magnitude(&self) -> &[Limb] {
        &self.mag
    }

    /// Compares magnitudes, ignoring sign.
    pub fn cmp_abs(&self, other: &Int) -> Ordering {
        nat::cmp(&self.mag, &other.mag)
    }

    /// `self * self` (recorded as one multiplication; uses the active
    /// profile's squaring kernel).
    pub fn square(&self) -> Int {
        let bits = self.bit_len();
        metrics::record_mul(bits, bits);
        Int::from_sign_mag(self.sign.mul(self.sign), nat::sqr_auto(&self.mag))
    }

    /// Fused `self += x * y`, recorded exactly like `x * y` (one
    /// multiplication at `‖x‖·‖y‖` bit cost) but accumulating in place:
    /// the product magnitude lands in a scratch-arena buffer and folds
    /// into `self` with no intermediate `Int` and no reallocation of the
    /// accumulator. This is the schoolbook polynomial loop's inner
    /// operation.
    pub fn add_mul_assign(&mut self, x: &Int, y: &Int) {
        metrics::record_mul(x.bit_len(), y.bit_len());
        self.add_mul_assign_raw(x, y, false);
    }

    /// Fused `self -= x * y` — [`Int::add_mul_assign`] with the product
    /// negated, recorded identically (one multiplication at `‖x‖·‖y‖`
    /// bit cost). The polynomial accumulation loops in `rr-linalg` and
    /// `rr-poly` subtract scaled rows/coefficients through this.
    pub fn sub_mul_assign(&mut self, x: &Int, y: &Int) {
        metrics::record_mul(x.bit_len(), y.bit_len());
        self.add_mul_assign_raw(x, y, true);
    }

    /// Unmetered `self ±= x·y` — the kernel of [`Int::add_mul_assign`] /
    /// [`Int::sub_mul_assign`], shared with
    /// [`crate::ExactDivisor::div_exact_dot`], whose entry point charges
    /// the model itself before dispatching.
    pub(crate) fn add_mul_assign_raw(&mut self, x: &Int, y: &Int, negate: bool) {
        let mut psign = x.sign.mul(y.sign);
        if negate {
            psign = psign.flip();
        }
        if psign == Sign::Zero {
            return;
        }
        let mut pmag = crate::scratch::take(x.mag.len() + y.mag.len());
        nat::mul_auto_into(&x.mag, &y.mag, &mut pmag);
        if self.sign == Sign::Zero {
            self.sign = psign;
            self.mag.clear();
            self.mag.extend_from_slice(&pmag);
        } else if self.sign == psign {
            nat::add_assign(&mut self.mag, &pmag);
        } else {
            match nat::cmp(&self.mag, &pmag) {
                Ordering::Equal => {
                    self.sign = Sign::Zero;
                    self.mag.clear();
                }
                Ordering::Greater => nat::sub_assign(&mut self.mag, &pmag),
                Ordering::Less => {
                    nat::rsub_assign(&mut self.mag, &pmag);
                    self.sign = self.sign.flip();
                }
            }
        }
        crate::scratch::put(pmag);
    }

    /// `self * rhs` written into `out`, recorded exactly like `*` (one
    /// multiplication at `‖self‖·‖rhs‖` bit cost) but reusing `out`'s
    /// magnitude storage instead of allocating a fresh `Int`. `out`'s
    /// previous value is discarded (its buffer is fully overwritten —
    /// dirty contents are fine).
    pub fn mul_into(&self, rhs: &Int, out: &mut Int) {
        metrics::record_mul(self.bit_len(), rhs.bit_len());
        nat::mul_auto_into(&self.mag, &rhs.mag, &mut out.mag);
        out.sign = if out.mag.is_empty() {
            Sign::Zero
        } else {
            self.sign.mul(rhs.sign)
        };
    }

    /// `self^e` by binary exponentiation.
    pub fn pow(&self, e: u32) -> Int {
        if e == 0 {
            return Int::one();
        }
        let mut base = self.clone();
        let mut acc: Option<Int> = None;
        let mut e = e;
        loop {
            if e & 1 == 1 {
                acc = Some(match acc {
                    None => base.clone(),
                    Some(a) => &a * &base,
                });
            }
            e >>= 1;
            if e == 0 {
                break;
            }
            base = base.square();
        }
        acc.expect("e > 0")
    }

    /// Integer square root: `⌊√self⌋`, by Newton's method on integers.
    ///
    /// # Panics
    /// Panics if `self` is negative.
    pub fn isqrt(&self) -> Int {
        assert!(!self.is_negative(), "isqrt of a negative number");
        if self.is_zero() || self.is_one() {
            return self.clone();
        }
        // Initial guess: 2^⌈bits/2⌉ ≥ √self, then x' = (x + self/x)/2
        // decreases monotonically to ⌊√self⌋.
        let mut x = Int::pow2(self.bit_len().div_ceil(2));
        loop {
            let next = (&x + self / &x).shr_floor(1);
            if next >= x {
                debug_assert!(&x * &x <= *self && (&x + Int::one()) * (&x + Int::one()) > *self);
                return x;
            }
            x = next;
        }
    }

    /// Truncating division with remainder: `self = q*d + r`, `|r| < |d|`,
    /// `sign(r) = sign(self)` (matching Rust's primitive `%`).
    ///
    /// # Panics
    /// Panics if `d` is zero.
    pub fn div_rem(&self, d: &Int) -> (Int, Int) {
        assert!(!d.is_zero(), "division by zero");
        // The Algorithm D work estimate is charged before any kernel
        // runs, so the recorded cost model is profile-invariant by
        // construction.
        metrics::record_div(self.bit_len(), d.bit_len());
        let (q, r) = nat::div_rem_auto(&self.mag, &d.mag);
        (
            Int::from_sign_mag(self.sign.mul(d.sign), q),
            Int::from_sign_mag(self.sign, r),
        )
    }

    /// Exact division: `self / d` asserting (in debug builds) that the
    /// remainder is zero. The subresultant recurrences of `rr-poly` rely on
    /// divisions that are provably exact; this names that intent — and
    /// under [`crate::Profile::Fast`] the exactness is exploited: the
    /// quotient is recovered 2-adically from low bits, with cost
    /// independent of the divisor's length.
    ///
    /// The cost charge is identical to [`Int::div_rem`]'s (the Algorithm D
    /// work estimate, recorded before any kernel runs), so the model stays
    /// profile-invariant.
    ///
    /// # Panics
    /// Panics if `d` is zero.
    pub fn div_exact(&self, d: &Int) -> Int {
        assert!(!d.is_zero(), "division by zero");
        metrics::record_div(self.bit_len(), d.bit_len());
        Int::from_sign_mag(self.sign.mul(d.sign), nat::div_exact_auto(&self.mag, &d.mag))
    }

    /// True iff `d` divides `self` exactly (`d` nonzero).
    pub fn divisible_by(&self, d: &Int) -> bool {
        self.div_rem(d).1.is_zero()
    }

    /// Floor division by `2^k` (arithmetic shift right).
    pub fn shr_floor(&self, k: u64) -> Int {
        let shifted = nat::shr(&self.mag, k);
        if self.sign == Sign::Negative && nat::low_bits_nonzero(&self.mag, k) {
            // floor(-x / 2^k) = -(x >> k) - 1 when bits were lost
            Int::from_sign_mag(Sign::Negative, nat::add(&shifted, &[1]))
        } else {
            Int::from_sign_mag(self.sign, shifted)
        }
    }

    /// Ceiling division by `2^k`.
    pub fn shr_ceil(&self, k: u64) -> Int {
        let shifted = nat::shr(&self.mag, k);
        if self.sign == Sign::Positive && nat::low_bits_nonzero(&self.mag, k) {
            Int::from_sign_mag(Sign::Positive, nat::add(&shifted, &[1]))
        } else {
            Int::from_sign_mag(self.sign, shifted)
        }
    }

    /// Floor division: `⌊self / d⌋`.
    pub fn div_floor(&self, d: &Int) -> Int {
        let (q, r) = self.div_rem(d);
        if !r.is_zero() && (r.sign != d.sign) {
            q - Int::one()
        } else {
            q
        }
    }

    /// Ceiling division: `⌈self / d⌉`.
    pub fn div_ceil(&self, d: &Int) -> Int {
        let (q, r) = self.div_rem(d);
        if !r.is_zero() && (r.sign == d.sign) {
            q + Int::one()
        } else {
            q
        }
    }

    /// Lossy conversion to `f64` (for diagnostics and plotting only).
    /// Overflows to infinity beyond `f64` range.
    pub fn to_f64(&self) -> f64 {
        let bits = self.bit_len();
        let v = if bits <= 64 {
            self.mag.first().copied().unwrap_or(0) as f64
        } else {
            // Keep the top 64 bits and scale by the discarded exponent.
            let top = nat::shr(&self.mag, bits - 64);
            top[0] as f64 * ((bits - 64) as f64).exp2()
        };
        self.signum() as f64 * v
    }

    /// Checked conversion to `i64`.
    pub fn to_i64(&self) -> Option<i64> {
        match self.mag.len() {
            0 => Some(0),
            1 => {
                let m = self.mag[0];
                match self.sign {
                    Sign::Positive if m <= i64::MAX as u64 => Some(m as i64),
                    Sign::Negative if m <= i64::MAX as u64 + 1 => Some((m as i64).wrapping_neg()),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Checked conversion to `i128`.
    pub fn to_i128(&self) -> Option<i128> {
        if self.mag.len() > 2 {
            return None;
        }
        let m = self.mag.first().copied().unwrap_or(0) as u128
            | (self.mag.get(1).copied().unwrap_or(0) as u128) << 64;
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive if m <= i128::MAX as u128 => Some(m as i128),
            Sign::Negative if m <= i128::MAX as u128 + 1 => Some((m as i128).wrapping_neg()),
            _ => None,
        }
    }
}

impl Default for Int {
    fn default() -> Int {
        Int::zero()
    }
}

impl PartialOrd for Int {
    fn partial_cmp(&self, other: &Int) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Int {
    fn cmp(&self, other: &Int) -> Ordering {
        match self.sign.cmp(&other.sign) {
            Ordering::Equal => match self.sign {
                Sign::Zero => Ordering::Equal,
                Sign::Positive => nat::cmp(&self.mag, &other.mag),
                Sign::Negative => nat::cmp(&other.mag, &self.mag),
            },
            ord => ord,
        }
    }
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Int {
            fn from(v: $t) -> Int {
                let v = v as u128;
                Int::from_sign_mag(
                    if v == 0 { Sign::Zero } else { Sign::Positive },
                    vec![v as Limb, (v >> 64) as Limb],
                )
            }
        }
    )*};
}

macro_rules! from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for Int {
            fn from(v: $t) -> Int {
                let (sign, mag) = match (v as i128).cmp(&0) {
                    Ordering::Equal => (Sign::Zero, 0u128),
                    Ordering::Greater => (Sign::Positive, v as i128 as u128),
                    Ordering::Less => (Sign::Negative, (v as i128).unsigned_abs()),
                };
                Int::from_sign_mag(sign, vec![mag as Limb, (mag >> 64) as Limb])
            }
        }
    )*};
}

from_unsigned!(u8, u16, u32, u64, u128, usize);
from_signed!(i8, i16, i32, i64, i128, isize);

fn add_impl(a: &Int, b: &Int) -> Int {
    match (a.sign, b.sign) {
        (Sign::Zero, _) => b.clone(),
        (_, Sign::Zero) => a.clone(),
        (sa, sb) if sa == sb => Int::from_sign_mag(sa, nat::add(&a.mag, &b.mag)),
        (sa, _) => match nat::cmp(&a.mag, &b.mag) {
            Ordering::Equal => Int::zero(),
            Ordering::Greater => Int::from_sign_mag(sa, nat::sub(&a.mag, &b.mag)),
            Ordering::Less => Int::from_sign_mag(sa.flip(), nat::sub(&b.mag, &a.mag)),
        },
    }
}

fn mul_impl(a: &Int, b: &Int) -> Int {
    // Recorded before the kernel dispatch: the event and its ‖a‖·‖b‖ bit
    // cost are identical under both profiles.
    metrics::record_mul(a.bit_len(), b.bit_len());
    Int::from_sign_mag(a.sign.mul(b.sign), nat::mul_auto(&a.mag, &b.mag))
}

macro_rules! binop {
    ($trait:ident, $method:ident, $impl_fn:expr) => {
        impl $trait<&Int> for &Int {
            type Output = Int;
            fn $method(self, rhs: &Int) -> Int {
                $impl_fn(self, rhs)
            }
        }
        impl $trait<Int> for &Int {
            type Output = Int;
            fn $method(self, rhs: Int) -> Int {
                $impl_fn(self, &rhs)
            }
        }
        impl $trait<&Int> for Int {
            type Output = Int;
            fn $method(self, rhs: &Int) -> Int {
                $impl_fn(&self, rhs)
            }
        }
        impl $trait<Int> for Int {
            type Output = Int;
            fn $method(self, rhs: Int) -> Int {
                $impl_fn(&self, &rhs)
            }
        }
    };
}

binop!(Add, add, add_impl);
binop!(Sub, sub, |a: &Int, b: &Int| add_impl(a, &(-b)));
binop!(Mul, mul, mul_impl);
binop!(Div, div, |a: &Int, b: &Int| a.div_rem(b).0);
binop!(Rem, rem, |a: &Int, b: &Int| a.div_rem(b).1);

impl Neg for &Int {
    type Output = Int;
    fn neg(self) -> Int {
        Int { sign: self.sign.flip(), mag: self.mag.clone() }
    }
}

impl Neg for Int {
    type Output = Int;
    fn neg(mut self) -> Int {
        self.sign = self.sign.flip();
        self
    }
}

impl Int {
    /// In-place kernel of `+=` / `-=`: folds `±rhs` into `self` reusing
    /// the accumulator's storage on every path (linear, uncharged —
    /// additions are free in the paper's cost model).
    fn add_assign_impl(&mut self, rhs: &Int, negate: bool) {
        let rsign = if negate { rhs.sign.flip() } else { rhs.sign };
        if rsign == Sign::Zero {
            return;
        }
        if self.sign == Sign::Zero {
            self.sign = rsign;
            self.mag.clear();
            self.mag.extend_from_slice(&rhs.mag);
        } else if self.sign == rsign {
            nat::add_assign(&mut self.mag, &rhs.mag);
        } else {
            match nat::cmp(&self.mag, &rhs.mag) {
                Ordering::Equal => {
                    self.sign = Sign::Zero;
                    self.mag.clear();
                }
                Ordering::Greater => nat::sub_assign(&mut self.mag, &rhs.mag),
                Ordering::Less => {
                    nat::rsub_assign(&mut self.mag, &rhs.mag);
                    self.sign = self.sign.flip();
                }
            }
        }
    }
}

impl AddAssign<&Int> for Int {
    fn add_assign(&mut self, rhs: &Int) {
        self.add_assign_impl(rhs, false);
    }
}

impl SubAssign<&Int> for Int {
    fn sub_assign(&mut self, rhs: &Int) {
        self.add_assign_impl(rhs, true);
    }
}

impl MulAssign<&Int> for Int {
    fn mul_assign(&mut self, rhs: &Int) {
        *self = &*self * rhs;
    }
}

impl Shl<u64> for &Int {
    type Output = Int;
    fn shl(self, k: u64) -> Int {
        Int::from_sign_mag(self.sign, nat::shl(&self.mag, k))
    }
}

impl Shl<u64> for Int {
    type Output = Int;
    fn shl(self, k: u64) -> Int {
        &self << k
    }
}

/// Arithmetic (floor) right shift — see [`Int::shr_floor`].
impl Shr<u64> for &Int {
    type Output = Int;
    fn shr(self, k: u64) -> Int {
        self.shr_floor(k)
    }
}

impl Shr<u64> for Int {
    type Output = Int;
    fn shr(self, k: u64) -> Int {
        self.shr_floor(k)
    }
}

impl std::iter::Sum for Int {
    fn sum<I: Iterator<Item = Int>>(iter: I) -> Int {
        iter.fold(Int::zero(), |a, b| a + b)
    }
}

impl<'a> std::iter::Sum<&'a Int> for Int {
    fn sum<I: Iterator<Item = &'a Int>>(iter: I) -> Int {
        iter.fold(Int::zero(), |a, b| a + b)
    }
}

impl std::iter::Product for Int {
    fn product<I: Iterator<Item = Int>>(iter: I) -> Int {
        iter.fold(Int::one(), |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i128) -> Int {
        Int::from(v)
    }

    #[test]
    fn constructors_and_predicates() {
        assert!(Int::zero().is_zero());
        assert!(Int::one().is_one());
        assert!(!Int::one().is_zero());
        assert!(i(-5).is_negative());
        assert!(i(5).is_positive());
        assert!(i(0).is_even());
        assert!(i(4).is_even());
        assert!(!i(7).is_even());
        assert!(i(-3).signum() == -1);
        assert_eq!(Int::pow2(0), Int::one());
        assert_eq!(Int::pow2(10), i(1024));
        assert_eq!(Int::pow2(100).bit_len(), 101);
    }

    #[test]
    fn conversions_roundtrip() {
        for v in [0i128, 1, -1, i64::MAX as i128, i64::MIN as i128, i128::MAX, i128::MIN, 42, -4242] {
            assert_eq!(Int::from(v).to_i128(), Some(v), "{v}");
        }
        assert_eq!(i(i64::MAX as i128).to_i64(), Some(i64::MAX));
        assert_eq!(i(i64::MIN as i128).to_i64(), Some(i64::MIN));
        assert_eq!(i(i64::MAX as i128 + 1).to_i64(), None);
        assert_eq!(i(i64::MIN as i128 - 1).to_i64(), None);
        assert_eq!((Int::pow2(130)).to_i128(), None);
    }

    #[test]
    fn signed_addition_table() {
        for a in -5i128..=5 {
            for b in -5i128..=5 {
                assert_eq!(i(a) + i(b), i(a + b), "{a}+{b}");
                assert_eq!(i(a) - i(b), i(a - b), "{a}-{b}");
                assert_eq!(i(a) * i(b), i(a * b), "{a}*{b}");
            }
        }
    }

    #[test]
    fn division_matches_rust_truncation() {
        for a in [-100i128, -37, -1, 0, 1, 17, 99, 100] {
            for b in [-7i128, -3, -1, 1, 2, 10] {
                let (q, r) = i(a).div_rem(&i(b));
                assert_eq!(q, i(a / b), "{a}/{b}");
                assert_eq!(r, i(a % b), "{a}%{b}");
            }
        }
    }

    #[test]
    fn floor_and_ceil_division() {
        assert_eq!(i(7).div_floor(&i(2)), i(3));
        assert_eq!(i(-7).div_floor(&i(2)), i(-4));
        assert_eq!(i(7).div_floor(&i(-2)), i(-4));
        assert_eq!(i(-7).div_floor(&i(-2)), i(3));
        assert_eq!(i(7).div_ceil(&i(2)), i(4));
        assert_eq!(i(-7).div_ceil(&i(2)), i(-3));
        assert_eq!(i(7).div_ceil(&i(-2)), i(-3));
        assert_eq!(i(-7).div_ceil(&i(-2)), i(4));
        assert_eq!(i(6).div_floor(&i(2)), i(3));
        assert_eq!(i(6).div_ceil(&i(2)), i(3));
    }

    #[test]
    fn shift_semantics() {
        assert_eq!(i(5) << 3, i(40));
        assert_eq!(i(-5) << 3, i(-40));
        assert_eq!(i(40) >> 3, i(5));
        assert_eq!(i(41) >> 3, i(5)); // floor
        assert_eq!(i(-41) >> 3, i(-6)); // floor
        assert_eq!(i(-40) >> 3, i(-5)); // exact
        assert_eq!(i(41).shr_ceil(3), i(6));
        assert_eq!(i(-41).shr_ceil(3), i(-5));
        assert_eq!(i(40).shr_ceil(3), i(5));
        assert_eq!(i(0) >> 5, i(0));
    }

    #[test]
    fn ordering_across_signs() {
        let mut v = vec![i(3), i(-10), i(0), i(7), i(-2), Int::pow2(70), -Int::pow2(70)];
        v.sort();
        assert_eq!(
            v,
            vec![-Int::pow2(70), i(-10), i(-2), i(0), i(3), i(7), Int::pow2(70)]
        );
    }

    #[test]
    fn pow_and_square() {
        assert_eq!(i(3).pow(0), Int::one());
        assert_eq!(i(3).pow(4), i(81));
        assert_eq!(i(-2).pow(3), i(-8));
        assert_eq!(i(-2).pow(8), i(256));
        assert_eq!(i(10).pow(20), Int::from(100_000_000_000_000_000_000u128));
        assert_eq!(i(-7).square(), i(49));
    }

    #[test]
    fn add_mul_assign_matches_operators() {
        for acc in [-50i128, -6, 0, 6, 50] {
            for x in [-7i128, -1, 0, 1, 3] {
                for y in [-2i128, 0, 2, 9] {
                    let mut got = i(acc);
                    got.add_mul_assign(&i(x), &i(y));
                    assert_eq!(got, i(acc + x * y), "{acc} += {x}*{y}");
                }
            }
        }
        // multi-limb, sign-flipping accumulation
        let mut got = -Int::pow2(200);
        got.add_mul_assign(&Int::pow2(150), &Int::pow2(51));
        assert_eq!(got, Int::pow2(200));
    }

    #[test]
    fn add_mul_assign_records_one_mul() {
        let ctx = crate::SolveCtx::new(crate::Profile::Paper);
        let mut acc = i(10);
        ctx.run(|| acc.add_mul_assign(&i(12345), &i(99999)));
        let d = ctx.snapshot();
        assert_eq!(d.total().mul_count, 1);
        assert_eq!(d.total().mul_bits, 14 * 17);
        // zero operands still record, like `x * y` does
        ctx.run(|| acc.add_mul_assign(&Int::zero(), &i(5)));
        assert_eq!((ctx.snapshot() - d).total().mul_count, 1);
    }

    #[test]
    fn div_exact_and_divisibility() {
        let a = Int::from(123456789u64);
        let b = Int::from(987654321u64);
        let p = &a * &b;
        assert_eq!(p.div_exact(&a), b);
        assert!(p.divisible_by(&b));
        assert!(!(p + Int::one()).divisible_by(&a));
    }

    #[test]
    fn bit_len_matches_size_measure() {
        assert_eq!(Int::zero().bit_len(), 0);
        assert_eq!(Int::one().bit_len(), 1);
        assert_eq!(i(-1).bit_len(), 1);
        assert_eq!(i(255).bit_len(), 8);
        assert_eq!(i(-256).bit_len(), 9);
    }

    #[test]
    fn isqrt_exact_floors() {
        for v in 0i64..200 {
            let r = Int::from(v).isqrt().to_i64().unwrap();
            assert!(r * r <= v && (r + 1) * (r + 1) > v, "isqrt({v}) = {r}");
        }
        // perfect squares at scale
        let big = Int::from(123_456_789_012_345u64);
        assert_eq!((&big * &big).isqrt(), big);
        assert_eq!((&big * &big + Int::one()).isqrt(), big);
        assert_eq!((&big * &big - Int::one()).isqrt(), &big - Int::one());
        // huge power of two
        assert_eq!(Int::pow2(200).isqrt(), Int::pow2(100));
        assert_eq!((Int::pow2(201)).isqrt().bit_len(), 101);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn isqrt_negative_panics() {
        let _ = Int::from(-4).isqrt();
    }

    #[test]
    fn sum_and_product_iterators() {
        let total: Int = (1..=10i64).map(Int::from).sum();
        assert_eq!(total, i(55));
        let fact: Int = (1..=20i64).map(Int::from).product();
        assert_eq!(fact, Int::from(2_432_902_008_176_640_000i64));
    }
}
