//! An independent certificate for a reported set of roots.
//!
//! A root reported as the numerator `N` at precision `µ` claims
//! `⌈2^µ·x⌉ = N` for a true root `x`, i.e. `x ∈ ((N−1)/2^µ, N/2^µ]`.
//! The certificate checks, in exact arithmetic and without reusing any
//! of the solver's own machinery:
//!
//! 1. the numerators are strictly increasing, so the brackets are
//!    disjoint, and there are `n*` of them;
//! 2. each bracket holds a root of the squarefree part `q`: `q` is zero
//!    at the right end or changes sign across the bracket
//!    ([`ScaledPoly::sign_at`] at both ends);
//! 3. `n*` is the number of distinct real roots of `p`. When `n*` equals
//!    `deg q` this follows from (2), since `q` has at most `deg q` roots;
//!    otherwise `n*` must equal the Sturm count of `q`.
//!
//! Together: every distinct real root is reported exactly once, with
//! the correct ceiling.

use rr_mp::Int;
use rr_poly::eval::ScaledPoly;
use rr_poly::gcd::squarefree_part;
use rr_poly::sturm::SturmChain;
use rr_poly::Poly;

/// A prepared input: its squarefree part, computed once and reused for
/// every result that is certified against it.
pub struct Certifier {
    squarefree: Poly,
}

/// Why a result was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// Numerators not strictly increasing.
    Order,
    /// `n*` differs from the number of roots reported.
    Count { n_star: usize, roots: usize },
    /// Bracket `i` holds no root of the squarefree part.
    Bracket(usize),
    /// `n*` differs from the number of distinct real roots.
    RealRoots { n_star: usize, exact: usize },
}

/// Sign evaluations made by [`Certifier::check`] (the certifier's own
/// cost, reported per call by the traced run).
#[derive(Debug, Default, Clone, Copy)]
pub struct SignWork {
    /// Number of `ScaledPoly::sign_at` calls.
    pub calls: u64,
    /// Wall time spent in them.
    pub nanos: u64,
}

impl Certifier {
    /// Prepares `p` (nonzero).
    pub fn new(p: &Poly) -> Certifier {
        // The exact squarefree part costs a full primitive remainder
        // sequence (seconds at degree 96). Most inputs are squarefree,
        // which a gcd modulo one prime proves cheaply.
        let squarefree = if squarefree_mod_prime(p) {
            p.clone()
        } else {
            squarefree_part(p)
        };
        Certifier { squarefree }
    }

    /// Whether the input has repeated roots.
    pub fn has_repeated_roots(&self, p: &Poly) -> bool {
        self.squarefree.deg() < p.deg()
    }

    /// Checks `n_star` and the numerators `nums`, all at precision `mu`.
    pub fn check(
        &self,
        n_star: usize,
        nums: &[Int],
        mu: u64,
        work: &mut SignWork,
    ) -> Result<(), Rejection> {
        if nums.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Rejection::Order);
        }
        if n_star != nums.len() {
            return Err(Rejection::Count {
                n_star,
                roots: nums.len(),
            });
        }
        if nums.is_empty() && self.squarefree.deg() == 0 {
            return Ok(());
        }
        let q = ScaledPoly::new(&self.squarefree, mu);
        for (i, b) in nums.iter().enumerate() {
            let a = b - Int::one();
            let t = std::time::Instant::now();
            let (sa, sb) = (q.sign_at(&a), q.sign_at(b));
            work.nanos += t.elapsed().as_nanos() as u64;
            work.calls += 2;
            if sb != 0 && sa * sb >= 0 {
                return Err(Rejection::Bracket(i));
            }
        }
        if n_star != self.squarefree.deg() {
            let exact = SturmChain::new(&self.squarefree).count_distinct_real_roots();
            if exact != n_star {
                return Err(Rejection::RealRoots { n_star, exact });
            }
        }
        Ok(())
    }
}

/// The Mersenne prime 2⁶¹ − 1.
const PRIME: u64 = (1 << 61) - 1;

/// `true` only if `p` is provably squarefree: the prime does not divide
/// the leading coefficient and `gcd(p mod ℓ, p' mod ℓ) = 1` over `F_ℓ`.
/// (A common factor `g` of `p` and `p'` over ℤ would reduce to a common
/// factor of the same degree, since `lc(g)` divides `lc(p)`.) `false`
/// means "unknown", never "not squarefree".
fn squarefree_mod_prime(p: &Poly) -> bool {
    let m = Int::from(PRIME);
    let reduce = |c: &Int| -> u64 {
        let r = c - &(c.div_floor(&m) * &m);
        r.to_i64().expect("residue below 2^61") as u64
    };
    let f: Vec<u64> = p.coeffs().iter().map(reduce).collect();
    if f.last().is_none_or(|&lc| lc == 0) {
        return false;
    }
    let df: Vec<u64> = f
        .iter()
        .enumerate()
        .skip(1)
        .map(|(j, &c)| mul(c, j as u64 % PRIME))
        .collect();
    gcd_degree(f, df) == Some(0)
}

fn mul(a: u64, b: u64) -> u64 {
    (a as u128 * b as u128 % PRIME as u128) as u64
}

fn inverse(a: u64) -> u64 {
    // Fermat: a^(ℓ−2).
    let (mut base, mut exp, mut acc) = (a, PRIME - 2, 1u64);
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul(acc, base);
        }
        base = mul(base, base);
        exp >>= 1;
    }
    acc
}

fn trim(mut f: Vec<u64>) -> Vec<u64> {
    while f.last() == Some(&0) {
        f.pop();
    }
    f
}

/// Degree of `gcd(a, b)` over `F_ℓ` (Euclid), `None` if both are zero.
fn gcd_degree(a: Vec<u64>, b: Vec<u64>) -> Option<usize> {
    let (mut a, mut b) = (trim(a), trim(b));
    while !b.is_empty() {
        let inv = inverse(*b.last().expect("nonempty"));
        while a.len() >= b.len() {
            let factor = mul(*a.last().expect("nonempty"), inv);
            let shift = a.len() - b.len();
            for (j, &c) in b.iter().enumerate() {
                a[shift + j] = (a[shift + j] + PRIME - mul(factor, c)) % PRIME;
            }
            a = trim(a);
        }
        std::mem::swap(&mut a, &mut b);
    }
    a.len().checked_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_workload::families::{clustered_roots, wilkinson};
    use rr_workload::with_multiplicities;

    fn certify(p: &Poly, nums: &[Int], mu: u64) -> Result<(), Rejection> {
        Certifier::new(p).check(nums.len(), nums, mu, &mut SignWork::default())
    }

    /// Every single-numerator shift by ±1 must be rejected.
    fn assert_shifts_rejected(p: &Poly, good: &[Int], mu: u64) {
        for i in 0..good.len() {
            for d in [-1i64, 1] {
                let mut bad = good.to_vec();
                bad[i] = &bad[i] + &Int::from(d);
                assert!(
                    certify(p, &bad, mu).is_err(),
                    "root {i} shifted by {d} accepted"
                );
            }
        }
    }

    #[test]
    fn accepts_and_rejects_wilkinson_10() {
        let p = wilkinson(10);
        let mu = 8;
        let good: Vec<Int> = (1..=10).map(|k| Int::from(k) << mu).collect();
        assert_eq!(certify(&p, &good, mu), Ok(()));
        assert_shifts_rejected(&p, &good, mu);
    }

    #[test]
    fn accepts_and_rejects_clustered_roots() {
        // Roots 3 + i/64, i = 0..4: exactly dyadic at µ = 6.
        let p = clustered_roots(4, 6, 3);
        let mu = 6;
        let good: Vec<Int> = (0..4)
            .map(|i| (Int::from(3) << mu) + Int::from(i))
            .collect();
        assert_eq!(certify(&p, &good, mu), Ok(()));
        assert_shifts_rejected(&p, &good, mu);
    }

    #[test]
    fn agrees_with_the_solver_on_irrational_roots() {
        let p = rr_workload::charpoly_input(12, 5);
        let r = rr_core::Session::new(rr_core::SolverConfig::sequential(40))
            .solve(&p)
            .unwrap();
        let nums: Vec<Int> = r.roots.iter().map(|d| d.num.clone()).collect();
        assert_eq!(certify(&p, &nums, 40), Ok(()));
        assert_shifts_rejected(&p, &nums, 40);
    }

    #[test]
    fn count_checks_catch_missing_and_extra_roots() {
        let p = wilkinson(5);
        let good: Vec<Int> = (1..=5).map(|k| Int::from(k) << 4).collect();
        let c = Certifier::new(&p);
        let mut w = SignWork::default();
        assert_eq!(
            c.check(5, &good[..4], 4, &mut w),
            Err(Rejection::Count {
                n_star: 5,
                roots: 4
            })
        );
        // A consistent but incomplete answer: n* = 4 with four good roots.
        assert_eq!(
            c.check(4, &good[..4], 4, &mut w),
            Err(Rejection::RealRoots {
                n_star: 4,
                exact: 5
            })
        );
        let mut swapped = good.clone();
        swapped.swap(0, 1);
        assert_eq!(c.check(5, &swapped, 4, &mut w), Err(Rejection::Order));
        assert!(w.calls > 0);
    }

    #[test]
    fn repeated_and_non_real_roots() {
        // (x−1)²(x−3)³(x+2): distinct roots −2, 1, 3.
        let p = with_multiplicities(&[(1, 2), (3, 3), (-2, 1)]);
        assert!(!squarefree_mod_prime(&p));
        let good: Vec<Int> = [-2, 1, 3].iter().map(|&k| Int::from(k) << 5).collect();
        assert_eq!(certify(&p, &good, 5), Ok(()));
        // (x² + 1)(x − 2)(x + 1): real roots −1 and 2 only.
        let q = &Poly::from_i64(&[1, 0, 1]) * &Poly::from_i64(&[-2, -1, 1]);
        assert!(squarefree_mod_prime(&q));
        let real: Vec<Int> = [-1, 2].iter().map(|&k| Int::from(k) << 5).collect();
        assert_eq!(certify(&q, &real, 5), Ok(()));
        assert!(certify(&q, &real[..1], 5).is_err());
    }
}
