//! The standard remainder sequence and quotient sequence of Section 2.1,
//! with the repeated-root extension of Section 2.3.
//!
//! For `F_0 = p0` (degree `n`) and `F_1 = p0'`, the sequence
//!
//! ```text
//! F_{i+1} = (Q_i·F_i − c_i²·F_{i−1}) / c_{i−1}²      (divide by 1 when i = 1)
//! ```
//!
//! with linear quotients `Q_i` is Collins' *reduced* polynomial remainder
//! sequence: every `F_i` and `Q_i` has integer coefficients, and when `p0`
//! is squarefree with all roots real the sequence is *normal* —
//! `deg F_i = n − i` exactly and each `F_{i+1}` interleaves `F_i`.
//!
//! The quotient coefficients come from Eqs (15)–(17) of the paper:
//! `q_{i,1} = lc(F_{i−1})·lc(F_i)` and
//! `q_{i,0} = lc(F_i)·f_{i−1,d} − f_{i,d−1}·lc(F_{i−1})` where
//! `d = deg F_i`, and each output coefficient is Eq (18):
//!
//! ```text
//! f_{i+1,j} = (f_{i,j}·q_{i,0} + f_{i,j−1}·q_{i,1} − c_i²·f_{i−1,j}) / c_{i−1}²
//! ```
//!
//! The per-coefficient kernel is exposed ([`quotient_coeffs`],
//! [`next_f_coeff`]) because the parallel implementation of Section 3.1
//! schedules *each coefficient* of `F_{i+1}` as its own task.
//!
//! **Repeated roots** (Section 2.3): if `p0` has `n* < n` distinct roots,
//! `F_{n*}` divides `F_{n*−1}` and `F_{n*+1} = 0`. The sequence is then
//! extended with `F_i = 1`, `Q_i = 1` for `n* ≤ i < n` and `F_n = 0`
//! (Eqs 10–12); the gcd polynomial `F_{n*}` is kept separately (its roots
//! are the repeated roots of `p0`, with multiplicities reduced by one).

use crate::Poly;
use rr_mp::{ExactDivisor, Int};
use std::fmt;

/// Why a remainder sequence could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqError {
    /// The input must have degree at least 1.
    DegreeTooSmall,
    /// The sequence degenerated (degree dropped by more than one without
    /// terminating) — the input polynomial does not have all roots real.
    NotNormal {
        /// Index `i` of the first abnormal `F_i`.
        at: usize,
    },
    /// The sequence is structurally normal, but its Sturm sign-variation
    /// count shows the polynomial has fewer real roots than its degree.
    NotRealRooted {
        /// Number of distinct real roots actually present.
        distinct_real: usize,
        /// Number expected (`n*`, the squarefree degree).
        expected: usize,
    },
}

impl fmt::Display for SeqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeqError::DegreeTooSmall => write!(f, "input degree must be >= 1"),
            SeqError::NotNormal { at } => write!(
                f,
                "remainder sequence is not normal at F_{at}; \
                 the input polynomial does not have all roots real"
            ),
            SeqError::NotRealRooted { distinct_real, expected } => write!(
                f,
                "input polynomial has only {distinct_real} distinct real \
                 roots (expected {expected}); not all roots are real"
            ),
        }
    }
}

impl std::error::Error for SeqError {}

/// The standard remainder sequence `F_0 … F_n` and quotient sequence
/// `Q_1 … Q_{n−1}` of a degree-`n` real-rooted polynomial, after the
/// repeated-root extension.
#[derive(Debug, Clone)]
pub struct RemainderSeq {
    /// `f[i] = F_i`, length `n + 1`. After the extension, `f[i] = 1` for
    /// `n* ≤ i < n` and `f[n]` is a nonzero constant iff `n* = n` (else 0).
    pub f: Vec<Poly>,
    /// `q[i] = Q_i` for `1 ≤ i ≤ n−1`; `q[0]` is unused (kept zero so the
    /// indices line up with the paper's).
    pub q: Vec<Poly>,
    /// Degree of the input polynomial.
    pub n: usize,
    /// Number of distinct real roots of the input.
    pub n_star: usize,
    /// `gcd(F_0, F_1)` when the input had repeated roots (`n* < n`).
    pub gcd: Option<Poly>,
}

impl RemainderSeq {
    /// The leading coefficient `c_i` in the *matrix* convention of the
    /// paper's appendix: `c_0 = 1` (so `c_0² = 1`), `c_i = lc(F_i)` for
    /// `i ≥ 1`.
    pub fn c(&self, i: usize) -> Int {
        if i == 0 {
            Int::one()
        } else {
            self.f[i]
                .leading_coeff()
                .cloned()
                .unwrap_or_else(Int::zero)
        }
    }

    /// True iff the input was squarefree (no repeated roots).
    pub fn squarefree(&self) -> bool {
        self.n_star == self.n
    }

    /// The squarefree part of the input `F_0`: degree `n*`, the same
    /// distinct roots, all simple. Free when the input was squarefree;
    /// otherwise one exact pseudo-division by the gcd the sequence
    /// already computed (`F_{n*} = gcd(F_0, F_1)` up to a constant).
    ///
    /// The solver pipeline runs the tree stage on this polynomial when the
    /// input has repeated roots — see the crate-level discussion in
    /// `rr-core` of why the literal Section 2.3 extension is not enough
    /// on the rightmost spine.
    pub fn squarefree_input(&self) -> Poly {
        match &self.gcd {
            None => self.f[0].clone(),
            Some(g) => crate::division::pseudo_div_rem(&self.f[0], g)
                .quot
                .primitive_part(),
        }
    }
}

/// The quotient coefficients `(q_{i,0}, q_{i,1})` of `Q_i` given
/// `F_{i−1}` and `F_i` (Eqs 15–17). Requires `deg F_{i−1} = deg F_i + 1`.
pub fn quotient_coeffs(f_prev: &Poly, f_cur: &Poly) -> (Int, Int) {
    let d = f_cur.deg();
    debug_assert_eq!(f_prev.deg(), d + 1, "sequence must be normal");
    let zero = Int::zero();
    let lc_prev = f_prev.lc();
    let lc_cur = f_cur.lc();
    let q1 = lc_prev * lc_cur;
    let q0 = lc_cur * f_prev.coeff_ref(d).unwrap_or(&zero)
        - f_cur.coeff_ref(d.wrapping_sub(1)).unwrap_or(&zero) * lc_prev;
    (q0, q1)
}

/// One output coefficient `f_{i+1,j}` of Eq (18):
/// `(f_{i,j}·q_0 + f_{i,j−1}·q_1 − c_i²·f_{i−1,j}) / denom`, where
/// `c_i_sq = c_i²` and `denom = c_{i−1}²` (1 for the first step). The
/// division is exact by Collins' theorem (debug-asserted).
///
/// The denominator is shared by every coefficient of the iteration, so it
/// arrives *prepared* ([`ExactDivisor`]), and the whole combination goes
/// through its fused kernel [`ExactDivisor::div_exact_dot`]: under
/// `Profile::Fast` all the coefficient tasks of an iteration — however
/// they are scheduled — reuse one cached 2-adic inverse of `c_{i−1}²`,
/// and every product (not just the division) shrinks to a
/// quotient-sized truncated product in the 2-adic domain.
pub fn next_f_coeff(
    f_prev: &Poly,
    f_cur: &Poly,
    q0: &Int,
    q1: &Int,
    c_i_sq: &Int,
    denom: &ExactDivisor,
    j: usize,
) -> Int {
    // Borrow the stored coefficients directly (zero beyond the degree);
    // cloning them here showed up as a per-task allocation in the
    // remainder stage's alloc counters.
    let zero = Int::zero();
    let a = f_cur.coeff_ref(j).unwrap_or(&zero);
    let c = f_prev.coeff_ref(j).unwrap_or(&zero);
    if j > 0 {
        let b = f_cur.coeff_ref(j - 1).unwrap_or(&zero);
        denom.div_exact_dot(&[(a, q0), (b, q1)], &[(c_i_sq, c)])
    } else {
        denom.div_exact_dot(&[(a, q0)], &[(c_i_sq, c)])
    }
}

/// One full step: `(Q_i, F_{i+1})` from `(F_{i−1}, F_i)`.
///
/// `denom` is `c_{i−1}²` for `i ≥ 2` and 1 for `i = 1`, prepared once for
/// the whole step.
pub fn step(f_prev: &Poly, f_cur: &Poly, denom: &ExactDivisor) -> (Poly, Poly) {
    let (q0, q1) = quotient_coeffs(f_prev, f_cur);
    let c_i_sq = f_cur.lc().square();
    let d = f_cur.deg();
    let coeffs: Vec<Int> = (0..d)
        .map(|j| next_f_coeff(f_prev, f_cur, &q0, &q1, &c_i_sq, denom, j))
        .collect();
    (Poly::from_coeffs(vec![q0, q1]), Poly::from_coeffs(coeffs))
}

/// Sign-variation difference `V(−∞) − V(+∞)` of a (generalized) Sturm
/// chain, read off the leading coefficients and degree parities alone.
///
/// The standard remainder sequence satisfies
/// `F_{i+1} ≡ −(c_i²/c_{i−1}²)·F_{i−1} (mod F_i)` — a *positive* multiple
/// of the Sturm recurrence — so the chain `F_0 … F_s` (with `F_s` the gcd
/// or a nonzero constant) is a Sturm chain, and this difference equals the
/// number of distinct real roots of `F_0`.
pub fn sturm_variations_from_lc(chain: &[Poly]) -> usize {
    let count = |at_pos_inf: bool| {
        let mut last = 0i32;
        let mut v = 0usize;
        for p in chain {
            let s = if at_pos_inf { p.sign_at_pos_inf() } else { p.sign_at_neg_inf() };
            if s == 0 {
                continue;
            }
            if last != 0 && s != last {
                v += 1;
            }
            last = s;
        }
        v
    };
    count(false) - count(true)
}

/// Computes the (extended) standard remainder sequence of `p0`.
///
/// Returns [`SeqError::NotNormal`] when the sequence degenerates and
/// [`SeqError::NotRealRooted`] when the Sturm sign-variation count of the
/// sequence (which comes for free from the leading coefficients) shows
/// fewer real roots than the squarefree degree — together these are the
/// algorithm's built-in input validation.
pub fn remainder_sequence(p0: &Poly) -> Result<RemainderSeq, SeqError> {
    let n = match p0.degree() {
        None | Some(0) => return Err(SeqError::DegreeTooSmall),
        Some(n) => n,
    };
    let mut f = Vec::with_capacity(n + 1);
    f.push(p0.clone());
    f.push(p0.derivative());
    let mut q = vec![Poly::zero(); n.max(1)];

    let mut n_star = n;
    let mut gcd = None;
    for i in 1..n {
        let denom =
            ExactDivisor::new(if i == 1 { Int::one() } else { f[i - 1].lc().square() });
        let (qi, f_next) = step(&f[i - 1], &f[i], &denom);
        if f_next.is_zero() {
            // Repeated roots: F_{i+1} = 0 and F_i = gcd(F_0, F_1) up to a
            // constant. Extend per Eqs (10)–(12).
            n_star = i;
            let distinct_real = sturm_variations_from_lc(&f[..=i]);
            if distinct_real != n_star {
                return Err(SeqError::NotRealRooted { distinct_real, expected: n_star });
            }
            gcd = Some(f[i].clone());
            f[i] = Poly::one();
            #[allow(clippy::needless_range_loop)] // k is the paper's index
            for k in i..n {
                q[k] = Poly::one();
                if k > i {
                    f.push(Poly::one());
                }
            }
            f.push(Poly::zero()); // F_n = 0
            debug_assert_eq!(f.len(), n + 1);
            return Ok(RemainderSeq { f, q, n, n_star, gcd });
        }
        if f_next.deg() != f[i].deg() - 1 {
            return Err(SeqError::NotNormal { at: i + 1 });
        }
        q[i] = qi;
        f.push(f_next);
    }
    debug_assert_eq!(f.len(), n + 1);
    debug_assert!(f[n].is_constant());
    let distinct_real = sturm_variations_from_lc(&f);
    if distinct_real != n {
        return Err(SeqError::NotRealRooted { distinct_real, expected: n });
    }
    Ok(RemainderSeq { f, q, n, n_star, gcd })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;

    fn p(coeffs: &[i64]) -> Poly {
        Poly::from_i64(coeffs)
    }

    #[test]
    fn cubic_distinct_roots_hand_checked() {
        // (x-1)(x-2)(x-3): hand-computed sequence.
        let rs = remainder_sequence(&p(&[-6, 11, -6, 1])).unwrap();
        assert_eq!(rs.n, 3);
        assert_eq!(rs.n_star, 3);
        assert!(rs.squarefree());
        assert!(rs.gcd.is_none());
        assert_eq!(rs.f[0], p(&[-6, 11, -6, 1]));
        assert_eq!(rs.f[1], p(&[11, -12, 3]));
        assert_eq!(rs.f[2], p(&[-12, 6]));
        assert_eq!(rs.f[3], p(&[4]));
        assert_eq!(rs.q[1], p(&[-6, 3]));
        assert_eq!(rs.q[2], p(&[-36, 18]));
        assert_eq!(rs.c(0), Int::one());
        assert_eq!(rs.c(1), Int::from(3));
        assert_eq!(rs.c(2), Int::from(6));
    }

    #[test]
    fn repeated_root_extension_hand_checked() {
        // (x-1)^2 (x-2): F_3 = 0, n* = 2, gcd = 2x - 2.
        let rs = remainder_sequence(&p(&[-2, 5, -4, 1])).unwrap();
        assert_eq!(rs.n, 3);
        assert_eq!(rs.n_star, 2);
        assert!(!rs.squarefree());
        assert_eq!(rs.gcd, Some(p(&[-2, 2])));
        assert_eq!(rs.f[0], p(&[-2, 5, -4, 1]));
        assert_eq!(rs.f[1], p(&[5, -8, 3]));
        assert_eq!(rs.f[2], Poly::one()); // replaced by the extension
        assert_eq!(rs.f[3], Poly::zero());
        assert_eq!(rs.q[1], p(&[-4, 3]));
        assert_eq!(rs.q[2], Poly::one()); // replaced by the extension
    }

    #[test]
    fn degrees_and_normality_on_larger_squarefree_input() {
        // roots 1..8 — squarefree, all real.
        let roots: Vec<Int> = (1..=8i64).map(Int::from).collect();
        let rs = remainder_sequence(&Poly::from_roots(&roots)).unwrap();
        assert_eq!(rs.n_star, 8);
        for i in 0..=8usize {
            assert_eq!(rs.f[i].deg(), 8 - i, "deg F_{i}");
        }
        for i in 1..8usize {
            assert!(rs.f[i].coeff_bits() > 0);
            assert_eq!(rs.q[i].deg(), 1, "Q_{i} linear");
        }
    }

    #[test]
    fn interleaving_of_consecutive_f() {
        // F_{i+1} interleaves F_i: between consecutive integer sign changes
        // of F_i there is a sign change of F_{i+1}. Spot-check via sign
        // patterns at the roots of F_0 for roots 1..5.
        let roots: Vec<Int> = [2i64, 4, 6, 8, 10].iter().map(|&r| Int::from(r)).collect();
        let rs = remainder_sequence(&Poly::from_roots(&roots)).unwrap();
        // F_1 = F_0' evaluated at the simple roots of F_0 alternates in
        // sign (ending positive at the largest root, since lc(F_0) > 0) —
        // equivalent to F_1 having exactly one root in each gap.
        let signs: Vec<i32> = [2i64, 4, 6, 8, 10]
            .iter()
            .map(|&x| eval(&rs.f[1], &Int::from(x)).signum())
            .collect();
        assert_eq!(signs, vec![1, -1, 1, -1, 1]);
    }

    #[test]
    fn not_normal_for_complex_roots() {
        // x^2 + 1 has no real roots: F_2 = (Q_1 F_1 - c_1^2 F_0) has degree
        // 0 as expected... but x^4 + 1 degenerates.
        let r = remainder_sequence(&p(&[1, 0, 0, 0, 1]));
        assert!(matches!(r, Err(SeqError::NotNormal { .. })), "{r:?}");
    }

    #[test]
    fn quadratic_with_complex_roots_caught_by_sturm_count() {
        // For n = 2 the sequence never degenerates structurally, but the
        // sign-variation validation catches it.
        let r = remainder_sequence(&p(&[1, 0, 1]));
        assert!(
            matches!(r, Err(SeqError::NotRealRooted { distinct_real: 0, expected: 2 })),
            "{r:?}"
        );
    }

    #[test]
    fn mixed_real_complex_caught() {
        // (x^2+1)(x-1)(x+2): 2 real roots out of 4.
        let f = &p(&[1, 0, 1]) * &p(&[-2, -1, 1]);
        let r = remainder_sequence(&f);
        match r {
            Err(SeqError::NotRealRooted { distinct_real, expected }) => {
                assert_eq!(distinct_real, 2);
                assert_eq!(expected, 4);
            }
            Err(SeqError::NotNormal { .. }) => {} // also acceptable detection
            other => panic!("complex roots not detected: {other:?}"),
        }
    }

    #[test]
    fn repeated_complex_roots_caught() {
        // (x^2+1)^2 (x-3): one real root of a degree-5 polynomial.
        let f = &(&p(&[1, 0, 1]) * &p(&[1, 0, 1])) * &p(&[-3, 1]);
        assert!(remainder_sequence(&f).is_err());
    }

    #[test]
    fn rejects_constants() {
        assert!(matches!(remainder_sequence(&p(&[5])), Err(SeqError::DegreeTooSmall)));
        assert!(matches!(remainder_sequence(&Poly::zero()), Err(SeqError::DegreeTooSmall)));
    }

    #[test]
    fn linear_input_is_trivial() {
        let rs = remainder_sequence(&p(&[-7, 2])).unwrap();
        assert_eq!(rs.n, 1);
        assert_eq!(rs.n_star, 1);
        assert_eq!(rs.f.len(), 2);
        assert_eq!(rs.f[1], p(&[2]));
    }

    #[test]
    fn triple_root() {
        // (x-1)^3: n* = 1, gcd = (x-1)^2 up to constant.
        let rs = remainder_sequence(&p(&[-1, 3, -3, 1])).unwrap();
        assert_eq!(rs.n_star, 1);
        let g = rs.gcd.unwrap();
        assert_eq!(g.deg(), 2);
        // gcd has 1 as a double root
        assert_eq!(eval(&g, &Int::one()), Int::zero());
        assert_eq!(eval(&g.derivative(), &Int::one()), Int::zero());
    }

    #[test]
    fn collins_integrality_partial_products() {
        // All F_i must be integral even with a non-monic, larger input:
        // 5(x-1)(x-3)(x-5)(x-7) scaled.
        let base = Poly::from_roots(&[Int::from(1), Int::from(3), Int::from(5), Int::from(7)]);
        let rs = remainder_sequence(&base.scale(&Int::from(5))).unwrap();
        assert_eq!(rs.n_star, 4);
        for i in 0..=4usize {
            assert_eq!(rs.f[i].deg(), 4 - i);
        }
    }

    #[test]
    fn squarefree_input_extraction() {
        // squarefree in, same polynomial out
        let f = p(&[-6, 11, -6, 1]);
        let rs = remainder_sequence(&f).unwrap();
        assert_eq!(rs.squarefree_input(), f);
        // (x-1)^2 (x-2): squarefree part ∝ (x-1)(x-2)
        let rs = remainder_sequence(&p(&[-2, 5, -4, 1])).unwrap();
        let sf = rs.squarefree_input();
        assert_eq!(sf, p(&[2, -3, 1])); // (x-1)(x-2), primitive
        assert_eq!(eval(&sf, &Int::from(1)), Int::zero());
        assert_eq!(eval(&sf, &Int::from(2)), Int::zero());
        // (x-1)^3: squarefree part ∝ (x-1)
        let rs = remainder_sequence(&p(&[-1, 3, -3, 1])).unwrap();
        let sf = rs.squarefree_input();
        assert_eq!(sf.deg(), 1);
        assert_eq!(eval(&sf, &Int::from(1)), Int::zero());
    }

    #[test]
    fn sign_convention_c() {
        // c(0) is 1 by the appendix convention even for negative lc.
        let rs = remainder_sequence(&p(&[6, -11, 6, -1])).unwrap();
        assert_eq!(rs.c(0), Int::one());
        assert_eq!(rs.c(1), rs.f[1].lc().clone());
    }
}
