//! Multiplicity recovery for repeated roots (an extension of Sec 2.3).
//!
//! The pipeline itself already *finds* the distinct roots of a
//! non-squarefree input (via the extended remainder sequence). This module
//! additionally recovers each root's multiplicity, using the classical
//! fact behind the paper's footnote 2: `gcd(F_0, F_1)` has exactly the
//! repeated roots of `F_0`, with multiplicities reduced by one. Solving
//! the gcd recursively and matching the (identical) `µ`-approximations
//! yields the full multiplicity profile.

use crate::refine::RefineStrategy;
use crate::rounds::solve_rounds;
use rr_mp::Int;
use rr_poly::bounds::root_bound_bits;
use rr_poly::remainder::{remainder_sequence, SeqError};
use rr_poly::Poly;

/// Error from multiplicity recovery.
#[derive(Debug)]
pub enum MultiplicityError {
    /// Building a remainder sequence failed.
    Seq(SeqError),
    /// Interval stage inconsistency.
    Interval(crate::interval::Inconsistency),
}

impl From<SeqError> for MultiplicityError {
    fn from(e: SeqError) -> Self {
        MultiplicityError::Seq(e)
    }
}

impl From<crate::interval::Inconsistency> for MultiplicityError {
    fn from(e: crate::interval::Inconsistency) -> Self {
        MultiplicityError::Interval(e)
    }
}

/// The distinct roots of `p` (scaled by `2^µ`, ascending) with their
/// multiplicities. The multiplicities sum to `deg p` when all roots are
/// real.
pub fn roots_with_multiplicity(
    p: &Poly,
    mu: u64,
    strategy: RefineStrategy,
) -> Result<Vec<(Int, usize)>, MultiplicityError> {
    let rs = remainder_sequence(p)?;
    let roots = if rs.squarefree() {
        solve_rounds(&rs, mu, root_bound_bits(p), strategy, None)?.0
    } else {
        // Run the tree on the squarefree part (same distinct roots).
        let p_star = rs.squarefree_input();
        let rs_star = remainder_sequence(&p_star)?;
        solve_rounds(&rs_star, mu, root_bound_bits(&p_star), strategy, None)?.0
    };
    let mut out: Vec<(Int, usize)> = roots.into_iter().map(|r| (r, 1)).collect();
    if let Some(g) = &rs.gcd {
        if g.degree().is_some_and(|d| d >= 1) {
            // Roots of the gcd are exactly the repeated roots of p, with
            // multiplicity one less; since they are the *same real
            // numbers*, their µ-approximations match exactly.
            for (r, m) in roots_with_multiplicity(g, mu, strategy)? {
                match out.binary_search_by(|(x, _)| x.cmp(&r)) {
                    Ok(i) => out[i].1 += m,
                    Err(_) => {
                        return Err(MultiplicityError::Interval(crate::interval::Inconsistency {
                            what: "gcd root not among the input's roots".into(),
                        }))
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(roots_mults: &[(i64, usize)], mu: u64) {
        let mut all: Vec<Int> = Vec::new();
        for &(r, m) in roots_mults {
            for _ in 0..m {
                all.push(Int::from(r));
            }
        }
        let p = Poly::from_roots(&all);
        let got = roots_with_multiplicity(&p, mu, RefineStrategy::Hybrid).unwrap();
        let mut expect: Vec<(Int, usize)> = roots_mults
            .iter()
            .map(|&(r, m)| (Int::from(r) << mu, m))
            .collect();
        expect.sort();
        assert_eq!(got, expect);
        let total: usize = got.iter().map(|&(_, m)| m).sum();
        assert_eq!(total, p.deg());
    }

    #[test]
    fn simple_roots_all_multiplicity_one() {
        check(&[(-5, 1), (0, 1), (3, 1)], 4);
    }

    #[test]
    fn double_and_triple_roots() {
        check(&[(1, 2), (4, 3)], 6);
        check(&[(-2, 2), (0, 1), (7, 4)], 4);
    }

    #[test]
    fn high_multiplicity() {
        check(&[(2, 5)], 8);
        check(&[(-1, 3), (1, 3)], 8);
    }

    #[test]
    fn irrational_repeated_roots() {
        // (x^2 - 2)^2 (x - 1): roots ±√2 (mult 2), 1 (mult 1)
        let q = Poly::from_i64(&[-2, 0, 1]);
        let p = &(&q * &q) * &Poly::from_i64(&[-1, 1]);
        let got = roots_with_multiplicity(&p, 16, RefineStrategy::Hybrid).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].1, 2);
        assert_eq!(got[1].1, 1);
        assert_eq!(got[2].1, 2);
        assert_eq!(got[1].0, Int::from(1) << 16);
        let s2 = std::f64::consts::SQRT_2;
        assert!((got[2].0.to_f64() / 65536.0 - s2).abs() < 1e-4);
    }
}
