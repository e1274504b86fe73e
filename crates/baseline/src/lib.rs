//! # rr-baseline — the sequential comparator (PARI stand-in)
//!
//! The paper's Figure 8 compares the parallel algorithm's one-processor
//! times against "a sequential root-finding algorithm in the PARI
//! multi-precision package". PARI circa 1991 is not available here, so
//! this crate implements the canonical sequential multiprecision real-root
//! method of that era — **Sturm-sequence isolation followed by
//! bisection refinement** — over the same `rr-mp` arithmetic, so that
//! operation counts and times are directly comparable:
//!
//! 1. take the squarefree part;
//! 2. isolate each distinct real root by bisecting `[−2^R, 2^R]`,
//!    counting roots in each half with exact Sturm sign variations at
//!    dyadic points (a whole chain of polynomial evaluations per probe —
//!    this is what makes Sturm isolation lose to the interleaving tree as
//!    the degree grows);
//! 3. refine each isolated root to the same ceiling `µ`-approximation
//!    `⌈2^µ·x⌉` the main algorithm produces (bitwise-identical output,
//!    asserted by tests).
//!
//! All arithmetic is recorded under [`Phase::Baseline`].
//!
//! The paper observes PARI is largely insensitive to the requested output
//! precision (it computes at its full working precision regardless);
//! [`BaselineConfig::fixed_internal_precision`] reproduces that trait for
//! the Figure 8 experiment.

#![warn(missing_docs)]

pub mod float;

use rr_mp::metrics::{with_phase, Phase};
use rr_mp::Int;
use rr_poly::bounds::root_bound_bits;
use rr_poly::gcd::squarefree_part;
use rr_poly::sturm::SturmChain;
use rr_poly::Poly;
use std::fmt;

/// Configuration of the baseline finder.
#[derive(Debug, Clone, Copy)]
pub struct BaselineConfig {
    /// Output precision: roots are `⌈2^µ·x⌉ / 2^µ`.
    pub mu: u64,
    /// Refine internally to this precision regardless of `mu` (then round
    /// to the `mu` grid) — mimics PARI's full-working-precision behaviour
    /// for the Figure 8 µ-insensitivity observation.
    pub fixed_internal_precision: Option<u64>,
}

impl BaselineConfig {
    /// Standard configuration at precision `mu`.
    pub fn new(mu: u64) -> BaselineConfig {
        BaselineConfig { mu, fixed_internal_precision: None }
    }
}

/// Error from the baseline finder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineError {
    /// Description.
    pub what: String,
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "baseline error: {}", self.what)
    }
}

impl std::error::Error for BaselineError {}

/// Finds all distinct real roots of `p` as scaled integers `⌈2^µ·x⌉`,
/// ascending — the same output contract as `rr-core`.
///
/// Unlike the main algorithm, complex roots are fine: only the real ones
/// are returned.
pub fn find_real_roots(p: &Poly, config: &BaselineConfig) -> Result<Vec<Int>, BaselineError> {
    if p.is_zero() {
        return Err(BaselineError { what: "zero polynomial".into() });
    }
    with_phase(Phase::Baseline, || {
        let sf = squarefree_part(p);
        if sf.deg() == 0 {
            return Ok(Vec::new());
        }
        let chain = SturmChain::new(&sf);
        let total = chain.count_distinct_real_roots();
        if total == 0 {
            return Ok(Vec::new());
        }
        let r = root_bound_bits(&sf);
        let work_mu = config.fixed_internal_precision.unwrap_or(config.mu).max(config.mu);

        // Isolation by bisection with Sturm counts. Intervals are
        // half-open (a, b] with endpoints as dyadic rationals num/2^prec.
        struct Interval {
            lo: Int,
            hi: Int,
            prec: u64,
            v_lo: usize,
            v_hi: usize,
        }
        let mut roots: Vec<Int> = Vec::with_capacity(total);
        let lo0 = -Int::pow2(r);
        let hi0 = Int::pow2(r);
        let mut stack = vec![Interval {
            v_lo: chain.variations_at_dyadic(&lo0, 0),
            v_hi: chain.variations_at_dyadic(&hi0, 0),
            lo: lo0,
            hi: hi0,
            prec: 0,
        }];
        while let Some(iv) = stack.pop() {
            let count = iv.v_lo - iv.v_hi;
            if count == 0 {
                continue;
            }
            if count == 1 {
                roots.push(refine(&sf, &iv.lo, &iv.hi, iv.prec, work_mu, config.mu)?);
                continue;
            }
            // Split at the midpoint, one bit deeper.
            let lo = &iv.lo << 1;
            let hi = &iv.hi << 1;
            let prec = iv.prec + 1;
            let mid = (&lo + &hi).shr_floor(1);
            let v_mid = chain.variations_at_dyadic(&mid, prec);
            // Process left first so the output comes out ascending: push
            // right, then left (stack pops last-in first).
            stack.push(Interval {
                lo: mid.clone(),
                hi: hi.clone(),
                prec,
                v_lo: v_mid,
                v_hi: iv.v_hi,
            });
            stack.push(Interval { lo, hi: mid, prec, v_lo: iv.v_lo, v_hi: v_mid });
        }
        if roots.len() != total {
            return Err(BaselineError {
                what: format!("isolated {} of {} roots", roots.len(), total),
            });
        }
        Ok(roots)
    })
}

/// Refines the single root in `(lo, hi] / 2^prec` to the ceiling
/// `µ`-approximation, bisecting with plain sign tests of `sf` (one
/// evaluation per step, no more Sturm chains).
fn refine(
    sf: &Poly,
    lo: &Int,
    hi: &Int,
    prec0: u64,
    work_mu: u64,
    mu: u64,
) -> Result<Int, BaselineError> {
    // Bring the interval to at least the working precision grid.
    let (mut lo, mut hi, prec) = if prec0 < work_mu {
        (lo << (work_mu - prec0), hi << (work_mu - prec0), work_mu)
    } else {
        (lo.clone(), hi.clone(), prec0)
    };
    let sp = rr_poly::eval::ScaledPoly::new(sf, prec);
    let mut s_lo = sp.sign_at(&lo);
    if s_lo == 0 {
        // `lo` is itself a (dyadic) root of sf — but not the one isolated
        // in the half-open (lo, hi]. The sign just right of a simple root
        // is the sign of the derivative there.
        let spd = rr_poly::eval::ScaledPoly::new(&sf.derivative(), prec);
        s_lo = spd.sign_at(&lo);
        if s_lo == 0 {
            return Err(BaselineError { what: "repeated root after squarefree part".into() });
        }
    }
    loop {
        if (&hi - &lo) <= Int::one() {
            // ξ ∈ (lo, hi] with hi − lo = 1 at prec ≥ µ: the µ-ceiling of
            // everything in the interval is ⌈hi / 2^{prec−µ}⌉.
            return Ok(hi.shr_ceil(prec - mu));
        }
        let mid = (&lo + &hi).shr_floor(1);
        let s = sp.sign_at(&mid);
        if s == 0 {
            return Ok(mid.shr_ceil(prec - mu));
        }
        if s == s_lo {
            lo = mid;
        } else {
            hi = mid;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(v: &[i64]) -> Vec<Int> {
        v.iter().map(|&x| Int::from(x)).collect()
    }

    #[test]
    fn integer_roots_exact() {
        let p = Poly::from_roots(&ints(&[-5, 1, 2, 8]));
        for mu in [0u64, 4, 12] {
            let got = find_real_roots(&p, &BaselineConfig::new(mu)).unwrap();
            let expect: Vec<Int> = [-5i64, 1, 2, 8].iter().map(|&r| Int::from(r) << mu).collect();
            assert_eq!(got, expect, "mu={mu}");
        }
    }

    #[test]
    fn mixed_complex_real() {
        // (x^2+1)(x-3)(x+2): only the real roots come back.
        let p = &Poly::from_i64(&[1, 0, 1]) * &Poly::from_roots(&ints(&[-2, 3]));
        let got = find_real_roots(&p, &BaselineConfig::new(8)).unwrap();
        assert_eq!(got, vec![Int::from(-2) << 8, Int::from(3) << 8]);
    }

    #[test]
    fn no_real_roots() {
        let p = Poly::from_i64(&[1, 0, 1]);
        assert_eq!(find_real_roots(&p, &BaselineConfig::new(8)).unwrap(), Vec::<Int>::new());
    }

    #[test]
    fn repeated_roots_counted_once() {
        let p = Poly::from_roots(&ints(&[2, 2, 2, -1, -1]));
        let got = find_real_roots(&p, &BaselineConfig::new(5)).unwrap();
        assert_eq!(got, vec![Int::from(-1) << 5, Int::from(2) << 5]);
    }

    #[test]
    fn irrational_roots_ceiling() {
        let p = Poly::from_i64(&[-2, 0, 1]); // ±√2
        let mu = 16;
        let got = find_real_roots(&p, &BaselineConfig::new(mu)).unwrap();
        let s2 = std::f64::consts::SQRT_2;
        let ulp = (mu as f64).exp2().recip();
        let lo = got[0].to_f64() * ulp;
        let hi = got[1].to_f64() * ulp;
        assert!(lo >= -s2 && lo < -s2 + ulp);
        assert!(hi >= s2 && hi < s2 + ulp);
    }

    #[test]
    fn close_roots_separated() {
        // (100x - 99)(100x - 101)(x + 3): roots 0.99 and 1.01 and -3.
        let p = &(&Poly::from_i64(&[-99, 100]) * &Poly::from_i64(&[-101, 100]))
            * &Poly::from_i64(&[3, 1]);
        let mu = 12;
        let got = find_real_roots(&p, &BaselineConfig::new(mu)).unwrap();
        assert_eq!(got.len(), 3);
        let expect0 = (Int::from(-3) << mu).clone();
        let expect1 = (Int::from(99) << mu).div_ceil(&Int::from(100));
        let expect2 = (Int::from(101) << mu).div_ceil(&Int::from(100));
        assert_eq!(got, vec![expect0, expect1, expect2]);
    }

    #[test]
    fn fixed_internal_precision_same_answer() {
        let p = Poly::from_i64(&[-3, 0, 0, 0, 0, 1]); // x^5 - 3
        let mu = 10;
        let a = find_real_roots(&p, &BaselineConfig::new(mu)).unwrap();
        let b = find_real_roots(
            &p,
            &BaselineConfig { mu, fixed_internal_precision: Some(100) },
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cost_attributed_to_baseline_phase() {
        let p = Poly::from_roots(&ints(&[1, 2, 3, 4, 5]));
        let ctx = rr_mp::SolveCtx::new(rr_mp::Profile::Paper);
        let _ = ctx.run(|| find_real_roots(&p, &BaselineConfig::new(8))).unwrap();
        let d = ctx.snapshot();
        assert!(d.phase(Phase::Baseline).mul_count > 0);
        assert_eq!(d.phase(Phase::TreePoly).mul_count, 0);
    }
}
