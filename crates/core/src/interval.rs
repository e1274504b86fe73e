//! The interval problems (paper Section 2.2): from the `µ`-approximated
//! roots of a node's interleaving children to the `µ`-approximations of
//! the node's own roots, via O(1) exact sign tests per gap plus one
//! isolated-root refinement where needed.
//!
//! With `ỹ_0 = −2^R` and `ỹ_d = 2^R` the enclosing bounds and
//! `ỹ_1 ≤ … ≤ ỹ_{d−1}` the sorted child approximations (ceilings of the
//! true interleaving points `y_t`), each gap `(y_t, y_{t+1})` holds
//! exactly one root `x_t` of the node polynomial `P` (degree `d`,
//! distinct real roots). The case analysis, all in scaled integers:
//!
//! * **Case 1** `ỹ_t = ỹ_{t+1}` — then `x̃_t = ỹ_t`.
//! * **Case 2** otherwise, count `r` = roots of `P` below `ỹ_t` with one
//!   sign parity test (`sign P(−∞)·(−1)^r = sign P(ỹ_t)`):
//!   * **2a** `r = t+1`: `x_t` already passed — `x̃_t = ỹ_t`;
//!   * **2b** `r = t` and no sign change on `(ỹ_t, ỹ_{t+1} − 2^{−µ}]`:
//!     `x_t` lies in the final ulp — `x̃_t = ỹ_{t+1}`;
//!   * **2c** `r = t` and a sign change: `(ỹ_t, ỹ_{t+1} − 2^{−µ})` truly
//!     isolates `x_t` — refine with [`crate::refine::isolate_root`].
//!
//! Exact-zero evaluations (a probe landing on a root) are resolved
//! immediately — the probed grid point *is* the `µ`-approximation.

use crate::refine::{isolate_root, RefineStrategy};
use rr_mp::metrics::{with_phase, Phase};
use rr_mp::Int;
use rr_poly::eval::ScaledPoly;
use rr_poly::Poly;
use std::fmt;

/// Inconsistency detected while solving interval problems — the input
/// polynomial cannot have had all roots real (or internal invariants
/// were violated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inconsistency {
    /// Human-readable description of the violated invariant.
    pub what: String,
}

impl fmt::Display for Inconsistency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interval stage inconsistency: {}", self.what)
    }
}

impl std::error::Error for Inconsistency {}

/// Shared per-node context for solving that node's interval problems.
pub struct NodeIntervals {
    /// The node polynomial, pre-scaled for precision-µ evaluation.
    pub sp: ScaledPoly,
    /// Its derivative, pre-scaled (for the Newton phase).
    pub spd: ScaledPoly,
    /// Sign of `P(−∞)`.
    pub sign_neg_inf: i32,
    /// Refinement strategy.
    pub strategy: RefineStrategy,
}

impl NodeIntervals {
    /// Prepares the scaled polynomials for node polynomial `p` (degree
    /// ≥ 1) at precision `mu`.
    pub fn new(p: &Poly, mu: u64, strategy: RefineStrategy) -> NodeIntervals {
        NodeIntervals {
            sp: ScaledPoly::new(p, mu),
            spd: ScaledPoly::new(&p.derivative(), mu),
            sign_neg_inf: p.sign_at_neg_inf(),
            strategy,
        }
    }

    /// One PREINTERVAL task: the sign of `P` at the scaled point `y`.
    pub fn preinterval_sign(&self, y: &Int) -> i32 {
        with_phase(Phase::PreInterval, || self.sp.sign_at(y))
    }

    /// One INTERVAL task: the `µ`-approximation of the node root in gap
    /// `t`, between scaled points `lo = ỹ_t` (sign `s_lo` precomputed by
    /// PREINTERVAL) and `hi = ỹ_{t+1}`.
    pub fn solve_gap(
        &self,
        t: usize,
        lo: &Int,
        s_lo: i32,
        hi: &Int,
    ) -> Result<Int, Inconsistency> {
        if lo == hi {
            return Ok(lo.clone()); // case 1
        }
        debug_assert!(lo < hi);
        if s_lo == 0 {
            // ỹ_t is itself a root of P — but which one? The only roots
            // that can land on ỹ_t ∈ [y_t, y_t + ulp) are x_{t−1} (when
            // x_{t−1} = y_t = ỹ_t) and x_t. Roots are simple, so the sign
            // of P just right of ỹ_t is sign P′(ỹ_t) ≠ 0, and the parity
            // rule applied to "roots ≤ ỹ_t ∈ {t, t+1}" disambiguates.
            let s_right = with_phase(Phase::Sieve, || self.spd.sign_at(lo));
            if s_right == 0 {
                return Err(Inconsistency {
                    what: "repeated root of a tree polynomial at a grid point".into(),
                });
            }
            let expected_if_xt =
                if (t + 1) % 2 == 0 { self.sign_neg_inf } else { -self.sign_neg_inf };
            if s_right == expected_if_xt {
                // t+1 roots ≤ ỹ_t: the root at ỹ_t is x_t.
                return Ok(lo.clone());
            }
            // The root at ỹ_t is x_{t−1}; x_t lies strictly above.
            return self.locate_above(lo, s_right, hi);
        }
        // Parity count of roots below lo: r ∈ {t, t+1}.
        let expected_even = if t % 2 == 0 { self.sign_neg_inf } else { -self.sign_neg_inf };
        if s_lo != expected_even {
            // r = t + 1: x_t < ỹ_t already — case 2a.
            if t == 0 {
                return Err(Inconsistency {
                    what: "root below the lower root bound".into(),
                });
            }
            return Ok(lo.clone());
        }
        // r = t: x_t > ỹ_t.
        self.locate_above(lo, s_lo, hi)
    }

    /// Knowing `x_t ∈ (lo, hi]` with `s_eff` the sign of `P` just right
    /// of `lo`, distinguish cases 2b/2c on `(lo, hi − 1]` and refine.
    fn locate_above(&self, lo: &Int, s_eff: i32, hi: &Int) -> Result<Int, Inconsistency> {
        let b = hi - Int::one();
        let s_b = if b == *lo {
            s_eff
        } else {
            with_phase(Phase::Sieve, || self.sp.sign_at(&b))
        };
        if s_b == 0 {
            // root exactly at the grid point hi − 1: it must be x_t
            // (x_{t+1} ≥ y_{t+1} > ỹ_{t+1} − ulp = b).
            return Ok(b);
        }
        if s_b == s_eff {
            // no root in (lo, hi−1] — x_t hides in the final ulp: case 2b.
            return Ok(hi.clone());
        }
        // Case 2c: (lo, b) truly isolates x_t.
        Ok(isolate_root(&self.sp, &self.spd, lo, s_eff, &b, self.strategy))
    }
}

/// A node's interval stage once the degenerate cases are settled.
pub(crate) enum NodePrep {
    /// Nothing left to solve: these are the node's roots.
    Done(Vec<Int>),
    /// `d` interval problems over the `d + 1` sorted points
    /// `ỹ_0 = −2^R, ỹ_1, …, ỹ_{d−1}, ỹ_d = 2^R` (scaled by `2^µ`).
    Gaps(NodeIntervals, Vec<Int>),
}

/// Sets up a node's interval problems, settling the degenerate cases
/// on the way (arguments and cases as for [`solve_node_intervals`]).
pub(crate) fn prepare_node(
    poly: &Poly,
    merged: Vec<Int>,
    mu: u64,
    bound_bits: u64,
    strategy: RefineStrategy,
) -> Result<NodePrep, Inconsistency> {
    let Some(d) = poly.degree() else {
        return Err(Inconsistency { what: "zero node polynomial".into() });
    };
    if d == 0 {
        if merged.is_empty() {
            return Ok(NodePrep::Done(Vec::new()));
        }
        return Err(Inconsistency {
            what: "constant node polynomial with child roots".into(),
        });
    }
    if merged.len() == d {
        // Theorem 2 degenerate split: P_{i,k−1} = P_{i,j}; the parent's
        // roots are exactly the child's.
        return Ok(NodePrep::Done(merged));
    }
    if merged.len() + 1 != d {
        return Err(Inconsistency {
            what: format!("degree {d} with {} interleaving points", merged.len()),
        });
    }
    let mut points = Vec::with_capacity(d + 1);
    points.push(-Int::pow2(bound_bits + mu));
    points.extend(merged);
    points.push(Int::pow2(bound_bits + mu));
    Ok(NodePrep::Gaps(NodeIntervals::new(poly, mu, strategy), points))
}

/// Solves all of a node's interval problems sequentially (the dynamic
/// task graph schedules [`NodeIntervals::preinterval_sign`] and
/// [`NodeIntervals::solve_gap`] as individual tasks instead).
///
/// * `poly` — the node polynomial.
/// * `merged` — the sorted scaled approximations of the children's roots.
/// * `mu` — output precision; `bound_bits` — `R` with all roots in
///   `(−2^R, 2^R)`.
///
/// Handles the degenerate repeated-root cases of Theorem 2: a constant
/// polynomial contributes no roots, and when `merged` already has
/// `deg P` entries the node's roots *are* the child roots.
pub fn solve_node_intervals(
    poly: &Poly,
    merged: Vec<Int>,
    mu: u64,
    bound_bits: u64,
    strategy: RefineStrategy,
) -> Result<Vec<Int>, Inconsistency> {
    let (ctx, points) = match prepare_node(poly, merged, mu, bound_bits, strategy)? {
        NodePrep::Done(roots) => return Ok(roots),
        NodePrep::Gaps(ctx, points) => (ctx, points),
    };
    let signs: Vec<i32> = points.iter().map(|y| ctx.preinterval_sign(y)).collect();
    (0..points.len() - 1)
        .map(|t| ctx.solve_gap(t, &points[t], signs[t], &points[t + 1]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scaled(v: i64, mu: u64) -> Int {
        Int::from(v) << mu
    }

    #[test]
    fn exact_integer_roots_from_exact_interleaving() {
        // P = (x-2)(x-4)(x-6), interleaving points 3 and 5 exact.
        let p = Poly::from_roots(&[Int::from(2), Int::from(4), Int::from(6)]);
        let mu = 8;
        let merged = vec![scaled(3, mu), scaled(5, mu)];
        let roots = solve_node_intervals(&p, merged, mu, 4, RefineStrategy::Hybrid).unwrap();
        assert_eq!(roots, vec![scaled(2, mu), scaled(4, mu), scaled(6, mu)]);
    }

    #[test]
    fn interleaving_points_equal_to_roots() {
        // Interleaving points may coincide with the node's own roots
        // boundary cases: use y values equal to roots of P' — but also
        // test the s_lo == 0 path by passing a root of P itself as a point.
        let p = Poly::from_roots(&[Int::from(1), Int::from(3)]);
        let mu = 4;
        // point = 3? No: with d=2 we need 1 interior point in (1, 3)...
        // pass y = root 3's neighbor: y = 3 would violate interleaving
        // (y must be within [x_0, x_1]); y exactly at x_1 = 3 is legal
        // (non-strict interleaving). Gap 0 = (-B, 3]: root 1; gap 1 =
        // (3, B]: root 3 — via the s_lo == 0 path x̃_1 = 3.
        let merged = vec![scaled(3, mu)];
        let roots = solve_node_intervals(&p, merged, mu, 3, RefineStrategy::Hybrid).unwrap();
        assert_eq!(roots, vec![scaled(1, mu), scaled(3, mu)]);
    }

    #[test]
    fn irrational_roots_ceiling_semantics() {
        // P = x^2 - 2: roots ±√2, interleaving point 0 (root of P').
        let p = Poly::from_i64(&[-2, 0, 1]);
        let mu = 10;
        let merged = vec![scaled(0, mu)];
        let roots = solve_node_intervals(&p, merged, mu, 2, RefineStrategy::Hybrid).unwrap();
        let lo = roots[0].to_f64() / (mu as f64).exp2();
        let hi = roots[1].to_f64() / (mu as f64).exp2();
        let ulp = 1.0 / (mu as f64).exp2();
        // ceiling approximations: x <= x̃ < x + ulp
        assert!((-std::f64::consts::SQRT_2..-std::f64::consts::SQRT_2 + ulp).contains(&lo));
        assert!((std::f64::consts::SQRT_2..std::f64::consts::SQRT_2 + ulp).contains(&hi));
    }

    #[test]
    fn case1_tied_approximations() {
        // Roots 1/4 and 1/2 at µ=1: both child points round to the same
        // grid... craft: P with roots 0.3 and 0.4 — use (10x-3)(10x-4);
        // interleaving point 0.35 → ceil(0.7)/2 = 1/2 at µ=1. Also make
        // two equal child points via duplicated y values to hit case 1.
        let p = Poly::from_i64(&[12, -70, 100]);
        let mu = 1;
        // true interleaving y ∈ [0.3, 0.4]: take y = 0.35 → scaled ceil = 1
        let merged = vec![Int::from(1)];
        let roots = solve_node_intervals(&p, merged, mu, 2, RefineStrategy::Hybrid).unwrap();
        // both roots ceil to 1/2 at µ=1
        assert_eq!(roots, vec![Int::from(1), Int::from(1)]);
    }

    #[test]
    fn case2a_root_just_below_point() {
        // Case 2a fires when the gap's lower point ỹ_t = ⌈y_t⌉ already
        // passed the root: x_t < ỹ_t with x_t ∈ [y_t, ·] and
        // y_t > ỹ_t − ulp forces x_t ∈ (ỹ_t − ulp, ỹ_t), so x̃_t = ỹ_t.
        //
        // P = (x−1)(x²−5) = x³ − x² − 5x + 5, roots −√5, 1, √5; µ = 2.
        // Interleaving points y_1 = 0 ∈ [−√5, 1] and y_2 = 2.23 ∈ [1, √5]
        // (ceil: Ỹ_2 = ⌈8.92⌉ = 9, i.e. ỹ_2 = 2.25 > √5 ≈ 2.236 — the 2a
        // setup for gap 2). Hand-checked: gap 0 isolates −√5 → ⌈−8.94⌉ =
        // −8; gap 1 isolates 1 → 4; gap 2 takes case 2a → 9 = ⌈4√5⌉ ✓.
        let p = Poly::from_i64(&[5, -5, -1, 1]);
        let mu = 2;
        let merged = vec![Int::from(0), Int::from(9)];
        let roots = solve_node_intervals(&p, merged, mu, 3, RefineStrategy::Hybrid).unwrap();
        assert_eq!(roots, vec![Int::from(-8), Int::from(4), Int::from(9)]);
    }

    #[test]
    fn copy_case_for_repeated_roots() {
        let p = Poly::from_roots(&[Int::from(1), Int::from(2)]);
        let merged = vec![scaled(1, 4), scaled(2, 4)];
        let roots = solve_node_intervals(&p, merged.clone(), 4, 3, RefineStrategy::Hybrid).unwrap();
        assert_eq!(roots, merged);
    }

    #[test]
    fn constant_poly_no_roots() {
        let p = Poly::from_i64(&[7]);
        assert_eq!(
            solve_node_intervals(&p, Vec::new(), 4, 3, RefineStrategy::Hybrid).unwrap(),
            Vec::<Int>::new()
        );
    }

    #[test]
    fn count_mismatch_is_inconsistency() {
        let p = Poly::from_roots(&[Int::from(1), Int::from(2), Int::from(3)]);
        let r = solve_node_intervals(&p, Vec::new(), 4, 3, RefineStrategy::Hybrid);
        assert!(r.is_err());
    }

    #[test]
    fn complex_rooted_poly_detected_or_garbage_bounded() {
        // x^2 + 1 with a fabricated interleaving point: the sign parity
        // at the lower bound cannot be consistent for all gaps; the solver
        // must return an error rather than loop.
        let p = Poly::from_i64(&[1, 0, 1]);
        let r = solve_node_intervals(&p, vec![scaled(0, 4)], 4, 2, RefineStrategy::Hybrid);
        // Gap 0 at t=0: parity says r=0 (sign at -B is +, sign_neg_inf +,
        // t even: matches → r = 0 → looks for a sign change that never
        // comes: s_b == s_lo → case 2b → returns ỹ_1 = 0. Gap 1: s_lo at
        // 0 is + but expected −(+) for odd t → r = t+1 = 2 → case 2a
        // returns 0. No crash, bounded garbage — acceptable for invalid
        // input, but the pipeline catches such inputs earlier via the
        // remainder-sequence Sturm validation.
        let roots = r.unwrap();
        assert_eq!(roots.len(), 2);
    }
}
