//! Exact predicted multiplication counts for the remainder and tree
//! stages.
//!
//! These mirror the implemented kernels operation for operation under a
//! *dense* coefficient model (every polynomial of degree `d` has `d+1`
//! nonzero coefficients and no leading-term cancellation in sums). For
//! the remainder stage the prediction is exact; for the tree stage it is
//! exact up to coefficients that happen to vanish (e.g. for inputs with
//! symmetric root sets) — the paper's Figures 2–5 show the same
//! character: predictions track observations tightly, from above.

use rr_core::tree::{is_spine, Tree};

/// Predicted multiplications of the (sequential or parallel — identical
/// kernels) remainder stage for a squarefree degree-`n` input:
///
/// * `n` for the derivative `F_1 = F_0'`;
/// * per iteration `i = 1 … n−1` with `d = n − i`: 3 for the quotient
///   coefficients, 1 for `c_i²`, `3d − 1` for the output coefficients,
///   plus 1 for the denominator `c_{i−1}²` when `i ≥ 2`.
pub fn remainder_mults(n: usize) -> u64 {
    if n == 0 {
        return 0;
    }
    let n64 = n as u64;
    let mut total = n64; // derivative
    for i in 1..n64 {
        let d = n64 - i;
        total += 3 + 1 + (3 * d - 1) + u64::from(i >= 2);
    }
    total
}

/// Number of nonzero coefficients of each entry of the `T` matrix of a
/// node of size `s = j − i + 1` under the dense model:
/// `[[s−1 (0 if s = 1), s], [s, s+1]]`.
fn t_entry_counts(s: usize) -> [[u64; 2]; 2] {
    let s = s as u64;
    [[if s == 1 { 0 } else { s - 1 }, s], [s, s + 1]]
}

/// Entry counts for the `c_k²·I` stand-in for a missing right child.
fn missing_counts() -> [[u64; 2]; 2] {
    [[1, 0], [0, 1]]
}

/// Entry counts for `Ŝ_k = [[0, c²], [−c², Q]]`.
fn s_hat_counts() -> [[u64; 2]; 2] {
    [[0, 1], [1, 2]]
}

/// Dense-model multiplications of one 2×2 polynomial matrix product,
/// given the per-entry nonzero-coefficient counts of the operands
/// (a zero polynomial costs nothing; otherwise `cnt(a)·cnt(b)`).
fn matmul_mults(a: [[u64; 2]; 2], b: [[u64; 2]; 2]) -> u64 {
    let mut total = 0;
    for row in &a {
        for (b0, b1) in b[0].iter().zip(&b[1]) {
            total += row[0] * b0 + row[1] * b1;
        }
    }
    total
}

/// Entry counts of a product (dense degree arithmetic, no cancellation).
fn matmul_counts(a: [[u64; 2]; 2], b: [[u64; 2]; 2]) -> [[u64; 2]; 2] {
    let mut out = [[0u64; 2]; 2];
    for r in 0..2 {
        for c in 0..2 {
            // deg(sum of products) + 1 = max over nonzero products of
            // (cnt_a + cnt_b − 1)
            let mut cnt = 0u64;
            for (x, y) in [(a[r][0], b[0][c]), (a[r][1], b[1][c])] {
                if x > 0 && y > 0 {
                    cnt = cnt.max(x + y - 1);
                }
            }
            out[r][c] = cnt;
        }
    }
    out
}

/// Predicted multiplications of the tree-polynomial stage (COMPUTEPOLY)
/// for a squarefree degree-`n` input: a walk over the same tree the
/// solver builds, counting
///
/// * 2 per non-spine node for `Ŝ_k`'s squares (`c_{k−1}²`, `c_k²`) — and
///   for leaves, whose matrix *is* `Ŝ_i`;
/// * 1 per missing right child (its `c_k²·I` stand-in);
/// * the two matrix products `M1 = T_R·Ŝ_k`, `T = M1·T_L` under the
///   dense model.
pub fn tree_mults(n: usize) -> u64 {
    let tree = Tree::build(n);
    let mut total = 0u64;
    for node in &tree.nodes {
        let spine = is_spine(node, n);
        if node.is_leaf() {
            if !spine {
                total += 2; // Ŝ_i squares
            }
            continue;
        }
        if spine {
            continue; // P_{i,n} = F_{i−1}: no matrix work on the spine
        }
        total += 2; // Ŝ_k squares
        total += 3; // combine divisor c_k²·c_{k−1}² (two squares, one product)
        let left = tree.node(node.left.expect("internal"));
        let t_l = t_entry_counts(left.size());
        let t_r = match node.right {
            Some(r) => t_entry_counts(tree.node(r).size()),
            None => {
                total += 1; // c_k² of the stand-in
                missing_counts()
            }
        };
        let m1_cost = matmul_mults(t_r, s_hat_counts());
        let m1 = matmul_counts(t_r, s_hat_counts());
        let t_cost = matmul_mults(m1, t_l);
        total += m1_cost + t_cost;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_core::{RootApproximator, SolverConfig};
    use rr_mp::metrics::Phase;
    use rr_mp::{Int, Profile, SolveCtx};
    use rr_poly::Poly;

    /// Remainder-stage prediction is *exact* for dense inputs.
    #[test]
    fn remainder_prediction_exact() {
        for n in [2usize, 3, 5, 8, 13] {
            // roots chosen so no intermediate coefficient vanishes
            let roots: Vec<Int> = (0..n as i64).map(|r| Int::from(3 * r + 1)).collect();
            let p = Poly::from_roots(&roots);
            let ctx = SolveCtx::new(Profile::Paper);
            let _ = ctx.run(|| rr_poly::remainder::remainder_sequence(&p)).unwrap();
            let d = ctx.snapshot();
            // the sequential path runs un-phased here: count all phases
            assert_eq!(d.total().mul_count, remainder_mults(n), "n={n}");
        }
    }

    /// Tree-stage prediction matches the observed count tightly (equal
    /// for generic inputs; an upper bound when coefficients vanish).
    #[test]
    fn tree_prediction_tight() {
        for n in [3usize, 5, 8, 12, 17] {
            let roots: Vec<Int> = (0..n as i64).map(|r| Int::from(5 * r - 7)).collect();
            let p = Poly::from_roots(&roots);
            let r = RootApproximator::new(SolverConfig::sequential(8))
                .approximate_roots(&p)
                .unwrap();
            // the solve owns its metrics: stats.cost is the exact count
            let observed = r.stats.cost.phase(Phase::TreePoly).mul_count;
            let predicted = tree_mults(n);
            assert!(observed <= predicted, "n={n}: {observed} > {predicted}");
            assert!(
                observed as f64 >= 0.8 * predicted as f64,
                "n={n}: {observed} ≪ {predicted}"
            );
        }
    }

    #[test]
    fn remainder_formula_small_cases() {
        // n=2: derivative (2) + iteration 1 (d=1): 3+1+2 = 6 → total 8
        assert_eq!(remainder_mults(2), 8);
        assert_eq!(remainder_mults(0), 0);
        assert_eq!(remainder_mults(1), 1); // derivative only
        // n=3 adds iteration 2 (d=1): 3+1+2+1(denominator) = 7 → 19
        assert_eq!(remainder_mults(3), 19);
    }

    #[test]
    fn tree_counts_zero_for_tiny_trees() {
        // n=1: single spine leaf → no matrix work at all.
        assert_eq!(tree_mults(1), 0);
        // n=2: leaf [1,1] (Ŝ_1: 2 squares) + spine root: 2.
        assert_eq!(tree_mults(2), 2);
    }

    #[test]
    fn counts_grow_quadratically() {
        // arithmetic complexity is O(n²): ratio n=40 / n=20 ≈ 4.
        let r = tree_mults(40) as f64 / tree_mults(20) as f64;
        assert!((3.0..5.5).contains(&r), "{r}");
        let r = remainder_mults(40) as f64 / remainder_mults(20) as f64;
        assert!((3.5..4.5).contains(&r), "{r}");
    }
}
