//! The tree stage as level rounds: one node job per tree node, the
//! levels run deepest first.
//!
//! A node's job reads its children's outputs from their slots, moving
//! them out, and runs either the leaf case or COMPUTEPOLY + SORT + the
//! node's interval problems ([`solve_node_intervals`]). Every job of a
//! level depends only on jobs of deeper levels, so the same rounds serve
//! two schedules:
//!
//! * **inline** — the sequential reference, on the calling thread;
//! * **dealt** — the static-scheduling ablation of the paper's footnote
//!   3: each round's jobs are pre-assigned round-robin to the workers of
//!   [`run_rounds`], with a barrier between rounds. No work stealing and
//!   no rebalancing — a level whose nodes have very different costs (they
//!   do: polynomial sizes vary across a level, and interval problems vary
//!   with root geometry) leaves workers idle at the barrier, which is
//!   exactly why the paper moved to dynamic scheduling.
//!
//! The dynamic task graph of Sec 3.2 ([`crate::par_solver`]) splits the
//! same steps into finer tasks and shares the helpers below.

use crate::interval::{solve_node_intervals, Inconsistency};
use crate::refine::RefineStrategy;
use crate::solver::{checkpoint, SolveError, Supervision};
use crate::tree::{is_spine, Tree};
use crate::treepoly;
use parking_lot::Mutex;
use rr_linalg::Mat2;
use rr_mp::metrics::{with_phase, Phase};
use rr_mp::{Int, SolveCtx};
use rr_poly::remainder::RemainderSeq;
use rr_poly::Poly;
use rr_sched::static_sched::{run_rounds, StaticStats, StaticTask};

/// Computes the `µ`-approximation of the root of a linear polynomial
/// `a·x + b`: `⌈2^µ·(−b/a)⌉`.
pub fn linear_root(p: &Poly, mu: u64) -> Int {
    debug_assert_eq!(p.deg(), 1);
    with_phase(Phase::Newton, || {
        let neg_b = -p.coeff(0);
        (neg_b << mu).div_ceil(&p.coeff(1))
    })
}

/// Merges two sorted scaled-root lists (the SORT task).
pub fn merge_roots(mut a: Vec<Int>, b: Vec<Int>) -> Vec<Int> {
    with_phase(Phase::Sort, || {
        // Two sorted runs: the stable sort merges them in linear time.
        a.extend(b);
        a.sort();
        a
    })
}

/// The polynomial of a *leaf* node: `Q_i` for `[i,i]` with `i < n`,
/// `F_{n−1}` for the spine leaf `[n,n]`.
pub fn leaf_poly(rs: &RemainderSeq, i: usize) -> &Poly {
    if i == rs.n {
        treepoly::spine_poly(rs, i)
    } else {
        &rs.q[i]
    }
}

/// Roots of a leaf node: the single root of a linear polynomial, or none
/// when the extended sequence made it constant.
pub fn leaf_roots(rs: &RemainderSeq, i: usize, mu: u64) -> Vec<Int> {
    let p = leaf_poly(rs, i);
    match p.degree() {
        Some(1) => vec![linear_root(p, mu)],
        _ => Vec::new(),
    }
}

/// COMPUTEPOLY of a non-spine internal node split at `k`, as one step:
/// `T = T_R·Ŝ_k·T_L / (c_k²c_{k−1}²)`, with `c_k²·I` standing in for an
/// absent right child.
pub(crate) fn combine(rs: &RemainderSeq, k: usize, left: &Mat2, right: Option<&Mat2>) -> Mat2 {
    with_phase(Phase::TreePoly, || {
        let missing;
        let right = match right {
            Some(t) => t,
            None => {
                missing = treepoly::missing_right_tmat(rs, k);
                &missing
            }
        };
        let (s_hat, divisor) = (treepoly::s_hat(rs, k), treepoly::combine_divisor(rs, k));
        treepoly::combine_tmat(left, right, &s_hat, &divisor)
    })
}

/// What a finished node job leaves for its parent: its matrix (none on
/// the spine, whose polynomials come from the remainder sequence) and
/// its sorted roots.
struct NodeOut {
    tmat: Option<Mat2>,
    roots: Vec<Int>,
}

/// The tree stage's inputs, shared by every node job.
struct Rounds<'a> {
    rs: &'a RemainderSeq,
    tree: Tree,
    mu: u64,
    bound_bits: u64,
    strategy: RefineStrategy,
    slots: Vec<Mutex<Option<NodeOut>>>,
}

impl Rounds<'_> {
    /// The node job of `idx`. Its children's jobs ran in earlier rounds.
    fn node_job(&self, idx: usize, sup: Option<&Supervision>) -> Result<(), SolveError> {
        checkpoint(sup)?;
        let (rs, mu) = (self.rs, self.mu);
        let node = self.tree.node(idx);
        let spine = is_spine(node, self.tree.n);
        let out = if node.is_leaf() {
            // The spine leaf [n,n] reads F_{n−1}: no matrix exists or is needed.
            let tmat =
                (!spine).then(|| with_phase(Phase::TreePoly, || treepoly::leaf_tmat(rs, node.i)));
            NodeOut { tmat, roots: leaf_roots(rs, node.i, mu) }
        } else {
            let k = node.k.expect("internal node has a split");
            let take = |c: usize| self.slots[c].lock().take().expect("child job ran first");
            let left = take(node.left.expect("internal node has a left child"));
            let right = node.right.map(take);
            let (right_t, right_roots) = match right {
                Some(r) => (r.tmat, r.roots),
                None => (None, Vec::new()),
            };
            // COMPUTEPOLY: only non-spine nodes multiply matrices; the
            // spine reads F_{i−1} from the remainder sequence.
            let tmat = (!spine).then(|| {
                let left_t = left.tmat.as_ref().expect("non-spine left child has a matrix");
                combine(rs, k, left_t, right_t.as_ref())
            });
            let poly = match &tmat {
                Some(t) => treepoly::tmat_poly(t),
                None => treepoly::spine_poly(rs, node.i),
            };
            // SORT + PREINTERVAL + INTERVAL.
            let merged = merge_roots(left.roots, right_roots);
            let roots = solve_node_intervals(poly, merged, mu, self.bound_bits, self.strategy)?;
            NodeOut { tmat, roots }
        };
        *self.slots[idx].lock() = Some(out);
        Ok(())
    }
}

/// Runs the tree stage as level rounds and returns the sorted scaled
/// roots (`⌈2^µ·x⌉` for each root `x`) — inline when `threads` is `None`,
/// else dealt to `threads` workers, with the round statistics.
///
/// `bound_bits` must satisfy: all roots of `F_0` lie in
/// `(−2^bound_bits, 2^bound_bits)` (children interleave parents, so the
/// bound covers every tree polynomial).
pub fn solve_rounds(
    rs: &RemainderSeq,
    mu: u64,
    bound_bits: u64,
    strategy: RefineStrategy,
    threads: Option<usize>,
) -> Result<(Vec<Int>, Option<StaticStats>), Inconsistency> {
    solve_rounds_with(rs, mu, bound_bits, strategy, threads, None, None).map_err(|e| match e {
        SolveError::Interval(e) => e,
        // Unsupervised runs can only fail in the interval stage.
        other => Inconsistency { what: other.to_string() },
    })
}

/// [`solve_rounds`] inside a solve: dealt jobs install `ctx` (the round
/// threads would otherwise run the `Paper` profile and record nothing),
/// and every job first probes `sup`, so a fired token or exhausted
/// budget stops the remaining jobs.
pub(crate) fn solve_rounds_with(
    rs: &RemainderSeq,
    mu: u64,
    bound_bits: u64,
    strategy: RefineStrategy,
    threads: Option<usize>,
    ctx: Option<&SolveCtx>,
    sup: Option<&Supervision>,
) -> Result<(Vec<Int>, Option<StaticStats>), SolveError> {
    let tree = Tree::build(rs.n);
    // Node indices grouped by level, deepest first.
    let mut levels: Vec<Vec<usize>> = vec![Vec::new(); tree.levels()];
    for (idx, node) in tree.nodes.iter().enumerate() {
        levels[node.level].push(idx);
    }
    levels.reverse();
    let slots = (0..tree.nodes.len()).map(|_| Mutex::new(None)).collect();
    let root = tree.root;
    let r = Rounds { rs, tree, mu, bound_bits, strategy, slots };

    let stats = match threads {
        None => {
            for &idx in levels.iter().flatten() {
                r.node_job(idx, sup)?;
            }
            None
        }
        Some(threads) => {
            let error: Mutex<Option<SolveError>> = Mutex::new(None);
            let rounds: Vec<Vec<StaticTask<'_>>> = levels
                .iter()
                .map(|level| {
                    level
                        .iter()
                        .map(|&idx| -> StaticTask<'_> {
                            let (r, error) = (&r, &error);
                            Box::new(move || {
                                if error.lock().is_some() {
                                    return;
                                }
                                let job = || r.node_job(idx, sup);
                                let result = match ctx {
                                    Some(c) => c.run(job),
                                    None => job(),
                                };
                                if let Err(e) = result {
                                    error.lock().get_or_insert(e);
                                }
                            })
                        })
                        .collect()
                })
                .collect();
            let stats = run_rounds(threads, rounds);
            if let Some(e) = error.into_inner() {
                return Err(e);
            }
            Some(stats)
        }
    };
    let out = r.slots[root].lock().take().expect("the root job ran last");
    Ok((out.roots, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_poly::bounds::root_bound_bits;
    use rr_poly::remainder::remainder_sequence;

    fn solve(rs: &RemainderSeq, mu: u64, b: u64, strategy: RefineStrategy) -> Vec<Int> {
        solve_rounds(rs, mu, b, strategy, None).unwrap().0
    }

    fn solve_roots(int_roots: &[i64], mu: u64) -> Vec<Int> {
        let roots: Vec<Int> = int_roots.iter().map(|&r| Int::from(r)).collect();
        let p = Poly::from_roots(&roots);
        let rs = remainder_sequence(&p).unwrap();
        solve(&rs, mu, root_bound_bits(&p), RefineStrategy::Hybrid)
    }

    #[test]
    fn integer_roots_recovered_exactly() {
        for mu in [0u64, 4, 16] {
            let got = solve_roots(&[1, 2, 3], mu);
            let expect: Vec<Int> = [1i64, 2, 3].iter().map(|&r| Int::from(r) << mu).collect();
            assert_eq!(got, expect, "mu={mu}");
        }
    }

    #[test]
    fn larger_integer_root_sets() {
        let cases: &[&[i64]] = &[
            &[5],
            &[-3, 7],
            &[-10, -5, 0, 5, 10],
            &[1, 2, 3, 4, 5, 6],
            &[-50, -20, -19, 3, 40, 41, 90],
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
        ];
        for &rs in cases {
            let got = solve_roots(rs, 8);
            let expect: Vec<Int> = rs.iter().map(|&r| Int::from(r) << 8).collect();
            assert_eq!(got, expect, "{rs:?}");
        }
    }

    #[test]
    fn irrational_roots_correctly_rounded() {
        // x^2 - 2
        let p = Poly::from_i64(&[-2, 0, 1]);
        let rs = remainder_sequence(&p).unwrap();
        let mu = 20;
        let got = solve(&rs, mu, root_bound_bits(&p), RefineStrategy::Hybrid);
        assert_eq!(got.len(), 2);
        let s2 = std::f64::consts::SQRT_2;
        let ulp = (mu as f64).exp2().recip();
        let lo = got[0].to_f64() * ulp;
        let hi = got[1].to_f64() * ulp;
        assert!(lo >= -s2 && lo < -s2 + ulp, "{lo}");
        assert!(hi >= s2 && hi < s2 + ulp, "{hi}");
    }

    #[test]
    fn wilkinson_style_degree_12() {
        let got = solve_roots(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], 10);
        let expect: Vec<Int> = (1..=12i64).map(|r| Int::from(r) << 10).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn repeated_roots_give_distinct_set() {
        // (x-1)^2 (x-2)^3 (x+4): the remainder stage detects repetition,
        // the tree runs on the squarefree part (see solver.rs).
        let mut all = [1i64, 1, 2, 2, 2, -4];
        all.sort_unstable();
        let roots: Vec<Int> = all.iter().map(|&r| Int::from(r)).collect();
        let p = Poly::from_roots(&roots);
        let rs = remainder_sequence(&p).unwrap();
        assert_eq!(rs.n_star, 3);
        let p_star = rs.squarefree_input();
        let rs_star = remainder_sequence(&p_star).unwrap();
        let mu = 6;
        let got = solve(&rs_star, mu, root_bound_bits(&p_star), RefineStrategy::Hybrid);
        let expect: Vec<Int> = [-4i64, 1, 2].iter().map(|&r| Int::from(r) << mu).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn non_monic_and_rational_roots() {
        // (2x-1)(3x+2)(x-4) = 6x^3 - 23x^2 - 6x + 8... compute directly:
        let p = &(&Poly::from_i64(&[-1, 2]) * &Poly::from_i64(&[2, 3])) * &Poly::from_i64(&[-4, 1]);
        let rs = remainder_sequence(&p).unwrap();
        let mu = 12;
        let got = solve(&rs, mu, root_bound_bits(&p), RefineStrategy::Hybrid);
        // roots: -2/3, 1/2, 4 → ceilings at 2^12
        let expect = vec![
            (Int::from(-2) << mu).div_ceil(&Int::from(3)),
            Int::from(1) << (mu - 1),
            Int::from(4) << mu,
        ];
        assert_eq!(got, expect);
    }

    #[test]
    fn bisect_only_matches_hybrid_exactly() {
        let roots: Vec<Int> = [-7i64, -2, 1, 9, 23].iter().map(|&r| Int::from(r)).collect();
        let p = Poly::from_roots(&roots);
        // perturb to make roots irrational: p + 1 keeps all roots real?
        // Not guaranteed; instead use x^2-2 times (x-5)(x+5):
        let p2 = &Poly::from_i64(&[-2, 0, 1]) * &Poly::from_i64(&[-25, 0, 1]);
        for q in [p, p2] {
            let rs = remainder_sequence(&q).unwrap();
            let b = root_bound_bits(&q);
            let h = solve(&rs, 16, b, RefineStrategy::Hybrid);
            let bi = solve(&rs, 16, b, RefineStrategy::BisectOnly);
            let se = solve(&rs, 16, b, RefineStrategy::SecantHybrid);
            assert_eq!(h, bi);
            assert_eq!(h, se);
        }
    }

    #[test]
    fn merge_roots_is_sorted_merge() {
        let a: Vec<Int> = [1i64, 5, 9].iter().map(|&x| Int::from(x)).collect();
        let b: Vec<Int> = [2i64, 5, 7].iter().map(|&x| Int::from(x)).collect();
        let m = merge_roots(a.clone(), b);
        let expect: Vec<Int> = [1i64, 2, 5, 5, 7, 9].iter().map(|&x| Int::from(x)).collect();
        assert_eq!(m, expect);
        assert_eq!(merge_roots(Vec::new(), Vec::new()), Vec::<Int>::new());
        assert_eq!(merge_roots(a.clone(), Vec::new()), a);
    }

    #[test]
    fn linear_root_ceiling() {
        // 3x - 7: root 7/3 ≈ 2.333, ceil at µ=2: ceil(28/3) = 10
        assert_eq!(linear_root(&Poly::from_i64(&[-7, 3]), 2), Int::from(10));
        // -3x + 7 (negative lc): same root
        assert_eq!(linear_root(&Poly::from_i64(&[7, -3]), 2), Int::from(10));
        // root -7/3: ceil(-28/3) = -9
        assert_eq!(linear_root(&Poly::from_i64(&[7, 3]), 2), Int::from(-9));
    }

    #[test]
    fn scale_invariance() {
        // c·p has the same roots as p.
        let p = Poly::from_roots(&[Int::from(-1), Int::from(4), Int::from(6)]);
        let ps = p.scale(&Int::from(7));
        let rs1 = remainder_sequence(&p).unwrap();
        let rs2 = remainder_sequence(&ps).unwrap();
        let r1 = solve(&rs1, 8, root_bound_bits(&p), RefineStrategy::Hybrid);
        let r2 = solve(&rs2, 8, root_bound_bits(&ps), RefineStrategy::Hybrid);
        assert_eq!(r1, r2);
    }

    #[test]
    fn dealt_rounds_match_inline() {
        for n in [1usize, 2, 3, 7, 12, 20] {
            let roots: Vec<Int> = (1..=n as i64).map(|r| Int::from(2 * r - 11)).collect();
            let p = Poly::from_roots(&roots);
            let rs = remainder_sequence(&p).unwrap();
            let b = root_bound_bits(&p);
            let inline = solve(&rs, 8, b, RefineStrategy::Hybrid);
            for threads in [1usize, 3] {
                let (dealt, stats) =
                    solve_rounds(&rs, 8, b, RefineStrategy::Hybrid, Some(threads)).unwrap();
                assert_eq!(inline, dealt, "n={n} threads={threads}");
                assert_eq!(stats.unwrap().rounds, Tree::build(n).levels());
            }
        }
    }

    #[test]
    fn repeated_roots_dealt() {
        let roots: Vec<Int> = [1i64, 1, 4, 4, 9].iter().map(|&r| Int::from(r)).collect();
        let p0 = Poly::from_roots(&roots);
        let p = remainder_sequence(&p0).unwrap().squarefree_input();
        let rs = remainder_sequence(&p).unwrap();
        let b = root_bound_bits(&p);
        let inline = solve(&rs, 6, b, RefineStrategy::Hybrid);
        let (dealt, _) = solve_rounds(&rs, 6, b, RefineStrategy::Hybrid, Some(2)).unwrap();
        assert_eq!(inline, dealt);
    }
}
