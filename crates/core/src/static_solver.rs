//! Static-scheduling ablation driver (paper footnote 3).
//!
//! The tree stage runs in barrier-separated rounds, one per tree level
//! from the deepest up; within a round each node is **one** task,
//! pre-assigned round-robin to the workers. No work stealing, no
//! rebalancing — a level whose nodes have very different costs (they do:
//! polynomial sizes vary across a level, and interval problems vary with
//! root geometry) leaves workers idle at the barrier, which is exactly
//! why the paper moved to dynamic scheduling.

use crate::interval::{solve_node_intervals, Inconsistency};
use crate::refine::RefineStrategy;
use crate::seq_solver::{leaf_roots, merge_roots};
use crate::tree::{is_spine, Tree};
use crate::treepoly;
use parking_lot::Mutex;
use rr_linalg::Mat2;
use rr_mp::metrics::{with_phase, Phase};
use rr_mp::Int;
use rr_poly::remainder::RemainderSeq;
use rr_sched::static_sched::{run_rounds, StaticStats, StaticTask};

struct NodeSlot {
    tmat: Mutex<Option<Mat2>>,
    roots: Mutex<Option<Vec<Int>>>,
}

/// Runs the tree stage with static level-by-level scheduling on
/// `threads` workers.
pub fn solve_static(
    rs: &RemainderSeq,
    mu: u64,
    bound_bits: u64,
    strategy: RefineStrategy,
    threads: usize,
) -> Result<(Vec<Int>, StaticStats), Inconsistency> {
    solve_static_with_ctx(rs, mu, bound_bits, strategy, threads, None)
}

/// [`solve_static`] with an optional session context installed around
/// every task (the static scheduler spawns its own round threads, which
/// would otherwise fall back to the `Paper` profile and record nothing).
pub fn solve_static_with_ctx(
    rs: &RemainderSeq,
    mu: u64,
    bound_bits: u64,
    strategy: RefineStrategy,
    threads: usize,
    ctx: Option<&rr_mp::SolveCtx>,
) -> Result<(Vec<Int>, StaticStats), Inconsistency> {
    let tree = Tree::build(rs.n);
    let slots: Vec<NodeSlot> = (0..tree.nodes.len())
        .map(|_| NodeSlot { tmat: Mutex::new(None), roots: Mutex::new(None) })
        .collect();
    let error: Mutex<Option<Inconsistency>> = Mutex::new(None);

    // Group nodes by level, deepest first.
    let levels = tree.levels();
    let mut by_level: Vec<Vec<usize>> = vec![Vec::new(); levels];
    for (idx, node) in tree.nodes.iter().enumerate() {
        by_level[node.level].push(idx);
    }
    by_level.reverse();

    let rounds: Vec<Vec<StaticTask<'_>>> = by_level
        .iter()
        .map(|level_nodes| {
            level_nodes
                .iter()
                .map(|&idx| -> StaticTask<'_> {
                    let (tree, rs, slots, error) = (&tree, rs, &slots, &error);
                    Box::new(move || {
                        let body = || {
                            if error.lock().is_some() {
                                return;
                            }
                            if let Err(e) =
                                node_task(tree, rs, slots, idx, mu, bound_bits, strategy)
                            {
                                let mut g = error.lock();
                                if g.is_none() {
                                    *g = Some(e);
                                }
                            }
                        };
                        match ctx {
                            Some(c) => c.run(body),
                            None => body(),
                        }
                    })
                })
                .collect()
        })
        .collect();

    let stats = run_rounds(threads, rounds);
    if let Some(e) = error.lock().take() {
        return Err(e);
    }
    let roots = slots[tree.root]
        .roots
        .lock()
        .take()
        .ok_or_else(|| Inconsistency { what: "root node never completed".into() })?;
    Ok((roots, stats))
}

fn node_task(
    tree: &Tree,
    rs: &RemainderSeq,
    slots: &[NodeSlot],
    idx: usize,
    mu: u64,
    bound_bits: u64,
    strategy: RefineStrategy,
) -> Result<(), Inconsistency> {
    let node = tree.node(idx);
    let spine = is_spine(node, tree.n);
    if node.is_leaf() {
        if !spine {
            *slots[idx].tmat.lock() =
                Some(with_phase(Phase::TreePoly, || treepoly::leaf_tmat(rs, node.i)));
        }
        *slots[idx].roots.lock() = Some(leaf_roots(rs, node.i, mu));
        return Ok(());
    }
    let k = node.k.expect("internal");
    let left = node.left.expect("internal");
    let left_roots = slots[left].roots.lock().clone().expect("left child done");
    let right_roots = match node.right {
        Some(r) => slots[r].roots.lock().clone().expect("right child done"),
        None => Vec::new(),
    };
    let poly = if spine {
        treepoly::spine_poly(rs, node.i).clone()
    } else {
        let t = with_phase(Phase::TreePoly, || {
            let lt_guard = slots[left].tmat.lock();
            let lt = lt_guard.as_ref().expect("left matrix done");
            let rt = match node.right {
                Some(r) => slots[r].tmat.lock().clone().expect("right matrix done"),
                None => treepoly::missing_right_tmat(rs, k),
            };
            treepoly::combine_tmat(lt, &rt, &treepoly::s_hat(rs, k), &treepoly::combine_divisor(rs, k))
        });
        let p = treepoly::tmat_poly(&t).clone();
        *slots[idx].tmat.lock() = Some(t);
        p
    };
    let merged = merge_roots(&left_roots, &right_roots);
    let roots = solve_node_intervals(&poly, &merged, mu, bound_bits, strategy)?;
    *slots[idx].roots.lock() = Some(roots);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq_solver::solve_sequential;
    use rr_poly::bounds::root_bound_bits;
    use rr_poly::remainder::remainder_sequence;
    use rr_poly::Poly;

    #[test]
    fn matches_sequential() {
        for n in [1usize, 2, 3, 7, 12, 20] {
            let roots: Vec<Int> = (1..=n as i64).map(|r| Int::from(2 * r - 11)).collect();
            let p = Poly::from_roots(&roots);
            let rs = remainder_sequence(&p).unwrap();
            let b = root_bound_bits(&p);
            let seq = solve_sequential(&rs, 8, b, RefineStrategy::Hybrid).unwrap();
            for threads in [1usize, 3] {
                let (st, stats) =
                    solve_static(&rs, 8, b, RefineStrategy::Hybrid, threads).unwrap();
                assert_eq!(seq, st, "n={n} threads={threads}");
                assert_eq!(stats.rounds, Tree::build(n).levels());
            }
        }
    }

    #[test]
    fn repeated_roots_static() {
        let roots: Vec<Int> = [1i64, 1, 4, 4, 9].iter().map(|&r| Int::from(r)).collect();
        let p0 = Poly::from_roots(&roots);
        let p = remainder_sequence(&p0).unwrap().squarefree_input();
        let rs = remainder_sequence(&p).unwrap();
        let b = root_bound_bits(&p);
        let seq = solve_sequential(&rs, 6, b, RefineStrategy::Hybrid).unwrap();
        let (st, _) = solve_static(&rs, 6, b, RefineStrategy::Hybrid, 2).unwrap();
        assert_eq!(seq, st);
    }
}
