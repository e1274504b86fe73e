//! Dynamic-scheduling parallel driver for the tree stage (paper Sec 3.2).
//!
//! A faithful reconstruction of the paper's task structure:
//!
//! * **RECURSE** — top-down: initializes node state and fans out to the
//!   children; leaves kick off the bottom-up phase.
//! * **COMPUTEPOLY** — per non-spine internal node, split into the two
//!   matrix products of `T = T_R·Ŝ_k·T_L / (c_k²c_{k−1}²)`, each product
//!   further split into **four entry tasks** ([`Grain::Entry`]; the
//!   [`Grain::Coarse`] ablation runs each node's combine as one task).
//! * **SORT** — merges the two children's sorted root lists.
//! * **PREINTERVAL** — one task per evaluation of the node polynomial at
//!   an interleaving point.
//! * **INTERVAL** — one task per gap (the full case analysis + hybrid
//!   refinement of Sec 2.2).
//!
//! Completion notifications flow through [`Gate`]s exactly as the paper's
//! per-node status records do: the last prerequisite to arrive spawns the
//! enabled task.
//!
//! The steps themselves are those of the level rounds
//! ([`crate::rounds`]): the same leaf, combine and SORT helpers, and
//! the same degenerate-case analysis (`interval::prepare_node`) ahead of the
//! PREINTERVAL and INTERVAL tasks.

use crate::interval::{prepare_node, Inconsistency, NodeIntervals, NodePrep};
use crate::refine::RefineStrategy;
use crate::rounds::{combine, leaf_poly, leaf_roots, merge_roots};
use crate::tree::{is_spine, Tree};
use crate::treepoly;
use parking_lot::Mutex;
use rr_linalg::Mat2;
use rr_mp::metrics::{with_phase, Phase};
use rr_mp::{ExactDivisor, Int};
use rr_poly::remainder::RemainderSeq;
use rr_poly::Poly;
use rr_sched::{Gate, Pool, PoolStats, Scope, ScopeConfig, TaskTrace, TaskWrapper};
use std::sync::OnceLock;

/// Task granularity of the tree stage's matrix products.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Grain {
    /// The paper's choice: each matrix product is four entry tasks.
    #[default]
    Entry,
    /// Ablation: one task per node computes the whole combine.
    Coarse,
}

struct NodeSt {
    i: usize,
    k: Option<usize>,
    left: Option<usize>,
    right: Option<usize>,
    parent: Option<usize>,
    spine: bool,
    leaf: bool,

    s_hat: OnceLock<Mat2>,
    /// The exact divisor `c_k²·c_{k−1}²` of the combine step, prepared
    /// once so the four `t_entry_task`s share its cached 2-adic inverse.
    divisor: OnceLock<ExactDivisor>,
    /// `c_k²·I` when the right child is absent.
    rt_missing: OnceLock<Mat2>,
    m1_slots: Mutex<Vec<Option<Poly>>>,
    m1: OnceLock<Mat2>,
    t_slots: Mutex<Vec<Option<Poly>>>,
    tmat: OnceLock<Mat2>,
    poly: OnceLock<Poly>,

    /// Taken by the node's PREINTERVAL setup.
    merged: Mutex<Option<Vec<Int>>>,
    ictx: OnceLock<NodeIntervals>,
    points: OnceLock<Vec<Int>>,
    signs: Mutex<Vec<Option<i32>>>,
    gap_slots: Mutex<Vec<Option<Int>>>,
    /// Taken by the parent's SORT (the root's by `solve_parallel_on`).
    roots: Mutex<Option<Vec<Int>>>,

    mat_gate: Option<Gate>,
    m1_gate: Option<Gate>,
    t_gate: Option<Gate>,
    merged_gate: Option<Gate>,
    ps_gate: Option<Gate>,
    sign_gate: OnceLock<Gate>,
    gap_gate: OnceLock<Gate>,
}

struct ParCtx<'a> {
    rs: &'a RemainderSeq,
    mu: u64,
    bound_bits: u64,
    strategy: RefineStrategy,
    grain: Grain,
    nodes: Vec<NodeSt>,
    root: usize,
    error: Mutex<Option<Inconsistency>>,
}

impl ParCtx<'_> {
    fn failed(&self) -> bool {
        self.error.lock().is_some()
    }

    fn fail(&self, e: Inconsistency) {
        self.error.lock().get_or_insert(e);
    }
}

/// Runs the tree stage in a scope of the given `pool`, capped at
/// `threads` concurrent workers, with `wrapper` run around every task
/// (installing the solve's session context on the executing worker) and
/// `cancel` watched at every task boundary.
#[allow(clippy::too_many_arguments)] // the solve's pool plumbing plus the stage inputs
pub(crate) fn solve_parallel_on(
    pool: &Pool,
    threads: usize,
    wrapper: TaskWrapper,
    cancel: Option<rr_sched::CancelToken>,
    rs: &RemainderSeq,
    mu: u64,
    bound_bits: u64,
    strategy: RefineStrategy,
    grain: Grain,
) -> Result<(Vec<Int>, PoolStats, TaskTrace), crate::solver::SolveError> {
    let tree = Tree::build(rs.n);
    let nodes: Vec<NodeSt> = tree
        .nodes
        .iter()
        .map(|nd| {
            let spine = is_spine(nd, tree.n);
            let leaf = nd.is_leaf();
            let children = nd.child_count();
            NodeSt {
                i: nd.i,
                k: nd.k,
                left: nd.left,
                right: nd.right,
                parent: nd.parent,
                spine,
                leaf,
                s_hat: OnceLock::new(),
                divisor: OnceLock::new(),
                rt_missing: OnceLock::new(),
                m1_slots: Mutex::new(Vec::new()),
                m1: OnceLock::new(),
                t_slots: Mutex::new(Vec::new()),
                tmat: OnceLock::new(),
                poly: OnceLock::new(),
                merged: Mutex::new(None),
                ictx: OnceLock::new(),
                points: OnceLock::new(),
                signs: Mutex::new(Vec::new()),
                gap_slots: Mutex::new(Vec::new()),
                roots: Mutex::new(None),
                mat_gate: (!leaf && !spine).then(|| Gate::new(children)),
                m1_gate: (!leaf && !spine).then(|| Gate::new(4)),
                t_gate: (!leaf && !spine).then(|| Gate::new(4)),
                merged_gate: (!leaf).then(|| Gate::new(children)),
                ps_gate: (!leaf).then(|| Gate::new(2)),
                sign_gate: OnceLock::new(),
                gap_gate: OnceLock::new(),
            }
        })
        .collect();
    let ctx = ParCtx {
        rs,
        mu,
        bound_bits,
        strategy,
        grain,
        nodes,
        root: tree.root,
        error: Mutex::new(None),
    };
    let ctx_ref = &ctx;
    let (stats, trace) = pool
        .try_scope(
            ScopeConfig { cap: threads, wrapper: Some(wrapper), cancel },
            move |s| recurse(ctx_ref, ctx_ref.root, s),
        )
        .map_err(|abort| crate::solver::abort_to_solve_error(*abort))?;
    if let Some(e) = ctx.error.lock().take() {
        return Err(crate::solver::SolveError::Interval(e));
    }
    let roots = ctx.nodes[ctx.root]
        .roots
        .lock()
        .take()
        .ok_or_else(|| crate::solver::SolveError::Interval(Inconsistency {
            what: "root node never completed".into(),
        }))?;
    Ok((roots, stats, trace))
}

/// RECURSE: top-down initialization.
fn recurse<'env>(ctx: &'env ParCtx<'env>, idx: usize, s: &Scope<'env>) {
    if ctx.failed() {
        return;
    }
    let node = &ctx.nodes[idx];
    if node.leaf {
        s.spawn(move |s2| leaf_task(ctx, idx, s2));
        return;
    }
    if node.spine {
        // The spine polynomial is free: F_{i−1} from the remainder stage.
        node.poly
            .set(treepoly::spine_poly(ctx.rs, node.i).clone()).expect("poly set once");
        arrive_ps(ctx, idx, s);
    }
    if let Some(l) = node.left {
        s.spawn(move |s2| recurse(ctx, l, s2));
    }
    if let Some(r) = node.right {
        s.spawn(move |s2| recurse(ctx, r, s2));
    }
}

/// Leaf: polynomial and matrix are immediate; the root (if any) is one
/// exact division.
fn leaf_task<'env>(ctx: &'env ParCtx<'env>, idx: usize, s: &Scope<'env>) {
    if ctx.failed() {
        return;
    }
    let node = &ctx.nodes[idx];
    node.poly
        .set(leaf_poly(ctx.rs, node.i).clone()).expect("poly set once");
    if !node.spine {
        node.tmat
            .set(with_phase(Phase::TreePoly, || treepoly::leaf_tmat(ctx.rs, node.i))).expect("tmat set once");
        complete_matrix(ctx, idx, s);
    }
    let roots = leaf_roots(ctx.rs, node.i, ctx.mu);
    finish_roots(ctx, idx, roots, s);
}

/// Matrix completion: notify the parent's COMPUTEPOLY gate.
fn complete_matrix<'env>(ctx: &'env ParCtx<'env>, idx: usize, s: &Scope<'env>) {
    let Some(p) = ctx.nodes[idx].parent else { return };
    if let Some(gate) = &ctx.nodes[p].mat_gate {
        if gate.arrive() {
            s.spawn(move |s2| computepoly(ctx, p, s2));
        }
    }
}

/// Reference to the right-operand matrix `T_{k+1,j}` (the child's, or the
/// `c_k²·I` stand-in cached on the node).
fn right_tmat<'env>(ctx: &'env ParCtx<'env>, idx: usize) -> &'env Mat2 {
    let node = &ctx.nodes[idx];
    match node.right {
        Some(r) => ctx.nodes[r].tmat.get().expect("right child matrix ready"),
        None => node.rt_missing.get_or_init(|| {
            treepoly::missing_right_tmat(ctx.rs, node.k.expect("internal"))
        }),
    }
}

/// COMPUTEPOLY for a non-spine internal node: children matrices are ready.
fn computepoly<'env>(ctx: &'env ParCtx<'env>, idx: usize, s: &Scope<'env>) {
    if ctx.failed() {
        return;
    }
    let node = &ctx.nodes[idx];
    let k = node.k.expect("internal");
    match ctx.grain {
        Grain::Coarse => {
            let lt = ctx.nodes[node.left.expect("internal")].tmat.get().expect("ready");
            let rt = node.right.map(|r| ctx.nodes[r].tmat.get().expect("right child matrix ready"));
            set_tmat(ctx, idx, combine(ctx.rs, k, lt, rt), s);
        }
        Grain::Entry => {
            node.s_hat
                .set(with_phase(Phase::TreePoly, || treepoly::s_hat(ctx.rs, k)))
                .expect("s_hat set once");
            node.divisor
                .set(with_phase(Phase::TreePoly, || treepoly::combine_divisor(ctx.rs, k)))
                .expect("divisor set once");
            *node.m1_slots.lock() = vec![None; 4];
            for e in 0..4usize {
                s.spawn(move |s2| m1_entry_task(ctx, idx, e, s2));
            }
        }
    }
}

/// One entry of the first product `M1 = T_R · Ŝ_k`.
fn m1_entry_task<'env>(ctx: &'env ParCtx<'env>, idx: usize, e: usize, s: &Scope<'env>) {
    if ctx.failed() {
        return;
    }
    let node = &ctx.nodes[idx];
    let (r, c) = (e / 2, e % 2);
    let v = with_phase(Phase::TreePoly, || {
        Mat2::mul_entry(right_tmat(ctx, idx), node.s_hat.get().expect("set"), r, c)
    });
    node.m1_slots.lock()[e] = Some(v);
    if node.m1_gate.as_ref().expect("non-spine internal").arrive() {
        let entries: Vec<Poly> = node
            .m1_slots
            .lock()
            .drain(..)
            .map(|p| p.expect("all m1 entries done"))
            .collect();
        let [e00, e01, e10, e11]: [Poly; 4] = entries.try_into().expect("4 entries");
        node.m1.set(Mat2::new(e00, e01, e10, e11)).expect("m1 set once");
        *node.t_slots.lock() = vec![None; 4];
        for e2 in 0..4usize {
            s.spawn(move |s2| t_entry_task(ctx, idx, e2, s2));
        }
    }
}

/// One entry of the second product `T = (M1 · T_L) / (c_k²c_{k−1}²)`.
fn t_entry_task<'env>(ctx: &'env ParCtx<'env>, idx: usize, e: usize, s: &Scope<'env>) {
    if ctx.failed() {
        return;
    }
    let node = &ctx.nodes[idx];
    let (r, c) = (e / 2, e % 2);
    let v = with_phase(Phase::TreePoly, || {
        let lt = ctx.nodes[node.left.expect("internal")].tmat.get().expect("ready");
        let divisor = node.divisor.get().expect("ready");
        Mat2::mul_entry(node.m1.get().expect("ready"), lt, r, c).div_scalar_exact_prepared(divisor)
    });
    node.t_slots.lock()[e] = Some(v);
    if node.t_gate.as_ref().expect("non-spine internal").arrive() {
        let entries: Vec<Poly> = node
            .t_slots
            .lock()
            .drain(..)
            .map(|p| p.expect("all t entries done"))
            .collect();
        let [e00, e01, e10, e11]: [Poly; 4] = entries.try_into().expect("4 entries");
        set_tmat(ctx, idx, Mat2::new(e00, e01, e10, e11), s);
    }
}

fn set_tmat<'env>(ctx: &'env ParCtx<'env>, idx: usize, t: Mat2, s: &Scope<'env>) {
    let node = &ctx.nodes[idx];
    node.poly
        .set(treepoly::tmat_poly(&t).clone()).expect("poly set once");
    node.tmat.set(t).expect("tmat set once");
    arrive_ps(ctx, idx, s);
    complete_matrix(ctx, idx, s);
}

/// Root-list completion: notify the parent's SORT gate (or finish).
fn finish_roots<'env>(ctx: &'env ParCtx<'env>, idx: usize, roots: Vec<Int>, s: &Scope<'env>) {
    let node = &ctx.nodes[idx];
    *node.roots.lock() = Some(roots);
    let Some(p) = node.parent else { return };
    if ctx.nodes[p].merged_gate.as_ref().expect("internal parent").arrive() {
        s.spawn(move |s2| sort_task(ctx, p, s2));
    }
}

/// SORT: merge the children's sorted roots.
fn sort_task<'env>(ctx: &'env ParCtx<'env>, idx: usize, s: &Scope<'env>) {
    if ctx.failed() {
        return;
    }
    let node = &ctx.nodes[idx];
    let take = |c: usize| ctx.nodes[c].roots.lock().take().expect("child roots ready");
    let left = take(node.left.expect("internal"));
    let right = node.right.map(take).unwrap_or_default();
    *node.merged.lock() = Some(merge_roots(left, right));
    arrive_ps(ctx, idx, s);
}

fn arrive_ps<'env>(ctx: &'env ParCtx<'env>, idx: usize, s: &Scope<'env>) {
    if ctx.nodes[idx].ps_gate.as_ref().expect("internal").arrive() {
        s.spawn(move |s2| prep_task(ctx, idx, s2));
    }
}

/// Sets up the node's interval problems (degenerate cases short-circuit).
fn prep_task<'env>(ctx: &'env ParCtx<'env>, idx: usize, s: &Scope<'env>) {
    if ctx.failed() {
        return;
    }
    let node = &ctx.nodes[idx];
    let poly = node.poly.get().expect("ready");
    let merged = node.merged.lock().take().expect("ready");
    let (ictx, points) = match prepare_node(poly, merged, ctx.mu, ctx.bound_bits, ctx.strategy) {
        Ok(NodePrep::Gaps(ictx, points)) => (ictx, points),
        Ok(NodePrep::Done(roots)) => return finish_roots(ctx, idx, roots, s),
        Err(e) => return ctx.fail(e),
    };
    let n_points = points.len();
    node.ictx.set(ictx).ok().expect("ictx set once");
    node.points.set(points).expect("points set once");
    *node.signs.lock() = vec![None; n_points];
    node.sign_gate.set(Gate::new(n_points)).expect("set once");
    for t in 0..n_points {
        s.spawn(move |s2| sign_task(ctx, idx, t, s2));
    }
}

/// PREINTERVAL: one polynomial evaluation.
fn sign_task<'env>(ctx: &'env ParCtx<'env>, idx: usize, t: usize, s: &Scope<'env>) {
    if ctx.failed() {
        return;
    }
    let node = &ctx.nodes[idx];
    let sgn = node.ictx.get().expect("ready").preinterval_sign(&node.points.get().expect("ready")[t]);
    node.signs.lock()[t] = Some(sgn);
    if node.sign_gate.get().expect("set").arrive() {
        let d = node.points.get().expect("ready").len() - 1;
        *node.gap_slots.lock() = vec![None; d];
        node.gap_gate.set(Gate::new(d)).expect("set once");
        for g in 0..d {
            s.spawn(move |s2| gap_task(ctx, idx, g, s2));
        }
    }
}

/// INTERVAL: one gap's case analysis and refinement.
fn gap_task<'env>(ctx: &'env ParCtx<'env>, idx: usize, t: usize, s: &Scope<'env>) {
    if ctx.failed() {
        return;
    }
    let node = &ctx.nodes[idx];
    let points = node.points.get().expect("ready");
    let s_lo = node.signs.lock()[t].expect("sign ready");
    match node.ictx.get().expect("ready").solve_gap(t, &points[t], s_lo, &points[t + 1]) {
        Ok(root) => {
            node.gap_slots.lock()[t] = Some(root);
            if node.gap_gate.get().expect("set").arrive() {
                let roots: Vec<Int> = node
                    .gap_slots
                    .lock()
                    .drain(..)
                    .map(|r| r.expect("all gaps done"))
                    .collect();
                finish_roots(ctx, idx, roots, s);
            }
        }
        Err(e) => ctx.fail(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecMode, RootApproximator, RootsResult, SolverConfig};

    fn solve(p: &Poly, mu: u64, mode: ExecMode, grain: Grain) -> RootsResult {
        let mut cfg = SolverConfig::parallel(mu, 2);
        cfg.mode = mode;
        cfg.grain = grain;
        RootApproximator::new(cfg).approximate_roots(p).unwrap()
    }

    fn check_matches_sequential(p: &Poly, mu: u64, threads: usize, grain: Grain) {
        let seq = solve(p, mu, ExecMode::Sequential, Grain::Entry);
        let par = solve(p, mu, ExecMode::Dynamic { threads }, grain);
        assert_eq!(seq.roots, par.roots, "threads={threads} grain={grain:?}");
    }

    #[test]
    fn matches_sequential_small_degrees() {
        for n in 1..=10usize {
            let roots: Vec<Int> = (1..=n as i64).map(|r| Int::from(3 * r - 7)).collect();
            let p = Poly::from_roots(&roots);
            for threads in [1usize, 2, 4] {
                check_matches_sequential(&p, 8, threads, Grain::Entry);
            }
            check_matches_sequential(&p, 8, 4, Grain::Coarse);
        }
    }

    #[test]
    fn matches_sequential_degree_20_many_runs() {
        // shake out scheduling races
        let roots: Vec<Int> = (1..=20i64).map(|r| Int::from(r * r - 50)).collect();
        let p = Poly::from_roots(&roots);
        for _ in 0..5 {
            check_matches_sequential(&p, 16, 8, Grain::Entry);
        }
    }

    #[test]
    fn matches_sequential_irrational_roots() {
        // (x^2-2)(x^2-3)(x^2-7): six irrational roots
        let p = &(&Poly::from_i64(&[-2, 0, 1]) * &Poly::from_i64(&[-3, 0, 1]))
            * &Poly::from_i64(&[-7, 0, 1]);
        for threads in [2usize, 4] {
            check_matches_sequential(&p, 24, threads, Grain::Entry);
            check_matches_sequential(&p, 24, threads, Grain::Coarse);
        }
    }

    #[test]
    fn matches_sequential_repeated_roots() {
        let roots: Vec<Int> = [-3i64, -3, 0, 2, 2, 2, 8]
            .iter()
            .map(|&r| Int::from(r))
            .collect();
        let p = Poly::from_roots(&roots);
        check_matches_sequential(&p, 8, 4, Grain::Entry);
    }

    #[test]
    fn pool_stats_reported() {
        let roots: Vec<Int> = (1..=15i64).map(Int::from).collect();
        let p = Poly::from_roots(&roots);
        let r = solve(&p, 8, ExecMode::Dynamic { threads: 4 }, Grain::Entry);
        let stats = r.stats.pool.expect("dynamic mode reports pool stats");
        assert_eq!(stats.workers, 4);
        // RECURSE + leaves + matrix entries + sort + preinterval +
        // interval tasks: must be well beyond the node count.
        assert!(stats.total_tasks() > 30, "{}", stats.total_tasks());
    }
}
