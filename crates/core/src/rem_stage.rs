//! Parallel remainder-sequence stage (paper Section 3.1).
//!
//! Iteration `i` computes `Q_i` and `F_{i+1}` from `F_{i−1}` and `F_i`.
//! Each iteration is parallelized across the output coefficients: one task
//! per coefficient `f_{i+1,j}` (the task bundles the three products, two
//! additions, and one exact division of Eq (18) — the paper splits these
//! five ops into separate tasks whose subtraction/division tasks busy-wait
//! on their products; bundling them per coefficient is the same dependency
//! structure without the busy-wait). The iterations themselves are
//! inherently sequential, so iteration `i+1` is gated on the completion of
//! all of iteration `i`'s coefficient tasks.
//!
//! The paper offers running this stage sequentially as a run-time option;
//! that path is just [`rr_poly::remainder::remainder_sequence`].
//!
//! The exact division in each coefficient task rides the session's
//! [`rr_mp::Profile`]: deep in the sequence the dividends reach
//! 10⁴–10⁵ bits and the `c_{i−1}²` divisors grow comparably, so
//! `Profile::Fast` swaps Algorithm D for the 2-adic (Hensel) kernel
//! there without changing any recorded cost. Every coefficient task of
//! iteration `i` divides by the *same* `c_{i−1}²`, so `IterData` holds
//! it as a prepared [`rr_mp::ExactDivisor`]: the tasks share one cached
//! 2-adic inverse, whatever order the pool runs them in.

use crate::solver::SolveError;
use parking_lot::Mutex;
use rr_mp::metrics::{with_phase, Phase};
use rr_mp::{ExactDivisor, Int};
use rr_poly::remainder::{
    next_f_coeff, quotient_coeffs, remainder_sequence, RemainderSeq, SeqError,
};
use rr_poly::Poly;
use rr_sched::{Gate, Pool, Scope, ScopeConfig, TaskWrapper};
use std::sync::OnceLock;

struct IterData {
    q0: Int,
    q1: Int,
    c_sq: Int,
    denom: ExactDivisor,
}

struct Stage {
    n: usize,
    /// `f[i]` set once `F_i` is known.
    f: Vec<OnceLock<Poly>>,
    /// `q[i]` set once `Q_i` is known.
    q: Vec<OnceLock<Poly>>,
    /// Per-iteration quotient data.
    iter: Vec<OnceLock<IterData>>,
    /// Per-iteration coefficient slots.
    slots: Vec<Mutex<Vec<Option<Int>>>>,
    /// Per-iteration completion gates (created when the iteration starts).
    gates: Vec<OnceLock<Gate>>,
    error: Mutex<Option<SeqError>>,
    /// Result of the repeated-root extension, set at termination.
    outcome: OnceLock<(usize, Option<Poly>)>, // (n_star, gcd)
}

/// Computes the extended standard remainder sequence of `p0` with the
/// paper's per-coefficient dynamic parallelism, in a scope of the given
/// `pool` capped at `threads` concurrent workers, with `wrapper` run
/// around every task (installing the solve's session context) and
/// `cancel` watched at every task boundary.
///
/// Produces exactly the same [`RemainderSeq`] as the sequential
/// [`remainder_sequence`] (asserted by tests), with every operation
/// charged to [`Phase::RemainderSeq`] on either path.
pub(crate) fn parallel_remainder_on(
    pool: &Pool,
    threads: usize,
    wrapper: TaskWrapper,
    cancel: Option<rr_sched::CancelToken>,
    p0: &Poly,
) -> Result<(RemainderSeq, rr_sched::TaskTrace), SolveError> {
    let n = match p0.degree() {
        None | Some(0) => return Err(SolveError::Seq(SeqError::DegreeTooSmall)),
        Some(n) => n,
    };
    if n == 1 || threads == 1 {
        // Sequential fallback on the calling thread (which already has
        // the session context installed).
        return with_phase(Phase::RemainderSeq, || remainder_sequence(p0))
            .map(|rs| (rs, rr_sched::TaskTrace::default()))
            .map_err(SolveError::Seq);
    }
    let stage = Stage {
        n,
        f: (0..=n).map(|_| OnceLock::new()).collect(),
        q: (0..n).map(|_| OnceLock::new()).collect(),
        iter: (0..n).map(|_| OnceLock::new()).collect(),
        slots: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
        gates: (0..n).map(|_| OnceLock::new()).collect(),
        error: Mutex::new(None),
        outcome: OnceLock::new(),
    };
    stage.f[0].set(p0.clone()).expect("fresh");
    stage.f[1]
        .set(with_phase(Phase::RemainderSeq, || p0.derivative())).expect("fresh");

    let stage_ref = &stage;
    let (_stats, trace) = pool
        .try_scope(
            ScopeConfig { cap: threads, wrapper: Some(wrapper), cancel },
            move |s| start_iteration(stage_ref, 1, s),
        )
        .map_err(|abort| crate::solver::abort_to_solve_error(*abort))?;

    if let Some(e) = stage.error.lock().take() {
        return Err(SolveError::Seq(e));
    }
    assemble(stage).map(|rs| (rs, trace))
}

fn fail(stage: &Stage, e: SeqError) {
    let mut g = stage.error.lock();
    if g.is_none() {
        *g = Some(e);
    }
}

fn start_iteration<'env>(stage: &'env Stage, i: usize, s: &Scope<'env>) {
    if stage.error.lock().is_some() {
        return;
    }
    with_phase(Phase::RemainderSeq, || {
        let f_prev = stage.f[i - 1].get().expect("F_{i-1} ready");
        let f_cur = stage.f[i].get().expect("F_i ready");
        debug_assert!(f_cur.deg() >= 1, "iteration on constant F_i");
        let (q0, q1) = quotient_coeffs(f_prev, f_cur);
        let c_sq = f_cur.lc().square();
        let denom =
            ExactDivisor::new(if i == 1 { Int::one() } else { f_prev.lc().square() });
        let d = f_cur.deg();
        stage.iter[i].set(IterData { q0, q1, c_sq, denom }).ok().expect("fresh");
        *stage.slots[i].lock() = vec![None; d];
        stage.gates[i].set(Gate::new(d)).expect("fresh");
        for j in 0..d {
            s.spawn(move |s2| coeff_task(stage, i, j, s2));
        }
    });
}

fn coeff_task<'env>(stage: &'env Stage, i: usize, j: usize, s: &Scope<'env>) {
    if stage.error.lock().is_some() {
        return;
    }
    with_phase(Phase::RemainderSeq, || {
        let f_prev = stage.f[i - 1].get().expect("ready");
        let f_cur = stage.f[i].get().expect("ready");
        let it = stage.iter[i].get().expect("ready");
        let v = next_f_coeff(f_prev, f_cur, &it.q0, &it.q1, &it.c_sq, &it.denom, j);
        stage.slots[i].lock()[j] = Some(v);
    });
    if stage.gates[i].get().expect("gate set").arrive() {
        s.spawn(move |s2| finish_iteration(stage, i, s2));
    }
}

fn finish_iteration<'env>(stage: &'env Stage, i: usize, s: &Scope<'env>) {
    if stage.error.lock().is_some() {
        return;
    }
    let coeffs: Vec<Int> = stage.slots[i]
        .lock()
        .drain(..)
        .map(|c| c.expect("all coefficient tasks completed"))
        .collect();
    let f_next = Poly::from_coeffs(coeffs);
    let it = stage.iter[i].get().expect("ready");
    let qi = Poly::from_coeffs(vec![it.q0.clone(), it.q1.clone()]);
    let f_cur = stage.f[i].get().expect("ready");

    if f_next.is_zero() {
        // Repeated roots: terminate and let `assemble` extend.
        stage.outcome.set((i, Some(f_cur.clone()))).expect("fresh");
        return;
    }
    if f_next.deg() != f_cur.deg() - 1 {
        fail(stage, SeqError::NotNormal { at: i + 1 });
        return;
    }
    stage.q[i].set(qi).expect("fresh");
    stage.f[i + 1].set(f_next).expect("fresh");
    if i + 1 < stage.n {
        s.spawn(move |s2| start_iteration(stage, i + 1, s2));
    } else {
        stage.outcome.set((stage.n, None)).expect("fresh");
    }
}

fn assemble(stage: Stage) -> Result<RemainderSeq, SolveError> {
    let n = stage.n;
    let (n_star, gcd) = stage
        .outcome
        .into_inner()
        .ok_or_else(|| SolveError::Internal("remainder stage ended without an outcome".into()))?;
    let mut f: Vec<Poly> = Vec::with_capacity(n + 1);
    let mut q: Vec<Poly> = vec![Poly::zero(); n.max(1)];
    for (i, cell) in stage.f.into_iter().enumerate() {
        match cell.into_inner() {
            Some(p) => f.push(p),
            None => {
                debug_assert!(i > n_star, "F_{i} missing before termination point");
                break;
            }
        }
    }
    for (i, cell) in stage.q.into_iter().enumerate() {
        if let Some(p) = cell.into_inner() {
            q[i] = p;
        }
    }
    if n_star < n {
        // Sturm validation on the un-extended chain, then extend
        // per Eqs (10)–(12) exactly like the sequential path.
        let distinct_real = rr_poly::remainder::sturm_variations_from_lc(&f[..=n_star]);
        if distinct_real != n_star {
            return Err(SolveError::Seq(SeqError::NotRealRooted {
                distinct_real,
                expected: n_star,
            }));
        }
        f.truncate(n_star + 1);
        f[n_star] = Poly::one();
        #[allow(clippy::needless_range_loop)] // k is the paper's index
        for k in n_star..n {
            q[k] = Poly::one();
            if k > n_star {
                f.push(Poly::one());
            }
        }
        f.push(Poly::zero());
    } else {
        let distinct_real = rr_poly::remainder::sturm_variations_from_lc(&f);
        if distinct_real != n {
            return Err(SolveError::Seq(SeqError::NotRealRooted { distinct_real, expected: n }));
        }
    }
    debug_assert_eq!(f.len(), n + 1);
    Ok(RemainderSeq { f, q, n, n_star, gcd })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The stage on a dedicated pool under a fresh context; returns its
    /// result and the context's cost.
    fn run_stage(
        p: &Poly,
        threads: usize,
    ) -> (Result<RemainderSeq, SeqError>, rr_mp::metrics::CostSnapshot) {
        // Every task installs the context, as the solver's do.
        let ctx = rr_mp::SolveCtx::new(rr_mp::Profile::Paper);
        let task_ctx = ctx.clone();
        let wrapper: TaskWrapper = Arc::new(move |task| task_ctx.run(task));
        let pool = Pool::new(threads);
        let out = ctx.run(|| parallel_remainder_on(&pool, threads, wrapper, None, p));
        let out = out.map(|(rs, _)| rs).map_err(|e| match e {
            SolveError::Seq(e) => e,
            other => panic!("unsupervised remainder stage failed: {other}"),
        });
        (out, ctx.snapshot())
    }

    fn check_matches_sequential(p: &Poly, threads: usize) {
        let seq = remainder_sequence(p);
        let (par, _) = run_stage(p, threads);
        match (seq, par) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.f, b.f);
                assert_eq!(a.q, b.q);
                assert_eq!(a.n, b.n);
                assert_eq!(a.n_star, b.n_star);
                assert_eq!(a.gcd, b.gcd);
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("mismatch: seq={a:?} par={b:?}"),
        }
    }

    #[test]
    fn matches_sequential_on_distinct_roots() {
        for threads in [2usize, 4, 8] {
            let roots: Vec<Int> = (1..=9i64).map(|r| Int::from(r * r)).collect();
            check_matches_sequential(&Poly::from_roots(&roots), threads);
        }
    }

    #[test]
    fn matches_sequential_on_repeated_roots() {
        let roots: Vec<Int> = [1i64, 1, 2, 5, 5, 5].iter().map(|&r| Int::from(r)).collect();
        check_matches_sequential(&Poly::from_roots(&roots), 4);
    }

    #[test]
    fn matches_sequential_on_invalid_input() {
        // x^4 + 1: NotNormal; (x^2+1)(x-1)(x+2): NotRealRooted.
        check_matches_sequential(&Poly::from_i64(&[1, 0, 0, 0, 1]), 4);
        let p = &Poly::from_i64(&[1, 0, 1]) * &Poly::from_i64(&[-2, -1, 1]);
        check_matches_sequential(&p, 4);
    }

    #[test]
    fn single_thread_falls_back() {
        let p = Poly::from_roots(&[Int::from(1), Int::from(4)]);
        check_matches_sequential(&p, 1);
    }

    #[test]
    fn degree_two_and_three_edge_cases() {
        check_matches_sequential(&Poly::from_roots(&[Int::from(-1), Int::from(1)]), 3);
        check_matches_sequential(
            &Poly::from_roots(&[Int::from(0), Int::from(2), Int::from(4)]),
            3,
        );
    }

    #[test]
    fn cost_attributed_to_remainder_phase() {
        let roots: Vec<Int> = (1..=12i64).map(Int::from).collect();
        let p = Poly::from_roots(&roots);
        let (rs, d) = run_stage(&p, 4);
        rs.unwrap();
        assert!(d.phase(Phase::RemainderSeq).mul_count > 0);
        assert_eq!(d.phase(Phase::TreePoly).mul_count, 0);
    }
}
