//! # rr-core — the Narendran–Tiwari parallel root approximation algorithm
//!
//! Approximates all roots of a polynomial `p0 ∈ ℤ[x]` whose roots are all
//! real, to a requested precision `µ`: each output is the dyadic rational
//! `⌈2^µ·x⌉ / 2^µ` for a true root `x`. This is the practical variant of
//! the Ben-Or–Tiwari NC algorithm studied by Narendran & Tiwari (1991).
//!
//! ## Pipeline
//!
//! 1. **Remainder stage** ([`rem_stage`], paper Sec 3.1): the standard
//!    remainder/quotient sequences of `p0` (substrate in
//!    [`rr_poly::remainder`]), optionally parallelized one task per output
//!    coefficient.
//! 2. **Tree stage** ([`tree`], [`treepoly`], paper Secs 2.1 & 3.2):
//!    the interleaving tree over index ranges `[i, j]`; each non-spine
//!    node's polynomial `P_{i,j}` is entry `(2,2)` of
//!    `T_{i,j} = T_{k+1,j}·Ŝ_k·T_{i,k−1} / (c_k²c_{k−1}²)`, computed
//!    bottom-up with each matrix product split into four entry tasks.
//!    Spine nodes `[i, n]` read `P_{i,n} = F_{i−1}` from the remainder
//!    sequence; leaves `[i, i]` have `P_{i,i} = Q_i`.
//! 3. **Interval stage** ([`interval`], [`refine`], paper Sec 2.2): the
//!    children's roots interleave the parent's, so each gap between
//!    consecutive child approximations holds exactly one parent root;
//!    O(1) exact sign tests classify each gap (cases 1/2a/2b/2c) and a
//!    double-exponential sieve + `log2(10d²)` bisections + safeguarded
//!    Newton refine the isolated roots — all in scaled integer arithmetic
//!    ([`rr_poly::eval::ScaledPoly`]).
//!
//! Repeated roots are handled by the extended sequence of Sec 2.3 (the
//! tree then produces the distinct roots; [`multiple`] additionally
//! recovers multiplicities).
//!
//! ## Drivers
//!
//! * [`seq_solver`] — sequential reference.
//! * [`par_solver`] — the paper's dynamic task-queue execution
//!   ([`rr_sched`]), `P` configurable.
//! * [`static_solver`] — the static-scheduling ablation (footnote 3).
//!
//! The public entry point is [`RootApproximator`].
//!
//! ## Failure model
//!
//! Solves never unwind: every failure on the solve path is a typed
//! [`SolveError`]. Supervised solves ([`Session::solve_with_deadline`],
//! [`Session::solve_supervised`]) honour wall-clock deadlines,
//! multiplication budgets, and shared [`rr_sched::CancelToken`]s at task
//! and phase boundaries; worker panics are contained to the solve's pool
//! scope and reported as [`SolveError::TaskPanicked`] with the payload
//! preserved; and inputs the paper's pipeline rejects degrade to the
//! squarefree part or the Sturm-bisection baseline (marker on
//! [`RootsResult::degraded`]) instead of erroring. See DESIGN.md §11.
//!
//! ```
//! use rr_core::{RootApproximator, SolverConfig};
//! use rr_poly::Poly;
//! use rr_mp::Int;
//!
//! // (x-1)(x-2)(x-3), roots to 8 fractional bits
//! let p = Poly::from_roots(&[Int::from(1), Int::from(2), Int::from(3)]);
//! let result = RootApproximator::new(SolverConfig::sequential(8))
//!     .approximate_roots(&p)
//!     .unwrap();
//! let roots: Vec<f64> = result.roots.iter().map(|r| r.to_f64()).collect();
//! assert_eq!(roots, vec![1.0, 2.0, 3.0]);
//! ```

#![warn(missing_docs)]

pub mod dyadic;
pub mod interval;
pub mod multiple;
pub mod par_solver;
pub mod refine;
pub mod rem_stage;
pub mod report;
pub mod seq_solver;
pub mod session;
pub mod solver;
pub mod static_solver;
pub mod tree;
pub mod treepoly;

pub use dyadic::Dyadic;
pub use report::{CounterSummary, PhaseReport, SolveReport};
pub use rr_mp::Profile;
pub use rr_sched::{CancelReason, CancelToken, FaultAction, FaultInjector, FaultPlan};
pub use session::{solve_batch, solve_batch_on, Runtime, Session, SolveLimits};
pub use solver::{
    Degradation, ExecMode, Grain, PartialStats, RefineStrategy, RootApproximator, RootsResult,
    SolveError, SolveStats, SolverConfig,
};
