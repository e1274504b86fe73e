//! # rr-sched — the paper's dynamic scheduling runtime
//!
//! Narendran & Tiwari's implementation (Section 3) uses *dynamic
//! scheduling*: the computation is divided into tasks kept in a shared
//! task queue; whenever a processor becomes free it picks the first task
//! from the queue; completing a task usually adds other tasks to the
//! queue. This crate is that runtime:
//!
//! * [`pool::Pool`] — persistent worker threads draining per-solve
//!   [`Pool::scope`](pool::Pool::scope)s to quiescence; tasks may spawn
//!   further tasks through [`pool::Scope`]. Each scope is an independent
//!   FIFO queue (`crossbeam_deque::Injector`, like the paper's queue)
//!   with its own task-id space, quiescence counter, concurrency cap and
//!   task trace, so concurrent solves share workers without sharing
//!   state; idle workers park on a condvar. [`pool::run`] is the
//!   one-shot entry point on a dedicated pool.
//! * [`graph::Gate`] — the "status data structure" of Section 3.2: a
//!   dependency counter whose final arrival tells the completing task to
//!   spawn the gated successor.
//! * [`static_sched`] — the *earlier static scheduling policy* the paper
//!   mentions in footnote 3, kept as an ablation baseline: tasks are
//!   pre-assigned round-robin within barrier-separated rounds.

//! * [`sim`] — trace-driven scheduling simulation: replays a recorded
//!   task graph on `P` *virtual* processors, so the paper's speedup
//!   tables can be reproduced even on hosts with fewer cores than the
//!   Sequent Symmetry's 20; [`sim::critical_path`] gives the `T_∞`
//!   bound.
//!
//! Observability: every scope records each executed task once, as a
//! [`TaskRecord`] (start timestamp, duration, executing worker, queue
//! depth at its steal). The scope's [`TaskTrace`], the per-worker
//! columns of its [`PoolStats`] and the registry's task series are all
//! read from that record; steal/idle counters
//! ([`PoolStats::steal_retries`] / [`PoolStats::empty_polls`]) complete
//! the picture. The `rr-core` report layer fuses the trace with `rr-obs`
//! phase spans into Chrome-trace exports.

//! Supervision: [`cancel::CancelToken`] gives scopes cooperative
//! cancellation (deadlines, budgets, explicit requests) checked at task
//! boundaries; [`Pool::try_scope`](pool::Pool::try_scope) reports task
//! panics and cancellation as [`pool::ScopeAbort`] values — payloads
//! preserved, queue drained, pool reusable — instead of unwinding; and
//! [`fault`] injects deterministic, seeded panics/delays through the
//! [`TaskWrapper`] hook so all of it is testable.

#![warn(missing_docs)]

pub mod cancel;
pub mod estimate;
pub mod fault;
pub mod graph;
pub mod pool;
pub mod sim;
pub mod static_sched;

pub use cancel::{CancelReason, CancelToken};
pub use estimate::{estimated_queue_wait, task_latency_p50};
pub use fault::{FaultAction, FaultInjector, FaultPlan};
pub use graph::Gate;
pub use pool::{
    current_parallelism, current_task_id, join_here, run, set_worker_idle_hook,
    AbortKind, Pool, PoolStats, Scope, ScopeAbort, ScopeConfig, TaskRecord, TaskTrace, TaskWrapper,
};
pub use sim::{concurrency_profile, critical_path, simulate_makespan, simulate_speedups};
