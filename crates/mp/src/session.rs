//! Session contexts: per-solve kernel profile and metrics ownership.
//!
//! A [`SolveCtx`] bundles the two pieces of runtime context that used to
//! be process-global mutable state:
//!
//! * the kernel **profile** ([`crate::Profile`]) to dispatch
//!   [`crate::Int`] and `Poly` kernels to, and
//! * a private **metrics sink** that receives every event performed
//!   under the context: the model counters read by
//!   [`SolveCtx::snapshot`] and the execution counters read by
//!   [`SolveCtx::exec`].
//!
//! A context is *installed* on a thread for a scope
//! ([`SolveCtx::install`] / [`SolveCtx::run`]); while installed, all
//! `Int` arithmetic on that thread dispatches to the context's profile
//! and records into the context's sink. Worker threads executing tasks
//! on behalf of a solve install the solve's context around each task, so
//! the context follows the *work*, not the thread — two solves can
//! interleave tasks on the same worker without cross-attributing a
//! single event.
//!
//! Installation is scoped and stack-shaped: contexts nest, the innermost
//! wins, and the guard restores the previous state on drop (including
//! unwind). A thread with no context installed dispatches as
//! [`Profile::Paper`] and records nothing.
//!
//! The recording path stays contention-free: the first install of a
//! given context on a thread registers one per-thread counter block with
//! the context's sink and caches it in thread-local storage, so steady
//! state recording is two thread-local reads and a relaxed atomic add.
//! Every event — model charge or kernel counter — reaches that block
//! through one router, `record`.
//!
//! ```
//! use rr_mp::{metrics::Phase, Int, Profile, SolveCtx};
//!
//! let fast = SolveCtx::new(Profile::Fast);
//! let paper = SolveCtx::new(Profile::Paper);
//! let product = fast.run(|| Int::from(3u64) * Int::from(5u64));
//! paper.run(|| {
//!     let _ = Int::from(7u64) * Int::from(9u64);
//! });
//! assert_eq!(product, Int::from(15u64));
//! // Each context saw exactly its own event.
//! assert_eq!(fast.snapshot().total().mul_count, 1);
//! assert_eq!(paper.snapshot().total().mul_count, 1);
//! ```

use crate::metrics::{CostSnapshot, ExecSnapshot, MetricsSink, ThreadCounters};
use crate::Profile;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Arc, Weak};

/// Per-solve context: a kernel profile plus a private metrics sink, and
/// optionally an `rr-obs` span recorder for traced solves and a cancel
/// token for supervised solves. Cheap to clone (all clones share the
/// sink); `Send + Sync`, so a solve can hand clones to its worker tasks.
#[derive(Clone, Debug)]
pub struct SolveCtx {
    profile: Profile,
    sink: MetricsSink,
    recorder: Option<rr_obs::Recorder>,
    cancel: Option<rr_sched::CancelToken>,
}

/// One installed context on a thread's ambient stack, with the
/// per-(sink, thread) counter block resolved once at install time.
struct ActiveCtx {
    profile: Profile,
    counters: Arc<ThreadCounters>,
}

thread_local! {
    /// Stack of installed contexts; the innermost (last) one receives
    /// this thread's arithmetic events.
    static AMBIENT: RefCell<Vec<ActiveCtx>> = const { RefCell::new(Vec::new()) };
    /// Cache of this thread's counter block per sink id, so re-installing
    /// the same context never re-locks the sink registry.
    static COUNTER_CACHE: RefCell<Vec<(u64, Weak<ThreadCounters>)>> = const { RefCell::new(Vec::new()) };
}

impl SolveCtx {
    /// A fresh context on the given kernel profile with an empty private
    /// sink.
    pub fn new(profile: Profile) -> SolveCtx {
        SolveCtx {
            profile,
            sink: MetricsSink::new(),
            recorder: None,
            cancel: None,
        }
    }

    /// Attaches a span recorder: while this context is installed, the
    /// recorder is installed too (so `metrics::with_phase` sites emit
    /// wall-clock phase spans alongside their operation counts), and it
    /// follows the context onto worker threads.
    pub fn with_recorder(mut self, recorder: rr_obs::Recorder) -> SolveCtx {
        self.recorder = Some(recorder);
        self
    }

    /// The span recorder attached to this context, if any.
    pub fn recorder(&self) -> Option<&rr_obs::Recorder> {
        self.recorder.as_ref()
    }

    /// Attaches a cooperative cancel token: the solve layers carry it
    /// from the session entry point (deadline/budget supervision) down
    /// to the pool scope and the phase-boundary checks. The token rides
    /// on the context so every layer that already receives a `SolveCtx`
    /// can observe cancellation without new plumbing.
    pub fn with_cancel(mut self, token: rr_sched::CancelToken) -> SolveCtx {
        self.cancel = Some(token);
        self
    }

    /// The cancel token attached to this context, if any.
    pub fn cancel_token(&self) -> Option<&rr_sched::CancelToken> {
        self.cancel.as_ref()
    }

    /// Aggregates every event recorded under this context, on any
    /// thread, since its creation. The sink starts empty, so no
    /// before/after subtraction is needed: this *is* the context's cost.
    pub fn snapshot(&self) -> CostSnapshot {
        self.sink.snapshot()
    }

    /// Execution counters recorded under this context, per phase and
    /// [`crate::metrics::Exec`] label: what the kernels physically ran
    /// (Kronecker products, Newton and 2-adic divisions, fork-join
    /// splits, scratch-arena cold misses), which the profile-invariant
    /// cost model in [`SolveCtx::snapshot`] deliberately does not
    /// reflect.
    pub fn exec(&self) -> ExecSnapshot {
        self.sink.exec()
    }

    /// This thread's counter block in the context's sink, from the
    /// thread-local cache when possible.
    fn thread_counters(&self) -> Arc<ThreadCounters> {
        let id = self.sink.id();
        COUNTER_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            // Drop cache entries whose sink died (its Arc'd counters are
            // kept alive only by the sink registry).
            cache.retain(|(_, weak)| weak.strong_count() > 0);
            if let Some((_, weak)) = cache.iter().find(|(cached, _)| *cached == id) {
                if let Some(c) = weak.upgrade() {
                    return c;
                }
            }
            let c = self.sink.register_thread();
            cache.push((id, Arc::downgrade(&c)));
            c
        })
    }

    /// Installs this context on the calling thread until the returned
    /// guard drops. Nested installs stack; the innermost wins. A
    /// recorder attached via [`SolveCtx::with_recorder`] is installed
    /// for the same extent.
    ///
    /// The guard is not `Send`: it must drop on the thread that created
    /// it (context installation is per-thread state).
    pub fn install(&self) -> CtxGuard {
        let obs = self.recorder.as_ref().map(rr_obs::Recorder::install);
        let active = ActiveCtx {
            profile: self.profile,
            counters: self.thread_counters(),
        };
        AMBIENT.with(|stack| stack.borrow_mut().push(active));
        CtxGuard {
            _obs: obs,
            _not_send: PhantomData,
        }
    }

    /// Runs `f` with this context installed, restoring the previous
    /// ambient state afterwards (also on unwind).
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.install();
        f()
    }
}

/// Uninstalls the innermost context when dropped. Returned by
/// [`SolveCtx::install`].
#[must_use = "dropping the guard immediately uninstalls the context"]
pub struct CtxGuard {
    // Uninstalls the attached recorder after the context pops (struct
    // fields drop after the `Drop::drop` body runs).
    _obs: Option<rr_obs::InstallGuard>,
    // Raw-pointer marker makes the guard !Send + !Sync: it manipulates
    // the installing thread's ambient stack and must drop there.
    _not_send: PhantomData<*const ()>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        AMBIENT.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// The kernel profile the calling thread dispatches to: the innermost
/// installed context's, else [`Profile::Paper`]. This is the single
/// dispatch point every kernel family consults — the magnitude kernels
/// in [`crate::nat`], [`crate::ExactDivisor`], and `rr-poly`'s
/// `Poly × Poly`.
#[inline]
pub fn active_profile() -> Profile {
    AMBIENT.with(|stack| stack.borrow().last().map_or(Profile::Paper, |a| a.profile))
}

/// True if the calling thread currently has a context installed.
pub fn has_current() -> bool {
    AMBIENT.with(|stack| !stack.borrow().is_empty())
}

/// Runs `f` on the calling thread's counter block in the innermost
/// installed context's sink; does nothing if no context is installed.
/// The single routing point of every event the metrics module records.
#[inline]
pub(crate) fn record(f: impl FnOnce(&ThreadCounters)) {
    AMBIENT.with(|stack| {
        if let Some(active) = stack.borrow().last() {
            f(&active.counters);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{self, Phase};
    use crate::Int;

    #[test]
    fn session_events_do_not_reach_enclosing_context() {
        let outer = SolveCtx::new(Profile::Paper);
        let ctx = SolveCtx::new(Profile::Paper);
        outer.run(|| {
            ctx.run(|| {
                metrics::with_phase(Phase::TreePoly, || {
                    let _ = Int::from(12345u64) * Int::from(99999u64);
                    metrics::count(&[(metrics::Exec::Allocs, 1)]);
                })
            })
        });
        assert_eq!(outer.snapshot(), metrics::CostSnapshot::default());
        assert_eq!(outer.exec(), ExecSnapshot::default());
        assert_eq!(ctx.snapshot().phase(Phase::TreePoly).mul_count, 1);
        assert_eq!(ctx.snapshot().phase(Phase::TreePoly).mul_bits, 14 * 17);
        assert_eq!(ctx.exec().phase(Phase::TreePoly, metrics::Exec::Allocs), 1);
    }

    #[test]
    fn nested_contexts_innermost_wins_and_restores() {
        let outer = SolveCtx::new(Profile::Paper);
        let inner = SolveCtx::new(Profile::Fast);
        outer.run(|| {
            let _ = Int::from(3u64) * Int::from(5u64);
            inner.run(|| {
                let _ = Int::from(3u64) * Int::from(5u64);
                let _ = Int::from(3u64) * Int::from(5u64);
            });
            let _ = Int::from(3u64) * Int::from(5u64);
        });
        assert_eq!(outer.snapshot().total().mul_count, 2);
        assert_eq!(inner.snapshot().total().mul_count, 2);
        assert!(!has_current());
    }

    #[test]
    fn guard_restores_on_unwind() {
        let ctx = SolveCtx::new(Profile::Paper);
        let r = std::panic::catch_unwind(|| {
            ctx.run(|| panic!("boom"));
        });
        assert!(r.is_err());
        assert!(!has_current());
    }

    #[test]
    fn context_aggregates_across_threads() {
        let ctx = SolveCtx::new(Profile::Fast);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let ctx = ctx.clone();
                std::thread::spawn(move || {
                    ctx.run(|| {
                        metrics::with_phase(Phase::Sieve, || {
                            let _ = Int::from(7u64) * Int::from(9u64);
                        })
                    })
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ctx.snapshot().phase(Phase::Sieve).mul_count, 4);
    }

    #[test]
    fn reinstall_on_same_thread_uses_one_counter_block() {
        // Repeated install/uninstall must not grow the sink registry per
        // install: the per-thread block is cached. (Observable effect:
        // totals still exact; this exercises the cache path.)
        let ctx = SolveCtx::new(Profile::Paper);
        for _ in 0..100 {
            ctx.run(|| {
                let _ = Int::from(3u64) * Int::from(5u64);
            });
        }
        assert_eq!(ctx.snapshot().total().mul_count, 100);
    }

    #[test]
    fn attached_recorder_is_installed_with_the_context() {
        let rec = rr_obs::Recorder::new();
        let traced = SolveCtx::new(Profile::Paper).with_recorder(rec.clone());
        let plain = SolveCtx::new(Profile::Paper);
        traced.run(|| {
            assert!(rr_obs::active());
            metrics::with_phase(Phase::Newton, || {
                let _ = Int::from(17u64) * Int::from(19u64);
            });
        });
        assert!(!rr_obs::active());
        plain.run(|| {
            assert!(!rr_obs::active());
            metrics::with_phase(Phase::Newton, || {
                let _ = Int::from(17u64) * Int::from(19u64);
            });
        });
        // Only the traced context produced a span, and both contexts
        // counted their own multiplication: spans and counts agree.
        let trace = rec.finish();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, "newton");
        assert_eq!(trace.spans[0].cat, "phase");
        assert_eq!(traced.snapshot().phase(Phase::Newton).mul_count, 1);
        assert_eq!(plain.snapshot().phase(Phase::Newton).mul_count, 1);
    }

    #[test]
    fn recorder_follows_context_across_threads() {
        let rec = rr_obs::Recorder::new();
        let ctx = SolveCtx::new(Profile::Fast).with_recorder(rec.clone());
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let ctx = ctx.clone();
                std::thread::spawn(move || {
                    ctx.run(|| {
                        metrics::with_phase(Phase::Sieve, || {
                            let _ = Int::from(7u64) * Int::from(9u64);
                        })
                    })
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let trace = rec.finish();
        assert_eq!(trace.spans.len(), 3);
        assert!(trace.spans.iter().all(|s| s.name == "sieve"));
        // One track per recording thread.
        let tids: std::collections::HashSet<u32> = trace.spans.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 3);
        assert_eq!(ctx.snapshot().phase(Phase::Sieve).mul_count, 3);
    }

    #[test]
    fn ambient_profile_defaults_to_paper() {
        assert_eq!(active_profile(), Profile::Paper);
        let ctx = SolveCtx::new(Profile::Fast);
        ctx.run(|| {
            assert_eq!(active_profile(), Profile::Fast);
            SolveCtx::new(Profile::Paper).run(|| assert_eq!(active_profile(), Profile::Paper));
            assert_eq!(active_profile(), Profile::Fast);
        });
        assert_eq!(active_profile(), Profile::Paper);
    }
}
