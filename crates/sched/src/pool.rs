//! The dynamic task pool: shared persistent workers draining per-solve
//! FIFO scopes.
//!
//! Semantics follow the paper's description exactly: one FIFO queue per
//! computation, idle processors take the oldest task, tasks may enqueue
//! further tasks, and the computation ends when every task has completed
//! (quiescence). What the paper ran once per experiment, this module
//! runs many times over the same threads: a [`Pool`] owns long-lived
//! worker threads, and each solve opens a [`Pool::scope`] — an
//! independent queue with its own task-id space, quiescence counter,
//! panic flag, optional trace, and a *cap* on how many workers may drain
//! it concurrently. Scopes are what make concurrent solves composable:
//! two solves on the same pool interleave tasks on the same workers
//! without sharing ids, counters, or traces.
//!
//! Worker parking uses one condvar, notified only when a scope registers
//! and when the pool shuts down. Publishing work into an open scope —
//! [`Scope::spawn_boxed`] enqueueing a task, `join_on` publishing the
//! right half of a split — does not notify it, so a parked worker finds
//! that work only when its 200 µs timed wait runs out (or a scope
//! registration wakes it). Until then the submitter keeps running: a
//! join half nobody claimed in time is retracted and run inline. With no
//! scopes open the workers park indefinitely (a fully idle pool burns no
//! CPU).
//!
//! The one-shot entry points [`run`] / [`run_traced`] remain for code
//! that wants the historical pool-per-run behavior (a dedicated pool is
//! created and torn down around the single scope).

use crate::cancel::{CancelReason, CancelToken};
use crossbeam_deque::{Injector, Steal};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hooks run by a worker right before it parks indefinitely (no scopes
/// open). Registered via [`set_worker_idle_hook`].
static IDLE_HOOKS: Mutex<Vec<fn()>> = Mutex::new(Vec::new());

/// Registers a process-wide hook that every pool worker runs just
/// before parking indefinitely (i.e. when no scope is open, so the pool
/// is fully idle). The arithmetic layer uses this to release the
/// worker's thread-local scratch arena back to the system allocator,
/// and the metrics layer to fold the worker's shards into the registry
/// — `rr-sched` cannot name those layers (the dependencies point the
/// other way), so the releases are injected here as plain function
/// pointers.
///
/// Hooks run in registration order; registering the same function twice
/// is a no-op (the hooks are process-wide resource-release valves, not
/// per-pool callbacks).
pub fn set_worker_idle_hook(hook: fn()) {
    let mut hooks = IDLE_HOOKS.lock();
    if !hooks.contains(&hook) {
        hooks.push(hook);
    }
}

/// Always-on scheduler metrics ([`rr_obs::metrics`]): fleet-level queue
/// and task telemetry aggregated across every pool in the process, the
/// continuous counterpart of the per-scope [`PoolStats`].
mod m {
    use rr_obs::metrics::{Counter, Gauge, Histogram};
    use std::sync::LazyLock;

    pub(super) static TASKS: LazyLock<Counter> = rr_obs::register_metric!(
        counter, "rr_sched_tasks_total", "Pool tasks executed");
    pub(super) static TASK_LATENCY: LazyLock<Histogram> = rr_obs::register_metric!(
        histogram, "rr_sched_task_latency_ns", "Per-task execution wall time (ns)");
    pub(super) static STEAL_RETRIES: LazyLock<Counter> = rr_obs::register_metric!(
        counter, "rr_sched_steal_retries_total", "Steal collisions while draining scopes");
    pub(super) static EMPTY_POLLS: LazyLock<Counter> = rr_obs::register_metric!(
        counter, "rr_sched_empty_polls_total", "Polls that found a scope queue empty");
    pub(super) static PANICKED: LazyLock<Counter> = rr_obs::register_metric!(
        counter, "rr_sched_panicked_tasks_total", "Tasks that panicked");
    pub(super) static CANCELLED: LazyLock<Counter> = rr_obs::register_metric!(
        counter, "rr_sched_cancelled_tasks_total",
        "Tasks dropped unrun by cancelled or panicked scopes");
    pub(super) static QUEUE_DEPTH: LazyLock<Gauge> = rr_obs::register_metric!(
        gauge, "rr_sched_queue_depth", "Queued tasks in the most recently polled scope");
    pub(super) static WORKERS: LazyLock<Gauge> = rr_obs::register_metric!(
        gauge, "rr_sched_workers", "Live pool worker threads");
    pub(super) static JOINS: LazyLock<Counter> = rr_obs::register_metric!(
        counter, "rr_sched_joins_total", "Fork-join splits published to a scope");
    pub(super) static JOIN_STEALS: LazyLock<Counter> = rr_obs::register_metric!(
        counter, "rr_sched_join_steals_total",
        "Fork-join halves executed by a thread other than the submitter");
}

/// A task: runs once, may spawn more tasks through the scope.
pub type Task<'env> = Box<dyn FnOnce(&Scope<'env>) + Send + 'env>;

/// A hook run around every task of a scope (e.g. to install a per-solve
/// session context on the executing worker). Receives the task as a
/// callable and must invoke it exactly once.
pub type TaskWrapper = Arc<dyn Fn(&mut dyn FnMut()) + Send + Sync>;

/// Type-erased task as stored in a scope's queue. The `'env` lifetime is
/// erased at spawn time; [`Pool::scope`] blocks until quiescence, so no
/// task (or captured borrow) outlives the environment.
type ErasedTask = Box<dyn FnOnce(&Scope<'static>) + Send + 'static>;

struct Queued {
    id: u64,
    parent: Option<u64>,
    f: ErasedTask,
}

/// One executed task in a [`TaskTrace`]: its spawner, its measured
/// timing, and the worker that ran it. The spawner edge is the task's
/// *last-arriving* dependency (a gated task is enqueued by whichever
/// prerequisite finishes last), so replaying the trace respects the true
/// precedence constraints observed in this run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskRecord {
    /// Task id (spawn order within the scope, starting at 0).
    pub id: u64,
    /// Id of the task that spawned this one (`None` for the seed).
    pub parent: Option<u64>,
    /// Measured execution time in nanoseconds.
    pub nanos: u64,
    /// Execution start, nanoseconds since the scope opened
    /// ([`TaskTrace::epoch`]).
    pub start_ns: u64,
    /// Pool-worker index that executed the task.
    pub worker: usize,
}

/// The recorded task graph of one scope — input to
/// [`crate::sim::simulate_makespan`], which replays it on any number of
/// virtual processors. This is how the speedup experiments run on hosts
/// with fewer cores than the paper's 20-processor Sequent Symmetry.
///
/// Ids are scope-local (every scope counts from 0), so traces from
/// concurrent solves on a shared pool never alias.
#[derive(Debug, Clone, Default)]
pub struct TaskTrace {
    /// Executed tasks (unordered; ids are spawn order).
    pub records: Vec<TaskRecord>,
    /// The `Instant` the scope opened; all `start_ns` values and
    /// queue-sample times are offsets from it. `None` for synthetic
    /// traces built by hand (e.g. in the simulator tests).
    pub epoch: Option<Instant>,
    /// `(t_ns, depth)` samples of the scope's pending-task count, taken
    /// by workers as they steal. Exported as a `"queue-depth"` counter
    /// track in Chrome traces.
    pub queue_samples: Vec<(u64, u32)>,
}

impl TaskTrace {
    /// Total work (sum of task durations).
    pub fn total_work(&self) -> Duration {
        Duration::from_nanos(self.records.iter().map(|r| r.nanos).sum())
    }
}

thread_local! {
    static CURRENT_TASK: Cell<Option<u64>> = const { Cell::new(None) };
    /// The scope a pool worker is currently draining. Installed by
    /// [`drain_scope`] for the whole drain, so arithmetic kernels deep
    /// inside a task can reach the scope ([`join_here`]) without the
    /// [`Scope`] handle being plumbed through every call signature.
    static CURRENT_SCOPE: Cell<Option<ScopeRef>> = const { Cell::new(None) };
}

/// Raw handle to the scope being drained on this thread. The pointer is
/// valid for exactly the dynamic extent of [`drain_scope`], which holds
/// an `Arc<ScopeCore>` across it.
#[derive(Clone, Copy)]
struct ScopeRef {
    core: *const ScopeCore,
}

/// The scope-local id of the task currently executing on this thread
/// (`None` outside a pool task). Fault injectors and diagnostics use
/// this to address "the k-th spawned task" deterministically.
pub fn current_task_id() -> Option<u64> {
    CURRENT_TASK.with(Cell::get)
}

/// Best-effort extraction of a human-readable message from a panic
/// payload (`&str` and `String` payloads cover `panic!` in practice).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What a worker captured when a task panicked: the task, a rendered
/// message, and the original payload for re-raising.
struct PanicInfo {
    task_id: u64,
    message: String,
    payload: Box<dyn Any + Send>,
}

/// Buffers for a traced scope: executed-task records plus queue-depth
/// samples, both stamped against the scope's epoch.
struct TraceBuf {
    records: Mutex<Vec<TaskRecord>>,
    queue: Mutex<Vec<(u64, u32)>>,
}

/// The shared state of one scope: queue, quiescence counter, id space,
/// panic flag, concurrency cap, stats, and optional trace/wrapper.
struct ScopeCore {
    injector: Injector<Queued>,
    /// Tasks spawned but not yet completed (queued + running).
    pending: AtomicUsize,
    next_id: AtomicU64,
    panicked: AtomicBool,
    /// Sticky local mirror of the cancel token: once a worker observes
    /// the token fired, the scope is abandoned even if the token is
    /// (somehow) reused elsewhere.
    cancelled: AtomicBool,
    /// Cooperative cancellation, checked by workers at task boundaries.
    cancel: Option<CancelToken>,
    /// First panic captured in this scope (payload preserved).
    panic_info: Mutex<Option<PanicInfo>>,
    /// Tasks whose closure panicked.
    panicked_tasks: AtomicU64,
    /// Tasks dropped without running (abandoned queue or post-abort
    /// spawns).
    dropped_tasks: AtomicU64,
    /// Max workers draining this scope concurrently.
    cap: usize,
    /// Workers currently holding a drain slot.
    active: AtomicUsize,
    /// Time zero for all of this scope's task timestamps.
    epoch: Instant,
    /// `Steal::Retry` collisions observed while draining this scope.
    steal_retries: AtomicU64,
    /// Empty polls: a worker claimed a drain slot and found no task.
    empty_polls: AtomicU64,
    wrapper: Option<TaskWrapper>,
    trace: Option<TraceBuf>,
    /// (tasks, busy) per pool-worker index.
    stats: Mutex<Vec<(u64, Duration)>>,
    done_lock: Mutex<()>,
    done_cv: Condvar,
    /// Published fork-join stubs (addresses of stack-allocated
    /// [`JoinStub`]s), LIFO so thieves take the most recently split —
    /// and therefore largest-granularity — half first. A stub pointer is
    /// valid while it is in this list or claimed-and-executing: the
    /// submitting frame in [`join_on`] does not return (or unwind) until
    /// its stub is retracted or marked done.
    joins: Mutex<Vec<usize>>,
}

impl ScopeCore {
    fn new(
        cap: usize,
        traced: bool,
        wrapper: Option<TaskWrapper>,
        cancel: Option<CancelToken>,
    ) -> ScopeCore {
        assert!(cap > 0, "need at least one worker");
        ScopeCore {
            injector: Injector::new(),
            pending: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            panicked: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            cancel,
            panic_info: Mutex::new(None),
            panicked_tasks: AtomicU64::new(0),
            dropped_tasks: AtomicU64::new(0),
            cap,
            active: AtomicUsize::new(0),
            epoch: Instant::now(),
            steal_retries: AtomicU64::new(0),
            empty_polls: AtomicU64::new(0),
            wrapper,
            trace: traced.then(|| TraceBuf {
                records: Mutex::new(Vec::new()),
                queue: Mutex::new(Vec::new()),
            }),
            stats: Mutex::new(Vec::new()),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
            joins: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the scope opened (saturating: a worker whose
    /// first steal races the epoch read reports 0).
    fn now_ns(&self) -> u64 {
        Instant::now()
            .checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_nanos() as u64)
    }

    /// Claims a drain slot if the cap allows; release with `release`.
    fn try_claim(&self) -> bool {
        let mut cur = self.active.load(Ordering::Relaxed);
        loop {
            if cur >= self.cap {
                return false;
            }
            match self.active.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    fn release(&self) {
        self.active.fetch_sub(1, Ordering::Release);
    }

    fn finish_task(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last task out: wake the scope owner waiting for quiescence.
            let _g = self.done_lock.lock();
            self.done_cv.notify_all();
        }
    }

    /// Discards every queued task of an abandoned (poisoned or
    /// cancelled) scope so it can still quiesce. Every worker drains
    /// after each task it runs once the scope is abandoned; a task's
    /// spawns precede its own `finish_task`, so when `pending` reaches
    /// zero the queue is provably empty.
    fn drain_abandoned(&self) {
        loop {
            match self.injector.steal() {
                Steal::Success(q) => {
                    drop(q.f);
                    self.dropped_tasks.fetch_add(1, Ordering::Relaxed);
                    m::CANCELLED.inc();
                    self.finish_task();
                }
                Steal::Retry => continue,
                Steal::Empty => return,
            }
        }
    }

    /// True once the scope is being abandoned. Converts a fired cancel
    /// token into the sticky local flag; the never-cancelled fast path
    /// is two relaxed loads (plus one token flag load when a token is
    /// attached).
    fn abandoned(&self) -> bool {
        if self.panicked.load(Ordering::Relaxed) || self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                self.cancelled.store(true, Ordering::SeqCst);
                return true;
            }
        }
        false
    }

    /// Credits one executed task to `worker_idx`. Called *before* the
    /// task's `finish_task`, so by the time the scope owner observes
    /// quiescence every executed task is visible in the stats.
    fn record_task(&self, worker_idx: usize, busy: Duration) {
        let mut stats = self.stats.lock();
        if stats.len() <= worker_idx {
            stats.resize(worker_idx + 1, (0, Duration::ZERO));
        }
        stats[worker_idx].0 += 1;
        stats[worker_idx].1 += busy;
    }
}

/// Handle through which tasks spawn further tasks (the paper's
/// "add to the task queue"). Each handle is bound to one scope of one
/// [`Pool`]; spawned tasks join that scope's queue and id space.
pub struct Scope<'env> {
    core: Arc<ScopeCore>,
    _env: PhantomData<&'env ()>,
}

impl<'env> Scope<'env> {
    fn handle(core: Arc<ScopeCore>) -> Scope<'env> {
        Scope {
            core,
            _env: PhantomData,
        }
    }

    /// Enqueues a task. May be called from inside tasks or before the
    /// workers attach.
    pub fn spawn(&self, f: impl FnOnce(&Scope<'env>) + Send + 'env) {
        self.spawn_boxed(Box::new(f));
    }

    /// Enqueues an already-boxed task (avoids double boxing in helpers).
    pub fn spawn_boxed(&self, f: Task<'env>) {
        if self.core.panicked.load(Ordering::Relaxed)
            || self.core.cancelled.load(Ordering::Relaxed)
        {
            // The scope is being abandoned; new work is dropped so the
            // scope can quiesce.
            self.core.dropped_tasks.fetch_add(1, Ordering::Relaxed);
            m::CANCELLED.inc();
            return;
        }
        // SAFETY: erases `'env` to store the task in the 'static core.
        // `Pool::scope` does not return until `pending` is zero, i.e.
        // until every erased task has been consumed (run or dropped), so
        // no captured `'env` borrow is touched after `'env` ends.
        let f: ErasedTask = unsafe { std::mem::transmute::<Task<'env>, ErasedTask>(f) };
        let id = self.core.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT_TASK.with(Cell::get);
        self.core.pending.fetch_add(1, Ordering::SeqCst);
        self.core.injector.push(Queued { id, parent, f });
    }

    /// True once any task has panicked (the scope is being abandoned).
    pub fn is_poisoned(&self) -> bool {
        self.core.panicked.load(Ordering::Relaxed)
    }

    /// True once the scope's cancel token has fired (checked lazily) or
    /// a worker has already marked the scope cancelled. Long-running
    /// tasks can poll this to bail out early.
    pub fn is_cancelled(&self) -> bool {
        if self.core.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        self.core.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// The scope's cancel token, if one was attached.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.core.cancel.as_ref()
    }

    /// Runs `a` and `b`, potentially in parallel: `b` is published to
    /// this scope's workers while the calling thread runs `a`, then the
    /// caller either retracts `b` and runs it inline (nobody claimed it)
    /// or waits for the thief — helping with *other* published halves of
    /// the same scope while it waits, so a saturated pool can never
    /// deadlock on a join. Returns `true` iff `b` was executed by a
    /// thief.
    ///
    /// On a scope with `cap == 1` (or a poisoned/cancelled one) both
    /// closures run inline with no publication at all — fork-join on a
    /// single-worker pool is free.
    ///
    /// If either closure panics, the panic resurfaces on the calling
    /// thread (a thief's panic is captured in the stub and re-raised
    /// here), so scope poisoning works exactly as for a plain task body.
    pub fn join(&self, a: impl FnOnce() + Send, b: impl FnOnce() + Send) -> bool {
        join_on(&self.core, a, b)
    }
}

// ---------------------------------------------------------------------
// Fork-join: splitting one task's work across idle scope workers
// ---------------------------------------------------------------------

/// A published right-hand half of a [`Scope::join`] (or [`join_here`])
/// call. Lives on the submitting thread's stack; the scope's `joins`
/// list holds its address while it is claimable.
struct JoinStub {
    /// The closure, taken exactly once by whoever executes the stub.
    work: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    /// Set (under `done_lock`) after the closure ran or panicked.
    done: AtomicBool,
    /// A thief's captured panic, re-raised on the submitting thread.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl JoinStub {
    fn new(work: Box<dyn FnOnce() + Send>) -> JoinStub {
        JoinStub {
            work: Mutex::new(Some(work)),
            done: AtomicBool::new(false),
            panic: Mutex::new(None),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }
}

/// Claims the most recently published stub of `core`, if any, and
/// executes it. Returns whether a stub was executed. Claiming is
/// removal from the list under the lock, so every stub has exactly one
/// executor.
fn try_execute_join(core: &ScopeCore) -> bool {
    let ptr = core.joins.lock().pop();
    let Some(ptr) = ptr else { return false };
    // SAFETY: the pointer was taken from the live list; the submitting
    // frame blocks until `done` is set, so the stub outlives execution.
    let stub = unsafe { &*(ptr as *const JoinStub) };
    m::JOIN_STEALS.inc();
    execute_stub(core, stub);
    true
}

/// Runs a claimed stub through the scope's task wrapper (so the solve's
/// session context follows the work onto this thread), captures any
/// panic into the stub, and flags completion. Never unwinds.
fn execute_stub(core: &ScopeCore, stub: &JoinStub) {
    let work = stub.work.lock().take().expect("claimed stub executes once");
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut f = Some(work);
        let mut call = || (f.take().expect("stub runs once"))();
        match &core.wrapper {
            Some(w) => w(&mut call),
            None => call(),
        }
    }));
    if let Err(payload) = result {
        *stub.panic.lock() = Some(payload);
    }
    // Publish completion under the lock so a waiter can't check `done`
    // and then sleep past the notify.
    let _g = stub.done_lock.lock();
    stub.done.store(true, Ordering::SeqCst);
    stub.done_cv.notify_all();
}

/// Blocks until `stub` (claimed by a thief) completes, executing other
/// published stubs of the same scope while it waits. The executing thief
/// makes progress by assumption (a claimed stub is actively running),
/// so this terminates; helping keeps the waiter productive when many
/// joins are in flight.
///
/// Completion is only trusted under `done_lock`. The stub lives on the
/// submitting frame's stack, and the thief still notifies and unlocks
/// through it after setting `done`; seeing `done` while holding the lock
/// proves the thief has left its critical section and will not touch the
/// stub again, so the frame may return and free it.
fn wait_stub(core: &ScopeCore, stub: &JoinStub) {
    loop {
        if !stub.done.load(Ordering::SeqCst) && try_execute_join(core) {
            continue;
        }
        let mut g = stub.done_lock.lock();
        if stub.done.load(Ordering::SeqCst) {
            return;
        }
        stub.done_cv.wait_for(&mut g, Duration::from_micros(50));
    }
}

/// Ensures a published stub is resolved even if the left half panics:
/// the submitting frame must not unwind while its stub's address is
/// still reachable (list or thief). Disarmed on the normal path.
struct StubGuard<'a> {
    core: &'a ScopeCore,
    stub: &'a JoinStub,
    armed: bool,
}

impl Drop for StubGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // Unwinding with the stub published: retract it (dropping the
        // right half unexecuted — the scope is being poisoned by the
        // left half's panic anyway) or, if a thief already claimed it,
        // wait for the thief. `wait_stub` never unwinds, so this is
        // safe inside a panic.
        let addr = self.stub as *const JoinStub as usize;
        let retracted = {
            let mut joins = self.core.joins.lock();
            match joins.iter().position(|&p| p == addr) {
                Some(i) => {
                    joins.remove(i);
                    true
                }
                None => false,
            }
        };
        if !retracted {
            wait_stub(self.core, self.stub);
        }
    }
}

/// [`Scope::join`] without a `Scope` handle: uses the scope the current
/// pool worker is draining. Outside a pool task (or on a single-worker
/// scope) both closures simply run inline and `false` is returned —
/// callers need no fallback path of their own.
pub fn join_here(a: impl FnOnce() + Send, b: impl FnOnce() + Send) -> bool {
    match CURRENT_SCOPE.with(Cell::get) {
        // SAFETY: the ScopeRef is installed for exactly the extent of
        // `drain_scope`, which holds the core alive; we are inside it.
        Some(sref) => join_on(unsafe { &*sref.core }, a, b),
        None => {
            a();
            b();
            false
        }
    }
}

/// How many threads could plausibly cooperate on a split issued from
/// the current context: the draining scope's concurrency cap minus the
/// tasks already queued ahead (they will occupy workers anyway), floored
/// at 1. Returns 1 outside a pool task or on a single-worker scope —
/// the caller's signal to not bother splitting.
pub fn current_parallelism() -> usize {
    match CURRENT_SCOPE.with(Cell::get) {
        Some(sref) => {
            // SAFETY: as in `join_here` — installed for the drain extent.
            let core = unsafe { &*sref.core };
            if core.cap <= 1 || core.abandoned() {
                1
            } else {
                core.cap.saturating_sub(core.injector.len()).max(1)
            }
        }
        None => 1,
    }
}

/// The shared implementation of [`Scope::join`] / [`join_here`].
fn join_on(core: &ScopeCore, a: impl FnOnce() + Send, b: impl FnOnce() + Send) -> bool {
    if core.cap <= 1 || core.abandoned() {
        // Single-worker scope (or one being torn down): nobody could
        // ever steal the published half, so skip the publication
        // entirely — this is the zero-overhead inline degradation.
        a();
        b();
        return false;
    }
    m::JOINS.inc();
    // SAFETY: erases the closure's borrow lifetime for storage in the
    // stub. The stub (and the frames it borrows from) outlives every
    // access: this function blocks until the closure has run — inline
    // after retraction, or by a thief that has then released the stub
    // (`wait_stub`) — and the panic guard enforces the same on unwind.
    let b: Box<dyn FnOnce() + Send> = unsafe {
        std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(
            Box::new(b),
        )
    };
    let stub = JoinStub::new(b);
    let addr = &stub as *const JoinStub as usize;
    core.joins.lock().push(addr);
    let mut guard = StubGuard { core, stub: &stub, armed: true };
    a();
    // Retract-or-wait. Retraction succeeding means no thief touched the
    // stub: run the right half inline (the submitter participates in
    // its own split — saturation can only serialize, never deadlock).
    let retracted = {
        let mut joins = core.joins.lock();
        match joins.iter().position(|&p| p == addr) {
            Some(i) => {
                joins.remove(i);
                true
            }
            None => false,
        }
    };
    guard.armed = false;
    if retracted {
        let work = stub.work.lock().take().expect("unclaimed stub keeps its work");
        work();
        return false;
    }
    wait_stub(core, &stub);
    if let Some(payload) = stub.panic.lock().take() {
        std::panic::resume_unwind(payload);
    }
    true
}

/// Per-scope execution statistics.
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// Concurrency cap of the scope (for a dedicated [`run`] pool this
    /// equals the pool's thread count).
    pub workers: usize,
    /// Tasks executed by each pool worker (indexed by worker id; at most
    /// `workers` of them are nonzero concurrently).
    pub tasks_per_worker: Vec<u64>,
    /// Time each pool worker spent executing this scope's tasks
    /// (excludes idle/parked time and other scopes' tasks).
    pub busy_per_worker: Vec<Duration>,
    /// Wall-clock duration from scope open to quiescence.
    pub wall: Duration,
    /// `Steal::Retry` collisions observed while draining the scope —
    /// contention on the shared queue.
    pub steal_retries: u64,
    /// Times a worker claimed a drain slot and found the queue empty —
    /// a proxy for worker idling (starvation) while the scope was open.
    pub empty_polls: u64,
    /// Tasks whose closure panicked (captured, never unwound through
    /// the pool).
    pub panicked_tasks: u64,
    /// Tasks dropped without running because the scope was abandoned
    /// (cancelled or poisoned) before they were stolen.
    pub cancelled_tasks: u64,
}

impl PoolStats {
    /// Total tasks executed.
    pub fn total_tasks(&self) -> u64 {
        self.tasks_per_worker.iter().sum()
    }

    /// Mean worker utilization in `[0, 1]`: busy time over wall time.
    pub fn utilization(&self) -> f64 {
        if self.wall.is_zero() || self.workers == 0 {
            return 0.0;
        }
        let busy: f64 = self.busy_per_worker.iter().map(Duration::as_secs_f64).sum();
        busy / (self.wall.as_secs_f64() * self.workers as f64)
    }
}

impl std::fmt::Display for PoolStats {
    /// One-line human summary, e.g.
    /// `4 workers, 123 tasks, 87.3% utilized, wall 1.24ms, 2 steal retries, 17 empty polls`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} workers, {} tasks, {:.1}% utilized, wall {:.2?}, {} steal retries, {} empty polls",
            self.workers,
            self.total_tasks(),
            self.utilization() * 100.0,
            self.wall,
            self.steal_retries,
            self.empty_polls,
        )?;
        if self.panicked_tasks > 0 {
            write!(f, ", {} panicked", self.panicked_tasks)?;
        }
        if self.cancelled_tasks > 0 {
            write!(f, ", {} cancelled", self.cancelled_tasks)?;
        }
        Ok(())
    }
}

/// Configuration of one [`Pool::scope`].
#[derive(Clone, Default)]
pub struct ScopeConfig {
    /// Max workers draining the scope concurrently (0 = the whole pool).
    pub cap: usize,
    /// Record a [`TaskTrace`] of the scope.
    pub traced: bool,
    /// Hook run around every task (e.g. session-context installation).
    pub wrapper: Option<TaskWrapper>,
    /// Cooperative cancellation: once the token fires, workers stop
    /// stealing from this scope, queued tasks are dropped (counted in
    /// [`PoolStats::cancelled_tasks`]), and [`Pool::try_scope`] reports
    /// [`AbortKind::Cancelled`]. Running tasks are never interrupted.
    pub cancel: Option<CancelToken>,
}

/// Why a scope was abandoned before finishing its work.
pub enum AbortKind {
    /// A task panicked; the original payload is preserved.
    Panicked {
        /// Scope-local id of the first task that panicked.
        task_id: u64,
        /// Rendered panic message (best effort).
        message: String,
        /// The original panic payload, for re-raising.
        payload: Box<dyn Any + Send>,
    },
    /// The scope's cancel token fired.
    Cancelled {
        /// Why the token fired.
        reason: CancelReason,
    },
}

impl std::fmt::Debug for AbortKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortKind::Panicked { task_id, message, .. } => f
                .debug_struct("Panicked")
                .field("task_id", task_id)
                .field("message", message)
                .finish_non_exhaustive(),
            AbortKind::Cancelled { reason } => {
                f.debug_struct("Cancelled").field("reason", reason).finish()
            }
        }
    }
}

/// Outcome of an abandoned [`Pool::try_scope`]: the abort cause plus
/// the statistics and trace of what did run before abandonment (useful
/// for partial-progress reporting).
#[derive(Debug)]
pub struct ScopeAbort {
    /// Why the scope was abandoned.
    pub kind: AbortKind,
    /// Statistics for the tasks that ran before abandonment.
    pub stats: PoolStats,
    /// Trace of the tasks that ran, if tracing was on.
    pub trace: Option<TaskTrace>,
}

struct PoolShared {
    /// Open scopes; workers round-robin over this registry.
    scopes: Mutex<Vec<Arc<ScopeCore>>>,
    cv: Condvar,
    shutdown: AtomicBool,
}

/// A persistent worker pool. Workers live as long as the pool and drain
/// any number of concurrent [`Pool::scope`]s; an idle pool parks all its
/// workers. Dropping the pool joins them.
pub struct Pool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Pool {
    /// A pool with `workers` threads.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Pool {
        assert!(workers > 0, "need at least one worker");
        // Parked workers fold their metric shards into the registry so
        // an idle fleet pins no per-thread state (and scrapes between
        // batches see fully-merged totals).
        set_worker_idle_hook(rr_obs::metrics::release_thread);
        let pool = Pool {
            shared: Arc::new(PoolShared {
                scopes: Mutex::new(Vec::new()),
                cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
            }),
            handles: Mutex::new(Vec::new()),
        };
        pool.ensure_workers(workers);
        pool
    }

    /// Current number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.lock().len()
    }

    /// Grows the pool to at least `n` workers (never shrinks). Lets a
    /// scope with `cap > workers()` oversubscribe the host, as the
    /// paper's 20-processor runs require on smaller machines.
    pub fn ensure_workers(&self, n: usize) {
        let mut handles = self.handles.lock();
        while handles.len() < n {
            let shared = Arc::clone(&self.shared);
            let idx = handles.len();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rr-pool-{idx}"))
                    .spawn(move || {
                        m::WORKERS.add(1);
                        worker_loop(&shared, idx);
                        m::WORKERS.add(-1);
                    })
                    .expect("spawn pool worker"),
            );
        }
    }

    /// Runs `seed` (and everything it transitively spawns) to quiescence
    /// in a fresh scope, returning its statistics and (if requested) its
    /// trace. Blocks until the scope quiesces; concurrent callers get
    /// independent scopes drained by the same workers.
    ///
    /// Supervised callers should prefer [`Pool::try_scope`], which
    /// reports panics and cancellation as values instead of unwinding.
    ///
    /// # Panics
    /// Re-panics if any task of the scope panicked, with the original
    /// message and task id preserved in the new payload.
    pub fn scope<'env, F>(&self, cfg: ScopeConfig, seed: F) -> (PoolStats, Option<TaskTrace>)
    where
        F: FnOnce(&Scope<'env>) + Send + 'env,
    {
        match self.try_scope(cfg, seed) {
            Ok(out) => out,
            Err(abort) => match abort.kind {
                AbortKind::Panicked { task_id, message, .. } => {
                    panic!("task {task_id} panicked: {message}; pool run abandoned")
                }
                // Without a cancel token this arm is unreachable; with
                // one, the legacy entry point treats cancellation as a
                // normal (partial) completion.
                AbortKind::Cancelled { .. } => (abort.stats, abort.trace),
            },
        }
    }

    /// Like [`Pool::scope`], but reports an abandoned scope — a task
    /// panic or a fired [`ScopeConfig::cancel`] token — as an
    /// [`ScopeAbort`] value instead of unwinding. In both cases the
    /// scope is drained to quiescence first (queued tasks dropped and
    /// counted), so the pool and its workers remain fully reusable.
    pub fn try_scope<'env, F>(
        &self,
        cfg: ScopeConfig,
        seed: F,
    ) -> Result<(PoolStats, Option<TaskTrace>), Box<ScopeAbort>>
    where
        F: FnOnce(&Scope<'env>) + Send + 'env,
    {
        let cap = if cfg.cap == 0 { self.workers() } else { cfg.cap };
        self.ensure_workers(cap.min(MAX_AUTO_GROW));
        let cancel = cfg.cancel.clone();
        let core = Arc::new(ScopeCore::new(cap, cfg.traced, cfg.wrapper, cfg.cancel));
        let handle = Scope::handle(Arc::clone(&core));
        handle.spawn(seed);
        let start = Instant::now();
        {
            let mut scopes = self.shared.scopes.lock();
            scopes.push(Arc::clone(&core));
            self.shared.cv.notify_all();
        }
        // Wait for quiescence. The timeout backstops the finish-vs-wait
        // race the same way worker parking does.
        {
            let mut g = core.done_lock.lock();
            while core.pending.load(Ordering::SeqCst) != 0 {
                core.done_cv
                    .wait_for(&mut g, Duration::from_micros(200));
            }
        }
        let wall = start.elapsed();
        {
            let mut scopes = self.shared.scopes.lock();
            scopes.retain(|s| !Arc::ptr_eq(s, &core));
        }
        drop(handle);
        // Workers may still hold Arc clones of the core from their
        // registry snapshots, so read results through the Arc rather
        // than unwrapping it. All per-task recording happened before the
        // final `finish_task`, so these reads see every executed task.
        let mut tasks_per_worker: Vec<u64> = Vec::new();
        let mut busy_per_worker: Vec<Duration> = Vec::new();
        for &(tasks, busy) in core.stats.lock().iter() {
            tasks_per_worker.push(tasks);
            busy_per_worker.push(busy);
        }
        tasks_per_worker.resize(tasks_per_worker.len().max(cap), 0);
        busy_per_worker.resize(busy_per_worker.len().max(cap), Duration::ZERO);
        let trace = core.trace.as_ref().map(|buf| TaskTrace {
            records: std::mem::take(&mut *buf.records.lock()),
            epoch: Some(core.epoch),
            queue_samples: std::mem::take(&mut *buf.queue.lock()),
        });
        let stats = PoolStats {
            workers: cap,
            tasks_per_worker,
            busy_per_worker,
            wall,
            steal_retries: core.steal_retries.load(Ordering::Relaxed),
            empty_polls: core.empty_polls.load(Ordering::Relaxed),
            panicked_tasks: core.panicked_tasks.load(Ordering::Relaxed),
            cancelled_tasks: core.dropped_tasks.load(Ordering::Relaxed),
        };
        // Panic outranks cancellation: a poisoned scope is reported as
        // such even if a deadline also fired while it drained.
        if core.panicked.load(Ordering::SeqCst) {
            let info = core.panic_info.lock().take();
            let (task_id, message, payload) = match info {
                Some(PanicInfo { task_id, message, payload }) => (task_id, message, payload),
                // The flag is only ever set together with `panic_info`,
                // but keep a defensive fallback rather than an unwrap.
                None => (0, "task panicked".to_string(), Box::new(()) as Box<dyn Any + Send>),
            };
            return Err(Box::new(ScopeAbort {
                kind: AbortKind::Panicked { task_id, message, payload },
                stats,
                trace,
            }));
        }
        if core.cancelled.load(Ordering::SeqCst) {
            let reason = cancel
                .as_ref()
                .and_then(CancelToken::reason)
                .unwrap_or(CancelReason::Requested { why: "scope cancelled".into() });
            return Err(Box::new(ScopeAbort {
                kind: AbortKind::Cancelled { reason },
                stats,
                trace,
            }));
        }
        Ok((stats, trace))
    }
}

/// Upper bound on automatic pool growth from an oversized scope cap, so
/// a misconfigured cap cannot spawn unbounded threads. `ensure_workers`
/// can still grow past this explicitly.
const MAX_AUTO_GROW: usize = 256;

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _g = self.shared.scopes.lock();
            self.shared.cv.notify_all();
        }
        for h in self.handles.get_mut().drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, worker_idx: usize) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Snapshot the open scopes and rotate by worker index so workers
        // spread over scopes instead of convoying on the first.
        let scopes: Vec<Arc<ScopeCore>> = shared.scopes.lock().clone();
        let n = scopes.len();
        let mut did_work = false;
        for i in 0..n {
            let core = &scopes[(i + worker_idx) % n];
            if !core.try_claim() {
                continue;
            }
            did_work |= drain_scope(core, worker_idx);
            core.release();
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
        }
        if did_work {
            continue;
        }
        // Nothing stealable anywhere: park. With scopes open, use a
        // timeout (covers the push-vs-wait race); with none open, sleep
        // until a scope registers (registration notifies under the lock).
        let mut scopes = shared.scopes.lock();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if scopes.is_empty() {
            // Fully idle pool: give the arithmetic layer a chance to
            // return retained scratch buffers (and the metrics layer to
            // fold this worker's shards) before sleeping indefinitely.
            // Dropping the registry lock first keeps the hooks off the
            // scope-registration critical path; the re-check afterwards
            // covers a scope registered meanwhile.
            let hooks: Vec<fn()> = IDLE_HOOKS.lock().clone();
            if !hooks.is_empty() {
                drop(scopes);
                for hook in hooks {
                    hook();
                }
                scopes = shared.scopes.lock();
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if !scopes.is_empty() {
                    continue;
                }
            }
            shared.cv.wait(&mut scopes);
        } else {
            shared.cv.wait_for(&mut scopes, Duration::from_micros(200));
        }
    }
}

/// Steals and runs this scope's tasks until its queue is empty. Returns
/// whether any task was executed.
fn drain_scope(core: &Arc<ScopeCore>, worker_idx: usize) -> bool {
    let mut did_work = false;
    // Make the scope reachable from arithmetic kernels executing deep
    // inside this worker's tasks (`join_here` / `current_parallelism`).
    // Restored on exit; `core` is held by reference for the whole drain,
    // so the raw pointer stays valid.
    let prev_scope =
        CURRENT_SCOPE.with(|c| c.replace(Some(ScopeRef { core: Arc::as_ptr(core) })));
    loop {
        if core.abandoned() {
            core.drain_abandoned();
            break;
        }
        match core.injector.steal() {
            Steal::Success(task) => {
                let Queued { id, parent, f } = task;
                if let Some(trace) = &core.trace {
                    // Depth after this steal: tasks still queued (pending
                    // counts running tasks too, so subtract nothing — the
                    // injector length is the honest queue depth here).
                    let depth = core.injector.len() as u32;
                    m::QUEUE_DEPTH.set(i64::from(depth));
                    trace.queue.lock().push((core.now_ns(), depth));
                } else if rr_obs::metrics::enabled() {
                    m::QUEUE_DEPTH.set(core.injector.len() as i64);
                }
                let scope: Scope<'static> = Scope::handle(Arc::clone(core));
                let prev = CURRENT_TASK.with(|c| c.replace(Some(id)));
                let t0 = Instant::now();
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let mut f = Some(f);
                    let mut call = || (f.take().expect("task runs once"))(&scope);
                    match &core.wrapper {
                        Some(w) => w(&mut call),
                        None => call(),
                    }
                }));
                let elapsed = t0.elapsed();
                CURRENT_TASK.with(|c| c.set(prev));
                if let Some(trace) = &core.trace {
                    trace.records.lock().push(TaskRecord {
                        id,
                        parent,
                        nanos: elapsed.as_nanos() as u64,
                        start_ns: t0
                            .checked_duration_since(core.epoch)
                            .map_or(0, |d| d.as_nanos() as u64),
                        worker: worker_idx,
                    });
                }
                core.record_task(worker_idx, elapsed);
                m::TASKS.inc();
                m::TASK_LATENCY.record_duration(elapsed);
                did_work = true;
                if let Err(payload) = result {
                    core.panicked_tasks.fetch_add(1, Ordering::Relaxed);
                    m::PANICKED.inc();
                    let mut slot = core.panic_info.lock();
                    if slot.is_none() {
                        *slot = Some(PanicInfo {
                            task_id: id,
                            message: panic_message(payload.as_ref()),
                            payload,
                        });
                    }
                    drop(slot);
                    core.panicked.store(true, Ordering::SeqCst);
                }
                if core.panicked.load(Ordering::Relaxed) || core.cancelled.load(Ordering::Relaxed)
                {
                    // Our spawns precede our finish; clear them now so
                    // the scope can quiesce.
                    core.drain_abandoned();
                }
                core.finish_task();
            }
            Steal::Retry => {
                core.steal_retries.fetch_add(1, Ordering::Relaxed);
                m::STEAL_RETRIES.inc();
                continue;
            }
            Steal::Empty => {
                // No queued task — but a running task may have split
                // itself: execute one published join half before giving
                // up on the scope. This is how otherwise-idle workers
                // lend themselves to a single huge task.
                if try_execute_join(core) {
                    did_work = true;
                    continue;
                }
                core.empty_polls.fetch_add(1, Ordering::Relaxed);
                m::EMPTY_POLLS.inc();
                break;
            }
        }
    }
    CURRENT_SCOPE.with(|c| c.set(prev_scope));
    did_work
}

/// Runs `seed` (and everything it transitively spawns) to quiescence on
/// a dedicated pool of `workers` threads, returning execution
/// statistics. One-shot compatibility entry point; long-lived callers
/// should hold a [`Pool`] and open [`Pool::scope`]s on it instead.
///
/// # Panics
/// Re-panics if any task panicked. Panics if `workers == 0`.
pub fn run<'env, F>(workers: usize, seed: F) -> PoolStats
where
    F: FnOnce(&Scope<'env>) + Send + 'env,
{
    let pool = Pool::new(workers);
    let (stats, _) = pool.scope(
        ScopeConfig { cap: workers, traced: false, wrapper: None, cancel: None },
        seed,
    );
    stats
}

/// Like [`run`], but also records the executed task graph (ids, spawner
/// edges, durations) for post-hoc scheduling simulation.
pub fn run_traced<'env, F>(workers: usize, seed: F) -> (PoolStats, TaskTrace)
where
    F: FnOnce(&Scope<'env>) + Send + 'env,
{
    let pool = Pool::new(workers);
    let (stats, trace) = pool.scope(
        ScopeConfig { cap: workers, traced: true, wrapper: None, cancel: None },
        seed,
    );
    (stats, trace.expect("tracing was enabled"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_single_task() {
        let flag = AtomicBool::new(false);
        run(1, |_| {
            flag.store(true, Ordering::SeqCst);
        });
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn fan_out_executes_everything() {
        for workers in [1usize, 2, 4, 8] {
            let count = AtomicU64::new(0);
            let stats = run(workers, |s| {
                for _ in 0..100 {
                    s.spawn(|s2| {
                        count.fetch_add(1, Ordering::Relaxed);
                        for _ in 0..3 {
                            s2.spawn(|_| {
                                count.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                }
            });
            assert_eq!(count.load(Ordering::SeqCst), 400, "workers={workers}");
            assert_eq!(stats.total_tasks(), 401); // + the seed
            assert_eq!(stats.workers, workers);
        }
    }

    #[test]
    fn deep_recursion_quiesces() {
        // A chain of 10_000 sequentially-dependent spawns.
        let count = AtomicU64::new(0);
        fn chain<'env>(s: &Scope<'env>, count: &'env AtomicU64, depth: u64) {
            if count.fetch_add(1, Ordering::Relaxed) + 1 < depth {
                s.spawn(move |s2| chain(s2, count, depth));
            }
        }
        run(4, |s| chain(s, &count, 10_000));
        assert_eq!(count.load(Ordering::SeqCst), 10_000);
    }

    #[test]
    fn all_workers_participate_under_load() {
        // With enough slow tasks, every worker should execute at least one.
        let stats = run(4, |s| {
            for _ in 0..64 {
                s.spawn(|_| {
                    std::thread::sleep(Duration::from_millis(2));
                });
            }
        });
        assert!(
            stats.tasks_per_worker.iter().all(|&t| t > 0),
            "idle worker: {:?}",
            stats.tasks_per_worker
        );
    }

    #[test]
    #[should_panic(expected = "pool run abandoned")]
    fn task_panic_propagates() {
        run(2, |s| {
            s.spawn(|_| panic!("boom"));
        });
    }

    #[test]
    fn borrows_environment_mutably_via_sync_cells() {
        let results: Vec<AtomicU64> = (0..32).map(|_| AtomicU64::new(0)).collect();
        run(3, |s| {
            for (i, cell) in results.iter().enumerate() {
                s.spawn(move |_| {
                    cell.store(i as u64 + 1, Ordering::SeqCst);
                });
            }
        });
        for (i, cell) in results.iter().enumerate() {
            assert_eq!(cell.load(Ordering::SeqCst), i as u64 + 1);
        }
    }

    #[test]
    fn utilization_bounded() {
        let stats = run(2, |s| {
            for _ in 0..8 {
                s.spawn(|_| std::thread::sleep(Duration::from_millis(1)));
            }
        });
        let u = stats.utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u}");
    }

    #[test]
    fn persistent_pool_reuses_workers_across_scopes() {
        let pool = Pool::new(3);
        for round in 0..5u64 {
            let count = AtomicU64::new(0);
            let (stats, trace) = pool.scope(
                ScopeConfig { cap: 3, traced: true, wrapper: None, cancel: None },
                |s| {
                    for _ in 0..20 {
                        s.spawn(|_| {
                            count.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                },
            );
            assert_eq!(count.load(Ordering::SeqCst), 20, "round {round}");
            assert_eq!(stats.total_tasks(), 21);
            // Per-scope id space restarts at 0 every time.
            let trace = trace.unwrap();
            let mut ids: Vec<u64> = trace.records.iter().map(|r| r.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..21).collect::<Vec<u64>>(), "round {round}");
        }
        assert_eq!(pool.workers(), 3);
    }

    #[test]
    fn concurrent_scopes_do_not_share_tasks() {
        let pool = Arc::new(Pool::new(4));
        let handles: Vec<_> = (0..3u64)
            .map(|k| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let count = AtomicU64::new(0);
                    let spawns = 10 * (k + 1);
                    let (stats, trace) = pool.scope(
                        ScopeConfig { cap: 2, traced: true, wrapper: None, cancel: None },
                        |s| {
                            for _ in 0..spawns {
                                s.spawn(|_| {
                                    count.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        },
                    );
                    (count.into_inner(), stats.total_tasks(), spawns, trace.unwrap())
                })
            })
            .collect();
        for h in handles {
            let (count, total, spawns, trace) = h.join().unwrap();
            assert_eq!(count, spawns);
            assert_eq!(total, spawns + 1);
            assert_eq!(trace.records.len() as u64, spawns + 1);
            assert_eq!(
                trace.records.iter().filter(|r| r.parent.is_none()).count(),
                1
            );
        }
    }

    #[test]
    fn scope_cap_bounds_concurrency() {
        let pool = Pool::new(4);
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (stats, _) = pool.scope(
            ScopeConfig { cap: 2, traced: false, wrapper: None, cancel: None },
            |s| {
                for _ in 0..16 {
                    let live = Arc::clone(&live);
                    let peak = Arc::clone(&peak);
                    s.spawn(move |_| {
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(1));
                        live.fetch_sub(1, Ordering::SeqCst);
                    });
                }
            },
        );
        assert!(peak.load(Ordering::SeqCst) <= 2, "cap exceeded");
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.total_tasks(), 17);
    }

    #[test]
    fn wrapper_runs_around_every_task() {
        let wrapped = Arc::new(AtomicU64::new(0));
        let w = Arc::clone(&wrapped);
        let wrapper: TaskWrapper = Arc::new(move |task| {
            w.fetch_add(1, Ordering::Relaxed);
            task();
        });
        let pool = Pool::new(2);
        let count = AtomicU64::new(0);
        let (stats, _) = pool.scope(
            ScopeConfig { cap: 2, traced: false, wrapper: Some(wrapper), cancel: None },
            |s| {
                for _ in 0..10 {
                    s.spawn(|_| {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                }
            },
        );
        assert_eq!(count.load(Ordering::SeqCst), 10);
        assert_eq!(stats.total_tasks(), 11);
        assert_eq!(wrapped.load(Ordering::SeqCst), 11); // seed included
    }

    #[test]
    fn poisoned_scope_quiesces_and_pool_survives() {
        let pool = Pool::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(ScopeConfig::default(), |s: &Scope<'_>| {
                for i in 0..50 {
                    s.spawn(move |_| {
                        if i == 7 {
                            panic!("boom");
                        }
                    });
                }
            });
        }));
        assert!(r.is_err());
        // The same pool keeps working after a poisoned scope.
        let count = AtomicU64::new(0);
        let (stats, _) = pool.scope(ScopeConfig::default(), |s| {
            for _ in 0..10 {
                s.spawn(|_| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::SeqCst), 10);
        assert_eq!(stats.total_tasks(), 11);
    }

    #[test]
    fn zero_cap_means_whole_pool() {
        let pool = Pool::new(3);
        let (stats, _) = pool.scope(ScopeConfig::default(), |s: &Scope<'_>| {
            s.spawn(|_| {});
        });
        assert_eq!(stats.workers, 3);
    }

    #[test]
    fn panic_payload_and_task_id_preserved() {
        let pool = Pool::new(2);
        let err = pool
            .try_scope(ScopeConfig::default(), |s: &Scope<'_>| {
                s.spawn(|_| panic!("kaboom-{}", 41 + 1));
            })
            .expect_err("scope must abort");
        match err.kind {
            AbortKind::Panicked { task_id, message, payload } => {
                assert_eq!(task_id, 1); // seed is task 0
                assert_eq!(message, "kaboom-42");
                let s = payload.downcast_ref::<String>().expect("String payload");
                assert_eq!(s, "kaboom-42");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(err.stats.panicked_tasks, 1);
        // The legacy panicking wrapper carries the same context.
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(ScopeConfig::default(), |s: &Scope<'_>| {
                s.spawn(|_| panic!("kaboom"));
            });
        }));
        let payload = r.expect_err("must panic");
        let msg = payload.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("kaboom"), "lost original message: {msg}");
        assert!(msg.contains("task 1"), "lost task id: {msg}");
        assert!(msg.contains("pool run abandoned"), "lost marker: {msg}");
    }

    #[test]
    fn cancelled_scope_drops_queued_tasks_and_reports_reason() {
        let pool = Pool::new(2);
        let token = CancelToken::new();
        let ran = Arc::new(AtomicU64::new(0));
        let err = {
            let token = token.clone();
            let ran = Arc::clone(&ran);
            pool.try_scope(
                ScopeConfig { cancel: Some(token.clone()), ..ScopeConfig::default() },
                move |s| {
                    for i in 0..64 {
                        let token = token.clone();
                        let ran = Arc::clone(&ran);
                        s.spawn(move |_| {
                            ran.fetch_add(1, Ordering::Relaxed);
                            if i == 3 {
                                token.cancel(CancelReason::Requested { why: "enough".into() });
                            }
                            std::thread::sleep(Duration::from_micros(300));
                        });
                    }
                },
            )
        }
        .expect_err("scope must report cancellation");
        match &err.kind {
            AbortKind::Cancelled { reason } => {
                assert_eq!(reason, &CancelReason::Requested { why: "enough".into() });
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        let executed = ran.load(Ordering::SeqCst);
        assert!(executed < 64, "cancellation dropped nothing");
        assert!(err.stats.cancelled_tasks > 0);
        assert_eq!(err.stats.cancelled_tasks + executed + 1, 65); // + seed
        // The pool stays fully usable.
        let count = AtomicU64::new(0);
        let (stats, _) = pool.scope(ScopeConfig::default(), |s| {
            for _ in 0..10 {
                s.spawn(|_| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::SeqCst), 10);
        assert_eq!(stats.total_tasks(), 11);
        assert_eq!(stats.cancelled_tasks, 0);
    }

    #[test]
    fn deadline_token_abandons_scope() {
        let pool = Pool::new(2);
        let token = CancelToken::with_deadline(Duration::from_millis(10));
        let start = Instant::now();
        let err = pool
            .try_scope(
                ScopeConfig { cancel: Some(token), ..ScopeConfig::default() },
                |s: &Scope<'_>| {
                    // Each task is short; the deadline fires between
                    // tasks, never inside one.
                    fn replenish<'env>(s: &Scope<'env>) {
                        std::thread::sleep(Duration::from_micros(500));
                        s.spawn(|s2| replenish(s2));
                    }
                    s.spawn(|s2| replenish(s2));
                    s.spawn(|s2| replenish(s2));
                },
            )
            .expect_err("deadline must fire");
        assert!(
            matches!(err.kind, AbortKind::Cancelled { reason: CancelReason::Deadline { .. } }),
            "got {:?}",
            err.kind
        );
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "scope did not drain promptly: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn try_scope_clean_run_matches_scope() {
        let pool = Pool::new(2);
        let count = AtomicU64::new(0);
        let (stats, trace) = pool
            .try_scope(
                ScopeConfig { traced: true, ..ScopeConfig::default() },
                |s| {
                    for _ in 0..10 {
                        s.spawn(|_| {
                            count.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                },
            )
            .expect("clean run");
        assert_eq!(count.load(Ordering::SeqCst), 10);
        assert_eq!(stats.total_tasks(), 11);
        assert_eq!(stats.panicked_tasks, 0);
        assert_eq!(stats.cancelled_tasks, 0);
        assert_eq!(trace.expect("traced").records.len(), 11);
    }

    #[test]
    fn current_task_id_visible_inside_tasks() {
        assert_eq!(current_task_id(), None);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let pool = Pool::new(2);
        let (_, _) = pool.scope(ScopeConfig::default(), |s: &Scope<'_>| {
            for _ in 0..8 {
                let seen = Arc::clone(&seen);
                s.spawn(move |_| {
                    seen.lock().push(current_task_id().expect("inside a task"));
                });
            }
        });
        let mut ids = seen.lock().clone();
        ids.sort_unstable();
        assert_eq!(ids, (1..9).collect::<Vec<u64>>()); // seed took id 0
    }

    #[test]
    fn idle_hook_runs_when_pool_drains() {
        static CALLS: AtomicU64 = AtomicU64::new(0);
        set_worker_idle_hook(|| {
            CALLS.fetch_add(1, Ordering::SeqCst);
        });
        let pool = Pool::new(2);
        pool.scope(ScopeConfig::default(), |s: &Scope<'_>| {
            s.spawn(|_| {});
        });
        // Workers run the hook on their way into the indefinite park;
        // give them a moment to get there.
        let t0 = Instant::now();
        while CALLS.load(Ordering::SeqCst) == 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(CALLS.load(Ordering::SeqCst) > 0, "idle hook never ran");
    }

    #[test]
    fn join_runs_both_halves_inline_outside_pool() {
        let (mut x, mut y) = (0u64, 0u64);
        let stolen = join_here(|| x = 1, || y = 2);
        assert!(!stolen, "no scope to steal from");
        assert_eq!((x, y), (1, 2));
        assert_eq!(current_parallelism(), 1);
    }

    #[test]
    fn join_on_single_worker_scope_degrades_to_inline() {
        // cap == 1: the submitting worker is the only drainer, so the
        // split must not publish anything — both halves run inline and
        // `stolen` is false for every call.
        let pool = Pool::new(1);
        let stole = Arc::new(AtomicU64::new(0));
        let sum = Arc::new(AtomicU64::new(0));
        let (stats, _) = pool.scope(
            ScopeConfig { cap: 1, ..ScopeConfig::default() },
            |s: &Scope<'_>| {
                let stole = Arc::clone(&stole);
                let sum = Arc::clone(&sum);
                s.spawn(move |_| {
                    assert_eq!(current_parallelism(), 1);
                    for i in 0..100u64 {
                        let (mut a, mut b) = (0, 0);
                        if join_here(|| a = i, || b = 2 * i) {
                            stole.fetch_add(1, Ordering::Relaxed);
                        }
                        sum.fetch_add(a + b, Ordering::Relaxed);
                    }
                });
            },
        );
        assert_eq!(stole.load(Ordering::SeqCst), 0, "cap-1 scope published a stub");
        assert_eq!(sum.load(Ordering::SeqCst), (0..100).map(|i| 3 * i).sum::<u64>());
        assert_eq!(stats.total_tasks(), 2);
    }

    #[test]
    fn join_computes_recursive_sums_with_idle_workers() {
        // One seed task, a 4-worker scope: recursive binary splits must
        // produce the exact sum while idle workers take published halves.
        fn sum_range(lo: u64, hi: u64) -> u64 {
            if hi - lo <= 64 {
                return (lo..hi).sum();
            }
            let mid = lo + (hi - lo) / 2;
            let (mut left, mut right) = (0, 0);
            join_here(|| left = sum_range(lo, mid), || right = sum_range(mid, hi));
            left + right
        }
        let pool = Pool::new(4);
        let total = Arc::new(AtomicU64::new(0));
        pool.scope(ScopeConfig::default(), |s: &Scope<'_>| {
            let total = Arc::clone(&total);
            s.spawn(move |_| {
                assert!(current_parallelism() > 1);
                total.store(sum_range(0, 1 << 16), Ordering::SeqCst);
            });
        });
        let n = 1u64 << 16;
        assert_eq!(total.load(Ordering::SeqCst), n * (n - 1) / 2);
    }

    #[test]
    fn join_under_saturated_pool_never_deadlocks() {
        // More joining tasks than workers: every published half that no
        // thief takes is retracted and run by its own submitter, so a
        // fully busy pool serializes instead of deadlocking.
        let pool = Pool::new(2);
        let done = Arc::new(AtomicU64::new(0));
        let (stats, _) = pool.scope(ScopeConfig::default(), |s: &Scope<'_>| {
            for _ in 0..32 {
                let done = Arc::clone(&done);
                s.spawn(move |_| {
                    let (mut a, mut b) = (0u64, 0u64);
                    join_here(
                        || {
                            std::thread::sleep(Duration::from_micros(200));
                            a = 1;
                        },
                        || b = 1,
                    );
                    assert_eq!(a + b, 2);
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), 32);
        assert_eq!(stats.total_tasks(), 33);
    }

    #[test]
    fn join_propagates_panics_from_either_half() {
        let pool = Pool::new(2);
        for left in [true, false] {
            let err = pool
                .try_scope(ScopeConfig::default(), move |s: &Scope<'_>| {
                    s.spawn(move |_| {
                        join_here(
                            move || {
                                if left {
                                    panic!("left-half boom")
                                }
                            },
                            move || {
                                if !left {
                                    panic!("right-half boom")
                                }
                            },
                        );
                    });
                })
                .expect_err("join panic must poison the scope");
            match err.kind {
                AbortKind::Panicked { message, .. } => {
                    assert!(message.contains("boom"), "{message}");
                }
                other => panic!("expected Panicked, got {other:?}"),
            }
        }
        // The pool survives poisoned joins.
        let count = AtomicU64::new(0);
        pool.scope(ScopeConfig::default(), |s| {
            s.spawn(|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn scope_join_method_matches_join_here() {
        let pool = Pool::new(3);
        let sum = Arc::new(AtomicU64::new(0));
        pool.scope(ScopeConfig::default(), |s: &Scope<'_>| {
            let sum = Arc::clone(&sum);
            s.spawn(move |scope| {
                let (mut a, mut b) = (0u64, 0u64);
                scope.join(|| a = 20, || b = 22);
                sum.store(a + b, Ordering::SeqCst);
            });
        });
        assert_eq!(sum.load(Ordering::SeqCst), 42);
    }

    #[test]
    fn wrapper_follows_stolen_join_halves() {
        // The session-context wrapper must wrap join halves executed by
        // thieves, exactly as it wraps whole tasks — otherwise a stolen
        // multiply would record into the wrong solve's sink.
        let wrapped = Arc::new(AtomicU64::new(0));
        let w = Arc::clone(&wrapped);
        let wrapper: TaskWrapper = Arc::new(move |task| {
            w.fetch_add(1, Ordering::Relaxed);
            task();
        });
        let pool = Pool::new(4);
        let stolen = Arc::new(AtomicU64::new(0));
        let (stats, _) = pool.scope(
            ScopeConfig { wrapper: Some(wrapper), ..ScopeConfig::default() },
            |s: &Scope<'_>| {
                let stolen = Arc::clone(&stolen);
                s.spawn(move |_| {
                    for _ in 0..64 {
                        if join_here(
                            || std::thread::sleep(Duration::from_micros(100)),
                            || std::thread::sleep(Duration::from_micros(100)),
                        ) {
                            stolen.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            },
        );
        // Every stolen half adds one wrapper invocation on top of the
        // per-task ones (seed + spawned task).
        assert_eq!(
            wrapped.load(Ordering::SeqCst),
            stats.total_tasks() + stolen.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn ensure_workers_grows_for_oversized_cap() {
        let pool = Pool::new(2);
        let (stats, _) = pool.scope(
            ScopeConfig { cap: 6, traced: false, wrapper: None, cancel: None },
            |s: &Scope<'_>| {
                for _ in 0..12 {
                    s.spawn(|_| std::thread::sleep(Duration::from_micros(100)));
                }
            },
        );
        assert_eq!(stats.workers, 6);
        assert!(pool.workers() >= 6);
    }
}
