//! # rr-obs — structured per-solve tracing
//!
//! The paper's empirical claims are about *where time goes*: per-phase
//! multiplication costs (Figures 2–7) and multiprocessor speedups
//! (Tables 3–7). The cost-model counters (`rr-mp::metrics`) reproduce
//! the counts; this crate adds the missing wall-clock dimension — a
//! span/event recorder cheap enough to leave compiled into the hot
//! paths, plus a Chrome `trace_event` exporter so a solve can be opened
//! in Perfetto or `chrome://tracing`.
//!
//! Zero external dependencies (std only), consistent with the
//! workspace's offline dependency policy.
//!
//! ## Design
//!
//! * **Per-solve recorders.** A [`Recorder`] is created per solve and
//!   carried on the solve's session context, so concurrent solves never
//!   share recorders (the same isolation story as the metrics sinks).
//! * **Per-thread buffers, post-hoc merge.** Each thread that records
//!   under a recorder owns a private buffer (registered once, cached in
//!   TLS); recording is a push onto an uncontended list. Buffers are
//!   merged and time-sorted only when [`Recorder::finish`] builds the
//!   [`Trace`].
//! * **Monotonic timestamps.** All times are `Instant`s relative to the
//!   recorder's epoch, so spans recorded on different threads merge onto
//!   one consistent timeline.
//! * **Scoped ambient installation.** [`Recorder::install`] makes the
//!   recorder the calling thread's *ambient* recorder until the guard
//!   drops (stack-shaped, innermost wins — the same discipline as
//!   `rr_mp::SolveCtx`). The free functions [`phase_span`] /
//!   [`stage_span`] / [`counter`] record into the ambient recorder and
//!   cost **a single branch** when none is installed, which is what
//!   keeps untraced solves bit-identical and fast.
//!
//! The per-solve recorder is complemented by [`metrics`] — an
//! always-on, process-wide registry of counters, gauges and log-scale
//! histograms (per-thread shards merged on scrape) for the *fleet*
//! view: latency percentiles and throughput over time, with Prometheus
//! text exposition. Use the recorder to explain one solve; use the
//! metrics registry to watch all of them.
//!
//! ```
//! use rr_obs::Recorder;
//!
//! let rec = Recorder::new();
//! rec.run(|| {
//!     let _outer = rr_obs::stage_span("solve");
//!     {
//!         let _inner = rr_obs::phase_span("remainder");
//!         // ... work ...
//!     }
//!     rr_obs::counter("queue-depth", 3.0);
//! });
//! let trace = rec.finish();
//! assert_eq!(trace.spans.len(), 2);
//! let json = trace.to_chrome_json();
//! assert!(json.contains("\"traceEvents\""));
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use trace::{CounterRecord, SpanRecord, Trace, WORKER_TRACK_BASE};

use std::borrow::Cow;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// One thread's private event buffer within a recorder. Only the owning
/// thread pushes; the merge in [`Recorder::finish`] only drains, so the
/// mutexes are uncontended in steady state.
struct Buffer {
    /// Recorder-local thread index (registration order).
    tid: u32,
    /// Thread label captured at registration (OS thread name if set).
    label: String,
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<Vec<CounterRecord>>,
}

struct RecInner {
    /// Process-unique recorder identity (for the per-thread buffer cache).
    id: u64,
    /// All timestamps are durations since this instant.
    epoch: Instant,
    next_tid: AtomicU32,
    buffers: Mutex<Vec<Arc<Buffer>>>,
}

impl RecInner {
    fn register_thread(&self) -> Arc<Buffer> {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        let label = std::thread::current()
            .name()
            .map_or_else(|| format!("thread-{tid}"), str::to_owned);
        let buf = Arc::new(Buffer {
            tid,
            label,
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(Vec::new()),
        });
        self.buffers.lock().expect("buffer registry").push(Arc::clone(&buf));
        buf
    }
}

/// A per-solve span/event recorder. Cheap to clone (all clones share the
/// buffers); `Send + Sync`, so a solve can hand clones to worker tasks.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<RecInner>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("id", &self.inner.id).finish()
    }
}

thread_local! {
    /// Stack of installed recorders; the innermost (last) receives this
    /// thread's spans and counters.
    static AMBIENT: RefCell<Vec<(Arc<RecInner>, Arc<Buffer>)>> = const { RefCell::new(Vec::new()) };
    /// Cache of this thread's buffer per recorder id, so re-installing
    /// the same recorder (every pool task does) never re-locks the
    /// registry.
    static BUFFER_CACHE: RefCell<Vec<(u64, Weak<Buffer>)>> = const { RefCell::new(Vec::new()) };
}

impl Recorder {
    /// A fresh recorder; its epoch (time zero of the trace) is now.
    pub fn new() -> Recorder {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        Recorder {
            inner: Arc::new(RecInner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                next_tid: AtomicU32::new(0),
                buffers: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The recorder's epoch. External timelines (e.g. the scheduler's
    /// per-scope task clocks) rebase onto the trace with
    /// `scope_epoch.duration_since(recorder.epoch())`.
    pub fn epoch(&self) -> Instant {
        self.inner.epoch
    }

    /// Nanoseconds since the epoch, for stamping externally-built records.
    pub fn now_ns(&self) -> u64 {
        elapsed_ns(self.inner.epoch, Instant::now())
    }

    /// This thread's buffer in the recorder, from the TLS cache when
    /// possible.
    fn thread_buffer(&self) -> Arc<Buffer> {
        let id = self.inner.id;
        BUFFER_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            cache.retain(|(_, weak)| weak.strong_count() > 0);
            if let Some((_, weak)) = cache.iter().find(|(cached, _)| *cached == id) {
                if let Some(buf) = weak.upgrade() {
                    return buf;
                }
            }
            let buf = self.inner.register_thread();
            cache.push((id, Arc::downgrade(&buf)));
            buf
        })
    }

    /// Installs this recorder as the calling thread's ambient recorder
    /// until the returned guard drops. Nested installs stack; the
    /// innermost wins. The guard is not `Send`.
    pub fn install(&self) -> InstallGuard {
        let buf = self.thread_buffer();
        AMBIENT.with(|stack| stack.borrow_mut().push((Arc::clone(&self.inner), buf)));
        InstallGuard { _not_send: PhantomData }
    }

    /// Runs `f` with this recorder installed, restoring the previous
    /// ambient state afterwards (also on unwind).
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.install();
        f()
    }

    /// Drains every thread's buffer into one merged, time-sorted
    /// [`Trace`]. Spans are ordered by start time (ties broken longest
    /// first, so enclosing spans precede their children), which is the
    /// cross-thread merge order the exporters rely on.
    ///
    /// Recording may continue after `finish`; a later `finish` returns
    /// only the events recorded since.
    pub fn finish(&self) -> Trace {
        let mut trace = Trace::default();
        for buf in self.inner.buffers.lock().expect("buffer registry").iter() {
            trace.spans.append(&mut buf.spans.lock().expect("span buffer"));
            trace
                .counters
                .append(&mut buf.counters.lock().expect("counter buffer"));
            if !trace.threads.iter().any(|(tid, _)| *tid == buf.tid) {
                trace.threads.push((buf.tid, buf.label.clone()));
            }
        }
        trace
            .spans
            .sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns), s.tid));
        trace.counters.sort_by_key(|c| c.t_ns);
        trace.threads.sort_by_key(|&(tid, _)| tid);
        trace
    }
}

/// Uninstalls the innermost recorder when dropped. Returned by
/// [`Recorder::install`].
#[must_use = "dropping the guard immediately uninstalls the recorder"]
pub struct InstallGuard {
    // Raw-pointer marker makes the guard !Send + !Sync: it manipulates
    // the installing thread's ambient stack and must drop there.
    _not_send: PhantomData<*const ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        AMBIENT.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// True if the calling thread currently has a recorder installed.
pub fn active() -> bool {
    AMBIENT.with(|stack| !stack.borrow().is_empty())
}

#[inline]
fn elapsed_ns(epoch: Instant, t: Instant) -> u64 {
    t.checked_duration_since(epoch)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// An in-flight span bound to the recorder that was ambient when it
/// opened. Closes (records the span) on drop. When no recorder was
/// installed the guard is inert and costs nothing further.
pub struct Span {
    open: Option<OpenSpan>,
}

struct OpenSpan {
    rec: Arc<RecInner>,
    buf: Arc<Buffer>,
    name: Cow<'static, str>,
    cat: &'static str,
    args: Vec<(&'static str, u64)>,
    start: Instant,
}

impl Span {
    /// Attaches a numeric argument (shown under `args` in the Chrome
    /// trace). No-op on an inert span.
    pub fn with_arg(mut self, key: &'static str, value: u64) -> Span {
        if let Some(open) = &mut self.open {
            open.args.push((key, value));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            let end = Instant::now();
            let start_ns = elapsed_ns(open.rec.epoch, open.start);
            let dur_ns = elapsed_ns(open.rec.epoch, end).saturating_sub(start_ns);
            open.buf.spans.lock().expect("span buffer").push(SpanRecord {
                name: open.name,
                cat: open.cat,
                start_ns,
                dur_ns,
                tid: open.buf.tid,
                args: open.args,
            });
        }
    }
}

/// Opens a span of the given category on the ambient recorder. Returns
/// an inert guard (a single branch, no clock read) when no recorder is
/// installed on this thread.
pub fn span(cat: &'static str, name: impl Into<Cow<'static, str>>) -> Span {
    let Some((rec, buf)) = AMBIENT.with(|stack| {
        stack
            .borrow()
            .last()
            .map(|(rec, buf)| (Arc::clone(rec), Arc::clone(buf)))
    }) else {
        return Span { open: None };
    };
    Span {
        open: Some(OpenSpan {
            rec,
            buf,
            name: name.into(),
            cat: "",
            args: Vec::new(),
            start: Instant::now(),
        }),
    }
    .with_cat(cat)
}

impl Span {
    fn with_cat(mut self, cat: &'static str) -> Span {
        if let Some(open) = &mut self.open {
            open.cat = cat;
        }
        self
    }
}

/// Opens an algorithm-phase span (category `"phase"`); the name should
/// be a `rr_mp::metrics::Phase` label. Emitted automatically by
/// `rr_mp::metrics::with_phase`.
pub fn phase_span(name: &'static str) -> Span {
    span("phase", name)
}

/// Opens a pipeline-stage span (category `"stage"`, e.g. `"solve"`,
/// `"remainder"`, `"tree"`).
pub fn stage_span(name: &'static str) -> Span {
    span("stage", name)
}

/// Records an instantaneous event — a zero-duration span of the given
/// category — on the ambient recorder; a single branch when none is
/// installed. Used for point-in-time marks like injected faults and
/// cancellation, so traces show *why* a solve was abandoned.
pub fn event(cat: &'static str, name: impl Into<Cow<'static, str>>) {
    drop(span(cat, name));
}

/// Records a counter sample (e.g. a queue depth) on the ambient
/// recorder; a single branch when none is installed.
pub fn counter(name: &'static str, value: f64) {
    AMBIENT.with(|stack| {
        if let Some((rec, buf)) = stack.borrow().last() {
            let t_ns = elapsed_ns(rec.epoch, Instant::now());
            buf.counters
                .lock()
                .expect("counter buffer")
                .push(CounterRecord { name, t_ns, value });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn inactive_thread_records_nothing() {
        assert!(!active());
        let rec = Recorder::new();
        {
            let _s = phase_span("orphan"); // no recorder installed
        }
        counter("orphan", 1.0);
        assert!(rec.finish().spans.is_empty());
        assert!(rec.finish().counters.is_empty());
    }

    #[test]
    fn span_nesting_attributes_time_to_innermost() {
        let rec = Recorder::new();
        rec.run(|| {
            let _outer = phase_span("outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = phase_span("inner");
                std::thread::sleep(Duration::from_millis(2));
            }
            std::thread::sleep(Duration::from_millis(1));
        });
        let trace = rec.finish();
        assert_eq!(trace.spans.len(), 2);
        // Merge order: enclosing span first (earlier start; ties go to
        // the longer span).
        assert_eq!(trace.spans[0].name, "outer");
        assert_eq!(trace.spans[1].name, "inner");
        let (outer, inner) = (&trace.spans[0], &trace.spans[1]);
        assert!(outer.start_ns <= inner.start_ns);
        assert!(outer.start_ns + outer.dur_ns >= inner.start_ns + inner.dur_ns);
        // Self-time accounting subtracts the nested span.
        let selfs = trace.self_time_by_name("phase");
        let get = |n: &str| selfs.iter().find(|(name, ..)| name == n).unwrap().1;
        assert!(get("outer") + Duration::from_millis(1) < Duration::from_nanos(outer.dur_ns));
        assert!(get("inner") >= Duration::from_millis(2));
    }

    #[test]
    fn nested_recorders_innermost_wins() {
        let outer = Recorder::new();
        let inner = Recorder::new();
        outer.run(|| {
            let _a = phase_span("a");
            inner.run(|| {
                let _b = phase_span("b");
            });
        });
        let to = outer.finish();
        let ti = inner.finish();
        assert_eq!(to.spans.len(), 1);
        assert_eq!(to.spans[0].name, "a");
        assert_eq!(ti.spans.len(), 1);
        assert_eq!(ti.spans[0].name, "b");
        assert!(!active());
    }

    #[test]
    fn guard_restores_on_unwind() {
        let rec = Recorder::new();
        let r = std::panic::catch_unwind(|| {
            rec.run(|| panic!("boom"));
        });
        assert!(r.is_err());
        assert!(!active());
    }

    #[test]
    fn cross_thread_merge_is_time_ordered_with_distinct_tids() {
        let rec = Recorder::new();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let rec = rec.clone();
                std::thread::Builder::new()
                    .name(format!("obs-test-{i}"))
                    .spawn(move || {
                        rec.run(|| {
                            for k in 0..5u64 {
                                let _s = span("task", format!("t{i}-{k}")).with_arg("k", k);
                                std::hint::black_box(k);
                            }
                        })
                    })
                    .unwrap()
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let trace = rec.finish();
        assert_eq!(trace.spans.len(), 20);
        // Merge ordering: non-decreasing start times across threads.
        for w in trace.spans.windows(2) {
            assert!(w[0].start_ns <= w[1].start_ns);
        }
        // Four registered threads with distinct tids and captured names.
        assert_eq!(trace.threads.len(), 4);
        let tids: std::collections::BTreeSet<u32> =
            trace.spans.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 4);
        assert!(trace.threads.iter().any(|(_, l)| l == "obs-test-2"));
    }

    #[test]
    fn reinstall_reuses_one_buffer_per_thread() {
        let rec = Recorder::new();
        for _ in 0..100 {
            rec.run(|| {
                let _s = phase_span("p");
            });
        }
        let trace = rec.finish();
        assert_eq!(trace.spans.len(), 100);
        assert_eq!(trace.threads.len(), 1, "one buffer despite 100 installs");
    }

    #[test]
    fn counters_are_timestamped_and_sorted() {
        let rec = Recorder::new();
        rec.run(|| {
            counter("depth", 1.0);
            counter("depth", 3.0);
            counter("depth", 2.0);
        });
        let trace = rec.finish();
        assert_eq!(trace.counters.len(), 3);
        assert!(trace.counters.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert_eq!(trace.counters[1].value, 3.0);
    }

    #[test]
    fn finish_drains_incrementally() {
        let rec = Recorder::new();
        rec.run(|| {
            let _s = phase_span("first");
        });
        assert_eq!(rec.finish().spans.len(), 1);
        rec.run(|| {
            let _s = phase_span("second");
        });
        let t2 = rec.finish();
        assert_eq!(t2.spans.len(), 1);
        assert_eq!(t2.spans[0].name, "second");
    }
}
