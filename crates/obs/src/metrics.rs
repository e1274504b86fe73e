//! Always-on process-wide metrics: counters, gauges and base-2
//! log-bucketed histograms, cheap enough to stay hot in production.
//!
//! The per-solve [`Recorder`](crate::Recorder) answers "what happened
//! inside *one* solve"; this registry answers the complementary fleet
//! question — "what are *all* solves doing over time" — without any
//! recorder installed: per-phase latency percentiles, profile-tagged
//! throughput, allocation and cancellation rates.
//!
//! ## Design
//!
//! * **Per-thread shards, merged on scrape.** Each `(metric, thread)`
//!   pair owns a private cache-line of atomics; a record is a
//!   thread-local indexed lookup plus a handful of `Relaxed`
//!   `fetch_add`s, with no shared cache line ever contended. Scrapes
//!   ([`snapshot`],
//!   [`render_prometheus`]) take the registry lock and sum across
//!   shards; the hot path never takes a lock.
//! * **Base-2 log buckets.** Histograms bucket by bit length
//!   (`64 - leading_zeros`), giving 65 buckets covering the full `u64`
//!   range — the right shape for latencies and operand bit sizes that
//!   span many orders of magnitude. Percentiles are estimated by
//!   linear interpolation inside the crossing bucket and clamped to the
//!   exact observed maximum (tracked via `fetch_max`).
//! * **Exactness across thread churn.** A shard registered by a thread
//!   is owned by the registry (`Arc`), so counts survive thread exit.
//!   [`release_thread`] — registered as a pool idle hook — folds a
//!   parked worker's shards into per-metric *retired* totals under the
//!   same lock a scrape takes, so a scrape racing a drain never double
//!   counts or loses a shard.
//! * **Observe, never steer.** Nothing in this module feeds back into
//!   the solver: cost-model outputs are byte-identical with metrics hot,
//!   cold, or disabled (`RR_METRICS=off`, read once at first use).
//!
//! ```
//! use std::sync::LazyLock;
//! use rr_obs::metrics::{Counter, Histogram};
//!
//! static SOLVES: LazyLock<Counter> =
//!     rr_obs::register_metric!(counter, "doc_solves_total", "Completed solves");
//! static WALL: LazyLock<Histogram> =
//!     rr_obs::register_metric!(histogram, "doc_solve_wall_ns", "Solve wall time (ns)");
//!
//! SOLVES.inc();
//! WALL.record(1_234);
//! let snap = rr_obs::metrics::snapshot();
//! assert!(snap.counter("doc_solves_total").unwrap() >= 1);
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Number of base-2 log buckets: bucket 0 holds the value `0`, bucket
/// `b` (1 ≤ b ≤ 64) holds values with bit length `b`, i.e. the range
/// `[2^(b-1), 2^b - 1]`.
pub const HIST_BUCKETS: usize = 65;

/// Bucket index for a recorded value (its bit length).
#[inline]
fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive value range `[lo, hi]` covered by bucket `b`.
fn bucket_range(b: usize) -> (u64, u64) {
    match b {
        0 => (0, 0),
        64 => (1u64 << 63, u64::MAX),
        _ => (1u64 << (b - 1), (1u64 << b) - 1),
    }
}

/// What a registered metric is; fixed at registration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

/// One thread's private slice of a metric: a few atomics only the
/// owning thread writes. Single-writer is a hard invariant (the shard
/// lives in the owner's TLS slot and [`release_thread`] runs on the
/// owning thread), so updates are plain load+store pairs rather than
/// `lock`-prefixed RMWs — the difference between ~2 ns and ~25 ns per
/// histogram record at per-`Int`-op call rates. Scrapes read the same
/// atomics `Relaxed` from other threads and tolerate being a few
/// operations behind; totals are exact once the writer quiesces.
struct Shard {
    /// Histogram buckets (empty for counters/gauges).
    buckets: Box<[AtomicU64]>,
    /// Counter value, or histogram sample count.
    count: AtomicU64,
    /// Histogram sum of recorded values (wrapping).
    sum: AtomicU64,
    /// Histogram maximum recorded value.
    max: AtomicU64,
}

/// Single-writer increment: safe only from the shard's owning thread.
#[inline]
fn bump(cell: &AtomicU64, d: u64) {
    cell.store(cell.load(Relaxed).wrapping_add(d), Relaxed);
}

impl Shard {
    fn new(kind: Kind) -> Arc<Self> {
        let buckets: Box<[AtomicU64]> = match kind {
            Kind::Histogram => (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            _ => Box::from([]),
        };
        Arc::new(Shard {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        })
    }
}

/// Folded totals from shards whose owning thread drained or exited.
#[derive(Default)]
struct Retired {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Retired {
    fn fold(&mut self, shard: &Shard) {
        if self.buckets.len() < shard.buckets.len() {
            self.buckets.resize(shard.buckets.len(), 0);
        }
        for (acc, b) in self.buckets.iter_mut().zip(&shard.buckets) {
            *acc = acc.wrapping_add(b.load(Relaxed));
        }
        self.count = self.count.wrapping_add(shard.count.load(Relaxed));
        self.sum = self.sum.wrapping_add(shard.sum.load(Relaxed));
        self.max = self.max.max(shard.max.load(Relaxed));
    }
}

/// A registered metric: descriptor plus its live shards and retired
/// totals. Label keys and values are `'static` by construction — label
/// sets are typed enumerations (phase, profile, outcome), not free-form
/// strings, so registration cannot explode cardinality at runtime.
struct Metric {
    name: &'static str,
    help: &'static str,
    labels: Vec<(&'static str, &'static str)>,
    kind: Kind,
    shards: Vec<Arc<Shard>>,
    retired: Retired,
    /// Gauge cell (gauges are set, not accumulated, so they are a
    /// single shared atomic rather than sharded).
    gauge: Arc<AtomicI64>,
}

static REGISTRY: Mutex<Vec<Metric>> = Mutex::new(Vec::new());

thread_local! {
    /// Per-thread shard cache, indexed by metric id. Entry `None` means
    /// this thread has not recorded into that metric since the last
    /// [`release_thread`].
    static TLS_SHARDS: RefCell<Vec<Option<Arc<Shard>>>> = const { RefCell::new(Vec::new()) };
}

/// Whether recording is enabled. `RR_METRICS=off|0|false` disables the
/// record paths (registration and scraping still work, reporting
/// zeros); read once at first use.
pub fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        !matches!(
            std::env::var("RR_METRICS").as_deref(),
            Ok("off") | Ok("0") | Ok("false")
        )
    })
}

fn register(
    name: &'static str,
    help: &'static str,
    labels: &[(&'static str, &'static str)],
    kind: Kind,
) -> u32 {
    let mut reg = REGISTRY.lock().unwrap();
    if let Some(id) = reg
        .iter()
        .position(|m| m.name == name && m.labels == labels)
    {
        assert_eq!(
            reg[id].kind, kind,
            "metric {name} re-registered with a different kind"
        );
        return id as u32;
    }
    reg.push(Metric {
        name,
        help,
        labels: labels.to_vec(),
        kind,
        shards: Vec::new(),
        retired: Retired::default(),
        gauge: Arc::new(AtomicI64::new(0)),
    });
    (reg.len() - 1) as u32
}

/// Registers (or looks up) a labeled monotone counter. Registering the
/// same `(name, labels)` pair twice returns the same series.
pub fn counter_with(
    name: &'static str,
    help: &'static str,
    labels: &[(&'static str, &'static str)],
) -> Counter {
    Counter {
        id: register(name, help, labels, Kind::Counter),
    }
}

/// Registers (or looks up) an unlabeled monotone counter.
pub fn counter(name: &'static str, help: &'static str) -> Counter {
    counter_with(name, help, &[])
}

/// Registers (or looks up) a labeled base-2 log-bucketed histogram.
pub fn histogram_with(
    name: &'static str,
    help: &'static str,
    labels: &[(&'static str, &'static str)],
) -> Histogram {
    Histogram {
        id: register(name, help, labels, Kind::Histogram),
    }
}

/// Registers (or looks up) an unlabeled histogram.
pub fn histogram(name: &'static str, help: &'static str) -> Histogram {
    histogram_with(name, help, &[])
}

/// Registers (or looks up) a labeled gauge.
pub fn gauge_with(
    name: &'static str,
    help: &'static str,
    labels: &[(&'static str, &'static str)],
) -> Gauge {
    let id = register(name, help, labels, Kind::Gauge);
    let cell = REGISTRY.lock().unwrap()[id as usize].gauge.clone();
    Gauge { cell }
}

/// Registers (or looks up) an unlabeled gauge.
pub fn gauge(name: &'static str, help: &'static str) -> Gauge {
    gauge_with(name, help, &[])
}

/// Declares a metric handle for a `static LazyLock` — the idiomatic
/// registration form. The metric registers on first use:
///
/// ```
/// use std::sync::LazyLock;
/// use rr_obs::metrics::Counter;
///
/// static CANCELLED: LazyLock<Counter> = rr_obs::register_metric!(
///     counter, "doc_cancelled_total", "Cancelled solves", "outcome" => "cancelled");
/// CANCELLED.inc();
/// ```
#[macro_export]
macro_rules! register_metric {
    (counter, $name:expr, $help:expr $(, $lk:expr => $lv:expr)* $(,)?) => {
        ::std::sync::LazyLock::new(|| {
            $crate::metrics::counter_with($name, $help, &[$(($lk, $lv)),*])
        })
    };
    (gauge, $name:expr, $help:expr $(, $lk:expr => $lv:expr)* $(,)?) => {
        ::std::sync::LazyLock::new(|| {
            $crate::metrics::gauge_with($name, $help, &[$(($lk, $lv)),*])
        })
    };
    (histogram, $name:expr, $help:expr $(, $lk:expr => $lv:expr)* $(,)?) => {
        ::std::sync::LazyLock::new(|| {
            $crate::metrics::histogram_with($name, $help, &[$(($lk, $lv)),*])
        })
    };
}

/// Finds (or creates and registers) the calling thread's shard for
/// metric `id` and applies `f` to it. Returns `None` only during thread
/// teardown when the TLS cache is already destroyed (such records are
/// dropped rather than panicking in a destructor).
#[inline]
fn with_shard<R>(id: u32, kind: Kind, f: impl FnOnce(&Shard) -> R) -> Option<R> {
    TLS_SHARDS
        .try_with(|tls| {
            let mut tls = tls.borrow_mut();
            let i = id as usize;
            if let Some(Some(shard)) = tls.get(i) {
                return f(shard);
            }
            if tls.len() <= i {
                tls.resize(i + 1, None);
            }
            let shard = Shard::new(kind);
            REGISTRY.lock().unwrap()[i].shards.push(shard.clone());
            let out = f(&shard);
            tls[i] = Some(shard);
            out
        })
        .ok()
}

/// A monotone counter handle. Copyable; incrementing is a thread-local
/// indexed lookup plus one `Relaxed` `fetch_add`.
#[derive(Clone, Copy, Debug)]
pub struct Counter {
    id: u32,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(self, n: u64) {
        if !enabled() {
            return;
        }
        with_shard(self.id, Kind::Counter, |s| {
            bump(&s.count, n);
        });
    }

    /// Adds 1 to the counter.
    #[inline]
    pub fn inc(self) {
        self.add(1);
    }
}

/// A gauge handle: an instantaneous level (queue depth, live workers).
/// Set/add go straight to one shared atomic — gauges are low-frequency
/// compared to counters and histograms, and "last write wins" is the
/// semantic a level wants.
#[derive(Clone, Debug)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.cell.store(v, Relaxed);
        }
    }

    /// Adds `d` (possibly negative) to the gauge.
    #[inline]
    pub fn add(&self, d: i64) {
        if enabled() {
            self.cell.fetch_add(d, Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Relaxed)
    }
}

/// A base-2 log-bucketed histogram handle. Recording is four
/// single-writer load+store pairs on thread-private cache lines
/// (bucket, count, sum, max) — a couple of nanoseconds. Call sites
/// hotter than ~10⁷ records/s should still sample (see
/// `rr_mp::metrics`' operand-bit histograms).
#[derive(Clone, Copy, Debug)]
pub struct Histogram {
    id: u32,
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(self, v: u64) {
        if !enabled() {
            return;
        }
        with_shard(self.id, Kind::Histogram, |s| {
            bump(&s.buckets[bucket_index(v)], 1);
            bump(&s.count, 1);
            bump(&s.sum, v);
            if v > s.max.load(Relaxed) {
                s.max.store(v, Relaxed);
            }
        });
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }
}

/// Folds the calling thread's shards into the registry's retired totals
/// and drops them from the live-shard lists. Registered as a pool idle
/// hook (`rr_sched::set_worker_idle_hook`) so parked workers don't pin
/// per-thread state; safe to call at any time — subsequent records
/// transparently re-register fresh shards. The fold happens under the
/// registry lock, the same lock a scrape takes, so totals stay exact.
pub fn release_thread() {
    let mine: Vec<Option<Arc<Shard>>> = match TLS_SHARDS.try_with(|tls| tls.take()) {
        Ok(v) => v,
        Err(_) => return,
    };
    if mine.iter().all(Option::is_none) {
        return;
    }
    let mut reg = REGISTRY.lock().unwrap();
    for (id, shard) in mine.iter().enumerate() {
        let Some(shard) = shard else { continue };
        let metric = &mut reg[id];
        metric.retired.fold(shard);
        metric.shards.retain(|s| !Arc::ptr_eq(s, shard));
    }
}

/// One counter series in a [`MetricsSnapshot`].
#[derive(Clone, Debug)]
pub struct CounterValue {
    /// Metric name.
    pub name: &'static str,
    /// Label set fixed at registration.
    pub labels: Vec<(&'static str, &'static str)>,
    /// Merged total across all threads.
    pub value: u64,
}

/// One gauge series in a [`MetricsSnapshot`].
#[derive(Clone, Debug)]
pub struct GaugeValue {
    /// Metric name.
    pub name: &'static str,
    /// Label set fixed at registration.
    pub labels: Vec<(&'static str, &'static str)>,
    /// Last value set.
    pub value: i64,
}

/// One histogram series in a [`MetricsSnapshot`]: merged buckets plus
/// exact count/sum/max.
#[derive(Clone, Debug)]
pub struct HistogramSummary {
    /// Metric name.
    pub name: &'static str,
    /// Label set fixed at registration.
    pub labels: Vec<(&'static str, &'static str)>,
    /// Exact number of samples.
    pub count: u64,
    /// Exact (wrapping) sum of samples.
    pub sum: u64,
    /// Exact maximum sample.
    pub max: u64,
    /// Base-2 log buckets (see [`HIST_BUCKETS`]).
    pub buckets: Vec<u64>,
}

impl HistogramSummary {
    /// Estimated `q`-quantile (0 < q ≤ 1): linear interpolation inside
    /// the bucket where the cumulative count crosses `q·count`, clamped
    /// to the exact observed maximum. With ~65 buckets the estimate is
    /// within a factor of 2 of the true order statistic, which is the
    /// resolution a log-scale latency distribution calls for.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil()).max(1.0) as u64;
        let mut cum = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let before = cum;
            cum += c;
            if cum >= target {
                let (lo, hi) = bucket_range(b);
                let frac = (target - before) as f64 / c as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return est.min(self.max as f64);
            }
        }
        self.max as f64
    }

    /// Estimated median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// Estimated 90th percentile.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Exact mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value of the label `key`, if registered.
    pub fn label(&self, key: &str) -> Option<&'static str> {
        self.labels.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// A merged point-in-time view of every registered metric, in
/// registration order. Taking a snapshot locks the registry briefly
/// (micro­seconds); it never blocks recording threads.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// All counter series.
    pub counters: Vec<CounterValue>,
    /// All gauge series.
    pub gauges: Vec<GaugeValue>,
    /// All histogram series.
    pub histograms: Vec<HistogramSummary>,
}

impl MetricsSnapshot {
    /// Total of the first counter series named `name` summed over all
    /// its label sets (`None` if no such counter is registered).
    pub fn counter(&self, name: &str) -> Option<u64> {
        let mut found = false;
        let mut total = 0u64;
        for c in self.counters.iter().filter(|c| c.name == name) {
            found = true;
            total = total.wrapping_add(c.value);
        }
        found.then_some(total)
    }

    /// All histogram series named `name` (one per label set).
    pub fn histograms_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a HistogramSummary> {
        self.histograms.iter().filter(move |h| h.name == name)
    }
}

/// Takes a merged snapshot of every registered metric: live shards plus
/// retired totals, summed under the registry lock.
pub fn snapshot() -> MetricsSnapshot {
    let reg = REGISTRY.lock().unwrap();
    let mut snap = MetricsSnapshot::default();
    for m in reg.iter() {
        match m.kind {
            Kind::Counter => {
                let mut v = m.retired.count;
                for s in &m.shards {
                    v = v.wrapping_add(s.count.load(Relaxed));
                }
                snap.counters.push(CounterValue {
                    name: m.name,
                    labels: m.labels.clone(),
                    value: v,
                });
            }
            Kind::Gauge => {
                snap.gauges.push(GaugeValue {
                    name: m.name,
                    labels: m.labels.clone(),
                    value: m.gauge.load(Relaxed),
                });
            }
            Kind::Histogram => {
                let mut buckets = vec![0u64; HIST_BUCKETS];
                let mut count = m.retired.count;
                let mut sum = m.retired.sum;
                let mut max = m.retired.max;
                for (acc, &b) in buckets.iter_mut().zip(m.retired.buckets.iter()) {
                    *acc = b;
                }
                for s in &m.shards {
                    for (acc, b) in buckets.iter_mut().zip(&s.buckets) {
                        *acc = acc.wrapping_add(b.load(Relaxed));
                    }
                    count = count.wrapping_add(s.count.load(Relaxed));
                    sum = sum.wrapping_add(s.sum.load(Relaxed));
                    max = max.max(s.max.load(Relaxed));
                }
                snap.histograms.push(HistogramSummary {
                    name: m.name,
                    labels: m.labels.clone(),
                    count,
                    sum,
                    max,
                    buckets,
                });
            }
        }
    }
    snap
}

fn fmt_labels(out: &mut String, labels: &[(&str, &str)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels.iter().copied().chain(extra) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
}

/// Renders the whole registry in the Prometheus text exposition format
/// (version 0.0.4): `# HELP`/`# TYPE` headers, all series of a family
/// contiguous, histograms as cumulative `_bucket{le=…}` series plus
/// `_sum`/`_count`. Bucket upper bounds are the inclusive tops of the
/// base-2 buckets (`0, 1, 3, 7, …, 2^b − 1, +Inf`); empty high buckets
/// are elided (the cumulative encoding keeps that lossless).
pub fn render_prometheus() -> String {
    let snap = snapshot();
    render_prometheus_from(&snap)
}

/// Renders an already-taken [`MetricsSnapshot`] (see
/// [`render_prometheus`]).
pub fn render_prometheus_from(snap: &MetricsSnapshot) -> String {
    enum Series<'a> {
        Counter(&'a CounterValue),
        Gauge(&'a GaugeValue),
        Histogram(&'a HistogramSummary),
    }
    // Group series into families (same name), preserving registration
    // order: Prometheus requires one TYPE header per family with all
    // its series following contiguously.
    type Family<'a> = (&'static str, &'static str, Vec<Series<'a>>);
    fn push<'a>(families: &mut Vec<Family<'a>>, name: &'static str, typ: &'static str, s: Series<'a>) {
        match families.iter_mut().find(|(n, t, _)| *n == name && *t == typ) {
            Some((_, _, v)) => v.push(s),
            None => families.push((name, typ, vec![s])),
        }
    }
    let mut families: Vec<Family<'_>> = Vec::new();
    for c in &snap.counters {
        push(&mut families, c.name, "counter", Series::Counter(c));
    }
    for g in &snap.gauges {
        push(&mut families, g.name, "gauge", Series::Gauge(g));
    }
    for h in &snap.histograms {
        push(&mut families, h.name, "histogram", Series::Histogram(h));
    }

    let mut out = String::new();
    let mut le = String::new();
    for (name, typ, series) in &families {
        let help = {
            let reg = REGISTRY.lock().unwrap();
            reg.iter()
                .find(|m| m.name == *name)
                .map_or("", |m| m.help)
        };
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {typ}\n"));
        for s in series {
            match s {
                Series::Counter(c) => {
                    out.push_str(name);
                    fmt_labels(&mut out, &c.labels, None);
                    out.push_str(&format!(" {}\n", c.value));
                }
                Series::Gauge(g) => {
                    out.push_str(name);
                    fmt_labels(&mut out, &g.labels, None);
                    out.push_str(&format!(" {}\n", g.value));
                }
                Series::Histogram(h) => {
                    let top = h
                        .buckets
                        .iter()
                        .rposition(|&c| c != 0)
                        .map_or(0, |i| i + 1);
                    let mut cum = 0u64;
                    for (b, &c) in h.buckets.iter().enumerate().take(top) {
                        cum += c;
                        le.clear();
                        le.push_str(&bucket_range(b).1.to_string());
                        out.push_str(&format!("{name}_bucket"));
                        fmt_labels(&mut out, &h.labels, Some(("le", le.as_str())));
                        out.push_str(&format!(" {cum}\n"));
                    }
                    out.push_str(&format!("{name}_bucket"));
                    fmt_labels(&mut out, &h.labels, Some(("le", "+Inf")));
                    out.push_str(&format!(" {}\n", h.count));
                    out.push_str(&format!("{name}_sum"));
                    fmt_labels(&mut out, &h.labels, None);
                    out.push_str(&format!(" {}\n", h.sum));
                    out.push_str(&format!("{name}_count"));
                    fmt_labels(&mut out, &h.labels, None);
                    out.push_str(&format!(" {}\n", h.count));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_is_exact_across_threads_and_drains() {
        let c = counter("test_exact_total", "test");
        let before = snapshot().counter("test_exact_total").unwrap();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                    // Half the threads drain like a parking worker,
                    // half exit with live shards: both must be exact.
                    if i % 2 == 0 {
                        release_thread();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let after = snapshot().counter("test_exact_total").unwrap();
        assert_eq!(after - before, 80_000);
    }

    #[test]
    fn histogram_percentiles_and_exact_stats() {
        let h = histogram("test_hist_ns", "test");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = snapshot();
        let s = snap.histograms_named("test_hist_ns").next().unwrap();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.max, 1000);
        let p50 = s.p50();
        assert!((128.0..=1000.0).contains(&p50), "p50 = {p50}");
        assert!(s.p90() >= p50);
        assert!(s.p99() >= s.p90());
        assert!(s.p99() <= 1000.0, "clamped to observed max");
        assert_eq!(s.quantile(1.0), 1000.0);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_survives_thread_exit_and_release() {
        let h = histogram_with("test_drain_ns", "test", &[("phase", "t")]);
        let before = snapshot()
            .histograms_named("test_drain_ns")
            .next()
            .unwrap()
            .count;
        thread::spawn(move || {
            for _ in 0..500 {
                h.record(7);
            }
            release_thread();
            // Records after a drain re-register a fresh shard.
            for _ in 0..500 {
                h.record(9);
            }
        })
        .join()
        .unwrap();
        let snap = snapshot();
        let s = snap.histograms_named("test_drain_ns").next().unwrap();
        assert_eq!(s.count - before, 1000);
        assert_eq!(s.label("phase"), Some("t"));
    }

    #[test]
    fn registration_dedups_by_name_and_labels() {
        let a = counter_with("test_dedup_total", "test", &[("op", "x")]);
        let b = counter_with("test_dedup_total", "test", &[("op", "x")]);
        let c = counter_with("test_dedup_total", "test", &[("op", "y")]);
        assert_eq!(a.id, b.id);
        assert_ne!(a.id, c.id);
        a.inc();
        b.inc();
        assert!(snapshot().counter("test_dedup_total").unwrap() >= 2);
    }

    #[test]
    fn gauge_last_write_wins() {
        let g = gauge("test_gauge", "test");
        g.set(42);
        g.add(-2);
        let snap = snapshot();
        let v = snap
            .gauges
            .iter()
            .find(|g| g.name == "test_gauge")
            .unwrap()
            .value;
        assert_eq!(v, 40);
    }

    #[test]
    fn prometheus_text_has_headers_buckets_and_totals() {
        let h = histogram_with("test_prom_ns", "prom test", &[("phase", "p")]);
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        counter("test_prom_total", "prom counter").add(3);
        let text = render_prometheus();
        assert!(text.contains("# HELP test_prom_ns prom test"));
        assert!(text.contains("# TYPE test_prom_ns histogram"));
        assert!(text.contains("test_prom_ns_bucket{phase=\"p\",le=\"+Inf\"}"));
        assert!(text.contains("test_prom_ns_count{phase=\"p\"}"));
        assert!(text.contains("test_prom_ns_sum{phase=\"p\"}"));
        assert!(text.contains("# TYPE test_prom_total counter"));
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .rsplit_once(' ')
                        .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn bucket_index_covers_the_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(u64::MAX), 64);
        for b in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_range(b);
            assert_eq!(bucket_index(lo), b);
            assert_eq!(bucket_index(hi), b);
        }
    }
}
