//! The metric catalogue, one run's report, and certification of every
//! answer a run collected.

use crate::certify::{Certifier, SignWork};
use crate::trace::Spans;
use crate::workloads::Input;
use rr_core::Degradation;
use rr_mp::Int;
use std::time::Instant;

/// End-to-end metrics (tracing off), each reported on every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("solve_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("p90_ms", "ms"),
];

/// The solver phases whose self time the traced run reports.
pub const PHASES: [&str; 7] = [
    "remainder",
    "treepoly",
    "sort",
    "preinterval",
    "sieve",
    "bisection",
    "newton",
];

/// The phases that make up the interval stage.
pub const INTERVAL_PHASES: [&str; 3] = ["sieve", "bisection", "newton"];

/// Per-layer metrics (traced run), each reported on every workload.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("core.self_ms.remainder", "ms"),
    ("core.self_ms.treepoly", "ms"),
    ("core.self_ms.sort", "ms"),
    ("core.self_ms.preinterval", "ms"),
    ("core.self_ms.sieve", "ms"),
    ("core.self_ms.bisection", "ms"),
    ("core.self_ms.newton", "ms"),
    ("core.coverage", "ratio"),
    ("core.interval_share", "ratio"),
    ("core.tree_share", "ratio"),
    ("core.degraded", "count"),
    ("mp.mul_count.remainder", "count"),
    ("mp.mul_count.treepoly", "count"),
    ("mp.mul_count.interval", "count"),
    ("mp.mul_bits.remainder", "bits"),
    ("mp.mul_bits.treepoly", "bits"),
    ("mp.mul_bits.interval", "bits"),
    ("mp.div_count.remainder", "count"),
    ("mp.div_count.treepoly", "count"),
    ("mp.div_count.interval", "count"),
    ("sched.tasks", "count"),
    ("sched.parallelism", "ratio"),
    ("sched.work_share", "ratio"),
    ("sched.span_share", "ratio"),
    ("sched.busy_share", "ratio"),
    ("sched.empty_polls", "count"),
    ("poly.remainder_sequence_ms", "ms"),
    ("poly.sign_at_us", "us"),
    ("obs.trace_overhead", "ratio"),
    ("serve.overhead_ms.p50", "ms"),
    ("serve.overhead_ms.p99", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.solve_ms.p50", "ms"),
    ("serve.solve_ms.p99", "ms"),
    ("serve.retries", "count"),
    ("serve.rejected", "count"),
    ("serve.task_latency_us.p99", "us"),
    ("serve.gen_late_ms.p99", "ms"),
    ("serve.max_rate_ok_per_s", "1/s"),
];

/// What one workload run measured.
pub struct Report {
    traced: bool,
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// Operations attempted (solves and requests, warm-up included).
    pub attempted: u64,
    /// Operations that failed: errors, wrong roots, unexpected
    /// degradation, non-`ok` responses.
    pub failed: u64,
}

impl Report {
    /// An empty report for a traced or untraced run.
    pub fn new(traced: bool) -> Report {
        Report {
            traced,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn catalogue(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Sets metric `name`, which must be in this run's catalogue.
    ///
    /// # Panics
    /// Panics on an unknown name or a non-finite value (both bugs here).
    pub fn set(&mut self, name: &str, value: f64) {
        let &(name, unit) = self
            .catalogue()
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        assert!(value.is_finite(), "metric {name} is {value}");
        self.metrics.retain(|(n, _, _)| *n != name);
        self.metrics.push((name, unit, value));
    }

    /// The metrics in catalogue order.
    ///
    /// # Panics
    /// Panics if a catalogue metric was never set (a bug here).
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        self.catalogue()
            .iter()
            .map(|(name, _)| {
                *self
                    .metrics
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"))
            })
            .collect()
    }
}

/// One answer to certify: from a library solve or a wire response.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Solve or request id (shared with its spans).
    pub id: u64,
    /// Index of the input it answers.
    pub input: usize,
    /// Reported number of distinct roots.
    pub n_star: usize,
    /// Root numerators at precision `mu`.
    pub nums: Vec<Int>,
    /// Precision of the roots.
    pub mu: u64,
    /// Degradation code, if any.
    pub degraded: Option<String>,
}

impl Answer {
    /// The answer carried by a library result.
    pub fn from_result(id: u64, input: usize, r: &rr_core::RootsResult) -> Answer {
        Answer {
            id,
            input,
            n_star: r.n_star,
            nums: r.roots.iter().map(|d| d.num.clone()).collect(),
            mu: r.roots.first().map_or(0, |d| d.mu),
            degraded: r.degraded.map(|d| d.code().to_string()),
        }
    }
}

/// Certifies every answer against its input; returns the number
/// rejected and the certifier's sign-evaluation work. Identical answers
/// for one input are certified once, and each input's first rejection
/// is logged.
///
/// The only degradation a correct answer may carry is the input's
/// explicit expectation or, for an input with repeated roots, the
/// squarefree retry.
pub fn certify_answers(inputs: &[Input], answers: &[Answer], spans: &Spans) -> (u64, SignWork) {
    let mut certifiers: Vec<Option<Certifier>> = inputs.iter().map(|_| None).collect();
    let mut certified: Vec<Vec<&Answer>> = vec![Vec::new(); inputs.len()];
    let mut logged = vec![false; inputs.len()];
    let mut work = SignWork::default();
    let mut failed = 0;
    for a in answers {
        let input = &inputs[a.input];
        let same = |c: &&Answer| {
            (c.n_star, c.mu, &c.degraded, &c.nums) == (a.n_star, a.mu, &a.degraded, &a.nums)
        };
        if certified[a.input].iter().any(same) {
            continue;
        }
        let t = Instant::now();
        let certifier = certifiers[a.input].get_or_insert_with(|| Certifier::new(&input.poly));
        let repeated = certifier.has_repeated_roots(&input.poly);
        let expect = input
            .expect
            .or(repeated.then_some(Degradation::SquarefreeRetry));
        let verdict = if a.degraded.as_deref() != expect.map(|d| d.code()) {
            Err(format!(
                "degraded {:?}, expected {:?}",
                a.degraded,
                expect.map(|d| d.code())
            ))
        } else if !a.nums.is_empty() && a.mu != input.mu {
            Err(format!("roots at µ={}, asked µ={}", a.mu, input.mu))
        } else {
            certifier
                .check(a.n_star, &a.nums, input.mu, &mut work)
                .map_err(|why| format!("{why:?}"))
        };
        match verdict {
            Ok(()) => certified[a.input].push(a),
            Err(why) => {
                if !std::mem::replace(&mut logged[a.input], true) {
                    eprintln!("rrbench: {}: wrong answer (id {}): {why}", input.name, a.id);
                }
                failed += 1;
            }
        }
        spans.record("layer", "certify", a.id, 0, t, Instant::now(), vec![]);
    }
    (failed, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_bench::json::{from_str, Value};

    fn bench_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().into(),
                    m["unit"].as_str().unwrap().into(),
                )
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = bench_json();
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn report_keeps_catalogue_order_and_rejects_unknown_names() {
        let mut r = Report::new(false);
        for (i, (name, _)) in END_TO_END.iter().rev().enumerate() {
            r.set(name, i as f64 + 1.0);
        }
        let names: Vec<&str> = r.metrics().iter().map(|m| m.0).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>());
        assert!(std::panic::catch_unwind(move || r.set("core.coverage", 1.0)).is_err());
    }
}
