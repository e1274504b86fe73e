//! Fleet-metrics exercise + dump: runs a mixed-size solve batch with
//! the always-on `rr_obs::metrics` registry hot, then prints the
//! per-phase latency percentile table (p50/p90/p99/max from the base-2
//! log histograms) and the full Prometheus text exposition — the same
//! text an `rr-serve` scrape endpoint would return.
//!
//! With `--json` the percentile report is written in the unified
//! `results/BENCH_*.json` schema (one series row per histogram plus one
//! per counter), which `tools/check_bench.py` validates and gates.
//!
//! ```sh
//! cargo run --release -p rr-bench --bin metrics_dump -- \
//!     [--solves 100] [--mu-digits 8] [--threads 4] [--no-prometheus] \
//!     [--json results/BENCH_metrics.json]
//! ```

use rr_bench::json::Value;
use rr_bench::schema::maybe_write_bench_json;
use rr_bench::{digits_to_bits, Args};
use rr_core::{solve_batch, SolverConfig};
use rr_obs::metrics::{HistogramSummary, MetricsSnapshot};
use rr_workload::charpoly_input;
use std::collections::BTreeMap;

/// The mixed degree cycle of the batch: small enough that 100 solves
/// stay fast, spread enough that phase histograms see real variance.
const DEGREES: [usize; 7] = [8, 12, 16, 20, 24, 28, 32];

fn fmt_ns(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}µs", v / 1e3)
    } else {
        format!("{v:.0}ns")
    }
}

fn print_hist_table(title: &str, unit: &str, hists: &[&HistogramSummary]) {
    if hists.iter().all(|h| h.count == 0) {
        return;
    }
    let fmt: fn(f64) -> String = if unit == "ns" {
        fmt_ns
    } else {
        |v| format!("{v:.0}")
    };
    println!("\n{title}");
    println!("  {:<14} | {:>10} | {:>10} | {:>10} | {:>10} | {:>10}", "series", "count", "p50", "p90", "p99", "max");
    println!(" ----------------+------------+------------+------------+------------+-----------");
    for h in hists {
        if h.count == 0 {
            continue;
        }
        let label = h
            .labels
            .iter()
            .map(|(_, v)| *v)
            .collect::<Vec<_>>()
            .join(",");
        let label = if label.is_empty() { "(all)" } else { &label };
        println!(
            "  {:<14} | {:>10} | {:>10} | {:>10} | {:>10} | {:>10}",
            label,
            h.count,
            fmt(h.p50()),
            fmt(h.p90()),
            fmt(h.p99()),
            fmt(h.max as f64),
        );
    }
}

/// One series row of the JSON report: the histogram's labels flattened
/// next to its percentile summary (or a counter's total).
fn series_rows(snap: &MetricsSnapshot) -> Value {
    let mut rows = Vec::new();
    for h in &snap.histograms {
        let mut row = BTreeMap::new();
        row.insert("metric".into(), Value::Str(h.name.to_string()));
        for (k, v) in &h.labels {
            row.insert((*k).into(), Value::Str((*v).to_string()));
        }
        row.insert("count".into(), Value::Num(h.count as f64));
        row.insert("sum".into(), Value::Num(h.sum as f64));
        row.insert("max".into(), Value::Num(h.max as f64));
        row.insert("p50".into(), Value::Num(h.p50()));
        row.insert("p90".into(), Value::Num(h.p90()));
        row.insert("p99".into(), Value::Num(h.p99()));
        rows.push(Value::Object(row));
    }
    for c in &snap.counters {
        let mut row = BTreeMap::new();
        row.insert("metric".into(), Value::Str(c.name.to_string()));
        for (k, v) in &c.labels {
            row.insert((*k).into(), Value::Str((*v).to_string()));
        }
        row.insert("count".into(), Value::Num(c.value as f64));
        rows.push(Value::Object(row));
    }
    Value::Array(rows)
}

fn main() {
    let args = Args::parse();
    let solves: usize = args.get("solves").unwrap_or(100);
    let digits: u64 = args.get("mu-digits").unwrap_or(8);
    let threads: usize = args.get("threads").unwrap_or(4);
    let mu = digits_to_bits(digits);

    println!(
        "metrics_dump: {solves} mixed-size solves (n ∈ {DEGREES:?}, µ = {digits} digits), \
         dynamic mode on {threads} threads, metrics registry {}",
        if rr_obs::metrics::enabled() { "on" } else { "off (RR_METRICS)" },
    );

    let inputs: Vec<_> = (0..solves)
        .map(|i| charpoly_input(DEGREES[i % DEGREES.len()], (i / DEGREES.len()) as u64))
        .collect();
    let t0 = std::time::Instant::now();
    let results = solve_batch(&inputs, SolverConfig::parallel(mu, threads));
    let wall = t0.elapsed();
    let ok = results.iter().filter(|r| r.is_ok()).count();
    println!(
        "batch: {ok}/{} solves ok in {:.2?} ({:.1} solves/s)",
        results.len(),
        wall,
        results.len() as f64 / wall.as_secs_f64()
    );
    assert_eq!(ok, results.len(), "charpoly workload solves must succeed");

    let snap = rr_obs::metrics::snapshot();

    let phase: Vec<&HistogramSummary> = snap.histograms_named("rr_phase_duration_ns").collect();
    print_hist_table("per-phase latency (rr_phase_duration_ns)", "ns", &phase);
    let wall_h: Vec<&HistogramSummary> = snap.histograms_named("rr_solve_wall_ns").collect();
    print_hist_table("per-solve wall time (rr_solve_wall_ns)", "ns", &wall_h);
    let lat: Vec<&HistogramSummary> = snap.histograms_named("rr_sched_task_latency_ns").collect();
    print_hist_table("pool task latency (rr_sched_task_latency_ns)", "ns", &lat);
    let bits: Vec<&HistogramSummary> = snap.histograms_named("rr_mp_operand_bits").collect();
    print_hist_table("Int operand bits (rr_mp_operand_bits)", "bits", &bits);

    println!("\nsolve outcomes (rr_solves_total by outcome × profile):");
    for c in snap.counters.iter().filter(|c| c.name == "rr_solves_total") {
        let labels = c
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!("  {:>6}  {labels}", c.value);
    }

    if !args.flag("no-prometheus") {
        println!("\n--- Prometheus exposition (render_prometheus) ---");
        print!("{}", rr_obs::metrics::render_prometheus_from(&snap));
    }

    maybe_write_bench_json(
        args.get("json"),
        "metrics_dump",
        &[
            ("solves", Value::Num(solves as f64)),
            ("mu_digits", Value::Num(digits as f64)),
            ("threads", Value::Num(threads as f64)),
        ],
        &series_rows(&snap),
    );
}
