//! **Figures 9–13 from timed traces**: re-derives the paper's speedup
//! tables from the observability layer instead of wall-clock reruns.
//!
//! For each degree, one *traced* dynamic solve on a single worker
//! records the full task graph with per-task wall-clock durations
//! (single worker ⇒ no timesharing skew in the durations; the spawn
//! DAG is identical). From that one trace this binary reports, per
//! degree:
//!
//! * the **available parallelism** `T_1 / T_∞` (total work over
//!   critical path) — the ceiling no processor count can beat,
//! * the **simulated speedup** on the paper's processor grid
//!   (list-scheduled replay, `rr_sched::sim`), and
//! * the **paper's published speedup** where tabulated, for
//!   side-by-side comparison.
//!
//! Writes `results/speedup_observed.json` by default.
//!
//! ```sh
//! cargo run --release -p rr-bench --bin speedup_report -- \
//!     [--digits 8] [--min-n 10] [--max-n 45] [--json results/speedup_observed.json]
//! ```

use rr_bench::json::Value;
use rr_bench::schema::maybe_write_bench_json;
use rr_bench::{digits_to_bits, impl_to_json, Args, PAPER_PROCS};
use rr_core::{ExecMode, Profile, Session, SolverConfig};
use rr_mp::Exec;
use rr_sched::sim;
use rr_workload::{charpoly_input, paper_degrees};

struct Row {
    n: usize,
    mu_digits: u64,
    total_tasks: u64,
    work_secs: f64,
    critical_path_secs: f64,
    available_parallelism: f64,
    procs: usize,
    simulated_speedup: f64,
    paper_speedup: f64, // -1 when the paper does not tabulate the cell
    // Dwell-time distribution over processor-occupancy levels in the
    // simulated schedule: `[level, seconds]` pairs (sim::concurrency_
    // profile, summed across the solve's task graphs). The speedup
    // columns are means; this is the shape behind them.
    parallelism_hist: Vec<(u64, f64)>,
    // Intra-multiply concurrency from the fork-join splitter, measured
    // by a companion `fast`-profile solve on a 2-worker pool: serial
    // work `T₁` and critical path `T_∞` of
    // the split big-integer products (DESIGN.md §17). The task-level
    // trace above treats each task as atomic, so this is parallelism
    // *inside* tasks, invisible to — and additive with — the task
    // histogram.
    parmul_work_secs: f64,
    parmul_span_secs: f64,
    // `[level, seconds]` pairs for the split products alone: dwell
    // `T_∞` seconds at mean occupancy `T₁/T_∞`, split across the two
    // adjacent integer levels so both totals are exact.
    parmul_hist: Vec<(u64, f64)>,
}
impl_to_json!(Row {
    n,
    mu_digits,
    total_tasks,
    work_secs,
    critical_path_secs,
    available_parallelism,
    procs,
    simulated_speedup,
    paper_speedup,
    parallelism_hist,
    parmul_work_secs,
    parmul_span_secs,
    parmul_hist,
});

/// Merges the per-trace concurrency profiles of one replay at `procs`
/// into a single `[level, seconds]` histogram.
fn parallelism_hist(traces: &[rr_sched::pool::TaskTrace], procs: usize) -> Vec<(u64, f64)> {
    let mut dwell = vec![0.0f64; procs + 1];
    for t in traces {
        for (level, d) in sim::concurrency_profile(t, procs) {
            dwell[level] += d.as_secs_f64();
        }
    }
    dwell
        .into_iter()
        .enumerate()
        .filter(|&(level, secs)| level > 0 && secs > 0.0)
        .map(|(level, secs)| (level as u64, secs))
        .collect()
}

/// `[level, seconds]` histogram of the split products' own execution:
/// `span` seconds at mean occupancy `work/span`, distributed over the
/// two adjacent integer levels so that Σ secs = `span` and
/// Σ level·secs = `work` exactly.
fn parmul_hist(work: f64, span: f64) -> Vec<(u64, f64)> {
    if span <= 0.0 || !span.is_finite() || work < span {
        return Vec::new();
    }
    let lo = (work / span).floor();
    let hi_secs = work - lo * span; // level·secs excess over flat `lo`
    let lo_secs = span - hi_secs;
    [(lo as u64, lo_secs), (lo as u64 + 1, hi_secs)]
        .into_iter()
        .filter(|&(_, secs)| secs > 0.0)
        .collect()
}

fn main() {
    let args = Args::parse();
    let digits: u64 = args.get("digits").unwrap_or(8);
    let min_n: usize = args.get("min-n").unwrap_or(10);
    let max_n: usize = args.get("max-n").unwrap_or(45);
    let mu = digits_to_bits(digits);
    let json_path = args
        .get::<String>("json")
        .unwrap_or_else(|| "results/speedup_observed.json".into());

    println!("Speedups from timed traces (µ = {digits} digits = {mu} bits)");
    println!(
        "  n  | tasks | work (s)  | T_inf (s) | avail ∥ | {}",
        PAPER_PROCS.map(|p| format!("S({p:>2})/paper")).join(" | ")
    );

    let mut rows: Vec<Row> = Vec::new();
    for n in paper_degrees().into_iter().filter(|&n| (min_n..=max_n).contains(&n)) {
        let p = charpoly_input(n, 0);
        // One worker: exact per-task durations, same spawn DAG.
        let mut cfg = SolverConfig::parallel(mu, 2);
        cfg.mode = ExecMode::Dynamic { threads: 1 };
        let (result, report) = match Session::new(cfg).solve_traced(&p) {
            Ok(r) => r,
            Err(e) => {
                eprintln!(" {n:>3} | skipped: solve failed ({e})");
                continue;
            }
        };
        if let Some(d) = report.degraded {
            // A degraded solve did not run the paper's pipeline; its
            // trace would not be comparable to the tables.
            eprintln!(" {n:>3} | skipped: solve degraded ({d})");
            continue;
        }

        // Companion solve on the fast profile (the splitter only
        // engages there, and only when the pool scope has an idle
        // worker — hence two workers, not the trace run's one):
        // bit-identical roots, and its `SolveStats::exec` carries the
        // split products' work/span for the intra-multiply concurrency
        // columns.
        let parmul = Session::new(SolverConfig::parallel(mu, 2).with_profile(Profile::Fast))
            .solve(&p)
        .map(|r| r.stats.exec)
        .unwrap_or_default();
        let (pm_work, pm_span) = (
            parmul.get(Exec::ParmulWorkNs) as f64 * 1e-9,
            parmul.get(Exec::ParmulSpanNs) as f64 * 1e-9,
        );

        // Replay the recorded graphs back to back on the paper's grid.
        let speedups: Vec<(usize, f64)> = result.stats.simulate_speedups(&PAPER_PROCS);
        debug_assert!(
            (report.critical_path.as_secs_f64()
                - result
                    .stats
                    .traces
                    .iter()
                    .map(|t| sim::critical_path(t).as_secs_f64())
                    .sum::<f64>())
            .abs()
                < 1e-12
        );

        let cells: Vec<String> = speedups
            .iter()
            .map(|&(procs, s)| {
                let paper = rr_bench::paper_data::paper_speedup(digits, n, procs);
                rows.push(Row {
                    n,
                    mu_digits: digits,
                    total_tasks: report.total_tasks,
                    work_secs: report.total_work.as_secs_f64(),
                    critical_path_secs: report.critical_path.as_secs_f64(),
                    available_parallelism: report.observed_parallelism,
                    procs,
                    simulated_speedup: s,
                    paper_speedup: paper.unwrap_or(-1.0),
                    parallelism_hist: parallelism_hist(&result.stats.traces, procs),
                    parmul_work_secs: pm_work,
                    parmul_span_secs: pm_span,
                    parmul_hist: parmul_hist(pm_work, pm_span),
                });
                format!(
                    "{s:>5.2}/{:<5}",
                    paper.map_or("-".to_string(), |v| format!("{v:.2}"))
                )
            })
            .collect();
        println!(
            " {:>3} | {:>5} | {:>9.4} | {:>9.4} | {:>7.2} | {}",
            n,
            report.total_tasks,
            report.total_work.as_secs_f64(),
            report.critical_path.as_secs_f64(),
            report.observed_parallelism,
            cells.join(" | "),
        );
    }

    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
    }
    maybe_write_bench_json(
        Some(json_path),
        "speedup_report",
        &[
            ("digits", Value::Num(digits as f64)),
            ("min_n", Value::Num(min_n as f64)),
            ("max_n", Value::Num(max_n as f64)),
        ],
        &rows,
    );
}
