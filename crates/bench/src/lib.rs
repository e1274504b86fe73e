//! # rr-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation; see DESIGN.md's
//! per-experiment index. Run with `cargo run --release -p rr-bench --bin
//! <name> -- [flags]`; every binary prints a human-readable table and, if
//! `--json <path>` is given, a machine-readable record. Every binary
//! also accepts `--trace <path>` to write a Chrome trace of one
//! representative traced solve (see the [`trace`] module), and
//! `speedup_report` re-derives the paper's speedup tables from timed
//! task traces.
//!
//! | binary                | reproduces |
//! |-----------------------|------------|
//! | `table2_seq_times`    | Table 2 (single-processor running times) |
//! | `speedups`            | Tables 3–7, Figures 9–13 (and Tables 8–12 with `--full`) |
//! | `figs2_5_mult_counts` | Figures 2–5 (predicted vs observed multiplications) |
//! | `figs6_7_bisection`   | Figures 6–7 (bisection-phase counts and bit complexity) |
//! | `fig8_baseline`       | Figure 8 (comparison with the PARI stand-in) |
//! | `table1_complexity`   | Table 1 (asymptotic growth-order fits) |
//! | `speedup_report`      | Figures 9–13 speedup tables re-derived from timed traces → `results/speedup_observed.json` |
//! | `kernel_ablation`     | not a paper artifact: `paper` vs `fast` kernel profiles per size, region and worker count, plus the kernel crossover sweeps → `results/BENCH_kernels.json` |
//! | `metrics_dump`        | not a paper artifact: runs a solve batch, then prints the always-on registry (percentile tables, Prometheus text) → `results/BENCH_metrics.json` |
//! | `loadgen`             | not a paper artifact: closed-loop / overload / fault-seeded load against a spawned `rr-serve` daemon → `results/BENCH_serve.json` |
//!
//! The µ values on the command line are the paper's **decimal digits**,
//! converted with [`digits_to_bits`].

#![warn(missing_docs)]

pub mod json;
pub mod microbench;
pub mod paper_data;
pub mod plot;
pub mod schema;
pub mod trace;

pub use schema::maybe_write_bench_json;
pub use trace::{maybe_trace, report_to_json};

use json::ToJson;
use std::time::{Duration, Instant};

/// Converts the paper's "µ digits" to bits: `⌈µ · log₂ 10⌉`.
pub fn digits_to_bits(digits: u64) -> u64 {
    ((digits as f64) * std::f64::consts::LOG2_10).ceil() as u64
}

/// The paper's µ grid, in digits.
pub const PAPER_MU_DIGITS: [u64; 5] = [4, 8, 16, 24, 32];

/// The paper's processor grid.
pub const PAPER_PROCS: [usize; 5] = [1, 2, 4, 8, 16];

/// Tiny argument parser: `--key value` flags and `--flag` booleans.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Parses the process arguments.
    pub fn parse() -> Args {
        Args { raw: std::env::args().skip(1).collect() }
    }

    /// Value of `--name <v>`, parsed.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let key = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &key)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
    }

    /// Presence of `--name`.
    pub fn flag(&self, name: &str) -> bool {
        let key = format!("--{name}");
        self.raw.iter().any(|a| a == &key)
    }
}

/// Times `f`, returning its result and the wall-clock duration of the
/// fastest of `reps` runs (reps ≥ 1).
pub fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, Duration) {
    assert!(reps >= 1);
    let t0 = Instant::now();
    let mut out = f();
    let mut best = t0.elapsed();
    for _ in 1..reps {
        let t0 = Instant::now();
        out = f();
        best = best.min(t0.elapsed());
    }
    (out, best)
}

/// Writes `value` as pretty JSON to `path` if given.
pub fn maybe_write_json<T: ToJson>(path: Option<String>, value: &T) {
    if let Some(path) = path {
        let s = value.to_json().to_pretty();
        std::fs::write(&path, s).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("(wrote {path})");
    }
}

/// Formats a duration in seconds with 3 significant decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_conversion() {
        assert_eq!(digits_to_bits(4), 14);
        assert_eq!(digits_to_bits(8), 27);
        assert_eq!(digits_to_bits(16), 54);
        assert_eq!(digits_to_bits(24), 80);
        assert_eq!(digits_to_bits(32), 107);
        assert_eq!(digits_to_bits(30), 100);
    }

    #[test]
    fn time_best_returns_min() {
        let (v, d) = time_best(3, || 42);
        assert_eq!(v, 42);
        assert!(d >= Duration::ZERO);
    }
}
