//! `--trace` support for the experiment binaries.
//!
//! Every bench binary accepts `--trace <path>`: after its normal run it
//! performs one *traced* solve representative of its workload and
//! writes two artifacts —
//!
//! * `<path>` — the Chrome `trace_event` JSON of the solve (open in
//!   Perfetto or `chrome://tracing`), and
//! * `<path>.report.json` — the compact machine-readable
//!   [`SolveReport`] produced by [`report_to_json`] (per-phase wall
//!   time fused with mul/div counts, task totals, observed
//!   parallelism, execution counters, pool utilization).
//!
//! The traced solve is separate from the measurements the binary
//! prints, so `--trace` never perturbs the reported numbers.

use crate::json::Value;
use crate::Args;
use rr_core::{Session, SolveReport, SolverConfig};
use rr_mp::metrics::{Exec, ALL_EXEC, ALL_PHASES};
use rr_poly::Poly;
use std::collections::BTreeMap;

/// Serializes a [`SolveReport`] as a compact JSON value: phases (time +
/// counts), task-graph totals, execution counters, and pool statistics.
pub fn report_to_json(report: &SolveReport) -> Value {
    let mut o = BTreeMap::new();
    o.insert("wall_secs".into(), Value::Num(report.wall.as_secs_f64()));
    o.insert("total_tasks".into(), Value::Num(report.total_tasks as f64));
    o.insert(
        "total_work_secs".into(),
        Value::Num(report.total_work.as_secs_f64()),
    );
    o.insert(
        "critical_path_secs".into(),
        Value::Num(report.critical_path.as_secs_f64()),
    );
    o.insert(
        "observed_parallelism".into(),
        Value::Num(report.observed_parallelism),
    );
    o.insert(
        "phases".into(),
        Value::Array(
            report
                .phases
                .iter()
                .map(|p| {
                    let mut row = BTreeMap::new();
                    row.insert("name".into(), Value::Str(p.name.clone()));
                    row.insert("self_secs".into(), Value::Num(p.self_time.as_secs_f64()));
                    row.insert("spans".into(), Value::Num(p.spans as f64));
                    row.insert("mul_count".into(), Value::Num(p.mul_count as f64));
                    row.insert("mul_bits".into(), Value::Num(p.mul_bits as f64));
                    row.insert("div_count".into(), Value::Num(p.div_count as f64));
                    Value::Object(row)
                })
                .collect(),
        ),
    );
    o.insert(
        "panicked_tasks".into(),
        Value::Num(report.panicked_tasks as f64),
    );
    o.insert(
        "cancelled_tasks".into(),
        Value::Num(report.cancelled_tasks as f64),
    );
    o.insert(
        "degraded".into(),
        match report.degraded {
            Some(d) => Value::Str(d.to_string()),
            None => Value::Null,
        },
    );
    {
        // Execution counters by label: every nonzero total, plus the
        // per-phase split of the scratch arenas' cold misses.
        let exec = &report.exec;
        let mut row = BTreeMap::new();
        for label in ALL_EXEC.into_iter().filter(|&l| exec.get(l) > 0) {
            row.insert(label.label().into(), Value::Num(exec.get(label) as f64));
        }
        let mut phases = BTreeMap::new();
        for phase in ALL_PHASES.into_iter().filter(|&p| exec.phase(p, Exec::Allocs) > 0) {
            let cell = [Exec::Allocs, Exec::AllocBytes]
                .map(|l| (l.label().to_string(), Value::Num(exec.phase(phase, l) as f64)));
            phases.insert(phase.label().into(), Value::Object(cell.into()));
        }
        row.insert("phases".into(), Value::Object(phases));
        o.insert("exec".into(), Value::Object(row));
    }
    {
        // Per-name aggregates of the trace's counter samples
        // (`rr_obs::counter` events and the scheduler's queue-depth
        // samples) — recorded into traces since PR 3 but previously
        // dropped on the way to this JSON.
        let mut counters = BTreeMap::new();
        for c in report.counter_summary() {
            let mut cell = BTreeMap::new();
            cell.insert("samples".into(), Value::Num(c.samples as f64));
            cell.insert("max".into(), Value::Num(c.max));
            cell.insert("min".into(), Value::Num(c.min));
            cell.insert("last".into(), Value::Num(c.last));
            counters.insert(c.name, Value::Object(cell));
        }
        o.insert("counters".into(), Value::Object(counters));
    }
    if let Some(pool) = &report.pool {
        let mut row = BTreeMap::new();
        row.insert("workers".into(), Value::Num(pool.workers as f64));
        row.insert("tasks".into(), Value::Num(pool.total_tasks() as f64));
        row.insert("utilization".into(), Value::Num(pool.utilization()));
        row.insert("wall_secs".into(), Value::Num(pool.wall.as_secs_f64()));
        row.insert("steal_retries".into(), Value::Num(pool.steal_retries as f64));
        row.insert("empty_polls".into(), Value::Num(pool.empty_polls as f64));
        row.insert("panicked_tasks".into(), Value::Num(pool.panicked_tasks as f64));
        row.insert(
            "cancelled_tasks".into(),
            Value::Num(pool.cancelled_tasks as f64),
        );
        o.insert("pool".into(), Value::Object(row));
    }
    Value::Object(o)
}

/// If `--trace <path>` was passed, runs one traced solve of `p` under
/// `config`, writes the Chrome trace to `<path>` and the compact
/// report to `<path>.report.json`, and prints the report summary.
pub fn maybe_trace(args: &Args, config: SolverConfig, p: &Poly) {
    let Some(path) = args.get::<String>("trace") else {
        return;
    };
    let session = Session::new(config);
    let (result, report) = match session.solve_traced(p) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("(--trace skipped: traced solve failed: {e})");
            return;
        }
    };
    report
        .write_chrome(std::path::Path::new(&path))
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    let report_path = format!("{path}.report.json");
    std::fs::write(&report_path, report_to_json(&report).to_pretty())
        .unwrap_or_else(|e| panic!("writing {report_path}: {e}"));
    eprintln!(
        "(wrote {path} — Chrome trace of a traced n={} solve, open in Perfetto or \
         chrome://tracing — and {report_path})",
        result.n
    );
    println!("\ntraced solve (n = {}):\n{report}", result.n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_mp::Int;

    #[test]
    fn report_json_roundtrips_through_parser() {
        let p = Poly::from_roots(&(1..=10).map(Int::from).collect::<Vec<_>>());
        let session = Session::new(SolverConfig::parallel(8, 2));
        let (_, report) = session.solve_traced(&p).unwrap();
        let json = report_to_json(&report).to_pretty();
        let v = crate::json::from_str(&json).expect("valid JSON");
        assert!(v["wall_secs"].as_f64().unwrap() > 0.0);
        assert!(v["total_tasks"].as_u64().unwrap() > 0);
        assert!(v["observed_parallelism"].as_f64().unwrap() >= 1.0);
        let phases = v["phases"].as_array().unwrap();
        assert!(!phases.is_empty());
        assert!(phases
            .iter()
            .any(|row| row["name"].as_str() == Some("treepoly")));
        assert!(v["pool"]["workers"].as_u64().unwrap() >= 2);
        // Counter samples are aggregated per name — a parallel traced
        // solve always records scheduler queue-depth samples.
        let qd = &v["counters"]["queue-depth"];
        assert!(qd["samples"].as_u64().unwrap() > 0);
        assert!(qd["max"].as_f64().is_some());
        assert!(qd["last"].as_f64().is_some());
    }
}
