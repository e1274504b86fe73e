//! `rrbench compare PARENT_RUNS... -- CHANGE_RUNS...`: judges a change
//! against its parent from run files, one row per workload × metric,
//! with the bounds and directions of `BENCHMARK.json`.
//!
//! Runs pair up in the order given (parent run k with change run k of
//! the same workload); run them alternately. The rules:
//!
//! * **unresolved** — either side's interquartile range, as a share of
//!   its median, exceeds the bound, unless every change run beats every
//!   parent run;
//! * **regression** — the change's median is worse than the parent's by
//!   more than the bound;
//! * **gain** — at least 10 pairs, the change wins at least 90% of them
//!   (ties count for neither), and the medians differ by more than the
//!   parent's interquartile range;
//! * **no change** — anything else.

use crate::stats::quartiles;
use rr_bench::json::{from_str, Value};
use std::collections::BTreeMap;

/// A row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better by the pairing rule.
    Gain,
    /// The change's median is worse by more than the bound.
    Regression,
    /// The runs are too noisy (or too few) to tell.
    Unresolved,
    /// Within the bound and not a gain.
    NoChange,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::NoChange => "no change",
        }
    }
}

/// Median as `statistics.median` computes it (mean of the middle two).
fn median(xs: &[f64]) -> f64 {
    let s = crate::stats::sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Judges `change` against `parent` (paired by index) for a metric with
/// the given direction and bound.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    if parent.len() < 2 || change.len() < 2 {
        return Verdict::Unresolved;
    }
    let better = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    let (mp, mc) = (median(parent), median(change));
    let spread = |xs: &[f64]| {
        let (q1, q3) = quartiles(xs);
        (q3 - q1) / median(xs).abs()
    };
    let every_run_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if spread(parent).max(spread(change)) > bound && !every_run_better {
        return Verdict::Unresolved;
    }
    let worse_by = if lower_is_better { mc - mp } else { mp - mc } / mp.abs();
    if worse_by > bound {
        return Verdict::Regression;
    }
    let pairs: Vec<(f64, f64)> = parent.iter().copied().zip(change.iter().copied()).collect();
    let wins = pairs.iter().filter(|&&(p, c)| better(c, p)).count();
    let (q1, q3) = quartiles(parent);
    if pairs.len() >= 10
        && wins * 10 >= pairs.len() * 9
        && better(mc, mp)
        && (mc - mp).abs() > q3 - q1
    {
        return Verdict::Gain;
    }
    Verdict::NoChange
}

/// `(name, lower_is_better, bound)` of every end-to-end metric.
fn bounds(bench: &Value) -> Result<Vec<(String, bool, f64)>, String> {
    bench["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m["name"].as_str().ok_or("metric without a name")?;
            let lower = match m["better"].as_str() {
                Some("lower") => true,
                Some("higher") => false,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = m["bound"].as_f64().ok_or(format!("{name}: no bound"))?;
            Ok((name.to_string(), lower, bound))
        })
        .collect()
}

type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Adds one run file's rows to `runs`, keyed by (workload, metric).
fn load_run(doc: &Value, runs: &mut Runs) -> Result<(), String> {
    if doc["config"]["bin"].as_str() != Some("rrbench") {
        return Err("not an rrbench run file".into());
    }
    for row in doc["series"].as_array().ok_or("no series")? {
        let (Some(w), Some(m), Some(v)) = (
            row["workload"].as_str(),
            row["metric"].as_str(),
            row["value"].as_f64(),
        ) else {
            return Err("malformed series row".into());
        };
        runs.entry((w.to_string(), m.to_string()))
            .or_default()
            .push(v);
    }
    Ok(())
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Runs the subcommand; returns the exit code (1 on any regression).
pub fn main(args: &[String]) -> i32 {
    match compare(args) {
        Ok(regressions) => i32::from(regressions > 0),
        Err(e) => {
            eprintln!("rrbench compare: {e}");
            2
        }
    }
}

fn compare(args: &[String]) -> Result<usize, String> {
    let mut bench_path = "BENCHMARK.json".to_string();
    let mut files: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench_path = it.next().ok_or("--bench needs a path")?.clone();
        } else {
            files.push(a);
        }
    }
    let split = files
        .iter()
        .position(|a| *a == "--")
        .ok_or("separate parent and change runs with --")?;
    let (mut parent, mut change) = (Runs::new(), Runs::new());
    for f in &files[..split] {
        load_run(&read_json(f)?, &mut parent).map_err(|e| format!("{f}: {e}"))?;
    }
    for f in &files[split + 1..] {
        load_run(&read_json(f)?, &mut change).map_err(|e| format!("{f}: {e}"))?;
    }
    let metrics = bounds(&read_json(&bench_path)?)?;
    let mut workloads: Vec<&String> = parent.keys().map(|(w, _)| w).collect();
    workloads.dedup();
    let mut regressions = 0;
    println!(
        "{:<8} {:<18} {:>12} {:>12} {:>8} {:>9} {:>9} {:>6} {:>5}  verdict",
        "workload", "metric", "parent", "change", "delta", "iqr(p)", "iqr(c)", "pairs", "wins"
    );
    for w in workloads {
        for (name, lower, bound) in &metrics {
            let key = (w.clone(), name.clone());
            let (Some(p), Some(c)) = (parent.get(&key), change.get(&key)) else {
                continue;
            };
            let v = verdict(p, c, *lower, *bound);
            regressions += usize::from(v == Verdict::Regression);
            let (mp, mc) = (median(p), median(c));
            let iqr = |xs: &[f64]| {
                if xs.len() < 2 {
                    return f64::NAN;
                }
                let (q1, q3) = quartiles(xs);
                (q3 - q1) / median(xs) * 100.0
            };
            let pairs = p.len().min(c.len());
            let better = |c: f64, p: f64| if *lower { c < p } else { c > p };
            let wins = p.iter().zip(c).filter(|&(&p, &c)| better(c, p)).count();
            println!(
                "{w:<8} {name:<18} {mp:>12.5} {mc:>12.5} {:>+7.2}% {:>8.2}% {:>8.2}% {pairs:>6} {wins:>5}  {} (bound {:.0}%)",
                (mc / mp - 1.0) * 100.0,
                iqr(p),
                iqr(c),
                v.label(),
                bound * 100.0
            );
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten runs around `center` with ±`jitter` relative noise, seeded.
    fn runs(center: f64, jitter: f64, seed: u64) -> Vec<f64> {
        let mut rng = crate::stats::SplitMix::new(seed);
        (0..10)
            .map(|_| center * (1.0 + jitter * (2.0 * rng.unit() - 1.0)))
            .collect()
    }

    #[test]
    fn clear_gain() {
        let parent = runs(100.0, 0.01, 1);
        let change = runs(90.0, 0.01, 2);
        assert_eq!(verdict(&parent, &change, true, 0.05), Verdict::Gain);
        // The same for a higher-is-better metric read the other way.
        assert_eq!(verdict(&change, &parent, false, 0.05), Verdict::Gain);
    }

    #[test]
    fn regression() {
        let parent = runs(100.0, 0.01, 3);
        let change = runs(120.0, 0.01, 4);
        assert_eq!(verdict(&parent, &change, true, 0.05), Verdict::Regression);
        assert_eq!(verdict(&change, &parent, false, 0.05), Verdict::Regression);
    }

    #[test]
    fn unresolved_when_spread_exceeds_the_bound() {
        let parent = runs(100.0, 0.30, 5);
        let change = runs(100.0, 0.30, 6);
        assert_eq!(verdict(&parent, &change, true, 0.05), Verdict::Unresolved);
        // Too few runs to tell.
        assert_eq!(verdict(&[1.0], &[1.0], true, 0.05), Verdict::Unresolved);
    }

    #[test]
    fn no_change() {
        let parent = runs(100.0, 0.01, 7);
        let change = runs(100.0, 0.01, 8);
        assert_eq!(verdict(&parent, &change, true, 0.05), Verdict::NoChange);
        // Nine pairs are too few for a gain however clear.
        let change = runs(90.0, 0.01, 9);
        assert_eq!(
            verdict(&parent[..9], &change[..9], true, 0.05),
            Verdict::NoChange
        );
    }

    #[test]
    fn loads_runs_and_bounds() {
        let doc = from_str(
            r#"{"schema_version": 1, "commit": "x", "config": {"bin": "rrbench"},
                "series": [{"workload": "small", "metric": "solve_ms", "value": 2.5, "unit": "ms"}]}"#,
        )
        .unwrap();
        let mut r = Runs::new();
        load_run(&doc, &mut r).unwrap();
        load_run(&doc, &mut r).unwrap();
        assert_eq!(
            r[&("small".to_string(), "solve_ms".to_string())],
            vec![2.5, 2.5]
        );
        let bench = read_json(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
        let b = bounds(&bench).unwrap();
        assert!(b
            .iter()
            .any(|(n, lower, bound)| n == "setup_s" && *lower && *bound > 0.0));
        assert!(b.iter().all(|(_, _, bound)| *bound > 0.0 && *bound <= 0.25));
    }
}
