//! The unified top-level schema shared by every `results/BENCH_*.json`
//! artifact (and `results/speedup_observed.json`):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "commit": "239b444",
//!   "config": { "bin": "kernel_ablation", "max_n": 96, ... },
//!   "series": [ { ...one row per measurement cell... } ]
//! }
//! ```
//!
//! `series` keeps each binary's existing row shape untouched — the
//! wrapper adds provenance (`commit`), reproducibility (`config`: the
//! bin name and its effective arguments) and a version field so
//! `tools/check_bench.py` can validate the whole set and compare
//! baselines across commits without per-bin special cases.

use crate::json::Value;
use std::collections::BTreeMap;

/// Current version of the top-level wrapper (the `series` row shapes
/// are owned by the individual bins and may evolve independently).
pub const SCHEMA_VERSION: u64 = 1;

/// Short git commit hash of the working tree, `"unknown"` when not
/// built inside a repository (e.g. from a source tarball).
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Builds the unified document around already-serialized `series` rows.
/// `config` is the emitting bin's name plus its effective arguments.
pub fn bench_doc(bin: &str, config: &[(&str, Value)], series: Value) -> Value {
    let mut cfg = BTreeMap::new();
    cfg.insert("bin".to_string(), Value::Str(bin.to_string()));
    for (k, v) in config {
        cfg.insert((*k).to_string(), v.clone());
    }
    let mut o = BTreeMap::new();
    o.insert(
        "schema_version".to_string(),
        Value::Num(SCHEMA_VERSION as f64),
    );
    o.insert("commit".to_string(), Value::Str(git_commit()));
    o.insert("config".to_string(), Value::Object(cfg));
    o.insert("series".to_string(), series);
    Value::Object(o)
}

/// [`crate::maybe_write_json`] for the unified schema: if `path` is
/// set, wraps `rows` in [`bench_doc`] and writes it.
pub fn maybe_write_bench_json<T: crate::json::ToJson>(
    path: Option<String>,
    bin: &str,
    config: &[(&str, Value)],
    rows: &T,
) {
    if let Some(path) = path {
        let doc = bench_doc(bin, config, rows.to_json());
        std::fs::write(&path, doc.to_pretty()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("(wrote {path})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::from_str;

    #[test]
    fn doc_has_the_unified_shape() {
        let rows = Value::Array(vec![Value::Object(
            [("n".to_string(), Value::Num(16.0))].into_iter().collect(),
        )]);
        let doc = bench_doc("unit_test", &[("max_n", Value::Num(96.0))], rows);
        let doc = from_str(&doc.to_pretty()).unwrap();
        assert_eq!(doc["schema_version"].as_u64(), Some(SCHEMA_VERSION));
        assert!(doc["commit"].as_str().is_some_and(|c| !c.is_empty()));
        assert_eq!(doc["config"]["bin"].as_str(), Some("unit_test"));
        assert_eq!(doc["config"]["max_n"].as_u64(), Some(96));
        assert_eq!(doc["series"].as_array().unwrap().len(), 1);
    }
}
