//! A failing traced solve must still tick the always-on outcome counter.
//! Kept in its own test binary: the registry is process-global, so no
//! other solve may run while the counter delta is measured.

use rr_core::{Session, SolveError, SolverConfig};
use rr_poly::Poly;

/// The `rr_solves_total{outcome, profile}` cell.
fn solves(outcome: &str, profile: &str) -> u64 {
    rr_obs::metrics::snapshot()
        .counters
        .iter()
        .filter(|c| c.name == "rr_solves_total")
        .filter(|c| c.labels.contains(&("outcome", outcome)))
        .filter(|c| c.labels.contains(&("profile", profile)))
        .map(|c| c.value)
        .sum()
}

#[test]
fn failed_traced_solve_is_counted_once() {
    if !rr_obs::metrics::enabled() {
        return;
    }
    let cfg = SolverConfig::sequential(16).with_degradation(false);
    let profile = cfg.profile.name();
    // x² + 1 has no real roots; without the degradation ladder the
    // remainder stage rejects it.
    let p = Poly::from_i64(&[1, 0, 1]);
    let before = solves("failed", profile);
    let err = Session::new(cfg).solve_traced(&p).expect_err("x^2 + 1 is not real-rooted");
    assert!(matches!(err, SolveError::Seq(_)), "{err}");
    assert_eq!(solves("failed", profile) - before, 1);
}
