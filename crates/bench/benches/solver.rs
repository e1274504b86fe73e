//! Benchmarks of the end-to-end solver on the paper's workload:
//! representative (n, µ) cells of Table 2, the scheduler variants, the
//! refinement ablation, the kernel-profile contrast, and the
//! Sturm baseline for the Figure 8 contrast.
//!
//! ```sh
//! cargo bench -p rr-bench --bench solver [-- <filter>] [-- --quick]
//! ```

use rr_baseline::{find_real_roots, BaselineConfig};
use rr_bench::digits_to_bits;
use rr_bench::microbench::Bench;
use rr_core::{ExecMode, Profile, RefineStrategy, RootApproximator, SolverConfig};
use rr_workload::charpoly_input;
use std::hint::black_box;

fn bench_table2_cells(b: &mut Bench) {
    b.group("table2_cells");
    for (n, digits) in [(10usize, 8u64), (20, 8), (20, 32), (30, 16)] {
        let p = charpoly_input(n, 0);
        let solver = RootApproximator::new(SolverConfig::sequential(digits_to_bits(digits)));
        b.measure(&format!("table2/seq_solve/n{n}_mu{digits}"), || {
            solver.approximate_roots(black_box(&p)).unwrap()
        });
    }
}

fn bench_schedulers(b: &mut Bench) {
    b.group("schedulers");
    let n = 25;
    let p = charpoly_input(n, 0);
    let mu = digits_to_bits(16);
    for (name, mode) in [
        ("sequential", ExecMode::Sequential),
        ("dynamic_p4", ExecMode::Dynamic { threads: 4 }),
        ("static_p4", ExecMode::Static { threads: 4 }),
    ] {
        let mut cfg = SolverConfig::sequential(mu);
        cfg.mode = mode;
        cfg.seq_remainder = false;
        let solver = RootApproximator::new(cfg);
        b.measure(&format!("schedulers/mode/{name}"), || {
            solver.approximate_roots(black_box(&p)).unwrap()
        });
    }
}

fn bench_refinement_ablation(b: &mut Bench) {
    b.group("refinement");
    let p = charpoly_input(20, 0);
    let mu = digits_to_bits(32);
    for (name, strat) in
        [("hybrid", RefineStrategy::Hybrid), ("bisect_only", RefineStrategy::BisectOnly)]
    {
        let mut cfg = SolverConfig::sequential(mu);
        cfg.refine = strat;
        let solver = RootApproximator::new(cfg);
        b.measure(&format!("refinement/strategy/{name}"), || {
            solver.approximate_roots(black_box(&p)).unwrap()
        });
    }
}

fn bench_profiles(b: &mut Bench) {
    b.group("profiles (end-to-end solve)");
    let mu = digits_to_bits(32);
    for n in [15usize, 30] {
        let p = charpoly_input(n, 0);
        for profile in Profile::ALL {
            let solver =
                RootApproximator::new(SolverConfig::sequential(mu).with_profile(profile));
            b.measure(&format!("profile/{profile}/n{n}"), || {
                solver.approximate_roots(black_box(&p)).unwrap()
            });
        }
    }
}

fn bench_vs_baseline(b: &mut Bench) {
    b.group("fig8_contrast");
    let mu = digits_to_bits(30);
    for n in [10usize, 25] {
        let p = charpoly_input(n, 0);
        let solver = RootApproximator::new(SolverConfig::sequential(mu));
        b.measure(&format!("fig8/tree/{n}"), || {
            solver.approximate_roots(black_box(&p)).unwrap()
        });
        let cfg = BaselineConfig::new(mu);
        b.measure(&format!("fig8/sturm_baseline/{n}"), || {
            find_real_roots(black_box(&p), &cfg).unwrap()
        });
    }
}

fn main() {
    let mut b = Bench::from_args();
    bench_table2_cells(&mut b);
    bench_schedulers(&mut b);
    bench_refinement_ablation(&mut b);
    bench_profiles(&mut b);
    bench_vs_baseline(&mut b);
}
