//! Fork-join multiplication ablation on the profile axis (DESIGN.md §17).
//!
//! Two modes:
//!
//! * **grid** (default) — two row families per degree `n`:
//!
//!   - `rem_phase` rows: the remainder-sequence phase in isolation (the
//!     stage the splitter targets — deep in the sequence each iteration
//!     has few coefficient tasks but 10⁴–10⁵-bit products). The serial
//!     wall of each profile comes from a run on a bare thread, where no
//!     product splits. A second `fast` run inside a 2-worker pool scope,
//!     where the fork-join dispatch engages, measures the split products'
//!     serial work `T₁` and critical path `T_∞`. The `fast` phase is then
//!     re-costed per worker count `P` with `max(T₁/P, T_∞)` in place of
//!     `T₁` (Brent's bound, everything else held fixed). This is the same
//!     measured-durations-replayed substitution `speedups` /
//!     `speedup_report` use for the paper's 20-processor host: wall-clock
//!     across real threads is only faithful up to the host's core count.
//!   - `solve` rows: full dynamic solves per profile across real thread
//!     counts — measured walls, the splitter's execution counters
//!     (products/tasks/steals), and the same Brent-bound sim against the
//!     whole `fast` solve (work/span from its 2-worker run).
//!
//! * **`--sweep`** — calibrates [`rr_mp::nat::parmul::PAR_MUL_THRESHOLD`]
//!   at the kernel: balanced products over a size grid, each candidate
//!   threshold passed to [`parmul::mul_with_threshold_into`] with no pool
//!   scope (every fork runs inline, so the wall over serial Karatsuba is
//!   the split's pure overhead), reporting that overhead, the subtask
//!   count, available parallelism (`T₁/T_∞`), and the simulated 8-worker
//!   speedup.
//!
//! The `paper` profile never splits by design (its quadratic kernel
//! mirrors the `mp` package); its rows are the baseline.
//!
//! ```sh
//! cargo run --release -p rr-bench --bin parmul_ablation -- \
//!     [--max-n 96] [--max-threads 8] [--mu-digits 16] [--reps 3] \
//!     [--json results/BENCH_parmul.json]
//! cargo run --release -p rr-bench --bin parmul_ablation -- --sweep
//! ```

use rr_bench::json::{ToJson, Value};
use rr_bench::{digits_to_bits, impl_to_json, maybe_write_bench_json, time_best, Args};
use rr_core::{Session, SolverConfig};
use rr_mp::limb::Limb;
use rr_mp::nat::{kmul, parmul};
use rr_mp::{Exec, ExecSnapshot, Profile, SolveCtx};
use rr_poly::remainder::remainder_sequence;
use rr_poly::Poly;
use rr_workload::charpoly_input;
use std::time::Instant;

/// One (profile, simulated worker count) cell of the isolated remainder
/// phase.
struct RemRow {
    kind: String, // "rem_phase"
    profile: String,
    n: usize,
    threads: usize,
    /// Best-of-`reps` serial wall on a bare thread (no splits).
    rem_wall_s: f64,
    /// Splitter counters and `T₁`/`T_∞` of the engaged 2-worker run
    /// (all zero for `paper`).
    parmul_products: u64,
    parmul_tasks: u64,
    parmul_operand_bits: u64,
    parmul_work_s: f64,
    parmul_span_s: f64,
    /// `T₁ / T_∞` — the ceiling no worker count can beat.
    available_parallelism: f64,
    /// `rem_wall_s − T₁ + max(T₁/threads, T_∞)`.
    sim_rem_wall_s: f64,
    /// `rem_wall_s / sim_rem_wall_s` — what splitting adds.
    sim_speedup_rem: f64,
    /// The `paper` row's `rem_wall_s` over this row's `sim_rem_wall_s`.
    sim_speedup_vs_paper: f64,
}
impl_to_json!(RemRow {
    kind,
    profile,
    n,
    threads,
    rem_wall_s,
    parmul_products,
    parmul_tasks,
    parmul_operand_bits,
    parmul_work_s,
    parmul_span_s,
    available_parallelism,
    sim_rem_wall_s,
    sim_speedup_rem,
    sim_speedup_vs_paper,
});

/// One full-solve cell: a (degree, thread count, profile) combination.
struct SolveRow {
    kind: String, // "solve"
    profile: String,
    n: usize,
    threads: usize,
    /// Best-of-`reps` remainder-stage wall (`SolveStats::remainder_wall`).
    rem_wall_s: f64,
    /// Best-of-`reps` end-to-end solve wall.
    solve_wall_s: f64,
    /// Splitter execution counters from the best-remainder run (all zero
    /// for `paper` — asserted).
    parmul_products: u64,
    parmul_tasks: u64,
    parmul_steals: u64,
    parmul_operand_bits: u64,
    parmul_work_s: f64,
    parmul_span_s: f64,
    /// `paper` / this row at the same `(n, threads)` (1.0 on the `paper`
    /// rows). Measured wall-clock: faithful only up to the host's core
    /// count.
    speedup_rem: f64,
    speedup_solve: f64,
    /// Brent-bound sim of the whole solve at this row's thread count:
    /// the profile's 1-thread wall with the split products of its
    /// 2-worker run re-costed as `max(T₁/P, T_∞)`.
    sim_solve_wall_s: f64,
    sim_speedup_solve: f64,
}
impl_to_json!(SolveRow {
    kind,
    profile,
    n,
    threads,
    rem_wall_s,
    solve_wall_s,
    parmul_products,
    parmul_tasks,
    parmul_steals,
    parmul_operand_bits,
    parmul_work_s,
    parmul_span_s,
    speedup_rem,
    speedup_solve,
    sim_solve_wall_s,
    sim_speedup_solve,
});

/// `(T₁, T_∞)` of the split products, in seconds.
fn work_span(s: &ExecSnapshot) -> (f64, f64) {
    (
        s.get(Exec::ParmulWorkNs) as f64 * 1e-9,
        s.get(Exec::ParmulSpanNs) as f64 * 1e-9,
    )
}

/// `wall − T₁ + max(T₁/procs, T_∞)` — Brent's bound with only the split
/// products parallelized.
fn brent(wall: f64, s: &ExecSnapshot, procs: usize) -> f64 {
    let (work, span) = work_span(s);
    wall - work + (work / procs as f64).max(span)
}

/// The isolated remainder phase under `profile` inside a 2-worker pool
/// scope (an idle worker engages the `fast` splitter): the splitter
/// counters of one run.
fn engaged_rem(p: &Poly, profile: Profile) -> ExecSnapshot {
    let ctx = SolveCtx::new(profile);
    {
        let ctx = &ctx;
        rr_sched::run(2, move |scope| {
            scope.spawn(move |_| {
                ctx.run(|| remainder_sequence(p))
                    .expect("real-rooted workload");
            });
        });
    }
    ctx.exec()
}

fn grid(args: &Args) {
    let max_n: usize = args.get("max-n").unwrap_or(96);
    let max_threads: usize = args.get("max-threads").unwrap_or(8);
    let digits: u64 = args.get("mu-digits").unwrap_or(16);
    let reps: usize = args.get("reps").unwrap_or(3);
    let mu = digits_to_bits(digits);
    let mut rows: Vec<Value> = Vec::new();
    let threads_grid: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t <= max_threads)
        .collect();

    println!("Fork-join multiplication by profile, µ = {digits} digits ({mu} bits)");
    println!("Split threshold = {} limbs.", parmul::PAR_MUL_THRESHOLD);
    let cores = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    println!("Host cores = {cores}: measured walls are faithful up to that worker count;");
    println!("sim columns replay the measured work/span per Brent's bound (see speedups).\n");

    println!("Isolated remainder phase (serial; fast re-costed per worker count)");
    println!(
        "  n  | paper      | fast       | products | coverage | avail  | sim P=2 | P=4    | P=8"
    );
    println!(
        " ----+------------+------------+----------+----------+--------+---------+--------+-------"
    );
    for n in [48usize, 64, 80, 96].into_iter().filter(|&n| n <= max_n) {
        let p = charpoly_input(n, 0);
        let mut paper_wall = 0f64;
        for profile in Profile::ALL {
            let ctx = SolveCtx::new(profile);
            let (_, best) = time_best(reps, || ctx.run(|| remainder_sequence(&p)));
            let wall = best.as_secs_f64();
            assert_eq!(
                ctx.exec().get(Exec::ParmulProducts),
                0,
                "bare-thread phase split at n={n}"
            );
            let stats = engaged_rem(&p, profile);
            if profile == Profile::Paper {
                assert_eq!(
                    stats.get(Exec::ParmulProducts),
                    0,
                    "paper profile split at n={n}"
                );
                paper_wall = wall;
            }
            let (work, span) = work_span(&stats);
            let avail = if span > 0.0 { work / span } else { 1.0 };
            let mut sims = Vec::new();
            for &procs in &threads_grid {
                let sim = if stats.get(Exec::ParmulProducts) > 0 {
                    brent(wall, &stats, procs)
                } else {
                    wall
                };
                sims.push(wall / sim);
                rows.push(
                    RemRow {
                        kind: "rem_phase".to_string(),
                        profile: profile.to_string(),
                        n,
                        threads: procs,
                        rem_wall_s: wall,
                        parmul_products: stats.get(Exec::ParmulProducts),
                        parmul_tasks: stats.get(Exec::ParmulTasks),
                        parmul_operand_bits: stats.get(Exec::ParmulOperandBits),
                        parmul_work_s: work,
                        parmul_span_s: span,
                        available_parallelism: avail,
                        sim_rem_wall_s: sim,
                        sim_speedup_rem: wall / sim,
                        sim_speedup_vs_paper: paper_wall / sim,
                    }
                    .to_json(),
                );
            }
            if profile == Profile::Fast {
                println!(
                    " {n:>3} | {paper_wall:>9.4}s | {wall:>9.4}s | {:>8} | {:>7.1}% | {avail:>5.1}x | {:>6.2}x | {:>5.2}x | {:>5.2}x",
                    stats.get(Exec::ParmulProducts),
                    100.0 * work / wall.max(f64::MIN_POSITIVE),
                    sims.get(1).copied().unwrap_or(1.0),
                    sims.get(2).copied().unwrap_or(1.0),
                    sims.get(3).copied().unwrap_or(1.0),
                );
            }
        }
    }

    println!("\nFull dynamic solves (measured walls; sim vs the whole solve)");
    println!("  n  | thr | profile | rem        | vs paper | solve      | vs paper | sim slv  | products | tasks  | steals");
    println!(" ----+-----+---------+------------+----------+------------+----------+----------+----------+--------+-------");
    for n in [48usize, 64, 80, 96].into_iter().filter(|&n| n <= max_n) {
        let p = charpoly_input(n, 0);
        let mut paper_runs = Vec::new();
        for profile in Profile::ALL {
            // Best-of-reps per thread count: (rem wall, solve wall, stats).
            let runs: Vec<(f64, f64, ExecSnapshot)> = threads_grid
                .iter()
                .map(|&threads| {
                    let cfg = SolverConfig::parallel(mu, threads).with_profile(profile);
                    let mut best = (f64::INFINITY, f64::INFINITY, ExecSnapshot::default());
                    for _ in 0..reps {
                        let r = Session::new(cfg).solve(&p).expect("real-rooted workload");
                        let rem = r.stats.remainder_wall.as_secs_f64();
                        if rem < best.0 {
                            best.0 = rem;
                            best.2 = r.stats.exec;
                        }
                        best.1 = best.1.min(r.stats.wall.as_secs_f64());
                    }
                    if profile == Profile::Paper {
                        assert_eq!(
                            best.2.get(Exec::ParmulProducts),
                            0,
                            "paper solve split at n={n}"
                        );
                    }
                    best
                })
                .collect();
            // Sim base: the 1-thread wall (sequential — nothing splits)
            // with the 2-worker run's split products re-costed.
            let base = runs.first().map_or(0.0, |r| r.1);
            let engaged = threads_grid.iter().position(|&t| t == 2).map(|i| runs[i].2);
            if profile == Profile::Paper {
                paper_runs = runs.clone();
            }
            for (i, (&threads, (rem_wall, solve_wall, stats))) in
                threads_grid.iter().zip(&runs).enumerate()
            {
                let (work, span) = work_span(stats);
                let speedup_rem = paper_runs[i].0 / rem_wall;
                let speedup_solve = paper_runs[i].1 / solve_wall;
                let sim_solve_wall_s = match engaged {
                    Some(s) if s.get(Exec::ParmulProducts) > 0 && threads > 1 => {
                        brent(base, &s, threads)
                    }
                    _ => base,
                };
                let sim_speedup_solve = base / sim_solve_wall_s;
                println!(
                    " {n:>3} | {threads:>3} | {profile:<7} | {rem_wall:>9.4}s | {speedup_rem:>7.2}x | {solve_wall:>9.4}s | {speedup_solve:>7.2}x | {sim_speedup_solve:>7.2}x | {:>8} | {:>6} | {:>6}",
                    stats.get(Exec::ParmulProducts),
                    stats.get(Exec::ParmulTasks),
                    stats.get(Exec::ParmulSteals)
                );
                rows.push(
                    SolveRow {
                        kind: "solve".to_string(),
                        profile: profile.to_string(),
                        n,
                        threads,
                        rem_wall_s: *rem_wall,
                        solve_wall_s: *solve_wall,
                        parmul_products: stats.get(Exec::ParmulProducts),
                        parmul_tasks: stats.get(Exec::ParmulTasks),
                        parmul_steals: stats.get(Exec::ParmulSteals),
                        parmul_operand_bits: stats.get(Exec::ParmulOperandBits),
                        parmul_work_s: work,
                        parmul_span_s: span,
                        speedup_rem,
                        speedup_solve,
                        sim_solve_wall_s,
                        sim_speedup_solve,
                    }
                    .to_json(),
                );
            }
        }
    }
    println!("\n(rem_phase rows isolate the stage the splitter targets; coverage is the split");
    println!(" products' serial time as a fraction of the phase, and the sim columns replace");
    println!(" it with max(T₁/P, T_∞). Measured walls only separate on hosts with as many");
    println!(" cores as workers — beyond that the threads timeshare.)");
    maybe_write_bench_json(
        args.get("json"),
        "parmul_ablation",
        &[
            ("max_n", Value::Num(max_n as f64)),
            ("max_threads", Value::Num(max_threads as f64)),
            ("mu_digits", Value::Num(digits as f64)),
            ("reps", Value::Num(reps as f64)),
            (
                "threshold_limbs",
                Value::Num(parmul::PAR_MUL_THRESHOLD as f64),
            ),
        ],
        &Value::Array(rows),
    );
}

/// Deterministic operand: `len` pseudo-random limbs (splitmix-style).
fn det_mag(len: usize, seed: u64) -> Vec<Limb> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^ (x >> 27)
        })
        .collect()
}

/// Threshold calibration at the kernel.
fn sweep(args: &Args) {
    let reps: usize = args.get("reps").unwrap_or(5);
    println!("Split-threshold sweep on balanced products (no pool scope: forks run inline)");
    println!("(overhead = split / serial Karatsuba wall — splitting is pure cost inline;");
    println!(" avail = T₁/T_∞; sim P=8 = Brent-bound speedup of the product on 8 workers)\n");
    for limbs in [128usize, 256, 512, 1024] {
        let (a, b) = (det_mag(limbs, 1), det_mag(limbs, 2));
        let mut expect = Vec::new();
        let (_, serial) = time_best(reps, || kmul::mul_into(&a, &b, &mut expect));
        let serial = serial.as_secs_f64();
        println!("{limbs} × {limbs} limbs (serial Karatsuba: {serial:.6}s)");
        println!("  threshold | split      | overhead | tasks  | avail  | sim P=8");
        println!(" -----------+------------+----------+--------+--------+--------");
        for t in [12usize, 16, 24, 32, 48, 64, 96, 128] {
            let mut best = (f64::INFINITY, ExecSnapshot::default());
            for _ in 0..reps {
                let ctx = SolveCtx::new(Profile::Fast);
                let mut out = Vec::new();
                let t0 = Instant::now();
                ctx.run(|| parmul::mul_with_threshold_into(&a, &b, t, &mut out));
                let dt = t0.elapsed().as_secs_f64();
                assert_eq!(out, expect, "split product mismatch at t={t}");
                if dt < best.0 {
                    best = (dt, ctx.exec());
                }
            }
            let (wall, stats) = best;
            let (work, span) = work_span(&stats);
            let avail = if span > 0.0 { work / span } else { 1.0 };
            let sim8 = if stats.get(Exec::ParmulProducts) > 0 {
                wall / brent(wall, &stats, 8)
            } else {
                1.0
            };
            println!(
                "  {t:>9} | {wall:>9.6}s | {:>7.1}% | {:>6} | {avail:>5.1}x | {sim8:>6.2}x",
                (wall / serial - 1.0) * 100.0,
                stats.get(Exec::ParmulTasks),
            );
        }
        println!();
    }
    println!(
        "default PAR_MUL_THRESHOLD = {} limbs",
        parmul::PAR_MUL_THRESHOLD
    );
}

fn main() {
    let args = Args::parse();
    if args.flag("sweep") {
        sweep(&args);
    } else {
        grid(&args);
    }
}
