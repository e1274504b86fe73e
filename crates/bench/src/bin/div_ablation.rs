//! Division kernel ablation: Knuth Algorithm D vs Newton-reciprocal /
//! 2-adic division (DESIGN.md §13), on the profile axis, on the paper's
//! workload families.
//!
//! Two modes:
//!
//! * **grid** (default) — for each degree `n` one row per profile
//!   (`paper`: quadratic kernels; `fast`: every size-dispatched kernel):
//!   wall-clock of the remainder-sequence phase in isolation (the
//!   division-bound kernel — every iteration's exact `/c²` divisions) and
//!   of a full sequential solve, plus the recorded model counts — which
//!   must be identical across profiles (division cost is charged above
//!   either kernel; see `rr_mp::nat::newton_div`).
//! * **`--sweep`** — the crossover calibrations: (a) truncating
//!   `div_rem` behind `rr_mp::nat::newton_div::NEWTON_DIV_THRESHOLD` —
//!   random operands over a (divisor limbs × quotient limbs) grid,
//!   Algorithm D vs forced Newton reciprocal; (b) exact division behind
//!   `NEWTON_EXACT_THRESHOLD` — Algorithm D `div_exact` vs the one-shot
//!   2-adic kernel vs an `ExactDivisor`-amortized batch (the remainder
//!   sequence's access pattern).
//!
//! ```sh
//! cargo run --release -p rr-bench --bin div_ablation -- \
//!     [--max-n 96] [--mu-digits 16] [--reps 3] [--json results/BENCH_div.json]
//! cargo run --release -p rr-bench --bin div_ablation -- --sweep
//! ```

use rr_bench::json::Value;
use rr_bench::{digits_to_bits, impl_to_json, maybe_write_bench_json, time_best, Args};
use rr_core::{Session, SolverConfig};
use rr_mp::limb::Limb;
use rr_mp::nat::{self, div, newton_div};
use rr_mp::{Exec, Profile, SolveCtx};
use rr_poly::remainder::remainder_sequence;
use rr_workload::charpoly_input;

/// One grid cell: a profile on one degree's workload.
struct Row {
    n: usize,
    profile: String,
    /// Remainder-sequence phase in isolation (the division-bound
    /// kernel): all iterations' three products + exact `/c²` divisions.
    rem_wall_s: f64,
    /// Full sequential solve.
    solve_wall_s: f64,
    /// The solve's own remainder-stage wall (from `SolveStats`).
    solve_rem_wall_s: f64,
    /// Model divisions recorded by the isolated remainder phase —
    /// asserted identical across the profiles of each `n`.
    model_divs: u64,
    model_div_bits: u64,
    /// Physical Newton-kernel counters (isolated phase + solve).
    /// `newton_divs`/`recip_iters`/`corrections` track the truncating
    /// reciprocal kernel; `exact_divs`/`hensel_steps` the 2-adic exact
    /// kernel (which serves every division of this pipeline — including
    /// the fused remainder-step combinations — so `newton_divs` is
    /// legitimately 0 in solves).
    newton_divs: u64,
    recip_iters: u64,
    corrections: u64,
    exact_divs: u64,
    hensel_steps: u64,
    /// Speedups vs the `paper` row of the same `n` (1.0 on that row).
    speedup_rem: f64,
    speedup_solve: f64,
}
impl_to_json!(Row {
    n,
    profile,
    rem_wall_s,
    solve_wall_s,
    solve_rem_wall_s,
    model_divs,
    model_div_bits,
    newton_divs,
    recip_iters,
    corrections,
    exact_divs,
    hensel_steps,
    speedup_rem,
    speedup_solve,
});

fn grid(args: &Args) {
    let max_n: usize = args.get("max-n").unwrap_or(96);
    let digits: u64 = args.get("mu-digits").unwrap_or(16);
    let reps: usize = args.get("reps").unwrap_or(3);
    let mu = digits_to_bits(digits);
    let mut rows: Vec<Row> = Vec::new();

    println!("Division kernels by profile, µ = {digits} digits ({mu} bits)");
    println!("rem = isolated remainder-sequence phase; solve = full sequential solve of the");
    println!("charpoly family. Under the fast profile every remainder step fuses its products");
    println!("and exact /c² division into quotient-sized 2-adic truncated products (cached");
    println!("inverse shared per iteration); the kernel dispatches from n ≈ 10 onward.\n");
    println!("  n  | profile | rem        | vs paper | solve      | vs paper");
    println!(" ----+---------+------------+----------+------------+---------");
    for n in [16usize, 32, 48, 64, 80, 96].into_iter().filter(|&n| n <= max_n) {
        let p = charpoly_input(n, 0);
        let mut paper_walls = [0f64; 2];
        let mut model_ref: Option<(u64, u64)> = None;
        for profile in Profile::ALL {
            let ctx = SolveCtx::new(profile);
            let (_, best) = time_best(reps, || ctx.run(|| remainder_sequence(&p)));
            let rem_wall = best.as_secs_f64();

            // Division cost is profile-invariant; `reps` runs each
            // recorded the same charge.
            let total = ctx.snapshot().total();
            let model = (total.div_count / reps as u64, total.div_bits / reps as u64);
            match model_ref {
                None => model_ref = Some(model),
                Some(m) => assert_eq!(m, model, "model drift at n={n} {profile}"),
            }

            // One timed full solve through the session API.
            let cfg = SolverConfig::sequential(mu).with_profile(profile);
            let r = Session::new(cfg).solve(&p).expect("real-rooted workload");
            let solve_wall = r.stats.wall.as_secs_f64();
            if profile == Profile::Paper {
                paper_walls = [rem_wall, solve_wall];
            }
            let (speedup_rem, speedup_solve) =
                (paper_walls[0] / rem_wall, paper_walls[1] / solve_wall);
            println!(
                " {n:>3} | {profile:<7} | {rem_wall:>9.4}s | {speedup_rem:>7.2}x | {solve_wall:>9.4}s | {speedup_solve:>7.2}x",
            );
            let (nd, sd) = (ctx.exec(), r.stats.exec);
            let count = |e: Exec| nd.get(e) / reps as u64 + sd.get(e);
            rows.push(Row {
                n,
                profile: profile.to_string(),
                rem_wall_s: rem_wall,
                solve_wall_s: solve_wall,
                solve_rem_wall_s: r.stats.remainder_wall.as_secs_f64(),
                model_divs: model.0,
                model_div_bits: model.1,
                newton_divs: count(Exec::NewtonDivs),
                recip_iters: count(Exec::RecipIters),
                corrections: count(Exec::Corrections),
                exact_divs: count(Exec::ExactDivs),
                hensel_steps: count(Exec::HenselSteps),
                speedup_rem,
                speedup_solve,
            });
        }
    }
    println!("\n(model_divs is identical across each n's profiles — asserted above. The fused");
    println!(" 2-adic remainder step shrinks the phase's products *and* divisions to");
    println!(" quotient-sized work; the solve column dilutes the win with the multiplication-");
    println!(" bound tree and interval stages.)");
    maybe_write_bench_json(
        args.get("json"),
        "div_ablation",
        &[
            ("max_n", Value::Num(max_n as f64)),
            ("mu_digits", Value::Num(digits as f64)),
            ("reps", Value::Num(reps as f64)),
        ],
        &rows,
    );
}

// ---------------------------------------------------------------------
// Crossover sweep
// ---------------------------------------------------------------------

/// Deterministic 64-bit generator (splitmix64) — no external RNG.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    /// A normalized magnitude of exactly `limbs` limbs (top bit set).
    fn mag(&mut self, limbs: usize) -> Vec<Limb> {
        let mut m: Vec<Limb> = (0..limbs).map(|_| self.next()).collect();
        if let Some(top) = m.last_mut() {
            *top |= 1 << (Limb::BITS - 1);
        }
        m
    }
}

fn sweep(args: &Args) {
    let reps: usize = args.get("reps").unwrap_or(5);
    let v_lens = [4usize, 8, 12, 16, 20, 24, 32, 48, 64, 96, 128];
    let q_lens = [8usize, 24, 64, 128];
    println!("Newton division crossover sweep (ratio = algorithm D / forced newton)");
    println!("Newton folds the division into reciprocal refinements built from multiplications,");
    println!("so it only pays when the mul kernel is subquadratic — calibrate under `fast`.");
    for profile in Profile::ALL {
        let ctx = SolveCtx::new(profile);
        println!("\nprofile: {profile}  (rows: divisor limbs, cols: quotient limbs)");
        println!("  v\\q | {}", q_lens.map(|q| format!("{q:>6}")).join(" | "));
        println!(" -----+{}", q_lens.map(|_| "--------".to_string()).join("+"));
        let mut crossover = None;
        for v_len in v_lens {
            let mut ratios = Vec::new();
            for q_len in q_lens {
                let mut rng = Rng(0xd1f ^ ((v_len as u64) << 20) ^ q_len as u64);
                let v = rng.mag(v_len);
                // u = v·q + r with r < v: both kernels do the full work.
                let q = rng.mag(q_len);
                let r = if v_len > 1 { rng.mag(v_len - 1) } else { Vec::new() };
                let u = nat::add(&ctx.run(|| nat::mul_auto(&v, &q)), &r);
                let (school, ts) = time_best(reps, || div::div_rem(&u, &v));
                let (newton, tn) =
                    time_best(reps, || ctx.run(|| newton_div::div_rem_with_threshold(&u, &v, 2)));
                assert_eq!(school, newton, "kernel mismatch at v={v_len} q={q_len}");
                ratios.push(ts.as_secs_f64() / tn.as_secs_f64());
            }
            println!(
                "  {v_len:>3} | {}",
                ratios.iter().map(|r| format!("{r:>5.2}x")).collect::<Vec<_>>().join(" | ")
            );
            // The dispatch gate requires BOTH operands long; calibrate on
            // the cells where the quotient is at least as long as v.
            let long_cells: Vec<f64> = ratios
                .iter()
                .zip(q_lens)
                .filter(|&(_, q)| q >= v_len)
                .map(|(&r, _)| r)
                .collect();
            if crossover.is_none() && !long_cells.is_empty() && long_cells.iter().all(|&r| r >= 1.0)
            {
                crossover = Some(v_len);
            }
        }
        match crossover {
            Some(len) => println!(
                "  → smallest divisor length where Newton wins whenever the quotient is as\n    \
                 long: {len} (NEWTON_DIV_THRESHOLD = {})",
                newton_div::NEWTON_DIV_THRESHOLD
            ),
            None => println!("  → Newton never won under this profile's multiplication"),
        }
    }
    sweep_exact(args);
}

/// Exact-division crossover: Algorithm D `div_exact` vs the one-shot
/// 2-adic kernel vs an `ExactDivisor`-amortized batch of 8 divisions by
/// the same divisor (the remainder sequence's access pattern, where the
/// lifted inverse is reused across a whole iteration's coefficients).
fn sweep_exact(args: &Args) {
    use rr_mp::{ExactDivisor, Int, Sign};
    let reps: usize = args.get("reps").unwrap_or(5);
    const BATCH: usize = 8;
    let v_lens = [4usize, 8, 16, 32, 64, 128, 256];
    let q_lens = [4usize, 16, 64, 256];
    println!("\nExact-division crossover (ratios = algorithm D / 2-adic, one-shot and");
    println!("amortized over {BATCH} same-divisor divisions; 2-adic cost depends on the");
    println!("quotient length only, never the divisor's)");
    let ctx = SolveCtx::new(Profile::Fast);
    println!("\n  v\\q | {}", q_lens.map(|q| format!("{q:>13}")).join(" | "));
    println!(" -----+{}", q_lens.map(|_| "---------------".to_string()).join("+"));
    for v_len in v_lens {
        let mut cells = Vec::new();
        for q_len in q_lens {
            let mut rng = Rng(0xace ^ ((v_len as u64) << 20) ^ q_len as u64);
            let v = rng.mag(v_len);
            let qs: Vec<Vec<Limb>> = (0..BATCH).map(|_| rng.mag(q_len)).collect();
            let us: Vec<Vec<Limb>> =
                qs.iter().map(|q| ctx.run(|| nat::mul_auto(&v, q))).collect();
            let (school, ts) = time_best(reps, || {
                us.iter().map(|u| div::div_exact(u, &v)).collect::<Vec<_>>()
            });
            let (oneshot, to) = time_best(reps, || {
                ctx.run(|| {
                    us.iter()
                        .map(|u| newton_div::div_exact_with_threshold(u, &v, 2))
                        .collect::<Vec<_>>()
                })
            });
            let d = Int::from_sign_mag(Sign::Positive, v.clone());
            let u_ints: Vec<Int> = us
                .iter()
                .map(|u| Int::from_sign_mag(Sign::Positive, u.clone()))
                .collect();
            let prepared = ExactDivisor::new(d.clone());
            let (amortized, ta) = time_best(reps, || {
                ctx.run(|| u_ints.iter().map(|u| prepared.div_exact(u)).collect::<Vec<_>>())
            });
            let amortized: Vec<Vec<Limb>> =
                amortized.iter().map(|q| q.magnitude().to_vec()).collect();
            assert_eq!(school, qs, "algorithm D mismatch at v={v_len} q={q_len}");
            assert_eq!(oneshot, qs, "one-shot 2-adic mismatch at v={v_len} q={q_len}");
            assert_eq!(amortized, qs, "amortized 2-adic mismatch at v={v_len} q={q_len}");
            cells.push(format!(
                "{:>5.2}x {:>5.2}x",
                ts.as_secs_f64() / to.as_secs_f64(),
                ts.as_secs_f64() / ta.as_secs_f64()
            ));
        }
        println!("  {v_len:>3} | {}", cells.join(" | "));
    }
    println!(
        "  → NEWTON_EXACT_THRESHOLD = {} quotient limbs (one-shot); prepared divisors\n    \
         dispatch from {} limbs (amortized lifting)",
        newton_div::NEWTON_EXACT_THRESHOLD,
        2 // PREPARED_EXACT_THRESHOLD
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
