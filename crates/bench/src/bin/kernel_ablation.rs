//! Kernel ablation on the profile axis: one grid of sizes × profiles ×
//! regions × worker counts, each region timed once (DESIGN.md §12, §13,
//! §17).
//!
//! * **grid** (default) — one row per `(n, profile, region, threads)` on
//!   `charpoly_input(n, 0)`. Regions:
//!   - `remainder`: the remainder-sequence phase alone (the
//!     division-bound stage the fork-join splitter targets), timed on a
//!     bare thread where nothing splits. At `threads` P > 1 it is
//!     re-costed from one run in a 2-worker scope, where the splitter
//!     engages: Brent's bound `wall − T₁ + max(T₁/P, T_∞)` from the split
//!     products' work `T₁` and span `T_∞`.
//!   - `treepoly`: the COMPUTEPOLY kernel alone (every non-spine tree
//!     matrix, no interval stage).
//!   - `product_tree`: `Poly::from_roots` over `n` integer roots, the
//!     degree ≫ coefficient regime Kronecker substitution targets.
//!   - `solve`: `SolverConfig::parallel(mu, threads)` — sequential at one
//!     thread — with its stage walls; the sim re-costs the 1-thread wall
//!     with the 2-thread solve's split products.
//!
//!   Walls are the best of `--reps`, counts are per rep, and `speedup` /
//!   `sim_speedup` compare with the `paper` row of the same
//!   `(n, region, threads)`. Asserted: the whole cost snapshot is equal
//!   across profiles per cell; every execution counter but
//!   `allocs`/`alloc_bytes` is zero on `paper` rows; the bare-thread
//!   remainder phase never splits; no solve degrades. Multi-worker walls
//!   are faithful only up to the host's core count, hence the `sim_`
//!   columns.
//! * **`--sweep`** — the kernel crossover calibrations in turn: Kronecker
//!   length ([`rr_poly::kronecker::KRONECKER_MIN_LEN`]), Newton and 2-adic
//!   division ([`newton_div::NEWTON_DIV_THRESHOLD`],
//!   [`newton_div::NEWTON_EXACT_THRESHOLD`]) and the fork-join split
//!   threshold ([`parmul::PAR_MUL_THRESHOLD`]).
//!
//! ```sh
//! cargo run --release -p rr-bench --bin kernel_ablation -- \
//!     [--max-n 96] [--max-threads 8] [--mu-digits 16] [--reps 3] \
//!     [--json results/BENCH_kernels.json]
//! cargo run --release -p rr-bench --bin kernel_ablation -- --sweep [--reps 5]
//! ```

use rr_bench::json::{ToJson, Value};
use rr_bench::{digits_to_bits, maybe_write_bench_json, time_best, Args};
use rr_core::tree::{is_spine, Tree};
use rr_core::{treepoly, Session, SolveStats, SolverConfig};
use rr_linalg::Mat2;
use rr_mp::limb::Limb;
use rr_mp::metrics::{CostSnapshot, ALL_EXEC, NUM_EXEC};
use rr_mp::nat::{self, div, kmul, newton_div, parmul};
use rr_mp::{ExactDivisor, Exec, Int, Profile, Sign, SolveCtx};
use rr_poly::remainder::{remainder_sequence, RemainderSeq};
use rr_poly::Poly;
use rr_workload::charpoly_input;
use std::collections::BTreeMap;

const SIZES: [usize; 6] = [16, 32, 48, 64, 80, 96];
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One region measured under one profile: the best wall of its reps and
/// the counts of one rep.
#[derive(Clone)]
struct Timed {
    wall_s: f64,
    /// Model cost summed over the reps (equal reps per profile, so this
    /// is what the cross-profile assertion compares).
    cost: CostSnapshot,
    reps: u64,
    /// Execution counters per rep, in [`ALL_EXEC`] order.
    exec: [u64; NUM_EXEC],
    /// Best remainder- and tree-stage walls of the solves the region ran.
    stage_wall_s: [f64; 2],
}

impl Timed {
    fn get(&self, e: Exec) -> u64 {
        self.exec[e as usize]
    }

    /// `(T₁, T_∞)` of the split products, in seconds.
    fn work_span(&self) -> (f64, f64) {
        (
            self.get(Exec::ParmulWorkNs) as f64 * 1e-9,
            self.get(Exec::ParmulSpanNs) as f64 * 1e-9,
        )
    }

    /// `T₁ / T_∞`: the speedup no worker count can beat (1 when nothing
    /// split).
    fn available_parallelism(&self) -> f64 {
        let (work, span) = self.work_span();
        if span > 0.0 {
            work / span
        } else {
            1.0
        }
    }

    /// `wall − T₁ + max(T₁/procs, T_∞)`: Brent's bound with only this
    /// run's split products parallelized.
    fn brent(&self, wall: f64, procs: usize) -> f64 {
        let (work, span) = self.work_span();
        wall - work + (work / procs as f64).max(span)
    }
}

/// Runs `region` as the best of `reps` under one fresh `profile` context.
/// A solve records into its own private context, so a region that solves
/// hands back its `SolveStats`, whose counts and stage walls are added.
fn measure(
    profile: Profile,
    reps: usize,
    mut region: impl FnMut(&SolveCtx) -> Option<SolveStats>,
) -> Timed {
    let ctx = SolveCtx::new(profile);
    let mut cost = CostSnapshot::default();
    let mut exec = [0u64; NUM_EXEC];
    let mut stage_wall_s = [0f64; 2];
    let (_, best) = time_best(reps, || {
        if let Some(s) = ctx.run(|| region(&ctx)) {
            cost += s.cost;
            for (sum, e) in exec.iter_mut().zip(ALL_EXEC) {
                *sum += s.exec.get(e);
            }
            let stages = [s.remainder_wall.as_secs_f64(), s.tree_wall.as_secs_f64()];
            for (best, wall) in stage_wall_s.iter_mut().zip(stages) {
                *best = if *best == 0.0 { wall } else { best.min(wall) };
            }
        }
    });
    cost += ctx.snapshot();
    let own = ctx.exec();
    for (sum, e) in exec.iter_mut().zip(ALL_EXEC) {
        *sum = (*sum + own.get(e)) / reps as u64;
    }
    Timed {
        wall_s: best.as_secs_f64(),
        cost,
        reps: reps as u64,
        exec,
        stage_wall_s,
    }
}

/// One grid cell.
struct Row {
    n: usize,
    profile: Profile,
    region: &'static str,
    threads: usize,
    /// Measured best wall; for `remainder` the bare-thread phase at every
    /// `threads`.
    best_wall_s: f64,
    /// Brent-bound wall at `threads` workers.
    sim_wall_s: f64,
    counts: Timed,
    speedup: f64,
    sim_speedup: f64,
}

impl ToJson for Row {
    fn to_json(&self) -> Value {
        let num = |x: f64| Value::Num(x);
        let model = self.counts.cost.total();
        let per_rep = |x: u64| num((x / self.counts.reps) as f64);
        let mut o: BTreeMap<String, Value> = [
            ("n", num(self.n as f64)),
            ("profile", Value::Str(self.profile.to_string())),
            ("region", Value::Str(self.region.to_string())),
            ("threads", num(self.threads as f64)),
            ("best_wall_s", num(self.best_wall_s)),
            ("sim_wall_s", num(self.sim_wall_s)),
            ("solve_rem_wall_s", num(self.counts.stage_wall_s[0])),
            ("solve_tree_wall_s", num(self.counts.stage_wall_s[1])),
            ("mul_count", per_rep(model.mul_count)),
            ("mul_bits", per_rep(model.mul_bits)),
            ("div_count", per_rep(model.div_count)),
            ("div_bits", per_rep(model.div_bits)),
            (
                "available_parallelism",
                num(self.counts.available_parallelism()),
            ),
            ("speedup", num(self.speedup)),
            ("sim_speedup", num(self.sim_speedup)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        for e in ALL_EXEC {
            o.insert(e.label().to_string(), num(self.counts.get(e) as f64));
        }
        Value::Object(o)
    }
}

/// The COMPUTEPOLY phase in isolation: every non-spine tree matrix,
/// bottom-up (exactly the matrices `seq_solver` computes, without the
/// interval stage's evaluations diluting the timing).
fn all_tmats(tree: &Tree, rs: &RemainderSeq, idx: usize) -> Option<Mat2> {
    let node = tree.node(idx);
    let spine = is_spine(node, tree.n);
    if node.is_leaf() {
        return (!spine).then(|| treepoly::leaf_tmat(rs, node.i));
    }
    let k = node.k.expect("internal node has a split");
    let left = all_tmats(tree, rs, node.left.expect("internal node has a left child"));
    let right = node.right.and_then(|r| all_tmats(tree, rs, r));
    if spine {
        return None;
    }
    let lt = left.expect("non-spine left child has a matrix");
    let rt = right.unwrap_or_else(|| treepoly::missing_right_tmat(rs, k));
    Some(treepoly::combine_tmat(
        &lt,
        &rt,
        &treepoly::s_hat(rs, k),
        &treepoly::combine_divisor(rs, k),
    ))
}

/// Every row of one profile at one degree; speedups are filled in later.
fn profile_rows(
    n: usize,
    profile: Profile,
    mu: u64,
    reps: usize,
    threads: &[usize],
    p: &Poly,
) -> Vec<Row> {
    let rs = remainder_sequence(p).expect("paper workload has a remainder sequence");
    let tree = Tree::build(rs.n);
    let roots: Vec<Int> = (0..n)
        .map(|i| Int::from(i as i64 - (n / 2) as i64))
        .collect();
    let row = |region, threads, best_wall_s, sim_wall_s, counts: &Timed| Row {
        n,
        profile,
        region,
        threads,
        best_wall_s,
        sim_wall_s,
        counts: counts.clone(),
        speedup: 1.0,
        sim_speedup: 1.0,
    };
    let mut rows = Vec::new();

    let rem = measure(profile, reps, |_| {
        remainder_sequence(p).expect("real-rooted workload");
        None
    });
    assert_eq!(
        rem.get(Exec::ParmulProducts),
        0,
        "bare-thread remainder phase split at n={n}"
    );
    // One run in a 2-worker scope: an idle worker engages the splitter.
    let engaged = measure(profile, 1, |ctx| {
        rr_sched::run(2, move |scope| {
            scope.spawn(move |_| {
                ctx.run(|| remainder_sequence(p))
                    .expect("real-rooted workload");
            })
        });
        None
    });
    for &t in threads {
        let counts = if t == 1 { &rem } else { &engaged };
        let sim = engaged.brent(rem.wall_s, t);
        rows.push(row("remainder", t, rem.wall_s, sim, counts));
    }

    let tmats = measure(profile, reps, |_| {
        all_tmats(&tree, &rs, tree.root);
        None
    });
    rows.push(row("treepoly", 1, tmats.wall_s, tmats.wall_s, &tmats));

    // Sub-millisecond walls: scheduler jitter swamps a small best-of, so
    // the product tree runs many more times.
    let ptree = measure(profile, reps.max(3) * 67, |_| {
        Poly::from_roots(&roots);
        None
    });
    rows.push(row("product_tree", 1, ptree.wall_s, ptree.wall_s, &ptree));

    let solves: Vec<Timed> = threads
        .iter()
        .map(|&t| {
            let session = Session::new(SolverConfig::parallel(mu, t).with_profile(profile));
            measure(profile, reps, |_| {
                let r = session.solve(p).expect("real-rooted workload");
                assert!(
                    r.degraded.is_none(),
                    "{profile} solve degraded at n={n}, {t} threads"
                );
                Some(r.stats)
            })
        })
        .collect();
    let serial = solves[0].wall_s;
    let engaged = threads.iter().position(|&t| t == 2).map(|i| &solves[i]);
    for (&t, s) in threads.iter().zip(&solves) {
        let sim = engaged.map_or(serial, |e| e.brent(serial, t));
        rows.push(row("solve", t, s.wall_s, sim, s));
    }
    rows
}

/// Checks the grid's invariants at one degree and fills in the speedups
/// against the `paper` rows.
fn compare_to_paper(rows: &mut [Row]) {
    for i in 0..rows.len() {
        let r = &rows[i];
        let paper = rows
            .iter()
            .find(|q| q.profile == Profile::Paper && q.region == r.region && q.threads == r.threads)
            .expect("every cell has a paper row");
        let at = format!("n={} {} {} threads={}", r.n, r.profile, r.region, r.threads);
        assert_eq!(r.counts.cost, paper.counts.cost, "model drift at {at}");
        if r.profile == Profile::Paper {
            for e in ALL_EXEC {
                if !matches!(e, Exec::Allocs | Exec::AllocBytes) {
                    assert_eq!(r.counts.get(e), 0, "{} ran under paper at {at}", e.label());
                }
            }
        }
        let (speedup, sim_speedup) = (
            paper.best_wall_s / r.best_wall_s,
            paper.sim_wall_s / r.sim_wall_s,
        );
        rows[i].speedup = speedup;
        rows[i].sim_speedup = sim_speedup;
    }
}

fn grid(args: &Args) {
    let max_n: usize = args.get("max-n").unwrap_or(96);
    let max_threads: usize = args.get("max-threads").unwrap_or(8);
    let digits: u64 = args.get("mu-digits").unwrap_or(16);
    let reps: usize = args.get("reps").unwrap_or(3);
    let mu = digits_to_bits(digits);
    let threads: Vec<usize> = THREADS
        .into_iter()
        .filter(|&t| t <= max_threads.max(1))
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    println!("Kernel profiles: µ = {digits} digits ({mu} bits), best of {reps}, {cores} cores.");
    println!("Measured walls are faithful up to that worker count; sim walls replay the");
    println!("measured work/span of split products per Brent's bound.\n");
    println!("  n  | profile | region       | thr | best wall   | vs paper | sim wall    | vs paper | splits | kron | 2-adic");
    println!(" ----+---------+--------------+-----+-------------+----------+-------------+----------+--------+------+-------");
    let mut all: Vec<Row> = Vec::new();
    for n in SIZES.into_iter().filter(|&n| n <= max_n) {
        let p = charpoly_input(n, 0);
        let mut rows: Vec<Row> = Profile::ALL
            .into_iter()
            .flat_map(|profile| profile_rows(n, profile, mu, reps, &threads, &p))
            .collect();
        compare_to_paper(&mut rows);
        for r in &rows {
            println!(
                " {:>3} | {:<7} | {:<12} | {:>3} | {:>8.3} ms | {:>7.2}x | {:>8.3} ms | {:>7.2}x | {:>6} | {:>4} | {:>6}",
                r.n,
                r.profile,
                r.region,
                r.threads,
                r.best_wall_s * 1e3,
                r.speedup,
                r.sim_wall_s * 1e3,
                r.sim_speedup,
                r.counts.get(Exec::ParmulProducts),
                r.counts.get(Exec::KroneckerMuls),
                r.counts.get(Exec::ExactDivs),
            );
        }
        all.extend(rows);
    }
    println!("\n(model counts are identical across each cell's profiles — asserted above. The");
    println!(" remainder rows at threads > 1 re-cost the bare-thread phase with the split");
    println!(" products of a 2-worker run; solve rows at threads > 1 are measured, and their");
    println!(" sim wall re-costs the 1-thread solve with the 2-thread solve's split products.)");
    maybe_write_bench_json(
        args.get("json"),
        "kernel_ablation",
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
        &all,
    );
}

// ---------------------------------------------------------------------
// Crossover sweeps
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

    /// A dense polynomial with `len` nonzero coefficients of about
    /// `bits` bits each, random signs.
    fn poly(&mut self, len: usize, bits: u64) -> Poly {
        let limbs = bits.div_ceil(Limb::BITS as u64) as usize;
        let coeffs = (0..len)
            .map(|_| {
                let mag = self.mag(limbs);
                let sign = if self.next() & 1 == 0 {
                    Sign::Positive
                } else {
                    Sign::Negative
                };
                Int::from_sign_mag(sign, mag)
            })
            .collect();
        Poly::from_coeffs(coeffs)
    }
}

/// One sweep table row: each ratio right-aligned to `width`.
fn ratio_cells(ratios: &[f64], width: usize) -> String {
    let cells: Vec<String> = ratios.iter().map(|r| format!("{r:>width$.2}x")).collect();
    cells.join(" | ")
}

/// Kronecker crossover: schoolbook vs forced Kronecker on dense random
/// operands over a (length × coefficient bits) grid.
fn sweep_kronecker(reps: usize) {
    let lens = [2usize, 3, 4, 6, 8, 10, 12, 16, 24, 32];
    let bit_sizes = [64u64, 512, 2048];
    println!("Kronecker crossover sweep (dense operands, equal lengths; ratio = school/kron)");
    println!("Kronecker turns one poly product into a few huge integer products, so it only");
    println!("pays when the integer kernel is subquadratic — calibrate under `fast` (Karatsuba).");
    for profile in Profile::ALL {
        let ctx = SolveCtx::new(profile);
        println!("\nprofile: {profile}");
        println!(
            "  len | {}",
            bit_sizes.map(|b| format!("{b:>5} bits")).join(" | ")
        );
        println!(
            " -----+{}",
            bit_sizes.map(|_| "-----------".to_string()).join("+")
        );
        let mut crossover = None;
        for len in lens {
            let mut ratios = Vec::new();
            for bits in bit_sizes {
                let mut rng = Rng(0xc0ffee ^ ((len as u64) << 16) ^ bits);
                let a = rng.poly(len, bits);
                let b = rng.poly(len, bits);
                let (school, ts) = time_best(reps, || ctx.run(|| a.mul_schoolbook(&b)));
                let (kron, tk) = time_best(reps, || ctx.run(|| a.mul_kronecker(&b)));
                assert_eq!(school, kron, "kernel mismatch at len={len} bits={bits}");
                ratios.push(ts.as_secs_f64() / tk.as_secs_f64());
            }
            println!("  {len:>3} | {}", ratio_cells(&ratios, 9));
            if crossover.is_none() && ratios.iter().all(|&r| r >= 1.0) {
                crossover = Some(len);
            }
        }
        match crossover {
            Some(len) => println!(
                "  → smallest length where Kronecker wins at every coefficient size: {len} \
                 (KRONECKER_MIN_LEN = {})",
                rr_poly::kronecker::KRONECKER_MIN_LEN
            ),
            None => println!("  → Kronecker never won under this profile's multiplication"),
        }
    }
}

/// Truncating-division crossover: Algorithm D vs forced Newton reciprocal
/// over a (divisor limbs × quotient limbs) grid.
fn sweep_newton(reps: usize) {
    let v_lens = [4usize, 8, 12, 16, 20, 24, 32, 48, 64, 96, 128];
    let q_lens = [8usize, 24, 64, 128];
    println!("Newton division crossover sweep (ratio = algorithm D / forced newton)");
    println!("Newton folds the division into reciprocal refinements built from multiplications,");
    println!("so it only pays when the mul kernel is subquadratic — calibrate under `fast`.");
    for profile in Profile::ALL {
        let ctx = SolveCtx::new(profile);
        println!("\nprofile: {profile}  (rows: divisor limbs, cols: quotient limbs)");
        println!("  v\\q | {}", q_lens.map(|q| format!("{q:>6}")).join(" | "));
        println!(
            " -----+{}",
            q_lens.map(|_| "--------".to_string()).join("+")
        );
        let mut crossover = None;
        for v_len in v_lens {
            let mut ratios = Vec::new();
            for q_len in q_lens {
                let mut rng = Rng(0xd1f ^ ((v_len as u64) << 20) ^ q_len as u64);
                let v = rng.mag(v_len);
                // u = v·q + r with r < v: both kernels do the full work.
                let q = rng.mag(q_len);
                let r = rng.mag(v_len - 1);
                let u = nat::add(&ctx.run(|| nat::mul_auto(&v, &q)), &r);
                let (school, ts) = time_best(reps, || div::div_rem(&u, &v));
                let (newton, tn) = time_best(reps, || {
                    ctx.run(|| newton_div::div_rem_with_threshold(&u, &v, 2))
                });
                assert_eq!(school, newton, "kernel mismatch at v={v_len} q={q_len}");
                ratios.push(ts.as_secs_f64() / tn.as_secs_f64());
            }
            println!("  {v_len:>3} | {}", ratio_cells(&ratios, 5));
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
}

/// Exact-division crossover: Algorithm D `div_exact` vs the one-shot
/// 2-adic kernel vs an `ExactDivisor`-amortized batch of 8 divisions by
/// the same divisor (the remainder sequence's access pattern, where the
/// lifted inverse is reused across a whole iteration's coefficients).
fn sweep_exact(reps: usize) {
    const BATCH: usize = 8;
    let v_lens = [4usize, 8, 16, 32, 64, 128, 256];
    let q_lens = [4usize, 16, 64, 256];
    println!("\nExact-division crossover (ratios = algorithm D / 2-adic, one-shot and");
    println!("amortized over {BATCH} same-divisor divisions; 2-adic cost depends on the");
    println!("quotient length only, never the divisor's)");
    let ctx = SolveCtx::new(Profile::Fast);
    println!(
        "\n  v\\q | {}",
        q_lens.map(|q| format!("{q:>13}")).join(" | ")
    );
    println!(
        " -----+{}",
        q_lens.map(|_| "---------------".to_string()).join("+")
    );
    for v_len in v_lens {
        let mut cells = Vec::new();
        for q_len in q_lens {
            let mut rng = Rng(0xace ^ ((v_len as u64) << 20) ^ q_len as u64);
            let v = rng.mag(v_len);
            let qs: Vec<Vec<Limb>> = (0..BATCH).map(|_| rng.mag(q_len)).collect();
            let us: Vec<Vec<Limb>> = qs
                .iter()
                .map(|q| ctx.run(|| nat::mul_auto(&v, q)))
                .collect();
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
            let u_ints: Vec<Int> = us
                .iter()
                .map(|u| Int::from_sign_mag(Sign::Positive, u.clone()))
                .collect();
            let prepared = ExactDivisor::new(Int::from_sign_mag(Sign::Positive, v.clone()));
            let (amortized, ta) = time_best(reps, || {
                ctx.run(|| {
                    u_ints
                        .iter()
                        .map(|u| prepared.div_exact(u))
                        .collect::<Vec<_>>()
                })
            });
            let amortized: Vec<Vec<Limb>> =
                amortized.iter().map(|q| q.magnitude().to_vec()).collect();
            assert_eq!(school, qs, "algorithm D mismatch at v={v_len} q={q_len}");
            assert_eq!(
                oneshot, qs,
                "one-shot 2-adic mismatch at v={v_len} q={q_len}"
            );
            assert_eq!(
                amortized, qs,
                "amortized 2-adic mismatch at v={v_len} q={q_len}"
            );
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

/// Split-threshold calibration at the kernel: balanced products, each
/// candidate threshold passed to [`parmul::mul_with_threshold_into`] with
/// no pool scope (every fork runs inline, so the wall over serial
/// Karatsuba is the split's pure overhead).
fn sweep_split(reps: usize) {
    println!("Split-threshold sweep on balanced products (no pool scope: forks run inline)");
    println!("(overhead = split / serial Karatsuba wall — splitting is pure cost inline;");
    println!(" avail = T₁/T_∞; sim P=8 = Brent-bound speedup of the product on 8 workers)\n");
    for limbs in [128usize, 256, 512, 1024] {
        let (a, b) = (Rng(1).mag(limbs), Rng(2).mag(limbs));
        let mut expect = Vec::new();
        let (_, serial) = time_best(reps, || kmul::mul_into(&a, &b, &mut expect));
        let serial = serial.as_secs_f64();
        println!("{limbs} × {limbs} limbs (serial Karatsuba: {serial:.6}s)");
        println!("  threshold | split      | overhead | tasks  | avail  | sim P=8");
        println!(" -----------+------------+----------+--------+--------+--------");
        for t in [12usize, 16, 24, 32, 48, 64, 96, 128] {
            let mut out = Vec::new();
            let run = measure(Profile::Fast, reps, |_| {
                parmul::mul_with_threshold_into(&a, &b, t, &mut out);
                None
            });
            assert_eq!(out, expect, "split product mismatch at t={t}");
            println!(
                "  {t:>9} | {:>9.6}s | {:>7.1}% | {:>6} | {:>5.1}x | {:>6.2}x",
                run.wall_s,
                (run.wall_s / serial - 1.0) * 100.0,
                run.get(Exec::ParmulTasks),
                run.available_parallelism(),
                run.wall_s / run.brent(run.wall_s, 8),
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
        let reps: usize = args.get("reps").unwrap_or(5);
        sweep_kronecker(reps);
        println!();
        sweep_newton(reps);
        sweep_exact(reps);
        println!();
        sweep_split(reps);
    } else {
        grid(&args);
    }
}
