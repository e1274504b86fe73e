//! Polynomial-multiplication kernel ablation: schoolbook coefficient
//! loop vs Kronecker substitution (DESIGN.md §12), on the profile axis,
//! on the paper's workload families.
//!
//! Two modes:
//!
//! * **grid** (default) — for each degree `n` one row per profile
//!   (`paper`: schoolbook loop on the schoolbook limb kernel; `fast`:
//!   Kronecker above its crossover on Karatsuba): wall-clock of the
//!   tree-polynomial phase (the COMPUTEPOLY kernel alone, no interval
//!   stage), of a balanced product tree, and of a full sequential solve,
//!   plus the recorded model counts — which must be identical across
//!   profiles (the Kronecker path replays the schoolbook charge; see
//!   `rr_poly::kronecker`).
//! * **`--sweep`** — the crossover calibration behind
//!   `rr_poly::kronecker::KRONECKER_MIN_LEN`: dense random operands over
//!   a (length × coefficient bits) grid, schoolbook vs forced Kronecker,
//!   reporting the smallest length where Kronecker wins everywhere.
//!
//! ```sh
//! cargo run --release -p rr-bench --bin polymul_ablation -- \
//!     [--max-n 96] [--mu-digits 16] [--reps 3] [--json results/BENCH_polymul.json]
//! cargo run --release -p rr-bench --bin polymul_ablation -- --sweep
//! ```

use rr_bench::json::Value;
use rr_bench::{digits_to_bits, impl_to_json, maybe_write_bench_json, time_best, Args};
use rr_core::tree::{is_spine, Tree};
use rr_core::{treepoly, Session, SolverConfig};
use rr_linalg::Mat2;
use rr_mp::limb::Limb;
use rr_mp::{Exec, Int, Profile, Sign, SolveCtx};
use rr_poly::remainder::{remainder_sequence, RemainderSeq};
use rr_poly::Poly;
use rr_workload::charpoly_input;

/// One grid cell: a profile on one degree's two workload families.
struct Row {
    n: usize,
    profile: String,
    /// In-solve COMPUTEPOLY kernel (charpoly family): every tree matrix,
    /// bottom-up. Dominated by low-degree × huge-coefficient products
    /// (subresultant growth), where the gate keeps Kronecker out.
    tree_wall_s: f64,
    /// Tree-polynomial phase of the integer-roots family: the balanced
    /// product tree building `Π(x−rᵢ)` — degree ≫ coefficient limbs,
    /// the regime Kronecker collapses onto one big multiplication.
    product_tree_wall_s: f64,
    /// Full sequential solve (charpoly family).
    solve_wall_s: f64,
    /// The solve's tree+interval stage wall.
    solve_tree_wall_s: f64,
    /// Model multiplications recorded by the COMPUTEPOLY kernel —
    /// asserted identical across the profiles of each `n`.
    model_muls: u64,
    /// Kronecker packings that actually ran (COMPUTEPOLY + product tree).
    kronecker_muls: u64,
    packed_bits: u64,
    /// Speedups vs the `paper` row of the same `n` (1.0 on that row).
    speedup_tree: f64,
    speedup_product_tree: f64,
    speedup_solve: f64,
}
impl_to_json!(Row {
    n,
    profile,
    tree_wall_s,
    product_tree_wall_s,
    solve_wall_s,
    solve_tree_wall_s,
    model_muls,
    kronecker_muls,
    packed_bits,
    speedup_tree,
    speedup_product_tree,
    speedup_solve,
});

/// The COMPUTEPOLY phase in isolation: every non-spine tree matrix,
/// bottom-up (exactly the matrices `seq_solver` computes, without the
/// interval stage's evaluations diluting the timing).
fn all_tmats(tree: &Tree, rs: &RemainderSeq, idx: usize) -> Option<Mat2> {
    let node = tree.node(idx);
    let spine = is_spine(node, tree.n);
    if node.is_leaf() {
        return if spine { None } else { Some(treepoly::leaf_tmat(rs, node.i)) };
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

fn grid(args: &Args) {
    let max_n: usize = args.get("max-n").unwrap_or(96);
    let digits: u64 = args.get("mu-digits").unwrap_or(16);
    let reps: usize = args.get("reps").unwrap_or(3);
    let mu = digits_to_bits(digits);
    let mut rows: Vec<Row> = Vec::new();

    println!("Polynomial-multiplication kernels by profile, µ = {digits} digits ({mu} bits)");
    println!("tree = in-solve COMPUTEPOLY kernel (charpoly family); ptree = balanced product");
    println!("tree building Π(x−rᵢ) over n integer roots (the degree ≫ coefficient regime)\n");
    println!("  n  | profile | tree       | vs paper | ptree      | vs paper | solve      | vs paper");
    println!(" ----+---------+------------+----------+------------+----------+------------+---------");
    for n in [16usize, 32, 48, 64, 80, 96].into_iter().filter(|&n| n <= max_n) {
        let p = charpoly_input(n, 0);
        let rs = remainder_sequence(&p).expect("paper workload has a remainder sequence");
        let tree = Tree::build(rs.n);
        let roots: Vec<Int> = (0..n).map(|i| Int::from(i as i64 - (n / 2) as i64)).collect();
        let mut paper_walls = [0f64; 3];
        let mut model_muls_ref: Option<u64> = None;
        for profile in Profile::ALL {
            let ctx = SolveCtx::new(profile);
            let (_, best) = time_best(reps, || ctx.run(|| all_tmats(&tree, &rs, tree.root)));
            let tree_wall = best.as_secs_f64();

            // The model is profile-invariant; `reps` kernel runs each
            // recorded the same charge, so divide the accumulated count.
            let model_muls = ctx.snapshot().total().mul_count / reps as u64;
            match model_muls_ref {
                None => model_muls_ref = Some(model_muls),
                Some(m) => assert_eq!(m, model_muls, "model drift at n={n} {profile}"),
            }

            // The product tree is orders of magnitude cheaper than the
            // solve kernel (sub-millisecond walls), so scheduler jitter
            // swamps a small best-of; run it many times. Its own ctx
            // keeps the per-rep counter arithmetic exact.
            let ptree_reps = reps.max(3) * 67;
            let ptree_ctx = SolveCtx::new(profile);
            let (_, bestp) = time_best(ptree_reps, || ptree_ctx.run(|| Poly::from_roots(&roots)));
            let ptree_wall = bestp.as_secs_f64();

            // One timed full solve through the session API.
            let cfg = SolverConfig::sequential(mu).with_profile(profile);
            let r = Session::new(cfg).solve(&p).expect("real-rooted workload");
            let solve_wall = r.stats.wall.as_secs_f64();

            if profile == Profile::Paper {
                paper_walls = [tree_wall, ptree_wall, solve_wall];
            }
            let speedups = [
                paper_walls[0] / tree_wall,
                paper_walls[1] / ptree_wall,
                paper_walls[2] / solve_wall,
            ];
            println!(
                " {n:>3} | {profile:<7} | {tree_wall:>9.4}s | {:>7.2}x | {ptree_wall:>9.4}s | {:>7.2}x | {solve_wall:>9.4}s | {:>7.2}x",
                speedups[0], speedups[1], speedups[2],
            );
            let (kron, pkron) = (ctx.exec(), ptree_ctx.exec());
            let count =
                |e: Exec| kron.get(e) / reps as u64 + pkron.get(e) / ptree_reps as u64;
            rows.push(Row {
                n,
                profile: profile.to_string(),
                tree_wall_s: tree_wall,
                product_tree_wall_s: ptree_wall,
                solve_wall_s: solve_wall,
                solve_tree_wall_s: r.stats.tree_wall.as_secs_f64(),
                model_muls,
                kronecker_muls: count(Exec::KroneckerMuls),
                packed_bits: count(Exec::PackedBits),
                speedup_tree: speedups[0],
                speedup_product_tree: speedups[1],
                speedup_solve: speedups[2],
            });
        }
    }
    println!("\n(model_muls is identical across each n's profiles — asserted above. The in-solve");
    println!(" tree kernel is dominated by degree ≤ 8 products with 10⁴–10⁵-bit subresultant");
    println!(" coefficients — below the Kronecker crossover, so its fast-profile gain is");
    println!(" Karatsuba's; the product-tree column is the regime Kronecker was built for.)");
    maybe_write_bench_json(
        args.get("json"),
        "polymul_ablation",
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
}

/// A dense polynomial with `len` nonzero coefficients of about `bits`
/// bits each, random signs.
fn dense_poly(rng: &mut Rng, len: usize, bits: u64) -> Poly {
    let limbs = bits.div_ceil(Limb::BITS as u64) as usize;
    let coeffs = (0..len)
        .map(|_| {
            let mut mag: Vec<Limb> = (0..limbs).map(|_| rng.next()).collect();
            *mag.last_mut().unwrap() |= 1 << (Limb::BITS - 1); // exact top bit
            let sign = if rng.next() & 1 == 0 { Sign::Positive } else { Sign::Negative };
            Int::from_sign_mag(sign, mag)
        })
        .collect();
    Poly::from_coeffs(coeffs)
}

fn sweep(args: &Args) {
    let reps: usize = args.get("reps").unwrap_or(5);
    let lens = [2usize, 3, 4, 6, 8, 10, 12, 16, 24, 32];
    let bit_sizes = [64u64, 512, 2048];
    println!("Kronecker crossover sweep (dense operands, equal lengths; ratio = school/kron)");
    println!("Kronecker turns one poly product into a few huge integer products, so it only");
    println!("pays when the integer kernel is subquadratic — calibrate under `fast` (Karatsuba).");
    for profile in Profile::ALL {
        let ctx = SolveCtx::new(profile);
        println!("\nprofile: {profile}");
        println!("  len | {}", bit_sizes.map(|b| format!("{b:>5} bits")).join(" | "));
        println!(" -----+{}", bit_sizes.map(|_| "-----------".to_string()).join("+"));
        let mut crossover = None;
        for len in lens {
            let mut ratios = Vec::new();
            for bits in bit_sizes {
                let mut rng = Rng(0xc0ffee ^ ((len as u64) << 16) ^ bits);
                let a = dense_poly(&mut rng, len, bits);
                let b = dense_poly(&mut rng, len, bits);
                let (school, ts) = time_best(reps, || ctx.run(|| a.mul_schoolbook(&b)));
                let (kron, tk) = time_best(reps, || ctx.run(|| a.mul_kronecker(&b)));
                assert_eq!(school, kron, "kernel mismatch at len={len} bits={bits}");
                ratios.push(ts.as_secs_f64() / tk.as_secs_f64());
            }
            println!(
                "  {len:>3} | {}",
                ratios.iter().map(|r| format!("{r:>9.2}x")).collect::<Vec<_>>().join(" | ")
            );
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

fn main() {
    let args = Args::parse();
    if args.flag("sweep") {
        sweep(&args);
    } else {
        grid(&args);
    }
}
