//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **dynamic vs static scheduling** (paper footnote 3) — simulated
//!    speedup of the dynamic task graph vs the measured round-barrier
//!    structure of the static driver;
//! 2. **parallel vs sequential remainder stage** (the paper's run-time
//!    option) — trace-simulated effect on total makespan;
//! 3. **hybrid vs bisection-only refinement** (Sec 2.2) — sequential
//!    multiplication counts and wall time;
//! 4. **task grain** in the tree stage (Sec 3.2) — entry-split vs
//!    coarse matrix products, effect on simulated parallelism.
//!
//! ```sh
//! cargo run --release -p rr-bench --bin ablations -- [--n 50] [--mu-digits 16]
//! ```

use rr_bench::{digits_to_bits, Args};
use rr_core::{ExecMode, Grain, RefineStrategy, RootApproximator, SolverConfig};
use rr_workload::charpoly_input;

fn main() {
    let args = Args::parse();
    let n: usize = args.get("n").unwrap_or(50);
    let digits: u64 = args.get("mu-digits").unwrap_or(16);
    let mu = digits_to_bits(digits);
    let p = charpoly_input(n, 0);
    let procs = [1usize, 2, 4, 8, 16];
    println!("Ablations at n = {n}, µ = {digits} digits ({mu} bits)\n");

    // -- 1+2+4: trace-simulated speedups under scheduling variants ------
    let trace_run = |seq_remainder: bool, grain: Grain| {
        let mut cfg = SolverConfig::parallel(mu, 2);
        cfg.mode = ExecMode::Dynamic { threads: 1 }; // exact durations
        cfg.seq_remainder = seq_remainder;
        cfg.grain = grain;
        RootApproximator::new(cfg).approximate_roots(&p).unwrap()
    };

    println!("trace-simulated speedups:");
    println!("  variant                       | {}", procs.map(|q| format!("S({q:>2})")).join(" | "));
    for (name, seq_rem, grain) in [
        ("dynamic, entry grain (paper)  ", false, Grain::Entry),
        ("dynamic, coarse grain         ", false, Grain::Coarse),
        ("dynamic, sequential remainder ", true, Grain::Entry),
    ] {
        let r = trace_run(seq_rem, grain);
        let sim = r.stats.simulate_speedups(&procs);
        println!(
            "  {name}| {}",
            sim.iter().map(|&(_, s)| format!("{s:>5.2}")).collect::<Vec<_>>().join(" | ")
        );
    }

    // static scheduling: measured rounds (barrier overhead is structural,
    // so report the per-round imbalance instead of thread wall time).
    {
        let rs = rr_poly::remainder::remainder_sequence(&p).unwrap();
        let b = rr_poly::bounds::root_bound_bits(&p);
        let (_roots, st) =
            rr_core::rounds::solve_rounds(&rs, mu, b, RefineStrategy::Hybrid, Some(2)).unwrap();
        let st = st.expect("dealt rounds report their statistics");
        let longest: f64 = st.round_walls.iter().map(|d| d.as_secs_f64()).sum();
        println!(
            "  static scheduling             | {} barrier-separated rounds, Σ round walls = {:.4}s",
            st.rounds, longest
        );
    }

    // -- 3: refinement strategy ------------------------------------------
    println!("\nrefinement strategy (sequential, multiplications in the interval stage):");
    for (name, strat) in [
        ("hybrid (sieve+bisect+newton)", RefineStrategy::Hybrid),
        ("secant hybrid (Illinois)", RefineStrategy::SecantHybrid),
        ("bisection only", RefineStrategy::BisectOnly),
    ] {
        let mut cfg = SolverConfig::sequential(mu);
        cfg.refine = strat;
        let r = RootApproximator::new(cfg).approximate_roots(&p).unwrap();
        let d = r.stats.cost;
        use rr_mp::metrics::Phase;
        let interval: u64 = [Phase::Sieve, Phase::Bisection, Phase::Newton]
            .iter()
            .map(|&ph| d.phase(ph).mul_count)
            .sum();
        println!(
            "  {name:<29}: {interval:>9} muls, wall {:.4}s",
            r.stats.wall.as_secs_f64()
        );
    }
    println!("\n(the hybrid wins by a factor that grows with µ — the sieve skips the");
    println!(" long plateau and Newton replaces the last ~µ bisections with ~log µ steps)");
    rr_bench::maybe_trace(&args, SolverConfig::parallel(mu, 2), &p);
}
