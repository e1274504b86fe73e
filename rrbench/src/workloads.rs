//! The four workloads and their seeded inputs.
//!
//! Every input is a function of `--seed` alone; the program under test
//! sees only the generated polynomials (or the request lines built from
//! them).

use crate::stats::{derive, SplitMix};
use rr_core::Degradation;
use rr_poly::Poly;
use rr_workload::families::{chebyshev_t, clustered_roots, hermite, legendre_scaled, wilkinson};
use rr_workload::{charpoly_input, with_multiplicities};

/// A workload name as given to `--workload`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many small charpoly inputs at µ = 107, sequential solves.
    Small,
    /// Charpoly n ∈ {64, 80, 96} at µ = 27, parallel solves.
    Large,
    /// Classical ill-conditioned families, clusters, a repeated-root and a
    /// non-real-rooted input at µ = 64.
    Hard,
    /// An open-loop request mix against a spawned `rr-serve`.
    Serve,
}

/// All workloads, in the order `--workload all` runs them.
pub const ALL: [Workload; 4] = [
    Workload::Small,
    Workload::Large,
    Workload::Hard,
    Workload::Serve,
];

impl Workload {
    /// The name used on the command line and in metric rows.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Small => "small",
            Workload::Large => "large",
            Workload::Hard => "hard",
            Workload::Serve => "serve",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One input: a polynomial, the precision it is solved at, and the
/// degradation a correct solve reports for it.
#[derive(Debug, Clone)]
pub struct Input {
    /// Human-readable label (family, degree, seed index).
    pub name: String,
    /// The polynomial.
    pub poly: Poly,
    /// Output precision in bits.
    pub mu: u64,
    /// The degradation a correct answer must carry, if the input needs
    /// more than the squarefree retry that any input with repeated roots
    /// gets (see `report::certify_answers`).
    pub expect: Option<Degradation>,
}

fn native(name: String, poly: Poly, mu: u64) -> Input {
    Input {
        name,
        poly,
        mu,
        expect: None,
    }
}

/// Degrees of the `small` and `serve` charpoly mixes.
const SMALL_DEGREES: [usize; 7] = [8, 12, 16, 20, 24, 28, 32];

fn charpoly_mix(seed: u64, tag: u64, degrees: &[usize], per_degree: u64, mu: u64) -> Vec<Input> {
    let mut out = Vec::new();
    for &n in degrees {
        for k in 0..per_degree {
            let s = derive(seed, tag + 1000 * n as u64 + k);
            out.push(native(format!("charpoly{n}#{k}"), charpoly_input(n, s), mu));
        }
    }
    out
}

/// The inputs of `workload` for `seed`. For `serve` these are the
/// request templates (each polynomial at both precisions).
pub fn inputs(workload: Workload, seed: u64) -> Vec<Input> {
    match workload {
        Workload::Small => charpoly_mix(seed, 1, &SMALL_DEGREES, 8, 107),
        Workload::Large => charpoly_mix(seed, 2, &[64, 80, 96], 1, 27),
        Workload::Hard => hard_inputs(seed),
        Workload::Serve => {
            let polys = charpoly_mix(seed, 4, &SMALL_DEGREES, 4, 0);
            [27u64, 64]
                .into_iter()
                .flat_map(|mu| {
                    polys
                        .iter()
                        .map(move |i| native(format!("{}@{mu}", i.name), i.poly.clone(), mu))
                })
                .collect()
        }
    }
}

fn hard_inputs(seed: u64) -> Vec<Input> {
    const MU: u64 = 64;
    let mut rng = SplitMix::new(derive(seed, 3));
    let mut offset = || rng.below(17) as i64 - 8;
    let (a, b) = (offset(), offset());
    let mut out = vec![
        native("wilkinson48".into(), wilkinson(48), MU),
        native("chebyshev64".into(), chebyshev_t(64), MU),
        native("hermite48".into(), hermite(48), MU),
        native("legendre48".into(), legendre_scaled(48), MU),
        native(
            format!("cluster16@2^-40+{a}"),
            clustered_roots(16, 40, a),
            MU,
        ),
        native(format!("cluster8@2^-64+{b}"), clustered_roots(8, 64, b), MU),
    ];
    // Four distinct integer roots in [−20, 20]; the first is double, the
    // others have multiplicity 1..=3.
    let mut pool: Vec<i64> = (-20..=20).collect();
    rng.shuffle(&mut pool);
    let roots: Vec<(i64, usize)> = pool[..4]
        .iter()
        .enumerate()
        .map(|(i, &r)| (r, if i == 0 { 2 } else { 1 + rng.below(3) }))
        .collect();
    out.push(native(
        "multiplicities".into(),
        with_multiplicities(&roots),
        MU,
    ));
    let x2_plus_1 = Poly::from_i64(&[1, 0, 1]);
    out.push(Input {
        name: "charpoly24*(x^2+1)".into(),
        poly: &charpoly_input(24, derive(seed, 5)) * &x2_plus_1,
        mu: MU,
        expect: Some(Degradation::SturmBaseline),
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for w in [Workload::Small, Workload::Hard, Workload::Serve] {
            let a = inputs(w, 1);
            let b = inputs(w, 1);
            let c = inputs(w, 2);
            assert_eq!(a.len(), b.len());
            assert!(a
                .iter()
                .zip(&b)
                .all(|(x, y)| x.poly == y.poly && x.mu == y.mu));
            assert!(
                a.iter().zip(&c).any(|(x, y)| x.poly != y.poly),
                "{}",
                w.name()
            );
        }
        assert_eq!(inputs(Workload::Small, 1).len(), 56);
        assert_eq!(inputs(Workload::Serve, 1).len(), 56);
        assert_eq!(Workload::parse("hard"), Some(Workload::Hard));
        assert_eq!(Workload::parse("nope"), None);
    }
}
