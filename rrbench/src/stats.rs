//! Order statistics, the seeded generator and the open-loop schedule.

use std::time::Duration;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p`% of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` (to 0.1 resolution) among `n`
/// samples, in integers so that p99.9 of 10 000 samples is exactly rank
/// 9 990.
fn rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Percentiles a tail is reported at, highest first.
const TAILS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile in [`TAILS`] with at least ten of `n` samples
/// beyond it: the tail `n` samples can support. `None` below 11 samples.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| n >= 1 && n - rank(n, p) >= 10)
}

/// Median (nearest rank) of unsorted samples.
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), 50.0)
}

/// A sorted copy.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Geometric mean of each group's median: every input counts equally,
/// whatever its size, and a constant-factor speed-up of all inputs
/// moves the result by the same factor. Empty groups (inputs that never
/// completed) are skipped.
///
/// # Panics
/// Panics if every group is empty or a median is not positive.
pub fn geomean_of_medians(groups: &[Vec<f64>]) -> f64 {
    geomean_of_percentiles(groups, 50.0)
}

/// Geometric mean of each group's nearest-rank `p`th percentile, as
/// [`geomean_of_medians`] for another percentile.
///
/// # Panics
/// Panics if every group is empty or a percentile is not positive.
pub fn geomean_of_percentiles(groups: &[Vec<f64>], p: f64) -> f64 {
    let logs: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| {
            let m = percentile(&sorted(g), p);
            assert!(m > 0.0, "non-positive p{p} {m}");
            m.ln()
        })
        .collect();
    assert!(!logs.is_empty(), "geometric mean of no samples");
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// First and third quartiles as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the default "exclusive" method), so spreads printed
/// here match the ones a Python script derives from the same runs.
///
/// # Panics
/// Panics on fewer than two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let s = sorted(xs);
    let n = s.len();
    let at = |i: usize| {
        // Position i·(n+1)/4 = j + delta/4 with integer j; delta may be
        // negative or exceed 4 once j is clamped (extrapolation, as in
        // Python).
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// SplitMix64: a tiny, fixed generator so inputs and schedules depend on
/// `--seed` alone and never on a library's generator choice.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (`n > 0`; the modulo bias is below 2⁻⁵⁰ for
    /// the small `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in the open interval `(0, 1)`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// A derived seed: the same `(seed, tag)` always gives the same value,
/// and different tags give unrelated streams.
pub fn derive(seed: u64, tag: u64) -> u64 {
    SplitMix::new(seed ^ tag.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// One scheduled request of an open loop: when it is due, relative to
/// the start of the phase, and which request template it sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time after the phase starts.
    pub due: Duration,
    /// Index of the request template.
    pub template: usize,
}

/// A seeded Poisson arrival schedule at `rate` per second over `span`,
/// each arrival drawing one of `templates` uniformly. Due times are whole
/// nanoseconds, so the schedule is bit-identical for a given seed.
///
/// # Panics
/// Panics if `rate` is not positive or `templates` is 0.
pub fn open_loop_schedule(seed: u64, rate: f64, span: Duration, templates: usize) -> Vec<Arrival> {
    assert!(rate > 0.0 && templates > 0);
    let mut rng = SplitMix::new(seed);
    let mut t_ns = 0u64;
    let mut out = Vec::new();
    loop {
        t_ns += (-rng.unit().ln() / rate * 1e9) as u64;
        if t_ns >= span.as_nanos() as u64 {
            return out;
        }
        out.push(Arrival {
            due: Duration::from_nanos(t_ns),
            template: rng.below(templates),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.1), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let five = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&five, 50.0), 3.0);
        assert_eq!(percentile(&five, 41.0), 3.0);
        assert_eq!(percentile(&five, 40.0), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn supported_tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(10), None);
        // 20 samples: p50 leaves 10 beyond, p75 only 5.
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn geomean_of_per_input_medians() {
        let groups = vec![
            vec![1.0, 100.0, 2.0],
            vec![8.0],
            vec![],
            vec![4.0, 4.0, 9.0, 1.0],
        ];
        // medians 2, 8, 4 (the empty group is skipped) → (2·8·4)^(1/3) = 4
        assert!((geomean_of_medians(&groups) - 4.0).abs() < 1e-12);
        // p90s 100, 8, 9 → (100·8·9)^(1/3) = 7200^(1/3)
        let p90 = geomean_of_percentiles(&groups, 90.0);
        assert!((p90 - 7200f64.cbrt()).abs() < 1e-9, "{p90}");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([3, 1, 2, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 4.0, 5.0]), (1.5, 4.5));
    }

    #[test]
    fn open_loop_schedule_is_bit_identical_per_seed() {
        let span = Duration::from_secs(10);
        let a = open_loop_schedule(42, 100.0, span, 56);
        let b = open_loop_schedule(42, 100.0, span, 56);
        assert_eq!(a, b);
        assert_ne!(a, open_loop_schedule(43, 100.0, span, 56));
        // Poisson at 100/s over 10 s: about 1000 arrivals, due times
        // increasing and inside the span, every template reachable.
        assert!((900..1100).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().all(|x| x.due < span && x.template < 56));
        let mut seen = [false; 56];
        a.iter().for_each(|x| seen[x.template] = true);
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        SplitMix::new(7).shuffle(&mut a);
        SplitMix::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
        assert_ne!(derive(1, 2), derive(1, 3));
    }
}
