//! Latency statistics: means and Student-t 95% confidence intervals,
//! as plotted on every figure of the paper, plus a deterministic
//! sample [`Reservoir`] that bounds what long runs retain.

use neko::splitmix64;

/// Two-sided 95% t-quantiles for `df = 1..=30`; the normal quantile is
/// used beyond.
const T_95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

fn t95(df: usize) -> f64 {
    if df == 0 {
        f64::INFINITY
    } else if df <= 30 {
        T_95[df - 1]
    } else {
        1.96
    }
}

/// Sample mean with a 95% confidence interval, plus exact percentiles
/// from the retained samples.
///
/// ```
/// use study::Summary;
///
/// let s = Summary::from_samples(&[10.0, 12.0, 11.0, 13.0]);
/// assert_eq!(s.mean(), 11.5);
/// assert!(s.ci95() > 0.0);
/// assert_eq!(s.len(), 4);
/// assert_eq!(s.p50(), Some(11.0));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    mean: f64,
    var: f64,
    n: usize,
    /// The samples, sorted ascending — `None` when built from a
    /// streaming accumulator that retained nothing.
    sorted: Option<Box<[f64]>>,
}

impl Summary {
    /// Summarises `samples` (mean, unbiased variance) and retains a
    /// sorted copy for exact percentiles.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarise zero samples");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted: Box<[f64]> = samples.into();
        sorted.sort_by(f64::total_cmp);
        Summary {
            mean,
            var,
            n,
            sorted: Some(sorted),
        }
    }

    /// The sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The unbiased sample variance.
    pub fn variance(&self) -> f64 {
        self.var
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: a `Summary` is built from at least one sample.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Half-width of the 95% confidence interval of the mean
    /// (Student-t; infinite for a single sample).
    pub fn ci95(&self) -> f64 {
        if self.n < 2 {
            return f64::INFINITY;
        }
        t95(self.n - 1) * (self.var / self.n as f64).sqrt()
    }

    /// The exact `p`-th percentile (nearest-rank over the retained
    /// samples), or `None` when the summary was built from a
    /// streaming accumulator that kept no samples.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p <= 100`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
        let sorted = self.sorted.as_ref()?;
        let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, sorted.len()) - 1])
    }

    /// The median (see [`Summary::percentile`]).
    pub fn p50(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// The 95th percentile (see [`Summary::percentile`]).
    pub fn p95(&self) -> Option<f64> {
        self.percentile(95.0)
    }

    /// The 99th percentile (see [`Summary::percentile`]).
    pub fn p99(&self) -> Option<f64> {
        self.percentile(99.0)
    }
}

/// A bounded, deterministic sample reservoir (Vitter's Algorithm R
/// over a seeded `splitmix64` stream).
///
/// Up to `cap` samples every push is retained verbatim, so
/// percentiles computed from [`Reservoir::samples`] are **exact**.
/// Beyond the cap, the `i`-th sample replaces a uniformly chosen slot
/// with probability `cap / i`, keeping the content a uniform random
/// subsample of the whole stream: nearest-rank percentiles become
/// unbiased **estimates** whose error shrinks like `1 / √cap`. The
/// slot index is drawn with Lemire's multiply–shift reduction plus
/// rejection, so the draw is exactly uniform over `0..i` — a plain
/// `% i` would over-select small indices whenever `i` is not a power
/// of two, biasing the subsample toward early slots. The replacement
/// choices depend only on the seed and the number of samples seen —
/// never on threads or timing — so any run is bit-reproducible.
///
/// ```
/// use study::Reservoir;
///
/// let mut r = Reservoir::new(4, 7);
/// for x in 0..3 {
///     r.push(x as f64);
/// }
/// assert!(r.is_exact());
/// assert_eq!(r.samples(), &[0.0, 1.0, 2.0]);
/// for x in 3..1000 {
///     r.push(x as f64);
/// }
/// assert!(!r.is_exact());
/// assert_eq!(r.samples().len(), 4);
/// assert_eq!(r.seen(), 1000);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    state: u64,
    samples: Vec<f64>,
}

impl Reservoir {
    /// An empty reservoir holding at most `cap` samples, with the
    /// replacement stream seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize, seed: u64) -> Self {
        assert!(cap > 0, "a reservoir must hold at least one sample");
        Reservoir {
            cap,
            seen: 0,
            state: seed,
            samples: Vec::new(),
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(x);
        } else {
            let j = uniform_below(&mut self.state, self.seen);
            if (j as usize) < self.cap {
                self.samples[j as usize] = x;
            }
        }
    }

    /// How many observations were pushed (retained or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// `true` while every pushed observation is still retained
    /// (percentiles over [`samples`](Self::samples) are exact).
    pub fn is_exact(&self) -> bool {
        self.seen <= self.cap as u64
    }

    /// The retained samples: the full stream in push order while
    /// [`is_exact`](Self::is_exact), a uniform subsample after.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Consumes the reservoir, returning the retained samples.
    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }
}

/// An unbiased draw from `0..bound` off the `splitmix64` stream
/// (Lemire's multiply–shift reduction with rejection). Consumes a
/// deterministic number of stream values for a given state sequence,
/// so reservoir runs stay bit-reproducible.
fn uniform_below(state: &mut u64, bound: u64) -> u64 {
    debug_assert!(bound > 0, "empty draw range");
    // 2^64 mod bound: draws whose low product half falls below this
    // land in the truncated final bucket and must be rejected.
    let threshold = bound.wrapping_neg() % bound;
    loop {
        let m = u128::from(splitmix64(state)) * u128::from(bound);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

/// Welford online accumulator, for latency streams too large to keep.
///
/// ```
/// use study::Running;
///
/// let mut r = Running::new();
/// for x in [1.0, 2.0, 3.0] {
///     r.push(x);
/// }
/// assert_eq!(r.mean(), 2.0);
/// assert_eq!(r.len(), 3);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// An empty accumulator.
    pub fn new() -> Self {
        Running {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// `true` before the first observation.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n > 1 {
            self.m2 / (self.n - 1) as f64
        } else {
            0.0
        }
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Converts to a [`Summary`]. The stream was not retained, so the
    /// summary has no percentiles.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn summary(&self) -> Summary {
        assert!(self.n > 0, "cannot summarise zero samples");
        Summary {
            mean: self.mean,
            var: self.variance(),
            n: self.n as usize,
            sorted: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_hand_computation() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn ci_widens_with_variance_and_narrows_with_n() {
        let tight = Summary::from_samples(&[10.0, 10.1, 9.9, 10.0]);
        let loose = Summary::from_samples(&[5.0, 15.0, 2.0, 18.0]);
        assert!(tight.ci95() < loose.ci95());

        let few = Summary::from_samples(&[1.0, 2.0, 3.0]);
        let many: Vec<f64> = (0..300).map(|i| 1.0 + (i % 3) as f64).collect();
        let many = Summary::from_samples(&many);
        assert!(many.ci95() < few.ci95());
    }

    #[test]
    fn single_sample_has_infinite_ci() {
        let s = Summary::from_samples(&[42.0]);
        assert_eq!(s.mean(), 42.0);
        assert!(s.ci95().is_infinite());
    }

    #[test]
    fn t_table_boundaries() {
        assert_eq!(t95(1), 12.706);
        assert_eq!(t95(30), 2.042);
        assert_eq!(t95(31), 1.96);
        assert!(t95(0).is_infinite());
    }

    #[test]
    fn running_agrees_with_summary() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.7).sin() * 10.0).collect();
        let mut r = Running::new();
        for &x in &xs {
            r.push(x);
        }
        let s = Summary::from_samples(&xs);
        assert!((r.mean() - s.mean()).abs() < 1e-9);
        assert!((r.variance() - s.variance()).abs() < 1e-9);
        assert_eq!(r.len(), 1000);
        assert!(r.min() <= r.mean() && r.mean() <= r.max());
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_summary_panics() {
        let _ = Summary::from_samples(&[]);
    }

    #[test]
    fn percentiles_use_nearest_rank_on_sorted_samples() {
        // 100 samples in scrambled order: the k-th percentile is k.
        let xs: Vec<f64> = (1..=100).rev().map(|i| i as f64).collect();
        let s = Summary::from_samples(&xs);
        assert_eq!(s.p50(), Some(50.0));
        assert_eq!(s.p95(), Some(95.0));
        assert_eq!(s.p99(), Some(99.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.percentile(0.5), Some(1.0));

        let one = Summary::from_samples(&[42.0]);
        assert_eq!(one.p50(), Some(42.0));
        assert_eq!(one.p99(), Some(42.0));
    }

    #[test]
    fn percentiles_of_odd_counts() {
        let s = Summary::from_samples(&[3.0, 1.0, 2.0]);
        assert_eq!(s.p50(), Some(2.0)); // ceil(0.5 * 3) = 2nd
        assert_eq!(s.p95(), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn zeroth_percentile_rejected() {
        let _ = Summary::from_samples(&[1.0]).percentile(0.0);
    }

    #[test]
    fn reservoir_is_exact_below_cap_and_bounded_above() {
        let mut r = Reservoir::new(8, 3);
        for x in 0..8 {
            r.push(x as f64);
        }
        assert!(r.is_exact());
        assert_eq!(r.samples(), (0..8).map(|x| x as f64).collect::<Vec<_>>());
        for x in 8..10_000 {
            r.push(x as f64);
        }
        assert!(!r.is_exact());
        assert_eq!(r.samples().len(), 8);
        assert_eq!(r.seen(), 10_000);
        // Every retained sample came from the stream.
        assert!(r.samples().iter().all(|&x| (0.0..10_000.0).contains(&x)));
    }

    #[test]
    fn reservoir_is_deterministic_in_the_seed() {
        let fill = |seed: u64| {
            let mut r = Reservoir::new(16, seed);
            for x in 0..5_000 {
                r.push((x as f64).sin());
            }
            r.into_samples()
        };
        assert_eq!(fill(42), fill(42));
        assert_ne!(fill(42), fill(43));
    }

    #[test]
    fn reservoir_subsample_tracks_the_distribution() {
        // Uniform stream 0..100_000: the retained sample's median must
        // land near the true median.
        let mut r = Reservoir::new(4_096, 9);
        for x in 0..100_000u64 {
            r.push(x as f64);
        }
        let s = Summary::from_samples(r.samples());
        let p50 = s.p50().unwrap();
        assert!(
            (p50 - 50_000.0).abs() < 5_000.0,
            "estimated median {p50} too far from 50000"
        );
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_capacity_reservoir_panics() {
        let _ = Reservoir::new(0, 1);
    }

    #[test]
    fn uniform_below_is_unbiased_for_awkward_bounds() {
        // bound = 3: a plain `% 3` of a 64-bit draw over-selects
        // {0, 1} by one part in 2^63 — invisible to a frequency test —
        // but a *truncated* 3-bit stand-in makes the bias gross. Here
        // we check the real thing statistically: 30 000 draws, each
        // bucket within 3σ of the uniform expectation.
        let mut state = 0xD5;
        let mut counts = [0u64; 3];
        let draws = 30_000;
        for _ in 0..draws {
            counts[uniform_below(&mut state, 3) as usize] += 1;
        }
        let expect = draws as f64 / 3.0;
        let sigma = (expect * (1.0 - 1.0 / 3.0)).sqrt();
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 3.0 * sigma,
                "bucket {i}: {c} vs expected {expect}"
            );
        }
    }

    #[test]
    fn uniform_below_stays_in_range_and_deterministic() {
        for bound in [1u64, 2, 3, 5, 65_537, u64::MAX] {
            let mut a = 42;
            let mut b = 42;
            for _ in 0..100 {
                let x = uniform_below(&mut a, bound);
                assert!(x < bound);
                assert_eq!(x, uniform_below(&mut b, bound));
            }
        }
    }

    #[test]
    fn streamed_summary_has_no_percentiles() {
        let mut r = Running::new();
        r.push(1.0);
        r.push(2.0);
        let s = r.summary();
        assert_eq!(s.p50(), None);
        assert_eq!(s.mean(), 1.5);
    }
}
