//! Probability distributions implemented from first principles.
//!
//! Only uniform draws come from [`SimRng`]; the distributions themselves —
//! exponential, normal, log-normal, Zipf, and arbitrary discrete
//! distributions via Vose's alias method — are implemented here so that the
//! workload generator has no external modeling dependencies.
//!
//! The workload-relevant distributions map to the paper as follows:
//! - query inter-arrival gaps: [`Exponential`] (Poisson arrivals, §II-A),
//! - query sizes: [`LogNormal`] clipped to `[10, 1000]` (Fig. 2b heavy tail),
//! - per-table pooling factors: [`Discrete`] (Fig. 2c),
//! - embedding index locality: [`Zipf`] (hot-entry skew, §IV-B).

use crate::rng::SimRng;

/// Types that can draw a sample given a [`SimRng`].
pub trait Distribution {
    /// The sample type.
    type Output;

    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> Self::Output;
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Used for Poisson-process inter-arrival gaps.
///
/// ```
/// use hercules_common::dist::{Distribution, Exponential};
/// use hercules_common::rng::SimRng;
/// let mut rng = SimRng::seed_from(1);
/// let gap = Exponential::with_rate(1000.0).sample(&mut rng); // ~1ms mean
/// assert!(gap >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `lambda` events per unit.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive and finite.
    pub fn with_rate(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "exponential rate must be positive: {lambda}"
        );
        Exponential { lambda }
    }

    /// The distribution mean, `1/lambda`.
    pub fn mean(&self) -> f64 {
        1.0 / self.lambda
    }

    /// A unit-rate draw, `-ln(u)`: [`scale`](Exponential::scale) maps it
    /// to the draw at any rate that `sample` makes from the same `u`.
    pub fn unit(rng: &mut SimRng) -> f64 {
        -rng.uniform_pos().ln()
    }

    /// The draw at this rate that unit-rate draw `unit` stands for.
    pub fn scale(&self, unit: f64) -> f64 {
        unit / self.lambda
    }
}

impl Distribution for Exponential {
    type Output = f64;

    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.scale(Exponential::unit(rng))
    }
}

/// Standard normal (and affine transformed) distribution via Box–Muller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution with mean `mu` and standard deviation
    /// `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is not finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite(), "normal mean must be finite");
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "normal sigma must be non-negative: {sigma}"
        );
        Normal { mu, sigma }
    }

    /// The mean.
    pub fn mean(&self) -> f64 {
        self.mu
    }

    /// The standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sigma
    }
}

impl Distribution for Normal {
    type Output = f64;

    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Box–Muller transform; one draw per sample keeps the generator
        // stateless (we discard the second variate for simplicity).
        let u1 = rng.uniform_pos();
        let u2 = rng.uniform();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mu + self.sigma * z
    }
}

/// Log-normal distribution, the paper's heavy-tail query-size model.
///
/// Parameterized either directly by the underlying normal's `(mu, sigma)` or
/// by a target `(mean, p95)` pair which is more natural when matching the
/// published histogram (Fig. 2b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    norm: Normal,
}

impl LogNormal {
    /// Creates a log-normal whose underlying normal has mean `mu` and
    /// standard deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Normal::new`].
    pub fn new(mu: f64, sigma: f64) -> Self {
        LogNormal {
            norm: Normal::new(mu, sigma),
        }
    }

    /// Creates a log-normal matching a target mean and 95th percentile.
    ///
    /// Solves for `(mu, sigma)` from
    /// `mean = exp(mu + sigma^2 / 2)` and `p95 = exp(mu + 1.6449 sigma)`.
    ///
    /// A log-normal's p95/mean ratio is bounded: it peaks at
    /// `exp(z95^2 / 2) ~= 3.87` (at `sigma = z95`), so targets outside
    /// `1 < p95/mean <= 3.87` are unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if `mean` or `p95` are non-positive, or if the ratio
    /// `p95/mean` lies outside the satisfiable range above.
    pub fn from_mean_p95(mean: f64, p95: f64) -> Self {
        assert!(
            mean > 0.0 && p95 > 0.0,
            "log-normal targets must be positive"
        );
        const Z95: f64 = 1.6448536269514722;
        // ln(p95) - ln(mean) = z*sigma - sigma^2/2  =>  sigma^2/2 - z*sigma + d = 0
        let d = p95.ln() - mean.ln();
        let disc = Z95 * Z95 - 2.0 * d;
        assert!(
            d > 0.0 && disc >= 0.0,
            "no log-normal matches mean={mean}, p95={p95}"
        );
        let sigma = Z95 - disc.sqrt(); // smaller root keeps the tail sane
        let mu = mean.ln() - sigma * sigma / 2.0;
        LogNormal::new(mu, sigma)
    }

    /// The distribution mean `exp(mu + sigma^2/2)`.
    pub fn mean(&self) -> f64 {
        (self.norm.mean() + self.norm.std_dev().powi(2) / 2.0).exp()
    }

    /// The quantile function at probability `p` in `(0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p) && p > 0.0, "p must be in (0,1)");
        (self.norm.mean() + self.norm.std_dev() * inverse_normal_cdf(p)).exp()
    }
}

impl Distribution for LogNormal {
    type Output = f64;

    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.norm.sample(rng).exp()
    }
}

/// Zipf distribution over ranks `1..=n` with skew `s`.
///
/// Sampling uses rejection-inversion (Hörmann & Derflinger), which is O(1)
/// per draw and exact, so billion-row embedding tables are cheap to model.
///
/// ```
/// use hercules_common::dist::{Distribution, Zipf};
/// use hercules_common::rng::SimRng;
/// let mut rng = SimRng::seed_from(5);
/// let z = Zipf::new(1_000_000, 0.9);
/// let rank = z.sample(&mut rng);
/// assert!((1..=1_000_000).contains(&rank));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zipf {
    n: u64,
    s: f64,
    // Precomputed constants for rejection-inversion.
    h_x1: f64,
    h_n: f64,
    // Early-accept threshold: accept k when k - x <= threshold, the region
    // where the hat provably lies under the pmf (Hörmann & Derflinger's
    // `s` constant).
    threshold: f64,
}

impl Zipf {
    /// Creates a Zipf distribution over `1..=n` with exponent `s > 0`,
    /// `s != 1` handled uniformly via the generalized harmonic integral.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is not strictly positive and finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "zipf support must be non-empty");
        assert!(s.is_finite() && s > 0.0, "zipf exponent must be positive");
        let h = |x: f64| -> f64 {
            // H(x) = integral of x^-s; the antiderivative used by
            // rejection-inversion, with the s == 1 limit -> ln(x).
            if (s - 1.0).abs() < 1e-12 {
                x.ln()
            } else {
                (x.powf(1.0 - s) - 1.0) / (1.0 - s)
            }
        };
        let h_inv = |x: f64| -> f64 {
            if (s - 1.0).abs() < 1e-12 {
                x.exp()
            } else {
                (1.0 + x * (1.0 - s)).powf(1.0 / (1.0 - s))
            }
        };
        let h_x1 = h(1.5) - 1.0;
        let h_n = h(n as f64 + 0.5);
        let threshold = 1.0 - h_inv(h(1.5) - 1.0);
        Zipf {
            n,
            s,
            h_x1,
            h_n,
            threshold,
        }
    }

    fn h(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            x.ln()
        } else {
            (x.powf(1.0 - self.s) - 1.0) / (1.0 - self.s)
        }
    }

    fn h_inv(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            x.exp()
        } else {
            (1.0 + x * (1.0 - self.s)).powf(1.0 / (1.0 - self.s))
        }
    }

    /// Fraction of probability mass held by the top `k` ranks (approximate,
    /// via the harmonic integral). Used by the locality-aware partitioner to
    /// size hot embedding tables.
    pub fn mass_of_top(&self, k: u64) -> f64 {
        if k >= self.n {
            return 1.0;
        }
        let num = self.h(k as f64 + 0.5) - self.h(0.5);
        let den = self.h(self.n as f64 + 0.5) - self.h(0.5);
        (num / den).clamp(0.0, 1.0)
    }
}

impl Distribution for Zipf {
    type Output = u64;

    fn sample(&self, rng: &mut SimRng) -> u64 {
        // Rejection-inversion sampling.
        loop {
            let u = self.h_x1 + rng.uniform() * (self.h_n - self.h_x1);
            let x = self.h_inv(u);
            let k = (x + 0.5).floor().max(1.0).min(self.n as f64) as u64;
            let k_f = k as f64;
            // Early accept only inside the region where the hat provably
            // sits under the pmf; |k - x| <= 0.5 would accept every
            // unclamped draw and degenerate to biased hat-inversion.
            if k_f - x <= self.threshold {
                return k;
            }
            // Hormann-Derflinger acceptance: the hat integral over
            // [k-0.5, k+0.5] is h(k+0.5) - h(k-0.5); accept when u falls
            // within the true pmf mass k^-s measured down from h(k+0.5).
            if u >= self.h(k_f + 0.5) - k_f.powf(-self.s) {
                return k;
            }
        }
    }
}

/// Discrete distribution over arbitrary items via Vose's alias method.
///
/// O(n) construction, O(1) sampling — used for per-table pooling-factor
/// distributions (Fig. 2c) where the support is a handful of factor buckets.
///
/// ```
/// use hercules_common::dist::{Discrete, Distribution};
/// use hercules_common::rng::SimRng;
/// let d = Discrete::new(vec![(20u32, 0.5), (80, 0.3), (160, 0.2)]).unwrap();
/// let mut rng = SimRng::seed_from(11);
/// let x = d.sample(&mut rng);
/// assert!([20, 80, 160].contains(&x));
/// ```
#[derive(Debug, Clone)]
pub struct Discrete<T> {
    items: Vec<T>,
    prob: Vec<f64>,
    alias: Vec<usize>,
}

/// Error building a [`Discrete`] distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildDiscreteError {
    /// The item list was empty.
    Empty,
    /// A weight was negative, NaN, or infinite.
    InvalidWeight,
    /// All weights were zero.
    ZeroMass,
}

impl std::fmt::Display for BuildDiscreteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildDiscreteError::Empty => write!(f, "discrete distribution needs items"),
            BuildDiscreteError::InvalidWeight => write!(f, "weights must be finite and >= 0"),
            BuildDiscreteError::ZeroMass => write!(f, "total weight must be positive"),
        }
    }
}

impl std::error::Error for BuildDiscreteError {}

impl<T: Clone> Discrete<T> {
    /// Builds the alias table from `(item, weight)` pairs.
    ///
    /// # Errors
    ///
    /// Returns an error if the list is empty, any weight is invalid, or the
    /// total mass is zero.
    pub fn new(weighted: Vec<(T, f64)>) -> Result<Self, BuildDiscreteError> {
        if weighted.is_empty() {
            return Err(BuildDiscreteError::Empty);
        }
        if weighted.iter().any(|(_, w)| !w.is_finite() || *w < 0.0) {
            return Err(BuildDiscreteError::InvalidWeight);
        }
        let total: f64 = weighted.iter().map(|(_, w)| w).sum();
        if total <= 0.0 {
            return Err(BuildDiscreteError::ZeroMass);
        }
        let n = weighted.len();
        let items: Vec<T> = weighted.iter().map(|(t, _)| t.clone()).collect();
        let scaled: Vec<f64> = weighted.iter().map(|(_, w)| w / total * n as f64).collect();

        let mut prob = vec![0.0; n];
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        let mut scaled = scaled;
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for l in large {
            prob[l] = 1.0;
        }
        for s in small {
            prob[s] = 1.0;
        }
        Ok(Discrete { items, prob, alias })
    }

    /// The support (the distinct items, construction order preserved).
    pub fn items(&self) -> &[T] {
        &self.items
    }
}

impl<T: Clone> Distribution for Discrete<T> {
    type Output = T;

    fn sample(&self, rng: &mut SimRng) -> T {
        let i = rng.index(self.items.len());
        if rng.uniform() < self.prob[i] {
            self.items[i].clone()
        } else {
            self.items[self.alias[i]].clone()
        }
    }
}

/// Acklam's rational approximation of the inverse standard-normal CDF.
///
/// Absolute error below 1.15e-9 over the full domain — more than enough for
/// quantile targets of synthetic workloads.
///
/// # Panics
///
/// Panics if `p` is not in the open interval `(0, 1)`.
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "p must be in (0,1): {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(samples: &[f64]) -> f64 {
        samples.iter().sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::seed_from(10);
        let d = Exponential::with_rate(0.5);
        let samples: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        let m = mean_of(&samples);
        assert!((m - 2.0).abs() < 0.05, "mean {m} != 2.0");
        assert!(samples.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn normal_moments_converge() {
        let mut rng = SimRng::seed_from(11);
        let d = Normal::new(5.0, 2.0);
        let samples: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        let m = mean_of(&samples);
        let var = samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!((m - 5.0).abs() < 0.05, "mean {m}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn lognormal_from_mean_p95_hits_targets() {
        let d = LogNormal::from_mean_p95(120.0, 400.0);
        assert!((d.mean() - 120.0).abs() < 1e-6);
        assert!((d.quantile(0.95) - 400.0).abs() / 400.0 < 1e-6);

        let mut rng = SimRng::seed_from(12);
        let samples: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        let m = mean_of(&samples);
        assert!((m - 120.0).abs() / 120.0 < 0.03, "sampled mean {m}");
        let mut s = samples.clone();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p95 = s[(0.95 * s.len() as f64) as usize];
        assert!((p95 - 400.0).abs() / 400.0 < 0.05, "sampled p95 {p95}");
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let mut rng = SimRng::seed_from(14);
        let d = Zipf::new(10_000, 1.0);
        let mut top10 = 0usize;
        let n = 50_000;
        for _ in 0..n {
            let r = d.sample(&mut rng);
            assert!((1..=10_000).contains(&r));
            if r <= 10 {
                top10 += 1;
            }
        }
        // For s=1, P(rank <= 10) ~= H(10)/H(10000) ~= 2.93/9.79 ~= 0.30.
        let frac = top10 as f64 / n as f64;
        assert!((frac - 0.30).abs() < 0.03, "top-10 mass {frac}");
    }

    #[test]
    fn zipf_mass_of_top_monotone() {
        let d = Zipf::new(1_000_000, 0.8);
        let mut last = 0.0;
        for k in [1u64, 10, 100, 1_000, 10_000, 1_000_000] {
            let m = d.mass_of_top(k);
            assert!(m >= last, "mass not monotone at {k}");
            last = m;
        }
        assert!((d.mass_of_top(1_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn discrete_frequencies_match_weights() {
        let d = Discrete::new(vec![("a", 0.7), ("b", 0.2), ("c", 0.1)]).unwrap();
        let mut rng = SimRng::seed_from(15);
        let mut counts = [0usize; 3];
        let n = 100_000;
        for _ in 0..n {
            match d.sample(&mut rng) {
                "a" => counts[0] += 1,
                "b" => counts[1] += 1,
                _ => counts[2] += 1,
            }
        }
        assert!((counts[0] as f64 / n as f64 - 0.7).abs() < 0.01);
        assert!((counts[1] as f64 / n as f64 - 0.2).abs() < 0.01);
        assert!((counts[2] as f64 / n as f64 - 0.1).abs() < 0.01);
    }

    #[test]
    fn discrete_rejects_bad_input() {
        assert_eq!(
            Discrete::<u8>::new(vec![]).unwrap_err(),
            BuildDiscreteError::Empty
        );
        assert_eq!(
            Discrete::new(vec![(1u8, -0.5)]).unwrap_err(),
            BuildDiscreteError::InvalidWeight
        );
        assert_eq!(
            Discrete::new(vec![(1u8, 0.0)]).unwrap_err(),
            BuildDiscreteError::ZeroMass
        );
    }

    #[test]
    fn inverse_normal_cdf_known_values() {
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-5);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-5);
        assert!((inverse_normal_cdf(0.95) - 1.644854).abs() < 1e-5);
    }
}
