//! Property tests for the statistics and distribution substrate.

use proptest::prelude::*;

use hercules_common::dist::{inverse_normal_cdf, Discrete, Distribution, Exponential, LogNormal};
use hercules_common::rng::SimRng;
use hercules_common::stats::PercentileTracker;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Percentile tracker quantiles are monotone in p and bounded by the
    /// sample extremes.
    #[test]
    fn quantiles_monotone(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut t = PercentileTracker::new();
        for &s in &samples {
            t.record(s);
        }
        let q25 = t.quantile(0.25).unwrap();
        let q50 = t.quantile(0.50).unwrap();
        let q95 = t.quantile(0.95).unwrap();
        prop_assert!(q25 <= q50 && q50 <= q95);
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(t.quantile(0.0).unwrap() >= min - 1e-12);
        prop_assert!(t.quantile(1.0).unwrap() <= max + 1e-12);
    }

    /// Exponential samples are non-negative; their mean tracks 1/lambda.
    #[test]
    fn exponential_positive(rate in 0.1f64..1e4, seed in 0u64..1000) {
        let d = Exponential::with_rate(rate);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..100 {
            prop_assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    /// Log-normal mean/p95 parameterization round-trips for sane targets.
    #[test]
    fn lognormal_roundtrip(mean in 10.0f64..500.0, ratio in 1.5f64..3.5) {
        let p95 = mean * ratio;
        let d = LogNormal::from_mean_p95(mean, p95);
        prop_assert!((d.mean() - mean).abs() / mean < 1e-9);
        prop_assert!((d.quantile(0.95) - p95).abs() / p95 < 1e-6);
    }

    /// Inverse normal CDF is strictly increasing.
    #[test]
    fn inverse_cdf_monotone(p1 in 0.001f64..0.999, p2 in 0.001f64..0.999) {
        prop_assume!((p1 - p2).abs() > 1e-6);
        let (lo, hi) = if p1 < p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(inverse_normal_cdf(lo) < inverse_normal_cdf(hi));
    }

    /// Alias-method sampling only ever returns items from the support.
    #[test]
    fn discrete_support_closed(
        weights in prop::collection::vec(0.01f64..10.0, 1..12),
        seed in 0u64..1000,
    ) {
        let items: Vec<usize> = (0..weights.len()).collect();
        let weighted: Vec<(usize, f64)> = items.iter().cloned().zip(weights).collect();
        let d = Discrete::new(weighted).unwrap();
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..200 {
            prop_assert!(d.sample(&mut rng) < items.len());
        }
    }
}
