//! Diurnal load patterns (paper Fig. 2d, Fig. 8b).
//!
//! User-facing recommendation services see synchronized day-scale load
//! swings with >50% peak-to-valley fluctuation; the cluster provisioner
//! re-solves its allocation each interval against these curves. The
//! generator is a smooth base shape (fundamental + second harmonic of a
//! 24-hour period) plus optional seeded noise, so experiments are
//! deterministic.

use hercules_common::rng::SimRng;
use hercules_common::stats::TimeSeries;
use hercules_common::units::Qps;

/// A deterministic diurnal load curve.
///
/// ```
/// use hercules_workload::diurnal::DiurnalPattern;
/// use hercules_common::units::Qps;
///
/// let p = DiurnalPattern::service_a(Qps(50_000.0));
/// let peak = p.load_at_hours(p.peak_hour());
/// let valley = p.load_at_hours(p.peak_hour() + 12.0);
/// assert!(valley.value() < 0.6 * peak.value()); // >50% fluctuation
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalPattern {
    peak: Qps,
    /// Valley load as a fraction of peak.
    valley_fraction: f64,
    /// Hour of day (0..24) at which load peaks.
    peak_hour: f64,
    /// Relative amplitude of the second harmonic (shapes the shoulders).
    second_harmonic: f64,
}

impl DiurnalPattern {
    /// Creates a pattern peaking at `peak` QPS.
    ///
    /// # Panics
    ///
    /// Panics if `valley_fraction` is outside `(0, 1]` or `peak` is not
    /// positive.
    pub fn new(peak: Qps, valley_fraction: f64, peak_hour: f64, second_harmonic: f64) -> Self {
        assert!(peak.value() > 0.0, "peak must be positive");
        assert!(
            valley_fraction > 0.0 && valley_fraction <= 1.0,
            "valley fraction must be in (0,1]"
        );
        DiurnalPattern {
            peak,
            valley_fraction,
            peak_hour: peak_hour.rem_euclid(24.0),
            second_harmonic,
        }
    }

    /// The paper's "service A" shape: afternoon peak, 40% valley.
    pub fn service_a(peak: Qps) -> Self {
        DiurnalPattern::new(peak, 0.40, 14.0, 0.12)
    }

    /// The paper's "service B" shape: synchronous with service A
    /// (peaks within an hour), slightly deeper valley.
    pub fn service_b(peak: Qps) -> Self {
        DiurnalPattern::new(peak, 0.35, 15.0, 0.18)
    }

    /// Hour of day at which the load peaks.
    pub fn peak_hour(&self) -> f64 {
        self.peak_hour
    }

    /// Load at `t` hours since midnight of day 0 (wraps over days).
    pub fn load_at_hours(&self, t_hours: f64) -> Qps {
        let phase = (t_hours - self.peak_hour) / 24.0 * std::f64::consts::TAU;
        // Fundamental peaks at phase 0; second harmonic sharpens the peak.
        let wave = (phase.cos() + self.second_harmonic * (2.0 * phase).cos())
            / (1.0 + self.second_harmonic);
        let shape = 0.5 + 0.5 * wave; // in [~0, 1], max at peak hour
        let frac = self.valley_fraction + (1.0 - self.valley_fraction) * shape;
        Qps(self.peak.value() * frac)
    }

    /// Samples `days` days at `interval_minutes` granularity (the cluster
    /// re-provisioning cadence), with multiplicative noise of magnitude
    /// `noise` (e.g. 0.03 for ±3%).
    ///
    /// Returns a [`TimeSeries`] of `(seconds, qps)`.
    ///
    /// # Panics
    ///
    /// Panics if `interval_minutes == 0` or `days == 0`.
    pub fn sample(&self, days: u32, interval_minutes: u32, noise: f64, seed: u64) -> TimeSeries {
        assert!(interval_minutes > 0, "interval must be positive");
        assert!(days > 0, "need at least one day");
        let mut rng = SimRng::seed_from(seed);
        let steps = days * 24 * 60 / interval_minutes;
        let mut ts = TimeSeries::new();
        for i in 0..steps {
            let minutes = (i * interval_minutes) as f64;
            let hours = minutes / 60.0;
            let base = self.load_at_hours(hours).value();
            let jitter = 1.0 + noise * (2.0 * rng.uniform() - 1.0);
            ts.push(minutes * 60.0, (base * jitter).max(0.0));
        }
        ts
    }
}

/// The Fig. 8b scenario: DLRM-RMC1 and RMC2 services, each peaking at
/// 50K QPS with synchronous diurnal shapes.
pub fn figure_8_loads() -> (DiurnalPattern, DiurnalPattern) {
    (
        DiurnalPattern::service_a(Qps(50_000.0)),
        DiurnalPattern::service_b(Qps(50_000.0)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_at_peak_hour() {
        let p = DiurnalPattern::service_a(Qps(50_000.0));
        let at_peak = p.load_at_hours(14.0).value();
        for h in [0, 4, 8, 20, 23] {
            assert!(p.load_at_hours(h as f64).value() <= at_peak + 1e-9);
        }
        assert!((at_peak - 50_000.0).abs() / 50_000.0 < 1e-9);
    }

    #[test]
    fn fluctuation_exceeds_50_percent() {
        // Paper: ">50% fluctuation from the aggregated loads between peak
        // and off-peak times".
        let (a, b) = figure_8_loads();
        let agg = |h: f64| a.load_at_hours(h).value() + b.load_at_hours(h).value();
        let peak = (0..96).map(|i| agg(i as f64 / 4.0)).fold(0.0, f64::max);
        let valley = (0..96)
            .map(|i| agg(i as f64 / 4.0))
            .fold(f64::INFINITY, f64::min);
        assert!(
            (peak - valley) / peak > 0.5,
            "fluctuation {}",
            (peak - valley) / peak
        );
    }

    #[test]
    fn services_are_synchronous() {
        let (a, b) = figure_8_loads();
        assert!((a.peak_hour() - b.peak_hour()).abs() <= 1.0);
    }

    #[test]
    fn wraps_over_days() {
        let p = DiurnalPattern::service_a(Qps(1_000.0));
        let h0 = p.load_at_hours(3.0).value();
        let h48 = p.load_at_hours(51.0).value();
        assert!((h0 - h48).abs() < 1e-9);
    }

    #[test]
    fn sampling_is_deterministic_and_covers_days() {
        let p = DiurnalPattern::service_b(Qps(10_000.0));
        let s1 = p.sample(2, 30, 0.03, 42);
        let s2 = p.sample(2, 30, 0.03, 42);
        assert_eq!(s1.points(), s2.points());
        assert_eq!(s1.len(), 2 * 48);
        // Peak of the sampled trace is near the configured peak.
        let peak = s1.peak().unwrap();
        assert!((peak - 10_000.0).abs() / 10_000.0 < 0.08, "peak {peak}");
    }

    #[test]
    fn noise_free_sampling_matches_curve() {
        let p = DiurnalPattern::service_a(Qps(5_000.0));
        let s = p.sample(1, 60, 0.0, 1);
        for &(t, v) in s.points() {
            let expect = p.load_at_hours(t / 3600.0).value();
            assert!((v - expect).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "valley fraction")]
    fn invalid_valley_rejected() {
        let _ = DiurnalPattern::new(Qps(1.0), 0.0, 12.0, 0.1);
    }
}
