//! The benchmark's own arithmetic: medians, the percentile sample rule,
//! failure shares and geometric means.

/// Median of `xs`: the middle value, or the mean of the middle two. `None`
/// for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Samples that lie beyond the `pct`-th percentile of `n` samples
/// (integer arithmetic, so 1000 samples leave exactly 10 beyond p99).
pub fn samples_beyond(n: u64, pct: u32) -> u64 {
    n * u64::from(100 - pct.min(100)) / 100
}

/// Whether `n` samples support reporting the `pct`-th percentile: at
/// least ten samples must lie beyond it.
pub fn supports_percentile(n: u64, pct: u32) -> bool {
    samples_beyond(n, pct) >= 10
}

/// Share of attempted operations that failed (`attempted` is at least 1 in
/// every run the benchmark reports).
pub fn failure_share(failed: u64, attempted: u64) -> f64 {
    failed as f64 / attempted.max(1) as f64
}

/// Geometric mean of strictly positive values; `None` when the slice is
/// empty or any value is not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return None;
    }
    let mean_ln = xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64;
    Some(mean_ln.exp())
}

/// Whether a timed phase of repeats has spent its `budget` seconds: one
/// more repeat of the median length would end further past the budget
/// than stopping now falls short of it.
pub fn budget_spent(elapsed: f64, reps: &[f64], budget: f64) -> bool {
    elapsed + median(reps).unwrap_or(0.0) / 2.0 >= budget
}

/// Nearest-rank quantile `q` in `[0, 1]` of `xs`; `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_beyond(1000, 99), 10);
        assert!(supports_percentile(1000, 99));
        assert!(!supports_percentile(999, 99));
        assert!(supports_percentile(20, 50));
        assert!(!supports_percentile(19, 50));
        assert_eq!(samples_beyond(5, 100), 0);
    }

    #[test]
    fn failure_share_counts_against_attempts() {
        assert_eq!(failure_share(0, 40), 0.0);
        assert_eq!(failure_share(10, 40), 0.25);
        assert_eq!(failure_share(0, 0), 0.0);
    }

    #[test]
    fn geomean_of_search_rates() {
        let g = geomean(&[100.0, 400.0]).unwrap();
        assert!((g - 200.0).abs() < 1e-9);
        let g = geomean(&[2.0, 8.0, 4.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn repeats_stop_nearest_the_budget() {
        // 9.5 s repeats in a 20 s budget: a third would overshoot more
        // than two fall short.
        assert!(!budget_spent(9.5, &[9.5], 20.0));
        assert!(budget_spent(19.0, &[9.5, 9.5], 20.0));
        assert!(!budget_spent(16.0, &[4.0; 4], 20.0));
        assert!(budget_spent(20.0, &[4.0; 5], 20.0));
    }

    #[test]
    fn nearest_rank_quantile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(50.0));
        assert_eq!(quantile(&xs, 0.99), Some(99.0));
        assert_eq!(quantile(&xs, 1.0), Some(100.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
    }
}
