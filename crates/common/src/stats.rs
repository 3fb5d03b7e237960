//! Statistics for simulation metrics.
//!
//! The simulator reports tail latency (p95/p99), mean throughput, utilization,
//! and power. [`PercentileTracker`] keeps samples for exact quantiles,
//! [`LatencyHistogram`] keeps mergeable log-bucket latency counts (and
//! [`WindowQuantiles`] reads the quantiles of a window of them),
//! [`Histogram`] provides log-spaced buckets for printing paper-style
//! distributions, and [`TimeSeries`] holds load and power curves.

use std::ops::Range;

/// Exact-quantile tracker: every sample is retained.
#[derive(Debug, Clone)]
pub struct PercentileTracker {
    samples: Vec<f64>,
    sorted: bool,
}

impl PercentileTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        PercentileTracker {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Total number of observations recorded.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `p`-quantile (`p` in `[0, 1]`) using nearest-rank; `None` if
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&mut self, p: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&p), "quantile p out of range: {p}");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
            self.sorted = true;
        }
        let n = self.samples.len();
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        Some(self.samples[idx])
    }

    /// Convenience: the 50th percentile.
    pub fn p50(&mut self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// Convenience: the 95th percentile.
    pub fn p95(&mut self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// Convenience: the 99th percentile.
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Mean of the samples, summed in recording order until a quantile
    /// sorts them.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }
}

impl Default for PercentileTracker {
    fn default() -> Self {
        PercentileTracker::new()
    }
}

/// A mergeable fixed-bucket log-scale latency histogram.
///
/// Built for cross-thread aggregation: every worker records into its own
/// histogram with **no allocation on the record path** (buckets are sized at
/// construction), and per-worker histograms [`merge`](LatencyHistogram::merge)
/// into one population afterwards. Unlike [`PercentileTracker`], whose
/// memory grows with every sample, it has a fixed size, and bucket counts
/// merge exactly: a merged histogram's counts, quantiles, and extrema are
/// bit-identical to one that saw every observation directly, in any merge
/// order. (The running `sum` behind [`mean`](LatencyHistogram::mean)
/// commutes pairwise but, like any float accumulation, is not associative
/// across 3+ merges.)
///
/// Buckets are geometric: bucket `i` spans `[lo * ratio^i, lo * ratio^(i+1))`.
/// Values below `lo` clamp into bucket 0 and values past `hi` land in a
/// final overflow bucket, so a quantile is always within one bucket (a
/// relative error of `ratio`) of the exact order statistic. The default
/// latency range (500 ns – 1000 s, 1024 buckets) keeps that error under
/// ~2.1%.
///
/// ```
/// use hercules_common::stats::LatencyHistogram;
/// let mut a = LatencyHistogram::default_latency();
/// let mut b = LatencyHistogram::default_latency();
/// a.record(1e-3);
/// b.record(2e-3);
/// a.merge(&b);
/// assert_eq!(a.count(), 2);
/// assert!(a.quantile(1.0).unwrap() <= 2e-3 * 1.03);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    lo: f64,
    /// Precomputed `1 / ln(ratio)` so the record path is one `ln` + one
    /// multiply.
    inv_ln_ratio: f64,
    ratio: f64,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl LatencyHistogram {
    /// Creates a histogram with `buckets` geometric buckets spanning
    /// `[lo, hi)` plus one overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `lo <= 0`, `hi <= lo`, or `buckets == 0`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo > 0.0 && hi > lo, "invalid histogram range [{lo}, {hi})");
        assert!(buckets > 0, "need at least one bucket");
        let ratio = (hi / lo).powf(1.0 / buckets as f64);
        LatencyHistogram {
            lo,
            inv_ln_ratio: 1.0 / ratio.ln(),
            ratio,
            counts: vec![0; buckets + 1],
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The default latency configuration: 500 ns – 1000 s across 1024
    /// buckets (quantile resolution ~2.1%).
    pub fn default_latency() -> Self {
        LatencyHistogram::new(5e-7, 1e3, 1024)
    }

    /// The bucket an observation of `x` lands in.
    fn bucket(&self, x: f64) -> usize {
        if x < self.lo {
            0
        } else {
            (((x / self.lo).ln() * self.inv_ln_ratio) as usize).min(self.counts.len() - 1)
        }
    }

    /// Records one observation (seconds). Never allocates.
    pub fn record(&mut self, x: f64) {
        let idx = self.bucket(x);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another histogram into this one.
    ///
    /// Merging is exact and order-independent on the counts; the running
    /// `sum` commutes pairwise (two-operand float addition is commutative),
    /// so `a.merge(b)` and `b.merge(a)` produce bit-identical quantiles,
    /// counts, and extrema.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms were built with different ranges or
    /// bucket counts.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert!(
            self.lo.to_bits() == other.lo.to_bits()
                && self.ratio.to_bits() == other.ratio.to_bits()
                && self.counts.len() == other.counts.len(),
            "cannot merge histograms with different bucket layouts"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total observations recorded (directly or via merge).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact mean of all observations (the sum is tracked exactly, not
    /// reconstructed from buckets), or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.total > 0).then_some(self.max)
    }

    /// The `p`-quantile (`p` in `[0, 1]`) by nearest rank over the bucket
    /// counts; `None` when empty.
    ///
    /// Returns the geometric midpoint of the bucket holding the rank,
    /// clamped to the observed `[min, max]`, so the result is within one
    /// bucket width of the exact order statistic.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&p), "quantile p out of range: {p}");
        if self.total == 0 {
            return None;
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let edge_lo = self.lo * self.ratio.powi(i as i32);
                // Geometric midpoint of the bucket, exact for the overflow
                // bucket (whose only tenant bound is the observed max).
                let mid = if i + 1 == self.counts.len() {
                    self.max
                } else {
                    edge_lo * self.ratio.sqrt()
                };
                return Some(mid.clamp(self.min, self.max));
            }
        }
        unreachable!("rank <= total observations");
    }

    /// Convenience: the 50th percentile.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// Convenience: the 95th percentile.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// Convenience: the 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// The relative bucket width: a quantile is within a factor of `ratio`
    /// of the exact order statistic.
    pub fn resolution(&self) -> f64 {
        self.ratio
    }

    /// Observations at or beyond the histogram's upper edge, clamped into
    /// the final overflow bucket.
    ///
    /// Inside the configured range a quantile is within one bucket width
    /// of the exact order statistic; overflow samples are resolved only by
    /// the observed maximum, so a non-zero count here means the extreme
    /// tail is coarser than [`resolution`](Self::resolution) suggests.
    /// Reports surface this count rather than silently under-reporting.
    /// Derived from the bucket counts, it merges exactly like they do.
    pub fn overflow_count(&self) -> u64 {
        self.counts[self.counts.len() - 1]
    }

    /// The raw bucket counts (including the trailing overflow bucket).
    ///
    /// Counts are cumulative and monotone per bucket, so a *windowed* view
    /// of a live histogram is just the element-wise difference of two
    /// reads — see [`WindowQuantiles`].
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// A range of buckets outside which every count is zero: from the
    /// smallest observation's bucket to the largest's, widened by one
    /// bucket each side so that float rounding in the bucket index cannot
    /// strand a count outside it. Empty when nothing was recorded. The
    /// extrema only spread as observations arrive, so a live histogram's
    /// range only widens. (A NaN observation lands in bucket 0 without
    /// moving the extrema, so it may fall outside; latencies are never
    /// NaN.)
    pub fn occupied(&self) -> Range<usize> {
        if self.total == 0 {
            return 0..0;
        }
        let lo = self.bucket(self.min).saturating_sub(1);
        let hi = (self.bucket(self.max) + 2).min(self.counts.len());
        lo..hi
    }
}

impl Default for LatencyHistogram {
    /// [`LatencyHistogram::default_latency`].
    fn default() -> Self {
        LatencyHistogram::default_latency()
    }
}

/// The nearest-rank quantiles of a window of a live [`LatencyHistogram`],
/// picked in one pass over its buckets.
///
/// A window is the element-wise difference of two reads of a live
/// histogram's counts. Its caller knows the window's total up front (the
/// difference of the two reads' observation counts), so it feeds each
/// bucket's windowed count in bucket order through [`push`](Self::push)
/// and every quantile falls out of the one pass; buckets outside the
/// window's occupied span need not be fed at all. Deltas carry no
/// min/max, so each result is its bucket's geometric midpoint unclamped,
/// and overflow-bucket ranks resolve to the overflow bucket's lower edge (a
/// deliberate under-estimate: the true tenant is only known to be at or
/// beyond it).
#[derive(Debug)]
pub struct WindowQuantiles<'h, const N: usize> {
    layout: &'h LatencyHistogram,
    ranks: [u64; N],
    next: usize,
    seen: u64,
    out: [Option<f64>; N],
}

impl<'h, const N: usize> WindowQuantiles<'h, N> {
    /// A scan for the `ps`-quantiles (ascending, each in `[0, 1]`) of a
    /// window of `total` observations in `layout`'s bucket layout.
    ///
    /// # Panics
    ///
    /// Panics if a `p` is outside `[0, 1]` or the `ps` descend.
    pub fn new(layout: &'h LatencyHistogram, total: u64, ps: [f64; N]) -> Self {
        assert!(
            ps.iter().all(|p| (0.0..=1.0).contains(p)) && ps.windows(2).all(|w| w[0] <= w[1]),
            "quantiles must ascend within [0, 1]: {ps:?}"
        );
        WindowQuantiles {
            layout,
            ranks: ps.map(|p| ((p * total as f64).ceil() as u64).clamp(1, total.max(1))),
            next: if total == 0 { N } else { 0 },
            seen: 0,
            out: [None; N],
        }
    }

    /// Feeds bucket `i`'s windowed count; buckets must come in ascending
    /// order.
    #[inline]
    pub fn push(&mut self, i: usize, count: u64) {
        self.seen += count;
        while self.next < N && self.seen >= self.ranks[self.next] {
            let l = self.layout;
            let edge_lo = l.lo * l.ratio.powi(i as i32);
            self.out[self.next] = Some(if i + 1 == l.counts.len() {
                edge_lo
            } else {
                edge_lo * l.ratio.sqrt()
            });
            self.next += 1;
        }
    }

    /// The quantiles, each `None` when the window is empty.
    ///
    /// # Panics
    ///
    /// Panics if the fed counts fell short of the window's total.
    pub fn finish(self) -> [Option<f64>; N] {
        assert!(
            self.next == N,
            "the fed buckets hold {} of the window's observations, fewer than its quantiles need",
            self.seen
        );
        self.out
    }
}

/// A log-spaced histogram for printing distribution shapes.
///
/// Buckets are `[lo * ratio^i, lo * ratio^(i+1))`; values below `lo` land in
/// the first bucket and values above the last edge land in the overflow
/// bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    ratio: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` log-spaced buckets spanning
    /// `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo <= 0`, `hi <= lo`, or `buckets == 0`.
    pub fn logarithmic(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo > 0.0 && hi > lo, "invalid histogram range [{lo}, {hi})");
        assert!(buckets > 0, "need at least one bucket");
        let ratio = (hi / lo).powf(1.0 / buckets as f64);
        Histogram {
            lo,
            ratio,
            counts: vec![0; buckets + 1], // +1 overflow
            total: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        let idx = if x < self.lo {
            0
        } else {
            let i = ((x / self.lo).ln() / self.ratio.ln()).floor() as usize;
            i.min(self.counts.len() - 1)
        };
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Iterates over `(bucket_lo, bucket_hi, count)` triples, overflow last
    /// (with `hi = f64::INFINITY`).
    pub fn buckets(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        let n = self.counts.len();
        (0..n).map(move |i| {
            let lo = self.lo * self.ratio.powi(i as i32);
            let hi = if i + 1 == n {
                f64::INFINITY
            } else {
                self.lo * self.ratio.powi(i as i32 + 1)
            };
            (lo, hi, self.counts[i])
        })
    }
}

/// A time series of `(time_seconds, value)` pairs with peak/mean helpers.
///
/// Used for diurnal load curves and provisioned-power traces (Fig. 16/17).
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends a point; times should be non-decreasing.
    pub fn push(&mut self, t_secs: f64, value: f64) {
        debug_assert!(
            self.points.last().map_or(true, |&(t, _)| t <= t_secs),
            "time series must be appended in order"
        );
        self.points.push((t_secs, value));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Largest value, or `None` if empty.
    pub fn peak(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Arithmetic mean of values, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            None
        } else {
            Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
        }
    }
}

impl FromIterator<(f64, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        TimeSeries {
            points: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_percentiles() {
        let mut t = PercentileTracker::new();
        for i in 1..=100 {
            t.record(i as f64);
        }
        assert_eq!(t.quantile(0.0), Some(1.0));
        assert_eq!(t.p50(), Some(50.0));
        assert_eq!(t.p95(), Some(95.0));
        assert_eq!(t.p99(), Some(99.0));
        assert_eq!(t.quantile(1.0), Some(100.0));
        assert_eq!(t.count(), 100);
    }

    #[test]
    fn empty_tracker_returns_none() {
        let mut t = PercentileTracker::new();
        assert!(t.is_empty());
        assert_eq!(t.p99(), None);
    }

    #[test]
    fn histogram_buckets_cover_range() {
        let mut h = Histogram::logarithmic(10.0, 1000.0, 4);
        for x in [5.0, 10.0, 99.0, 999.0, 5000.0] {
            h.record(x);
        }
        assert_eq!(h.total(), 5);
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets.len(), 5);
        let total: u64 = buckets.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total, 5);
        // Overflow bucket holds the 5000.0 observation.
        assert_eq!(buckets.last().unwrap().2, 1);
    }

    #[test]
    fn latency_histogram_overflow_is_counted_and_merges_exactly() {
        // Range [1ms, 1s): in-range samples never touch the overflow
        // bucket; samples at or past the upper edge all land there.
        let mut a = LatencyHistogram::new(1e-3, 1.0, 64);
        for x in [1e-3, 0.05, 0.999] {
            a.record(x);
        }
        assert_eq!(a.overflow_count(), 0);
        a.record(1.0);
        a.record(50.0);
        assert_eq!(a.overflow_count(), 2);
        // Sub-range samples clamp into bucket 0, not overflow.
        a.record(1e-9);
        assert_eq!(a.overflow_count(), 2);

        // Overflow merges exactly and commutes, like every bucket count.
        let mut b = LatencyHistogram::new(1e-3, 1.0, 64);
        b.record(7.0);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.overflow_count(), 3);
        assert_eq!(ba.overflow_count(), 3);
        assert_eq!(ab.quantile(1.0), ba.quantile(1.0));
        // The extreme tail resolves to the observed max, which the
        // overflow count flags as bucket-unresolved.
        assert_eq!(ab.quantile(1.0), Some(50.0));
    }

    /// The nearest-rank quantile of a full count vector, bucket by bucket
    /// from the first: the reference a windowed read must reproduce.
    fn full_scan(layout: &LatencyHistogram, counts: &[u64], p: f64) -> Option<f64> {
        let total: u64 = counts.iter().sum();
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total.max(1));
        let mut seen = 0;
        let i = counts.iter().position(|&c| {
            seen += c;
            total > 0 && seen >= rank
        })?;
        let edge_lo = layout.lo * layout.ratio.powi(i as i32);
        Some(if i + 1 == counts.len() {
            edge_lo
        } else {
            edge_lo * layout.ratio.sqrt()
        })
    }

    #[test]
    fn latency_histogram_delta_quantiles_match_layout() {
        // A "windowed" view is the element-wise difference of two reads of
        // a growing histogram. Its quantile through the layout must agree
        // with a histogram that recorded only the window's samples.
        let mut cum = LatencyHistogram::default_latency();
        for x in [1e-3, 2e-3, 5e-3] {
            cum.record(x);
        }
        let first: Vec<u64> = cum.counts().to_vec();
        let mut window_only = LatencyHistogram::default_latency();
        for x in [1e-2, 2e-2, 3e-2, 9e-2] {
            cum.record(x);
            window_only.record(x);
        }
        let ps = [0.0, 0.5, 0.9, 0.99, 1.0];
        let via_delta = window(&cum, cum.counts(), &first, cum.occupied(), ps);
        for (p, got) in ps.into_iter().zip(via_delta) {
            let got = got.unwrap();
            let direct = window_only.quantile(p).unwrap();
            // Same bucket, so within one bucket width (midpoint vs the
            // clamped-to-extrema direct read).
            assert!(
                (got / direct).ln().abs() <= cum.resolution().ln() + 1e-12,
                "p={p}: delta {got} vs direct {direct}"
            );
        }
        // Empty delta: no quantile.
        let zeros = vec![0u64; first.len()];
        assert_eq!(window(&cum, &zeros, &zeros, 0..zeros.len(), [0.99]), [None]);
        // Overflow-bucket ranks resolve to the overflow lower edge.
        let mut top = vec![0u64; first.len()];
        *top.last_mut().unwrap() = 1;
        let [v] = window(&cum, &top, &zeros, 0..top.len(), [1.0]);
        let v = v.unwrap();
        assert!((999.0..1001.0).contains(&v), "overflow edge, got {v}");
    }

    /// The window `cur - prev` fed to a scan over `span` only.
    fn window<const N: usize>(
        layout: &LatencyHistogram,
        cur: &[u64],
        prev: &[u64],
        span: Range<usize>,
        ps: [f64; N],
    ) -> [Option<f64>; N] {
        let total = cur.iter().sum::<u64>() - prev.iter().sum::<u64>();
        let mut scan = WindowQuantiles::new(layout, total, ps);
        for i in span {
            scan.push(i, cur[i] - prev[i]);
        }
        scan.finish()
    }

    #[test]
    fn occupied_span_windows_match_full_scans_bit_for_bit() {
        let mut h = LatencyHistogram::default_latency();
        assert!(h.occupied().is_empty());
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut prev = vec![0u64; h.counts().len()];
        let mut prev_total = 0;
        for round in 0..40 {
            for _ in 0..(round % 7) * 13 {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Log-uniform over 100 ns .. 10^4 s, so some observations
                // clamp into bucket 0 and some overflow.
                let u = (rng >> 11) as f64 / (1u64 << 53) as f64;
                h.record(1e-7 * 1e11f64.powf(u));
            }
            let span = h.occupied();
            assert!(h.counts()[..span.start].iter().all(|&c| c == 0));
            assert!(h.counts()[span.end..].iter().all(|&c| c == 0));
            let delta: Vec<u64> = h.counts().iter().zip(&prev).map(|(a, b)| a - b).collect();
            assert_eq!(h.count() - prev_total, delta.iter().sum::<u64>());
            let ps = [0.5, 0.99];
            let got = window(&h, h.counts(), &prev, span, ps);
            let want = ps.map(|p| full_scan(&h, &delta, p));
            assert_eq!(
                got.map(|v| v.map(f64::to_bits)),
                want.map(|v| v.map(f64::to_bits)),
                "round {round}"
            );
            prev.copy_from_slice(h.counts());
            prev_total = h.count();
        }
    }

    #[test]
    fn time_series_peak_mean() {
        let a: TimeSeries = vec![(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)]
            .into_iter()
            .collect();
        assert_eq!(a.peak(), Some(3.0));
        assert_eq!(a.mean(), Some(2.0));
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
    }
}
