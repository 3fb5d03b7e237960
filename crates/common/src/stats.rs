//! Statistics for simulation metrics.
//!
//! The simulator reports tail latency (p95/p99), mean throughput, utilization,
//! and power. [`PercentileTracker`] keeps samples for exact quantiles,
//! [`LatencyHistogram`] keeps mergeable log-bucket counts (and
//! [`WindowQuantiles`] reads the quantiles of a window of them), and
//! [`TimeSeries`] holds load and power curves.
//!
//! A histogram buckets a sample by table lookup, not by logarithm: each
//! layout's bucket thresholds and midpoints are computed once per process,
//! from the logarithmic bucket formula, and shared by every histogram of
//! the layout, so recording costs two loads and a compare.

use std::sync::{Mutex, PoisonError};

/// The 1-based rank of the `p`-quantile among `n >= 1` sorted samples by
/// nearest rank: `ceil(p * n)`, clamped to `1..=n`. As `n` grows it never
/// falls and rises by at most one per sample (the rounded `p * n` is
/// monotone in `n` and steps by `p <= 1`), so `n - nearest_rank(p, n)`
/// never falls either.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

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
        Some(self.samples[nearest_rank(p, self.samples.len()) - 1])
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
/// A sample's bucket is defined by `floor(ln(x / lo) / ln(ratio))`, but
/// recording evaluates no logarithm: every histogram of a layout shares
/// one bucket table, built once per process, which holds the smallest
/// float that formula puts in each bucket. Recording finds the sample's
/// first candidate bucket from its exponent and top mantissa bits and
/// compares it against the next bucket's threshold, landing where the
/// formula would.
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
    /// The layout's bucket thresholds and representatives.
    table: &'static BucketTable,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl LatencyHistogram {
    /// Creates a histogram with `buckets` geometric buckets spanning
    /// `[lo, hi)` plus one overflow bucket. The layout's bucket table is
    /// built by the first histogram of the layout in the process and
    /// shared by the rest.
    ///
    /// # Panics
    ///
    /// Panics if `lo <= 0`, `hi <= lo`, or `buckets == 0`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo > 0.0 && hi > lo, "invalid histogram range [{lo}, {hi})");
        assert!(buckets > 0, "need at least one bucket");
        LatencyHistogram {
            table: BucketTable::shared(lo, hi, buckets),
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

    /// Records one observation (seconds). Never allocates.
    pub fn record(&mut self, x: f64) {
        self.record_bucket(x);
    }

    /// [`record`](Self::record), returning the index of the bucket the
    /// observation landed in (into [`counts`](Self::counts)).
    pub fn record_bucket(&mut self, x: f64) -> usize {
        let idx = self.table.bucket(x);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        idx
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
            self.table.lo.to_bits() == other.table.lo.to_bits()
                && self.table.ratio.to_bits() == other.table.ratio.to_bits()
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
                // Geometric midpoint of the bucket, exact for the overflow
                // bucket (whose only tenant bound is the observed max).
                let mid = if i + 1 == self.counts.len() {
                    self.max
                } else {
                    self.table.mids[i]
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
        self.table.ratio
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
}

impl Default for LatencyHistogram {
    /// [`LatencyHistogram::default_latency`].
    fn default() -> Self {
        LatencyHistogram::default_latency()
    }
}

/// Sub-intervals per binade in a [`BucketTable`]'s first-bucket index, as
/// a power of two: a positive float's index key is its exponent and top
/// `SUB_BITS` mantissa bits. At 2^7 a sub-interval's largest value is at
/// most 0.8% above its smallest, inside the default layout's 2.1% bucket
/// ratio, so at most one threshold falls inside a sub-interval.
const SUB_BITS: u32 = 7;

/// The right shift that leaves a float's index key.
const KEY_SHIFT: u32 = f64::MANTISSA_DIGITS - 1 - SUB_BITS;

/// The index key of `x`: its bits shifted right by [`KEY_SHIFT`] as a
/// signed word, so negative floats have negative keys and positive floats'
/// keys ascend with them.
fn key(x: f64) -> i64 {
    x.to_bits() as i64 >> KEY_SHIFT
}

/// The bucket `floor(ln(x / lo) * inv_ln_ratio)` of a layout starting at
/// `lo`, clamped to the overflow bucket `last`, with values below `lo` and
/// NaN in bucket 0: the definition a [`BucketTable`] is built from.
fn ln_bucket(x: f64, lo: f64, inv_ln_ratio: f64, last: usize) -> usize {
    if x < lo {
        0
    } else {
        (((x / lo).ln() * inv_ln_ratio) as usize).min(last)
    }
}

/// The lookup tables of one histogram layout `(lo, hi, buckets)`, built
/// once per process by the first [`LatencyHistogram`] of the layout and
/// shared by every later one.
///
/// A sample's bucket is the number of thresholds at or below it. The
/// first-bucket index narrows that count to the sample's sub-interval,
/// which in the default layout holds at most one threshold, so one compare
/// against the next threshold finishes; a layout denser than the index
/// steps through the few its sub-interval holds.
struct BucketTable {
    lo: f64,
    hi: f64,
    ratio: f64,
    /// `thresholds[i]` for `1 <= i <= buckets`: the smallest float that
    /// [`ln_bucket`] puts in bucket `i` or above (NaN when no float does).
    /// Entry 0 is unused, and the last entry is NaN, which no sample
    /// reaches, so every step stops at the overflow bucket.
    thresholds: Box<[f64]>,
    /// The index key of `lo`.
    base: i64,
    /// `first[j]`: the bucket of the smallest float whose key is
    /// `base + j`. Entry 0 also stands for every float below `lo`'s
    /// sub-interval, and the last entry for every float past the top
    /// threshold's sub-interval.
    first: Box<[u32]>,
    /// `mids[i]`: bucket `i`'s geometric midpoint, `lo * ratio.powi(i) *
    /// ratio.sqrt()`, and for the overflow bucket its lower edge,
    /// `lo * ratio.powi(buckets)`.
    mids: Box<[f64]>,
}

impl BucketTable {
    /// The table of layout `(lo, hi, buckets)`, built on the first request
    /// for it in this process and shared by every later one.
    fn shared(lo: f64, hi: f64, buckets: usize) -> &'static BucketTable {
        static TABLES: Mutex<Vec<&'static BucketTable>> = Mutex::new(Vec::new());
        // A panic while building leaves the list as it was, so a poisoned
        // list is still whole.
        let mut tables = TABLES.lock().unwrap_or_else(PoisonError::into_inner);
        let layout = (lo.to_bits(), hi.to_bits(), buckets);
        if let Some(&table) = tables
            .iter()
            .find(|t| (t.lo.to_bits(), t.hi.to_bits(), t.mids.len() - 1) == layout)
        {
            return table;
        }
        let table = Box::leak(Box::new(BucketTable::build(lo, hi, buckets)));
        tables.push(table);
        table
    }

    fn build(lo: f64, hi: f64, buckets: usize) -> BucketTable {
        let ratio = (hi / lo).powf(1.0 / buckets as f64);
        let inv_ln_ratio = 1.0 / ratio.ln();
        let bucket = |bits: u64| ln_bucket(f64::from_bits(bits), lo, inv_ln_ratio, buckets);
        // +inf reaches the overflow bucket unless the ratio itself
        // overflows; no float reaches a bucket past +inf's.
        let inf = f64::INFINITY.to_bits();
        let reach = bucket(inf);
        // Bisect over the bit patterns of the non-negative floats, which
        // order like the floats, keeping `bucket(below) < i <= bucket(at)`.
        let mut below = 0.0f64.to_bits();
        let thresholds: Box<[f64]> = (0..buckets + 2)
            .map(|i| {
                if i == 0 || i > reach {
                    return f64::NAN;
                }
                let mut at = inf;
                while at - below > 1 {
                    let mid = below + (at - below) / 2;
                    if bucket(mid) >= i {
                        at = mid;
                    } else {
                        below = mid;
                    }
                }
                f64::from_bits(at)
            })
            .collect();
        let base = key(lo);
        let top = if reach == 0 {
            base
        } else {
            key(thresholds[reach])
        };
        let mut b = 0;
        let first = (base..=top + 1)
            .map(|k| {
                if k > base {
                    let start = f64::from_bits((k << KEY_SHIFT) as u64);
                    while b < buckets && thresholds[b + 1] <= start {
                        b += 1;
                    }
                }
                u32::try_from(b).expect("a layout has fewer than 2^32 buckets")
            })
            .collect();
        let mids = (0..=buckets)
            .map(|i| {
                let edge_lo = lo * ratio.powi(i as i32);
                if i == buckets {
                    edge_lo
                } else {
                    edge_lo * ratio.sqrt()
                }
            })
            .collect();
        BucketTable {
            lo,
            hi,
            ratio,
            thresholds,
            base,
            first,
            mids,
        }
    }

    /// The bucket [`ln_bucket`] puts `x` in, by two loads and a compare.
    #[inline]
    fn bucket(&self, x: f64) -> usize {
        if x.is_nan() {
            return 0;
        }
        let j = (key(x) - self.base).clamp(0, self.first.len() as i64 - 1);
        let mut b = self.first[j as usize] as usize;
        b += usize::from(x >= self.thresholds[b + 1]);
        // Only a layout denser than the index has a second threshold in
        // one sub-interval.
        while x >= self.thresholds[b + 1] {
            b += 1;
        }
        b
    }
}

impl std::fmt::Debug for BucketTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BucketTable")
            .field("lo", &self.lo)
            .field("hi", &self.hi)
            .field("buckets", &(self.mids.len() - 1))
            .finish_non_exhaustive()
    }
}

/// The nearest-rank quantiles of a window of a live [`LatencyHistogram`],
/// picked in one pass over its buckets.
///
/// A window is the element-wise difference of two reads of a live
/// histogram's counts. Its caller knows the window's total up front (the
/// difference of the two reads' observation counts), so it feeds each
/// bucket's windowed count in bucket order through [`push`](Self::push)
/// and every quantile falls out of the one pass; buckets whose windowed
/// count is zero need not be fed at all. Deltas carry no
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
            self.out[self.next] = Some(self.layout.table.mids[i]);
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

    #[test]
    fn a_layout_whose_ratio_overflows_buckets_like_the_formula() {
        // `hi / lo` overflows, so the formula's ratio is infinite and it
        // puts every sample in bucket 0; the table reaches no bucket past.
        let mut h = LatencyHistogram::new(1e-300, 1e300, 10);
        for x in [1e-300, 1.0, 1e300, f64::MAX, f64::INFINITY] {
            assert_eq!(h.record_bucket(x), 0, "x = {x:e}");
        }
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
        let (lo, ratio) = (layout.table.lo, layout.table.ratio);
        let edge_lo = lo * ratio.powi(i as i32);
        Some(if i + 1 == counts.len() {
            edge_lo
        } else {
            edge_lo * ratio.sqrt()
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
        let via_delta = window(&cum, cum.counts(), &first, ps);
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
        assert_eq!(window(&cum, &zeros, &zeros, [0.99]), [None]);
        // Overflow-bucket ranks resolve to the overflow lower edge.
        let mut top = vec![0u64; first.len()];
        *top.last_mut().unwrap() = 1;
        let [v] = window(&cum, &top, &zeros, [1.0]);
        let v = v.unwrap();
        assert!((999.0..1001.0).contains(&v), "overflow edge, got {v}");
    }

    /// The window `cur - prev` fed to a scan, skipping its empty buckets.
    fn window<const N: usize>(
        layout: &LatencyHistogram,
        cur: &[u64],
        prev: &[u64],
        ps: [f64; N],
    ) -> [Option<f64>; N] {
        let total = cur.iter().sum::<u64>() - prev.iter().sum::<u64>();
        let mut scan = WindowQuantiles::new(layout, total, ps);
        for (i, (c, p)) in cur.iter().zip(prev).enumerate() {
            if c > p {
                scan.push(i, c - p);
            }
        }
        scan.finish()
    }

    #[test]
    fn sparse_windows_match_full_scans_bit_for_bit() {
        let mut h = LatencyHistogram::default_latency();
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
            let delta: Vec<u64> = h.counts().iter().zip(&prev).map(|(a, b)| a - b).collect();
            assert_eq!(h.count() - prev_total, delta.iter().sum::<u64>());
            let ps = [0.5, 0.99];
            let got = window(&h, h.counts(), &prev, ps);
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
