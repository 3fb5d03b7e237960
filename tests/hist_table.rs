//! The latency histogram's bucket tables against the `ln` formula they
//! replace.
//!
//! A sample's bucket is defined as `floor(ln(x / lo) / ln(ratio))`, clamped
//! to the overflow bucket, with values below `lo` and NaN in bucket 0.
//! Recording evaluates no logarithm: it reads a per-layout table of the
//! smallest float in each bucket. These tests evaluate the formula
//! themselves and hold `record_bucket` to it, bucket edge by bucket edge,
//! on seeded samples and on the special values, for every layout the
//! repository builds plus one denser than the table's first-bucket index;
//! and they hold the quantile representatives to the expressions the
//! quantile reads evaluate.

use hercules_common::stats::{LatencyHistogram, WindowQuantiles};

/// `(lo, hi, buckets)`: the default layout, the property suites' and the
/// unit tests', `fig2_workload`'s, and a layout with about a thousand
/// buckets per binade, where one sub-interval of the table's index holds
/// several thresholds.
const LAYOUTS: [(f64, f64, usize); 7] = [
    (5e-7, 1e3, 1024),
    (1e-3, 1.0, 16),
    (1e-3, 1.0, 64),
    (1e-6, 1.0, 64),
    (1e-6, 1.0, 128),
    (10.0, 1000.0, 10),
    (1.0, 2.0, 1000),
];

/// ULPs checked on each side of every bucket edge.
const EDGE_ULPS: u64 = 256;

/// Seeded samples per layout.
const SAMPLES: u64 = 10_000_000;

/// The bucket formula of one layout, evaluated here, independently of the
/// histogram.
struct Formula {
    lo: f64,
    ratio: f64,
    inv_ln_ratio: f64,
    last: usize,
}

impl Formula {
    fn new((lo, hi, buckets): (f64, f64, usize)) -> Self {
        let ratio = (hi / lo).powf(1.0 / buckets as f64);
        Formula {
            lo,
            ratio,
            inv_ln_ratio: 1.0 / ratio.ln(),
            last: buckets,
        }
    }

    fn bucket(&self, x: f64) -> usize {
        if x < self.lo {
            0
        } else {
            (((x / self.lo).ln() * self.inv_ln_ratio) as usize).min(self.last)
        }
    }

    /// The smallest float the formula puts in bucket `i` or above, by
    /// bisection over the bits of the non-negative floats.
    fn edge(&self, i: usize) -> f64 {
        let (mut below, mut at) = (0u64, f64::INFINITY.to_bits());
        assert!(self.bucket(f64::INFINITY) >= i, "bucket {i} is reachable");
        while at - below > 1 {
            let mid = below + (at - below) / 2;
            if self.bucket(f64::from_bits(mid)) >= i {
                at = mid;
            } else {
                below = mid;
            }
        }
        f64::from_bits(at)
    }
}

/// A histogram of `layout` and its formula.
fn layout(l: (f64, f64, usize)) -> (LatencyHistogram, Formula) {
    let h = LatencyHistogram::new(l.0, l.1, l.2);
    let f = Formula::new(l);
    assert_eq!(h.resolution().to_bits(), f.ratio.to_bits(), "{l:?}: ratio");
    assert_eq!(h.counts().len(), f.last + 1, "{l:?}: bucket count");
    (h, f)
}

/// Checks `x` against the formula.
fn check(h: &mut LatencyHistogram, f: &Formula, x: f64, l: (f64, f64, usize)) {
    assert_eq!(
        h.record_bucket(x),
        f.bucket(x),
        "{l:?}: x = {x:e} ({:#x})",
        x.to_bits()
    );
}

#[test]
fn every_bucket_edge_matches_the_formula() {
    for l in LAYOUTS {
        let (mut h, f) = layout(l);
        let edges = (1..=f.last).map(|i| f.edge(i));
        for e in edges.chain([l.0, l.1]) {
            let bits = e.to_bits();
            for b in bits.saturating_sub(EDGE_ULPS)..=(bits + EDGE_ULPS).min(f64::MAX.to_bits()) {
                check(&mut h, &f, f64::from_bits(b), l);
            }
        }
    }
}

/// `SAMPLES` floats with bits uniform over `[lo/4, 4·hi]`'s: every binade
/// of the range equally, every mantissa pattern alike.
fn seeded_samples_match_the_formula(l: (f64, f64, usize), seed: u64) {
    let (mut h, f) = layout(l);
    let (from, to) = ((l.0 / 4.0).to_bits(), (l.1 * 4.0).to_bits());
    let mut s = seed;
    for _ in 0..SAMPLES {
        // splitmix64
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        check(&mut h, &f, f64::from_bits(from + z % (to - from + 1)), l);
    }
    assert_eq!(h.count(), SAMPLES);
}

#[test]
fn seeded_samples_match_the_formula_default_layout() {
    seeded_samples_match_the_formula(LAYOUTS[0], 101);
}

#[test]
fn seeded_samples_match_the_formula_other_layouts() {
    for (k, l) in LAYOUTS.into_iter().enumerate().skip(1) {
        seeded_samples_match_the_formula(l, 101 + k as u64);
    }
}

#[test]
fn special_values_match_the_formula() {
    let smallest_subnormal = f64::from_bits(1);
    for l in LAYOUTS {
        let (mut h, f) = layout(l);
        let specials = [
            0.0,
            -0.0,
            -1.0,
            -l.0,
            f64::MIN,
            smallest_subnormal,
            -smallest_subnormal,
            f64::MIN_POSITIVE,
            l.0,
            l.1,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(f64::INFINITY.to_bits() + 1),
        ];
        for x in specials {
            check(&mut h, &f, x, l);
        }
        let mut h = LatencyHistogram::new(l.0, l.1, l.2);
        assert_eq!(h.record_bucket(f64::NAN), 0, "{l:?}: NaN lands in bucket 0");
        assert_eq!(
            h.record_bucket(-1.0),
            0,
            "{l:?}: a negative lands in bucket 0"
        );
        assert_eq!(
            h.record_bucket(f64::INFINITY),
            f.last,
            "{l:?}: +inf overflows"
        );
        assert_eq!(
            h.record_bucket(f64::MAX),
            f.last,
            "{l:?}: f64::MAX overflows"
        );
    }
}

#[test]
fn quantile_representatives_match_their_expressions() {
    for l in LAYOUTS {
        let (h, f) = layout(l);
        for i in 0..=f.last {
            let edge_lo = f.lo * f.ratio.powi(i as i32);
            let want = if i == f.last {
                edge_lo
            } else {
                edge_lo * f.ratio.sqrt()
            };
            // A window reads each bucket's midpoint unclamped, and the
            // overflow bucket's lower edge.
            let mut scan = WindowQuantiles::new(&h, 1, [1.0]);
            scan.push(i, 1);
            let [got] = scan.finish();
            assert_eq!(
                got.map(f64::to_bits),
                Some(want.to_bits()),
                "{l:?}: bucket {i}"
            );
            // A histogram's quantile reads the midpoint, clamped to the
            // observed extremes: below and above every bucket here.
            if i < f.last {
                let mut full = LatencyHistogram::new(l.0, l.1, l.2);
                let x = if i == 0 { f.lo } else { f.edge(i) };
                for y in [f64::from_bits(1), x, f64::MAX] {
                    full.record(y);
                }
                let q = full.quantile(0.5).map(f64::to_bits);
                assert_eq!(q, Some(want.to_bits()), "{l:?}: quantile of bucket {i}");
            }
        }
    }
}
