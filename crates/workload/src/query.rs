//! Inference queries and their working-set distributions (paper §II-A,
//! Fig. 2b/2c).
//!
//! A query ranks `size` candidate items for one user; sizes follow a heavy
//! tail between 10 and 1000 (Fig. 2b). Each embedding lookup's *pooling
//! factor* varies per query (Fig. 2c); the generator draws it from the
//! table's configured range with a right-skewed discrete distribution.

use hercules_common::dist::{Discrete, Distribution, LogNormal};
use hercules_common::rng::SimRng;
use hercules_common::units::SimTime;
use hercules_model::table::{EmbeddingTableSpec, PoolingSpec};

/// Identifies one query within a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

/// One inference request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// Unique id (monotone in arrival order).
    pub id: QueryId,
    /// Arrival time at the server.
    pub arrival: SimTime,
    /// Number of candidate items to rank (the paper's "query size").
    pub size: u32,
}

/// Heavy-tailed query-size distribution: log-normal clipped to
/// `[min, max]`.
///
/// The paper's production histogram (Fig. 2b) spans 10–1000 items with a
/// pronounced tail; [`QuerySizeDist::paper`] uses mean 120 / p95 400 to
/// match its shape.
#[derive(Debug, Clone)]
pub struct QuerySizeDist {
    inner: LogNormal,
    min: u32,
    max: u32,
}

impl QuerySizeDist {
    /// Creates a clipped log-normal size distribution.
    ///
    /// # Panics
    ///
    /// Panics if `min == 0`, `min > max`, or the (mean, p95) pair is
    /// infeasible (see [`LogNormal::from_mean_p95`]).
    pub fn new(mean: f64, p95: f64, min: u32, max: u32) -> Self {
        assert!(min >= 1 && min <= max, "invalid size range {min}..{max}");
        QuerySizeDist {
            inner: LogNormal::from_mean_p95(mean, p95),
            min,
            max,
        }
    }

    /// The paper-shaped distribution: mean 120, p95 400, clipped to
    /// `[10, 1000]`.
    pub fn paper() -> Self {
        QuerySizeDist::new(120.0, 400.0, 10, 1000)
    }

    /// Draws one query size.
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        (self.inner.sample(rng).round() as i64).clamp(self.min as i64, self.max as i64) as u32
    }

    /// The clipping bounds.
    pub fn bounds(&self) -> (u32, u32) {
        (self.min, self.max)
    }
}

/// Per-table pooling-factor distribution (Fig. 2c).
///
/// Discretizes the table's `[min, max]` pooling range into buckets with
/// geometrically-decaying weights, giving the right-skewed per-table shapes
/// of the paper's production trace.
#[derive(Debug, Clone)]
pub struct PoolingDist {
    inner: Option<Discrete<u32>>,
}

impl PoolingDist {
    /// Builds the distribution for a table spec.
    pub fn for_table(spec: &EmbeddingTableSpec) -> PoolingDist {
        match spec.pooling {
            PoolingSpec::OneHot => PoolingDist { inner: None },
            PoolingSpec::MultiHot { min, max } | PoolingSpec::Sequence { min, max } => {
                const BUCKETS: u32 = 8;
                const DECAY: f64 = 0.72;
                let span = (max - min).max(1);
                let mut weighted = Vec::with_capacity(BUCKETS as usize);
                let mut w = 1.0;
                for b in 0..BUCKETS {
                    let v = min + span * b / (BUCKETS - 1).max(1);
                    weighted.push((v, w));
                    w *= DECAY;
                }
                PoolingDist {
                    inner: Some(Discrete::new(weighted).expect("non-empty positive weights")),
                }
            }
        }
    }

    /// Draws one pooling factor.
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        match &self.inner {
            None => 1,
            Some(d) => d.sample(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_model::table::EmbeddingTableSpec;

    #[test]
    fn sizes_respect_bounds_and_tail() {
        let d = QuerySizeDist::paper();
        let mut rng = SimRng::seed_from(3);
        let mut sizes: Vec<u32> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        assert!(sizes.iter().all(|&s| (10..=1000).contains(&s)));
        sizes.sort_unstable();
        let p50 = sizes[sizes.len() / 2];
        let p99 = sizes[(0.99 * sizes.len() as f64) as usize];
        // Heavy tail: p99 is several times the median.
        assert!(p99 as f64 / p50 as f64 > 3.0, "p50 {p50}, p99 {p99}");
        let mean: f64 = sizes.iter().map(|&s| s as f64).sum::<f64>() / sizes.len() as f64;
        assert!((mean - 120.0).abs() < 15.0, "mean {mean}");
    }

    #[test]
    fn pooling_dist_matches_spec_range() {
        let spec = EmbeddingTableSpec::new(1_000_000, 32, PoolingSpec::multi_hot(20, 160), 0.8);
        let d = PoolingDist::for_table(&spec);
        let mut rng = SimRng::seed_from(9);
        let samples: Vec<u32> = (0..5_000).map(|_| d.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&p| (20..=160).contains(&p)));
        // Right-skewed: low factors dominate.
        let low = samples.iter().filter(|&&p| p <= 60).count();
        assert!(low as f64 / samples.len() as f64 > 0.5);
        // But the tail is populated.
        assert!(samples.iter().any(|&p| p >= 140));
    }

    #[test]
    fn one_hot_pooling_always_one() {
        let spec = EmbeddingTableSpec::new(1_000, 32, PoolingSpec::OneHot, 0.8);
        let d = PoolingDist::for_table(&spec);
        let mut rng = SimRng::seed_from(2);
        for _ in 0..50 {
            assert_eq!(d.sample(&mut rng), 1);
        }
    }

    #[test]
    #[should_panic(expected = "invalid size range")]
    fn zero_min_size_rejected() {
        let _ = QuerySizeDist::new(10.0, 30.0, 0, 10);
    }
}
