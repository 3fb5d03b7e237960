//! Embedding-table specifications.
//!
//! Tables are the memory-capacity and memory-bandwidth story of
//! recommendation models: >95% of model bytes live here (§IV-B), and the
//! per-query *pooling factor* (rows gathered per lookup) drives bandwidth
//! demand (Fig. 2c).

use hercules_common::dist::Zipf;
use hercules_common::units::MemBytes;

/// Identifies one embedding table within a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(u32);

impl TableId {
    /// Creates a table id from its index in the model's table list.
    pub const fn new(index: u32) -> Self {
        TableId(index)
    }

    /// Index into the model's table list.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// How many rows one lookup touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolingSpec {
    /// Exactly one row per item (MT-WnD style one-hot lookup; no
    /// Gather-Reduce, so NMP offers no benefit — §VI-B).
    OneHot,
    /// `min..=max` rows gathered and summed per item (DLRM multi-hot
    /// Gather-and-Reduce).
    MultiHot {
        /// Smallest pooling factor.
        min: u32,
        /// Largest pooling factor.
        max: u32,
    },
    /// `min..=max` rows gathered *without* reduction (DIN/DIEN behaviour
    /// sequences feeding attention/GRU).
    Sequence {
        /// Shortest history.
        min: u32,
        /// Longest history.
        max: u32,
    },
}

impl PoolingSpec {
    /// Convenience constructor for [`PoolingSpec::MultiHot`].
    ///
    /// # Panics
    ///
    /// Panics if `min` is zero or greater than `max`.
    pub fn multi_hot(min: u32, max: u32) -> Self {
        assert!(min >= 1 && min <= max, "invalid pooling range {min}..{max}");
        PoolingSpec::MultiHot { min, max }
    }

    /// Convenience constructor for [`PoolingSpec::Sequence`].
    ///
    /// # Panics
    ///
    /// Panics if `min` is zero or greater than `max`.
    pub fn sequence(min: u32, max: u32) -> Self {
        assert!(
            min >= 1 && min <= max,
            "invalid sequence range {min}..{max}"
        );
        PoolingSpec::Sequence { min, max }
    }

    /// Average rows touched per item.
    pub fn average(&self) -> u32 {
        match *self {
            PoolingSpec::OneHot => 1,
            PoolingSpec::MultiHot { min, max } | PoolingSpec::Sequence { min, max } => {
                (min + max) / 2
            }
        }
    }

    /// `(min, max)` pooling bounds.
    pub fn bounds(&self) -> (u32, u32) {
        match *self {
            PoolingSpec::OneHot => (1, 1),
            PoolingSpec::MultiHot { min, max } | PoolingSpec::Sequence { min, max } => (min, max),
        }
    }

    /// Whether gathered rows are reduced into a single vector.
    pub fn reduces(&self) -> bool {
        matches!(self, PoolingSpec::MultiHot { .. })
    }
}

/// One embedding table: `rows x dim` f32 entries plus an access-locality
/// model.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTableSpec {
    /// Number of rows (vocabulary size).
    pub rows: u64,
    /// Embedding dimension (f32 elements per row).
    pub dim: u32,
    /// Pooling behaviour of lookups against this table.
    pub pooling: PoolingSpec,
    /// Zipf exponent of row-access popularity; production traces show strong
    /// temporal locality ([6], [25]), typically 0.6–1.0.
    pub locality_exponent: f64,
}

impl EmbeddingTableSpec {
    /// Creates a table spec.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `dim` is zero, or the locality exponent is not
    /// strictly positive and finite.
    pub fn new(rows: u64, dim: u32, pooling: PoolingSpec, locality_exponent: f64) -> Self {
        assert!(rows > 0, "table must have rows");
        assert!(dim > 0, "table must have a positive dim");
        assert!(
            locality_exponent.is_finite() && locality_exponent > 0.0,
            "locality exponent must be positive"
        );
        EmbeddingTableSpec {
            rows,
            dim,
            pooling,
            locality_exponent,
        }
    }

    /// Bytes to store the full table (f32 entries).
    pub fn size(&self) -> MemBytes {
        MemBytes::from_bytes(self.rows * self.row_bytes())
    }

    /// Bytes of one embedding row (f32 entries) — the granule a gather
    /// kernel reads per index.
    pub const fn row_bytes(&self) -> u64 {
        self.dim as u64 * 4
    }

    /// Average pooling factor of lookups.
    pub fn avg_pooling(&self) -> u32 {
        self.pooling.average()
    }

    /// The Zipf popularity distribution over this table's rows.
    pub fn popularity(&self) -> Zipf {
        Zipf::new(self.rows, self.locality_exponent)
    }

    /// Fraction of accesses that hit the `hot_rows` most popular rows.
    ///
    /// This is the quantity the locality-aware embedding partitioner
    /// (Fig. 10a) maximizes under an accelerator-capacity budget.
    pub fn hit_rate(&self, hot_rows: u64) -> f64 {
        if hot_rows == 0 {
            0.0
        } else {
            self.popularity().mass_of_top(hot_rows.min(self.rows))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooling_averages() {
        assert_eq!(PoolingSpec::OneHot.average(), 1);
        assert_eq!(PoolingSpec::multi_hot(20, 160).average(), 90);
        assert_eq!(PoolingSpec::sequence(100, 1000).average(), 550);
        assert!(PoolingSpec::multi_hot(2, 4).reduces());
        assert!(!PoolingSpec::sequence(2, 4).reduces());
        assert!(!PoolingSpec::OneHot.reduces());
    }

    #[test]
    fn table_size() {
        let t = EmbeddingTableSpec::new(1_000_000, 32, PoolingSpec::OneHot, 0.8);
        assert_eq!(t.size(), MemBytes::from_bytes(128_000_000));
        assert_eq!(t.row_bytes(), 128);
    }

    #[test]
    fn hit_rate_monotone_in_hot_rows() {
        let t = EmbeddingTableSpec::new(1_000_000, 32, PoolingSpec::multi_hot(20, 160), 0.9);
        let mut last = -1.0;
        for hot in [0u64, 10, 1_000, 100_000, 1_000_000, 10_000_000] {
            let h = t.hit_rate(hot);
            assert!(h >= last, "hit rate not monotone at {hot}");
            assert!((0.0..=1.0).contains(&h));
            last = h;
        }
        assert_eq!(t.hit_rate(0), 0.0);
        assert!((t.hit_rate(1_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid pooling range")]
    fn zero_min_pooling_rejected() {
        let _ = PoolingSpec::multi_hot(0, 5);
    }

    #[test]
    fn table_id_roundtrip() {
        assert_eq!(TableId::new(7).index(), 7);
    }
}
