//! # hercules-workload
//!
//! Synthetic production workloads for the Hercules reproduction: Poisson
//! query arrivals with heavy-tailed working sets (paper Fig. 2b/2c),
//! synchronized diurnal load curves (Fig. 2d/8b), and the model-evolution
//! mix schedule (Fig. 16a). Deterministic given seeds.
//!
//! ```
//! use hercules_workload::generator::QueryStream;
//! use hercules_common::units::{Qps, SimTime};
//!
//! let mut stream = QueryStream::paper(Qps(2_000.0), 42);
//! let queries = stream.take_until(SimTime::from_secs(1));
//! assert!(queries.len() > 1_500 && queries.len() < 2_500);
//! ```

pub mod diurnal;
pub mod evolution;
pub mod generator;
pub mod query;

pub use diurnal::DiurnalPattern;
pub use generator::{QueryStream, UnitDraws};
pub use query::{PoolingDist, Query, QueryId, QuerySizeDist};
