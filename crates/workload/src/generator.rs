//! Query arrival generation: Poisson arrivals with heavy-tailed sizes
//! (the paper's trace-driven load generator, Fig. 13).

use hercules_common::dist::Exponential;
use hercules_common::rng::SimRng;
use hercules_common::units::{Qps, SimDuration, SimTime};

use crate::query::{Query, QueryId, QuerySizeDist};

/// Arrival instants at one rate: each gap is the one a unit-rate
/// exponential draw maps to at that rate.
#[derive(Debug, Clone)]
struct Clock {
    gap: Exponential,
    now: SimTime,
}

impl Clock {
    fn new(rate: Qps) -> Self {
        assert!(rate.value() > 0.0, "arrival rate must be positive");
        Clock {
            gap: Exponential::with_rate(rate.value()),
            now: SimTime::ZERO,
        }
    }

    /// Advances by the gap unit-rate draw `unit` maps to.
    fn advance(&mut self, unit: f64) -> SimTime {
        self.now += SimDuration::from_secs_f64(self.gap.scale(unit));
        self.now
    }
}

/// What a query stream draws, free of its rate: each query's unit-rate
/// gap and its size, from the seed's forked arrival and size generators.
#[derive(Debug, Clone)]
struct Draws {
    gap_rng: SimRng,
    size_rng: SimRng,
    sizes: QuerySizeDist,
}

impl Draws {
    fn new(sizes: QuerySizeDist, seed: u64) -> Self {
        let mut root = SimRng::seed_from(seed);
        let gap_rng = root.fork();
        let size_rng = root.fork();
        Draws {
            gap_rng,
            size_rng,
            sizes,
        }
    }

    /// The next query's unit-rate gap and size.
    fn next(&mut self) -> (f64, u32) {
        let unit = Exponential::unit(&mut self.gap_rng);
        (unit, self.sizes.sample(&mut self.size_rng))
    }
}

/// A stream of [`Query`]s: Poisson arrivals x size distribution.
///
/// ```
/// use hercules_workload::generator::QueryStream;
/// use hercules_common::units::Qps;
///
/// let mut stream = QueryStream::paper(Qps(1000.0), 42);
/// let (a, b) = (stream.next_query(), stream.next_query());
/// assert!(b.arrival > a.arrival);
/// ```
#[derive(Debug, Clone)]
pub struct QueryStream {
    clock: Clock,
    draws: Draws,
    next_id: u64,
}

impl QueryStream {
    /// Creates a stream at `rate` queries/second with the given size
    /// distribution.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive and finite.
    pub fn new(rate: Qps, sizes: QuerySizeDist, seed: u64) -> Self {
        QueryStream {
            clock: Clock::new(rate),
            draws: Draws::new(sizes, seed),
            next_id: 0,
        }
    }

    /// The paper-shaped stream: Poisson arrivals, log-normal sizes.
    pub fn paper(rate: Qps, seed: u64) -> Self {
        QueryStream::new(rate, QuerySizeDist::paper(), seed)
    }

    /// The paper-shaped stream for co-located tenant index `tenant`.
    ///
    /// Tenant 0 is bit-identical to [`QueryStream::paper`] with the same
    /// seed (so a single-tenant co-location run reproduces the dedicated
    /// stream exactly); every further tenant draws from an independently
    /// offset seed, decorrelating arrival and size draws across tenants.
    pub fn tenant(rate: Qps, seed: u64, tenant: u32) -> Self {
        // SplitMix64's odd increment spreads tenant indices across the seed
        // space; index 0 leaves the seed untouched.
        let mixed = seed ^ (tenant as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        QueryStream::paper(rate, mixed)
    }

    /// Generates the next query.
    pub fn next_query(&mut self) -> Query {
        let (unit, size) = self.draws.next();
        let q = Query {
            id: QueryId(self.next_id),
            arrival: self.clock.advance(unit),
            size,
        };
        self.next_id += 1;
        q
    }

    /// Generates every query arriving before `horizon`.
    pub fn take_until(&mut self, horizon: SimTime) -> Vec<Query> {
        let mut out = Vec::new();
        loop {
            let q = self.next_query();
            if q.arrival >= horizon {
                break;
            }
            out.push(q);
        }
        out
    }
}

/// One seed's paper-stream draws kept at unit rate: each query's gap
/// `-ln(u)` and its size. A stream at rate `λ` draws the same `u` and
/// size and gaps by `-ln(u) / λ`, so [`replay`](UnitDraws::replay) at any
/// rate reproduces [`QueryStream::paper`] at that rate and seed bit for
/// bit, and a search probing many rates of one seed draws its stream once.
/// Draws are made as replays first reach them.
#[derive(Debug, Clone)]
pub struct UnitDraws {
    seed: u64,
    draws: Draws,
    kept: Vec<(f64, u32)>,
}

impl UnitDraws {
    /// The draws behind `QueryStream::paper(_, seed)`.
    pub fn paper(seed: u64) -> Self {
        UnitDraws {
            seed,
            draws: Draws::new(QuerySizeDist::paper(), seed),
            kept: Vec::new(),
        }
    }

    /// The seed the draws come from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The queries `QueryStream::paper(rate, seed).take_until(horizon)`
    /// returns, in order.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive and finite.
    pub fn replay(&mut self, rate: Qps, horizon: SimTime) -> impl Iterator<Item = Query> + '_ {
        let mut clock = Clock::new(rate);
        let mut next = 0;
        std::iter::from_fn(move || {
            if next == self.kept.len() {
                self.kept.push(self.draws.next());
            }
            let (unit, size) = self.kept[next];
            let arrival = clock.advance(unit);
            (arrival < horizon).then(|| {
                next += 1;
                Query {
                    id: QueryId(next as u64 - 1),
                    arrival,
                    size,
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_rate_converges() {
        let mut s = QueryStream::paper(Qps(5_000.0), 7);
        let qs = s.take_until(SimTime::from_secs(10));
        let rate = qs.len() as f64 / 10.0;
        assert!((rate - 5_000.0).abs() / 5_000.0 < 0.05, "rate {rate}");
    }

    #[test]
    fn arrivals_strictly_ordered_and_ids_monotone() {
        let mut s = QueryStream::paper(Qps(1_000.0), 11);
        let qs = s.take_until(SimTime::from_secs(2));
        for pair in qs.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
            assert!(pair[0].id < pair[1].id);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = QueryStream::paper(Qps(500.0), 99);
        let mut b = QueryStream::paper(Qps(500.0), 99);
        for _ in 0..100 {
            assert_eq!(a.next_query(), b.next_query());
        }
    }

    #[test]
    fn tenant_zero_is_the_dedicated_stream() {
        let mut base = QueryStream::paper(Qps(800.0), 0xC0FFEE);
        let mut t0 = QueryStream::tenant(Qps(800.0), 0xC0FFEE, 0);
        for _ in 0..200 {
            assert_eq!(base.next_query(), t0.next_query());
        }
    }

    #[test]
    fn tenant_streams_decorrelate() {
        let mut a = QueryStream::tenant(Qps(800.0), 7, 1);
        let mut b = QueryStream::tenant(Qps(800.0), 7, 2);
        let same = (0..100)
            .filter(|_| a.next_query() == b.next_query())
            .count();
        assert!(same < 5, "tenant streams must differ, {same} collisions");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = QueryStream::paper(Qps(500.0), 1);
        let mut b = QueryStream::paper(Qps(500.0), 2);
        let same = (0..50).filter(|_| a.next_query() == b.next_query()).count();
        assert!(same < 5);
    }

    #[test]
    fn gaps_look_exponential() {
        let mut s = QueryStream::paper(Qps(10_000.0), 5);
        let mut gaps = Vec::new();
        let mut last = SimTime::ZERO;
        for _ in 0..20_000 {
            let t = s.next_query().arrival;
            gaps.push((t - last).as_secs_f64());
            last = t;
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 1e-4).abs() / 1e-4 < 0.05);
        // CV of an exponential is 1.
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }
}
