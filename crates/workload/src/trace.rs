//! Query-trace record and replay (the paper's *trace-driven load
//! generator*, Fig. 13).
//!
//! Traces serialize to a simple line-oriented text format (`id arrival_ns
//! size` per line with size ≥ 1, `#`-prefixed comments), so captured
//! workloads can be replayed bit-identically across machines and checked
//! into experiment repositories.

use std::fmt::Write as _;
use std::str::FromStr;

use hercules_common::units::{Qps, SimTime};

use crate::generator::QueryStream;
use crate::query::{Query, QueryId};

/// A recorded sequence of queries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryTrace {
    queries: Vec<Query>,
}

/// Errors parsing a serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseTraceError {
    /// A line did not have the `id arrival_ns size` shape, with a size of
    /// at least one item.
    MalformedLine {
        /// 1-based line number.
        line: usize,
    },
    /// Arrivals were not non-decreasing.
    OutOfOrder {
        /// 1-based line number.
        line: usize,
    },
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseTraceError::MalformedLine { line } => {
                write!(f, "malformed trace line {line}")
            }
            ParseTraceError::OutOfOrder { line } => {
                write!(f, "trace arrivals out of order at line {line}")
            }
        }
    }
}

impl std::error::Error for ParseTraceError {}

impl QueryTrace {
    /// Records a trace by sampling `stream` until `horizon`.
    pub fn record(stream: &mut QueryStream, horizon: SimTime) -> QueryTrace {
        QueryTrace {
            queries: stream.take_until(horizon),
        }
    }

    /// Builds a trace from explicit queries.
    ///
    /// # Panics
    ///
    /// Panics if arrivals are not non-decreasing.
    pub fn from_queries(queries: Vec<Query>) -> QueryTrace {
        assert!(
            queries.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "trace arrivals must be non-decreasing"
        );
        QueryTrace { queries }
    }

    /// The recorded queries, in arrival order.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Mean arrival rate over the trace span.
    pub fn mean_rate(&self) -> Qps {
        match (self.queries.first(), self.queries.last()) {
            (Some(first), Some(last)) if last.arrival > first.arrival => {
                let span = (last.arrival - first.arrival).as_secs_f64();
                Qps((self.queries.len() - 1) as f64 / span)
            }
            _ => Qps(0.0),
        }
    }

    /// Serializes to the line format.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.queries.len() * 24 + 64);
        out.push_str("# hercules query trace v1: id arrival_ns size\n");
        for q in &self.queries {
            writeln!(out, "{} {} {}", q.id.0, q.arrival.as_nanos(), q.size)
                .expect("writing to String cannot fail");
        }
        out
    }

    /// Parses the line format: `id arrival_ns size` per line, with a size
    /// of at least one item.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] on malformed lines (a size of 0
    /// included) or decreasing arrival times.
    pub fn from_text(text: &str) -> Result<QueryTrace, ParseTraceError> {
        let mut queries = Vec::new();
        let mut last_arrival = SimTime::ZERO;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(id), Some(arr), Some(size), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(ParseTraceError::MalformedLine { line: i + 1 });
            };
            let (Ok(id), Ok(arr), Ok(size @ 1..)) =
                (u64::from_str(id), u64::from_str(arr), u32::from_str(size))
            else {
                return Err(ParseTraceError::MalformedLine { line: i + 1 });
            };
            let arrival = SimTime::from_nanos(arr);
            if arrival < last_arrival {
                return Err(ParseTraceError::OutOfOrder { line: i + 1 });
            }
            last_arrival = arrival;
            queries.push(Query {
                id: QueryId(id),
                arrival,
                size,
            });
        }
        Ok(QueryTrace { queries })
    }

    /// Shards the trace across `n` sub-traces with `route(query) % n`
    /// picking the destination. Each sub-trace preserves the original
    /// arrival order (and therefore stays a valid trace); every query lands
    /// in exactly one shard with its id, arrival time, and size untouched.
    /// This is the fleet router's correctness precondition: splitting and
    /// [`merge`](QueryTrace::merge)-ing must reconstruct the exact query
    /// multiset (`tests/trace_props.rs` pins this).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn split_by<F>(&self, n: usize, mut route: F) -> Vec<QueryTrace>
    where
        F: FnMut(&Query) -> u64,
    {
        assert!(n > 0, "cannot split a trace across zero shards");
        let mut shards: Vec<Vec<Query>> = vec![Vec::new(); n];
        for q in &self.queries {
            shards[(route(q) % n as u64) as usize].push(*q);
        }
        shards
            .into_iter()
            .map(|queries| QueryTrace { queries })
            .collect()
    }

    /// Merges sub-traces back into one arrival-ordered trace (k-way merge;
    /// ties broken by query id, then size, so the merge of a
    /// [`split_by`](QueryTrace::split_by) is deterministic regardless of
    /// shard order).
    pub fn merge(parts: &[QueryTrace]) -> QueryTrace {
        let mut queries: Vec<Query> = parts
            .iter()
            .flat_map(|p| p.queries.iter().copied())
            .collect();
        queries.sort_by_key(|q| (q.arrival, q.id.0, q.size));
        QueryTrace { queries }
    }

    /// Replays the trace shifted to start at `offset` (id order preserved).
    pub fn replay_from(&self, offset: SimTime) -> impl Iterator<Item = Query> + '_ {
        let base = self.queries.first().map_or(SimTime::ZERO, |q| q.arrival);
        self.queries.iter().map(move |q| Query {
            id: q.id,
            arrival: offset + q.arrival.saturating_since(base),
            size: q.size,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> QueryTrace {
        let mut stream = QueryStream::paper(Qps(1_000.0), 9);
        QueryTrace::record(&mut stream, SimTime::from_secs(1))
    }

    #[test]
    fn roundtrip_through_text() {
        let t = sample_trace();
        assert!(t.len() > 800);
        let text = t.to_text();
        let back = QueryTrace::from_text(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn mean_rate_matches_generator() {
        let t = sample_trace();
        let rate = t.mean_rate().value();
        assert!((rate - 1_000.0).abs() / 1_000.0 < 0.1, "rate {rate}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(
            QueryTrace::from_text("1 2\n").unwrap_err(),
            ParseTraceError::MalformedLine { line: 1 }
        );
        assert_eq!(
            QueryTrace::from_text("0 100 5\n1 50 5\n").unwrap_err(),
            ParseTraceError::OutOfOrder { line: 2 }
        );
        assert_eq!(
            QueryTrace::from_text("a b c\n").unwrap_err(),
            ParseTraceError::MalformedLine { line: 1 }
        );
    }

    #[test]
    fn parse_rejects_empty_queries() {
        assert_eq!(
            QueryTrace::from_text("0 1000000 0\n1 2000000 100\n").unwrap_err(),
            ParseTraceError::MalformedLine { line: 1 }
        );
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let t = QueryTrace::from_text("# header\n\n0 10 5\n1 20 7\n").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.queries()[1].size, 7);
    }

    #[test]
    fn replay_shifts_offsets() {
        let t = QueryTrace::from_text("0 1000 5\n1 3000 7\n").unwrap();
        let replayed: Vec<Query> = t.replay_from(SimTime::from_micros(1)).collect();
        assert_eq!(replayed[0].arrival, SimTime::from_micros(1));
        assert_eq!(
            replayed[1].arrival,
            SimTime::from_micros(1) + hercules_common::units::SimDuration::from_nanos(2000)
        );
    }

    #[test]
    fn empty_trace_behaves() {
        let t = QueryTrace::default();
        assert!(t.is_empty());
        assert_eq!(t.mean_rate(), Qps(0.0));
        assert_eq!(QueryTrace::from_text(t.to_text().as_str()).unwrap(), t);
    }
}
