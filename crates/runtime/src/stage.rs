//! Per-query completion state both clock modes share: lock-free phase
//! attribution and retirement of the sub-queries ([`Sub`]) a query splits
//! into.
//!
//! The [`QueryTable`] is a window over the live queries. A query's id is its
//! arrival index, whichever slot holds it, so the ids that sub-queries, the
//! trace sampler and the deadline check carry stay valid. The stepped
//! virtual clock releases the leading slots of queries it has dispatched and
//! fully retired after each step (`VirtStepper::step_until`), so a replica
//! keeps only the queries it has not finished with (in flight, or injected
//! and not yet dispatched), however long it serves; the wall clock builds
//! its table from the whole trace and keeps every slot.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use hercules_common::units::{SimDuration, SimTime};
use hercules_sim::Sub;
use hercules_workload::query::Query;

/// Per-query completion state shared across workers.
///
/// Workers attribute phase times with relaxed atomic adds and decrement
/// `remaining` with acquire-release ordering, so the worker that retires
/// the last sub-query observes every sibling's contribution before it
/// reads the totals — the lock-free analogue of the simulator's `QueryRec`.
#[derive(Debug)]
pub(crate) struct QuerySlot {
    pub arrival: SimTime,
    remaining: AtomicU32,
    queuing_ns: AtomicU64,
    loading_ns: AtomicU64,
    inference_ns: AtomicU64,
    /// Degraded/expired markers ([`FLAG_DEGRADED`], [`FLAG_EXPIRED`]),
    /// sticky across siblings.
    flags: AtomicU32,
}

/// At least one of the query's gathers was served degraded (cache-hit rows
/// only).
pub(crate) const FLAG_DEGRADED: u32 = 1;
/// At least one of the query's sub-queries expired past its deadline and
/// was dropped at dequeue; the query retires as expired, not completed.
pub(crate) const FLAG_EXPIRED: u32 = 2;

/// Phase-time totals of a fully-served query, read by the completing
/// worker.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueryPhases {
    pub queuing_s: f64,
    pub loading_s: f64,
    pub inference_s: f64,
}

/// A fully-retired query, read by whichever worker retired the last
/// sub-query: its end-to-end latency, phase totals, and degraded/expired
/// markers. The caller classifies on `flags` — [`FLAG_EXPIRED`] retires as
/// expired, otherwise a (possibly [`FLAG_DEGRADED`]) completion.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Retired {
    pub latency: SimDuration,
    pub phases: QueryPhases,
    pub flags: u32,
}

impl QuerySlot {
    fn new(arrival: SimTime) -> Self {
        QuerySlot {
            arrival,
            remaining: AtomicU32::new(0),
            queuing_ns: AtomicU64::new(0),
            loading_ns: AtomicU64::new(0),
            inference_ns: AtomicU64::new(0),
            flags: AtomicU32::new(0),
        }
    }
}

/// The run's live queries: one slot per arrival from the first query not
/// yet released (id `first`) to the last one added. Query ids are arrival
/// indices.
#[derive(Debug)]
pub(crate) struct QueryTable {
    first: u32,
    slots: VecDeque<QuerySlot>,
}

impl QueryTable {
    pub fn new(arrivals: &[Query]) -> Self {
        QueryTable {
            first: 0,
            slots: arrivals.iter().map(|q| QuerySlot::new(q.arrival)).collect(),
        }
    }

    /// Appends one slot for a query injected after construction (the
    /// stepped executor feeds arrivals incrementally instead of upfront).
    /// Returns the new query's id.
    pub fn push(&mut self, arrival: SimTime) -> u32 {
        let id = self.first + self.slots.len() as u32;
        self.slots.push_back(QuerySlot::new(arrival));
        id
    }

    /// Drops the leading slots of queries that have been dispatched (ids
    /// below `dispatched`) and have no sub-query outstanding: nothing reads
    /// them again. A query not yet dispatched has no sub-query outstanding
    /// either, which is why the dispatch count bounds the release.
    pub fn release(&mut self, dispatched: u64) {
        while let Some(slot) = self.slots.front_mut() {
            if u64::from(self.first) >= dispatched || *slot.remaining.get_mut() > 0 {
                break;
            }
            self.slots.pop_front();
            self.first += 1;
        }
    }

    fn slot(&self, query: u32) -> &QuerySlot {
        &self.slots[(query - self.first) as usize]
    }

    pub fn arrival(&self, query: u32) -> SimTime {
        self.slot(query).arrival
    }

    /// Marks a query admitted with `n_subs` outstanding sub-queries. Must
    /// happen before its subs become visible to workers.
    pub fn admit(&self, query: u32, n_subs: u32) {
        self.slot(query).remaining.store(n_subs, Ordering::Release);
    }

    /// Attributes queue wait to `sub`'s parent (divided evenly across
    /// siblings, exactly like the simulator's integer-nanosecond split).
    pub fn add_queuing(&self, sub: &Sub, wait: SimDuration) {
        self.add(&self.slot(sub.query).queuing_ns, sub, wait);
    }

    /// Attributes host-to-device loading time to `sub`'s parent.
    pub fn add_loading(&self, sub: &Sub, dur: SimDuration) {
        self.add(&self.slot(sub.query).loading_ns, sub, dur);
    }

    /// Attributes service (inference) time to `sub`'s parent.
    pub fn add_inference(&self, sub: &Sub, dur: SimDuration) {
        self.add(&self.slot(sub.query).inference_ns, sub, dur);
    }

    fn add(&self, cell: &AtomicU64, sub: &Sub, dur: SimDuration) {
        let share = dur.as_nanos() / sub.n_subs.max(1) as u64;
        cell.fetch_add(share, Ordering::Relaxed);
    }

    /// Retires one sub-query at `now`; when it was the last outstanding
    /// one, returns the query's end-to-end latency, phase totals, and
    /// flags.
    pub fn complete(&self, sub: &Sub, now: SimTime) -> Option<Retired> {
        let slot = self.slot(sub.query);
        if slot.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return None;
        }
        Some(self.retire(slot, now))
    }

    /// Drops one *expired* sub-query at dequeue: marks the query expired
    /// and retires the sub without serving it. Returns the retired query
    /// when this was the last outstanding sub.
    pub fn drop_expired(&self, sub: &Sub, now: SimTime) -> Option<Retired> {
        let slot = self.slot(sub.query);
        slot.flags.fetch_or(FLAG_EXPIRED, Ordering::Relaxed);
        if slot.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return None;
        }
        Some(self.retire(slot, now))
    }

    /// Marks `sub`'s parent query as having received a degraded gather.
    pub fn mark_degraded(&self, sub: &Sub) {
        self.slot(sub.query)
            .flags
            .fetch_or(FLAG_DEGRADED, Ordering::Relaxed);
    }

    fn retire(&self, slot: &QuerySlot, now: SimTime) -> Retired {
        Retired {
            latency: now.saturating_since(slot.arrival),
            phases: QueryPhases {
                queuing_s: slot.queuing_ns.load(Ordering::Relaxed) as f64 / 1e9,
                loading_s: slot.loading_ns.load(Ordering::Relaxed) as f64 / 1e9,
                inference_s: slot.inference_ns.load(Ordering::Relaxed) as f64 / 1e9,
            },
            flags: slot.flags.load(Ordering::Relaxed),
        }
    }

    /// Queries with outstanding sub-queries (admitted but unfinished).
    pub fn in_flight(&self) -> u64 {
        self.slots
            .iter()
            .filter(|s| s.remaining.load(Ordering::Acquire) > 0)
            .count() as u64
    }
}

#[cfg(test)]
impl QueryTable {
    /// The window: the first slot's id and how many slots it holds.
    pub fn window(&self) -> (u32, usize) {
        (self.first, self.slots.len())
    }

    /// Whether `query` has sub-queries outstanding.
    pub fn outstanding(&self, query: u32) -> bool {
        self.slot(query).remaining.load(Ordering::Acquire) > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_common::units::Qps;
    use hercules_workload::generator::QueryStream;

    fn sub(query: u32, n_subs: u32) -> Sub {
        Sub {
            query,
            items: 64,
            n_subs,
            ready: SimTime::ZERO,
            retries: 0,
        }
    }

    #[test]
    fn release_keeps_undispatched_and_in_flight_slots() {
        let mut table = QueryTable::new(&[]);
        let at = |q: u32| SimTime::from_millis(u64::from(q));
        for q in 0..6 {
            assert_eq!(table.push(at(q)), q, "ids are arrival indices");
        }
        // Queries 0-4 are dispatched: 0 and 2 hold one sub each, 1 and 4
        // two, and 3 was shed. Query 5 still waits to be dispatched.
        for (q, n) in [(0, 1), (1, 2), (2, 1), (4, 2)] {
            table.admit(q, n);
        }
        // Retires every sub of `q` at 10 ms: the last one retires the query.
        let retire = |table: &QueryTable, q: u32, n: u32| {
            let last = (0..n).filter_map(|_| table.complete(&sub(q, n), at(10)));
            assert_eq!(last.count(), 1, "query {q} retires once");
        };
        retire(&table, 0, 1);
        retire(&table, 2, 1);
        let in_flight = table.in_flight();
        assert_eq!(in_flight, 2);

        // Query 1 is in flight, so only query 0 goes.
        table.release(5);
        assert_eq!(table.window(), (1, 5));
        assert_eq!(table.in_flight(), in_flight);

        // Once query 1 retires, 2 and the shed 3 go with it; 4 stays.
        retire(&table, 1, 2);
        table.release(5);
        assert_eq!(table.window(), (4, 2));
        assert!(table.outstanding(4));
        assert_eq!(table.in_flight(), 1);

        // Ids survive the release: query 4 retires with its own arrival.
        assert!(table.complete(&sub(4, 2), at(12)).is_none());
        let r = table.complete(&sub(4, 2), at(12)).expect("last sub");
        assert_eq!(r.latency, at(12).saturating_since(at(4)));

        // Query 5 has no sub outstanding but was never dispatched.
        table.release(5);
        assert_eq!(table.window(), (5, 1));
        assert_eq!(table.arrival(5), at(5));
        assert_eq!(table.push(at(6)), 6);
        assert_eq!(table.in_flight(), 0);
    }

    #[test]
    fn query_table_attributes_and_completes() {
        let mut stream = QueryStream::paper(Qps(1000.0), 3);
        let queries = stream.take_until(SimTime::from_millis(50));
        let table = QueryTable::new(&queries);
        table.admit(0, 2);
        assert_eq!(table.in_flight(), 1);
        let a = sub(0, 2);
        table.add_queuing(&a, SimDuration::from_micros(100));
        table.add_inference(&a, SimDuration::from_millis(4));
        assert!(table.complete(&a, SimTime::from_millis(10)).is_none());
        let b = sub(0, 2);
        table.add_inference(&b, SimDuration::from_millis(4));
        let r = table
            .complete(&b, SimTime::from_millis(12))
            .expect("last sub completes the query");
        assert_eq!(
            r.latency,
            SimTime::from_millis(12).saturating_since(table.arrival(0))
        );
        assert_eq!(r.flags, 0, "undegraded, unexpired query carries no flags");
        // Each contribution was divided by the sibling count.
        assert!((r.phases.inference_s - 4e-3).abs() < 1e-9);
        assert!((r.phases.queuing_s - 50e-6).abs() < 1e-9);
        assert_eq!(table.in_flight(), 0);
    }

    #[test]
    fn degraded_and_expired_flags_are_sticky_across_siblings() {
        let mut stream = QueryStream::paper(Qps(1000.0), 3);
        let queries = stream.take_until(SimTime::from_millis(50));
        let table = QueryTable::new(&queries);

        // Query 0: one sub served degraded, the sibling served normally —
        // the query retires as a degraded completion.
        table.admit(0, 2);
        let a = sub(0, 2);
        table.mark_degraded(&a);
        assert!(table.complete(&a, SimTime::from_millis(5)).is_none());
        let r = table.complete(&sub(0, 2), SimTime::from_millis(6)).unwrap();
        assert_eq!(r.flags & FLAG_DEGRADED, FLAG_DEGRADED);
        assert_eq!(r.flags & FLAG_EXPIRED, 0);

        // Query 1: one sub served, the last one expired at dequeue — the
        // mixed query retires as expired even though work was done on it.
        table.admit(1, 2);
        assert!(table
            .complete(&sub(1, 2), SimTime::from_millis(7))
            .is_none());
        let r = table
            .drop_expired(&sub(1, 2), SimTime::from_millis(9))
            .expect("last sub retires the query");
        assert_eq!(r.flags & FLAG_EXPIRED, FLAG_EXPIRED);
        assert_eq!(table.in_flight(), 0, "expired queries leave no residue");
    }
}
