//! Sampled query tracing: a deterministic 1-in-N flight recorder.
//!
//! Tracing whole runs is too heavy for a serving hot path, but *sampled*
//! spans are nearly free: a stateless seeded hash decides per query whether
//! it is traced, every worker can re-derive the decision without shared
//! state, and span events land in fixed-capacity per-worker ring buffers
//! (no allocation, no locks — newest events overwrite the oldest, which is
//! exactly what a flight recorder wants). The merged events export as
//! Chrome trace-event JSON, loadable in `about://tracing` or Perfetto.
//!
//! Determinism: the sampling decision is a pure function of
//! `(seed, query_id)`, so virtual-clock runs trace the identical query set
//! every time, and the recorded spans — whose timestamps are virtual —
//! are bitwise-reproducible (asserted in `tests/observer_props.rs`).

use hercules_common::rng::splitmix64;
use hercules_common::units::{SimDuration, SimTime};

use crate::telemetry::StageKind;

/// What a span event measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Query admitted by the dispatcher (instant).
    Admit,
    /// Time a sub-query sat in a dispatch queue ahead of its stage.
    Queue,
    /// Real embedding gather inside the front worker (wall mode with
    /// [`GatherMode::Real`](crate::config::GatherMode::Real) only).
    Gather,
    /// Front-stage service (sparse + dense residual).
    Front,
    /// Host back-stage (dense) service.
    Back,
    /// PCIe load of a fused batch onto the accelerator.
    Load,
    /// Accelerator compute of a fused batch.
    Gpu,
    /// Last sub-query retired; the query is complete (instant).
    Complete,
}

impl SpanKind {
    /// Display/export label.
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Admit => "admit",
            SpanKind::Queue => "queue",
            SpanKind::Gather => "gather",
            SpanKind::Front => "front",
            SpanKind::Back => "back",
            SpanKind::Load => "load",
            SpanKind::Gpu => "gpu",
            SpanKind::Complete => "complete",
        }
    }

    /// Whether this kind is an instant marker rather than a span.
    pub fn is_instant(&self) -> bool {
        matches!(self, SpanKind::Admit | SpanKind::Complete)
    }
}

/// The dispatcher's trace-thread id (it is not a stage worker).
pub const DISPATCH_TID: u32 = 0;

/// Trace-thread id for a stage worker: stages get disjoint tid blocks so a
/// front worker 0 and a GPU context 0 render as distinct tracks.
pub fn stage_tid(stage: StageKind, worker: u32) -> u32 {
    let base = match stage {
        StageKind::Front => 0x100,
        StageKind::Back => 0x200,
        StageKind::Gpu => 0x300,
    };
    base + worker
}

/// One recorded span or instant event. `Copy` and fixed-size so ring
/// writes never allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Query index in the run's arrival order.
    pub query: u32,
    /// Track the event belongs to ([`stage_tid`] or [`DISPATCH_TID`]).
    pub tid: u32,
    /// What was measured.
    pub kind: SpanKind,
    /// Span start (virtual time).
    pub start: SimTime,
    /// Span duration ([`SimDuration::ZERO`] for instants).
    pub dur: SimDuration,
}

/// Decides, per query, whether it is traced: a splitmix64-style hash of
/// `seed ^ query` modulo N. Stateless, so every worker derives the same
/// decision for the same query without coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSampler {
    seed: u64,
    one_in: u32,
}

impl TraceSampler {
    /// A sampler tracing roughly one query in `one_in` (`0` traces none,
    /// `1` traces all).
    pub fn new(seed: u64, one_in: u32) -> Self {
        TraceSampler { seed, one_in }
    }

    /// A sampler that never traces.
    pub fn off() -> Self {
        TraceSampler::new(0, 0)
    }

    /// Whether any query can be sampled at all.
    pub fn enabled(&self) -> bool {
        self.one_in > 0
    }

    /// Whether `query` is traced. Pure in `(seed, query)`.
    #[inline]
    pub fn sampled(&self, query: u32) -> bool {
        match self.one_in {
            0 => false,
            1 => true,
            n => {
                let mut state = self.seed ^ query as u64;
                splitmix64(&mut state) % n as u64 == 0
            }
        }
    }
}

/// A fixed-capacity ring of trace events: pushes never allocate after
/// construction, and once full the newest event overwrites the oldest
/// (flight-recorder semantics).
#[derive(Debug)]
pub struct TraceRing {
    events: Vec<TraceEvent>,
    /// Overwrite cursor once `events` reaches capacity.
    next: usize,
    /// Total pushes, including overwritten ones.
    recorded: u64,
}

impl TraceRing {
    /// A ring holding at most `capacity` events (clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRing {
            events: Vec::with_capacity(capacity.max(1)),
            next: 0,
            recorded: 0,
        }
    }

    /// Records one event. Never allocates: below capacity this is a push
    /// into pre-reserved space, at capacity it overwrites in place.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.events.capacity() {
            self.events.push(ev);
        } else {
            self.events[self.next] = ev;
            self.next = (self.next + 1) % self.events.capacity();
        }
        self.recorded += 1;
    }

    /// Events currently held, oldest first.
    pub fn events_in_order(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.next..]);
        out.extend_from_slice(&self.events[..self.next]);
        out
    }

    /// Total events pushed over the ring's lifetime.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }
}

/// Renders events as Chrome trace-event JSON (the object form, with a
/// `traceEvents` array), loadable in `about://tracing` / Perfetto.
/// Dependency-free: the schema is fixed, so the writer is a few string
/// pushes. Spans use phase `"X"` (complete events), instants phase `"i"`;
/// timestamps and durations are microseconds of virtual time.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 512);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    // Name the tracks that actually appear, dispatcher first.
    let mut tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    let mut first = true;
    for tid in &tids {
        if !first {
            out.push(',');
        }
        first = false;
        let name = tid_name(*tid);
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }
    for e in events {
        if !first {
            out.push(',');
        }
        first = false;
        let ts = e.start.as_nanos() as f64 / 1e3;
        if e.kind.is_instant() {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"hercules\",\"ph\":\"i\",\"s\":\"t\",\
                 \"pid\":1,\"tid\":{},\"ts\":{ts},\"args\":{{\"query\":{}}}}}",
                e.kind.label(),
                e.tid,
                e.query,
            ));
        } else {
            let dur = e.dur.as_nanos() as f64 / 1e3;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"hercules\",\"ph\":\"X\",\
                 \"pid\":1,\"tid\":{},\"ts\":{ts},\"dur\":{dur},\"args\":{{\"query\":{}}}}}",
                e.kind.label(),
                e.tid,
                e.query,
            ));
        }
    }
    out.push_str("]}");
    out
}

fn tid_name(tid: u32) -> String {
    if tid == DISPATCH_TID {
        return "dispatch".to_string();
    }
    let (stage, base) = match tid & 0xF00 {
        0x100 => ("front", 0x100),
        0x200 => ("back", 0x200),
        0x300 => ("gpu", 0x300),
        _ => return format!("tid-{tid}"),
    };
    format!("{stage}-{}", tid - base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_deterministic_and_respects_rate() {
        let s = TraceSampler::new(42, 64);
        let picks: Vec<bool> = (0..100_000).map(|q| s.sampled(q)).collect();
        let again: Vec<bool> = (0..100_000).map(|q| s.sampled(q)).collect();
        assert_eq!(picks, again, "pure function of (seed, query)");
        let hit = picks.iter().filter(|&&b| b).count();
        // 1-in-64 over 100k queries: expect ~1562, allow wide slack.
        assert!((800..2600).contains(&hit), "hit rate off: {hit}");
        // Different seeds pick different query sets.
        let other = TraceSampler::new(43, 64);
        assert!((0..100_000).any(|q| s.sampled(q) != other.sampled(q)));
        assert!(!TraceSampler::off().sampled(0));
        assert!(TraceSampler::new(7, 1).sampled(12345));
    }

    #[test]
    fn ring_overwrites_oldest_without_allocating() {
        let mut r = TraceRing::with_capacity(4);
        let ev = |q: u32| TraceEvent {
            query: q,
            tid: DISPATCH_TID,
            kind: SpanKind::Admit,
            start: SimTime::from_micros(q as u64),
            dur: SimDuration::ZERO,
        };
        for q in 0..6 {
            r.push(ev(q));
        }
        assert_eq!(r.recorded(), 6);
        let qs: Vec<u32> = r.events_in_order().iter().map(|e| e.query).collect();
        assert_eq!(qs, vec![2, 3, 4, 5], "oldest overwritten, order kept");
        assert_eq!(r.events.capacity(), 4, "never grew");
    }

    #[test]
    fn chrome_export_names_tracks_and_emits_spans() {
        let events = [
            TraceEvent {
                query: 3,
                tid: DISPATCH_TID,
                kind: SpanKind::Admit,
                start: SimTime::from_micros(10),
                dur: SimDuration::ZERO,
            },
            TraceEvent {
                query: 3,
                tid: stage_tid(StageKind::Front, 1),
                kind: SpanKind::Front,
                start: SimTime::from_micros(15),
                dur: SimDuration::from_micros(40),
            },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"front\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"args\":{\"name\":\"front-1\"}"));
        assert!(json.contains("\"dur\":40"));
    }
}
