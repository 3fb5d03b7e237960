//! Spans the benchmark records around its own calls into each layer, their
//! self times, and the Chrome trace that holds them beside the runtime's
//! per-query spans.
//!
//! Recording is off in end-to-end runs: `enter` and `exit` then do nothing.

use std::fmt::Write as _;
use std::time::Instant;

use hercules_runtime::TraceEvent;

/// One recorded span: microseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
}

/// A batch of the runtime's own query spans, placed on the benchmark's
/// timeline at `offset_us` (the runtime's clock starts at zero per serve).
struct QueryBatch {
    offset_us: f64,
    events: Vec<TraceEvent>,
}

/// In-memory span recorder, written out once when the run ends.
pub struct Spans {
    on: bool,
    origin: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
    queries: Vec<QueryBatch>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
            queries: Vec::new(),
        }
    }

    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id` and any span opened inside it that is still open.
    pub fn exit(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id {
                break;
            }
        }
    }

    /// Adds the runtime's query spans from a serve that started at
    /// `offset_us` on this recorder's clock.
    pub fn add_queries(&mut self, offset_us: f64, events: Vec<TraceEvent>) {
        if self.on {
            self.queries.push(QueryBatch { offset_us, events });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the part its children
    /// cover.
    pub fn self_us(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_us, c.end_us))
            .collect();
        self_time(s.start_us, s.end_us, &children)
    }

    /// Chrome trace-event JSON: the benchmark's spans on process 0, the
    /// runtime's query spans on process 1, and `host` as metadata.
    pub fn chrome_json(&self, host: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"metadata\":");
        out.push_str(host);
        out.push_str(",\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"perfbench\"}},\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"runtime queries\"}}",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3}}}}}",
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                self.self_us(i),
            );
        }
        for batch in &self.queries {
            for e in &batch.events {
                let ts = batch.offset_us + e.start.as_nanos() as f64 / 1e3;
                let kind = e.kind.label();
                if e.kind.is_instant() {
                    let _ = write!(
                        out,
                        ",{{\"name\":\"{kind}\",\"cat\":\"query\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
                         \"tid\":{},\"ts\":{ts:.3},\"args\":{{\"query\":{}}}}}",
                        e.tid, e.query,
                    );
                } else {
                    let _ = write!(
                        out,
                        ",{{\"name\":\"{kind}\",\"cat\":\"query\",\"ph\":\"X\",\"pid\":1,\
                         \"tid\":{},\"ts\":{ts:.3},\"dur\":{:.3},\"args\":{{\"query\":{}}}}}",
                        e.tid,
                        e.dur.as_nanos() as f64 / 1e3,
                        e.query,
                    );
                }
            }
        }
        out.push_str("]}");
        out
    }
}

/// Duration of `[start, end]` minus the union of `children` clipped to it.
pub fn self_time(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    let mut iv: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (end - start - covered).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        assert_eq!(self_time(0.0, 10.0, &[]), 10.0);
        assert_eq!(self_time(0.0, 10.0, &[(2.0, 4.0), (6.0, 7.0)]), 7.0);
        // Overlapping children count their union, not their sum.
        assert_eq!(self_time(0.0, 10.0, &[(2.0, 6.0), (4.0, 8.0)]), 4.0);
        // Children are clipped to the parent.
        assert_eq!(self_time(0.0, 10.0, &[(-5.0, 2.0), (9.0, 20.0)]), 7.0);
        assert_eq!(self_time(0.0, 10.0, &[(0.0, 10.0), (3.0, 4.0)]), 0.0);
    }

    #[test]
    fn recorder_nests_and_reports_self_time() {
        let mut s = Spans::new(true);
        let outer = s.enter("outer");
        let inner = s.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.exit(inner);
        s.exit(outer);
        let spans = s.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let inner_dur = spans[1].end_us - spans[1].start_us;
        let outer_dur = spans[0].end_us - spans[0].start_us;
        assert!((s.self_us(0) - (outer_dur - inner_dur)).abs() < 1e-6);
        let json = s.chrome_json("{}");
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":0"));
    }

    #[test]
    fn recorder_off_records_nothing() {
        let mut s = Spans::new(false);
        let id = s.enter("x");
        s.exit(id);
        assert!(id.is_none() && s.spans().is_empty());
    }
}
