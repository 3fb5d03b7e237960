//! The observability plane's read side: assembles consistent per-stage
//! views from the workers' published snapshot slots and streams them to
//! pluggable sinks.
//!
//! A [`RuntimeObserver`] ticks at a configurable period. Each tick brings
//! its plane state up to the boundary: every stage's cumulative state,
//! summed over its workers into buffers the observer reuses and
//! differenced against the last tick on the way, read from seqlock slots
//! (wall clock) or straight from the telemetry (virtual clock, where the
//! observer shares the event loop and boundaries are processed at exact
//! virtual instants). The window becomes a [`PlaneSnapshot`] of interval
//! rates and tail quantiles; the observer keeps the history and fans each
//! snapshot out to its sinks: a human status line, a JSON stream, a
//! Prometheus text file. A tick's cost follows the histogram buckets it
//! must visit: on the virtual clock, the buckets recorded into since its
//! last tick, which each worker marks in a `Touched` bitmap per histogram
//! and the tick takes; on the wall clock, whose seqlock reads carry no
//! such bits, all 1025 of the layout. After the first a tick allocates
//! only the snapshot's stage list. Everything here runs off the
//! serving path; the only cost workers pay is a bit set per record and,
//! on the wall clock, the one release-publish per batch on the write side
//! (`telemetry::TelemetrySlot`).
//!
//! The exporters are dependency-free by design: the Prometheus text
//! exposition format and the snapshot JSON are fixed, flat schemas, so the
//! writers are plain string formatting — no serde, no registry client.
//! Each exported series is declared once, as a row of its level's table
//! (`PLANE` or `STAGE`, built by `series!`): its NDJSON key, its value,
//! and its Prometheus family's type, name and help. Both writers loop over
//! the tables, so a new series is one row.

use std::io::Write;
use std::path::PathBuf;

use hercules_common::stats::{LatencyHistogram, WindowQuantiles};
use hercules_common::units::{SimDuration, SimTime};

use crate::pipeline::PoolView;
use crate::telemetry::{Counters, StageKind};

/// Bucket counts in [`LatencyHistogram::default_latency`]'s layout, as the
/// observer sums them.
pub(crate) trait Counts {
    /// The counts, overflow bucket last.
    fn counts(&self) -> &[u64];
    /// The counts' total.
    fn total(&self) -> u64;
}

impl Counts for LatencyHistogram {
    fn total(&self) -> u64 {
        self.count()
    }

    fn counts(&self) -> &[u64] {
        LatencyHistogram::counts(self)
    }
}

impl Counts for [u64] {
    fn total(&self) -> u64 {
        self.iter().sum()
    }

    fn counts(&self) -> &[u64] {
        self
    }
}

/// A pool member as the observer and the supervisor read it: a worker's
/// own telemetry on the virtual clock, which owns the event loop, or a
/// consistent read of the seqlock slot a wall-clock worker publishes into.
pub(crate) trait WorkerView {
    /// The worker's histogram type.
    type Hist: Counts + ?Sized;
    /// Cumulative additive counters.
    fn counters(&self) -> &Counters;
    /// Cumulative queue-wait histogram.
    fn queue_wait(&self) -> &Self::Hist;
    /// Cumulative end-to-end latency histogram (in-window completions).
    fn e2e(&self) -> &Self::Hist;
    /// The worker's last heartbeat.
    fn last_beat(&self) -> SimTime;
}

/// Words in a [`Touched`] bitmap: one bit for each of
/// [`LatencyHistogram::default_latency`]'s 1025 buckets.
const TOUCHED_WORDS: usize = 17;

/// The buckets of one histogram, in [`LatencyHistogram::default_latency`]'s
/// layout, recorded into since the bits were last taken: bit `i % 64` of
/// word `i / 64` stands for bucket `i`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Touched([u64; TOUCHED_WORDS]);

impl Touched {
    /// Marks bucket `i`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    /// Adds `other`'s buckets to these and clears them there.
    fn take_from(&mut self, other: &mut Touched) {
        for (mine, theirs) in self.0.iter_mut().zip(&mut other.0) {
            *mine |= std::mem::take(theirs);
        }
    }

    /// These buckets and `other`'s.
    fn union(mut self, other: &Touched) -> Touched {
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            *mine |= theirs;
        }
        self
    }

    /// Calls `f` on each marked bucket, ascending.
    fn for_each(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.0.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// [`Touched`] bits for the two histograms the observer windows: a
/// virtual-clock worker's own, set as it records, or a pool's, the union
/// of its workers' that an observer tick takes off them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct TouchedHists {
    /// Queue-wait buckets.
    pub queue_wait: Touched,
    /// End-to-end latency buckets.
    pub e2e: Touched,
}

impl TouchedHists {
    /// Moves `worker`'s bits into these, clearing them there.
    pub(crate) fn take_from(&mut self, worker: &mut TouchedHists) {
        self.queue_wait.take_from(&mut worker.queue_wait);
        self.e2e.take_from(&mut worker.e2e);
    }
}

/// One histogram summed over a pool's workers at the last boundary read,
/// in [`LatencyHistogram::default_latency`]'s layout, and its window since
/// the boundary before. The sum is brought up to date in place, bucket by
/// bucket: given the [`Touched`] bits since the last read, over only the
/// buckets recorded into since then, so a virtual-clock observer tick
/// costs what its window holds, not the layout's 1025 buckets; without
/// them, over every bucket. A read allocates nothing after the first.
#[derive(Debug, Clone, Default)]
pub(crate) struct HistSum {
    counts: Vec<u64>,
    total: u64,
    quantiles: [Option<f64>; 2],
    overflow: u64,
}

impl HistSum {
    /// An all-zero sum in `layout`'s bucket layout.
    pub(crate) fn new(layout: &LatencyHistogram) -> Self {
        HistSum {
            counts: vec![0; LatencyHistogram::counts(layout).len()],
            ..HistSum::default()
        }
    }

    /// The window's median and p99 (`None` when it is empty).
    pub(crate) fn quantiles(&self) -> [Option<f64>; 2] {
        self.quantiles
    }

    /// The window's observations past the layout's top bucket.
    pub(crate) fn window_overflow(&self) -> u64 {
        self.overflow
    }

    /// Brings the sum up to `parts`' current histograms (each read through
    /// `hist`) and records the window since the last sum: one pass over the
    /// buckets sums each bucket, differences it against the last sum,
    /// stores it, and feeds the quantile scan, whose total is known up
    /// front. With `touched`, the buckets recorded into since the last sum,
    /// the pass visits only those: every other bucket's window is empty.
    /// Without, it visits every bucket. The differencing routine behind
    /// every windowed quantile, on both clocks.
    pub(crate) fn advance<P, H: Counts + ?Sized>(
        &mut self,
        parts: &[P],
        hist: impl Fn(&P) -> &H,
        layout: &LatencyHistogram,
        touched: Option<&Touched>,
    ) {
        let total = parts.iter().map(|p| hist(p).total()).sum();
        if total == self.total {
            // Counts only grow, so an unchanged total is an unchanged sum.
            (self.quantiles, self.overflow) = ([None; 2], 0);
            return;
        }
        let last = self.counts.len() - 1;
        let overflow_before = self.counts[last];
        let mut scan = WindowQuantiles::new(layout, total - self.total, [0.50, 0.99]);
        let counts = &mut self.counts;
        let visit = |i: usize| {
            let now: u64 = parts.iter().map(|p| hist(p).counts()[i]).sum();
            scan.push(i, now - counts[i]);
            counts[i] = now;
        };
        match touched {
            Some(bits) => bits.for_each(visit),
            None => (0..=last).for_each(visit),
        }
        self.quantiles = scan.finish();
        self.overflow = self.counts[last] - overflow_before;
        self.total = total;
    }
}

impl Counts for HistSum {
    fn total(&self) -> u64 {
        self.total
    }

    fn counts(&self) -> &[u64] {
        &self.counts
    }
}

/// One stage at the last boundary read: its cumulative state, summed over
/// its workers, and its window since the boundary before.
#[derive(Debug, Clone)]
pub(crate) struct StageState {
    /// Which pool.
    pub stage: StageKind,
    /// Workers in the pool.
    pub workers: u32,
    /// Sum of the pool's worker counters (exact).
    pub counters: Counters,
    /// The counters' change over the window.
    pub window: Counters,
    /// Sum of the pool's queue-wait histograms.
    pub queue_wait: HistSum,
    /// Sum of the pool's end-to-end latency histograms (in-window
    /// completions).
    pub e2e: HistSum,
    /// Sub-queries queued ahead of the pool right now.
    pub queue_depth: usize,
}

/// Everything the observer sees at the last boundary read: per-stage
/// state plus the run-global admission counters, cumulative and windowed.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlaneState {
    layout: LatencyHistogram,
    /// The boundary's virtual time.
    pub t: SimTime,
    /// Time since the boundary before (since run start for the first).
    pub interval: SimDuration,
    /// Per-stage state, in pipeline order (stable across a run).
    pub stages: Vec<StageState>,
    /// Every stage's end-to-end histograms summed, when there are several
    /// (a lone stage's sum is the plane's).
    e2e: HistSum,
    /// Queries admitted since run start.
    pub admitted: u64,
    /// Queries shed since run start (budget, backpressure, or the
    /// degradation ladder's L3).
    pub shed: u64,
    /// Queries admitted over the window.
    pub admitted_window: u64,
    /// Queries shed over the window.
    pub shed_window: u64,
    /// Workers currently marked suspect by the supervisor (heartbeat
    /// stale while their pool has backlog).
    pub suspect_workers: u32,
    /// Workers confirmed dead (panicked, or removed after an injected
    /// fatal fault).
    pub dead_workers: u32,
    /// Current rung of the graceful-degradation ladder (0 = healthy,
    /// 1 = tightened batching, 2 = degraded gathers, 3 = shedding).
    pub degrade_level: u8,
}

impl PlaneState {
    /// Reads the boundary at `t` in place: each non-empty pool's workers
    /// (`pools` in [`StageKind`] order) summed, with every window since the
    /// last read, and the admission counters. Given `touched`, each pool's
    /// histogram buckets recorded into since this state's last read (in
    /// the same order), the histogram windows visit only those; without,
    /// they visit every bucket. The control-plane gauges are the caller's
    /// to set.
    pub(crate) fn advance<W: WorkerView>(
        &mut self,
        t: SimTime,
        admitted: u64,
        shed: u64,
        pools: [PoolView<'_, W>; 3],
        touched: Option<&[TouchedHists; 3]>,
    ) {
        let live = StageKind::ALL
            .into_iter()
            .zip(pools)
            .filter(|(_, (workers, _))| !workers.is_empty());
        if self.stages.is_empty() {
            // A run's pools are fixed, so its stages are built once.
            let layout = &self.layout;
            self.stages = live
                .clone()
                .map(|(stage, (workers, _))| StageState {
                    stage,
                    workers: workers.len() as u32,
                    counters: Counters::default(),
                    window: Counters::default(),
                    queue_wait: HistSum::new(layout),
                    e2e: HistSum::new(layout),
                    queue_depth: 0,
                })
                .collect();
            if self.stages.len() > 1 {
                self.e2e = HistSum::new(layout);
            }
        }
        for (s, (_, (workers, depth))) in self.stages.iter_mut().zip(live) {
            let mut now = Counters::default();
            for w in workers {
                now.add(w.counters());
            }
            s.window = now.since(&s.counters);
            s.counters = now;
            let bits = touched.map(|t| &t[s.stage.index()]);
            let layout = &self.layout;
            s.queue_wait
                .advance(workers, W::queue_wait, layout, bits.map(|b| &b.queue_wait));
            s.e2e.advance(workers, W::e2e, layout, bits.map(|b| &b.e2e));
            s.queue_depth = depth;
        }
        if self.stages.len() > 1 {
            let bits = touched.map(|t| t.iter().fold(Touched::default(), |u, b| u.union(&b.e2e)));
            self.e2e
                .advance(&self.stages, |s| &s.e2e, &self.layout, bits.as_ref());
        }
        self.interval = t.saturating_since(self.t);
        self.admitted_window = admitted - self.admitted;
        self.shed_window = shed - self.shed;
        (self.t, self.admitted, self.shed) = (t, admitted, shed);
    }

    /// Every stage's end-to-end latency summed.
    fn e2e(&self) -> &HistSum {
        match &self.stages[..] {
            [lone] => &lone.e2e,
            _ => &self.e2e,
        }
    }
}

/// One stage's windowed view over an observation interval.
#[derive(Debug, Clone)]
pub struct StageSnapshot {
    /// Which pool.
    pub stage: StageKind,
    /// Workers in the pool.
    pub workers: u32,
    /// Batches served this interval.
    pub batches: u64,
    /// Items served this interval.
    pub items: u64,
    /// Queries this stage retired this interval.
    pub completed: u64,
    /// Of those, queries served degraded (cache-hit rows only).
    pub completed_degraded: u64,
    /// Queries this stage retired expired (deadline drops) this interval.
    pub expired: u64,
    /// Cumulative batches since run start (Prometheus counters want
    /// monotone values).
    pub cum_batches: u64,
    /// Cumulative retired queries since run start.
    pub cum_completed: u64,
    /// Sub-queries queued ahead of the pool at the boundary.
    pub queue_depth: usize,
    /// Interval median queue wait, seconds (`None` when no batch ran).
    pub queue_wait_p50: Option<f64>,
    /// Interval tail queue wait, seconds.
    pub queue_wait_p99: Option<f64>,
    /// Interval median end-to-end latency of queries retired here.
    pub e2e_p50: Option<f64>,
    /// Interval tail end-to-end latency.
    pub e2e_p99: Option<f64>,
    /// Interval gather bandwidth, GB/s (0 without real gathers).
    pub gather_gbs: f64,
    /// Interval cache hit rate (`None` when no cached rows moved).
    pub cache_hit_rate: Option<f64>,
    /// Interval busy fraction: service time burned over interval × workers.
    pub utilization: f64,
}

/// One observation interval across the whole plane.
#[derive(Debug, Clone)]
pub struct PlaneSnapshot {
    /// Boundary time of this snapshot.
    pub t: SimTime,
    /// Interval length (time since the previous boundary).
    pub interval: SimDuration,
    /// Per-stage windowed views, pipeline order.
    pub stages: Vec<StageSnapshot>,
    /// Queries admitted this interval.
    pub admitted: u64,
    /// Queries shed this interval — the windowed shed signal the future
    /// autoscaler keys on.
    pub shed: u64,
    /// Cumulative admitted since run start.
    pub cum_admitted: u64,
    /// Cumulative shed since run start.
    pub cum_shed: u64,
    /// Queries completed this interval (summed over stages).
    pub completed: u64,
    /// Cumulative completions since run start.
    pub cum_completed: u64,
    /// Queries completed degraded this interval.
    pub completed_degraded: u64,
    /// Cumulative degraded completions since run start.
    pub cum_completed_degraded: u64,
    /// Queries dropped past their deadline this interval.
    pub expired: u64,
    /// Cumulative deadline drops since run start.
    pub cum_expired: u64,
    /// Completions this interval whose end-to-end latency overflowed the
    /// histogram's top bucket — a saturating tail the quantiles can't see.
    pub latency_overflow: u64,
    /// Cumulative histogram-overflow completions since run start.
    pub cum_latency_overflow: u64,
    /// Workers marked suspect at the boundary.
    pub suspect_workers: u32,
    /// Workers confirmed dead at the boundary.
    pub dead_workers: u32,
    /// Degradation-ladder rung at the boundary (0 = healthy).
    pub degrade_level: u8,
    /// Interval throughput: completions over the interval.
    pub qps: f64,
    /// Interval median end-to-end latency across all retiring stages.
    pub e2e_p50: Option<f64>,
    /// Interval tail end-to-end latency across all retiring stages.
    pub e2e_p99: Option<f64>,
}

impl PlaneSnapshot {
    /// Total queue depth across stages at the boundary.
    pub fn queue_depth(&self) -> usize {
        self.stages.iter().map(|s| s.queue_depth).sum()
    }

    /// Plane-wide interval gather bandwidth, GB/s.
    pub fn gather_gbs(&self) -> f64 {
        self.stages.iter().map(|s| s.gather_gbs).sum()
    }

    /// Plane-wide interval cache hit rate, when any cached rows moved.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        self.stages.iter().find_map(|s| s.cache_hit_rate)
    }
}

/// Where snapshots go. Sinks run on the observer thread (wall clock) or
/// the event loop (virtual clock), never on workers.
pub trait SnapshotSink: Send {
    /// Consumes one snapshot.
    fn publish(&mut self, snap: &PlaneSnapshot);
    /// Called once after the final snapshot (flush/close).
    fn finish(&mut self) {}
}

/// Assembles windowed [`PlaneSnapshot`]s from the plane's cumulative state
/// and fans them out to sinks. Pass one to
/// [`ServingRuntime::serve_observed`](crate::serve::ServingRuntime::serve_observed).
pub struct RuntimeObserver {
    period: SimDuration,
    sinks: Vec<Box<dyn SnapshotSink>>,
    history: Vec<PlaneSnapshot>,
    plane: PlaneState,
}

impl std::fmt::Debug for RuntimeObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeObserver")
            .field("period", &self.period)
            .field("sinks", &self.sinks.len())
            .field("snapshots", &self.history.len())
            .finish()
    }
}

impl RuntimeObserver {
    /// An observer snapshotting every `period` of virtual time (clamped to
    /// at least 1 ms), with no sinks — snapshots accumulate in
    /// [`history`](Self::history).
    pub fn every(period: SimDuration) -> Self {
        let floor = SimDuration::from_millis(1);
        RuntimeObserver {
            period: if period < floor { floor } else { period },
            sinks: Vec::new(),
            history: Vec::new(),
            plane: PlaneState::default(),
        }
    }

    /// Builder: adds a sink.
    pub fn with_sink(mut self, sink: Box<dyn SnapshotSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// The observation period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Every snapshot taken so far, oldest first. The last entry of a
    /// finished run is the exact end-of-run state (executors always take a
    /// final boundary after workers quiesce).
    pub fn history(&self) -> &[PlaneSnapshot] {
        &self.history
    }

    /// Makes room for exactly `snapshots` more snapshots in the history,
    /// for a caller that knows how many boundaries remain.
    pub fn reserve(&mut self, snapshots: usize) {
        self.history.reserve_exact(snapshots);
    }

    /// The history, moved out of the observer.
    pub fn into_history(self) -> Vec<PlaneSnapshot> {
        self.history
    }

    /// Sum of a windowed field across the whole history — the telescoped
    /// cumulative total, exact by construction.
    pub fn summed<F: Fn(&PlaneSnapshot) -> u64>(&self, f: F) -> u64 {
        self.history.iter().map(f).sum()
    }

    /// Ingests one boundary: `read` brings the observer's plane state up
    /// to it (cumulative sums and their windows since the last tick); the
    /// snapshot is recorded and published to sinks.
    pub(crate) fn tick(&mut self, read: impl FnOnce(&mut PlaneState)) {
        read(&mut self.plane);
        let snap = self.snapshot();
        for sink in &mut self.sinks {
            sink.publish(&snap);
        }
        self.history.push(snap);
    }

    /// The window the plane state last advanced over.
    fn snapshot(&self) -> PlaneSnapshot {
        let plane = &self.plane;
        let interval_s = plane.interval.as_secs_f64().max(1e-12);
        let mut stages = Vec::with_capacity(plane.stages.len());
        let (mut cum, mut window) = (Counters::default(), Counters::default());
        for s in &plane.stages {
            let (c, d) = (&s.counters, &s.window);
            cum.add(c);
            window.add(d);
            let [queue_wait_p50, queue_wait_p99] = s.queue_wait.quantiles();
            let [e2e_p50, e2e_p99] = s.e2e.quantiles();
            let cached = d.cache_hits + d.cache_misses;
            stages.push(StageSnapshot {
                stage: s.stage,
                workers: s.workers,
                batches: d.batches,
                items: d.items,
                completed: d.completed_total,
                completed_degraded: d.completed_degraded,
                expired: d.expired,
                cum_batches: c.batches,
                cum_completed: c.completed_total,
                queue_depth: s.queue_depth,
                queue_wait_p50,
                queue_wait_p99,
                e2e_p50,
                e2e_p99,
                gather_gbs: if d.gather_wall_s > 0.0 {
                    d.gather_bytes as f64 / d.gather_wall_s / 1e9
                } else {
                    0.0
                },
                cache_hit_rate: (cached > 0).then(|| d.cache_hits as f64 / cached as f64),
                utilization: (d.busy_ns as f64 / 1e9) / (interval_s * s.workers.max(1) as f64),
            });
        }
        let e2e = plane.e2e();
        let [e2e_p50, e2e_p99] = e2e.quantiles();
        PlaneSnapshot {
            t: plane.t,
            interval: plane.interval,
            admitted: plane.admitted_window,
            shed: plane.shed_window,
            cum_admitted: plane.admitted,
            cum_shed: plane.shed,
            completed: window.completed_total,
            cum_completed: cum.completed_total,
            completed_degraded: window.completed_degraded,
            cum_completed_degraded: cum.completed_degraded,
            expired: window.expired,
            cum_expired: cum.expired,
            latency_overflow: e2e.window_overflow(),
            // The histogram's trailing bucket is its overflow count.
            cum_latency_overflow: e2e.counts().last().copied().unwrap_or(0),
            suspect_workers: plane.suspect_workers,
            dead_workers: plane.dead_workers,
            degrade_level: plane.degrade_level,
            qps: window.completed_total as f64 / interval_s,
            e2e_p50,
            e2e_p99,
            stages,
        }
    }

    /// Flushes every sink after the run's final boundary.
    pub(crate) fn finish(&mut self) {
        for sink in &mut self.sinks {
            sink.finish();
        }
    }
}

// ---------------------------------------------------------------------------
// Sinks.

/// Prints one human-readable status line per snapshot to stderr (what
/// `serve_live --stats <secs>` shows).
#[derive(Debug, Default)]
pub struct StatusLine;

impl SnapshotSink for StatusLine {
    fn publish(&mut self, snap: &PlaneSnapshot) {
        let ms = |v: Option<f64>| match v {
            Some(s) => format!("{:.1}ms", s * 1e3),
            None => "-".to_string(),
        };
        let cache = match snap.cache_hit_rate() {
            Some(r) => format!("{r:.2}"),
            None => "-".to_string(),
        };
        let health = if snap.degrade_level > 0 || snap.suspect_workers > 0 || snap.dead_workers > 0
        {
            format!(
                " | L{} suspect {} dead {}",
                snap.degrade_level, snap.suspect_workers, snap.dead_workers
            )
        } else {
            String::new()
        };
        eprintln!(
            "[telemetry t={:>8.3}s] qps {:>7.1} | e2e p50 {:>8} p99 {:>8} | queue {:>5} | shed +{} (cum {}) | degraded +{} dropped +{} | cache {} | gather {:.2} GB/s{}",
            snap.t.as_secs_f64(),
            snap.qps,
            ms(snap.e2e_p50),
            ms(snap.e2e_p99),
            snap.queue_depth(),
            snap.shed,
            snap.cum_shed,
            snap.completed_degraded,
            snap.expired,
            cache,
            snap.gather_gbs(),
            health,
        );
    }
}

/// Prints a sink's first failed write to stderr. A sink cannot fail the
/// run it observes, and one line per snapshot would flood the stream.
fn report_first_failure(failed: &mut bool, sink: &dyn std::fmt::Display, r: std::io::Result<()>) {
    if let Err(e) = r {
        if !std::mem::replace(failed, true) {
            eprintln!("telemetry sink {sink}: {e}; later failures are not reported");
        }
    }
}

/// Streams one JSON object per snapshot, newline-delimited, to any writer.
/// The first write that fails is reported on stderr.
pub struct JsonLines<W: Write + Send> {
    w: W,
    failed: bool,
}

impl<W: Write + Send> JsonLines<W> {
    /// A sink writing NDJSON snapshots to `w`.
    pub fn new(w: W) -> Self {
        JsonLines { w, failed: false }
    }
}

impl JsonLines<std::io::BufWriter<std::fs::File>> {
    /// A sink writing NDJSON snapshots to the file at `path` (truncated).
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path.into())?;
        Ok(JsonLines::new(std::io::BufWriter::new(file)))
    }
}

impl<W: Write + Send> SnapshotSink for JsonLines<W> {
    fn publish(&mut self, snap: &PlaneSnapshot) {
        let written = writeln!(self.w, "{}", snapshot_json(snap));
        report_first_failure(&mut self.failed, &"NDJSON stream", written);
    }

    fn finish(&mut self) {
        let flushed = self.w.flush();
        report_first_failure(&mut self.failed, &"NDJSON stream", flushed);
    }
}

/// Rewrites a Prometheus text-exposition file on every snapshot (the
/// node-exporter "textfile collector" pattern: scrapers read the file, the
/// runtime never serves HTTP). Each exposition is written to a sibling
/// file named for the target plus `.tmp`, which a collector reading
/// `*.prom` skips, and renamed over the target, so a scrape reads one
/// whole exposition, never a torn one. The first write that fails is
/// reported on stderr.
#[derive(Debug)]
pub struct PrometheusFile {
    path: PathBuf,
    failed: bool,
}

impl PrometheusFile {
    /// A sink overwriting `path` with the latest exposition. It writes an
    /// empty exposition there at once, so a path that cannot be written,
    /// one in a missing directory say, fails here rather than mid-run.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let sink = PrometheusFile {
            path: path.into(),
            failed: false,
        };
        sink.replace("")?;
        Ok(sink)
    }

    /// Writes `text` to the temporary sibling and renames it over the
    /// target.
    fn replace(&self, text: &str) -> std::io::Result<()> {
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, &self.path)
    }
}

impl SnapshotSink for PrometheusFile {
    fn publish(&mut self, snap: &PlaneSnapshot) {
        let written = self.replace(&prometheus_text(snap));
        report_first_failure(&mut self.failed, &self.path.display(), written);
    }
}

// ---------------------------------------------------------------------------
// Dependency-free exporters.

/// A series' value: a count, or a reading that may be absent (`null` in
/// NDJSON, no Prometheus sample).
#[derive(Clone, Copy)]
enum Value {
    Count(u64),
    Reading(Option<f64>),
}

/// Integer fields export as counts.
macro_rules! counts {
    ($($int:ty),+) => {$(
        impl From<$int> for Value {
            fn from(n: $int) -> Value {
                Value::Count(n as u64)
            }
        }
    )+};
}

counts!(u64, u32, u8, usize);

impl From<Option<f64>> for Value {
    fn from(v: Option<f64>) -> Value {
        Value::Reading(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Reading(Some(v))
    }
}

impl Value {
    /// The value in NDJSON: a non-finite reading is `null` too.
    fn json(self) -> String {
        match self {
            Value::Count(n) => n.to_string(),
            Value::Reading(Some(v)) if v.is_finite() => format!("{v:?}"),
            Value::Reading(_) => "null".to_string(),
        }
    }

    /// The value as a Prometheus sample, `None` to leave the sample out.
    fn prom(self) -> Option<String> {
        match self {
            Value::Count(n) => Some(n.to_string()),
            Value::Reading(v) => v.map(|v| v.to_string()),
        }
    }
}

/// A Prometheus metric family.
struct Family {
    /// `counter` or `gauge`.
    kind: &'static str,
    name: &'static str,
    help: &'static str,
}

impl Family {
    /// The family's HELP and TYPE lines.
    fn header(&self) -> String {
        let Family { kind, name, help } = self;
        format!("# HELP {name} {help}\n# TYPE {name} {kind}\n")
    }
}

/// One exported series of a snapshot level `S`: its NDJSON key, how to
/// read it, and its Prometheus family, when it has them.
struct Series<S> {
    key: Option<&'static str>,
    value: fn(&S) -> Value,
    family: Option<Family>,
}

/// Declares a snapshot level's exported series, each once, as the table
/// both exporters loop over. A row is the series' NDJSON key (`_` for
/// none) and its value read from the snapshot `$s`, then, when it has a
/// Prometheus family, `=>` and the family's type, name and help. Rows run
/// in NDJSON key order, and families are written in row order.
macro_rules! series {
    ($table:ident: $level:ty as $s:ident {
        $($key:tt = $value:expr $(=> $kind:ident $name:literal $help:literal)?;)+
    }) => {
        const $table: &[Series<$level>] = &[$(Series {
            key: series!(@key $key),
            value: |$s| Value::from($value),
            family: series!(@family $($kind $name $help)?),
        }),+];
    };
    (@key _) => { None };
    (@key $key:literal) => { Some($key) };
    (@family) => { None };
    (@family $kind:ident $name:literal $help:literal) => {
        Some(Family { kind: stringify!($kind), name: $name, help: $help })
    };
}

series! {
    PLANE: PlaneSnapshot as s {
        "t_s" = s.t.as_secs_f64();
        "interval_s" = s.interval.as_secs_f64();
        "qps" = s.qps => gauge "hercules_interval_qps"
            "Completions per second over the last observation interval.";
        "completed" = s.completed;
        "cum_completed" = s.cum_completed => counter "hercules_completed_total"
            "Queries completed since run start.";
        "admitted" = s.admitted;
        "shed" = s.shed => gauge "hercules_interval_shed"
            "Queries shed over the last observation interval.";
        "cum_admitted" = s.cum_admitted => counter "hercules_admitted_total"
            "Queries admitted since run start.";
        "cum_shed" = s.cum_shed => counter "hercules_shed_total"
            "Queries shed at dispatch since run start.";
        "completed_degraded" = s.completed_degraded;
        "cum_completed_degraded" = s.cum_completed_degraded => counter "hercules_degraded_total"
            "Queries completed with degraded (cache-hit-only) gathers since run start.";
        "expired" = s.expired;
        "cum_expired" = s.cum_expired => counter "hercules_expired_total"
            "Queries dropped past their deadline since run start.";
        "latency_overflow" = s.latency_overflow;
        "cum_latency_overflow" = s.cum_latency_overflow => counter
            "hercules_latency_overflow_total"
            "Completions whose latency overflowed the histogram since run start.";
        "suspect_workers" = s.suspect_workers => gauge "hercules_suspect_workers"
            "Workers currently marked suspect by the supervisor.";
        "dead_workers" = s.dead_workers => gauge "hercules_dead_workers"
            "Workers confirmed dead (panicked or fatally faulted).";
        "degrade_level" = s.degrade_level => gauge "hercules_degrade_level"
            "Current graceful-degradation ladder rung (0 = healthy).";
        "e2e_p50_s" = s.e2e_p50 => gauge "hercules_e2e_p50_seconds"
            "Interval median end-to-end latency.";
        "e2e_p99_s" = s.e2e_p99 => gauge "hercules_e2e_p99_seconds"
            "Interval p99 end-to-end latency.";
        "queue_depth" = s.queue_depth();
        _ = s.stages.iter().map(|st| st.gather_gbs).find(|&g| g > 0.0) => gauge
            "hercules_gather_gbs" "Interval gather bandwidth (GB/s).";
        _ = s.cache_hit_rate() => gauge "hercules_cache_hit_rate"
            "Interval embedding-cache hit rate.";
    }
}

series! {
    STAGE: StageSnapshot as s {
        "workers" = s.workers;
        "batches" = s.batches;
        "items" = s.items;
        "completed" = s.completed;
        "queue_depth" = s.queue_depth => gauge "hercules_stage_queue_depth"
            "Sub-queries queued ahead of each stage.";
        "queue_wait_p50_s" = s.queue_wait_p50;
        "queue_wait_p99_s" = s.queue_wait_p99 => gauge "hercules_stage_queue_wait_p99_seconds"
            "Interval p99 queue wait per stage.";
        "e2e_p50_s" = s.e2e_p50;
        "e2e_p99_s" = s.e2e_p99;
        "gather_gbs" = s.gather_gbs;
        "cache_hit_rate" = s.cache_hit_rate;
        "utilization" = s.utilization => gauge "hercules_stage_utilization"
            "Interval busy fraction per stage.";
        _ = s.cum_batches => counter "hercules_stage_batches_total" "Batches served per stage.";
    }
}

/// One snapshot as a single-line JSON object (the NDJSON stream's row):
/// the plane's series, then each stage's, opened by its label.
pub fn snapshot_json(snap: &PlaneSnapshot) -> String {
    let mut s = String::with_capacity(1024);
    s.push('{');
    for row in PLANE {
        if let Some(key) = row.key {
            s.push_str(&format!("\"{key}\":{},", (row.value)(snap).json()));
        }
    }
    s.push_str("\"stages\":[");
    for (i, st) in snap.stages.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("{{\"stage\":\"{}\"", st.stage.label()));
        for row in STAGE {
            if let Some(key) = row.key {
                s.push_str(&format!(",\"{key}\":{}", (row.value)(st).json()));
            }
        }
        s.push('}');
    }
    s.push_str("]}");
    s
}

/// One snapshot in the Prometheus text exposition format: cumulative
/// counters plus interval gauges, per-stage series labeled by stage. A
/// plane family with no value is left out; a stage family keeps its
/// header and leaves out the stages with no value.
pub fn prometheus_text(snap: &PlaneSnapshot) -> String {
    let mut s = String::with_capacity(2048);
    for row in PLANE {
        if let (Some(f), Some(v)) = (&row.family, (row.value)(snap).prom()) {
            s.push_str(&format!("{}{} {v}\n", f.header(), f.name));
        }
    }
    for row in STAGE {
        let Some(f) = &row.family else { continue };
        s.push_str(&f.header());
        for st in &snap.stages {
            if let Some(v) = (row.value)(st).prom() {
                let stage = st.stage.label();
                s.push_str(&format!("{}{{stage=\"{stage}\"}} {v}\n", f.name));
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::WorkerSnap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier, Mutex};

    /// Ticks `obs` at `t_ms` over a two-worker front pool, seven deep,
    /// whose first worker has served `batches` batches and `completed`
    /// queries, with `shed` queries shed.
    fn tick(obs: &mut RuntimeObserver, t_ms: u64, batches: u64, completed: u64, shed: u64) {
        let hist_len = LatencyHistogram::default_latency().counts().len();
        let mut busy = WorkerSnap::zeroed(hist_len);
        busy.counters = Counters {
            batches,
            items: batches * 32,
            completed_total: completed,
            completed,
            busy_ns: batches * 1_000_000,
            ..Counters::default()
        };
        // Put every completion in some mid bucket so quantiles resolve.
        busy.e2e[500] = completed;
        busy.queue_wait[100] = batches;
        let front = [busy, WorkerSnap::zeroed(hist_len)];
        let none: &[WorkerSnap] = &[];
        let t = SimTime::from_millis(t_ms);
        obs.tick(|plane| {
            plane.advance(
                t,
                completed + shed,
                shed,
                [(&front, 7), (none, 0), (none, 0)],
                None,
            )
        });
    }

    #[test]
    fn deltas_telescope_to_cumulative_totals() {
        let mut obs = RuntimeObserver::every(SimDuration::from_millis(100));
        tick(&mut obs, 100, 10, 8, 1);
        tick(&mut obs, 200, 25, 20, 3);
        tick(&mut obs, 300, 60, 55, 3);
        let h = obs.history();
        assert_eq!(h.len(), 3);
        assert_eq!(obs.summed(|s| s.completed), 55);
        assert_eq!(obs.summed(|s| s.shed), 3);
        assert_eq!(obs.summed(|s| s.stages[0].batches), 60);
        assert_eq!(h.last().unwrap().cum_completed, 55);
        // Interval QPS: 35 completions over the last 100 ms.
        assert!((h[2].qps - 350.0).abs() < 1e-9);
        assert_eq!(h[1].stages[0].queue_depth, 7);
        assert!(h[1].e2e_p99.is_some());
        assert!(h[1].stages[0].utilization > 0.0);
    }

    /// Feeds random record streams into one front worker, then into two
    /// front workers and a back worker, and reads every tick both ways: the
    /// full scan and the touched-bucket visit must give the same windowed
    /// quantiles and overflow counts and the same cumulative sums. Windows
    /// may be empty, and latencies reach both the bottom bucket and the
    /// overflow bucket.
    #[test]
    fn touched_ticks_match_full_scans() {
        use crate::stage::QueryPhases;
        use crate::telemetry::WorkerTelemetry;
        use hercules_common::rng::SimRng;
        use hercules_common::units::Joules;
        use hercules_hw::cost::BatchCost;

        assert!(LatencyHistogram::default_latency().counts().len() <= 64 * TOUCHED_WORDS);
        let phases = QueryPhases {
            queuing_s: 0.0,
            loading_s: 0.0,
            inference_s: 0.0,
        };
        let cost = BatchCost {
            latency: SimDuration::from_micros(100),
            busy_core_time: SimDuration::from_micros(100),
            idle_fraction: 0.0,
            channel_bytes: 0.0,
            nmp_energy: Joules(0.0),
            gpu_busy: SimDuration::ZERO,
            gpu_util: 0.0,
            per_op: Vec::new(),
        };
        let run = SimDuration::from_secs(1);
        for (fronts, backs, seed) in [(1u32, 0u32, 3u64), (2, 1, 4)] {
            let mut rng = SimRng::seed_from(seed);
            let mut pools: [Vec<WorkerTelemetry>; 2] = [
                (0..fronts)
                    .map(|w| WorkerTelemetry::new(StageKind::Front, w, run))
                    .collect(),
                (0..backs)
                    .map(|w| WorkerTelemetry::new(StageKind::Back, w, run))
                    .collect(),
            ];
            let mut full = RuntimeObserver::every(SimDuration::from_millis(10));
            let mut touched = RuntimeObserver::every(SimDuration::from_millis(10));
            let (mut records, mut empty) = (0u64, 0);
            for tick in 1..=80u64 {
                let n = if rng.uniform() < 0.25 {
                    0
                } else {
                    rng.index(40)
                };
                empty += u32::from(n == 0);
                for _ in 0..n {
                    let p = usize::from(backs > 0 && rng.uniform() < 0.4);
                    let w = rng.index(pools[p].len());
                    // 1e-8 s to 1e6 s: under the first bucket's edge up to
                    // past the last one's.
                    let secs = 10f64.powf(rng.uniform() * 14.0 - 8.0);
                    let d = SimDuration::from_secs_f64(secs);
                    let worker = &mut pools[p][w];
                    if rng.uniform() < 0.5 {
                        worker.record_completion(d, &phases, true, false, true);
                    } else {
                        worker.record_cpu(SimTime::ZERO, d, 32, &cost);
                    }
                    records += 1;
                }
                let mut bits = [TouchedHists::default(); 3];
                for (b, pool) in bits.iter_mut().zip(pools.iter_mut()) {
                    for w in pool {
                        b.take_from(&mut w.touched);
                    }
                }
                let t = SimTime::from_millis(10 * tick);
                let views = [(&pools[0][..], 0), (&pools[1][..], 0), (&[][..], 0)];
                full.tick(|plane| plane.advance(t, records, 0, views, None));
                touched.tick(|plane| plane.advance(t, records, 0, views, Some(&bits)));
            }
            assert!(empty > 0, "some windows are empty");
            let last = &full.history()[79];
            assert!(last.cum_latency_overflow > 0, "some latencies overflow");
            assert_eq!(
                format!("{:?}", full.history()),
                format!("{:?}", touched.history()),
                "{fronts} front and {backs} back workers"
            );
            let (a, b) = (&full.plane, &touched.plane);
            let hists = |p: &PlaneState| -> Vec<(Vec<u64>, u64)> {
                let stages = p.stages.iter().flat_map(|s| [&s.queue_wait, &s.e2e]);
                let sums = stages.chain((p.stages.len() > 1).then_some(&p.e2e));
                sums.map(|h| (h.counts.clone(), h.total)).collect()
            };
            assert_eq!(hists(a), hists(b), "cumulative sums");
        }
    }

    #[test]
    fn sinks_receive_every_snapshot_and_finish() {
        #[derive(Default)]
        struct Counting {
            n: Arc<Mutex<(u32, bool)>>,
        }
        impl SnapshotSink for Counting {
            fn publish(&mut self, _snap: &PlaneSnapshot) {
                self.n.lock().unwrap().0 += 1;
            }
            fn finish(&mut self) {
                self.n.lock().unwrap().1 = true;
            }
        }
        let seen = Arc::new(Mutex::new((0, false)));
        let mut obs =
            RuntimeObserver::every(SimDuration::from_millis(50)).with_sink(Box::new(Counting {
                n: Arc::clone(&seen),
            }));
        tick(&mut obs, 50, 1, 1, 0);
        tick(&mut obs, 100, 2, 2, 0);
        obs.finish();
        assert_eq!(*seen.lock().unwrap(), (2, true));
    }

    #[test]
    fn exporters_render_wellformed_output() {
        let mut obs = RuntimeObserver::every(SimDuration::from_millis(100));
        tick(&mut obs, 100, 10, 8, 2);
        let snap = &obs.history()[0];
        let json = snapshot_json(snap);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"qps\":80.0"));
        assert!(json.contains("\"stage\":\"front\""));
        assert!(!json.contains("NaN"));
        assert!(json.contains("\"degrade_level\":0"));
        assert!(json.contains("\"cum_expired\":0"));
        let prom = prometheus_text(snap);
        assert!(prom.contains("hercules_completed_total 8"));
        assert!(prom.contains("hercules_shed_total 2"));
        assert!(prom.contains("hercules_degraded_total 0"));
        assert!(prom.contains("hercules_expired_total 0"));
        assert!(prom.contains("hercules_latency_overflow_total 0"));
        assert!(prom.contains("hercules_degrade_level 0"));
        assert!(prom.contains("hercules_dead_workers 0"));
        assert!(prom.contains("hercules_stage_queue_depth{stage=\"front\"} 7"));
        assert!(prom.contains("# TYPE hercules_interval_qps gauge"));
    }

    #[test]
    fn prometheus_file_is_replaced_whole() {
        let dir = std::env::temp_dir().join(format!("hercules_prom_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plane.prom");
        let mut obs = RuntimeObserver::every(SimDuration::from_millis(100));
        tick(&mut obs, 100, 10, 8, 2);
        tick(&mut obs, 200, 250, 200, 3);
        let snaps = obs.into_history();
        let whole: Vec<String> = snaps.iter().map(prometheus_text).collect();
        let mut sink = PrometheusFile::create(&path).unwrap();
        sink.publish(&snaps[0]);
        let (start, done) = (Barrier::new(2), AtomicBool::new(false));
        let reads = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                start.wait();
                let mut reads = 0;
                while !done.load(Ordering::Acquire) {
                    let text = std::fs::read_to_string(&path).unwrap();
                    assert!(whole.contains(&text), "torn read after {reads}: {text:?}");
                    reads += 1;
                }
                reads
            });
            start.wait();
            for i in 0..2000 {
                sink.publish(&snaps[i % 2]);
            }
            done.store(true, Ordering::Release);
            reader.join().unwrap()
        });
        assert!(reads > 0);
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["plane.prom"], "only the exposition is left");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sinks_fail_fast_on_a_missing_directory_and_flag_later_failures() {
        let dir = std::env::temp_dir().join(format!("hercules_sinks_{}", std::process::id()));
        let err = PrometheusFile::create(dir.join("plane.prom")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        let err = JsonLines::create(dir.join("plane.ndjson")).err().unwrap();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        assert!(!dir.exists(), "a failed create leaves nothing behind");

        // A directory that goes away mid-run: publishing neither panics
        // nor stays silent.
        std::fs::create_dir_all(&dir).unwrap();
        let mut sink = PrometheusFile::create(dir.join("plane.prom")).unwrap();
        assert_eq!(std::fs::read_to_string(dir.join("plane.prom")).unwrap(), "");
        std::fs::remove_dir_all(&dir).unwrap();
        let mut obs = RuntimeObserver::every(SimDuration::from_millis(100));
        tick(&mut obs, 100, 10, 8, 2);
        sink.publish(&obs.history()[0]);
        assert!(sink.failed);

        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("broken"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonLines::new(Broken);
        sink.publish(&obs.history()[0]);
        assert!(sink.failed);
    }

    #[test]
    fn json_lines_sink_streams_ndjson() {
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut obs = RuntimeObserver::every(SimDuration::from_millis(100))
            .with_sink(Box::new(JsonLines::new(SharedBuf(Arc::clone(&buf)))));
        tick(&mut obs, 100, 5, 4, 0);
        tick(&mut obs, 200, 9, 8, 0);
        obs.finish();
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = out.trim().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
