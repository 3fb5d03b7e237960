//! Table-driven consumer test for the telemetry plane's health fields:
//! every supervisor transition (suspect/dead worker counts, degrade
//! level) that `RuntimeObserver::history()` records must appear in the
//! NDJSON stream and the Prometheus exposition within the same observer
//! tick — an external consumer never sees health state later than an
//! in-process one.

use std::io::Write;
use std::sync::{Arc, Mutex};

use hercules_common::units::{Qps, SimDuration};
use hercules_hw::server::ServerType;
use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
use hercules_runtime::{
    DeadlinePolicy, FaultPlan, JsonLines, PlaneSnapshot, PrometheusFile, RuntimeConfig,
    RuntimeObserver, ServingRuntime, SnapshotSink, SupervisorPolicy,
};
use hercules_sim::{NmpLutCache, PlacementPlan, SimConfig};

/// `Write` into a shared buffer, so the test can read the NDJSON stream
/// the observer produced.
#[derive(Clone)]
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

/// Reads the Prometheus file *after* the `PrometheusFile` sink (added
/// first) overwrote it, capturing the exposition each tick publishes.
struct PromCapture {
    path: std::path::PathBuf,
    seen: Arc<Mutex<Vec<String>>>,
}

impl SnapshotSink for PromCapture {
    fn publish(&mut self, _snap: &PlaneSnapshot) {
        let text = std::fs::read_to_string(&self.path).expect("exposition written this tick");
        self.seen.lock().unwrap().push(text);
    }
}

/// Extracts the integer following `"key":` in a one-line JSON object.
fn json_u64(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat).unwrap_or_else(|| panic!("{key} in {line}"));
    line[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("integer health field")
}

/// Extracts the value of gauge `name` from a Prometheus exposition.
fn prom_gauge(text: &str, name: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or_else(|| panic!("{name} in exposition")) as u64
}

fn runtime(scenario: &str, duration: SimDuration, seed: u64) -> ServingRuntime {
    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let cfg = RuntimeConfig::from_sim(&SimConfig {
        duration,
        warmup_fraction: 0.15,
        drain_margin: SimDuration::ZERO,
        seed,
    })
    .with_faults(FaultPlan::scenario(scenario, seed, duration).expect("known scenario"))
    .with_deadline(DeadlinePolicy::enforce(model.default_sla()))
    .with_supervisor(SupervisorPolicy::active(SimDuration::from_millis(2)));
    let plan = PlacementPlan::CpuModel {
        threads: 2,
        workers: 2,
        batch: 256,
    };
    ServingRuntime::build(
        &model,
        ServerType::T2.spec(),
        &plan,
        cfg,
        &NmpLutCache::new(),
    )
    .expect("plan is feasible")
}

#[test]
fn health_transitions_reach_every_exporter_within_one_tick() {
    // Each row: (scenario, offered QPS, which health signal the fault must
    // move). The load is chosen so the supervisor genuinely transitions —
    // a run with no health activity would pass the echo checks vacuously.
    struct Row {
        scenario: &'static str,
        offered: f64,
        expect: fn(&[PlaneSnapshot]) -> bool,
        why: &'static str,
    }
    let rows = [
        Row {
            scenario: "stall+slowcore",
            offered: 300.0,
            expect: |h| h.iter().any(|s| s.degrade_level >= 2),
            why: "the stall must walk the ladder to L2+",
        },
        Row {
            scenario: "panic",
            offered: 250.0,
            expect: |h| h.iter().any(|s| s.dead_workers > 0),
            why: "the panicked worker must be marked dead",
        },
    ];

    for row in rows {
        let duration = SimDuration::from_millis(2000);
        let rt = runtime(row.scenario, duration, 7);

        let ndjson = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let prom_path = std::env::temp_dir().join(format!(
            "hercules_health_{}_{}.prom",
            row.scenario.replace('+', "_"),
            std::process::id()
        ));
        let prom_seen = Arc::new(Mutex::new(Vec::new()));
        let mut obs = RuntimeObserver::every(SimDuration::from_millis(50))
            .with_sink(Box::new(JsonLines::new(ndjson.clone())))
            .with_sink(Box::new(PrometheusFile::create(&prom_path).unwrap()))
            .with_sink(Box::new(PromCapture {
                path: prom_path.clone(),
                seen: Arc::clone(&prom_seen),
            }));
        rt.serve_observed(Qps(row.offered), &mut obs);

        let history = obs.history().to_vec();
        assert!((row.expect)(&history), "{}: {}", row.scenario, row.why);
        // The scripted fault must produce at least one *transition*, not a
        // constant level, so the per-tick echo checks below bite.
        assert!(
            history.windows(2).any(|w| (
                w[0].suspect_workers,
                w[0].dead_workers,
                w[0].degrade_level
            ) != (
                w[1].suspect_workers,
                w[1].dead_workers,
                w[1].degrade_level
            )),
            "{}: health state never changed",
            row.scenario
        );

        // NDJSON: one line per tick, health fields equal to the in-process
        // snapshot of the same tick.
        let bytes = ndjson.0.lock().unwrap().clone();
        let lines: Vec<String> = String::from_utf8(bytes)
            .expect("NDJSON is UTF-8")
            .lines()
            .map(str::to_string)
            .collect();
        assert_eq!(lines.len(), history.len(), "{}: NDJSON rows", row.scenario);
        for (i, (line, snap)) in lines.iter().zip(&history).enumerate() {
            assert_eq!(
                json_u64(line, "suspect_workers"),
                snap.suspect_workers as u64,
                "{} tick {i}",
                row.scenario
            );
            assert_eq!(
                json_u64(line, "dead_workers"),
                snap.dead_workers as u64,
                "{} tick {i}",
                row.scenario
            );
            assert_eq!(
                json_u64(line, "degrade_level"),
                snap.degrade_level as u64,
                "{} tick {i}",
                row.scenario
            );
        }

        // Prometheus: the exposition rewritten at each tick carries the
        // same tick's health gauges (captured right after the overwrite).
        let expositions = prom_seen.lock().unwrap().clone();
        assert_eq!(
            expositions.len(),
            history.len(),
            "{}: expositions",
            row.scenario
        );
        for (i, (text, snap)) in expositions.iter().zip(&history).enumerate() {
            assert_eq!(
                prom_gauge(text, "hercules_suspect_workers"),
                snap.suspect_workers as u64,
                "{} tick {i}",
                row.scenario
            );
            assert_eq!(
                prom_gauge(text, "hercules_dead_workers"),
                snap.dead_workers as u64,
                "{} tick {i}",
                row.scenario
            );
            assert_eq!(
                prom_gauge(text, "hercules_degrade_level"),
                snap.degrade_level as u64,
                "{} tick {i}",
                row.scenario
            );
        }

        let _ = std::fs::remove_file(&prom_path);
    }
}
