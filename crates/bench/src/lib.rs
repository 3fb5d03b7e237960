//! Shared helpers for the per-figure bench targets.
//!
//! Every bench target under `benches/` regenerates one table or figure of
//! the paper, printing the same rows/series the paper reports. The
//! simulator replaces the authors' testbed, so absolute numbers differ;
//! the *shape* (who wins, by what factor, where crossovers fall) is the
//! reproduction target, and `tests/paper_claims.rs` asserts the headline
//! ones.
//!
//! Fidelity control: set `HERCULES_BENCH_FAST=1` to cut search granularity
//! further (useful on slow machines); output markers stay identical.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hercules_core::eval::{CachedEvaluator, EvalContext};
use hercules_core::profiler::{EfficiencyTable, ProfilerConfig, Searcher};
use hercules_core::search::gradient::GradientOptions;
use hercules_hw::server::ServerType;
use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
use hercules_sim::SlaSpec;

/// Whether reduced-fidelity mode is requested.
pub fn fast_mode() -> bool {
    std::env::var("HERCULES_BENCH_FAST").is_ok_and(|v| v == "1")
}

/// Gradient options for bench runs (coarse; coarser still in fast mode).
pub fn bench_gradient() -> GradientOptions {
    if fast_mode() {
        GradientOptions {
            batch_levels: vec![128, 512],
            fusion_levels: vec![1024, 4096],
            host_thread_levels: vec![8],
            max_gpu_colocated: 4,
            ..GradientOptions::default()
        }
    } else {
        GradientOptions::coarse()
    }
}

/// A quick evaluator for one (model-kind, scale, server, SLA) tuple.
pub fn evaluator(
    kind: ModelKind,
    scale: ModelScale,
    server: ServerType,
    sla: SlaSpec,
    seed: u64,
) -> CachedEvaluator {
    let model = RecModel::build(kind, scale);
    CachedEvaluator::new(EvalContext::new(model, server.spec(), sla).quick(seed))
}

/// Profiles an efficiency table at bench fidelity.
pub fn bench_profile(
    models: &[ModelKind],
    servers: &[ServerType],
    scale: ModelScale,
    searcher: Searcher,
) -> EfficiencyTable {
    let cfg = ProfilerConfig {
        scale,
        searcher,
        gradient: bench_gradient(),
        seed: 0xBEEF,
        ..ProfilerConfig::quick()
    };
    hercules_core::profiler::profile(models, servers, &cfg)
}

/// Fixed-width row printer for paper-style tables.
pub struct TableWriter {
    widths: Vec<usize>,
}

impl TableWriter {
    /// Creates a writer and prints the header.
    pub fn new(columns: &[(&str, usize)]) -> Self {
        let widths: Vec<usize> = columns.iter().map(|&(_, w)| w).collect();
        let header: Vec<String> = columns
            .iter()
            .map(|&(name, w)| format!("{name:>w$}"))
            .collect();
        println!("{}", header.join("  "));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        TableWriter { widths }
    }

    /// Prints one row (cells are right-aligned to the column widths).
    pub fn row(&self, cells: &[String]) {
        assert_eq!(cells.len(), self.widths.len(), "row arity mismatch");
        let padded: Vec<String> = cells
            .iter()
            .zip(&self.widths)
            .map(|(c, &w)| format!("{c:>w$}"))
            .collect();
        println!("{}", padded.join("  "));
    }
}

/// Formats a float with the given precision.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Formats a speedup as `1.53x`.
pub fn speedup(new: f64, old: f64) -> String {
    if old <= 0.0 {
        "n/a".into()
    } else {
        format!("{:.2}x", new / old)
    }
}

/// Prints a figure banner.
pub fn banner(title: &str) {
    println!();
    println!("==== {title} ====");
    println!();
}

/// Times one kernel and prints one line: its mean and minimum wall time
/// per call over `samples` samples. Each sample runs a batch of calls
/// sized (from one untimed call) to take at least a millisecond, so the
/// clock resolves it.
pub fn time_kernel<O>(name: &str, samples: u32, mut kernel: impl FnMut() -> O) {
    let start = Instant::now();
    black_box(kernel());
    let once = start.elapsed().as_nanos().max(1);
    let batch = (1_000_000 / once).clamp(1, 10_000) as u32;
    let per_call: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(kernel());
            }
            start.elapsed() / batch
        })
        .collect();
    let mean = per_call.iter().sum::<Duration>() / per_call.len() as u32;
    let min = per_call.iter().min().copied().unwrap_or_default();
    println!(
        "bench: {name:<40} mean {mean:>12.3?}  min {min:>12.3?}  ({} samples)",
        per_call.len()
    );
}

/// Minimal JSON value for `BENCH_*.json` trajectory artifacts.
///
/// Runtime benches persist their measured numbers (latency percentiles,
/// gather bandwidth, allocation counts) as machine-readable JSON next to
/// the printed tables, so successive PRs leave a diffable performance
/// trajectory. The workspace has no registry dependencies, so the writer
/// is hand-rolled; artifacts are small, flat documents.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object from `(&str, Json)` pairs (field order is preserved).
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// String value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Renders with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                out.push_str(&i.to_string());
            }
            // Shortest round-trip float formatting; non-finite values have
            // no JSON spelling and degrade to null.
            Json::Num(v) if v.is_finite() => out.push_str(&format!("{v:?}")),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, indent + 1);
                    Json::Str(k.clone()).write(out, indent + 1);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Writes a `BENCH_*.json` artifact and returns its path. Files land in
/// `$HERCULES_BENCH_OUT` when set, otherwise the workspace root.
pub fn write_bench_json(file_name: &str, value: &Json) -> std::path::PathBuf {
    let dir = std::env::var_os("HERCULES_BENCH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));
    let path = dir.join(file_name);
    std::fs::write(&path, value.render()).expect("bench artifact must be writable");
    path.canonicalize().unwrap_or(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(speedup(300.0, 100.0), "3.00x");
        assert_eq!(speedup(1.0, 0.0), "n/a");
    }

    #[test]
    fn bench_gradient_levels_nonempty() {
        let g = bench_gradient();
        assert!(!g.batch_levels.is_empty());
        assert!(!g.fusion_levels.is_empty());
    }

    #[test]
    fn json_renders_valid_documents() {
        let doc = Json::obj([
            ("name", Json::str("fig \"x\"")),
            ("count", Json::Int(3)),
            ("ratio", Json::Num(0.25)),
            ("bad", Json::Num(f64::NAN)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("rows", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let s = doc.render();
        assert!(s.ends_with("}\n"));
        assert!(s.contains("\"name\": \"fig \\\"x\\\"\""));
        assert!(s.contains("\"count\": 3"));
        assert!(s.contains("\"ratio\": 0.25"));
        assert!(s.contains("\"bad\": null"));
        assert!(s.contains("\"empty\": []"));
        // Balanced brackets — a cheap structural sanity check.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }
}
