//! Repository benchmark for the Hercules reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <plan-day|fleet-day> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run makes its inputs from `--seed`, times the program for about
//! `--seconds`, checks the program's outputs, and prints as its last line
//! one JSON object: `correct`, `attempted`, `failed`, and `metrics`. With
//! `--trace 0` the metrics are the end-to-end table below; with `--trace 1`
//! they are the per-layer table, and a Chrome trace of the benchmark's
//! spans and the runtime's query spans is written under `perfbench/out/`.
//! Progress goes to standard error, the host shape to the line before the
//! result.
//!
//! Seed 90001 is held out: develop and tune a change on other seeds, then
//! re-check its claim on this one.

mod fleet;
mod host;
mod plan;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

use spans::Spans;

/// End-to-end metrics: every workload reports every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("goodput_qps", "queries/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("provisioned_kw", "kW"),
    ("peak_servers", "count"),
    ("search_qps", "queries/s"),
];

/// Per-layer metrics of the traced run. A layer the workload does not run
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wall.dispatch_late_p99_ms", "ms"),
    ("wall.queue_wait_p50_ms", "ms"),
    ("wall.queue_wait_p99_ms", "ms"),
    ("wall.service_p50_ms", "ms"),
    ("wall.service_p99_ms", "ms"),
    ("wall.front_util", "ratio"),
    ("wall.drain_s", "s"),
    ("admission.shed_frac", "ratio"),
    ("memory.gather_gbs", "GB/s"),
    ("memory.gather_share", "ratio"),
    ("memory.kernel_gbs", "GB/s"),
    ("memory.kernel_efficiency", "ratio"),
    ("memory.arena_build_s", "s"),
    ("memory.hit_rate", "ratio"),
    ("memory.predicted_hit_rate", "ratio"),
    ("memory.inserted", "count"),
    ("memory.cached_kernel_gbs", "GB/s"),
    ("span.queue_ms", "ms"),
    ("span.gather_ms", "ms"),
    ("span.front_self_ms", "ms"),
    ("profiler.profile_s", "s"),
    ("profiler.cell_s_max", "s"),
    ("search.evaluations", "count"),
    ("search.memo_hit_rate", "ratio"),
    ("search.evals_per_s", "1/s"),
    ("sim.des_queries_per_s", "1/s"),
    ("cost.batch_cost_per_s", "1/s"),
    ("nmp.lut_build_s", "s"),
    ("cluster.provision_s", "s"),
    ("cluster.interval_p50_ms", "ms"),
    ("cluster.interval_max_ms", "ms"),
    ("cluster.greedy_peak_kw", "kW"),
    ("cluster.greedy_peak_servers", "count"),
    ("fleet.replay_s", "s"),
    ("fleet.queries_per_s", "1/s"),
    ("virt.queries_per_s", "1/s"),
    ("shard.route_ns", "ns"),
    ("fleet.rerouted", "count"),
    ("autoscale.scale_outs", "count"),
    ("autoscale.scale_ins", "count"),
    ("observe.snapshots", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// What one run of a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks; the run is correct when all pass.
    pub checks: Vec<(String, bool)>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            eprintln!("check failed: {name}");
        }
        self.checks.push((name.to_string(), ok));
    }

    /// A check that `got` is bitwise the `want`ed value.
    pub fn check_eq(&mut self, name: &str, got: f64, want: f64) {
        if got.to_bits() != want.to_bits() {
            eprintln!("{name}: got {got:?}, want {want:?}");
        }
        self.check(name, got.to_bits() == want.to_bits());
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The result line. Every end-to-end metric must have been set; a
    /// per-layer metric the workload does not reach reads 0.
    pub fn json(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(","),
        )
    }
}

/// Run-wide settings every workload reads.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans: Spans,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PlanDay,
    FleetDay,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::PlanDay, Workload::FleetDay];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanDay => "plan-day",
            Workload::FleetDay => "fleet-day",
        }
    }

    fn named(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Runs the workload at full size, or at a seconds-long smoke size.
    pub fn run(self, ctx: &mut Ctx, tiny: bool) -> Outcome {
        match self {
            Workload::PlanDay => plan::run(
                ctx,
                &if tiny {
                    plan::Size::tiny()
                } else {
                    plan::Size::full()
                },
            ),
            Workload::FleetDay => fleet::run(
                ctx,
                &if tiny {
                    fleet::Size::tiny()
                } else {
                    fleet::Size::full()
                },
            ),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    Ok(Args {
        workload: Workload::named(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed takes an unsigned integer")?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
    })
}

/// Wall-clock front workers the run starts: fleet-day's traced serve.
fn front_workers(w: Workload) -> u32 {
    match w {
        Workload::PlanDay => 0,
        Workload::FleetDay => serve::front_workers(),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("freeze-cells") {
        return match plan::freeze_cells("perfbench/cells.txt") {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("freeze-cells: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <plan-day|fleet-day> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        spans: Spans::new(args.trace),
    };
    let root = ctx.spans.enter(args.workload.name());
    let mut out = args.workload.run(&mut ctx, false);
    ctx.spans.exit(root);
    if !args.trace {
        out.set("peak_rss_mib", host::peak_rss_mib());
    }
    // After the peak-RSS reading, so the probe's arena does not count.
    serve::check_kernel(&mut out);
    let host = host::host_json(front_workers(args.workload));
    if args.trace {
        let path = format!(
            "perfbench/out/{}-seed{}.trace.json",
            args.workload.name(),
            args.seed
        );
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, ctx.spans.chrome_json(&host)));
        out.check("chrome trace written", written.is_ok());
        eprintln!("trace: {path}");
    }
    eprintln!(
        "{}: {} attempted, {} failed ({:.2}%), {} of {} checks passed",
        args.workload.name(),
        out.attempted,
        out.failed,
        100.0 * stats::failure_share(out.failed, out.attempted),
        out.checks.iter().filter(|(_, ok)| *ok).count(),
        out.checks.len(),
    );
    println!("host {host}");
    println!("{}", out.json(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_takes_the_four_flags() {
        let a = parse_args(&args("--workload plan-day --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::PlanDay);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload plan-day --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&args(
            "--workload plan-day --seed -1 --seconds 10 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&args("--workload plan-day --seed 3 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload plan-day --seed 3 --seconds 10 --trace 2")).is_err());
    }

    #[test]
    fn result_line_has_every_metric_of_its_table() {
        let mut out = Outcome::default();
        for &(name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        out.check("ok", true);
        let line = out.json(false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        assert!(END_TO_END
            .iter()
            .all(|(n, _)| line.contains(&format!("\"{n}\""))));
        let traced = out.json(true);
        assert!(PER_LAYER
            .iter()
            .all(|(n, _)| traced.contains(&format!("\"{n}\""))));
        out.check("bad", false);
        assert!(out.json(false).starts_with("{\"correct\":false"));
    }

    /// Every workload at smoke size: each reports every metric of both
    /// tables and passes its output checks, except the sample-size rule a
    /// seconds-long run cannot meet.
    #[test]
    fn smoke_run_of_every_workload() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let mut ctx = Ctx {
                    seed: 11,
                    seconds: 1.0,
                    trace,
                    spans: Spans::new(trace),
                };
                let mut out = w.run(&mut ctx, true);
                out.set("peak_rss_mib", host::peak_rss_mib());
                serve::check_kernel(&mut out);
                let failed: Vec<&String> = out
                    .checks
                    .iter()
                    .filter(|(name, ok)| !ok && !name.contains("ten samples"))
                    .map(|(name, _)| name)
                    .collect();
                assert!(
                    failed.is_empty(),
                    "{} (trace {trace}): {failed:?}",
                    w.name()
                );
                assert!(out.attempted > 0, "{}", w.name());
                let line = out.json(trace);
                assert!(line.contains("\"metrics\""), "{}", w.name());
            }
        }
    }
}
