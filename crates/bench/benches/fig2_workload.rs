//! Fig. 2(b)(c)(d) — workload characterization: query-size histogram with
//! its heavy tail, pooling-factor distributions across 15 embedding tables
//! in 500 queries, and the synchronous diurnal loads of two services across
//! four datacenters over one week.

use hercules_bench::{banner, f, TableWriter};
use hercules_common::rng::SimRng;
use hercules_common::stats::LatencyHistogram;
use hercules_common::units::Qps;
use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
use hercules_workload::diurnal::DiurnalPattern;
use hercules_workload::query::{PoolingDist, QuerySizeDist};

fn main() {
    banner("Fig. 2(b): query-size distribution (log-spaced histogram)");
    let dist = QuerySizeDist::paper();
    let mut rng = SimRng::seed_from(2026);
    let (lo, hi, buckets) = (10.0, 1000.0, 10);
    let mut hist = LatencyHistogram::new(lo, hi, buckets);
    let mut sizes: Vec<u32> = Vec::new();
    for _ in 0..50_000 {
        let s = dist.sample(&mut rng);
        hist.record(s as f64);
        sizes.push(s);
    }
    // Bucket i spans [lo * ratio^i, lo * ratio^(i+1)); the last counts
    // everything from `hi` up.
    let edge = |i: usize| lo * (hi / lo).powf(i as f64 / buckets as f64);
    for (i, &count) in hist.counts().iter().enumerate() {
        let bar = "#".repeat((count * 60 / hist.count()).min(60) as usize);
        if i < buckets {
            println!("  [{:6.0},{:6.0})  {count:6}  {bar}", edge(i), edge(i + 1));
        } else {
            println!("  [{:6.0},   inf)  {count:6}  {bar}", edge(i));
        }
    }
    sizes.sort_unstable();
    let q = |p: f64| sizes[(p * sizes.len() as f64) as usize];
    println!(
        "  p50={}  p75={}  p95={}  p99={}  (heavy tail: p99/p50 = {:.1}x)",
        q(0.50),
        q(0.75),
        q(0.95),
        q(0.99),
        q(0.99) as f64 / q(0.50) as f64
    );

    banner("Fig. 2(c): pooling factors across 15 tables, 500 queries");
    let model = RecModel::build(ModelKind::DlrmRmc2, ModelScale::Production);
    let w = TableWriter::new(&[("EmbID", 6), ("min", 5), ("p50", 5), ("avg", 6), ("max", 5)]);
    for (i, spec) in model.tables.iter().take(15).enumerate() {
        let d = PoolingDist::for_table(spec);
        let mut draws: Vec<u32> = (0..500).map(|_| d.sample(&mut rng)).collect();
        draws.sort_unstable();
        let avg = draws.iter().map(|&v| v as f64).sum::<f64>() / draws.len() as f64;
        w.row(&[
            i.to_string(),
            draws[0].to_string(),
            draws[draws.len() / 2].to_string(),
            f(avg, 1),
            draws[draws.len() - 1].to_string(),
        ]);
    }

    banner("Fig. 2(d): diurnal loads, 2 services x 4 DCs, one week (4h samples)");
    let services = [
        ("service-A", DiurnalPattern::service_a(Qps(50_000.0))),
        ("service-B", DiurnalPattern::service_b(Qps(50_000.0))),
    ];
    for (name, base) in &services {
        println!("{name}:");
        for dc in 0..4 {
            // Datacenters share the diurnal phase (paper: synchronous peaks)
            // with small per-DC noise.
            let trace = base.sample(7, 240, 0.04, 100 + dc);
            let vals: Vec<String> = trace
                .points()
                .iter()
                .step_by(3)
                .map(|&(_, v)| format!("{:2.0}", v / 1000.0))
                .collect();
            println!("  DC{dc} (kQPS): {}", vals.join(" "));
        }
        let t = base.sample(7, 240, 0.0, 0);
        let peak = t.peak().unwrap();
        let valley = t
            .points()
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::INFINITY, f64::min);
        println!(
            "  peak={:.0}  valley={:.0}  fluctuation={:.0}%  (paper: >50%)",
            peak,
            valley,
            (peak - valley) / peak * 100.0
        );
    }
}
