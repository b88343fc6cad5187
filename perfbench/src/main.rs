//! End-to-end and per-layer benchmark of the XtraPuLP workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rmat-tcp --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `rmat-tcp` and `web-inproc` (cold partition jobs, see [`cold`]) and
//! `churn-serve` (open-loop churn against a serving session, see [`churn`]). Every
//! workload runs 2 ranks, one sweep thread per rank and 16 parts, and generates its
//! inputs from `--seed`. With `--trace 0` the run prints the end-to-end metrics;
//! with `--trace 1` it prints the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and `metrics`. The
//! exit code is 0 only when every output check held and no operation failed.
//! See `perfbench/README.md` for what each metric means.

mod churn;
mod cold;
mod report;
mod schedule;
mod stats;
mod timed;

use std::collections::BTreeMap;
use std::process::ExitCode;

use report::{Metric, Outcome};

/// Ranks of every workload.
pub const NRANKS: usize = 2;
/// Parts of every partition.
pub const NUM_PARTS: usize = 16;
/// Set-ups timed per run; `setup_s` is their median and the last one is used.
pub const SETUP_REPEATS: usize = 3;

/// Per-layer values by name, each with the number of samples it summarises.
pub type Layers = BTreeMap<String, (f64, usize)>;

/// The end-to-end metrics every untraced run reports, in order, with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("latency_s", "s"),
    ("edge_cut_ratio", "ratio"),
    ("scaled_max_cut_ratio", "ratio"),
    ("vertex_imbalance", "ratio"),
    ("edge_imbalance", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, in order, with units. A layer a
/// workload does not reach from outside reports 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("graph.distribute_s", "s"),
    ("graph.owned_arcs_skew", "ratio"),
    ("graph.ghosts", "count"),
    ("comm.recv_s.r0", "s"),
    ("comm.recv_s.r1", "s"),
    ("comm.send_s.r0", "s"),
    ("comm.send_s.r1", "s"),
    ("comm.collectives", "count"),
    ("comm.allreduce_calls", "count"),
    ("comm.alltoallv_calls", "count"),
    ("comm.frames_sent", "count"),
    ("comm.wire_bytes_sent", "bytes"),
    ("core.rank_s.r0", "s"),
    ("core.rank_s.r1", "s"),
    ("core.compute_s.r0", "s"),
    ("core.compute_s.r1", "s"),
    ("core.compute_skew", "ratio"),
    ("core.critical_rank", "rank"),
    ("core.init_s", "s"),
    ("core.vertex_stage_s", "s"),
    ("core.edge_stage_s", "s"),
    ("core.rebalance_s", "s"),
    ("core.vertices_scored", "count"),
    ("core.lp_sweeps", "count"),
    ("core.scored.refine", "count"),
    ("core.scored.balance", "count"),
    ("core.scored.churn", "count"),
    ("core.serial_baseline_s", "s"),
    ("api.gather_s", "s"),
    ("api.overhead_s", "s"),
    ("api.overhead_frac", "ratio"),
    ("dynamic.scored_per_epoch_p50", "count"),
    ("dynamic.migrated_per_epoch_p50", "count"),
    ("dynamic.warm_epoch_frac", "ratio"),
    ("serve.publish_p50_s", "s"),
    ("serve.worker_busy_frac", "ratio"),
    ("serve.batches_per_epoch_mean", "count"),
    ("serve.queue_depth_max_ops", "count"),
    ("serve.generator_late_max_s", "s"),
    ("serve.generator_late_sends", "count"),
    ("serve.ingest_to_publish_p90_s", "s"),
    ("serve.read_p99_us", "us"),
    ("analytics.repair_p50_s", "s"),
    ("analytics.busy_frac", "ratio"),
    ("analytics.pagerank_scored_per_epoch_p50", "count"),
    ("analytics.warm_frac", "ratio"),
    ("analytics.lag_p50_s", "s"),
    ("bench.traced_partition_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.host_steal_frac", "ratio"),
    ("bench.disturbed_frac", "ratio"),
];

/// Every per-layer metric, in [`PER_LAYER`] order; a name the workload did not
/// measure reports 0 over 0 samples.
pub fn per_layer_metrics(layers: &Layers) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = layers.get(name).copied().unwrap_or((0.0, 0));
            Metric::new(name, value, unit, samples)
        })
        .collect()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative CPU time of the machine from `/proc/stat`: (stolen, total) ticks.
/// Stolen time is time the hypervisor ran something else while this machine's
/// CPUs had work; it slows every timing and is reported so runs can be compared.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The share of CPU time stolen since `before` (a [`cpu_ticks`] reading).
pub fn steal_since(before: (u64, u64)) -> f64 {
    steal_between(before, cpu_ticks())
}

/// The share of CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_between(before: (u64, u64), after: (u64, u64)) -> f64 {
    stats::ratio(
        after.0.saturating_sub(before.0) as f64,
        after.1.saturating_sub(before.1) as f64,
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// Put the run's end-to-end metrics in [`END_TO_END`] order, failing on a gap.
fn ordered_end_to_end(metrics: &[Metric]) -> Result<Vec<Metric>, String> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let m = metrics
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("the run did not measure {name}"))?;
            debug_assert_eq!(m.unit, unit);
            Ok(m.clone())
        })
        .collect()
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = match args.workload.as_str() {
        "rmat-tcp" => cold::run(cold::RMAT_TCP, args.seed, args.seconds, args.trace)?,
        "web-inproc" => cold::run(cold::WEB_INPROC, args.seed, args.seconds, args.trace)?,
        "churn-serve" => churn::run(args.seed, args.seconds, args.trace)?,
        other => {
            return Err(format!(
                "unknown workload {other}; expected rmat-tcp, web-inproc or churn-serve"
            ))
        }
    };
    outcome.end_to_end = ordered_end_to_end(&outcome.end_to_end)?;
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            print!("{}", outcome.render(&args.workload, args.trace));
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must name exactly the metrics the
    /// runs print, with the same units.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let declared = json.matches("\"unit\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
