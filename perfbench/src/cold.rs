//! The cold-partition workloads: back-to-back `Session::partition` jobs of one
//! generated graph on 2 ranks, over loopback TCP (`rmat-tcp`) or in-process typed
//! frames (`web-inproc`).
//!
//! A traced run alternates untraced jobs with traced ones. A traced job replays
//! the steps `Session::partition` takes — distribute, partition, gather,
//! assemble — through the public `Session::execute`, over transports wrapped in
//! [`TimedTransport`](crate::timed::TimedTransport), and times each call from
//! outside the library.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xtrapulp::metrics::PartitionQuality;
use xtrapulp::partitioner::assemble_gathered_parts;
use xtrapulp::{try_pulp_partition, try_xtrapulp_partition, PartitionParams, StageBreakdown};
use xtrapulp_api::Session;
use xtrapulp_comm::transport::{InProcFabric, TcpConfig, TcpTransport, Transport};
use xtrapulp_comm::{CommStatsSnapshot, Runtime};
use xtrapulp_gen::{GraphConfig, GraphKind};
use xtrapulp_graph::distribution::splitmix64;
use xtrapulp_graph::{Csr, DistGraph, Distribution, LocalId};

use crate::report::{Metric, Outcome};
use crate::stats::{disturbed_frac, median, ratio, undisturbed};
use crate::timed::{decorate, LinkSnapshot, LinkTimes};
use crate::{cpu_ticks, peak_rss_mb, steal_since, Layers, NRANKS, NUM_PARTS, SETUP_REPEATS};

/// Timed jobs per run at the least, however long they take.
const MIN_JOBS: usize = 3;

/// How the ranks of a cold workload talk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One loopback `TcpTransport` per rank: byte frames through the codec.
    Tcp,
    /// In-process channels passing typed frames: no codec.
    InProc,
}

/// A cold workload: what graph, over which backend.
#[derive(Debug, Clone, Copy)]
pub struct ColdSpec {
    pub kind: GraphKind,
    /// Graphs generated per run. Partition time and quality vary from one
    /// generated graph to the next; averaging over several keeps a run's figure
    /// steady across seeds.
    pub instances: usize,
    pub backend: Backend,
}

pub const RMAT_TCP: ColdSpec = ColdSpec {
    kind: GraphKind::Rmat {
        scale: 16,
        edge_factor: 16,
    },
    instances: 8,
    backend: Backend::Tcp,
};

pub const WEB_INPROC: ColdSpec = ColdSpec {
    kind: GraphKind::WebCrawl {
        num_vertices: 131_072,
        avg_degree: 16,
        community_size: 256,
    },
    instances: 8,
    backend: Backend::InProc,
};

/// The job every cold workload runs.
pub fn params() -> PartitionParams {
    PartitionParams {
        num_parts: NUM_PARTS,
        sweep_threads: 1,
        ..PartitionParams::default()
    }
}

fn transports(backend: Backend) -> Result<Vec<Box<dyn Transport>>, String> {
    match backend {
        Backend::InProc => Ok(InProcFabric::create(NRANKS)
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .collect()),
        Backend::Tcp => tcp_mesh(),
    }
}

/// Connect one loopback `TcpTransport` per rank, each from its own thread (the
/// coordinator blocks until every rank has dialled in).
fn tcp_mesh() -> Result<Vec<Box<dyn Transport>>, String> {
    let port = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map_err(|e| format!("probing a free loopback port: {e}"))?
        .port();
    let coordinator = format!("127.0.0.1:{port}");
    std::thread::scope(|s| {
        let dials: Vec<_> = (0..NRANKS)
            .map(|rank| {
                let config = TcpConfig::new(coordinator.clone(), Some(rank), NRANKS);
                s.spawn(move || TcpTransport::connect(&config))
            })
            .collect();
        dials
            .into_iter()
            .map(|dial| {
                let transport = dial
                    .join()
                    .map_err(|_| "a TCP dial thread panicked".to_string())?
                    .map_err(|e| format!("TCP mesh: {e}"))?;
                Ok(Box::new(transport) as Box<dyn Transport>)
            })
            .collect()
    })
}

/// A session over fresh transports; with `timed`, each rank's transport is
/// decorated and its times are returned, indexed by rank.
fn open_session(backend: Backend, timed: bool) -> Result<(Session, Vec<Arc<LinkTimes>>), String> {
    let transports = transports(backend)?;
    let (transports, links) = if timed {
        decorate(transports)
    } else {
        (transports, Vec::new())
    };
    let runtime = Runtime::from_transports(transports).map_err(|e| e.to_string())?;
    Ok((Session::with_runtime(runtime, Distribution::Block), links))
}

fn generate(kind: GraphKind, seed: u64) -> Csr {
    GraphConfig::new(kind, seed).generate().to_csr()
}

/// Check that every vertex of `csr` has a part in `[0, p)`.
pub fn check_parts(out: &mut Outcome, what: &str, csr: &Csr, parts: &[i32]) -> bool {
    let p = NUM_PARTS as i32;
    let in_range = parts.len() == csr.num_vertices() && parts.iter().all(|&x| (0..p).contains(&x));
    out.check(in_range, || {
        format!("{what}: not every vertex has a part in [0, {p})")
    });
    in_range
}

/// Check a job's output: a part in `[0, p)` for every vertex, and the reported
/// quality equal to the quality recomputed from the parts.
pub fn check_output(
    out: &mut Outcome,
    what: &str,
    csr: &Csr,
    parts: &[i32],
    quality: &PartitionQuality,
) {
    if check_parts(out, what, csr, parts) {
        let recomputed = PartitionQuality::evaluate(csr, parts, NUM_PARTS);
        out.check(quality_matches(&recomputed, quality), || {
            format!("{what}: reported quality {quality:?} != recomputed {recomputed:?}")
        });
    }
}

/// Counts must agree exactly; ratios up to floating-point summation order.
pub fn quality_matches(a: &PartitionQuality, b: &PartitionQuality) -> bool {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0);
    a.num_parts == b.num_parts
        && a.edge_cut == b.edge_cut
        && a.max_part_cut == b.max_part_cut
        && close(a.edge_cut_ratio, b.edge_cut_ratio)
        && close(a.scaled_max_cut_ratio, b.scaled_max_cut_ratio)
        && close(a.vertex_imbalance, b.vertex_imbalance)
        && close(a.edge_imbalance, b.edge_imbalance)
}

/// The quality metrics, each the mean over `qualities` (one per partitioned graph).
pub fn quality_metrics(qualities: &[PartitionQuality]) -> Vec<Metric> {
    let n = qualities.len();
    let mean = |f: fn(&PartitionQuality) -> f64| ratio(qualities.iter().map(f).sum(), n as f64);
    vec![
        Metric::new("edge_cut_ratio", mean(|q| q.edge_cut_ratio), "ratio", n),
        Metric::new(
            "scaled_max_cut_ratio",
            mean(|q| q.scaled_max_cut_ratio),
            "ratio",
            n,
        ),
        Metric::new("vertex_imbalance", mean(|q| q.vertex_imbalance), "ratio", n),
        Metric::new("edge_imbalance", mean(|q| q.edge_imbalance), "ratio", n),
    ]
}

/// One rank's share of a traced job.
struct RankTrace {
    pairs: Vec<(u64, i32)>,
    quality: PartitionQuality,
    comm: CommStatsSnapshot,
    distribute_s: f64,
    rank_s: f64,
    gather_s: f64,
    /// Transport time inside `try_xtrapulp_partition` only.
    partition_link: LinkSnapshot,
    stage_s: [f64; 4],
    owned_arcs: u64,
    ghosts: u64,
    lp_sweeps: u64,
    vertices_scored: u64,
    stages: StageBreakdown,
}

/// Stage names `try_xtrapulp_partition` times into its `PhaseTimer`.
const STAGES: [(&str, &str); 4] = [
    ("init", "core.init_s"),
    ("vertex_stage", "core.vertex_stage_s"),
    ("edge_stage", "core.edge_stage_s"),
    ("rebalance", "core.rebalance_s"),
];

/// One traced job: its parts, its quality, and its per-layer values.
struct TracedJob {
    wall_s: f64,
    parts: Vec<i32>,
    quality: PartitionQuality,
    layers: BTreeMap<String, f64>,
}

fn traced_job(
    session: &mut Session,
    links: &[Arc<LinkTimes>],
    csr: &Csr,
    params: &PartitionParams,
) -> Result<TracedJob, String> {
    let n = csr.num_vertices();
    let dist = session.distribution().grown(n as u64, session.nranks());
    let distributed = session.is_distributed();
    let before: Vec<LinkSnapshot> = links.iter().map(|l| l.snapshot()).collect();
    let start = Instant::now();
    let ranks: Vec<Result<RankTrace, String>> = session.execute(|ctx| {
        let link = &links[ctx.rank()];
        let t0 = Instant::now();
        let graph = DistGraph::from_csr(ctx, dist.clone(), csr);
        let t1 = Instant::now();
        let l1 = link.snapshot();
        // Validation is deterministic, so either every rank fails here or none does
        // and no rank is left alone in a collective.
        let result = try_xtrapulp_partition(ctx, &graph, params).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let partition_link = link.snapshot().since(l1);
        let pairs: Vec<(u64, i32)> = (0..graph.n_owned())
            .map(|v| (graph.global_id(v as LocalId), result.parts[v]))
            .collect();
        let pairs = if distributed {
            ctx.allgatherv(pairs)
        } else {
            pairs
        };
        let t3 = Instant::now();
        Ok(RankTrace {
            pairs,
            quality: result.quality,
            comm: ctx.stats().snapshot(),
            distribute_s: (t1 - t0).as_secs_f64(),
            rank_s: (t2 - t1).as_secs_f64(),
            gather_s: (t3 - t2).as_secs_f64(),
            partition_link,
            stage_s: STAGES.map(|(phase, _)| result.timings.get(phase).as_secs_f64()),
            owned_arcs: graph.local_arcs(),
            ghosts: graph.n_ghost() as u64,
            lp_sweeps: result.lp_sweeps,
            vertices_scored: result.vertices_scored,
            stages: result.stages,
        })
    });
    let ranks: Vec<RankTrace> = ranks.into_iter().collect::<Result<_, _>>()?;
    let gathered = ranks
        .iter()
        .take(if distributed { 1 } else { ranks.len() })
        .map(|r| r.pairs.clone())
        .collect();
    let parts =
        assemble_gathered_parts(n, params.num_parts, gathered).map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    let job_links: Vec<LinkSnapshot> = links
        .iter()
        .zip(&before)
        .map(|(l, &b)| l.snapshot().since(b))
        .collect();
    let layers = rank_layers(&ranks, &job_links, wall_s);
    Ok(TracedJob {
        wall_s,
        parts,
        quality: ranks[0].quality,
        layers,
    })
}

fn rank_layers(
    ranks: &[RankTrace],
    job_links: &[LinkSnapshot],
    wall_s: f64,
) -> BTreeMap<String, f64> {
    let mut l = BTreeMap::new();
    let nr = ranks.len() as f64;
    let total = |r: &RankTrace| r.distribute_s + r.rank_s + r.gather_s;
    let critical = (0..ranks.len())
        .max_by(|&a, &b| total(&ranks[a]).total_cmp(&total(&ranks[b])))
        .unwrap_or(0);
    let crit = &ranks[critical];

    let arcs: Vec<f64> = ranks.iter().map(|r| r.owned_arcs as f64).collect();
    l.insert("graph.distribute_s".into(), crit.distribute_s);
    l.insert(
        "graph.owned_arcs_skew".into(),
        ratio(crate::stats::max(&arcs), arcs.iter().sum::<f64>() / nr),
    );
    l.insert(
        "graph.ghosts".into(),
        ranks.iter().map(|r| r.ghosts as f64).sum(),
    );

    for (rank, link) in job_links.iter().enumerate() {
        l.insert(format!("comm.recv_s.r{rank}"), link.wait_s());
        l.insert(format!("comm.send_s.r{rank}"), link.send_s());
    }
    let comm = ranks
        .iter()
        .fold(CommStatsSnapshot::default(), |acc, r| acc.merged(r.comm));
    l.insert("comm.collectives".into(), comm.collectives as f64);
    l.insert("comm.allreduce_calls".into(), comm.allreduce_calls as f64);
    l.insert("comm.alltoallv_calls".into(), comm.alltoallv_calls as f64);
    l.insert("comm.frames_sent".into(), comm.frames_sent as f64);
    l.insert("comm.wire_bytes_sent".into(), comm.wire_bytes_sent as f64);

    let compute: Vec<f64> = ranks
        .iter()
        .map(|r| r.rank_s - r.partition_link.wait_s() - r.partition_link.send_s())
        .collect();
    for (rank, r) in ranks.iter().enumerate() {
        l.insert(format!("core.rank_s.r{rank}"), r.rank_s);
        l.insert(format!("core.compute_s.r{rank}"), compute[rank]);
    }
    l.insert(
        "core.compute_skew".into(),
        ratio(
            crate::stats::max(&compute),
            compute.iter().sum::<f64>() / nr,
        ),
    );
    l.insert("core.critical_rank".into(), critical as f64);
    for (i, (_, name)) in STAGES.iter().enumerate() {
        let slowest = ranks.iter().map(|r| r.stage_s[i]).fold(0.0, f64::max);
        l.insert((*name).into(), slowest);
    }
    // The sweep counters are globally reduced: identical on every rank.
    let r0 = &ranks[0];
    l.insert("core.vertices_scored".into(), r0.vertices_scored as f64);
    l.insert("core.lp_sweeps".into(), r0.lp_sweeps as f64);
    l.insert("core.scored.refine".into(), r0.stages.refine_scored as f64);
    l.insert(
        "core.scored.balance".into(),
        r0.stages.balance_scored as f64,
    );
    l.insert("core.scored.churn".into(), r0.stages.churn_scored as f64);

    let overhead = wall_s - total(crit);
    l.insert("api.gather_s".into(), crit.gather_s);
    l.insert("api.overhead_s".into(), overhead);
    l.insert("api.overhead_frac".into(), ratio(overhead, wall_s));
    l
}

/// The seed of graph `k` of a run seeded with `seed`.
fn instance_seed(seed: u64, k: usize) -> u64 {
    splitmix64(seed ^ ((k as u64) << 32))
}

/// Time `SETUP_REPEATS` set-ups (generate the run's graphs, build the session)
/// and keep the last.
fn setup(spec: ColdSpec, seed: u64) -> Result<(Vec<f64>, Vec<Csr>, Session), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept: Option<(Vec<Csr>, Session)> = None;
    for _ in 0..SETUP_REPEATS {
        // Release the previous set-up first, so two never coexist.
        drop(kept.take());
        let start = Instant::now();
        let graphs = (0..spec.instances)
            .map(|k| generate(spec.kind, instance_seed(seed, k)))
            .collect();
        let (session, _) = open_session(spec.backend, false)?;
        times.push(start.elapsed().as_secs_f64());
        kept = Some((graphs, session));
    }
    let (graphs, session) = kept.ok_or("no set-up ran")?;
    Ok((times, graphs, session))
}

/// Job wall times of one run, by graph, each with the CPU share the host stole
/// while it ran.
struct JobTimes(Vec<Vec<(f64, f64)>>);

impl JobTimes {
    fn new(graphs: usize) -> JobTimes {
        JobTimes(vec![Vec::new(); graphs])
    }

    fn count(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }

    /// The mean over graphs of each graph's median undisturbed job time, so that
    /// a run's figure weighs every graph alike however many jobs each got.
    fn mean_of_medians(&self) -> f64 {
        let timed: Vec<f64> = self
            .0
            .iter()
            .filter(|t| !t.is_empty())
            .map(|t| median(&undisturbed(t)))
            .collect();
        ratio(timed.iter().sum(), timed.len() as f64)
    }

    fn disturbed_frac(&self) -> f64 {
        disturbed_frac(&self.0.concat())
    }
}

/// Run a cold workload: jobs cycle over the run's graphs for `seconds`.
pub fn run(spec: ColdSpec, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let params = params();
    let mut out = Outcome::default();
    let (setup_times, graphs, mut session) = setup(spec, seed)?;
    let mut tracer = if traced {
        Some(open_session(spec.backend, true)?)
    } else {
        None
    };

    // One untimed job per session first, so lazily built state is not timed.
    out.attempted += 1;
    let first = session
        .partition(&graphs[0], &params)
        .map_err(|e| e.to_string())?;
    check_output(
        &mut out,
        "warm-up job",
        &graphs[0],
        &first.parts,
        &first.quality,
    );
    if let Some((traced_session, links)) = tracer.as_mut() {
        out.attempted += 1;
        traced_job(traced_session, links, &graphs[0], &params)?;
    }

    // Each graph's first timed job is the reference its later jobs, traced or
    // not, must reproduce bit for bit.
    let mut reference: Vec<Option<(Vec<i32>, PartitionQuality)>> = vec![None; graphs.len()];
    let mut times = JobTimes::new(graphs.len());
    let mut traced_times = JobTimes::new(graphs.len());
    let mut traced_layers: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let ticks = cpu_ticks();
    let window = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    'jobs: for (job, k) in (0..graphs.len()).cycle().enumerate() {
        if job >= MIN_JOBS.max(graphs.len()) && window.elapsed() >= budget {
            break;
        }
        let csr = &graphs[k];
        let what = format!("job {job} (graph {k})");
        out.attempted += 1;
        let ticks = cpu_ticks();
        let start = Instant::now();
        let report = match session.partition(csr, &params) {
            Ok(report) => report,
            Err(e) => {
                out.failed += 1;
                eprintln!("{what} failed: {e}");
                break;
            }
        };
        times.0[k].push((start.elapsed().as_secs_f64(), steal_since(ticks)));
        check_output(&mut out, &what, csr, &report.parts, &report.quality);
        let (parts, _) = reference[k].get_or_insert_with(|| (report.parts.clone(), report.quality));
        out.check(report.parts == *parts, || {
            format!("{what}: parts differ from the graph's first job")
        });

        if let Some((traced_session, links)) = tracer.as_mut() {
            out.attempted += 1;
            let ticks = cpu_ticks();
            let traced = match traced_job(traced_session, links, csr, &params) {
                Ok(traced) => traced,
                Err(e) => {
                    out.failed += 1;
                    eprintln!("traced {what} failed: {e}");
                    break 'jobs;
                }
            };
            check_output(
                &mut out,
                &format!("traced {what}"),
                csr,
                &traced.parts,
                &traced.quality,
            );
            out.check(traced.parts == *parts, || {
                format!("traced {what}: parts differ from the untraced job's")
            });
            traced_times.0[k].push((traced.wall_s, steal_since(ticks)));
            for (name, value) in traced.layers {
                traced_layers.entry(name).or_default().push(value);
            }
        }
    }
    drop(tracer);
    let steal = steal_since(ticks);

    let qualities: Vec<PartitionQuality> = reference.iter().flatten().map(|(_, q)| *q).collect();
    let partition_s = times.mean_of_medians();
    out.end_to_end
        .push(Metric::new("latency_s", partition_s, "s", times.count()));
    out.end_to_end.extend(quality_metrics(&qualities));
    out.end_to_end.push(Metric::new(
        "setup_s",
        median(&setup_times),
        "s",
        setup_times.len(),
    ));
    out.end_to_end
        .push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1));
    out.extra
        .push(Metric::new("host_steal_frac", steal, "ratio", 1));
    out.extra.push(Metric::new(
        "disturbed_frac",
        times.disturbed_frac(),
        "ratio",
        times.count(),
    ));

    if traced {
        let mut layers: Layers = traced_layers
            .into_iter()
            .map(|(name, values)| (name, (median(&values), values.len())))
            .collect();
        let n = traced_times.count();
        let traced_s = traced_times.mean_of_medians();
        layers.insert("bench.traced_partition_s".into(), (traced_s, n));
        layers.insert(
            "bench.trace_overhead_frac".into(),
            (ratio(traced_s, partition_s) - 1.0, n),
        );
        layers.insert("bench.host_steal_frac".into(), (steal, 1));
        layers.insert(
            "bench.disturbed_frac".into(),
            (traced_times.disturbed_frac(), n),
        );

        let serial_params = PartitionParams {
            sweep_threads: 1,
            ..params
        };
        let start = Instant::now();
        out.attempted += 1;
        let serial = try_pulp_partition(&graphs[0], &serial_params).map_err(|e| e.to_string())?;
        layers.insert(
            "core.serial_baseline_s".into(),
            (start.elapsed().as_secs_f64(), 1),
        );
        check_parts(&mut out, "serial baseline", &graphs[0], &serial);
        out.per_layer = crate::per_layer_metrics(&layers);
    }
    Ok(out)
}
