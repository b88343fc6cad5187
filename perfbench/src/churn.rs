//! The `churn-serve` workload: open-loop churn against a `ServingSession`.
//!
//! One generator thread submits 64-op `RandomChurn` batches with `try_ingest` in
//! bursts at a fixed rate and, between bursts, issues fixed-rate `part_of` read
//! batches on `store().current()`. While it waits for its next send it blocks
//! on `EpochStore::wait_for_epoch`, so it sees each new epoch as the store
//! announces it: the store's per-batch delta chain tells which batches that
//! epoch covers, and each covered batch's ingest-to-publish latency runs from
//! its due time to that sighting. A second thread polls the analytics
//! subscriber at a fixed cadence; analytics lag runs from the sighting of an
//! epoch to the first report covering it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use xtrapulp::metrics::PartitionQuality;
use xtrapulp::StageBreakdown;
use xtrapulp_api::{
    AnalyticsSubscriber, EpochReport, EpochStore, Method, PartitionJob, ServeConfig,
    ServingSession, SubscriberError, UpdateBatch, WarmPolicy,
};
use xtrapulp_gen::{generate_stream, GraphConfig, GraphKind, StreamKind, UpdateStreamConfig};
use xtrapulp_graph::distribution::splitmix64;

use crate::cold::{check_parts, params, quality_matches, quality_metrics};
use crate::report::{Metric, Outcome};
use crate::schedule::OpenLoop;
use crate::stats::{disturbed_frac, median, percentile, ratio, undisturbed};
use crate::{
    cpu_ticks, peak_rss_mb, steal_between, steal_since, Layers, NRANKS, NUM_PARTS, SETUP_REPEATS,
};

/// The base graph.
pub const GRAPH: GraphKind = GraphKind::BarabasiAlbert {
    num_vertices: 32_768,
    edges_per_vertex: 8,
};
/// Update batches submitted together, all due at the same time.
pub const BURST_BATCHES: usize = 8;
/// Time between bursts: 4 batches per second on average. A burst is drained
/// into one epoch of about 0.3 s of warm repartitioning. A single 64-op batch
/// per epoch made an epoch of about 35 ms, so short that the host's CPU steal
/// moved its median latency by 30-60% from one run to the next.
pub const BURST_PERIOD: Duration = Duration::from_secs(2);
/// How often the analytics subscriber polls. Its polls fall halfway between
/// bursts, so its repair (about 0.5 s) and the serve worker's epoch do not
/// compete for the two CPUs.
pub const ANALYTICS_PERIOD: Duration = Duration::from_secs(2);
/// Ops per update batch.
pub const OPS_PER_BATCH: usize = 64;
/// Share of each batch's ops that delete an edge.
pub const DELETE_FRACTION: f64 = 0.5;
/// Read batches issued per second.
pub const READ_RATE: f64 = 200.0;
/// `part_of` lookups per read batch.
pub const READ_BATCH: usize = 64;
/// How long the pipeline may take to publish what was accepted once the
/// window closes, and the subscriber to catch up with it.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

struct Setup {
    batches: Vec<UpdateBatch>,
    serving: ServingSession,
    subscriber: AnalyticsSubscriber,
}

/// Generate the base graph and the churn stream, spawn the serving session (its
/// cold epoch 0 included) and subscribe the analytics consumer (its cold initial
/// state included).
fn setup_once(seed: u64, num_batches: usize) -> Result<Setup, String> {
    let base = GraphConfig::new(GRAPH, seed).generate();
    let stream = generate_stream(
        &base,
        &UpdateStreamConfig {
            kind: StreamKind::RandomChurn {
                ops_per_batch: OPS_PER_BATCH,
                delete_fraction: DELETE_FRACTION,
            },
            num_batches,
            seed,
        },
    );
    let batches = (0..num_batches)
        .map(|i| UpdateBatch::from_ops(stream.batch_ops(i)))
        .collect();
    let job = PartitionJob::new(Method::XtraPulp).with_params(params());
    let serving =
        ServingSession::spawn_with_config(NRANKS, base.to_csr(), job, ServeConfig::default())
            .map_err(|e| e.to_string())?;
    let subscriber = serving.subscribe_analytics(WarmPolicy::default());
    Ok(Setup {
        batches,
        serving,
        subscriber,
    })
}

/// An epoch as the generator first saw it.
struct Sighting {
    epoch: u64,
    at: Instant,
    warm: bool,
    vertices_scored: u64,
    vertices_migrated: u64,
    lp_sweeps: u64,
    stages: StageBreakdown,
}

/// What the generator thread recorded.
#[derive(Default)]
struct Generator {
    /// Due times of the accepted batches, in acceptance order, with the machine's
    /// CPU ticks when each was sent.
    accepted: Vec<(Instant, (u64, u64))>,
    refused: u64,
    /// Accepted batches covered by the epochs seen so far.
    covered: usize,
    /// Seconds from each covered batch's due time to the sighting of its epoch,
    /// with the CPU share the host stole meanwhile.
    ingest_to_publish: Vec<(f64, f64)>,
    /// Seconds from each read batch's due time to its completion.
    reads: Vec<f64>,
    failed_reads: u64,
    broken_chains: u64,
    sightings: Vec<Sighting>,
    last_epoch: u64,
    queue_depth_max: u64,
    late_max: Duration,
    late_sends: u64,
}

impl Generator {
    /// Note a newly published epoch, if `epoch` is one.
    fn observe(&mut self, store: &EpochStore, snapshot: &xtrapulp_api::PartitionSnapshot) {
        if snapshot.epoch <= self.last_epoch {
            return;
        }
        let at = Instant::now();
        let ticks = cpu_ticks();
        match store.deltas_between(self.last_epoch, snapshot.epoch) {
            Some(deltas) => {
                // One delta per applied batch, in application order.
                let newly = self.covered..self.covered + deltas.len();
                for idx in newly {
                    match self.accepted.get(idx) {
                        Some(&(due, sent)) => self
                            .ingest_to_publish
                            .push(((at - due).as_secs_f64(), steal_between(sent, ticks))),
                        None => self.broken_chains += 1,
                    }
                }
                self.covered += deltas.len();
            }
            None => self.broken_chains += 1,
        }
        self.sightings.push(Sighting {
            epoch: snapshot.epoch,
            at,
            warm: snapshot.warm_start,
            vertices_scored: snapshot.vertices_scored,
            vertices_migrated: snapshot.vertices_migrated,
            lp_sweeps: snapshot.lp_sweeps,
            stages: snapshot.stages,
        });
        self.last_epoch = snapshot.epoch;
    }

    /// Block until `until`, noting every epoch published meanwhile the moment the
    /// store announces it.
    fn watch_until(&mut self, store: &EpochStore, until: Instant) {
        while let Some(left) = until.checked_duration_since(Instant::now()) {
            match store.wait_for_epoch(self.last_epoch + 1, left) {
                Some(snapshot) => self.observe(store, &snapshot),
                None => break,
            }
        }
    }

    /// One read batch of `READ_BATCH` lookups, due at `due`.
    fn read(&mut self, store: &EpochStore, due: Instant, cursor: &mut u64) {
        let snapshot = store.current();
        let n = snapshot.num_vertices() as u64;
        let mut ok = n > 0;
        for _ in 0..READ_BATCH {
            *cursor = splitmix64(*cursor);
            match snapshot.part_of(*cursor % n.max(1)) {
                Some(p) if (0..NUM_PARTS as i32).contains(&p) => {}
                _ => ok = false,
            }
        }
        self.reads.push(due.elapsed().as_secs_f64());
        if !ok {
            self.failed_reads += 1;
        }
        self.observe(store, &snapshot);
    }
}

/// Drive the open loop for `seconds`, then wait until every accepted batch is
/// covered by a seen epoch.
fn generate(
    serving: &ServingSession,
    batches: Vec<UpdateBatch>,
    seed: u64,
    start: Instant,
    seconds: f64,
) -> (Generator, Instant) {
    let store = serving.store();
    let queue = serving.queue();
    let mut g = Generator {
        last_epoch: store.epoch(),
        ..Generator::default()
    };
    let mut sends = OpenLoop::new(start, BURST_PERIOD, (batches.len() / BURST_BATCHES) as u64);
    let mut reads = OpenLoop::new(
        start,
        Duration::from_secs_f64(1.0 / READ_RATE),
        (READ_RATE * seconds) as u64,
    );
    let mut pending = batches.into_iter();
    let mut cursor = seed;
    while let Some(next) = [sends.next_due(), reads.next_due()]
        .into_iter()
        .flatten()
        .min()
    {
        g.watch_until(&store, next);
        let now = Instant::now();
        if let Some((_, due)) = sends.take(now) {
            let sent = cpu_ticks();
            for batch in pending.by_ref().take(BURST_BATCHES) {
                match serving.try_ingest(batch) {
                    Ok(()) => g.accepted.push((due, sent)),
                    Err(e) => {
                        g.refused += 1;
                        eprintln!("batch refused: {e}");
                    }
                }
            }
            g.queue_depth_max = g.queue_depth_max.max(queue.queued_ops() as u64);
        }
        if let Some((_, due)) = reads.take(now) {
            g.read(&store, due, &mut cursor);
        }
    }
    g.late_max = sends.late_max().max(reads.late_max());
    g.late_sends = sends.late_sends() + reads.late_sends();

    let limit = Instant::now() + DRAIN_LIMIT;
    while g.covered < g.accepted.len() && Instant::now() < limit {
        g.watch_until(
            &store,
            (Instant::now() + Duration::from_millis(50)).min(limit),
        );
    }
    (g, Instant::now())
}

/// What the analytics thread recorded.
struct Analytics {
    reports: Vec<(EpochReport, Instant)>,
    lagged: u64,
    held: u64,
}

/// Poll the subscriber once every [`ANALYTICS_PERIOD`] until `stop` is raised, then
/// until it has caught up with the store or the drain limit passes.
fn subscribe(
    mut subscriber: AnalyticsSubscriber,
    store: &EpochStore,
    start: Instant,
    stop: &AtomicBool,
) -> Analytics {
    let mut out = Analytics {
        reports: Vec::new(),
        lagged: 0,
        held: subscriber.held_epoch(),
    };
    let mut polls = OpenLoop::new(start + BURST_PERIOD / 2, ANALYTICS_PERIOD, u64::MAX);
    let mut limit = None;
    loop {
        let wait = if stop.load(Ordering::Acquire) {
            let limit = *limit.get_or_insert_with(|| Instant::now() + DRAIN_LIMIT);
            if subscriber.held_epoch() >= store.epoch() || Instant::now() > limit {
                break;
            }
            Duration::from_millis(20)
        } else if polls.take(Instant::now()).is_some() {
            Duration::ZERO
        } else {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        match subscriber.poll(wait) {
            Ok(Some(report)) => out.reports.push((report, Instant::now())),
            Ok(None) => {}
            Err(SubscriberError::Lagged { held, current }) => {
                eprintln!("analytics subscriber lagged: holds {held}, store at {current}");
                out.lagged += 1;
                break;
            }
        }
    }
    out.held = subscriber.held_epoch();
    out
}

/// Seconds from each epoch's sighting to the first report covering it.
fn analytics_lags(sightings: &[Sighting], reports: &[(EpochReport, Instant)]) -> Vec<f64> {
    sightings
        .iter()
        .filter_map(|s| {
            reports
                .iter()
                .find(|(r, _)| r.epoch >= s.epoch)
                .map(|(_, at)| at.saturating_duration_since(s.at).as_secs_f64())
        })
        .collect()
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let bursts = (seconds / BURST_PERIOD.as_secs_f64()).ceil().max(1.0) as usize;
    let num_batches = BURST_BATCHES * bursts;
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = kept.take() {
            drop(previous.subscriber);
            previous.serving.shutdown().map_err(|e| e.to_string())?;
        }
        let start = Instant::now();
        kept = Some(setup_once(seed, num_batches)?);
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let Setup {
        batches,
        serving,
        subscriber,
    } = kept.ok_or("no set-up ran")?;

    let store = serving.store();
    let stop = AtomicBool::new(false);
    let ticks = cpu_ticks();
    let start = Instant::now() + Duration::from_millis(10);
    let (g, end, analytics) = std::thread::scope(|s| {
        let analytics = s.spawn(|| subscribe(subscriber, &store, start, &stop));
        let (g, end) = generate(&serving, batches, seed, start, seconds);
        stop.store(true, Ordering::Release);
        (g, end, analytics.join())
    });
    let analytics = analytics.map_err(|_| "the analytics thread panicked".to_string())?;
    let window_s = (end - start).as_secs_f64();
    let steal = steal_since(ticks);

    let mut out = Outcome {
        attempted: (num_batches + g.reads.len()) as u64,
        failed: g.refused + g.failed_reads + g.broken_chains + analytics.lagged,
        ..Outcome::default()
    };
    let last = store.current();
    let (session, stats) = serving.shutdown().map_err(|e| e.to_string())?;

    out.check(g.covered == g.accepted.len(), || {
        format!(
            "{} batches accepted but the seen epochs cover {}",
            g.accepted.len(),
            g.covered
        )
    });
    out.check(store.epoch() == last.epoch, || {
        format!("epoch {} published after the drain", store.epoch())
    });
    out.check(stats.batches_applied == g.accepted.len() as u64, || {
        format!(
            "{} batches accepted but {} applied",
            g.accepted.len(),
            stats.batches_applied
        )
    });
    out.failed += stats.batches_rejected + stats.repartition_failures;
    out.check(analytics.held == last.epoch, || {
        format!(
            "analytics holds epoch {} but the last published is {}",
            analytics.held, last.epoch
        )
    });
    let csr = session.graph().csr();
    if check_parts(&mut out, "final snapshot", csr, &last.parts) {
        let recomputed = PartitionQuality::evaluate(csr, &last.parts, NUM_PARTS);
        out.check(quality_matches(&recomputed, &last.quality), || {
            format!(
                "final snapshot quality {:?} != recomputed {recomputed:?}",
                last.quality
            )
        });
    }

    let lags = analytics_lags(&g.sightings, &analytics.reports);
    let settled = undisturbed(&g.ingest_to_publish);
    out.end_to_end.push(Metric::new(
        "latency_s",
        median(&settled),
        "s",
        settled.len(),
    ));
    out.end_to_end.extend(quality_metrics(&[last.quality]));
    out.end_to_end.push(Metric::new(
        "setup_s",
        median(&setup_times),
        "s",
        setup_times.len(),
    ));
    out.end_to_end
        .push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1));

    // Not gated: `BENCHMARK.json` gates only metrics every workload reports. The
    // tail counts every batch, disturbed or not.
    let i2p: &Vec<f64> = &g.ingest_to_publish.iter().map(|&(s, _)| s).collect();
    let i2p_p90 = percentile(i2p, 0.9);
    let read_p99_us = percentile(&g.reads, 0.99).map(|s| s * 1e6);
    if let Some(p90) = i2p_p90 {
        out.extra
            .push(Metric::new("ingest_to_publish_p90_s", p90, "s", i2p.len()));
    }
    out.extra.push(Metric::new(
        "analytics_lag_p50_s",
        median(&lags),
        "s",
        lags.len(),
    ));
    if let Some(p99) = read_p99_us {
        out.extra
            .push(Metric::new("read_p99_us", p99, "us", g.reads.len()));
    }
    out.extra
        .push(Metric::new("host_steal_frac", steal, "ratio", 1));
    let disturbed = disturbed_frac(&g.ingest_to_publish);
    out.extra
        .push(Metric::new("disturbed_frac", disturbed, "ratio", i2p.len()));

    if traced {
        let mut l = Layers::new();
        let seen = &g.sightings;
        let n = seen.len();
        let per_epoch = |f: &dyn Fn(&Sighting) -> u64| {
            (
                median(&seen.iter().map(|s| f(s) as f64).collect::<Vec<_>>()),
                n,
            )
        };
        l.insert(
            "core.vertices_scored".into(),
            per_epoch(&|s| s.vertices_scored),
        );
        l.insert("core.lp_sweeps".into(), per_epoch(&|s| s.lp_sweeps));
        l.insert(
            "core.scored.refine".into(),
            per_epoch(&|s| s.stages.refine_scored),
        );
        l.insert(
            "core.scored.balance".into(),
            per_epoch(&|s| s.stages.balance_scored),
        );
        l.insert(
            "core.scored.churn".into(),
            per_epoch(&|s| s.stages.churn_scored),
        );
        l.insert(
            "dynamic.scored_per_epoch_p50".into(),
            per_epoch(&|s| s.vertices_scored),
        );
        l.insert(
            "dynamic.migrated_per_epoch_p50".into(),
            per_epoch(&|s| s.vertices_migrated),
        );
        let warm = seen.iter().filter(|s| s.warm).count() as f64;
        l.insert("dynamic.warm_epoch_frac".into(), (ratio(warm, n as f64), n));

        let epochs = stats.epochs_published as usize;
        l.insert(
            "serve.publish_p50_s".into(),
            (stats.publish_seconds_p50, epochs),
        );
        l.insert(
            "serve.worker_busy_frac".into(),
            (ratio(stats.total_publish_seconds, window_s), epochs),
        );
        l.insert(
            "serve.batches_per_epoch_mean".into(),
            (ratio(stats.batches_applied as f64, epochs as f64), epochs),
        );
        l.insert(
            "serve.queue_depth_max_ops".into(),
            (g.queue_depth_max as f64, num_batches),
        );
        l.insert(
            "serve.generator_late_max_s".into(),
            (g.late_max.as_secs_f64(), num_batches + g.reads.len()),
        );
        l.insert(
            "serve.generator_late_sends".into(),
            (g.late_sends as f64, num_batches + g.reads.len()),
        );
        if let Some(p90) = i2p_p90 {
            l.insert("serve.ingest_to_publish_p90_s".into(), (p90, i2p.len()));
        }
        if let Some(p99) = read_p99_us {
            l.insert("serve.read_p99_us".into(), (p99, g.reads.len()));
        }

        let reports: Vec<&EpochReport> = analytics.reports.iter().map(|(r, _)| r).collect();
        let nr = reports.len();
        let repair: Vec<f64> = reports.iter().map(|r| r.seconds).collect();
        let scored: Vec<f64> = reports
            .iter()
            .map(|r| r.pagerank_vertices_scored as f64)
            .collect();
        let warm_reports = reports.iter().filter(|r| r.warm).count() as f64;
        l.insert("analytics.repair_p50_s".into(), (median(&repair), nr));
        l.insert(
            "analytics.busy_frac".into(),
            (ratio(repair.iter().sum(), window_s), nr),
        );
        l.insert(
            "analytics.pagerank_scored_per_epoch_p50".into(),
            (median(&scored), nr),
        );
        l.insert(
            "analytics.warm_frac".into(),
            (ratio(warm_reports, nr as f64), nr),
        );
        l.insert("analytics.lag_p50_s".into(), (median(&lags), lags.len()));
        l.insert("bench.host_steal_frac".into(), (steal, 1));
        l.insert("bench.disturbed_frac".into(), (disturbed, i2p.len()));
        out.per_layer = crate::per_layer_metrics(&l);
    }
    Ok(out)
}
