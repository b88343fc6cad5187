//! A timing decorator around a rank's [`Transport`].
//!
//! It measures time spent inside `send`, `recv` and `barrier` and counts the
//! frames sent, and otherwise forwards every call unchanged, so a job run over
//! decorated transports computes the same parts as one run without them. It is
//! handed to `Runtime::from_transports`, the way `FaultInjectTransport` is.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use xtrapulp_comm::transport::{BarrierCost, Frame, Transport, TransportError};

/// Cumulative transport time and frame count of one rank.
///
/// Written only by the rank's own thread; read by that thread or, after the job
/// has returned through the runtime's result channel, by the caller.
#[derive(Debug, Default)]
pub struct LinkTimes {
    send_ns: AtomicU64,
    wait_ns: AtomicU64,
    frames_sent: AtomicU64,
}

/// A point-in-time copy of [`LinkTimes`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkSnapshot {
    /// Nanoseconds inside `send`.
    pub send_ns: u64,
    /// Nanoseconds inside `recv` and `barrier`: waiting for peers.
    pub wait_ns: u64,
    /// Frames handed to the inner transport, barrier frames included.
    pub frames_sent: u64,
}

impl LinkTimes {
    pub fn snapshot(&self) -> LinkSnapshot {
        LinkSnapshot {
            send_ns: self.send_ns.load(Ordering::Relaxed), // ordering: statistic; the job's result channel orders it after the writes
            wait_ns: self.wait_ns.load(Ordering::Relaxed), // ordering: statistic; the job's result channel orders it after the writes
            frames_sent: self.frames_sent.load(Ordering::Relaxed), // ordering: statistic; the job's result channel orders it after the writes
        }
    }
}

impl LinkSnapshot {
    /// What was added between `earlier` and this snapshot.
    pub fn since(self, earlier: LinkSnapshot) -> LinkSnapshot {
        LinkSnapshot {
            send_ns: self.send_ns - earlier.send_ns,
            wait_ns: self.wait_ns - earlier.wait_ns,
            frames_sent: self.frames_sent - earlier.frames_sent,
        }
    }

    pub fn send_s(&self) -> f64 {
        self.send_ns as f64 * 1e-9
    }

    pub fn wait_s(&self) -> f64 {
        self.wait_ns as f64 * 1e-9
    }
}

/// A transport that times its inner transport's calls into shared [`LinkTimes`].
pub struct TimedTransport {
    inner: Box<dyn Transport>,
    times: Arc<LinkTimes>,
}

impl TimedTransport {
    pub fn new(inner: Box<dyn Transport>, times: Arc<LinkTimes>) -> TimedTransport {
        TimedTransport { inner, times }
    }
}

/// Wrap each transport, returning the wrapped set and each rank's times, indexed
/// by rank.
pub fn decorate(
    transports: Vec<Box<dyn Transport>>,
) -> (Vec<Box<dyn Transport>>, Vec<Arc<LinkTimes>>) {
    let nranks = transports.first().map_or(0, |t| t.nranks());
    let times: Vec<Arc<LinkTimes>> = (0..nranks).map(|_| Arc::default()).collect();
    let wrapped = transports
        .into_iter()
        .map(|t| {
            let link = Arc::clone(&times[t.rank()]);
            Box::new(TimedTransport::new(t, link)) as Box<dyn Transport>
        })
        .collect();
    (wrapped, times)
}

fn add_elapsed(cell: &AtomicU64, since: Instant) {
    cell.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed); // ordering: statistic bumped by its one writer thread
}

impl Transport for TimedTransport {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn nranks(&self) -> usize {
        self.inner.nranks()
    }

    fn is_wire(&self) -> bool {
        self.inner.is_wire()
    }

    fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    fn clock_offset_ns(&self) -> i64 {
        self.inner.clock_offset_ns()
    }

    fn send(&self, dst: usize, frame: Frame) -> Result<u64, TransportError> {
        let start = Instant::now();
        let sent = self.inner.send(dst, frame);
        add_elapsed(&self.times.send_ns, start);
        if sent.is_ok() {
            self.times.frames_sent.fetch_add(1, Ordering::Relaxed); // ordering: statistic bumped by its one writer thread
        }
        sent
    }

    fn recv(&self, src: usize) -> Result<Frame, TransportError> {
        let start = Instant::now();
        let frame = self.inner.recv(src);
        add_elapsed(&self.times.wait_ns, start);
        frame
    }

    fn recover(&self) -> Result<(), TransportError> {
        self.inner.recover()
    }

    // Forwarded rather than left to the trait default, so the inner transport keeps
    // its own barrier primitive and the decorated job sends the same frames.
    fn barrier(&self) -> Result<BarrierCost, TransportError> {
        let start = Instant::now();
        let cost = self.inner.barrier();
        add_elapsed(&self.times.wait_ns, start);
        if let Ok(cost) = &cost {
            self.times
                .frames_sent
                .fetch_add(cost.frames_sent, Ordering::Relaxed); // ordering: statistic bumped by its one writer thread
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrapulp::PartitionParams;
    use xtrapulp_api::Session;
    use xtrapulp_comm::transport::InProcFabric;
    use xtrapulp_comm::Runtime;
    use xtrapulp_gen::{GraphConfig, GraphKind};
    use xtrapulp_graph::Distribution;

    #[test]
    fn decorator_is_transparent_and_counts_every_frame() {
        let csr = GraphConfig::new(
            GraphKind::Rmat {
                scale: 10,
                edge_factor: 8,
            },
            7,
        )
        .generate()
        .to_csr();
        let params = PartitionParams {
            num_parts: 8,
            sweep_threads: 1,
            ..PartitionParams::default()
        };

        let mut plain = Session::with_distribution(2, Distribution::Block).unwrap();
        let expected = plain.partition(&csr, &params).unwrap();

        let inner: Vec<Box<dyn Transport>> = InProcFabric::create(2)
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .collect();
        let (wrapped, times) = decorate(inner);
        let runtime = Runtime::from_transports(wrapped).unwrap();
        let mut timed = Session::with_runtime(runtime, Distribution::Block);
        let report = timed.partition(&csr, &params).unwrap();

        assert_eq!(report.parts, expected.parts);
        assert_eq!(report.comm.frames_sent, expected.comm.frames_sent);
        let frames: u64 = times.iter().map(|t| t.snapshot().frames_sent).sum();
        assert!(frames > 0);
        assert_eq!(frames, report.comm.frames_sent);
        assert!(times.iter().all(|t| t.snapshot().wait_ns > 0));
    }
}
